"""Benchmark child process: one workload, one process, one Python thread.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        [--seconds S | --passes N] [--trace FILE] [--setup-probes N]

With ``--setup-probe`` it times the import of ``fcoherence`` and the
generation of the workload's inputs in this fresh interpreter and
exits; ``--setup-probes N`` starts N such probes, spread over the run.
Otherwise it runs one warm-up pass and then timed passes, closed
loop, until ``--seconds`` have passed or ``--passes`` are done, and
prints its measurements as one JSON line. ``--trace FILE`` installs the
span recorder (only then is it imported) and writes the spans to FILE,
gzip-compressed JSON, when the run ends.

Only the standard library is imported before the setup timer starts.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time


# The reference kernel's median time on the machine described in README.md.
REF_NOMINAL_S = 0.014


class Reference:
    """Fixed work that never touches fcoherence, timed around every pass
    to follow the machine's speed, which drifts by tens of percent within
    minutes on a shared host. It mixes what the workloads spend their time
    on: Python arithmetic, small numpy eigensolves, JSON round trips and
    object churn. Its inputs do not depend on the seed."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.small = g @ g.conj().T
        self.doc = {"values": rng.standard_normal((600, 2)).tolist()}

    def time(self) -> float:
        """Seconds the kernel takes now."""
        t = time.perf_counter()
        s = 0.0
        for i in range(20000):
            s += float(i) * 0.5
        for _ in range(200):
            self.np.linalg.eigvalsh(self.small)
        for _ in range(3):
            json.loads(json.dumps(self.doc))
        churn = {i: [i, str(i), (i, i)] for i in range(5000)}
        elapsed = time.perf_counter() - t
        del churn
        return elapsed


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it is
    not OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--passes", type=int, default=0)
    p.add_argument("--trace")
    p.add_argument("--setup-probe", action="store_true")
    p.add_argument("--setup-probes", type=int, default=0)
    args = p.parse_args()

    t0 = time.perf_counter()
    from workloads import WORKLOADS, Ops

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_probe:
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    ref = Reference()

    workload.prepare()
    rec = None
    if args.trace:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    ops = Ops()
    workload.check(ops, workload.run_pass(ops))
    if rec is not None:
        rec.spans.clear()
        rec.counters.clear()

    def setup_probe() -> float:
        """One fresh interpreter's set-up time."""
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--workdir", args.workdir, "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        return json.loads(probe.stdout)["setup_s"]

    # The set-up probes run between passes, spread over the run, while this
    # process waits. Their times are not scaled: import time does not
    # follow the reference kernel.
    raw, per_pass_commands, refs, probes = [], [], [], []
    start = time.perf_counter()
    while True:
        share = (time.perf_counter() - start) / args.seconds if args.seconds else 1.0
        while len(probes) < min(args.setup_probes, 1 + int(args.setup_probes * share)):
            probes.append(setup_probe())
        first = len(ops.commands)
        before = ref.time()
        t = time.perf_counter()
        outputs = workload.run_pass(ops)
        raw.append(time.perf_counter() - t)
        refs.append((before, ref.time()))
        per_pass_commands.append(ops.commands[first:])
        workload.check(ops, outputs)
        if args.passes and len(raw) >= args.passes:
            break
        if not args.passes and time.perf_counter() - start >= args.seconds:
            break
    while len(probes) < args.setup_probes:
        probes.append(setup_probe())

    # Each pass, and each command in it, is scaled to reference seconds by
    # the median reference time over the pass and its two neighbours on
    # each side.
    scales = [REF_NOMINAL_S / statistics.median(r for pair in refs[max(0, i - 2):i + 3] for r in pair)
              for i in range(len(refs))]
    passes = [t * k for t, k in zip(raw, scales)]
    commands = [c * k for cmds, k in zip(per_pass_commands, scales) for c in cmds]
    scale = statistics.median(scales)

    commands.sort()
    result = {
        "wall_s": statistics.median(passes),
        "raw_wall_s": statistics.median(raw),
        "ref_scale": scale,
        "passes": len(passes),
        "cmd_p50_ms": percentile(commands, 50) * 1e3,
        "cmd_p90_ms": percentile(commands, 90) * 1e3,
        "commands": len(commands),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine(),
        "info": workload.info(),
    }
    if probes:
        result["setup_s"] = statistics.median(probes)
    if rec is not None:
        rec.uninstall()
        result["layers"] = tracer.layer_metrics(rec, len(passes), scale)
        with gzip.open(args.trace, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "passes": len(passes),
                       "machine": result["machine"], "names": rec.names, "spans": rec.spans,
                       "counters": rec.counters}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
