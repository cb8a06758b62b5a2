"""fcoherence benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is used from ``src/``; it
is pure Python, so there is nothing to build. Workloads, metrics and
bounds are declared in ``BENCHMARK.json``; ``perfbench/README.md`` says
why each workload exists.

``--trace 0`` measures the end-to-end metrics with one worker process
that runs the workload closed loop for ``--seconds``; between passes it
starts SETUP_PROBES fresh interpreters that import ``fcoherence`` and
generate the inputs, for ``setup_s``. Pass and command times are in
reference seconds: see ``Reference`` in ``worker.py``.

``--trace 1`` measures the per-layer metrics: one untraced worker and
one traced worker share ``--seconds``, and a last traced pass runs with
BLAS pinned to one thread. Spans go to ``.perfbench_out/``.

A human-readable table goes to standard error. Standard output ends
with a line describing the machine and the runs, then the result line
``{"correct", "attempted", "failed", "metrics"}``. The exit code is not
0, and no result is printed, when the package is missing or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 9
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        self._n = 0

    def worker(self, *extra: str, env: dict | None = None) -> dict:
        self._n += 1
        workdir = os.path.join(self.workdir, str(self._n))
        os.makedirs(workdir)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir, *extra]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise WorkerFailed("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env={**self.env, **(env or {})},
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker timed out: {' '.join(extra)}") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: Runner, seconds: float) -> tuple[dict, list[dict]]:
    res = run.worker("--seconds", str(seconds), "--setup-probes", str(SETUP_PROBES))
    metrics = {name: res[name] for name in ("setup_s", "wall_s", "peak_rss_mb", "cmd_p50_ms", "cmd_p90_ms")}
    return metrics, [res]


def per_layer(run: Runner, seconds: float, trace_stem: str) -> tuple[dict, list[dict]]:
    plain = run.worker("--seconds", str(seconds / 2))
    traced = run.worker("--seconds", str(seconds / 2), "--trace", trace_stem + ".json.gz")
    single = run.worker("--passes", "1", "--trace", trace_stem + "-blas1.json.gz", env=SINGLE_THREAD_ENV)
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics["blas1.wall_s"] = single["wall_s"]
    return metrics, [plain, traced, single]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in declared["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fcoherence", "__init__.py")):
        print(f"perfbench: no fcoherence package under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    run = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            stem = os.path.join(outdir, f"trace-{args.workload}-seed{args.seed}")
            metrics, results = per_layer(run, args.seconds, stem)
        else:
            metrics, results = end_to_end(run, args.seconds)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: measured metrics {sorted(set(metrics) ^ set(units))} "
              "disagree with BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"  {'error_rate':<48} {failed / attempted:>14.6g} failed/attempted "
          f"({failed}/{attempted})", file=sys.stderr)
    for e in errors[:5]:
        print(f"  error: {e}", file=sys.stderr)

    runs = [{k: r[k] for k in ("wall_s", "raw_wall_s", "ref_scale", "passes", "commands", "attempted", "failed", "info")}
            for r in results]
    print(json.dumps({"machine": results[0]["machine"],
                      "blas1_machine": results[-1]["machine"] if args.trace else None,
                      "runs": runs}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
