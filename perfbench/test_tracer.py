"""Tests of the benchmark's own tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import tracer  # noqa: E402


def test_self_time_of_nested_spans_is_exact():
    names = ["a", "b", "c"]
    #        name start end parent
    spans = [[0, 0, 100, -1],
             [1, 10, 40, 0],
             [2, 15, 25, 1],
             [1, 50, 90, 0],
             [2, 91, 97, 0]]
    out = tracer.summarize(names, spans)
    assert out["a"] == {"calls": 1, "total_ns": 100, "self_ns": 100 - 30 - 40 - 6}
    assert out["b"] == {"calls": 2, "total_ns": 70, "self_ns": (30 - 10) + 40}
    assert out["c"] == {"calls": 2, "total_ns": 16, "self_ns": 16}
    assert sum(row["self_ns"] for row in out.values()) == 100


class TickClock:
    """A clock that advances by one nanosecond per reading."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


def test_wrappers_record_nesting_and_fold_recursion():
    rec = tracer.Recorder(clock=TickClock())

    def leaf(x):
        return x + 1

    leaf_t = rec.wrap("leaf", leaf)

    def walk(n):
        return leaf_t(n) if n == 0 else walk_t(n - 1)

    walk_t = rec.wrap("walk", walk)

    def top():
        return walk_t(3) + leaf_t(0)

    top_t = rec.wrap("top", top)
    assert top_t() == 2
    out = rec.summary()
    # The three recursive walk calls fold into the outermost one.
    assert out["walk"]["calls"] == 1 and out["leaf"]["calls"] == 2 and out["top"]["calls"] == 1
    # Clock readings: top 1, walk 2, leaf 3-4, walk end 5, leaf 6-7, top end 8.
    assert out["top"] == {"calls": 1, "total_ns": 7, "self_ns": 7 - 3 - 1}
    assert out["walk"] == {"calls": 1, "total_ns": 3, "self_ns": 2}
    assert out["leaf"] == {"calls": 2, "total_ns": 2, "self_ns": 2}
    assert [s[tracer.PARENT] for s in rec.spans] == [-1, 0, 1, 0]


def test_install_rebinds_every_reference_and_uninstall_restores():
    import fcoherence as fc
    from fcoherence import coherence, verify

    originals = (fc.coherence_f, coherence.coherence_f, verify.coherence_f, dict(verify.SUITES))
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        assert fc.coherence_f is coherence.coherence_f is verify.coherence_f is not originals[0]
        rho = fc.validate_density(np.array([[0.6, 0.2], [0.2, 0.4]]))
        rec.spans.clear()
        fc.coherence_f(rho, fc.lookup("neg_log"))
        called = {rec.names[s[tracer.NAME]]: s[tracer.PARENT] for s in rec.spans}
        assert called["coherence.coherence_f"] == -1
        assert called["states.eigenvalues"] == 0
        assert called["divergence.f_weighted_sum"] == 0
        assert rec.summary()["divergence.f_weighted_sum"]["calls"] == 2
        metrics = tracer.layer_metrics(rec, 1)
        assert metrics["coherence.coherence_f.calls"] == 1
    finally:
        rec.uninstall()
    assert (fc.coherence_f, coherence.coherence_f, verify.coherence_f, dict(verify.SUITES)) == originals


def test_benchmark_declares_exactly_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = set(tracer.layer_metrics(tracer.Recorder(), 1))
    produced |= {"trace.wall_s", "trace.overhead_ratio", "blas1.wall_s"}
    assert sorted(declared) == sorted(produced)


@pytest.mark.parametrize("trace", [False, True])
def test_untraced_worker_imports_no_tracing_code(tmp_path, trace):
    argv = ["worker.py", "--workload", "cli-files", "--seed", "1", "--workdir", str(tmp_path), "--passes", "1"]
    if trace:
        argv += ["--trace", str(tmp_path / "trace.json.gz")]
    code = (f"import sys; sys.argv = {argv!r}; import worker; worker.main(); "
            "print('tracer' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert json.loads(lines[-2])["failed"] == 0
    assert lines[-1] == str(trace)
