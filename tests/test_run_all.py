"""run_all shares the suites among the usable CPUs through fork; these
tests pin that the result is the one of a run one suite after another."""

import json
import os
import pickle
import subprocess
import sys
import threading
import time

import pytest

from fcoherence import verify
from fcoherence.cli import main
from fcoherence.errors import CoherenceError, DimensionMismatch, UnknownGenerator
from fcoherence.verify import SUITES, TrialConfig, VerificationReport, run_all

TINY = TrialConfig(dims=(2,), trials_per_case=1, seed=1)
NAMES = list(SUITES)

forks = pytest.mark.skipif(verify._share_count() < 2, reason="needs two usable CPUs")

# Runs run_all in a fresh interpreter pinned to one CPU, where os.fork
# must not be called, and writes the pickled reports to stdout.
PINNED = """
import os, pickle, sys
from fcoherence.verify import TrialConfig, run_all
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def no_fork():
    raise AssertionError("forked with one usable CPU")
os.fork = no_fork
cfg = TrialConfig(dims=(2, 3), trials_per_case=12, seed=4)
sys.stdout.buffer.write(pickle.dumps(run_all(cfg)))
"""


def raising(error):
    def suite(cfg):
        raise error

    return suite


def test_reports_equal_a_single_cpu_run():
    pinned = subprocess.run([sys.executable, "-c", PINNED], capture_output=True, check=True)
    reports = run_all(TrialConfig(dims=(2, 3), trials_per_case=12, seed=4))
    assert pickle.loads(pinned.stdout) == reports
    assert [r.suite for r in reports] == NAMES


def test_other_threads_keep_one_share(monkeypatch):
    def no_fork():
        raise AssertionError("forked with another thread running")

    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        monkeypatch.setattr(os, "fork", no_fork)
        assert [r.suite for r in run_all(TINY)] == NAMES
    finally:
        release.set()
        waiter.join()


def test_failing_suite_at_odd_index_exits_6(capsys, monkeypatch):
    name = NAMES[1]  # share 1: a child's first suite

    def failing(cfg):
        return VerificationReport(name, False, 1, 1.0, 0, cfg.tol_violation, notes=str(os.getpid()))

    monkeypatch.setitem(SUITES, name, failing)
    assert main(["verify", "--suite", "all", "--trials", "1", "--dims", "2"]) == 6
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["suite"] for doc in docs] == NAMES
    assert [doc["passed"] for doc in docs] == [True, False, True, True, True, True]
    if verify._share_count() > 1:
        assert docs[1]["notes"] != str(os.getpid())


@pytest.mark.parametrize(
    "failures, expected",
    [
        ({1: UnknownGenerator("one")}, "one"),
        ({1: UnknownGenerator("one"), 2: DimensionMismatch("two")}, "one"),
        ({2: DimensionMismatch("two"), 3: UnknownGenerator("three")}, "two"),
        ({3: UnknownGenerator("three"), 5: DimensionMismatch("five")}, "three"),
        ({4: DimensionMismatch("four"), 5: UnknownGenerator("five")}, "four"),
    ],
)
def test_first_failing_suite_in_order_raises(monkeypatch, failures, expected):
    for index, error in failures.items():
        monkeypatch.setitem(SUITES, NAMES[index], raising(error))
    first = failures[min(failures)]
    with pytest.raises(type(first), match=f"^{expected}$"):
        run_all(TINY)


@forks
def test_child_that_dies_is_a_typed_error(capsys, monkeypatch):
    parent = os.getpid()

    def dies(cfg):
        assert os.getpid() != parent
        os._exit(7)

    monkeypatch.setitem(SUITES, NAMES[1], dies)
    with pytest.raises(CoherenceError, match=f"{NAMES[1]}.*wait status"):
        run_all(TINY)
    assert main(["verify", "--suite", "all", "--trials", "1", "--dims", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert NAMES[1] in captured.err and "Traceback" not in captured.err


@forks
def test_failed_fork_is_a_typed_error(monkeypatch):
    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(CoherenceError, match="cannot fork"):
        run_all(TINY)
    assert sorted(os.listdir("/proc/self/fd")) == fds


@forks
def test_interrupt_kills_and_reaps_children(monkeypatch):
    monkeypatch.setitem(SUITES, NAMES[0], raising(KeyboardInterrupt()))
    monkeypatch.setitem(SUITES, NAMES[1], lambda cfg: time.sleep(60))
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_all(TINY)
    assert time.perf_counter() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_text_printed_before_verify_appears_once():
    code = (
        "import sys\n"
        "from fcoherence.cli import main\n"
        "print('before')\n"
        "sys.exit(main(['verify', '--suite', 'all', '--trials', '1', '--dims', '2']))\n"
    )
    # Block-buffered stdout, so 'before' is still in the buffer at the fork.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before"
    assert proc.stdout.count("before") == 1
    assert [json.loads(line)["suite"] for line in lines[1:]] == NAMES
