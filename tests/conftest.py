"""Shared test plumbing: the hypothesis settings profile, the acceptance
summary printed after the run, an eigensolver call recorder and a check
that no child process is left unreaped."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database.
settings.register_profile("fcoherence", derandomize=True, database=None, deadline=None)
settings.load_profile("fcoherence")


def pytest_configure(config):
    """Hypothesis still caches the literals it reads from the source, so
    its home is a directory removed after the run, not .hypothesis/ in the
    checkout."""
    home = tempfile.TemporaryDirectory(prefix="fcoherence-hypothesis-")
    set_hypothesis_home_dir(home.name)
    config.add_cleanup(home.cleanup)


ACCEPTANCE_LINES: dict[int, str] = {}


def record_acceptance(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES[number] = f"ACCEPTANCE {number:02d} {name}: {status}{suffix}"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(ACCEPTANCE_LINES[number])


@pytest.fixture
def eigh_calls(monkeypatch):
    """Shapes of the np.linalg.eigh calls made in the test; eigvalsh fails."""
    calls = []
    real = np.linalg.eigh

    def counting(m):
        calls.append(np.shape(m))
        return real(m)

    def forbidden(m):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    return calls


@pytest.fixture(scope="session", autouse=True)
def no_unreaped_children():
    """Fail the run if a test left a child process that nobody reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a test left a child process unreaped (waitpid gave pid {pid})")
