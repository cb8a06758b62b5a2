"""Shared test plumbing: the acceptance summary printed after the run and
an eigensolver call recorder."""

import numpy as np
import pytest

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
