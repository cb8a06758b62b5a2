"""Rules the package applies in one place only.

Each test pins a shared implementation to the code it replaced, which is
kept here as the reference, and the export tests keep every export list
free of names that no longer exist.

Run as a script, ``PYTHONPATH=src python tests/test_folds.py`` prints the
lines and code lines of each module of the package and their totals:
code lines are those that hold a token other than a comment, not
counting docstrings.
"""

import ast
import importlib
import inspect
import io
import pathlib
import pkgutil
import subprocess
import sys
import tokenize

import numpy as np
import pytest

import fcoherence
from fcoherence import (
    DensityMatrix,
    GioChannel,
    KrausChannel,
    TrialConfig,
    depolarizing_extension,
    diagonal_unitary_mixture,
    erasure_extension,
    gio_saturation_check,
    load_channel,
    random_channel,
    random_density,
    random_gio,
    save_channel,
    save_state,
    sio_counterexample_report,
)
from fcoherence.channels import _saturated, _worst_overlaps, max_offdiagonal
from fcoherence.cli import DECREASING_BUILTINS, main
from fcoherence.errors import BadWeights, ChannelValidationError, TraceNotOne
from fcoherence.states import TOL_TRACE, _eigh
from fcoherence.verify import SUITES


def loop_depolarizing_kraus(dim):
    eye = np.eye(dim, dtype=complex)
    ops = []
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(dim)
            ops.append(np.kron(eye, e))
    return np.array(ops)


def loop_erasure_kraus(dim):
    eye = np.eye(dim, dtype=complex)
    ops = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[0, j] = 1.0
        ops.append(np.kron(eye, e))
    return np.array(ops)


@pytest.mark.parametrize("dim", range(2, 11))
@pytest.mark.parametrize(
    "build, reference",
    [(depolarizing_extension, loop_depolarizing_kraus), (erasure_extension, loop_erasure_kraus)],
    ids=["depol-ext", "erase-ext"],
)
def test_extension_stack_equals_loop_builder(build, reference, dim):
    got, want = build(dim).kraus_ops, reference(dim)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_offdiagonal(m):
    """Reference off-diagonal rule on one matrix: 0 when d = 1."""
    return np.abs(m - np.diag(np.diagonal(m))).max() if m.shape[0] > 1 else 0.0


class TestMaxOffdiagonal:
    def test_one_matrix(self):
        for seed in range(5):
            m = random_density(4, 1 + seed % 4, seed=seed).matrix
            assert max_offdiagonal(m) == reference_offdiagonal(m)

    def test_stack_is_the_largest_over_its_matrices(self):
        stack = np.array([random_density(3, 2, seed=s).matrix for s in range(4)])
        assert max_offdiagonal(stack) == max(reference_offdiagonal(m) for m in stack)
        assert max_offdiagonal(stack[None]) == max_offdiagonal(stack)

    def test_dimension_one(self):
        assert max_offdiagonal(np.ones((1, 1))) == 0.0
        assert max_offdiagonal(np.ones((3, 1, 1))) == 0.0

    def test_empty_stack(self):
        assert max_offdiagonal(np.ones((0, 3, 3))) == 0.0
        assert max_offdiagonal(np.ones((2, 0, 4, 4))) == 0.0

    def test_leaves_its_input_alone(self):
        m = np.full((2, 2), 0.5)
        max_offdiagonal(m)
        assert (m == 0.5).all()


def reference_loaded_type(ops):
    """The class load_channel picked before it asked GioChannel itself."""
    off = np.abs(ops)
    idx = np.arange(off.shape[-1])
    off[:, idx, idx] = 0.0
    return GioChannel if off.max() <= 1e-12 else KrausChannel


class TestLoadChannel:
    def save(self, tmp_path, ops, name):
        path = str(tmp_path / f"{name}.json")
        save_channel(KrausChannel(ops, require_trace_preserving=False), path)
        return path

    def test_diagonal_file_gives_gio_channel(self, tmp_path):
        ops = random_gio(3, 2, seed=1).kraus_ops
        ch = load_channel(self.save(tmp_path, ops, "gio"))
        assert type(ch) is GioChannel is reference_loaded_type(ops)
        assert ch.kraus_ops.tobytes() == ops.tobytes()

    def test_non_diagonal_file_gives_kraus_channel(self, tmp_path):
        ops = random_channel(3, 2, seed=2).kraus_ops
        ch = load_channel(self.save(tmp_path, ops, "general"))
        assert type(ch) is KrausChannel is reference_loaded_type(ops)

    def test_tiny_off_diagonal_entry_still_gives_gio_channel(self, tmp_path):
        ops = random_gio(3, 2, seed=1).kraus_ops.copy()
        ops[0, 0, 1] = 5e-13
        ch = load_channel(self.save(tmp_path, ops, "nearly"))
        assert type(ch) is GioChannel is reference_loaded_type(ops)

    def test_incomplete_diagonal_file_exits_3_with_gio_message(self, tmp_path, capsys):
        ops = 1.01 * random_gio(3, 2, seed=1).kraus_ops
        path = self.save(tmp_path, ops, "incomplete")
        coeffs = np.diagonal(ops, axis1=1, axis2=2)
        defect = np.linalg.norm((np.abs(coeffs) ** 2).sum(axis=0) - 1.0)
        message = f"sum K*K deviates from identity by {defect:.3e} (Frobenius)"
        with pytest.raises(ChannelValidationError) as info:
            load_channel(path)
        assert str(info.value) == message
        assert reference_loaded_type(ops) is GioChannel
        state = str(tmp_path / "state.json")
        save_state(DensityMatrix.maximally_mixed(3), state)
        capsys.readouterr()
        assert main(["channel", path, state]) == 3
        assert capsys.readouterr().err == f"fcoherence: {message}\n"

    def test_diagonal_file_too_large_to_square_exits_3_with_one_line(self, tmp_path):
        path = self.save(tmp_path, np.array([np.diag([1e200, 1.0])]), "huge")
        message = "sum K*K deviates from identity by inf (Frobenius)"
        with pytest.raises(ChannelValidationError) as info:
            load_channel(path)
        assert str(info.value) == message
        state = str(tmp_path / "state.json")
        save_state(DensityMatrix.maximally_mixed(2), state)
        # A child process without warnings turned into errors, so any
        # warning text would reach its standard error.
        proc = subprocess.run(
            [sys.executable, "-m", "fcoherence", "channel", path, state], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", f"fcoherence: {message}\n")


def near_saturating(gap):
    """A two-Kraus diagonal channel on C^2 whose coefficient columns have
    squared overlap 1 - gap."""
    return GioChannel.from_coefficients([[1.0, np.sqrt(1.0 - gap)], [0.0, np.sqrt(gap)]])


def test_gio_suite_verdict_is_the_saturation_check():
    # The gio-monotonicity suite scores _saturated(*_worst_overlaps(corrs,
    # rhos)) at both defaults; pairs just inside and just outside 1e-6.
    chans = [near_saturating(5e-7), near_saturating(2e-6)]
    rho = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    worst, values = _worst_overlaps(np.array([ch.correlation for ch in chans]), np.array([rho.matrix] * 2))
    np.testing.assert_allclose(values, [1.0 - 5e-7, 1.0 - 2e-6], rtol=0.0, atol=1e-15)
    reports = [gio_saturation_check(ch, rho) for ch in chans]
    assert _saturated(worst, values).tolist() == [r.saturates for r in reports] == [True, False]


@pytest.mark.parametrize("excess", [5e-11, -5e-11, 2e-10, -2e-10])
def test_mixture_weights_sum_to_one_as_probabilities_do(excess):
    weights = [0.5, 0.5 + excess]
    if abs(sum(weights) - 1.0) <= TOL_TRACE:
        DensityMatrix.from_diagonal(weights)
        diagonal_unitary_mixture(weights, [[0.0], [1.0]])
        return
    with pytest.raises(TraceNotOne):
        DensityMatrix.from_diagonal(weights)
    with pytest.raises(BadWeights, match="^weights sum to "):
        diagonal_unitary_mixture(weights, [[0.0], [1.0]])


def test_report_dicts_keep_the_field_order():
    rep = SUITES["sio-counterexample"](TrialConfig(dims=(2,), trials_per_case=1, seed=0))
    assert rep.to_json_dict() == {
        "suite": rep.suite,
        "passed": rep.passed,
        "trials": rep.trials,
        "worst_violation": rep.worst_violation,
        "worst_case_seed": rep.worst_case_seed,
        "tol_violation": rep.tol_violation,
        "notes": rep.notes,
    }
    assert list(rep.to_json_dict()) == [
        "suite", "passed", "trials", "worst_violation", "worst_case_seed", "tol_violation", "notes",
    ]
    sio = sio_counterexample_report("power:0.5", 2)
    assert sio.to_json_dict() == {
        "f_name": sio.f_name,
        "dim": sio.dim,
        "lhs_plain": sio.lhs_plain,
        "rhs_plain": sio.rhs_plain,
        "lhs_hat": sio.lhs_hat,
        "rhs_hat": sio.rhs_hat,
        "gap": sio.gap,
        "cross_check_error": sio.cross_check_error,
    }
    assert list(sio.to_json_dict()) == [
        "f_name", "dim", "lhs_plain", "rhs_plain", "lhs_hat", "rhs_hat", "gap", "cross_check_error",
    ]


def test_decreasing_builtins_are_the_decreasing_default_specs():
    assert DECREASING_BUILTINS == ("neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5")


MODULES = sorted(
    f"fcoherence.{info.name}" for info in pkgutil.iter_modules(fcoherence.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["fcoherence"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_only_states_calls_the_eigensolver():
    # states._eigh turns LinAlgError into ConvergenceFailure.
    sources = {m: inspect.getsource(importlib.import_module(m)) for m in MODULES}
    assert {m: src.count("linalg.eigh") for m, src in sources.items() if "linalg.eigh" in src} == {
        "fcoherence.states": 1
    }
    assert "np.linalg.eigh" in inspect.getsource(_eigh)


def test_export_lists_are_checked():
    assert len([m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]) >= 8


def code_lines(source: str) -> int:
    """The lines of Python source that hold a token other than a comment,
    less those of the module, class and function docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""Module
docstring."""

# a comment
def f(x):  # trailing comment
    """Docstring."""
    s = """not a
    docstring"""
    return (x +
            1)


class C:
    """Docstring
    of a class."""
'''
    # def f, the two lines of s, the two of the return and class C.
    assert code_lines(source) == 6


def sizes() -> int:
    """Print the lines and code lines of each module and their totals."""
    total = [0, 0]
    for path in sorted(pathlib.Path(fcoherence.__file__).parent.glob("*.py")):
        source = path.read_text()
        counts = len(source.splitlines()), code_lines(source)
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:16s} lines {counts[0]:5d}  code lines {counts[1]:5d}")
    print(f"{'total':16s} lines {total[0]:5d}  code lines {total[1]:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(sizes())
