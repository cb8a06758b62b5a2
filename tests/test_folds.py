"""Rules the package applies in one place only.

Each test pins a shared implementation to the code it replaced, which is
kept here as the reference, and the last test keeps every export list
free of names that no longer exist.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import fcoherence
from fcoherence import (
    DensityMatrix,
    GioChannel,
    KrausChannel,
    TrialConfig,
    depolarizing_extension,
    erasure_extension,
    is_incoherent,
    load_channel,
    random_channel,
    random_density,
    random_gio,
    save_channel,
    save_state,
    sio_counterexample_report,
)
from fcoherence.channels import max_offdiagonal
from fcoherence.cli import DECREASING_BUILTINS, main
from fcoherence.errors import ChannelValidationError
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
    """The off-diagonal rule as is_incoherent applied it on one matrix."""
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
        assert is_incoherent(DensityMatrix(np.ones((1, 1))))

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


def test_export_lists_are_checked():
    assert len([m for m in MODULES if hasattr(importlib.import_module(m), "__all__")]) >= 8
