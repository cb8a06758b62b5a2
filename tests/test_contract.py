"""The input contract of the public surface.

Every public callable of the package with a numeric slot (a size, seed,
tolerance, real parameter or numeric array) is listed below with one
valid argument tuple. Each bad value of ``BAD`` goes into each numeric
slot in turn, with warnings raised as errors, and the call must return a
value or raise a CoherenceError subclass. The documented exceptions are
``TrialConfig`` and the ``fun`` of ``ensemble_coherence``, which raise
ValueError. Slots that take a state, channel, generator, spec string,
path or config keep Python's own TypeError and AttributeError and are
not swept.

Run as a script, ``PYTHONPATH=src python tests/test_contract.py`` prints
one line per callable with its typed, value and bare counts, and exits 1
when any outcome is bare (an exception outside the contract, or a
warning).
"""

import inspect
import math
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

import fcoherence
from fcoherence import (
    DensityMatrix,
    GeneratorFunction,
    GioChannel,
    KrausChannel,
    PureState,
    TrialConfig,
    coherence_f,
    dephasing_channel,
    depolarizing_extension,
    diagonal_unitary_mixture,
    ensemble_coherence,
    erasure_extension,
    f_weighted_sum,
    gio_saturation_check,
    is_sio,
    lookup,
    max_coherent_state,
    neg_log,
    petz_recovery,
    power,
    power_coherence,
    random_channel,
    random_density,
    random_gio,
    random_pure,
    random_unital_channel,
    random_unitary,
    sio_counterexample_report,
    trace_norm,
    tsallis,
    validate_density,
)
from fcoherence.channels import max_offdiagonal
from fcoherence.divergence import spectral_sums
from fcoherence.errors import CoherenceError, DimensionMismatch, ParamOutOfRange

BAD = [None, "x", 1j, math.nan, math.inf, -1, 0, True, 10**400, [], np.array(0.5), 2.5]
BAD_IDS = ["None", "'x'", "1j", "nan", "inf", "-1", "0", "True", "10**400", "[]", "np.array(0.5)", "2.5"]

RHO = random_density(2, 2, 1)
GIO = random_gio(2, 2, 3)
KRAUS = random_channel(2, 2, 5)
F = neg_log()
MIXED = np.eye(2) / 2

# (name, callable, valid arguments, slot name per argument (None for an
# object slot), exception classes documented besides CoherenceError)
ROWS = [
    ("DensityMatrix", DensityMatrix, (MIXED,), ("matrix",), ()),
    ("DensityMatrix.maximally_mixed", DensityMatrix.maximally_mixed, (2,), ("dim",), ()),
    ("DensityMatrix.from_diagonal", DensityMatrix.from_diagonal, ([0.5, 0.5],), ("probabilities",), ()),
    ("PureState", PureState, ([1.0, 0.0],), ("amplitudes",), ()),
    ("validate_density", validate_density, (MIXED,), ("matrix",), ()),
    ("trace_norm", trace_norm, (MIXED,), ("matrix",), ()),
    ("random_pure", random_pure, (2, 1), ("dim", "seed"), ()),
    ("random_density", random_density, (2, 1, 1), ("dim", "rank", "seed"), ()),
    ("random_unitary", random_unitary, (2, 1), ("dim", "seed"), ()),
    ("power", power, (0.5,), ("p",), ()),
    ("tsallis", tsallis, (0.5,), ("q",), ()),
    ("power_coherence", power_coherence, (RHO, 0.5), (None, "alpha"), ()),
    ("max_coherent_state", max_coherent_state, (2,), ("dim",), ()),
    ("f_weighted_sum", f_weighted_sum, ([0.5, 0.5], 0.5, F), ("values", "numerator", None), ()),
    ("KrausChannel", KrausChannel, ([np.eye(2)],), ("kraus_ops",), ()),
    ("KrausChannel.apply_matrix", KRAUS.apply_matrix, (MIXED,), ("m",), ()),
    ("GioChannel", GioChannel, ([np.eye(2)],), ("kraus_ops",), ()),
    ("GioChannel.from_coefficients", GioChannel.from_coefficients, ([[1.0, 1.0]],), ("coefficients",), ()),
    ("GioChannel.apply_matrix", GIO.apply_matrix, (MIXED,), ("m",), ()),
    ("dephasing_channel", dephasing_channel, (2,), ("dim",), ()),
    ("depolarizing_extension", depolarizing_extension, (2,), ("dim",), ()),
    ("erasure_extension", erasure_extension, (2,), ("dim",), ()),
    (
        "diagonal_unitary_mixture",
        diagonal_unitary_mixture,
        ([0.5, 0.5], [[0.0, 0.0], [0.0, 1.0]]),
        ("weights", "phase_table"),
        (),
    ),
    ("random_gio", random_gio, (2, 2, 1), ("dim", "num_kraus", "seed"), ()),
    ("random_channel", random_channel, (2, 2, 1), ("dim", "num_kraus", "seed"), ()),
    ("random_unital_channel", random_unital_channel, (2, 2, 1), ("dim", "num_unitaries", "seed"), ()),
    ("is_sio", is_sio, (KRAUS, 1e-10), (None, "tol"), ()),
    ("gio_saturation_check", gio_saturation_check, (GIO, RHO, 1e-6), (None, None, "tol"), ()),
    ("petz_recovery", petz_recovery, (KRAUS, MIXED), (None, "sigma"), ()),
    ("PetzRecoveryMap", petz_recovery(KRAUS, MIXED), (MIXED,), ("omega",), ()),
    ("sio_counterexample_report", sio_counterexample_report, ("neg_log", 2), (None, "d"), ()),
    (
        # dims is a sequence of sizes: its one element is the slot.
        "TrialConfig",
        lambda d, trials, seed, tol: TrialConfig(dims=(d,), trials_per_case=trials, seed=seed, tol_violation=tol),
        (2, 1, 0, 1e-9),
        ("dims[0]", "trials_per_case", "seed", "tol_violation"),
        (ValueError,),
    ),
    ("ensemble_coherence", ensemble_coherence, (KRAUS, RHO, F, coherence_f), (None, None, None, "fun"), (ValueError,)),
]
# Module-level names outside the package namespace that take a stack,
# swept like the rows above.
MODULE_ROWS = [
    ("divergence.spectral_sums", spectral_sums, ([[0.5, 0.5]], [F]), ("rows", None), ()),
    ("channels.max_offdiagonal", max_offdiagonal, (MIXED,), ("matrices",), ()),
]

# Public callables whose every slot takes a state, channel, generator,
# spec string, path or config, and the result records the package builds.
OBJECT_SLOTS_ONLY = {
    "builtin_channel", "channel_to_json", "coherence_f", "coherence_f_hat", "coherence_table", "dephase",
    "dephasing_distance", "divergence_table", "entropy_table", "f_entropy", "f_entropy_hat", "load_channel",
    "load_channel_or_builtin", "load_state", "lookup", "neg_log", "oracle_divergence_table",
    "oracle_quasi_relative_entropy", "outcome_ensembles", "quasi_relative_entropy", "relative_entropy_coherence",
    "run_all", "save_channel", "save_state", "spectral_decompose", "state_to_json", "suite_divergence_oracle",
    "suite_entropy_bounds", "suite_faithfulness_and_bounds", "suite_gio_monotonicity", "suite_sio_counterexample",
    "suite_strong_monotonicity", "CoherenceResult", "MeasurementOutcome", "PowerCoherence", "SaturationReport",
    "SioCounterexampleReport", "SpectralDecomposition", "VerificationReport",
}
# A generator's own call f(x) follows numpy.
DOCUMENTED = {GeneratorFunction.__name__}

SLOTS = [(row, i) for row in ROWS + MODULE_ROWS for i, slot in enumerate(row[3]) if slot is not None]


def outcome(fn, args, allowed=()) -> str:
    """"value", "typed" or "bare <exception>" for fn(*args), with every
    warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except (CoherenceError, *allowed):
            return "typed"
        except Exception as exc:  # anything else breaks the contract
            return f"bare {type(exc).__name__}: {exc}"
    return "value"


def swept(row, index, value) -> str:
    """The outcome of row's call with value in its argument at index."""
    _, fn, args, _, allowed = row
    return outcome(fn, args[:index] + (value,) + args[index + 1 :], allowed)


def test_every_public_callable_is_listed():
    public = {
        name
        for name, obj in vars(fcoherence).items()
        if not name.startswith("_") and callable(obj) and not inspect.ismodule(obj)
    }
    assert public == {name.split(".")[0] for name, *_ in ROWS} | OBJECT_SLOTS_ONLY | DOCUMENTED


@pytest.mark.parametrize("row", ROWS + MODULE_ROWS, ids=[row[0] for row in ROWS + MODULE_ROWS])
def test_valid_arguments_give_a_value(row):
    assert outcome(row[1], row[2]) == "value"


@pytest.mark.parametrize("row,index", SLOTS, ids=[f"{row[0]}-{row[3][i]}" for row, i in SLOTS])
def test_bad_values_give_a_value_or_a_typed_error(row, index):
    bare = {name: got for name, value in zip(BAD_IDS, BAD) if (got := swept(row, index, value)).startswith("bare")}
    assert not bare


@pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
def test_extensions_refuse_an_unaddressable_ancilla(build):
    with pytest.raises(DimensionMismatch, match=r"^dimension must be addressable, got 10{400}$"):
        build(10**400)


def test_size_rule_stops_where_numpy_stops_addressing():
    # The largest d whose d x d complex matrix has at most sys.maxsize
    # bytes; an extension stores d alone, so nothing is allocated.
    largest = math.isqrt(sys.maxsize // 16)
    assert depolarizing_extension(largest).dim == largest**2
    with pytest.raises(DimensionMismatch, match="^dimension must be addressable, got "):
        depolarizing_extension(largest + 1)
    with pytest.raises(DimensionMismatch, match="^need addressable dimension and Kraus count, got 2, "):
        random_gio(2, largest + 1, 1)


@pytest.mark.parametrize(
    "numerator", [0, -1.0, math.nan, math.inf, None, np.array([[0.5], [0.0]])], ids=repr
)
def test_f_weighted_sum_numerator_must_be_positive_and_finite(numerator):
    with pytest.raises(ParamOutOfRange, match="^numerator must be positive and finite, got "):
        f_weighted_sum([0.5, 0.5], numerator, F)


@pytest.mark.parametrize("spec,limit", [("neg_log", math.inf), ("tsallis:0.5", math.inf), ("power:1.5", -math.inf)])
def test_f_weighted_sum_infinite_entry_contributes_its_limit(spec, limit):
    f = lookup(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = f_weighted_sum([[math.inf, 0.5], [0.5, 0.5], [math.nan, math.inf]], 1.0, f)
        if f.weighted_inf_limit == 0.0:
            assert f_weighted_sum([math.inf, 0.5, 0.0], 1.0, f) == limit
    assert got[0] == limit and got[1] == f_weighted_sum([0.5, 0.5], 1.0, f) and math.isnan(got[2])


def test_f_weighted_sum_ratio_overflow_is_a_typed_error():
    # 1e300 / 1e-11 overflows; the true sum is finite, about -690.78.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParamOutOfRange, match="^numerator 1e[+]300 over an entry of values overflows$"):
            f_weighted_sum([1e-11, 1.0], 1e300, F)
        with pytest.raises(ParamOutOfRange, match="overflows$"):
            f_weighted_sum([[0.5, 0.5], [1e-11, 1.0]], np.array([1.0, 1e300]), F)
        # Below EPS_ZERO an entry contributes its limit, so nothing overflows.
        assert f_weighted_sum([1e-13, 1.0], 1e300, F) == pytest.approx(-math.log(1e300))


@pytest.mark.parametrize(
    "call,shape",
    [
        (lambda: spectral_sums(np.array(0.5), [F]), r"\(\)"),
        (lambda: spectral_sums(np.zeros((2, 0)), [F]), r"\(2, 0\)"),
        (lambda: max_offdiagonal(np.array(0.5)), r"\(\)"),
        (lambda: max_offdiagonal(np.ones((2, 3))), r"\(2, 3\)"),
    ],
    ids=["spectral_sums-0d", "spectral_sums-d0", "max_offdiagonal-0d", "max_offdiagonal-2x3"],
)
def test_stacks_need_non_empty_sides(call, shape):
    with pytest.raises(DimensionMismatch, match=f"must be .*non-empty.*, got shape {shape}$"):
        call()


def test_stacks_may_hold_no_rows_or_matrices():
    assert spectral_sums(np.zeros((0, 3)), [F]).shape == (0, 1, 2)
    assert max_offdiagonal(np.ones((0, 3, 3))) == 0.0


def main() -> int:
    total = Counter()
    for row in ROWS + MODULE_ROWS:
        outcomes = [swept(row, i, value) for i, slot in enumerate(row[3]) if slot is not None for value in BAD]
        counts = Counter(got.split()[0] for got in outcomes)
        total += counts
        print(f"{row[0]:30s} typed {counts['typed']:3d}  value {counts['value']:3d}  bare {counts['bare']:3d}")
        for got in outcomes:
            if got.startswith("bare"):
                print(f"    {got[:160]}", file=sys.stderr)
    print(f"{'total':30s} typed {total['typed']:3d}  value {total['value']:3d}  bare {total['bare']:3d}")
    return 1 if total["bare"] else 0


if __name__ == "__main__":
    sys.exit(main())
