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

The command line is swept the same way: the text of each value of
``BAD``, as it is and after each spec prefix of ``PREFIXES``, goes into
each positional and option slot of each subcommand, and the JSON forms
of the same values into the dim, cell, kraus and label slots of state
and channel files. Each call goes through ``cli.main`` with warnings
raised as errors; nothing may leave ``main``, the exit code must be one
``main`` documents, and a validation, generator or dimension error (exit
3 to 5) prints exactly one ``fcoherence:`` line on standard error.

Run as a script, ``PYTHONPATH=src python tests/test_contract.py`` prints
one line per callable and per CLI slot with its counts (typed, value and
bare; exit codes and bare for the CLI), and exits 1 when any outcome is
bare (an exception outside the contract, or a warning).
"""

import contextlib
import copy
import inspect
import io
import json
import math
import os
import re
import sys
import tempfile
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
from fcoherence import cli
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
    "oracle_quasi_relative_entropy", "quasi_relative_entropy", "relative_entropy_coherence",
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


PREFIXES = ["dephase:", "depol-ext:", "power:", "tsallis:"]
TEXTS = [str(v) for v in BAD]
CLI_VALUES = TEXTS + [prefix + text for prefix in PREFIXES for text in TEXTS]
# In a file, 1j is the cell [0, 1] and the 0-d array its float.
FILE_VALUES = [[0.0, 1.0] if v == 1j else v.tolist() if isinstance(v, np.ndarray) else v for v in BAD]
FILE_VALUES += [prefix + text for prefix in PREFIXES for text in TEXTS]
CLI_CODES = {0, 2, 6} | {code for _, code in cli._EXIT_CODES}

STATE_DOC = {"dim": 2, "matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
CHANNEL_DOC = {"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "label": "identity"}

# A valid argv per subcommand; every token after the subcommand that is
# not an option name is a slot. Paths are relative to the working directory.
CLI_ROWS = [
    ["coherence", "state.json", "--f", "tsallis:0.5", "--variant", "plain", "--out", "out.json"],
    ["divergence", "state.json", "state.json", "--f", "neg_log", "--out", "out.json"],
    ["entropy", "state.json", "--f", "power:0.5", "--variant", "hat", "--out", "out.json"],
    ["channel", "dephase:2", "state.json", "--selective", "--out", "out.json"],
    ["verify", "--suite", "faithfulness-bounds", "--trials", "1", "--dims", "2", "--f", "neg_log", "--seed", "1",
     "--out", "out.json"],
    ["demo", "log-chain", "--seed", "1", "--out", "out.json"],
]
CLI_SLOTS = [(argv, i) for argv in CLI_ROWS for i, arg in enumerate(argv) if i and not arg.startswith("--")]
CLI_IDS = [f"{argv[0]}-{argv[i - 1] if argv[i - 1].startswith('--') else i}" for argv, i in CLI_SLOTS]
# (file, the keys of its slot); `coherence` reads the state file, and
# `channel` the channel file.
FILE_SLOTS = [
    ("state", ("dim",)),
    ("state", ("matrix", 0, 0)),
    ("channel", ("dim",)),
    ("channel", ("kraus", 0, 0, 0)),
    ("channel", ("kraus",)),
    ("channel", ("label",)),
]
FILE_IDS = [f"{kind}-{key[0]}{'-cell' if len(key) > 1 else ''}" for kind, key in FILE_SLOTS]
FILE_ARGV = {"state": ["coherence", "state.json"], "channel": ["channel", "channel.json", "state.json"]}


def write_files(state=STATE_DOC, channel=CHANNEL_DOC):
    """Write the state and channel files into the working directory."""
    for name, doc in (("state.json", state), ("channel.json", channel)):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def cli_outcome(argv) -> str:
    """"exit <code>" for cli.main(argv), with every warning raised as an
    error, or "bare ..." when something leaves main, the code is not one
    main documents, or an exit 3 to 5 does not print one stderr line."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # nothing may leave main
            return f"bare {type(exc).__name__}: {exc}"
    if code not in CLI_CODES or 3 <= code <= 5 and not re.fullmatch("fcoherence: [^\n]*\n", err.getvalue()):
        return f"bare exit {code}, stderr {err.getvalue()!r}"
    return f"exit {code}"


def cli_swept(argv, index) -> list[str]:
    """The outcome of argv with each CLI value in its slot at index."""
    write_files()
    return [cli_outcome(argv[:index] + [value] + argv[index + 1 :]) for value in CLI_VALUES]


def file_swept(kind, key) -> list[str]:
    """The outcome of reading each file value in the slot key of the state
    or channel file."""
    outcomes = []
    for value in FILE_VALUES:
        doc = copy.deepcopy(STATE_DOC if kind == "state" else CHANNEL_DOC)
        target = doc
        for part in key[:-1]:
            target = target[part]
        target[key[-1]] = value
        write_files(**{kind: doc})
        outcomes.append(cli_outcome(FILE_ARGV[kind]))
    return outcomes


@pytest.fixture
def in_tmp_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def test_valid_command_lines_exit_0(in_tmp_path):
    write_files()
    valid = CLI_ROWS + list(FILE_ARGV.values())
    assert [cli_outcome(argv) for argv in valid] == ["exit 0"] * len(valid)


@pytest.mark.parametrize("argv,index", CLI_SLOTS, ids=CLI_IDS)
def test_bad_command_line_values_exit_with_a_documented_code(in_tmp_path, argv, index):
    bare = {value: got for value, got in zip(CLI_VALUES, cli_swept(argv, index)) if got.startswith("bare")}
    assert not bare


@pytest.mark.parametrize("kind,key", FILE_SLOTS, ids=FILE_IDS)
def test_bad_file_values_exit_with_a_documented_code(in_tmp_path, kind, key):
    bare = {repr(value): got for value, got in zip(FILE_VALUES, file_swept(kind, key)) if got.startswith("bare")}
    assert not bare


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
    with tempfile.TemporaryDirectory() as home:
        cwd = os.getcwd()
        os.chdir(home)
        try:
            sweeps = [(f"cli {name}", cli_swept(*slot)) for slot, name in zip(CLI_SLOTS, CLI_IDS)]
            sweeps += [(f"file {name}", file_swept(*slot)) for slot, name in zip(FILE_SLOTS, FILE_IDS)]
        finally:
            os.chdir(cwd)
    cli_total = Counter()
    for name, outcomes in sweeps:
        counts = Counter("bare" if got.startswith("bare") else got for got in outcomes)
        cli_total += counts
        print(f"{name:30s} " + "  ".join(f"{k} {n}" for k, n in sorted(counts.items())))
        for got in outcomes:
            if got.startswith("bare"):
                print(f"    {got[:160]}", file=sys.stderr)
    print(f"{'cli total':30s} " + "  ".join(f"{k} {n}" for k, n in sorted(cli_total.items())))
    return 1 if total["bare"] or cli_total["bare"] else 0


if __name__ == "__main__":
    sys.exit(main())
