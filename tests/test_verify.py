import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fcoherence import (
    GioChannel,
    TrialConfig,
    coherence_f,
    coherence_f_hat,
    diagonal_unitary_mixture,
    ensemble_coherence,
    gio_saturation_check,
    random_density,
    random_gio,
    run_all,
    sio_counterexample_report,
)
import fcoherence.verify as verify
from fcoherence.cli import main
from fcoherence.errors import DimensionMismatch, UnknownGenerator
from fcoherence.generators import lookup, tsallis
from fcoherence.io import dumps17
from fcoherence.verify import DEFAULT_F_SPECS, SUITES, _sio_reports

SMALL = TrialConfig(dims=(2, 3), trials_per_case=30, seed=5)


class TestTrialConfig:
    def test_defaults_valid(self):
        cfg = TrialConfig()
        assert cfg.dims == (2, 3, 4, 5)
        assert cfg.trials_per_case == 1000

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            TrialConfig(dims=())

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            TrialConfig(dims=(2, 0))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials_per_case=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            TrialConfig(tol_violation=0.0)

    @pytest.mark.parametrize("seed", [-1, True, False, 1.5, "3", None])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            TrialConfig(seed=seed)

    def test_accepts_numpy_integer_seed(self):
        assert TrialConfig(seed=np.uint32(7), dims=(2,)).seed == 7

    def test_rejects_bare_string_generator_list(self):
        with pytest.raises(ValueError, match="f_list must be a sequence of generator specs"):
            TrialConfig(f_list="neg_log")

    def test_rejects_unknown_generator_early(self):
        with pytest.raises(UnknownGenerator):
            TrialConfig(f_list=("neg_log", "bogus"))


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_small_run_passes(self, name):
        report = SUITES[name](SMALL)
        assert report.passed, (name, report.worst_violation, report.worst_case_seed)
        assert report.suite == name
        assert report.trials > 0

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_rerun_is_identical(self, name):
        assert SUITES[name](SMALL) == SUITES[name](SMALL)

    def test_run_all_order(self):
        cfg = TrialConfig(dims=(2,), trials_per_case=5, seed=1)
        reports = run_all(cfg)
        assert [r.suite for r in reports] == list(SUITES)

    def test_failure_records_seed(self):
        cfg = TrialConfig(dims=(2,), trials_per_case=5, seed=3, tol_violation=1e-18)
        report = SUITES["divergence-oracle"](cfg)
        assert not report.passed
        assert report.worst_case_seed >= 0
        assert report.worst_violation > 1e-18

    # Case offset and trials per case (at trials_per_case=20) of each
    # drawing suite.
    SEED_CONTRACT = {
        "entropy-bounds": (0, 20),
        "divergence-oracle": (100, 4),
        "gio-monotonicity": (200, 20),
        "strong-monotonicity": (300, 10),
        "faithfulness-bounds": (400, 5),
    }

    @pytest.mark.parametrize("master", [0, 11])
    @pytest.mark.parametrize("name", sorted(SEED_CONTRACT))
    def test_worst_case_seed_follows_the_seed_derivation(self, name, master):
        # Trial t of case k draws from SeedSequence((master, offset + k, t)),
        # so a failing report names the master seed (a head check) or one
        # of the six words that sequence generates for one of its trials.
        offset, trials = self.SEED_CONTRACT[name]
        dims = (2, 3)
        cfg = TrialConfig(dims=dims, trials_per_case=20, seed=master, tol_violation=1e-300)
        report = SUITES[name](cfg)
        assert not report.passed and report.trials == len(dims) * trials
        drawn = {
            int(word)
            for case in range(len(dims))
            for t in range(trials)
            for word in np.random.SeedSequence((master, offset + case, t)).generate_state(6)
        }
        assert report.worst_case_seed == master or report.worst_case_seed in drawn

    def test_first_nan_violation_is_kept(self):
        block = ([0.5, math.nan, math.nan, 7.0, 0.1], [1, 2, 3, 4, 5], 0)
        report = verify._report("entropy-bounds", SMALL, [lookup("neg_log")], "", [block])
        assert not report.passed
        assert math.isnan(report.worst_violation)
        assert report.worst_case_seed == 2
        assert '"worst_violation": "nan", "worst_case_seed": 2' in dumps17(report.to_json_dict())

    @pytest.mark.parametrize(
        ("name", "kernel", "column"),
        [
            ("entropy-bounds", "_entropies", slice(None)),
            ("gio-monotonicity", "spectral_sums", slice(None)),
            ("strong-monotonicity", "spectral_sums", slice(None)),
            ("faithfulness-bounds", "spectral_sums", slice(None)),
            ("sio-counterexample", "spectral_sums", slice(None)),
            # NaN only in the hat column, never the first value reduced.
            ("sio-counterexample", "spectral_sums", 1),
        ],
        ids=[
            "entropy-bounds-_entropies",
            "gio-monotonicity-spectral_sums",
            "strong-monotonicity-spectral_sums",
            "faithfulness-bounds-spectral_sums",
            "sio-counterexample-spectral_sums",
            "sio-counterexample-spectral_sums-hat",
        ],
    )
    def test_nan_kernel_fails_the_suite(self, monkeypatch, name, kernel, column):
        real = getattr(verify, kernel)

        def nan_kernel(*args):
            table = real(*args)
            table[..., column] = np.nan
            return table

        monkeypatch.setattr(verify, kernel, nan_kernel)
        nan_seeds = []
        reduce = verify._reduce

        def spy(values, seeds, worst=(0.0, -1)):
            flat, flat_seeds = np.broadcast_arrays(np.asarray(values, dtype=float), seeds)
            nan_seeds.extend(flat_seeds[np.isnan(flat)].tolist())
            return reduce(values, seeds, worst)

        monkeypatch.setattr(verify, "_reduce", spy)
        report = SUITES[name](TrialConfig(dims=(2, 3), trials_per_case=6, seed=1))
        assert not report.passed
        assert math.isnan(report.worst_violation)
        assert report.worst_case_seed == nan_seeds[0]

    def test_report_serializes(self):
        report = SUITES["sio-counterexample"](TrialConfig(dims=(2,), trials_per_case=1, seed=0))
        doc = report.to_json_dict()
        assert doc["suite"] == "sio-counterexample"
        assert set(doc) == {
            "suite",
            "passed",
            "trials",
            "worst_violation",
            "worst_case_seed",
            "tol_violation",
            "notes",
        }

    def test_exploration_is_reported_not_scored(self):
        cfg = TrialConfig(dims=(3,), trials_per_case=20, seed=2)
        report = SUITES["strong-monotonicity"](cfg)
        assert report.passed
        assert "not scored" in report.notes
        assert "exploration" in report.notes

    def test_exploration_reports_a_nan_gap(self, monkeypatch):
        real = verify.spectral_sums

        def nan_general(rows, gens):
            sums = real(rows, gens)
            sums[:, 6:9] = np.nan  # the part (c) states of the chunk's three trials
            return sums

        monkeypatch.setattr(verify, "spectral_sums", nan_general)
        report = verify.suite_strong_monotonicity(TrialConfig(dims=(3,), trials_per_case=6, seed=1))
        assert report.passed  # explored, not scored
        assert report.notes.endswith("24 checks, worst violation nan, not scored")

    def test_non_decreasing_generator_noted(self):
        report = SUITES["entropy-bounds"](TrialConfig(dims=(2,), trials_per_case=3, seed=0))
        assert "power:1.5" in report.notes


class ReferenceWorst:
    """The reduction as one update per check, kept as the reference for
    _reduce: a larger or NaN violation replaces the value, and the first
    NaN stays."""

    def __init__(self) -> None:
        self.value = 0.0
        self.seed = -1

    def update(self, violation: float, seed: int) -> None:
        if not violation <= self.value and self.value == self.value:
            self.value = violation
            self.seed = seed


REDUCE_CASES = {
    "nan-first": [math.nan, 1.0, 2.0, math.nan],
    "nan-late": [0.1, 3.0, 2.0, math.nan, 5.0, math.nan],
    "equal-maxima": [0.5, 2.0, 1.0, 2.0, 2.0],
    "negative-zero": [-0.0, 0.0, -0.0],
    "infinities": [-math.inf, 1.0, math.inf, 2.0, math.inf],
    "all-at-most-zero": [-1e-300, -0.0, -math.inf, 0.0, -5.0],
    "empty": [],
}


def splits(n: int):
    """Every way to cut range(n) into consecutive blocks, as block ends."""
    for mask in range(2 ** max(n - 1, 0)):
        yield [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]


def fold(values, seeds, ends):
    worst, start = (0.0, -1), 0
    for end in ends:
        worst = verify._reduce(values[start:end], seeds[start:end], worst)
        start = end
    return worst


def reference(values, seeds):
    ref = ReferenceWorst()
    for value, seed in zip(values, seeds):
        ref.update(value, seed)
    return ref.value, ref.seed


class TestReduce:
    @pytest.mark.parametrize("values", REDUCE_CASES.values(), ids=list(REDUCE_CASES))
    def test_matches_the_update_loop_in_every_split(self, values):
        seeds = list(range(10, 10 + len(values)))
        expected = reference(values, seeds)
        for ends in splits(len(values)):
            worst = fold(np.array(values), np.array(seeds), ends)
            # repr tells NaN, -0.0 and 0.0 apart
            assert (repr(worst[0]), worst[1]) == (repr(expected[0]), expected[1]), ends

    def test_matches_the_update_loop_on_random_blocks(self):
        rng = np.random.default_rng(7)
        alphabet = np.array([math.nan, -math.inf, math.inf, -0.0, 0.0, -1.0, 1e-16, 1.0, 2.0])
        for _ in range(300):
            values = rng.choice(alphabet, size=rng.integers(0, 12), p=[0.02] + [0.98 / 8] * 8)
            seeds = rng.integers(0, 2**32, size=values.size)
            ends = sorted(set(rng.integers(0, values.size + 1, size=3).tolist()) | {values.size})
            expected = reference(values.tolist(), seeds.tolist())
            worst = fold(values, seeds, ends)
            assert (repr(worst[0]), worst[1]) == (repr(expected[0]), expected[1])

    def test_block_is_read_trial_by_trial(self):
        values = np.array([[0.0, 3.0, 1.0], [3.0, math.nan, 2.0]])
        seeds = np.array([[1, 2, 3], [4, 5, 6]])
        expected = reference(values.ravel().tolist(), seeds.ravel().tolist())
        assert repr(verify._reduce(values, seeds)) == repr(expected)
        # Equal maxima: the first trial's wins, not the first column's.
        assert verify._reduce([[0.0, 2.0], [2.0, 0.0]], [[1, 2], [3, 4]]) == (2.0, 2)
        # A scalar seed serves the whole block.
        assert verify._reduce([[1.0, 4.0]], 9) == (4.0, 9)

    def test_worst_at_most_zero_reports_no_seed(self):
        worst = verify._reduce([-0.0, -1.0, -math.inf], [1, 2, 3])
        assert worst == (0.0, -1) and math.copysign(1.0, worst[0]) == 1.0


class TestEnsembleCoherence:
    def test_unitary_mixture_saturates(self):
        rho = random_density(3, 3, seed=17)
        rng = np.random.default_rng(18)
        ch = diagonal_unitary_mixture(
            rng.dirichlet(np.ones(3)), rng.uniform(0.0, 2.0 * math.pi, size=(3, 3))
        )
        for fun in (coherence_f, coherence_f_hat):
            before = fun(rho, tsallis(1.5)).value
            after = ensemble_coherence(ch, rho, tsallis(1.5), fun)
            assert after == pytest.approx(before, abs=1e-10)

    def test_pure_state_never_gains(self):
        from fcoherence import random_pure

        for trial in range(10):
            psi = random_pure(3, seed=900 + trial).as_density()
            ch = random_gio(3, 2, seed=950 + trial)
            for spec in ["neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5"]:
                f = lookup(spec)
                gap = coherence_f_hat(psi, f).value - ensemble_coherence(
                    ch, psi, f, coherence_f_hat
                )
                assert gap >= -1e-9, (trial, spec)


class TestMixedStateRepresentationDependence:
    """A pinned dimension-3 instance where the outcome-averaged coherence
    exceeds the input coherence for a generic diagonal representation,
    while the channel itself still decreases coherence non-selectively.
    """

    RHO_SEED = 31188
    CH_SEED = 77176

    def setup_method(self):
        self.rho = random_density(3, 3, self.RHO_SEED)
        self.ch = random_gio(3, 2, self.CH_SEED)
        self.f = tsallis(1.5)

    def test_channel_is_diagonal_and_complete(self):
        GioChannel(self.ch.kraus_ops)
        probs = [o.probability for o in self.ch.selective_outcomes(self.rho)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_selective_inequality_fails(self):
        gap_plain = coherence_f(self.rho, self.f).value - ensemble_coherence(
            self.ch, self.rho, self.f, coherence_f
        )
        gap_hat = coherence_f_hat(self.rho, self.f).value - ensemble_coherence(
            self.ch, self.rho, self.f, coherence_f_hat
        )
        assert -9e-4 < gap_plain < -7e-4
        assert -5e-4 < gap_hat < -4e-4

    def test_non_selective_inequality_still_holds(self):
        out = self.ch.apply(self.rho)
        decrease = coherence_f(self.rho, self.f).value - coherence_f(out, self.f).value
        assert decrease > 0.25

    def test_not_a_saturating_pair(self):
        assert not gio_saturation_check(self.ch, self.rho).saturates

    def test_instance_is_reproducible(self):
        again = random_density(3, 3, self.RHO_SEED)
        np.testing.assert_array_equal(self.rho.matrix, again.matrix)


class TestSioCounterexampleReport:
    def test_power_half_constants(self):
        rep = sio_counterexample_report("power:0.5", 2)
        r2 = math.sqrt(2.0)
        assert rep.lhs_plain == pytest.approx(4.0 - 2.0 * r2, abs=1e-12)
        assert rep.rhs_plain == pytest.approx(2.0 * r2 - 2.0, abs=1e-12)
        assert rep.lhs_hat == pytest.approx(8.0 - 4.0 * r2, abs=1e-12)
        assert rep.rhs_hat == pytest.approx(4.0 * r2 - 4.0, abs=1e-12)
        assert rep.gap == pytest.approx(12.0 - 8.0 * r2, abs=1e-12)
        assert rep.cross_check_error <= 1e-12

    def test_neg_log_shows_no_gap(self):
        rep = sio_counterexample_report("neg_log", 2)
        assert rep.gap <= 1e-10
        assert rep.lhs_hat == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dimension_three(self):
        rep = sio_counterexample_report("tsallis:0.5", 3)
        assert rep.gap > 0.01
        assert rep.cross_check_error <= 1e-10

    def test_rejects_nonpositive_dimension(self):
        with pytest.raises(DimensionMismatch):
            sio_counterexample_report("neg_log", 0)

    def test_suite_shares_the_states_of_a_dimension(self, eigh_calls):
        """The eigensolves of the suite do not grow with the generator count."""
        calls = []
        for specs in (("neg_log",), DEFAULT_F_SPECS):
            eigh_calls.clear()
            SUITES["sio-counterexample"](TrialConfig(dims=(2, 3), trials_per_case=1, f_list=specs))
            calls.append(list(eigh_calls))
        assert calls[0] == calls[1]

    @pytest.mark.parametrize("d", [2, 3])
    def test_reports_equal_the_one_generator_reports(self, d):
        gens = [lookup(s) for s in DEFAULT_F_SPECS if lookup(s).monotone_decreasing]
        for f, rep in zip(gens, _sio_reports(gens, d)):
            alone = sio_counterexample_report(f.name, d)
            assert dumps17(rep.to_json_dict()) == dumps17(alone.to_json_dict())


class TestDimensionOne:
    def test_strong_suite_runs_at_dimension_one(self):
        report = SUITES["strong-monotonicity"](TrialConfig(dims=(1,), trials_per_case=6, seed=3))
        assert report.passed
        assert report.trials == 3

    def test_every_suite_passes_at_dimension_one(self):
        for report in run_all(TrialConfig(dims=(1,), trials_per_case=4, seed=0)):
            assert report.passed, report.suite


GOLDEN = {
    # The values carry 17 significant digits, so a change in summation
    # order or in the BLAS build can move the last digits; any such
    # change has to be regenerated and explained. Regenerate all eight
    # files from the checked-out tree with
    #     PYTHONPATH=src python tests/test_verify.py
    # The default configuration; its sha256 is a5a3b5da...f2af2cd.
    "verify_all_seed1_default.jsonl": "--suite all --seed 1",
    "verify_all_seed1_trials10.jsonl": "--suite all --seed 1 --trials 10",
    # The seed of the benchmark's confirmation runs.
    "verify_all_seed7_trials10.jsonl": "--suite all --seed 7 --trials 10",
    # Reaches d = 6 and the d >= 3 exploration branch.
    "verify_all_seed2_trials60_dims2-6.jsonl": "--suite all --seed 2 --trials 60 --dims 2,3,4,5,6",
    # 40 trials per case, so each generator serves several trials.
    "verify_oracle_seed3_trials200_dims2-4.jsonl": (
        "--suite divergence-oracle --seed 3 --trials 200 --dims 2,3,4"
    ),
    # No decreasing generator: four suites report the skip note alone.
    "verify_all_seed4_trials12_power1.5.jsonl": "--suite all --seed 4 --trials 12 --f power:1.5",
    # d = 1, the sio suite's fallback dimension, and the skip note joined
    # to the exploration note.
    "verify_all_seed5_trials12_dims1-3.jsonl": (
        "--suite all --seed 5 --trials 12 --dims 1,3 --f neg_log,power:1.5,tsallis:1.5"
    ),
    # Past d = 32, where the states are large enough to reach LAPACK's
    # blocked routines and the dephased states need no eigensolve.
    "verify_all_seed3_trials4_dims1-33-64.jsonl": "--suite all --seed 3 --trials 4 --dims 1,33,64",
}


@pytest.mark.parametrize("name", GOLDEN)
def test_verify_stdout_matches_golden_file(name, tmp_path, capsys):
    """`fcoherence verify` with the file's arguments, byte for byte."""
    out = tmp_path / "verify.jsonl"
    assert main(["verify", *GOLDEN[name].split(), "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


if __name__ == "__main__":
    for name, args in GOLDEN.items():
        code = main(["verify", *args.split(), "--out", str(Path(__file__).parent / "data" / name)])
        if code:
            raise SystemExit(f"verify {args} exited {code}; {name} may hold a failing run")
        print(f"wrote {name}", file=sys.stderr)
