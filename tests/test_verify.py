import math
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

    def test_non_decreasing_generator_noted(self):
        report = SUITES["entropy-bounds"](TrialConfig(dims=(2,), trials_per_case=3, seed=0))
        assert "power:1.5" in report.notes


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


GOLDEN = Path(__file__).parent / "data" / "verify_all_seed1_trials10.jsonl"


def test_verify_stdout_matches_golden_file(tmp_path, capsys):
    """`fcoherence verify --suite all --seed 1 --trials 10`, byte for byte.

    The values carry 17 significant digits, so a change in summation
    order or in the BLAS build can move the last digits; any such change
    has to be regenerated here and explained.
    """
    out = tmp_path / "verify.jsonl"
    assert main(["verify", "--suite", "all", "--seed", "1", "--trials", "10", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN.read_bytes()


GOLDEN_DIMS_2_6 = Path(__file__).parent / "data" / "verify_all_seed2_trials60_dims2-6.jsonl"


def test_verify_stdout_matches_golden_file_dims_2_to_6(tmp_path, capsys):
    """`fcoherence verify --suite all --seed 2 --trials 60 --dims 2,3,4,5,6`,
    byte for byte: reaches d = 6 and the d >= 3 exploration branch."""
    out = tmp_path / "verify.jsonl"
    argv = ["verify", "--suite", "all", "--seed", "2", "--trials", "60", "--dims", "2,3,4,5,6"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN_DIMS_2_6.read_bytes()


GOLDEN_ORACLE = Path(__file__).parent / "data" / "verify_oracle_seed3_trials200_dims2-4.jsonl"


def test_verify_stdout_matches_golden_file_divergence_oracle(tmp_path, capsys):
    """`fcoherence verify --suite divergence-oracle --seed 3 --trials 200
    --dims 2,3,4`, byte for byte: 40 trials per case, so every generator
    row holds several trials."""
    out = tmp_path / "verify.jsonl"
    argv = ["verify", "--suite", "divergence-oracle", "--seed", "3", "--trials", "200", "--dims", "2,3,4"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == GOLDEN_ORACLE.read_bytes()
