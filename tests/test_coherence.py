import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fcoherence import (
    DensityMatrix,
    coherence_f,
    coherence_f_hat,
    dephase,
    dephasing_distance,
    f_entropy,
    f_entropy_hat,
    max_coherent_state,
    power_coherence,
    random_density,
    random_pure,
    relative_entropy_coherence,
    trace_norm,
)
from fcoherence.channels import max_offdiagonal
from fcoherence.coherence import _dephasing_distances
from fcoherence.errors import DimensionMismatch, ParamOutOfRange
from fcoherence.generators import lookup, neg_log, power, tsallis

DECREASING_SPECS = ["neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5"]


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


class TestDephase:
    def test_kills_off_diagonals(self):
        rho = dephase(plus_state())
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2)

    def test_idempotent(self):
        rho = random_density(3, 3, seed=1)
        once = dephase(rho)
        np.testing.assert_allclose(dephase(once).matrix, once.matrix)


class TestHandValues:
    def test_plus_state_neg_log(self):
        rho = plus_state()
        assert coherence_f_hat(rho, neg_log()).value == pytest.approx(
            math.log(2.0), abs=1e-12
        )
        assert coherence_f(rho, neg_log()).value == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_plus_state_power_half(self):
        rho = plus_state()
        # hat: -f(2) with f = 4 (1 - sqrt(x)); plain: f(1/2)
        assert coherence_f_hat(rho, power(0.5)).value == pytest.approx(
            4.0 * math.sqrt(2.0) - 4.0, abs=1e-12
        )
        assert coherence_f(rho, power(0.5)).value == pytest.approx(
            4.0 - 2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_result_carries_spectral_data(self):
        res = coherence_f_hat(plus_state(), neg_log())
        assert res.f_name == "neg_log"
        assert res.variant == "hat"
        np.testing.assert_allclose(res.eigenvalues, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.diagonal, [0.5, 0.5])

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_uniform_superposition_neg_log(self, dim):
        rho = max_coherent_state(dim).as_density()
        assert coherence_f_hat(rho, neg_log()).value == pytest.approx(
            math.log(dim), abs=1e-9
        )


class TestEntropyDifferenceForm:
    @pytest.mark.parametrize("spec", DECREASING_SPECS)
    def test_coherence_is_entropy_gain_of_dephasing(self, spec):
        f = lookup(spec)
        for trial in range(5):
            rho = random_density(3, 3, seed=40 + trial)
            assert coherence_f(rho, f).value == pytest.approx(
                f_entropy(dephase(rho), f) - f_entropy(rho, f), abs=1e-10
            )
            assert coherence_f_hat(rho, f).value == pytest.approx(
                f_entropy_hat(dephase(rho), f) - f_entropy_hat(rho, f), abs=1e-10
            )

    def test_relative_entropy_route_matches_hat(self):
        for trial in range(5):
            rho = random_density(4, 4, seed=60 + trial)
            assert relative_entropy_coherence(rho) == pytest.approx(
                coherence_f_hat(rho, neg_log()).value, abs=1e-10
            )

    def test_relative_entropy_route_on_rank_deficient(self):
        rho = random_pure(3, seed=15).as_density()
        assert relative_entropy_coherence(rho) == pytest.approx(
            coherence_f_hat(rho, neg_log()).value, abs=1e-10
        )


class TestBoundsAndFaithfulness:
    @pytest.mark.parametrize("spec", DECREASING_SPECS)
    def test_nonnegative_and_bounded(self, spec):
        f = lookup(spec)
        d = 3
        cap_plain = float(f(1.0 / d))
        cap_hat = -float(f(d))
        for trial in range(10):
            rho = random_density(d, d, seed=80 + trial)
            plain = coherence_f(rho, f).value
            hat = coherence_f_hat(rho, f).value
            assert -1e-10 <= plain <= cap_plain + 1e-10
            assert -1e-10 <= hat <= cap_hat + 1e-10

    @pytest.mark.parametrize("spec", DECREASING_SPECS)
    def test_zero_on_diagonal_states(self, spec):
        f = lookup(spec)
        rho = DensityMatrix.from_diagonal([0.5, 0.3, 0.2])
        assert coherence_f(rho, f).value == pytest.approx(0.0, abs=1e-10)
        assert coherence_f_hat(rho, f).value == pytest.approx(0.0, abs=1e-10)

    def test_positive_on_coherent_state(self):
        rho = plus_state()
        for spec in DECREASING_SPECS:
            assert coherence_f_hat(rho, lookup(spec)).value > 1e-3, spec


class TestPowerCoherence:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    def test_matches_generator_route(self, alpha):
        f = tsallis(alpha)
        for trial in range(5):
            rho = random_density(3, 3, seed=120 + trial)
            pc = power_coherence(rho, alpha)
            assert pc.plain == pytest.approx(coherence_f(rho, f).value, rel=1e-9, abs=1e-12)
            assert pc.hat == pytest.approx(
                coherence_f_hat(rho, f).value, rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_scaling_identity(self, alpha, dim):
        for trial in range(5):
            rho = random_density(dim, dim, seed=140 + trial)
            pc = power_coherence(rho, alpha)
            assert pc.plain == pytest.approx(
                dim ** (alpha - 1.0) * pc.hat, rel=1e-12, abs=1e-15
            )

    def test_handles_rank_deficient_states(self):
        rho = random_pure(3, seed=33).as_density()
        pc = power_coherence(rho, 1.5)
        assert pc.hat == pytest.approx(coherence_f_hat(rho, tsallis(1.5)).value, abs=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, 2.5, math.nan])
    def test_rejects_out_of_range(self, alpha):
        with pytest.raises(ParamOutOfRange):
            power_coherence(DensityMatrix.maximally_mixed(2), alpha)

    @pytest.mark.parametrize(
        "alpha", [10**400, None, 1j, "x", "0.5", [0.5], True, np.array(0.5), Decimal("0.5")],
        ids=["huge_int", "None", "complex", "str", "numeric_str", "list", "True", "0d_array", "Decimal"],
    )
    def test_rejects_what_is_not_a_real_number(self, alpha):
        with pytest.raises(ParamOutOfRange, match=re.escape(f"alpha must be a real number, got {alpha!r}")):
            power_coherence(DensityMatrix.maximally_mixed(2), alpha)

    def test_accepts_numpy_and_fraction_alpha(self):
        rho = random_density(3, 3, seed=7)
        for alpha in (np.float64(0.5), np.float32(0.5), Fraction(1, 2)):
            assert power_coherence(rho, alpha) == power_coherence(rho, 0.5)


class TestPredicatesAndDistance:
    def test_is_incoherent_on_diagonal(self):
        assert max_offdiagonal(DensityMatrix.from_diagonal([0.6, 0.4]).matrix) <= 1e-10

    def test_is_incoherent_rejects_plus(self):
        assert max_offdiagonal(plus_state().matrix) > 1e-10

    def test_is_incoherent_tolerance(self):
        mat = np.diag([0.6, 0.4]).astype(complex)
        mat[0, 1] = mat[1, 0] = 1e-12
        assert max_offdiagonal(DensityMatrix(mat).matrix) <= 1e-10
        assert max_offdiagonal(DensityMatrix(mat).matrix) > 1e-13

    def test_dephasing_distance_plus(self):
        assert dephasing_distance(plus_state()) == pytest.approx(1.0, abs=1e-12)

    def test_dephasing_distance_diagonal(self):
        assert dephasing_distance(DensityMatrix.from_diagonal([0.6, 0.4])) == pytest.approx(
            0.0, abs=1e-15
        )

    @pytest.mark.parametrize("d", range(1, 9))
    def test_dephasing_distance_is_the_trace_norm(self, d):
        for rank, seed in ((1, 3 * d), (d, 3 * d + 1), (max(1, d - 1), 3 * d + 2)):
            rho = random_density(d, rank, seed)
            off = rho.matrix - np.diag(np.diagonal(rho.matrix))
            assert dephasing_distance(rho) == pytest.approx(trace_norm(off), abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 33, 40])
    def test_dephasing_distance_is_exactly_zero_on_diagonal_states(self, d):
        probs = np.random.default_rng(d).dirichlet(np.ones(d))
        assert dephasing_distance(DensityMatrix.from_diagonal(probs)) == 0.0
        assert dephasing_distance(dephase(random_density(d, d, d))) == 0.0

    def test_dephasing_distances_of_a_stack_equal_the_single_ones(self):
        states = [random_density(4, 1 + k % 4, 50 + k) for k in range(6)]
        stacked = _dephasing_distances(np.array([s.matrix for s in states]))
        assert stacked.tolist() == [dephasing_distance(s) for s in states]


class TestMaxCoherentState:
    def test_amplitudes_uniform(self):
        psi = max_coherent_state(4)
        np.testing.assert_allclose(psi.amplitudes, np.full(4, 0.5))

    def test_rejects_bad_dimension(self):
        with pytest.raises(DimensionMismatch, match="dimension must be positive, got 0"):
            max_coherent_state(0)

    @pytest.mark.parametrize("spec", DECREASING_SPECS)
    def test_maximizes_hat_coherence(self, spec):
        f = lookup(spec)
        d = 3
        cap = coherence_f_hat(max_coherent_state(d).as_density(), f).value
        for trial in range(10):
            rho = random_density(d, d, seed=200 + trial)
            assert coherence_f_hat(rho, f).value <= cap + 1e-10
