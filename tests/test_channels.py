import numpy as np
import pytest

from fcoherence import (
    DensityMatrix,
    GioChannel,
    KrausChannel,
    dephase,
    dephasing_channel,
    depolarizing_extension,
    diagonal_unitary_mixture,
    erasure_extension,
    gio_saturation_check,
    is_sio,
    petz_recovery,
    random_channel,
    random_density,
    random_gio,
    random_unital_channel,
    random_unitary,
    trace_norm,
    validate_density,
)
from fcoherence.channels import COMPLETENESS_TOL, _gio_list
from fcoherence.errors import (
    BadWeights,
    ChannelValidationError,
    ConvergenceFailure,
    DimensionMismatch,
    NotGio,
    ParamOutOfRange,
    SingularState,
    StateValidationError,
)


def plus_state():
    return DensityMatrix(np.full((2, 2), 0.5, dtype=complex))


def hadamard_channel():
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return KrausChannel([h], label="hadamard")


class TestKrausChannel:
    def test_rejects_incomplete_kraus_set(self):
        with pytest.raises(ChannelValidationError):
            KrausChannel([0.5 * np.eye(2)])

    def test_rejects_empty_list(self):
        with pytest.raises(ChannelValidationError):
            KrausChannel([])

    def test_rejects_mixed_shapes(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("build", [KrausChannel, GioChannel])
    def test_rejects_empty_operators(self, build):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            build(np.zeros((2, 0, 0)))

    def test_rejects_non_finite(self):
        k = np.eye(2, dtype=complex)
        k[0, 0] = np.nan
        with pytest.raises(ChannelValidationError):
            KrausChannel([k])

    def test_identity_action(self):
        rho = random_density(3, 3, seed=1)
        out = KrausChannel([np.eye(3)]).apply(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_apply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel([np.eye(2)]).apply(DensityMatrix.maximally_mixed(3))

    def test_kraus_stack_read_only(self):
        ch = KrausChannel([np.eye(2)])
        with pytest.raises(ValueError):
            ch.kraus_ops[0, 0, 0] = 0.0

    def test_dual_is_hilbert_schmidt_adjoint(self):
        ch = random_channel(3, 3, seed=4)
        dual = ch.dual()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(x.conj().T @ ch.apply_matrix(y))
        rhs = np.trace(dual.apply_matrix(x).conj().T @ y)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dual_of_non_unital_not_trace_preserving(self):
        # the dual map only preserves trace when the channel is unital,
        # so the constructor check must be relaxed there
        ch = random_channel(2, 3, seed=9)
        assert ch.dual().completeness_defect() > 1e-6

    def test_selective_outcomes_normalized(self):
        ch = random_channel(3, 4, seed=11)
        outcomes = ch.selective_outcomes(random_density(3, 3, seed=12))
        total = sum(o.probability for o in outcomes)
        assert total == pytest.approx(1.0, abs=1e-10)
        for o in outcomes:
            assert np.real(np.trace(o.state.matrix)) == pytest.approx(1.0, abs=1e-10)

    def test_selective_outcomes_drop_zero_probability(self):
        ch = dephasing_channel(2)
        outcomes = ch.selective_outcomes(DensityMatrix.from_diagonal([1.0, 0.0]))
        assert len(outcomes) == 1
        assert outcomes[0].probability == pytest.approx(1.0)


class TestGioChannel:
    def test_rejects_off_diagonal_kraus(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        with pytest.raises(NotGio):
            GioChannel([h])

    def test_coefficient_table(self):
        ch = dephasing_channel(3)
        assert ch.coefficients.shape == (3, 3)
        np.testing.assert_allclose(ch.coefficients, np.eye(3))

    def test_columns_are_unit_vectors(self):
        ch = random_gio(4, 3, seed=5)
        norms = np.sum(np.abs(ch.coefficients) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_preserves_all_diagonals(self):
        ch = random_gio(3, 4, seed=6)
        rho = random_density(3, 3, seed=7)
        out = ch.apply(rho)
        np.testing.assert_allclose(
            np.diagonal(out.matrix), np.diagonal(rho.matrix), atol=1e-12
        )

    def test_fixes_incoherent_states(self):
        ch = random_gio(3, 2, seed=8)
        rho = DensityMatrix.from_diagonal([0.5, 0.3, 0.2])
        np.testing.assert_allclose(ch.apply(rho).matrix, rho.matrix, atol=1e-12)

    @pytest.mark.parametrize("d", [*range(1, 9), 17, 33, 64])
    def test_correlation_conjugate_is_the_gram_byte_for_byte(self, d):
        # gio_saturation_check and the gio-monotonicity suite read the Gram
        # matrix coeffs^H coeffs as the conjugate of the stored correlation.
        # They read the off-diagonal entries and moduli only; on the diagonal
        # the zero imaginary parts may differ in sign, which adding 0.0 clears.
        off = ~np.eye(d, dtype=bool)
        for k in [*range(1, 9), 65]:
            ch = random_gio(d, k, seed=100 * d + k)
            gram = ch.coefficients.conj().T @ ch.coefficients
            assert ch.correlation.conj()[off].tobytes() == gram[off].tobytes()
            assert (ch.correlation.conj() + 0.0).tobytes() == (gram + 0.0).tobytes()

    def test_completeness_defect_is_the_norm_of_the_column_defects(self):
        tables = [random_gio(3, k, seed=k).coefficients for k in (1, 2, 4, 2, 65)]
        tables.append(np.array([[1.0, 0.6, 1.0], [1e-6, 0.8, 0.0]]))
        for table, stacked in zip(tables, _gio_list(tables)):
            columns = (table.real**2 + table.imag**2).sum(axis=0) - 1.0
            alone = GioChannel.from_coefficients(table)
            assert alone.completeness_defect() == stacked.completeness_defect() == float(np.linalg.norm(columns))

    def test_first_incomplete_table_is_named(self):
        # One stack of three one-row tables, the last two incomplete.
        bad = [np.array([[1.0, 1.0 + 1e-8]]), np.array([[1.0 + 1e-6, 1.0]])]
        with pytest.raises(ChannelValidationError, match="by 2.000e-08 "):
            _gio_list([np.ones((1, 2)), *bad])
        with pytest.raises(ChannelValidationError, match="by 2.000e-06 "):
            _gio_list([np.ones((1, 2)), *bad[::-1]])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GioChannel.from_coefficients([[1e200, 1e200]]),
            lambda: GioChannel([np.diag([1e200, 1e200])]),
            lambda: KrausChannel([np.diag([1e200, 1e200])]),
        ],
        ids=["from_coefficients", "GioChannel", "KrausChannel"],
    )
    def test_entry_too_large_to_square_is_an_infinite_defect(self, build):
        # Runtime warnings are errors here, so an overflow warning from the
        # squared moduli would surface instead of the typed error.
        with pytest.raises(ChannelValidationError, match=r"^sum K\*K deviates from identity by inf \(Frobenius\)$"):
            build()

    def test_dense_sum_too_large_for_its_norm_is_an_infinite_defect(self):
        # sum K*K = diag(1e200, 1e200) is finite; the squares in its norm are not.
        with pytest.raises(ChannelValidationError, match=r"^sum K\*K deviates from identity by inf \(Frobenius\)$"):
            KrausChannel([np.diag([1e100, 1e100])])

    def test_dense_sum_whose_infinite_terms_cancel_is_rejected(self):
        # Each entry of sum K*K adds infinite terms of both signs: a NaN
        # defect, which no tolerance accepts.
        with pytest.raises(ChannelValidationError, match=r"^sum K\*K deviates from identity by nan \(Frobenius\)$"):
            KrausChannel([np.full((2, 2), 1e200 - 1e200j)])

    def test_shape_is_recorded_by_each_constructor(self):
        kraus = random_channel(3, 2, seed=1)
        assert (kraus.num_kraus, kraus.dim) == (2, 3) == kraus.kraus_ops.shape[:2]
        assert (kraus.dual().num_kraus, kraus.dual().dim) == (2, 3)
        stacked = _gio_list([np.eye(4), random_gio(4, 3, seed=3).coefficients])
        for ch in (GioChannel(random_gio(4, 3, seed=2).kraus_ops), random_gio(4, 3, seed=2), *stacked):
            assert (ch.num_kraus, ch.dim) == ch.coefficients.shape == ch.kraus_ops.shape[:2]
        for d in (1, 2, 3):
            assert (depolarizing_extension(d).num_kraus, depolarizing_extension(d).dim) == (d * d, d * d)
            assert (erasure_extension(d).num_kraus, erasure_extension(d).dim) == (d, d * d)


class TestBuiltinChannels:
    def test_dephasing_equals_diagonal_projection(self):
        rho = random_density(3, 3, seed=21)
        out = dephasing_channel(3).apply(rho)
        np.testing.assert_allclose(out.matrix, dephase(rho).matrix, atol=1e-12)

    def test_depolarizing_extension_action(self):
        rho = plus_state()
        ancilla = DensityMatrix.from_diagonal([1.0, 0.0])
        out = depolarizing_extension(2).apply(rho.tensor(ancilla))
        want = rho.tensor(DensityMatrix.maximally_mixed(2))
        np.testing.assert_allclose(out.matrix, want.matrix, atol=1e-12)

    def test_erasure_extension_action(self):
        rho = plus_state()
        out = erasure_extension(2).apply(rho.tensor(DensityMatrix.maximally_mixed(2)))
        want = rho.tensor(DensityMatrix.from_diagonal([1.0, 0.0]))
        np.testing.assert_allclose(out.matrix, want.matrix, atol=1e-12)

    def test_diagonal_unitary_mixture_dephasings(self):
        # equal mixture of diag(1, 1) and diag(1, -1) kills the off-diagonal
        ch = diagonal_unitary_mixture([0.5, 0.5], [[0.0, 0.0], [0.0, np.pi]])
        out = ch.apply(plus_state())
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_diagonal_unitary_mixture_rejects_bad_weights(self):
        with pytest.raises(BadWeights):
            diagonal_unitary_mixture([0.5, 0.4], [[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(BadWeights):
            diagonal_unitary_mixture([1.5, -0.5], [[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(BadWeights):
            diagonal_unitary_mixture([1.0], [[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(BadWeights):
            diagonal_unitary_mixture([np.nan, 1.0], [[0.0, 0.0], [0.0, 1.0]])

    def test_diagonal_unitary_mixture_weights_too_large_to_sum_sum_to_inf(self):
        with pytest.raises(BadWeights, match=r"^weights sum to inf, expected 1$"):
            diagonal_unitary_mixture([1e308, 1e308], [[0.0], [0.0]])

    @pytest.mark.parametrize("phase", [np.inf, -np.inf, np.nan])
    def test_diagonal_unitary_mixture_rejects_non_finite_phase_without_warning(self, phase):
        # Runtime warnings are errors here, so a warning from exp(1j * inf)
        # would surface instead of the typed error.
        with pytest.raises(ChannelValidationError, match="non-finite"):
            diagonal_unitary_mixture([1.0], [[phase, 0.0]])
        with pytest.raises(ChannelValidationError, match="non-finite"):
            diagonal_unitary_mixture([0.5, 0.5], [[0.0, 0.0], [0.0, phase]])

    @pytest.mark.parametrize(
        "build", [dephasing_channel, depolarizing_extension, erasure_extension]
    )
    @pytest.mark.parametrize("dim", [0, -2])
    def test_rejects_nonpositive_dimension(self, build, dim):
        with pytest.raises(DimensionMismatch, match="dimension must be positive"):
            build(dim)

    @pytest.mark.parametrize("build", [random_gio, random_channel, random_unital_channel])
    @pytest.mark.parametrize("dim,num_kraus", [(0, 2), (-2, 2), (2, 0), (2, -1)])
    def test_random_factories_reject_nonpositive_sizes(self, monkeypatch, build, dim, num_kraus):
        def no_draws(seed):
            raise AssertionError("drew before checking sizes")

        # Both routes to a Generator: default_rng, and a suite's hashed words.
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(np.random, "Generator", no_draws)
        with pytest.raises(DimensionMismatch, match="need positive dimension and Kraus count"):
            build(dim, num_kraus, 1)

    def test_random_unital_channel_is_unital(self):
        ch = random_unital_channel(3, 4, seed=31)
        assert ch.dual().completeness_defect() <= COMPLETENESS_TOL
        assert ch.completeness_defect() < 1e-10


class TestIncoherenceClassifiers:
    def test_dephasing_is_gio_and_sio(self):
        ch = dephasing_channel(3)
        GioChannel(ch.kraus_ops)
        assert is_sio(ch)

    def test_random_gio_is_gio_and_sio(self):
        ch = random_gio(3, 3, seed=41)
        GioChannel(ch.kraus_ops)
        assert is_sio(ch)

    def test_extensions_are_sio_not_gio(self):
        for ch in [depolarizing_extension(2), erasure_extension(2)]:
            assert is_sio(ch), ch.label
            with pytest.raises(NotGio):
                GioChannel(ch.kraus_ops)

    def test_is_gio_agrees_with_gio_channel_and_file_loading(self, tmp_path):
        from fcoherence.io import load_channel, save_channel

        ops = random_gio(3, 2, seed=1).kraus_ops.copy()
        ops[0, 0, 1] = 5e-11
        ch = KrausChannel(ops)
        with pytest.raises(NotGio):
            GioChannel(ops)
        path = tmp_path / "ch.json"
        save_channel(ch, str(path))
        assert type(load_channel(str(path))) is KrausChannel
        ops[0, 0, 1] = 5e-13
        assert isinstance(GioChannel(ops), GioChannel)

    def test_hadamard_is_neither(self):
        ch = hadamard_channel()
        assert not is_sio(ch)
        with pytest.raises(NotGio):
            GioChannel(ch.kraus_ops)

    def test_random_channel_generically_not_sio(self):
        assert not is_sio(random_channel(3, 3, seed=43))


class TestSaturationCheck:
    def test_proportional_columns_saturate(self):
        # global-phase unitaries have perfectly aligned coefficient columns
        ch = diagonal_unitary_mixture([0.5, 0.5], [[0.0, 0.0], [1.3, 1.3]])
        rep = gio_saturation_check(ch, plus_state())
        assert rep.saturates
        assert rep.worst_value == pytest.approx(1.0, abs=1e-12)
        assert rep.proportionality_defect == pytest.approx(0.0, abs=1e-8)

    def test_dephasing_on_plus_fails(self):
        rep = gio_saturation_check(dephasing_channel(2), plus_state())
        assert not rep.saturates
        assert rep.worst_pair == (0, 1)
        assert rep.worst_value == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state_trivially_saturates(self):
        rep = gio_saturation_check(
            random_gio(3, 2, seed=51), DensityMatrix.from_diagonal([0.5, 0.3, 0.2])
        )
        assert rep.saturates
        assert rep.worst_pair is None

    def test_generic_gio_on_plus_fails(self):
        rep = gio_saturation_check(random_gio(2, 3, seed=52), plus_state())
        assert not rep.saturates
        assert 0.0 < rep.worst_value < 1.0

    def test_rejects_non_diagonal_channel(self):
        with pytest.raises(NotGio):
            gio_saturation_check(depolarizing_extension(2), DensityMatrix.maximally_mixed(4))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gio_saturation_check(dephasing_channel(2), DensityMatrix.maximally_mixed(3))


BAD_TOLS = ["x", None, 1j, np.nan, np.inf, -np.inf, 0, -1, True, pytest.param(10**400, id="10**400"), np.array(0.5)]


class TestToleranceArguments:
    """is_sio and gio_saturation_check take a tol that is a real number,
    positive and finite, the rule of TrialConfig.tol_violation."""

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
    def test_is_sio_rejects_bad_tol(self, tol):
        for ch in (dephasing_channel(2), KrausChannel([np.eye(1)])):
            with pytest.raises(ParamOutOfRange, match=r"^tol must be positive and finite, got "):
                is_sio(ch, tol)

    @pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
    def test_saturation_check_rejects_bad_tol(self, tol):
        with pytest.raises(ParamOutOfRange, match=r"^tol must be positive and finite, got "):
            gio_saturation_check(dephasing_channel(2), plus_state(), tol)

    def test_message_names_the_value(self):
        with pytest.raises(ParamOutOfRange, match=r"^tol must be positive and finite, got 'x'$"):
            is_sio(dephasing_channel(2), "x")
        with pytest.raises(ParamOutOfRange, match=r"^tol must be positive and finite, got nan$"):
            gio_saturation_check(dephasing_channel(2), plus_state(), float("nan"))

    @pytest.mark.parametrize("tol", [1e-300, 0.5, 2.0, np.float32(1e-3), np.int64(1), 3], ids=repr)
    def test_accepts_positive_finite_reals(self, tol):
        assert is_sio(dephasing_channel(2), tol)
        # plus_state couples its pair at 0.5, which dephasing maps to overlap 0.
        assert gio_saturation_check(dephasing_channel(2), plus_state(), tol).saturates == (tol >= 0.5)


class TestPetzRecovery:
    def test_recovers_reference_state(self):
        for seed in range(5):
            ch = random_channel(3, 3, seed=60 + seed)
            sigma = DensityMatrix(
                0.8 * random_density(3, 3, seed=70 + seed).matrix + 0.2 * np.eye(3) / 3
            )
            rec = petz_recovery(ch, sigma)
            got = rec(ch.apply_matrix(sigma.matrix))
            np.testing.assert_allclose(got, sigma.matrix, atol=1e-10)

    def test_reduces_to_dual_for_unital_and_identity(self):
        ch = random_unital_channel(3, 3, seed=80)
        for ref in [np.eye(3), np.eye(3) / 3]:
            rec = petz_recovery(ch, ref)
            rng = np.random.default_rng(81)
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            x = x + x.conj().T
            np.testing.assert_allclose(rec(x), ch.dual().apply_matrix(x), atol=1e-10)

    def test_apply_returns_state(self):
        ch = random_unital_channel(2, 2, seed=82)
        rec = petz_recovery(ch, np.eye(2))
        out = rec.apply(random_density(2, 2, seed=83))
        assert np.real(np.trace(out.matrix)) == pytest.approx(1.0, abs=1e-10)

    def test_state_reference_is_not_solved_again(self, eigh_calls):
        sigma = validate_density(0.8 * random_density(3, 3, seed=2).matrix + 0.2 * np.eye(3) / 3)
        ch = random_gio(3, 2, seed=2)
        eigh_calls.clear()
        rec = petz_recovery(ch, sigma)
        assert eigh_calls == [(3, 3)]  # the channel output; sigma's spectrum is cached
        np.testing.assert_allclose(rec(ch.apply_matrix(sigma.matrix)), sigma.matrix, atol=1e-12)
        fresh = petz_recovery(ch, sigma.matrix)
        omega = random_density(3, 2, seed=3).matrix
        np.testing.assert_allclose(rec(omega), fresh(omega), atol=1e-13)

    def test_rejects_singular_reference_image(self):
        with pytest.raises(SingularState):
            petz_recovery(KrausChannel([np.eye(2)]), np.diag([1.0, 0.0]))

    def test_rejects_wrong_reference_shape(self):
        with pytest.raises(DimensionMismatch):
            petz_recovery(KrausChannel([np.eye(2)]), np.eye(3))

    def test_call_checks_shape(self):
        rec = petz_recovery(KrausChannel([np.eye(2)]), np.eye(2))
        with pytest.raises(DimensionMismatch):
            rec(np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operands_are_rejected(self, bad):
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = bad
        ch = random_channel(2, 2, seed=1)
        rec = petz_recovery(ch, np.eye(2) / 2.0)
        calls = [
            lambda: petz_recovery(ch, np.full((2, 2), bad)),
            lambda: ch.apply_matrix(m),
            lambda: random_gio(2, 2, seed=1).apply_matrix(m),
            lambda: rec(m),
        ]
        for call in calls:
            with pytest.raises(StateValidationError, match="non-finite"):
                call()

    def test_convergence_failure_is_typed(self, monkeypatch):
        def failing(h):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceFailure):
            petz_recovery(random_channel(2, 2, seed=1), np.eye(2) / 2.0)


def recovery_defect(ch, rho):
    """Trace-norm distance between rho and Dual(ch(rho)); for a diagonal
    channel it vanishes exactly when the coherence monotonicity saturates."""
    return trace_norm(rho.matrix - ch.dual().apply_matrix(ch.apply_matrix(rho.matrix)))


class TestRecoveryDefect:
    def test_zero_for_unitary(self):
        u = random_unitary(3, seed=90)
        ch = KrausChannel([u])
        assert recovery_defect(ch, random_density(3, 3, seed=91)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_dephasing_on_plus(self):
        # round trip lands on the dephased state, trace norm distance 1
        assert recovery_defect(dephasing_channel(2), plus_state()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_direct_round_trip(self):
        # A diagonal channel is the Schur product C o m, its dual conj(C) o m.
        ch = random_gio(3, 2, seed=92)
        rho = random_density(3, 3, seed=93)
        roundtrip = np.abs(ch.correlation) ** 2 * rho.matrix
        assert recovery_defect(ch, rho) == pytest.approx(
            trace_norm(rho.matrix - roundtrip), abs=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            recovery_defect(dephasing_channel(2), DensityMatrix.maximally_mixed(3))


def einsum_apply(ch, m):
    """Reference: sum_k K m K* as one three-operand einsum."""
    ops = ch.kraus_ops
    return np.einsum("kij,jl,kml->im", ops, m, ops.conj())


def nonhermitian(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestApplyMatrixForms:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: random_channel(4, 3, seed=1),
            lambda: random_unital_channel(3, 4, seed=2),
            lambda: random_gio(5, 3, seed=3),
            lambda: dephasing_channel(4),
            lambda: diagonal_unitary_mixture([0.3, 0.7], [[0.0, 1.0, 2.0], [0.5, 0.1, 3.0]]),
            lambda: depolarizing_extension(3),
            lambda: erasure_extension(3),
        ],
        ids=["random", "random-unital", "random-gio", "dephase", "unitary-mixture", "depol-ext", "erase-ext"],
    )
    def test_matches_einsum(self, build):
        ch = build()
        for seed in range(3):
            m = nonhermitian(ch.dim, seed)
            np.testing.assert_allclose(ch.apply_matrix(m), einsum_apply(ch, m), rtol=0, atol=1e-13)
        rho = random_density(ch.dim, ch.dim, seed=9)
        np.testing.assert_allclose(ch.apply(rho).matrix, einsum_apply(ch, rho.matrix), rtol=0, atol=1e-13)

    def test_diagonal_channel_checks_shape(self):
        with pytest.raises(DimensionMismatch):
            dephasing_channel(3).apply_matrix(np.eye(2))


class TestExtensionSizeGuard:
    """The extensions store d alone; their dense Kraus stack and selective
    outcome list are refused past channels.EXTENSION_DENSE_BYTES."""

    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_rejects_before_allocating(self, build, monkeypatch):
        from fcoherence import channels

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} touched before the size guard")

        # 11 and 17 are the first ancilla dimensions past the bound.
        d = 11 if build is depolarizing_extension else 17
        rho = DensityMatrix.maximally_mixed(d * d)
        monkeypatch.setattr(channels, "np", NoNumpy())
        for ch in (build(d), build(10**6)):
            with pytest.raises(DimensionMismatch, match="at most"):
                ch.kraus_ops
        with pytest.raises(DimensionMismatch, match="at most"):
            build(d).selective_outcomes(rho)

    def test_limit_itself_is_accepted(self, monkeypatch):
        from fcoherence import channels

        rho = random_density(9, 9, seed=1)
        for build, count in ((depolarizing_extension, 9), (erasure_extension, 3)):
            ch = build(3)
            monkeypatch.setattr(channels, "EXTENSION_DENSE_BYTES", 16 * count * 9 * 9)
            assert ch.kraus_ops.shape == (count, 9, 9)
            assert len(ch.selective_outcomes(rho)) == count
            monkeypatch.setattr(channels, "EXTENSION_DENSE_BYTES", 16 * count * 9 * 9 - 1)
            for dense in (lambda: ch.kraus_ops, lambda: ch.selective_outcomes(rho)):
                with pytest.raises(DimensionMismatch, match="at most"):
                    dense()


def partial_trace_extension(rho: np.ndarray, d: int, erase: bool) -> np.ndarray:
    """tr_B(rho) (x) |0><0| or tr_B(rho) (x) I/d, by einsum and kron."""
    reduced = np.einsum("iaja->ij", rho.reshape(d, d, d, d))
    return np.kron(reduced, np.diag(np.eye(d)[0]) if erase else np.eye(d) / d)


class TestBlockExtensions:
    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_large_ancilla_matches_partial_trace(self, build):
        d = 32
        rho = random_density(d * d, 8, seed=3)
        got = build(d).apply_matrix(rho.matrix)
        assert np.abs(got - partial_trace_extension(rho.matrix, d, build is erasure_extension)).max() <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_block_form_matches_dense_kraus_route(self, build, d):
        ch = build(d)
        dense = KrausChannel(ch.kraus_ops)
        for rank in (1, d, d * d):
            rho = random_density(d * d, rank, seed=d + rank)
            assert np.abs(ch.apply_matrix(rho.matrix) - dense.apply_matrix(rho.matrix)).max() <= 1e-15
            assert np.abs(ch.apply(rho).matrix - dense.apply(rho).matrix).max() <= 1e-15
            got, want = ch.selective_outcomes(rho), dense.selective_outcomes(rho)
            blocks = [b for b in dense.kraus_ops @ rho.matrix @ dense.kraus_ops.conj().transpose(0, 2, 1)
                      if np.trace(b).real > 1e-12]
            assert len(got) == len(want) == len(blocks)
            for g, w, b in zip(got, want, blocks):
                exact = b / np.trace(b).real
                assert abs(g.probability - w.probability) <= 1e-15
                # Each route cleans its outcome through an eigensolve, the
                # dense one of a d^2 x d^2 matrix, and each stays within
                # 1e-15 of the exact state; they differ by up to 1.1e-15.
                assert np.abs(g.state.matrix - exact).max() <= 1e-15
                assert np.abs(g.state.matrix - w.state.matrix).max() <= 2e-15

    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_apply_validates_the_reduced_state_only(self, build, monkeypatch):
        from fcoherence import states

        shapes, real = [], states._eigh

        def spy(m):
            shapes.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(states, "_eigh", spy)
        d = 32
        rho = random_density(d * d, 8, seed=3)
        out = build(d).apply(rho)
        assert shapes == [(1, d, d)]
        assert out._decomposition is None
        assert np.abs(out.matrix - partial_trace_extension(rho.matrix, d, build is erasure_extension)).max() <= 1e-12

    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_outputs_are_adopted_without_a_copy(self, build, monkeypatch):
        """The d^2 x d^2 outputs of apply and selective_outcomes are built
        fresh, so they skip DensityMatrix's scan and copy and come frozen."""
        calls, real = [], DensityMatrix.__post_init__

        def counting(rho):
            calls.append(np.shape(rho.matrix))
            real(rho)

        d = 3
        rho = random_density(d * d, d * d, seed=8)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
        ch = build(d)
        outputs = [ch.apply(rho)] + [o.state for o in ch.selective_outcomes(rho)]
        assert calls == []
        assert len(outputs) == 1 + (d * d if build is depolarizing_extension else d)
        assert not any(out.matrix.flags.writeable for out in outputs)

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_apply_matches_the_dense_route(self, build, d):
        dense = KrausChannel(build(d).kraus_ops)
        for rank in (1, d, d * d):
            rho = random_density(d * d, rank, seed=d + rank)
            got = build(d).apply(rho)
            assert np.abs(got.matrix - dense.apply(rho).matrix).max() <= 1e-15
            assert abs(np.trace(got.matrix) - 1.0) <= 1e-15

    def test_zero_probability_blocks_are_dropped(self):
        ground = DensityMatrix.from_diagonal([1.0, 0.0, 0.0])
        rho = random_density(3, 3, seed=7).tensor(ground)
        for build, count in ((depolarizing_extension, 3), (erasure_extension, 1)):
            outcomes = build(3).selective_outcomes(rho)
            assert len(outcomes) == count
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-15)
