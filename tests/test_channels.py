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
from fcoherence.channels import COMPLETENESS_TOL
from fcoherence.errors import (
    BadWeights,
    ChannelValidationError,
    DimensionMismatch,
    NotGio,
    SingularState,
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

        monkeypatch.setattr(np.random, "default_rng", no_draws)
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
    @pytest.mark.parametrize("build", [depolarizing_extension, erasure_extension])
    def test_rejects_before_allocating(self, build, monkeypatch):
        from fcoherence import channels

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} touched before the size guard")

        monkeypatch.setattr(channels, "np", NoNumpy())
        with pytest.raises(DimensionMismatch, match="at most"):
            build(channels.MAX_EXTENSION_DIM + 1)
        with pytest.raises(DimensionMismatch):
            build(10**6)

    def test_limit_itself_is_accepted(self):
        from fcoherence.channels import MAX_EXTENSION_DIM

        assert erasure_extension(MAX_EXTENSION_DIM).dim == MAX_EXTENSION_DIM**2
