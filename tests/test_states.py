import numpy as np
import pytest

from fcoherence import (
    DensityMatrix,
    PureState,
    coherence_f,
    random_density,
    random_pure,
    random_unitary,
    spectral_decompose,
    trace_norm,
    validate_density,
)
from fcoherence.channels import random_channel, random_gio, random_unital_channel
from fcoherence.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    StateValidationError,
    TraceNotOne,
)
from fcoherence.generators import neg_log
from fcoherence.states import _UNBLOCKED_DIM, _eigh, spectra


class TestValidation:
    def test_accepts_maximally_mixed(self):
        rho = validate_density(np.eye(3) / 3)
        assert rho.dim == 3
        np.testing.assert_allclose(rho.matrix, np.eye(3) / 3)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        mat = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(NotHermitian):
            validate_density(mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5])
        with pytest.raises(NotPositive):
            validate_density(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(TraceNotOne):
            validate_density(np.eye(2))

    def test_rejects_non_finite(self):
        mat = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(StateValidationError):
            validate_density(mat)

    def test_empty_stack_gives_empty_list(self):
        assert validate_density(np.zeros((0, 3, 3), dtype=complex)) == []

    @pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (0, 0, 0)])
    def test_rejects_zero_dimension(self, shape):
        with pytest.raises(DimensionMismatch):
            validate_density(np.zeros(shape))

    def test_symmetrizes_tiny_asymmetry(self):
        mat = np.eye(2) / 2 + 1e-13 * np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = validate_density(mat)
        np.testing.assert_allclose(rho.matrix, rho.matrix.conj().T)

    def test_renormalizes_within_tolerance(self):
        rho = validate_density(np.eye(2) * (0.5 + 2e-11))
        assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-15)


class TestDensityMatrix:
    def test_diagonal_probabilities(self):
        rho = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
        np.testing.assert_allclose(rho.diagonal_probabilities(), [0.7, 0.3])

    def test_eigenvalues_sorted_descending(self):
        rho = DensityMatrix.from_diagonal([0.2, 0.5, 0.3])
        np.testing.assert_allclose(rho.eigenvalues(), [0.5, 0.3, 0.2])

    def test_from_diagonal_checks_trace(self):
        with pytest.raises(TraceNotOne):
            DensityMatrix.from_diagonal([0.2, 0.2])

    def test_from_diagonal_checks_sign(self):
        with pytest.raises(NotPositive):
            DensityMatrix.from_diagonal([1.2, -0.2])

    def test_maximally_mixed(self):
        rho = DensityMatrix.maximally_mixed(4)
        np.testing.assert_allclose(rho.matrix, np.eye(4) / 4)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_maximally_mixed_rejects_nonpositive_dimension(self, dim):
        with pytest.raises(DimensionMismatch, match="dimension must be positive"):
            DensityMatrix.maximally_mixed(dim)

    def test_tensor_dimensions(self):
        a = DensityMatrix.maximally_mixed(2)
        b = DensityMatrix.maximally_mixed(3)
        assert a.tensor(b).dim == 6

    def test_tensor_values(self):
        a = DensityMatrix.from_diagonal([0.75, 0.25])
        b = DensityMatrix.from_diagonal([1.0, 0.0])
        np.testing.assert_allclose(a.tensor(b).matrix, np.diag([0.75, 0.0, 0.25, 0.0]))

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0


class TestPureState:
    def test_projector_is_rank_one(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        evals = psi.as_density().eigenvalues()
        np.testing.assert_allclose(evals, [1.0, 0.0], atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError):
            PureState(np.array([3.0, 4.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(StateValidationError):
            PureState(np.zeros(2))

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionMismatch):
            PureState(np.eye(2))


class TestSpectralDecompose:
    def test_reconstruction(self):
        rho = random_density(4, 4, seed=7)
        dec = spectral_decompose(rho)
        v = dec.eigenvectors
        np.testing.assert_allclose((v * dec.eigenvalues) @ v.conj().T, rho.matrix, atol=1e-12)

    def test_eigenvalues_descending(self):
        dec = spectral_decompose(random_density(5, 5, seed=11))
        assert np.all(np.diff(dec.eigenvalues) <= 1e-15)

    def test_eigenvectors_orthonormal(self):
        v = spectral_decompose(random_density(5, 3, seed=13)).eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(5)).max() < 1e-12

    def test_read_only_rows_of_one_stack(self):
        states = [random_density(3, 3, seed=s) for s in range(2)]
        spectra(states)  # one stacked eigh
        decs = [spectral_decompose(s) for s in states]
        for dec in decs:
            with pytest.raises(ValueError):
                dec.eigenvalues[0] = 0.0
            with pytest.raises(ValueError):
                dec.eigenvectors[0, 0] = 0.0
        assert decs[0].eigenvalues.base is decs[1].eigenvalues.base is not None
        assert decs[0].eigenvectors.base is decs[1].eigenvectors.base is not None


class TestTraceNorm:
    def test_difference_of_orthogonal_pures(self):
        assert trace_norm(np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])) == pytest.approx(2.0)

    def test_diagonal_hand_value(self):
        # singular values are |0.4| and |-0.4|
        a = np.diag([0.7, 0.3]) - np.diag([0.3, 0.7])
        assert trace_norm(a) == pytest.approx(0.8)

    def test_unitary_invariance(self):
        a = random_density(3, 3, seed=2).matrix - np.eye(3) / 3
        u = random_unitary(3, seed=4)
        assert trace_norm(u @ a @ u.conj().T) == pytest.approx(trace_norm(a), abs=1e-12)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            trace_norm(np.ones(3))


class TestRandomFactories:
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_random_pure_normalized(self, dim):
        psi = random_pure(dim, seed=3)
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim,rank", [(2, 1), (3, 2), (4, 4)])
    def test_random_density_rank(self, dim, rank):
        evals = random_density(dim, rank, seed=5).eigenvalues()
        assert np.sum(evals > 1e-10) == rank

    def test_random_density_valid(self):
        rho = random_density(4, 3, seed=9)
        validate_density(rho.matrix)

    def test_random_density_rejects_bad_rank(self):
        with pytest.raises(DimensionMismatch):
            random_density(3, 4, seed=1)
        with pytest.raises(DimensionMismatch):
            random_density(3, 0, seed=1)

    def test_seed_determinism(self):
        a = random_density(3, 3, seed=42).matrix
        b = random_density(3, 3, seed=42).matrix
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = random_density(3, 3, seed=1).matrix
        b = random_density(3, 3, seed=2).matrix
        assert not np.allclose(a, b)

    def test_random_unitary_is_unitary(self):
        u = random_unitary(4, seed=13)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("dim", [0, -1])
    def test_random_unitary_rejects_nonpositive_dimension(self, dim):
        with pytest.raises(DimensionMismatch, match="dimension must be positive"):
            random_unitary(dim, seed=1)


class TestIdentityEquality:
    """The array-holding value types compare and hash by identity."""

    def instances(self):
        rho = random_density(3, 3, seed=2)
        return [
            rho,
            random_pure(3, seed=2),
            spectral_decompose(rho),
            coherence_f(rho, neg_log()),
        ]

    def test_equal_only_to_itself(self):
        # Both lists are built from the same seeds, so their arrays match.
        for a, b in zip(self.instances(), self.instances()):
            assert a == a and not a != a
            assert a != b and not a == b
            assert a in [b, a] and b not in [a]

    def test_hashable(self):
        objs, twins = self.instances(), self.instances()
        assert len({*objs, *objs, *twins}) == 2 * len(objs)


class TestEigenvalueCache:
    def test_copies_are_equal_independent_and_writable(self):
        rho = random_density(4, 3, seed=21)
        expected = np.linalg.eigh(rho.matrix)[0][::-1].tobytes()
        first = rho.eigenvalues()
        assert first.flags.writeable
        assert first.tobytes() == expected
        first[:] = -1.0
        second = rho.eigenvalues()
        assert second is not first
        assert second.tobytes() == expected
        second[0] = 7.0
        assert rho.eigenvalues().tobytes() == expected

    def test_one_eigensolve_per_state(self, eigh_calls):
        rho = random_density(3, 3, seed=22)
        other = random_density(3, 3, seed=23)
        for _ in range(5):
            rho.eigenvalues()
        spectral_decompose(rho)
        other.eigenvalues()
        spectral_decompose(other)
        assert eigh_calls == [(1, 3, 3), (1, 3, 3)]

    def test_one_eigendecomposition_per_state(self, monkeypatch):
        from fcoherence import quasi_relative_entropy
        from fcoherence.generators import lookup

        calls = []
        real = np.linalg.eigh

        def counting(m):
            calls.append(len(m) if np.ndim(m) == 3 else 1)  # matrices solved
            return real(m)

        a, b = random_density(4, 4, seed=24), random_density(4, 4, seed=25)
        expected = np.linalg.eigh(a.matrix)
        monkeypatch.setattr(np.linalg, "eigh", counting)
        for spec in ("neg_log", "power:0.5", "tsallis:1.5"):
            quasi_relative_entropy(a, b, lookup(spec))
            quasi_relative_entropy(b, a, lookup(spec))
            quasi_relative_entropy(a, a, lookup(spec))
        assert sum(calls) == 2
        dec = spectral_decompose(a)
        assert dec is spectral_decompose(a)
        np.testing.assert_array_equal(dec.eigenvalues, expected[0][::-1])
        np.testing.assert_array_equal(dec.eigenvectors, expected[1][:, ::-1])

    def test_validated_state_is_never_solved_again(self, eigh_calls):
        from fcoherence import coherence_f, oracle_quasi_relative_entropy, quasi_relative_entropy
        from fcoherence.coherence import coherence_table
        from fcoherence.divergence import entropy_table
        from fcoherence.generators import lookup

        d = 3
        a = validate_density(0.8 * random_density(d, d, seed=26).matrix + 0.2 * np.eye(d) / d)
        b = validate_density(np.array([0.7 * random_density(d, d, seed=27).matrix + 0.3 * np.eye(d) / d]))[0]
        f = lookup("tsallis:0.5")
        assert eigh_calls == [(1, d, d), (1, d, d)]  # the two validations
        eigh_calls.clear()
        a.eigenvalues()
        coherence_f(a, f)
        coherence_table([a, b], [f])
        entropy_table([a, b], [f])
        quasi_relative_entropy(a, b, f)
        oracle_quasi_relative_entropy(a, b, f)
        # The oracle's one eigh is of its stack of one d^2 x d^2 superoperator.
        assert eigh_calls == [(1, d * d, d * d)]

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_decomposition_rebuilds_the_stored_matrix(self, seed):
        rng = np.random.default_rng(seed)
        noisy = [random_density(4, 1 + seed % 4, seed=seed).matrix + 1e-12 * rng.standard_normal((4, 4))]
        noisy.append(random_pure(4, seed=seed).as_density().matrix)
        noisy = [(m + m.conj().T) / 2 / np.trace(m).real for m in noisy]
        for rho in [validate_density(noisy[0])] + validate_density(np.array(noisy)):
            dec = rho._decomposition
            assert dec is not None
            v = dec.eigenvectors
            assert np.abs((v * dec.eigenvalues) @ v.conj().T - rho.matrix).max() <= 1e-14
            assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-14
            assert np.all(np.diff(dec.eigenvalues) <= 0.0) and np.all(dec.eigenvalues >= 0.0)


# The rows of diagonal_stack that past d = 32 hold a tie above their
# smallest value, where LAPACK's selection sort is not stable.
TIED_ROWS = [1, 3]


def diagonal_stack(d, seed):
    """Diagonal complex matrices of dimension d: distinct, tied, with zeros
    and negatives, with complex diagonals (eigh reads the real part) and
    -0.0 imaginary parts, and with ties above the smallest value."""
    rng = np.random.default_rng(seed)
    rows = [
        rng.standard_normal(d),
        rng.integers(-2, 3, d) * 0.25,
        np.where(rng.random(d) < 0.4, 0.0, rng.random(d)),
        rng.choice([0.1, 0.2, 0.3, 0.0, -0.7], d),
        np.full(d, 1.0 / d),
        rng.dirichlet(np.ones(d)),
    ]
    imag = [rng.standard_normal(d), rng.standard_normal(d), np.full(d, -0.0), 0.0 * rows[0], 0.0 * rows[0], np.full(d, -0.0)]
    out = np.zeros((len(rows), d, d), dtype=complex)
    idx = np.arange(d)
    out[:, idx, idx] = np.array(rows) + 1j * np.array(imag)
    return out


def assert_eigh_bytes(m):
    got, want = _eigh(m), np.linalg.eigh(m)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestDiagonalEigh:
    """Past d = 32, states._eigh gives an exactly diagonal matrix the bits
    of eigh without calling it; up to d = 32 eigh is the cheaper route.
    These byte checks are what catch a LAPACK build that orders or signs
    its diagonal results otherwise."""

    @pytest.mark.parametrize("d", list(range(1, 41)) + [63, 64, 100, 128, 129, 200, 256, 300])
    def test_diagonal_stack_equals_eigh(self, d, eigh_calls):
        stack = diagonal_stack(d, d)
        expected = [np.linalg.eigh(m) for m in stack]
        eigh_calls.clear()
        vals, vecs = _eigh(stack)
        assert eigh_calls == ([(len(TIED_ROWS), d, d)] if d > _UNBLOCKED_DIM else [stack.shape])
        for (w, v), row, col in zip(expected, vals, vecs):
            assert row.tobytes() == w.tobytes() and col.tobytes() == v.tobytes()
        assert_eigh_bytes(stack[3])

    def test_tie_above_the_minimum_goes_to_eigh(self, eigh_calls):
        # Step 0 swaps 0 into place and moves the first 1 behind the second.
        m = np.diag([1.0, 1.0, 0.0] + [2.0] * 31).astype(complex)
        vals, vecs = _eigh(m)
        assert eigh_calls == [(34, 34)]
        assert np.argmax(np.abs(vecs), axis=0)[:3].tolist() == [2, 1, 0]
        assert_eigh_bytes(m)

    @pytest.mark.parametrize("d", [3, 40, 64])
    def test_mixed_stack_solves_only_the_dense_rows(self, d, eigh_calls):
        diag = diagonal_stack(d, 7)[[0, 2]]
        dense = np.array([random_density(d, d, seed=s).matrix for s in (1, 2)])
        stack = np.array([diag[0], dense[0], diag[1], dense[1]])
        expected = [np.linalg.eigh(m) for m in stack]
        eigh_calls.clear()
        vals, vecs = _eigh(stack)
        assert eigh_calls == ([(2, d, d)] if d > _UNBLOCKED_DIM else [(4, d, d)])
        for (w, v), row, col in zip(expected, vals, vecs):
            assert row.tobytes() == w.tobytes() and col.tobytes() == v.tobytes()

    @pytest.mark.parametrize("d", [40, 64])
    def test_values_lapack_would_change_go_to_eigh(self, d, eigh_calls):
        rng = np.random.default_rng(d)
        cases = [
            np.diag(rng.standard_normal(d) * 1e-150),  # zheevd rescales it
            np.diag(rng.standard_normal(d) * 1e150),
            np.diag(np.r_[-0.0, rng.random(d - 1)]),  # LAPACK may drop the sign
        ]
        for m in cases:
            eigh_calls.clear()
            assert_eigh_bytes(m.astype(complex))
            assert len(eigh_calls) == 2

    def test_validation_and_cache_use_the_rule(self, eigh_calls):
        p = np.random.default_rng(1).dirichlet(np.ones(40))
        p[::3] = 0.0
        rho = DensityMatrix.from_diagonal(p / p.sum())
        validated = validate_density(np.diag(np.full(40, 1.0 / 40)))
        assert spectral_decompose(rho).eigenvalues.tolist() == sorted(rho.diagonal_probabilities(), reverse=True)
        assert validated.eigenvalues().tolist() == [1.0 / 40] * 40
        assert eigh_calls == []


PUBLIC_DRAWS = [
    lambda seed: random_density(3, 3, seed),
    lambda seed: random_pure(3, seed),
    lambda seed: random_unitary(3, seed),
    lambda seed: random_gio(3, 2, seed),
    lambda seed: random_unital_channel(3, 2, seed),
    lambda seed: random_channel(3, 2, seed),
]
DRAW_NAMES = [
    "random_density", "random_pure", "random_unitary", "random_gio", "random_unital_channel", "random_channel",
]


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, 1.5, True, None, "1", np.array([1, 2])])
    @pytest.mark.parametrize("draw", PUBLIC_DRAWS, ids=DRAW_NAMES)
    def test_bad_seed_is_a_typed_error(self, draw, seed):
        with pytest.raises(ParamOutOfRange, match="seed must be a non-negative integer"):
            draw(seed)

    @pytest.mark.parametrize("draw", PUBLIC_DRAWS, ids=DRAW_NAMES)
    def test_large_and_numpy_seeds_are_accepted(self, draw):
        draw(2**70)
        draw(np.uint64(2**64 - 1))
        draw(np.int64(0))
