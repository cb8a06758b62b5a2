import re

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
from fcoherence.channels import (
    dephasing_channel,
    depolarizing_extension,
    erasure_extension,
    random_channel,
    random_gio,
    random_unital_channel,
)
from fcoherence.coherence import max_coherent_state
from fcoherence.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
    StateValidationError,
    TraceNotOne,
)
from fcoherence.generators import neg_log
from fcoherence.states import spectra


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

    def test_from_diagonal_rejects_non_finite_entries(self):
        with pytest.raises(StateValidationError, match="^density matrix contains non-finite entries$"):
            DensityMatrix.from_diagonal([1.0, np.nan])
        for p in ([1.0, np.inf], [np.inf, 0.0, 0.0]):
            with pytest.raises(TraceNotOne):
                DensityMatrix.from_diagonal(p)

    def test_diagonal_factories_freeze_their_matrix(self):
        for rho in (DensityMatrix.from_diagonal([0.25, 0.75]), DensityMatrix.maximally_mixed(3)):
            assert not rho.matrix.flags.writeable
            assert rho.matrix.dtype == complex and rho.matrix.shape == (rho.dim, rho.dim)

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


def diagonal_cases(d):
    """Probability vectors of dimension d: distinct, with exact zeros, with
    tiny entries, and rounded so that values tie."""
    rng = np.random.default_rng(d)
    rows = [
        rng.dirichlet(np.ones(d)),
        np.where(rng.random(d) < 0.4, 0.0, rng.random(d) + 0.1),
        np.where(rng.random(d) < 0.3, 1e-300, rng.random(d)),
        np.where(rng.random(d) < 0.3, 1e-20, rng.random(d)),
        np.round(rng.dirichlet(np.ones(d)), 2) + 0.01,
        rng.choice([0.0, 0.1, 0.2, 0.3], d) + np.eye(1, d).ravel(),
    ]
    return [p / p.sum() for p in rows]


def tied_above_the_smallest(p):
    s = np.sort(p)
    return bool(((s[1:] == s[:-1]) & (s[1:] > s[0])).any())


class TestDiagonalFactories:
    """from_diagonal, maximally_mixed and dephase store their decomposition
    when they build the state, with the bits eigh gives its matrix."""

    @pytest.mark.parametrize("d", list(range(1, 65)) + [128, 256])
    def test_decomposition_equals_eigh(self, d, eigh_calls):
        states = [DensityMatrix.from_diagonal(p) for p in diagonal_cases(d)] + [DensityMatrix.maximally_mixed(d)]
        assert eigh_calls == []
        for rho in states:
            dec = rho._decomposition
            w, v = np.linalg.eigh(rho.matrix)
            assert dec.eigenvalues.tobytes() == w[::-1].tobytes()
            if not tied_above_the_smallest(rho.diagonal_probabilities()):
                assert dec.eigenvectors.tobytes() == v[:, ::-1].tobytes()
            assert spectral_decompose(rho) is dec

    def test_tie_above_the_smallest_keeps_the_stable_order(self):
        p = np.array([1.0, 1.0, 0.0] + [2.0] * 31)
        rho = DensityMatrix.from_diagonal(p / p.sum())
        w, v = np.linalg.eigh(rho.matrix)
        ascending = rho._decomposition.eigenvectors[:, ::-1]
        assert rho._decomposition.eigenvalues.tobytes() == w[::-1].tobytes()
        # eigh's selection sort moves the first 1 behind the second.
        assert np.argmax(np.abs(v), axis=0)[:3].tolist() == [2, 1, 0]
        assert np.argmax(np.abs(ascending), axis=0).tolist() == [2, 0, 1] + list(range(3, 34))

    @pytest.mark.parametrize("d", [64, 128, 256])
    def test_dephased_reference_needs_no_eigensolve(self, d, eigh_calls):
        from fcoherence import coherence_f_hat, dephase, quasi_relative_entropy

        f = neg_log()
        rho = validate_density(random_density(d, d, seed=d).matrix)
        eigh_calls.clear()
        value = quasi_relative_entropy(rho, dephase(rho), f)
        assert eigh_calls == []
        assert value == pytest.approx(coherence_f_hat(rho, f).value, abs=1e-12)


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


SIZED = {
    "random_pure": lambda n: random_pure(n, 1),
    "random_density-dim": lambda n: random_density(n, 1, 1),
    "random_density-rank": lambda n: random_density(3, n, 1),
    "random_unitary": lambda n: random_unitary(n, 1),
    "random_gio-dim": lambda n: random_gio(n, 2, 1),
    "random_gio-kraus": lambda n: random_gio(3, n, 1),
    "random_channel-dim": lambda n: random_channel(n, 2, 1),
    "random_channel-kraus": lambda n: random_channel(3, n, 1),
    "random_unital_channel-dim": lambda n: random_unital_channel(n, 2, 1),
    "random_unital_channel-kraus": lambda n: random_unital_channel(3, n, 1),
    "maximally_mixed": DensityMatrix.maximally_mixed,
    "max_coherent_state": max_coherent_state,
    "dephasing_channel": dephasing_channel,
    "depolarizing_extension": depolarizing_extension,
    "erasure_extension": erasure_extension,
}


class TestSizes:
    """Every size is an integer other than bool, at least 1."""

    @pytest.mark.parametrize("size", [2.5, True, "3", np.float64(2.0), [], [2], np.array(2)], ids=repr)
    @pytest.mark.parametrize("build", SIZED.values(), ids=SIZED.keys())
    def test_non_integer_size_is_a_typed_error(self, build, size):
        with pytest.raises(DimensionMismatch, match="integer"):
            build(size)

    @pytest.mark.parametrize("build", SIZED.values(), ids=SIZED.keys())
    def test_numpy_integer_sizes_are_accepted(self, build):
        assert type(build(np.int64(2))) is type(build(2))

    @pytest.mark.parametrize("size", [0, 2.5, [2], np.array(2)], ids=repr)
    @pytest.mark.parametrize("build", SIZED.values(), ids=SIZED.keys())
    def test_sizes_are_checked_before_any_draw(self, monkeypatch, build, size):
        def no_draws(seed):
            raise AssertionError("drew before checking sizes")

        # Both routes to a Generator: default_rng, and a suite's hashed words.
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        monkeypatch.setattr(np.random, "Generator", no_draws)
        with pytest.raises(DimensionMismatch):
            build(size)

    @pytest.mark.parametrize("size", [[], [2], np.array(2)], ids=repr)
    @pytest.mark.parametrize("build", [random_gio, random_channel, random_unital_channel])
    def test_kraus_count_must_be_one_integer(self, build, size):
        message = f"need integer dimension and Kraus count, got 3, {size!r}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            build(3, size, 1)

    @pytest.mark.parametrize("rank", [[2], np.array(2)], ids=repr)
    def test_rank_must_be_one_integer(self, rank):
        message = f"rank must be an integer in [1, 3], got {rank!r}"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            random_density(3, rank, 1)


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
