"""Stacked state validation, coefficient-table channels and case batching.

Every stacked path must give each matrix the bytes the one-matrix path
gives it, and the case-batched suites the reports of a trial-by-trial
run. The per-column, per-pair and per-operator loops these replaced are
kept here as references.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import fcoherence
from fcoherence import (
    DensityMatrix,
    GioChannel,
    PureState,
    TrialConfig,
    dephase,
    dephasing_channel,
    depolarizing_extension,
    diagonal_unitary_mixture,
    erasure_extension,
    gio_saturation_check,
    is_sio,
    random_channel,
    random_density,
    random_gio,
    random_pure,
    random_unital_channel,
    validate_density,
)
from fcoherence import channels, states, verify
from fcoherence.channels import COMPLETENESS_TOL, KrausChannel, SaturationReport
from fcoherence.cli import main
from fcoherence.coherence import coherence_table
from fcoherence.errors import (
    ChannelValidationError,
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    StateValidationError,
    TraceNotOne,
)
from fcoherence.io import dumps17
from fcoherence.states import EPS_ZERO


def seed_random_gio_stack(dim, num_kraus, seed):
    """The per-column draw of random_gio, as a dense Kraus stack."""
    rng = np.random.default_rng(seed)
    coeffs = np.empty((num_kraus, dim), dtype=complex)
    for n in range(dim):
        v = rng.standard_normal(num_kraus) + 1j * rng.standard_normal(num_kraus)
        coeffs[:, n] = v / np.linalg.norm(v)
    return np.stack([np.diag(coeffs[j]) for j in range(num_kraus)])


def seed_wishart(dim, rank, seed):
    """The one-seed Wishart draw: G G* / Tr(G G*), hermitised."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.real(np.trace(m))


def seed_pure(dim, seed):
    """The one-seed pure-state draw: a normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def seed_isometry(rng, rows, cols):
    """The one-block Haar isometry: QR, then R's diagonal phases into Q."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def seed_unital_kraus(dim, num_unitaries, seed):
    """The one-seed unital draw: Dirichlet weights, then one seed per unitary."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(num_unitaries))
    return np.array([
        np.sqrt(w[i]) * seed_isometry(np.random.default_rng(int(rng.integers(0, 2**31 - 1))), dim, dim)
        for i in range(num_unitaries)
    ])


def seed_mixture_table(dim, size, seed):
    """The one-seed diagonal-unitary mixture: Dirichlet weights, then phases."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(size))
    return np.sqrt(w)[:, None] * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(size, dim)))


def seed_validate_density(matrix):
    """The one-matrix validation body: (cleaned matrix, error)."""
    m = np.asarray(matrix, dtype=complex)
    if not np.isfinite(m).all():
        return None, (StateValidationError, "density matrix contains non-finite entries")
    herm_defect = float(np.abs(m - m.conj().T).max())
    if herm_defect > 1e-10:
        return None, (NotHermitian, f"hermiticity defect {herm_defect:.3e} exceeds 1.0e-10")
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > 1e-10:
        return None, (TraceNotOne, f"trace defect {trace_defect:.3e} exceeds 1.0e-10")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    if vals.min() < -1e-9:
        return None, (NotPositive, f"most negative eigenvalue {vals.min():.3e} exceeds 1.0e-09")
    clipped = np.clip(vals, 0.0, 1.0)
    clipped /= clipped.sum()
    return (vecs * clipped) @ vecs.conj().T, None


def seed_selective_outcomes(ops, rho):
    """Per-operator outcome loop: [(p, K rho K* / p validated)]."""
    out = []
    for k in ops:
        e = k @ rho.matrix @ k.conj().T
        p = float(np.real(np.trace(e)))
        if p <= EPS_ZERO:
            continue
        out.append((p, validate_density(e / p)))
    return out


def seed_saturation_check(coeffs, rho, tol):
    """The double loop over index pairs n < m."""
    gram = coeffs.conj().T @ coeffs
    overlap_sq = np.abs(gram) ** 2
    worst_pair = None
    worst_value = 1.0
    d = rho.dim
    for n in range(d):
        for m in range(n + 1, d):
            if abs(rho.matrix[n, m]) <= tol:
                continue
            if overlap_sq[n, m] < worst_value:
                worst_value = float(overlap_sq[n, m])
                worst_pair = (n, m)
    if worst_pair is None:
        return SaturationReport(True, None, 1.0, 0.0)
    n, m = worst_pair
    residual = coeffs[:, n] - gram[m, n] * coeffs[:, m]
    return SaturationReport(worst_value >= 1.0 - tol, worst_pair, worst_value, float(np.linalg.norm(residual)))


def seed_is_sio(ops, tol=1e-10):
    """The loop over Kraus operators and matrix units |n><m|."""
    d = ops.shape[1]
    for k in ops:
        for n in range(d):
            for m in range(d):
                rhs_diag = k[:, n] * k[:, m].conj()
                if n == m:
                    defect = np.abs(np.outer(k[:, n], k[:, n].conj()) - np.diag(rhs_diag)).max()
                else:
                    defect = np.abs(rhs_diag).max()
                if float(defect) > tol:
                    return False
    return True


def noisy_states(d, n, seed):
    """Valid density matrices of cycling rank, with noise inside the tolerances."""
    rng = np.random.default_rng(seed)
    mats = []
    for i in range(n):
        r = 1 + i % d
        g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
        m = g @ g.conj().T
        m = m / np.trace(m).real + 1e-13 * rng.standard_normal((d, d))
        mats.append(m)
    return np.array(mats)


class TestRandomGio:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_matches_column_loop(self, dim):
        for num_kraus in range(1, 8):
            for seed in range(60):
                ops = random_gio(dim, num_kraus, seed).kraus_ops
                assert ops.tobytes() == seed_random_gio_stack(dim, num_kraus, seed).tobytes()

    def test_matches_column_loop_at_larger_sizes(self):
        for dim, num_kraus in ((17, 9), (40, 33), (64, 4)):
            for seed in range(5):
                ops = random_gio(dim, num_kraus, seed).kraus_ops
                assert ops.tobytes() == seed_random_gio_stack(dim, num_kraus, seed).tobytes()


STACK_SEEDS = [[7], [0, 1, 5, 2**32 - 1, 123456789, 9, 2**40 + 3, 17, 4, 2**31, 88, 3]]


class TestStackedDraws:
    """Every row of a stacked draw has the bytes of the one-seed draw, for
    stacks that mix ranks or Kraus counts, so rows of one shape are drawn
    and solved together and the others apart."""

    @pytest.mark.parametrize("seeds", STACK_SEEDS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_wisharts(self, d, seeds):
        ranks = [1 + i % d for i in range(len(seeds))]
        for rank in range(1, d + 1):
            got = states._wisharts(d, rank, seeds)
            assert all(g.tobytes() == seed_wishart(d, rank, s).tobytes() for g, s in zip(got, seeds))
        got = states._wisharts(d, ranks, seeds)
        assert all(g.tobytes() == seed_wishart(d, r, s).tobytes() for g, r, s in zip(got, ranks, seeds))

    @pytest.mark.parametrize("seeds", STACK_SEEDS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_pure_states_and_their_projectors(self, d, seeds):
        v = states._pure_vectors(d, seeds)
        for row, projector, s in zip(v, states._projectors(v), seeds):
            assert row.tobytes() == seed_pure(d, s).tobytes() == random_pure(d, s).amplitudes.tobytes()
            assert projector.tobytes() == np.outer(row, row.conj()).tobytes()

    @pytest.mark.parametrize("seeds", STACK_SEEDS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_haar_unitaries_and_kraus_isometries(self, d, seeds):
        got = states._haar(d, d, seeds)
        assert all(g.tobytes() == seed_isometry(np.random.default_rng(s), d, d).tobytes() for g, s in zip(got, seeds))
        counts = [1 + i % 3 for i in range(len(seeds))]
        for ops, k, s in zip(channels._haar_kraus(d, counts, seeds), counts, seeds):
            want = seed_isometry(np.random.default_rng(s), d * k, d).reshape(k, d, d)
            assert ops.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seeds", STACK_SEEDS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_diagonal_channel_tables(self, d, seeds):
        counts = np.array([1 + i % 3 for i in range(len(seeds))])
        for table, k, s in zip(channels._gio_tables(d, counts, seeds), counts, seeds):
            want = np.diagonal(seed_random_gio_stack(d, k, s), axis1=1, axis2=2)
            assert table.tobytes() == np.ascontiguousarray(want).tobytes()
        kinds = np.where(np.arange(len(seeds)) % 2 == 0, counts, -counts)
        chans = verify._diagonal_channels(d, kinds, np.array(seeds, dtype=object))
        for ch, k, s in zip(chans, kinds.tolist(), seeds):
            want = random_gio(d, k, s) if k > 0 else GioChannel.from_coefficients(seed_mixture_table(d, -k, s))
            assert ch.coefficients.tobytes() == want.coefficients.tobytes()
            assert ch.correlation.tobytes() == want.correlation.tobytes()

    @pytest.mark.parametrize("seeds", STACK_SEEDS)
    @pytest.mark.parametrize("d", range(1, 9))
    def test_unital_channels_and_their_action(self, d, seeds):
        counts = [1 + i % 3 for i in range(len(seeds))]
        kraus = channels._unital_kraus(d, counts, seeds)
        rhos = np.array([seed_wishart(d, d, 1000 + s % 1000) for s in seeds])
        applied = verify._kraus_sums(kraus, rhos)
        for ops, out, rho, k, s in zip(kraus, applied, rhos, counts, seeds):
            want = seed_unital_kraus(d, k, s)
            assert ops.tobytes() == want.tobytes()
            assert out.tobytes() == (want @ rho @ want.conj().transpose(0, 2, 1)).sum(axis=0).tobytes()
            assert out.tobytes() == random_unital_channel(d, k, s).apply_matrix(rho).tobytes()

    @pytest.mark.parametrize("d", range(1, 9))
    def test_cycling_states(self, d):
        trials = np.arange(12)
        seeds = np.array(STACK_SEEDS[1], dtype=object)
        got = verify._draw_states(d, verify._cycling(d, trials), seeds)
        for g, t, s in zip(got, trials.tolist(), seeds.tolist()):
            want = np.outer(seed_pure(d, s), seed_pure(d, s).conj()) if t % 3 == 0 else seed_wishart(d, 1 + t % d, s)
            assert g.tobytes() == want.tobytes()


class TestDrawCounts:
    """Per chunk, one QR per isometry shape and one Wishart call, however
    many trials the chunk holds."""

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls, real = [], np.linalg.qr

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        return calls

    @pytest.fixture
    def wishart_calls(self, monkeypatch):
        calls, real = [], verify._wisharts

        def counting(d, ranks, seeds):
            calls.append(len(seeds))
            return real(d, ranks, seeds)

        monkeypatch.setattr(verify, "_wisharts", counting)
        return calls

    @pytest.mark.parametrize("trials", [6, 12])
    def test_entropy_suite(self, trials, qr_calls, wishart_calls):
        verify.suite_entropy_bounds(TrialConfig(dims=(3,), trials_per_case=trials, seed=1))
        # The unitaries of the invariance trials, then the unitaries of the
        # unital channels (two or three a trial), each one stacked QR.
        rotated, mapped = [t for t in range(trials) if t % 3 == 1], [t for t in range(trials) if t % 3 == 2]
        assert qr_calls == [(len(rotated), 3, 3), (sum(2 + t % 2 for t in mapped), 3, 3)]
        # The mixed states of the trials and the concavity partners.
        assert wishart_calls == [sum(t % 3 != 0 for t in range(trials)) + trials // 3]

    def test_oracle_suite(self, qr_calls, wishart_calls):
        verify.suite_divergence_oracle(TrialConfig(dims=(3,), trials_per_case=40, seed=1))
        # Eight trials: one QR per Kraus count, two and three.
        assert qr_calls == [(4, 6, 3), (4, 9, 3)]
        assert wishart_calls == [4 * 8]

    @pytest.mark.parametrize("name", ["gio-monotonicity", "strong-monotonicity"])
    def test_channel_suites(self, name, qr_calls, wishart_calls):
        verify.SUITES[name](TrialConfig(dims=(3,), trials_per_case=12, seed=1))
        assert qr_calls == [] and len(wishart_calls) == 1

    def test_faithfulness_suite_draws_nothing_coherent_at_dimension_one(self, monkeypatch):
        # The suite seeds each Generator from the words its one pass hashed,
        # so every Generator is built on a PCG64 of those words.
        generators, real = [], np.random.PCG64

        def counting(words):
            generators.append(words)
            return real(words)

        def no_default_rng(seed):
            raise AssertionError("a suite seed missed the suite's hashed words")

        monkeypatch.setattr(np.random, "PCG64", counting)
        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        report = verify.suite_faithfulness_and_bounds(TrialConfig(dims=(1,), trials_per_case=16, seed=1))
        # A 1 x 1 state has no off-diagonal entry, so no candidate is drawn:
        # one Generator a trial, for its incoherent state.
        assert report.passed and report.trials == 8
        assert len(generators) == report.trials


class TestCoefficientTable:
    def test_kraus_ops_read_only_and_derived(self):
        ch = random_gio(4, 3, seed=2)
        ops = ch.kraus_ops
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 0.0
        with pytest.raises(AttributeError):
            ch.kraus_ops = ops
        assert ops.tobytes() == seed_random_gio_stack(4, 3, 2).tobytes()
        assert not ch.coefficients.flags.writeable
        assert not ch.correlation.flags.writeable

    def test_builders_match_dense_stacks(self):
        assert dephasing_channel(4).kraus_ops.tobytes() == np.stack(
            [np.diag(np.eye(4, dtype=complex)[n]) for n in range(4)]
        ).tobytes()
        for t in range(50):
            rng = np.random.default_rng(t)
            k, d = 1 + t % 6, 1 + t % 5
            w, phases = rng.dirichlet(np.ones(k)), rng.uniform(0.0, 2.0 * math.pi, size=(k, d))
            dense = np.stack([np.sqrt(wj) * np.diag(np.exp(1j * row)) for wj, row in zip(w, phases)])
            assert diagonal_unitary_mixture(w, phases).kraus_ops.tobytes() == dense.tobytes()

    def test_kraus_list_and_table_agree(self):
        ch = random_gio(5, 3, seed=8)
        again = GioChannel(list(ch.kraus_ops), label="copy")
        assert again.coefficients.tobytes() == ch.coefficients.tobytes()
        assert again.correlation.tobytes() == (ch.coefficients.T @ ch.coefficients.conj()).tobytes()
        assert (again.num_kraus, again.dim, again.label) == (3, 5, "copy")
        m = np.arange(25.0).reshape(5, 5) + 1j
        assert np.array_equal(again.apply_matrix(m), again.correlation * m)

    def test_completeness_and_unitality(self):
        ch = random_gio(4, 3, seed=1)
        assert ch.completeness_defect() < 1e-14
        assert ch.dual().completeness_defect() <= COMPLETENESS_TOL
        dual = ch.dual()
        assert type(dual) is KrausChannel
        assert np.array_equal(dual.kraus_ops, ch.kraus_ops.conj())

    def test_from_coefficients_validates(self):
        with pytest.raises(ChannelValidationError):
            GioChannel.from_coefficients([[0.5, 1.0]])
        with pytest.raises(ChannelValidationError):
            GioChannel.from_coefficients([[np.nan, 1.0]])
        with pytest.raises(DimensionMismatch):
            GioChannel.from_coefficients([1.0, 1.0])

    def test_kraus_stack_checks(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel([np.eye(2), np.eye(3)])
        with pytest.raises(DimensionMismatch):
            KrausChannel(np.ones((2, 2, 3)))
        with pytest.raises(ChannelValidationError):
            KrausChannel([np.full((2, 2), np.inf)])
        ops = np.array([np.eye(2)], dtype=complex)
        KrausChannel(ops)
        assert ops.flags.writeable  # the caller's array is copied, not frozen


class TestStackedValidation:
    @pytest.mark.parametrize("d", list(range(1, 13)) + [17, 33])
    def test_stack_equals_single_calls(self, d):
        mats = noisy_states(d, 9, seed=d)
        stacked = validate_density(mats)
        assert isinstance(stacked, list) and len(stacked) == len(mats)
        for m, rho in zip(mats, stacked):
            single = validate_density(m)
            reference, error = seed_validate_density(m)
            assert error is None
            assert rho.matrix.tobytes() == single.matrix.tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda m: m + np.triu(np.full_like(m, 1e-6), 1),
            lambda m: 1.01 * m,
            lambda m: m + 0.3 * (np.diag([1.0, -1.0, 0.0, 0.0]) + 0.0j),
            lambda m: np.where(np.eye(4) == 1, np.nan, m),
        ],
        ids=["hermiticity", "trace", "positivity", "non-finite"],
    )
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_one_bad_matrix_raises_its_own_error(self, spoil, position):
        mats = noisy_states(4, 7, seed=5)
        mats[position] = spoil(mats[position])
        with pytest.raises(StateValidationError) as alone:
            validate_density(mats[position])
        with pytest.raises(StateValidationError) as stacked:
            validate_density(mats)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)
        _, (kind, message) = seed_validate_density(mats[position])
        assert (type(alone.value), str(alone.value)) == (kind, message)

    def test_shapes(self):
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones((2, 2, 3)))
        with pytest.raises(DimensionMismatch):
            validate_density(np.ones(4))
        assert validate_density(np.eye(3)[None] / 3)[0].dim == 3

    def test_convergence_failure_is_typed(self, monkeypatch):
        def failing(h):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceFailure):
            validate_density(noisy_states(3, 2, seed=1))


def reader_stack(d, kind):
    """Six states of dimension d drawn as one stack: full rank, rank
    deficient (rank 1 at d = 1), projectors, or the Schur products of
    diagonal channels' correlation matrices with full-rank states."""
    seeds = np.arange(6) + 10 * d
    if kind == "projector":
        return states._projectors(states._pure_vectors(d, seeds))
    ranks = 1 + np.arange(6) % max(1, d - 1) if kind == "rank-deficient" else d
    stack = states._wisharts(d, ranks, seeds)
    if kind == "schur-output":
        stack *= np.array([random_gio(d, 1 + i % 3, 50 + i).correlation for i in range(6)])
    return stack


def diagonal_rows(d, kind):
    """Six probability rows of dimension d, as the faithfulness chunk reads
    them, and the states of the object route: Dirichlet draws, which
    from_diagonal takes, or the diagonals of projectors, which dephase
    takes, onto a Haar vector, one with exact zeros, one whose moduli
    tie bit for bit in pairs, one with zeros and ties, the uniform
    superposition and the first basis vector."""
    seeds = np.arange(6) + 10 * d
    if kind == "dirichlet":
        p = np.array([rng.dirichlet(np.ones(d)) for rng in states._generators(seeds)])
        return p, [DensityMatrix.from_diagonal(row) for row in p]
    v = states._pure_vectors(d, seeds)
    v[1, : d // 2] = 0.0
    v[2, 1::2] = 1j * v[2, 0::2][: d // 2]
    v[3, (d + 1) // 2 :], v[3, 1 : (d + 1) // 2] = 0.0, v[3, 0]
    v[4], v[5] = 1.0, np.eye(d)[0]
    v = states._normalized(v)
    p = states._drawn(states._projectors(v))[1]
    return p, [dephase(PureState(a).as_density()) for a in v]


class TestReader:
    """A raw stack read with its one stacked eigh gives the rows _rows gives
    the states _views adopts it as; a stack read after _cleaned, those of
    the states validate_density gives it; probability rows read by
    _diagonals, those of the states from_diagonal and dephase make of
    them; bit for bit, with no state."""

    @pytest.mark.parametrize("d", [*range(1, 9), 17, 33, 64])
    @pytest.mark.parametrize(
        "kind", ["full-rank", "rank-deficient", "projector", "schur-output", "dirichlet", "dephased-pure"]
    )
    def test_reader_equals_the_object_route(self, d, kind):
        if kind in ("dirichlet", "dephased-pure"):
            p, objects = diagonal_rows(d, kind)
            routes = [(states._diagonals(p), objects)]
        else:
            stack = reader_stack(d, kind)
            matrices, vals, _ = states._cleaned(stack)
            cleaned = states._read(vals, matrices.diagonal(axis1=1, axis2=2).real)
            routes = [(states._drawn(stack), states._views(stack)), (cleaned, validate_density(stack))]
        for rows, objects in routes:
            assert rows.shape == (2, 6, d) and rows.tobytes() == states._rows(objects).tobytes()

    def test_empty_stack(self):
        empty = np.zeros((0, 3, 3), dtype=complex)
        assert states._drawn(empty).shape == states._diagonals(np.zeros((0, 3))).shape == (2, 0, 3)
        assert [a.shape for a in states._cleaned(empty)] == [(0, 3, 3), (0, 3), (0, 3, 3)]
        assert validate_density(empty) == []


def pairs_for_outcomes(d):
    pairs = []
    for t in range(8):
        rho = random_pure(d, t).as_density() if t % 3 == 0 else random_density(d, 1 + t % d, 100 + t)
        if t % 4 == 0:
            ch = random_gio(d, 1 + t % (d + 1), 200 + t)
        elif t % 4 == 1:
            ch = random_channel(d, 2, 300 + t)
        elif t % 4 == 2:
            rng = np.random.default_rng(t)
            ch = diagonal_unitary_mixture(rng.dirichlet(np.ones(3)), rng.uniform(0.0, 6.0, size=(3, d)))
        else:
            ch = dephasing_channel(d)
            rho = DensityMatrix.from_diagonal([1.0] + [0.0] * (d - 1))  # zero-probability outcomes
        pairs.append((ch, rho))
    return pairs


def stacked_averages(pairs, gens):
    """_outcome_averages of (channel, state) pairs: the channels, and the
    states as one stack of their matrices."""
    return verify._outcome_averages([ch for ch, _ in pairs], np.array([rho.matrix for _, rho in pairs]), gens)


def object_averages(pairs, gens):
    """_outcome_averages through the objects: each pair's selective
    outcomes, one coherence table, and each average summed from 0 in
    outcome order."""
    ensembles = [ch.selective_outcomes(rho) for ch, rho in pairs]
    table = coherence_table([rho for _, rho in pairs] + [o.state for e in ensembles for o in e], gens)
    averages, rows = np.zeros((len(pairs), len(gens), 2)), iter(table[len(pairs) :])
    for average, ensemble in zip(averages, ensembles):
        for o in ensemble:
            average += o.probability * next(rows)
    return table[: len(pairs)], averages


STRONG_GENS = [f for f in map(fcoherence.lookup, verify.DEFAULT_F_SPECS) if f.monotone_decreasing]


def straddling_pairs(d):
    """GIO pairs of one to five Kraus operators, and mixtures of two to
    four diagonal unitaries, on pure and mixed states."""
    chans = verify._diagonal_channels(d, np.array([1, 3, -2, 5, 2, -4, 4, -3]), np.arange(8) + 50)
    return list(zip(chans, [random_pure(d, 60 + t).as_density() if t % 2 else random_density(d, 1 + t % d, 60 + t)
                            for t in range(8)]))


class TestSelectiveOutcomes:
    @pytest.mark.parametrize("d", [2, 3, 5, 9, 12, 40, 64])
    def test_matches_per_operator_loop(self, d):
        pairs = pairs_for_outcomes(d)
        for ch, rho in pairs:
            reference = seed_selective_outcomes(ch.kraus_ops, rho)
            single = ch.selective_outcomes(rho)
            assert len(single) == len(reference)
            for s, (p, state) in zip(single, reference):
                assert s.probability == p
                assert s.state.matrix.tobytes() == state.matrix.tobytes()
        own, averages = stacked_averages(pairs, STRONG_GENS)
        want_own, want = object_averages(pairs, STRONG_GENS)
        assert own.tobytes() == want_own.tobytes() and averages.tobytes() == want.tobytes()

    def test_checks_the_pair(self):
        for ch in (random_gio(2, 2, 1), random_channel(2, 2, 1), erasure_extension(2)):
            with pytest.raises(DimensionMismatch):
                ch.selective_outcomes(random_density(3, 3, 1))

    def test_no_outcome_above_zero_gives_no_outcomes(self):
        ch = KrausChannel(np.zeros((2, 2, 2)), require_trace_preserving=False)
        rho = random_density(2, 2, 1)
        assert ch.selective_outcomes(rho) == []
        own, averages = stacked_averages([(ch, rho)], STRONG_GENS)
        assert own.tobytes() == coherence_table([rho], STRONG_GENS).tobytes()
        assert not averages.any()

    @pytest.mark.parametrize("matrices", [1, 2, 3])
    @pytest.mark.parametrize("pairs", [straddling_pairs, pairs_for_outcomes], ids=["straddling", "mixed-kinds"])
    def test_blocks_leave_the_bits(self, monkeypatch, pairs, matrices):
        pairs = pairs(3)
        want = [ch.selective_outcomes(rho) for ch, rho in pairs], stacked_averages(pairs, STRONG_GENS)
        monkeypatch.setattr(channels, "OUTCOME_BLOCK_BYTES", 16 * 3 * 3 * matrices)
        got = [ch.selective_outcomes(rho) for ch, rho in pairs], stacked_averages(pairs, STRONG_GENS)
        for g, w in zip(got[0], want[0]):
            assert [o.probability for o in g] == [o.probability for o in w]
            assert [o.state.matrix.tobytes() for o in g] == [o.state.matrix.tobytes() for o in w]
            assert [o.state.eigenvalues().tobytes() for o in g] == [o.state.eigenvalues().tobytes() for o in w]
        assert [x.tobytes() for x in got[1]] == [x.tobytes() for x in want[1]]


class TestVectorisedPredicates:
    def states(self, d):
        out = [random_density(d, 1 + i % d, 40 + i) for i in range(6)]
        out.append(random_pure(d, 3).as_density())
        out.append(DensityMatrix.from_diagonal(np.full(d, 1.0 / d)))
        out.append(DensityMatrix(np.full((d, d), 1.0 / d, dtype=complex)))
        return out

    def channels(self, d):
        chans = [random_gio(d, k, 10 * d + k) for k in (1, 2, 3)]
        chans.append(dephasing_channel(d))
        chans.append(diagonal_unitary_mixture([0.4, 0.6], np.tile(np.linspace(0.0, 1.0, d), (2, 1))))
        # Proportional and equal columns give ties in the overlap.
        chans.append(GioChannel.from_coefficients(np.full((2, d), math.sqrt(0.5))))
        chans.append(GioChannel.from_coefficients(np.array([[1.0] * (d // 2) + [0.0] * (d - d // 2),
                                                            [0.0] * (d // 2) + [1.0] * (d - d // 2)])))
        return chans

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7])
    def test_saturation_check_matches_pair_loop(self, d):
        for ch in self.channels(d):
            for rho in self.states(d):
                for tol in (1e-6, 0.05, 0.3):
                    got = gio_saturation_check(ch, rho, tol)
                    assert got == seed_saturation_check(ch.coefficients, rho, tol)
                    assert gio_saturation_check(KrausChannel(ch.kraus_ops), rho, tol) == got

    def test_first_tied_pair_wins(self):
        rho = DensityMatrix(np.full((4, 4), 0.25, dtype=complex))
        report = gio_saturation_check(dephasing_channel(4), rho)
        assert report.worst_pair == (0, 1) and report.worst_value == 0.0

    def test_is_sio_matches_matrix_unit_loop(self):
        perm = np.roll(np.eye(3), 1, axis=0).astype(complex)
        near = np.eye(2, dtype=complex)
        near[0, 1] = 1e-6
        cases = [
            random_gio(4, 3, 1), dephasing_channel(3), KrausChannel([np.eye(1)]), KrausChannel([np.eye(3)]),
            depolarizing_extension(2), erasure_extension(3), random_channel(3, 2, 5),
            random_unital_channel(2, 3, 6), KrausChannel([perm]),
            KrausChannel([near], require_trace_preserving=False),
            KrausChannel([np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)]),
        ]
        for ch in cases:
            for tol in (1e-10, 1e-5, 0.6):
                assert is_sio(ch, tol) == seed_is_sio(ch.kraus_ops, tol)


CHUNKED = [
    ("entropy-bounds", 12),
    ("gio-monotonicity", 12),
    ("strong-monotonicity", None),
    ("faithfulness-bounds", 9),
]


class TestCaseBatching:
    @pytest.mark.parametrize("name,per_trial", CHUNKED)
    def test_chunked_case_gives_the_unsplit_report(self, name, per_trial, monkeypatch):
        # faithfulness-bounds runs trials_per_case // 6 trials per case
        # here, the others at least 7.
        cfg = TrialConfig(dims=(2, 3, 4), trials_per_case=24, seed=11)
        whole = verify.SUITES[name](cfg)
        # Budget for three trials of the largest dimension; the strong
        # suite counts 3d + 13 matrices per trial.
        per = per_trial or 3 * 4 + 13
        monkeypatch.setattr(verify, "STACK_BYTES", 3 * 16 * 4 * 4 * per)
        sizes = []
        chunks = verify._chunks

        def recorded(trials, d, per_trial):
            ranges = list(chunks(trials, d, per_trial))
            sizes.append((d, [len(r) for r in ranges]))
            return ranges

        monkeypatch.setattr(verify, "_chunks", recorded)
        assert verify.SUITES[name](cfg) == whole
        at_four = dict(sizes)[4]
        assert at_four[0] == 3 and len(at_four) > 1

    def test_chunked_divergence_oracle_gives_the_unsplit_report(self, monkeypatch):
        # 14 trials per case; five generators, so chunks of three split
        # the trials that share a generator row.
        cfg = TrialConfig(dims=(2, 3, 4), trials_per_case=70, seed=11)
        whole = verify.suite_divergence_oracle(cfg)
        monkeypatch.setattr(verify, "STACK_BYTES", 3 * 16 * 4 * 4 * 23)
        assert [len(r) for r in verify._chunks(14, 4, 23)] == [3, 3, 3, 3, 2]
        assert verify.suite_divergence_oracle(cfg) == whole

    def test_divergence_oracle_solves_once_per_chunk(self, monkeypatch, eigh_calls):
        """Per chunk of m trials at d = 3: one stacked eigh of the 6m drawn
        states, one of the 2m channel outputs and one of the m
        superoperators, however many generators are configured."""
        monkeypatch.setattr(verify, "STACK_BYTES", 16 * 3 * 3 * 23 * 3)  # three trials at d = 3
        report = verify.suite_divergence_oracle(TrialConfig(dims=(3,), trials_per_case=35, seed=2))
        assert report.trials == 7
        expected = []
        for m in (3, 3, 1):
            expected += [(6 * m, 3, 3), (2 * m, 3, 3), (m, 9, 9)]
        assert eigh_calls == expected

    def test_strong_suite_builds_one_outcome_stack_per_chunk(self, monkeypatch):
        builds, tables = [], []
        real_outcomes, real_sums = verify._outcome_blocks, verify.spectral_sums

        def counting(chans, states):
            builds.append(len(chans))
            return real_outcomes(chans, states)

        def counting_sums(rows, gens):
            tables.append(rows.shape[1])
            return real_sums(rows, gens)

        monkeypatch.setattr(verify, "_outcome_blocks", counting)
        monkeypatch.setattr(verify, "spectral_sums", counting_sums)
        monkeypatch.setattr(verify, "STACK_BYTES", 16 * 3 * 3 * (3 * 3 + 13) * 2)  # two trials at d = 3
        report = verify.suite_strong_monotonicity(TrialConfig(dims=(3,), trials_per_case=10, seed=1))
        assert report.trials == 5
        # Parts (a), (b) and (c) of each trial in one build and one table.
        assert builds == [6, 6, 3]
        assert sum(builds) == 3 * report.trials
        assert len(tables) == len(builds)

    @pytest.mark.parametrize("name", [name for name in verify.SUITES if name != "divergence-oracle"])
    def test_chunks_score_their_stacks_with_no_state_object(self, monkeypatch, name):
        # The chunks, the heads and the SIO witness read draws, diagonal
        # states, channel outputs and outcomes as arrays: no state object
        # is built and no object route is taken.
        built = []
        real_views, real_init, real_decomposition = (
            states._views,
            DensityMatrix.__post_init__,
            states.SpectralDecomposition,
        )

        def counting_views(stack):
            built.extend([DensityMatrix] * len(stack))
            return real_views(stack)

        def counting_init(rho):
            built.append(DensityMatrix)
            real_init(rho)

        def counting_decomposition(*args):
            built.append(real_decomposition)
            return real_decomposition(*args)

        def refused(*args):
            raise AssertionError("an object route was taken")

        # _views adopts states with no constructor call; every other state
        # runs __post_init__, and every decomposition is built in states.
        for module in (states, channels):
            monkeypatch.setattr(module, "_views", counting_views)
        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_init)
        monkeypatch.setattr(states, "SpectralDecomposition", counting_decomposition)
        # verify imports neither entropy_table nor dephase; were either
        # back, it would be refused too.
        for route in ("validate_density", "coherence_table", "_views", "entropy_table", "dephase"):
            monkeypatch.setattr(verify, route, refused, raising=False)
        monkeypatch.setattr(channels, "MeasurementOutcome", refused)
        report = verify.SUITES[name](TrialConfig(dims=(1, 2, 3, 5), trials_per_case=12, seed=1))
        assert report.passed and report.trials > 0
        assert built == []

    def test_verify_has_no_object_route_to_its_tables(self):
        assert [name for name in ("_rows", "entropy_table", "dephase") if hasattr(verify, name)] == []

    def test_faithfulness_suite_makes_one_table_per_chunk(self, monkeypatch, eigh_calls):
        tables, entropies, chunks = [], [], []
        real_sums, real_entropies, real_chunks = verify.spectral_sums, verify._entropies, verify._chunks

        def counting_sums(rows, gens):
            tables.append(rows.shape[1])
            return real_sums(rows, gens)

        def counting_entropies(vals, gens):
            entropies.append(len(vals))
            return real_entropies(vals, gens)

        def counting_chunks(trials, d, per_trial):
            ranges = list(real_chunks(trials, d, per_trial))
            chunks.extend(len(r) for r in ranges)
            return ranges

        monkeypatch.setattr(verify, "spectral_sums", counting_sums)
        monkeypatch.setattr(verify, "_entropies", counting_entropies)
        monkeypatch.setattr(verify, "_chunks", counting_chunks)
        monkeypatch.setattr(verify, "STACK_BYTES", 16 * 3 * 3 * 9 * 4)  # four trials at d = 3
        report = verify.suite_faithfulness_and_bounds(TrialConfig(dims=(3,), trials_per_case=20, seed=1))
        assert report.trials == 10 and chunks == [4, 4, 2]
        # The maximally coherent state's table, then one per chunk: its
        # incoherent, coherent and pure states; and one entropy table of
        # the dephased pure states per chunk.
        assert tables == [1, 4 + 4 + 2, 4 + 4 + 1, 2 + 2 + 1]  # pure draws at t = 0, 3, 6, 9
        assert entropies == [2, 1, 1]
        # Per chunk, one stacked solve each: the table's coherent and pure
        # states (the incoherent draws and the dephased pure states are
        # read with their sorted diagonals as spectra), and the distances
        # of its incoherent and coherent draws.
        solves = [(tables[0],)] + [(n - m, 2 * m) for n, m in zip(tables[1:], chunks)]
        assert eigh_calls == [(n, 3, 3) for row in solves for n in row]

    def test_chunks_bound_the_stack(self):
        assert [list(r) for r in verify._chunks(5, 2, 1)] == [list(range(5))]
        size = verify.STACK_BYTES // (16 * 64 * 64 * 66)
        chunks = list(verify._chunks(500, 64, 66))
        assert all(len(r) <= max(1, size) for r in chunks) and sum(map(len, chunks)) == 500

    def test_gio_suite_without_decreasing_generators(self):
        cfg = TrialConfig(dims=(2, 3), trials_per_case=6, seed=3, f_list=("power:1.5",))
        report = verify.suite_gio_monotonicity(cfg)
        assert report.passed and report.trials == 12


class TestTrialConfigHardening:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dims": (2.5,)},
            {"dims": (2, True)},
            {"dims": (np.float64(3.0),)},
            {"trials_per_case": True},
            {"trials_per_case": 2.0},
        ],
        ids=["float-dim", "bool-dim", "numpy-float-dim", "bool-trials", "float-trials"],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TrialConfig(**kwargs)

    def test_rejects_non_finite_tolerance(self):
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tol_violation"):
                TrialConfig(tol_violation=tol)

    @pytest.mark.parametrize(
        "tol", ["1e-9", None, 1j, [1e-9], 10**400], ids=["string", "none", "complex", "list", "huge-int"]
    )
    def test_rejects_tolerance_that_is_not_a_real_number(self, tol):
        # The rule of the generator parameters: a real number that converts
        # to a float, so 10**400 cannot reach 10.0 * tol_violation later.
        with pytest.raises(ValueError, match="tol_violation must be positive and finite"):
            TrialConfig(tol_violation=tol)

    @pytest.mark.parametrize("tol", [Fraction(1, 10**9), 1, np.float32(1e-3)])
    def test_tolerance_is_stored_as_a_float(self, tol):
        cfg = TrialConfig(dims=(2,), trials_per_case=1, tol_violation=tol)
        assert type(cfg.tol_violation) is float and cfg.tol_violation == float(tol)
        report = verify.suite_sio_counterexample(cfg)
        assert f'"tol_violation": {dumps17(float(tol))}' in dumps17(report.to_json_dict())

    def test_accepts_numpy_integers_and_the_cap(self):
        cfg = TrialConfig(dims=(np.int64(2), verify.MAX_DIM), trials_per_case=np.int32(3))
        assert cfg.dims[1] == verify.MAX_DIM

    def test_dimension_cap_raises_before_anything_is_drawn(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} touched before the dimension cap")

        monkeypatch.setattr(verify, "np", NoNumpy())
        for dims in ((verify.MAX_DIM + 1,), (2, 10**9)):
            with pytest.raises(ValueError, match="dims must be integers"):
                TrialConfig(dims=dims)

    def test_cli_rejects_oversized_dims(self, capsys, monkeypatch):
        def no_suites(cfg):
            raise AssertionError("a suite ran")

        import fcoherence.cli as cli

        for name in list(cli.SUITES):
            monkeypatch.setitem(cli.SUITES, name, no_suites)
        for dims in (str(verify.MAX_DIM + 1), "2,1000000", "0"):
            assert main(["verify", "--dims", dims, "--trials", "1"]) == 2
            assert "dims must be integers" in capsys.readouterr().err

    def test_module_level_tensor_is_gone(self):
        assert not hasattr(fcoherence, "tensor")
        assert not hasattr(fcoherence.states, "tensor")
