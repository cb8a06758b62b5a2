"""The batched spectral kernel against the one-vector formula.

``f_weighted_sum`` on a (..., d) stack, ``coherence_table`` and
``entropy_table`` must give exactly the bits of the one-vector
evaluation, and raise UnsupportedLimit exactly where it raises.
"""

import math

import numpy as np
import pytest

from fcoherence import (
    DensityMatrix,
    TrialConfig,
    coherence_f,
    coherence_f_hat,
    ensemble_coherence,
    f_entropy,
    f_entropy_hat,
    f_weighted_sum,
    random_density,
    random_gio,
    random_pure,
)
from fcoherence.channels import KrausChannel
from fcoherence.coherence import coherence_table
from fcoherence.divergence import entropy_table
from fcoherence.errors import DimensionMismatch, UnsupportedLimit
from fcoherence.generators import lookup, transpose
from fcoherence.states import EPS_ZERO, spectra
from fcoherence.verify import suite_strong_monotonicity

SPECS = ["neg_log", "power:0.5", "power:1.5", "power:-0.5", "tsallis:0.5", "tsallis:1.5"]
GENERATORS = [lookup(s) for s in SPECS] + [transpose(lookup(s)) for s in SPECS]
ZERO_TAIL = [f for f in GENERATORS if f.weighted_inf_limit == 0.0]
DIMS = range(1, 17)


def reference_f_weighted_sum(values, numerator, f):
    """The one-vector formula: mask, compress, evaluate, sum."""
    v = np.asarray(values, dtype=float)
    pos = v > EPS_ZERO
    if not np.all(pos):
        tail = f.weighted_inf_limit
        if tail is None or math.isnan(tail) or tail != 0.0:
            raise UnsupportedLimit(f.name)
    vp = v[pos]
    if vp.size == 0:
        return 0.0
    return float(np.sum(vp * f(numerator / vp)))


def outcome(fn, *args):
    """The value's bytes, or the marker that UnsupportedLimit was raised."""
    try:
        return np.float64(fn(*args)).tobytes()
    except UnsupportedLimit:
        return "unsupported"


def diagonal_state(d, seed, zero_at):
    p = np.zeros(d)
    keep = np.setdiff1d(np.arange(d), zero_at)
    p[keep] = np.random.default_rng(seed).dirichlet(np.ones(keep.size))
    return DensityMatrix.from_diagonal(p)


def states_of_dim(d):
    """Full-rank, rank-deficient, pure, maximally mixed and diagonal states
    with interleaved and trailing zeros, plus rho (x) |0><0| at square d."""
    out = [
        random_density(d, d, seed=d),
        random_density(d, max(1, d // 2), seed=100 + d),
        random_pure(d, seed=200 + d).as_density(),
        DensityMatrix.maximally_mixed(d),
    ]
    if d >= 2:
        out.append(diagonal_state(d, 300 + d, np.arange(0, d, 2)))
        out.append(diagonal_state(d, 400 + d, np.arange((d + 1) // 2, d)))
    root = math.isqrt(d)
    if root >= 2 and root * root == d:
        ground = DensityMatrix.from_diagonal([1.0] + [0.0] * (root - 1))
        out.append(random_density(root, root, seed=500 + d).tensor(ground))
        out.append(random_pure(root, seed=600 + d).as_density().tensor(ground))
    return out


def rows_of_dim(d):
    return [row for rho in states_of_dim(d) for row in (rho.eigenvalues(), rho.diagonal_probabilities())]


def numerators(d):
    return [1.0 / d, 1.0, float(d), 1.0 / (d * d)]


class TestWeightedSumKernel:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("f", GENERATORS, ids=lambda f: f.name)
    def test_vector_matches_reference(self, d, f):
        for row in rows_of_dim(d):
            for c in numerators(d):
                got = outcome(f_weighted_sum, row, c, f)
                assert got == outcome(reference_f_weighted_sum, row, c, f)
                if got != "unsupported":
                    assert type(f_weighted_sum(row, c, f)) is float

    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("f", GENERATORS, ids=lambda f: f.name)
    def test_stack_matches_rows(self, d, f):
        rows = np.array(rows_of_dim(d))
        c = np.array(numerators(d))[:, None]
        expected = [[outcome(reference_f_weighted_sum, row, ci, f) for row in rows] for ci in c[:, 0]]
        if any("unsupported" in line for line in expected):
            with pytest.raises(UnsupportedLimit):
                f_weighted_sum(rows, c, f)
            positive = rows[(rows > EPS_ZERO).all(axis=1)]
            expected = [[outcome(reference_f_weighted_sum, row, ci, f) for row in positive] for ci in c[:, 0]]
            rows = positive
        got = f_weighted_sum(rows, c, f)
        assert got.shape == (c.shape[0], rows.shape[0])
        assert [[x.tobytes() for x in line] for line in got] == expected

    def test_leading_axes_broadcast(self):
        f = lookup("tsallis:1.5")
        rows = np.array(rows_of_dim(9)).reshape(2, -1, 9)
        c = np.array([1.0 / 9, 1.0, 9.0]).reshape(3, 1, 1)
        got = f_weighted_sum(rows, c, f)
        assert got.shape == (3,) + rows.shape[:-1]
        for k, ck in enumerate(c.ravel()):
            for idx in np.ndindex(rows.shape[:-1]):
                assert got[(k,) + idx] == reference_f_weighted_sum(rows[idx], ck, f)

    def test_rows_of_nine_or_more_positive_entries_sum_alone(self):
        # Padding zeros would regroup numpy's pairwise sum at these lengths.
        f = lookup("neg_log")
        rng = np.random.default_rng(7)
        rows = rng.dirichlet(np.ones(12), size=400)
        rows[rng.random(rows.shape) < 0.3] = 0.0
        got = f_weighted_sum(rows, 1.0 / 12, f)
        assert [x.tobytes() for x in got] == [
            np.float64(reference_f_weighted_sum(row, 1.0 / 12, f)).tobytes() for row in rows
        ]

    def test_empty_and_all_zero_rows(self):
        f = lookup("neg_log")
        assert f_weighted_sum([], 0.5, f) == 0.0
        got = f_weighted_sum(np.array([[0.0, 0.0], [0.5, 0.5]]), 0.5, f)
        assert got[0] == 0.0 and got[1] == reference_f_weighted_sum([0.5, 0.5], 0.5, f)


def reference_coherence_pair(rho, f):
    evals, diag = rho.eigenvalues(), rho.diagonal_probabilities()
    pair = []
    for c in (1.0 / rho.dim, 1.0):
        pair.append(reference_f_weighted_sum(evals, c, f) - reference_f_weighted_sum(diag, c, f))
    return pair


def reference_entropy_pair(rho, f):
    d, evals = rho.dim, rho.eigenvalues()
    return [
        float(f(1.0 / d)) - reference_f_weighted_sum(evals, 1.0 / d, f),
        -reference_f_weighted_sum(evals, 1.0, f),
    ]


class TestTables:
    @pytest.mark.parametrize("d", DIMS)
    def test_coherence_table_matches_single_state(self, d):
        states = states_of_dim(d)
        table = coherence_table(states, ZERO_TAIL)
        assert table.shape == (len(states), len(ZERO_TAIL), 2)
        for rho, row in zip(states, table):
            for f, (plain, hat) in zip(ZERO_TAIL, row):
                assert [plain, hat] == reference_coherence_pair(rho, f)
                assert plain == coherence_f(rho, f).value
                assert hat == coherence_f_hat(rho, f).value

    @pytest.mark.parametrize("d", DIMS)
    def test_entropy_table_matches_single_state(self, d):
        states = states_of_dim(d)
        table = entropy_table(states, ZERO_TAIL)
        for rho, row in zip(states, table):
            for f, (ent, ent_hat) in zip(ZERO_TAIL, row):
                assert [ent, ent_hat] == reference_entropy_pair(rho, f)
                assert ent == f_entropy(rho, f)
                assert ent_hat == f_entropy_hat(rho, f)

    @pytest.mark.parametrize("f", [f for f in GENERATORS if f.weighted_inf_limit != 0.0], ids=lambda f: f.name)
    def test_nonzero_tail_raises_where_single_state_raises(self, f):
        full = random_density(4, 4, seed=1)
        pure = random_pure(4, seed=2).as_density()
        assert coherence_table([full], [f])[0, 0, 0] == coherence_f(full, f).value
        assert entropy_table([full], [f])[0, 0, 1] == f_entropy_hat(full, f)
        for fn in (coherence_f, coherence_f_hat, f_entropy, f_entropy_hat):
            with pytest.raises(UnsupportedLimit):
                fn(pure, f)
        for table in (coherence_table, entropy_table):
            with pytest.raises(UnsupportedLimit):
                table([full, pure], [lookup("neg_log"), f])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            coherence_table([random_density(2, 2, 1), random_density(3, 3, 1)], ZERO_TAIL)
        with pytest.raises(DimensionMismatch):
            entropy_table([], ZERO_TAIL)

    def test_spectra_solve_once_and_fill_the_cache(self, monkeypatch):
        states = states_of_dim(5)
        solo = [np.linalg.eigvalsh(s.matrix)[::-1] for s in states]
        calls = []
        real = np.linalg.eigvalsh

        def counting(m):
            calls.append(np.shape(m))
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        first = spectra(states)
        again = spectra(states)
        assert calls == [(len(states), 5, 5)]
        for rho, row, ref in zip(states, first, solo):
            assert row.tobytes() == ref.tobytes() == rho.eigenvalues().tobytes()
        assert again.tobytes() == first.tobytes()
        assert len(calls) == 1


class TestEnsembles:
    def test_ensemble_matches_outcome_sum(self):
        rho = random_density(4, 3, seed=3)
        ch = random_gio(4, 3, seed=4)
        for f in ZERO_TAIL:
            for fun, column in ((coherence_f, 0), (coherence_f_hat, 1)):
                expected = sum(
                    o.probability * reference_coherence_pair(o.state, f)[column]
                    for o in ch.selective_outcomes(rho)
                )
                assert ensemble_coherence(ch, rho, f, fun) == expected

    def test_ensemble_rejects_other_functions(self):
        with pytest.raises(ValueError):
            ensemble_coherence(random_gio(2, 2, seed=1), random_density(2, 2, 1), lookup("neg_log"), f_entropy)

    def test_strong_suite_builds_each_ensemble_once(self, monkeypatch):
        calls = []
        real = KrausChannel.selective_outcomes

        def counting(self, rho):
            calls.append(1)
            return real(self, rho)

        monkeypatch.setattr(KrausChannel, "selective_outcomes", counting)
        report = suite_strong_monotonicity(TrialConfig(dims=(2, 3), trials_per_case=8, seed=1))
        assert report.trials == 8
        assert len(calls) == 3 * report.trials
