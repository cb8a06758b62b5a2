import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power, logm

from fcoherence import (
    DensityMatrix,
    PureState,
    divergence_table,
    f_entropy,
    f_entropy_hat,
    f_weighted_sum,
    oracle_divergence_table,
    oracle_quasi_relative_entropy,
    quasi_relative_entropy,
    random_density,
    random_pure,
    random_unitary,
    validate_density,
)
from fcoherence.channels import depolarizing_extension, random_channel
from fcoherence.coherence import dephase, relative_entropy_coherence
from fcoherence.divergence import GROUP_TOL
from fcoherence.errors import DimensionMismatch, SingularState, UnsupportedLimit
from fcoherence.generators import GeneratorFunction, lookup, neg_log, power, tsallis
from fcoherence.states import EPS_ZERO, spectral_decompose

BUILTIN_SPECS = ["neg_log", "power:0.5", "power:1.5", "tsallis:0.5", "tsallis:1.5"]


def conditioned_pair(dim, seed):
    """Full-rank pair with smallest eigenvalue at least 0.2/dim."""
    a = random_density(dim, dim, seed).matrix
    b = random_density(dim, dim, seed + 1_000_003).matrix
    eye = np.eye(dim) / dim
    return (
        DensityMatrix(0.8 * a + 0.2 * eye),
        DensityMatrix(0.8 * b + 0.2 * eye),
    )


def closed_form(a, b, spec):
    """Trace-formula reference values via scipy matrix functions."""
    am, bm = a.matrix, b.matrix
    name, _, param = spec.partition(":")
    if name == "neg_log":
        return float(np.real(np.trace(am @ (logm(am) - logm(bm)))))
    x = float(param)
    if name == "power":
        prod = fractional_matrix_power(bm, x) @ fractional_matrix_power(am, 1.0 - x)
        return float((1.0 - np.real(np.trace(prod))) / (x * (1.0 - x)))
    prod = fractional_matrix_power(am, x) @ fractional_matrix_power(bm, 1.0 - x)
    return float((1.0 - np.real(np.trace(prod))) / (1.0 - x))


class TestSpectralAgainstClosedForm:
    @pytest.mark.parametrize("spec", BUILTIN_SPECS)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_matrix_function_route(self, spec, dim):
        f = lookup(spec)
        for trial in range(10):
            a, b = conditioned_pair(dim, 97 * dim + trial)
            got = quasi_relative_entropy(a, b, f)
            want = closed_form(a, b, spec)
            assert got == pytest.approx(want, abs=1e-9), (spec, dim, trial)

    def test_matches_superoperator_oracle(self):
        for spec in BUILTIN_SPECS:
            f = lookup(spec)
            a, b = conditioned_pair(3, 12345)
            got = quasi_relative_entropy(a, b, f)
            want = oracle_quasi_relative_entropy(a, b, f)
            assert got == pytest.approx(want, abs=1e-10), spec


class TestHandValues:
    def test_pure_against_maximally_mixed(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        sigma = DensityMatrix.maximally_mixed(2)
        got = quasi_relative_entropy(rho, sigma, neg_log())
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_swapped_diagonal_tsallis(self):
        rho = DensityMatrix.from_diagonal([0.7, 0.3])
        sigma = DensityMatrix.from_diagonal([0.3, 0.7])
        got = quasi_relative_entropy(rho, sigma, tsallis(0.5))
        assert got == pytest.approx(2.0 * (1.0 - 2.0 * math.sqrt(0.21)), abs=1e-12)

    def test_identical_states_give_zero(self):
        rho = random_density(4, 4, seed=5)
        for spec in BUILTIN_SPECS:
            assert quasi_relative_entropy(rho, rho, lookup(spec)) == pytest.approx(
                0.0, abs=1e-10
            ), spec


class TestZeroEigenvalues:
    def test_singular_second_argument_diverges(self):
        rho = DensityMatrix.maximally_mixed(2)
        sigma = DensityMatrix.from_diagonal([1.0, 0.0])
        assert quasi_relative_entropy(rho, sigma, neg_log()) == math.inf
        assert quasi_relative_entropy(rho, sigma, tsallis(1.5)) == math.inf

    def test_singular_second_argument_finite_family(self):
        # power:0.5 and tsallis:0.5 stay finite across the kernel
        rho = DensityMatrix.maximally_mixed(2)
        sigma = DensityMatrix.from_diagonal([1.0, 0.0])
        got = quasi_relative_entropy(rho, sigma, power(0.5))
        # 0.5 * f(2) + 0.5 * f(0+) with f = 4 (1 - sqrt(x))
        want = 0.5 * 4.0 * (1.0 - math.sqrt(2.0)) + 0.5 * 4.0
        assert got == pytest.approx(want, abs=1e-12)

    def test_singular_first_argument(self):
        rho = DensityMatrix.from_diagonal([1.0, 0.0])
        sigma = DensityMatrix.maximally_mixed(2)
        # weighted tail is 0 for the decreasing family, +inf for power:1.5
        assert quasi_relative_entropy(rho, sigma, power(0.5)) == pytest.approx(
            4.0 * (1.0 - math.sqrt(0.5)), abs=1e-12
        )
        assert quasi_relative_entropy(rho, sigma, power(1.5)) == math.inf

    def test_shared_kernel_ignored(self):
        rho = DensityMatrix.from_diagonal([0.6, 0.4, 0.0])
        sigma = DensityMatrix.from_diagonal([0.5, 0.5, 0.0])
        got = quasi_relative_entropy(rho, sigma, neg_log())
        want = 0.6 * math.log(0.6 / 0.5) + 0.4 * math.log(0.4 / 0.5)
        assert got == pytest.approx(want, abs=1e-12)


class TestInvariances:
    def test_joint_unitary_invariance(self):
        a, b = conditioned_pair(3, 321)
        u = random_unitary(3, seed=8)
        ua = DensityMatrix(u @ a.matrix @ u.conj().T)
        ub = DensityMatrix(u @ b.matrix @ u.conj().T)
        for spec in BUILTIN_SPECS:
            f = lookup(spec)
            assert quasi_relative_entropy(ua, ub, f) == pytest.approx(
                quasi_relative_entropy(a, b, f), abs=1e-10
            ), spec

    def test_transpose_swaps_arguments(self):
        a, b = conditioned_pair(3, 654)
        for spec in BUILTIN_SPECS:
            f = lookup(spec)
            assert quasi_relative_entropy(a, b, f) == pytest.approx(
                quasi_relative_entropy(b, a, f.transpose()), abs=1e-10
            ), spec

    def test_degenerate_spectra_stable(self):
        # exactly repeated eigenvalues leave the eigenbasis underdetermined;
        # the grouped sum must still match the basis-free closed form
        u = random_unitary(4, seed=77)
        v = random_unitary(4, seed=78)
        a = DensityMatrix((u * [0.4, 0.4, 0.1, 0.1]) @ u.conj().T)
        b = DensityMatrix((v * [0.3, 0.3, 0.3, 0.1]) @ v.conj().T)
        for spec in BUILTIN_SPECS:
            got = quasi_relative_entropy(a, b, lookup(spec))
            assert got == pytest.approx(closed_form(a, b, spec), abs=1e-9), spec

    def test_nonnegative_on_sampled_pairs(self):
        for trial in range(20):
            a, b = conditioned_pair(3, 9000 + trial)
            for spec in BUILTIN_SPECS:
                assert quasi_relative_entropy(a, b, lookup(spec)) >= -1e-12, spec


class TestDataProcessing:
    def test_channel_contracts_divergence(self):
        for trial in range(5):
            a, b = conditioned_pair(3, 4400 + trial)
            ch = random_channel(3, 3, seed=50 + trial)
            la = DensityMatrix(ch.apply_matrix(a.matrix))
            lb = DensityMatrix(ch.apply_matrix(b.matrix))
            for spec in BUILTIN_SPECS:
                f = lookup(spec)
                before = quasi_relative_entropy(a, b, f)
                after = quasi_relative_entropy(la, lb, f)
                assert after <= before + 1e-10, (spec, trial)

    def test_depolarizing_extension_contracts(self):
        a, b = conditioned_pair(2, 71)
        ext = DensityMatrix.maximally_mixed(2)
        ch = depolarizing_extension(2)
        f = neg_log()
        before = quasi_relative_entropy(a.tensor(ext), b.tensor(ext), f)
        la = DensityMatrix(ch.apply_matrix(a.tensor(ext).matrix))
        lb = DensityMatrix(ch.apply_matrix(b.tensor(ext).matrix))
        assert quasi_relative_entropy(la, lb, f) <= before + 1e-10

    def test_joint_convexity(self):
        f = tsallis(1.5)
        a1, b1 = conditioned_pair(3, 880)
        a2, b2 = conditioned_pair(3, 881)
        t = 0.3
        am = DensityMatrix(t * a1.matrix + (1 - t) * a2.matrix)
        bm = DensityMatrix(t * b1.matrix + (1 - t) * b2.matrix)
        mixed = quasi_relative_entropy(am, bm, f)
        avg = t * quasi_relative_entropy(a1, b1, f) + (1 - t) * quasi_relative_entropy(
            a2, b2, f
        )
        assert mixed <= avg + 1e-10


class TestOracle:
    def test_requires_full_rank(self):
        full = DensityMatrix.maximally_mixed(2)
        sing = DensityMatrix.from_diagonal([1.0, 0.0])
        with pytest.raises(SingularState):
            oracle_quasi_relative_entropy(sing, full, neg_log())
        with pytest.raises(SingularState):
            oracle_quasi_relative_entropy(full, sing, neg_log())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            oracle_quasi_relative_entropy(
                DensityMatrix.maximally_mixed(2),
                DensityMatrix.maximally_mixed(3),
                neg_log(),
            )
        with pytest.raises(DimensionMismatch):
            quasi_relative_entropy(
                DensityMatrix.maximally_mixed(2),
                DensityMatrix.maximally_mixed(3),
                neg_log(),
            )


class TestWeightedSum:
    def test_plain_sum(self):
        got = f_weighted_sum([0.7, 0.3], 0.5, neg_log())
        want = -0.7 * math.log(0.5 / 0.7) - 0.3 * math.log(0.5 / 0.3)
        assert got == pytest.approx(want, abs=1e-12)

    def test_zero_entries_dropped_for_zero_tail(self):
        full = f_weighted_sum([0.7, 0.3], 0.5, neg_log())
        padded = f_weighted_sum([0.7, 0.3, 0.0], 0.5, neg_log())
        assert padded == pytest.approx(full, abs=1e-15)

    def test_zero_entries_rejected_for_divergent_tail(self):
        with pytest.raises(UnsupportedLimit):
            f_weighted_sum([0.5, 0.5, 0.0], 1.0, power(1.5))


class TestEntropies:
    def test_shannon_hand_values(self):
        f = neg_log()
        rho = DensityMatrix.from_diagonal([0.7, 0.3])
        assert f_entropy_hat(rho, f) == pytest.approx(0.6108643020548935, abs=1e-12)
        assert f_entropy(rho, f) == pytest.approx(0.6108643020548935, abs=1e-12)
        rho = DensityMatrix.from_diagonal([0.75, 0.25])
        assert f_entropy_hat(rho, f) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_tsallis_hand_value(self):
        rho = DensityMatrix.from_diagonal([0.7, 0.3])
        got = f_entropy_hat(rho, tsallis(0.5))
        want = 2.0 * (math.sqrt(0.7) + math.sqrt(0.3) - 1.0)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("spec", ["neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5"])
    def test_pure_states_have_zero_entropy(self, spec):
        f = lookup(spec)
        psi = random_pure(3, seed=6).as_density()
        assert f_entropy(psi, f) == pytest.approx(0.0, abs=1e-10)
        assert f_entropy_hat(psi, f) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("spec", ["neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5"])
    def test_maximally_mixed_is_extremal(self, spec):
        f = lookup(spec)
        d = 4
        mm = DensityMatrix.maximally_mixed(d)
        assert f_entropy(mm, f) == pytest.approx(float(f(1.0 / d)), abs=1e-12)
        assert f_entropy_hat(mm, f) == pytest.approx(-float(f(d)), abs=1e-12)
        for trial in range(10):
            rho = random_density(d, d, seed=300 + trial)
            assert f_entropy(rho, f) <= f_entropy(mm, f) + 1e-10
            assert f_entropy_hat(rho, f) <= f_entropy_hat(mm, f) + 1e-10

    def test_divergent_tail_rejected_on_pure_states(self):
        psi = random_pure(3, seed=9).as_density()
        with pytest.raises(UnsupportedLimit):
            f_entropy(psi, power(1.5))
        with pytest.raises(UnsupportedLimit):
            f_entropy_hat(psi, power(1.5))


def reference_quasi_relative_entropy(a, b, f):
    """The grouped double spectral sum written as explicit Python loops,
    one eigenvalue-group pair at a time. A block against a kernel carries
    weight only where its overlap is above EPS_ZERO, not rounding."""
    from fcoherence.divergence import GROUP_TOL
    from fcoherence.states import EPS_ZERO, spectral_decompose

    def group_slices(vals):
        starts = [0]
        for i in range(1, vals.size):
            if vals[i - 1] - vals[i] > GROUP_TOL:
                starts.append(i)
        starts.append(vals.size)
        return [slice(starts[i], starts[i + 1]) for i in range(len(starts) - 1)]

    def need(limit, what):
        if limit is None or math.isnan(limit):
            raise UnsupportedLimit(f"generator {f.name} supplies no {what}")
        return limit

    sa, sb = spectral_decompose(a), spectral_decompose(b)
    overlap = np.abs(sb.eigenvectors.conj().T @ sa.eigenvectors) ** 2
    groups_a, groups_b = group_slices(sa.eigenvalues), group_slices(sb.eigenvalues)
    lam = [float(sa.eigenvalues[g].mean()) for g in groups_a]
    mu = [float(sb.eigenvalues[g].mean()) for g in groups_b]
    total, infinite = 0.0, False
    for ja, ga in enumerate(groups_a):
        for kb, gb in enumerate(groups_b):
            weight = float(overlap[gb, ga].sum())
            if weight == 0.0:
                continue
            lam_j, mu_k = lam[ja], mu[kb]
            if lam_j > EPS_ZERO and mu_k > EPS_ZERO:
                total += lam_j * float(f(mu_k / lam_j)) * weight
            elif weight <= EPS_ZERO:
                continue
            elif lam_j <= EPS_ZERO and mu_k > EPS_ZERO:
                tail = need(f.weighted_inf_limit, "weighted tail limit")
                if math.isinf(tail):
                    infinite = True
                else:
                    total += mu_k * tail * weight
            elif lam_j > EPS_ZERO and mu_k <= EPS_ZERO:
                zero = need(f.limit_at_zero, "limit at zero")
                if math.isinf(zero):
                    infinite = True
                else:
                    total += lam_j * zero * weight
    return math.inf if infinite else total


def rotated(spectrum, seed):
    u = random_unitary(len(spectrum), seed=seed)
    return DensityMatrix((u * np.asarray(spectrum, dtype=float)) @ u.conj().T)


ALL_GENERATORS = [lookup(s) for s in BUILTIN_SPECS] + [lookup(s).transpose() for s in BUILTIN_SPECS]

REFERENCE_PAIRS = {
    "full-rank": lambda: conditioned_pair(5, 31),
    "degenerate": lambda: (rotated([0.4, 0.4, 0.1, 0.1], 77), rotated([0.3, 0.3, 0.3, 0.1], 78)),
    "degenerate-diagonal": lambda: (
        DensityMatrix.from_diagonal([0.25, 0.25, 0.25, 0.25]),
        DensityMatrix.from_diagonal([0.5, 0.2, 0.2, 0.1]),
    ),
    # kernel of a inside the support of b: the weighted-tail block
    "singular-first": lambda: (rotated([0.5, 0.3, 0.2, 0.0], 5), conditioned_pair(4, 6)[1]),
    # support of a against the kernel of b: the limit-at-zero block
    "singular-second": lambda: (conditioned_pair(4, 7)[0], rotated([0.6, 0.4, 0.0, 0.0], 8)),
    "both-singular": lambda: (rotated([0.7, 0.3, 0.0], 9), rotated([0.5, 0.5, 0.0], 10)),
    "shared-kernel": lambda: (
        DensityMatrix.from_diagonal([0.6, 0.4, 0.0]),
        DensityMatrix.from_diagonal([0.5, 0.5, 0.0]),
    ),
    "pure-pair": lambda: (random_pure(3, seed=11).as_density(), random_pure(3, seed=12).as_density()),
    # a rank-deficient state against itself: only rounding meets the kernel
    "rank-deficient-self": lambda: (random_density(3, 2, 0),) * 2,
}


class TestAgainstLoopReference:
    @pytest.mark.parametrize("case", sorted(REFERENCE_PAIRS))
    @pytest.mark.parametrize("f", ALL_GENERATORS, ids=lambda f: f.name)
    def test_matches_reference(self, case, f):
        a, b = REFERENCE_PAIRS[case]()
        want = reference_quasi_relative_entropy(a, b, f)
        got = quasi_relative_entropy(a, b, f)
        if math.isinf(want):
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_cases_reach_every_tail_kind(self):
        # zero, finite nonzero and infinite values of both tail limits
        for limits in ({f.weighted_inf_limit for f in ALL_GENERATORS}, {f.limit_at_zero for f in ALL_GENERATORS}):
            assert 0.0 in limits and math.inf in limits
            assert any(0.0 < v < math.inf for v in limits)
        for case in ("singular-first", "singular-second"):
            values = [reference_quasi_relative_entropy(*REFERENCE_PAIRS[case](), f) for f in ALL_GENERATORS]
            assert any(math.isinf(v) for v in values) and any(math.isfinite(v) for v in values)


def no_limits(weighted=math.nan, zero=math.nan):
    base = neg_log()
    return GeneratorFunction(
        name="no-limits",
        fn=base.fn,
        limit_at_zero=zero,
        weighted_inf_limit=weighted,
        monotone_decreasing=True,
    )


class TestUnsupportedLimitOnlyWithWeight:
    def test_full_rank_pair_never_asks_for_limits(self):
        a, b = conditioned_pair(4, 3)
        f = no_limits()
        assert quasi_relative_entropy(a, b, f) == pytest.approx(
            quasi_relative_entropy(a, b, neg_log()), abs=1e-15
        )

    def test_shared_kernel_never_asks_for_limits(self):
        a, b = REFERENCE_PAIRS["shared-kernel"]()
        assert quasi_relative_entropy(a, b, no_limits()) == pytest.approx(
            quasi_relative_entropy(a, b, neg_log()), abs=1e-15
        )

    def test_weighted_tail_block(self):
        a, b = REFERENCE_PAIRS["singular-first"]()
        with pytest.raises(UnsupportedLimit, match="weighted tail"):
            quasi_relative_entropy(a, b, no_limits(zero=math.inf))
        # the zero-limit block carries no weight here
        assert quasi_relative_entropy(a, b, no_limits(weighted=0.0)) == pytest.approx(
            reference_quasi_relative_entropy(a, b, neg_log()), abs=1e-12
        )

    def test_zero_limit_block(self):
        a, b = REFERENCE_PAIRS["singular-second"]()
        with pytest.raises(UnsupportedLimit, match="limit at zero"):
            quasi_relative_entropy(a, b, no_limits(weighted=0.0))
        assert quasi_relative_entropy(a, b, no_limits(zero=math.inf)) == math.inf

    def test_nonzero_weighted_tail_is_added(self):
        a, b = REFERENCE_PAIRS["singular-first"]()
        f = no_limits(weighted=2.0)
        want = reference_quasi_relative_entropy(a, b, f)
        assert want != pytest.approx(reference_quasi_relative_entropy(a, b, neg_log()), abs=1e-3)
        assert quasi_relative_entropy(a, b, f) == pytest.approx(want, abs=1e-12)


def fresh(pairs):
    """The same pairs as new, unsolved states."""
    return [(DensityMatrix(a.matrix), DensityMatrix(b.matrix)) for a, b in pairs]


def bits(x):
    return np.float64(x).tobytes()


TABLE_PAIRS = {
    **REFERENCE_PAIRS,
    "maximally-mixed": lambda: (DensityMatrix.maximally_mixed(4), conditioned_pair(4, 41)[0]),
    # eigenvalues closer than GROUP_TOL fall into one group
    "near-degenerate": lambda: (
        rotated([0.4, 0.4 - 5e-13, 0.2 + 5e-13], 43),
        rotated([0.5, 0.25 + 4e-13, 0.25 - 4e-13], 44),
    ),
    "identical": lambda: (rotated([0.5, 0.3, 0.2], 45),) * 2,
}


def table_groups():
    """The TABLE_PAIRS cases grouped by dimension: {dim: (names, pairs)}."""
    groups = {}
    for name in sorted(TABLE_PAIRS):
        a, b = TABLE_PAIRS[name]()
        names, pairs = groups.setdefault(a.dim, ([], []))
        names.append(name)
        pairs.append((a, b))
    return groups


class TestDivergenceTable:
    @pytest.mark.parametrize("dim", sorted(table_groups()))
    def test_entries_equal_the_one_call_bit_for_bit(self, dim):
        names, pairs = table_groups()[dim]
        table = divergence_table(pairs, ALL_GENERATORS)
        assert table.shape == (len(pairs), len(ALL_GENERATORS))
        for name, (a, b), row in zip(names, fresh(pairs), table):
            for f, value in zip(ALL_GENERATORS, row):
                assert bits(value) == bits(quasi_relative_entropy(a, b, f)), (name, f.name)
                want = reference_quasi_relative_entropy(a, b, f)
                if math.isinf(want):
                    assert value == math.inf
                else:
                    assert value == pytest.approx(want, rel=0.0, abs=1e-12)

    def test_empty(self):
        assert divergence_table([], ALL_GENERATORS).shape == (0, len(ALL_GENERATORS))
        assert oracle_divergence_table([], ALL_GENERATORS).shape == (0, len(ALL_GENERATORS))

    @pytest.mark.parametrize("gens", [
        [neg_log(), no_limits(zero=math.inf)],
        [no_limits(weighted=0.0), neg_log()],
        [no_limits(weighted=2.0), no_limits(weighted=0.0, zero=0.0)],
        [neg_log(), no_limits()],
    ], ids=["no-tail", "no-zero", "limits", "none"])
    def test_unsupported_limit_exactly_where_the_one_call_raises(self, gens):
        cases = ["full-rank", "shared-kernel", "singular-first", "singular-second", "degenerate-diagonal"]
        pairs_by_dim = {}
        for name in cases:
            a, b = TABLE_PAIRS[name]()
            pairs_by_dim.setdefault(a.dim, []).append((a, b))
        raised = 0
        for pairs in pairs_by_dim.values():
            for subset in (pairs, pairs[::-1], pairs[:1], pairs[-1:]):
                first_error = None
                for a, b in subset:
                    for f in gens:
                        try:
                            quasi_relative_entropy(a, b, f)
                        except UnsupportedLimit as exc:
                            first_error = first_error or str(exc)
                if first_error is None:
                    table = divergence_table(subset, gens)
                    for (a, b), row in zip(subset, table):
                        assert [bits(v) for v in row] == [bits(quasi_relative_entropy(a, b, f)) for f in gens]
                else:
                    raised += 1
                    with pytest.raises(UnsupportedLimit) as info:
                        divergence_table(subset, gens)
                    assert str(info.value) == first_error
        assert raised

    def test_mixed_dimensions_rejected(self):
        a2, b2 = conditioned_pair(2, 1)
        a3, b3 = conditioned_pair(3, 2)
        for table in (divergence_table, oracle_divergence_table):
            with pytest.raises(DimensionMismatch, match="states have dimensions 2 and 3"):
                table([(a2, b2), (a2, b3)], [neg_log()])
            with pytest.raises(DimensionMismatch, match=r"need pairs of one dimension, got dimensions \[2, 3\]"):
                table([(a2, b2), (a3, b3)], [neg_log()])

    def test_pair_dimension_error_comes_first(self):
        full = DensityMatrix.maximally_mixed(2)
        sing = DensityMatrix.from_diagonal([1.0, 0.0])
        with pytest.raises(DimensionMismatch):
            oracle_divergence_table([(sing, full), (full, DensityMatrix.maximally_mixed(3))], [neg_log()])


class TestOracleTable:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 6])
    def test_entries_equal_the_one_call_bit_for_bit(self, dim):
        pairs = [conditioned_pair(dim, 50 + i) for i in range(7)]
        table = oracle_divergence_table(pairs, ALL_GENERATORS)
        for (a, b), row in zip(fresh(pairs), table):
            for f, value in zip(ALL_GENERATORS, row):
                assert bits(value) == bits(oracle_quasi_relative_entropy(a, b, f))
                assert value == pytest.approx(quasi_relative_entropy(a, b, f), abs=1e-10)

    def test_singular_state_messages(self):
        full = DensityMatrix.maximally_mixed(2)
        sing = DensityMatrix.from_diagonal([1.0, 0.0])
        message = r"^{} state has eigenvalue 0\.000e\+00, full rank required$"
        with pytest.raises(SingularState, match=message.format("first")):
            oracle_quasi_relative_entropy(sing, full, neg_log())
        with pytest.raises(SingularState, match=message.format("second")):
            oracle_quasi_relative_entropy(full, sing, neg_log())
        # The first singular state in pair order is named.
        with pytest.raises(SingularState, match=message.format("second")):
            oracle_divergence_table([(full, full), (full, sing), (sing, full)], [neg_log()])
        with pytest.raises(SingularState, match=message.format("first")):
            oracle_divergence_table([(full, full), (sing, sing)], [neg_log()])

    def test_one_superoperator_solve_for_every_generator(self, eigh_calls):
        d, n = 3, 5
        pairs = [conditioned_pair(d, 70 + i) for i in range(n)]
        validated = validate_density(np.array([m.matrix for pair in pairs for m in pair]))
        pairs = list(zip(validated[0::2], validated[1::2]))
        eigh_calls.clear()
        oracle_divergence_table(pairs, ALL_GENERATORS)
        assert eigh_calls == [(n, d * d, d * d)]
        eigh_calls.clear()
        divergence_table(pairs + [(a, a) for a, _ in pairs], ALL_GENERATORS)
        assert eigh_calls == []

    def test_unsolved_states_take_one_stacked_solve(self, eigh_calls):
        d, n = 3, 4
        pairs = [conditioned_pair(d, 80 + i) for i in range(n)]
        pairs += [(a, a) for a, _ in pairs]
        divergence_table(pairs, ALL_GENERATORS)
        oracle_divergence_table(pairs, ALL_GENERATORS)
        assert eigh_calls == [(2 * n, d, d), (2 * n, d * d, d * d)]


def test_tables_take_any_iterable_of_pairs():
    pairs = [conditioned_pair(3, 90 + i) for i in range(3)]
    for table in (divergence_table, oracle_divergence_table):
        want = table(pairs, ALL_GENERATORS)
        assert table(iter(pairs), ALL_GENERATORS).tobytes() == want.tobytes()


def zero_amplitude(seed):
    """A d = 4 Haar-random pure state with amplitude seed % 4 set to 0."""
    amps = random_pure(4, seed).amplitudes.copy()
    amps[seed % 4] = 0.0
    return PureState(amps / np.linalg.norm(amps)).as_density()


def zero_row(seed):
    """A d = 4 rank-2 random state with row and column seed % 4 set to 0."""
    m = random_density(4, 2, seed).matrix.copy()
    m[seed % 4, :] = m[:, seed % 4] = 0.0
    return DensityMatrix(m / np.trace(m).real)


class TestRoundingKernelWeight:
    """A block of one state's kernel against the other's support counts
    as weight only above EPS_ZERO, so the rounding-level overlaps of a
    state with itself, or with its dephasing, never make S_f infinite."""

    SELF = [random_density(3, 2, k) for k in range(5)] + [random_pure(3, 1).as_density()]

    @pytest.mark.parametrize("rho", SELF, ids=[f"rank2-{k}" for k in range(5)] + ["pure"])
    def test_self_divergence_is_zero(self, rho):
        for f in ALL_GENERATORS:
            assert abs(quasi_relative_entropy(rho, rho, f)) <= 1e-12, f.name
        copy = DensityMatrix(rho.matrix)
        assert np.abs(divergence_table([(rho, copy), (copy, rho)], ALL_GENERATORS)).max() <= 1e-12

    @pytest.mark.parametrize("draw", [zero_amplitude, zero_row])
    def test_divergence_to_the_dephased_state_is_the_shannon_gap(self, draw):
        for seed in range(200):
            rho = draw(seed)
            got = quasi_relative_entropy(rho, dephase(rho), neg_log())
            assert got == pytest.approx(relative_entropy_coherence(rho), rel=0.0, abs=1e-10), seed

    def test_kernel_weight_above_rounding_still_counts(self):
        # psi tilted by eps = 1e-10 towards a vector orthogonal to it: its
        # support overlaps the kernel of psi by eps, above EPS_ZERO.
        eps = 1e-10
        psi = random_pure(3, 1).amplitudes
        phi = random_pure(3, 2).amplitudes
        phi = phi - np.vdot(psi, phi) * psi
        tilted = np.sqrt(1.0 - eps) * psi + np.sqrt(eps) * phi / np.linalg.norm(phi)
        a, b = PureState(tilted).as_density(), PureState(psi).as_density()
        assert quasi_relative_entropy(a, b, neg_log()) == math.inf
        # Only the zero block adds: eps times power(0.5)'s limit at zero, 4.
        assert quasi_relative_entropy(a, b, power(0.5)) == pytest.approx(4.0 * eps, rel=1e-4)


def counted(f, calls):
    """f with each call's argument shape appended to calls."""
    return dataclasses.replace(f, fn=lambda x: calls.append(np.shape(x)) or f.fn(x))


class TestOneEvaluationPerStack:
    """The pairs whose spectra split into groups at the same places form one
    stack, and each generator is evaluated once over all its terms."""

    def test_one_signature_one_call(self):
        calls = []
        pairs = [conditioned_pair(4, 200 + i) for i in range(40)]
        table = divergence_table(pairs, [counted(neg_log(), calls)])
        assert calls == [(40 * 16,)]
        assert table.tobytes() == divergence_table(pairs, [neg_log()]).tobytes()

    def test_two_signatures_two_calls(self):
        calls = []
        pairs = [conditioned_pair(4, 300 + i) for i in range(20)]
        pairs += [(DensityMatrix.maximally_mixed(4), a) for a, _ in pairs]
        table = divergence_table(pairs[::-1], [counted(tsallis(0.5), calls)])
        assert sorted(calls) == [(20 * 4,), (20 * 16,)]
        assert table.tobytes() == divergence_table(pairs[::-1], [tsallis(0.5)]).tobytes()


BITS = Path(__file__).parent / "data" / "divergence_table_bits.jsonl"


def spread(d, weights):
    """A spectrum of d values proportional to weights (cycled to length d)."""
    w = np.resize(np.asarray(weights, dtype=float), d)
    return w / w.sum()


def bit_cases(d):
    """Seeded (name, (a, b)) cases of dimension d for the bit file:
    generic, self, degenerate, diagonal, rank-deficient and pure pairs,
    less those that carry rounding-level kernel weight."""
    seed = 1000 * d
    full = [conditioned_pair(d, seed + i)[i % 2] for i in range(3)]
    low = [random_density(d, max(1, d - 1 - i % 2), seed + 10 + i) for i in range(3)]
    pure = [random_pure(d, seed + 20 + i).as_density() for i in range(3)]
    probs = spread(d, [3, 0, 2, 1, 0, 4])
    cases = {
        "generic-0": conditioned_pair(d, seed + 30),
        "generic-1": conditioned_pair(d, seed + 31),
        "wishart": (random_density(d, d, seed + 32), random_density(d, d, seed + 33)),
        "self": (full[0], full[0]),
        "degenerate": (rotated(spread(d, [2, 2, 1]), seed + 34), rotated(spread(d, [1, 3, 3, 3]), seed + 35)),
        "degenerate-full": (rotated(spread(d, [2, 2, 1]), seed + 36), full[1]),
        "maximally-mixed": (DensityMatrix.maximally_mixed(d), full[2]),
        "mixed-reversed": (full[2], DensityMatrix.maximally_mixed(d)),
        "diagonal": (DensityMatrix.from_diagonal(probs), DensityMatrix.from_diagonal(spread(d, [1, 2, 0, 5]))),
        "diagonal-self": (DensityMatrix.from_diagonal(probs),) * 2,
        "diagonal-generic": (DensityMatrix.from_diagonal(probs), full[0]),
        "generic-diagonal": (full[1], DensityMatrix.from_diagonal(probs)),
        "low-full": (low[0], full[1]),
        "full-low": (full[2], low[1]),
        "low-low": (low[1], low[2]),
        "pure-pure": (pure[0], pure[1]),
        "pure-full": (pure[2], full[0]),
        "full-pure": (full[1], pure[0]),
        "pure-low": (pure[1], low[0]),
    }
    return [(name, pair) for name, pair in cases.items() if not rounding_kernel_weight(*pair)]


def rounding_kernel_weight(a, b):
    """Whether a block of the kernel of one state against the support of
    the other carries a block-summed overlap in (0, EPS_ZERO]: rounding
    noise, which such a block does not count as weight."""
    sa, sb = spectral_decompose(a), spectral_decompose(b)
    overlap = np.abs(sb.eigenvectors.conj().T @ sa.eigenvectors) ** 2
    ends = []
    for vals in (sb.eigenvalues, sa.eigenvalues):
        cut = np.flatnonzero(vals[:-1] - vals[1:] > GROUP_TOL) + 1
        ends.append([(lo, hi) for lo, hi in zip([0, *cut], [*cut, vals.size])])
    for kb, (lo_b, hi_b) in enumerate(ends[0]):
        for ja, (lo_a, hi_a) in enumerate(ends[1]):
            kernel_b = sb.eigenvalues[lo_b:hi_b].mean() <= EPS_ZERO
            kernel_a = sa.eigenvalues[lo_a:hi_a].mean() <= EPS_ZERO
            weight = overlap[lo_b:hi_b, lo_a:hi_a].sum()
            if kernel_a != kernel_b and 0.0 < weight <= EPS_ZERO:
                return True
    return False


def bit_records():
    """The records of the bit file: every entry of one divergence_table
    call per dimension 1..6, as float.hex, one line per pair."""
    for d in range(1, 7):
        names, pairs = zip(*bit_cases(d))
        for name, row in zip(names, divergence_table(pairs, ALL_GENERATORS)):
            yield {"dim": d, "case": name, "entries": [float(v).hex() for v in row]}


class TestBitFile:
    """The entries of divergence_table pinned bit for bit, for seeded pairs
    of every kind at d = 1..6, under every builtin generator and its
    transpose."""

    def test_every_case_is_recorded(self):
        records = [json.loads(line) for line in BITS.read_text(encoding="utf-8").splitlines()]
        assert [(r["dim"], r["case"]) for r in records] == [
            (d, name) for d in range(1, 7) for name, _ in bit_cases(d)
        ]
        assert len(records) > 90

    @pytest.mark.parametrize("d", range(1, 7))
    def test_stacked_and_one_pair_calls_reproduce_the_file(self, d):
        want = {
            r["case"]: r["entries"]
            for r in map(json.loads, BITS.read_text(encoding="utf-8").splitlines())
            if r["dim"] == d
        }
        names, pairs = zip(*bit_cases(d))
        table = divergence_table(fresh(pairs), ALL_GENERATORS)
        for name, pair, row in zip(names, fresh(pairs), table):
            assert [float(v).hex() for v in row] == want[name], name
            one = divergence_table([pair], ALL_GENERATORS)[0]
            assert [float(v).hex() for v in one] == want[name], name


if __name__ == "__main__":
    lines = [json.dumps(record) for record in bit_records()]
    BITS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {BITS}", file=sys.stderr)
