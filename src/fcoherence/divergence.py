"""Quasi-relative entropies and the entropies derived from them.

The working formula is the double spectral sum

    S_f(A || B) = sum_{j,k} a_j f(b_k / a_j) |<v_k|u_j>|^2

over eigenpairs (a_j, u_j) of A and (b_k, v_k) of B. Zero eigenvalues are
resolved through the generator's closed-form tail limits; a zero
eigenvalue of B seen by a nonzero eigenvector of A can push the value to
+inf, which is returned as ``math.inf``. Such a kernel block counts only
where its overlap weight exceeds EPS_ZERO, so rounding-level overlaps
(a state against itself or its dephasing) add nothing.

``divergence_table`` is the kernel of every divergence value. It stacks
the (A, B) pairs whose spectra split into groups at the same places (a
group signature) and gives each stack one overlap product, one set of
block sums and support masks and one call of each generator.
``quasi_relative_entropy`` is its one-pair, one-generator entry.

Every masked sum, here and in ``_weighted_sums``, follows one rule, that
of ``_row_sums``: each row is summed over its own terms in order, the
rows of one count as one block, so a row of a stack has the bits it has
alone.

``f_weighted_sum`` is the kernel of every entropy and coherence value:
it works on a (..., d) stack of spectra or diagonals, so one generator
call serves many states, and ``spectral_sums`` runs it for a list of
generators with both numerators 1/d and 1, d the length of its rows. Both, and the single-state
entropies, make one call of the private ``_weighted_sums`` that does
the work; an entropy reads its state's cached spectrum without a copy.

``oracle_divergence_table`` evaluates the same quantity through an
independent route, building the dim^2 x dim^2 matrix of the modular-type
superoperator X -> B X A^{-1} and applying f to its spectrum, and exists
so the two paths can be checked against each other. The superoperators
of all pairs are solved in one stacked eigh that serves every generator;
``oracle_quasi_relative_entropy`` is its one-pair, one-generator entry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, ParamOutOfRange, SingularState, UnsupportedLimit
from .generators import GeneratorFunction
from .states import EPS_ZERO, DensityMatrix, SpectralDecomposition, _as_array, _decomposed, _eigh, spectra

__all__ = [
    "GROUP_TOL",
    "quasi_relative_entropy",
    "oracle_quasi_relative_entropy",
    "divergence_table",
    "oracle_divergence_table",
    "f_weighted_sum",
    "spectral_sums",
    "f_entropy",
    "f_entropy_hat",
    "entropy_table",
]

# Eigenvalues closer than this are merged into one spectral group so the
# result cannot depend on the eigensolver's basis choice inside a
# degenerate eigenspace.
GROUP_TOL = 1e-12


def quasi_relative_entropy(a: DensityMatrix, b: DensityMatrix, f: GeneratorFunction) -> float:
    """S_f(a || b) from the spectral data of both states.

    Returns ``math.inf`` when the support configuration forces it (for
    example the kernel of b overlapping the support of a when f diverges
    at zero). A block of the kernel of one state against the support of
    the other carries weight only where its block-summed overlap exceeds
    EPS_ZERO, so rounding-level overlaps, such as those of a state with
    itself, contribute nothing. The one-pair, one-generator entry of
    divergence_table.
    """
    return float(divergence_table([(a, b)], [f])[0, 0])


def divergence_table(pairs, gens) -> np.ndarray:
    """S_f(a || b) of every (a, b) pair under every generator.

    The states of all pairs share one dimension. Returns shape
    (len(pairs), len(gens)), entries ``math.inf`` where the support
    configuration forces it. The states without a decomposition are
    solved in one stacked eigh. The pairs whose two spectra split into
    GROUP_TOL groups at the same places form one stack, which gets one
    stacked overlap product, block sums and support masks, and one
    evaluation of each generator over all its terms; every masked sum
    is one row sum of _row_sums, so each entry is bit for bit the value
    the pair and generator give alone. Raises UnsupportedLimit for the
    first pair, then the first generator, whose weighted block needs a
    limit it does not supply, the tail block before the zero block.
    """
    pairs = list(pairs)
    decs = _pair_decompositions(pairs)
    out = np.empty((len(decs), len(gens)))
    if not (decs and gens):
        return out
    n, d = len(decs), pairs[0][0].dim
    # Each pair's spectra of a and b as one row of 2d values. Its flags
    # mark the start of each group and the row's end (columns 0, d and 2d
    # always): the pair's group signature.
    vals = np.array([(sa.eigenvalues, sb.eigenvalues) for sa, sb in decs]).reshape(n, 2 * d)
    flags = np.empty((n, 2 * d + 1), dtype=bool)
    np.greater(vals[:, :-1] - vals[:, 1:], GROUP_TOL, out=flags[:, 1:-1])
    flags[:, ::d] = True
    # The pairs of each signature form one stack; a lone pair is one
    # stack without the sort of np.unique.
    signatures = np.unique(flags.view(f"V{2 * d + 1}")[:, 0], return_inverse=True)[1] if n > 1 else np.zeros(1, int)
    faults = []
    for rows in [(signatures == s).nonzero()[0] for s in range(signatures.max() + 1)] if n > 1 else [signatures]:
        edges = flags[rows[0]].nonzero()[0]
        starts, na = edges[:-1], edges.searchsorted(d)
        # Group means of a and of b, and views of them along the other's groups.
        means = np.add.reduceat(vals[rows], starts, axis=1) / (edges[1:] - starts)
        lam, mu = means[:, None, :na], means[:, na:, None]
        # A stack of one pair takes its eigenvectors uncopied.
        vecs = [[decs[p][i].eigenvectors for p in rows.tolist()] for i in (0, 1)]
        va, vb = (v[0][None] if len(v) == 1 else np.array(v) for v in vecs)
        # Block-summed overlap weight |<v_k|u_j>|^2 per (pair, group of b, group of a).
        w = np.abs(vb.conj().swapaxes(1, 2) @ va) ** 2
        w = np.add.reduceat(np.add.reduceat(w, starts[na:] - d, axis=1), starts[:na], axis=2)
        lam_pos, mu_pos = lam > EPS_ZERO, mu > EPS_ZERO
        both = mu_pos & lam_pos & (w != 0.0)
        # Each block's terms in C order, gathered by repeating the means.
        lam_ja, w_both = lam.repeat(w.shape[1], axis=1)[both], w[both]
        ratio = mu.repeat(na, axis=2)[both] / lam_ja
        mask = both.reshape(len(rows), -1)
        total = np.array([_row_sums(lam_ja * f(ratio) * w_both, mask) for f in gens]).T
        if not (lam_pos.all() and mu_pos.all()):
            # The kernel of a against the support of b (the tail block),
            # then the support of a against the kernel of b (the zero
            # block), where the overlap is more than rounding; both groups
            # in the kernel add nothing. A tail of exactly 0.0 adds nothing,
            # while the zero block adds its sum whatever its limit. A
            # missing limit reads as NaN and is a fault where its block
            # carries weight; the smallest (pair, generator, block) is raised.
            tails, zeros = np.array([(f.weighted_inf_limit, f.limit_at_zero) for f in gens], dtype=float).T
            heavy = w > EPS_ZERO
            blocks = (mu_pos & ~lam_pos & heavy, mu, tails, tails != 0.0), (~mu_pos & lam_pos & heavy, lam, zeros, True)
            for kind, (block, side, limit, adds) in enumerate(blocks):
                has = block.any(axis=(1, 2))[:, None]
                faults.extend((rows[i], g, kind) for i, g in np.argwhere(has & np.isnan(limit)))
                adds &= np.isfinite(limit)
                terms = np.broadcast_to(side, w.shape)[block] * np.where(adds, limit, 0.0)[:, None] * w[block]
                np.add(total, _row_sums(terms, block.reshape(len(rows), -1)).T, out=total, where=has & adds)
                total[has & np.isinf(limit)] = math.inf
        out[rows] = total
    if faults:
        _, g, kind = min(faults)
        raise UnsupportedLimit(f"generator {gens[g].name} supplies no {('weighted tail limit', 'limit at zero')[kind]}")
    return out


def _row_sums(terms: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row sums of the masked terms of each row of a boolean (rows, k)
    mask: the last axis of terms holds the terms of the True entries in
    C order, and the result has shape terms.shape[:-1] + (rows,).

    Each row is summed over its own terms in order, as np.sum sums them
    alone (a row of none sums to 0.0). numpy sums fewer than 8 terms one
    by one from 0.0, so a row of fewer than 8 entries is summed whole with
    -0.0, which adds nothing to any value, in place of each masked term;
    past that, padding would let numpy's pairwise summation regroup the
    row, and the rows of one count m are summed as one C-ordered (rows, m)
    block, one take. A mask all True sums a view of terms.
    """
    if mask.all():
        return np.add.reduce(terms.reshape(terms.shape[:-1] + mask.shape), axis=-1)
    if mask.shape[1] < 8:
        rows = np.full(terms.shape[:-1] + mask.shape, -0.0)
        rows[..., mask] = terms
        return np.add.reduce(rows, axis=-1)
    counts = mask.sum(axis=1)
    sums = np.zeros(terms.shape[:-1] + counts.shape)
    begins = counts.cumsum() - counts
    for m in set(counts.tolist()) - {0}:
        rows = (counts == m).nonzero()[0]
        sums[..., rows] = np.add.reduce(np.take(terms, begins[rows, None] + np.arange(m), axis=-1), axis=-1)
    return sums


def _pair_decompositions(pairs: list) -> list[tuple[SpectralDecomposition, SpectralDecomposition]]:
    """The decompositions of each (a, b) pair of states of one dimension,
    the unsolved ones from one stacked eigh."""
    for a, b in pairs:
        if a.dim != b.dim:
            raise DimensionMismatch(f"states have dimensions {a.dim} and {b.dim}")
    dims = {a.dim for a, _ in pairs}
    if len(dims) > 1:
        raise DimensionMismatch(f"need pairs of one dimension, got dimensions {sorted(dims)}")
    decs = iter(_decomposed([s for pair in pairs for s in pair]))
    return list(zip(decs, decs))


def oracle_quasi_relative_entropy(a: DensityMatrix, b: DensityMatrix, f: GeneratorFunction) -> float:
    """S_f(a || b) through the dim^2 superoperator route.

    Requires both states full rank. Builds the matrix of X -> b X a^{-1}
    in the column-stacked basis, applies f by eigendecomposition and
    takes the trace against a. Intended for small dimensions. The
    one-pair, one-generator entry of oracle_divergence_table.
    """
    return float(oracle_divergence_table([(a, b)], [f])[0, 0])


def oracle_divergence_table(pairs, gens) -> np.ndarray:
    """oracle_quasi_relative_entropy of every (a, b) pair under every
    generator, shape (len(pairs), len(gens)).

    The states of all pairs share one dimension and are full rank
    (SingularState names the first state, in pair order, that is not).
    One stacked inverse and one stacked eigh of the (n, d^2, d^2)
    superoperators serve every generator, and each entry is bit for bit
    the value the pair and generator give alone.
    """
    pairs = list(pairs)
    decs = _pair_decompositions(pairs)
    for pair in decs:
        for name, dec in zip(("first", "second"), pair):
            lowest = dec.eigenvalues[-1]
            if lowest <= EPS_ZERO:
                raise SingularState(f"{name} state has eigenvalue {lowest:.3e}, full rank required")
    out = np.empty((len(decs), len(gens)))
    if not decs:
        return out
    am = np.array([a.matrix for a, _ in pairs])
    bm = np.array([b.matrix for _, b in pairs])
    n, d = am.shape[:2]
    a_inv_t = np.linalg.inv(am).swapaxes(-1, -2)
    # Column-stacked vec: X -> B X A^{-1} has matrix (A^{-1})^T kron B.
    sup = (a_inv_t[:, :, None, :, None] * bm[:, None, :, None, :]).reshape(n, d * d, d * d)
    sup = (sup + sup.conj().swapaxes(-1, -2)) / 2.0
    vals, vecs = _eigh(sup)
    vecs_h = vecs.conj().swapaxes(-1, -2)
    a_vec = am.swapaxes(-1, -2).reshape(n, d * d, 1)
    for g, f in enumerate(gens):
        image = ((vecs * f(np.maximum(vals, 1e-300))[:, None, :]) @ vecs_h) @ a_vec
        # Trace of each un-stacked image: the diagonal sits at stride d + 1.
        out[:, g] = np.real(image[:, :: d + 1, 0].sum(axis=1))
    return out


def f_weighted_sum(values, numerator, f: GeneratorFunction):
    """sum_j v_j f(numerator / v_j) along the last axis of a (..., d) stack.

    ``numerator`` broadcasts against the leading shape values.shape[:-1].
    A vector with a scalar numerator gives a float, any other input an
    array of the broadcast shape. Entries at or below EPS_ZERO contribute
    their limiting value, which is 0 exactly when the generator's
    weighted tail limit is 0; any other tail raises UnsupportedLimit
    since no finite convention applies. A NaN entry makes its row's sum
    NaN, and a +inf entry contributes its limit, +inf times f(0+). Each
    row is summed over its positive entries alone and in order, so a row
    of a stack gives the same bits as the row passed on its own. Raises
    ParamOutOfRange for a numerator entry that is not positive and finite,
    or whose ratio to a finite entry above EPS_ZERO overflows.
    """
    v, c = _as_array(values, float, "values"), _as_array(numerator, float, "numerator")
    # A float numerator, the single-state measures' case, is read as it is.
    if not (0.0 < numerator < math.inf if type(numerator) is float else all(0.0 < x < math.inf for x in c.flat)):
        raise ParamOutOfRange(f"numerator must be positive and finite, got {numerator!r}")
    # Over an entry above EPS_ZERO, only a numerator above 1e296 can overflow.
    if (numerator if type(numerator) is float else c.max(initial=0.0)) > 1e296:
        with np.errstate(all="ignore"):
            if (np.isinf(c[..., None] / v) & (EPS_ZERO < v) & (v < math.inf)).any():
                raise ParamOutOfRange(f"numerator {numerator!r} over an entry of values overflows")
    (sums,) = _weighted_sums(v, c, [f])
    return float(sums) if sums.ndim == 0 else sums


def spectral_sums(rows, gens) -> np.ndarray:
    """f_weighted_sum of a (..., d) stack for each generator and numerator.

    Returns shape (..., len(gens), 2): numerator 1/d in [..., 0] (the
    plain variant) and 1 in [..., 1] (the hat variant).
    """
    rows = _as_array(rows, float, "rows", ndims=range(1, 65))
    c = np.array([1.0 / rows.shape[-1], 1.0]).reshape((2,) + (1,) * (rows.ndim - 1))
    sums = np.reshape(_weighted_sums(rows, c, gens), (len(gens), 2) + rows.shape[:-1])
    return sums.transpose(tuple(range(2, rows.ndim + 1)) + (0, 1))


def _weighted_sums(v: np.ndarray, c: np.ndarray, gens):
    """f_weighted_sum of the stack v with positive, finite numerator c,
    once per generator, one entry of a list or array per generator; the
    masking is shared by all generators. A NaN
    entry counts as positive (np.fmin skips it in the test for zero
    entries), so it reaches the sum. Each ratio c / v is raised to the
    smallest subnormal, which leaves every positive ratio as it is and
    evaluates f at 0+, with no warning, where v is +inf."""
    if not np.fmin.reduce(v, axis=None, initial=np.inf) <= EPS_ZERO:
        x = np.maximum(c[..., None] / v, 5e-324)
        return [np.add.reduce(v * f(x), axis=-1) for f in gens]
    for f, tail in zip(gens, np.array([f.weighted_inf_limit for f in gens], dtype=float)):
        if tail != 0.0:
            nonzero = "has nonzero weighted tail limit, cannot evaluate on a vector with zero entries"
            fault = "supplies no weighted tail limit" if math.isnan(tail) else nonzero
            raise UnsupportedLimit(f"generator {f.name} {fault}")
    shape = np.broadcast(v, c[..., None]).shape
    # v is broadcast only where it repeats along an axis of c, or is a scalar.
    v = v if shape[-v.ndim :] == v.shape else np.broadcast_to(v, shape)
    # The kept entries of v, and their ratios, one row of them per
    # numerator along the leading axes c adds to v, if any.
    pos = ~(v <= EPS_ZERO)
    vp = v[pos]
    x = np.maximum((c[..., None] + np.zeros(v.shape))[..., pos] / vp, 5e-324)
    terms = np.array([vp * f(x) for f in gens]).reshape((len(gens),) + x.shape)
    return _row_sums(terms, pos.reshape(-1, v.shape[-1])).reshape((len(gens),) + shape[:-1])


def f_entropy(rho: DensityMatrix, f: GeneratorFunction) -> float:
    """Entropy f(1/d) - sum_j p_j f(1 / (d p_j)) over the spectrum of rho.

    Zero on pure states, maximal (= f(1/d)) on the maximally mixed state
    for operator monotone decreasing generators.
    """
    d = rho.dim
    (sums,) = _weighted_sums(_decomposed((rho,))[0].eigenvalues, np.float64(1.0 / d), [f])
    return float(f(1.0 / d)) - float(sums)


def f_entropy_hat(rho: DensityMatrix, f: GeneratorFunction) -> float:
    """Entropy -sum_j p_j f(1 / p_j) over the spectrum of rho.

    Zero on pure states, maximal (= -f(d)) on the maximally mixed state
    for operator monotone decreasing generators.
    """
    (sums,) = _weighted_sums(_decomposed((rho,))[0].eigenvalues, np.float64(1.0), [f])
    return -float(sums)


def entropy_table(states, gens) -> np.ndarray:
    """f_entropy and f_entropy_hat of every state under every generator.

    The states share one dimension. Returns shape (len(states),
    len(gens), 2) with the f_entropy value in [..., 0] and the
    f_entropy_hat value in [..., 1], equal bit for bit to the
    single-state functions.
    """
    if not len(states):
        return np.zeros((0, len(gens), 2))
    return _entropies(spectra(states), gens)


def _entropies(vals: np.ndarray, gens) -> np.ndarray:
    """The entropy table of an (n, d) stack of spectra, n >= 1, as
    entropy_table gives it for states with these spectra."""
    sums = spectral_sums(vals, gens)
    top = np.array([float(f(1.0 / vals.shape[-1])) for f in gens])
    return np.stack((top - sums[..., 0], -sums[..., 1]), axis=-1)
