"""Quasi-relative entropies and the entropies derived from them.

The working formula is the double spectral sum

    S_f(A || B) = sum_{j,k} a_j f(b_k / a_j) |<v_k|u_j>|^2

over eigenpairs (a_j, u_j) of A and (b_k, v_k) of B. Zero eigenvalues are
resolved through the generator's closed-form tail limits; a zero
eigenvalue of B seen by a nonzero eigenvector of A can push the value to
+inf, which is returned as ``math.inf``.

``divergence_table`` is the kernel of every divergence value: for a list
of (A, B) pairs it builds each pair's eigenvector overlap, spectral
grouping and support masks once and evaluates every generator on them.
``quasi_relative_entropy`` is its one-pair, one-generator entry.

``f_weighted_sum`` is the kernel of every entropy and coherence value:
it works on a (..., d) stack of spectra or diagonals, so one generator
call serves many states, and ``spectral_sums`` runs it for a list of
generators with both numerators 1/d and 1.

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

from .errors import DimensionMismatch, SingularState, UnsupportedLimit
from .generators import GeneratorFunction
from .states import EPS_ZERO, DensityMatrix, SpectralDecomposition, _decomposed, spectra

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


def _grouped(vals_desc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and mean eigenvalue of each spectral group."""
    starts = np.concatenate(([0], np.flatnonzero(vals_desc[:-1] - vals_desc[1:] > GROUP_TOL) + 1))
    sizes = np.diff(starts, append=vals_desc.size)
    return starts, np.add.reduceat(vals_desc, starts) / sizes


def _carried(rows: np.ndarray, cols: np.ndarray, carried: np.ndarray):
    """Row and column indices of the carried entries of the rows x cols
    block, or None when it has none."""
    if not (rows.any() and cols.any()):
        return None
    index = np.nonzero(rows[:, None] & cols[None, :] & carried)
    return index if index[0].size else None


def _need_limit(f: GeneratorFunction, attr: str, what: str) -> float:
    limit = getattr(f, attr)
    if limit is None or math.isnan(limit):
        raise UnsupportedLimit(f"generator {f.name} supplies no {what}")
    return limit


def quasi_relative_entropy(a: DensityMatrix, b: DensityMatrix, f: GeneratorFunction) -> float:
    """S_f(a || b) from the spectral data of both states.

    Returns ``math.inf`` when the support configuration forces it (for
    example the kernel of b overlapping the support of a when f diverges
    at zero). The one-pair, one-generator entry of divergence_table.
    """
    return float(divergence_table([(a, b)], [f])[0, 0])


def divergence_table(pairs, gens) -> np.ndarray:
    """S_f(a || b) of every (a, b) pair under every generator.

    The states of all pairs share one dimension. Returns shape
    (len(pairs), len(gens)), entries ``math.inf`` where the support
    configuration forces it. The states without a decomposition are
    solved in one stacked eigh; each pair's overlap, spectral grouping
    and support masks are built once and serve every generator, so each
    entry is bit for bit the value the pair and generator give alone.
    Raises UnsupportedLimit for the first pair, then the first
    generator, whose nonzero block needs a limit it does not supply.
    """
    pairs = list(pairs)
    decs = _pair_decompositions(pairs)
    out = np.empty((len(decs), len(gens)))
    for row, (sa, sb) in zip(out, decs):
        # overlap[k, j] = |<v_k|u_j>|^2
        w = np.abs(sb.eigenvectors.conj().T @ sa.eigenvectors) ** 2
        starts_a, lam = _grouped(sa.eigenvalues)
        starts_b, mu = _grouped(sb.eigenvalues)
        # Block-summed overlap weight per (group of b, group of a).
        w = np.add.reduceat(np.add.reduceat(w, starts_b, axis=0), starts_a, axis=1)
        lam_pos = lam > EPS_ZERO
        mu_pos = mu > EPS_ZERO
        carried = w != 0.0

        kb, ja = np.nonzero(mu_pos[:, None] & lam_pos[None, :] & carried)
        lam_ja, ratio, w_both = lam[ja], mu[kb] / lam[ja], w[kb, ja]
        # Kernel of a against the support of b.
        tail_block = _carried(mu_pos, ~lam_pos, carried)
        # Support of a against the kernel of b.
        zero_block = _carried(~mu_pos, lam_pos, carried)
        # Both groups in the kernel: no contribution.
        for g, f in enumerate(gens):
            total = float(np.sum(lam_ja * f(ratio) * w_both))
            infinite = False
            if tail_block is not None:
                tail = _need_limit(f, "weighted_inf_limit", "weighted tail limit")
                if math.isinf(tail):
                    infinite = True
                elif tail != 0.0:
                    total += float(np.sum(mu[tail_block[0]] * tail * w[tail_block]))
            if zero_block is not None:
                zero = _need_limit(f, "limit_at_zero", "limit at zero")
                if math.isinf(zero):
                    infinite = True
                else:
                    total += float(np.sum(lam[zero_block[1]] * zero * w[zero_block]))
            row[g] = math.inf if infinite else total
    return out


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
    vals, vecs = np.linalg.eigh(sup)
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
    since no finite convention applies. Each row is summed over its
    positive entries alone and in order, so a row of a stack gives the
    same bits as the row passed on its own.
    """
    (sums,) = _weighted_sums(np.asarray(values, dtype=float), np.asarray(numerator, dtype=float), [f])
    return float(sums) if sums.ndim == 0 else sums


def spectral_sums(rows, dim: int, gens) -> np.ndarray:
    """f_weighted_sum of a (..., d) stack for each generator and numerator.

    Returns shape (..., len(gens), 2): numerator 1/dim in [..., 0]
    (the plain variant) and 1 in [..., 1] (the hat variant).
    """
    rows = np.asarray(rows, dtype=float)
    c = np.array([1.0 / dim, 1.0]).reshape((2,) + (1,) * (rows.ndim - 1))
    sums = np.stack(_weighted_sums(rows, c, gens), axis=-1)  # (2, ..., len(gens))
    return np.moveaxis(sums, 0, -1)


def _weighted_sums(v: np.ndarray, c: np.ndarray, gens) -> list[np.ndarray]:
    """f_weighted_sum of the stack v with numerator c, once per generator;
    the masking is shared by all generators."""
    pos = v > EPS_ZERO
    if pos.all():
        x = c[..., None] / v
        return [np.sum(v * f(x), axis=-1) for f in gens]
    for f in gens:
        if _need_limit(f, "weighted_inf_limit", "weighted tail limit") != 0.0:
            raise UnsupportedLimit(
                f"generator {f.name} has nonzero weighted tail limit, "
                "cannot evaluate on a vector with zero entries"
            )
    # Zero-padding the masked entries would let numpy's pairwise summation
    # regroup rows of 8 or more terms, so each row is summed over its
    # compressed positive entries: rows with the same count m of them are
    # summed as one (rows, m) block.
    shape = v.shape[:-1] if c.ndim == 0 else np.broadcast_shapes(v.shape[:-1], c.shape)
    if shape != v.shape[:-1]:
        v = np.broadcast_to(v, shape + v.shape[-1:])
        pos = v > EPS_ZERO
    vp = v[pos]
    x = c / vp if c.ndim == 0 else (c[..., None] / np.where(pos, v, 1.0))[pos]
    counts = pos.sum(axis=-1).ravel() if pos.ndim > 1 else np.array([vp.size])
    sizes = set(counts.tolist())
    out = []
    if len(sizes) == 1:
        m = sizes.pop()
        for f in gens:
            sums = (vp * f(x)).reshape(counts.size, m).sum(axis=1) if m else np.zeros(counts.size)
            out.append(sums.reshape(shape))
        return out
    ends = np.cumsum(counts)
    blocks = []
    for m in sizes - {0}:
        rows = np.flatnonzero(counts == m)
        blocks.append((rows, (ends[rows] - m)[:, None] + np.arange(m)))
    for f in gens:
        terms = vp * f(x)
        sums = np.zeros(counts.size)
        for rows, idx in blocks:
            sums[rows] = terms[idx].sum(axis=1)
        out.append(sums.reshape(shape))
    return out


def f_entropy(rho: DensityMatrix, f: GeneratorFunction) -> float:
    """Entropy f(1/d) - sum_j p_j f(1 / (d p_j)) over the spectrum of rho.

    Zero on pure states, maximal (= f(1/d)) on the maximally mixed state
    for operator monotone decreasing generators.
    """
    d = rho.dim
    vals = rho.eigenvalues()
    return float(f(1.0 / d)) - f_weighted_sum(vals, 1.0 / d, f)


def f_entropy_hat(rho: DensityMatrix, f: GeneratorFunction) -> float:
    """Entropy -sum_j p_j f(1 / p_j) over the spectrum of rho.

    Zero on pure states, maximal (= -f(d)) on the maximally mixed state
    for operator monotone decreasing generators.
    """
    vals = rho.eigenvalues()
    return -f_weighted_sum(vals, 1.0, f)


def entropy_table(states, gens) -> np.ndarray:
    """f_entropy and f_entropy_hat of every state under every generator.

    The states share one dimension. Returns shape (len(states),
    len(gens), 2) with the f_entropy value in [..., 0] and the
    f_entropy_hat value in [..., 1], equal bit for bit to the
    single-state functions.
    """
    vals = spectra(states)
    d = vals.shape[-1]
    sums = spectral_sums(vals, d, gens)
    top = np.array([float(f(1.0 / d)) for f in gens])
    return np.stack((top - sums[..., 0], -sums[..., 1]), axis=-1)
