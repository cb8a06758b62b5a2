"""Quantum channels in Kraus form, with the incoherent channel classes.

A channel here is a finite list of Kraus operators on one d-dimensional
space. Two structured classes matter for coherence:

* strictly incoherent channels, whose Kraus operators commute with
  dephasing outcome by outcome, and
* the genuinely incoherent subclass, whose Kraus operators are all
  diagonal, so every incoherent state is a fixed point.

The module also builds the two tensor-extension channels used to probe
monotonicity beyond the diagonal class: one that replaces a fresh
ancilla by the maximally mixed state and one that erases the ancilla
back to its reference state. Both are strictly incoherent, neither is
diagonal. Both are one replacement channel, stored as the ancilla
dimension and the number of basis states whose uniform mixture replaces
the ancilla, and act on the blocks of the state; their dense Kraus
stack is built on request.

Selective outcomes have one entry, ``selective_outcomes``, which checks
the pair and asks the channel class for its outcomes. A tensor extension
takes them from the blocks of its state. Every other channel takes them
from ``_outcome_blocks``, which computes the outcomes of many channels on
a stack of state matrices as blocked stacks of arrays; the
strong-monotonicity suite hands it its drawn stack and reads the arrays
directly, with no state or outcome object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    ChannelValidationError,
    DimensionMismatch,
    NotGio,
    ParamOutOfRange,
    SingularState,
)
from .generators import _is_tolerance
from .states import (
    EPS_ZERO,
    TOL_TRACE,
    DensityMatrix,
    _as_array,
    _as_square,
    _check_dim,
    _cleaned,
    _eigh,
    _first_above,
    _frozen,
    _generators,
    _groups,
    _haar,
    _normalized,
    _normals,
    _per_row,
    _records,
    _size_fault,
    _store,
    _views,
    spectral_decompose,
    validate_density,
)

__all__ = [
    "COMPLETENESS_TOL",
    "KrausChannel",
    "GioChannel",
    "MeasurementOutcome",
    "SaturationReport",
    "PetzRecoveryMap",
    "dephasing_channel",
    "depolarizing_extension",
    "erasure_extension",
    "diagonal_unitary_mixture",
    "random_gio",
    "random_channel",
    "random_unital_channel",
    "max_offdiagonal",
    "is_sio",
    "gio_saturation_check",
    "petz_recovery",
]

COMPLETENESS_TOL = 1e-10
DIAGONAL_TOL = 1e-12
# Default tol of gio_saturation_check: the coupling a state pair needs to
# count, and the distance from 1 its squared overlap may keep.
_SATURATION_TOL = 1e-6
# Largest dense output of a tensor-extension channel with ancilla
# dimension d, its Kraus stack or its selective outcome states: d^2
# (depolarizing) or d (erasure) matrices of 16 d^4 bytes. Depolarizing
# reaches it at d = 10 (16 MB; 65 GB at d = 40).
EXTENSION_DENSE_BYTES = 1 << 24
# Largest stack of d x d matrices _outcome_blocks builds at once, a bound
# on memory: without it the strong-monotonicity suite at d = 64 peaked at
# 166 MB instead of 44 MB, with the same output and no faster.
OUTCOME_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float
    state: DensityMatrix


def _kraus_stack(kraus_ops) -> np.ndarray:
    """A Kraus list as a (num_kraus, d, d) complex array by the array rule,
    checked for shape and finiteness on the whole stack: the caller's own
    array where it is one, so a channel that keeps it copies it."""
    ops = _as_array(kraus_ops, complex, "Kraus stack")
    if ops.shape[:1] == (0,):
        raise ChannelValidationError("a channel needs at least one Kraus operator")
    return _as_array(ops, complex, "Kraus stack", ChannelValidationError, (3,), square=True)


class KrausChannel:
    """A completely positive map given by a stack of Kraus operators.

    Channels are trace preserving within COMPLETENESS_TOL. The adjoint
    returned by :meth:`dual` reuses this class with the completeness
    check relaxed, because the dual of a non-unital channel is not trace
    preserving.
    """

    def __init__(self, kraus_ops, label: str | None = None, *, require_trace_preserving: bool = True):
        self._ops = _frozen(_kraus_stack(kraus_ops).copy(order="K"))
        self.num_kraus, self.dim = self._ops.shape[:2]
        self.label = label
        if require_trace_preserving and not (defect := self.completeness_defect()) <= COMPLETENESS_TOL:
            raise ChannelValidationError(f"sum K*K deviates from identity by {defect:.3e} (Frobenius)")

    @property
    def kraus_ops(self) -> np.ndarray:
        """Read-only stack of shape (num_kraus, dim, dim); a GioChannel builds it on each call."""
        return self._kraus_slice(0, self.num_kraus)

    def _kraus_slice(self, start: int, stop: int) -> np.ndarray:
        return self._ops[start:stop]

    def completeness_defect(self) -> float:
        ops = self.kraus_ops
        # Entries too large to square give an infinite (or, where infinite
        # terms cancel, NaN) defect, as in _set_tables, with no warning.
        with np.errstate(over="ignore", invalid="ignore"):
            s = np.einsum("kij,kil->jl", ops.conj(), ops)
            return float(np.linalg.norm(s - np.eye(self.dim), "fro"))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action sum_k K m K* on an arbitrary matrix."""
        return _kraus_sum(self._ops, _operand(m, self.dim))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state and revalidate the output."""
        _check_pair(self, rho)
        return validate_density(self.apply_matrix(rho.matrix))

    def dual(self) -> "KrausChannel":
        """Adjoint map with Kraus operators K*; unital iff this channel is trace preserving."""
        return KrausChannel(
            self.kraus_ops.conj().transpose(0, 2, 1),
            label=None if self.label is None else f"dual({self.label})",
            require_trace_preserving=False,
        )

    def selective_outcomes(self, rho: DensityMatrix) -> list[MeasurementOutcome]:
        """Per-Kraus outcome list (p_k, K rho K*/p_k), zero-probability outcomes dropped."""
        _check_pair(self, rho)
        return self._outcomes(rho)

    def _outcomes(self, rho: DensityMatrix) -> list[MeasurementOutcome]:
        """The outcomes of _outcome_blocks, each state adopted with its
        cleaned spectrum as its decomposition, as validate_density gives it."""
        outcomes = []
        for _, probs, matrices, vals, vecs in _outcome_blocks([self], rho.matrix[None]):
            outcomes += map(MeasurementOutcome, probs.tolist(), _store(_views(matrices), vals, vecs))
        return outcomes


def _kraus_sum(ops: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_k K m K* over a (..., num_kraus, d, d) stack, for each (..., d, d) m."""
    return (ops @ m[..., None, :, :] @ ops.conj().swapaxes(-1, -2)).sum(axis=-3)


def _operand(m, dim: int) -> np.ndarray:
    """m as a finite complex (dim, dim) array."""
    m = _as_square(m)
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match channel dimension {dim}")
    return m


def _check_pair(ch: KrausChannel, rho: DensityMatrix) -> None:
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {ch.dim}")


def _outcome_blocks(channels, matrices: np.ndarray):
    """The selective outcomes of checked channels on the states of an (n,
    d, d) stack of their matrices, channel i on matrices[i], in outcome
    order, as arrays; the channels serve their Kraus operators through
    _joined, which a tensor extension does not.

    The K rho K* of all pairs are computed as one concatenated stacked
    product, in blocks of at most OUTCOME_BLOCK_BYTES, and the outcomes of
    a block with probability above EPS_ZERO are kept and cleaned as one
    stack. Per block it yields the pair of each kept outcome, its
    probability, and its cleaned matrix, clipped ascending spectrum and
    eigenvectors as states._cleaned gives them, none where no outcome is
    kept. Each outcome has the bits its pair gives it alone, whatever the
    blocks.
    """
    joined = _joined(channels)
    owner = np.repeat(np.arange(len(matrices)), [ch.num_kraus for ch in channels])
    step = max(1, OUTCOME_BLOCK_BYTES // (16 * matrices.shape[-1] ** 2))
    for start in range(0, len(owner), step):
        pairs = owner[start : start + step]
        k = joined._kraus_slice(start, start + len(pairs))
        # A block of one pair takes its state as it is, any other each outcome's state by one index.
        r = matrices[pairs[0]] if pairs[0] == pairs[-1] else matrices[pairs]
        blocks = k @ r @ k.conj().transpose(0, 2, 1)
        p = blocks.trace(axis1=1, axis2=2).real
        kept = p > EPS_ZERO
        outcomes = (blocks if kept.all() else blocks[kept]) / p[kept, None, None]
        yield pairs[kept], p[kept], *_cleaned(outcomes)


def _joined(channels) -> KrausChannel:
    """One channel whose Kraus operators are those of the channels in
    order, each slice of it built as their own slices are: a lone channel
    itself, diagonal channels their coefficient tables joined, and any
    other list their dense Kraus stacks joined."""
    if len(channels) == 1:
        return channels[0]
    if all(isinstance(ch, GioChannel) for ch in channels):
        joined = GioChannel.__new__(GioChannel)
        joined._coeffs, joined.dim = np.concatenate([ch.coefficients for ch in channels]), channels[0].dim
        return joined
    return KrausChannel(np.concatenate([ch.kraus_ops for ch in channels]), require_trace_preserving=False)


def max_offdiagonal(matrices) -> float:
    """Largest off-diagonal modulus in a (..., d, d) array, d >= 1; 0 when
    d = 1 or the stack holds no matrix.

    GioChannel accepts a Kraus stack when this is at most DIAGONAL_TOL.
    """
    off = np.abs(_as_array(matrices, complex, "matrices", ndims=range(2, 65), square=True))
    idx = np.arange(off.shape[-1])
    off[..., idx, idx] = 0.0
    return float(off.max(initial=0.0))


class GioChannel(KrausChannel):
    """A channel whose Kraus operators are all diagonal.

    Stored as its (num_kraus, dim) coefficient table, whose row j is the
    diagonal of Kraus operator j and whose column n is the action on
    |n><n|, together with the correlation matrix C = coeffs^T conj(coeffs)
    that the channel multiplies entrywise. Completeness makes each column
    a unit vector, so every incoherent state is a fixed point. The dense
    Kraus stack is derived on request.
    """

    def __init__(self, kraus_ops, label: str | None = None):
        ops = _kraus_stack(kraus_ops)
        offdiag = max_offdiagonal(ops)
        if offdiag > DIAGONAL_TOL:
            raise NotGio(f"Kraus operator has off-diagonal entry of modulus {offdiag:.3e}")
        _set_tables([self], [np.diagonal(ops, axis1=1, axis2=2)], label)

    @classmethod
    def from_coefficients(cls, coefficients, label: str | None = None) -> "GioChannel":
        """Channel with Kraus operators diag(coefficients[j]), from a
        (num_kraus, dim) table."""
        coeffs = _as_array(coefficients, complex, "coefficient table", ChannelValidationError, (2,))
        return _gio_list([coeffs], label)[0]

    @property
    def coefficients(self) -> np.ndarray:
        """Table of shape (num_kraus, dim); column n is the action on |n><n|."""
        return self._coeffs

    @property
    def correlation(self) -> np.ndarray:
        """C = coeffs^T conj(coeffs), C_nm = sum_j k_jn conj(k_jm); the channel maps m to C o m."""
        return self._corr

    def _kraus_slice(self, start: int, stop: int) -> np.ndarray:
        rows = self._coeffs[start:stop]
        ops = np.zeros((len(rows), self.dim * self.dim), dtype=complex)
        ops[:, :: self.dim + 1] = rows
        return _frozen(ops.reshape(-1, self.dim, self.dim))

    def completeness_defect(self) -> float:
        """Frobenius distance of sum K*K = diag(column norms squared) from
        the identity, as the constructor computed it."""
        return self._defect

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Schur product C o m."""
        return self._corr * _operand(m, self.dim)


def _set_tables(chans: list, tables: list, label: str | None) -> None:
    """Give each channel its table of a list of finite (num_kraus, dim)
    coefficient tables of one dim, read-only, with its shape, correlation
    matrix and completeness defect, after checking the completeness of
    every table. The tables of one num_kraus are stacked for one product."""
    groups = [(rows, np.array([tables[i] for i in rows], dtype=complex)) for _, rows in _groups(np.array([len(t) for t in tables]))]
    # Per table the diagonal of sum K*K - I, and np.linalg.norm of it: the
    # root of its BLAS dot. A finite entry too large to square gives an
    # infinite defect, as the dense sum K*K of KrausChannel does.
    defects = np.empty((len(tables), 1, tables[0].shape[-1]))
    with np.errstate(over="ignore"):
        for rows, coeffs in groups:
            defects[rows, 0] = (coeffs.real**2 + coeffs.imag**2).sum(axis=-2) - 1.0
        defects = np.sqrt(defects @ defects.swapaxes(-1, -2))[:, 0, 0]
    if (defects > COMPLETENESS_TOL).any():
        defect = _first_above(defects, COMPLETENESS_TOL)
        raise ChannelValidationError(f"sum K*K deviates from identity by {defect:.3e} (Frobenius)")
    for rows, coeffs in groups:
        corr = _frozen(coeffs.swapaxes(-1, -2) @ coeffs.conj())
        for i, c, cr, defect in zip(rows.tolist(), _frozen(coeffs), corr, defects[rows].tolist()):
            ch = chans[i]
            ch._coeffs, ch._corr, ch._defect, ch.label, (ch.num_kraus, ch.dim) = c, cr, defect, label, c.shape


def dephasing_channel(dim: int) -> GioChannel:
    """Kraus list {|n><n|}; the channel that removes all off-diagonals."""
    _check_dim(dim)
    return GioChannel.from_coefficients(np.eye(dim), label="dephase")


class _AncillaExtension(KrausChannel):
    """id (x) Phi on a d^2 space, Phi replacing the second factor by the
    uniform mixture I_n/n of its first n basis states (n = d, the full
    depolarization, or n = 1, the erasure to |0><0|), stored as d and n.
    With rho^(j) = (I (x) <j|) rho (I (x) |j>) and p_j = tr rho^(j), rho
    maps to tr_B(rho) (x) I_n/n, and selective outcome (i, j), i < n, is
    (p_j/n, rho^(j)/p_j (x) |i><i|).
    """

    def __init__(self, dim: int, outputs: int, name: str):
        _check_dim(dim)
        self._d, self._n = dim, outputs
        self.num_kraus, self.dim = outputs * dim, dim * dim
        self.label = f"{name}-ext:{dim}"

    def _check_dense(self, what: str) -> None:
        """Refuse num_kraus dense matrices (the Kraus stack, or the most outcomes) past the bound."""
        need = 16 * self.num_kraus * self.dim**2
        if need > EXTENSION_DENSE_BYTES:
            raise DimensionMismatch(f"{self.label}: {what} need {need} bytes, at most {EXTENSION_DENSE_BYTES}")

    @property
    def kraus_ops(self) -> np.ndarray:
        """I (x) |i><j| / sqrt(n), row i * d + j."""
        self._check_dense("Kraus operators")
        d = self._d
        units = np.eye(self.num_kraus, d * d).reshape(-1, d, d)
        ops = np.kron(np.eye(d), units / np.sqrt(self._n)).astype(complex)
        ops.setflags(write=False)
        return ops

    def _extended(self, block: np.ndarray, ancilla) -> np.ndarray:
        """block (x) |i><i|, summed over the ancilla index or indices i."""
        d = self._d
        out = np.zeros((d, d, d, d), dtype=complex)
        out[:, ancilla, :, ancilla] = block
        return out.reshape(self.dim, self.dim)

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        return self._extended(self._reduced(_operand(m, self.dim)) / self._n, np.arange(self._n))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state. The output shares the spectrum of tr_B(rho),
        up to the factor 1/n, so the d x d reduced state is validated and
        then extended, and the fresh output adopted with no scan or copy;
        it has no cached decomposition."""
        _check_pair(self, rho)
        reduced = validate_density(self._reduced(rho.matrix)).matrix
        (out,) = _views(self._extended(reduced / self._n, np.arange(self._n))[None])
        return out

    def _reduced(self, m: np.ndarray) -> np.ndarray:
        """tr_B m of a d^2 x d^2 matrix."""
        d = self._d
        return np.trace(m.reshape(d, d, d, d), axis1=1, axis2=3)

    def _outcomes(self, rho: DensityMatrix) -> list[MeasurementOutcome]:
        """Selective outcomes, the states rho^(j)/p_j validated as one stack
        and each extended output adopted with no scan or copy."""
        self._check_dense("selective outcome states")
        d = self._d
        blocks = np.moveaxis(np.diagonal(rho.matrix.reshape(d, d, d, d), axis1=1, axis2=3), -1, 0)
        p = np.trace(blocks, axis1=1, axis2=2).real
        probs = p / self._n
        kept = np.flatnonzero(probs > EPS_ZERO)
        states = validate_density(blocks[kept] / p[kept, None, None])
        return [
            MeasurementOutcome(probs[j].item(), _views(self._extended(s.matrix, i)[None])[0])
            for i in range(self._n)
            for j, s in zip(kept, states)
        ]


def depolarizing_extension(dim: int) -> KrausChannel:
    """Channel on a dim^2 space acting as identity on the first factor
    and full depolarization on the second.

    Kraus operators I (x) |i><j| / sqrt(dim). Strictly incoherent in the
    product basis but not diagonal, and maps rho (x) |0><0| to
    rho (x) I/dim.
    """
    return _AncillaExtension(dim, dim, "depol")


def erasure_extension(dim: int) -> KrausChannel:
    """Channel on a dim^2 space erasing the second factor to |0><0|.

    Kraus operators I (x) |0><j|. Strictly incoherent, not diagonal, and
    maps rho (x) I/dim back to rho (x) |0><0|.
    """
    return _AncillaExtension(dim, 1, "erase")


def diagonal_unitary_mixture(weights, phase_table) -> GioChannel:
    """Channel sum_j w_j U_j rho U_j* with diagonal unitaries U_j.

    ``phase_table`` has one row of phases per unitary; Kraus operators
    are sqrt(w_j) diag(exp(i phases[j])).
    """
    w, phases = _as_array(weights, float, "weights"), _as_array(phase_table, float, "coefficient table")
    if w.ndim != 1 or phases.ndim != 2 or phases.shape[0] != w.size:
        raise BadWeights(f"need one phase row per weight, got {w.shape} weights and {phases.shape} phases")
    _as_array(phases, float, "coefficient table", ChannelValidationError)  # before exp(1j * inf) can warn
    return GioChannel.from_coefficients(_mixture_tables([w], [phases])[0], label="diagonal-unitary-mixture")


def _mixture_tables(weights: list, phases: list) -> list[np.ndarray]:
    """The coefficient tables sqrt(w_j) exp(i phases[j]) of a list of
    weight vectors and their phase tables, each weight vector checked. The
    algebra is elementwise, so it runs once on all rows concatenated. A sum
    too large for a float is inf, with no warning."""
    with np.errstate(over="ignore"):
        for w in weights:
            if not np.all(w > 0.0):
                raise BadWeights(f"weights must be strictly positive, smallest is {w.min():.3e}")
            if abs(w.sum() - 1.0) > TOL_TRACE:
                raise BadWeights(f"weights sum to {float(w.sum())!r}, expected 1")
    coeffs = np.sqrt(np.concatenate(weights))[:, None] * np.exp(1j * np.concatenate(phases))
    return np.split(coeffs, np.cumsum([len(w) for w in weights])[:-1])


def _unitary_mixture_tables(dim: int, sizes, seeds) -> list[np.ndarray]:
    """Row i: the coefficient table of a mixture of sizes[i] diagonal
    unitaries drawn by the Generator of seeds[i], Dirichlet weights, then
    uniform phases."""
    seeds, sizes = _per_row(sizes, seeds)
    if not len(seeds):
        return []
    rngs = _generators(seeds)
    weights = [rng.dirichlet(np.ones(k)) for rng, k in zip(rngs, sizes.tolist())]
    phases = [rng.uniform(0.0, 2.0 * np.pi, size=(k, dim)) for rng, k in zip(rngs, sizes.tolist())]
    return _mixture_tables(weights, phases)


def _gio_list(tables: list, label: str | None = None) -> list[GioChannel]:
    """One GioChannel per table of a list of (num_kraus, dim) tables of one
    dim, built as one stack per num_kraus."""
    chans = [GioChannel.__new__(GioChannel) for _ in tables]
    _set_tables(chans, tables, label)
    return chans


def _check_sizes(dim: int, num_kraus: int) -> None:
    """The size rule for a dimension and a Kraus count together."""
    if fault := _size_fault(dim) or _size_fault(num_kraus):
        raise DimensionMismatch(f"need {fault} dimension and Kraus count, got {dim!r}, {num_kraus!r}")


def random_gio(dim: int, num_kraus: int, seed: int) -> GioChannel:
    """Random diagonal channel: each basis index gets a Haar-random unit
    coefficient vector across the Kraus operators."""
    _check_sizes(dim, num_kraus)
    return _gio_list(_gio_tables(dim, num_kraus, [seed]), f"random-gio:{dim}")[0]


def _gio_tables(dim: int, num_kraus, seeds) -> list[np.ndarray]:
    """The (k, dim) coefficient tables of random_gio(dim, k, s) for each
    Kraus count k (one per seed, or one for all) and seed s, normalized as
    one stack per count; dim and counts unchecked."""
    seeds, num_kraus = _per_row(num_kraus, seeds)
    tables = [None] * len(seeds)
    for k, rows in _groups(num_kraus):
        # Per seed one block, drawn in the order of a column-by-column loop.
        z = _normals(seeds[rows], (dim, 2, k))
        v = _normalized(z[:, :, 0] + 1j * z[:, :, 1])
        for i, table in zip(rows.tolist(), np.ascontiguousarray(v.swapaxes(-1, -2))):
            tables[i] = table
    return tables


def random_channel(dim: int, num_kraus: int, seed: int) -> KrausChannel:
    """Random channel from a Haar isometry into dim * num_kraus dimensions."""
    _check_sizes(dim, num_kraus)
    return KrausChannel(_haar_kraus(dim, num_kraus, [seed])[0], label=f"random:{dim}")


def _haar_kraus(dim: int, num_kraus, seeds) -> list[np.ndarray]:
    """The Kraus stacks of random_channel(dim, k, s) for each Kraus count
    k (one per seed, or one for all) and seed s: the (k, dim, dim) blocks
    of their Haar isometries, unchecked, one QR per count."""
    seeds, num_kraus = _per_row(num_kraus, seeds)
    out = [None] * len(seeds)
    for k, rows in _groups(num_kraus):
        for i, ops in zip(rows.tolist(), _haar(dim * k, dim, seeds[rows]).reshape(-1, k, dim, dim)):
            out[i] = ops
    return out


def random_unital_channel(dim: int, num_unitaries: int, seed: int) -> KrausChannel:
    """Random mixture of Haar unitaries; unital and trace preserving."""
    _check_sizes(dim, num_unitaries)
    return KrausChannel(_unital_kraus(dim, num_unitaries, [seed])[0], label=f"random-unital:{dim}")


def _unital_kraus(dim: int, num_unitaries, seeds) -> list[np.ndarray]:
    """The (k, dim, dim) Kraus stacks of random_unital_channel(dim, k, s)
    for each count k (one per seed, or one for all) and seed s: Dirichlet
    weights, then one seed per Haar unitary, from each seed's Generator;
    the unitaries' seeds are hashed into records in one pass, and all the
    unitaries come from one QR."""
    seeds, counts = _per_row(num_unitaries, seeds)
    if not len(seeds):
        return []
    rngs, counts = _generators(seeds), counts.tolist()
    weights = [rng.dirichlet(np.ones(k)) for rng, k in zip(rngs, counts)]
    # k draws in one call: the same 32-bit words, so the same integers.
    inner = np.concatenate([rng.integers(0, 2**31 - 1, size=k) for rng, k in zip(rngs, counts)])
    ops = np.sqrt(np.concatenate(weights))[:, None, None] * _haar(dim, dim, _records(inner))
    ends = np.cumsum(counts).tolist()
    return [ops[a:b] for a, b in zip([0] + ends, ends)]


def _check_tol(tol) -> None:
    """The tolerance rule of TrialConfig.tol_violation, as ParamOutOfRange."""
    if not _is_tolerance(tol):
        raise ParamOutOfRange(f"tol must be positive and finite, got {tol!r}")


def is_sio(ch: KrausChannel, tol: float = 1e-10) -> bool:
    """True when K_j Delta(X) K_j* = Delta(K_j X K_j*) for every Kraus
    operator and every matrix unit X = |n><m|.

    For X = |n><m| with n != m the defect is max_i |k_in k_im|, and for
    n = m it is max_{i != l} |k_in k_ln|: the product of the two largest
    moduli in a row, or in a column, of K_j. Raises ParamOutOfRange when
    tol is not a positive, finite real number.
    """
    _check_tol(tol)
    if ch.dim < 2:
        return True
    mod = np.abs(ch.kraus_ops)
    rows = np.sort(mod, axis=2)[:, :, -2:]
    cols = np.sort(mod, axis=1)[:, -2:, :]
    worst = max((rows[..., 0] * rows[..., 1]).max(), (cols[:, 0] * cols[:, 1]).max())
    return bool(worst <= tol)


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of the equality test for a diagonal channel on one state.

    ``worst_value`` is the smallest squared column-coefficient overlap
    across index pairs with nonzero coupling in the state; equality
    holds exactly when it reaches 1. ``proportionality_defect`` is the
    distance of the worst coefficient-column pair from exact
    proportionality, the Cauchy-Schwarz equality case.
    """

    saturates: bool
    worst_pair: tuple[int, int] | None
    worst_value: float
    proportionality_defect: float


def gio_saturation_check(ch: KrausChannel, rho: DensityMatrix, tol: float = _SATURATION_TOL) -> SaturationReport:
    """Decide whether a diagonal channel preserves the coherences of rho.

    For every index pair (n, m) with |rho_nm| > tol the squared overlap
    |sum_j conj(k_jn) k_jm|^2 must reach 1 - tol. Raises NotGio when the
    channel is not diagonal, and ParamOutOfRange when tol is not a
    positive, finite real number.
    """
    _check_tol(tol)
    _check_pair(ch, rho)
    ch = ch if isinstance(ch, GioChannel) else GioChannel(ch.kraus_ops)
    # The Gram matrix coeffs^H coeffs, gram[n, m] = <k_n, k_m>, in value.
    coeffs, gram = ch.coefficients, ch.correlation.conj()
    (worst,), (worst_value,) = _worst_overlaps(gram[None], rho.matrix[None], tol)
    if worst < 0 or not worst_value < 1.0:
        return SaturationReport(True, None, 1.0, 0.0)
    rows, cols = np.triu_indices(rho.dim, 1)
    n, m = int(rows[worst]), int(cols[worst])
    # ||k_n - <k_m, k_n> k_m|| measures failure of k_n = alpha k_m.
    residual = coeffs[:, n] - gram[m, n] * coeffs[:, m]
    defect = float(np.linalg.norm(residual))
    return SaturationReport(bool(_saturated(worst, worst_value, tol)), (n, m), float(worst_value), defect)


def _worst_overlaps(grams: np.ndarray, matrices: np.ndarray, tol=_SATURATION_TOL) -> tuple[np.ndarray, np.ndarray]:
    """For each (Gram matrix, state matrix) pair of two (n, d, d) stacks:
    the position in np.triu_indices(d, 1) of the first smallest squared
    overlap |gram_nm|^2 among the pairs n < m with |matrix_nm| > tol (a NaN
    counts as smallest), and that overlap; -1 and 1.0 where no pair is
    coupled. Only moduli are read, so a correlation stack, the conjugate
    of the Gram stack, serves as well."""
    n, (rows, cols) = len(grams), np.triu_indices(grams.shape[-1], 1)
    if not rows.size:
        return np.full(n, -1), np.ones(n)
    coupled = np.abs(matrices[:, rows, cols]) > tol
    overlap = np.where(coupled, np.abs(grams[:, rows, cols]) ** 2, np.inf)
    worst = overlap.argmin(axis=1)
    none = ~coupled.any(axis=1)
    return np.where(none, -1, worst), np.where(none, 1.0, overlap[np.arange(n), worst])


def _saturated(worst, worst_value, tol: float = _SATURATION_TOL):
    """The saturation verdict of _worst_overlaps: no coupled pair, or the
    worst overlap not below 1 (or NaN), or within tol of 1."""
    return (worst < 0) | ~(worst_value < 1.0) | (worst_value >= 1.0 - tol)


class PetzRecoveryMap:
    """The recovery map omega -> s^{1/2} Dual(L(s)^{-1/2} omega L(s)^{-1/2}) s^{1/2}
    built from a channel and a full-rank reference operator s."""

    def __init__(self, sigma_sqrt: np.ndarray, out_inv_sqrt: np.ndarray, dual: KrausChannel):
        self._sigma_sqrt = sigma_sqrt
        self._out_inv_sqrt = out_inv_sqrt
        self._dual = dual

    @property
    def dim(self) -> int:
        return self._sigma_sqrt.shape[0]

    def __call__(self, omega: np.ndarray) -> np.ndarray:
        inner = self._out_inv_sqrt @ _operand(omega, self.dim) @ self._out_inv_sqrt
        return self._sigma_sqrt @ self._dual.apply_matrix(inner) @ self._sigma_sqrt

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return validate_density(self(rho.matrix))


def _psd_power(m, exponent: float, what: str) -> np.ndarray:
    """m**exponent of a DensityMatrix, from its cached decomposition, or
    of the Hermitian part of a matrix."""
    if isinstance(m, DensityMatrix):
        dec = spectral_decompose(m)
        vals, vecs = dec.eigenvalues, dec.eigenvectors
    else:
        vals, vecs = _eigh((m + m.conj().T) / 2.0)
    if exponent < 0 and vals.min() <= EPS_ZERO:
        raise SingularState(f"{what} has eigenvalue {vals.min():.3e}, full rank required")
    vals = np.clip(vals, EPS_ZERO if exponent < 0 else 0.0, None)
    return (vecs * vals**exponent) @ vecs.conj().T


def petz_recovery(ch: KrausChannel, sigma) -> PetzRecoveryMap:
    """Recovery map for a channel relative to a full-rank positive sigma.

    Satisfies recovery(ch.apply(sigma)) = sigma; for a unital channel
    and sigma proportional to the identity it reduces to the dual map.
    """
    is_state = isinstance(sigma, DensityMatrix)
    s = _operand(sigma.matrix if is_state else sigma, ch.dim)
    sigma_sqrt = _psd_power(sigma if is_state else s, 0.5, "reference operator")
    out = ch.apply_matrix(s)
    out_inv_sqrt = _psd_power(out, -0.5, "channel output of reference")
    return PetzRecoveryMap(sigma_sqrt, out_inv_sqrt, ch.dual())
