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
diagonal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    ChannelValidationError,
    DimensionMismatch,
    NotGio,
    SingularState,
)
from .states import (
    EPS_ZERO,
    DensityMatrix,
    _check_dim,
    _haar_isometry,
    random_unitary,
    spectral_decompose,
    validate_density,
)

__all__ = [
    "COMPLETENESS_TOL",
    "MAX_EXTENSION_DIM",
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
    "outcome_ensembles",
    "is_sio",
    "gio_saturation_check",
    "petz_recovery",
]

COMPLETENESS_TOL = 1e-10
DIAGONAL_TOL = 1e-12
# Largest ancilla dimension d accepted by the tensor-extension channels.
# They are stored as dense Kraus stacks on a d^2-dimensional space:
# 16 d^6 bytes for depolarizing_extension (16 MB at d = 10, 65 GB at
# d = 40), 16 d^5 bytes for erasure_extension.
MAX_EXTENSION_DIM = 10
# Largest stack of d x d matrices outcome_ensembles builds at once. Past
# about 128 KiB every fresh array costs page faults, which at d = 64
# outweigh what stacking saves.
OUTCOME_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float
    state: DensityMatrix


def _kraus_stack(kraus_ops) -> np.ndarray:
    """Read-only (num_kraus, d, d) complex copy of a Kraus list, checked
    for shape and finiteness on the whole stack."""
    ops = kraus_ops if isinstance(kraus_ops, np.ndarray) else list(kraus_ops)
    if len(ops) == 0:
        raise ChannelValidationError("a channel needs at least one Kraus operator")
    try:
        stack = np.array(ops, dtype=complex)
    except ValueError:
        if len({np.shape(k) for k in ops}) > 1:
            raise DimensionMismatch("Kraus operators must all be square of one size") from None
        raise
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise DimensionMismatch(f"Kraus operators must be non-empty squares of one size, got {stack.shape[1:]}")
    if not np.isfinite(stack).all():
        raise ChannelValidationError("Kraus operator contains non-finite entries")
    stack.setflags(write=False)
    return stack


class KrausChannel:
    """A completely positive map given by a stack of Kraus operators.

    Channels are trace preserving within COMPLETENESS_TOL. The adjoint
    returned by :meth:`dual` reuses this class with the completeness
    check relaxed, because the dual of a non-unital channel is not trace
    preserving.
    """

    def __init__(self, kraus_ops, label: str | None = None, *, require_trace_preserving: bool = True):
        self._ops = _kraus_stack(kraus_ops)
        self.label = label
        if require_trace_preserving:
            self._check_complete()

    def _check_complete(self) -> None:
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ChannelValidationError(f"sum K*K deviates from identity by {defect:.3e} (Frobenius)")

    @property
    def dim(self) -> int:
        return self._ops.shape[1]

    @property
    def num_kraus(self) -> int:
        return self._ops.shape[0]

    @property
    def kraus_ops(self) -> np.ndarray:
        """Read-only stack of shape (num_kraus, dim, dim); a GioChannel builds it on each call."""
        return self._kraus_slice(0, self.num_kraus)

    def _kraus_slice(self, start: int, stop: int) -> np.ndarray:
        return self._ops[start:stop]

    def completeness_defect(self) -> float:
        s = np.einsum("kij,kil->jl", self._ops.conj(), self._ops)
        return float(np.linalg.norm(s - np.eye(self.dim), "fro"))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action sum_k K m K* on an arbitrary matrix."""
        m = _operand(m, self.dim)
        return (self._ops @ m @ self._ops.conj().transpose(0, 2, 1)).sum(axis=0)

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
        return outcome_ensembles([self], [rho])[0]


def _operand(m, dim: int) -> np.ndarray:
    """m as a complex (dim, dim) array."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match channel dimension {dim}")
    return m


def _check_pair(ch: KrausChannel, rho: DensityMatrix) -> None:
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {ch.dim}")


def outcome_ensembles(channels, states) -> list[list[MeasurementOutcome]]:
    """Selective outcomes of every (channel, state) pair, all of one dimension.

    The K rho K* of all pairs are computed as one concatenated stacked
    product, and the outcome states validated as one stack, in blocks of
    at most OUTCOME_BLOCK_BYTES, so each outcome equals, byte for byte,
    what selective_outcomes gives for its pair alone.
    """
    channels, states = list(channels), list(states)
    if len(channels) != len(states):
        raise DimensionMismatch(f"need one state per channel, got {len(states)} for {len(channels)}")
    if not channels:
        return []
    for ch, rho in zip(channels, states):
        _check_pair(ch, rho)
    if len({rho.dim for rho in states}) > 1:
        raise DimensionMismatch("outcome ensembles need pairs of one dimension")
    counts = [ch.num_kraus for ch in channels]
    begin = np.cumsum([0] + counts).tolist()
    owner = np.repeat(np.arange(len(states)), counts)
    probs, outcome_states = [], []
    step = max(1, OUTCOME_BLOCK_BYTES // (16 * states[0].dim ** 2))
    for start in range(0, begin[-1], step):
        stop = min(start + step, begin[-1])
        pairs = range(owner[start], owner[stop - 1] + 1)
        pieces = [
            channels[i]._kraus_slice(max(start, begin[i]) - begin[i], min(stop, begin[i + 1]) - begin[i])
            for i in pairs
        ]
        # A block of one pair takes its operands as they are, uncopied.
        k = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        r = states[pairs[0]].matrix if len(pairs) == 1 else np.array([states[i].matrix for i in owner[start:stop]])
        blocks = k @ r @ k.conj().transpose(0, 2, 1)
        p = np.trace(blocks, axis1=1, axis2=2).real
        kept = p > EPS_ZERO
        probs += p.tolist()
        if kept.any():
            outcome_states += validate_density((blocks if kept.all() else blocks[kept]) / p[kept, None, None])
    outcome_states = iter(outcome_states)
    return [
        [MeasurementOutcome(p, next(outcome_states)) for p in probs[begin[i] : begin[i + 1]] if p > EPS_ZERO]
        for i in range(len(channels))
    ]


def max_offdiagonal(matrices) -> float:
    """Largest off-diagonal modulus in a (..., d, d) array; 0 when d = 1.

    GioChannel accepts a Kraus stack when this is at most DIAGONAL_TOL.
    """
    off = np.abs(matrices)
    idx = np.arange(off.shape[-1])
    off[..., idx, idx] = 0.0
    return float(off.max())


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
        self._set_table(np.diagonal(ops, axis1=1, axis2=2).copy(), label)

    @classmethod
    def from_coefficients(cls, coefficients, label: str | None = None) -> "GioChannel":
        """Channel with Kraus operators diag(coefficients[j]), from a
        (num_kraus, dim) table."""
        ch = cls.__new__(cls)
        ch._set_table(np.array(coefficients, dtype=complex), label)
        return ch

    def _set_table(self, coeffs: np.ndarray, label: str | None) -> None:
        if coeffs.ndim != 2 or coeffs.size == 0:
            raise DimensionMismatch(f"coefficient table must be a non-empty matrix, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ChannelValidationError("coefficient table contains non-finite entries")
        coeffs.setflags(write=False)
        self._coeffs = coeffs
        self.label = label
        self._check_complete()
        corr = coeffs.T @ coeffs.conj()
        corr.setflags(write=False)
        self._corr = corr

    @property
    def dim(self) -> int:
        return self._coeffs.shape[1]

    @property
    def num_kraus(self) -> int:
        return self._coeffs.shape[0]

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
        ops = np.zeros((len(rows), self.dim, self.dim), dtype=complex)
        idx = np.arange(self.dim)
        ops[:, idx, idx] = rows
        ops.setflags(write=False)
        return ops

    def completeness_defect(self) -> float:
        """Frobenius distance of sum K*K = diag(column norms squared) from the identity."""
        c = self._coeffs
        return float(np.linalg.norm((c.real**2 + c.imag**2).sum(axis=0) - 1.0))

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Schur product C o m."""
        return self._corr * _operand(m, self.dim)


def dephasing_channel(dim: int) -> GioChannel:
    """Kraus list {|n><n|}; the channel that removes all off-diagonals."""
    _check_dim(dim)
    return GioChannel.from_coefficients(np.eye(dim), label="dephase")


def _check_extension_dim(dim: int) -> None:
    _check_dim(dim)
    if dim > MAX_EXTENSION_DIM:
        raise DimensionMismatch(
            f"extension channels support ancilla dimension at most {MAX_EXTENSION_DIM}, got {dim}"
        )


def depolarizing_extension(dim: int) -> KrausChannel:
    """Channel on a dim^2 space acting as identity on the first factor
    and full depolarization on the second.

    Kraus operators I (x) |i><j| / sqrt(dim). Strictly incoherent in the
    product basis but not diagonal, and maps rho (x) |0><0| to
    rho (x) I/dim.
    """
    _check_extension_dim(dim)
    # Row i * dim + j of the unit stack is |i><j|.
    units = np.eye(dim * dim).reshape(dim * dim, dim, dim)
    return KrausChannel(np.kron(np.eye(dim), units / np.sqrt(dim)), label=f"depol-ext:{dim}")


def erasure_extension(dim: int) -> KrausChannel:
    """Channel on a dim^2 space erasing the second factor to |0><0|.

    Kraus operators I (x) |0><j|. Strictly incoherent, not diagonal, and
    maps rho (x) I/dim back to rho (x) |0><0|.
    """
    _check_extension_dim(dim)
    # Row j of the unit stack is |0><j|.
    units = np.eye(dim, dim * dim).reshape(dim, dim, dim)
    return KrausChannel(np.kron(np.eye(dim), units), label=f"erase-ext:{dim}")


def diagonal_unitary_mixture(weights, phase_table) -> GioChannel:
    """Channel sum_j w_j U_j rho U_j* with diagonal unitaries U_j.

    ``phase_table`` has one row of phases per unitary; Kraus operators
    are sqrt(w_j) diag(exp(i phases[j])).
    """
    w = np.asarray(weights, dtype=float)
    phases = np.asarray(phase_table, dtype=float)
    if w.ndim != 1 or phases.ndim != 2 or phases.shape[0] != w.size:
        raise BadWeights(f"need one phase row per weight, got {w.shape} weights and {phases.shape} phases")
    if not np.all(w > 0.0):
        raise BadWeights(f"weights must be strictly positive, smallest is {w.min():.3e}")
    if abs(w.sum() - 1.0) > 1e-10:
        raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")
    coeffs = np.sqrt(w)[:, None] * np.exp(1j * phases)
    return GioChannel.from_coefficients(coeffs, label="diagonal-unitary-mixture")


def _check_sizes(dim: int, num_kraus: int) -> None:
    if dim < 1 or num_kraus < 1:
        raise DimensionMismatch(f"need positive dimension and Kraus count, got {dim}, {num_kraus}")


def random_gio(dim: int, num_kraus: int, seed: int) -> GioChannel:
    """Random diagonal channel: each basis index gets a Haar-random unit
    coefficient vector across the Kraus operators."""
    _check_sizes(dim, num_kraus)
    # One block, drawn in the order of a column-by-column loop.
    z = np.random.default_rng(seed).standard_normal((dim, 2, num_kraus))
    v = z[:, 0] + 1j * z[:, 1]
    # np.linalg.norm of one complex vector is the root of two BLAS dots
    # over its strided real and imaginary views; the stacked row-by-column
    # products on the same views run the same dots.
    re, im = v.real, v.imag
    norms = np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
    return GioChannel.from_coefficients((v / norms).T, label=f"random-gio:{dim}")


def random_channel(dim: int, num_kraus: int, seed: int) -> KrausChannel:
    """Random channel from a Haar isometry into dim * num_kraus dimensions."""
    _check_sizes(dim, num_kraus)
    q = _haar_isometry(np.random.default_rng(seed), dim * num_kraus, dim)
    return KrausChannel([q[i * dim : (i + 1) * dim, :] for i in range(num_kraus)], label=f"random:{dim}")


def random_unital_channel(dim: int, num_unitaries: int, seed: int) -> KrausChannel:
    """Random mixture of Haar unitaries; unital and trace preserving."""
    _check_sizes(dim, num_unitaries)
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(num_unitaries))
    ops = [
        np.sqrt(w[i]) * random_unitary(dim, int(rng.integers(0, 2**31 - 1)))
        for i in range(num_unitaries)
    ]
    return KrausChannel(ops, label=f"random-unital:{dim}")


def is_sio(ch: KrausChannel, tol: float = 1e-10) -> bool:
    """True when K_j Delta(X) K_j* = Delta(K_j X K_j*) for every Kraus
    operator and every matrix unit X = |n><m|.

    For X = |n><m| with n != m the defect is max_i |k_in k_im|, and for
    n = m it is max_{i != l} |k_in k_ln|: the product of the two largest
    moduli in a row, or in a column, of K_j.
    """
    if ch.dim < 2:
        return True
    mod = np.abs(ch.kraus_ops)
    rows = np.sort(mod, axis=2)[:, :, -2:]
    cols = np.sort(mod, axis=1)[:, -2:, :]
    worst = max((rows[..., 0] * rows[..., 1]).max(), (cols[:, 0] * cols[:, 1]).max())
    return bool(worst <= tol)


@functools.lru_cache(maxsize=64)
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays of the pairs n < m, in row-major order."""
    rows, cols = np.triu_indices(dim, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


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


def gio_saturation_check(ch: KrausChannel, rho: DensityMatrix, tol: float = 1e-6) -> SaturationReport:
    """Decide whether a diagonal channel preserves the coherences of rho.

    For every index pair (n, m) with |rho_nm| > tol the squared overlap
    |sum_j conj(k_jn) k_jm|^2 must reach 1 - tol. Raises NotGio when the
    channel is not diagonal.
    """
    _check_pair(ch, rho)
    coeffs = (ch if isinstance(ch, GioChannel) else GioChannel(ch.kraus_ops)).coefficients
    gram = coeffs.conj().T @ coeffs  # gram[n, m] = <k_n, k_m>
    # The first smallest overlap below 1 among the coupled pairs is the worst.
    rows, cols = _upper_pairs(rho.dim)
    coupled = np.abs(rho.matrix[rows, cols]) > tol
    overlap_sq = np.abs(gram[rows, cols][coupled]) ** 2
    worst = int(np.argmin(overlap_sq)) if overlap_sq.size else -1
    if worst < 0 or not overlap_sq[worst] < 1.0:
        return SaturationReport(True, None, 1.0, 0.0)
    n, m = int(rows[coupled][worst]), int(cols[coupled][worst])
    worst_value = float(overlap_sq[worst])
    # ||k_n - <k_m, k_n> k_m|| measures failure of k_n = alpha k_m.
    residual = coeffs[:, n] - gram[m, n] * coeffs[:, m]
    defect = float(np.linalg.norm(residual))
    return SaturationReport(worst_value >= 1.0 - tol, (n, m), worst_value, defect)


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
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
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
