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

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    ChannelValidationError,
    DimensionMismatch,
    NotGio,
    SingularState,
)
from .states import EPS_ZERO, DensityMatrix, trace_norm, validate_density, random_unitary

__all__ = [
    "COMPLETENESS_TOL",
    "MAX_EXTENSION_DIM",
    "KrausChannel",
    "GioChannel",
    "MeasurementOutcome",
    "SaturationReport",
    "PetzRecoveryMap",
    "identity_channel",
    "dephasing_channel",
    "depolarizing_extension",
    "erasure_extension",
    "diagonal_unitary_mixture",
    "random_gio",
    "random_channel",
    "random_unital_channel",
    "max_offdiagonal",
    "is_gio",
    "is_sio",
    "gio_saturation_check",
    "petz_recovery",
    "recovery_defect",
]

COMPLETENESS_TOL = 1e-10
DIAGONAL_TOL = 1e-12
# Largest ancilla dimension d accepted by the tensor-extension channels.
# They are stored as dense Kraus stacks on a d^2-dimensional space:
# 16 d^6 bytes for depolarizing_extension (16 MB at d = 10, 65 GB at
# d = 40), 16 d^5 bytes for erasure_extension.
MAX_EXTENSION_DIM = 10


@dataclass(frozen=True)
class MeasurementOutcome:
    probability: float
    state: DensityMatrix


class KrausChannel:
    """A completely positive map given by a stack of Kraus operators.

    Channels are trace preserving within COMPLETENESS_TOL. The adjoint
    returned by :meth:`dual` reuses this class with the completeness
    check relaxed, because the dual of a non-unital channel is not trace
    preserving.
    """

    def __init__(self, kraus_ops, label: str | None = None, *, require_trace_preserving: bool = True):
        ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
        if not ops:
            raise ChannelValidationError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0] if ops[0].ndim == 2 else 0
        for k in ops:
            if k.ndim != 2 or k.shape != (d, d):
                raise DimensionMismatch(f"Kraus operators must all be square of one size, got {k.shape}")
            if not np.all(np.isfinite(k.real)) or not np.all(np.isfinite(k.imag)):
                raise ChannelValidationError("Kraus operator contains non-finite entries")
        stack = np.stack(ops)
        stack.setflags(write=False)
        self._ops = stack
        self.label = label
        if require_trace_preserving:
            defect = self.completeness_defect()
            if defect > COMPLETENESS_TOL:
                raise ChannelValidationError(
                    f"sum K*K deviates from identity by {defect:.3e} (Frobenius)"
                )

    @property
    def dim(self) -> int:
        return self._ops.shape[1]

    @property
    def num_kraus(self) -> int:
        return self._ops.shape[0]

    @property
    def kraus_ops(self) -> np.ndarray:
        """Read-only stack of shape (num_kraus, dim, dim)."""
        return self._ops

    def completeness_defect(self) -> float:
        s = np.einsum("kij,kil->jl", self._ops.conj(), self._ops)
        return float(np.linalg.norm(s - np.eye(self.dim), "fro"))

    def is_unital(self, tol: float = COMPLETENESS_TOL) -> bool:
        s = np.einsum("kij,klj->il", self._ops, self._ops.conj())
        return bool(np.linalg.norm(s - np.eye(self.dim), "fro") <= tol)

    def _operand(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match channel dimension {self.dim}")
        return m

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action sum_k K m K* on an arbitrary matrix."""
        m = self._operand(m)
        return (self._ops @ m @ self._ops.conj().transpose(0, 2, 1)).sum(axis=0)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        """Apply to a state and revalidate the output."""
        if rho.dim != self.dim:
            raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {self.dim}")
        return validate_density(self.apply_matrix(rho.matrix))

    def dual(self) -> "KrausChannel":
        """Adjoint map with Kraus operators K*; unital iff this channel is trace preserving."""
        return KrausChannel(
            [k.conj().T for k in self._ops],
            label=None if self.label is None else f"dual({self.label})",
            require_trace_preserving=False,
        )

    def selective_outcomes(self, rho: DensityMatrix) -> list[MeasurementOutcome]:
        """Per-Kraus outcome list (p_k, K rho K*/p_k), zero-probability outcomes dropped."""
        if rho.dim != self.dim:
            raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {self.dim}")
        outcomes = []
        for k in self._ops:
            e = k @ rho.matrix @ k.conj().T
            p = float(np.real(np.trace(e)))
            if p <= EPS_ZERO:
                continue
            outcomes.append(MeasurementOutcome(p, validate_density(e / p)))
        return outcomes


def max_offdiagonal(kraus_ops: np.ndarray) -> float:
    """Largest off-diagonal modulus in a (num_kraus, d, d) stack.

    GioChannel accepts a stack when this is at most DIAGONAL_TOL.
    """
    off = np.abs(kraus_ops)
    idx = np.arange(off.shape[-1])
    off[:, idx, idx] = 0.0
    return float(off.max())


class GioChannel(KrausChannel):
    """A channel whose Kraus operators are all diagonal.

    Column n of the coefficient table holds the n-th diagonal entry of
    every Kraus operator; completeness makes each column a unit vector,
    so every incoherent state is a fixed point.
    """

    def __init__(self, kraus_ops, label: str | None = None):
        super().__init__(kraus_ops, label=label)
        offdiag = max_offdiagonal(self.kraus_ops)
        if offdiag > DIAGONAL_TOL:
            raise NotGio(f"Kraus operator has off-diagonal entry of modulus {offdiag:.3e}")
        coeffs = np.stack([np.diagonal(k).copy() for k in self.kraus_ops])
        coeffs.setflags(write=False)
        self._coeffs = coeffs

    @property
    def coefficients(self) -> np.ndarray:
        """Table of shape (num_kraus, dim); column n is the action on |n><n|."""
        return self._coeffs

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Schur product C o m with C = coeffs^T conj(coeffs), C_nm = sum_j k_jn conj(k_jm)."""
        return (self._coeffs.T @ self._coeffs.conj()) * self._operand(m)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim, dtype=complex)], label="identity")


def dephasing_channel(dim: int) -> GioChannel:
    """Kraus list {|n><n|}; the channel that removes all off-diagonals."""
    ops = [np.zeros((dim, dim), dtype=complex) for _ in range(dim)]
    for n in range(dim):
        ops[n][n, n] = 1.0
    return GioChannel(ops, label="dephase")


def _check_extension_dim(dim: int) -> None:
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
    eye = np.eye(dim, dtype=complex)
    ops = []
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0 / np.sqrt(dim)
            ops.append(np.kron(eye, e))
    return KrausChannel(ops, label=f"depol-ext:{dim}")


def erasure_extension(dim: int) -> KrausChannel:
    """Channel on a dim^2 space erasing the second factor to |0><0|.

    Kraus operators I (x) |0><j|. Strictly incoherent, not diagonal, and
    maps rho (x) I/dim back to rho (x) |0><0|.
    """
    _check_extension_dim(dim)
    eye = np.eye(dim, dtype=complex)
    ops = []
    for j in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[0, j] = 1.0
        ops.append(np.kron(eye, e))
    return KrausChannel(ops, label=f"erase-ext:{dim}")


def diagonal_unitary_mixture(weights, phase_table) -> GioChannel:
    """Channel sum_j w_j U_j rho U_j* with diagonal unitaries U_j.

    ``phase_table`` has one row of phases per unitary; Kraus operators
    are sqrt(w_j) diag(exp(i phases[j])).
    """
    w = np.asarray(weights, dtype=float)
    phases = np.asarray(phase_table, dtype=float)
    if w.ndim != 1 or phases.ndim != 2 or phases.shape[0] != w.size:
        raise BadWeights(f"need one phase row per weight, got {w.shape} weights and {phases.shape} phases")
    if np.any(w <= 0.0):
        raise BadWeights(f"weights must be strictly positive, smallest is {w.min():.3e}")
    if abs(w.sum() - 1.0) > 1e-10:
        raise BadWeights(f"weights sum to {w.sum()!r}, expected 1")
    ops = [np.sqrt(wj) * np.diag(np.exp(1j * row)) for wj, row in zip(w, phases)]
    return GioChannel(ops, label="diagonal-unitary-mixture")


def random_gio(dim: int, num_kraus: int, seed: int) -> GioChannel:
    """Random diagonal channel: each basis index gets a Haar-random unit
    coefficient vector across the Kraus operators."""
    if dim < 1 or num_kraus < 1:
        raise DimensionMismatch(f"need positive dimension and Kraus count, got {dim}, {num_kraus}")
    rng = np.random.default_rng(seed)
    coeffs = np.empty((num_kraus, dim), dtype=complex)
    for n in range(dim):
        v = rng.standard_normal(num_kraus) + 1j * rng.standard_normal(num_kraus)
        coeffs[:, n] = v / np.linalg.norm(v)
    return GioChannel([np.diag(coeffs[j]) for j in range(num_kraus)], label=f"random-gio:{dim}")


def random_channel(dim: int, num_kraus: int, seed: int) -> KrausChannel:
    """Random channel from a Haar isometry into dim * num_kraus dimensions."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim * num_kraus, dim)) + 1j * rng.standard_normal((dim * num_kraus, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return KrausChannel([q[i * dim : (i + 1) * dim, :] for i in range(num_kraus)], label=f"random:{dim}")


def random_unital_channel(dim: int, num_unitaries: int, seed: int) -> KrausChannel:
    """Random mixture of Haar unitaries; unital and trace preserving."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(num_unitaries))
    ops = [
        np.sqrt(w[i]) * random_unitary(dim, int(rng.integers(0, 2**31 - 1)))
        for i in range(num_unitaries)
    ]
    return KrausChannel(ops, label=f"random-unital:{dim}")


def is_gio(ch: KrausChannel, tol: float = 1e-10) -> bool:
    """True when every Kraus operator is diagonal and every incoherent
    basis state is a fixed point, both within tol.

    Classifies the supplied Kraus representation, not the channel's
    equivalence class.
    """
    if max_offdiagonal(ch.kraus_ops) > tol:
        return False
    # Diagonal Kraus plus completeness already fix |n><n|; check directly anyway.
    coeffs = np.stack([np.diagonal(k) for k in ch.kraus_ops])
    col_norms = np.sum(np.abs(coeffs) ** 2, axis=0)
    return bool(np.abs(col_norms - 1.0).max() <= tol)


def is_sio(ch: KrausChannel, tol: float = 1e-10) -> bool:
    """True when K_j Delta(X) K_j* = Delta(K_j X K_j*) for every Kraus
    operator and every matrix unit X = |n><m|."""
    d = ch.dim
    for k in ch.kraus_ops:
        for n in range(d):
            for m in range(d):
                rhs_diag = k[:, n] * k[:, m].conj()  # diagonal of K|n><m|K*
                if n == m:
                    lhs = np.outer(k[:, n], k[:, n].conj())
                    defect = np.abs(lhs - np.diag(rhs_diag)).max()
                else:
                    defect = np.abs(rhs_diag).max()
                if float(defect) > tol:
                    return False
    return True


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
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {ch.dim}")
    if isinstance(ch, GioChannel):
        coeffs = ch.coefficients
    else:
        if not is_gio(ch):
            raise NotGio("saturation check needs a channel with diagonal Kraus operators")
        coeffs = np.stack([np.diagonal(k) for k in ch.kraus_ops])
    gram = coeffs.conj().T @ coeffs  # gram[n, m] = <k_n, k_m>
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
    # ||k_n - <k_m, k_n> k_m|| measures failure of k_n = alpha k_m.
    residual = coeffs[:, n] - gram[m, n] * coeffs[:, m]
    defect = float(np.linalg.norm(residual))
    return SaturationReport(worst_value >= 1.0 - tol, worst_pair, worst_value, defect)


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
        omega = np.asarray(omega, dtype=complex)
        if omega.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"matrix shape {omega.shape} does not match map dimension {self.dim}")
        inner = self._out_inv_sqrt @ omega @ self._out_inv_sqrt
        return self._sigma_sqrt @ self._dual.apply_matrix(inner) @ self._sigma_sqrt

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        return validate_density(self(rho.matrix))


def _psd_power(matrix: np.ndarray, exponent: float, what: str) -> np.ndarray:
    h = (matrix + matrix.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    if exponent < 0 and vals.min() <= EPS_ZERO:
        raise SingularState(f"{what} has eigenvalue {vals.min():.3e}, full rank required")
    vals = np.clip(vals, EPS_ZERO if exponent < 0 else 0.0, None)
    return (vecs * vals**exponent) @ vecs.conj().T


def petz_recovery(ch: KrausChannel, sigma) -> PetzRecoveryMap:
    """Recovery map for a channel relative to a full-rank positive sigma.

    Satisfies recovery(ch.apply(sigma)) = sigma; for a unital channel
    and sigma proportional to the identity it reduces to the dual map.
    """
    s = sigma.matrix if isinstance(sigma, DensityMatrix) else np.asarray(sigma, dtype=complex)
    if s.shape != (ch.dim, ch.dim):
        raise DimensionMismatch(f"reference shape {s.shape} does not match channel dimension {ch.dim}")
    sigma_sqrt = _psd_power(s, 0.5, "reference operator")
    out = ch.apply_matrix(s)
    out_inv_sqrt = _psd_power(out, -0.5, "channel output of reference")
    return PetzRecoveryMap(sigma_sqrt, out_inv_sqrt, ch.dual())


def recovery_defect(ch: KrausChannel, rho: DensityMatrix) -> float:
    """Trace-norm distance between rho and Dual(ch(rho)), for unital ch.

    Vanishes exactly when a diagonal channel saturates the coherence
    monotonicity on rho.
    """
    if rho.dim != ch.dim:
        raise DimensionMismatch(f"state dimension {rho.dim} does not match channel dimension {ch.dim}")
    roundtrip = ch.dual().apply_matrix(ch.apply_matrix(rho.matrix))
    return trace_norm(rho.matrix - roundtrip)
