"""Validated quantum states and dense linear-algebra helpers.

All states are dense complex matrices in a fixed computational basis.
Validation is tolerance-based: a candidate density matrix may carry
floating-point noise up to the documented tolerances and is cleaned up
(eigenvalues clipped to [0, 1], trace renormalized) on acceptance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    StateValidationError,
    TraceNotOne,
)

__all__ = [
    "TOL_HERM",
    "TOL_TRACE",
    "TOL_PSD",
    "TOL_RECON",
    "TOL_ORTH",
    "TOL_NORM",
    "EPS_ZERO",
    "DensityMatrix",
    "PureState",
    "SpectralDecomposition",
    "validate_density",
    "decompose_hermitian",
    "spectral_decompose",
    "trace_norm",
    "tensor",
    "random_pure",
    "random_density",
    "random_unitary",
]

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_RECON = 1e-10
TOL_ORTH = 1e-10
TOL_NORM = 1e-10

# Eigenvalues at or below this are treated as exactly zero downstream.
EPS_ZERO = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_square(matrix, what: str = "matrix") -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise StateValidationError(f"{what} contains non-finite entries")
    return m


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix: Hermitian, positive semidefinite, unit trace.

    Instances are immutable. Construct through :func:`validate_density`
    (tolerant of floating-point noise) or one of the exact factories.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, "density matrix")
        object.__setattr__(self, "matrix", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal_probabilities(self) -> np.ndarray:
        """Diagonal entries as a real vector, tiny negatives clipped to 0."""
        return np.clip(np.real(np.diagonal(self.matrix)), 0.0, None)

    @cached_property
    def _spectrum(self) -> np.ndarray:
        # The matrix is a frozen copy, so one eigensolve serves every call.
        try:
            vals = np.linalg.eigvalsh(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        return _frozen(vals[::-1].copy())

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, as a fresh writable array."""
        return self._spectrum.copy()

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Kronecker product with another state."""
        return DensityMatrix(np.kron(self.matrix, other.matrix))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim)

    @classmethod
    def from_diagonal(cls, probabilities) -> "DensityMatrix":
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise DimensionMismatch("probabilities must be a non-empty vector")
        if np.any(p < -TOL_PSD):
            raise NotPositive(f"negative probability {p.min():.3e}")
        total = float(np.clip(p, 0.0, None).sum())
        if abs(total - 1.0) > TOL_TRACE:
            raise TraceNotOne(f"probabilities sum to {total!r}")
        p = np.clip(p, 0.0, None) / total
        return cls(np.diag(p).astype(complex))


@dataclass(frozen=True)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1 or a.size == 0:
            raise DimensionMismatch("amplitudes must be a non-empty vector")
        if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
            raise StateValidationError("amplitudes contain non-finite entries")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > TOL_NORM:
            raise StateValidationError(f"vector norm is {norm!r}, expected 1")
        object.__setattr__(self, "amplitudes", _frozen(a.copy()))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def as_density(self) -> DensityMatrix:
        """Rank-one projector onto this vector."""
        a = self.amplitudes
        return DensityMatrix(np.outer(a, a.conj()))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) with matching orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=complex)
        object.__setattr__(self, "eigenvalues", _frozen(vals.copy()))
        object.__setattr__(self, "eigenvectors", _frozen(vecs.copy()))

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix as V diag(w) V*."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        return float(np.abs(v.conj().T @ v - np.eye(self.dim)).max())


def validate_density(
    matrix,
    *,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
) -> DensityMatrix:
    """Check matrix against the density-matrix invariants and clean it up.

    Raises NotHermitian, TraceNotOne or NotPositive (naming the worst
    offending magnitude) when the defect exceeds its tolerance. Within
    tolerance, eigenvalues are clipped to [0, 1] and renormalized so the
    returned state is exactly usable downstream.
    """
    m = _as_square(matrix, "density matrix")
    herm_defect = float(np.abs(m - m.conj().T).max())
    if herm_defect > tol_herm:
        raise NotHermitian(f"hermiticity defect {herm_defect:.3e} exceeds {tol_herm:.1e}")
    trace_defect = abs(complex(np.trace(m)) - 1.0)
    if trace_defect > tol_trace:
        raise TraceNotOne(f"trace defect {trace_defect:.3e} exceeds {tol_trace:.1e}")
    h = (m + m.conj().T) / 2.0
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    if vals.min() < -tol_psd:
        raise NotPositive(f"most negative eigenvalue {vals.min():.3e} exceeds {tol_psd:.1e}")
    clipped = np.clip(vals, 0.0, 1.0)
    clipped /= clipped.sum()
    return DensityMatrix((vecs * clipped) @ vecs.conj().T)


def decompose_hermitian(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    m = _as_square(matrix)
    try:
        vals, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    order = np.arange(vals.size)[::-1]
    return SpectralDecomposition(vals[order], vecs[:, order])


def spectral_decompose(rho: DensityMatrix) -> SpectralDecomposition:
    """Spectral decomposition of a density matrix."""
    return decompose_hermitian(rho.matrix)


def trace_norm(matrix) -> float:
    """Sum of singular values."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {m.shape}")
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return float(s.sum())


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def random_pure(dim: int, seed: int) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Random density matrix G G* / Tr(G G*) with G of shape (dim, rank)."""
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")
    if not 1 <= rank <= dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return DensityMatrix(m / np.real(np.trace(m)))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
