"""Validated quantum states and dense linear-algebra helpers.

All states are dense complex matrices in a fixed computational basis.
Validation is tolerance-based: a candidate density matrix may carry
floating-point noise up to the documented tolerances and is cleaned up
(eigenvalues clipped to [0, 1], trace renormalized) on acceptance.

Each state is eigendecomposed at most once: ``validate_density`` seeds
its cached decomposition from the eigh that cleans the matrix, and a
stacked eigh solves any other state on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "TOL_NORM",
    "EPS_ZERO",
    "DensityMatrix",
    "PureState",
    "SpectralDecomposition",
    "validate_density",
    "spectral_decompose",
    "spectra",
    "trace_norm",
    "random_pure",
    "random_density",
    "random_unitary",
]

TOL_HERM = 1e-10
TOL_TRACE = 1e-10
TOL_PSD = 1e-9
TOL_NORM = 1e-10

# Eigenvalues at or below this are treated as exactly zero downstream.
EPS_ZERO = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise DimensionMismatch(f"dimension must be positive, got {dim}")


def _as_square(matrix, what: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Complex array of ``ndim`` axes whose last two are square and
    non-empty, all finite."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise DimensionMismatch(f"{what} must be square and non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateValidationError(f"{what} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix: Hermitian, positive semidefinite, unit trace.

    Instances are immutable. Construct through :func:`validate_density`
    (tolerant of floating-point noise) or one of the exact factories.
    """

    matrix: np.ndarray
    # Not a field: the SpectralDecomposition that _store sets once.
    _decomposition = None

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, "density matrix")
        object.__setattr__(self, "matrix", _frozen(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def diagonal_probabilities(self) -> np.ndarray:
        """Diagonal entries as a real vector, tiny negatives clipped to 0."""
        return np.clip(np.real(np.diagonal(self.matrix)), 0.0, None)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, as a fresh writable array."""
        return _decomposed((self,))[0].eigenvalues.copy()

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Kronecker product with another state."""
        return DensityMatrix(np.kron(self.matrix, other.matrix))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        _check_dim(dim)
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) with matching orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.eigenvalues, dtype=float)
        vecs = np.asarray(self.eigenvectors, dtype=complex)
        object.__setattr__(self, "eigenvalues", _frozen(vals.copy()))
        object.__setattr__(self, "eigenvectors", _frozen(vecs.copy()))


def validate_density(matrix) -> DensityMatrix | list[DensityMatrix]:
    """Check matrix against the density-matrix invariants and clean it up.

    Raises NotHermitian, TraceNotOne or NotPositive (naming the worst
    offending magnitude) when the defect exceeds TOL_HERM, TOL_TRACE or
    TOL_PSD. Within tolerance, eigenvalues are clipped to [0, 1] and
    renormalized so the returned state is exactly usable downstream. It
    keeps that spectrum and its eigenvectors as its decomposition, and
    is never solved again.

    A (d, d) matrix gives one DensityMatrix. An (n, d, d) stack gives a
    list of n, empty for n = 0, checked together with one stacked eigh;
    each equals, byte for byte, the state its matrix gives alone. A
    stack is checked for hermiticity, then trace, then positivity, and
    raises the error of the first matrix that fails the first failing
    check, so a stack with one bad matrix raises what that matrix raises
    alone.
    """
    m = np.asarray(matrix, dtype=complex)
    m = _as_square(m, "density matrix", 3 if m.ndim == 3 else 2)
    if m.size == 0:
        return []
    stack = m.reshape((-1,) + m.shape[-2:])
    adjoint = stack.conj().swapaxes(-1, -2)
    asymmetry = np.abs(stack - adjoint)
    if asymmetry.max() > TOL_HERM:
        defect = _first_above(asymmetry.max(axis=(-2, -1)), TOL_HERM)
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e}")
    trace_defect = abs(stack.trace(axis1=-2, axis2=-1) - 1.0)
    if (trace_defect > TOL_TRACE).any():
        defect = _first_above(trace_defect, TOL_TRACE)
        raise TraceNotOne(f"trace defect {defect:.3e} exceeds {TOL_TRACE:.1e}")
    vals, vecs = _eigh((stack + adjoint) / 2.0)
    if vals.min() < -TOL_PSD:
        lowest = -_first_above(-vals.min(axis=-1), TOL_PSD)
        raise NotPositive(f"most negative eigenvalue {lowest:.3e} exceeds {TOL_PSD:.1e}")
    clipped = np.clip(vals, 0.0, 1.0)
    clipped /= clipped.sum(axis=-1, keepdims=True)
    cleaned = (vecs * clipped[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    states = [DensityMatrix(c) for c in cleaned]
    _store(states, clipped, vecs)
    return states if m.ndim == 3 else states[0]


def _first_above(defects: np.ndarray, tol: float) -> float:
    """The first of the per-matrix defects above tol."""
    return defects[defects > tol][0]


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _store(states, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Cache on each state its row of a stacked eigh (ascending values)."""
    for s, w, v in zip(states, vals, vecs):
        object.__setattr__(s, "_decomposition", SpectralDecomposition(w[::-1], v[:, ::-1]))


def _decomposed(states) -> list["SpectralDecomposition"]:
    """The decompositions of states, solving those without one (each
    once, however often it is listed) in one stacked eigh, which gives
    each matrix the bits it gets alone."""
    todo = list({id(s): s for s in states if s._decomposition is None}.values())
    if todo:
        _store(todo, *_eigh(np.array([s.matrix for s in todo])))
    return [s._decomposition for s in states]


def spectral_decompose(rho: DensityMatrix) -> SpectralDecomposition:
    """Spectral decomposition of a density matrix, eigenvalues descending.

    Solved once per state; later calls return the same read-only result.
    """
    return _decomposed((rho,))[0]


def spectra(states) -> np.ndarray:
    """Descending eigenvalues of states of one dimension, as an (n, d) array.

    The states without a cached decomposition are solved in one stacked
    eigh and keep the result.
    """
    dims = {s.dim for s in states}
    if len(dims) != 1:
        raise DimensionMismatch(f"need states of one dimension, got dimensions {sorted(dims)}")
    return np.array([dec.eigenvalues for dec in _decomposed(states)])


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


def random_pure(dim: int, seed: int) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    _check_dim(dim)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Random density matrix G G* / Tr(G G*) with G of shape (dim, rank)."""
    return DensityMatrix(_wishart(dim, rank, seed))


def _wishart(dim: int, rank: int, seed: int) -> np.ndarray:
    """The matrix of random_density(dim, rank, seed), as a plain array."""
    _check_dim(dim)
    if not 1 <= rank <= dim:
        raise DimensionMismatch(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.real(np.trace(m))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    _check_dim(dim)
    return _haar_isometry(np.random.default_rng(seed), dim, dim)


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-random (rows, cols) isometry from the QR of a complex Gaussian block."""
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
