"""Validated quantum states and dense linear-algebra helpers.

All states are dense complex matrices in a fixed computational basis.
Validation is tolerance-based: a candidate density matrix may carry
floating-point noise up to the documented tolerances and is cleaned up
(eigenvalues clipped to [0, 1], trace renormalized) on acceptance.

Each state is eigendecomposed at most once: ``validate_density`` seeds
its cached decomposition from the eigh that cleans the matrix, the
diagonal factories (``from_diagonal``, through it ``dephase``, and
``maximally_mixed``) store their sorted diagonal and unit columns
without an eigensolve, and a stacked eigh solves any other state on
first use. Every eigensolve goes through ``_eigh``, which maps a LAPACK
failure to ConvergenceFailure.

Every coherence table reads its states as (spectrum, clipped diagonal)
rows through one reader, ``_read``: ``_rows`` reads state objects,
``_drawn`` a raw stack of matrices after one stacked eigh, and a stack
cleaned by ``_cleaned``, the checks and cleanup of ``validate_density``,
is read with its cleaned spectra, all with the same bits.

The seeded draws are stacked: a draw takes a sequence of seeds or seed
records, creates one Generator per seed with the bytes of
``np.random.default_rng(seed)``, takes each Generator's raw Gaussian
blocks in the order of the one-seed draw, and then runs the algebra
(Wishart product, normalisation, QR and phase fix) once per stack of one
shape. Each row has the bytes of its one-seed draw, and the public draws
are the one-seed calls. A public draw checks its sizes before it creates
a Generator; the stacked draws trust their callers for sizes and check
only the seeds.

Seeding follows numpy's SeedSequence, whose hash is fixed 32-bit
arithmetic: ``_seed_states`` runs it for many seeds at once. A
verification suite's seeds, and the seeds a random unital channel draws
for its unitaries, are records (``_records``) that carry their PCG64
seeding words, hashed in one pass, and the Generator of a record is built
on them; a plain seed, such as that of a public draw, goes through
``default_rng``.

Two private rules decide whether a caller's numeric input is usable, for
this module, ``channels`` and ``divergence`` alike: ``_size_fault`` for a
size and ``_as_array`` for an array, which maps every conversion failure
to a typed error.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotHermitian,
    NotPositive,
    ParamOutOfRange,
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


def _is_int(x) -> bool:
    """An integer other than bool: a Python int or any numbers.Integral,
    numpy's integers included."""
    return type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _size_fault(n) -> str:
    """The size rule: "" for an integer n >= 1 other than bool for which
    numpy can address an n x n complex matrix (16 n^2 bytes within the
    maximum of np.intp, which is sys.maxsize), else the word n fails:
    "integer", "positive" or "addressable"."""
    if not _is_int(n):
        return "integer"
    if n < 1:
        return "positive"
    return "" if 16 * n * n <= sys.maxsize else "addressable"


def _check_dim(dim: int) -> None:
    if fault := _size_fault(dim):
        raise DimensionMismatch(f"dimension must be {fault}, got {dim!r}")


def _as_array(x, dtype, what: str, error=None, ndims=(), square: bool = False) -> np.ndarray:
    """The array rule: x as a numpy array of dtype, x itself where it is one.

    An input numpy cannot convert (a string, a ragged list, an integer too
    large for a float) raises DimensionMismatch. With an error class,
    every entry must be finite, or that error. With ndims, the array must
    have one of those numbers of axes, non-empty matrix sides (its last two
    axes, or a vector's one; a leading stack axis may be empty) and, if
    square, square matrices, or DimensionMismatch, which comes first. A
    range(1, 65) or range(2, 65) of numbers of axes, every count numpy
    allows from one or two, is a stack of vectors or of matrices.
    """
    try:
        a = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DimensionMismatch(f"{what} is not an array of numbers: {exc}") from None
    sides = a.shape[-min(ndims[0], 2) :] if ndims else ()
    if ndims and (a.ndim not in ndims or 0 in sides or square and sides[0] != sides[-1]):
        shape = "square and non-empty" if square else f"a non-empty {'vector' if ndims[0] == 1 else 'matrix'}"
        raise DimensionMismatch(f"{what} must be {shape}, got shape {a.shape}")
    if error and not np.isfinite(a).all():
        raise error(f"{what} contains non-finite entries")
    return a


def _as_square(matrix, what: str = "matrix", ndims=(2,)) -> np.ndarray:
    """A complex array of ndims axes whose last two are square and
    non-empty, all finite, by the array rule."""
    return _as_array(matrix, complex, what, StateValidationError, ndims, square=True)


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
        return np.maximum(self.matrix.diagonal().real, 0.0)

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in descending order, as a fresh writable array."""
        return (self._decomposition or _decomposed((self,))[0]).eigenvalues.copy()

    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Kronecker product with another state."""
        return DensityMatrix(np.kron(self.matrix, other.matrix))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        """I / dim, with its decomposition as from_diagonal gives it."""
        _check_dim(dim)
        return cls._diagonal(np.full(dim, 1.0 / dim))

    @classmethod
    def from_diagonal(cls, probabilities) -> "DensityMatrix":
        """The diagonal state of these probabilities, tiny negatives
        clipped to 0 and the sum renormalised to 1.

        The state carries its decomposition, so it is never solved: the
        probabilities in stable ascending order, its exact eigenvalues and
        the bits eigh gives its matrix, with the matching unit columns.
        Where a value above the smallest is tied, the unit columns of the
        tie keep the stable order, which eigh's closing selection sort may
        not.
        """
        p = _as_array(probabilities, float, "probabilities", ndims=(1,))
        if np.any(p < -TOL_PSD):
            raise NotPositive(f"negative probability {p.min():.3e}")
        total = float(np.clip(p, 0.0, None).sum())
        if abs(total - 1.0) > TOL_TRACE:
            raise TraceNotOne(f"probabilities sum to {total!r}")
        if not np.isfinite(p).all():
            raise StateValidationError("density matrix contains non-finite entries")
        return cls._diagonal(np.clip(p, 0.0, None) / total)

    @classmethod
    def _diagonal(cls, p: np.ndarray) -> "DensityMatrix":
        """The state diag(p) of finite p, built in place and adopted with
        no copy, its decomposition stored as an eigh would be."""
        m = np.zeros((p.size, p.size), dtype=complex)
        np.fill_diagonal(m, p)
        order = np.argsort(p, kind="stable")
        vecs = np.zeros((1, p.size, p.size), dtype=complex)
        vecs[0, order, np.arange(p.size)] = 1.0
        return _store(_views(m[None]), p[order][None], vecs)[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = _as_array(self.amplitudes, complex, "amplitude vector", StateValidationError, (1,))
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
    """Eigenvalues (descending) with matching orthonormal column eigenvectors.

    A state's decomposition keeps read-only rows of the stacked eigh that
    solved it, as given, not copied; a diagonal factory's state keeps its
    sorted diagonal and unit columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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
    m = _as_array(matrix, complex, "density matrix", ndims=(2, 3), square=True)
    matrices, clipped, vecs = _cleaned(m.reshape((-1,) + m.shape[-2:]))
    states = _store(_views(matrices), clipped, vecs)
    return states if m.ndim == 3 else states[0]


def _cleaned(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """validate_density's checks and cleanup of an (n, d, d) complex stack,
    n >= 0: the cleaned matrices, their clipped spectra in ascending order
    and the eigenvectors of the one stacked eigh, as fresh arrays."""
    if not np.isfinite(stack).all():
        raise StateValidationError("density matrix contains non-finite entries")
    adjoint = stack.conj().swapaxes(-1, -2)
    asymmetry = np.abs(stack - adjoint)
    if asymmetry.max(initial=0.0) > TOL_HERM:
        defect = _first_above(asymmetry.max(axis=(-2, -1)), TOL_HERM)
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e}")
    trace_defect = abs(stack.trace(axis1=-2, axis2=-1) - 1.0)
    if (trace_defect > TOL_TRACE).any():
        defect = _first_above(trace_defect, TOL_TRACE)
        raise TraceNotOne(f"trace defect {defect:.3e} exceeds {TOL_TRACE:.1e}")
    vals, vecs = _eigh((stack + adjoint) / 2.0)
    if vals.min(initial=0.0) < -TOL_PSD:
        lowest = -_first_above(-vals.min(axis=-1), TOL_PSD)
        raise NotPositive(f"most negative eigenvalue {lowest:.3e} exceeds {TOL_PSD:.1e}")
    clipped = vals.clip(0.0, 1.0)
    clipped /= clipped.sum(axis=-1, keepdims=True)
    return (vecs * clipped[..., None, :]) @ vecs.conj().swapaxes(-1, -2), clipped, vecs


def _views(stack: np.ndarray) -> list[DensityMatrix]:
    """The states whose matrices are the rows of a finite (n, d, d) complex
    stack that nothing else writes to, frozen in place: each is the state
    DensityMatrix gives its row, with no check or copy of its own."""
    states = [DensityMatrix.__new__(DensityMatrix) for _ in stack]
    for rho, m in zip(states, _frozen(np.ascontiguousarray(stack))):
        object.__setattr__(rho, "matrix", m)
    return states


def _first_above(defects: np.ndarray, tol: float) -> float:
    """The first of the per-matrix defects above tol."""
    return defects[defects > tol][0]


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigh of a complex (d, d) matrix or (n, d, d) stack, raising
    ConvergenceFailure where LAPACK fails."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def _store(states, vals: np.ndarray, vecs: np.ndarray):
    """Cache on each state its rows of a stacked eigh (ascending values),
    reversed and frozen once for the whole stack; returns the states."""
    vals, vecs = _frozen(vals[:, ::-1].copy()), _frozen(vecs[..., ::-1].copy())
    for s, w, v in zip(states, vals, vecs):
        object.__setattr__(s, "_decomposition", SpectralDecomposition(w, v))
    return states


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
    """Descending eigenvalues of states of one dimension, as an (n, d)
    array; (0, 0) for no states.

    The states without a cached decomposition are solved in one stacked
    eigh and keep the result.
    """
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionMismatch(f"need states of one dimension, got dimensions {sorted(dims)}")
    return np.array([dec.eigenvalues for dec in _decomposed(states)]) if dims else np.zeros((0, 0))


def _rows(states) -> np.ndarray:
    """The rows _read gives n >= 1 states of one dimension, from their
    spectra as ``spectra`` gives them, reversed to ascending order."""
    return _read(spectra(states)[:, ::-1], [s.matrix.diagonal().real for s in states])


def _read(vals, diagonals) -> np.ndarray:
    """The (2, n, d) rows of n states of one dimension, the one reader of
    every coherence table: their spectra in descending order, from their
    (n, d) ascending eigenvalues vals, and their real diagonals, clipped
    at 0 as ``diagonal_probabilities`` clips them. A fresh writable array.

    A stack of matrices read with the cleaned spectra of _cleaned gives
    the rows of the states validate_density makes of it, with no state
    object; _drawn reads a stack as it is."""
    return np.array((vals[..., ::-1], np.maximum(diagonals, 0.0)))


def _drawn(stack: np.ndarray) -> np.ndarray:
    """The rows _read gives the states of a finite (n, d, d) complex stack,
    n >= 0, from one stacked eigh of the matrices as they are: those of the
    states _views adopts it as, with no state object."""
    return _read(_eigh(stack)[0], stack.diagonal(axis1=1, axis2=2).real)


def trace_norm(matrix) -> float:
    """Sum of singular values."""
    m = _as_array(matrix, complex, "operand", StateValidationError, (2,))
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return float(s.sum())


@functools.cache
def _words_type() -> type:
    """The type of a seed's four PCG64 seeding words, SeedSequence(seed).
    generate_state(4, np.uint64), which hand themselves over as numpy's
    ISeedSequence: a real subclass, so PCG64 checks it with no ABC
    registry lookup, created on first use, as numpy.random loads then."""

    class _Words(np.ndarray, np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=None) -> np.ndarray:
            return self

    return _Words


def _hashmix(v: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the uint32 words v, with the hash constant
    x before its step and m after it."""
    v = (v ^ x) * m
    return v ^ v >> 16


@functools.lru_cache(maxsize=8)
def _hash_tables(rounds: int, n_words: int) -> tuple:
    """The uint32 hash constants of _seed_states, as columns: (x, m) of the
    pool's first hashmix, of each mixing round, and of the output, and the
    pool word each output word hashes.

    A hash constant is multiplied by a fixed factor at each step, whatever
    the data, so step i's constant start * mult**i mod 2**32 (a product mod
    2**64 keeps its low 32 bits) serves every column. Round r < 4 mixes into
    pool word j at step 4 + 3r + j - (j > r), skipping word r, whose entry
    is unused; round r >= 4 at step 4r + j."""
    h = np.cumprod([0x43B0D7E5] + [0x931E8875] * (4 * rounds + 1), dtype=np.uint64).astype(np.uint32)[:, None]
    k = np.array([[4 + 3 * r + j - (j > r) if r < 4 else 4 * r + j for j in range(4)] for r in range(rounds)])
    out = np.cumprod([0x8B51F9DD] + [0x58F38DED] * n_words, dtype=np.uint64).astype(np.uint32)[:, None]
    return (h[:4], h[1:5]), list(zip(h[k], h[k + 1])), (out[:-1], out[1:]), np.arange(n_words) % 4


def _seed_states(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """Row i: np.random.SeedSequence(entropy[:, i]).generate_state(n_words),
    for an (L, n) uint32 array whose column i holds L >= 1 entropy words.

    This is numpy's algorithm on all columns at once, the same integer
    steps, with the constants of _hash_tables: the 4-word pool takes the
    hashmix of the first four words, absent ones hashed as 0; round r < 4
    mixes the hashmix of pool word r into each other pool word, and round
    r >= 4 that of word r into every pool word; the output hashes the pool
    words in turn.
    """
    start, rounds, output, cycle = _hash_tables(max(len(entropy), 4), n_words)
    absent = np.zeros((4, entropy.shape[1]), np.uint32)  # absent words hash as 0
    pool = _hashmix(np.concatenate((entropy[:4], absent))[:4], *start)
    for i, (x, m) in enumerate(rounds):
        mixed = pool * 0xCA01F9DD - _hashmix(pool[i] if i < 4 else entropy[i], x, m) * 0x4973F715
        mixed ^= mixed >> 16
        mixed[i : i + 1], pool = pool[i : i + 1], mixed  # the slice is empty past the pool
    return _hashmix(pool[cycle], *output).T.copy()


def _suite_seeds(master: int, cases: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The (n, 6) _records of a suite's trials, hashed in one pass: row i's
    seeds are SeedSequence((master, cases[i], trials[i])).generate_state(6),
    for cases and trials below 2**32."""
    words = [int(master) >> 32 * i & 0xFFFFFFFF for i in range(max(1, -(-int(master).bit_length() // 32)))]
    return _records(_seed_states(np.array([np.full(len(cases), w) for w in words] + [cases, trials], np.uint32), 6))


def _records(seeds) -> np.ndarray:
    """The seed records of an array of integer seeds in [0, 2**32), hashed in
    one pass: field "seed" holds the seed and field "words" its four PCG64
    seeding words, as default_rng(seed) has SeedSequence(seed) derive them."""
    seeds = np.asarray(seeds, dtype=np.uint32)
    pcg = _seed_states(seeds.reshape(1, -1), 8).astype("<u4", copy=False).view("<u8")
    records = np.empty(seeds.shape, [("seed", np.int64), ("words", np.uint64, 4)])
    records["seed"], records["words"] = seeds, pcg.reshape(*seeds.shape, 4)
    return records


def _generators(seeds) -> list[np.random.Generator]:
    """One Generator per seed, with the bytes of np.random.default_rng(seed):
    a seed record's PCG64 is seeded from its words; any other seed is
    checked to be an integer other than bool and at least 0."""
    rnd = np.random
    if isinstance(seeds, np.ndarray) and seeds.dtype.names:
        return [rnd.Generator(rnd.PCG64(w)) for w in seeds["words"].view(_words_type())]
    seeds = seeds.tolist() if isinstance(seeds, np.ndarray) else list(seeds)
    for s in seeds:
        if not _is_int(s) or s < 0:
            raise ParamOutOfRange(f"seed must be a non-negative integer, got {s!r}")
    return [rnd.default_rng(s) for s in seeds]


def _groups(keys: np.ndarray):
    """(key, rows) for each distinct key in order of first appearance,
    rows the indices that carry it."""
    for key in dict.fromkeys(keys.tolist()):
        yield key, (keys == key).nonzero()[0]


def _per_row(value, seeds) -> tuple[np.ndarray, np.ndarray]:
    """seeds as an array, and value, one per seed or one for all, as an
    array of the same length."""
    seeds, value = np.asarray(seeds), np.asarray(value)
    return seeds, value if value.ndim else np.full(len(seeds), value)


def _normals(seeds, shape: tuple) -> np.ndarray:
    """An (n, *shape) array whose row i holds the standard normals that the
    Generator of seeds[i] draws in C order."""
    rngs = _generators(seeds)
    z = np.empty((len(rngs), *shape))
    for rng, row in zip(rngs, z):
        rng.standard_normal(out=row)
    return z


def _complex_normals(seeds, shape: tuple) -> np.ndarray:
    """Row i: re + 1j * im, with re and then im two blocks of the given
    shape drawn in turn by the Generator of seeds[i]."""
    z = _normals(seeds, (2, *shape))
    return z[:, 0] + 1j * z[:, 1]


def _normalized(v: np.ndarray) -> np.ndarray:
    """Each vector along the last axis of v divided by its np.linalg.norm.

    np.linalg.norm of one complex vector is the root of two BLAS dots
    over its strided real and imaginary views; the stacked row-by-column
    products on the same views run the same dots.
    """
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return v / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]


def _pure_vectors(dim: int, seeds) -> np.ndarray:
    """The amplitudes of random_pure(dim, s) for each seed s, as an (n, dim)
    array; dim unchecked."""
    return _normalized(_complex_normals(seeds, (dim,)))


def _projectors(v: np.ndarray) -> np.ndarray:
    """The (n, d, d) projectors onto the rows of an (n, d) array, each as
    PureState.as_density builds it."""
    return v[:, :, None] * v.conj()[:, None, :]


def _wisharts(dim: int, ranks, seeds) -> np.ndarray:
    """The matrices of random_density(dim, r, s) for each rank r (one per
    seed, or one for all) and seed s, as an (n, dim, dim) array, with one
    Wishart product per distinct rank; dim and ranks unchecked."""
    seeds, ranks = _per_row(ranks, seeds)
    out = np.empty((len(seeds), dim, dim), dtype=complex)
    for rank, rows in _groups(ranks):
        g = _complex_normals(seeds[rows], (dim, rank))
        m = g @ g.conj().swapaxes(-1, -2)
        m = (m + m.conj().swapaxes(-1, -2)) / 2.0
        out[rows] = m / m.trace(axis1=-2, axis2=-1).real[:, None, None]
    return out


def _haar(rows: int, cols: int, seeds) -> np.ndarray:
    """Haar-random (rows, cols) isometries, one per seed, from one stacked
    QR of complex Gaussian blocks, with the phases of R's diagonal moved
    into Q."""
    q, r = np.linalg.qr(_complex_normals(seeds, (rows, cols)))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def random_pure(dim: int, seed: int) -> PureState:
    """Haar-random pure state: normalized complex Gaussian vector."""
    _check_dim(dim)
    return PureState(_pure_vectors(dim, [seed])[0])


def random_density(dim: int, rank: int, seed: int) -> DensityMatrix:
    """Random density matrix G G* / Tr(G G*) with G of shape (dim, rank)."""
    _check_dim(dim)
    if not (_is_int(rank) and 1 <= rank <= dim):
        raise DimensionMismatch(f"rank must be an integer in [1, {dim}], got {rank!r}")
    return DensityMatrix(_wisharts(dim, rank, [seed])[0])


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    _check_dim(dim)
    return _haar(dim, dim, [seed])[0]
