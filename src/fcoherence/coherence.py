"""Coherence measures built from the entropy functionals.

Both measures compare a state against its dephased (diagonal) version in
the fixed computational basis:

    coherence_f(rho)     = sum_j p_j f(1/(d p_j)) - sum_j c_j f(1/(d c_j))
    coherence_f_hat(rho) = sum_j p_j f(1/p_j)     - sum_j c_j f(1/c_j)

with p_j the eigenvalues and c_j the diagonal entries of rho. For
f = neg_log the two coincide with the relative entropy of coherence.

``coherence_table`` scores many states under many generators at once:
one stacked eigensolve for the states without a cached decomposition, one
diagonal extraction, and one ``f_weighted_sum`` per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .divergence import f_weighted_sum, spectral_sums
from .errors import ParamOutOfRange
from .generators import GeneratorFunction
from .states import EPS_ZERO, DensityMatrix, PureState, _check_dim, spectra, trace_norm

__all__ = [
    "CoherenceResult",
    "PowerCoherence",
    "dephase",
    "coherence_f",
    "coherence_f_hat",
    "coherence_table",
    "relative_entropy_coherence",
    "power_coherence",
    "dephasing_distance",
    "max_coherent_state",
]


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Project onto the diagonal in the computational basis."""
    return DensityMatrix.from_diagonal(rho.diagonal_probabilities())


@dataclass(frozen=True, eq=False)
class CoherenceResult:
    """A coherence value with the spectral data it was computed from."""

    value: float
    f_name: str
    variant: str  # "plain" or "hat"
    eigenvalues: np.ndarray
    diagonal: np.ndarray


class PowerCoherence(NamedTuple):
    plain: float
    hat: float


def _coherence(rho: DensityMatrix, f: GeneratorFunction, numerator: float, variant: str) -> CoherenceResult:
    evals, diag = rho.eigenvalues(), rho.diagonal_probabilities()
    value = f_weighted_sum(evals, numerator, f) - f_weighted_sum(diag, numerator, f)
    return CoherenceResult(value, f.name, variant, evals, diag)


def coherence_f(rho: DensityMatrix, f: GeneratorFunction) -> CoherenceResult:
    """Dimension-scaled coherence, the entropy gain of dephasing.

    Equals f_entropy(dephase(rho)) - f_entropy(rho). Nonnegative and at
    most f(1/d) for operator monotone decreasing generators.
    """
    return _coherence(rho, f, 1.0 / rho.dim, "plain")


def coherence_f_hat(rho: DensityMatrix, f: GeneratorFunction) -> CoherenceResult:
    """Unscaled coherence, equal to f_entropy_hat(dephase(rho)) - f_entropy_hat(rho).

    Nonnegative and at most -f(d) for operator monotone decreasing
    generators, with the maximum attained on the uniform-superposition
    state.
    """
    return _coherence(rho, f, 1.0, "hat")


def coherence_table(states, gens) -> np.ndarray:
    """coherence_f and coherence_f_hat of every state under every generator.

    The states share one dimension. Returns shape (len(states),
    len(gens), 2) with the plain value in [..., 0] and the hat value in
    [..., 1], equal bit for bit to the single-state functions.
    """
    evals = spectra(states)
    diag = np.clip(np.array([s.matrix.diagonal().real for s in states]), 0.0, None)
    sums = spectral_sums(np.array((evals, diag)), evals.shape[-1], gens)
    return sums[0] - sums[1]


def relative_entropy_coherence(rho: DensityMatrix) -> float:
    """Shannon-entropy route: H(diagonal) - H(spectrum), in nats."""

    def shannon(p: np.ndarray) -> float:
        p = p[p > EPS_ZERO]
        return float(-(p * np.log(p)).sum())

    evals, diag = rho.eigenvalues(), rho.diagonal_probabilities()
    return shannon(diag) - shannon(evals)


def power_coherence(rho: DensityMatrix, alpha: float) -> PowerCoherence:
    """Closed-form power coherence pair for alpha in (0, 2), alpha != 1.

    hat  = (sum_j c_j**alpha - sum_j p_j**alpha) / (1 - alpha)
    plain = d**(alpha - 1) * hat

    The plain value equals coherence_f with the generator
    (1 - x**(1-alpha)) / (1 - alpha), and the scaling identity between
    the two variants is enforced by construction.
    """
    alpha = float(alpha)
    if not (0.0 < alpha < 2.0) or alpha == 1.0 or math.isnan(alpha):
        raise ParamOutOfRange(f"alpha must lie in (0, 2) excluding 1, got {alpha!r}")
    evals, diag = rho.eigenvalues(), rho.diagonal_probabilities()
    evals = np.where(evals > EPS_ZERO, evals, 0.0)
    diag = np.where(diag > EPS_ZERO, diag, 0.0)
    hat = float((np.power(diag, alpha).sum() - np.power(evals, alpha).sum()) / (1.0 - alpha))
    plain = float(rho.dim ** (alpha - 1.0)) * hat
    return PowerCoherence(plain=plain, hat=hat)


def dephasing_distance(rho: DensityMatrix) -> float:
    """Trace-norm distance between rho and its dephased version."""
    return trace_norm(rho.matrix - np.diag(np.diagonal(rho.matrix)))


def max_coherent_state(dim: int) -> PureState:
    """Uniform superposition of all basis states."""
    _check_dim(dim)
    return PureState(np.ones(dim, dtype=complex) / math.sqrt(dim))
