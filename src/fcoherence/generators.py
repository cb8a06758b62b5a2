"""Generator functions for the divergence family.

A generator is an operator convex function f on (0, inf) with f(1) = 0.
Next to pointwise evaluation each generator carries two closed-form tail
limits that the divergence code needs when a state has zero eigenvalues:

* ``limit_at_zero``: lim_{x -> 0+} f(x), possibly +inf,
* ``weighted_inf_limit``: lim_{x -> 0+} x * f(1/x), possibly +inf.

The weighted tail for a general positive prefactor follows by scaling,
lim_{x -> 0+} x * f(c/x) = c * weighted_inf_limit.

Entropy and coherence functionals additionally assume f is operator
monotone decreasing; generators carry a ``monotone_decreasing`` flag and
callers that need the assumption must check it. The power generator with
exponent in (1, 2) is operator convex but increasing, so it is valid for
divergences while staying out of entropy-style sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParamOutOfRange, UnknownGenerator

__all__ = [
    "GeneratorFunction",
    "neg_log",
    "power",
    "tsallis",
    "lookup",
]


@dataclass(frozen=True)
class GeneratorFunction:
    """An operator convex generator with its tail limits.

    ``monotone_decreasing`` is a trusted flag supplied analytically by
    each constructor, not verified numerically at build time.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    limit_at_zero: float
    weighted_inf_limit: float
    monotone_decreasing: bool

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def transpose(self) -> "GeneratorFunction":
        """The transposed generator x * f(1/x); swaps the two tail limits."""
        base = self

        def tfn(x):
            x = np.asarray(x, dtype=float)
            return x * base.fn(1.0 / x)

        return GeneratorFunction(
            name=f"transpose({base.name})",
            fn=tfn,
            limit_at_zero=base.weighted_inf_limit,
            weighted_inf_limit=base.limit_at_zero,
            # x * f(1/x) is generally not monotone even when f is.
            monotone_decreasing=False,
        )


def neg_log() -> GeneratorFunction:
    """f(x) = -ln(x)."""
    return GeneratorFunction(
        name="neg_log",
        fn=lambda x: -np.log(x),
        limit_at_zero=math.inf,
        weighted_inf_limit=0.0,
        monotone_decreasing=True,
    )


def _power_law(name: str, e: float, s: float) -> GeneratorFunction:
    """f(x) = (1 - x**e) / (e s), with its limits read off e and s."""
    c = e * s

    def fn(x):
        return (1.0 - np.power(x, e)) / c

    return GeneratorFunction(
        name=name,
        fn=fn,
        limit_at_zero=math.inf if e < 0 else 1.0 / c,
        weighted_inf_limit=0.0 if e < 1 else math.inf,
        monotone_decreasing=s > 0,
    )


def power(p: float) -> GeneratorFunction:
    """f(x) = (1 - x**p) / (p (1 - p)) for p in (-1, 2), p not in {0, 1}.

    Decreasing for p < 1, increasing for p in (1, 2). For p in (1, 2) the
    weighted tail limit diverges, so such generators are rejected by
    zero-eigenvalue entropy paths instead of being silently zeroed.
    """
    p = float(p)
    if not (-1.0 < p < 2.0) or p in (0.0, 1.0) or math.isnan(p):
        raise ParamOutOfRange(f"power exponent must lie in (-1, 2) excluding 0 and 1, got {p!r}")
    return _power_law(f"power:{p:g}", p, 1.0 - p)


def tsallis(q: float) -> GeneratorFunction:
    """f(x) = (1 - x**(1-q)) / (1 - q) for q in (0, 2), q != 1.

    Operator monotone decreasing on the whole parameter range; approaches
    -ln(x) as q -> 1.
    """
    q = float(q)
    if not (0.0 < q < 2.0) or q == 1.0 or math.isnan(q):
        raise ParamOutOfRange(f"tsallis order must lie in (0, 2) excluding 1, got {q!r}")
    return _power_law(f"tsallis:{q:g}", 1.0 - q, 1.0)


def lookup(spec: str) -> GeneratorFunction:
    """Resolve a spec string: "neg_log", "power:P" or "tsallis:Q"."""
    name, _, param = spec.partition(":")
    if name == "neg_log":
        if param:
            raise UnknownGenerator(f"neg_log takes no parameter, got {spec!r}")
        return neg_log()
    if name in ("power", "tsallis"):
        if not param:
            raise UnknownGenerator(f"{name} requires a parameter, e.g. {name}:0.5")
        try:
            value = float(param)
        except ValueError:
            raise UnknownGenerator(f"cannot parse parameter in {spec!r}") from None
        return power(value) if name == "power" else tsallis(value)
    raise UnknownGenerator(f"no generator named {name!r}")
