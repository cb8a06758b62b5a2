"""Span recorder for the traced benchmark run.

The recorder rebinds public functions and methods of the ``fcoherence``
package, in every module that holds a reference to them, with wrappers
that record one span per call: name, start, end and the index of the
enclosing span. Spans stay in memory until the run ends. Nothing here is
imported by the untraced run.

A call of a traced function from inside a span of the same name (a
recursive ``dumps17``, or ``GioChannel.__init__`` running
``KrausChannel.__init__`` through ``super()``) is folded into the outer
span, so ``calls`` counts what a caller asked for.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Span fields: [name id, start ns, end ns, parent index or -1].
NAME, START, END, PARENT = range(4)


class Recorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span recorder.

        ``count(counters, args, result)`` runs after each recorded call
        and may add to named counters.
        """
        nid = self.name_id(name)
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][NAME] == nid:
                return fn(*args, **kwargs)
            rec = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = clock()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def count_calls(self, name: str, fn):
        """Wrap ``fn`` with a plain call counter and no span."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- rebinding ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        """Replace a method on its defining class (subclasses inherit it)."""
        self._set(cls, attr, wrapper)

    def patch_function(self, original, wrapper) -> None:
        """Replace every reference to ``original`` held as a module global,
        or as a value of a module-level dict, in the fcoherence modules."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.partition(".")[0] != "fcoherence":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = wrapper

    def uninstall(self) -> None:
        """Restore everything patched, newest first."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, int]]:
        return summarize(self.names, self.spans)


def summarize(names: list[str], spans) -> dict[str, dict[str, int]]:
    """Per span name: ``calls``, ``total_ns`` and ``self_ns``.

    Self time is a span's duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap and
    the arithmetic is exact in integer nanoseconds.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    out = {name: {"calls": 0, "total_ns": 0, "self_ns": 0} for name in names}
    for i, span in enumerate(spans):
        row = out[names[span[NAME]]]
        duration = span[END] - span[START]
        row["calls"] += 1
        row["total_ns"] += duration
        row["self_ns"] += duration - child_ns[i]
    return out


# -- the fcoherence layers ------------------------------------------------

SUITE_PREFIX = "verify."


def _count_elements(counters, args, result):
    counters["generators.eval.elements"] += int(np.size(args[1]))


def _count_outcomes(counters, args, result):
    counters["channels.selective_outcomes.outcomes"] += len(result)


def _count_kraus_bytes(counters, args, result):
    counters["channels.kraus_bytes"] += args[0].kraus_ops.nbytes


def _count_written(counters, args, result):
    counters["io.bytes_written"] += os.path.getsize(args[1])


def _count_read(counters, args, result):
    counters["io.bytes_read"] += os.path.getsize(args[0])


def install(rec: Recorder) -> None:
    """Rebind the public entry points of every fcoherence layer."""
    from fcoherence import channels, cli, coherence, divergence, generators, io, states, verify

    def fn(module, attr, name, count=None):
        original = getattr(module, attr)
        rec.patch_function(original, rec.wrap(name, original, count))

    def method(cls, attr, name, count=None):
        rec.patch_method(cls, attr, rec.wrap(name, cls.__dict__[attr], count))

    fn(states, "validate_density", "states.validate_density")
    fn(states, "spectral_decompose", "states.spectral_decompose")
    for attr in ("random_pure", "random_density", "random_unitary"):
        fn(states, attr, "states.random")
    method(states.DensityMatrix, "eigenvalues", "states.eigenvalues")
    rec.patch_method(
        states.DensityMatrix,
        "__post_init__",
        rec.count_calls("states.density_matrices", states.DensityMatrix.__post_init__),
    )

    method(generators.GeneratorFunction, "__call__", "generators.eval", _count_elements)

    for attr in ("f_weighted_sum", "quasi_relative_entropy", "oracle_quasi_relative_entropy",
                 "f_entropy", "f_entropy_hat"):
        fn(divergence, attr, f"divergence.{attr}")

    for attr in ("coherence_f", "coherence_f_hat", "dephase", "dephasing_distance"):
        fn(coherence, attr, f"coherence.{attr}")

    method(channels.KrausChannel, "__init__", "channels.construct", _count_kraus_bytes)
    method(channels.GioChannel, "__init__", "channels.construct", _count_kraus_bytes)
    method(channels.KrausChannel, "apply", "channels.apply")
    method(channels.KrausChannel, "selective_outcomes", "channels.selective_outcomes", _count_outcomes)
    fn(channels, "gio_saturation_check", "channels.gio_saturation_check")

    for suite in list(verify.SUITES):
        original = verify.SUITES[suite]
        rec.patch_function(original, rec.wrap(SUITE_PREFIX + suite, original))
    fn(verify, "ensemble_coherence", "verify.ensemble_coherence")

    fn(io, "save_state", "io.save_state", _count_written)
    fn(io, "save_channel", "io.save_channel", _count_written)
    fn(io, "load_state", "io.load_state", _count_read)
    fn(io, "load_channel", "io.load_channel", _count_read)
    fn(io, "dumps17", "io.dumps17")

    fn(cli, "main", "cli.main")


def layer_metrics(rec: Recorder, passes: int, time_scale: float = 1.0) -> dict[str, float]:
    """Per-pass averages of the span and counter totals, named as in
    BENCHMARK.json's ``per_layer`` list. Times are multiplied by
    ``time_scale``."""
    from fcoherence import verify

    per = 1.0 / max(passes, 1)
    ms = per * time_scale / 1e6
    summary = rec.summary()
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        row = summary.get(name, {"calls": 0, "self_ns": 0})
        out[f"{name}.calls"] = row["calls"] * per
        out[f"{name}.self_ms"] = row["self_ns"] * ms
    for suite in verify.SUITES:
        row = summary.get(SUITE_PREFIX + suite, {"total_ns": 0})
        out[f"{SUITE_PREFIX}{suite}.wall_ms"] = row["total_ns"] * ms
    for name in COUNTER_NAMES:
        out[name] = rec.counters.get(name, 0.0) * per
    solves = sum(out[f"states.{n}.calls"] for n in ("eigenvalues", "validate_density", "spectral_decompose"))
    states_built = out["states.density_matrices"]
    out["states.eigensolves_per_state"] = solves / states_built if states_built else 0.0
    return out


SPAN_NAMES = (
    "states.validate_density",
    "states.eigenvalues",
    "states.spectral_decompose",
    "states.random",
    "generators.eval",
    "divergence.f_weighted_sum",
    "divergence.quasi_relative_entropy",
    "divergence.oracle_quasi_relative_entropy",
    "divergence.f_entropy",
    "divergence.f_entropy_hat",
    "coherence.coherence_f",
    "coherence.coherence_f_hat",
    "coherence.dephase",
    "coherence.dephasing_distance",
    "channels.construct",
    "channels.apply",
    "channels.selective_outcomes",
    "channels.gio_saturation_check",
    "verify.ensemble_coherence",
    "io.save_state",
    "io.load_state",
    "io.save_channel",
    "io.load_channel",
    "io.dumps17",
    "cli.main",
)

COUNTER_NAMES = (
    "states.density_matrices",
    "generators.eval.elements",
    "channels.selective_outcomes.outcomes",
    "channels.kraus_bytes",
    "io.bytes_written",
    "io.bytes_read",
)
