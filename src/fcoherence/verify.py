"""Randomized verification suites for the package's operator inequalities.

Each suite draws seeded random states and channels, evaluates a family
of inequality and equality checks, and reports the worst violation seen
together with the seed that produced it. A suite passes when the worst
violation stays at or below the configured tolerance. All randomness is
derived from (master seed, case index, trial index), so a rerun with the
same configuration reproduces the report byte for byte.

The checks reach one reduction in trial and check order. The five
suites that draw share one chunk driver, which hands a suite's chunk
function a whole chunk of trials with their seeds. The chunk function
draws the chunk as stacks, one Generator per seed and the algebra once
per stack of one shape, and scores the stacks; every stacked step gives
a matrix the bytes it gets alone, so reports equal a trial-by-trial run.
Every chunk but divergence-oracle's, every head and the SIO witness
build no state object: their draws take one stacked eigh, their diagonal
states come with their sorted diagonals as spectra, their channel outputs
and selective outcomes take the cleanup of validate_density as arrays,
and their spectra and diagonals go straight to the spectral sums. The
divergence-oracle chunk keeps its state objects on purpose: it checks
the public divergence_table and oracle_divergence_table on them.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channels import (
    GioChannel,
    KrausChannel,
    _gio_list,
    _gio_tables,
    _haar_kraus,
    _kraus_sum,
    _outcome_blocks,
    _saturated,
    _unital_kraus,
    _unitary_mixture_tables,
    _worst_overlaps,
    max_offdiagonal,
)
from .coherence import _dephasing_distances, coherence_f, coherence_f_hat, coherence_table, max_coherent_state
from .divergence import _entropies, divergence_table, f_weighted_sum, oracle_divergence_table, spectral_sums
from .errors import CoherenceError
from .generators import GeneratorFunction, _is_tolerance, lookup
from .states import (
    DensityMatrix,
    _cleaned,
    _decomposed,
    _diagonals,
    _drawn,
    _eigh,
    _generators,
    _groups,
    _haar,
    _is_int,
    _projectors,
    _pure_vectors,
    _read,
    _suite_seeds,
    _views,
    _wisharts,
    validate_density,
)

__all__ = [
    "DEFAULT_F_SPECS",
    "MAX_DIM",
    "STACK_BYTES",
    "TrialConfig",
    "VerificationReport",
    "SioCounterexampleReport",
    "ensemble_coherence",
    "suite_entropy_bounds",
    "suite_divergence_oracle",
    "suite_gio_monotonicity",
    "suite_strong_monotonicity",
    "suite_faithfulness_and_bounds",
    "suite_sio_counterexample",
    "sio_counterexample_report",
    "run_all",
    "SUITES",
]

DEFAULT_F_SPECS = ("neg_log", "power:0.5", "power:1.5", "tsallis:0.5", "tsallis:1.5")

# Equality is asserted below this, strict decrease above it.
EQUALITY_TOL = 1e-8
# Largest dimension a suite accepts. A strong-monotonicity trial holds
# three states with their eigenvectors, three channel correlation
# matrices and up to 3d + 4 selective outcomes, 3d + 13 matrices of
# 16 d^2 bytes each: 13 MB at d = 64, one trial a chunk.
MAX_DIM = 64
# Byte budget of one stack of d x d complex matrices in a case-batched
# suite. A case runs in chunks of consecutive trials sized to it, so
# memory does not grow with trials_per_case.
STACK_BYTES = 1 << 23
# Trials whose seeds one pass hashes, the default suite's 4000 among them:
# their seed records hold 240 B each, and the hash peaks at about 830 B
# each (tracemalloc, 4096 trials).
_SEED_ROWS = 1 << 12


@dataclass(frozen=True)
class TrialConfig:
    """Configuration shared by all suites."""

    dims: tuple[int, ...] = (2, 3, 4, 5)
    trials_per_case: int = 1000
    seed: int = 0
    f_list: tuple[str, ...] = DEFAULT_F_SPECS
    tol_violation: float = 1e-9

    def __post_init__(self) -> None:
        if not self.dims or not all(_is_int(d) and 1 <= d <= MAX_DIM for d in self.dims):
            raise ValueError(f"dims must be integers in [1, {MAX_DIM}], got {self.dims}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not _is_int(self.trials_per_case) or self.trials_per_case < 1:
            raise ValueError(f"trials_per_case must be an integer of at least 1, got {self.trials_per_case!r}")
        if self.trials_per_case > 1 << 32:  # a trial index is one 32-bit word of its seeds' entropy
            raise ValueError(f"trials_per_case must be at most 2**32, got {self.trials_per_case!r}")
        if not _is_tolerance(self.tol_violation):
            raise ValueError(f"tol_violation must be positive and finite, got {self.tol_violation!r}")
        object.__setattr__(self, "tol_violation", float(self.tol_violation))  # reports carry a float
        if isinstance(self.f_list, str):
            raise ValueError(f"f_list must be a sequence of generator specs, got the string {self.f_list!r}")
        if not self.f_list:
            raise ValueError("f_list must name at least one generator")
        for spec in self.f_list:
            lookup(spec)  # fail fast on unknown generators


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    passed: bool
    trials: int
    worst_violation: float
    worst_case_seed: int
    tol_violation: float
    notes: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def _reduce(values, seeds, worst=(0.0, -1)) -> tuple[float, int]:
    """The worst (value, seed) of worst and the checks after it: the first
    NaN, else the first strictly greater value, with values and seeds
    broadcast and read in C order. A worst value <= 0 gives (0.0, -1)."""
    values = np.asarray(values, dtype=float)
    flat = np.concatenate(([worst[0]], values.ravel()))
    i = int(flat.argmax())  # the first NaN, else the first maximum
    return worst if i == 0 else (float(flat[i]), int(np.broadcast_to(seeds, values.shape).flat[i - 1]))


def _report(suite: str, cfg: TrialConfig, gens: list, note: str, blocks) -> VerificationReport:
    """Reduce a suite's (values, seeds, trials) blocks; none run without gens."""
    worst, trials = (0.0, -1), 0
    if gens:
        for values, seeds, n in blocks:
            worst = _reduce(values, seeds, worst)
            trials += n
    return VerificationReport(suite, worst[0] <= cfg.tol_violation, trials, *worst, cfg.tol_violation, note)


def _chunks(trials: int, d: int, per_trial: int):
    """Consecutive ranges of trials, at least one each, whose stacks of
    per_trial d x d complex matrices per trial fit in STACK_BYTES."""
    size = max(1, STACK_BYTES // (16 * d * d * per_trial))
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _drive(cfg: TrialConfig, dims, offset: int, trials: int, per_trial, chunk, head=None):
    """(values, seeds, trials) blocks of a drawing suite. Case k, at d =
    dims[k], gives head(d) against the master seed, then chunks of trials
    of per_trial(d) matrices. A chunk's trials t, with their seed records
    s (states._suite_seeds: row i holds SeedSequence((master, offset + k,
    t[i])).generate_state(6), each seed with its PCG64 words), go to
    chunk(d, t, s), which draws them as stacks and returns (values, slot)
    parts: a row per trial, reported with the seed s["seed"][:, slot].

    The chunks run in windows that start every _SEED_ROWS trials of the
    suite, so the whole suite is one window below that size. One pass
    hashes the seeds of a window's trials and the PCG64 words of each."""
    jobs = [(case, d, span) for case, d in enumerate(dims) for span in _chunks(trials, d, per_trial(d))]
    for _, window in itertools.groupby(jobs, lambda job: (job[0] * trials + job[2].start) // _SEED_ROWS):
        window = list(window)
        rows = np.arange(window[0][0] * trials + window[0][2].start, window[-1][0] * trials + window[-1][2].stop)
        seeds = _suite_seeds(cfg.seed, offset + rows // trials, rows % trials)
        for _, d, span in window:
            if head and not span.start:
                yield head(d), cfg.seed, 0
            s, seeds = seeds[: len(span)], seeds[len(span) :]
            parts = chunk(d, np.array(span), s)
            values = np.concatenate([v for v, _ in parts], axis=1)
            slots = np.concatenate([np.zeros(v.shape, dtype=int) + slot for v, slot in parts], axis=1)
            yield values, s["seed"][np.arange(len(span))[:, None], slots], len(span)


def _resolve(cfg: TrialConfig) -> tuple[list[GeneratorFunction], list[GeneratorFunction], str]:
    """Split the configured generators into all and monotone-decreasing."""
    fs = [lookup(s) for s in cfg.f_list]
    dec = [f for f in fs if f.monotone_decreasing]
    skipped = [f.name for f in fs if not f.monotone_decreasing]
    return fs, dec, f"skipped non-decreasing generators: {', '.join(skipped)}" if skipped else ""


def _bounds(d: int, gens) -> np.ndarray:
    """(f(1/d), -f(d)) per generator, the plain and hat maxima in dimension d."""
    return np.array([(f(1.0 / d), -f(d)) for f in gens], dtype=float)


def _cycling(d: int, trials: np.ndarray) -> np.ndarray:
    """The ranks of the states that trials draw: pure (rank 0) at trials
    divisible by 3, else mixed of rank 1 + trial % d."""
    return np.where(trials % 3 == 0, 0, 1 + trials % d)


def _draw_states(d: int, ranks: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Row i: a Haar-random pure state for ranks[i] = 0, else a random
    density matrix of that rank, drawn from seeds[i]."""
    pure = ranks == 0
    states = np.empty((len(ranks), d, d), dtype=complex)
    if pure.any():
        states[pure] = _projectors(_pure_vectors(d, seeds[pure]))
    if not pure.all():
        states[~pure] = _wisharts(d, ranks[~pure], seeds[~pure])
    return states


def _conditioned(full_rank: np.ndarray) -> np.ndarray:
    """Full-rank states mixed with the maximally mixed state, smallest
    eigenvalue at least 0.2 / d, where routes through the inverse stay
    comparable at the 1e-10 level."""
    d = full_rank.shape[-1]
    return 0.8 * full_rank + 0.2 * np.eye(d) / d


def _diagonal_channels(d: int, kinds: np.ndarray, seeds: np.ndarray) -> list[GioChannel]:
    """Row i: random_gio(d, k, seeds[i]) for kinds[i] = k > 0, else a
    mixture of -k diagonal unitaries with Dirichlet weights, then uniform
    phases, from seeds[i]; built as one stack per Kraus count."""
    gio = kinds > 0
    mixtures, gios = _unitary_mixture_tables(d, -kinds[~gio], seeds[~gio]), _gio_tables(d, kinds[gio], seeds[gio])
    tables = iter(mixtures), iter(gios)
    return _gio_list([next(tables[g]) for g in gio.tolist()])


def _kraus_sums(kraus: list, states: np.ndarray) -> np.ndarray:
    """sum_k K rho K* for each state rho and its Kraus stack, as one
    stacked product per Kraus count."""
    out = np.empty_like(states)
    for _, rows in _groups(np.array([len(ops) for ops in kraus], dtype=int)):
        out[rows] = _kraus_sum(np.array([kraus[i] for i in rows]), states[rows])
    return out


def suite_entropy_bounds(cfg: TrialConfig) -> VerificationReport:
    """Range, extremal, concavity, unitarity and unital-monotonicity
    checks for both entropy functionals, decreasing generators only."""
    _, dec, note = _resolve(cfg)

    def head(d):
        return np.abs(_entropies(np.full((1, d), 1.0 / d), dec)[0] - _bounds(d, dec))

    def chunk(d, t, s):
        m, kind = len(t), t % 3
        mixed, rotated, mapped = (kind == k for k in range(3))
        # Each trial's state, then the partners of the concavity trials.
        ranks = np.concatenate((_cycling(d, t), 1 + (t[mixed] // 3) % d))
        states = _draw_states(d, ranks, np.concatenate((s[:, 0], s[mixed, 1])))
        rhos, partners = states[:m], np.empty((m, d, d), dtype=complex)
        lam = 0.5 + 0.4 * np.array([math.sin(x) for x in t.tolist()])
        # Concavity on a random two-state mixture.
        partners[mixed] = states[m:]
        mixtures = lam[mixed, None, None] * rhos[mixed] + (1.0 - lam[mixed, None, None]) * partners[mixed]
        # Unitary invariance.
        u = _haar(d, d, s[rotated, 2])
        partners[rotated] = u @ rhos[rotated] @ u.conj().swapaxes(-1, -2)
        # Non-decrease under a random unital channel.
        partners[mapped] = _kraus_sums(_unital_kraus(d, 2 + t[mapped] % 2, s[mapped, 3]), rhos[mapped])
        # The spectra of the states, partners and mixtures: the draws from
        # one eigh, the channel outputs cleaned as validate_density cleans them.
        stack, cleaned = np.concatenate((rhos, partners, mixtures)), np.pad(mapped, (m, len(mixtures)))
        vals = np.empty(stack.shape[:2])
        vals[~cleaned], vals[cleaned] = _eigh(stack[~cleaned])[0], _cleaned(stack[cleaned])[1]
        table = _entropies(vals[:, ::-1], dec)
        own, partner, mixture = table[:m], table[m : 2 * m], np.zeros((m, len(dec), 2))
        mixture[mixed] = table[2 * m :]
        # Per generator -ent, ent - top, -hat, hat - bottom; |ent|, |hat| if pure.
        ranges = np.stack((-own, own - _bounds(d, dec)), axis=-1).reshape(m, -1, 4)
        zeros = np.where(mixed[:, None, None], np.abs(own), 0.0)
        rows, fi, kind = np.arange(m), t % len(dec), kind[:, None]
        own, partner, mixture = own[rows, fi], partner[rows, fi], mixture[rows, fi]
        concave = lam[:, None] * own + (1.0 - lam[:, None]) * partner - mixture
        paired = np.where(kind == 0, concave, np.where(kind == 1, np.abs(own - partner), own - partner))
        return [(np.concatenate((ranges, zeros), axis=-1).reshape(m, -1), 0), (paired, 1 + kind)]

    # A trial holds three states and, drawing a unital channel, up to
    # three Haar unitaries with the two products of each.
    blocks = _drive(cfg, cfg.dims, 0, cfg.trials_per_case, lambda d: 12, chunk, head)
    return _report("entropy-bounds", cfg, dec, note, blocks)


def suite_divergence_oracle(cfg: TrialConfig) -> VerificationReport:
    """Spectral formula against the superoperator route, plus the basic
    divergence identities, on random full-rank pairs.

    Trial t checks every generator on (a, b) against the oracle, for
    positivity and for the self-distance zero, then f = f_list[t % n]
    for transpose symmetry, data processing and joint convexity.
    """
    fs, _, _ = _resolve(cfg)
    n = len(fs)

    def chunk(d, t, s):
        m = len(t)
        full = _wisharts(d, d, s[:, [0, 1, 3, 4]].T.ravel()).reshape(4, m, d, d)
        a, b, a2, b2 = _conditioned(full[0]), _conditioned(full[1]), full[2], full[3]
        lam = 0.5 + 0.35 * np.array([math.cos(x) for x in t.tolist()])[:, None, None]
        mixed = lam * a + (1.0 - lam) * a2, lam * b + (1.0 - lam) * b2
        kraus = _haar_kraus(d, 2 + t % 2, s[:, 2])
        outputs = np.stack((_kraus_sums(kraus, a), _kraus_sums(kraus, b)), axis=1)
        ab, ab2, mixes = (list(zip(_views(x), _views(y))) for x, y in ((a, b), (a2, b2), mixed))
        _decomposed([x for pairs in (ab, ab2, mixes) for pair in pairs for x in pair])
        outputs = validate_density(outputs.reshape(-1, d, d))
        oracle = oracle_divergence_table(ab, fs)
        selfs = divergence_table([(a, a) for a, _ in ab], fs)
        direct = divergence_table(ab, fs + [f.transpose() for f in fs])
        # (b, a), the channel outputs, the mixtures and (a2, b2) per trial.
        others = zip(ab, zip(outputs[0::2], outputs[1::2]), mixes, ab2)
        others = [pair for (a, b), *rest in others for pair in ((b, a), *rest)]
        others = divergence_table(others, fs).reshape(m, 4, n)
        values = direct[:, :n]
        checks = np.stack((np.abs(values - oracle), -values, np.abs(selfs)), axis=-1).reshape(m, -1)
        rows, fi = np.arange(m), t % n
        before = values[rows, fi]
        ba, after, mixed, other = others[rows, :, fi].T
        # Transpose symmetry, data processing and joint convexity under f.
        convex = mixed - (lam[:, 0, 0] * before + (1.0 - lam[:, 0, 0]) * other)
        paired = np.stack((np.abs(direct[rows, n + fi] - ba), after - before, convex), axis=1)
        return [(checks, 0), (paired, [0, 2, 3])]

    # A trial's largest stacks are its eight states, its channel's three
    # Kraus operators and the two products of each with both channel
    # inputs, or its d^2 x d^2 superoperator, whichever hold more.
    dims = [d for d in cfg.dims if d <= 4] or [2]
    blocks = _drive(cfg, dims, 100, max(1, cfg.trials_per_case // 5), lambda d: max(23, d * d), chunk)
    return _report("divergence-oracle", cfg, fs, "", blocks)


def suite_gio_monotonicity(cfg: TrialConfig) -> VerificationReport:
    """Non-selective monotonicity under diagonal channels and the
    equality-iff-saturation classification.

    Conditioned full-rank states are scored against every configured
    generator: a growing generator's coherence scales like an inverse
    power of the smallest eigenvalue, so on nearly singular draws its
    floating-point noise alone would swamp the absolute tolerances.
    Pure and rank-deficient states are scored only against the
    decreasing generators, whose coherences stay finite and well
    conditioned there. The classifier cross-check is asserted only when a
    quadratic proxy for the expected decrease puts the trial clearly on
    one side of the equality threshold, so a draw sitting exactly on the
    classification boundary cannot produce a spurious failure; generic
    draws are essentially always decided.
    """
    fs, dec, _ = _resolve(cfg)

    def chunk(d, t, s):
        m, second = len(t), t % 3 == 0
        chans = _diagonal_channels(d, np.where(t % 5 < 4, 1 + t % (d + 1), -(2 + t % d)), s[:, 1])
        ranks = np.concatenate((np.full(m, d), _cycling(d, t[second] // 3)))
        rhos = _draw_states(d, ranks, np.concatenate((s[:, 0], s[second, 2])))
        rhos[:m] = _conditioned(rhos[:m])
        corrs = np.array([ch.correlation for ch in chans + [ch for ch, x in zip(chans, second) if x]])
        outputs, vals, _ = _cleaned(corrs * rhos)
        # Per check the rows of its state, from one eigh, and of its output.
        io_rows = np.array((_drawn(rhos), _read(vals, outputs.diagonal(axis1=1, axis2=2).real)))
        # Quadratic proxy for the expected decrease, over the pairs n < m;
        # it reads moduli only, so the correlations stand in for the Grams.
        rows, cols = np.triu_indices(d, 1)
        pred = (1.0 - np.abs(corrs[:, rows, cols]) ** 2) * np.abs(rhos[:, rows, cols]) ** 2
        # gio_saturation_check's verdict on each check, at its default tol.
        sat = _saturated(*_worst_overlaps(corrs, rhos))
        equal = (sat & (pred.sum(axis=1) <= 1e-12))[:, None, None]
        strict = (~sat & (pred.max(axis=1, initial=0.0) >= 1e-7))[:, None, None]

        def decreases(part, gens):
            # Per generator and variant: -decrease, then the check the proxy decides.
            # The coherence tables of the states and of their outputs, and their difference.
            sums = spectral_sums(io_rows[:, :, part], gens)
            decrease = np.subtract(*(sums[:, 0] - sums[:, 1]))
            strictly = np.where(strict[part], EQUALITY_TOL - decrease, 0.0)
            bound = np.where(equal[part], np.abs(decrease) - EQUALITY_TOL, strictly)
            return np.stack((-decrease, bound), axis=-1).reshape(len(decrease), -1)

        extra = np.zeros((m, 4 * len(dec)))
        if dec and second.any():
            extra[second] = decreases(slice(m, None), dec)
        return [(decreases(slice(m), fs), 0), (extra, 2)]

    # A trial makes up to two checks, each with its state, the channel's
    # correlation matrix, their product, and the output with its
    # eigenvectors.
    blocks = _drive(cfg, cfg.dims, 200, cfg.trials_per_case, lambda d: 10, chunk)
    return _report("gio-monotonicity", cfg, fs, "", blocks)


def _outcome_averages(chans, states: np.ndarray, gens) -> tuple[np.ndarray, np.ndarray]:
    """The coherence table of the states of an (n, d, d) stack of matrices,
    n >= 1, and for each the average sum_k p_k C(rho_k) over the selective outcomes
    of channel chans[i], a sum from 0 in outcome order. The states and the
    outcomes of _outcome_blocks are read as rows, with no state object, and
    scored in one spectral_sums call; each outcome's rows are copied out of
    its block, so no block outlives its turn."""
    blocks = [
        (owner, p, _read(vals, matrices.diagonal(axis1=1, axis2=2).real))
        for owner, p, matrices, vals, _ in _outcome_blocks(chans, states)
    ]
    owners, probs, rows = zip(*blocks)
    table = np.subtract(*spectral_sums(np.concatenate((_drawn(states), *rows), axis=1), gens))
    averages = np.zeros((len(states), len(gens), 2))
    np.add.at(averages, np.concatenate(owners), np.concatenate(probs)[:, None, None] * table[len(states) :])
    return table[: len(states)], averages


def ensemble_coherence(ch: KrausChannel, rho: DensityMatrix, f: GeneratorFunction, fun) -> float:
    """Average coherence over the selective outcomes of one channel.

    ``fun`` is coherence_f or coherence_f_hat and picks the variant.
    """
    variants = (coherence_f, coherence_f_hat)  # the columns of a coherence table
    if fun not in variants:
        raise ValueError(f"fun must be coherence_f or coherence_f_hat, got {fun!r}")
    outcomes = ch.selective_outcomes(rho)
    # rho joins the table: a generator that cannot score rho's spectrum raises, whatever the outcomes.
    values = coherence_table([rho] + [o.state for o in outcomes], [f])[1:, 0, variants.index(fun)]
    # np.cumsum adds in order: the sum from 0 in outcome order.
    return float(np.cumsum([0.0] + [o.probability * v for o, v in zip(outcomes, values.tolist())])[-1])


def suite_strong_monotonicity(cfg: TrialConfig) -> VerificationReport:
    """Selective monotonicity in the regimes where it actually holds.

    Scored: pure states under random diagonal channels in any dimension,
    exact saturation for diagonal-unitary mixtures on arbitrary states,
    and mixed states in dimension 2. Mixed states in dimension 3 and
    above under general diagonal representations are explored and
    reported only: the selective inequality is representation-dependent
    and random representations violate it there, even though every such
    channel in dimension <= 3 equals some diagonal-unitary mixture
    (whose own outcome ensemble saturates)."""
    _, dec, note = _resolve(cfg)
    explored = [(0.0, -1), 0]  # worst unscored violation, number of checks

    def chunk(d, t, s):
        m = len(t)
        # (a) pure states, random diagonal channels, any dimension.
        # (b) diagonal-unitary mixtures saturate on any state.
        # (c) mixed states, general diagonal channels: scored for d <= 2.
        kinds = np.concatenate((1 + t % (d + 1), -(2 + t % (d + 1)), 1 + (t + 2) % (d + 1)))
        ranks = np.minimum(d, np.maximum(2, 1 + (t + 1) % d))
        ranks = np.concatenate((np.zeros(m, dtype=int), _cycling(d, t + 1), ranks))
        chans = _diagonal_channels(d, kinds, s[:, [1, 3, 5]].T.ravel())
        states = _draw_states(d, ranks, s[:, [0, 2, 4]].T.ravel())
        own, averages = _outcome_averages(chans, states, dec)
        a, b, c = (own - averages).reshape(3, m, len(dec), 2)
        # Parts (a) and (b) score one generator per trial, (c) all.
        rows, fi = np.arange(m), t % len(dec)
        parts = [(-a[rows, fi], 0), (np.abs(b[rows, fi]), 2)]
        if d <= 2:
            return parts + [(-c.reshape(m, -1), 4)]
        explored[:] = _reduce(-c, -1, explored[0]), explored[1] + c.size
        return parts

    # A trial holds three states with their eigenvectors, three channel
    # correlation matrices and up to 3d + 4 selective outcomes.
    blocks = _drive(cfg, cfg.dims, 300, max(1, cfg.trials_per_case // 2), lambda d: 3 * d + 13, chunk)
    report = _report("strong-monotonicity", cfg, dec, note, blocks)
    (worst, _), checks = explored
    explore = "exploration (mixed states, dim >= 3, general diagonal representations)"
    extra = f"{explore}: {checks} checks, worst violation {worst:.6e}, not scored"
    return replace(report, notes="; ".join(filter(None, (note, extra)))) if checks else report


def suite_faithfulness_and_bounds(cfg: TrialConfig) -> VerificationReport:
    """Zero on incoherent states, strictly positive away from them,
    upper bounds, and the extremal state attaining them."""
    _, dec, note = _resolve(cfg)

    def head(d):
        rho = _projectors(max_coherent_state(d).amplitudes[None])
        return np.abs(np.subtract(*spectral_sums(_drawn(rho), dec))[0] - _bounds(d, dec))

    def chunk(d, t, s):
        m = len(t)
        # Incoherent draw: coherence must vanish, distance must vanish.
        diags = np.array([rng.dirichlet(np.ones(d)) for rng in _generators(s[:, 0])])
        # Coherent draw: rejection-sample until an off-diagonal is large,
        # which a 1 x 1 state has none of.
        rhos, pending = np.empty((m, d, d), dtype=complex), np.arange(m if d > 1 else 0)
        for k in range(64):
            if not pending.size:
                break
            candidates = _draw_states(d, _cycling(d, t[pending] + k), s["seed"][pending, 1] + k if k else s[pending, 1])
            large = np.array([max_offdiagonal(c) >= 0.1 for c in candidates], dtype=bool)
            rhos[pending[large]], pending = candidates[large], pending[~large]
        coherent = np.full(m, d > 1)
        coherent[pending] = False
        # Pure-state coherence equals the dephased state's entropy.
        pure = (t % 3 == 0) & coherent
        rhos, n = rhos[coherent], m + coherent.sum()
        drawn = _drawn(np.concatenate((rhos, _projectors(_pure_vectors(d, s[pure, 2])))))
        table = np.subtract(*spectral_sums(np.concatenate((_diagonals(diags), drawn), axis=1), dec))
        dist = _dephasing_distances(np.concatenate((diags[:, :, None] * np.eye(d), rhos)))
        zero = np.concatenate((np.abs(table[:m]).reshape(m, -1), dist[:m, None]), axis=1)
        # Faithfulness both ways at the tolerance, positivity, upper bounds.
        own, tol = table[m:n], cfg.tol_violation
        unfaithful = (own <= tol) != (dist[m:, None, None] <= tol)
        bounded = np.zeros((m, len(dec), 6))
        bounded[coherent] = np.concatenate((unfaithful, -own, own - _bounds(d, dec)), axis=-1)
        dephased = np.zeros((m, 2))
        gaps = np.abs(table[n:] - _entropies(_diagonals(drawn[1, len(rhos) :])[0], dec))
        dephased[pure] = gaps[np.arange(len(gaps)), t[pure] % len(dec)]
        return [(zero, 0), (bounded.reshape(m, -1), 1), (dephased, 2)]

    trials = max(1, cfg.trials_per_case // (2 * len(cfg.dims)))
    # A trial draws up to three states as stacks, then tabulates up to
    # four states and two distance matrices.
    blocks = _drive(cfg, cfg.dims, 400, trials, lambda d: 9, chunk, head)
    return _report("faithfulness-bounds", cfg, dec, note, blocks)


@dataclass(frozen=True)
class SioCounterexampleReport:
    """Coherence of rho (x) I/d against rho (x) |0><0| for one generator.

    The two states are connected in both directions by strictly
    incoherent channels, so any measure monotone under that class must
    give them equal value. ``gap`` is the larger per-variant difference;
    ``cross_check_error`` is the worst disagreement between the direct
    evaluation and the closed-form eigenvalue identities.
    """

    f_name: str
    dim: int
    lhs_plain: float
    rhs_plain: float
    lhs_hat: float
    rhs_hat: float
    gap: float
    cross_check_error: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def sio_counterexample_report(f_name: str, d: int) -> SioCounterexampleReport:
    """Both tensor-extension coherences of the uniform superposition on
    dimension d, evaluated directly and through the eigenvalue identities."""
    return _sio_reports([lookup(f_name)], d)[0]


def _sio_reports(gens, d: int) -> list[SioCounterexampleReport]:
    """sio_counterexample_report for each generator, from one stack of the
    two tensor-extension states scored in one spectral_sums call."""
    rho = _projectors(max_coherent_state(d).amplitudes[None])
    # rho (x) I/d and rho (x) |0><0| as one stack.
    stack = np.kron(rho, np.array((np.eye(d) / d, np.diag(np.eye(d)[0]))))
    table = np.subtract(*spectral_sums(_drawn(stack), gens)).tolist()
    numerators = [
        1.0 / d,         # rho (x) I/d keeps the d-scaled value
        1.0 / (d * d),   # rho (x) ground at dimension d^2
        float(d),        # eigenvalues diluted by 1/d
        1.0,             # unscaled value survives the ground ancilla
    ]
    rows = _drawn(rho)[:, 0]
    reports = []
    for f, (lhs_plain, lhs_hat), (rhs_plain, rhs_hat) in zip(gens, table[0], table[1]):
        sums = f_weighted_sum(rows, np.array(numerators)[:, None], f)
        # np.max, unlike max, keeps a NaN in any position for _reduce to see.
        values = np.array((lhs_plain, rhs_plain, lhs_hat, rhs_hat))
        cross = float(np.max(np.abs(values - (sums[:, 0] - sums[:, 1]))))
        gap = float(np.max(np.abs(values[0::2] - values[1::2])))
        reports.append(SioCounterexampleReport(f.name, d, lhs_plain, rhs_plain, lhs_hat, rhs_hat, gap, cross))
    return reports


def suite_sio_counterexample(cfg: TrialConfig) -> VerificationReport:
    """The separation witness: no gap for neg_log, a large gap for every
    other decreasing generator, identities consistent throughout."""
    _, dec, note = _resolve(cfg)

    def block(d):
        reports = _sio_reports(dec, d)
        gaps = [rep.gap if rep.f_name == "neg_log" else 10.0 * cfg.tol_violation - rep.gap for rep in reports]
        return [[rep.cross_check_error, gap] for rep, gap in zip(reports, gaps)], cfg.seed, len(reports)

    # The witness needs an ancilla of dimension at least 2.
    dims = sorted(set(d for d in cfg.dims if 2 <= d <= 3)) or [2]
    return _report("sio-counterexample", cfg, dec, note, map(block, dims))


SUITES = {
    "entropy-bounds": suite_entropy_bounds,
    "divergence-oracle": suite_divergence_oracle,
    "gio-monotonicity": suite_gio_monotonicity,
    "strong-monotonicity": suite_strong_monotonicity,
    "faithfulness-bounds": suite_faithfulness_and_bounds,
    "sio-counterexample": suite_sio_counterexample,
}


def run_all(cfg: TrialConfig) -> list[VerificationReport]:
    """Run every suite and return the reports in SUITES order.

    The suites are independent, so they share the usable CPUs: with n
    shares, share k is list(SUITES)[k::n], this process runs share 0
    and one forked child runs each other share, sending its results
    back pickled through a pipe. With one usable CPU, no os.fork or
    other running threads, there is one share and nothing forks. The
    reports equal those of running the suites one after another. When
    suites raise, the exception of the first failing suite in SUITES
    order is raised; a child that dies without a result raises
    CoherenceError. Children still running when this returns or raises
    are killed and reaped.
    """
    names = list(SUITES)
    n = _share_count()
    children = []  # (pid, read end of its pipe, its suites), until reaped
    try:
        for k in range(1, n):
            children.append(_fork_share(names[k::n], cfg))
        results = dict(_run_share(names[0::n], cfg))
        while children:
            results.update(_collect(*children[0]))
            children.pop(0)
    finally:
        for pid, fd, _ in children:  # left by an exception
            with contextlib.suppress(OSError):
                os.close(fd)
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for name in names:
        # A share stops at its first exception, so a suite without a
        # result comes after a failed one.
        if isinstance(results[name], BaseException):
            raise results[name]
    return [results[name] for name in names]


def _share_count() -> int:
    """Number of shares: one per usable CPU, at most one per suite, and
    one when forking is unavailable or unsafe."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, len(SUITES))


def _run_share(names: list[str], cfg: TrialConfig) -> list[tuple[str, object]]:
    """(suite, report) pairs in order, up to and including the first
    suite that raises, paired with its exception."""
    results = []
    for name in names:
        try:
            results.append((name, SUITES[name](cfg)))
        except Exception as exc:
            results.append((name, exc))
            break
    return results


def _fork_share(names: list[str], cfg: TrialConfig) -> tuple[int, int, list[str]]:
    """Fork a child that runs the suites and writes _run_share's pickled
    result to a pipe. The child leaves only through os._exit, so it never
    returns into the caller, runs atexit handlers or flushes stdio."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read_fd)
        os.close(write_fd)
        raise CoherenceError(f"cannot fork a process for suites {', '.join(names)}: {exc}") from None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_run_share(names, cfg))
            with open(write_fd, "wb") as fh:
                fh.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd, names


def _collect(pid: int, read_fd: int, names: list[str]) -> list[tuple[str, object]]:
    """Read a child's results to the end of its pipe, then reap it. A
    child that did not exit 0, after writing all of its result, gives a
    CoherenceError on its first suite."""
    with open(read_fd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        error = CoherenceError(f"suites {', '.join(names)} ended without a result (wait status {status})")
        return [(names[0], error)]
    return pickle.loads(payload)
