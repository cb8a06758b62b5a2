"""Randomized verification suites for the package's operator inequalities.

Each suite draws seeded random states and channels, evaluates a family
of inequality and equality checks, and reports the worst violation seen
together with the seed that produced it. A suite passes when the worst
violation stays at or below the configured tolerance. All randomness is
derived from (master seed, case index, trial index), so a rerun with the
same configuration reproduces the report byte for byte.

The entropy, divergence, GIO and strong-monotonicity suites run
case-batched: they draw a chunk of trials first, each from its own
seeds, then validate, apply and score the chunk as stacks, and reduce
the checks in trial order. Every stacked step gives each matrix the bytes it would get
alone, so the reports equal those of a trial-by-trial run.

``run_all`` runs the suites on the usable CPUs, one forked process per
extra CPU, and returns the same reports as running them one after
another.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .channels import (
    GioChannel,
    KrausChannel,
    _upper_pairs,
    diagonal_unitary_mixture,
    gio_saturation_check,
    max_offdiagonal,
    outcome_ensembles,
    random_gio,
    random_channel,
    random_unital_channel,
)
from .coherence import (
    coherence_f,
    coherence_f_hat,
    coherence_table,
    dephase,
    dephasing_distance,
    max_coherent_state,
)
from .divergence import divergence_table, entropy_table, f_weighted_sum, oracle_divergence_table
from .errors import CoherenceError
from .generators import GeneratorFunction, lookup
from .states import (
    DensityMatrix,
    _decomposed,
    _wishart,
    random_density,
    random_pure,
    random_unitary,
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
# Largest dimension a suite accepts. A strong-monotonicity trial builds
# up to d + 2 selective outcomes of 16 d^2 bytes each, 4.3 MB at d = 64,
# so one trial always fits in STACK_BYTES.
MAX_DIM = 64
# Byte budget of one stack of d x d complex matrices in a case-batched
# suite. A case runs in chunks of consecutive trials sized to it, so
# memory does not grow with trials_per_case.
STACK_BYTES = 1 << 23


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
        if isinstance(self.tol_violation, bool) or not 0.0 < self.tol_violation < math.inf:
            raise ValueError(f"tol_violation must be positive and finite, got {self.tol_violation!r}")
        if isinstance(self.f_list, str):
            raise ValueError(f"f_list must be a sequence of generator specs, got the string {self.f_list!r}")
        if not self.f_list:
            raise ValueError("f_list must name at least one generator")
        for spec in self.f_list:
            lookup(spec)  # fail fast on unknown generators


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


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


class _Worst:
    """Tracks the largest violation and the seed that produced it."""

    def __init__(self) -> None:
        self.value = 0.0
        self.seed = -1
        self.trials = 0

    def update(self, violation: float, seed: int) -> None:
        if violation > self.value:
            self.value = violation
            self.seed = seed

    def report(self, suite: str, cfg: TrialConfig, notes: str = "") -> VerificationReport:
        return VerificationReport(
            suite=suite,
            passed=self.value <= cfg.tol_violation,
            trials=self.trials,
            worst_violation=self.value,
            worst_case_seed=self.seed,
            tol_violation=cfg.tol_violation,
            notes=notes,
        )


def _trial_seeds(master: int, case: int, trial: int, n: int = 6) -> list[int]:
    state = np.random.SeedSequence((master, case, trial)).generate_state(n)
    return [int(x) for x in state]


def _chunks(trials: int, d: int, per_trial: int):
    """Consecutive ranges of trials, at least one each, whose stacks of
    per_trial d x d complex matrices per trial fit in STACK_BYTES."""
    size = max(1, STACK_BYTES // (16 * d * d * per_trial))
    return (range(start, min(start + size, trials)) for start in range(0, trials, size))


def _resolve(cfg: TrialConfig) -> tuple[list[GeneratorFunction], list[GeneratorFunction], str]:
    """Split the configured generators into all and monotone-decreasing."""
    fs = [lookup(s) for s in cfg.f_list]
    dec = [f for f in fs if f.monotone_decreasing]
    skipped = [f.name for f in fs if not f.monotone_decreasing]
    note = f"skipped non-decreasing generators: {', '.join(skipped)}" if skipped else ""
    return fs, dec, note


def _draw_state(d: int, trial: int, seed: int) -> DensityMatrix:
    """Alternate pure states and mixed states of cycling rank."""
    if trial % 3 == 0:
        return random_pure(d, seed).as_density()
    return random_density(d, 1 + trial % d, seed)


def _random_unitary_mixture(d: int, k: int, seed: int) -> GioChannel:
    """Mixture of k diagonal unitaries: Dirichlet weights, then uniform phases."""
    rng = np.random.default_rng(seed)
    return diagonal_unitary_mixture(rng.dirichlet(np.ones(k)), rng.uniform(0.0, 2.0 * math.pi, size=(k, d)))


def _draw_conditioned(d: int, seed: int) -> DensityMatrix:
    """Full-rank state with smallest eigenvalue at least 0.2 / d.

    Raw Wishart draws can have eigenvalues near 1e-5; any route through
    the inverse then loses eight digits to conditioning alone. Blending
    with the maximally mixed state keeps both evaluation paths
    comparable at the 1e-10 level while staying a random full-rank
    ensemble.
    """
    return DensityMatrix(0.8 * _wishart(d, d, seed) + 0.2 * np.eye(d) / d)


def suite_entropy_bounds(cfg: TrialConfig) -> VerificationReport:
    """Range, extremal, concavity, unitarity and unital-monotonicity
    checks for both entropy functionals, decreasing generators only."""
    _, dec, note = _resolve(cfg)
    w = _Worst()
    if not dec:
        return w.report("entropy-bounds", cfg, note)
    for case, d in enumerate(cfg.dims):
        tops = [float(f(1.0 / d)) for f in dec]
        bottoms = [-float(f(d)) for f in dec]
        mm = entropy_table([DensityMatrix.maximally_mixed(d)], dec)[0].tolist()
        for (ent, ent_hat), top, bottom in zip(mm, tops, bottoms):
            w.update(abs(ent - top), cfg.seed)
            w.update(abs(ent_hat - bottom), cfg.seed)
        # A trial scores at most three states.
        for chunk in _chunks(cfg.trials_per_case, d, 3):
            drawn = []
            unital = []  # unital-channel outputs, validated as one stack
            for t in chunk:
                s = _trial_seeds(cfg.seed, case, t)
                rho = _draw_state(d, t, s[0])
                lam = 0.0
                if t % 3 == 0:
                    # Concavity on a random two-state mixture.
                    other = random_density(d, 1 + (t // 3) % d, s[1])
                    lam = 0.5 + 0.4 * math.sin(float(t))
                    extra = [other, DensityMatrix(lam * rho.matrix + (1.0 - lam) * other.matrix)]
                elif t % 3 == 1:
                    # Unitary invariance.
                    u = random_unitary(d, s[2])
                    extra = [DensityMatrix(u @ rho.matrix @ u.conj().T)]
                else:
                    # Non-decrease under a random unital channel.
                    unital.append(random_unital_channel(d, 2 + t % 2, s[3]).apply_matrix(rho.matrix))
                    extra = []
                drawn.append((t, s, rho, lam, extra))
            outputs = iter(validate_density(np.array(unital)) if unital else ())
            states = []
            for t, _, rho, _, extra in drawn:
                if t % 3 == 2:
                    extra.append(next(outputs))
                states += [rho] + extra
            rows = iter(entropy_table(states, dec).tolist())
            for t, s, _, lam, extra in drawn:
                own_row = next(rows)
                extra_rows = [next(rows) for _ in extra]
                w.trials += 1
                for (ent, ent_hat), top, bottom in zip(own_row, tops, bottoms):
                    w.update(-ent, s[0])
                    w.update(ent - top, s[0])
                    w.update(-ent_hat, s[0])
                    w.update(ent_hat - bottom, s[0])
                    if t % 3 == 0:  # pure
                        w.update(abs(ent), s[0])
                        w.update(abs(ent_hat), s[0])
                fi = t % len(dec)
                own = own_row[fi]
                for v in (0, 1):
                    if t % 3 == 0:
                        other_ent, mix_ent = extra_rows[0][fi][v], extra_rows[1][fi][v]
                        w.update(lam * own[v] + (1.0 - lam) * other_ent - mix_ent, s[1])
                    elif t % 3 == 1:
                        w.update(abs(own[v] - extra_rows[0][fi][v]), s[2])
                    else:
                        w.update(own[v] - extra_rows[0][fi][v], s[3])
    return w.report("entropy-bounds", cfg, note)


def suite_divergence_oracle(cfg: TrialConfig) -> VerificationReport:
    """Spectral formula against the superoperator route, plus the basic
    divergence identities, on random full-rank pairs.

    Trial t checks every generator on (a, b) against the oracle, for
    positivity and for the self-distance zero, then f = f_list[t % n]
    for transpose symmetry, data processing and joint convexity. The
    trials of a chunk that share f are scored in one table row of
    generators, f's transpose included.
    """
    fs, _, _ = _resolve(cfg)
    w = _Worst()
    dims = [d for d in cfg.dims if d <= 4] or [2]
    trials = max(1, cfg.trials_per_case // 5)
    n = len(fs)
    for case, d in enumerate(dims):
        # A trial's largest stack is its six drawn states or its
        # d^2 x d^2 superoperator, whichever holds more.
        for chunk in _chunks(trials, d, max(6, d * d)):
            seeds, ab, ab2, lams, mixes, channels = [], [], [], [], [], []
            for t in chunk:
                s = _trial_seeds(cfg.seed, 100 + case, t)
                a = _draw_conditioned(d, s[0])
                b = _draw_conditioned(d, s[1])
                a2 = random_density(d, d, s[3])
                b2 = random_density(d, d, s[4])
                lam = 0.5 + 0.35 * math.cos(float(t))
                seeds.append(s)
                ab.append((a, b))
                ab2.append((a2, b2))
                lams.append(lam)
                mixes.append(
                    (
                        DensityMatrix(lam * a.matrix + (1.0 - lam) * a2.matrix),
                        DensityMatrix(lam * b.matrix + (1.0 - lam) * b2.matrix),
                    )
                )
                channels.append(random_channel(d, 2 + t % 2, s[2]))
            _decomposed([x for pairs in (ab, ab2, mixes) for pair in pairs for x in pair])
            outputs = validate_density(
                np.array([ch.apply_matrix(x.matrix) for ch, pair in zip(channels, ab) for x in pair])
            )
            processed = list(zip(outputs[0::2], outputs[1::2]))
            oracle = oracle_divergence_table(ab, fs).tolist()
            selfs = divergence_table([(a, a) for a, _ in ab], fs).tolist()
            # Per trial: (a, b) under every generator and f's transpose;
            # (b, a), the channel outputs, the mixtures and (a2, b2) under f.
            direct, others = [None] * len(chunk), [None] * len(chunk)
            for r in sorted({t % n for t in chunk}):
                rows = [i for i, t in enumerate(chunk) if t % n == r]
                table = divergence_table([ab[i] for i in rows], fs + [fs[r].transpose()]).tolist()
                extra = [pair for i in rows for pair in (ab[i][::-1], processed[i], mixes[i], ab2[i])]
                values = divergence_table(extra, [fs[r]]).reshape(len(rows), 4).tolist()
                for i, row, vals in zip(rows, table, values):
                    direct[i], others[i] = row, vals
            for t, s, lam, row, oracle_row, self_row, (ba, after, mixed, other) in zip(
                chunk, seeds, lams, direct, oracle, selfs, others
            ):
                w.trials += 1
                for value, oracle_value, self_value in zip(row[:n], oracle_row, self_row):
                    w.update(abs(value - oracle_value), s[0])
                    # Positivity and the self-distance zero.
                    w.update(-value, s[0])
                    w.update(abs(self_value), s[0])
                before = row[t % n]
                # Transposed generator swaps the arguments.
                w.update(abs(row[n] - ba), s[0])
                # Data processing under a random channel.
                w.update(after - before, s[2])
                # Joint convexity on a two-component mixture.
                w.update(mixed - (lam * before + (1.0 - lam) * other), s[3])
    return w.report("divergence-oracle", cfg)


def suite_gio_monotonicity(cfg: TrialConfig) -> VerificationReport:
    """Non-selective monotonicity under diagonal channels and the
    equality-iff-saturation classification.

    Conditioned full-rank states are scored against every configured
    generator: a growing generator's coherence scales like an inverse
    power of the smallest eigenvalue, so on nearly singular draws its
    floating-point noise alone would swamp the absolute tolerances.
    Pure and rank-deficient states are scored only against the
    decreasing generators, whose coherences stay finite and well
    conditioned there. The classifier cross-check is
    asserted only when a quadratic proxy for the expected decrease puts
    the trial clearly on one side of the equality threshold, so a draw
    sitting exactly on the classification boundary cannot produce a
    spurious failure; generic draws are essentially always decided.
    """
    fs, dec, _ = _resolve(cfg)
    w = _Worst()
    for case, d in enumerate(cfg.dims):
        # A trial checks at most two states: their matrices, correlation
        # matrices and outputs.
        for chunk in _chunks(cfg.trials_per_case, d, 6):
            checks = []  # (state, channel, seed, generators)
            for t in chunk:
                s = _trial_seeds(cfg.seed, 200 + case, t)
                if t % 5 == 4:
                    ch: GioChannel = _random_unitary_mixture(d, 2 + t % d, s[1])
                else:
                    ch = random_gio(d, 1 + t % (d + 1), s[1])
                w.trials += 1
                checks.append((_draw_conditioned(d, s[0]), ch, s[0], fs))
                if t % 3 == 0:
                    checks.append((_draw_state(d, t // 3, s[2]), ch, s[2], dec))
            rhos = np.array([rho.matrix for rho, _, _, _ in checks])
            outputs = validate_density(np.array([ch.correlation for _, ch, _, _ in checks]) * rhos)
            # Quadratic proxy for the expected decrease, summed over the
            # pairs n < m in row-major order.
            rows, cols = _upper_pairs(d)
            grams = np.array([ch.coefficients.conj().T @ ch.coefficients for _, ch, _, _ in checks])
            pred = (1.0 - np.abs(grams[:, rows, cols]) ** 2) * np.abs(rhos[:, rows, cols]) ** 2
            pred_max = pred.max(axis=1).tolist() if d > 1 else [0.0] * len(checks)
            pred_sum = pred.sum(axis=1).tolist()
            scores = [None] * len(checks)  # (before, after) table rows
            for gens in (fs, dec):
                group = [i for i, c in enumerate(checks) if c[3] is gens]
                if group and gens:
                    states = [checks[i][0] for i in group] + [outputs[i] for i in group]
                    table = coherence_table(states, gens).tolist()
                    for j, i in enumerate(group):
                        scores[i] = (table[j], table[len(group) + j])
            for (rho, ch, seed, _), score, top, total in zip(checks, scores, pred_max, pred_sum):
                if score is None:
                    continue
                sat = gio_saturation_check(ch, rho).saturates
                for pair_before, pair_after in zip(*score):
                    for lhs, rhs in zip(pair_before, pair_after):
                        decrease = lhs - rhs
                        w.update(-decrease, seed)
                        if sat and total <= 1e-12:
                            w.update(abs(decrease) - EQUALITY_TOL, seed)
                        elif not sat and top >= 1e-7:
                            w.update(EQUALITY_TOL - decrease, seed)
    return w.report("gio-monotonicity", cfg)


def _outcome_average(outcomes, rows: list, columns) -> list[list[float]]:
    """sum_k p_k C(rho_k) per variant, for the generators at the given
    columns of the outcomes' coherence-table rows, a Python sum from 0
    in outcome order."""
    return [
        [sum(o.probability * row[g][v] for o, row in zip(outcomes, rows)) for v in (0, 1)]
        for g in columns
    ]


def _ensemble_gaps(pairs, gens, columns) -> list:
    """gaps[i][j][v]: coherence of state i minus its average over the
    selective outcomes of channel i, under generator gens[columns[i][j]]
    and variant v.

    The outcomes of every (channel, state) pair come from one
    outcome_ensembles call and every value from one coherence table
    over the states and their outcomes.
    """
    ensembles = outcome_ensembles([ch for ch, _ in pairs], [rho for _, rho in pairs])
    states = [rho for _, rho in pairs] + [o.state for outcomes in ensembles for o in outcomes]
    table = coherence_table(states, gens).tolist()
    rows = iter(table[len(pairs) :])
    gaps = []
    for own, outcomes, cols in zip(table, ensembles, columns):
        average = _outcome_average(outcomes, [next(rows) for _ in outcomes], cols)
        gaps.append([[own[g][v] - avg[v] for v in (0, 1)] for g, avg in zip(cols, average)])
    return gaps


def ensemble_coherence(ch: KrausChannel, rho: DensityMatrix, f: GeneratorFunction, fun) -> float:
    """Average coherence over the selective outcomes of one channel.

    ``fun`` is coherence_f or coherence_f_hat and picks the variant.
    """
    variants = (coherence_f, coherence_f_hat)  # the columns of a coherence table
    if fun not in variants:
        raise ValueError(f"fun must be coherence_f or coherence_f_hat, got {fun!r}")
    outcomes = ch.selective_outcomes(rho)
    rows = coherence_table([o.state for o in outcomes], [f]).tolist()
    return _outcome_average(outcomes, rows, [0])[0][variants.index(fun)]


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
    w = _Worst()
    if not dec:
        return w.report("strong-monotonicity", cfg, note)
    explore_worst = 0.0
    explore_trials = 0

    trials = max(1, cfg.trials_per_case // 2)
    every = range(len(dec))
    for case, d in enumerate(cfg.dims):
        # A trial's largest stack is one part's outcomes, at most d + 2.
        for chunk in _chunks(trials, d, d + 2):
            seeds = [_trial_seeds(cfg.seed, 300 + case, t) for t in chunk]
            pure, mixtures, general = [], [], []
            for t, s in zip(chunk, seeds):
                # (a) pure states, random diagonal channels, any dimension.
                pure.append((random_gio(d, 1 + t % (d + 1), s[1]), random_pure(d, s[0]).as_density()))
                # (b) diagonal-unitary mixtures saturate on any state.
                mix = _random_unitary_mixture(d, 2 + t % (d + 1), s[3])
                mixtures.append((mix, _draw_state(d, t + 1, s[2])))
                # (c) mixed states under general diagonal representations:
                # scored in dimension <= 2, explored above it.
                mixed = random_density(d, min(d, max(2, 1 + (t + 1) % d)), s[4])
                general.append((random_gio(d, 1 + (t + 2) % (d + 1), s[5]), mixed))
            # Parts (a) and (b) score one generator per trial, (c) all.
            own = [[t % len(dec)] for t in chunk]
            gaps_a = _ensemble_gaps(pure, dec, own)
            gaps_b = _ensemble_gaps(mixtures, dec, own)
            gaps_c = _ensemble_gaps(general, dec, [every] * len(chunk))
            for s, a, b, c in zip(seeds, gaps_a, gaps_b, gaps_c):
                w.trials += 1
                for gap in a[0]:
                    w.update(-gap, s[0])
                for gap in b[0]:
                    w.update(abs(gap), s[2])
                for gaps in c:
                    for gap in gaps:
                        if d <= 2:
                            w.update(-gap, s[4])
                        else:
                            explore_trials += 1
                            explore_worst = max(explore_worst, -gap)
    if explore_trials:
        extra = (
            f"exploration (mixed states, dim >= 3, general diagonal representations): "
            f"{explore_trials} checks, worst violation {explore_worst:.6e}, not scored"
        )
        note = f"{note}; {extra}" if note else extra
    return w.report("strong-monotonicity", cfg, note)


def suite_faithfulness_and_bounds(cfg: TrialConfig) -> VerificationReport:
    """Zero on incoherent states, strictly positive away from them,
    upper bounds, and the extremal state attaining them."""
    _, dec, note = _resolve(cfg)
    w = _Worst()
    if not dec:
        return w.report("faithfulness-bounds", cfg, note)
    per_kind = max(1, cfg.trials_per_case // (2 * max(1, len(cfg.dims))))
    for case, d in enumerate(cfg.dims):
        plain_max = [float(f(1.0 / d)) for f in dec]
        hat_max = [-float(f(d)) for f in dec]
        mcs = coherence_table([max_coherent_state(d).as_density()], dec)[0].tolist()
        for (plain, hat), top, hat_top in zip(mcs, plain_max, hat_max):
            w.update(abs(plain - top), cfg.seed)
            w.update(abs(hat - hat_top), cfg.seed)
        for t in range(per_kind):
            s = _trial_seeds(cfg.seed, 400 + case, t)
            w.trials += 1
            # Incoherent draw: coherence must vanish, distance must vanish.
            rng = np.random.default_rng(s[0])
            diag = DensityMatrix.from_diagonal(rng.dirichlet(np.ones(d)))
            # Coherent draw: rejection-sample until an off-diagonal is large.
            rho = None
            for attempt in range(64):
                cand = _draw_state(d, t + attempt, s[1] + attempt)
                if max_offdiagonal(cand.matrix) >= 0.1:
                    rho = cand
                    break
            table = coherence_table([diag] if rho is None else [diag, rho], dec).tolist()
            for plain, hat in table[0]:
                w.update(abs(plain), s[0])
                w.update(abs(hat), s[0])
            w.update(dephasing_distance(diag), s[0])
            if rho is None:
                continue
            dist = dephasing_distance(rho)
            for (plain, hat), top, hat_top in zip(table[1], plain_max, hat_max):
                # Faithfulness both ways at the configured tolerance.
                if (plain <= cfg.tol_violation) != (dist <= cfg.tol_violation):
                    w.update(1.0, s[1])
                if (hat <= cfg.tol_violation) != (dist <= cfg.tol_violation):
                    w.update(1.0, s[1])
                w.update(-plain, s[1])
                w.update(-hat, s[1])
                w.update(plain - top, s[1])
                w.update(hat - hat_top, s[1])
            # Pure-state coherence equals the dephased state's entropy.
            if t % 3 == 0:
                psi = random_pure(d, s[2]).as_density()
                f = dec[t % len(dec)]
                coh = coherence_table([psi], [f])[0, 0].tolist()
                ent = entropy_table([dephase(psi)], [f])[0, 0].tolist()
                for v in (0, 1):
                    w.update(abs(coh[v] - ent[v]), s[2])
    return w.report("faithfulness-bounds", cfg, note)


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
    """sio_counterexample_report for each generator, from one pair of
    tensor-extension states and one coherence table."""
    rho = max_coherent_state(d).as_density()
    mixed = DensityMatrix.maximally_mixed(d)
    ground = DensityMatrix.from_diagonal([1.0] + [0.0] * (d - 1))
    table = coherence_table([rho.tensor(mixed), rho.tensor(ground)], gens).tolist()

    numerators = [
        1.0 / d,         # rho (x) I/d keeps the d-scaled value
        1.0 / (d * d),   # rho (x) ground at dimension d^2
        float(d),        # eigenvalues diluted by 1/d
        1.0,             # unscaled value survives the ground ancilla
    ]
    rows = np.array((rho.eigenvalues(), rho.diagonal_probabilities()))
    reports = []
    for f, (lhs_plain, lhs_hat), (rhs_plain, rhs_hat) in zip(gens, table[0], table[1]):
        sums = f_weighted_sum(rows, np.array(numerators)[:, None], f)
        ident_lhs_plain, ident_rhs_plain, ident_lhs_hat, ident_rhs_hat = (sums[:, 0] - sums[:, 1]).tolist()
        cross = max(
            abs(lhs_plain - ident_lhs_plain),
            abs(rhs_plain - ident_rhs_plain),
            abs(lhs_hat - ident_lhs_hat),
            abs(rhs_hat - ident_rhs_hat),
        )
        gap = max(abs(lhs_plain - rhs_plain), abs(lhs_hat - rhs_hat))
        reports.append(
            SioCounterexampleReport(
                f_name=f.name,
                dim=d,
                lhs_plain=lhs_plain,
                rhs_plain=rhs_plain,
                lhs_hat=lhs_hat,
                rhs_hat=rhs_hat,
                gap=gap,
                cross_check_error=cross,
            )
        )
    return reports


def suite_sio_counterexample(cfg: TrialConfig) -> VerificationReport:
    """The separation witness: no gap for neg_log, a large gap for every
    other decreasing generator, identities consistent throughout."""
    _, dec, note = _resolve(cfg)
    w = _Worst()
    if not dec:
        return w.report("sio-counterexample", cfg, note)
    # The witness needs an ancilla of dimension at least 2.
    dims = sorted(set(d for d in cfg.dims if 2 <= d <= 3)) or [2]
    for d in dims:
        for rep in _sio_reports(dec, d):
            w.trials += 1
            w.update(rep.cross_check_error, cfg.seed)
            if rep.f_name == "neg_log":
                w.update(rep.gap, cfg.seed)
            else:
                w.update(10.0 * cfg.tol_violation - rep.gap, cfg.seed)
    return w.report("sio-counterexample", cfg, note)


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
    reports = []
    for name in names:
        # A share stops at its first exception, so a suite without a
        # result comes after a failed one.
        result = results[name]
        if isinstance(result, BaseException):
            raise result
        reports.append(result)
    return reports


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
