"""Command-line front end.

Standard output carries JSON or JSON lines only; diagnostics go to
standard error. Each ``cmd_*`` returns its JSON documents and whether
its checks passed; ``main`` writes them once, to standard output or
``--out``, and maps a package error to its exit code through
``_EXIT_CODES``, the first matching row winning. Exit codes: 0 success,
2 unreadable input, an unwritable output or bad flags, 3 failed
validation, 4 unknown or out-of-range generator spec or a generator
without the limit the state needs, 5 dimension mismatch, 6
verification-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .coherence import (
    coherence_f,
    coherence_f_hat,
    coherence_table,
    dephase,
    max_coherent_state,
    relative_entropy_coherence,
)
from .divergence import f_entropy, f_entropy_hat, quasi_relative_entropy
from .errors import (
    CoherenceError,
    DimensionMismatch,
    FileFormatError,
    ParamOutOfRange,
    UnknownGenerator,
    UnsupportedLimit,
)
from .generators import lookup
from .io import _write_text, dumps17, load_channel_or_builtin, load_state
from .states import DensityMatrix, random_density
from .verify import DEFAULT_F_SPECS, SUITES, TrialConfig, _bounds, run_all, sio_counterexample_report

__all__ = ["build_parser", "main", "main_entry"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_GENERATOR = 4
EXIT_DIMENSION = 5
EXIT_SUITE = 6

# (error types, exit code) in the order main tries them.
_EXIT_CODES = (
    (FileFormatError, EXIT_INPUT),
    ((UnknownGenerator, ParamOutOfRange, UnsupportedLimit), EXIT_GENERATOR),
    (DimensionMismatch, EXIT_DIMENSION),
    (CoherenceError, EXIT_VALIDATION),
)

DECREASING_BUILTINS = tuple(spec for spec in DEFAULT_F_SPECS if lookup(spec).monotone_decreasing)


def _diag(message: str) -> None:
    print(f"fcoherence: {message}", file=sys.stderr)


def _seed(args) -> int:
    """--seed, else QCOH_SEED, else 0, as a non-negative integer."""
    if args.seed is not None:
        source, raw = "--seed", args.seed
    else:
        source, raw = "QCOH_SEED", os.environ.get("QCOH_SEED", "0")
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise FileFormatError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _emit(text: str, out: str | None) -> None:
    """Write text and a newline to the file out, else to standard output;
    a failed write raises FileFormatError."""
    if out:
        _write_text(out, text + "\n")
        return
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        raise FileFormatError(f"cannot write standard output: {exc.strerror or exc}") from exc


def _state_doc(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": rho.matrix}


def cmd_coherence(args) -> tuple[list[dict], bool]:
    rho = load_state(args.state)
    res = (coherence_f_hat if args.variant == "hat" else coherence_f)(rho, lookup(args.f))
    doc = {"value": res.value, "f_name": res.f_name, "variant": res.variant, "dim": rho.dim,
           "eigenvalues": res.eigenvalues, "diagonal": res.diagonal}
    return [doc], True


def cmd_divergence(args) -> tuple[list[dict], bool]:
    a, b = load_state(args.state_a), load_state(args.state_b)
    f = lookup(args.f)
    return [{"value": quasi_relative_entropy(a, b, f), "f_name": f.name}], True


def cmd_entropy(args) -> tuple[list[dict], bool]:
    rho = load_state(args.state)
    f = lookup(args.f)
    value = (f_entropy_hat if args.variant == "hat" else f_entropy)(rho, f)
    return [{"value": value, "f_name": f.name, "variant": args.variant, "dim": rho.dim}], True


def cmd_channel(args) -> tuple[list[dict], bool]:
    ch = load_channel_or_builtin(args.channel)
    rho = load_state(args.state)
    if not args.selective:
        return [_state_doc(ch.apply(rho))], True
    outcomes = [{"probability": o.probability, "state": _state_doc(o.state)} for o in ch.selective_outcomes(rho)]
    return [{"dim": ch.dim, "outcomes": outcomes}], True


def cmd_verify(args) -> tuple[list[dict], bool]:
    try:
        dims = None if args.dims is None else tuple(int(part) for part in args.dims.split(","))
    except ValueError:
        raise FileFormatError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    specs = None if args.f is None else tuple(part.strip() for part in args.f.split(",") if part.strip())
    given = {"dims": dims, "trials_per_case": args.trials, "f_list": specs}
    seed = _seed(args)
    try:
        cfg = TrialConfig(seed=seed, **{key: value for key, value in given.items() if value is not None})
    except ValueError as exc:  # dims, trials or generator list out of range
        raise FileFormatError(str(exc)) from None
    reports = run_all(cfg) if args.suite == "all" else [SUITES[args.suite](cfg)]
    return [rep.to_json_dict() for rep in reports], all(rep.passed for rep in reports)


def _demo_log_chain(seed: int) -> tuple[list[dict], bool]:
    f = lookup("neg_log")
    rho = random_density(3, 3, seed)
    values = {
        "entropy_difference": f_entropy_hat(dephase(rho), f) - f_entropy_hat(rho, f),
        "hat_coherence": coherence_f_hat(rho, f).value,
        "divergence_to_dephased": quasi_relative_entropy(rho, dephase(rho), f),
        "shannon_difference": relative_entropy_coherence(rho),
    }
    spread = max(values.values()) - min(values.values())
    return [{"check": "log-chain", **values, "spread": spread, "pass": spread <= 1e-8}], spread <= 1e-8


def _demo_sio_separation(seed: int) -> tuple[list[dict], bool]:
    docs = []
    for spec, expect_gap in (("neg_log", False), ("power:0.5", True)):
        rep = sio_counterexample_report(spec, 2)
        ok = (rep.gap > 0.01 if expect_gap else rep.gap <= 1e-10) and rep.cross_check_error <= 1e-10
        docs.append({**rep.to_json_dict(), "check": "sio-separation", "pass": ok})
    return docs, all(doc["pass"] for doc in docs)


def _demo_max_coherent(seed: int) -> tuple[list[dict], bool]:
    """Both variants at the maximally coherent state of d = 4 against the
    bounds the faithfulness suite scores, f(1/d) and -f(d)."""
    d = 4
    gens = [lookup(spec) for spec in DECREASING_BUILTINS]
    values = coherence_table([max_coherent_state(d).as_density()], gens)[0]
    docs = []
    for f, (plain, hat), (plain_bound, hat_bound) in zip(gens, values, _bounds(d, gens)):
        ok = abs(plain - plain_bound) <= 1e-10 and abs(hat - hat_bound) <= 1e-10
        docs.append({"check": "max-coherent", "f_name": f.name, "dim": d, "plain": plain,
                     "plain_bound": plain_bound, "hat": hat, "hat_bound": hat_bound, "pass": ok})
    return docs, all(doc["pass"] for doc in docs)


DEMOS = {
    "log-chain": _demo_log_chain,
    "sio-separation": _demo_sio_separation,
    "max-coherent": _demo_max_coherent,
}


def cmd_demo(args) -> tuple[list[dict], bool]:
    docs, ok = DEMOS[args.name](_seed(args))
    if not ok:
        _diag(f"demo {args.name}: checks failed")
    return docs, ok


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the fcoherence command line."""
    parser = argparse.ArgumentParser(
        prog="fcoherence",
        description="Coherence measures built from operator convex divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="coherence of a state file")
    p.add_argument("state", help="state file (JSON)")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("divergence", help="divergence between two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("entropy", help="entropy of a state file")
    p.add_argument("state")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("channel", help="apply a channel file or builtin to a state")
    p.add_argument("channel", help="channel file, or depol-ext:d / erase-ext:d / dephase:d")
    p.add_argument("state")
    p.add_argument("--selective", action="store_true", help="list measurement outcomes")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dims", help="comma-separated dimensions, e.g. 2,3,4,5")
    p.add_argument("--f", help="comma-separated generator specs")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run a bundled walkthrough")
    p.add_argument("name", choices=tuple(DEMOS))
    p.set_defaults(func=cmd_demo)

    # The options that commands share, each declared once.
    for name, p in sub.choices.items():
        if name in ("coherence", "divergence", "entropy"):
            p.add_argument("--f", default="neg_log", help="generator spec, e.g. neg_log, power:0.5")
        if name in ("coherence", "entropy"):
            p.add_argument("--variant", choices=("plain", "hat"), default="plain")
        if name in ("verify", "demo"):
            p.add_argument("--seed", type=int, default=None, help="default QCOH_SEED or 0")
        p.add_argument("--out", help="write the JSON result to this file")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call, not at import; parse_args keeps no state
    # between calls, so one parser serves every main() in the process.
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_INPUT
    try:
        docs, ok = args.func(args)
        _emit("\n".join(map(dumps17, docs)), args.out)
    except CoherenceError as exc:
        _diag(str(exc))
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    return EXIT_OK if ok else EXIT_SUITE


def main_entry() -> None:
    sys.exit(main())
