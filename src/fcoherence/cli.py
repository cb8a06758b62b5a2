"""Command-line front end.

Standard output carries JSON or JSON lines only; diagnostics go to
standard error. Exit codes: 0 success, 2 unreadable input or bad flags,
3 failed validation, 4 unknown or out-of-range generator spec or a
generator without the limit the state needs, 5 dimension mismatch, 6
verification-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from .coherence import (
    coherence_f,
    coherence_f_hat,
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
from .verify import DEFAULT_F_SPECS, SUITES, TrialConfig, run_all, sio_counterexample_report

__all__ = ["build_parser", "main", "main_entry"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VALIDATION = 3
EXIT_GENERATOR = 4
EXIT_DIMENSION = 5
EXIT_SUITE = 6

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
    if out:
        _write_text(out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _state_doc(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, "matrix": rho.matrix}


def cmd_coherence(args) -> int:
    rho = load_state(args.state)
    f = lookup(args.f)
    fun = coherence_f_hat if args.variant == "hat" else coherence_f
    res = fun(rho, f)
    doc = {
        "value": res.value,
        "f_name": res.f_name,
        "variant": res.variant,
        "dim": rho.dim,
        "eigenvalues": res.eigenvalues,
        "diagonal": res.diagonal,
    }
    _emit(dumps17(doc), args.out)
    return EXIT_OK


def cmd_divergence(args) -> int:
    a = load_state(args.state_a)
    b = load_state(args.state_b)
    f = lookup(args.f)
    value = quasi_relative_entropy(a, b, f)
    _emit(dumps17({"value": value, "f_name": f.name}), args.out)
    return EXIT_OK


def cmd_entropy(args) -> int:
    rho = load_state(args.state)
    f = lookup(args.f)
    fun = f_entropy_hat if args.variant == "hat" else f_entropy
    doc = {
        "value": fun(rho, f),
        "f_name": f.name,
        "variant": args.variant,
        "dim": rho.dim,
    }
    _emit(dumps17(doc), args.out)
    return EXIT_OK


def cmd_channel(args) -> int:
    ch = load_channel_or_builtin(args.channel)
    rho = load_state(args.state)
    if args.selective:
        outcomes = [
            {"probability": o.probability, "state": _state_doc(o.state)}
            for o in ch.selective_outcomes(rho)
        ]
        _emit(dumps17({"dim": ch.dim, "outcomes": outcomes}), args.out)
    else:
        _emit(dumps17(_state_doc(ch.apply(rho))), args.out)
    return EXIT_OK


def _parse_dims(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise FileFormatError(f"--dims must be comma-separated integers, got {raw!r}") from None


def cmd_verify(args) -> int:
    kwargs = {}
    if args.dims is not None:
        kwargs["dims"] = _parse_dims(args.dims)
    if args.trials is not None:
        kwargs["trials_per_case"] = args.trials
    if args.f is not None:
        kwargs["f_list"] = tuple(part.strip() for part in args.f.split(",") if part.strip())
    seed = _seed(args)
    try:
        cfg = TrialConfig(seed=seed, **kwargs)
    except ValueError as exc:  # dims, trials or tolerance out of range
        _diag(str(exc))
        return EXIT_INPUT
    reports = run_all(cfg) if args.suite == "all" else [SUITES[args.suite](cfg)]
    _emit("\n".join(dumps17(rep.to_json_dict()) for rep in reports), args.out)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_SUITE


def _demo_log_chain(seed: int) -> tuple[list[str], bool]:
    f = lookup("neg_log")
    rho = random_density(3, 3, seed)
    via_entropy = f_entropy_hat(dephase(rho), f) - f_entropy_hat(rho, f)
    via_coherence = coherence_f_hat(rho, f).value
    via_divergence = quasi_relative_entropy(rho, dephase(rho), f)
    shannon = relative_entropy_coherence(rho)
    spread = max(via_entropy, via_coherence, via_divergence, shannon) - min(
        via_entropy, via_coherence, via_divergence, shannon
    )
    ok = spread <= 1e-8
    line = dumps17(
        {
            "check": "log-chain",
            "entropy_difference": via_entropy,
            "hat_coherence": via_coherence,
            "divergence_to_dephased": via_divergence,
            "shannon_difference": shannon,
            "spread": spread,
            "pass": ok,
        }
    )
    return [line], ok


def _demo_sio_separation(seed: int) -> tuple[list[str], bool]:
    del seed
    lines = []
    all_ok = True
    for spec, expect_gap in (("neg_log", False), ("power:0.5", True)):
        rep = sio_counterexample_report(spec, 2)
        ok = rep.gap > 0.01 if expect_gap else rep.gap <= 1e-10
        ok = ok and rep.cross_check_error <= 1e-10
        all_ok = all_ok and ok
        doc = rep.to_json_dict()
        doc["check"] = "sio-separation"
        doc["pass"] = ok
        lines.append(dumps17(doc))
    return lines, all_ok


def _demo_max_coherent(seed: int) -> tuple[list[str], bool]:
    del seed
    d = 4
    rho = max_coherent_state(d).as_density()
    lines = []
    all_ok = True
    for spec in DECREASING_BUILTINS:
        f = lookup(spec)
        plain = coherence_f(rho, f).value
        hat = coherence_f_hat(rho, f).value
        ok = abs(plain - float(f(1.0 / d))) <= 1e-10 and abs(hat + float(f(d))) <= 1e-10
        all_ok = all_ok and ok
        lines.append(
            dumps17(
                {
                    "check": "max-coherent",
                    "f_name": f.name,
                    "dim": d,
                    "plain": plain,
                    "plain_bound": float(f(1.0 / d)),
                    "hat": hat,
                    "hat_bound": -float(f(d)),
                    "pass": ok,
                }
            )
        )
    return lines, all_ok


DEMOS = {
    "log-chain": _demo_log_chain,
    "sio-separation": _demo_sio_separation,
    "max-coherent": _demo_max_coherent,
}


def cmd_demo(args) -> int:
    lines, ok = DEMOS[args.name](_seed(args))
    _emit("\n".join(lines), args.out)
    if not ok:
        _diag(f"demo {args.name}: checks failed")
    return EXIT_OK if ok else EXIT_SUITE


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the fcoherence command line."""
    parser = argparse.ArgumentParser(
        prog="fcoherence",
        description="Coherence measures built from operator convex divergences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coherence", help="coherence of a state file")
    p.add_argument("state", help="state file (JSON)")
    p.add_argument("--f", default="neg_log", help="generator spec, e.g. neg_log, power:0.5")
    p.add_argument("--variant", choices=("plain", "hat"), default="plain")
    p.add_argument("--out", help="write the JSON result to this file")
    p.set_defaults(func=cmd_coherence)

    p = sub.add_parser("divergence", help="divergence between two state files")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--f", default="neg_log")
    p.add_argument("--out")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("entropy", help="entropy of a state file")
    p.add_argument("state")
    p.add_argument("--f", default="neg_log")
    p.add_argument("--variant", choices=("plain", "hat"), default="plain")
    p.add_argument("--out")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("channel", help="apply a channel file or builtin to a state")
    p.add_argument("channel", help="channel file, or depol-ext:d / erase-ext:d / dephase:d")
    p.add_argument("state")
    p.add_argument("--selective", action="store_true", help="list measurement outcomes")
    p.add_argument("--out")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=None, help="default QCOH_SEED or 0")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dims", help="comma-separated dimensions, e.g. 2,3,4,5")
    p.add_argument("--f", help="comma-separated generator specs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="run a bundled walkthrough")
    p.add_argument("name", choices=tuple(DEMOS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo)

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
        return args.func(args)
    except FileFormatError as exc:
        _diag(str(exc))
        return EXIT_INPUT
    except (UnknownGenerator, ParamOutOfRange, UnsupportedLimit) as exc:
        _diag(str(exc))
        return EXIT_GENERATOR
    except DimensionMismatch as exc:
        _diag(str(exc))
        return EXIT_DIMENSION
    except CoherenceError as exc:  # failed validation, and any other package error
        _diag(str(exc))
        return EXIT_VALIDATION


def main_entry() -> None:
    sys.exit(main())
