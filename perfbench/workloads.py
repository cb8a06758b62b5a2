"""The benchmark's three workloads, their seeded inputs and output checks.

Each workload generates its raw inputs (numpy arrays, argument lists)
from the seed when it is constructed; that is the input-generation part
of ``setup_s``. A pass hands those inputs to the program, one call at a
time (closed loop), and keeps the outputs. ``check`` then verifies the
outputs against independent numpy computations or the matching API
call; it runs outside the timed pass and calls no traced function.

Program functions are reached through module attributes at call time
(``fc.coherence_f``, ``cli.main``), so the traced run's rebinding
applies to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import time

import numpy as np

import fcoherence as fc
from fcoherence import cli

DECREASING = ("neg_log", "power:0.5", "tsallis:0.5", "tsallis:1.5")
INCREASING = "power:1.5"


class Ops:
    """Closed-loop caller: times every call, counts attempts and failures.

    A call that raises, or whose output fails a check, is one failed
    operation. ``commands`` holds the latencies of the calls a user would
    make (CLI commands or public API calls), in seconds.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.commands: list[float] = []
        self.errors: list[str] = []
        self._failed: set[int] = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    @property
    def last(self) -> int:
        return self.attempted - 1

    def call(self, fn, *args, command: bool = True):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # a failing call is a counted failure, not a crash
            self.fail(self.last, f"{getattr(fn, '__qualname__', fn)}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if command:
                self.commands.append(time.perf_counter() - t0)

    def fail(self, op: int, message: str) -> None:
        self._failed.add(op)
        if len(self.errors) < 5:
            self.errors.append(message)

    def expect(self, ok: bool, op: int, message: str) -> None:
        if not ok:
            self.fail(op, message)


def conditioned_state(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank density matrix (I + 0.9 H / |H|_F) / d, with H a traceless
    Hermitian Gaussian draw.

    The spectral norm is at most the Frobenius norm, so every eigenvalue
    lies in [0.1/d, 1.9/d] and the absolute tolerances of the checks are
    not at the mercy of an ill-conditioned eigenproblem. Only elementwise
    numpy is used, so generation time does not depend on the state of
    the BLAS thread pool.
    """
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = g + g.conj().T
    h -= np.trace(h) / d * np.eye(d)
    return (np.eye(d) + 0.9 * h / np.sqrt(np.sum(np.abs(h) ** 2))) / d


def diagonal_kraus(rng: np.random.Generator, d: int, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Coefficient table (k, d) with unit columns and its diagonal Kraus list."""
    coeffs = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    coeffs /= np.linalg.norm(coeffs, axis=0)
    return coeffs, [np.diag(row) for row in coeffs]


def shannon(p: np.ndarray) -> float:
    p = p[p > 1e-12]
    return float(-(p * np.log(p)).sum())


def max_abs(a, b) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


class Workload:
    """A workload makes its inputs from the seed in ``__init__(seed,
    workdir)``; ``run_pass(ops)`` makes the timed calls and returns what
    ``check(ops, outputs)`` verifies afterwards."""

    name: str

    def prepare(self) -> None:
        """Untimed, untraced work before the first pass."""

    def info(self) -> dict:
        """Facts about the run for the info line."""
        return {}


class VerifyAll(Workload):
    """``fcoherence verify --suite all`` through ``cli.main``, default
    generators and dims 2..5, at TRIALS trials per case."""

    name = "verify-all"
    TRIALS = 10

    def __init__(self, seed: int, workdir: str) -> None:
        self.argv = ["verify", "--suite", "all", "--seed", str(seed), "--trials", str(self.TRIALS)]
        self.stdout: str | None = None

    def run_pass(self, ops: Ops) -> list:
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = ops.call(cli.main, self.argv)
        return [(ops.last, rc, buf.getvalue())]

    def check(self, ops: Ops, outputs: list) -> None:
        for op, rc, text in outputs:
            lines = text.splitlines()
            ops.expect(rc == 0, op, f"verify exit code {rc}")
            ops.expect(len(lines) == 6, op, f"verify printed {len(lines)} lines")
            failed = [doc["suite"] for doc in map(json.loads, lines) if doc["passed"] is not True]
            ops.expect(not failed, op, f"suites failed: {failed}")
            if self.stdout is None:
                self.stdout = text
            ops.expect(text == self.stdout, op, "verify stdout differs between passes")

    def info(self) -> dict:
        digest = hashlib.sha256((self.stdout or "").encode()).hexdigest()
        return {"verify_argv": self.argv, "verify_stdout_sha256": digest}


class LargeD(Workload):
    """Public API calls at large dimension, where LAPACK, the
    quasi-relative-entropy group loops and ``KrausChannel.apply`` dominate."""

    name = "large-d"
    SPECTRAL_DIMS = (64, 128, 256)
    CHANNEL_DIMS = (32, 64)
    CHANNEL_KRAUS = 4
    EXTENSION_DIMS = (4, 5)
    TOL = 1e-10

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.gens = {spec: fc.lookup(spec) for spec in DECREASING + (INCREASING,)}
        self.spectral = {d: (conditioned_state(rng, d), conditioned_state(rng, d)) for d in self.SPECTRAL_DIMS}
        self.channel = {
            d: (conditioned_state(rng, d),) + diagonal_kraus(rng, d, self.CHANNEL_KRAUS)
            for d in self.CHANNEL_DIMS
        }
        self.extension = {d: conditioned_state(rng, d * d) for d in self.EXTENSION_DIMS}

    def run_pass(self, ops: Ops) -> list:
        g = self.gens
        out = []
        for d, (a, b) in self.spectral.items():
            rho = ops.call(fc.validate_density, a)
            sigma = ops.call(fc.validate_density, b)
            plain, hat = {}, {}
            for spec in DECREASING:
                plain[spec] = ops.call(fc.coherence_f, rho, g[spec])
                hat[spec] = ops.call(fc.coherence_f_hat, rho, g[spec])
                ops.call(fc.f_entropy, rho, g[spec])
                ops.call(fc.f_entropy_hat, rho, g[spec])
            dephased = ops.call(fc.dephase, rho)
            to_dephased = ops.call(fc.quasi_relative_entropy, rho, dephased, g["neg_log"])
            shannon_gap = ops.call(fc.relative_entropy_coherence, rho)
            out.append(("log-chain", ops.last, hat["neg_log"], to_dephased, shannon_gap))
            for alpha in (0.5, 1.5):
                pc = ops.call(fc.power_coherence, rho, alpha)
                spec = f"tsallis:{alpha:g}"
                out.append(("power", ops.last, pc, plain[spec], hat[spec]))
            ops.call(fc.quasi_relative_entropy, rho, sigma, g[INCREASING])
        for d, (a, coeffs, kraus) in self.channel.items():
            rho = ops.call(fc.validate_density, a)
            ch = ops.call(fc.GioChannel, kraus)
            applied = ops.call(ch.apply, rho)
            out.append(("schur", ops.last, coeffs, rho, applied))
            outcomes = ops.call(ch.selective_outcomes, rho)
            out.append(("selective", ops.last, outcomes, applied))
            ensemble = ops.call(fc.ensemble_coherence, ch, rho, g["neg_log"], fc.coherence_f)
            out.append(("ensemble", ops.last, coeffs, rho, ensemble))
        for d, a in self.extension.items():
            rho = ops.call(fc.validate_density, a)
            for build, ancilla in ((fc.depolarizing_extension, np.eye(d) / d),
                                   (fc.erasure_extension, np.diag(np.eye(d)[0]))):
                ch = ops.call(build, d)
                applied = ops.call(ch.apply, rho)
                out.append(("extension", ops.last, d, ancilla, rho, applied))
                outcomes = ops.call(ch.selective_outcomes, rho)
                out.append(("selective", ops.last, outcomes, applied))
        return out

    def check(self, ops: Ops, outputs: list) -> None:
        tol = self.TOL
        for kind, op, *data in outputs:
            if any(x is None for x in data):
                continue  # the failed call is already counted
            if kind == "log-chain":
                hat, to_dephased, shannon_gap = data
                spread = max(hat.value, to_dephased, shannon_gap) - min(hat.value, to_dephased, shannon_gap)
                ops.expect(spread <= tol, op, f"log-chain spread {spread:.3e}")
            elif kind == "power":
                pc, plain, hat = data
                gap = max(abs(pc.plain - plain.value), abs(pc.hat - hat.value))
                ops.expect(gap <= tol, op, f"power coherence vs tsallis gap {gap:.3e}")
            elif kind == "schur":
                coeffs, rho, applied = data
                schur = (coeffs.T @ coeffs.conj()) * rho.matrix
                err = max_abs(applied.matrix, schur)
                ops.expect(err <= tol, op, f"diagonal apply vs Schur product {err:.3e}")
            elif kind == "selective":
                outcomes, applied = data
                total = sum(o.probability for o in outcomes)
                mean = sum(o.probability * o.state.matrix for o in outcomes)
                err = max(abs(total - 1.0), max_abs(mean, applied.matrix))
                ops.expect(err <= tol, op, f"selective outcomes vs apply {err:.3e}")
            elif kind == "ensemble":
                coeffs, rho, ensemble = data
                expected = 0.0
                for row in coeffs:
                    e = (row[:, None] * rho.matrix) * row.conj()[None, :]
                    p = float(np.real(np.trace(e)))
                    expected += p * (shannon(np.real(np.diagonal(e)) / p) - shannon(np.linalg.eigvalsh(e / p)))
                err = abs(ensemble - expected)
                ops.expect(err <= tol, op, f"ensemble coherence vs numpy {err:.3e}")
            elif kind == "extension":
                d, ancilla, rho, applied = data
                reduced = np.einsum("iaja->ij", rho.matrix.reshape(d, d, d, d))
                err = max_abs(applied.matrix, np.kron(reduced, ancilla))
                ops.expect(err <= tol, op, f"ancilla extension vs partial trace {err:.3e}")


class CliFiles(Workload):
    """One-shot CLI flow: write state and channel files, then run
    in-process ``cli.main`` commands with ``--out`` and read each back."""

    name = "cli-files"
    STATE_DIMS = (2, 4, 8, 16)
    CHANNEL_KRAUS = 3
    # depol-ext:e and erase-ext:e act on dimension e*e; 9 is written only for them.
    EXTENSIONS = (3, 4)
    TOL = 1e-12

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.dir = workdir
        dims = sorted(set(self.STATE_DIMS) | {e * e for e in self.EXTENSIONS})
        self.states = {
            (d, tag): (conditioned_state(rng, d), self._path(f"state-{tag}{d}.json"))
            for d in dims for tag in "ab"
        }
        self.channels = {
            d: (diagonal_kraus(rng, d, self.CHANNEL_KRAUS)[1], self._path(f"chan-{d}.json"))
            for d in self.STATE_DIMS
        }
        self.commands = self._commands()
        self.expected: list | None = None

    def _path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _commands(self) -> list[list[str]]:
        cmds = []
        st = {key: path for key, (_, path) in self.states.items()}
        for d in self.STATE_DIMS:
            a, b = st[d, "a"], st[d, "b"]
            for path in (a, b):
                for spec in DECREASING:
                    for variant in ("plain", "hat"):
                        cmds.append(["coherence", path, "--f", spec, "--variant", variant])
                        cmds.append(["entropy", path, "--f", spec, "--variant", variant])
            for spec in DECREASING + (INCREASING,):
                cmds.append(["divergence", a, b, "--f", spec])
                cmds.append(["divergence", b, a, "--f", spec])
            for channel in (self.channels[d][1], f"dephase:{d}"):
                for path in (a, b):
                    cmds.append(["channel", channel, path])
                    cmds.append(["channel", channel, path, "--selective"])
        for e in self.EXTENSIONS:
            for channel in (f"depol-ext:{e}", f"erase-ext:{e}"):
                for path in (st[e * e, "a"], st[e * e, "b"]):
                    cmds.append(["channel", channel, path])
                    cmds.append(["channel", channel, path, "--selective"])
        return [cmd + ["--out", self._path(f"out-{i}.json")] for i, cmd in enumerate(cmds)]

    def write_inputs(self, ops: Ops) -> None:
        for raw, path in self.states.values():
            rho = ops.call(fc.validate_density, raw, command=False)
            ops.call(fc.save_state, rho, path, command=False)
        for kraus, path in self.channels.values():
            ch = ops.call(fc.GioChannel, kraus, command=False)
            ops.call(fc.save_channel, ch, path, command=False)

    def prepare(self) -> None:
        """Write the inputs once and compute, through the same API calls
        the commands make, the value every ``--out`` file must hold."""
        self.write_inputs(Ops())
        self.expected = [self._api(cmd[:-2]) for cmd in self.commands]

    @staticmethod
    def _api(cmd: list[str]):
        kind, args = cmd[0], cmd[1:]

        def opt(flag: str) -> str:
            return args[args.index(flag) + 1]

        if kind in ("coherence", "entropy"):
            rho, f = fc.load_state(args[0]), fc.lookup(opt("--f"))
            hat = opt("--variant") == "hat"
            if kind == "coherence":
                return (fc.coherence_f_hat if hat else fc.coherence_f)(rho, f).value
            return (fc.f_entropy_hat if hat else fc.f_entropy)(rho, f)
        if kind == "divergence":
            return fc.quasi_relative_entropy(fc.load_state(args[0]), fc.load_state(args[1]), fc.lookup(opt("--f")))
        ch, rho = fc.load_channel_or_builtin(args[0]), fc.load_state(args[1])
        if "--selective" in args:
            return [(o.probability, o.state.matrix) for o in ch.selective_outcomes(rho)]
        return ch.apply(rho).matrix

    def run_pass(self, ops: Ops) -> list:
        self.write_inputs(ops)
        out = []
        for cmd in self.commands:
            rc = ops.call(cli.main, cmd)
            out.append((ops.last, rc, cmd[-1]))
        return out

    def check(self, ops: Ops, outputs: list) -> None:
        for (op, rc, path), want in zip(outputs, self.expected):
            if rc != 0:
                ops.fail(op, f"exit code {rc} for {path}")
                continue
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if "value" in doc:
                err = abs(doc["value"] - want)
            elif "outcomes" in doc:
                got = doc["outcomes"]
                if len(got) != len(want):
                    ops.fail(op, f"{path}: {len(got)} outcomes, expected {len(want)}")
                    continue
                err = max(
                    max(abs(g["probability"] - p), max_abs(_matrix(g["state"]["matrix"]), m))
                    for g, (p, m) in zip(got, want)
                )
            else:
                err = max_abs(_matrix(doc["matrix"]), want)
            ops.expect(err <= self.TOL, op, f"{path}: output differs from the API call by {err:.3e}")

    def info(self) -> dict:
        return {"cli_commands_per_pass": len(self.commands)}


def _matrix(cells) -> np.ndarray:
    a = np.asarray(cells, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


WORKLOADS = {w.name: w for w in (VerifyAll, LargeD, CliFiles)}
