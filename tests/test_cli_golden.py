"""The command line pinned byte for byte against tests/data/cli_golden.jsonl.

Each record holds a command's argv (paths relative to the input
directory), its QCOH_SEED, exit code, stdout, the bytes of its --out
file and its stderr (the input directory written as <dir>). Commands
that stop in argparse record their exit code only, since argparse owns
that text.

Regenerate, only when a change of output is intended and explained:
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fcoherence import random_channel, random_density, random_gio, save_channel, save_state
from fcoherence.cli import main
from fcoherence.verify import DEFAULT_F_SPECS

GOLDEN = Path(__file__).parent / "data" / "cli_golden.jsonl"
DIMS = (1, 2, 4)
INVALID = '{"dim": 2, "matrix": [[[0.5, 0.0], [0.3, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}'


def write_inputs(root: str) -> None:
    """A pure and a full-rank state at each of DIMS, a GIO and a dense
    channel file on d = 2 and a non-Hermitian state file."""
    for d in DIMS:
        save_state(random_density(d, 1, seed=d), os.path.join(root, f"pure{d}.json"))
        save_state(random_density(d, d, seed=10 + d), os.path.join(root, f"full{d}.json"))
    save_channel(random_gio(2, 2, seed=1), os.path.join(root, "gio.json"))
    save_channel(random_channel(2, 2, seed=2), os.path.join(root, "dense.json"))
    with open(os.path.join(root, "invalid.json"), "w", encoding="utf-8") as fh:
        fh.write(INVALID)


def _cases() -> list[tuple[list[str], str | None, bool]]:
    """(argv with file names relative to the input directory, QCOH_SEED,
    whether argparse stops it)."""
    cases = []
    for d in DIMS:
        for kind in ("pure", "full"):
            for command in ("coherence", "entropy"):
                for spec in DEFAULT_F_SPECS:
                    for variant in ("plain", "hat"):
                        cases.append(([command, f"{kind}{d}.json", "--f", spec, "--variant", variant], None, False))
        for spec in DEFAULT_F_SPECS:
            cases.append((["divergence", f"full{d}.json", f"pure{d}.json", "--f", spec], None, False))
            cases.append((["divergence", f"pure{d}.json", f"full{d}.json", "--f", spec], None, False))
    for channel, d in (("gio.json", 2), ("dense.json", 2), ("dephase:2", 2), ("depol-ext:2", 4), ("erase-ext:2", 4)):
        for kind in ("pure", "full"):
            cases.append((["channel", channel, f"{kind}{d}.json"], None, False))
            cases.append((["channel", channel, f"{kind}{d}.json", "--selective"], None, False))
    for name in ("log-chain", "sio-separation", "max-coherent"):
        cases.append((["demo", name], None, False))
        cases.append((["demo", name, "--seed", "3"], None, False))
        cases.append((["demo", name], "3", False))
    cases += [
        (["coherence", "full2.json"], None, False),
        (["verify", "--suite", "sio-counterexample"], None, False),
        (["verify", "--trials", "2", "--dims", "2,3"], None, False),
        (["coherence", "missing.json"], None, False),
        (["coherence", "invalid.json"], None, False),
        (["coherence", "pure2.json", "--f", "bogus"], None, False),
        (["divergence", "pure2.json", "full4.json"], None, False),
        (["channel", "depol-ext:2", "full2.json"], None, False),
        (["verify", "--dims", "2,x", "--trials", "1"], None, False),
        (["verify", "--trials", "0"], None, False),
        (["verify", "--f", "bogus", "--trials", "1", "--dims", "2"], None, False),
        (["demo", "log-chain"], "abc", False),
        (["demo", "max-coherent", "--seed", "-1"], None, False),
        (["frobnicate"], None, True),
        (["coherence"], None, True),
        (["coherence", "full2.json", "--variant", "odd"], None, True),
        (["verify", "--trials", "x"], None, True),
        (["demo", "unknown-demo"], None, True),
        (["--help"], None, True),
        (["channel", "--help"], None, True),
    ]
    return cases + [(argv + ["--out", "out.json"], env, usage) for argv, env, usage in cases]


CASES = _cases()


@contextlib.contextmanager
def _seed_env(value: str | None):
    saved = os.environ.pop("QCOH_SEED", None)
    if value is not None:
        os.environ["QCOH_SEED"] = value
    try:
        yield
    finally:
        os.environ.pop("QCOH_SEED", None)
        if saved is not None:
            os.environ["QCOH_SEED"] = saved


def record(root: str, argv: list[str], env: str | None, usage: bool) -> dict:
    """Run one command in process and record what it gave."""
    out_path = os.path.join(root, "out.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    full = [os.path.join(root, a) if a.endswith(".json") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with _seed_env(env), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(full)
    rec = {"argv": argv, "QCOH_SEED": env, "exit": code}
    if not usage:
        out = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as fh:
                out = fh.read()
        rec.update(stdout=stdout.getvalue(), out=out, stderr=stderr.getvalue().replace(root, "<dir>"))
    return rec


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("cli-golden"))
    write_inputs(root)
    return root


@functools.cache
def _golden() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _case_id(case) -> str:
    argv, env, _ = case
    return " ".join(argv) + (f" QCOH_SEED={env}" if env is not None else "")


def test_golden_covers_every_case():
    assert [(r["argv"], r["QCOH_SEED"]) for r in _golden()] == [(argv, env) for argv, env, _ in CASES]


@pytest.mark.parametrize("index", range(len(CASES)), ids=[_case_id(c) for c in CASES])
def test_command_output_is_pinned(inputs, index):
    argv, env, usage = CASES[index]
    assert record(inputs, argv, env, usage) == _golden()[index]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        lines = [json.dumps(record(tmp, argv, env, usage), sort_keys=True) for argv, env, usage in CASES]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {len(lines)} records to {GOLDEN}", file=sys.stderr)
