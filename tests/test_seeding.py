"""Bulk seeding: numpy's SeedSequence hash run on whole arrays of seeds.

A suite hashes the seeds of its trials, and the PCG64 words of each
seed, in one pass, into seed records. Every word must equal, byte for
byte, what ``np.random.SeedSequence`` gives, and every Generator built
from a record must draw what ``np.random.default_rng(seed)`` draws. These
tests fail on any numpy that changes its seeding.
"""

import subprocess
import sys

import numpy as np
import pytest

from fcoherence import TrialConfig, states, verify
from fcoherence.states import _generators, _seed_states, _suite_seeds

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64, 2**70, 2**130, np.uint32(7), np.int64(2**40), np.uint64(2**64 - 1)]


@pytest.mark.parametrize("master", MASTERS, ids=repr)
def test_trial_seeds_equal_seed_sequence(master):
    rng = np.random.default_rng(3)
    cases = np.concatenate(([0, 2**32 - 1, 400], rng.integers(0, 500, 40)))
    trials = np.concatenate(([0, 7, 2**32 - 1], rng.integers(0, 10**6, 40)))
    want = [np.random.SeedSequence((master, int(c), int(t))).generate_state(6) for c, t in zip(cases, trials)]
    got = _suite_seeds(master, cases, trials)["seed"]
    assert got.dtype == np.int64 and got.tobytes() == np.array(want, dtype=np.int64).tobytes()


@pytest.mark.parametrize("length", range(1, 10))
def test_entropy_of_any_length(length):
    # Past four words, SeedSequence mixes each further word into the pool.
    rng = np.random.default_rng(length)
    entropy = rng.integers(0, 2**32, (30, length), dtype=np.uint32)
    entropy[:5] = 0
    entropy[5:10] = 2**32 - 1
    for n_words in (1, 4, 6, 8, 9):
        want = [np.random.SeedSequence(row.tolist()).generate_state(n_words) for row in entropy]
        assert _seed_states(entropy.T, n_words).tobytes() == np.array(want, dtype=np.uint32).tobytes()


@pytest.mark.parametrize("words", range(1, 9))
def test_masters_of_up_to_eight_words_equal_seed_sequence(words):
    # A master of 1..8 32-bit words, up to 2**256 - 1, is the entropy of a
    # suite's seeds; its words go in little-endian order.
    rng = np.random.default_rng(words)
    top = [2 ** (32 * words) - 1, 2 ** (32 * (words - 1))]
    masters = top + [int.from_bytes(rng.bytes(4 * words), "little") | 1 << 32 * words - 1 for _ in range(30)]
    entropy = np.array([[m >> 32 * i & 0xFFFFFFFF for i in range(words)] for m in masters], dtype=np.uint32).T
    for n_words in range(1, 13):
        want = [np.random.SeedSequence(m).generate_state(n_words) for m in masters]
        assert _seed_states(entropy, n_words).tobytes() == np.array(want, dtype=np.uint32).tobytes()


def test_hash_tables_stay_bounded_whatever_the_entropy_length():
    # The constants of each (rounds, n_words) are kept, a bounded number of
    # them, so no master seed can grow the cache.
    for length in range(1, 101):
        entropy = np.arange(length, dtype=np.uint32)
        got = _seed_states(entropy[:, None], 1 + length % 12)
        assert got.tobytes() == np.random.SeedSequence(entropy).generate_state(1 + length % 12).tobytes()
    info = states._hash_tables.cache_info()
    assert info.currsize <= info.maxsize < 100


def seeds_under_test():
    rng = np.random.default_rng(11)
    return [0, 1, 2**32 - 1] + rng.integers(0, 2**32, 3000).tolist()


def test_pcg64_words_equal_seed_sequence():
    seeds = seeds_under_test()
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    got = _seed_states(np.array([seeds], dtype=np.uint32), 8).view(np.uint64)
    assert got.tobytes() == np.array(want).tobytes()


def test_records_carry_the_pcg64_words_of_their_seeds():
    records = _suite_seeds(5, np.arange(40) % 3, np.arange(40))
    assert records.shape == (40, 6) and records["words"].dtype == np.uint64
    for seed, words in zip(records["seed"].ravel().tolist(), records["words"].reshape(-1, 4)):
        assert words.tobytes() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tobytes()


def test_generators_from_records_draw_as_default_rng():
    seeds = seeds_under_test()
    records = np.empty(len(seeds), _suite_seeds(0, [0], [0]).dtype)
    records["seed"] = seeds
    records["words"] = _seed_states(np.array([seeds], dtype=np.uint32), 8).view(np.uint64)
    for s, rng in zip(seeds, _generators(records)):
        assert isinstance(rng.bit_generator.seed_seq, states._words_type())
        want = np.random.default_rng(s)
        assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert rng.dirichlet(np.ones(3)).tobytes() == want.dirichlet(np.ones(3)).tobytes()
        assert rng.uniform(0.0, 2.0 * np.pi, size=4).tobytes() == want.uniform(0.0, 2.0 * np.pi, size=4).tobytes()
        assert rng.integers(0, 2**31 - 1) == want.integers(0, 2**31 - 1)


def test_words_are_a_seed_sequence_by_inheritance():
    # PCG64 checks its seed with isinstance; a subclass needs no lookup in
    # the ABC's registry of virtual subclasses.
    assert np.random.bit_generator.ISeedSequence in states._words_type().__mro__


def drive_record(cfg, dims, trials, per_trial=lambda d: 1):
    """The (d, trials, seeds) of each chunk _drive hands over, and the
    dimensions of its heads, in order."""
    calls = []

    def chunk(d, t, s):
        calls.append(("chunk", d, t.tolist(), s["seed"].tolist()))
        return [(np.zeros((len(t), 1)), 0)]

    def head(d):
        calls.append(("head", d))
        return np.zeros(1)

    for _ in verify._drive(cfg, dims, 200, trials, per_trial, chunk, head):
        pass
    return calls


def test_windows_give_each_chunk_its_seeds(monkeypatch):
    cfg = TrialConfig(dims=(2, 3, 5), trials_per_case=11, seed=9)
    # One chunk a case at d = 2 and 3; at d = 5 each trial's stacks fill a
    # chunk, so windows of 4 trials split that case.
    per_trial = {2: 1, 3: 1, 5: 1 << 15}.get
    whole = drive_record(cfg, cfg.dims, 11, per_trial)
    monkeypatch.setattr(verify, "_SEED_ROWS", 4)
    assert drive_record(cfg, cfg.dims, 11, per_trial) == whole
    assert [c[0] for c in whole].count("head") == 3 and len(whole) == 3 + 2 + 11
    for _, d, t, s in (c for c in whole if c[0] == "chunk"):
        case = cfg.dims.index(d)
        want = [np.random.SeedSequence((9, 200 + case, i)).generate_state(6).tolist() for i in t]
        assert s == want


def first_normals(d, t, s):
    """A chunk that draws one normal from the Generator of each trial's
    first seed."""
    return [(np.array([[rng.standard_normal()] for rng in _generators(s[:, 0])]), 0)]


def test_interleaved_drives_draw_from_their_own_records(monkeypatch):
    default_rng = np.random.default_rng

    def refuse(seed):
        raise AssertionError(f"default_rng({seed!r}) for a suite seed")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = TrialConfig(dims=(2, 3), trials_per_case=5, seed=1)
    first = verify._drive(cfg, cfg.dims, 0, 5, lambda d: 1, first_normals)
    blocks = [next(first)]
    second = list(verify._drive(cfg, cfg.dims, 100, 5, lambda d: 1, first_normals))
    blocks += list(first)
    assert len(blocks) == len(second) == 2
    for values, seeds, _ in blocks + second:
        want = [default_rng(s).standard_normal() for s in seeds[:, 0].tolist()]
        assert values[:, 0].tobytes() == np.array(want).tobytes()


def test_records_draw_as_default_rng_after_their_suite_ends():
    kept = []

    def chunk(d, t, s):
        kept.append(s[:, [0, 5]].ravel())
        return [(np.zeros((len(t), 1)), 0)]

    cfg = TrialConfig(dims=(2, 3), trials_per_case=5, seed=1)
    for _ in verify._drive(cfg, cfg.dims, 300, 5, lambda d: 1, chunk):
        pass
    records = np.concatenate(kept)
    for seed, rng in zip(records["seed"].tolist(), _generators(records)):
        assert isinstance(rng.bit_generator.seed_seq, states._words_type())
        assert rng.standard_normal(3).tobytes() == np.random.default_rng(seed).standard_normal(3).tobytes()


def test_records_of_plain_seeds_carry_their_pcg64_words():
    seeds = seeds_under_test()[:300]
    records = states._records(seeds)
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert records["seed"].tolist() == seeds and records["words"].tobytes() == np.array(want).tobytes()


def test_entropy_suite_builds_no_generator_through_default_rng(monkeypatch):
    # The seeds of the unital channels' unitaries are hashed into records
    # in one pass, as the suite's own seeds are.
    calls, real = [], np.random.default_rng

    def counting(seed=None):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    report = verify.suite_entropy_bounds(TrialConfig(seed=1, trials_per_case=30))
    assert report.passed and report.trials == 4 * 30
    assert calls == []


def test_trial_indices_fit_one_word_of_the_seed_entropy():
    assert TrialConfig(trials_per_case=2**32).trials_per_case == 2**32
    with pytest.raises(ValueError, match=r"^trials_per_case must be at most 2\*\*32, got 4294967297$"):
        TrialConfig(trials_per_case=2**32 + 1)


def test_import_loads_neither_numpy_random_nor_numpy_ma():
    # Each costs resident memory and start-up time in every CLI command:
    # numpy.random loads on the first draw, and nothing needs numpy.ma.
    code = (
        "import sys, fcoherence, fcoherence.cli\n"
        "fcoherence.cli.build_parser()\n"
        "print(sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
