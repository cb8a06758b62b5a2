"""Bulk seeding: numpy's SeedSequence hash run on whole arrays of seeds.

A suite hashes the seeds of its trials, and the PCG64 words of each
seed, in one pass. Every word must equal, byte for byte, what
``np.random.SeedSequence`` gives, and every Generator built from the
table must draw what ``np.random.default_rng(seed)`` draws. These tests
fail on any numpy that changes its seeding.
"""

import numpy as np
import pytest

from fcoherence import TrialConfig, states, verify
from fcoherence.states import _generators, _seed_states, _suite_seeds

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64, 2**70, 2**130, np.uint32(7), np.int64(2**40), np.uint64(2**64 - 1)]


@pytest.fixture(autouse=True)
def empty_table():
    yield
    states._PCG64_WORDS.clear()


@pytest.mark.parametrize("master", MASTERS, ids=repr)
def test_trial_seeds_equal_seed_sequence(master):
    rng = np.random.default_rng(3)
    cases = np.concatenate(([0, 2**32 - 1, 400], rng.integers(0, 500, 40)))
    trials = np.concatenate(([0, 7, 2**32 - 1], rng.integers(0, 10**6, 40)))
    want = [np.random.SeedSequence((master, int(c), int(t))).generate_state(6) for c, t in zip(cases, trials)]
    with _suite_seeds(master, cases, trials) as got:
        pass
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


def seeds_under_test():
    rng = np.random.default_rng(11)
    return [0, 1, 2**32 - 1] + rng.integers(0, 2**32, 3000).tolist()


def remember(seeds):
    """Put the PCG64 words of seeds into the table, as a suite does for the
    seeds of its trials."""
    states._PCG64_WORDS.clear()
    words = _seed_states(np.array([seeds], dtype=np.uint32), 8).view(np.uint64)
    states._PCG64_WORDS.update(zip(seeds, words))


def test_table_holds_the_pcg64_words_of_a_window_while_it_runs():
    with _suite_seeds(5, np.arange(3), np.arange(3)) as seeds:
        assert sorted(states._PCG64_WORDS) == sorted(set(seeds.ravel().tolist()))
        for s, words in states._PCG64_WORDS.items():
            assert words.tobytes() == np.random.SeedSequence(s).generate_state(4, np.uint64).tobytes()
    assert states._PCG64_WORDS == {}


def test_pcg64_words_equal_seed_sequence():
    seeds = seeds_under_test()
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    got = _seed_states(np.array([seeds], dtype=np.uint32), 8).view(np.uint64)
    assert got.tobytes() == np.array(want).tobytes()


def test_generators_from_the_table_draw_as_default_rng():
    seeds = seeds_under_test()
    remember(seeds)
    for s, rng in zip(seeds, _generators(seeds)):
        assert isinstance(rng.bit_generator.seed_seq, states._Words)
        want = np.random.default_rng(s)
        assert rng.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
        assert rng.dirichlet(np.ones(3)).tobytes() == want.dirichlet(np.ones(3)).tobytes()
        assert rng.uniform(0.0, 2.0 * np.pi, size=4).tobytes() == want.uniform(0.0, 2.0 * np.pi, size=4).tobytes()
        assert rng.integers(0, 2**31 - 1) == want.integers(0, 2**31 - 1)


def drive_record(cfg, dims, trials, per_trial=lambda d: 1, stop_after=None):
    """The (d, trials, seeds, table size) of each chunk _drive hands over,
    and the dimensions of its heads, in order."""
    calls = []

    def chunk(d, t, s):
        calls.append(("chunk", d, t.tolist(), s.tolist(), len(states._PCG64_WORDS)))
        if stop_after is not None and len(calls) > stop_after:
            raise RuntimeError("stop")
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
    windowed = drive_record(cfg, cfg.dims, 11, per_trial)
    assert [c[:4] for c in windowed] == [c[:4] for c in whole]
    assert [c[0] for c in whole].count("head") == 3 and len(whole) == 3 + 2 + 11
    for _, d, t, s, _ in (c for c in whole if c[0] == "chunk"):
        case = cfg.dims.index(d)
        want = [np.random.SeedSequence((9, 200 + case, i)).generate_state(6).tolist() for i in t]
        assert s == want
    # Each window holds the PCG64 words of its own trials' seeds alone.
    assert max(c[4] for c in windowed if c[0] == "chunk") < max(c[4] for c in whole if c[0] == "chunk")


def test_table_is_emptied_when_the_suite_ends_or_raises():
    cfg = TrialConfig(dims=(2, 3), trials_per_case=5, seed=1)
    calls = drive_record(cfg, cfg.dims, 5)
    assert all(c[4] > 0 for c in calls if c[0] == "chunk")
    assert states._PCG64_WORDS == {}
    with pytest.raises(RuntimeError, match="stop"):
        drive_record(cfg, cfg.dims, 5, stop_after=1)
    assert states._PCG64_WORDS == {}
    verify.suite_entropy_bounds(cfg)
    assert states._PCG64_WORDS == {}


def test_trial_indices_fit_one_word_of_the_seed_entropy():
    assert TrialConfig(trials_per_case=2**32).trials_per_case == 2**32
    with pytest.raises(ValueError, match=r"^trials_per_case must be at most 2\*\*32, got 4294967297$"):
        TrialConfig(trials_per_case=2**32 + 1)
