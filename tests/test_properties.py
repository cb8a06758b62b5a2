"""Property-based checks of the paper's invariants at d = 2..6, drawn by
hypothesis under the derandomized profile of conftest.py."""

import os
import re
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_contract import SLOTS, swept

from fcoherence import DensityMatrix, random_density, validate_density
from fcoherence.channels import (
    GioChannel,
    depolarizing_extension,
    erasure_extension,
    max_offdiagonal,
    random_channel,
    random_gio,
    random_unital_channel,
)
from fcoherence.coherence import coherence_table, dephase
from fcoherence.divergence import divergence_table, f_weighted_sum, spectral_sums
from fcoherence.errors import UnsupportedLimit
from fcoherence.generators import lookup, tsallis
from fcoherence.io import channel_to_json, load_channel, load_state, save_channel, save_state
from fcoherence.verify import DEFAULT_F_SPECS, _outcome_averages

DECREASING = [f for f in map(lookup, DEFAULT_F_SPECS) if f.monotone_decreasing]

dims = st.integers(2, 6)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def states(draw, full_rank=False):
    """A random density matrix of dimension 2..6 and any rank, or a
    conditioned one of full rank."""
    d = draw(dims)
    if full_rank:
        return conditioned(d, draw(seeds))
    return validate_density(random_density(d, draw(st.integers(1, d)), draw(seeds)).matrix)


def conditioned(d, seed):
    """A full-rank state mixed with I/d, its smallest eigenvalue at least 0.2/d."""
    return validate_density(0.8 * random_density(d, d, seed).matrix + 0.2 * np.eye(d) / d)


@settings(max_examples=60)
@given(states())
def test_coherence_is_non_negative(rho):
    assert coherence_table([rho], DECREASING).min() >= -1e-9


@settings(max_examples=60)
@given(states(), st.data())
def test_diagonal_unitaries_leave_coherence_unchanged(rho, data):
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=rho.dim, max_size=rho.dim))
    u = np.exp(1j * np.array(phases))
    rotated = validate_density(u[:, None] * rho.matrix * u.conj()[None, :])
    table = coherence_table([rho, rotated], DECREASING)
    assert np.abs(table[0] - table[1]).max() <= 1e-10


@settings(max_examples=60)
@given(states(full_rank=True), st.integers(1, 3), seeds)
def test_gio_channels_do_not_increase_coherence(rho, k, seed):
    out = random_gio(rho.dim, k, seed).apply(rho)
    table = coherence_table([rho, out], DECREASING)
    assert (table[1] - table[0]).max() <= 1e-9


@settings(max_examples=60)
@given(states(), st.floats(0.05, 1.95).filter(lambda q: abs(q - 1.0) > 1e-3))
def test_tsallis_plain_is_the_scaled_hat(rho, q):
    plain, hat = coherence_table([rho], [tsallis(q)])[0, 0]
    assert abs(plain - rho.dim ** (q - 1.0) * hat) <= 1e-12 * max(1.0, abs(hat))


@settings(max_examples=100)
@given(st.lists(st.sampled_from([0.0, 1e-300, 1e-20, 0.1, 0.25, 0.5]) | st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_from_diagonal_spectrum_is_eighs(weights):
    p = np.array(weights)
    if p.sum() == 0.0:
        p[0] = 1.0
    rho = DensityMatrix.from_diagonal(p / p.sum())
    assert rho._decomposition.eigenvalues.tobytes() == np.linalg.eigh(rho.matrix)[0][::-1].tobytes()


@settings(max_examples=30)
@given(states())
def test_state_files_round_trip(rho):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rho.json")
        save_state(rho, path)
        back = load_state(path)
    assert np.abs(back.matrix - rho.matrix).max() <= 1e-14


CHANNELS = [random_gio, random_channel, random_unital_channel]


@settings(max_examples=30)
@given(st.sampled_from(CHANNELS), dims, st.integers(1, 3), seeds)
def test_channel_files_round_trip_byte_for_byte(make, d, k, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ch.json")
        save_channel(make(d, k, seed), path)
        with open(path, "rb") as fh:
            first = fh.read()
        assert channel_to_json(load_channel(path)).encode() == first


@settings(max_examples=60)
@given(states())
def test_coherence_is_faithful(rho):
    table = coherence_table([rho, dephase(rho)], DECREASING)
    assert np.abs(table[1]).max() <= 1e-12
    if max_offdiagonal(rho.matrix) >= 0.1:
        assert table[0].min() > 0.0


@settings(max_examples=60)
@given(states())
def test_self_divergence_is_zero(rho):
    """S_f(rho || rho) = 0 at any rank, for every default generator and
    its transpose, for rho itself and for a copy solved on its own."""
    gens = [lookup(spec) for spec in DEFAULT_F_SPECS]
    copy = DensityMatrix(rho.matrix)
    table = divergence_table([(rho, rho), (rho, copy)], gens + [f.transpose() for f in gens])
    assert np.abs(table).max() <= 1e-12


@st.composite
def channel_and_state(draw):
    """A random_gio channel at d = 2..6, or an ancilla extension with
    ancilla dimension 2 or 3, and a random state of any rank on its space."""
    make = draw(st.sampled_from([random_gio, depolarizing_extension, erasure_extension]))
    if make is random_gio:
        ch = random_gio(draw(dims), draw(st.integers(1, 4)), draw(seeds))
    else:
        ch = make(draw(st.integers(2, 3)))
    return ch, random_density(ch.dim, draw(st.integers(1, ch.dim)), draw(seeds))


@settings(max_examples=60)
@given(channel_and_state())
def test_selective_outcomes_average_to_the_output(pair):
    ch, rho = pair
    outcomes = ch.selective_outcomes(rho)
    assert abs(sum(o.probability for o in outcomes) - 1.0) <= 1e-14
    average = sum(o.probability * o.state.matrix for o in outcomes)
    assert np.abs(average - ch.apply(rho).matrix).max() <= 1e-14


@settings(max_examples=30)
@given(st.integers(2, 5), st.integers(1, 4), seeds, st.data())
def test_entry_phases_leave_outcome_averages_unchanged(d, k, seed, data):
    """Phases on the entries of a diagonal channel's coefficient table turn
    each outcome state K rho K* / p into U K rho K* U* / p, with U the
    diagonal unitary of its row's phases, which keeps p, the spectrum and
    the diagonal: the averages sum_k p_k C(rho_k) stay the same."""
    ch = random_gio(d, k, seed)
    rho = random_density(d, data.draw(st.integers(1, d)), data.draw(seeds))
    phases = data.draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=k * d, max_size=k * d))
    redrawn = GioChannel.from_coefficients(ch.coefficients * np.exp(1j * np.reshape(phases, (k, d))))
    _, averages = _outcome_averages([ch, redrawn], np.array([rho.matrix, rho.matrix]), DECREASING)
    assert np.abs(averages[0] - averages[1]).max() <= 1e-12


@settings(max_examples=60)
@given(dims, seeds, seeds, st.integers(1, 4), seeds)
def test_channels_do_not_increase_divergence(d, seed_a, seed_b, k, seed):
    """Data processing: S_f(Phi(a) || Phi(b)) <= S_f(a || b) for every
    default generator, a and b of full rank and Phi a random channel."""
    a, b = conditioned(d, seed_a), conditioned(d, seed_b)
    ch = random_channel(d, k, seed)
    gens = [lookup(spec) for spec in DEFAULT_F_SPECS]
    before = divergence_table([(a, b)], gens)
    after = divergence_table([(ch.apply(a), ch.apply(b))], gens)
    assert (after - before).max() <= 1e-9


# Exact zeros and entries at or below EPS_ZERO take the masked path of
# the kernel; NaN and +inf entries reach its sums.
specials = st.sampled_from([0.0, 0.0, 0.0, 1e-300, 1e-12, np.nan, np.inf])
KERNEL_GENS = [lookup(spec) for spec in DEFAULT_F_SPECS + ("power:-0.5",)]


@st.composite
def kernel_stacks(draw):
    """An (n, d) stack of random spectra, n = 1..4 and d = 1..20, past the
    8 terms numpy sums in order before its pairwise blocks (often next to
    that edge), with special entries in drawn places, and 1..3 generators."""
    n, d = draw(st.integers(1, 4)), draw(st.sampled_from([7, 8, 9]) | st.integers(1, 20))
    rows = np.random.default_rng(draw(seeds)).dirichlet(np.ones(d), size=n)
    for i in draw(st.lists(st.integers(0, n * d - 1), max_size=n * d)):
        rows.flat[i] = draw(specials)
    return rows, draw(st.lists(st.sampled_from(KERNEL_GENS), min_size=1, max_size=3, unique_by=lambda f: f.name))


def own_terms_sum(row, numerator, f):
    """The sum rule of the kernel spelled out: the terms of the row's
    entries above EPS_ZERO (NaN among them), each ratio raised to the
    smallest subnormal, summed as np.add.reduce sums them alone."""
    kept = row[~(row <= 1e-12)]
    return np.add.reduce(kept * f(np.maximum(numerator / kept, 5e-324)))


@settings(max_examples=100)
@given(kernel_stacks())
def test_spectral_sums_give_each_row_its_own_bits(stack):
    """Each row of spectral_sums has the bits of f_weighted_sum of that row
    alone at numerators 1/d and 1, which are those of its own terms summed
    alone, and a stack raises the UnsupportedLimit of the first generator,
    in order, that a row raises."""
    rows, gens = stack
    d = rows.shape[-1]
    # A row of +inf and -inf terms sums to NaN, with numpy's warning.
    with np.errstate(invalid="ignore"):
        alone, own, raised = np.zeros((len(rows), len(gens), 2)), np.zeros((len(rows), len(gens), 2)), []
        for g, f in enumerate(gens):
            for i, row in enumerate(rows):
                try:
                    alone[i, g] = f_weighted_sum(row, 1.0 / d, f), f_weighted_sum(row, 1.0, f)
                except UnsupportedLimit as exc:
                    raised.append(str(exc))
                own[i, g] = own_terms_sum(row, 1.0 / d, f), own_terms_sum(row, 1.0, f)
        if raised:
            with pytest.raises(UnsupportedLimit, match=f"^{re.escape(raised[0])}$"):
                spectral_sums(rows, gens)
            return
        sums = spectral_sums(rows, gens)
    assert [x.hex() for x in sums.ravel().tolist()] == [x.hex() for x in alone.ravel().tolist()]
    assert [x.hex() for x in alone.ravel().tolist()] == [x.hex() for x in own.ravel().tolist()]


# The value classes of test_contract.BAD: None, strings that are no
# number, complex numbers, NaN and infinities, negative integers, zero,
# bools, integers too large for a float, empty lists, and non-integer
# floats, bare or as 0-d arrays.
non_integer_floats = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())
bad_values = st.one_of(
    st.none(),
    st.text(string.ascii_letters, max_size=5),
    st.complex_numbers(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
    st.integers(max_value=-1),
    st.just(0),
    st.booleans(),
    st.integers(2**1024, 2**2048),
    st.just([]),
    non_integer_floats,
    non_integer_floats.map(np.array),
)


@settings(max_examples=300)
@given(st.sampled_from(SLOTS), bad_values)
def test_bad_values_in_any_numeric_slot_give_a_value_or_a_typed_error(slot, value):
    row, index = slot
    assert not swept(row, index, value).startswith("bare")
