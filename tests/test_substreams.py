"""Each streamline's random substream against numpy's own SeedSequence.

``tracking._key_states`` runs SeedSequence's mixing on every line at once.
These tests check it bit for bit against ``np.random.SeedSequence`` and
the per-line construction it replaced, on keys whose words are odd in
number or size: zero and subnormal coordinates coerce to one uint32 word,
``-0.0`` and every normal float to two, and run seeds below 2**32 to one.
They import numpy and ``tractfield.tracking`` alone, so they also run
against the oldest numpy the package allows.
"""

import numpy as np
import pytest

from tractfield.tracking import DRAW_BLOCK, _key_states, _substreams

pytestmark = pytest.mark.oldest_numpy

# Rows with 3, 2, 1 and 0 one-word coordinates.
SEEDS = np.array([
    [0.0, 5e-324, 1e-320],
    [0.0, -0.0, 5e-324],
    [1.0, 0.0, -1e-310],
    [-3.5, 1e300, 4.5e15],
])
RNG_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, -5]


def key(rng_seed, seed_point, rep):
    bits = np.asarray(seed_point, dtype="<f8").view(np.uint64).tolist()
    return [int(rng_seed) & 0xFFFFFFFFFFFFFFFF, *bits, int(rep)]


def per_line_generator(rng_seed, seed_point, rep):
    """One line's generator as SeedSequence builds it: the oracle."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key(rng_seed, seed_point, rep))))


def lines(reps):
    """Each (seed, rep) in the tracker's order: seed-major, then repetition."""
    return [(seed, rep) for seed in SEEDS for rep in range(reps)]


def test_keys_cover_every_word_count():
    # SeedSequence coerces an int to its uint32 words, one for zero
    words = {sum(max(1, -(-v.bit_length() // 32)) for v in key(s, p, r))
             for s in RNG_SEEDS for p, r in lines(1)}
    assert words == set(range(5, 10))


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("rng_seed", RNG_SEEDS)
def test_states_match_seed_sequence(rng_seed, reps):
    states = _key_states(rng_seed, SEEDS, reps)
    expected = [np.random.SeedSequence(key(rng_seed, p, r)).generate_state(4, np.uint64)
                for p, r in lines(reps)]
    assert states.dtype == np.uint64
    np.testing.assert_array_equal(states, np.array(expected))


@pytest.mark.parametrize("reps", [1, 3])
@pytest.mark.parametrize("rng_seed", RNG_SEEDS)
def test_first_block_matches_per_line_generator(rng_seed, reps):
    rngs = _substreams(rng_seed, SEEDS, reps)
    assert len(rngs) == len(SEEDS) * reps
    for rng, (point, rep) in zip(rngs, lines(reps)):
        oracle = per_line_generator(rng_seed, point, rep)
        assert rng.bit_generator.state == oracle.bit_generator.state
        np.testing.assert_array_equal(rng.normal(0.0, 0.1, (DRAW_BLOCK, 3)),
                                      oracle.normal(0.0, 0.1, (DRAW_BLOCK, 3)))


def test_substreams_are_keyed_by_seed_bits_not_position():
    forward = _key_states(42, SEEDS, 2)
    backward = _key_states(42, SEEDS[::-1], 2)
    np.testing.assert_array_equal(forward.reshape(len(SEEDS), 2, 4)[::-1],
                                  backward.reshape(len(SEEDS), 2, 4))
