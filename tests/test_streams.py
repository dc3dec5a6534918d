"""Counter-based RNG stream keying."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_exit.streams import (TAG_CHI, TAG_JUMP, TAG_POINTS, TAG_PTAU,
                              generator_for)


def _draw(seed, tag, *parts):
    return generator_for(seed, tag, *parts).random(4)


def test_same_key_same_stream():
    np.testing.assert_array_equal(_draw(7, TAG_CHI, 0.25, 0.5),
                                  _draw(7, TAG_CHI, 0.25, 0.5))


def test_different_tags_differ():
    assert not np.array_equal(_draw(7, TAG_CHI, 0.25), _draw(7, TAG_PTAU, 0.25))


def test_different_seeds_differ():
    assert not np.array_equal(_draw(7, TAG_CHI, 0.25), _draw(8, TAG_CHI, 0.25))


def test_float_keys_resolve_ulps():
    a = 0.1
    b = np.nextafter(0.1, 1.0)
    assert not np.array_equal(_draw(7, TAG_CHI, a), _draw(7, TAG_CHI, b))


def test_negative_zero_distinct_from_positive_zero():
    # -0.0 and 0.0 have different bit patterns; keys follow the bits
    assert not np.array_equal(_draw(7, TAG_CHI, 0.0), _draw(7, TAG_CHI, -0.0))


def test_keys_map_to_recorded_draws():
    # every Monte Carlo number rests on the key -> stream mapping; a new way
    # of building the key must give these draws back
    np.testing.assert_array_equal(
        generator_for(0, TAG_CHI, (0.25, 0.45)).standard_normal(4),
        [0.24218865789689828, -2.0415849457665622, 0.44909375512150895,
         -0.9933897296506027])
    np.testing.assert_array_equal(
        generator_for(3, TAG_JUMP, 1234).standard_normal(4),
        [-0.7482938499508325, -0.03041833909575498, -1.1689419026221473,
         0.498232569246672])


def test_block_draw_equals_successive_draws():
    # the stepping kernel draws (b, n, 2) at once in place of b draws of (n, 2)
    block = generator_for(7, TAG_CHI, 0.25, 0.5).standard_normal((9, 13, 2))
    rng = generator_for(7, TAG_CHI, 0.25, 0.5)
    steps = np.stack([rng.standard_normal((13, 2)) for _ in range(9)])
    np.testing.assert_array_equal(block, steps)


def test_extra_parts_change_stream():
    assert not np.array_equal(_draw(7, TAG_POINTS),
                              _draw(7, TAG_POINTS, 0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_keying_is_reproducible(seed, x1, x2):
    first = _draw(seed, TAG_CHI, x1, x2)
    second = _draw(seed, TAG_CHI, x1, x2)
    np.testing.assert_array_equal(first, second)
