"""Stream keys: seeds and indices are taken mod 2^64, exactly."""

import numpy as np

from cqforms.rng import integer_points, stream


def _key(gen):
    return [int(k) for k in gen.bit_generator.state["state"]["key"]]


def test_stream_key_is_seed_and_index_mod_2_64():
    for seed in (-1, -7, 2**63 + 1, 2**64 - 1):
        for index in (0, 1, 5):
            assert _key(stream(seed, index)) == [seed % 2**64, index]


def test_negative_seeds_are_distinct_streams():
    zero = stream(0, 1).standard_normal(8)
    draws = [stream(seed, 1).standard_normal(8) for seed in (-1, -7)]
    assert not np.array_equal(draws[0], zero)
    assert not np.array_equal(draws[1], zero)
    assert not np.array_equal(draws[0], draws[1])


def test_keys_below_2_63_are_unchanged():
    # the key numpy built from the former (seed, index) tuple
    for seed in (0, 1, 3, 42, 12345, 2**32 + 7, 2**63 - 1):
        for index in (0, 1, 2, 17):
            old = np.random.Philox(key=(seed, index)).state["state"]["key"]
            assert _key(stream(seed, index)) == [int(k) for k in old]


def test_integer_points_are_columns_of_one_stream_draw():
    for index in (0, 3, 12):
        pts = integer_points(7, 5, 6, index)
        want = stream(7, index).integers(-9, 10, size=(5, 6)).T
        assert pts.shape == (6, 5) and pts.dtype == np.int64 and pts.flags.c_contiguous
        assert np.array_equal(pts, want)
    assert np.array_equal(integer_points(7, 5, 6), integer_points(7, 5, 6, 0))
