"""Seed validation and stream-splitting behavior."""

import numpy as np
import pytest

from prtail.errors import ParameterError
from prtail import rng
from prtail.rng import check_seed, derive, kernel_seed, stream


def test_check_seed_accepts_nonnegative_ints():
    assert check_seed(0) == 0
    assert check_seed(12345) == 12345
    assert check_seed(np.int64(7)) == 7
    assert isinstance(check_seed(np.int64(7)), int)


@pytest.mark.parametrize("bad", [-1, 1.5, "3", None, True, False])
def test_check_seed_rejects_non_integers(bad):
    with pytest.raises(ParameterError):
        check_seed(bad)


def test_stream_matches_documented_splitting_rule():
    # The rule is part of the public contract: fixed seed and key must
    # reproduce exactly the SeedSequence-spawned PCG64 stream.
    expected = np.random.default_rng(np.random.SeedSequence([42, 3, 1]))
    got = stream(42, 3, 1)
    assert np.array_equal(expected.random(100), got.random(100))


def test_stream_is_deterministic():
    a = stream(7, 1).random(50)
    b = stream(7, 1).random(50)
    assert np.array_equal(a, b)


def test_distinct_keys_give_distinct_streams():
    a = stream(7, 1).random(50)
    b = stream(7, 2).random(50)
    c = stream(8, 1).random(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_is_deterministic_and_64_bit():
    x = derive(11, 4, 9)
    assert x == derive(11, 4, 9)
    assert isinstance(x, int)
    assert 0 <= x < 2**64
    assert derive(11, 4, 9) != derive(11, 4, 10)


def test_kernel_seed_fits_32_bits():
    x = kernel_seed(11, 5)
    assert x == kernel_seed(11, 5)
    assert 0 <= x < 2**32


def test_derived_seed_usable_as_master():
    child = derive(3, 2, 0)
    vals = stream(child, 1).random(10)
    assert vals.shape == (10,)


def test_stream_keys_are_distinct():
    # each consumer's streams lead with its own key, so no two consumers
    # can draw from one stream
    keys = {name: value for name, value in vars(rng).items() if name.startswith("KEY_")}
    assert sorted(keys) == ["KEY_GENERATION", "KEY_GROWTH", "KEY_MIX", "KEY_PICK", "KEY_T"]
    assert len(set(keys.values())) == len(keys)
