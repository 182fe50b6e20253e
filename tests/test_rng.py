import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError

# seeds at the 32-bit word boundaries and beyond two 64-bit words
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.integers(0, 2**40),
    st.integers(2**64, 2**140),
)
KEY_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70))


def reference_words(seed, *key):
    return np.random.SeedSequence(seed, spawn_key=key).generate_state(4, np.uint64)


def reference_generator(seed, *key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@settings(max_examples=300)
@given(seed=SEEDS, key=st.lists(KEY_WORDS, max_size=4))
def test_seed_words_match_numpy_seed_sequence(seed, key):
    words = rngmod.seed_words(seed, *key)
    assert words.dtype == np.uint64 and words.shape == (4,)
    assert np.array_equal(words, reference_words(seed, *key))


@given(seed=SEEDS, key=st.lists(KEY_WORDS, max_size=4))
def test_stream_matches_numpy_generator(seed, key):
    got, want = rngmod.stream(seed, *key), reference_generator(seed, *key)
    assert got.bit_generator.state == want.bit_generator.state
    assert got.random(3).tobytes() == want.random(3).tobytes()
    assert np.array_equal(got.integers(0, 7, size=5), want.integers(0, 7, size=5))


@given(
    seed=SEEDS,
    lead=st.lists(st.integers(0, 2**32 - 1), max_size=2),
    rows=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    cols=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    dtype=st.sampled_from([np.int64, np.uint64, np.uint32]),
)
def test_broadcast_index_arrays_hash_each_key(seed, lead, rows, cols, dtype):
    r = np.array(rows, dtype=dtype)[:, None]
    c = np.array(cols, dtype=dtype)[None, :]
    table = rngmod.seed_words(seed, *lead, r, c)
    assert table.shape == (len(rows), len(cols), 4)
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            want = reference_words(seed, *lead, row, col)
            assert np.array_equal(table[i, j], want)
            got, ref = rngmod.generator(table[i, j]), reference_generator(seed, *lead, row, col)
            assert got.bit_generator.state == ref.bit_generator.state


def test_numpy_integer_scalars_hash_like_python_ints():
    # 0-d inputs take the Python-int path, whose products cannot overflow
    key = (np.uint64(2**64 - 1), np.int64(3), np.array(5))
    want = reference_words(2**32, 2**64 - 1, 3, 5)
    assert np.array_equal(rngmod.seed_words(np.int64(2**32), *key), want)


@pytest.mark.parametrize(
    "seed, key",
    [
        (-1, ()),
        (0, (-3,)),
        (0, (2, np.array([1, -1]))),
        (0, (np.array([2**32]),)),
        (0, (np.array([0.5]),)),
    ],
)
def test_negative_or_oversized_keys_raise(seed, key):
    with pytest.raises(ConfigError):
        rngmod.seed_words(seed, *key)
