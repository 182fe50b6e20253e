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


@pytest.mark.parametrize("seed, key", [(-1, ()), (0, (-3,)), (0.5, ()), (0, (2, 1.5)), (0, ("7",))])
def test_stream_rejects_negative_or_non_integer_entries(seed, key):
    with pytest.raises(ConfigError, match="nonnegative integers"):
        rngmod.stream(seed, *key)
    with pytest.raises(ConfigError, match="nonnegative integers"):
        rngmod.seed_words(seed, *key)


@given(seed=SEEDS, K=st.integers(1, 30), M=st.integers(1, 8), d=st.integers(1, 12))
def test_one_phase_draw_reads_the_doubles_of_per_round_draws(seed, K, M, d):
    # a quantized consensus phase draws its (K, M, d) uniforms at once; this
    # holds only while numpy's PCG64 doubles stay unbuffered
    phase, rounds = rngmod.stream(seed, 3), rngmod.stream(seed, 3)
    uniforms = phase.random(size=(K, M, d))
    per_round = np.stack([rounds.random(size=(M, d)) for _ in range(K)])
    assert uniforms.tobytes() == per_round.tobytes()
    assert phase.bit_generator.state == rounds.bit_generator.state
    assert phase.random(5).tobytes() == rounds.random(5).tobytes()


HIGHS = [1, 2, 3, 7, 64, 100, 2**31, 3 * 2**30, 2**32 - 1, 2**32]
LEAD_SHAPES = st.lists(st.integers(1, 4), max_size=2)


def keyed_words(seed, base, shape):
    """Seed words of the keys (seed, 7, base + i, base + j, ...) over a lead
    shape, and each lane's key tuple."""
    axes = [base + np.arange(k).reshape((k,) + (1,) * (len(shape) - 1 - i)) for i, k in enumerate(shape)]
    words = rngmod.seed_words(seed, 7, *axes)
    return words, {idx: (7, *(base + i for i in idx)) for idx in np.ndindex(*shape)}


def draws_below(words, high, n):
    """integers_below, and the seed words of each stream that took numpy's own draw."""
    generator, fallbacks = rngmod.generator, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rngmod, "generator", lambda w: fallbacks.append(w) or generator(w))
        return rngmod.integers_below(words, high, n), fallbacks


@given(seed=SEEDS, base=st.integers(0, 2**31), shape=LEAD_SHAPES, n=st.integers(1, 40))
def test_raw_outputs_and_uniforms_match_numpy_draws(seed, base, shape, n):
    words, keys = keyed_words(seed, base, shape)
    raw, doubles = rngmod.raw_outputs(words, n), rngmod.uniforms(words, n)
    assert raw.shape == doubles.shape == (*shape, n)
    assert raw.dtype == np.uint64 and doubles.dtype == np.float64
    for idx, key in keys.items():
        assert np.array_equal(raw[idx], reference_generator(seed, *key).bit_generator.random_raw(n))
        assert doubles[idx].tobytes() == reference_generator(seed, *key).random(n).tobytes()


@given(
    seed=SEEDS, base=st.integers(0, 2**31), shape=LEAD_SHAPES, n=st.integers(1, 40), high=st.sampled_from(HIGHS)
)
def test_integers_below_matches_numpy_bounded_draws(seed, base, shape, n, high):
    words, keys = keyed_words(seed, base, shape)
    got, fallbacks = draws_below(words, high, n)
    if high & (high - 1) == 0:
        assert not fallbacks  # a power of two never rejects
    assert got.shape == (*shape, n) and got.dtype == np.int64
    for idx, key in keys.items():
        assert np.array_equal(got[idx], reference_generator(seed, *key).integers(0, high, size=n))


def test_rejected_draws_take_numpys_own_draw():
    # at high = 3 * 2**30 a quarter of the leftovers fall below 2**32 % high,
    # so some of 16 streams of 8 draws reject and some do not
    words, keys = keyed_words(5, 0, (16,))
    got, fallbacks = draws_below(words, 3 * 2**30, 8)
    assert 0 < len(fallbacks) < 16
    for idx, key in keys.items():
        assert np.array_equal(got[idx], reference_generator(5, *key).integers(0, 3 * 2**30, size=8))


@pytest.mark.parametrize("high", [0, 2**32 + 1])
def test_integers_below_rejects_high_outside_32_bits(high):
    with pytest.raises(ConfigError, match="high"):
        rngmod.integers_below(rngmod.seed_words(0, 7), high, 4)


def test_float_folds_keep_left_fold_bits_under_a_compensated_sum(monkeypatch):
    """Python 3.12 made builtin sum of floats Neumaier-compensated; the folds
    that reach outputs must keep the left-fold bits, whatever `sum` is."""
    from conftest import neumaier_sum
    from oracles import distribution_mean_var

    from fedsplit import problem, quantizer

    def left_fold(terms):
        total = 0
        for x in terms:
            total = total + x
        return total

    terms = [1.0, 1e-16, 1e-16]  # each tail term is below half an ulp of 1.0
    assert neumaier_sum(terms) != left_fold(terms)
    for module in (problem, quantizer):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
    # one client term per entry of p: 0.5 (w - b)^T A (w - b) = 1 for each client
    A = np.full((3, 1, 1), 2.0)
    got = problem.global_loss(A, np.zeros((3, 1)), np.array(terms), np.ones(1))
    assert got == left_fold(terms)
    atoms = [(0.0, 1.0), (1.0, 1e-16), (2.0, 1e-16)]
    assert quantizer.tv_distance(atoms, []) == 0.5 * left_fold(terms)
    mean, var = distribution_mean_var([(v, 1.0) for v in terms])
    assert mean == left_fold(terms)
    assert var == left_fold([(v - mean) ** 2 for v in terms])
