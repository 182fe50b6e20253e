"""Hierarchical random streams.

One root seed is split into independent streams keyed by (purpose, *indices),
so every randomness source (gradient sampling, client selection, splitting,
quantization, ...) is reproducible in isolation and runs are a pure function
of (config, seed).

A stream is the PCG64 generator of numpy's
`SeedSequence(root_seed, spawn_key=key)`. `seed_words` runs that hash with
plain integer operators, so one call hashes one key (Python ints) or every
key of a run at once (index arrays broadcast against each other); the root
seed's part of the hash stays in Python ints either way. `generator` hands
the words to PCG64's own seeding code.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError

# Purpose codes for stream keys.  Keeping them numeric keeps SeedSequence
# hashing stable across versions of this package.
PROBLEM = 0
CLIENT_SAMPLING = 1
GRADIENT = 2
SPLITTING = 3
QUANTIZATION = 4
LDP_NOISE = 5
AUDIT = 6

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); its pool
# is 4 words of 32 bits and every product wraps to 32 bits
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(x) -> list:
    """32-bit words of one seed or key entry, least significant first: an
    integer gives one word per started 32 bits (0 gives one word); an index
    array gives one word, so its entries must lie below 2**32."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = operator.index(x)
        if x < 0:
            raise ConfigError(f"seeds and stream keys must be nonnegative integers, got {x}")
        words = [x & _MASK32]
        while x := x >> 32:
            words.append(x & _MASK32)
        return words
    if x.dtype.kind not in "iu" or (x.size and (x.min() < 0 or x.max() > _MASK32)):
        raise ConfigError("stream key arrays must hold integers in [0, 2**32)")
    return [x.astype(np.uint64)]


class _Hash:
    """numpy's multiplicative hash: each call advances the running constant.

    Operands are Python ints or uint64 arrays holding 32-bit values, so no
    product overflows 64 bits and `& _MASK32` gives the 32-bit result.
    """

    def __init__(self, const: int, mult: int):
        self.const = const
        self.mult = mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def seed_words(root_seed: int, *key) -> np.ndarray:
    """The words `SeedSequence(root_seed, spawn_key=key).generate_state(4,
    np.uint64)` returns, as a (..., 4) uint64 array.

    Key entries are integers or integer index arrays; the arrays broadcast,
    and the leading shape is theirs.  Row [i, j, ...] of the result belongs
    to the key with those entries.
    """
    entropy = _entropy_words(root_seed)
    if key:
        entropy += [0] * (_POOL_SIZE - len(entropy))
        for k in key:
            entropy += _entropy_words(k)
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _Hash(_INIT_B, _MULT_B)
    halves = [out(pool[i % _POOL_SIZE]) for i in range(8)]
    # every key word reached every pool word, so all share the key's shape;
    # generate_state views its 32-bit words as little-endian 64-bit ones
    words = np.empty(np.shape(pool[0]) + (4,), dtype=np.uint64)
    for j in range(4):
        words[..., j] = halves[2 * j] | halves[2 * j + 1] << 32
    return words


class _SeedWords(ISeedSequence):
    """Seed words computed beforehand, served to PCG64's own seeding code
    (which asks for `generate_state(4, np.uint64)`)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The stream whose seed words (one (4,) row of `seed_words`) are given."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def stream(root_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (root_seed, key...)."""
    return generator(seed_words(root_seed, *key))


def left_sum(terms) -> float:
    """Python floats added left to right from 0, as builtin sum did before
    Python 3.12 made it compensated: output totals keep their bits on every version."""
    return functools.reduce(operator.add, terms, 0)
