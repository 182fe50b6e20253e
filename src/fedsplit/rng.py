"""Hierarchical random streams.

One root seed is split into independent streams keyed by (purpose, *indices),
so every randomness source (gradient sampling, client selection, splitting,
quantization, ...) is reproducible in isolation and runs are a pure function
of (config, seed).

A stream is the PCG64 generator of numpy's
`SeedSequence(root_seed, spawn_key=key)`; `stream` builds one with numpy's
own classes. `seed_words` runs that hash with plain integer operators, so
one call hashes every key of a run at once (index arrays broadcast against
each other); the root seed's part of the hash stays in Python ints.
`generator` hands the words to PCG64's own seeding code.

Streams that are fresh and make a few draws each (a block's cohort,
gradient and split streams) skip the Generator and are drawn in one numpy
pass.
`raw_outputs` gives output j of every stream from PCG64's 128-bit LCG by
jump-ahead, s_j = MULT**(j+1) (inc + initstate) + inc sum_{i<=j} MULT**i
(mod 2**128), on uint64 (hi, lo) word pairs, then PCG64's XSL-RR output.
`uniforms` and `integers_below` are numpy's `random` and `integers(0, high)`
on those outputs.  A stream whose bounded draw would reject takes numpy's own
`integers` call instead, so every value is the one a Generator reads.
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


def _nonnegative_int(x) -> int:
    """One seed or key entry as a Python int; a negative or non-integer
    entry is a ConfigError."""
    try:
        value = operator.index(x)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise ConfigError(f"seeds and stream keys must be nonnegative integers, got {x}")
    return value


def _entropy_words(x) -> list:
    """32-bit words of one seed or key entry, least significant first: an
    integer gives one word per started 32 bits (0 gives one word); an index
    array gives one word, so its entries must lie below 2**32."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = _nonnegative_int(x)
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
    """Independent generator for (root_seed, key...), built by numpy's own
    SeedSequence, whose hash `seed_words` runs."""
    seq = np.random.SeedSequence(_nonnegative_int(root_seed), spawn_key=tuple(map(_nonnegative_int, key)))
    return np.random.Generator(np.random.PCG64(seq))


# numpy's PCG64 (pcg64.h): the 128-bit LCG s -> s * _PCG_MULT + inc, whose
# outputs are the XSL-RR of each stepped state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_MASK128 = 2**128 - 1


@functools.lru_cache(maxsize=16)
def _jump_constants(n: int) -> tuple:
    """The (hi, lo) words of a_j = MULT**(j+1) and b_j = sum_{i<=j} MULT**i
    (mod 2**128) for j = 1..n, as four read-only (n,) uint64 arrays: output
    j of the stream seeded with (initstate, inc) steps from the state
    a_j (inc + initstate) + b_j inc."""
    a, b, rows = _PCG_MULT, 1, []
    for _ in range(n):
        a = a * _PCG_MULT & _MASK128
        b = (b * _PCG_MULT + 1) & _MASK128
        rows.append((a >> 64, a & _MASK64, b >> 64, b & _MASK64))
    table = np.array(rows, dtype=np.uint64).reshape(n, 4).T.copy()
    table.flags.writeable = False
    return tuple(table)


def _mul128(ah, al, bh, bl):
    """(ah 2**64 + al)(bh 2**64 + bl) mod 2**128 as (hi, lo) uint64 words;
    the high word of al * bl is summed from its 32-bit limb products."""
    a0, a1 = al & _MASK32, al >> 32
    b0, b1 = bl & _MASK32, bl >> 32
    p01, p10 = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + ah * bl + al * bh
    return hi, al * bl


def raw_outputs(words, n: int) -> np.ndarray:
    """Outputs 1..n of the stream of each (4,) row of seed words, as a
    (..., n) uint64 array: row w holds generator(w).bit_generator.random_raw(n).

    PCG64 seeds with initstate = (w[0], w[1]) and initseq = (w[2], w[3]),
    high word first, so inc = 2 initseq + 1; every output's state comes
    from one jump-ahead product pair, with no loop over the outputs.
    """
    words = np.asarray(words, dtype=np.uint64)
    lanes = words.reshape(-1, 4)
    init_hi, init_lo, seq_hi, seq_lo = (lanes[:, i, None] for i in range(4))
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    x_lo = inc_lo + init_lo
    x_hi = inc_hi + init_hi + (x_lo < inc_lo)
    a_hi, a_lo, b_hi, b_lo = _jump_constants(n)
    ah, al = _mul128(x_hi, x_lo, a_hi, a_lo)
    bh, bl = _mul128(inc_hi, inc_lo, b_hi, b_lo)
    lo = al + bl
    hi = ah + bh + (lo < al)
    # XSL-RR: the xor of the halves, rotated right by the top 6 bits
    x = hi ^ lo
    rot = hi >> 58
    out = x >> rot | x << (64 - rot & 63)
    return out.reshape(words.shape[:-1] + (n,))


def uniforms(words, n: int) -> np.ndarray:
    """The doubles generator(w).random(n) draws for each row w of seed words,
    as a (..., n) float64 array: numpy makes each from one 64-bit output."""
    return (raw_outputs(words, n) >> 11) * 2.0**-53


def integers_below(words, high: int, n: int) -> np.ndarray:
    """The draws generator(w).integers(0, high, size=n) makes for each row w
    of seed words, as a (..., n) int64 array; high lies in [1, 2**32].

    numpy scales each 32-bit half-output (low half first) by high and keeps
    the top word (Lemire), rejecting a draw whose low word falls below
    2**32 % high.  A stream that rejects one of its n draws takes numpy's own
    draw instead; a power-of-two high never rejects.
    """
    high = operator.index(high)
    if not 1 <= high <= 2**32:
        raise ConfigError(f"bounded draws need high in [1, 2**32], got {high}")
    words = np.asarray(words, dtype=np.uint64)
    lanes = words.reshape(-1, 4)
    raw = raw_outputs(lanes, (n + 1) // 2)
    halves = np.empty((len(lanes), 2 * raw.shape[1]), dtype=np.uint64)
    halves[:, 0::2] = raw & _MASK32
    halves[:, 1::2] = raw >> 32
    scaled = halves[:, :n] * high
    draws = (scaled >> 32).astype(np.int64)
    threshold = 2**32 % high
    if threshold:
        for lane in np.flatnonzero(((scaled & _MASK32) < threshold).any(axis=1)):
            draws[lane] = generator(lanes[lane]).integers(0, high, size=n)
    return draws.reshape(words.shape[:-1] + (n,))


def left_sum(terms) -> float:
    """Python floats added left to right from 0, as builtin sum did before
    Python 3.12 made it compensated: output totals keep their bits on every version."""
    return functools.reduce(operator.add, terms, 0)
