"""Stochastic quantizer over a uniform knob grid, its exact output law,
the shrinking-interval width constant and error bound, the (0, delta)-DP
calculator, and the bit-exact upload codec.

A quantizer state is a per-coordinate box [lo, hi] of shared scalar width
holding l knobs c_tau = lo + tau (hi - lo)/(l - 1).  A coordinate in
[c_tau, c_{tau+1}) rounds down with probability (c_{tau+1} - w)/bin and up
otherwise, which is unbiased; a coordinate exactly on a knob maps there with
probability one.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CodecError, ConfigError, ProtocolIntegrityError
from .rng import left_sum

_HEADER = struct.Struct("<QQQdd")  # d, l, B, lo[0], hi[0]
# Knob indices and the grid (hi - lo)/(l - 1) are float64: past 2**53 adjacent
# knobs stop being distinct numbers.
MAX_LEVEL = 2**53


@dataclass(frozen=True)
class QuantizerState:
    lo: np.ndarray
    hi: np.ndarray
    level: int

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape:
            raise ConfigError("lo and hi must share a shape")
        if np.any(hi <= lo):
            raise ConfigError("need hi > lo per coordinate")
        if self.level < 2:
            raise ConfigError("need at least two knobs")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def d(self) -> int:
        return self.lo.shape[0]

    @property
    def bits(self) -> int:
        return bit_width(self.level)

    @property
    def bin(self) -> float:
        return float(self.hi[0] - self.lo[0]) / (self.level - 1)

    def knob(self, indices: np.ndarray) -> np.ndarray:
        """Knob values for integer indices (vectorized)."""
        return knob_values(self.lo, self.hi, self.level, np.asarray(indices))


@dataclass(frozen=True)
class QuantizedVector:
    indices: np.ndarray
    state: QuantizerState


def bit_width(level: int) -> int:
    """Wire bits per coordinate for `level` knobs: ceil(log2 level), at least 1."""
    return max(1, math.ceil(math.log2(level)))


def knob_values(lo: np.ndarray, hi: np.ndarray, level: int, indices: np.ndarray) -> np.ndarray:
    """Values lo + idx (hi - lo)/(level - 1) of knob indices over boxes [lo, hi]."""
    return lo + indices * ((hi - lo) / (level - 1))


def _knob_law(level: int, like: np.ndarray | None = None):
    """The knob law as two closures, bracket(w, lo, hi, out=None) -> (tau,
    c_lo, c_hi) and round_(w, lo, hi, u, out=None) -> (tau, up, values),
    over its constants l-1, l-2 and 1.0 as 0-d arrays (numpy takes them as
    fast as a same-shape array and faster than a Python number, with the
    same bits).  Given `like`, they also close over out buffers shaped like
    it, so a caller that rounds many times makes every ufunc same-shape and
    allocates nothing; else numpy allocates each result.  The lower knob
    values go into `out` (which must not alias an input) when given.  Inputs
    are same-shape, e.g. (d,) or (M, d); callers check w >= lo.

        tau = min(floor((w - lo) / step), l - 2),  step = (hi - lo) / (l - 1)
        c_lo = lo + tau step,  c_hi = lo + (tau + 1) step
        up = u < (w - c_lo) / (c_hi - c_lo)

    Every result goes to its buffer positionally (cheaper than the keyword on
    small arrays; np.minimum takes only the keyword), and np.putmask gives
    the bits of np.where(up, c_hi, c_lo); step's buffer is reused for
    c_hi - c_lo.
    """
    lm1, lm2, one = np.array(float(level - 1)), np.array(float(level - 2)), np.array(1.0)
    step = tau = c_hi = p = up = None
    if like is not None:
        step, tau, c_hi, p = np.empty_like(like), np.empty_like(like), np.empty_like(like), np.empty_like(like)
        up = np.empty(like.shape, dtype=bool)
    # numpy's functions as closure locals: looking up np.<name> costs ~30 ns
    # a call, a tenth of a ufunc on these small arrays
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    floor, minimum, less, putmask = np.floor, np.minimum, np.less, np.putmask

    def bracket(w, lo, hi, out=None):
        s = divide(subtract(hi, lo, step), lm1, step)
        t = minimum(floor(divide(subtract(w, lo, tau), s, tau), tau), lm2, out=tau)
        c_lo = add(lo, multiply(t, s, out), out)
        return t, c_lo, add(lo, multiply(add(t, one, c_hi), s, c_hi), c_hi)

    def round_(w, lo, hi, u, out=None):
        t, c_lo, c_h = bracket(w, lo, hi, out)
        is_up = less(u, divide(subtract(w, c_lo, p), subtract(c_h, c_lo, step), p), up)
        putmask(c_lo, is_up, c_h)
        return t, is_up, c_lo

    return bracket, round_


_unbound = functools.lru_cache(maxsize=64)(_knob_law)


def round_to_knobs(
    w: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: int, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized rounding to the two bracketing knobs with one uniform u in
    [0, 1) per coordinate: returns tau, the round-up mask and the knob values
    (the knob index is tau + up).  Such u make clipping p to [0, 1] moot;
    collapsed knobs divide by zero (callers silence it): inf rounds up, NaN
    down."""
    return _unbound(level)[1](w, lo, hi, u)


def _checked_input(w: np.ndarray, qs: QuantizerState) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != qs.lo.shape:
        raise ConfigError("input dimension mismatch")
    if not np.logical_and.reduce((w >= qs.lo) & (w <= qs.hi)):
        raise ProtocolIntegrityError("quantizer input outside the current interval")
    return w


def quantize(w: np.ndarray, qs: QuantizerState, rng: np.random.Generator) -> QuantizedVector:
    """Randomized rounding to the two bracketing knobs; coordinates independent."""
    w = _checked_input(w, qs)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau, up, _ = round_to_knobs(w, qs.lo, qs.hi, qs.level, rng.random(size=w.shape))
    return QuantizedVector(indices=tau.astype(np.int64) + up, state=qs)


def output_distribution(w: np.ndarray, qs: QuantizerState) -> list[list[tuple[float, float]]]:
    """Exact per-coordinate atom list [(value, probability), ...].

    Knob inputs give a single unit atom; probabilities of a two-atom law sum
    to exactly 1.0 (the down-probability is computed as 1 - p_up).  Knobs
    that collapse to one float (c_lo == c_hi) give a unit atom at that value,
    which is what round_to_knobs uploads there.  p_up and the atoms are
    formed on Python floats, whose IEEE operations give the float64 bits.
    """
    w = _checked_input(w, qs)
    _, c_lo, c_hi = _unbound(qs.level)[0](w, qs.lo, qs.hi)
    out = []
    for x, lo, hi in zip(w.tolist(), c_lo.tolist(), c_hi.tolist()):
        p = (x - lo) / (hi - lo) if hi > lo else 0.0
        if not p > 0.0:
            out.append([(lo, 1.0)])
        elif p >= 1.0:
            out.append([(hi, 1.0)])
        else:
            out.append([(lo, 1.0 - p), (hi, p)])
    return out


def tv_distance(atoms_a: list[tuple[float, float]], atoms_b: list[tuple[float, float]]) -> float:
    """Total variation distance between two finite atom lists."""
    support = sorted({v for v, _ in atoms_a} | {v for v, _ in atoms_b})
    pa = {v: 0.0 for v in support}
    pb = {v: 0.0 for v in support}
    for v, p in atoms_a:
        pa[v] += p
    for v, p in atoms_b:
        pb[v] += p
    return 0.5 * left_sum(abs(pa[v] - pb[v]) for v in support)


def compute_pi_t(epsilon: float, lambda2_u: float, w_tilde_max: float) -> float:
    """Interval-width constant 8(eps + eps~ + eps~ W~)/(1 - lambda2)."""
    if lambda2_u >= 1.0:
        raise ConfigError("lambda2(U) must be below 1")
    eps_t = epsilon if epsilon > 1.0 else 1.0  # max(1, epsilon) without the builtin's call
    return 8.0 * (epsilon + eps_t + eps_t * w_tilde_max) / (1.0 - lambda2_u)


def dynamic_error_bound(pi_t, level: int, a_max_k, d: int):
    """Shrinking-interval error bound sqrt(d) pi a / (l - 1): one knob bin
    per coordinate of a box of width pi a.  Takes scalars or arrays."""
    return math.sqrt(d) * pi_t * a_max_k / (level - 1)


def knob_rounding_allowance(box_end_max, d: int):
    """sqrt(d) 18 spacing(A): the float slack of a round's upload error
    norm over dynamic_error_bound, for A, the round's largest |box end|, a
    normal float.

    With u = 2**-53 and s = spacing(A) > u A, rounding v errs by at most
    u |v|: under s for |v| <= A, under 2s for |v| <= 2A.  Per coordinate,
    against the exact knobs G_j = lo + j (hi - lo)/(l - 1) of a box of
    width W: the ends q -+ W/2 round once each, so a bin of G is at most
    W/(l - 1) + 2s; step = fl(fl(hi - lo)/(l - 1)) rounds twice, moving
    j step (at most 2A) by under 4s, and j step and lo + j step round once
    more (2s, s), so a float knob lies within 7s of G_j; floor(fl(fl(w - lo)
    / step)) rounds w - lo four times, so G_tau and G_tau+1 bracket w to
    within 8s (the cap at l - 2 binds only within 8s of hi); and the upload
    is one of the two float knobs, the nearer one when w lies outside them.
    So a coordinate errs by at most W/(l - 1) + 17s, up to terms u times
    smaller, and the allowance takes 18s.  The norm and the bound themselves
    round by a few d u of the bound, which matters only for a whole bin's
    error in every coordinate.
    """
    return math.sqrt(d) * 18.0 * np.spacing(box_end_max)


def dp_delta(C4: float, pi_t: float, a_max_k: float, level: int, B: int) -> float:
    """(0, delta) privacy level of one quantized upload:
    min{ C4 (l-1)/(pi a), (l-1)/(2^B - 1) }."""
    if pi_t <= 0 or a_max_k <= 0 or C4 < 0:
        raise ConfigError("need positive width factors and C4 >= 0")
    return min(C4 * (level - 1) / (pi_t * a_max_k), (level - 1) / (2**B - 1))


# -- wire format --------------------------------------------------------------
#
# Fixed 40-byte header: d, l, B as uint64 LE, then lo[0] and hi[0] as float64
# LE, followed by ceil(B*d/8) payload bytes.  The payload packs the indices
# most-significant group first into one integer serialized little-endian, so
# e.g. d=3, l=5, B=3, indices [0,4,2] give the integer 0b000_100_010 = 0x22
# and the payload bytes 22 00.


def encoded_size(d: int, B: int) -> int:
    return _HEADER.size + (B * d + 7) // 8


def encode(q: QuantizedVector) -> bytes:
    qs = q.state
    B = qs.bits
    indices = np.asarray(q.indices, dtype=np.int64)
    if np.any(indices < 0) or np.any(indices >= qs.level):
        raise CodecError("index out of range for the quantization level")
    packed = 0
    for idx in indices:
        packed = (packed << B) | int(idx)
    payload = packed.to_bytes((B * qs.d + 7) // 8, "little")
    header = _HEADER.pack(qs.d, qs.level, B, float(qs.lo[0]), float(qs.hi[0]))
    return header + payload


def decode(blob: bytes, qs: QuantizerState) -> QuantizedVector:
    """Exact inverse of encode against the caller's quantizer state."""
    if len(blob) < _HEADER.size:
        raise CodecError("truncated header")
    d, level, B, lo0, hi0 = _HEADER.unpack_from(blob)
    if d != qs.d or level != qs.level or B != qs.bits:
        raise CodecError("header does not match the quantizer state")
    if lo0 != float(qs.lo[0]) or hi0 != float(qs.hi[0]):
        raise CodecError("header interval does not match the quantizer state")
    expected = (B * d + 7) // 8
    payload = blob[_HEADER.size :]
    if len(payload) != expected:
        raise CodecError("truncated or oversized payload")
    packed = int.from_bytes(payload, "little")
    mask = (1 << B) - 1
    indices = np.empty(d, dtype=np.int64)
    for j in range(d - 1, -1, -1):
        indices[j] = packed & mask
        packed >>= B
    if packed != 0:
        raise CodecError("payload carries excess bits")
    if np.any(indices >= level):
        raise CodecError("decoded index exceeds the quantization level")
    return QuantizedVector(indices=indices, state=qs)
