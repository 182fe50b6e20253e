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

    def values(self) -> np.ndarray:
        return self.state.knob(self.indices)


def bit_width(level: int) -> int:
    """Wire bits per coordinate for `level` knobs: ceil(log2 level), at least 1."""
    return max(1, math.ceil(math.log2(level)))


def knob_values(lo: np.ndarray, hi: np.ndarray, level: int, indices: np.ndarray) -> np.ndarray:
    """Values lo + idx (hi - lo)/(level - 1) of knob indices over boxes [lo, hi]."""
    return lo + indices * ((hi - lo) / (level - 1))


def _bracket(w: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: int, out: np.ndarray | None = None):
    """Per coordinate: the float index tau (capped at l-2; callers check
    w >= lo) of the lower bracketing knob and the two knob values, for any
    shape that broadcasts against the boxes, e.g. (d,) or (M, d); the lower
    knob values go into `out` when given."""
    step = (hi - lo) / (level - 1)
    tau = np.minimum(np.floor((w - lo) / step), level - 2)
    return tau, np.add(lo, tau * step, out), lo + (tau + 1.0) * step


def round_to_knobs(
    w: np.ndarray, lo: np.ndarray, hi: np.ndarray, level: int, u: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Randomized rounding to the two bracketing knobs with one uniform u in
    [0, 1) per coordinate: returns tau, the round-up mask and the knob values
    (the knob index is tau + up), written into `out` when given.  Such u make
    clipping p to [0, 1] moot; collapsed knobs divide by zero (callers
    silence it): inf rounds up, NaN down."""
    tau, c_lo, c_hi = _bracket(w, lo, hi, level, out)
    up = u < (w - c_lo) / (c_hi - c_lo)
    np.copyto(c_lo, c_hi, where=up)  # the bits of np.where(up, c_hi, c_lo)
    return tau, up, c_lo


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
    _, c_lo, c_hi = _bracket(w, qs.lo, qs.hi, qs.level)
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


def distribution_mean_var(atoms: list[tuple[float, float]]) -> tuple[float, float]:
    mean = left_sum(v * p for v, p in atoms)
    var = left_sum(p * (v - mean) ** 2 for v, p in atoms)
    return mean, var


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
    eps_t = max(1.0, epsilon)
    return 8.0 * (epsilon + eps_t + eps_t * w_tilde_max) / (1.0 - lambda2_u)


def dynamic_error_bound(pi_t, level: int, a_max_k, d: int):
    """Shrinking-interval error bound sqrt(d) pi a / (l - 1): one knob bin
    per coordinate of a box of width pi a.  Takes scalars or arrays."""
    return math.sqrt(d) * pi_t * a_max_k / (level - 1)


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
