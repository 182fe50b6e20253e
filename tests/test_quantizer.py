from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit import rng as rngmod
from fedsplit.consensus import RoundState, mspdq_round
from fedsplit.errors import CodecError, ConfigError, ProtocolIntegrityError
from fedsplit.quantizer import (
    MAX_LEVEL,
    QuantizedVector,
    QuantizerState,
    compute_pi_t,
    decode,
    distribution_mean_var,
    dp_delta,
    dynamic_error_bound,
    encode,
    encoded_size,
    knob_values,
    output_distribution,
    quantize,
    round_to_knobs,
    tv_distance,
)
from fedsplit.spectral import StepWeights


def unit_state(level=5, d=1):
    return QuantizerState(lo=np.zeros(d), hi=np.ones(d), level=level)


def test_state_invariants():
    qs = unit_state()
    assert qs.bits == 3 and qs.bin == pytest.approx(0.25)
    with pytest.raises(ConfigError):
        QuantizerState(lo=np.zeros(1), hi=np.zeros(1), level=5)
    with pytest.raises(ConfigError):
        QuantizerState(lo=np.zeros(1), hi=np.ones(1), level=1)


def test_knob_construction_exact():
    qs = unit_state()
    for tau in range(5):
        assert qs.knob(np.array([tau]))[0] == tau * 0.25


def test_knob_input_is_deterministic():
    qs = unit_state()
    rng = rngmod.stream(0, 0)
    for _ in range(50):
        assert quantize(np.array([0.25]), qs, rng).values()[0] == 0.25
    dist = output_distribution(np.array([0.25]), qs)[0]
    assert dist == [(0.25, 1.0)]


def test_two_point_distribution_matches_hand_values():
    qs = unit_state()
    dist = output_distribution(np.array([0.3]), qs)[0]
    (v_lo, p_lo), (v_hi, p_hi) = dist
    assert (v_lo, v_hi) == (0.25, 0.5)
    assert p_lo == pytest.approx(0.8, abs=1e-15)
    assert p_hi == pytest.approx(0.2, abs=1e-15)
    assert p_lo + p_hi == 1.0


def test_top_knob_maps_deterministically():
    qs = unit_state()
    dist = output_distribution(np.array([1.0]), qs)[0]
    assert dist == [(1.0, 1.0)]


def test_quantize_equals_the_shared_rounding_helper():
    qs = QuantizerState(lo=np.array([-1.0, 0.0, 2.0]), hi=np.array([1.0, 0.5, 3.0]), level=7)
    w = np.array([0.3, 0.49, 2.0])
    for seed in range(20):
        q = quantize(w, qs, rngmod.stream(seed, 30))
        u = rngmod.stream(seed, 30).random(size=w.shape)
        tau, up, vals = round_to_knobs(w, qs.lo, qs.hi, qs.level, u)
        idx = tau.astype(np.int64) + up
        assert np.array_equal(q.indices, idx)
        assert vals.tobytes() == qs.knob(idx).tobytes()


def test_rounding_helper_on_a_matrix_equals_row_by_row_quantize():
    # one (M, d) draw consumes the stream exactly as M successive (d,) draws
    rng = rngmod.stream(4, 30)
    lo = rng.uniform(-2.0, 0.0, size=(5, 3))
    hi = lo + rng.uniform(0.5, 2.0, size=(5, 3))
    W = lo + rng.uniform(0.0, 1.0, size=(5, 3)) * (hi - lo)
    tau, up, vals = round_to_knobs(W, lo, hi, 9, rngmod.stream(5, 30).random(size=W.shape))
    idx = tau.astype(np.int64) + up
    assert vals.tobytes() == knob_values(lo, hi, 9, idx).tobytes()
    rows = rngmod.stream(5, 30)
    for i in range(5):
        qs = QuantizerState(lo=lo[i], hi=hi[i], level=9)
        assert np.array_equal(quantize(W[i], qs, rows).indices, idx[i])


def reference_rounding(w, lo, hi, level, u):
    """The rounding law as first written: int64 knob index clipped to
    [0, l-2], round-up probability clipped to [0, 1], knob_values."""
    step = (hi - lo) / (level - 1)
    tau = np.clip(np.floor((w - lo) / step).astype(np.int64), 0, level - 2)
    c_lo = lo + tau * step
    c_hi = lo + (tau + 1) * step
    idx = tau + (u < np.clip((w - c_lo) / (c_hi - c_lo), 0.0, 1.0))
    return idx, knob_values(lo, hi, level, idx)


@given(
    lo=st.floats(-1e3, 1e3),
    width=st.floats(1e-6, 1e3),
    level=st.sampled_from([2, 3, 5, 16, 257, 4096, 2**20, 2**40, 2**53]),
    knobs=st.lists(st.integers(0, 2**53 - 1), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_rounding_kernel_matches_the_clipped_int64_reference(lo, width, level, knobs, seed):
    # box ends, knobs, their float neighbours and random interior points,
    # each rounded with u = 0, the largest u below 1 and a random u
    hi = lo + width
    rng = rngmod.stream(seed, 31)
    ks = knob_values(lo, hi, level, np.array([k % level for k in knobs], dtype=np.float64))
    ends = np.array([lo, hi])
    w = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf), ks,
                        np.nextafter(ks, -np.inf), np.nextafter(ks, np.inf), lo + rng.random(4) * width])
    w = np.minimum(np.maximum(w, lo), hi)
    w = np.tile(w, 3)
    u = np.concatenate([np.zeros(w.size // 3), np.full(w.size // 3, np.nextafter(1.0, 0.0)),
                        rng.random(w.size // 3)])
    lo_b, hi_b = np.full_like(w, lo), np.full_like(w, hi)
    with np.errstate(divide="ignore", invalid="ignore"):  # knobs collapse at 2**53
        tau, up, vals = round_to_knobs(w, lo_b, hi_b, level, u)
        ref_idx, ref_vals = reference_rounding(w, lo_b, hi_b, level, u)
    assert np.array_equal(tau.astype(np.int64) + up, ref_idx)
    assert vals.tobytes() == ref_vals.tobytes()


def test_out_of_interval_rejected():
    qs = unit_state()
    rng = rngmod.stream(0, 1)
    with pytest.raises(ProtocolIntegrityError):
        quantize(np.array([1.1]), qs, rng)


def test_distribution_exact_against_rational_oracle():
    # interval [0,1] and a 1/1024 grid are exact binary fractions, so the
    # analytic probabilities are exact rationals
    level = 5
    qs = unit_state(level)
    bin_f = Fraction(1, level - 1)
    for num in range(0, 1025, 7):
        w = Fraction(num, 1024)
        dist = output_distribution(np.array([float(w)]), qs)[0]
        tau = min(int(w / bin_f), level - 2)
        lo = bin_f * tau
        p_hi = (w - lo) / bin_f
        if p_hi == 0:
            assert dist == [(float(lo), 1.0)]
        elif p_hi == 1:
            assert dist == [(float(lo + bin_f), 1.0)]
        else:
            assert abs(dist[0][1] - float(1 - p_hi)) <= 1e-15
            assert abs(dist[1][1] - float(p_hi)) <= 1e-15


def test_monte_carlo_mean_four_sigma():
    qs = unit_state()
    w = np.array([0.3])
    n = 100_000
    tiled = QuantizerState(lo=np.zeros(n), hi=np.ones(n), level=5)
    rng = rngmod.stream(5, 2)
    draws = quantize(np.full(n, 0.3), tiled, rng).values()
    _, var = distribution_mean_var(output_distribution(w, qs)[0])
    assert abs(draws.mean() - 0.3) <= 4.0 * np.sqrt(var / n)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), st.integers(2, 40))
def test_unbiased_exact_distribution(w, level):
    qs = unit_state(level)
    mean, var = distribution_mean_var(output_distribution(np.array([w]), qs)[0])
    assert mean == pytest.approx(w, abs=1e-12)
    assert var <= (qs.bin / 2) ** 2 + 1e-15


def test_variance_bound_on_grid():
    qs = unit_state(9)
    for w in np.linspace(0, 1, 1000):
        _, var = distribution_mean_var(output_distribution(np.array([w]), qs)[0])
        assert var <= (qs.bin / 2) ** 2 * (1 + 1e-12)


@pytest.mark.parametrize("w", [1000.0004, 1000.0000001, 1000.001])
def test_collapsed_knobs_give_one_unit_atom(w):
    # past float resolution both bracketing knobs are one number
    qs = QuantizerState(lo=np.array([1000.0]), hi=np.array([1000.001]), level=2**53)
    [atoms] = output_distribution(np.array([w]), qs)
    assert len(atoms) == 1 and atoms[0][1] == 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _, _, uploaded = round_to_knobs(np.array([w]), qs.lo, qs.hi, qs.level, np.array([0.5]))
    assert atoms[0][0] == uploaded[0]


def reference_output_distribution(w, qs):
    """The law as it was first written, on float64 arrays: the oracle for
    the scalar version."""
    w = np.asarray(w, dtype=np.float64)
    step = (qs.hi - qs.lo) / (qs.level - 1)
    tau = np.minimum(np.floor((w - qs.lo) / step), qs.level - 2)
    c_lo, c_hi = qs.lo + tau * step, qs.lo + (tau + 1.0) * step
    with np.errstate(divide="ignore", invalid="ignore"):
        p_up = np.minimum(np.maximum((w - c_lo) / (c_hi - c_lo), 0.0), 1.0)
    out = []
    for j in range(qs.d):
        p = float(p_up[j])
        if not p > 0.0:
            out.append([(float(c_lo[j]), 1.0)])
        elif p == 1.0:
            out.append([(float(c_hi[j]), 1.0)])
        else:
            out.append([(float(c_lo[j]), 1.0 - p), (float(c_hi[j]), p)])
    return out


@st.composite
def law_inputs(draw):
    """A box per coordinate and an input in it: a box end, a knob, a knob's
    float neighbour or an interior point, at levels up to 2**53 (where
    adjacent knobs can collapse to one float)."""
    d = draw(st.integers(1, 8))
    level = draw(st.one_of(st.integers(2, 300), st.integers(2, MAX_LEVEL), st.sampled_from([2**40, MAX_LEVEL])))
    lo = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d)))
    width = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d)))
    qs = QuantizerState(lo=lo, hi=lo + width, level=level)
    w = np.empty(d)
    for j in range(d):
        kind = draw(st.sampled_from(["lo", "hi", "knob", "below", "above", "inside"]))
        knob = float(knob_values(qs.lo[j], qs.hi[j], level, draw(st.integers(0, level - 1))))
        w[j] = {
            "lo": qs.lo[j],
            "hi": qs.hi[j],
            "knob": knob,
            "below": np.nextafter(knob, -np.inf),
            "above": np.nextafter(knob, np.inf),
            "inside": qs.lo[j] + draw(st.floats(0.0, 1.0)) * width[j],
        }[kind]
    return np.clip(w, qs.lo, qs.hi), qs


def _bits(law):
    return [[(type(v), v.hex(), type(p), p.hex()) for v, p in atoms] for atoms in law]


@settings(max_examples=300)
@given(law_inputs())
def test_output_distribution_equals_the_float64_law_bitwise(case):
    w, qs = case
    assert _bits(output_distribution(w, qs)) == _bits(reference_output_distribution(w, qs))


@pytest.mark.parametrize(
    "w, level",
    [(1000.0004, 2**53), (1000.0000001, 2**53), (1000.001, 2**53), (1000.0, 2**53), (1000.0005, 3)],
)
def test_output_distribution_equals_the_float64_law_on_collapsed_knobs(w, level):
    qs = QuantizerState(lo=np.array([1000.0]), hi=np.array([1000.001]), level=level)
    assert _bits(output_distribution(np.array([w]), qs)) == _bits(reference_output_distribution(np.array([w]), qs))


def test_tv_distance_hand_value():
    qs = unit_state()
    d1 = output_distribution(np.array([0.3]), qs)[0]
    d2 = output_distribution(np.array([0.35]), qs)[0]
    assert tv_distance(d1, d2) == pytest.approx(0.2, abs=1e-12)


def test_shrink_box_formula():
    # two knobs are the box ends, so a quantized round's uploads land on
    # quantized -+ width/2 around the last upload
    q = np.array([[0.25, -1.0], [0.25, -1.0]])
    state = RoundState(
        visible=q.copy(), invisible=q[:, None, :].copy(), m_counts=np.array([1, 1]),
        global_model=q.mean(axis=0), quantized=q.copy(), level=2,
    )
    weights_k = np.full((2, 1), 0.1)
    for width in (1.0, 0.5):
        nxt = mspdq_round(state, 0.4, weights_k, width, rngmod.stream(0, 40).random(size=q.shape))
        errors = np.linalg.norm(nxt.quantized - nxt.visible, axis=1)
        ends = np.stack([q - 0.5 * width, q + 0.5 * width])
        assert np.all((nxt.quantized == ends[0]) | (nxt.quantized == ends[1]))
        assert np.all(errors == pytest.approx(0.5 * width * np.sqrt(2)))


def test_shrink_width_decreasing_under_harmonic_weights():
    a_max = StepWeights(gamma=np.array([[0.2], [0.1]]), rule="harmonic").table(10)[:, :, 0].max(axis=1)
    widths = 3.0 * a_max
    assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))


def test_compute_pi_t_values():
    assert compute_pi_t(0.5, 0.5, 0.0) == pytest.approx(24.0)
    assert compute_pi_t(0.5, 0.5, 1.0) == pytest.approx(40.0)
    ws = np.linspace(0, 5, 20)
    pis = [compute_pi_t(0.5, 0.5, w) for w in ws]
    assert all(a <= b for a, b in zip(pis, pis[1:]))
    with pytest.raises(ConfigError):
        compute_pi_t(0.5, 1.0, 0.0)


def test_error_bounds():
    assert dynamic_error_bound(24.0, 8, 0.1, 1) == pytest.approx(24.0 * 0.1 / 7.0)
    # one bin of l - 1 per coordinate, for any level, not only powers of two
    assert dynamic_error_bound(24.0, 5, 0.1, 4) == pytest.approx(2.0 * 24.0 * 0.1 / 4.0)
    pis, a_max = np.array([24.0, 30.0]), np.array([0.1, 0.05])
    assert np.array_equal(
        dynamic_error_bound(pis, 257, a_max, 3),
        [dynamic_error_bound(p, 257, a, 3) for p, a in zip(pis, a_max)],
    )


def test_dp_delta_values():
    assert dp_delta(0.1, 1.0, 1.0, 5, 3) == pytest.approx(0.4)
    assert dp_delta(1e9, 1.0, 1.0, 5, 3) == pytest.approx(4.0 / 7.0)
    deltas = [dp_delta(0.1, pa, 1.0, 5, 3) for pa in np.linspace(0.5, 5, 12)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


# -- codec ---------------------------------------------------------------------


def test_codec_golden_bytes():
    qs = QuantizerState(lo=np.zeros(3), hi=np.ones(3), level=5)
    blob = encode(QuantizedVector(indices=np.array([0, 4, 2]), state=qs))
    header, payload = blob[:40], blob[40:]
    assert payload == bytes([0x22, 0x00])
    assert len(blob) == encoded_size(3, 3)
    # header fields: d, l, B as u64 LE; lo, hi as f64 LE
    assert header[0:8] == (3).to_bytes(8, "little")
    assert header[8:16] == (5).to_bytes(8, "little")
    assert header[16:24] == (3).to_bytes(8, "little")
    assert np.frombuffer(header[24:32], dtype="<f8")[0] == 0.0
    assert np.frombuffer(header[32:40], dtype="<f8")[0] == 1.0


def test_codec_payload_length():
    for d, level in ((1, 2), (3, 5), (7, 16), (10, 256), (5, 4096)):
        qs = QuantizerState(lo=np.zeros(d), hi=np.ones(d), level=level)
        blob = encode(QuantizedVector(indices=np.zeros(d, dtype=np.int64), state=qs))
        assert len(blob) - 40 == (qs.bits * d + 7) // 8


@given(st.integers(2, 40), st.integers(1, 12), st.integers(0, 2**31))
def test_codec_roundtrip_random(level, d, seed):
    rng = rngmod.stream(seed, 13)
    qs = QuantizerState(lo=-np.ones(d), hi=np.ones(d), level=level)
    idx = rng.integers(0, level, size=d)
    back = decode(encode(QuantizedVector(indices=idx, state=qs)), qs)
    assert np.array_equal(back.indices, idx)
    assert np.array_equal(back.values(), qs.knob(idx))


def test_codec_rejects_bad_payloads():
    qs = unit_state(5, d=3)
    blob = encode(QuantizedVector(indices=np.array([0, 4, 2]), state=qs))
    with pytest.raises(CodecError):
        decode(blob[:-1], qs)
    with pytest.raises(CodecError):
        decode(blob + b"\x00", qs)
    with pytest.raises(CodecError):
        decode(blob, QuantizerState(lo=np.zeros(3), hi=np.ones(3), level=6))
    with pytest.raises(CodecError):
        decode(blob, QuantizerState(lo=np.zeros(3), hi=2 * np.ones(3), level=5))
    with pytest.raises(CodecError):
        encode(QuantizedVector(indices=np.array([0, 5, 2]), state=qs))


def test_codec_rejects_unused_codepoints():
    # level 5 needs 3 bits; the codepoints 5..7 must fail on decode
    qs = unit_state(5, d=1)
    good = encode(QuantizedVector(indices=np.array([4]), state=qs))
    bad = bytearray(good)
    bad[40] = 0x06
    with pytest.raises(CodecError):
        decode(bytes(bad), qs)
