from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit import rng as rngmod
from fedsplit.consensus import RoundState, mspdq_round
from fedsplit.errors import CodecError, ConfigError, ProtocolIntegrityError
from fedsplit.quantizer import (
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
        idx, vals = round_to_knobs(w, qs.lo, qs.hi, qs.level, rngmod.stream(seed, 30))
        assert np.array_equal(q.indices, idx)
        assert vals.tobytes() == qs.knob(idx).tobytes()


def test_rounding_helper_on_a_matrix_equals_row_by_row_quantize():
    # one (M, d) draw consumes the stream exactly as M successive (d,) draws
    rng = rngmod.stream(4, 30)
    lo = rng.uniform(-2.0, 0.0, size=(5, 3))
    hi = lo + rng.uniform(0.5, 2.0, size=(5, 3))
    W = lo + rng.uniform(0.0, 1.0, size=(5, 3)) * (hi - lo)
    idx, vals = round_to_knobs(W, lo, hi, 9, rngmod.stream(5, 30))
    assert vals.tobytes() == knob_values(lo, hi, 9, idx).tobytes()
    rows = rngmod.stream(5, 30)
    for i in range(5):
        qs = QuantizerState(lo=lo[i], hi=hi[i], level=9)
        assert np.array_equal(quantize(W[i], qs, rows).indices, idx[i])


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
        nxt, errors = mspdq_round(state, 0.4, weights_k, width, rngmod.stream(0, 40))
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
