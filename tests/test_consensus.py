import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit import rng as rngmod
from fedsplit.consensus import (
    MSP,
    MSPDQ,
    check_conservation,
    check_deviation_bound,
    consensus_target,
    conserved_sum,
    msp_round,
    mspdq_round,
    run_consensus,
    state_from_splits,
    trace_to_jsonl,
)
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.orchestrator import mspdq_initial_state
from fedsplit.quantizer import (
    QuantizerState,
    compute_pi_t,
    output_distribution,
    round_to_knobs,
    shrink_box,
)
from fedsplit.spectral import (
    StepWeights,
    build_P,
    build_U,
    lambda2_U,
    lambda_min_U,
    phi_product,
    step_weight_cap,
)
from fedsplit.splitting import SplitRule, SplitState, split_model


def hand_state():
    """The {1,3,2,0} pair: visibles [1,3], invisibles [2,0], total 6."""
    splits = [
        SplitState(visible=np.array([1.0]), invisible=[np.array([2.0])], origin=np.array([1.5])),
        SplitState(visible=np.array([3.0]), invisible=[np.array([0.0])], origin=np.array([1.5])),
    ]
    return state_from_splits(splits)


def test_conserved_sum_hand_value():
    st = hand_state()
    assert conserved_sum(st)[0] == pytest.approx(6.0)
    assert consensus_target(st)[0] == pytest.approx(1.5)


def test_msp_round_conserves_total():
    st = hand_state()
    w = StepWeights(gamma=np.full((2, 1), 0.2), rule="harmonic")
    nxt = msp_round(st, 0.5, w.at(0))
    assert conserved_sum(nxt)[0] == pytest.approx(6.0, abs=1e-12)
    # drift terms cancel through the aggregation
    assert nxt.global_model[0] == pytest.approx(np.mean(nxt.visible))


def test_msp_round_zero_parameters_is_identity():
    st = hand_state()
    nxt = msp_round(st, 0.0, np.zeros((2, 1)))
    assert np.array_equal(nxt.visible, st.visible)
    assert np.array_equal(nxt.invisible, st.invisible)


def test_msp_round_consensus_is_fixed_point():
    splits = [
        SplitState(visible=np.array([2.0]), invisible=[np.array([2.0])], origin=np.array([2.0])),
        SplitState(visible=np.array([2.0]), invisible=[np.array([2.0])], origin=np.array([2.0])),
    ]
    st = state_from_splits(splits)
    nxt = msp_round(st, 0.7, np.full((2, 1), 0.2))
    assert np.allclose(nxt.visible, 2.0) and np.allclose(nxt.invisible, 2.0)


def test_run_consensus_limit_hand_value():
    st = hand_state()
    w = StepWeights(gamma=np.full((2, 1), 0.2), rule="constant")
    fin, trace, _ = run_consensus(st, 250, MSP, 0.5, w)
    assert np.allclose(fin.visible, 1.5, atol=1e-6)
    assert np.allclose(fin.invisible, 1.5, atol=1e-6)
    assert check_conservation(trace) <= 1e-9


def test_single_round_midpoint_reduces_to_plain_average():
    rng = rngmod.stream(4, 0)
    locals_ = [rng.standard_normal(3) for _ in range(4)]
    splits = [split_model(w, SplitRule("midpoint", m=1), rng) for w in locals_]
    st = state_from_splits(splits)
    w = StepWeights(gamma=np.zeros((4, 1)), rule="constant")
    fin, _, _ = run_consensus(st, 1, MSP, 0.6, w)
    assert np.allclose(fin.global_model, np.mean(locals_, axis=0), atol=1e-12)


def test_ragged_invisible_counts_conserve():
    rng = rngmod.stream(9, 0)
    splits = []
    for m in (1, 3, 2):
        splits.append(split_model(rng.standard_normal(2), SplitRule("uniform", m=m, eps_split=0.2), rng))
    st = state_from_splits(splits)
    total0 = conserved_sum(st).copy()
    w = StepWeights(gamma=np.array([[0.05, 0.0, 0.0], [0.04, 0.04, 0.04], [0.05, 0.05, 0.0]]), rule="constant")
    fin, trace, _ = run_consensus(st, 400, MSP, 0.5, w)
    assert np.allclose(conserved_sum(fin), total0, atol=1e-10)
    # heterogeneous counts change the consensus divisor: sum_i (1 + m_i) = 9
    target = total0 / 9.0
    assert np.allclose(consensus_target(st), target)
    assert np.allclose(fin.visible, target, atol=1e-6)
    assert np.allclose(fin.invisible[1], target, atol=1e-6)


def test_mspdq_initial_state_keeps_each_ragged_slot_constraint():
    rng = rngmod.stream(9, 1)
    w_prev = rng.standard_normal(3)
    splits = [
        split_model(w_prev + 0.3 * rng.standard_normal(3), SplitRule("uniform", m=m, eps_split=0.2), rng)
        for m in (1, 3, 2)
    ]
    level = 16
    state, shared = mspdq_initial_state(splits, w_prev, q0_width=8.0, level=level)
    lo0 = np.min(w_prev) - 4.0
    idx = (shared - lo0) / ((np.max(w_prev) + 4.0 - lo0) / (level - 1))
    assert np.allclose(idx, np.round(idx), atol=1e-9)
    assert np.array_equal(state.visible, np.tile(shared, (3, 1)))
    assert np.array_equal(state.quantized, state.visible)
    for i, s in enumerate(splits):
        # only the absorbing invisible moves; the sum constraint still holds
        for n in range(s.m - 1):
            assert np.array_equal(state.invisible[i, n], s.invisible[n])
        assert not np.any(state.invisible[i, s.m :])
        total = state.visible[i] + state.invisible[i].sum(axis=0)
        assert np.allclose(total, (1 + s.m) * s.origin, rtol=0, atol=1e-12)


def _stack(state):
    """[visible; invisible_1; ...; invisible_m] in build_P's row layout."""
    return np.concatenate([state.visible, *np.swapaxes(state.invisible, 0, 1)])


@given(
    M=st.integers(2, 5),
    m=st.integers(1, 3),
    d=st.integers(1, 4),
    K=st.integers(1, 30),
    epsilon=st.floats(0.05, 0.95),
    budget=st.floats(0.0, 0.99),
    rule=st.sampled_from(["constant", "harmonic", "inv_sqrt"]),
    seed=st.integers(0, 2**16),
)
def test_msp_consensus_matches_phi_product(M, m, d, K, epsilon, budget, rule, seed):
    # plain consensus is linear: K rounds equal Phi(K-1, 0) applied to the
    # initial stack of visible and invisible submodels
    rng = rngmod.stream(seed, 31)
    u = build_U(M, epsilon)
    gamma = rng.uniform(0.0, 1.0, size=(M, m)) * budget * step_weight_cap(u) / m
    weights = StepWeights(gamma=gamma, rule=rule)
    splits = [
        split_model(rng.standard_normal(d), SplitRule("uniform", m=m, eps_split=0.3), rng)
        for _ in range(M)
    ]
    state = state_from_splits(splits)
    fin, _, _ = run_consensus(state, K, MSP, epsilon, weights, record=False)
    phi = phi_product([build_P(u, weights.at(k), m) for k in range(K)])
    expected = phi @ _stack(state)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(_stack(fin) - expected)) <= 1e-12 * scale


def quantized_setup(seed=0, M=4, d=3, level=64, eps=0.4, gamma=0.3, scale=0.5):
    rng = rngmod.stream(seed, 21)
    w_prev = rng.standard_normal(d)
    locals_ = [w_prev + scale * rng.standard_normal(d) for _ in range(M)]
    splits = [split_model(w, SplitRule("uniform", m=1, eps_split=0.3), rng) for w in locals_]
    state, _ = mspdq_initial_state(splits, w_prev, q0_width=12.0, level=level)
    u = build_U(M, eps)
    weights = StepWeights(gamma=np.full((M, 1), min(gamma, 0.9 * lambda_min_U(u) / (1 + lambda_min_U(u)))), rule="harmonic")
    return state, weights, lambda2_U(u)


def test_mspdq_round_exact_on_knobs_matches_plain_round():
    # zero quantization error: all submodels already on knobs, dense grid
    state, weights, lam2 = quantized_setup(level=2)
    # replace with a crafted state whose update lands exactly on knobs:
    # identical visibles and invisibles make the update a fixed point
    M, d = state.visible.shape
    vis = np.tile(state.visible[0], (M, 1))
    state.visible = vis.copy()
    state.quantized = vis.copy()
    state.invisible = vis[:, None, :].copy()
    state.global_model = vis.mean(axis=0)
    state.level = 4095  # odd level puts a knob exactly at the box center
    plain = msp_round(state, 0.4, weights.at(0))
    rng = rngmod.stream(1, 22)
    quant, rec = mspdq_round(state, 0.4, weights.at(0), pi_t=24.0, rng=rng)
    assert np.allclose(quant.visible, plain.visible, atol=1e-12)
    assert rec.delta_norms.max() == pytest.approx(0.0, abs=1e-12)


def test_mspdq_uploads_are_knobs_of_each_clients_box():
    state, weights, lam2 = quantized_setup(level=16)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    weights_k = weights.at(0)
    nxt, _ = mspdq_round(state, 0.4, weights_k, pi, rngmod.stream(6, 28))
    lo, hi = shrink_box(state.quantized, pi, float(np.max(weights_k[:, 0])))
    # the same draw, replayed through the shared rounding helper
    idx = round_to_knobs(nxt.visible, lo, hi, state.level, rngmod.stream(6, 28))
    for i in range(state.M):
        qs = QuantizerState(lo=lo[i], hi=hi[i], level=state.level)
        assert np.array_equal(qs.knob(idx[i]), nxt.quantized[i])
        atoms = output_distribution(nxt.visible[i], qs)
        for j, value in enumerate(nxt.quantized[i]):
            assert value in {v for v, p in atoms[j] if p > 0}


def test_mspdq_round_matches_msp_in_expectation():
    state, weights, lam2 = quantized_setup(level=8)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    plain = msp_round_reference(state, 0.4, weights.at(0))
    n = 10_000
    acc = np.zeros_like(state.visible)
    for s in range(n):
        rng = rngmod.stream(s, 23)
        nxt, _ = mspdq_round(state, 0.4, weights.at(0), pi, rng)
        acc += nxt.visible
    acc /= n
    # the visible update uses the (fixed) quantized reference, so the mean
    # over quantization draws matches the plain round applied to it
    assert np.allclose(acc, plain, atol=4e-2)


def msp_round_reference(state, eps, weights_k):
    """Plain-round visible update evaluated at the quantized reference."""
    coupling = (weights_k[:, :, None] * (state.invisible - state.visible[:, None, :])).sum(axis=1)
    return state.visible + eps * (state.global_model - state.quantized) + coupling


def test_mspdq_conserved_in_expectation():
    state, weights, lam2 = quantized_setup(level=8)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    base = conserved_sum(state)
    n = 10_000
    acc = np.zeros_like(base)
    for s in range(n):
        rng = rngmod.stream(s, 24)
        nxt, _ = mspdq_round(state, 0.4, weights.at(0), pi, rng)
        acc += conserved_sum(nxt) - base
    drift = eps_drift_term(state, 0.4)
    assert np.allclose(acc / n - drift, 0.0, atol=4e-2)


def eps_drift_term(state, eps):
    """Total-sum motion of one round: sum_i eps (global - q_i)."""
    return eps * (state.global_model[None, :] - state.quantized).sum(axis=0)


def test_mspdq_interval_containment_and_bound():
    state, weights, lam2 = quantized_setup(level=16)
    rng = rngmod.stream(2, 25)
    fin, trace, summary = run_consensus(
        state, 40, MSPDQ, 0.4, weights, rng=rng, lambda2_u=lam2, record=True, wire_check=True
    )
    assert summary["bound_margin_min"] >= 0.0
    assert check_deviation_bound(trace, lam2) >= 0.0


def test_mspdq_bad_interval_raises():
    state, weights, lam2 = quantized_setup(level=16)
    rng = rngmod.stream(3, 26)
    with pytest.raises(ProtocolIntegrityError):
        # pi_t far below the certified width forces an escape
        mspdq_round(state, 0.4, weights.at(0), pi_t=1e-6, rng=rng)


def test_run_consensus_rejects_overrides_in_quantized_mode():
    state, weights, lam2 = quantized_setup(level=16)
    with pytest.raises(ConfigError, match="plain-mode"):
        run_consensus(
            state, 2, MSPDQ, 0.4, weights, rng=rngmod.stream(5, 28), lambda2_u=lam2,
            overrides={0: None},
        )


def test_trace_jsonl_is_adversary_visible_only():
    state, weights, lam2 = quantized_setup(level=16)
    rng = rngmod.stream(5, 27)
    _, trace, _ = run_consensus(
        state, 5, MSPDQ, 0.4, weights, rng=rng, lambda2_u=lam2, record=True
    )
    lines = trace_to_jsonl(trace, t=3).strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        rec = json.loads(line)
        assert "visible" in rec and "global" in rec
        assert "invisible" not in line and "m_count" not in line
    assert json.loads(lines[0])["t"] == 3
