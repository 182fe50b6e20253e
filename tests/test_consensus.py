import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit import consensus
from fedsplit import rng as rngmod
from fedsplit.consensus import (
    MSP,
    MSPDQ,
    check_conservation,
    RoundState,
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
    dynamic_error_bound,
    knob_values,
    output_distribution,
    round_to_knobs,
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
    fin, trace, _ = run_consensus(st, 250, MSP, 0.5, w.table(250))
    assert np.allclose(fin.visible, 1.5, atol=1e-6)
    assert np.allclose(fin.invisible, 1.5, atol=1e-6)
    assert check_conservation(trace) <= 1e-9


def test_single_round_midpoint_reduces_to_plain_average():
    rng = rngmod.stream(4, 0)
    locals_ = [rng.standard_normal(3) for _ in range(4)]
    splits = [split_model(w, SplitRule("midpoint", m=1), rng) for w in locals_]
    st = state_from_splits(splits)
    w = StepWeights(gamma=np.zeros((4, 1)), rule="constant")
    fin, _, _ = run_consensus(st, 1, MSP, 0.6, w.table(1))
    assert np.allclose(fin.global_model, np.mean(locals_, axis=0), atol=1e-12)


def test_ragged_invisible_counts_conserve():
    rng = rngmod.stream(9, 0)
    splits = []
    for m in (1, 3, 2):
        splits.append(split_model(rng.standard_normal(2), SplitRule("uniform", m=m, eps_split=0.2), rng))
    st = state_from_splits(splits)
    total0 = conserved_sum(st).copy()
    w = StepWeights(gamma=np.array([[0.05, 0.0, 0.0], [0.04, 0.04, 0.04], [0.05, 0.05, 0.0]]), rule="constant")
    fin, trace, _ = run_consensus(st, 400, MSP, 0.5, w.table(400))
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
    fin, _, _ = run_consensus(state, K, MSP, epsilon, weights.table(K), record=False)
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


def a_max(weights_k):
    """Largest first-invisible step weight of one round."""
    return float(np.max(weights_k[:, 0]))


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
    u = rngmod.stream(1, 22).random(size=(M, d))
    quant = mspdq_round(state, 0.4, weights.at(0), width=24.0 * a_max(weights.at(0)), uniforms=u)
    assert np.allclose(quant.visible, plain.visible, atol=1e-12)
    errors = np.linalg.norm(quant.quantized - quant.visible, axis=1)
    assert errors.max() == pytest.approx(0.0, abs=1e-12)


def test_mspdq_uploads_are_knobs_of_each_clients_box():
    state, weights, lam2 = quantized_setup(level=16)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    width = pi * a_max(weights.at(0))
    u = rngmod.stream(6, 28).random(size=state.visible.shape)
    nxt = mspdq_round(state, 0.4, weights.at(0), width, u)
    lo, hi = state.quantized - 0.5 * width, state.quantized + 0.5 * width
    # the same uniforms, replayed through the shared rounding helper
    tau, up, _ = round_to_knobs(nxt.visible, lo, hi, state.level, u)
    idx = tau.astype(np.int64) + up
    for i in range(state.M):
        qs = QuantizerState(lo=lo[i], hi=hi[i], level=state.level)
        assert np.array_equal(qs.knob(idx[i]), nxt.quantized[i])
        atoms = output_distribution(nxt.visible[i], qs)
        for j, value in enumerate(nxt.quantized[i]):
            assert value in {v for v, p in atoms[j] if p > 0}


@pytest.mark.parametrize("wire_check", [False, True])
def test_mspdq_round_leaves_its_input_state_unchanged(wire_check):
    state, weights, lam2 = quantized_setup(level=16)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    arrays = {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray)}
    before = {name: value.copy() for name, value in arrays.items()}
    if wire_check:
        # the wire check belongs to the phase: one round through run_consensus
        nxt, _, _ = run_consensus(
            state, 1, MSPDQ, 0.4, weights.table(1), rng=rngmod.stream(8, 28), lambda2_u=lam2,
            record=False, wire_check=True,
        )
    else:
        u = rngmod.stream(8, 28).random(size=state.visible.shape)
        nxt = mspdq_round(state, 0.4, weights.at(0), pi * a_max(weights.at(0)), u)
    assert sorted(arrays) == ["global_model", "invisible", "m_counts", "quantized", "visible"]
    for name, value in arrays.items():
        assert getattr(state, name) is value and _same_bits(value, before[name]), name
        if name != "m_counts":
            assert not np.shares_memory(getattr(nxt, name), value), name
    assert state.k == 0 and state.level == 16


def test_mspdq_round_matches_msp_in_expectation():
    state, weights, lam2 = quantized_setup(level=8)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    plain = msp_round_reference(state, 0.4, weights.at(0))
    n = 10_000
    acc = np.zeros_like(state.visible)
    for s in range(n):
        u = rngmod.stream(s, 23).random(size=state.visible.shape)
        nxt = mspdq_round(state, 0.4, weights.at(0), pi * a_max(weights.at(0)), u)
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
        u = rngmod.stream(s, 24).random(size=state.visible.shape)
        nxt = mspdq_round(state, 0.4, weights.at(0), pi * a_max(weights.at(0)), u)
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
        state, 40, MSPDQ, 0.4, weights.table(40), rng=rng, lambda2_u=lam2, record=True, wire_check=True
    )
    assert summary["bound_margin_min"] >= 0.0
    assert check_deviation_bound(trace, lam2) >= 0.0


def test_mspdq_bad_interval_raises(monkeypatch):
    state, weights, lam2 = quantized_setup(level=16)
    # a box far below the certified width pi_t a_max forces an escape
    monkeypatch.setattr(consensus, "compute_pi_t", lambda *args: 1e-6)
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 0"):
        run_consensus(state, 3, MSPDQ, 0.4, weights.table(3), rng=rngmod.stream(3, 26), lambda2_u=lam2)


@pytest.mark.parametrize("level", [9, 17, 257, 300, 5000])
def test_error_bound_holds_at_levels_that_are_not_powers_of_two(level):
    state, weights, lam2 = quantized_setup(seed=1, level=level)
    K = 30
    table = weights.table(K)
    _, trace, summary = run_consensus(
        state, K, MSPDQ, 0.4, table, rng=rngmod.stream(1, 41), lambda2_u=lam2, record=True
    )
    margins = []
    for k in range(K):
        errors = np.linalg.norm(trace.quantized[k + 1] - trace.visibles[k + 1], axis=1)
        bound = np.sqrt(state.d) * trace.pis[k] * a_max(table[k]) / (level - 1)
        margins.append(bound - errors.max())
    assert min(margins) >= 0
    assert summary["bound_margin_min"] == pytest.approx(min(margins), rel=1e-12)


def lossy_bound(rounds):
    """dynamic_error_bound less a whole box (past one bin) at the given
    rounds of a phase, as if those rounds' uploads had erred that far."""
    real_bound = consensus.dynamic_error_bound

    def bound(pi_t, level, a_max_k, d):
        out = real_bound(pi_t, level, a_max_k, d)
        ks = [k for k in rounds if k < len(out)]
        out[ks] -= np.sqrt(d) * pi_t[ks] * a_max_k[ks]
        return out

    return bound


def test_run_consensus_names_the_first_round_over_the_bound(monkeypatch):
    monkeypatch.setattr(consensus, "dynamic_error_bound", lossy_bound([4, 7]))
    state, weights, lam2 = quantized_setup(level=16)
    with pytest.raises(ProtocolIntegrityError, match="exceeded its bound at round 4:"):
        run_consensus(state, 10, MSPDQ, 0.4, weights.table(10), rng=rngmod.stream(7, 42), lambda2_u=lam2)


def narrow_box_at(rounds):
    """compute_pi_t, but far below the certified width at the given rounds
    of a phase (it is called once per round), which forces an escape."""
    real_pi_t = consensus.compute_pi_t
    calls = []

    def pi_t(*args):
        calls.append(args)
        return 1e-6 if len(calls) - 1 in rounds else real_pi_t(*args)

    return pi_t


@pytest.mark.parametrize("block_bytes", [None, 1])
def test_an_escape_wins_over_an_earlier_bound_violation(monkeypatch, block_bytes):
    # an escape raises however late in the phase; the error bound is checked
    # after it, also when the escape lies in a later block than the violation
    state, weights, lam2 = quantized_setup(level=16)
    if block_bytes is not None:
        monkeypatch.setattr(consensus, "BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(consensus, "dynamic_error_bound", lossy_bound([2]))
    phase = dict(rng=rngmod.stream(7, 43), lambda2_u=lam2, record=block_bytes is None)
    with pytest.raises(ProtocolIntegrityError, match="exceeded its bound at round 2:"):
        run_consensus(state, 10, MSPDQ, 0.4, weights.table(10), **phase)
    monkeypatch.setattr(consensus, "compute_pi_t", narrow_box_at({5}))
    phase["rng"] = rngmod.stream(7, 43)
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 5 "):
        run_consensus(state, 10, MSPDQ, 0.4, weights.table(10), **phase)


def test_an_escape_in_a_wire_checked_phase_is_a_protocol_error(monkeypatch):
    # an escaped visible can have knob indices outside [0, level); the
    # containment check runs before the codec would reject them with a
    # CodecError
    state, weights, lam2 = quantized_setup(level=16)
    monkeypatch.setattr(consensus, "compute_pi_t", narrow_box_at(set(range(4))))
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 0 "):
        run_consensus(
            state, 4, MSPDQ, 0.4, weights.table(4), rng=rngmod.stream(9, 44), lambda2_u=lam2,
            record=False, wire_check=True,
        )


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
def test_non_recording_phase_memory_does_not_grow_with_K(mode):
    # a plain phase keeps one row; for a quantized one, M = 8 clients in
    # d = 40 pass the block budget within 256 rounds, so both phases hold
    # the same full blocks
    state, weights, lam2 = quantized_setup(seed=3, M=8, d=40, level=256)
    if mode == MSP:
        state = RoundState(state.visible, state.invisible, state.m_counts, state.visible.mean(axis=0))
    assert 256 * (state.visible.nbytes + state.invisible.nbytes) > consensus.BLOCK_BYTES

    def peak(K):
        table = weights.table(K)
        tracemalloc.start()
        try:
            run_consensus(state, K, mode, 0.4, table, rng=rngmod.stream(3, 45), lambda2_u=lam2, record=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4096) <= 2 * peak(256)


def test_run_consensus_rejects_too_few_step_weights():
    state, weights, lam2 = quantized_setup(level=16)
    with pytest.raises(ConfigError, match="step weights cover 2 rounds, need 3"):
        run_consensus(state, 3, MSPDQ, 0.4, weights.table(2), rng=rngmod.stream(5, 28), lambda2_u=lam2)


def reference_deviation_slack(trace, lambda2_u):
    """check_deviation_bound's law as the direct double sum over rounds."""
    min_slack = float("inf")
    w_tilde = 0.0
    deltas = []
    for k in range(trace.K):
        vis_k = trace.visibles[k]
        w_tilde = max(w_tilde, float(np.linalg.norm(vis_k - trace.invisibles[k][:, 0, :])))
        deltas.append(float(np.linalg.norm(trace.quantized[k] - vis_k)))
        vis_next = trace.visibles[k + 1]
        dev = float(np.linalg.norm(vis_next - vis_next.mean(axis=0)))
        bound = 0.0
        for l in range(k + 1):
            lam_pow = lambda2_u ** (k - l)
            bound += 2.0 * lam_pow * deltas[l]
            bound += w_tilde * lam_pow * float(np.max(trace.weights[l][:, 0]))
        slack = bound - dev + 1e-12 * max(1.0, bound)
        if slack < 0:
            raise ProtocolIntegrityError(f"deviation bound violated at round {k}")
        min_slack = min(min_slack, slack)
    return min_slack


@pytest.mark.parametrize("level", [16, 256, 4096])
@pytest.mark.parametrize("seed", range(4))
def test_deviation_bound_matches_double_sum(level, seed):
    state, weights, lam2 = quantized_setup(seed=seed, level=level)
    _, trace, _ = run_consensus(
        state, 40, MSPDQ, 0.4, weights.table(40), rng=rngmod.stream(seed, 29), lambda2_u=lam2
    )
    expected = reference_deviation_slack(trace, lam2)
    assert check_deviation_bound(trace, lam2) == pytest.approx(expected, rel=1e-12, abs=1e-15)
    # a contraction factor of 0 drops every past round from both sums
    try:
        expected = reference_deviation_slack(trace, 0.0)
    except ProtocolIntegrityError as err:
        with pytest.raises(ProtocolIntegrityError, match=str(err)):
            check_deviation_bound(trace, 0.0)
    else:
        assert check_deviation_bound(trace, 0.0) == pytest.approx(expected, rel=1e-12, abs=1e-15)


def test_trace_jsonl_is_adversary_visible_only():
    state, weights, lam2 = quantized_setup(level=16)
    rng = rngmod.stream(5, 27)
    _, trace, _ = run_consensus(
        state, 5, MSPDQ, 0.4, weights.table(5), rng=rng, lambda2_u=lam2, record=True
    )
    lines = trace_to_jsonl(trace, t=3).strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        rec = json.loads(line)
        assert "visible" in rec and "global" in rec
        assert "invisible" not in line and "m_count" not in line
    assert json.loads(lines[0])["t"] == 3


# -- reference round operators ------------------------------------------------
#
# The update law written with the plain numpy calls (np.mean, np.clip,
# np.linalg.norm, knob_values) and per-round StepWeights.at(k); the library's
# rounds must match these bit for bit.


def reference_msp_round(state, epsilon, weights_k):
    vis, inv = state.visible, state.invisible
    w = weights_k[:, :, None]
    drift = epsilon * (state.global_model[None, :] - vis)
    coupling = (w * (inv - vis[:, None, :])).sum(axis=1)
    new_vis = vis + drift + coupling
    new_inv = inv + w * (vis[:, None, :] - inv)
    return RoundState(
        visible=new_vis, invisible=new_inv, m_counts=state.m_counts,
        global_model=np.mean(new_vis, axis=0), k=state.k + 1,
    )


def reference_mspdq_round(state, epsilon, weights_k, pi_t, rng):
    vis, inv, level = state.visible, state.invisible, state.level
    w = weights_k[:, :, None]
    drift = epsilon * (state.global_model[None, :] - state.quantized)
    coupling = (w * (inv - vis[:, None, :])).sum(axis=1)
    new_vis = vis + drift + coupling
    new_inv = inv + w * (vis[:, None, :] - inv)
    a_max_k = float(np.max(weights_k[:, 0]))
    half = 0.5 * pi_t * a_max_k
    lo, hi = state.quantized - half, state.quantized + half
    if not np.all((new_vis >= lo) & (new_vis <= hi)):
        raise ProtocolIntegrityError("escaped")
    step = (hi - lo) / (level - 1)
    tau = np.clip(np.floor((new_vis - lo) / step).astype(np.int64), 0, level - 2)
    c_lo = lo + tau * step
    c_hi = lo + (tau + 1) * step
    p_up = np.clip((new_vis - c_lo) / (c_hi - c_lo), 0.0, 1.0)
    idx = tau + (rng.random(size=tau.shape) < p_up).astype(np.int64)
    q_vals = knob_values(lo, hi, level, idx)
    norms = np.linalg.norm(q_vals - new_vis, axis=1)
    bound = dynamic_error_bound(pi_t, level, a_max_k, state.d)
    new_state = RoundState(
        visible=new_vis, invisible=new_inv, m_counts=state.m_counts,
        global_model=np.mean(q_vals, axis=0), quantized=q_vals, level=level, k=state.k + 1,
    )
    return new_state, a_max_k, norms, bound


def reference_run_consensus(state, K, mode, epsilon, weights, rng=None, lambda2_u=None):
    states = [state]
    summary = {"delta_max": 0.0, "bound_margin_min": float("inf"), "w_tilde_max": 0.0, "max_width": 0.0}
    w_tilde = 0.0
    # knobs that collapse to one float (level 2**53) divide by zero
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(K):
            if mode == MSP:
                state = reference_msp_round(state, epsilon, weights.at(k))
            else:
                w_tilde = max(w_tilde, float(np.linalg.norm(state.visible - state.invisible[:, 0, :])))
                pi_t = compute_pi_t(epsilon, lambda2_u, w_tilde)
                state, a_max_k, norms, bound = reference_mspdq_round(state, epsilon, weights.at(k), pi_t, rng)
                summary["delta_max"] = max(summary["delta_max"], float(np.max(norms)))
                summary["bound_margin_min"] = min(summary["bound_margin_min"], bound - float(np.max(norms)))
                summary["w_tilde_max"] = max(summary["w_tilde_max"], w_tilde)
                summary["max_width"] = max(summary["max_width"], pi_t * a_max_k)
            states.append(state)
    return states, summary


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(
    M=st.integers(2, 6),
    m=st.integers(1, 3),
    d=st.integers(1, 5),
    K=st.integers(1, 25),
    rule=st.sampled_from(["constant", "harmonic", "inv_sqrt"]),
    mode=st.sampled_from([MSP, MSPDQ]),
    level=st.sampled_from([2, 5, 16, 256, 257, 4096, 2**53]),
    seed=st.integers(0, 2**16),
)
def test_run_consensus_matches_reference_rounds_bitwise(M, m, d, K, rule, mode, level, seed):
    if mode == MSPDQ and rule == "constant":
        rule = "harmonic"  # the quantized mode needs a decaying rule
    rng = rngmod.stream(seed, 32)
    epsilon = float(rng.uniform(0.1, 0.9))
    u = build_U(M, epsilon)
    gamma = rng.uniform(0.1, 1.0, size=(M, m)) * 0.9 * step_weight_cap(u) / m
    weights = StepWeights(gamma=gamma, rule=rule)
    w_prev = rng.standard_normal(d)
    splits = [
        split_model(w_prev + 0.5 * rng.standard_normal(d), SplitRule("uniform", m=m, eps_split=0.3), rng)
        for _ in range(M)
    ]
    if mode == MSPDQ:
        state, _ = mspdq_initial_state(splits, w_prev, q0_width=40.0, level=level)
    else:
        state = state_from_splits(splits)
    lam2 = lambda2_U(u)
    # a budget of one byte to a few rows splits a non-recording quantized
    # phase into blocks of one to a few rounds
    block_bytes = (1, 600, 3000)[seed % 3]

    def run(record, budget=consensus.BLOCK_BYTES):
        phase_rng = rngmod.stream(seed, 33)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "BLOCK_BYTES", budget)
            fin, trace, summary = run_consensus(
                state, K, mode, epsilon, weights.table(K), rng=phase_rng, lambda2_u=lam2, record=record
            )
        return fin, trace, summary, phase_rng.bit_generator.state

    ref_rng = rngmod.stream(seed, 33)
    try:
        ref_states, ref_summary = reference_run_consensus(state, K, mode, epsilon, weights, ref_rng, lam2)
    except ProtocolIntegrityError:
        for record, budget in ((True, consensus.BLOCK_BYTES), (False, consensus.BLOCK_BYTES), (False, block_bytes)):
            with pytest.raises(ProtocolIntegrityError):
                run(record, budget)
        return
    fin, trace, summary, rng_end = run(True)
    for other in (run(False), run(False, block_bytes)):
        assert other[1] is None
        assert other[2] == summary and other[3] == rng_end
        assert other[0].k == fin.k
        for name in ("visible", "invisible", "global_model", "quantized"):
            got, ref = getattr(other[0], name), getattr(fin, name)
            assert (got is None and ref is None) or _same_bits(got, ref), name
    assert rng_end == ref_rng.bit_generator.state
    assert summary == ref_summary
    assert fin.k == K
    m_max = state.invisible.shape[1]
    assert trace.visibles.shape == (K + 1, M, d) and trace.globals_.shape == (K + 1, d)
    assert trace.invisibles.shape == (K + 1, M, m_max, d) and trace.weights.shape == (K, M, m_max)
    if mode == MSPDQ:
        assert trace.quantized.shape == (K + 1, M, d)
        # the phase's interval constants, from the reference states' running beta gap
        gaps = [float(np.linalg.norm(s.visible - s.invisible[:, 0, :])) for s in ref_states[:-1]]
        pis = np.array([compute_pi_t(epsilon, lam2, w) for w in np.maximum.accumulate(gaps)])
        assert _same_bits(trace.pis, pis)
        assert _same_bits(fin.quantized, ref_states[-1].quantized)
    else:
        assert trace.quantized is None and trace.pis is None
    for got, ref in ((fin.visible, ref_states[-1].visible), (fin.invisible, ref_states[-1].invisible),
                     (fin.global_model, ref_states[-1].global_model)):
        assert _same_bits(got, ref)
    for k, ref in enumerate(ref_states):
        assert _same_bits(trace.visibles[k], ref.visible)
        assert _same_bits(trace.invisibles[k], ref.invisible)
        assert _same_bits(trace.globals_[k], ref.global_model)
        if mode == MSPDQ:
            assert _same_bits(trace.quantized[k], ref.quantized)
    for k in range(K):
        assert _same_bits(np.asarray(trace.weights[k]), weights.at(k))


@given(
    S=st.integers(1, 5),
    M=st.integers(2, 10),
    m=st.integers(1, 3),
    d=st.integers(1, 5),
    k=st.integers(0, 10),
    rule=st.sampled_from(["constant", "harmonic", "inv_sqrt"]),
    per_seed_weights=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_msp_round_seed_axis_matches_per_seed_calls(S, M, m, d, k, rule, per_seed_weights, seed):
    rng = rngmod.stream(seed, 34)
    epsilon = float(rng.uniform(0.1, 0.9))
    cap = step_weight_cap(build_U(M, epsilon))
    m_counts = rng.integers(1, m + 1, size=M)
    # ragged cohort: zero weight on each client's padded invisible slots
    real = np.arange(m_counts.max()) < m_counts[:, None]
    weights = [
        StepWeights(gamma=rng.uniform(0.0, 0.9, size=real.shape) * real * cap / m, rule=rule).at(k)
        for _ in range(S if per_seed_weights else 1)
    ]
    states = [
        state_from_splits([
            split_model(rng.standard_normal(d), SplitRule("uniform", m=int(m_i), eps_split=0.3), rng)
            for m_i in m_counts
        ])
        for _ in range(S)
    ]
    stacked = RoundState(
        visible=np.stack([s.visible for s in states]),
        invisible=np.stack([s.invisible for s in states]),
        m_counts=m_counts,
        global_model=np.stack([s.global_model for s in states]),
    )
    batched = msp_round(stacked, epsilon, np.stack(weights) if per_seed_weights else weights[0])
    assert batched.M == M and batched.d == d
    for s, state in enumerate(states):
        one = msp_round(state, epsilon, weights[s if per_seed_weights else 0])
        assert _same_bits(batched.visible[s], one.visible)
        assert _same_bits(batched.invisible[s], one.invisible)
        assert _same_bits(batched.global_model[s], one.global_model)
