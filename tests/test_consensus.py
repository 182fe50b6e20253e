import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedsplit import consensus
from fedsplit import rng as rngmod
from fedsplit.consensus import (
    RoundState,
    check_deviation_bound,
    conserved_sum,
    msp_round,
    mspdq_round,
    run_consensus,
    trace_to_jsonl,
)
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.orchestrator import snap_initial_upload
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
    build_U,
    lambda2_U,
    lambda_min_U,
    step_weight_cap,
)
from fedsplit.splitting import SplitRule

from oracles import (
    MSP,
    MSPDQ,
    build_P,
    check_conservation,
    cohort_state,
    consensus_target,
    one_round,
    phi_product,
    stream_split,
)


def hand_state():
    """The {1,3,2,0} pair: visibles [1,3], invisibles [2,0], total 6."""
    return cohort_state([(np.array([[1.0]]), np.array([[[2.0]]])), (np.array([[3.0]]), np.array([[[0.0]]]))])


def test_conserved_sum_hand_value():
    st = hand_state()
    assert conserved_sum(st)[0] == pytest.approx(6.0)
    assert consensus_target(st)[0] == pytest.approx(1.5)


def test_msp_round_conserves_total():
    st = hand_state()
    w = StepWeights(gamma=np.full((2, 1), 0.2), rule="harmonic")
    nxt = one_round(MSP, st, 0.5, w.at(0))
    assert conserved_sum(nxt)[0] == pytest.approx(6.0, abs=1e-12)
    # drift terms cancel through the aggregation
    assert nxt.global_model[0] == pytest.approx(np.mean(nxt.visible))


def test_msp_round_zero_parameters_is_identity():
    st = hand_state()
    nxt = one_round(MSP, st, 0.0, np.zeros((2, 1)))
    assert np.array_equal(nxt.visible, st.visible)
    assert np.array_equal(nxt.invisible, st.invisible)


def test_msp_round_consensus_is_fixed_point():
    st = cohort_state([(np.array([[2.0]]), np.array([[[2.0]]]))] * 2)
    nxt = one_round(MSP, st, 0.7, np.full((2, 1), 0.2))
    assert np.allclose(nxt.visible, 2.0) and np.allclose(nxt.invisible, 2.0)


def test_run_consensus_limit_hand_value():
    st = hand_state()
    w = StepWeights(gamma=np.full((2, 1), 0.2), rule="constant")
    fin, trace, _ = run_consensus(st, 0.5, w.table(250))
    assert np.allclose(fin.visible, 1.5, atol=1e-6)
    assert np.allclose(fin.invisible, 1.5, atol=1e-6)
    assert check_conservation(trace) <= 1e-9


def test_single_round_midpoint_reduces_to_plain_average():
    rng = rngmod.stream(4, 0)
    locals_ = [rng.standard_normal(3) for _ in range(4)]
    st = cohort_state([stream_split(w[None], SplitRule("midpoint", m=1), rng) for w in locals_])
    w = StepWeights(gamma=np.zeros((4, 1)), rule="constant")
    fin, _, _ = run_consensus(st, 0.6, w.table(1))
    assert np.allclose(fin.global_model, np.mean(locals_, axis=0), atol=1e-12)


def test_ragged_invisible_counts_conserve():
    rng = rngmod.stream(9, 0)
    splits = []
    for m in (1, 3, 2):
        splits.append(stream_split(rng.standard_normal((1, 2)), SplitRule("uniform", m=m, eps_split=0.2), rng))
    st = cohort_state(splits)
    total0 = conserved_sum(st).copy()
    w = StepWeights(gamma=np.array([[0.05, 0.0, 0.0], [0.04, 0.04, 0.04], [0.05, 0.05, 0.0]]), rule="constant")
    fin, trace, _ = run_consensus(st, 0.5, w.table(400))
    assert np.allclose(conserved_sum(fin), total0, atol=1e-10)
    # heterogeneous counts change the consensus divisor: sum_i (1 + m_i) = 9
    target = total0 / 9.0
    assert np.allclose(consensus_target(st), target)
    assert np.allclose(fin.visible, target, atol=1e-6)
    assert np.allclose(fin.invisible[1], target, atol=1e-6)


def test_mspdq_initial_state_keeps_each_ragged_slot_constraint():
    rng = rngmod.stream(9, 1)
    w_prev = rng.standard_normal(3)
    origins, splits = [], []
    for m in (1, 3, 2):
        origins.append(w_prev + 0.3 * rng.standard_normal((1, 3)))
        splits.append(stream_split(origins[-1], SplitRule("uniform", m=m, eps_split=0.2), rng))
    level = 16
    state = cohort_state(splits)
    shared = snap_initial_upload(state, w_prev, q0_width=8.0, level=level)
    lo0 = np.min(w_prev) - 4.0
    idx = (shared - lo0) / ((np.max(w_prev) + 4.0 - lo0) / (level - 1))
    assert np.allclose(idx, np.round(idx), atol=1e-9)
    assert np.array_equal(state.visible, np.tile(shared, (3, 1)))
    assert np.array_equal(state.quantized, state.visible)
    for i, (origin, (_, invisible)) in enumerate(zip(origins, splits)):
        m = invisible.shape[1]
        # only the absorbing invisible moves; the sum constraint still holds
        for n in range(m - 1):
            assert np.array_equal(state.invisible[i, n], invisible[0, n])
        assert not np.any(state.invisible[i, m:])
        total = state.visible[i] + state.invisible[i].sum(axis=0)
        assert np.allclose(total, (1 + m) * origin[0], rtol=0, atol=1e-12)


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
    state = cohort_state([
        stream_split(rng.standard_normal((1, d)), SplitRule("uniform", m=m, eps_split=0.3), rng)
        for _ in range(M)
    ])
    fin, _, _ = run_consensus(state, epsilon, weights.table(K), record=False)
    phi = phi_product([build_P(u, weights.at(k), m) for k in range(K)])
    expected = phi @ _stack(state)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(_stack(fin) - expected)) <= 1e-12 * scale


def quantized_setup(seed=0, M=4, d=3, level=64, eps=0.4, gamma=0.3, scale=0.5):
    rng = rngmod.stream(seed, 21)
    w_prev = rng.standard_normal(d)
    locals_ = np.array([w_prev + scale * rng.standard_normal(d) for _ in range(M)])
    visible, invisible = stream_split(locals_, SplitRule("uniform", m=1, eps_split=0.3), rng)
    state = RoundState(visible, invisible, np.ones(M, dtype=np.int64), None)
    snap_initial_upload(state, w_prev, q0_width=12.0, level=level)
    state.global_model = state.quantized.mean(axis=0)  # the reference rounds read it
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
    state.level = 4095  # odd level puts a knob exactly at the box center
    plain = one_round(MSP, RoundState(state.visible, state.invisible, state.m_counts), 0.4, weights.at(0))
    u = rngmod.stream(1, 22).random(size=(M, d))
    quant = one_round(MSPDQ, state, 0.4, weights.at(0), 24.0 * a_max(weights.at(0)), u)
    assert np.allclose(quant.visible, plain.visible, atol=1e-12)
    errors = np.linalg.norm(quant.quantized - quant.visible, axis=1)
    assert errors.max() == pytest.approx(0.0, abs=1e-12)


def test_mspdq_uploads_are_knobs_of_each_clients_box():
    state, weights, lam2 = quantized_setup(level=16)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    width = pi * a_max(weights.at(0))
    u = rngmod.stream(6, 28).random(size=state.visible.shape)
    nxt = one_round(MSPDQ, state, 0.4, weights.at(0), width, u)
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


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
@pytest.mark.parametrize("record", [True, False])
def test_run_consensus_leaves_its_initial_state_unchanged(mode, record):
    # the phase's working state is a copy of its input, and neither its
    # final state nor its trace shares memory with the input or each other
    state, weights, lam2 = quantized_setup(level=16)
    names = ["global_model", "invisible", "m_counts", "quantized", "visible"]
    if mode == MSP:
        state = RoundState(state.visible, state.invisible, state.m_counts, state.visible.mean(axis=0))
        names.remove("quantized")
    arrays = {name: value for name, value in vars(state).items() if isinstance(value, np.ndarray)}
    before = {name: value.copy() for name, value in arrays.items()}
    nxt, trace, _ = run_consensus(
        state, 0.4, weights.table(3), rng=rngmod.stream(8, 28), lambda2_u=lam2,
        record=record, wire_check=True,
    )
    stacks = []
    if trace is not None:
        stacks = [trace.visibles, trace.invisibles, trace.globals_] + ([trace.quantized] if mode == MSPDQ else [])
    assert sorted(arrays) == names
    for name, value in arrays.items():
        assert getattr(state, name) is value and _same_bits(value, before[name]), name
        if name != "m_counts":
            assert not np.shares_memory(getattr(nxt, name), value), name
            assert not any(np.shares_memory(getattr(nxt, name), stack) for stack in stacks), name
    assert state.level == (16 if mode == MSPDQ else None)


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
def test_round_operators_advance_only_a_working_state_bound_with_their_epsilon_and_mode(mode):
    state, weights, lam2 = quantized_setup(level=16)
    plain = RoundState(state.visible, state.invisible, state.m_counts, state.visible.mean(axis=0))
    own, other_mode = (plain, state) if mode == MSP else (state, plain)
    operator = msp_round if mode == MSP else mspdq_round
    rows = weights.at(0)[..., None]
    args = () if mode == MSP else (1.0, np.full(state.visible.shape, 0.5))
    for other in (
        own,
        consensus._Workspace(other_mode, 0.4),  # the other mode
    ):
        kept = {name: getattr(other, name).copy() for name in ("visible", "invisible", "global_model")}
        with pytest.raises(ConfigError, match="rounds run through run_consensus"):
            operator(other, rows, *args)
        for name, value in kept.items():
            assert _same_bits(getattr(other, name), value), name
    bound = consensus._Workspace(own, 0.4)
    assert operator(bound, rows, *args) is bound
    assert not _same_bits(bound.invisible, state.invisible)


def test_mspdq_round_matches_msp_in_expectation():
    state, weights, lam2 = quantized_setup(level=8)
    pi = compute_pi_t(0.4, lam2, np.linalg.norm(state.visible - state.invisible[:, 0, :]))
    plain = msp_round_reference(state, 0.4, weights.at(0))
    n = 10_000
    acc = np.zeros_like(state.visible)
    for s in range(n):
        u = rngmod.stream(s, 23).random(size=state.visible.shape)
        nxt = one_round(MSPDQ, state, 0.4, weights.at(0), pi * a_max(weights.at(0)), u)
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
        nxt = one_round(MSPDQ, state, 0.4, weights.at(0), pi * a_max(weights.at(0)), u)
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
        state, 0.4, weights.table(40), rng=rng, lambda2_u=lam2, record=True, wire_check=True
    )
    assert summary["bound_margin_min"] >= 0.0
    assert check_deviation_bound(trace, lam2) >= 0.0


def test_mspdq_bad_interval_raises(monkeypatch):
    state, weights, lam2 = quantized_setup(level=16)
    # a box far below the certified width pi_t a_max forces an escape
    monkeypatch.setattr(consensus, "compute_pi_t", lambda *args: 1e-6)
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 0"):
        run_consensus(state, 0.4, weights.table(3), rng=rngmod.stream(3, 26), lambda2_u=lam2)


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
def test_recorded_phase_whose_operator_leaks_mass_raises(monkeypatch, mode):
    # the phase checks its own conservation, so a recorded phase (as the
    # audit replays run) fails as a run's phase does
    state, weights, lam2 = quantized_setup(level=16)
    if mode == MSP:
        state = RoundState(state.visible, state.invisible, state.m_counts)
    name = "msp_round" if mode == MSP else "mspdq_round"
    real_round = getattr(consensus, name)

    def leaky_round(*args):
        nxt = real_round(*args)
        nxt.invisible[0, 0] += 1e-6
        return nxt

    monkeypatch.setattr(consensus, name, leaky_round)
    with pytest.raises(ProtocolIntegrityError, match="conserved sum drifted"):
        run_consensus(state, 0.4, weights.table(3), rng=rngmod.stream(4, 52), lambda2_u=lam2, record=True)


def test_standalone_round_uploads_a_collapsed_knob_without_a_warning():
    # at level 2**53 a box of width ~1e-9 around 1000.0 has bins far below the
    # float spacing, so both knobs bracketing the visible are one float; a
    # one-round phase silences the kernel's divisions by zero there
    M, d, level, lam2 = 2, 1, 2**53, 0.5
    at = np.full((M, d), 1000.0)
    state = RoundState(at, at[:, None, :], np.ones(M, dtype=np.int64), at[0], at, level)
    # the beta gap is zero, so the box width is pi_t(0) times the one step weight
    weight = 1e-9 / compute_pi_t(0.4, lam2, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nxt, trace, _ = run_consensus(
            state, 0.4, np.full((1, M, 1), weight), rng=rngmod.stream(0, 55), lambda2_u=lam2
        )
    width = trace.pis[0] * weight
    assert np.array_equal(nxt.visible, at)
    for i in range(M):
        qs = QuantizerState(lo=at[i] - 0.5 * width, hi=at[i] + 0.5 * width, level=level)
        (((knob, p),),) = output_distribution(nxt.visible[i], qs)
        assert p == 1.0 and nxt.quantized[i, 0] == knob


@pytest.mark.parametrize("level", [9, 17, 257, 300, 5000])
def test_error_bound_holds_at_levels_that_are_not_powers_of_two(level):
    state, weights, lam2 = quantized_setup(seed=1, level=level)
    K = 30
    table = weights.table(K)
    _, trace, summary = run_consensus(
        state, 0.4, table, rng=rngmod.stream(1, 41), lambda2_u=lam2, record=True
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
        run_consensus(state, 0.4, weights.table(10), rng=rngmod.stream(7, 42), lambda2_u=lam2)


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
        run_consensus(state, 0.4, weights.table(10), **phase)
    monkeypatch.setattr(consensus, "compute_pi_t", narrow_box_at({5}))
    phase["rng"] = rngmod.stream(7, 43)
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 5 "):
        run_consensus(state, 0.4, weights.table(10), **phase)


def test_an_escape_in_a_wire_checked_phase_is_a_protocol_error(monkeypatch):
    # an escaped visible can have knob indices outside [0, level); the
    # containment check runs before the codec would reject them with a
    # CodecError
    state, weights, lam2 = quantized_setup(level=16)
    monkeypatch.setattr(consensus, "compute_pi_t", narrow_box_at(set(range(4))))
    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval at round 0 "):
        run_consensus(
            state, 0.4, weights.table(4), rng=rngmod.stream(9, 44), lambda2_u=lam2,
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
            run_consensus(state, 0.4, table, rng=rngmod.stream(3, 45), lambda2_u=lam2, record=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4096) <= 2 * peak(256)


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
@pytest.mark.parametrize("record, block_bytes", [(True, None), (False, None), (False, 1)])
def test_phase_calls_its_operator_and_pi_t_once_per_round(monkeypatch, mode, record, block_bytes):
    # the kernel contract: a phase calls the module's round operator once per
    # round and, in quantized mode, compute_pi_t once per round, uncached;
    # perfbench's traced *_round_eq_sum_kt checks and the operator patches
    # in these tests rely on it
    state, weights, lam2 = quantized_setup(level=16)
    if mode == MSP:
        state = RoundState(state.visible, state.invisible, state.m_counts, state.visible.mean(axis=0))
    if block_bytes is not None:
        monkeypatch.setattr(consensus, "BLOCK_BYTES", block_bytes)
    calls = dict.fromkeys(("msp_round", "mspdq_round", "compute_pi_t"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(consensus, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(consensus, name, counted)
    K = 7
    run_consensus(state, 0.4, weights.table(K), rng=rngmod.stream(5, 53), lambda2_u=lam2, record=record)
    quantized = mode == MSPDQ
    assert calls == {"msp_round": 0 if quantized else K, "mspdq_round": K if quantized else 0,
                     "compute_pi_t": K if quantized else 0}


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
        state, 0.4, weights.table(40), rng=rngmod.stream(seed, 29), lambda2_u=lam2
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
        state, 0.4, weights.table(5), rng=rng, lambda2_u=lam2, record=True
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
        global_model=np.mean(new_vis, axis=0),
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
        global_model=np.mean(q_vals, axis=0), quantized=q_vals, level=level,
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
# an upload one ulp past a bin below the float spacing of its box, within
# the knob rounding allowance
@example(M=5, m=1, d=1, K=5, rule="harmonic", mode=MSPDQ, level=2**53, seed=0)
def test_run_consensus_matches_reference_rounds_bitwise(M, m, d, K, rule, mode, level, seed):
    if mode == MSPDQ and rule == "constant":
        rule = "harmonic"  # the quantized mode needs a decaying rule
    rng = rngmod.stream(seed, 32)
    epsilon = float(rng.uniform(0.1, 0.9))
    u = build_U(M, epsilon)
    gamma = rng.uniform(0.1, 1.0, size=(M, m)) * 0.9 * step_weight_cap(u) / m
    weights = StepWeights(gamma=gamma, rule=rule)
    w_prev = rng.standard_normal(d)
    state = cohort_state([
        stream_split(w_prev + 0.5 * rng.standard_normal((1, d)), SplitRule("uniform", m=m, eps_split=0.3), rng)
        for _ in range(M)
    ])
    if mode == MSPDQ:
        snap_initial_upload(state, w_prev, q0_width=40.0, level=level)
        state.global_model = state.quantized.mean(axis=0)
    lam2 = lambda2_U(u)
    # a budget of one byte to a few rows splits a non-recording quantized
    # phase into blocks of one to a few rounds
    block_bytes = (1, 600, 3000)[seed % 3]

    def run(record, budget=consensus.BLOCK_BYTES):
        phase_rng = rngmod.stream(seed, 33)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "BLOCK_BYTES", budget)
            fin, trace, summary = run_consensus(
                state, epsilon, weights.table(K), rng=phase_rng, lambda2_u=lam2, record=record
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
        for name in ("visible", "invisible", "global_model", "quantized"):
            got, ref = getattr(other[0], name), getattr(fin, name)
            assert (got is None and ref is None) or _same_bits(got, ref), name
    assert rng_end == ref_rng.bit_generator.state
    assert summary == ref_summary
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
    M=st.integers(2, 5),
    m=st.integers(1, 3),
    d=st.integers(1, 4),
    ks=st.lists(st.integers(1, 12), min_size=2, max_size=5),
    mode=st.sampled_from([MSP, MSPDQ]),
    level=st.sampled_from([5, 16, 4096]),
    block_bytes=st.sampled_from([None, 1, 600]),
    seed=st.integers(0, 2**16),
)
def test_a_run_workspace_loaded_per_phase_matches_a_fresh_bind_per_phase(M, m, d, ks, mode, level, block_bytes, seed):
    # orchestrator.run binds one workspace over its whole table and loads
    # each phase's state into it; every phase must run what a fresh bind
    # over its own prefix runs, also after a phase that raised partway
    rng = rngmod.stream(seed, 34)
    epsilon = float(rng.uniform(0.1, 0.9))
    u = build_U(M, epsilon)
    rule = "inv_sqrt" if mode == MSPDQ else "constant"
    weights = StepWeights(gamma=rng.uniform(0.1, 1.0, size=(M, m)) * 0.9 * step_weight_cap(u) / m, rule=rule)
    lam2 = lambda2_U(u)
    ks = sorted(ks)
    table = weights.table(ks[-1])
    # in quantized mode, one phase before the last escapes its box partway
    failing = seed % (len(ks) - 1) if mode == MSPDQ else -1
    pis = []
    real_pi_t = consensus.compute_pi_t

    def phase_state(i):
        draw = rngmod.stream(seed, 35, i)
        w_prev = draw.standard_normal(d)
        split = SplitRule("uniform", m=m, eps_split=0.3)
        state = cohort_state([stream_split(w_prev + 0.5 * draw.standard_normal((1, d)), split, draw) for _ in range(M)])
        if mode == MSPDQ:
            snap_initial_upload(state, w_prev, q0_width=40.0, level=level)
        return state

    def phase(i, k, state, workspace):
        def pi_t(*args):
            pis.append(1e-6 if i == failing and len(pis) == k // 2 else real_pi_t(*args))
            return pis[-1]

        phase_rng = rngmod.stream(seed, 36, i)
        pis.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "compute_pi_t", pi_t)
            try:
                fin, _, summary = run_consensus(
                    state, epsilon, table[:k], rng=phase_rng, lambda2_u=lam2, record=False, workspace=workspace
                )
            except ProtocolIntegrityError as err:
                fin, summary = None, str(err)
        states = {name: getattr(fin, name) for name in ("visible", "invisible", "global_model", "quantized")} if fin else {}
        # copies: a run workspace's final arrays are its own, rewritten by the next load
        return {n: a if a is None else a.copy() for n, a in states.items()}, summary, list(pis), phase_rng.bit_generator.state

    with pytest.MonkeyPatch.context() as patch:
        if block_bytes is not None:
            patch.setattr(consensus, "BLOCK_BYTES", block_bytes)
        workspace = consensus._Workspace(phase_state(0), epsilon, table, record=False)
        for i, k in enumerate(ks):
            state = phase_state(i)
            fresh, bound = phase(i, k, state, None), phase(i, k, state, workspace)
            assert bound[1:] == fresh[1:]
            assert bound[0].keys() == fresh[0].keys()
            for name, value in fresh[0].items():
                assert (value is None and bound[0][name] is None) or _same_bits(bound[0][name], value), name
            if i == failing:
                assert "escaped its shrunk interval" in bound[1]


@given(
    M=st.integers(2, 5),
    m=st.integers(1, 3),
    d=st.integers(1, 4),
    ks=st.lists(st.integers(1, 14), min_size=1, max_size=3),
    block=st.integers(1, 5),
    level=st.sampled_from([5, 16, 256, 4096]),
    seed=st.integers(0, 2**16),
)
# three invisible slots per client (a strided first slot), nine rounds in
# blocks of two, the box narrowed at round 5 in the third block
@example(M=2, m=3, d=2, ks=[9], block=2, level=16, seed=3)
def test_run_bound_quantized_phases_write_their_rows_in_place_bitwise(M, m, d, ks, block, level, seed):
    # a run's quantized workspace writes round r + 1's visible and upload
    # into row r + 1 of its own stacks and carries the last row to row 0 at
    # each block boundary, and the phase takes its beta gap from the
    # kernel's flow (the first invisible slot is strided at m > 1).  Every
    # phase, wire-checked, matches the reference rounds bit for bit; an
    # escape in a later block raises the message a recording phase, which
    # runs in one block, raises; and the workspace runs on after it
    rng = rngmod.stream(seed, 59)
    epsilon = float(rng.uniform(0.1, 0.9))
    u = build_U(M, epsilon)
    weights = StepWeights(gamma=rng.uniform(0.1, 1.0, size=(M, m)) * 0.9 * step_weight_cap(u) / m, rule="inv_sqrt")
    lam2 = lambda2_U(u)
    table = weights.table(max(ks))

    def phase_state(i):
        draw = rngmod.stream(seed, 60, i)
        w_prev = draw.standard_normal(d)
        split = SplitRule("uniform", m=m, eps_split=0.3)
        state = cohort_state([stream_split(w_prev + 0.5 * draw.standard_normal((1, d)), split, draw) for _ in range(M)])
        snap_initial_upload(state, w_prev, q0_width=40.0, level=level)
        state.global_model = state.quantized.mean(axis=0)  # the reference reads it; the phase does not
        return state

    def check_phase(i, K, workspace):
        state = phase_state(i)
        ref_rng = rngmod.stream(seed, 61, i)
        phase_rng = rngmod.stream(seed, 61, i)
        try:
            ref_states, ref_summary = reference_run_consensus(state, K, MSPDQ, epsilon, weights, ref_rng, lam2)
        except ProtocolIntegrityError:
            with pytest.raises(ProtocolIntegrityError):
                run_consensus(state, epsilon, table[:K], rng=phase_rng, lambda2_u=lam2, record=False,
                              wire_check=True, workspace=workspace)
            return
        fin, _, summary = run_consensus(
            state, epsilon, table[:K], rng=phase_rng, lambda2_u=lam2, record=False, wire_check=True, workspace=workspace
        )
        assert summary == ref_summary and phase_rng.bit_generator.state == ref_rng.bit_generator.state
        for name in ("visible", "invisible", "global_model", "quantized"):
            assert _same_bits(getattr(fin, name), getattr(ref_states[-1], name)), name

    row_bytes = 8 * M * m * d + 24 * M * d + consensus.ROW_OBJECT_BYTES
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "BLOCK_BYTES", block * row_bytes)
        workspace = consensus._Workspace(phase_state(0), epsilon, table, record=False)
        assert workspace.block == min(block, len(table))
        assert workspace.visible_rows.shape == workspace.upload_rows.shape == (workspace.block + 1, M, d)
        for i, K in enumerate(ks):
            check_phase(i, K, workspace)
        K = max(ks)
        if K > block:
            escape = block + seed % (K - block)  # a round in a later block than the first
            try:  # the unnarrowed rounds before it may escape on their own
                reference_run_consensus(phase_state(0), escape, MSPDQ, epsilon, weights, rngmod.stream(seed, 61, 0), lam2)
                first = escape
            except ProtocolIntegrityError:
                first = None
            messages = []
            for bound in (workspace, None):
                with pytest.MonkeyPatch.context() as narrow:
                    narrow.setattr(consensus, "compute_pi_t", narrow_box_at({escape}))
                    with pytest.raises(ProtocolIntegrityError, match="escaped its shrunk interval") as err:
                        run_consensus(
                            phase_state(0), epsilon, table, rng=rngmod.stream(seed, 61, 0), lambda2_u=lam2,
                            record=bound is None, wire_check=True, workspace=bound,
                        )
                messages.append(str(err.value))
            assert messages[0] == messages[1]
            assert first is None or f"at round {first} " in messages[0]
            check_phase(0, ks[0], workspace)


def test_a_run_workspace_refuses_a_phase_it_was_not_bound_for():
    state, weights, lam2 = quantized_setup(level=16)
    table = weights.table(6)
    workspace = consensus._Workspace(state, 0.4, table, record=False)
    plain = RoundState(state.visible, state.invisible, state.m_counts)
    other_level = RoundState(state.visible, state.invisible, state.m_counts, None, state.quantized, 32)
    wider = RoundState(*(np.concatenate([a, a]) for a in (state.visible, state.invisible, state.m_counts)),
                       None, np.concatenate([state.quantized, state.quantized]), 16)
    phase = dict(rng=rngmod.stream(1, 37), lambda2_u=lam2, record=False, workspace=workspace)
    for initial, epsilon, rows, record in (
        (state, 0.4, table, True),  # a recording phase
        (state, 0.3, table, False),  # another epsilon
        (state, 0.4, weights.table(7), False),  # more rounds than the table holds
        (plain, 0.4, table, False),  # another mode
        (other_level, 0.4, table, False),  # another level
        (wider, 0.4, table, False),  # another cohort shape
    ):
        with pytest.raises(ConfigError):
            run_consensus(initial, epsilon, rows, **{**phase, "record": record})
    fin, _, summary = run_consensus(state, 0.4, table[:3], **phase)
    want, _, want_summary = run_consensus(state, 0.4, table[:3], rng=rngmod.stream(1, 37), lambda2_u=lam2, record=False)
    assert summary == want_summary and _same_bits(fin.quantized, want.quantized)


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_a_phase_refuses_a_state_with_a_leading_axis(mode, record, K):
    # S = 3 stacked cohorts: the weight rows' copy lined the block length up
    # with S, so K = 2 raised a bare broadcast error and K = S ran wrong rounds
    S = 3
    state, weights, lam2 = quantized_setup(level=16)
    if mode == MSP:
        state = RoundState(state.visible, state.invisible, state.m_counts)
    names = ("visible", "invisible", "quantized") if mode == MSPDQ else ("visible", "invisible")
    stacked = replace(state, **{name: np.stack([getattr(state, name)] * S) for name in names})
    short = replace(state, m_counts=state.m_counts[:-1])
    table = weights.table(K)
    workspaces = [None] if record else [None, consensus._Workspace(state, 0.4, table, record=False)]
    for initial in (stacked, short):
        for workspace in workspaces:
            with pytest.raises(ConfigError, match=r"\(M, d\) visible"):
                run_consensus(
                    initial, 0.4, table, rng=rngmod.stream(1, 37), lambda2_u=lam2, record=record, workspace=workspace
                )


@given(
    b=st.integers(1, 4),
    M=st.integers(1, 4),
    d=st.integers(1, 4),
    exponent=st.integers(-150, 150),
    seed=st.integers(0, 2**16),
)
def test_phase_check_error_norms_and_box_ends_match_their_formulas(b, M, d, exponent, seed):
    # the check takes the sqrt after the max over clients, and each round's
    # largest |box end| as max|upload| + half: float rounding is monotone
    # and odd, so both give the bits of the plain formulas
    rng = rngmod.stream(seed, 54)
    scale = 10.0**exponent
    quantized = rng.standard_normal((b + 1, M, d)) * scale
    widths = rng.uniform(0.0, 4.0, size=b) * scale * 10.0 ** rng.integers(-20, 20, size=b)
    # each post-update visible sits at its box centre, the last upload
    visibles = np.concatenate([quantized[:1], quantized[:-1]])
    uniforms = rng.random((b, M, d))
    norms, box_ends = consensus._check_quantized_rounds(0, visibles, quantized, uniforms, widths, 16, False)
    half = (0.5 * widths)[:, None, None]
    lo, hi = quantized[:-1] - half, quantized[:-1] + half
    assert _same_bits(box_ends, np.maximum(hi.max(axis=(1, 2)), -lo.min(axis=(1, 2))))
    assert _same_bits(norms, np.linalg.norm(quantized[1:] - visibles[1:], axis=-1).max(axis=-1))


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
        cohort_state([
            stream_split(rng.standard_normal((1, d)), SplitRule("uniform", m=int(m_i), eps_split=0.3), rng)
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
    # one workspace over the (S, M, ...) stacks, one round for every seed
    batched = one_round(MSP, stacked, epsilon, np.stack(weights) if per_seed_weights else weights[0])
    assert batched.M == M and batched.d == d
    for s, state in enumerate(states):
        one = one_round(MSP, state, epsilon, weights[s if per_seed_weights else 0])
        assert _same_bits(batched.visible[s], one.visible)
        assert _same_bits(batched.invisible[s], one.invisible)
        assert _same_bits(batched.global_model[s], one.global_model)


def ragged_cohort(rng, M, m_max, d, epsilon, rule, mode, level):
    """A cohort whose clients hold 1..m_max invisibles (both ends present),
    with step weights zero on every padded slot."""
    m_counts = rng.integers(1, m_max + 1, size=M)
    m_counts[:2] = 1, m_max
    cap = step_weight_cap(build_U(M, epsilon))
    real = np.arange(m_max) < m_counts[:, None]
    weights = StepWeights(gamma=rng.uniform(0.1, 1.0, size=real.shape) * real * 0.9 * cap / m_max, rule=rule)
    w_prev = rng.standard_normal(d)
    state = cohort_state([
        stream_split(w_prev + 0.5 * rng.standard_normal((1, d)), SplitRule("uniform", m=int(m), eps_split=0.3), rng)
        for m in m_counts
    ])
    if mode == MSPDQ:
        snap_initial_upload(state, w_prev, q0_width=40.0, level=level)
        state.global_model = state.quantized.mean(axis=0)
    return state, weights


@pytest.mark.parametrize("mode", [MSP, MSPDQ])
@pytest.mark.parametrize("record", [True, False])
def test_phase_aggregates_its_own_round_zero(mode, record):
    # the phase never reads the initial global model: none, the mean of the
    # references, or a wrong vector give the same bits everywhere
    rng = rngmod.stream(11, 56)
    state, weights = ragged_cohort(rng, 5, 3, 4, 0.4, "harmonic", mode, 256)
    lam2 = lambda2_U(build_U(5, 0.4))
    outcomes = []
    for global_model in (None, state.global_model, np.full(4, 7.5)):
        start = RoundState(state.visible, state.invisible, state.m_counts, global_model, state.quantized, state.level)
        outcomes.append(
            run_consensus(start, 0.4, weights.table(6), rng=rngmod.stream(11, 57), lambda2_u=lam2, record=record)
        )
    (fin, trace, summary), *others = outcomes
    for other_fin, other_trace, other_summary in others:
        assert other_summary == summary
        for name in ("visible", "invisible", "global_model", "quantized"):
            got, ref = getattr(other_fin, name), getattr(fin, name)
            assert (got is None and ref is None) or _same_bits(got, ref), name
        assert (other_trace is None) == (trace is None) == (not record)
        if record:
            for name in ("visibles", "invisibles", "globals_", "weights", "quantized", "pis"):
                got, ref = getattr(other_trace, name), getattr(trace, name)
                assert (got is None and ref is None) or _same_bits(got, ref), name


def test_phase_takes_its_mode_from_the_state_and_its_rounds_from_the_weights():
    state, weights, lam2 = quantized_setup(level=16)
    plain = RoundState(state.visible, state.invisible, state.m_counts)
    phase = dict(rng=rngmod.stream(3, 58), lambda2_u=lam2)
    fin, trace, summary = run_consensus(plain, 0.4, weights.table(4), **phase)
    assert trace.quantized is None and trace.pis is None and fin.quantized is None
    assert trace.K == 4 and summary["max_width"] == 0.0
    fin, trace, summary = run_consensus(state, 0.4, weights.table(5), **phase)
    assert trace.K == len(weights.table(5)) == len(trace.pis) == len(trace.quantized) - 1
    assert fin.level == 16 and summary["max_width"] > 0.0
    # uploads without their level name the missing field
    state.level = None
    with pytest.raises(ConfigError, match="level"):
        run_consensus(state, 0.4, weights.table(3), **phase)


@given(
    M=st.integers(2, 6),
    m_max=st.integers(2, 10),
    d=st.integers(1, 4),
    K=st.integers(1, 20),
    rule=st.sampled_from(["harmonic", "inv_sqrt"]),
    mode=st.sampled_from([MSP, MSPDQ]),
    level=st.sampled_from([5, 16, 257, 4096]),
    seed=st.integers(0, 2**16),
)
# d = 1 with 7 and 9 invisible rows: the last count the flow sums with
# running adds, and the first it hands to np.add.reduce
@example(M=3, m_max=7, d=1, K=6, rule="harmonic", mode=MSP, level=16, seed=1)
@example(M=3, m_max=9, d=1, K=6, rule="harmonic", mode=MSPDQ, level=16, seed=2)
def test_ragged_phase_matches_reference_rounds_bitwise(M, m_max, d, K, rule, mode, level, seed):
    rng = rngmod.stream(seed, 47)
    epsilon = float(rng.uniform(0.1, 0.9))
    state, weights = ragged_cohort(rng, M, m_max, d, epsilon, rule, mode, level)
    lam2 = lambda2_U(build_U(M, epsilon))
    try:
        ref_states, ref_summary = reference_run_consensus(
            state, K, mode, epsilon, weights, rngmod.stream(seed, 48), lam2
        )
    except ProtocolIntegrityError:
        ref_states = None
    # recorded, non-recording, and non-recording in one-round blocks
    for record, budget in ((True, consensus.BLOCK_BYTES), (False, consensus.BLOCK_BYTES), (False, 1)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "BLOCK_BYTES", budget)
            call = lambda: run_consensus(  # noqa: E731
                state, epsilon, weights.table(K), rng=rngmod.stream(seed, 48), lambda2_u=lam2, record=record
            )
            if ref_states is None:
                with pytest.raises(ProtocolIntegrityError):
                    call()
                continue
            fin, trace, summary = call()
        assert summary == ref_summary
        names = ("visible", "invisible", "global_model") + (("quantized",) if mode == MSPDQ else ())
        for name in names:
            assert _same_bits(getattr(fin, name), getattr(ref_states[-1], name)), name
        if record:
            stacks = (trace.visibles, trace.invisibles, trace.globals_, trace.quantized)
            for k, ref in enumerate(ref_states):
                for name, stack in zip(names, stacks):
                    assert _same_bits(stack[k], getattr(ref, name)), (name, k)


@given(
    S=st.integers(0, 3),
    M=st.integers(2, 6),
    m_max=st.integers(1, 3),
    d=st.integers(1, 4),
    rounds_before=st.integers(0, 3),
    mode=st.sampled_from([MSP, MSPDQ]),
    call=st.sampled_from(["none", "workspace"]),
    seed=st.integers(0, 2**16),
)
def test_standalone_round_calls_match_reference_rounds_bitwise(S, M, m_max, d, rounds_before, mode, call, seed):
    # one round on a bound copy of the state matches the reference round; a
    # leading seed axis of S > 0 seeds is taken by msp_round only;
    # call="workspace" first passes a working state of the other mode, which
    # the operator must refuse and leave alone
    if mode == MSPDQ:
        S = 0
    rng = rngmod.stream(seed, 49)
    epsilon = float(rng.uniform(0.1, 0.9))
    lam2 = lambda2_U(build_U(M, epsilon))
    k = rounds_before
    seeds, refs, args = [], [], []
    for _ in range(max(S, 1)):
        state, weights = ragged_cohort(rng, M, m_max, d, epsilon, "harmonic", mode, 256)
        try:
            history, _ = reference_run_consensus(state, k, mode, epsilon, weights, rngmod.stream(seed, 50), lam2)
        except ProtocolIntegrityError:
            return
        before = history[-1]
        weights_k = weights.at(k)
        if mode == MSP:
            refs.append(reference_msp_round(before, epsilon, weights_k))
        else:
            gaps = [np.linalg.norm(s.visible - s.invisible[:, 0, :]) for s in history]
            pi_t = compute_pi_t(epsilon, lam2, float(max(gaps)))
            try:
                refs.append(reference_mspdq_round(before, epsilon, weights_k, pi_t, rngmod.stream(seed, 51))[0])
            except ProtocolIntegrityError:
                return
            args = [pi_t * a_max(weights_k), rngmod.stream(seed, 51).random(size=(M, d))]
        seeds.append((before, weights_k))
    if S:
        before = RoundState(
            visible=np.stack([b.visible for b, _ in seeds]),
            invisible=np.stack([b.invisible for b, _ in seeds]),
            m_counts=seeds[0][0].m_counts,
            global_model=np.stack([b.global_model for b, _ in seeds]),
        )
        weights_k = np.stack([w for _, w in seeds])
    names = ("visible", "invisible", "global_model") + (("quantized",) if mode == MSPDQ else ())
    if call == "workspace":
        uploads = (before.visible.copy(), 256) if mode == MSP else (None, None)
        other = RoundState(before.visible, before.invisible, before.m_counts, None, *uploads)
        other = consensus._Workspace(other, epsilon)
        kept = {name: getattr(other, name).copy() for name in ("visible", "invisible", "global_model")}
        operator = msp_round if mode == MSP else mspdq_round
        with pytest.raises(ConfigError, match="rounds run through run_consensus"):
            operator(other, weights_k[..., None], *args)
        for name, value in kept.items():
            assert _same_bits(getattr(other, name), value), name
    kept = {name: getattr(before, name).copy() for name in names}
    got = one_round(mode, before, epsilon, weights_k, *args)
    for name in names:
        value = getattr(got, name)
        for s, ref in enumerate(refs):
            assert _same_bits(value[s] if S else value, getattr(ref, name)), name
        assert _same_bits(getattr(before, name), kept[name]), name
        assert not np.shares_memory(value, getattr(before, name)), name
