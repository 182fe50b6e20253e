import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit import privacy_audit as pa
from fedsplit import rng as rngmod
from fedsplit.consensus import RoundState, run_consensus, trace_to_jsonl
from fedsplit.errors import ConfigError, WitnessDegenerateError
from fedsplit.quantizer import dp_delta


def make_trace(seed=3, M=4, d=3, K=25, m_counts=(2, 1, 3, 1)):
    return pa.sample_consensus_trace(seed, M=M, d=d, K=K, m_counts=list(m_counts))


def test_record_view_server_only():
    trace = make_trace()
    view = pa.record_view(trace)
    assert view.visibles.shape == (trace.K + 1, trace.M, 3)
    assert view.globals_.shape == (trace.K + 1, 3)
    assert view.corrupted == {}
    assert view.drift_alpha == pytest.approx(0.25)


def test_record_view_maximal_admissible():
    trace = make_trace()
    view = pa.record_view(trace, corrupted={1, 3}, protected={0, 2})
    assert set(view.corrupted) == {1, 3}
    assert view.corrupted[1]["invisibles"].shape == (trace.K + 1, 1, 3)
    assert view.corrupted[3]["coupling"].shape == (trace.K, 1)


def test_record_view_copies_the_trace():
    trace = make_trace()
    view = pa.record_view(trace, corrupted={1, 3}, protected={0, 2})
    before = {
        "visibles": view.visibles.copy(),
        "globals_": view.globals_.copy(),
        "invisibles": view.corrupted[1]["invisibles"].copy(),
        "coupling": view.corrupted[3]["coupling"].copy(),
    }
    for stack in (trace.visibles, trace.globals_, trace.invisibles, trace.weights):
        stack += 1.0
    assert np.array_equal(view.visibles, before["visibles"])
    assert np.array_equal(view.globals_, before["globals_"])
    assert np.array_equal(view.corrupted[1]["invisibles"], before["invisibles"])
    assert np.array_equal(view.corrupted[3]["coupling"], before["coupling"])


def test_record_view_guards_protected():
    trace = make_trace()
    with pytest.raises(ConfigError):
        pa.record_view(trace, corrupted={0, 1}, protected={0})


def test_view_contains_no_hidden_structure():
    trace = make_trace()
    view = pa.record_view(trace, corrupted={3})
    # the only invisible data exposed belongs to the corrupted client
    assert list(view.corrupted) == [3]
    assert not hasattr(view, "m_counts")


def test_witness_zero_shift_is_identity():
    trace = make_trace(seed=5)
    w = pa.construct_witness(trace, 0, 1, np.zeros(3))
    assert w.identity
    assert np.array_equal(w.inv_i, trace.invisibles[0][0, w.p])
    view = pa.record_view(trace, corrupted={2, 3}, protected={0, 1})
    rep = pa.replay_and_compare(w, view)
    assert rep["pass"] and rep["max_deviation"] == 0.0


def test_witness_recovers_exact_shift():
    trace = make_trace(seed=7)
    e = np.array([0.7, -0.2, 0.1])
    w = pa.construct_witness(trace, 0, 2, e)
    shifted_i, shifted_j = w.shifted_locals()
    assert np.allclose(shifted_i - trace.origins[0], e)
    assert np.allclose(shifted_j - trace.origins[2], -e)
    # the perturbed invisible absorbs (1+m_i) e exactly
    assert np.allclose(w.inv_i - trace.invisibles[0][0, w.p], (1 + trace.m_counts[0]) * e)


def test_witness_needs_the_origins_the_auditor_attaches():
    # a phase recorded alone knows no pre-split models: a witness on it is a
    # config error, not a witness around made-up zero origins
    trace = make_trace(seed=7)
    initial = RoundState(trace.visibles[0], trace.invisibles[0], trace.m_counts, trace.globals_[0])
    _, bare, _ = run_consensus(initial, trace.epsilon, trace.weights)
    assert bare.origins is None and trace.origins is not None
    assert np.array_equal(bare.visibles, trace.visibles)
    with pytest.raises(ConfigError, match="origins"):
        pa.construct_witness(bare, 0, 2, np.array([0.7, -0.2, 0.1]))


def test_witness_round_zero_replay_matches():
    trace = make_trace(seed=9)
    e = np.array([0.7, 0.7, 0.7])
    w = pa.construct_witness(trace, 0, 2, e)
    view = pa.record_view(trace, corrupted={1, 3}, protected={0, 2})
    rep = pa.replay_and_compare(w, view)
    assert rep["pass"]
    assert rep["max_deviation"] <= 1e-9


def test_witness_replay_of_a_single_round_trace():
    trace, w = pa.witness_with_retries(33, 0, 1, np.array([0.4, -0.8, 0.3]), M=4, d=3, K=1)
    assert trace.K == 1
    view = pa.record_view(trace, corrupted={2, 3}, protected={0, 1})
    rep = pa.replay_and_compare(w, view)
    assert rep["pass"] and rep["max_deviation"] <= 1e-9
    for param in pa.MUTABLE_PARAMS:
        bad = pa.replay_and_compare(pa.mutate_witness(w, param), view)
        assert bad["max_deviation"] > pa.MUTATION_MIN_DEVIATION, param


def test_witness_all_magnitudes():
    for mag in (1e-3, 1.0, 1e3, 1e6):
        rng = rngmod.stream(int(mag) + 11, 77)
        e = mag * rng.standard_normal(3)
        e *= mag / np.linalg.norm(e)
        trace, w = pa.witness_with_retries(21, 1, 2, e, M=5, d=3, m_counts=[1, 2, 1, 3, 1], K=30)
        view = pa.record_view(trace, corrupted={0, 3, 4}, protected={1, 2})
        rep = pa.replay_and_compare(w, view)
        assert rep["pass"], (mag, rep["max_deviation"])


def test_witness_degenerate_denominator_detected():
    trace = make_trace(seed=13)
    # force a vanishing drift denominator: identical visibles at slots 0, 1
    trace.visibles[0][1] = trace.visibles[0][0]
    with pytest.raises(WitnessDegenerateError):
        pa.construct_witness(trace, 0, 1, np.array([1.0, 1.0, 1.0]))


def test_witness_rejects_same_slot():
    trace = make_trace()
    with pytest.raises(ConfigError):
        pa.construct_witness(trace, 1, 1, np.ones(3))


@given(
    seed=st.integers(0, 2**16),
    M=st.integers(3, 5),
    d=st.integers(2, 4),
    data=st.data(),
    mag=st.one_of(st.just(0.0), st.floats(1e-3, 1e6), st.just(pa.MAX_E_MAGNITUDE)),
    collide=st.booleans(),
)
def test_witness_mirrors_under_swapped_slots_and_sign(seed, M, d, data, mag, collide):
    # client j's side is client i's side with the roles and the sign swapped
    m_counts = data.draw(st.lists(st.integers(1, 3), min_size=M, max_size=M))
    i, j = data.draw(st.lists(st.integers(0, M - 1), min_size=2, max_size=2, unique=True))
    trace = pa.sample_consensus_trace(seed, M=M, d=d, K=3, m_counts=m_counts)
    if collide:
        # one shared visible coordinate: a vanishing drift denominator
        trace.visibles[0, j, 0] = trace.visibles[0, i, 0]
    direction = rngmod.stream(seed, 78).standard_normal(d)
    e = mag * direction / np.linalg.norm(direction)
    outcomes = []
    for args in ((i, j, e), (j, i, -e)):
        try:
            outcomes.append(pa.construct_witness(trace, *args))
        except WitnessDegenerateError:
            outcomes.append(None)
    w, mirror = outcomes
    assert (w is None) == (mirror is None)
    if w is None:
        return
    assert (w.p, w.q, w.identity) == (mirror.q, mirror.p, mirror.identity)
    for ours, theirs in (("inv_i", "inv_j"), ("a_i", "a_j"), ("alpha_i", "alpha_j")):
        assert np.array_equal(getattr(w, ours), getattr(mirror, theirs))
        assert np.array_equal(getattr(w, theirs), getattr(mirror, ours))


def test_mutations_always_detected():
    trace, w = pa.witness_with_retries(31, 0, 1, np.array([0.4, -0.8, 0.3]), M=4, d=3, K=20)
    view = pa.record_view(trace, corrupted={2, 3}, protected={0, 1})
    for param in pa.MUTABLE_PARAMS:
        rep = pa.replay_and_compare(pa.mutate_witness(w, param), view)
        assert rep["max_deviation"] > pa.MUTATION_MIN_DEVIATION, param


def test_z_attack_recovers_local_model_with_known_count():
    trace = pa.sample_consensus_trace(41, M=4, d=3, K=200, gamma=0.2, rule="constant")
    view = pa.record_view(trace)
    est = pa.z_inference_attack(view, 0, assumed_m=1, epsilon=0.5)
    rel = np.linalg.norm(est - trace.origins[0]) / np.linalg.norm(trace.origins[0])
    assert rel <= 1e-3


def test_z_attack_bias_with_wrong_count():
    trace = pa.sample_consensus_trace(43, M=4, d=3, K=300, gamma=0.2, rule="constant")
    view = pa.record_view(trace)
    epsilon = trace.epsilon
    target = 0
    est_right = pa.z_inference_attack(view, target, 1, epsilon)
    est_wrong = pa.z_inference_attack(view, target, 2, epsilon)
    # wrong count mis-scales the drift correction by (1+m)/(2+m)
    K = view.K
    drift = epsilon * (view.globals_[:K] - view.visibles[:K, target, :]).sum(axis=0)
    predicted = est_right + drift / 2.0 - drift / 3.0
    assert np.allclose(est_wrong, predicted, atol=1e-10)
    assert np.linalg.norm(est_wrong - trace.origins[target]) > 10 * np.linalg.norm(
        est_right - trace.origins[target]
    )


def test_paired_traces_identical_views_different_models():
    ta, tb = pa.paired_hidden_count_traces(51, K=80)
    va, vb = pa.record_view(ta), pa.record_view(tb)
    assert np.array_equal(va.visibles, vb.visibles)
    assert np.array_equal(va.globals_, vb.globals_)
    out_a = pa.z_inference_attack(va, 0, 1, ta.epsilon)
    out_b = pa.z_inference_attack(vb, 0, 1, tb.epsilon)
    assert np.array_equal(out_a, out_b)
    assert not np.allclose(ta.origins[0], tb.origins[0])


def test_paired_traces_give_identical_jsonl():
    # the step weights (and their zero padding) would reveal slot 0's
    # hidden invisible count; nothing else in the two traces differs
    ta, tb = pa.paired_hidden_count_traces(51, K=5)
    assert ta.weights[0].shape != tb.weights[0].shape
    assert trace_to_jsonl(ta, t=2) == trace_to_jsonl(tb, t=2)


def test_dp_audit_zero_adjacency_is_zero():
    from fedsplit.quantizer import QuantizerState, output_distribution, tv_distance

    qs = QuantizerState(lo=np.zeros(1), hi=np.ones(1), level=5)
    d1 = output_distribution(np.array([0.37]), qs)[0]
    assert tv_distance(d1, d1) == 0.0


def test_dp_audit_formula_second_branch():
    assert dp_delta(1e12, 1.0, 1.0, 5, 3) == pytest.approx(4.0 / 7.0)


def test_dp_audit_sweep_clean():
    rows = pa.quantizer_dp_audit(80, seed=3)
    assert all(r["ok"] for r in rows)


def test_run_audit_aggregates():
    rep = pa.run_audit(seed=1, n_witness=4, mutate=True, n_dp_configs=20)
    assert rep["pass"]
    assert rep["paired_views_identical"]
    text = pa.report_to_json(rep)
    assert '"pass": true' in text


@pytest.mark.parametrize("seed", range(24))
def test_run_audit_negative_controls_pass(seed):
    # on seeds 10, 11, 13, 15, 16 and 17 coordinate 0 has almost no leverage
    assert pa.run_audit(seed=seed, mutate=True)["pass"]


DEFAULT_MAGS = pa.DEFAULT_E_MAGNITUDES
# the zero-shift identity witness and a shift at the replay's cap
ZERO_AND_CAP = (0.0, pa.MAX_E_MAGNITUDE)
AUDIT_REPORT_SHA256 = {
    (0, False, DEFAULT_MAGS): "83c5e9ff9945637da6c24b8d5885a442ef1dbc4d7d9e8a2310309900d3421083",
    (0, True, DEFAULT_MAGS): "1f6fb74b38555ef716db58ead566adc79de093e1aaa3af124e109c5fabc16b41",
    (3, False, DEFAULT_MAGS): "7dd2ec713251a7e3fb87be1a1bfa98debffc61b3b3a6d771964131601c350be5",
    (3, True, DEFAULT_MAGS): "226026c4ec9ea5b7c2c1013bfac155b335d3921e5b74771063f7c3bbc8c679a0",
    (7, False, DEFAULT_MAGS): "c58e7a247c9f9a84b81d7407b53591c2aaf8cce7d61680e7b11cd0599695c9fe",
    (7, True, DEFAULT_MAGS): "1c1d8edb7480d1f4686b6e4edace10ba87297d683551a81f3a11b792062d0dd3",
    (0, False, ZERO_AND_CAP): "f6b5f93f100e50553283769fea98f1ecec5a2494be84d33bd3aa5d1e4dee721c",
    (0, True, ZERO_AND_CAP): "412bceefda1d8d9d64a39811442fc15e1032249ce6d96c4837c263f0101a060d",
    (7, False, ZERO_AND_CAP): "f10150c80ab52ae1ddab00c9c4d843ca19613fcb51836b3b21d8dc6a32726fa1",
    (7, True, ZERO_AND_CAP): "767d9fcef2d4e0ca961e4e2e3adaf38dae3e3bcf4028b11d65d3077b154ba416",
}


def test_run_audit_report_matches_golden_hash():
    # the auditor rebuilds the witness's round zero outside the round
    # operators; these pin every bit of its reports, negative controls too
    for (seed, mutate, mags), expected in AUDIT_REPORT_SHA256.items():
        text = pa.report_to_json(pa.run_audit(seed=seed, e_magnitudes=mags, mutate=mutate))
        assert hashlib.sha256(text.encode()).hexdigest() == expected, (seed, mutate, mags)


# recorded before the law moved to Python floats and the audit to one law
# per grid input; every row of the audit keeps its bits
DP_AUDIT_ROWS_SHA256 = "8fc05cb7684c21d76ec5572f5a7ef8adf05c068557bfc8700b1d13c593a7cc46"


def test_dp_audit_rows_match_golden_hash():
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        for grid in (2, 5, 33):
            rows = pa.quantizer_dp_audit(200, seed, grid)
            digest.update(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest() == DP_AUDIT_ROWS_SHA256


@pytest.mark.parametrize("n, grid", [(1, 2), (3, 5), (4, 33)])
def test_dp_audit_forms_each_grid_law_once(monkeypatch, n, grid):
    # one law per grid input plus one per sign neighbour; a distance per pair
    counts = {"laws": 0, "distances": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(pa, "output_distribution", counted("laws", pa.output_distribution))
    monkeypatch.setattr(pa, "tv_distance", counted("distances", pa.tv_distance))
    pa.quantizer_dp_audit(n, 0, grid)
    assert counts == {"laws": 3 * n * grid, "distances": 2 * n * grid}


def test_witness_replay_resolves_shifts_up_to_the_cap():
    assert pa.MAX_E_MAGNITUDE >= max(pa.DEFAULT_E_MAGNITUDES)
    for seed in range(12):
        report = pa.run_audit(seed=seed, n_witness=4, e_magnitudes=(pa.MAX_E_MAGNITUDE,), n_dp_configs=0)
        assert report["pass"], seed


def test_mutation_targets_the_coordinate_with_most_leverage():
    trace, w = pa.witness_with_retries(31, 0, 1, np.array([0.4, -0.8, 0.3]), M=4, d=3, K=20)
    vis = trace.visibles[0]
    gap = np.abs(vis[1] - vis[0])
    bumped = pa.mutate_witness(w, "alpha_i")
    changed = np.flatnonzero(bumped.alpha_i != w.alpha_i)
    assert list(changed) == [int(np.argmax(gap * (0.1 + 0.01 * np.abs(w.alpha_i))))]
    explicit = pa.mutate_witness(w, "alpha_i", coord=2)
    assert list(np.flatnonzero(explicit.alpha_i != w.alpha_i)) == [2]


def test_dp_case_l5_b3_within_formula():
    # delta formula min{0.4, 4/7} = 0.4 must dominate the measured distance
    from fedsplit.quantizer import QuantizerState, output_distribution, tv_distance

    pi_a = 1.0
    qs = QuantizerState(lo=np.zeros(1), hi=np.array([pi_a]), level=5)
    C4 = 0.1
    worst = 0.0
    for x in np.linspace(0.0, pi_a, 101):
        y = min(max(x + C4, 0.0), pi_a)
        worst = max(
            worst,
            tv_distance(
                output_distribution(np.array([x]), qs)[0],
                output_distribution(np.array([y]), qs)[0],
            ),
        )
    assert worst <= dp_delta(C4, pi_a, 1.0, 5, 3) + 1e-12
    assert dp_delta(C4, pi_a, 1.0, 5, 3) == pytest.approx(0.4)


def test_z_sequence_holds_on_simulated_traces():
    from fedsplit.splitting import z_sequence

    trace = make_trace(seed=19, K=40)
    vis = np.stack(trace.visibles)
    inv = np.stack(trace.invisibles)
    glo = np.stack(trace.globals_)
    for i in range(trace.M):
        m_i = int(trace.m_counts[i])
        z = z_sequence(vis[:, i, :], inv[:, i, :m_i, :], glo, trace.epsilon)
        assert z.shape == (trace.K + 1, 3)
