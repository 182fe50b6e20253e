import numpy as np
import pytest

from fedsplit import privacy_audit as pa
from fedsplit import rng as rngmod
from fedsplit.consensus import trace_to_jsonl
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


def test_witness_round_zero_replay_matches():
    trace = make_trace(seed=9)
    e = np.array([0.7, 0.7, 0.7])
    w = pa.construct_witness(trace, 0, 2, e)
    view = pa.record_view(trace, corrupted={1, 3}, protected={0, 2})
    rep = pa.replay_and_compare(w, view)
    assert rep["pass"]
    assert rep["max_deviation"] <= 1e-9


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
