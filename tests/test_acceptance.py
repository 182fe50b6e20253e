"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
live.  The desk-scale experiment (criteria 6, 7, 11) is computed once in a
module fixture; its wall-clock cost is attributed to criteria 6 and 7 and
asserted against their stated budgets.
"""

import time

import numpy as np
import pytest

from fedsplit import orchestrator as orch
from fedsplit import privacy_audit as pa
from fedsplit import rng as rngmod
from fedsplit.consensus import (
    check_deviation_bound,
    run_consensus,
)
from fedsplit.presets import desk_config
from fedsplit.quantizer import (
    QuantizedVector,
    QuantizerState,
    decode,
    encode,
    output_distribution,
    quantize,
)
from fedsplit.spectral import (
    StepWeights,
    build_U,
    contraction_probe,
    lambda2_U,
    lambda_min_U,
)
from fedsplit.splitting import SplitRule
from oracles import check_conservation, cohort_state, consensus_target, distribution_mean_var, stream_split, values
from tests.conftest import loglog_slope

SEEDS = range(20)
B_SWEEP = (4, 6, 8, 12)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def desk(desk_bundle):
    """All desk-scale runs: plain mode plus the quantized bit-width sweep."""
    out = {"bundle": desk_bundle, "timing": {}}

    def collect(mode, level):
        runs = [orch.run(desk_config(mode, s, level=level), desk_bundle) for s in SEEDS]
        return {
            "gaps": np.array([[m.gap for m in r.metrics] for r in runs]),
            "dist2": np.array([[m.dist2 for m in r.metrics] for r in runs]),
            "uploads": np.array([[m.uploads for m in r.metrics] for r in runs]),
            "kts": np.array([[m.kt for m in r.metrics] for r in runs]),
            "w_tilde": max(r.constants.get("w_tilde_run_max", 0.0) for r in runs),
        }

    t0 = time.monotonic()
    out["msp"] = collect("msp", 256)
    out[8] = collect("mspdq", 2**8)
    out["timing"]["criterion6"] = time.monotonic() - t0
    t0 = time.monotonic()
    for B in (4, 6, 12):
        out[B] = collect("mspdq", 2**B)
    out["timing"]["criterion7"] = time.monotonic() - t0
    return out


def test_criterion_01_conservation():
    t0 = time.monotonic()
    rng = rngmod.stream(101, 0)
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(2, 17))
        d = int(rng.integers(1, 33))
        K = int(rng.integers(1, 201))
        eps = float(rng.uniform(0.1, min(1.9, 0.95 * (M / (M - 1)))))
        u = build_U(M, eps)
        lam_min = lambda_min_U(u)
        cap = lam_min / (1 + lam_min) if lam_min > 0 else 0.0
        m_counts = [int(rng.integers(1, 5)) for _ in range(M)]
        m_max = max(m_counts)
        gamma = np.zeros((M, m_max))
        for i, m_c in enumerate(m_counts):
            # epsilon above 1 empties the weight budget; conservation is a
            # property of the dynamics either way
            gamma[i, :m_c] = rng.uniform(0.2, 0.9) * cap / m_c
        weights = StepWeights(gamma=gamma, rule=("constant", "harmonic")[int(rng.integers(2))])
        splits = [
            stream_split(rng.standard_normal((1, d)), SplitRule("uniform", m=m_counts[i], eps_split=0.3), rng)
            for i in range(M)
        ]
        _, trace, _ = run_consensus(cohort_state(splits), eps, weights.table(K))
        worst = max(worst, check_conservation(trace, rtol=1e-9))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-9 and elapsed < 10, f"max conservation drift {worst:.2e} over 100 runs in {elapsed:.1f}s")


def test_criterion_02_consensus_limit():
    t0 = time.monotonic()
    rng = rngmod.stream(102, 0)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 9))
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.4, 0.7))
        u = build_U(M, eps)
        cap = lambda_min_U(u) / (1 + lambda_min_U(u))
        weights = StepWeights(gamma=np.full((M, m), 0.85 * cap / m), rule="constant")
        splits = [
            stream_split(rng.standard_normal((1, d)), SplitRule("uniform", m=m, eps_split=0.2), rng)
            for _ in range(M)
        ]
        state = cohort_state(splits)
        target = consensus_target(state)
        fin, _, _ = run_consensus(state, eps, weights.table(300), record=False)
        dev = max(
            float(np.max(np.abs(fin.visible - target))),
            float(np.max(np.abs(fin.invisible - target[None, None, :]))),
        )
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-6 and elapsed < 5, f"max distance to the consensus limit {worst:.2e} in {elapsed:.1f}s")


def test_criterion_03_quantizer_exactness():
    t0 = time.monotonic()
    level = 9
    qs = QuantizerState(lo=np.zeros(1), hi=np.ones(1), level=level)
    bin_w = qs.bin
    max_prob_err = 0.0
    var_ok = True
    for w in np.linspace(0.0, 1.0, 1000):
        atoms = output_distribution(np.array([w]), qs)[0]
        tau = min(int(w / bin_w), level - 2)
        lo = tau * bin_w
        p_hi = (w - lo) / bin_w
        if len(atoms) == 1:
            analytic = 1.0
            max_prob_err = max(max_prob_err, abs(atoms[0][1] - analytic))
        else:
            max_prob_err = max(max_prob_err, abs(atoms[0][1] - (1 - p_hi)), abs(atoms[1][1] - p_hi))
        _, var = distribution_mean_var(atoms)
        var_ok &= var <= (bin_w / 2) ** 2 * (1 + 1e-12)
    n = 100_000
    rng = rngmod.stream(103, 0)
    tiled = QuantizerState(lo=np.zeros(n), hi=np.ones(n), level=level)
    w0 = 0.37
    draws = values(quantize(np.full(n, w0), tiled, rng))
    _, var0 = distribution_mean_var(output_distribution(np.array([w0]), qs)[0])
    mc_ok = abs(draws.mean() - w0) <= 4.0 * np.sqrt(var0 / n)
    elapsed = time.monotonic() - t0
    report(
        3,
        max_prob_err <= 1e-15 and var_ok and mc_ok and elapsed < 30,
        f"prob err {max_prob_err:.1e}, variance bound held, MC mean within 4 sigma, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def containment_sweep():
    rng = rngmod.stream(104, 0)
    records = []
    for trial in range(50):
        B = B_SWEEP[trial % 3]
        level = 2**B
        M = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        eps = float(rng.uniform(0.2, 0.8))
        u = build_U(M, eps)
        cap = lambda_min_U(u) / (1 + lambda_min_U(u))
        gamma = float(rng.uniform(0.5, 0.9)) * cap
        weights = StepWeights(gamma=np.full((M, 1), gamma), rule="harmonic")
        w_prev = rng.standard_normal(d)
        splits = [
            stream_split(w_prev + 0.4 * rng.standard_normal((1, d)), SplitRule("uniform", m=1, eps_split=0.4), rng)
            for _ in range(M)
        ]
        state = cohort_state(splits)
        orch.snap_initial_upload(state, w_prev, q0_width=10.0, level=level)
        K = int(rng.integers(20, 61))
        qrng = rngmod.stream(104, 1, trial)
        _, trace, summary = run_consensus(
            state, eps, weights.table(K), rng=qrng, lambda2_u=lambda2_U(u),
            record=True, wire_check=(trial % 10 == 0),
        )
        records.append((trace, summary, lambda2_U(u)))
    return records


def test_criterion_04_interval_containment(containment_sweep):
    t0 = time.monotonic()
    # run_consensus raises on any containment violation, so reaching here
    # with 50 complete traces already certifies zero violations; the
    # deviation bound is asserted per trace on measured quantization errors
    slack = min(check_deviation_bound(trace, lam2) for trace, _, lam2 in containment_sweep)
    elapsed = time.monotonic() - t0
    report(
        4,
        len(containment_sweep) == 50 and slack >= 0 and elapsed < 60,
        f"50 quantized runs, zero interval escapes, deviation-bound slack {slack:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_quantization_error_bound(containment_sweep):
    margin = min(summary["bound_margin_min"] for _, summary, _ in containment_sweep)
    report(5, margin >= 0, f"measured error under sqrt(d) pi a/(2^B-1) everywhere; min margin {margin:.2e}")


def test_criterion_06_convergence_rate(desk):
    bundle = desk["bundle"]
    ok = True
    details = []
    for key, mode in (("msp", "msp"), (8, "mspdq")):
        gaps = desk[key]["gaps"].mean(axis=0)
        slope = loglog_slope(gaps)
        cfg = desk_config(mode, 0, level=256)
        w_tilde = desk[key]["w_tilde"] if mode == "mspdq" else None
        consts = orch.theorem_constants(bundle, cfg, w_tilde_max=w_tilde)
        bound = orch.bound_curve(consts, cfg, np.arange(1, len(gaps) + 1))
        within = bool(np.all(gaps <= bound))
        ok &= -1.3 <= slope <= -0.7 and within
        details.append(f"{mode}: slope {slope:.3f}, bound respected {within}")
    elapsed = desk["timing"]["criterion6"]
    ok &= elapsed < 300
    report(6, ok, "; ".join(details) + f"; compute {elapsed:.0f}s")


def test_criterion_07_bit_width_ordering(desk):
    finals = {B: desk[B]["gaps"].mean(axis=0)[-1] for B in B_SWEEP}
    msp_final = desk["msp"]["gaps"].mean(axis=0)[-1]
    monotone = finals[4] >= finals[6] >= finals[8] >= finals[12]
    rel = abs(finals[12] - msp_final) / msp_final
    elapsed = desk["timing"]["criterion7"]
    report(
        7,
        monotone and rel <= 0.10 and elapsed < 600,
        f"final gaps {[f'{finals[B]:.3e}' for B in B_SWEEP]}, B=12 vs plain rel {rel:.3f}, compute {elapsed:.0f}s",
    )


def test_criterion_08_witness_soundness():
    t0 = time.monotonic()
    rng = rngmod.stream(108, 0)
    magnitudes = (1e-3, 1.0, 1e3, 1e6)
    worst_replay = 0.0
    worst_mutation = np.inf
    for n in range(50):
        M = int(rng.integers(3, 7))
        d = int(rng.integers(2, 6))
        m_counts = [int(rng.integers(1, 4)) for _ in range(M)]
        i, j = (int(x) for x in rng.choice(M, size=2, replace=False))
        direction = rng.standard_normal(d)
        e = magnitudes[n % 4] * direction / np.linalg.norm(direction)
        trace, witness = pa.witness_with_retries(900 + n, i, j, e, M=M, d=d, m_counts=m_counts, K=25)
        view = pa.record_view(trace, corrupted=frozenset(range(M)) - {i, j}, protected={i, j})
        rep = pa.replay_and_compare(witness, view)
        worst_replay = max(worst_replay, rep["max_deviation"])
        for param in pa.MUTABLE_PARAMS:
            bad = pa.replay_and_compare(pa.mutate_witness(witness, param), view)
            worst_mutation = min(worst_mutation, bad["max_deviation"])
    elapsed = time.monotonic() - t0
    report(
        8,
        worst_replay <= 1e-6 and worst_mutation > 1e-3 and elapsed < 60,
        f"50 witnesses replay within {worst_replay:.2e}; weakest mutation deviation {worst_mutation:.2e}; {elapsed:.1f}s",
    )


def test_criterion_09_identifiability_contrast():
    t0 = time.monotonic()
    rels = []
    for seed in range(5):
        trace = pa.sample_consensus_trace(700 + seed, M=4, d=3, K=200, gamma=0.2, rule="constant")
        view = pa.record_view(trace)
        est = pa.z_inference_attack(view, 0, assumed_m=1, epsilon=trace.epsilon)
        rels.append(np.linalg.norm(est - trace.origins[0]) / np.linalg.norm(trace.origins[0]))
    ta, tb = pa.paired_hidden_count_traces(71, K=80)
    va, vb = pa.record_view(ta), pa.record_view(tb)
    identical = np.array_equal(va.visibles, vb.visibles) and np.array_equal(va.globals_, vb.globals_)
    same_attack = np.array_equal(
        pa.z_inference_attack(va, 0, 1, ta.epsilon), pa.z_inference_attack(vb, 0, 1, tb.epsilon)
    )
    elapsed = time.monotonic() - t0
    report(
        9,
        max(rels) <= 1e-3 and identical and same_attack and elapsed < 10,
        f"attack rel err {max(rels):.2e} with revealed count; hidden-count views identical {identical}; {elapsed:.1f}s",
    )


def test_criterion_10_quantizer_dp():
    t0 = time.monotonic()
    rows = pa.quantizer_dp_audit(200, seed=110)
    violations = [r for r in rows if not r["ok"]]
    elapsed = time.monotonic() - t0
    report(10, not violations and elapsed < 30, f"200 configs, {len(violations)} TV violations, {elapsed:.1f}s")


def test_criterion_11_communication_accounting(desk):
    bundle = desk["bundle"]
    pc = bundle.constants
    cfg = desk_config("mspdq", 0, level=256)
    vt = orch.vartheta(pc.mu, pc.L, cfg.local_steps)
    kts = desk[8]["kts"]
    uploads = desk[8]["uploads"]
    expected = np.array(
        [cfg.cohort * (orch.kt_schedule(t, pc.mu, vt, cfg.lambda_, "mspdq") + 1) for t in range(1, kts.shape[1] + 1)]
    )
    exact = bool(np.all(uploads == expected[None, :]))
    consts = orch.theorem_constants(bundle, cfg, w_tilde_max=desk[8]["w_tilde"])
    dist0 = consts["dist0"]
    ok_rho = True
    details = []
    for rho in (1e-1, 1e-2):
        ratios = desk[8]["dist2"].mean(axis=0) / dist0
        reach = np.argmax(ratios <= rho) if np.any(ratios <= rho) else None
        measured = int(expected[: reach + 1].sum()) if reach is not None else None
        bound = orch.comm_complexity_bound(rho, consts, cfg.cohort)
        ok_rho &= measured is not None and measured <= bound
        details.append(f"rho={rho}: {measured} <= {bound:.3g}")
    report(11, exact and ok_rho, f"uploads = M sum(K_t + 1) exactly; " + "; ".join(details))


def test_criterion_12_degenerate_reductions():
    t0 = time.monotonic()
    base = desk_config("fedavg", 3, rounds=40)
    bundle = orch.build_problem(base)
    fed = orch.run(base, bundle)
    msp_cfg = desk_config("msp", 3, rounds=40)
    msp_cfg.split_variant = "midpoint"
    msp_cfg.gamma_max = 0.0
    msp_cfg.kt_override = 1
    msp_cfg.weight_rule = "constant"
    msp = orch.run(msp_cfg, bundle)
    dev = float(np.max(np.abs(fed.trajectory - msp.trajectory)))
    ldp_cfg = desk_config("ldp", 3, rounds=40)
    ldp_cfg.ldp_scale = 0.0
    ldp = orch.run(ldp_cfg, bundle)
    ldp_dev = float(np.max(np.abs(fed.trajectory - ldp.trajectory)))
    elapsed = time.monotonic() - t0
    report(
        12,
        dev <= 1e-12 and ldp_dev == 0.0 and elapsed < 5,
        f"degenerate split equals plain averaging within {dev:.1e}; zero-noise ldp identical; {elapsed:.1f}s",
    )


def test_criterion_13_codec():
    t0 = time.monotonic()
    rng = rngmod.stream(113, 0)
    for _ in range(10_000):
        level = int(rng.integers(2, 4097))
        d = int(rng.integers(1, 17))
        qs = QuantizerState(lo=np.full(d, -1.0), hi=np.full(d, 1.0), level=level)
        idx = rng.integers(0, level, size=d)
        back = decode(encode(QuantizedVector(indices=idx, state=qs)), qs)
        assert np.array_equal(back.indices, idx)
    golden = QuantizerState(lo=np.zeros(3), hi=np.ones(3), level=5)
    blob = encode(QuantizedVector(indices=np.array([0, 4, 2]), state=golden))
    fixtures_ok = blob[40:] == bytes([0x22, 0x00]) and len(blob) == 42
    blob2 = encode(QuantizedVector(indices=np.array([1, 0]), state=QuantizerState(lo=np.zeros(2), hi=np.ones(2), level=3)))
    fixtures_ok &= blob2[40:] == bytes([0x04])
    elapsed = time.monotonic() - t0
    report(13, fixtures_ok and elapsed < 5, f"10^4 roundtrips identical, golden bytes match, {elapsed:.1f}s")


def test_criterion_14_spectral_oracles():
    t0 = time.monotonic()
    eig_ok = True
    for M in (2, 4, 8, 16):
        hi = M / (M - 1)
        for eps in np.linspace(0.02, hi - 0.02, 25):
            u = build_U(M, float(eps))
            eig_ok &= abs(lambda2_U(u) - abs(1 - eps)) <= 1e-12
            eig_ok &= abs(lambda_min_U(u) - (1 - eps)) <= 1e-12
    rng = rngmod.stream(114, 0)
    monotone = True
    for trial in range(20):
        M = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.9))
        u = build_U(M, eps)
        cap = lambda_min_U(u) / (1 + lambda_min_U(u))
        rule = ("constant", "harmonic")[trial % 2]
        weights = StepWeights(gamma=np.full((M, m), 0.8 * cap / m), rule=rule)
        devs, _ = contraction_probe(eps, weights, 40)
        monotone &= bool(np.all(np.diff(devs) <= 1e-12))
    elapsed = time.monotonic() - t0
    report(
        14,
        eig_ok and monotone and elapsed < 10,
        f"closed-form eigenvalues within 1e-12; 20 schedules contract monotonically; {elapsed:.1f}s",
    )
