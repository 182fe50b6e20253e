import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from fedsplit import consensus
from fedsplit import orchestrator as orch
from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.presets import desk_config
from fedsplit.problem import global_loss, make_client_targets, make_quadratic_problem


def small_config(mode, seed=0, rounds=30, **overrides):
    cfg = desk_config(mode, seed, level=64, rounds=rounds)
    cfg.n_clients = 6
    cfg.cohort = 4
    cfg.dim = 3
    for key, val in overrides.items():
        setattr(cfg, key, val)
    return cfg


def test_vartheta_and_lr_schedule():
    assert orch.vartheta(1.0, 1.0, 4) == pytest.approx(7.0)
    assert orch.lr_schedule(1, 1.0, 7.0) == pytest.approx(0.25)
    etas = [orch.lr_schedule(t, 1.0, 7.0) for t in range(1, 200)]
    for t in range(len(etas) - 4):
        assert etas[t] <= 2 * etas[t + 4]
    with pytest.raises(ConfigError):
        orch.lr_schedule(0, 1.0, 7.0)


def test_kt_schedule_values():
    assert orch.kt_schedule(1, 1.0, 7.0, 0.5, "msp") == 2
    assert orch.kt_schedule(1, 1.0, 7.0, 0.5, "mspdq") == 4
    with pytest.raises(ConfigError):
        orch.kt_schedule(1, 1.0, 7.0, 1.5, "msp")


def test_kt_schedule_nondecreasing():
    for mode in ("msp", "mspdq"):
        ks = [orch.kt_schedule(t, 0.5, 15.0, 0.6, mode) for t in range(1, 1001)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        assert min(ks) >= 1


def test_sample_clients_degenerate():
    rng = rngmod.stream(0, 3)
    picks = orch.sample_clients(np.array([1.0, 0.0, 0.0]), 2, rng)
    assert np.array_equal(picks, [0, 0])


def test_sample_clients_chi_square():
    rng = rngmod.stream(1, 3)
    N, n = 4, 100_000
    picks = orch.sample_clients(np.full(N, 0.25), n, rng)
    counts = np.bincount(picks, minlength=N)
    chi2 = np.sum((counts - n / N) ** 2 / (n / N))
    assert chi2 <= stats.chi2.ppf(0.99, df=N - 1)


@given(
    weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=12),
    atom=st.integers(0, 11),
    M=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_sample_clients_matches_generator_choice(weights, atom, M, seed):
    p = np.array(weights)
    if not p.sum() > 0:
        # a single-atom distribution
        p[atom % len(p)] = 1.0
    p /= p.sum()
    got_rng, ref_rng = rngmod.stream(seed, 3), rngmod.stream(seed, 3)
    got = orch.sample_clients(p, M, got_rng)
    want = ref_rng.choice(len(p), size=M, replace=True, p=p)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampled_aggregate_unbiased():
    # mean over seeds of the cohort average of fixed values -> sum p_i x_i
    p = np.array([0.5, 0.3, 0.2])
    x = np.array([1.0, -2.0, 4.0])
    n = 50_000
    rng = rngmod.stream(2, 3)
    agg = np.empty(n)
    for s in range(n):
        picks = orch.sample_clients(p, 4, rng)
        agg[s] = x[picks].mean()
    expect = float(p @ x)
    assert abs(agg.mean() - expect) <= 4.0 * agg.std() / np.sqrt(n)


def test_local_sgd_closed_form():
    A, b = np.eye(1)[None], np.ones((1, 1))
    targets = make_client_targets(A, b, 8, 0.0, seed=0)
    rng = rngmod.stream(0, 4)
    w = orch.local_sgd(np.zeros(1), A, targets, eta=0.5, E=1, rngs=[rng], batch_size=8)[0]
    assert w[0] == pytest.approx(0.5, abs=1e-12)
    w_fix = orch.local_sgd(np.array([1.0]), A, targets, eta=0.5, E=3, rngs=[rng], batch_size=8)[0]
    assert w_fix[0] == pytest.approx(1.0, abs=1e-12)


def test_local_sgd_full_batch_matches_linear_recursion():
    A, b = make_quadratic_problem(1, 3, 1.0, seed=5)
    targets = make_client_targets(A, b, 8, 0.0, seed=5)
    w0 = np.array([2.0, -1.0, 0.5])
    eta, E = 0.3, 6
    rng = rngmod.stream(1, 4)
    w = orch.local_sgd(w0, A, targets, eta, E, [rng], 8)[0]
    M = np.eye(3) - eta * A[0]
    expected = b[0] + np.linalg.matrix_power(M, E) @ (w0 - b[0])
    assert np.allclose(w, expected, atol=1e-12)


def reference_local_sgd(w0, A, targets, batch_size, eta, E, rng):
    """The per-client loop the stacked pass replaced: one client's (d, d)
    curvature and (n, d) targets, its own stream, one `A @ w` and one batch
    mean per step."""
    w = w0.copy()
    for _ in range(E):
        batch = rng.integers(0, len(targets), size=batch_size)
        y_mean = np.add.reduce(targets[batch], axis=0) / len(batch)
        w -= eta * (A @ w - y_mean)
    return w


@given(
    n_clients=st.integers(1, 5),
    cohort=st.integers(1, 9),
    dim=st.integers(1, 6),
    E=st.integers(1, 4),
    n_samples=st.sampled_from([1, 3, 7, 12, 64]),
    batch_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_stacked_local_round_matches_per_client_loop(n_clients, cohort, dim, E, n_samples, batch_frac, seed):
    # non-power-of-two n_samples take the rejection branch of the bounded
    # draw; a cohort larger than n_clients forces duplicate slots
    batch_size = max(1, round(batch_frac * n_samples))
    t, eta = 3, 0.07
    cfg = orch.FLConfig(
        n_clients=n_clients, cohort=cohort, dim=dim, local_steps=E, rounds=t, mode="fedavg",
        seed=seed, n_samples=n_samples, batch_size=batch_size,
    )
    bundle = orch.build_problem(cfg)
    w_prev = rngmod.stream(seed, 99).standard_normal(dim)
    streams = list(orch._round_streams(cfg, bundle.p))[t - 1]
    got = orch._local_round(cfg, bundle, streams, w_prev, eta)
    cohort_ids = orch.sample_clients(bundle.p, cohort, rngmod.stream(seed, rngmod.CLIENT_SAMPLING, t))
    for slot, c in enumerate(cohort_ids):
        rng = rngmod.stream(seed, rngmod.GRADIENT, t, int(c))
        want = reference_local_sgd(w_prev, bundle.A[c], bundle.targets[c], batch_size, eta, E, rng)
        assert got[slot].tobytes() == want.tobytes()


@given(n_clients=st.integers(1, 6), dim=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_global_loss_matches_per_loss_sum(n_clients, dim, seed):
    cfg = orch.FLConfig(
        n_clients=n_clients, cohort=1, dim=dim, local_steps=1, rounds=1, mode="fedavg",
        seed=seed, problem_seed=seed, center_offset=1.5,
    )
    bundle = orch.build_problem(cfg)
    for w in rngmod.stream(seed, 98).standard_normal((3, dim)) * [[0.0], [1.0], [50.0]]:
        values = [0.5 * float((w - bi) @ Ai @ (w - bi)) for Ai, bi in zip(bundle.A, bundle.b)]
        want = float(sum(pi * v for pi, v in zip(bundle.p, values)))
        assert global_loss(bundle.A, bundle.b, bundle.p, w) == want


def test_problem_bundle_stacks_are_read_only_and_need_one_dataset_shape():
    cfg = small_config("fedavg")
    bundle = orch.build_problem(cfg)
    for stack in (bundle.p, bundle.A, bundle.b, bundle.targets):
        assert not stack.flags.writeable
    assert bundle.targets.shape == (cfg.n_clients, cfg.n_samples, cfg.dim)
    for field, stack in (
        ("targets", bundle.targets[:-1]),
        ("targets", bundle.targets[:, :, :-1]),
        ("b", bundle.b[:, :-1]),
        ("p", bundle.p[:-1]),
    ):
        with pytest.raises(ConfigError, match="client stacks must share one shape"):
            dataclasses.replace(bundle, **{field: stack})


def test_invariant_checks_reject_nan():
    nan = float("nan")
    with pytest.raises(ProtocolIntegrityError):
        orch.RoundMetrics(t=1, gap=nan, dist2=0.0, kt=1, uploads=1, bits=1, max_width=0.0, delta_max=0.0)
    with pytest.raises(ProtocolIntegrityError):
        orch.RoundMetrics(t=1, gap=0.0, dist2=nan, kt=1, uploads=1, bits=1, max_width=0.0, delta_max=0.0)
    with pytest.raises(ProtocolIntegrityError, match="ball"):
        orch._check_ball(np.array([0.0, nan]), np.zeros(2), 1.0, "global model")
    with pytest.raises(ProtocolIntegrityError, match="conserved sum drifted"):
        consensus.check_conserved(np.ones(2), np.array([1.0, nan]))


def test_config_validation_messages():
    cfg = small_config("msp", epsilon=1.4)  # M = 4 -> cap 4/3
    with pytest.raises(ConfigError, match="M/\\(M-1\\)"):
        cfg.validate()
    cfg = small_config("msp", gamma_max=0.5)
    with pytest.raises(ConfigError, match="lambda_min"):
        cfg.validate()
    cfg = small_config("mspdq", level=1)
    with pytest.raises(ConfigError, match="level"):
        cfg.validate()
    cfg = small_config("mspdq", weight_rule="constant")
    with pytest.raises(ConfigError, match="decaying"):
        cfg.validate()
    for field in ("seed", "problem_seed"):
        with pytest.raises(ConfigError, match=f"^{field} must be nonnegative"):
            small_config("msp", **{field: -1}).validate()


def test_config_from_dict_requires_safety_fields():
    doc = {
        "n_clients": 4, "cohort": 2, "dim": 2, "local_steps": 1,
        "rounds": 5, "mode": "msp", "seed": 0,
    }
    with pytest.raises(ConfigError, match="epsilon"):
        orch.FLConfig.from_dict(doc)
    with pytest.raises(ConfigError, match="unknown"):
        orch.FLConfig.from_dict({**doc, "epsilon": 0.5, "gamma_max": 0.1, "lambda_": 0.5, "zzz": 1})


def test_runs_are_deterministic():
    cfg = small_config("mspdq", rounds=8)
    bundle = orch.build_problem(cfg)
    r1 = orch.run(cfg, bundle)
    r2 = orch.run(small_config("mspdq", rounds=8), bundle)
    assert np.array_equal(r1.trajectory, r2.trajectory)
    assert [m.gap for m in r1.metrics] == [m.gap for m in r2.metrics]


def test_fedavg_single_client_is_gradient_descent():
    cfg = small_config("fedavg", rounds=12)
    cfg.n_clients = 1
    cfg.cohort = 1
    cfg.sample_spread = 0.0
    cfg.batch_size = cfg.n_samples
    cfg.gamma_target = None
    cfg.spread = 0.0
    cfg.center_offset = 2.0
    bundle = orch.build_problem(cfg)
    result = orch.run(cfg, bundle)
    pc = bundle.constants
    vt = orch.vartheta(pc.mu, pc.L, cfg.local_steps)
    w = np.zeros(cfg.dim)
    A, b = bundle.A[0], bundle.b[0]
    for t in range(1, cfg.rounds + 1):
        eta = orch.lr_schedule(t, pc.mu, vt)
        for _ in range(cfg.local_steps):
            w = w - eta * (A @ (w - b))
        assert np.allclose(result.trajectory[t], w, atol=1e-12)


def test_degenerate_split_config_equals_fedavg():
    base = small_config("fedavg", rounds=25)
    bundle = orch.build_problem(base)
    fed = orch.run(base, bundle)
    msp_cfg = small_config(
        "msp", rounds=25, split_variant="midpoint", gamma_max=0.0,
        kt_override=1, weight_rule="constant",
    )
    msp = orch.run(msp_cfg, bundle)
    assert np.max(np.abs(fed.trajectory - msp.trajectory)) <= 1e-12


def test_ldp_zero_scale_equals_fedavg():
    base = small_config("fedavg", rounds=20)
    bundle = orch.build_problem(base)
    fed = orch.run(base, bundle)
    ldp = orch.run(small_config("ldp", rounds=20, ldp_scale=0.0), bundle)
    assert np.array_equal(fed.trajectory, ldp.trajectory)


def test_ldp_noise_leaves_persistent_floor():
    base = small_config("fedavg", rounds=60)
    bundle = orch.build_problem(base)
    fed = orch.run(base, bundle)
    ldp = orch.run(small_config("ldp", rounds=60, ldp_scale=0.3), bundle)
    assert ldp.metrics[-1].gap > fed.metrics[-1].gap


def test_split_run_reduces_gap_over_time():
    cfg = small_config("msp", rounds=120)
    bundle = orch.build_problem(cfg)
    res = orch.run(cfg, bundle)
    gaps = [m.gap for m in res.metrics]
    assert gaps[-1] < gaps[10]


def test_upload_accounting_matches_schedule():
    cfg = small_config("mspdq", rounds=10)
    bundle = orch.build_problem(cfg)
    res = orch.run(cfg, bundle)
    pc = bundle.constants
    vt = orch.vartheta(pc.mu, pc.L, cfg.local_steps)
    for m in res.metrics:
        kt = orch.kt_schedule(m.t, pc.mu, vt, cfg.lambda_, "mspdq")
        assert m.kt == kt
        assert m.uploads == cfg.cohort * (kt + 1)
    assert orch.comm_counter(res.metrics) == sum(m.uploads for m in res.metrics)


def test_operating_ball_violation_raises():
    cfg = small_config("fedavg", rounds=5, ball_radius=1e-6, center_offset=3.0)
    with pytest.raises(ProtocolIntegrityError, match="ball"):
        orch.run(cfg)


@pytest.mark.parametrize("mode, name", [("msp", "msp_round"), ("mspdq", "mspdq_round")])
def test_consensus_phase_that_leaks_mass_raises(monkeypatch, mode, name):
    real_round = getattr(consensus, name)

    def leaky_round(*args, **kwargs):
        out = real_round(*args, **kwargs)
        state = out[0] if isinstance(out, tuple) else out
        state.invisible[0, 0] += 1e-6
        return out

    cfg = small_config(mode, rounds=3)
    orch.run(cfg)
    monkeypatch.setattr(consensus, name, leaky_round)
    with pytest.raises(ProtocolIntegrityError, match="conserved sum drifted"):
        orch.run(cfg)


def test_theorem_constants_formulas():
    assert orch.d3_formula(10, 0.2, 24.0, 4, 256) == pytest.approx(2.2145e-4, rel=1e-3)
    # (l - 1)^2 in the denominator for any level, not only powers of two
    assert orch.d3_formula(10, 0.2, 24.0, 4, 257) == pytest.approx(2.2145e-4 * (255 / 256) ** 2, rel=1e-3)
    # the split-factor polynomial (2x^2-4x+8)/3 has its vertex at x = 1
    poly = lambda x: (2 * x**2 - 4 * x + 8) / 3.0
    assert poly(1.0) == pytest.approx(2.0)
    xs = np.linspace(0, 0.99, 50)
    assert all(poly(x) >= poly(1.0) for x in xs)


def test_bound_curve_decays_like_one_over_t():
    cfg = small_config("msp", rounds=10)
    bundle = orch.build_problem(cfg)
    consts = orch.theorem_constants(bundle, cfg)
    ts = np.logspace(1, 5, 200)
    curve = orch.bound_curve(consts, cfg, ts) * (consts["vartheta"] + ts)
    # multiplying by (vartheta + t) flattens the curve exactly
    assert np.max(np.abs(curve - curve[0])) <= 1e-6 * curve[0]


def test_comm_complexity_bound_values():
    constants = {"mu": 0.01, "vartheta": 7.0, "dist0": 1.0, "nu2": 107.0}
    # ceil(I) = 100 at rho = 1.0: bound = 20*100*(1+0.07+0.005*101)
    assert orch.comm_complexity_bound(1.0, constants, 20) == pytest.approx(3150.0)
    constants_easy = {"mu": 0.01, "vartheta": 7.0, "dist0": 1.0, "nu2": 1e-9}
    assert orch.comm_complexity_bound(1e6, constants_easy, 20) == 0.0
    with pytest.raises(ConfigError):
        orch.comm_complexity_bound(0.0, constants, 20)


def test_metrics_csv_schema():
    cfg = small_config("msp", rounds=4)
    res = orch.run(cfg)
    text = orch.metrics_to_csv(res.metrics)
    lines = text.strip().splitlines()
    assert lines[0] == "t,gap,dist2,kt,uploads,bits,max_width,delta_max"
    assert len(lines) == 5


def test_laplace_split_rule_runs():
    cfg = small_config("msp", rounds=15, split_variant="laplace", laplace_scale=0.2)
    res = orch.run(cfg)
    assert len(res.metrics) == 15


def test_bit_budget_gate_consistent_with_wire_format():
    from fedsplit.quantizer import encoded_size

    cfg = small_config("mspdq", rounds=4, level=16)  # B = 4
    bundle = orch.build_problem(cfg)
    consts = orch.theorem_constants(bundle, cfg)
    # the gate compares the per-coordinate wire width against the interval
    # budget; when it reports ok the payload really spends cfg.bits per coord
    assert consts["assumption3_bits_ok"]
    payload_bits = (encoded_size(cfg.dim, cfg.bits) - 40) * 8
    assert cfg.bits * cfg.dim <= payload_bits < cfg.bits * cfg.dim + 8
    assert cfg.bits <= np.log2(np.sqrt(cfg.cohort * cfg.dim) * consts["pi_tilde"] + 1)


# SHA-256 of metrics_to_csv for T=30 desk runs (seed 0, numpy 2.4): any
# change to keyed draw order or arithmetic moves these, a pure speed-up
# must not.
GOLDEN_DESK_T30 = {
    "fedavg": "8f8d2dc8bd0623289ac355c5c19533f1f1490dbda0d3dd62e73448e6a3c3ad8c",
    "ldp": "6e1dd3dd291b0acee2baa663f7ccc1b2a219d42630d1ff8aaa46bde52463bb1c",
    "msp": "0099d3b263c7ccaea9d9de1a4bf4f1fec93a21c1bbc2c9a3a8a99a54f536661e",
    "mspdq": "ae6c4674b007f212c7fd2b193cc4dd11c8820ab2444bf63fa34c06fb61447eb6",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_DESK_T30))
def test_desk_metrics_match_golden_hash(mode):
    cfg = desk_config(mode, 0, rounds=30)
    if mode == "ldp":
        cfg.ldp_scale = 0.1
    csv = orch.metrics_to_csv(orch.run(cfg).metrics)
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_DESK_T30[mode]


# SHA-256 of metrics_to_csv and of trajectory.tobytes() for T=30 desk runs
# that the four modes above leave out: other quantization levels, the
# harmonic rule in the quantized mode, and ragged Laplace splits.
GOLDEN_DESK_T30_VARIANTS = {
    "mspdq_level16": (
        "mspdq", {"level": 16},
        "504838eafe4df2626e2540870d3e36aebabc8ea3a0938fde2f5ab351b3ba5e38",
        "4b31f1b439263d7d3ef2cec7bb7ea5d5e84eb2251c50864f15a4d87b86aab5b2",
    ),
    "mspdq_level4096": (
        "mspdq", {"level": 4096},
        "e63b8cb1c2b94cb8ff72305fe369905200efa438c02ed3e7dc6a08e17f5da24a",
        "7bf0194f55b5423e82754fd3d159d2ca8f6b616b2c762622364303a122fdd87b",
    ),
    "mspdq_harmonic": (
        "mspdq", {"weight_rule": "harmonic"},
        "2f6789ab1426aec001cf9a726dd1f83a28196754e0d224682cd5297b7a40c4cd",
        "b81c4c9c22215f07f5007938d682c19566a5369ce893bbc55384b17dee135a01",
    ),
    "msp_m2_laplace": (
        "msp", {"split_m": 2, "split_variant": "laplace", "gamma_max": 0.15},
        "1dfe650180dd1bbf73ebc7c5369eea34f1039e53a52c23aab74ad9c026add5fd",
        "1b72d4706e873f23072c698a793687c52703767bf8195106e5f61bd077ebdc4a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DESK_T30_VARIANTS))
def test_desk_variants_match_golden_hashes(name):
    mode, fields, csv_hash, traj_hash = GOLDEN_DESK_T30_VARIANTS[name]
    cfg = dataclasses.replace(desk_config(mode, 0, rounds=30), **fields)
    result = orch.run(cfg)
    csv = orch.metrics_to_csv(result.metrics)
    assert hashlib.sha256(csv.encode()).hexdigest() == csv_hash
    assert hashlib.sha256(result.trajectory.tobytes()).hexdigest() == traj_hash


_PERTURBED = {"mode": "mspdq", "weight_rule": "harmonic", "split_variant": "laplace"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(orch.FLConfig)])
def test_problem_key_changes_whenever_the_problem_does(name):
    base = small_config("msp")
    value = getattr(base, name)
    if name in _PERTURBED:
        new = _PERTURBED[name]
    elif value is None:
        new = 1
    else:
        new = value + 1 if isinstance(value, int) else value * 1.25
    other = dataclasses.replace(base, **{name: new})
    same_key = orch.problem_key(other) == orch.problem_key(base)
    same_problem = problem_bytes(orch.build_problem(other)) == problem_bytes(orch.build_problem(base))
    assert same_key == same_problem, name


def problem_bytes(bundle):
    """The pickled problem itself: the stacks and constants, not the key the
    bundle stores."""
    return pickle.dumps((bundle.p, bundle.A, bundle.b, bundle.targets, bundle.constants))


def test_run_refuses_a_bundle_built_for_another_problem():
    cfg = small_config("msp", rounds=2)
    bundle = orch.build_problem(cfg)
    other = dataclasses.replace(cfg, n_clients=5, ball_radius=50.0, batch_size=2)
    with pytest.raises(ConfigError, match="n_clients 6 in the bundle, 5 in the config") as err:
        orch.run(other, bundle)
    for name in ("ball_radius", "batch_size"):
        assert name in str(err.value)
    for name in ("dim", "n_samples", "spread"):
        assert name not in str(err.value)
    with pytest.raises(ConfigError, match="dim"):
        orch.run(dataclasses.replace(cfg, dim=4), bundle)
    # fields outside the problem key share the bundle
    orch.run(dataclasses.replace(cfg, seed=3, mode="mspdq", weight_rule="harmonic"), bundle)


# SHA-256 of json.dumps(theorem_constants(...), sort_keys=True) on desk
# bundles, the constants `fedsplit run` writes to manifest.json.
GOLDEN_THEOREM_CONSTANTS = {
    "msp": ({}, "611db196f1902f17ef2b5a6defc0c9dd643c1128a06b488cd634713c9f1afeab"),
    "mspdq": ({}, "24a06d1a2da148b21bcabc10bf9552727e68c93ac7e6121f63ecb0de66bb274a"),
    "msp_no_gamma_target": (
        {"gamma_target": None, "center_offset": 0.0},
        "4e694fc7f7f384d700eb3abd7701c0dc1500e3e562e26358b48df2e9aceb6714",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_THEOREM_CONSTANTS))
def test_theorem_constants_match_golden_hashes(name):
    fields, digest = GOLDEN_THEOREM_CONSTANTS[name]
    cfg = dataclasses.replace(desk_config(name.split("_")[0], 0, level=256), **fields)
    constants = orch.theorem_constants(orch.build_problem(cfg), cfg)
    assert hashlib.sha256(json.dumps(constants, sort_keys=True).encode()).hexdigest() == digest
