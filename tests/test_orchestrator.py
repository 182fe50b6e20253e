import dataclasses
import hashlib
import pickle

import numpy as np
import pytest
from scipy import stats

from fedsplit import orchestrator as orch
from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError, ProtocolIntegrityError
from fedsplit.presets import desk_config
from fedsplit.problem import make_client_datasets, make_quadratic_problem


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
    losses = make_quadratic_problem(1, 1, 0.0, seed=0)
    losses = [type(losses[0])(A=np.eye(1), b=np.array([1.0]), p=1.0)]
    datasets = make_client_datasets(losses, 8, 8, 0.0, seed=0)
    rng = rngmod.stream(0, 4)
    w = orch.local_sgd(np.zeros(1), losses[0], datasets[0], eta=0.5, E=1, rng=rng)
    assert w[0] == pytest.approx(0.5, abs=1e-12)
    w_fix = orch.local_sgd(np.array([1.0]), losses[0], datasets[0], eta=0.5, E=3, rng=rng)
    assert w_fix[0] == pytest.approx(1.0, abs=1e-12)


def test_local_sgd_full_batch_matches_linear_recursion():
    losses = make_quadratic_problem(1, 3, 1.0, seed=5)
    datasets = make_client_datasets(losses, 8, 8, 0.0, seed=5)
    loss = losses[0]
    w0 = np.array([2.0, -1.0, 0.5])
    eta, E = 0.3, 6
    rng = rngmod.stream(1, 4)
    w = orch.local_sgd(w0, loss, datasets[0], eta, E, rng)
    M = np.eye(3) - eta * loss.A
    expected = loss.b + np.linalg.matrix_power(M, E) @ (w0 - loss.b)
    assert np.allclose(w, expected, atol=1e-12)


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
    loss = bundle.losses[0]
    for t in range(1, cfg.rounds + 1):
        eta = orch.lr_schedule(t, pc.mu, vt)
        for _ in range(cfg.local_steps):
            w = w - eta * loss.grad(w)
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


def test_theorem_constants_formulas():
    assert orch.d3_formula(10, 0.2, 24.0, 4, 8) == pytest.approx(2.2145e-4, rel=1e-3)
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
    same_problem = pickle.dumps(orch.build_problem(other)) == pickle.dumps(orch.build_problem(base))
    assert same_key == same_problem, name
