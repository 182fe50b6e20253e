import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit.errors import ConfigError, ScheduleValidationError
from fedsplit.spectral import (
    StepWeights,
    build_U,
    check_step_weight_budget,
    contraction_probe,
    fit_contraction_constant,
    lambda2_U,
    lambda_min_U,
    step_weight_cap,
)

from oracles import build_P, phi_deviation, phi_product

PSD_TOL = 1e-10
# The kernel and the block matrices round differently: over at most 40
# rounds their O(1) entries differ by a few ulps of 1, so a deviation at
# that floor compares absolutely.
DEV_ATOL = 1e-14


def is_doubly_stochastic(mat: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(
        np.all(np.abs(mat.sum(axis=0) - 1.0) <= tol)
        and np.all(np.abs(mat.sum(axis=1) - 1.0) <= tol)
    )


def is_psd(mat: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(mat))))
    return bool(np.min(np.linalg.eigvalsh(0.5 * (mat + mat.T))) >= -PSD_TOL * scale)


def test_build_U_two_clients():
    u = build_U(2, 0.5)
    assert np.allclose(u, [[0.75, 0.25], [0.25, 0.75]], atol=0)


def test_build_U_rejects_boundary():
    with pytest.raises(ConfigError):
        build_U(2, 0.0)
    with pytest.raises(ConfigError):
        build_U(2, 2.0)


def test_build_U_uniform_averaging_case():
    u = build_U(3, 1.0)
    assert np.allclose(u, np.full((3, 3), 1.0 / 3.0))


def test_eigenvalue_closed_forms():
    u = build_U(2, 0.5)
    assert lambda2_U(u) == pytest.approx(0.5, abs=1e-12)
    assert lambda_min_U(u) == pytest.approx(0.5, abs=1e-12)
    u_small = build_U(3, 1e-9)
    assert lambda2_U(u_small) == pytest.approx(1.0, abs=1e-8)
    u_flat = build_U(4, 1.0)
    assert lambda2_U(u_flat) == pytest.approx(0.0, abs=1e-12)
    assert lambda_min_U(u_flat) == pytest.approx(0.0, abs=1e-12)


def test_eigenvalue_closed_forms_on_grid():
    # acceptance: lambda2 = |1 - eps| and lambda_min = 1 - eps within 1e-12
    for M in (2, 3, 5, 8, 16):
        hi = M / (M - 1)
        for eps in np.linspace(0.05, hi - 0.05, 9):
            u = build_U(M, float(eps))
            assert abs(lambda2_U(u) - abs(1 - eps)) <= 1e-12
            assert abs(lambda_min_U(u) - min(1.0, 1 - eps)) <= 1e-12


def test_step_weights_shapes_and_rules():
    w = StepWeights(gamma=np.full((3, 2), 0.1), rule="harmonic")
    assert np.allclose(w.at(0), 0.1)
    assert np.allclose(w.at(1), 0.05)
    assert w.table(4)[3, :, 0].max() == pytest.approx(0.025)
    wc = StepWeights(gamma=np.full((3, 1), 0.1), rule="constant")
    assert np.allclose(wc.at(5), 0.1)


def test_step_weights_nonincreasing_and_doubling():
    w = StepWeights(gamma=np.full((2, 1), 0.3), rule="harmonic")
    a_max = w.table(40)[:, :, 0].max(axis=1)
    for k in range(1, 40):
        assert a_max[k] <= a_max[k - 1]
    for k in range(1, 20):
        assert a_max[k] <= 2 * a_max[2 * k] + 1e-15


def test_step_weights_sum_condition():
    u = build_U(2, 0.5)  # lambda_min = 0.5, cap = 1/3
    check_step_weight_budget(0.2, u, "sum of max step weights")
    with pytest.raises(ScheduleValidationError, match="sum of max step weights 0.4"):
        check_step_weight_budget(0.4, u, "sum of max step weights")


def test_build_P_zero_coupling_is_block_diagonal():
    u = build_U(2, 0.5)
    P = build_P(u, np.zeros((2, 1)), 1)
    expected = np.zeros((4, 4))
    expected[:2, :2] = u
    expected[2:, 2:] = np.eye(2)
    assert np.array_equal(P, expected)


def test_build_P_doubly_stochastic_and_psd():
    u = build_U(2, 0.5)
    P = build_P(u, np.full((2, 1), 0.2), 1)
    assert is_doubly_stochastic(P)
    assert is_psd(P)


def test_build_P_rejects_budget_violation():
    u = build_U(2, 0.5)
    with pytest.raises(ScheduleValidationError, match="lambda_min"):
        build_P(u, np.full((2, 1), 0.4), 1)


def test_psd_iff_condition_m1_uniform():
    # at m = 1 with uniform weights the gate is exact: a < lam/(1+lam)
    u = build_U(3, 0.6)
    lam = lambda_min_U(u)
    cap = lam / (1 + lam)
    P_ok = build_P(u, np.full((3, 1), 0.98 * cap), 1)
    assert is_psd(P_ok)
    A = np.full((3, 1), 1.2 * cap)
    n = 6
    # bypass the validator to inspect the raw matrix
    raw = np.zeros((n, n))
    raw[:3, :3] = u - np.diag(A[:, 0])
    raw[:3, 3:] = np.diag(A[:, 0])
    raw[3:, :3] = np.diag(A[:, 0])
    raw[3:, 3:] = np.eye(3) - np.diag(A[:, 0])
    assert not is_psd(raw)


def test_psd_sweep_under_valid_conditions():
    rng = np.random.default_rng(0)
    for _ in range(40):
        M = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.05, 0.95))
        u = build_U(M, eps)
        lam = lambda_min_U(u)
        cap = lam / (1 + lam)
        weights = rng.uniform(0.1, 0.9, size=(M, m))
        weights *= 0.95 * cap / np.sum(np.max(weights, axis=0))
        P = build_P(u, weights, m)
        assert is_doubly_stochastic(P)
        assert is_psd(P)


def test_phi_product_single_matrix():
    u = build_U(2, 0.5)
    P = build_P(u, np.full((2, 1), 0.2), 1)
    assert np.array_equal(phi_product([P]), P)


def test_phi_product_dimension_mismatch():
    u2 = build_U(2, 0.5)
    u3 = build_U(3, 0.5)
    with pytest.raises(ConfigError):
        phi_product([build_P(u2, np.zeros((2, 1)), 1), build_P(u3, np.zeros((3, 1)), 1)])


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=1, max_value=12),
)
def test_phi_product_stays_doubly_stochastic(M, m, eps, k):
    u = build_U(M, eps)
    lam = lambda_min_U(u)
    cap = lam / (1 + lam)
    weights = StepWeights(gamma=np.full((M, m), 0.8 * cap / m), rule="harmonic")
    mats = [build_P(u, weights.at(kk), m) for kk in range(k)]
    phi = phi_product(mats)
    assert is_doubly_stochastic(phi, tol=1e-10)


def test_contraction_curves_constant_vs_harmonic():
    # frozen oracle values from direct product computation; the harmonic
    # schedule contracts polynomially, the constant one geometrically
    u = build_U(2, 0.5)
    devs_h, _ = contraction_probe(0.5, StepWeights(gamma=np.full((2, 1), 0.2), rule="harmonic"), 31)
    devs_c, _ = contraction_probe(0.5, StepWeights(gamma=np.full((2, 1), 0.2), rule="constant"), 61)
    assert devs_h[30] == pytest.approx(0.2743, abs=2e-3)
    assert devs_c[30] == pytest.approx(5.97e-3, rel=0.05)
    assert devs_c[60] <= 1e-3
    assert np.all(np.diff(devs_h) <= 1e-12)
    assert np.all(np.diff(devs_c) <= 1e-12)


def test_phi_deviation_monotone_for_valid_schedules():
    rng = np.random.default_rng(7)
    for trial in range(20):
        M = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        eps = float(rng.uniform(0.1, 0.9))
        rule = ("constant", "harmonic")[trial % 2]
        u = build_U(M, eps)
        cap = lambda_min_U(u) / (1 + lambda_min_U(u))
        weights = StepWeights(gamma=np.full((M, m), 0.85 * cap / m), rule=rule)
        devs, _ = contraction_probe(eps, weights, 40)
        assert np.all(np.diff(devs) <= 1e-12)
        assert abs(phi_deviation(np.full((4, 4), 0.25))) == 0.0


@given(
    M=st.integers(1, 5),
    m=st.integers(1, 3),
    eps_frac=st.floats(0.01, 0.99),
    budget=st.floats(0.0, 0.99),
    rule=st.sampled_from(["constant", "harmonic", "inv_sqrt"]),
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_contraction_probe_matches_block_matrix_oracle(M, m, eps_frac, budget, rule, horizon, seed):
    # the probe runs the round kernel on the unit states; the oracle
    # multiplies build_P's block transitions
    eps = eps_frac * (M / (M - 1) if M > 1 else 2.0)
    u = build_U(M, eps)
    gamma = np.random.default_rng(seed).uniform(0.1, 1.0, size=(M, m))
    gamma *= budget * step_weight_cap(u) / gamma.max(axis=0).sum()
    weights = StepWeights(gamma=gamma, rule=rule)
    devs, factor = contraction_probe(eps, weights, horizon)
    mats = [build_P(u, weights.at(k), m) for k in range(horizon)]
    expected = np.array([phi_deviation(phi_product(mats[: k + 1])) for k in range(horizon)])
    np.testing.assert_allclose(devs, expected, rtol=1e-12, atol=DEV_ATOL)
    if horizon >= 2 and expected[-1] > DEV_ATOL:
        # the factor inherits the deviations' error, relative to each end
        rel = 1e-12 + (DEV_ATOL / expected[0] + DEV_ATOL / expected[-1]) / (horizon - 1)
        assert factor == pytest.approx((expected[-1] / expected[0]) ** (1.0 / (horizon - 1)), rel=rel)
    elif horizon == 1:
        assert factor == 0.0


PROBE_CHILD = """
import sys
import numpy as np
from fedsplit.presets import desk_config
from fedsplit.spectral import StepWeights, contraction_probe
# the desk horizons K_T at T = 500
for mode, horizon in (("msp", 35), ("mspdq", 130)):
    cfg = desk_config(mode, 0)
    weights = StepWeights(np.full((cfg.cohort, cfg.split_m), cfg.gamma_max), cfg.weight_rule)
    sys.stdout.write(contraction_probe(cfg.epsilon, weights, horizon)[0].tobytes().hex() + "\\n")
"""


def test_contraction_probe_bits_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel from the CPU unless OPENBLAS_CORETYPE names
    # one; each child sets it for itself alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outputs = {}
    for coretype in (None, "Haswell", "Sandybridge", "Prescott"):
        child_env = env if coretype is None else {**env, "OPENBLAS_CORETYPE": coretype}
        outputs[coretype] = subprocess.run(
            [sys.executable, "-c", PROBE_CHILD], env=child_env, check=True, capture_output=True, text=True, timeout=120
        ).stdout
    assert len(outputs[None].split()) == 2
    assert set(outputs.values()) == {outputs[None]}


def test_fit_contraction_constant_covers_curve():
    u = build_U(4, 0.6)
    weights = StepWeights(gamma=np.full((4, 1), 0.2), rule="constant")
    devs, measured = contraction_probe(0.6, weights, 50)
    lam = max(0.9, measured + 0.02)
    C = fit_contraction_constant(devs, lam)
    ks = np.arange(1, 51)
    assert np.all(devs <= C * lam**ks + 1e-15)


@given(
    M=st.integers(1, 6),
    m=st.integers(1, 4),
    K=st.integers(1, 200),
    rule=st.sampled_from(["constant", "harmonic", "inv_sqrt"]),
    seed=st.integers(0, 2**16),
)
def test_weight_table_rows_are_bitwise_at(M, m, K, rule, seed):
    gamma = np.random.default_rng(seed).uniform(0.0, 0.4, size=(M, m))
    weights = StepWeights(gamma=gamma, rule=rule)
    table = weights.table(K)
    assert table.shape == (K, M, m) and table.dtype == np.float64
    for k in range(K):
        assert table[k].tobytes() == weights.at(k).tobytes()
