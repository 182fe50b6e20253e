import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from fedsplit import orchestrator as orch
from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError
from fedsplit.problem import (
    batch_target_means,
    global_loss,
    global_optimum,
    gradient_norm_bound,
    heterogeneity_gamma,
    make_client_targets,
    make_quadratic_problem,
    problem_constants,
    sigma_bound,
    stochastic_gradient,
)


def one_client_gradient(A, targets, i, w, batch):
    """stochastic_gradient on the u = 1 stack of client i, at the mean
    target of one batch."""
    y_mean = batch_target_means(targets, np.array([i]), np.asarray(batch)[None, None])[0]
    return stochastic_gradient(A[i : i + 1], w[None], y_mean)[0]


def uniform(n):
    return np.full(n, 1.0 / n)


def two_client_line(b0=0.0, b1=2.0):
    """(A, b, p) of two unit-curvature clients on a line."""
    return np.ones((2, 1, 1)), np.array([[b0], [b1]]), uniform(2)


def reference_anchors(A, b, n_samples, sample_spread, seed):
    """The per-client anchor draws c_ij = b_i + xi_ij, as a per-client loop."""
    rng = rngmod.stream(seed, rngmod.PROBLEM, 1)
    out = []
    for bi in b:
        xi = sample_spread * rng.standard_normal((n_samples, len(bi)))
        xi -= xi.mean(axis=0)
        out.append(bi + xi)
    return out


def test_make_problem_zero_spread_is_homogeneous():
    A, b = make_quadratic_problem(2, 1, 0.0, seed=1)
    assert np.allclose(b[0], b[1])
    assert heterogeneity_gamma(A, b, uniform(2)) == pytest.approx(0.0, abs=1e-12)


def test_make_problem_reads_back_fields():
    A, b = make_quadratic_problem(3, 4, 1.5, seed=7)
    assert A.shape == (3, 4, 4) and b.shape == (3, 4)
    # symmetric by construction, exactly
    assert np.array_equal(A, A.transpose(0, 2, 1))


def test_make_problem_deterministic_in_seed():
    a = make_quadratic_problem(3, 4, 1.5, seed=7)
    b = make_quadratic_problem(3, 4, 1.5, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_make_problem_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        make_quadratic_problem(0, 3, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_quadratic_problem(3, 0, 1.0, seed=0)


def test_indefinite_curvature_and_non_distribution_weights_raise():
    targets = np.zeros((1, 4, 1))
    with pytest.raises(ConfigError, match="mu"):
        problem_constants(np.array([[[-1.0]]]), np.zeros((1, 1)), np.ones(1), targets, 2, 1.0)
    with pytest.raises(ConfigError, match="mu"):
        A = np.array([[[1.0, 0.0], [0.0, -0.5]]])
        problem_constants(A, np.ones((1, 2)), np.ones(1), np.zeros((1, 4, 2)), 2, 1.0)
    with pytest.raises(ConfigError, match="singular"):
        problem_constants(np.zeros((1, 1, 1)), np.zeros((1, 1)), np.ones(1), targets, 2, 1.0)
    A, b, _ = two_client_line()
    for p in ([0.5, 0.6], [1.5, -0.5], [0.5, 0.5 + 1e-11]):
        with pytest.raises(ConfigError, match="distribution"):
            global_optimum(A, b, np.array(p))


def test_global_optimum_closed_form():
    w_star, F_star = global_optimum(*two_client_line())
    assert w_star[0] == pytest.approx(1.0, abs=1e-12)
    assert F_star == pytest.approx(0.5, abs=1e-12)


def test_global_optimum_single_client():
    w_star, F_star = global_optimum(np.eye(2)[None], np.array([[3.0, -1.0]]), np.ones(1))
    assert np.allclose(w_star, [3.0, -1.0])
    assert F_star == pytest.approx(0.0, abs=1e-14)


def test_global_optimum_identical_minimizers():
    A, b = make_quadratic_problem(4, 3, 0.0, seed=3)
    w_star, F_star = global_optimum(A, b, uniform(4))
    assert np.allclose(w_star, b[0], atol=1e-10)
    assert F_star == pytest.approx(0.0, abs=1e-12)


def test_global_optimum_stationarity():
    A, b = make_quadratic_problem(5, 6, 2.0, seed=11)
    p = uniform(5)
    w_star, _ = global_optimum(A, b, p)
    grad = sum(pi * Ai @ (w_star - bi) for pi, Ai, bi in zip(p, A, b))
    assert np.linalg.norm(grad) <= 1e-10


def test_heterogeneity_matches_closed_form():
    assert heterogeneity_gamma(*two_client_line()) == pytest.approx(0.5, abs=1e-12)


def test_heterogeneity_against_numeric_minimization():
    # independent oracle: gradient descent on the aggregate quadratic
    A, b = make_quadratic_problem(3, 2, 1.0, seed=5)
    p = uniform(3)
    w = np.zeros(2)
    for _ in range(3000):
        g = sum(pi * Ai @ (w - bi) for pi, Ai, bi in zip(p, A, b))
        w -= 0.3 * g
    F_min = sum(pi * 0.5 * (w - bi) @ Ai @ (w - bi) for pi, Ai, bi in zip(p, A, b))
    assert heterogeneity_gamma(A, b, p) == pytest.approx(F_min, rel=1e-8)
    assert heterogeneity_gamma(A, b, p) >= 0


def test_eigenvalues_within_declared_range():
    A, _ = make_quadratic_problem(6, 5, 1.0, seed=2, eig_range=(0.4, 1.2))
    eigs = np.linalg.eigvalsh(A)
    assert eigs.min() >= 0.4 - 1e-12 and eigs.max() <= 1.2 + 1e-12


def test_full_batch_gradient_is_exact():
    A, b = make_quadratic_problem(2, 3, 1.0, seed=9)
    targets = make_client_targets(A, b, 16, 0.8, seed=9)
    w = np.array([0.3, -1.0, 2.0])
    g = one_client_gradient(A, targets, 0, w, np.arange(16))
    assert np.allclose(g, A[0] @ (w - b[0]), atol=1e-12)
    g0 = one_client_gradient(A, targets, 0, b[0], np.arange(16))
    assert np.allclose(g0, 0.0, atol=1e-12)


def test_stochastic_gradient_rejects_empty_batch():
    A, b = make_quadratic_problem(1, 2, 0.0, seed=0)
    targets = make_client_targets(A, b, 8, 1.0, seed=0)
    with pytest.raises(ConfigError):
        one_client_gradient(A, targets, 0, np.zeros(2), np.array([], dtype=int))


@given(
    n_clients=st.integers(1, 6),
    n=st.integers(1, 9),
    d=st.integers(1, 5),
    E=st.integers(1, 3),
    u=st.integers(1, 6),
    s=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@example(n_clients=3, n=4, d=2, E=2, u=3, s=1, seed=0)
def test_batch_target_means_equals_the_advanced_index_gather(n_clients, n, d, E, u, s, seed):
    # the flat take reads what the advanced index reads, duplicate clients
    # and the last sample of the last client included
    rng = rngmod.stream(seed, 97)
    targets = rng.standard_normal((n_clients, n, d)) * 10.0 ** rng.integers(-3, 4, (n_clients, n, 1))
    targets.flags.writeable = False  # as a bundle holds them
    clients = rng.integers(0, n_clients, u)
    clients[0] = clients[-1] = n_clients - 1
    batches = rng.integers(0, n, (E, u, s))
    batches[-1, 0, -1] = n - 1
    want = np.add.reduce(targets[clients[:, None], batches], axis=-2) / s
    assert bits(batch_target_means(targets, clients, batches)) == bits(want)


def test_stochastic_gradient_monte_carlo_unbiased():
    A, b = make_quadratic_problem(1, 3, 1.0, seed=4)
    batch_size = 4
    targets = make_client_targets(A, b, 32, 1.0, seed=4)
    w = np.array([1.0, 0.0, -2.0])
    rng = rngmod.stream(123, 99)
    n = 100_000
    idx = rng.integers(0, 32, size=(n, batch_size))
    means = targets[0][idx].mean(axis=1)
    grads = A[0] @ w - means
    mc = grads.mean(axis=0)
    sigma = sigma_bound(A, b, targets, batch_size)[0]
    assert np.linalg.norm(mc - A[0] @ (w - b[0])) <= 4.0 * np.sqrt(sigma) / np.sqrt(n)


def test_sigma_bound_is_exact_second_moment():
    A, b = make_quadratic_problem(1, 2, 1.0, seed=8)
    batch_size = 3
    targets = make_client_targets(A, b, 12, 0.7, seed=8)
    noise = targets[0] - A[0] @ b[0]
    # enumerate all single draws: with-replacement batch of size s has
    # second moment (1/s) * mean ||single||^2
    exact = np.mean(np.sum(noise**2, axis=1)) / batch_size
    assert sigma_bound(A, b, targets, batch_size)[0] == pytest.approx(exact, rel=1e-12)


def test_gradient_norm_bound_holds_on_ball():
    A, b = make_quadratic_problem(3, 4, 1.0, seed=6)
    targets = make_client_targets(A, b, 16, 0.5, seed=6)
    sigma = sigma_bound(A, b, targets, 4)
    w_star, _ = global_optimum(A, b, uniform(3))
    radius = 2.0
    G = gradient_norm_bound(A, b, sigma, w_star, radius)
    rng = rngmod.stream(0, 55)
    for _ in range(200):
        delta = rng.standard_normal(4)
        w = w_star + radius * delta / np.linalg.norm(delta) * rng.random()
        for Ai, bi, si in zip(A, b, sigma):
            assert np.sum((Ai @ (w - bi)) ** 2) + si <= G + 1e-9


def test_problem_constants_invariants():
    A, b = make_quadratic_problem(4, 3, 1.0, seed=10)
    targets = make_client_targets(A, b, 16, 1.0, seed=10)
    pc = problem_constants(A, b, uniform(4), targets, 4, radius=2.0)
    assert 0 < pc.mu <= pc.L
    assert pc.gamma_het >= 0


def test_dataset_batch_size_invariant():
    # the range has one owner, FLConfig.validate
    cfg = orch.FLConfig(
        n_clients=2, cohort=1, dim=1, local_steps=1, rounds=1, mode="fedavg", seed=0,
        n_samples=1, batch_size=2,
    )
    with pytest.raises(ConfigError, match="batch_size"):
        cfg.validate()
    with pytest.raises(ConfigError, match="batch_size"):
        dataclasses.replace(cfg, batch_size=0).validate()


def test_dataset_targets_are_per_row_products():
    A, b = make_quadratic_problem(3, 5, 1.0, seed=13)
    targets = make_client_targets(A, b, 20, 0.9, seed=13)
    assert targets.shape == (3, 20, 5)
    for Ai, anchors, ti in zip(A, reference_anchors(A, b, 20, 0.9, seed=13), targets):
        for j in range(20):
            assert np.array_equal(ti[j], Ai @ anchors[j])


def test_stochastic_gradient_matches_per_sample_loop():
    A, b = make_quadratic_problem(2, 4, 1.0, seed=14)
    targets = make_client_targets(A, b, 16, 1.0, seed=14)
    anchors = reference_anchors(A, b, 16, 1.0, seed=14)[1]
    w = np.array([0.5, -1.5, 2.0, 0.25])
    for batch in ([3], [0, 0, 7, 15], [5, 2, 9, 11, 2, 14], list(range(16))):
        ys = np.stack([A[1] @ anchors[j] for j in batch])
        expected = A[1] @ w - ys.mean(axis=0)
        got = one_client_gradient(A, targets, 1, w, np.array(batch))
        assert np.array_equal(got, expected)


def test_dataset_arrays_are_read_only():
    cfg = orch.FLConfig(n_clients=3, cohort=2, dim=2, local_steps=1, rounds=1, mode="fedavg", seed=0)
    bundle = orch.build_problem(cfg)
    pc = bundle.constants
    for stack in (bundle.p, bundle.A, bundle.b, bundle.targets, pc.sigma_i, pc.w_star):
        assert not stack.flags.writeable
    assert bundle.A.shape == (cfg.n_clients, cfg.dim, cfg.dim)
    assert bundle.targets.shape == (cfg.n_clients, cfg.n_samples, cfg.dim)
    with pytest.raises(ValueError):
        bundle.targets[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        bundle.b[0] += 1.0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_weights_always_normalized(n_clients, dim):
    cfg = orch.FLConfig(
        n_clients=n_clients, cohort=1, dim=dim, local_steps=1, rounds=1, mode="fedavg", seed=0,
        spread=0.7, problem_seed=20,
    )
    p = orch.build_problem(cfg).p
    assert p.shape == (n_clients,) and np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


# -- the per-client reference ---------------------------------------------------


def reference_problem(cfg):
    """The problem built client by client: per-client curvatures, sums of
    per-client losses for w*, F* and the heterogeneity, per-row target
    products, and per-client sigma and G.  Returns the constants and the
    loss F(w)."""
    rng = rngmod.stream(cfg.problem_seed, rngmod.PROBLEM)
    A, b = [], []
    for _ in range(cfg.n_clients):
        eigs = rng.uniform(cfg.eig_lo, cfg.eig_hi, size=cfg.dim)
        q, _ = np.linalg.qr(rng.standard_normal((cfg.dim, cfg.dim)))
        Ai = (q * eigs) @ q.T
        A.append(0.5 * (Ai + Ai.T))
        b.append(cfg.spread * rng.standard_normal(cfg.dim))
    p = 1.0 / cfg.n_clients

    def value(i, w):
        d = w - b[i]
        return 0.5 * float(d @ A[i] @ d)

    def loss(w):
        return float(sum(p * value(i, w) for i in range(cfg.n_clients)))

    def optimum():
        H = sum(p * Ai for Ai in A)
        rhs = sum(p * Ai @ bi for Ai, bi in zip(A, b))
        w_star = np.linalg.solve(H, rhs)
        return w_star, loss(w_star)

    if cfg.gamma_target is not None and cfg.gamma_target > 0:
        scale = math.sqrt(cfg.gamma_target / optimum()[1])
        b = [bi * scale for bi in b]
    if cfg.center_offset:
        shift = cfg.center_offset * np.ones(cfg.dim) / math.sqrt(cfg.dim)
        b = [bi + shift for bi in b]
    targets = [
        np.stack([Ai @ c for c in anchors])
        for Ai, anchors in zip(A, reference_anchors(A, b, cfg.n_samples, cfg.sample_spread, cfg.problem_seed))
    ]
    w_star, F_star = optimum()
    sigma = [
        float(np.mean(np.sum((ti - Ai @ bi) ** 2, axis=1)) / cfg.batch_size)
        for Ai, bi, ti in zip(A, b, targets)
    ]
    G = 0.0
    for Ai, bi, si in zip(A, b, sigma):
        lam_max = float(np.max(np.linalg.eigvalsh(Ai)))
        base = float(np.linalg.norm(Ai @ (w_star - bi))) + cfg.ball_radius * lam_max
        G = max(G, base**2 + si)
    gamma_het = F_star - sum(p * value(i, b[i]) for i in range(cfg.n_clients))
    return {
        "targets": np.stack(targets), "w_star": w_star, "F_star": F_star,
        "sigma_i": np.array(sigma), "G": G, "gamma_het": gamma_het,
    }, loss


def bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


@given(
    n_clients=st.integers(1, 8),
    dim=st.integers(1, 9),
    spread=st.floats(0.05, 3.0),
    sample_spread=st.floats(0.0, 2.0),
    n_samples=st.sampled_from([1, 3, 8, 13, 64]),
    batch_frac=st.floats(0.0, 1.0),
    gamma_target=st.sampled_from([None, 0.2, 1.5]),
    center_offset=st.sampled_from([0.0, 3.0, -1.25]),
    seed=st.integers(0, 2**16),
)
def test_stacked_problem_matches_per_client_reference(
    n_clients, dim, spread, sample_spread, n_samples, batch_frac, gamma_target, center_offset, seed
):
    # one client has zero heterogeneity at any spread, so no gamma_target can be hit
    assume(n_clients > 1 or gamma_target is None)
    cfg = orch.FLConfig(
        n_clients=n_clients, cohort=3, dim=dim, local_steps=2, rounds=4, mode="fedavg", seed=seed,
        problem_seed=seed, spread=spread, sample_spread=sample_spread, n_samples=n_samples,
        batch_size=max(1, round(batch_frac * n_samples)), gamma_target=gamma_target,
        center_offset=center_offset, ball_radius=1e6,
    )
    bundle = orch.build_problem(cfg)
    want, loss = reference_problem(cfg)
    pc = bundle.constants
    assert bits(bundle.targets) == bits(want["targets"])
    for name in ("w_star", "F_star", "sigma_i", "G", "gamma_het"):
        assert bits(getattr(pc, name)) == bits(want[name]), name
    for w in rngmod.stream(seed, 98).standard_normal((3, dim)) * [[0.0], [1.0], [50.0]]:
        assert bits(global_loss(bundle.A, bundle.b, bundle.p, w)) == bits(loss(w))
    result = orch.run(cfg, bundle)
    gaps = [loss(w) - want["F_star"] for w in result.trajectory[1:]]
    assert bits([m.gap for m in result.metrics]) == bits(gaps)
    # each client's loss at its own minimizer is exactly zero
    assert global_loss(bundle.A, bundle.b, bundle.p, bundle.b) == 0.0

