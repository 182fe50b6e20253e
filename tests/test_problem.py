import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsplit import rng as rngmod
from fedsplit.errors import ConfigError
from fedsplit.problem import (
    ClientDataset,
    QuadraticClientLoss,
    global_optimum,
    gradient_norm_bound,
    heterogeneity_gamma,
    make_client_datasets,
    make_quadratic_problem,
    problem_constants,
    sigma_bound,
    stochastic_gradient,
)


def one_client_gradient(loss, ds, w, batch):
    """stochastic_gradient on the u = 1 stack of one client."""
    return stochastic_gradient(loss.A[None], ds.targets[None], w[None], np.asarray(batch)[None])[0]


def two_client_line(b0=0.0, b1=2.0):
    return [
        QuadraticClientLoss(A=np.eye(1), b=np.array([b0]), p=0.5),
        QuadraticClientLoss(A=np.eye(1), b=np.array([b1]), p=0.5),
    ]


def test_make_problem_zero_spread_is_homogeneous():
    losses = make_quadratic_problem(2, 1, 0.0, seed=1)
    assert np.allclose(losses[0].b, losses[1].b)
    assert heterogeneity_gamma(losses) == pytest.approx(0.0, abs=1e-12)


def test_make_problem_reads_back_fields():
    losses = two_client_line()
    assert losses[0].b[0] == 0.0 and losses[1].b[0] == 2.0
    assert losses[0].p == losses[1].p == 0.5


def test_make_problem_deterministic_in_seed():
    a = make_quadratic_problem(3, 4, 1.5, seed=7)
    b = make_quadratic_problem(3, 4, 1.5, seed=7)
    for la, lb in zip(a, b):
        assert np.array_equal(la.A, lb.A) and np.array_equal(la.b, lb.b)


def test_make_problem_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        make_quadratic_problem(0, 3, 1.0, seed=0)
    with pytest.raises(ConfigError):
        make_quadratic_problem(3, 0, 1.0, seed=0)


def test_loss_type_rejects_asymmetric_or_indefinite():
    with pytest.raises(ConfigError):
        QuadraticClientLoss(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2), p=1.0)
    with pytest.raises(ConfigError):
        QuadraticClientLoss(A=np.array([[-1.0]]), b=np.zeros(1), p=1.0)


def test_global_optimum_closed_form():
    w_star, F_star = global_optimum(two_client_line())
    assert w_star[0] == pytest.approx(1.0, abs=1e-12)
    assert F_star == pytest.approx(0.5, abs=1e-12)


def test_global_optimum_single_client():
    losses = [QuadraticClientLoss(A=np.eye(2), b=np.array([3.0, -1.0]), p=1.0)]
    w_star, F_star = global_optimum(losses)
    assert np.allclose(w_star, [3.0, -1.0])
    assert F_star == pytest.approx(0.0, abs=1e-14)


def test_global_optimum_identical_minimizers():
    losses = make_quadratic_problem(4, 3, 0.0, seed=3)
    w_star, F_star = global_optimum(losses)
    assert np.allclose(w_star, losses[0].b, atol=1e-10)
    assert F_star == pytest.approx(0.0, abs=1e-12)


def test_global_optimum_stationarity():
    losses = make_quadratic_problem(5, 6, 2.0, seed=11)
    w_star, _ = global_optimum(losses)
    grad = sum(l.p * l.grad(w_star) for l in losses)
    assert np.linalg.norm(grad) <= 1e-10


def test_heterogeneity_matches_closed_form():
    assert heterogeneity_gamma(two_client_line()) == pytest.approx(0.5, abs=1e-12)


def test_heterogeneity_against_numeric_minimization():
    # independent oracle: coordinate descent on the aggregate quadratic
    losses = make_quadratic_problem(3, 2, 1.0, seed=5)
    w = np.zeros(2)
    for _ in range(3000):
        g = sum(l.p * l.grad(w) for l in losses)
        w -= 0.3 * g
    F_min = sum(l.p * l.value(w) for l in losses)
    assert heterogeneity_gamma(losses) == pytest.approx(F_min, rel=1e-8)
    assert heterogeneity_gamma(losses) >= 0


def test_eigenvalues_within_declared_range():
    losses = make_quadratic_problem(6, 5, 1.0, seed=2, eig_range=(0.4, 1.2))
    for l in losses:
        eigs = np.linalg.eigvalsh(l.A)
        assert eigs.min() >= 0.4 - 1e-12 and eigs.max() <= 1.2 + 1e-12


def test_full_batch_gradient_is_exact():
    losses = make_quadratic_problem(2, 3, 1.0, seed=9)
    datasets = make_client_datasets(losses, 16, 4, 0.8, seed=9)
    w = np.array([0.3, -1.0, 2.0])
    g = one_client_gradient(losses[0], datasets[0], w, np.arange(16))
    assert np.allclose(g, losses[0].grad(w), atol=1e-12)
    g0 = one_client_gradient(losses[0], datasets[0], losses[0].b, np.arange(16))
    assert np.allclose(g0, 0.0, atol=1e-12)


def test_stochastic_gradient_rejects_empty_batch():
    losses = make_quadratic_problem(1, 2, 0.0, seed=0)
    datasets = make_client_datasets(losses, 8, 2, 1.0, seed=0)
    with pytest.raises(ConfigError):
        one_client_gradient(losses[0], datasets[0], np.zeros(2), np.array([], dtype=int))


def test_stochastic_gradient_monte_carlo_unbiased():
    losses = make_quadratic_problem(1, 3, 1.0, seed=4)
    datasets = make_client_datasets(losses, 32, 4, 1.0, seed=4)
    loss, ds = losses[0], datasets[0]
    w = np.array([1.0, 0.0, -2.0])
    rng = rngmod.stream(123, 99)
    n = 100_000
    idx = rng.integers(0, ds.n, size=(n, ds.batch_size))
    targets = ds.targets
    means = targets[idx].mean(axis=1)
    grads = loss.A @ w - means
    mc = grads.mean(axis=0)
    sigma = sigma_bound(loss, ds)
    assert np.linalg.norm(mc - loss.grad(w)) <= 4.0 * np.sqrt(sigma) / np.sqrt(n)


def test_sigma_bound_is_exact_second_moment():
    losses = make_quadratic_problem(1, 2, 1.0, seed=8)
    datasets = make_client_datasets(losses, 12, 3, 0.7, seed=8)
    loss, ds = losses[0], datasets[0]
    noise = ds.targets - loss.A @ loss.b
    # enumerate all single draws: with-replacement batch of size s has
    # second moment (1/s) * mean ||single||^2
    exact = np.mean(np.sum(noise**2, axis=1)) / ds.batch_size
    assert sigma_bound(loss, ds) == pytest.approx(exact, rel=1e-12)


def test_gradient_norm_bound_holds_on_ball():
    losses = make_quadratic_problem(3, 4, 1.0, seed=6)
    datasets = make_client_datasets(losses, 16, 4, 0.5, seed=6)
    w_star, _ = global_optimum(losses)
    radius = 2.0
    G = gradient_norm_bound(losses, datasets, w_star, radius)
    rng = rngmod.stream(0, 55)
    for _ in range(200):
        delta = rng.standard_normal(4)
        w = w_star + radius * delta / np.linalg.norm(delta) * rng.random()
        for l, d in zip(losses, datasets):
            assert np.sum(l.grad(w) ** 2) + sigma_bound(l, d) <= G + 1e-9


def test_problem_constants_invariants():
    losses = make_quadratic_problem(4, 3, 1.0, seed=10)
    datasets = make_client_datasets(losses, 16, 4, 1.0, seed=10)
    pc = problem_constants(losses, datasets, radius=2.0)
    assert 0 < pc.mu <= pc.L
    assert pc.gamma_het >= 0


def test_dataset_batch_size_invariant():
    with pytest.raises(ConfigError):
        ClientDataset(anchors=np.zeros((1, 1)), targets=np.zeros((1, 1)), batch_size=2)


def test_dataset_targets_are_per_row_products():
    losses = make_quadratic_problem(3, 5, 1.0, seed=13)
    datasets = make_client_datasets(losses, 20, 4, 0.9, seed=13)
    for loss, ds in zip(losses, datasets):
        assert ds.anchors.shape == ds.targets.shape == (20, 5)
        for j in range(ds.n):
            assert np.array_equal(ds.targets[j], loss.A @ ds.anchors[j])


def test_stochastic_gradient_matches_per_sample_loop():
    losses = make_quadratic_problem(2, 4, 1.0, seed=14)
    datasets = make_client_datasets(losses, 16, 4, 1.0, seed=14)
    loss, ds = losses[1], datasets[1]
    w = np.array([0.5, -1.5, 2.0, 0.25])
    for batch in ([3], [0, 0, 7, 15], [5, 2, 9, 11, 2, 14], list(range(16))):
        ys = np.stack([loss.A @ ds.anchors[j] for j in batch])
        expected = loss.A @ w - ys.mean(axis=0)
        got = one_client_gradient(loss, ds, w, np.array(batch))
        assert np.array_equal(got, expected)


def test_dataset_arrays_are_read_only():
    losses = make_quadratic_problem(1, 2, 1.0, seed=15)
    ds = make_client_datasets(losses, 8, 2, 1.0, seed=15)[0]
    with pytest.raises(ValueError):
        ds.targets[0, 0] = 1.0
    with pytest.raises(ValueError):
        ds.anchors[0] += 1.0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_weights_always_normalized(n_clients, dim):
    losses = make_quadratic_problem(n_clients, dim, 0.7, seed=20)
    assert sum(l.p for l in losses) == pytest.approx(1.0, abs=1e-12)
