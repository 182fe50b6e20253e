"""Synthetic strongly convex federated problems with computable constants.

Each client i holds a quadratic loss F_i(w) = 0.5 (w - b_i)^T A_i (w - b_i)
with SPD curvature A_i and probability weight p_i.  Mini-batch noise comes
from an exact per-sample decomposition of the quadratic, so the variance
bound sigma_i is computed, not assumed.  The non-i.i.d. level is a single
knob: the spread of the per-client minimizers b_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigError

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticClientLoss:
    """One client's loss: 0.5 (w - b)^T A (w - b), sampling weight p."""

    A: np.ndarray
    b: np.ndarray
    p: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.shape[0] != A.shape[1]:
            raise ConfigError("curvature matrix must be square")
        if np.max(np.abs(A - A.T)) > _SYM_TOL * max(1.0, np.max(np.abs(A))):
            raise ConfigError("curvature matrix must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            raise ConfigError("curvature matrix must be positive definite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, w: np.ndarray) -> float:
        d = w - self.b
        return 0.5 * float(d @ self.A @ d)

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.A @ (w - self.b)


@dataclass(frozen=True)
class ClientDataset:
    """Per-sample decomposition of a client quadratic.

    Sample j is the pair (anchor c_j, target y_j = A c_j); the per-sample loss
    0.5 (w - c_j)^T A (w - c_j) has gradient A w - y_j.  Anchors are centered
    so their mean is exactly the client minimizer, hence the full batch
    recovers the true gradient.  Both arrays are read-only: one dataset backs
    every seed that shares a problem bundle.
    """

    anchors: np.ndarray  # (n, d): row j is c_j
    targets: np.ndarray  # (n, d): row j is y_j = A c_j
    batch_size: int

    def __post_init__(self):
        if not 1 <= self.batch_size <= len(self.targets):
            raise ConfigError("batch_size must be in [1, n_samples]")
        self.anchors.flags.writeable = False
        self.targets.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class ProblemConstants:
    """Constants that gate the schedules and the convergence bounds."""

    mu: float
    L: float
    gamma_het: float
    sigma_i: np.ndarray
    G: float
    w_star: np.ndarray
    F_star: float

    def __post_init__(self):
        if not 0 < self.mu <= self.L:
            raise ConfigError("need 0 < mu <= L")
        if self.gamma_het < -1e-12:
            raise ConfigError("heterogeneity must be nonnegative")


def make_quadratic_problem(
    n_clients: int,
    dim: int,
    spread: float,
    seed: int,
    eig_range: tuple[float, float] = (0.5, 1.0),
) -> list[QuadraticClientLoss]:
    """Random SPD quadratics with minimizers spaced by `spread`.

    spread = 0 makes all clients identical (zero heterogeneity).
    Deterministic in `seed`.
    """
    if n_clients < 1 or dim < 1:
        raise ConfigError("need n_clients >= 1 and dim >= 1")
    if spread < 0:
        raise ConfigError("spread must be nonnegative")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ConfigError("eig_range must satisfy 0 < lo <= hi")
    rng = rngmod.stream(seed, rngmod.PROBLEM)
    losses = []
    p = 1.0 / n_clients
    for _ in range(n_clients):
        eigs = rng.uniform(lo, hi, size=dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        A = (q * eigs) @ q.T
        A = 0.5 * (A + A.T)
        b = spread * rng.standard_normal(dim)
        losses.append(QuadraticClientLoss(A=A, b=b, p=p))
    return losses


def global_optimum(losses: list[QuadraticClientLoss]) -> tuple[np.ndarray, float]:
    """Exact minimizer of sum_i p_i F_i: solves (sum p A) w = sum p A b."""
    ps = np.array([l.p for l in losses])
    if abs(ps.sum() - 1.0) > 1e-12:
        raise ConfigError("client weights must sum to 1")
    H = sum(l.p * l.A for l in losses)
    rhs = sum(l.p * l.A @ l.b for l in losses)
    w_star = np.linalg.solve(H, rhs)
    F_star = float(sum(l.p * l.value(w_star) for l in losses))
    return w_star, F_star


def heterogeneity_gamma(losses: list[QuadraticClientLoss]) -> float:
    """F* minus the weighted sum of per-client minima (zero for quadratics)."""
    _, F_star = global_optimum(losses)
    local_min = sum(l.p * l.value(l.b) for l in losses)
    return F_star - local_min


def make_client_datasets(
    losses: list[QuadraticClientLoss],
    n_samples: int,
    batch_size: int,
    sample_spread: float,
    seed: int,
) -> list[ClientDataset]:
    """Per-sample anchors c_j = b_i + xi_j with the xi_j centered to mean zero."""
    if n_samples < 1:
        raise ConfigError("need n_samples >= 1")
    rng = rngmod.stream(seed, rngmod.PROBLEM, 1)
    out = []
    for loss in losses:
        xi = sample_spread * rng.standard_normal((n_samples, loss.dim))
        xi -= xi.mean(axis=0)
        anchors = loss.b + xi
        # per-row products: anchors @ A.T may sum in another order
        targets = np.stack([loss.A @ anchors[j] for j in range(n_samples)])
        out.append(ClientDataset(anchors=anchors, targets=targets, batch_size=batch_size))
    return out


def sigma_bound(loss: QuadraticClientLoss, dataset: ClientDataset) -> float:
    """Exact second moment of the mini-batch gradient noise.

    Batches are drawn with replacement, so the noise A xi_bar has
    E||.||^2 = (1/s) mean_j ||A xi_j||^2 exactly.
    """
    noise = dataset.targets - loss.A @ loss.b
    return float(np.mean(np.sum(noise**2, axis=1)) / dataset.batch_size)


def gradient_norm_bound(
    losses: list[QuadraticClientLoss],
    datasets: list[ClientDataset],
    w_star: np.ndarray,
    radius: float,
) -> float:
    """Bound on E||stochastic gradient||^2 over the ball ||w - w*|| <= radius.

    ||A(w - b)|| <= ||A(w* - b)|| + radius * lambda_max(A) on the ball; the
    mini-batch noise adds its exact second moment.
    """
    G = 0.0
    for loss, ds in zip(losses, datasets):
        lam_max = float(np.max(np.linalg.eigvalsh(loss.A)))
        base = float(np.linalg.norm(loss.A @ (w_star - loss.b))) + radius * lam_max
        G = max(G, base**2 + sigma_bound(loss, ds))
    return G


def problem_constants(
    losses: list[QuadraticClientLoss],
    datasets: list[ClientDataset],
    radius: float,
) -> ProblemConstants:
    w_star, F_star = global_optimum(losses)
    eigs = [np.linalg.eigvalsh(l.A) for l in losses]
    mu = float(min(e.min() for e in eigs))
    L = float(max(e.max() for e in eigs))
    sigma = np.array([sigma_bound(l, d) for l, d in zip(losses, datasets)])
    G = gradient_norm_bound(losses, datasets, w_star, radius)
    return ProblemConstants(
        mu=mu,
        L=L,
        gamma_het=heterogeneity_gamma(losses),
        sigma_i=sigma,
        G=G,
        w_star=w_star,
        F_star=F_star,
    )


def stochastic_gradient(
    A: np.ndarray,
    targets: np.ndarray,
    w: np.ndarray,
    batch: np.ndarray,
) -> np.ndarray:
    """Unbiased mini-batch gradients A_i w_i - mean(y_ij over batch_i), one
    per stacked client.

    A is (u, d, d), targets (u, n, d), w (u, d) and batch (u, s): row i of
    `batch` holds client i's sample indices, drawn with replacement.  One
    client is the u = 1 stack.  The stacked matmul runs one gemv per client,
    bitwise A_i @ w_i.
    """
    if batch.shape[-1] == 0:
        raise ConfigError("batch must be nonempty")
    rows = np.arange(len(batch))[:, None]
    # np.add.reduce(x, axis=-2) / s is bitwise x.mean(axis=-2), without the wrapper
    y_mean = np.add.reduce(targets[rows, batch], axis=-2) / batch.shape[-1]
    return np.matmul(A, w[..., None])[..., 0] - y_mean
