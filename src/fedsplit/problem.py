"""Synthetic strongly convex federated problems with computable constants.

Each client i holds a quadratic loss F_i(w) = 0.5 (w - b_i)^T A_i (w - b_i)
with SPD curvature A_i and probability weight p_i; a task is held as
read-only client stacks (`ProblemBundle`).  Mini-batch noise comes from an
exact per-sample decomposition of the quadratic, so the variance bound
sigma_i is computed, not assumed.  The non-i.i.d. level is a single knob:
the spread of the per-client minimizers b_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import ConfigError


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
        # mu > 0 is the positive definiteness of every curvature A_i
        if not 0 < self.mu <= self.L:
            raise ConfigError("need 0 < mu <= L")
        if self.gamma_het < -1e-12:
            raise ConfigError("heterogeneity must be nonnegative")


@dataclass(frozen=True)
class ProblemBundle:
    """One task as read-only client stacks, shared by every seed that runs it.

    Client i has weight p[i], curvature A[i] (d, d), minimizer b[i] (d,) and
    per-sample targets targets[i] (n_samples, d).  `key` records the config
    fields the task was built from, so a run can refuse a bundle built for
    another problem.
    """

    key: tuple
    p: np.ndarray  # (n_clients,) client sampling distribution
    A: np.ndarray  # (n_clients, d, d)
    b: np.ndarray  # (n_clients, d)
    targets: np.ndarray  # (n_clients, n_samples, d)
    constants: ProblemConstants

    def __post_init__(self):
        n, d = self.A.shape[:2]
        shapes = (self.p.shape, self.A.shape, self.b.shape, self.targets.shape[:1] + self.targets.shape[2:])
        if shapes != ((n,), (n, d, d), (n, d), (n, d)):
            raise ConfigError(
                f"client stacks must share one shape: p {self.p.shape}, A {self.A.shape}, "
                f"b {self.b.shape}, targets {self.targets.shape}"
            )
        for stack in (self.p, self.A, self.b, self.targets, self.constants.sigma_i, self.constants.w_star):
            stack.flags.writeable = False


def make_quadratic_problem(
    n_clients: int,
    dim: int,
    spread: float,
    seed: int,
    eig_range: tuple[float, float] = (0.5, 1.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Random SPD curvatures A (n_clients, d, d) and minimizers b
    (n_clients, d) spaced by `spread`.

    spread = 0 makes all clients identical (zero heterogeneity).
    Deterministic in `seed`; each A_i is symmetric by construction.
    """
    if n_clients < 1 or dim < 1:
        raise ConfigError("need n_clients >= 1 and dim >= 1")
    if spread < 0:
        raise ConfigError("spread must be nonnegative")
    lo, hi = eig_range
    if not 0 < lo <= hi:
        raise ConfigError(f"eig_lo and eig_hi must satisfy 0 < eig_lo <= eig_hi, got {lo!r} and {hi!r}")
    rng = rngmod.stream(seed, rngmod.PROBLEM)
    A = np.empty((n_clients, dim, dim))
    b = np.empty((n_clients, dim))
    for i in range(n_clients):
        eigs = rng.uniform(lo, hi, size=dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        Ai = (q * eigs) @ q.T
        A[i] = 0.5 * (Ai + Ai.T)
        b[i] = spread * rng.standard_normal(dim)
    return A, b


def make_client_targets(
    A: np.ndarray, b: np.ndarray, n_samples: int, sample_spread: float, seed: int
) -> np.ndarray:
    """Per-sample decomposition of the client quadratics: (n_clients,
    n_samples, d) targets y_ij = A_i c_ij.

    Sample j of client i has anchor c_ij = b_i + xi_ij and per-sample loss
    0.5 (w - c_ij)^T A_i (w - c_ij) with gradient A_i w - y_ij.  The xi_ij
    are centered to mean zero per client, so the full batch recovers the
    true gradient.
    """
    if sample_spread < 0:
        raise ConfigError(f"sample_spread must be nonnegative, got {sample_spread!r}")
    rng = rngmod.stream(seed, rngmod.PROBLEM, 1)
    xi = np.empty((len(b), n_samples, b.shape[1]))
    for row in xi:
        row[:] = sample_spread * rng.standard_normal(row.shape)
        row -= row.mean(axis=0)
    anchors = b[:, None, :] + xi
    # one gemv per anchor, bitwise A_i @ c_ij; anchors @ A.T may sum in another order
    return np.matmul(A[:, None], anchors[..., None])[..., 0]


def _client_losses(A: np.ndarray, p: np.ndarray, dev: np.ndarray) -> np.ndarray:
    """p_i F_i for deviations dev (..., n_clients, d) from each minimizer:
    the stacked matmuls run the gemv and dot of each (w - b_i) @ A_i @ (w - b_i)."""
    q = np.matmul(np.matmul(dev[..., None, :], A), dev[..., :, None])
    return p * (0.5 * q[..., 0, 0])


def global_loss(A: np.ndarray, b: np.ndarray, p: np.ndarray, w: np.ndarray) -> float:
    """F(w) = sum_i p_i F_i(w) with F_i(w) = 0.5 (w - b_i)^T A_i (w - b_i).

    w is one (d,) model, or one (n_clients, d) row per client.  A left fold
    keeps the client order.
    """
    return rngmod.left_sum(_client_losses(A, p, w - b).tolist())


def global_losses(A: np.ndarray, b: np.ndarray, p: np.ndarray, W: np.ndarray) -> np.ndarray:
    """F of each model of a (T, d) stack, as a (T,) array bitwise equal to
    T `global_loss` calls: the same per-client products, folded left over
    the clients."""
    terms = _client_losses(A, p, W[:, None, :] - b)
    total = np.zeros(len(W))
    for column in terms.T:
        total += column
    return total


def global_optimum(A: np.ndarray, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of F = sum_i p_i F_i: solves (sum p A) w = sum p A b.

    Every path to the constants passes here, so this is where the client
    weights are checked to be a distribution.
    """
    if abs(p.sum() - 1.0) > 1e-12 or np.any(p < 0):
        raise ConfigError("client weights must be a distribution")
    pA = p[:, None, None] * A
    # Python's sum adds the clients in order; np.sum may pair them up
    H = sum(pA)
    rhs = sum(pAi @ bi for pAi, bi in zip(pA, b))
    try:
        w_star = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError:
        raise ConfigError("aggregate curvature sum_i p_i A_i is singular") from None
    return w_star, global_loss(A, b, p, w_star)


def heterogeneity_gamma(A: np.ndarray, b: np.ndarray, p: np.ndarray, F_star: float | None = None) -> float:
    """F* minus the weighted sum of per-client minima F_i(b_i) (zero for
    quadratics); F_star is solved here unless the caller has it."""
    if F_star is None:
        _, F_star = global_optimum(A, b, p)
    return F_star - global_loss(A, b, p, b)


def sigma_bound(A: np.ndarray, b: np.ndarray, targets: np.ndarray, batch_size: int) -> np.ndarray:
    """Exact second moment of each client's mini-batch gradient noise.

    Batches are drawn with replacement, so the noise A_i xi_bar has
    E||.||^2 = (1/s) mean_j ||A_i xi_ij||^2 exactly.
    """
    noise = targets - np.matmul(A, b[..., None])[..., 0][:, None, :]
    return np.mean(np.sum(noise**2, axis=-1), axis=-1) / batch_size


def gradient_norm_bound(
    A: np.ndarray, b: np.ndarray, sigma: np.ndarray, w_star: np.ndarray, radius: float,
    eigs: np.ndarray | None = None,
) -> float:
    """Bound on E||stochastic gradient||^2 over the ball ||w - w*|| <= radius.

    ||A_i(w - b_i)|| <= ||A_i(w* - b_i)|| + radius * lambda_max(A_i) on the
    ball; client i's mini-batch noise adds its exact second moment sigma[i].
    eigs, the (n_clients, d) eigvalsh(A), is computed here unless the caller
    has it.
    """
    if eigs is None:
        eigs = np.linalg.eigvalsh(A)
    g = np.matmul(A, (w_star - b)[..., None])[..., 0]
    norms = np.array([np.linalg.norm(gi) for gi in g])
    base = norms + radius * eigs.max(axis=1)
    # squared as Python floats, as the per-client bound always was
    return max(x**2 + s for x, s in zip(base.tolist(), sigma.tolist()))


def problem_constants(
    A: np.ndarray, b: np.ndarray, p: np.ndarray, targets: np.ndarray, batch_size: int, radius: float
) -> ProblemConstants:
    w_star, F_star = global_optimum(A, b, p)
    eigs = np.linalg.eigvalsh(A)
    sigma = sigma_bound(A, b, targets, batch_size)
    return ProblemConstants(
        mu=float(eigs.min()),
        L=float(eigs.max()),
        gamma_het=heterogeneity_gamma(A, b, p, F_star),
        sigma_i=sigma,
        G=gradient_norm_bound(A, b, sigma, w_star, radius, eigs),
        w_star=w_star,
        F_star=F_star,
    )


def batch_target_means(targets: np.ndarray, clients: np.ndarray, batches: np.ndarray) -> np.ndarray:
    """Mean target of every mini-batch, as an (E, u, d) array: one gather
    from the task's (n_clients, n, d) targets for u stacked clients over E
    steps.

    clients (u,) names the client of each stacked row, and batches is
    (E, u, s): row [e, i] holds row i's sample indices at step e, drawn
    with replacement from [0, n) (the flat gather would read an index
    outside it from a neighbouring client).
    """
    if batches.shape[-1] == 0:
        raise ConfigError("batch must be nonempty")
    n, d = targets.shape[1:]
    # one flat take gathers what targets[clients[:, None], batches] does, for
    # less than the advanced index costs; np.add.reduce(x, axis=-2) / s is
    # bitwise x.mean(axis=-2), without the wrapper
    gathered = targets.reshape(-1, d).take(clients[:, None] * n + batches, axis=0)
    return np.add.reduce(gathered, axis=-2) / batches.shape[-1]


def stochastic_gradient(A: np.ndarray, w: np.ndarray, y_mean: np.ndarray) -> np.ndarray:
    """Unbiased mini-batch gradients A_i w_i - y_mean_i, one per stacked
    client.

    A is (u, d, d), w (u, d) and y_mean (u, d), one step's rows of
    `batch_target_means`.  One client is the u = 1 stack.  The stacked
    matmul runs one gemv per client, bitwise A_i @ w_i.
    """
    return np.matmul(A, w[..., None])[..., 0] - y_mean
