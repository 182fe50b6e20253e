"""Interaction matrices for the splitting dynamics.

U is the epsilon-parameterized doubly stochastic mixing matrix over the M
selected clients; P[k] couples visible and invisible submodels in a
(1+m)M x (1+m)M block matrix; Phi(k,0) is the ordered product whose
contraction toward the rank-one averaging matrix gates every schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ScheduleValidationError


@dataclass(frozen=True)
class StepWeights:
    """Per-client, per-invisible-index weights a_{i,n}[k].

    gamma has shape (M, m); rule selects the decay:
      constant  -> gamma
      harmonic  -> gamma / (k+1)
      inv_sqrt  -> gamma / sqrt(k+1)
    All rules are positive (where gamma > 0) and non-increasing in k, and
    harmonic satisfies a[k] <= 2 a[2k].
    """

    gamma: np.ndarray
    rule: str = "harmonic"

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.gamma, dtype=np.float64))
        if np.any(g < 0):
            raise ScheduleValidationError("step weights must be nonnegative")
        if self.rule not in ("constant", "harmonic", "inv_sqrt"):
            raise ScheduleValidationError(f"unknown step-weight rule {self.rule!r}")
        object.__setattr__(self, "gamma", g)

    @property
    def M(self) -> int:
        return self.gamma.shape[0]

    @property
    def m(self) -> int:
        return self.gamma.shape[1]

    def at(self, k: int) -> np.ndarray:
        if self.rule == "constant":
            return self.gamma.copy()
        if self.rule == "harmonic":
            return self.gamma / (k + 1)
        return self.gamma / np.sqrt(k + 1)

    def table(self, K: int) -> np.ndarray:
        """Rounds 0..K-1 as one (K, M, m) array whose row k is bitwise at(k)
        (IEEE division and sqrt are correctly rounded); the constant rule
        gives a read-only broadcast view of gamma."""
        if self.rule == "constant":
            return np.broadcast_to(self.gamma, (K, *self.gamma.shape))
        ks = np.arange(1, K + 1, dtype=np.float64)[:, None, None]
        if self.rule == "harmonic":
            return self.gamma / ks
        return self.gamma / np.sqrt(ks)


def build_U(M: int, epsilon: float) -> np.ndarray:
    """U_ij = eps/M off-diagonal, 1 - eps(M-1)/M on the diagonal."""
    if M < 1:
        raise ConfigError("need M >= 1")
    hi = M / (M - 1) if M > 1 else float("inf")
    if not 0 < epsilon < hi:
        raise ConfigError(f"epsilon must lie in (0, M/(M-1)) = (0, {hi:.6g}), got {epsilon}")
    U = np.full((M, M), epsilon / M)
    np.fill_diagonal(U, 1.0 - epsilon * (M - 1) / M)
    return U


def lambda2_U(u: np.ndarray) -> float:
    """Second-largest eigenvalue magnitude (the contraction factor on 1-perp)."""
    eigs = np.linalg.eigvalsh(u)
    mags = np.sort(np.abs(eigs))[::-1]
    return float(mags[1]) if len(mags) > 1 else 0.0


def lambda_min_U(u: np.ndarray) -> float:
    """Smallest eigenvalue (by value); gates the step-weight budget."""
    return float(np.min(np.linalg.eigvalsh(u)))


def step_weight_cap(u: np.ndarray) -> float:
    """lambda_min/(1+lambda_min), the bound on summed step weights (0 when
    lambda_min <= 0, where no positive weight is allowed)."""
    lam_min = lambda_min_U(u)
    return lam_min / (1.0 + lam_min) if lam_min > 0 else 0.0


def check_step_weight_budget(total: float, u: np.ndarray, what: str) -> None:
    """Raise unless a positive step-weight total stays below the cap."""
    cap = step_weight_cap(u)
    if total > 0 and total >= cap:
        raise ScheduleValidationError(
            f"{what} {total:.6g} violates the bound lambda_min/(1+lambda_min) = {cap:.6g}"
        )


def build_P(u: np.ndarray, weights_k: np.ndarray, m: int) -> np.ndarray:
    """Block transition matrix at one round.

    Layout: first M rows are visible submodels, then m blocks of M invisible
    rows; block (0,n) and (n,0) carry A_n = diag(a_{i,n}), block (n,n) is
    I - A_n, and the top-left block is U - sum_n A_n.
    Raises when the step-weight sum condition fails (a = 0 is allowed).
    """
    M = len(u)
    weights_k = np.atleast_2d(np.asarray(weights_k, dtype=np.float64))
    if weights_k.shape != (M, m):
        raise ConfigError(f"weights must have shape ({M}, {m})")
    check_step_weight_budget(
        float(np.sum(np.max(weights_k, axis=0))), u, "sum of max step weights"
    )
    n = (1 + m) * M
    P = np.zeros((n, n))
    A_sum = np.zeros((M, M))
    for j in range(m):
        A = np.diag(weights_k[:, j])
        A_sum += A
        P[0:M, (1 + j) * M : (2 + j) * M] = A
        P[(1 + j) * M : (2 + j) * M, 0:M] = A
        P[(1 + j) * M : (2 + j) * M, (1 + j) * M : (2 + j) * M] = np.eye(M) - A
    P[0:M, 0:M] = u - A_sum
    return P


def phi_product(mats: list[np.ndarray]) -> np.ndarray:
    """Ordered product P[k] ... P[0] of the round transitions."""
    if not mats:
        raise ConfigError("need at least one transition matrix")
    n = mats[0].shape[0]
    for mat in mats:
        if mat.shape != (n, n):
            raise ConfigError("transition matrices must share dimensions")
    phi = mats[0]
    for mat in mats[1:]:
        phi = mat @ phi
    return phi


def phi_deviation(phi: np.ndarray) -> float:
    """Max entrywise distance from the rank-one averaging matrix."""
    n = phi.shape[0]
    return float(np.max(np.abs(phi - 1.0 / n)))


def contraction_probe(
    u: np.ndarray, weights: StepWeights, horizon: int
) -> tuple[np.ndarray, float]:
    """Deviation curve of Phi(k,0) for k = 0..horizon-1 and the fitted
    per-step contraction factor over the probe."""
    devs = np.empty(horizon)
    phi = None
    for k, weights_k in enumerate(weights.table(horizon)):
        P = build_P(u, weights_k, weights.m)
        phi = P if phi is None else P @ phi
        devs[k] = phi_deviation(phi)
    if horizon >= 2 and devs[0] > 0 and devs[-1] > 0:
        factor = float((devs[-1] / devs[0]) ** (1.0 / (horizon - 1)))
    else:
        factor = 0.0
    return devs, factor


def fit_contraction_constant(devs: np.ndarray, lam: float) -> float:
    """Smallest C with dev(k) <= C lam^{k+1} over the probed range."""
    if not 0 < lam < 1:
        raise ConfigError("lambda must lie in (0, 1)")
    ks = np.arange(1, len(devs) + 1)
    return float(np.max(devs / lam**ks)) if len(devs) else 0.0
