"""Mixing, step weights and contraction of the splitting dynamics.

U is the epsilon-parameterized doubly stochastic mixing matrix over the M
selected clients; its smallest eigenvalue caps the step weights a_{i,n}[k]
that couple each visible submodel with its invisible ones.  Phi(k,0) is the
linear map of plain rounds 0..k on the (1+m)M submodels, whose contraction
toward the rank-one averaging matrix gates every schedule.  The probe
measures it on the consensus round kernel itself, so the update law has one
copy in the package; the tests hold its block-matrix form as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import RoundState, _Workspace
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
            raise ScheduleValidationError(f"unknown weight_rule {self.rule!r}; expected constant, harmonic or inv_sqrt")
        object.__setattr__(self, "gamma", g)

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


def contraction_probe(epsilon: float, weights: StepWeights, horizon: int) -> tuple[np.ndarray, float]:
    """Deviation curve of Phi(k,0) for k = 0..horizon-1 and the fitted
    per-step contraction factor over the probe.

    Phi's columns are the plain rounds' trajectories from the unit states:
    one plain workspace (see consensus._Workspace) holds all n = (1+m)M of
    them on its leading axis, visible first, then invisible slot by slot,
    and its kernel advances them together.  dev(k) is the largest distance
    of any submodel from the average 1/n after round k.
    """
    M, m = weights.gamma.shape
    n = (1 + m) * M
    basis = np.eye(n).reshape(n, 1 + m, M, 1)
    unit = RoundState(basis[:, 0], basis[:, 1:].swapaxes(1, 2), np.full(M, m))
    state = _Workspace(unit, epsilon)
    devs = np.empty(horizon)
    for k, weights_k in enumerate(weights.table(horizon)):
        state.step(weights_k[..., None])
        devs[k] = max(np.abs(state.visible - 1.0 / n).max(), np.abs(state.invisible - 1.0 / n).max())
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
