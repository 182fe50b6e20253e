"""Model splitting: one visible submodel plus m privately held invisible ones.

The visible draw is unbiased around the local model; the invisible set is
free except for the sum constraint
        visible + sum_n invisible_n = (1 + m) * local model,
which the last invisible submodel absorbs exactly.  The invisible count m
is private per client and never enters any serialized transcript.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolIntegrityError

Z_RECURSION_TOL = 1e-9


@dataclass(frozen=True)
class SplitRule:
    """variant: "uniform" draws the visible part from
    [eps_split*w, (1+m-eps_split)*w] per coordinate (endpoints sorted so the
    mean stays at w for negative coordinates); "laplace" draws it from
    Laplace(w, scale); "midpoint" is the deterministic interval midpoint,
    used by the degenerate FedAvg-reduction configs."""

    variant: str
    m: int = 1
    eps_split: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.variant not in ("uniform", "laplace", "midpoint"):
            raise ConfigError(f"unknown split variant {self.variant!r}")
        if self.m < 1:
            raise ConfigError("need at least one invisible submodel")
        if self.variant == "uniform" and not 0.0 <= self.eps_split < 1.0:
            raise ConfigError("eps_split must lie in [0, 1)")
        if self.variant == "laplace" and self.scale <= 0:
            raise ConfigError("laplace scale must be positive")


@dataclass(frozen=True)
class SplitState:
    visible: np.ndarray
    invisible: list  # list of m (d,) arrays
    origin: np.ndarray  # the pre-split local model (private)

    @property
    def m(self) -> int:
        return len(self.invisible)

    def constraint_residual(self) -> float:
        total = self.visible + sum(self.invisible)
        target = (1 + self.m) * self.origin
        scale = max(1.0, float(np.max(np.abs(target))))
        return float(np.max(np.abs(total - target))) / scale


def _uniform(lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Bitwise rng.uniform(lo, hi) for finite bounds of one shape: numpy's
    own lo + (hi - lo) * next_double per element in C order, without the
    broadcasting path."""
    return lo + (hi - lo) * rng.random(lo.shape)


def _draw_visible(w: np.ndarray, rule: SplitRule, rng: np.random.Generator) -> np.ndarray:
    if rule.variant == "uniform":
        a = rule.eps_split * w
        b = (1 + rule.m - rule.eps_split) * w
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        return _uniform(lo, hi, rng) if (hi > lo).any() else lo.copy()
    if rule.variant == "laplace":
        return w + rng.laplace(0.0, rule.scale, size=w.shape)
    # midpoint: deterministic center of the uniform interval
    return (1 + rule.m) / 2.0 * w


def split_model(w: np.ndarray, rule: SplitRule, rng: np.random.Generator) -> SplitState:
    """Split w into 1 + m submodels obeying the exact sum constraint.

    Non-absorbing invisible submodels are drawn uniform on [w-|w|, w+|w|]
    per coordinate (any choice works; this one is scale-aware); the last
    invisible absorbs the residual so the constraint holds exactly.
    """
    w = np.asarray(w, dtype=np.float64)
    visible = _draw_visible(w, rule, rng)
    invisible = []
    for _ in range(rule.m - 1):
        half = np.abs(w)
        invisible.append(_uniform(w - half, w + half, rng) if np.any(half > 0) else w.copy())
    absorber = (1 + rule.m) * w - visible - sum(invisible) if invisible else (1 + rule.m) * w - visible
    invisible.append(absorber)
    return SplitState(visible=visible, invisible=invisible, origin=w)


def z_sequence(
    visible_history: np.ndarray,
    invisible_history: np.ndarray,
    globals_history: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Per-round totals z[k] = visible[k] + sum_n invisible[k] for one client.

    Verifies the bookkeeping recursion
        z[k+1] = z[k] + epsilon * (global[k] - visible[k])
    and raises ProtocolIntegrityError on violation.

    visible_history: (K+1, d); invisible_history: (K+1, m, d);
    globals_history: (K+1, d).
    """
    vis = np.asarray(visible_history, dtype=np.float64)
    inv = np.asarray(invisible_history, dtype=np.float64)
    glo = np.asarray(globals_history, dtype=np.float64)
    if vis.shape[0] != inv.shape[0] or vis.shape[0] != glo.shape[0]:
        raise ConfigError("histories must cover the same rounds")
    z = vis + inv.sum(axis=1)
    scale = max(1.0, float(np.max(np.abs(z))))
    for k in range(len(z) - 1):
        predicted = z[k] + epsilon * (glo[k] - vis[k])
        if np.max(np.abs(z[k + 1] - predicted)) > Z_RECURSION_TOL * scale:
            raise ProtocolIntegrityError(f"z-recursion violated at round {k}")
    return z


def laplace_split_density(w: np.ndarray, scale: float, x: np.ndarray) -> float:
    """Density of the Laplace splitting rule at x: product over coordinates
    of (1/(2 scale)) exp(-|x_j - w_j| / scale)."""
    if scale <= 0:
        raise ConfigError("scale must be positive")
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return float(np.prod(np.exp(-np.abs(x - w) / scale) / (2.0 * scale)))
