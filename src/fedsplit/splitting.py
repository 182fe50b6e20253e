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


def split_cohort(W: np.ndarray, rule: SplitRule, rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of W (u, d) into 1 + m submodels obeying the exact sum
    constraint; returns the visible (u, d) and invisible (u, m, d) stacks.

    Non-absorbing invisible submodels are drawn uniform on [w-|w|, w+|w|]
    per coordinate (any choice works; this one is scale-aware); the last
    invisible absorbs the residual so the constraint holds exactly.  Row i
    draws from its own stream rngs[i], the visible part first, then the
    m - 1 non-absorbing invisibles in one call; a row whose interval is
    empty draws nothing and keeps its endpoint, -0.0 included.  A uniform
    draw is numpy's own lo + (hi - lo) * next_double per element, so each
    row is bitwise a split of that row alone.
    """
    W = np.asarray(W, dtype=np.float64)
    u, d = W.shape
    if len(rngs) != u:
        raise ConfigError(f"need one stream per row: {len(rngs)} streams for {u} rows")
    m = rule.m
    half = np.abs(W)
    if rule.variant == "uniform":
        a = rule.eps_split * W
        b = (1 + m - rule.eps_split) * W
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        draw_visible = (hi > lo).any(axis=1)
    else:
        draw_visible = np.full(u, rule.variant == "laplace")
    draw_invisible = (half > 0).any(axis=1) & (m > 1)
    noise = np.zeros((u, d))
    unit = np.zeros((u, m - 1, d))
    for i, rng in enumerate(rngs):
        if draw_visible[i]:
            if rule.variant == "uniform":
                noise[i] = rng.random(d)
            else:
                noise[i] = rng.laplace(0.0, rule.scale, size=d)
        if draw_invisible[i]:
            unit[i] = rng.random((m - 1, d))
    if rule.variant == "uniform":
        visible = np.where(draw_visible[:, None], lo + (hi - lo) * noise, lo)
    elif rule.variant == "laplace":
        visible = W + noise
    else:  # midpoint: deterministic center of the uniform interval
        visible = (1 + m) / 2.0 * W
    invisible = np.empty((u, m, d))
    invisible[:, -1] = (1 + m) * W - visible
    if m > 1:
        lo_inv = W - half
        drawn = lo_inv[:, None] + ((W + half) - lo_inv)[:, None] * unit
        invisible[:, :-1] = np.where(draw_invisible[:, None, None], drawn, W[:, None])
        # Python's sum, as the constraint is written: 0 + inv_1 + ... + inv_{m-1}
        invisible[:, -1] -= sum(invisible[:, n] for n in range(m - 1))
    return visible, invisible


def split_model(w: np.ndarray, rule: SplitRule, rng: np.random.Generator) -> SplitState:
    """Split one model w (d,): the u = 1 case of `split_cohort`."""
    w = np.asarray(w, dtype=np.float64)
    visible, invisible = split_cohort(w[None], rule, [rng])
    return SplitState(visible=visible[0], invisible=list(invisible[0]), origin=w)


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
