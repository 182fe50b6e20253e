"""Model splitting: one visible submodel plus m privately held invisible ones.

The visible draw is unbiased around the local model; the invisible set is
free except for the sum constraint
        visible + sum_n invisible_n = (1 + m) * local model,
which the last invisible submodel absorbs exactly.  The invisible count m
is private per client and never enters any serialized transcript.

`split_cohort` is the one split: training splits a learning round's cohort
in one call, and the auditor splits its ragged cohorts one row per call.
It reads its random doubles from an array, so a block of learning rounds
draws every slot's split stream in one pass (`split_draws`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
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
            raise ConfigError(f"unknown split_variant {self.variant!r}; expected uniform, laplace or midpoint")
        if self.m < 1:
            raise ConfigError(f"split_m must be at least 1 (one invisible submodel), got {self.m}")
        if self.variant == "uniform" and not 0.0 <= self.eps_split < 1.0:
            raise ConfigError("eps_split must lie in [0, 1)")
        if self.variant == "laplace" and self.scale <= 0:
            raise ConfigError(f"laplace_scale must be positive, got {self.scale!r}")

    def draw_count(self, d: int) -> int:
        """Doubles a split of one d-vector may read from its stream: d for
        the visible part (none at the midpoint), d per non-absorbing
        invisible."""
        return (self.m - 1 if self.variant == "midpoint" else self.m) * d


def _laplace(u: np.ndarray, scale: float) -> np.ndarray:
    """numpy's `random_laplace(0.0, scale)` on the doubles u in (0, 1): each
    log is the C library's (math.log), as numpy's is; np.log may round
    differently."""
    upper = u >= 0.5
    logs = [math.log(x) for x in np.where(upper, 2.0 - u - u, u + u).ravel().tolist()]
    logs = np.array(logs, dtype=np.float64).reshape(u.shape)
    return np.where(upper, 0.0 - scale * logs, 0.0 + scale * logs)


def split_draws(words: np.ndarray, rule: SplitRule, d: int) -> np.ndarray:
    """The doubles `split_cohort` reads, for each (4,) row of seed words, as a
    (..., rule.draw_count(d)) array: row w holds generator(w)'s doubles in
    draw order, drawn for every row in one `rngmod.uniforms` pass.

    numpy's Laplace sampler redraws a double of exactly 0.0.  A stream that
    draws one among its visible doubles takes numpy's own draws instead,
    with each rejected double left out.
    """
    k = rule.draw_count(d)
    draws = rngmod.uniforms(words, k)
    if rule.variant == "laplace":
        lanes = np.asarray(words).reshape(-1, 4)
        rows = draws.reshape(-1, k)
        for lane in np.flatnonzero((rows[:, :d] == 0.0).any(axis=1)):
            rng = rngmod.generator(lanes[lane])
            accepted = []
            while len(accepted) < d:
                u = rng.random()
                if u > 0.0:
                    accepted.append(u)
            rows[lane] = np.concatenate([accepted, rng.random(k - d)])
    return draws


def split_cohort(W: np.ndarray, rule: SplitRule, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each row of W (u, d) into 1 + m submodels obeying the exact sum
    constraint; returns the visible (u, d) and invisible (u, m, d) stacks.

    Non-absorbing invisible submodels are drawn uniform on [w-|w|, w+|w|]
    per coordinate (any choice works; this one is scale-aware); the last
    invisible absorbs the residual so the constraint holds exactly.  draws
    is (u, rule.draw_count(d)): row i reads draws[i], doubles of its own
    stream in draw order, for the visible part first, then for the m - 1
    non-absorbing invisibles.  A row whose interval is empty reads nothing for it and
    keeps its endpoint, -0.0 included.  A uniform draw is numpy's own
    lo + (hi - lo) * next_double per element and a Laplace draw numpy's
    `random_laplace`, so each row is bitwise the split a Generator on that
    row's stream makes.
    """
    W = np.asarray(W, dtype=np.float64)
    u, d = W.shape
    if np.shape(draws) != (u, rule.draw_count(d)):
        raise ConfigError(f"need {rule.draw_count(d)} draws for each of {u} rows, got shape {np.shape(draws)}")
    m = rule.m
    # the non-absorbing invisibles read the doubles after the visible part's
    inv_draws = draws if rule.variant == "midpoint" else draws[:, d:]
    if rule.variant == "uniform":
        a = rule.eps_split * W
        b = (1 + m - rule.eps_split) * W
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        draw_visible = (hi > lo).any(axis=1)
        # with m > 1 the ends are more than |w| apart, so a row draws its
        # visible part exactly when it draws invisibles
        visible = np.where(draw_visible[:, None], lo + (hi - lo) * draws[:, :d], lo)
    elif rule.variant == "laplace":
        visible = W + _laplace(draws[:, :d], rule.scale)
    else:  # midpoint: deterministic center of the uniform interval
        visible = (1 + m) / 2.0 * W
    invisible = np.empty((u, m, d))
    invisible[:, -1] = (1 + m) * W - visible
    if m > 1:
        half = np.abs(W)
        draw_invisible = (half > 0).any(axis=1)
        lo_inv = W - half
        drawn = lo_inv[:, None] + ((W + half) - lo_inv)[:, None] * inv_draws.reshape(u, m - 1, d)
        invisible[:, :-1] = np.where(draw_invisible[:, None, None], drawn, W[:, None])
        # Python's sum, as the constraint is written: 0 + inv_1 + ... + inv_{m-1}
        invisible[:, -1] -= sum(invisible[:, n] for n in range(m - 1))
    return visible, invisible


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
