"""Test oracles: the checks and state builders that only the tests call.

The library keeps what its runs call.  `one_round` is how a test drives a
single round outside a phase: the round operators advance only a working
state bound as run_consensus binds one.  MSP and MSPDQ name the two kinds
of round for the tests; a phase takes its kind from its state.
`generator_split` is the split that draws from one Generator per row, the
reference for `split_cohort` on block-drawn doubles.
"""

from __future__ import annotations

import json

import numpy as np

from fedsplit import consensus
from fedsplit.consensus import CONSERVATION_RTOL, ConsensusTrace, RoundState, check_conserved, conserved_sum
from fedsplit.errors import ConfigError
from fedsplit.quantizer import QuantizedVector
from fedsplit.rng import left_sum
from fedsplit.spectral import check_step_weight_budget
from fedsplit.splitting import SplitRule, split_cohort

MSP = "msp"
MSPDQ = "mspdq"


def one_round(mode: str, state: RoundState, epsilon: float, weights_k: np.ndarray, *quantize_args) -> RoundState:
    """One round of `mode`'s operator on a workspace bound with `epsilon`,
    as run_consensus binds its working state: a copy of `state`, which stays
    unchanged, and whose uploads (or their absence) must match `mode`.
    `weights_k` is (..., M, m); `quantize_args` are mspdq_round's box width
    and (M, d) uniforms.  Returns the advanced copy."""
    operator = consensus.msp_round if mode == MSP else consensus.mspdq_round
    return operator(consensus._Workspace(state, epsilon), weights_k[..., None], *quantize_args)


def cohort_state(splits: list[tuple[np.ndarray, np.ndarray]]) -> RoundState:
    """Plain-mode cohort state of one-row `split_cohort` results, zero-padded
    past each row's invisible count; global is the mean visible."""
    m_counts = np.array([invisible.shape[1] for _, invisible in splits], dtype=np.int64)
    visible = np.concatenate([visible for visible, _ in splits])
    invisible = np.zeros((len(splits), int(m_counts.max()), visible.shape[1]))
    for i, (_, row) in enumerate(splits):
        invisible[i, : m_counts[i]] = row[0]
    return RoundState(visible, invisible, m_counts, visible.mean(axis=0))


def strict_json(text: str):
    """json.loads that refuses NaN and the infinities, which RFC 8259 does
    not allow."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def consensus_target(state: RoundState) -> np.ndarray:
    """Common limit of all submodels: conserved sum over the submodel count."""
    return conserved_sum(state) / float(np.sum(1 + state.m_counts))


def check_conservation(trace: ConsensusTrace, rtol: float = CONSERVATION_RTOL) -> float:
    """Max relative drift of the conserved total over a trace."""
    totals = conserved_sum(RoundState(trace.visibles, trace.invisibles, trace.m_counts, trace.globals_))
    return check_conserved(totals[0], totals, rtol)


def distribution_mean_var(atoms: list[tuple[float, float]]) -> tuple[float, float]:
    mean = left_sum(v * p for v, p in atoms)
    var = left_sum(p * (v - mean) ** 2 for v, p in atoms)
    return mean, var


def values(quantized: QuantizedVector) -> np.ndarray:
    """The knob values of a quantized vector's indices."""
    return quantized.state.knob(quantized.indices)


def build_P(u: np.ndarray, weights_k: np.ndarray, m: int) -> np.ndarray:
    """Block transition matrix at one round, the matrix form of a plain
    round that contraction_probe runs on the kernel.

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


def phi_deviation(phi: np.ndarray) -> float:
    """Max entrywise distance from the rank-one averaging matrix."""
    n = phi.shape[0]
    return float(np.max(np.abs(phi - 1.0 / n)))


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


def stream_split(W: np.ndarray, rule: SplitRule, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """split_cohort of the rows of W, each reading its doubles from the one
    stream rng in turn (as many as a row with a nonzero coordinate reads)."""
    return split_cohort(W, rule, rng.random((len(W), rule.draw_count(W.shape[1]))))


def generator_split(W: np.ndarray, rule: SplitRule, rngs: list) -> tuple[np.ndarray, np.ndarray]:
    """The split with one Generator per row: row i draws from rngs[i] its
    visible part (`random` or `laplace`), then its m - 1 non-absorbing
    invisibles in one `random` call, and skips a draw whose interval is
    empty.  Returns the visible (u, d) and invisible (u, m, d) stacks."""
    W = np.asarray(W, dtype=np.float64)
    u, d = W.shape
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
    else:
        visible = (1 + m) / 2.0 * W
    invisible = np.empty((u, m, d))
    invisible[:, -1] = (1 + m) * W - visible
    if m > 1:
        lo_inv = W - half
        drawn = lo_inv[:, None] + ((W + half) - lo_inv)[:, None] * unit
        invisible[:, :-1] = np.where(draw_invisible[:, None, None], drawn, W[:, None])
        invisible[:, -1] -= sum(invisible[:, n] for n in range(m - 1))
    return visible, invisible
