"""Inter-round dynamics of the splitting protocol.

Plain rounds: each selected client moves its visible submodel toward the
broadcast global model and exchanges mass with its own invisible submodels;
the server re-averages visibles.  Quantized rounds replace the client's
upload with a stochastically quantized value over a per-client shrinking
box, and the drift term uses the client's own quantized value, exactly as
the update law is written.

The total of all submodels over the selected cohort is conserved round to
round by the update law in both kinds of round, to float rounding: the drift
terms sum to zero over the cohort because the global model is the mean of
the references they pull toward, and the coupling only moves mass between a
client's own submodels.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolIntegrityError
from .quantizer import (
    QuantizedVector,
    QuantizerState,
    compute_pi_t,
    decode,
    dynamic_error_bound,
    encode,
    round_to_knobs,
)
from .splitting import SplitState

CONSERVATION_RTOL = 1e-9
# Bytes of stacked rows a non-recording quantized phase holds at once:
# visibles, invisibles, globals, uploads and uniforms.  Longer phases run in
# blocks, so phase memory does not grow with K; a desk phase (M = 8,
# d = 10, K <= 130 at 500 learning rounds) fits in one block.
BLOCK_BYTES = 1 << 20

MSP = "msp"
MSPDQ = "mspdq"


@dataclass
class RoundState:
    """Cohort state at one communication round.

    visible: (M, d); invisible: (M, m_max, d) zero-padded past each client's
    own invisible count (msp_round also takes a leading seed axis on both and
    on global_model); global_model is the aggregation that produced this
    round (mean visible for plain rounds, mean quantized upload otherwise).
    """

    visible: np.ndarray
    invisible: np.ndarray
    m_counts: np.ndarray
    global_model: np.ndarray
    quantized: np.ndarray | None = None
    level: int | None = None
    k: int = 0

    @property
    def M(self) -> int:
        return self.visible.shape[-2]

    @property
    def d(self) -> int:
        return self.visible.shape[-1]


@dataclass
class ConsensusTrace:
    """Complete state history of one consensus phase (simulator-side truth;
    the adversary view is a filtered projection of this).  Row k of each
    (K+1, ...) stack is the state after k rounds; weights[k] drove round k."""

    mode: str
    epsilon: float
    m_counts: np.ndarray
    origins: np.ndarray  # (M, d) pre-split local models, private
    visibles: np.ndarray  # (K+1, M, d)
    invisibles: np.ndarray  # (K+1, M, m_max, d)
    globals_: np.ndarray  # (K+1, d)
    weights: np.ndarray  # (K, M, m_max)
    quantized: np.ndarray | None = None  # (K+1, M, d), quantized mode only
    pis: np.ndarray | None = None  # (K,) interval constants, quantized mode only

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def M(self) -> int:
        return self.origins.shape[0]


def state_from_splits(splits: list[SplitState]) -> RoundState:
    """Plain-mode initial cohort state; global is the mean initial visible."""
    M = len(splits)
    d = splits[0].visible.shape[0]
    m_counts = np.array([s.m for s in splits], dtype=np.int64)
    visible = np.stack([s.visible for s in splits])
    invisible = np.zeros((M, int(m_counts.max()), d))
    for i, s in enumerate(splits):
        invisible[i, : s.m] = s.invisible
    return RoundState(
        visible=visible,
        invisible=invisible,
        m_counts=m_counts,
        global_model=visible.mean(axis=0),
    )


def conserved_sum(state: RoundState) -> np.ndarray:
    """Total of every real submodel over the cohort (padded slots are zero);
    a leading axis on the stacks gives one total per row."""
    return state.visible.sum(axis=-2) + state.invisible.sum(axis=(-3, -2))


def check_conserved(total0: np.ndarray, total: np.ndarray, rtol: float = CONSERVATION_RTOL) -> float:
    """Drift of a conserved total relative to max(1, max|total0|); raises
    ProtocolIntegrityError past rtol or on NaN."""
    scale = max(1.0, float(np.max(np.abs(total0))))
    drift = float(np.max(np.abs(total - total0))) / scale
    if not drift <= rtol:
        raise ProtocolIntegrityError(f"conserved sum drifted by {drift:.3e} relative")
    return drift


def consensus_target(state: RoundState) -> np.ndarray:
    """Common limit of all submodels: conserved sum over the submodel count."""
    return conserved_sum(state) / float(np.sum(1 + state.m_counts))


def _blank(state: RoundState, quantized: bool) -> RoundState:
    """Uninitialised arrays shaped like a state (uploads only if
    `quantized`): where a round operator called without `out` writes."""
    return RoundState(
        np.empty_like(state.visible),
        np.empty_like(state.invisible),
        state.m_counts,
        np.empty_like(state.global_model),
        np.empty_like(state.visible) if quantized else None,
        state.level if quantized else None,
        state.k,
    )


def _update(
    state: RoundState, epsilon: float, weights_k: np.ndarray, reference: np.ndarray, out: RoundState
) -> np.ndarray:
    """Write the update law's new visible and invisible stacks into `out`
    and return the new visible:

        vis + epsilon (global - reference_i) + sum_n a_n (inv_n - vis)

    `reference` is the visible matrix in plain mode and the quantized uploads
    in quantized mode.  The flow a (inv - vis) enters the visible and leaves
    the invisible, so inv - flow is bitwise inv + a (vis - inv).  Each
    chain's last ufunc writes its row; `out` goes positionally, which on
    these small arrays costs less than the keyword.
    """
    vis, inv = state.visible, state.invisible
    flow = weights_k[..., None] * (inv - vis[..., None, :])
    np.subtract(inv, flow, out.invisible)
    drift = epsilon * (state.global_model[..., None, :] - reference)
    return np.add(vis + drift, np.add.reduce(flow, axis=-2), out.visible)


def _aggregate(values: np.ndarray, out: RoundState) -> None:
    """out.global_model = the mean over clients of `values`;
    np.add.reduce(x, axis=-2) / M is bitwise x.mean(axis=-2)."""
    np.divide(np.add.reduce(values, axis=-2), values.shape[-2], out.global_model)


def msp_round(state: RoundState, epsilon: float, weights_k: np.ndarray, out: RoundState | None = None) -> RoundState:
    """One plain communication round followed by server aggregation.

    Writes the new state into `out` or, without it, into fresh arrays, and
    returns it.  `out` may be `state` itself: the round reads each input
    before it writes that array.  A leading seed axis on the state (and
    optionally the weights) batches seeds, each bitwise equal to its own call.
    """
    out = _blank(state, quantized=False) if out is None else out
    _aggregate(_update(state, epsilon, weights_k, state.visible, out), out)
    out.k = state.k + 1
    return out


def mspdq_round(
    state: RoundState,
    epsilon: float,
    weights_k: np.ndarray,
    width: float,
    uniforms: np.ndarray,
    out: RoundState | None = None,
) -> RoundState:
    """One quantized round: update, center each client's box of the given
    width on its last quantized upload, quantize the new visible over it
    with the (M, d) uniforms, and aggregate the quantized uploads.

    Writes the new state into `out` (arrays that share no memory with
    `state`) or, without it, into fresh arrays, and returns it; the input is
    not written.  The round checks nothing: run_consensus checks a phase's
    box containment, upload errors and wire roundtrip over its stacks.
    """
    if state.quantized is None or state.level is None:
        raise ConfigError("state lacks quantized uploads; initialize the quantized mode first")
    out = _blank(state, quantized=True) if out is None else out
    new_vis = _update(state, epsilon, weights_k, state.quantized, out)
    half = 0.5 * width
    round_to_knobs(new_vis, state.quantized - half, state.quantized + half, state.level, uniforms, out=out.quantized)
    _aggregate(out.quantized, out)
    out.k = state.k + 1
    return out


def beta_gap(state: RoundState) -> float:
    """Frobenius distance between the visible stack and the first invisible
    stack; its running max feeds the interval-width constant.  sqrt of the
    flat dot product is the formula np.linalg.norm evaluates."""
    gap = (state.visible - state.invisible[:, 0, :]).ravel()
    return math.sqrt(gap.dot(gap))


def _check_quantized_rounds(
    k0: int,
    visibles: np.ndarray,
    quantized: np.ndarray,
    uniforms: np.ndarray,
    widths: np.ndarray,
    level: int,
    wire_check: bool,
) -> np.ndarray:
    """Check b quantized rounds, the first of them round k0, from their
    (b+1, M, d) visible and upload rows, the (b, M, d) uniforms and the (b,)
    box widths; returns each round's largest upload error norm.

    In order: every post-update visible lies in its box, else
    ProtocolIntegrityError names the first escape by round, client and
    coordinate; then, with wire_check, every upload's knob indices survive
    the codec.  The boxes and indices are the rounds' own: the same
    elementwise arithmetic over the stacks gives the same bits.
    """
    half = (0.5 * widths)[:, None, None]
    lo, hi = quantized[:-1] - half, quantized[:-1] + half
    new_vis = visibles[1:]
    inside = (new_vis >= lo) & (new_vis <= hi)
    if not np.logical_and.reduce(inside, axis=None):
        k, i, j = np.argwhere(~inside)[0]
        raise ProtocolIntegrityError(
            f"visible escaped its shrunk interval at round {k0 + k} "
            f"(client {i}, coordinate {j}); box width too small"
        )
    if wire_check:
        d = new_vis.shape[-1]
        tau, up, _ = round_to_knobs(new_vis, lo, hi, level, uniforms)
        q_idx = tau.astype(np.int64) + up
        for idx, box_lo, box_hi in zip(q_idx.reshape(-1, d), lo.reshape(-1, d), hi.reshape(-1, d)):
            qs = QuantizerState(lo=box_lo, hi=box_hi, level=level)
            back = decode(encode(QuantizedVector(indices=idx, state=qs)), qs)
            if not np.array_equal(back.indices, idx):
                raise ProtocolIntegrityError("wire roundtrip altered an upload")
    delta = quantized[1:] - new_vis
    # the formula np.linalg.norm(delta, axis=-1) evaluates
    return np.sqrt(np.add.reduce(delta * delta, axis=-1)).max(axis=-1)


def run_consensus(
    initial: RoundState,
    K: int,
    mode: str,
    epsilon: float,
    weights,
    rng: np.random.Generator | None = None,
    lambda2_u: float | None = None,
    origins: np.ndarray | None = None,
    record: bool = True,
    wire_check: bool = False,
):
    """Iterate the chosen round operator K times.

    `weights[k]` gives round k's (M, m) step weights: rows of a
    StepWeights.table, or a recorded trace's `weights` replaying its own
    schedule.

    The phase's states live in (rows, ...) stacks allocated once, row 0 a
    copy of `initial`; each round's operator call writes the next row.  A
    recording phase holds all K+1 rows and its ConsensusTrace wraps them.
    A non-recording quantized phase keeps the rows its checks read in
    blocks of at most BLOCK_BYTES, each block starting from the last row of
    the one before, and draws each block's uniforms in one call (PCG64
    doubles are unbuffered, so the blocks read what one (K, M, d) draw
    would).  A non-recording plain phase has no checks and keeps one row,
    which every round rewrites in place.

    Returns (final_state, trace_or_None, summary) where summary carries the
    interval-width and beta-gap maxima and the worst quantization error and
    its margin below the bound (zeros and inf for plain rounds).  In
    quantized mode, round k's box width is pi_t a_max[k], and the phase is
    checked over its stacks, each block after its last round: first box
    containment, then (with wire_check) the codec roundtrip, and after the
    last block every upload error against dynamic_error_bound.  Each raises
    ProtocolIntegrityError naming the first round that failed it, so an
    escape anywhere in the phase wins over an error-bound violation.
    """
    if K < 1:
        raise ConfigError("need at least one communication round")
    if mode not in (MSP, MSPDQ):
        raise ConfigError(f"unknown mode {mode!r}")
    quantized = mode == MSPDQ
    if quantized and (rng is None or lambda2_u is None):
        raise ConfigError("quantized mode needs an rng and lambda2(U)")
    if len(weights) < K:
        raise ConfigError(f"step weights cover {len(weights)} rounds, need {K}")
    rows = [initial.visible, initial.invisible, initial.global_model]
    if quantized:
        rows.append(initial.quantized)
    in_place = not (record or quantized)
    B = K  # rounds per block
    if not (record or in_place):
        row_bytes = sum(a.nbytes for a in rows) + initial.visible.nbytes  # and the round's uniforms
        B = max(1, min(K, BLOCK_BYTES // row_bytes))
    stacks = [np.empty((1 if in_place else B + 1,) + a.shape) for a in rows]
    for stack, a in zip(stacks, rows):
        stack[0] = a
    vis, inv, glob = stacks[:3]
    q = stacks[3] if quantized else None
    # one state of row views per row, reused by every block; each round's
    # operator sets the k of the row it writes
    uploads = q if quantized else itertools.repeat(None)
    states = [
        RoundState(v, i, initial.m_counts, g, u, initial.level, initial.k) for v, i, g, u in zip(vis, inv, glob, uploads)
    ]
    state = states[0]
    if quantized:
        a_max = np.asarray(weights[:K])[:, :, 0].max(axis=1)
        pis = np.empty(K)
        delta_max = np.empty(K)
    w_tilde = 0.0
    # collapsed knobs divide by zero in the rounding kernel (see round_to_knobs),
    # and rounds after an escape run on until the block's check, which any
    # non-finite visible fails
    with np.errstate(divide="ignore", invalid="ignore", over="ignore") if quantized else np.errstate():
        for start in range(0, K, B):
            b = min(B, K - start)
            if start:
                for stack in stacks:
                    stack[0] = stack[B]
                states[0].k = state.k
                state = states[0]
            if quantized:
                uniforms = rng.random(size=(b,) + initial.visible.shape)
            for r in range(b):
                k = start + r
                out = state if in_place else states[r + 1]
                if quantized:
                    w_tilde = max(w_tilde, beta_gap(state))
                    pi_t = compute_pi_t(epsilon, lambda2_u, w_tilde)
                    pis[k] = pi_t
                    state = mspdq_round(state, epsilon, weights[k], pi_t * a_max[k], uniforms[r], out=out)
                else:
                    state = msp_round(state, epsilon, weights[k], out=out)
            if quantized:
                span = slice(start, start + b)
                delta_max[span] = _check_quantized_rounds(
                    initial.k + start, vis[: b + 1], q[: b + 1], uniforms, pis[span] * a_max[span],
                    initial.level, wire_check,
                )
    trace = None
    if record:
        trace = ConsensusTrace(
            mode=mode,
            epsilon=epsilon,
            m_counts=initial.m_counts.copy(),
            origins=(origins.copy() if origins is not None else np.zeros_like(initial.visible)),
            visibles=vis,
            invisibles=inv,
            globals_=glob,
            weights=np.array(weights[:K]),
            quantized=q,
            pis=pis if quantized else None,
        )
    if not quantized:
        return state, trace, {"delta_max": 0.0, "bound_margin_min": float("inf"), "w_tilde_max": 0.0, "max_width": 0.0}
    bound = dynamic_error_bound(pis, initial.level, a_max, initial.d)
    margins = bound - delta_max
    bad = np.flatnonzero(~(margins >= 0))
    if bad.size:
        k = int(bad[0])
        raise ProtocolIntegrityError(
            f"quantization error exceeded its bound at round {initial.k + k}: "
            f"{delta_max[k]:.6g} > {bound[k]:.6g}"
        )
    summary = {
        "delta_max": float(delta_max.max()),
        "bound_margin_min": float(margins.min()),
        "w_tilde_max": w_tilde,  # a running max: its last value
        "max_width": float((pis * a_max).max()),
    }
    return state, trace, summary


def check_conservation(trace: ConsensusTrace, rtol: float = CONSERVATION_RTOL) -> float:
    """Max relative drift of the conserved total over a trace."""
    totals = conserved_sum(RoundState(trace.visibles, trace.invisibles, trace.m_counts, trace.globals_))
    return check_conserved(totals[0], totals, rtol)


def check_deviation_bound(trace: ConsensusTrace, lambda2_u: float) -> float:
    """Verifies the visible-stack deviation bound on a quantized trace:

        ||W[k+1] - 1 mean|| <= 2 sum_l lam^{k-l} ||Delta[l]|| +
                               Wmax_k sum_l lam^{k-l} a_max[l]

    with measured quantization errors; both sums run as geometric
    recursions s_k = lam s_{k-1} + term_k.  Returns the minimum slack.
    """
    if trace.mode != MSPDQ:
        raise ConfigError("deviation bound applies to quantized traces")
    min_slack = float("inf")
    w_tilde = 0.0
    s_delta = 0.0
    s_a = 0.0
    for k in range(trace.K):
        vis_k = trace.visibles[k]
        w_tilde = max(w_tilde, float(np.linalg.norm(vis_k - trace.invisibles[k, :, 0])))
        s_delta = lambda2_u * s_delta + float(np.linalg.norm(trace.quantized[k] - vis_k))
        s_a = lambda2_u * s_a + float(np.max(trace.weights[k, :, 0]))
        vis_next = trace.visibles[k + 1]
        dev = float(np.linalg.norm(vis_next - vis_next.mean(axis=0)))
        bound = 2.0 * s_delta + w_tilde * s_a
        slack = bound - dev + 1e-12 * max(1.0, bound)
        if slack < 0:
            raise ProtocolIntegrityError(f"deviation bound violated at round {k}")
        min_slack = min(min_slack, slack)
    return min_slack


def trace_to_jsonl(trace: ConsensusTrace, t: int = 0) -> str:
    """Adversary-visible trace records, one JSON object per round.

    Contains visible submodels, quantized uploads, the global model and the
    interval constant pi_t; never the step weights (their matrix width and
    zero padding give away each client's private invisible count), the
    invisible counts or honest invisible states.
    """
    lines = []
    for k in range(trace.K + 1):
        rec = {
            "t": t,
            "k": k,
            "visible": trace.visibles[k].tolist(),
            "global": trace.globals_[k].tolist(),
        }
        if trace.quantized is not None:
            rec["quantized"] = trace.quantized[k].tolist()
            if k < trace.K:
                rec["pi_t"] = float(trace.pis[k])
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"
