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

import json
import math
from dataclasses import dataclass, field

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
    the adversary view is a filtered projection of this)."""

    mode: str
    epsilon: float
    m_counts: np.ndarray
    origins: np.ndarray  # (M, d) pre-split local models, private
    visibles: list = field(default_factory=list)  # per k: (M, d)
    invisibles: list = field(default_factory=list)  # per k: (M, m_max, d)
    globals_: list = field(default_factory=list)  # per k: (d,)
    weights: list = field(default_factory=list)  # per k: (M, m_max)
    quantized: list = field(default_factory=list)  # per k: (M, d) (quantized mode)
    pis: list = field(default_factory=list)

    @property
    def K(self) -> int:
        return len(self.weights)

    @property
    def M(self) -> int:
        return self.origins.shape[0]

    def snapshot(self, state: RoundState) -> None:
        self.visibles.append(state.visible.copy())
        self.invisibles.append(state.invisible.copy())
        self.globals_.append(state.global_model.copy())
        if state.quantized is not None:
            self.quantized.append(state.quantized.copy())


def state_from_splits(splits: list[SplitState]) -> RoundState:
    """Plain-mode initial cohort state; global is the mean initial visible."""
    M = len(splits)
    d = splits[0].visible.shape[0]
    m_counts = np.array([s.m for s in splits], dtype=np.int64)
    m_max = int(m_counts.max())
    visible = np.stack([s.visible for s in splits])
    invisible = np.zeros((M, m_max, d))
    for i, s in enumerate(splits):
        for n, sub in enumerate(s.invisible):
            invisible[i, n] = sub
    return RoundState(
        visible=visible,
        invisible=invisible,
        m_counts=m_counts,
        global_model=visible.mean(axis=0),
    )


def conserved_sum(state: RoundState) -> np.ndarray:
    """Total of every real submodel over the cohort (padded slots are zero)."""
    return state.visible.sum(axis=0) + state.invisible.sum(axis=(0, 1))


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


def _coupling_terms(state: RoundState, weights_k: np.ndarray):
    """Visible-side coupling sum and the updated invisible stack.

    The flow a (inv - vis) enters the visible and leaves the invisible, so
    inv - flow is bitwise inv + a (vis - inv).
    """
    vis = state.visible
    inv = state.invisible
    flow = weights_k[..., None] * (inv - vis[..., None, :])
    return np.add.reduce(flow, axis=-2), inv - flow


def _drift(state: RoundState, epsilon: float, reference: np.ndarray) -> np.ndarray:
    """epsilon * (global - reference_i).

    `reference` is the visible matrix in plain mode and the quantized uploads
    in quantized mode.
    """
    return epsilon * (state.global_model[..., None, :] - reference)


def msp_round(state: RoundState, epsilon: float, weights_k: np.ndarray) -> RoundState:
    """One plain communication round followed by server aggregation; a
    leading seed axis on the state (and optionally the weights) batches
    seeds, each bitwise equal to its own call."""
    drift = _drift(state, epsilon, state.visible)
    coupling, new_inv = _coupling_terms(state, weights_k)
    new_vis = state.visible + drift + coupling
    # np.add.reduce(x, axis=-2) / n is bitwise x.mean(axis=-2), without the wrapper
    return RoundState(
        visible=new_vis,
        invisible=new_inv,
        m_counts=state.m_counts,
        global_model=np.add.reduce(new_vis, axis=-2) / state.M,
        k=state.k + 1,
    )


def mspdq_round(
    state: RoundState,
    epsilon: float,
    weights_k: np.ndarray,
    width: float,
    rng: np.random.Generator,
    wire_check: bool = False,
) -> tuple[RoundState, np.ndarray]:
    """One quantized round: update, center each client's box of the given
    width on its last quantized upload, quantize the new visible over it,
    and aggregate the quantized uploads.  Returns the new state and the
    (M,) upload error norms.

    Raises ProtocolIntegrityError when a post-update visible escapes its
    box (a width below the certified pi_t a_max[k]).
    """
    if state.quantized is None or state.level is None:
        raise ConfigError("state lacks quantized uploads; initialize the quantized mode first")
    level = state.level
    drift = _drift(state, epsilon, state.quantized)
    coupling, new_inv = _coupling_terms(state, weights_k)
    new_vis = state.visible + drift + coupling

    box_lo, box_hi = state.quantized - 0.5 * width, state.quantized + 0.5 * width
    if not ((new_vis >= box_lo).all() and (new_vis <= box_hi).all()):
        bad = np.argwhere(~((new_vis >= box_lo) & (new_vis <= box_hi)))[0]
        raise ProtocolIntegrityError(
            f"visible escaped its shrunk interval at round {state.k} "
            f"(client {bad[0]}, coordinate {bad[1]}); box width too small"
        )
    q_idx, q_vals = round_to_knobs(new_vis, box_lo, box_hi, level, rng)
    if wire_check:
        for i in range(state.M):
            qs = QuantizerState(lo=box_lo[i], hi=box_hi[i], level=level)
            blob = encode(QuantizedVector(indices=q_idx[i], state=qs))
            back = decode(blob, qs)
            if not np.array_equal(back.indices, q_idx[i]):
                raise ProtocolIntegrityError("wire roundtrip altered an upload")
    delta = q_vals - new_vis
    new_state = RoundState(
        visible=new_vis,
        invisible=new_inv,
        m_counts=state.m_counts,
        global_model=np.add.reduce(q_vals, axis=0) / state.M,
        quantized=q_vals,
        level=level,
        k=state.k + 1,
    )
    # the formula np.linalg.norm(delta, axis=1) evaluates
    return new_state, np.sqrt(np.add.reduce(delta * delta, axis=1))


def beta_gap(state: RoundState) -> float:
    """Frobenius distance between the visible stack and the first invisible
    stack; its running max feeds the interval-width constant.  sqrt of the
    flat dot product is the formula np.linalg.norm evaluates."""
    gap = (state.visible - state.invisible[:, 0, :]).ravel()
    return math.sqrt(gap.dot(gap))


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
    StepWeights.table, or a recorded trace's `weights` list replaying its
    own schedule.

    Returns (final_state, trace_or_None, summary) where summary carries the
    interval-width and beta-gap maxima and the worst quantization error and
    its margin below the bound (zeros and inf for plain rounds).  In
    quantized mode, round k's box width is pi_t a_max[k]; after the last
    round every upload error is checked against dynamic_error_bound, and
    ProtocolIntegrityError names the first round that exceeded it.
    """
    if K < 1:
        raise ConfigError("need at least one communication round")
    if mode not in (MSP, MSPDQ):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == MSPDQ and (rng is None or lambda2_u is None):
        raise ConfigError("quantized mode needs an rng and lambda2(U)")
    if len(weights) < K:
        raise ConfigError(f"step weights cover {len(weights)} rounds, need {K}")
    state = initial
    trace = None
    if record:
        trace = ConsensusTrace(
            mode=mode,
            epsilon=epsilon,
            m_counts=initial.m_counts.copy(),
            origins=(origins.copy() if origins is not None else np.zeros_like(initial.visible)),
        )
        trace.snapshot(state)
    if mode == MSPDQ:
        a_max = np.asarray(weights[:K])[:, :, 0].max(axis=1)
        pis = np.empty(K)
        errors = np.empty((K, initial.M))
    w_tilde = 0.0
    for k in range(K):
        weights_k = weights[k]
        if mode == MSP:
            state = msp_round(state, epsilon, weights_k)
        else:
            w_tilde = max(w_tilde, beta_gap(state))
            pi_t = compute_pi_t(epsilon, lambda2_u, w_tilde)
            state, errors[k] = mspdq_round(state, epsilon, weights_k, pi_t * a_max[k], rng, wire_check)
            pis[k] = pi_t
        if record:
            trace.weights.append(weights_k)
            trace.snapshot(state)
    if mode == MSP:
        summary = {"delta_max": 0.0, "bound_margin_min": float("inf"), "w_tilde_max": 0.0, "max_width": 0.0}
        return state, trace, summary
    delta_max = errors.max(axis=1)
    bound = dynamic_error_bound(pis, state.level, a_max, state.d)
    margins = bound - delta_max
    bad = np.flatnonzero(~(margins >= 0))
    if bad.size:
        k = int(bad[0])
        raise ProtocolIntegrityError(
            f"quantization error exceeded its bound at round {initial.k + k}: "
            f"{delta_max[k]:.6g} > {bound[k]:.6g}"
        )
    if record:
        trace.pis = pis.tolist()
    summary = {
        "delta_max": float(delta_max.max()),
        "bound_margin_min": float(margins.min()),
        "w_tilde_max": w_tilde,  # a running max: its last value
        "max_width": float((pis * a_max).max()),
    }
    return state, trace, summary


def check_conservation(trace: ConsensusTrace, rtol: float = CONSERVATION_RTOL) -> float:
    """Max relative drift of the conserved total over a trace."""
    totals = [v.sum(axis=0) + inv.sum(axis=(0, 1)) for v, inv in zip(trace.visibles, trace.invisibles)]
    return max(check_conserved(totals[0], t, rtol) for t in totals)


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
        w_tilde = max(w_tilde, float(np.linalg.norm(vis_k - trace.invisibles[k][:, 0, :])))
        s_delta = lambda2_u * s_delta + float(np.linalg.norm(trace.quantized[k] - vis_k))
        s_a = lambda2_u * s_a + float(np.max(trace.weights[k][:, 0]))
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
    for k in range(len(trace.visibles)):
        rec = {
            "t": t,
            "k": k,
            "visible": trace.visibles[k].tolist(),
            "global": trace.globals_[k].tolist(),
        }
        if trace.quantized:
            rec["quantized"] = trace.quantized[k].tolist()
        if k < len(trace.pis):
            rec["pi_t"] = trace.pis[k]
        lines.append(json.dumps(rec, sort_keys=True))
    return "\n".join(lines) + "\n"
