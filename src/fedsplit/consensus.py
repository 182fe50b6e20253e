"""Inter-round dynamics of the splitting protocol.

Plain rounds: each selected client moves its visible submodel toward the
broadcast global model and exchanges mass with its own invisible submodels;
the server re-averages visibles.  Quantized rounds replace the client's
upload with a stochastically quantized value over a per-client shrinking
box, and the drift term uses the client's own quantized value, exactly as
the update law is written.

The total of all submodels over the selected cohort is conserved round to
round in the plain dynamics and conserved in expectation under quantization.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ProtocolIntegrityError
from .quantizer import (
    QuantizedVector,
    QuantizerState,
    bit_width,
    compute_pi_t,
    decode,
    dynamic_error_bound,
    encode,
    knob_values,
    round_to_knobs,
    shrink_box,
)
from .splitting import SplitState

CONSERVATION_RTOL = 1e-9

MSP = "msp"
MSPDQ = "mspdq"


@dataclass
class RoundState:
    """Cohort state at one communication round.

    visible: (M, d); invisible: (M, m_max, d) zero-padded past each client's
    own invisible count; global_model is the aggregation that produced this
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
        return self.visible.shape[0]

    @property
    def d(self) -> int:
        return self.visible.shape[1]


@dataclass
class RoundOverrides:
    """Round-local parameter substitutions used by the privacy auditor.

    drift[(i, j)] is the elementwise weight client i applies to source j in
    its drift term (default 1/M); coupling[(i, n)] is the elementwise weight
    between client i's visible and its n-th invisible submodel.
    """

    drift: dict = field(default_factory=dict)
    coupling: dict = field(default_factory=dict)


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

    def at(self, k: int) -> np.ndarray:
        """The step weights recorded at round k, so a trace replays its own
        schedule wherever a StepWeights is expected."""
        return self.weights[k]

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


def consensus_target(state: RoundState) -> np.ndarray:
    """Common limit of all submodels: conserved sum over the submodel count."""
    return conserved_sum(state) / float(np.sum(1 + state.m_counts))


def _coupling_terms(
    state: RoundState, weights_k: np.ndarray, overrides: RoundOverrides | None = None
):
    """Visible-side coupling sum and the updated invisible stack."""
    vis = state.visible
    inv = state.invisible
    w = weights_k[:, :, None]
    coupling = (w * (inv - vis[:, None, :])).sum(axis=1)
    new_inv = inv + w * (vis[:, None, :] - inv)
    if overrides is not None:
        for (i, n), a_vec in overrides.coupling.items():
            base = weights_k[i, n]
            coupling[i] += (a_vec - base) * (inv[i, n] - vis[i])
            new_inv[i, n] = inv[i, n] + a_vec * (vis[i] - inv[i, n])
    return coupling, new_inv


def _drift(
    state: RoundState,
    epsilon: float,
    reference: np.ndarray,
    overrides: RoundOverrides | None = None,
) -> np.ndarray:
    """epsilon * (global - reference_i), with per-pair weight substitutions.

    `reference` is the visible matrix in plain mode and the quantized uploads
    in quantized mode.  An override (plain rounds only) replaces, for client
    i only, the uniform 1/M weight on one source's visible with an
    elementwise vector.
    """
    drift = epsilon * (state.global_model[None, :] - reference)
    if overrides is not None and overrides.drift:
        M = state.M
        vis = state.visible
        for (i, j), alpha in overrides.drift.items():
            terms = (vis - vis[i]) / M
            terms[j] = alpha * (vis[j] - vis[i])
            drift[i] = epsilon * terms.sum(axis=0)
    return drift


def msp_round(
    state: RoundState,
    epsilon: float,
    weights_k: np.ndarray,
    overrides: RoundOverrides | None = None,
) -> RoundState:
    """One plain communication round followed by server aggregation."""
    drift = _drift(state, epsilon, state.visible, overrides)
    coupling, new_inv = _coupling_terms(state, weights_k, overrides)
    new_vis = state.visible + drift + coupling
    return RoundState(
        visible=new_vis,
        invisible=new_inv,
        m_counts=state.m_counts,
        global_model=new_vis.mean(axis=0),
        k=state.k + 1,
    )


@dataclass
class QuantizedRoundRecord:
    a_max_k: float
    delta_norms: np.ndarray
    delta_bound: float


def mspdq_round(
    state: RoundState,
    epsilon: float,
    weights_k: np.ndarray,
    pi_t: float,
    rng: np.random.Generator,
    wire_check: bool = False,
) -> tuple[RoundState, QuantizedRoundRecord]:
    """One quantized round: update, shrink the per-client box, quantize the
    new visible over it, and aggregate the quantized uploads.

    Raises ProtocolIntegrityError when a post-update visible escapes its
    shrunk box (a pi_t misconfiguration).
    """
    if state.quantized is None or state.level is None:
        raise ConfigError("state lacks quantized uploads; initialize the quantized mode first")
    level = state.level
    drift = _drift(state, epsilon, state.quantized)
    coupling, new_inv = _coupling_terms(state, weights_k)
    new_vis = state.visible + drift + coupling

    a_max_k = float(np.max(weights_k[:, 0]))
    box_lo, box_hi = shrink_box(state.quantized, pi_t, a_max_k)
    inside = (new_vis >= box_lo) & (new_vis <= box_hi)
    if not inside.all():
        bad = np.argwhere(~inside)[0]
        raise ProtocolIntegrityError(
            f"visible escaped its shrunk interval at round {state.k} "
            f"(client {bad[0]}, coordinate {bad[1]}); pi_t misconfigured"
        )
    q_idx = round_to_knobs(new_vis, box_lo, box_hi, level, rng)
    q_vals = knob_values(box_lo, box_hi, level, q_idx)
    if wire_check:
        for i in range(state.M):
            qs = QuantizerState(lo=box_lo[i], hi=box_hi[i], level=level)
            blob = encode(QuantizedVector(indices=q_idx[i], state=qs))
            back = decode(blob, qs)
            if not np.array_equal(back.indices, q_idx[i]):
                raise ProtocolIntegrityError("wire roundtrip altered an upload")
    delta = q_vals - new_vis
    rec = QuantizedRoundRecord(
        a_max_k=a_max_k,
        delta_norms=np.linalg.norm(delta, axis=1),
        delta_bound=dynamic_error_bound(pi_t, bit_width(level), a_max_k, state.d),
    )
    new_state = RoundState(
        visible=new_vis,
        invisible=new_inv,
        m_counts=state.m_counts,
        global_model=q_vals.mean(axis=0),
        quantized=q_vals,
        level=level,
        k=state.k + 1,
    )
    return new_state, rec


def beta_gap(state: RoundState) -> float:
    """Frobenius distance between the visible stack and the first invisible
    stack; its running max feeds the interval-width constant."""
    return float(np.linalg.norm(state.visible - state.invisible[:, 0, :]))


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
    overrides: dict | None = None,
    wire_check: bool = False,
):
    """Iterate the chosen round operator K times.

    `weights.at(k)` gives round k's (M, m) step weights: a StepWeights
    schedule, or a recorded ConsensusTrace replaying its own.

    Returns (final_state, trace_or_None, summary) where summary carries the
    running interval-width and beta-gap maxima and the worst quantization
    error and its margin below the bound (zeros and inf for plain rounds).
    """
    if K < 1:
        raise ConfigError("need at least one communication round")
    if mode not in (MSP, MSPDQ):
        raise ConfigError(f"unknown mode {mode!r}")
    if mode == MSPDQ and (rng is None or lambda2_u is None):
        raise ConfigError("quantized mode needs an rng and lambda2(U)")
    if mode == MSPDQ and overrides:
        raise ConfigError("round overrides replay plain-mode transcripts only")
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
    w_tilde = 0.0
    summary = {
        "delta_max": 0.0,
        "bound_margin_min": float("inf"),
        "w_tilde_max": 0.0,
        "max_width": 0.0,
    }
    for k in range(K):
        weights_k = weights.at(k)
        if mode == MSP:
            state = msp_round(
                state, epsilon, weights_k, overrides=overrides.get(k) if overrides else None
            )
            if record:
                trace.weights.append(weights_k)
                trace.snapshot(state)
            continue
        w_tilde = max(w_tilde, beta_gap(state))
        pi_t = compute_pi_t(epsilon, lambda2_u, w_tilde)
        state, rec = mspdq_round(state, epsilon, weights_k, pi_t, rng, wire_check=wire_check)
        summary["delta_max"] = max(summary["delta_max"], float(rec.delta_norms.max()))
        summary["bound_margin_min"] = min(
            summary["bound_margin_min"], rec.delta_bound - float(rec.delta_norms.max())
        )
        summary["w_tilde_max"] = max(summary["w_tilde_max"], w_tilde)
        summary["max_width"] = max(summary["max_width"], pi_t * rec.a_max_k)
        if record:
            trace.weights.append(weights_k)
            trace.pis.append(pi_t)
            trace.snapshot(state)
    return state, trace, summary


def check_conservation(trace: ConsensusTrace, rtol: float = CONSERVATION_RTOL) -> float:
    """Max relative drift of the conserved total over a plain-mode trace."""
    totals = [v.sum(axis=0) + inv.sum(axis=(0, 1)) for v, inv in zip(trace.visibles, trace.invisibles)]
    ref = totals[0]
    scale = max(1.0, float(np.max(np.abs(ref))))
    worst = max(float(np.max(np.abs(t - ref))) for t in totals) / scale
    if worst > rtol:
        raise ProtocolIntegrityError(f"conserved sum drifted by {worst:.3e} relative")
    return worst


def check_deviation_bound(trace: ConsensusTrace, lambda2_u: float) -> float:
    """Verifies the visible-stack deviation bound on a quantized trace:

        ||W[k+1] - 1 mean|| <= 2 sum_l lam^{k-l} ||Delta[l]|| +
                               Wmax_k sum_l lam^{k-l} a_max[l]

    with measured quantization errors.  Returns the minimum slack.
    """
    if trace.mode != MSPDQ:
        raise ConfigError("deviation bound applies to quantized traces")
    min_slack = float("inf")
    w_tilde = 0.0
    deltas = []
    for k in range(trace.K):
        vis_k = trace.visibles[k]
        w_tilde = max(w_tilde, float(np.linalg.norm(vis_k - trace.invisibles[k][:, 0, :])))
        deltas.append(float(np.linalg.norm(trace.quantized[k] - vis_k)))
        vis_next = trace.visibles[k + 1]
        dev = float(np.linalg.norm(vis_next - vis_next.mean(axis=0)))
        bound = 0.0
        for l in range(k + 1):
            lam_pow = lambda2_u ** (k - l)
            bound += 2.0 * lam_pow * deltas[l]
            bound += w_tilde * lam_pow * float(np.max(trace.weights[l][:, 0]))
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
