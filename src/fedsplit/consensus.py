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

import contextlib
import itertools
import json
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolIntegrityError
from .quantizer import (
    QuantizedVector,
    QuantizerState,
    _knob_law,
    compute_pi_t,
    decode,
    dynamic_error_bound,
    encode,
    knob_rounding_allowance,
    round_to_knobs,
)

CONSERVATION_RTOL = 1e-9
# Bytes of stacked rows a non-recording phase holds at once: broadcast step
# weights, and in quantized mode visibles, uploads and uniforms.  Longer
# phases run in blocks, so phase memory does not grow with K; a desk phase
# (M = 8, d = 10, K <= 130 at 500 learning rounds) fits in one block.
BLOCK_BYTES = 1 << 20
# Python objects a non-recording quantized row keeps beside its arrays: the
# views of its weight, visible and upload rows and its round tuple (~640
# bytes by tracemalloc).
ROW_OBJECT_BYTES = 640


@dataclass
class RoundState:
    """Cohort state at one communication round.

    visible: (M, d); invisible: (M, m_max, d) zero-padded past each client's
    own invisible count (a plain workspace bound directly also takes a
    leading axis on both, which run_consensus refuses); global_model is the
    aggregation that produced this round (mean visible for plain rounds,
    mean quantized upload otherwise).  A state with quantized uploads and
    their level starts a quantized phase, one without them a plain phase; a
    phase aggregates its own round zero, so it never reads
    `initial.global_model`, which may stay None.
    """

    visible: np.ndarray
    invisible: np.ndarray
    m_counts: np.ndarray
    global_model: np.ndarray | None = None
    quantized: np.ndarray | None = None
    level: int | None = None

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

    epsilon: float
    m_counts: np.ndarray
    visibles: np.ndarray  # (K+1, M, d)
    invisibles: np.ndarray  # (K+1, M, m_max, d)
    globals_: np.ndarray  # (K+1, d)
    weights: np.ndarray  # (K, M, m_max)
    quantized: np.ndarray | None = None  # (K+1, M, d), quantized mode only
    pis: np.ndarray | None = None  # (K,) interval constants, quantized mode only
    origins: np.ndarray | None = None  # (M, d) pre-split local models, private; set by the auditor

    @property
    def K(self) -> int:
        return self.weights.shape[0]

    @property
    def M(self) -> int:
        return self.m_counts.shape[0]


def conserved_sum(state: RoundState) -> np.ndarray:
    """Total of every real submodel over the cohort (padded slots are zero);
    a leading axis on the stacks gives one total per row."""
    return np.add.reduce(state.visible, axis=-2) + np.add.reduce(state.invisible, axis=(-3, -2))


def check_conserved(total0: np.ndarray, total: np.ndarray, rtol: float = CONSERVATION_RTOL) -> float:
    """Drift of a conserved total relative to max(1, max|total0|); raises
    ProtocolIntegrityError past rtol or on NaN."""
    scale = max(1.0, float(np.maximum.reduce(np.abs(total0), axis=None)))
    drift = float(np.maximum.reduce(np.abs(total - total0), axis=None)) / scale
    if not drift <= rtol:
        raise ProtocolIntegrityError(f"conserved sum drifted by {drift:.3e} relative")
    return drift


class _Workspace(RoundState):
    """A working state that its kernel `step` advances.

    A state with quantized uploads binds a quantized workspace, any other a
    plain one.  step(weights) runs one plain round, step(weights, width,
    uniforms) one quantized round, on the workspace's own arrays:

        vis <- vis + epsilon (global - ref_i) + sum_n a_n (inv_n - vis)
        inv <- inv + a (vis - inv)

    where ref is the visible matrix in plain mode and the quantized uploads
    in quantized mode, and `weights` broadcasts to the invisible shape.  A
    quantized round then rounds the new visible, with the (M, d) uniforms,
    over each client's box of the given width centred on its last upload
    (the quantizer's bound knob law), into the uploads.  Both aggregate:
    global = the mean over clients of ref, np.add.reduce over the client
    axis divided by M, bitwise ref.mean(axis=-2).

    load(state) arms the workspace for a phase: it copies the state's
    visibles, invisibles and uploads in and aggregates their round zero the
    same way, whatever global the state carried.  A bind allocates for the
    state's shapes and mode, then loads it: one arming path.

    step is one closure bound once over every operand as a local: the
    arrays and their broadcast views, the epsilon, client count and
    half-width as 0-d arrays, and scratch for every intermediate, so every
    ufunc but the invisible flow's at m > 1 writes `out=` into contiguous
    same-shape or 0-d operands; the drift reads a per-client copy of the
    global, refreshed after each aggregate, not a broadcast row.  The flow
    a (inv - vis) enters the visible and leaves the invisible, so inv - flow
    is bitwise inv + a (vis - inv); every input is read before it is
    written; one invisible row (the desk shape) is its own flow sum.  Each
    step ends, and load ends, by leaving the next round's inv - vis in
    `flow`, whose first slot is the beta gap negated.

    Bound over a (K, M, m) step-weight table, it also holds `block`, the
    rounds per block of a phase (all K when recording, else as many as
    BLOCK_BYTES allows), one block of weight rows broadcast to the
    invisible shape (`weight_block`), and in quantized mode each round's
    largest first-slot weight `a_max`.  A non-recording quantized one also
    owns the (block + 1, M, d) stacks `visible_rows` and `upload_rows` that
    the phase checks read: round r reads its visible and upload from row r
    and writes the next ones into row r + 1, `visible` and `quantized`
    follow the row written last, and carry() starts the next block from the
    last row of a full one.  Any other workspace rewrites one row in place.
    run_consensus binds one per phase unless given a run's workspace, bound
    over the run's whole table.
    spectral.contraction_probe binds a plain one with no table and calls
    its step directly.
    """

    def __init__(self, state: RoundState, epsilon: float, weights=None, record: bool = True):
        quantized = state.quantized is not None
        if quantized and state.level is None:
            raise ConfigError("state has quantized uploads but no level")
        shape, inv_shape = state.visible.shape, state.invisible.shape
        rows = 1
        if weights is not None:
            self.table = np.asarray(weights)
            K = len(self.table)
            self.block = K
            if not record:
                # a round's weight row, and with quantization its visible, upload
                # and uniforms, plus the row views and round tuple the kernel keeps
                row_bytes = 8 * math.prod(inv_shape) + (24 * math.prod(shape) + ROW_OBJECT_BYTES if quantized else 0)
                self.block = max(1, min(K, BLOCK_BYTES // row_bytes))
            self.weight_rows = np.empty((self.block,) + inv_shape)
            self.row_views = list(self.weight_rows)  # a list index is cheaper than an array's, per round
            self.rows_start = -1  # the table row that weight_rows[0] holds
            if quantized:
                self.a_max = np.maximum.reduce(self.table[:, :, 0], axis=1)
                self.a_maxes = self.a_max.tolist()  # Python floats: the per-round product with pi_t is cheaper
                if not record:
                    rows = self.block + 1
        vis_rows = np.empty((rows,) + shape)
        ref_rows = np.empty_like(vis_rows) if quantized else vis_rows
        vis0, ref0 = vis_rows[0], ref_rows[0]
        super().__init__(
            vis0, np.empty(inv_shape), state.m_counts, np.empty(shape[:-2] + shape[-1:]),
            ref0 if quantized else None, state.level if quantized else None,
        )
        self.epsilon = epsilon
        inv, glob = self.invisible, self.global_model
        vis0_b, glob_b = vis0[..., None, :], glob[..., None, :]
        # step reads each round's (visible, ref, next visible, its broadcast
        # view, next ref) from `rounds`: row r's and row r + 1's in the
        # stacks, else the one row each round rewrites
        rounds = itertools.repeat((vis0, ref0, vis0, vis0_b, ref0))
        if rows > 1:
            self.visible_rows, self.upload_rows = vis_rows, ref_rows
            vis_views, ref_views = list(vis_rows), list(ref_rows)
            rounds_ops = list(zip(vis_views, ref_views, vis_views[1:], list(vis_rows[1:, ..., None, :]), ref_views[1:]))
        glob_m = np.empty(shape)  # the global, one row per client
        eps, count, half = np.array(float(epsilon)), np.array(float(shape[-2])), np.array(0.0)
        flow, drift = np.empty(inv_shape), np.empty(shape)
        self.flow = flow
        sum_rows = inv_shape[-2] != 1
        total = np.empty(shape) if sum_rows else flow[..., 0, :]
        if quantized:
            lo, hi = np.empty(shape), np.empty(shape)
            round_ = _knob_law(self.level, vis0)[1]
        # numpy's functions as closure locals, as in quantizer._knob_law; a
        # slice assignment copies for half what np.copyto costs
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        add_reduce, next_ = add.reduce, next
        # the closures set the workspace's attributes through a weak reference:
        # a strong one would make each workspace a reference cycle, whose rows
        # only the cyclic collector frees
        own = weakref.ref(self)

        def step(weights, width=None, uniforms=None):
            vis, ref, new_vis, new_vis_b, new_ref = next_(rounds)
            multiply(weights, flow, flow)
            subtract(inv, flow, inv)
            subtract(glob_m, ref, drift)
            multiply(eps, drift, drift)
            add(vis, drift, drift)
            if sum_rows:
                add_reduce(flow, axis=-2, out=total)
            add(drift, total, new_vis)
            if quantized:
                half[()] = 0.5 * width
                round_(new_vis, subtract(ref, half, lo), add(ref, half, hi), uniforms, new_ref)
                workspace = own()
                workspace.visible, workspace.quantized = new_vis, new_ref
            divide(add_reduce(new_ref, axis=-2, out=glob), count, glob)  # the aggregate, as in load
            glob_m[...] = glob_b
            subtract(inv, new_vis_b, flow)  # the next round's flow

        def restart() -> None:  # the stacks' first round reads row 0
            nonlocal rounds
            rounds = iter(rounds_ops)
            workspace = own()
            workspace.visible, workspace.quantized = vis0, ref0

        def load(state: RoundState) -> None:
            if rows > 1:
                restart()
            vis0[...] = state.visible
            inv[...] = state.invisible
            if quantized:
                ref0[...] = state.quantized
            own().m_counts = state.m_counts
            divide(add_reduce(ref0, axis=-2, out=glob), count, glob)  # round zero's aggregate
            glob_m[...] = glob_b
            subtract(inv, vis0_b, flow)  # round zero's flow

        def carry() -> None:
            vis0[...] = vis_rows[-1]
            ref0[...] = ref_rows[-1]
            restart()

        self.step = step
        self.load = load
        self.carry = carry
        load(state)

    def weight_block(self, start: int) -> list:
        """Views of the broadcast weight rows of the block of rounds from
        table row `start`; copied from the table only when they are not
        already held."""
        if start != self.rows_start:
            b = min(self.block, len(self.table) - start)
            self.weight_rows[:b] = self.table[start : start + b, ..., None]
            self.rows_start = start
        return self.row_views


def msp_round(state: RoundState, weights_k: np.ndarray) -> RoundState:
    """One plain communication round followed by server aggregation.

    Advances run_consensus's plain working state in place, with the epsilon
    it was bound with, and returns it; `weights_k` broadcasts to the
    invisible shape.  Any other state raises ConfigError.  The kernel also
    takes a leading axis on the state (and optionally the weights), each row
    bitwise its own round: contraction_probe and the tests' one_round bind
    one directly.  run_consensus refuses such a state, since its copy of a
    block of weight rows would line the block length up with that axis.
    """
    if type(state) is _Workspace and state.quantized is None:
        state.step(weights_k)
        return state
    raise ConfigError("msp_round advances only a plain working state; rounds run through run_consensus")


def mspdq_round(state: RoundState, weights_k: np.ndarray, width: float, uniforms: np.ndarray) -> RoundState:
    """One quantized round: update, center each client's box of the given
    width on its last quantized upload, quantize the new visible over it
    with the (M, d) uniforms, and aggregate the quantized uploads.

    Advances run_consensus's quantized working state, as msp_round does a
    plain one; any other state raises ConfigError.
    The round checks nothing, and collapsed knobs divide by zero in it (see
    round_to_knobs): run_consensus silences that once per phase and checks
    the phase's box containment, upload errors and wire roundtrip over its
    stacks.
    """
    if type(state) is _Workspace and state.quantized is not None:
        state.step(weights_k, width, uniforms)
        return state
    raise ConfigError("mspdq_round advances only a quantized working state; rounds run through run_consensus")


def _check_quantized_rounds(
    k0: int,
    visibles: np.ndarray,
    quantized: np.ndarray,
    uniforms: np.ndarray,
    widths: np.ndarray,
    level: int,
    wire_check: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Check b quantized rounds, the first of them round k0, from their
    (b+1, M, d) visible and upload rows, the (b, M, d) uniforms and the (b,)
    box widths; returns each round's largest upload error norm and largest
    |box end|.

    In order: every post-update visible lies in its box, else
    ProtocolIntegrityError names the first escape by round, client and
    coordinate; then, with wire_check, every upload's knob indices survive
    the codec.  The boxes and indices are the rounds' own: the same
    elementwise arithmetic over the stacks gives the same bits.
    """
    halves = 0.5 * widths
    half = halves[:, None, None]
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
    # the formula np.linalg.norm(delta, axis=-1) evaluates, with the max over
    # clients taken before the (monotone) sqrt.  hi >= lo, so the largest
    # |box end| is max(max hi, -min lo); float rounding is monotone and odd,
    # so that is bitwise max|upload| + half
    norms = np.sqrt(np.maximum.reduce(np.add.reduce(delta * delta, axis=-1), axis=-1))
    return norms, np.maximum.reduce(np.abs(quantized[:-1]), axis=(1, 2)) + halves


def run_consensus(
    initial: RoundState,
    epsilon: float,
    weights,
    rng: np.random.Generator | None = None,
    lambda2_u: float | None = None,
    record: bool = True,
    wire_check: bool = False,
    workspace: _Workspace | None = None,
):
    """Run one consensus phase of K = len(weights) rounds from `initial`.

    `weights[k]` gives round k's (M, m) step weights: rows of a
    StepWeights.table, or a recorded trace's `weights` replaying its own
    schedule.  The phase is quantized exactly when `initial` carries
    quantized uploads, and it aggregates round zero itself (see _Workspace).

    This is the one caller of the round operators.  Every round's operator
    call advances one working state, loaded from `initial` (which stays
    unchanged).  A recording phase copies all four arrays into (K+1)-row
    stacks after each round, which its ConsensusTrace wraps.  A
    non-recording quantized phase copies nothing: its workspace writes each
    round's visibles and uploads, which its checks read, into the next row
    of its own stacks, and moves one row at each block boundary.  A
    non-recording plain phase keeps nothing.

    The working state is a workspace (see _Workspace): one kernel closure
    over every operand of a round, with the constants and the half-width as
    0-d arrays, and the step weights of a block of rounds broadcast to the
    invisible shape.  The phase binds one over `weights` unless given
    `workspace`: a run's workspace, bound with this epsilon over a table
    whose first K rows are `weights`, runs non-recording phases only; the
    phase loads `initial` into it, and the final state's arrays are the
    workspace's own until its next load.  On these
    small arrays a round's cost is its numpy calls and their operands
    (README gives the per-call costs), so the loop adds to each quantized
    operator call only pi_t and the beta gap's dot product, over the first
    slot of the flow the kernel leaves (negated, which is exact; copied
    contiguous at m > 1, where a strided dot rounds differently), and a
    recording phase's row copies.  The
    weight rows count against BLOCK_BYTES in both modes, beside the
    visibles, uploads and uniforms of a quantized phase: a non-recording
    phase runs in blocks of at most that many bytes, so its memory does not
    grow with K, and draws each block's uniforms in one call (PCG64 doubles
    are unbuffered, so the blocks read what one (K, M, d) draw would).  A
    recording phase runs in one block.

    Returns (final_state, trace_or_None, summary) where summary carries the
    interval-width and beta-gap maxima and the worst quantization error and
    its margin below dynamic_error_bound, negative only within the rounding
    allowance (zeros and inf for plain rounds).  In
    quantized mode, round k's box width is pi_t a_max[k], and the phase is
    checked over its stacks, each block after its last round: first box
    containment, then (with wire_check) the codec roundtrip, and after the
    last block every upload error against dynamic_error_bound plus the
    knob_rounding_allowance of the round's largest |box end|.  Each raises
    ProtocolIntegrityError naming the first round that failed it, so an
    escape anywhere in the phase wins over an error-bound violation.  Last,
    in both modes, check_conserved raises if the final cohort total drifted
    from the initial one.
    """
    K = len(weights)
    if K < 1:
        raise ConfigError("need at least one communication round")
    # a leading axis on the state would line the weight block up with it
    vis_shape, inv_shape, counts_shape = initial.visible.shape, initial.invisible.shape, np.shape(initial.m_counts)
    if len(vis_shape) != 2 or len(inv_shape) != 3 or inv_shape[::2] != vis_shape or counts_shape != vis_shape[:1]:
        raise ConfigError(
            f"a phase runs an (M, d) visible, (M, m_max, d) invisible and M counts, got shapes "
            f"{vis_shape}, {inv_shape} and {counts_shape}"
        )
    if workspace is None:
        state = _Workspace(initial, epsilon, weights, record)
    elif (
        record
        or epsilon != workspace.epsilon
        or K > len(workspace.table)
        or initial.visible.shape != workspace.visible.shape
        or initial.invisible.shape != workspace.invisible.shape
        or (initial.quantized is None) != (workspace.quantized is None)
        or (workspace.quantized is not None and initial.level != workspace.level)
    ):
        raise ConfigError(
            "a run's workspace runs only non-recording phases of its own epsilon, table, shapes, mode and level"
        )
    else:
        state = workspace
        state.load(initial)
    quantized = state.quantized is not None
    if quantized and (rng is None or lambda2_u is None):
        raise ConfigError("quantized mode needs an rng and lambda2(U)")
    B = min(state.block, K)  # rounds per block
    # a recording phase copies every array into (B + 1)-row stacks after each
    # round; a non-recording quantized workspace holds the visibles and
    # uploads its checks read in its own row stacks
    kept = ()
    if record:
        kept = (state.visible, state.invisible, state.global_model) + ((state.quantized,) if quantized else ())
    stacks = [np.empty((B + 1,) + a.shape) for a in kept]
    copies = tuple(zip(stacks, kept))
    if quantized:
        # the beta gap is the Frobenius distance between the visibles and the
        # first invisibles, whose difference the kernel leaves in its flow;
        # negation is exact, and sqrt of the flat dot product is the formula
        # np.linalg.norm evaluates.  The first slot is strided at m > 1, where
        # a contiguous copy gives the dot the bits of a contiguous gap
        first = state.flow[..., 0, :]
        strided = not first.flags.c_contiguous
        gap = np.empty_like(first) if strided else first
        gap_flat = gap.reshape(-1)
        visibles, uploads = (stacks[0], stacks[-1]) if record else (state.visible_rows, state.upload_rows)
        a_max, a_maxes = state.a_max[:K], state.a_maxes
        pis, widths, delta_max, box_end_max = np.empty(K), np.empty(K), np.empty(K), np.empty(K)
    w_tilde = 0.0
    # collapsed knobs divide by zero in the rounding kernel (see round_to_knobs),
    # and rounds after an escape run on until the block's check, which any
    # non-finite visible fails; a plain phase's context is a no-op, which
    # costs under half of an empty np.errstate
    with np.errstate(divide="ignore", invalid="ignore", over="ignore") if quantized else contextlib.nullcontext():
        for start in range(0, K, B):
            b = min(B, K - start)
            rows = state.weight_block(start)
            for stack, a in copies:
                stack[0] = a
            if quantized:
                if start:
                    state.carry()
                uniforms = rng.random(size=(b,) + vis_shape)
            for r in range(b):
                if quantized:
                    if strided:
                        gap[...] = first
                    beta = math.sqrt(gap_flat.dot(gap_flat))
                    if beta > w_tilde:  # a running max
                        w_tilde = beta
                    pis[start + r] = pi_t = compute_pi_t(epsilon, lambda2_u, w_tilde)
                    mspdq_round(state, rows[r], pi_t * a_maxes[start + r], uniforms[r])
                else:
                    msp_round(state, rows[r])
                for stack, a in copies:
                    stack[r + 1] = a
            if quantized:
                span = slice(start, start + b)
                widths[span] = pis[span] * a_max[span]  # the rounds' own products
                delta_max[span], box_end_max[span] = _check_quantized_rounds(
                    start, visibles[: b + 1], uploads[: b + 1], uniforms, widths[span], state.level, wire_check
                )
    final = RoundState(state.visible, state.invisible, state.m_counts, state.global_model, state.quantized, state.level)
    trace = None
    if record:
        trace = ConsensusTrace(
            epsilon=epsilon,
            m_counts=initial.m_counts.copy(),
            visibles=stacks[0],
            invisibles=stacks[1],
            globals_=stacks[2],
            weights=state.table.copy(),
            quantized=stacks[3] if quantized else None,
            pis=pis if quantized else None,
        )
    summary = {"delta_max": 0.0, "bound_margin_min": float("inf"), "w_tilde_max": 0.0, "max_width": 0.0}
    if quantized:
        bound = dynamic_error_bound(pis, state.level, a_max, initial.d)
        limit = bound + knob_rounding_allowance(box_end_max, initial.d)
        within = delta_max <= limit
        if not np.logical_and.reduce(within):
            k = int(np.flatnonzero(~within)[0])
            raise ProtocolIntegrityError(
                f"quantization error exceeded its bound at round {k}: {delta_max[k]:.6g} > {limit[k]:.6g}"
            )
        summary = {
            "delta_max": float(np.maximum.reduce(delta_max)),
            "bound_margin_min": float(np.minimum.reduce(bound - delta_max)),
            "w_tilde_max": w_tilde,  # a running max: its last value
            "max_width": float(np.maximum.reduce(widths)),
        }
    check_conserved(conserved_sum(initial), conserved_sum(final))
    return final, trace, summary


def check_deviation_bound(trace: ConsensusTrace, lambda2_u: float) -> float:
    """Verifies the visible-stack deviation bound on a quantized trace:

        ||W[k+1] - 1 mean|| <= 2 sum_l lam^{k-l} ||Delta[l]|| +
                               Wmax_k sum_l lam^{k-l} a_max[l]

    with measured quantization errors; both sums run as geometric
    recursions s_k = lam s_{k-1} + term_k.  Returns the minimum slack.
    """
    if trace.quantized is None:
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
