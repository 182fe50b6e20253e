"""Mechanical verification of the privacy claims.

The auditor records what an honest-but-curious server plus a set of
corrupted clients can see, constructs the observable-equivalence witness
(an alternative pair of local models shifted by +-e whose round-zero
parameters reproduce the identical view), replays it against the original
transcript, and runs the total-mass inference attack with known vs hidden
invisible counts.

Witness algebra.  Shifting client i's local model by e moves its absorbing
invisible initial by (1+m_i)e; the replacement coupling weight is chosen so
that invisible submodel lands back on its original trajectory after one
round, which leaves a +(1+m_i)e excess in i's visible update; the round-zero
drift weight i applies to the cooperating client j's visible is then scaled
to remove exactly that excess.  Client j's side is the same algebra with the
roles swapped and the shift negated, so one function builds both.  Every
division is elementwise; near-zero denominators make the witness degenerate
and the harness redraws.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import rng as rngmod
from .consensus import ConsensusTrace, RoundState, run_consensus
from .errors import ConfigError, ProtocolIntegrityError, WitnessDegenerateError
from .quantizer import QuantizerState, dp_delta, output_distribution, tv_distance
from .spectral import StepWeights, build_U, step_weight_cap
from .splitting import SplitRule, split_cohort

REPLAY_TOL = 1e-6
MUTATION_MIN_DEVIATION = 1e-3
DEGENERATE_TOL = 1e-12
DEFAULT_E_MAGNITUDES = (1e-3, 1.0, 1e3, 1e6)
# A replay deviates from the original view by about c |e| eps (float64 eps);
# c stayed below 7 over 1,200 witnesses on seeds 0-99, so shifts up to this
# cap (~7.0e7) stay under REPLAY_TOL with a ninefold margin.
MAX_E_MAGNITUDE = REPLAY_TOL / (64 * np.finfo(np.float64).eps)


@dataclass(frozen=True)
class AdversaryView:
    """Everything the server and corrupted clients observe in one consensus
    phase: all visible submodels, all globals, and for corrupted clients
    their own invisible submodels and weights.  Holds no honest invisible
    state and no honest invisible counts."""

    visibles: np.ndarray  # (K+1, M, d)
    globals_: np.ndarray  # (K+1, d)
    corrupted: dict  # slot -> {"invisibles": (K+1, m_c, d), "coupling": (K, m_c)}
    drift_alpha: float  # uniform aggregation weight in force (1/M)

    @property
    def K(self) -> int:
        return self.visibles.shape[0] - 1


def record_view(
    trace: ConsensusTrace,
    corrupted: frozenset | set = frozenset(),
    protected: frozenset | set = frozenset(),
) -> AdversaryView:
    """Filter a full transcript down to the adversary-visible part."""
    overlap = set(corrupted) & set(protected)
    if overlap:
        raise ConfigError(f"corrupted set may not contain protected clients {sorted(overlap)}")
    M = trace.M
    if any(not 0 <= c < M for c in corrupted):
        raise ConfigError("corrupted slot out of range")
    corr = {}
    for c in sorted(corrupted):
        m_c = int(trace.m_counts[c])
        corr[int(c)] = {
            "invisibles": trace.invisibles[:, c, :m_c].copy(),
            "coupling": trace.weights[:, c, :m_c].copy(),
        }
    return AdversaryView(
        visibles=trace.visibles.copy(), globals_=trace.globals_.copy(), corrupted=corr, drift_alpha=1.0 / M
    )


@dataclass
class EquivalenceWitness:
    """Round-zero substitutions that leave the adversary view unchanged
    while the underlying local models move by +e (client i) and -e (j)."""

    trace: ConsensusTrace
    i: int
    j: int
    e: np.ndarray
    p: int  # perturbed invisible index at i
    q: int  # perturbed invisible index at j
    inv_i: np.ndarray
    inv_j: np.ndarray
    a_i: np.ndarray
    a_j: np.ndarray
    alpha_i: np.ndarray  # weight client i applies to source j at k=0
    alpha_j: np.ndarray  # weight client j applies to source i at k=0
    identity: bool = False  # e == 0: all parameters equal the originals

    def shifted_locals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.trace.origins[self.i] + self.e, self.trace.origins[self.j] - self.e


def _witness_side(trace: ConsensusTrace, c: int, src: int, e: np.ndarray) -> tuple:
    """Client c's side of the witness for a local shift e, against the
    cooperating client src: c's absorbing-invisible index, that invisible
    shifted by (1+m_c)e, and the coupling weight and the drift weight on
    src's visible that cancel the shift (the originals at e == 0)."""
    m = int(trace.m_counts[c])
    n = m - 1
    vis, vis_src = trace.visibles[0, c], trace.visibles[0, src]
    inv0, a0 = trace.invisibles[0, c, n], trace.weights[0, c, n]
    if not np.any(e):
        return n, inv0.copy(), np.full_like(vis, a0), np.full_like(vis, 1.0 / trace.M)
    inv = inv0 + (1 + m) * e
    den_a = vis - inv
    den_alpha = trace.epsilon * (vis_src - vis)
    for name, den in (("coupling", den_a), ("drift", den_alpha)):
        if np.min(np.abs(den)) < DEGENERATE_TOL:
            raise WitnessDegenerateError(f"vanishing denominator in the {name} weight of client {c}")
    a = (a0 * (vis - inv0) - (1 + m) * e) / den_a
    alpha = (trace.epsilon / trace.M * (vis_src - vis) - (1 + m) * e) / den_alpha
    return n, inv, a, alpha


def construct_witness(trace: ConsensusTrace, i: int, j: int, e: np.ndarray) -> EquivalenceWitness:
    """Build the alternative round-zero parameters for a +-e local shift:
    client i's side for +e, and client j's, the same algebra, for -e."""
    if trace.quantized is not None:
        raise ConfigError("witness construction audits plain-mode transcripts")
    if trace.origins is None:
        raise ConfigError("witness construction needs the trace's pre-split origins")
    if i == j:
        raise ConfigError("need two distinct cohort slots")
    if not (0 <= i < trace.M and 0 <= j < trace.M):
        raise ConfigError("slot out of range")
    e = np.asarray(e, dtype=np.float64)
    p, inv_i, a_i, alpha_i = _witness_side(trace, i, j, e)
    q, inv_j, a_j, alpha_j = _witness_side(trace, j, i, -e)
    return EquivalenceWitness(
        trace=trace, i=i, j=j, e=e, p=p, q=q,
        inv_i=inv_i, inv_j=inv_j, a_i=a_i, a_j=a_j, alpha_i=alpha_i, alpha_j=alpha_j,
        identity=not np.any(e),
    )


def _replay(witness: EquivalenceWitness) -> ConsensusTrace:
    """Re-run the transcript from the witness's round-zero parameters.

    Round zero runs as a one-round phase from the recorded round-zero
    state, then recomputes the protected clients' rows of the new visible
    and invisible stacks with the witness invisibles and weights: the
    witness changes nothing else, and a client's invisibles enter only its
    own rows.  (A phase from the witness state itself fails its
    conservation check at large shifts: its shifted invisibles, (1 + m) |e|
    large, round by far more than the total allows.)  Rounds 1..K-1 run as
    a second phase, and the replayed trace stacks round zero, the witness
    round and those rounds.
    """
    trace = witness.trace
    vis = trace.visibles[0]
    inv = trace.invisibles[0].copy()
    w0 = trace.weights[0]
    origins = trace.origins.copy()
    if not witness.identity:
        inv[witness.i, witness.p] = witness.inv_i
        inv[witness.j, witness.q] = witness.inv_j
        origins[witness.i], origins[witness.j] = witness.shifted_locals()
    recorded = RoundState(vis, trace.invisibles[0], trace.m_counts)
    nxt, _, _ = run_consensus(recorded, trace.epsilon, trace.weights[:1], record=False)
    if not witness.identity:
        for c, n, a, src, alpha in (
            (witness.i, witness.p, witness.a_i, witness.j, witness.alpha_i),
            (witness.j, witness.q, witness.a_j, witness.i, witness.alpha_j),
        ):
            # client c puts alpha on source src's visible instead of 1/M ...
            terms = (vis - vis[c]) / trace.M
            terms[src] = alpha * (vis[src] - vis[c])
            # ... and couples its n-th invisible with weight a instead of w0[c, n]
            flow = w0[c][:, None] * (inv[c] - vis[c])
            coupling = np.add.reduce(flow, axis=0) + (a - w0[c, n]) * (inv[c, n] - vis[c])
            nxt.visible[c] = vis[c] + trace.epsilon * terms.sum(axis=0) + coupling
            nxt.invisible[c, n] = inv[c, n] + a * (vis[c] - inv[c, n])
        nxt.global_model = np.add.reduce(nxt.visible, axis=0) / trace.M
    if trace.K > 1:
        _, rest, _ = run_consensus(nxt, trace.epsilon, trace.weights[1:])
        after = (rest.visibles, rest.invisibles, rest.globals_)
    else:
        after = (nxt.visible[None], nxt.invisible[None], nxt.global_model[None])
    visibles, invisibles, globals_ = (
        np.concatenate([first[None], rows]) for first, rows in zip((vis, inv, trace.globals_[0]), after)
    )
    return replace(trace, origins=origins, visibles=visibles, invisibles=invisibles, globals_=globals_)


def replay_and_compare(
    witness: EquivalenceWitness,
    original_view: AdversaryView,
    tol: float = REPLAY_TOL,
) -> dict:
    """Re-run the dynamics from the witness state and diff the views.

    Failures are reported, never raised: the report carries the worst
    absolute deviation per observable quantity.
    """
    replayed = _replay(witness)
    view2 = record_view(
        replayed,
        corrupted=frozenset(original_view.corrupted),
        protected=frozenset({witness.i, witness.j}),
    )
    devs = {
        "visible": float(np.max(np.abs(view2.visibles - original_view.visibles))),
        "global": float(np.max(np.abs(view2.globals_ - original_view.globals_))),
    }
    for c, obs in original_view.corrupted.items():
        devs[f"corrupted_{c}_invisible"] = float(
            np.max(np.abs(view2.corrupted[c]["invisibles"] - obs["invisibles"]))
        )
        devs[f"corrupted_{c}_coupling"] = float(
            np.max(np.abs(view2.corrupted[c]["coupling"] - obs["coupling"]))
        )
    max_dev = max(devs.values())
    shifted_i, _ = witness.shifted_locals()
    return {
        "pass": bool(max_dev <= tol),
        "max_deviation": max_dev,
        "deviations": devs,
        "e_norm": float(np.linalg.norm(witness.e)),
        "recovered_shift": float(
            np.max(np.abs(shifted_i - witness.trace.origins[witness.i] - witness.e))
        ),
        "witness": {
            "i": witness.i,
            "j": witness.j,
            "e": witness.e.tolist(),
            "perturbed_invisible_i": witness.inv_i.tolist(),
            "perturbed_invisible_j": witness.inv_j.tolist(),
            "coupling_weight_i": witness.a_i.tolist(),
            "coupling_weight_j": witness.a_j.tolist(),
            "drift_weight_i": witness.alpha_i.tolist(),
            "drift_weight_j": witness.alpha_j.tolist(),
        },
    }


MUTABLE_PARAMS = ("inv_i", "inv_j", "a_i", "a_j", "alpha_i", "alpha_j")


def _first_round_leverage(witness: EquivalenceWitness, param: str) -> np.ndarray:
    """Per-coordinate factor by which a bump of `param` moves the protected
    client's round-one visible, read off the recorded round-zero state.

    Drift weights scale vis_j - vis_i, coupling weights scale the gap
    between the witness invisible and the visible, and a perturbed
    invisible enters the visible through its coupling weight.
    """
    vis_i = witness.trace.visibles[0, witness.i]
    vis_j = witness.trace.visibles[0, witness.j]
    return np.abs({
        "inv_i": witness.a_i,
        "inv_j": witness.a_j,
        "a_i": witness.inv_i - vis_i,
        "a_j": witness.inv_j - vis_j,
        "alpha_i": witness.trace.epsilon * (vis_j - vis_i),
        "alpha_j": witness.trace.epsilon * (vis_i - vis_j),
    }[param])


def mutate_witness(
    witness: EquivalenceWitness, param: str, coord: int | None = None
) -> EquivalenceWitness:
    """Bump one scalar of one witness parameter (negative-control probe).

    By default the bumped coordinate is the one where the bump moves the
    round-one visibles the most, so the probe does not land on a coordinate
    the replay barely feels (e.g. a drift weight where vis_i ~ vis_j).
    """
    if param not in MUTABLE_PARAMS:
        raise ConfigError(f"unknown witness parameter {param!r}")
    arr = getattr(witness, param).copy()
    bump = 0.1 + 0.01 * np.abs(arr)
    if coord is None:
        coord = int(np.argmax(bump * _first_round_leverage(witness, param)))
    arr[coord] += bump[coord]
    return replace(witness, identity=False, **{param: arr})


# -- audit trace generation ----------------------------------------------------


def sample_consensus_trace(
    seed: int,
    M: int = 4,
    d: int = 3,
    epsilon: float = 0.5,
    K: int = 30,
    m_counts=None,
    gamma: float = 0.2,
    rule: str = "constant",
) -> ConsensusTrace:
    """Random plain-mode transcript for auditing: random local models,
    uniform splits, recorded in full."""
    rng = rngmod.stream(seed, rngmod.AUDIT)
    m_counts = list(m_counts) if m_counts is not None else [1] * M
    cap = step_weight_cap(build_U(M, epsilon))
    m_max = max(m_counts)
    gamma_mat = np.zeros((M, m_max))
    for idx, m_c in enumerate(m_counts):
        gamma_mat[idx, :m_c] = min(gamma, 0.9 * cap / m_c)
    weights = StepWeights(gamma=gamma_mat, rule=rule)
    origins = rng.standard_normal((M, d))
    # one split per row, each reading the audit stream's next doubles
    visible, invisible = np.empty((M, d)), np.zeros((M, m_max, d))
    for idx, m_c in enumerate(m_counts):
        rule = SplitRule("uniform", m=m_c, eps_split=0.3)
        vis, inv = split_cohort(origins[idx : idx + 1], rule, rng.random((1, rule.draw_count(d))))
        visible[idx], invisible[idx, :m_c] = vis[0], inv[0]
    state = RoundState(visible, invisible, np.array(m_counts, dtype=np.int64))
    _, trace, _ = run_consensus(state, epsilon, weights.table(K))
    return replace(trace, origins=origins)


def witness_with_retries(
    trace_seed: int,
    i: int,
    j: int,
    e: np.ndarray,
    max_retries: int = 8,
    **trace_kwargs,
) -> tuple[ConsensusTrace, EquivalenceWitness]:
    """Draw transcripts until the witness denominators are nondegenerate."""
    for attempt in range(max_retries):
        trace = sample_consensus_trace(trace_seed + 1000 * attempt, **trace_kwargs)
        try:
            return trace, construct_witness(trace, i, j, e)
        except WitnessDegenerateError:
            continue
    raise WitnessDegenerateError("no nondegenerate split found after retries")


# -- total-mass inference attack ----------------------------------------------


def z_inference_attack(
    view: AdversaryView, target: int, assumed_m: int, epsilon: float
) -> np.ndarray:
    """Estimate the target's local model from its visible trajectory.

    Unwinds the total-mass recursion back to round zero assuming the target
    holds `assumed_m` invisible submodels: the finite-horizon total is read
    off the last visible value scaled by (1 + assumed_m).  Exact in the
    consensus limit when assumed_m matches the hidden count; otherwise the
    drift correction is mis-scaled by (1+m_true)/(1+m_assumed).
    """
    if assumed_m < 1:
        raise ConfigError("assumed invisible count must be at least 1")
    K = view.K
    drift_sum = (view.globals_[:K] - view.visibles[:K, target, :]).sum(axis=0)
    z_end = (1 + assumed_m) * view.visibles[K, target, :]
    z0_est = z_end - epsilon * drift_sum
    return z0_est / (1 + assumed_m)


def paired_hidden_count_traces(
    seed: int, M: int = 4, d: int = 3, epsilon: float = 0.5, K: int = 60
) -> tuple[ConsensusTrace, ConsensusTrace]:
    """Two transcripts with different hidden invisible counts at slot 0 and
    bit-identical adversary views.

    The second trace gives slot 0 an extra invisible submodel with zero
    coupling weight; the extra submodel never interacts, so every visible
    quantity is computed through the identical float path, while slot 0's
    implied local model is shifted arbitrarily.
    """
    rng = rngmod.stream(seed, rngmod.AUDIT, 1)
    trace_a = sample_consensus_trace(seed, M=M, d=d, epsilon=epsilon, K=K)
    m_counts_b = [1] * M
    m_counts_b[0] = 2
    m_max = 2
    # trace_a runs constant weights, so its first matrix stands for every
    # round; the extra invisible gets zero weight
    gamma_b = np.zeros((M, m_max))
    gamma_b[:, 0] = trace_a.weights[0, :, 0]
    # rebuild with identical slot states plus a frozen extra invisible
    visible0 = trace_a.visibles[0].copy()
    invisible0 = np.zeros((M, m_max, d))
    invisible0[:, 0, :] = trace_a.invisibles[0, :, 0, :]
    shift = rng.standard_normal(d)
    origins_b = trace_a.origins.copy()
    origins_b[0] = origins_b[0] + shift
    # sum constraint at slot 0 with m=2: vis + inv1 + inv2 = 3 * origin
    invisible0[0, 1, :] = 3 * origins_b[0] - visible0[0] - invisible0[0, 0, :]
    state = RoundState(visible0, invisible0, np.array(m_counts_b))
    weights_b = StepWeights(gamma=gamma_b, rule="constant").table(trace_a.K)
    _, trace_b, _ = run_consensus(state, epsilon, weights_b)
    return trace_a, replace(trace_b, origins=origins_b)


# -- quantizer differential-privacy audit --------------------------------------


def quantizer_dp_audit(n_configs: int, seed: int, grid: int = 33) -> list[dict]:
    """Exact total-variation audit of the quantizer's (0, delta) guarantee.

    Draws (C4, level, bits, interval) configurations; for each, sweeps
    sigma-adjacent scalar inputs over the interval and compares the exact
    output-law distance against the formula.  Configurations keep the
    guarantee's premises: power-of-two levels allow any C4 (the formula's
    second branch caps delta at 1); otherwise adjacency must stay within
    the quantizer's own error resolution, C4 <= width/(2^B - 1).
    """
    rng = rngmod.stream(seed, rngmod.AUDIT, 2)
    rows = []
    for _ in range(n_configs):
        B = int(rng.integers(2, 7))
        if rng.random() < 0.5:
            level = 2**B
        else:
            level = int(rng.integers(2**(B - 1) + 1, 2**B + 1))
        pi_a = float(rng.uniform(0.5, 4.0))
        lo = float(rng.uniform(-2.0, 2.0))
        qs = QuantizerState(lo=np.array([lo]), hi=np.array([lo + pi_a]), level=level)
        bin_w = pi_a / (level - 1)
        if level == 2**B:
            C4 = float(rng.uniform(0.05, 2.0) * bin_w)
        else:
            C4 = float(rng.uniform(0.05, 1.0) * pi_a / (2**B - 1))
        delta_formula = dp_delta(C4, pi_a, 1.0, level, B)
        measured = 0.0
        # each grid input's law once, against both of its sign neighbours
        for x in np.linspace(lo, lo + pi_a, grid).tolist():
            da = output_distribution(np.array([x]), qs)[0]
            for sgn in (-1.0, 1.0):
                y = min(max(x + sgn * C4, lo), lo + pi_a)
                db = output_distribution(np.array([y]), qs)[0]
                measured = max(measured, tv_distance(da, db))
        rows.append(
            {
                "C4": C4,
                "level": level,
                "bits": B,
                "width": pi_a,
                "delta_formula": delta_formula,
                "delta_measured": measured,
                "ok": bool(measured <= delta_formula + 1e-12),
            }
        )
    return rows


# -- aggregate audit ------------------------------------------------------------


def run_audit(
    seed: int = 0,
    n_witness: int = 12,
    e_magnitudes=DEFAULT_E_MAGNITUDES,
    mutate: bool = False,
    n_dp_configs: int = 50,
) -> dict:
    """Full audit pass; the returned report is JSON-serializable."""
    rng = rngmod.stream(seed, rngmod.AUDIT, 3)
    witness_rows = []
    all_pass = True
    for n in range(n_witness):
        M = int(rng.integers(3, 6))
        d = int(rng.integers(2, 5))
        m_counts = [int(rng.integers(1, 4)) for _ in range(M)]
        i, j = rng.choice(M, size=2, replace=False)
        mag = e_magnitudes[n % len(e_magnitudes)]
        direction = rng.standard_normal(d)
        e = mag * direction / np.linalg.norm(direction)
        trace, witness = witness_with_retries(
            seed + 17 * n, int(i), int(j), e, M=M, d=d, m_counts=m_counts, K=25
        )
        corrupted = frozenset(range(M)) - {int(i), int(j)}
        view = record_view(trace, corrupted=corrupted, protected={int(i), int(j)})
        report = replay_and_compare(witness, view)
        report["e_magnitude"] = mag
        witness_rows.append(report)
        all_pass &= report["pass"]
        if mutate:
            for param in MUTABLE_PARAMS:
                bad = mutate_witness(witness, param)
                try:
                    deviation = replay_and_compare(bad, view)["max_deviation"]
                    row = {"max_deviation": deviation, "detected": bool(deviation > MUTATION_MIN_DEVIATION)}
                except ProtocolIntegrityError as exc:
                    # a mutated witness's replay breaks conservation: a detection
                    row = {"max_deviation": None, "detected": True, "replay_error": str(exc)}
                witness_rows.append({"mutated": param, **row})
                all_pass &= row["detected"]
    dp_rows = quantizer_dp_audit(n_dp_configs, seed)
    all_pass &= all(r["ok"] for r in dp_rows)
    trace_a, trace_b = paired_hidden_count_traces(seed, K=60)
    view_a = record_view(trace_a)
    view_b = record_view(trace_b)
    paired_identical = bool(
        np.array_equal(view_a.visibles, view_b.visibles)
        and np.array_equal(view_a.globals_, view_b.globals_)
    )
    all_pass &= paired_identical
    return {
        "pass": bool(all_pass),
        "witness_checks": witness_rows,
        "dp_checks": dp_rows,
        "paired_views_identical": paired_identical,
    }


def report_to_json(report: dict | list) -> str:
    return json.dumps(report, sort_keys=True, indent=2)
