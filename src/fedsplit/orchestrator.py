"""End-to-end training loops and their schedules.

Four modes share one skeleton: plain averaging (fedavg), averaging with
local Laplace noise on uploads (ldp), the splitting protocol (msp), and the
splitting protocol with dynamically quantized uploads (mspdq).  Every run is
a pure function of (config, seed): client sampling, gradient noise, split
draws and quantization each consume their own keyed stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .consensus import RoundState, check_conserved, conserved_sum, run_consensus, state_from_splits
from .errors import ConfigError, ProtocolIntegrityError
from .problem import (
    ProblemBundle,
    ProblemConstants,
    global_loss,
    global_optimum,
    make_client_targets,
    make_quadratic_problem,
    problem_constants,
    stochastic_gradient,
)
from .quantizer import MAX_LEVEL, bit_width, compute_pi_t, encoded_size, knob_values
from .spectral import (
    StepWeights,
    build_U,
    check_step_weight_budget,
    contraction_probe,
    fit_contraction_constant,
    lambda2_U,
    lambda_min_U,
)
from .splitting import SplitRule, SplitState, split_cohort

MODES = ("fedavg", "ldp", "msp", "mspdq")

# The task's scale envelope: its lengths (spread, |center_offset|,
# sample_spread, ball_radius), its noise scales (ldp_scale, laplace_scale),
# gamma_target and eig_hi are at most SCALE_MAX, and eig_lo is at least
# 1/SCALE_MAX.  The constants are products of a few such scales
# (G ~ (eig_hi ball_radius)^2, nu ~ G / eig_lo^2), so inside the envelope
# they stay finite in float64.
SCALE_MAX = 1e20
# Most consensus rounds one learning round may run: the step-weight table is
# a (K_T, M, m) array.
MAX_CONSENSUS_ROUNDS = 2**20


@dataclass
class FLConfig:
    """All schedules and constants of one experiment.

    Safety-critical fields (epsilon, gamma_max, lambda_, level) carry no
    defaults on the JSON surface: the schedules are conditional on them.
    """

    n_clients: int
    cohort: int  # M, sampled with replacement each round
    dim: int
    local_steps: int  # E
    rounds: int  # T
    mode: str
    seed: int
    problem_seed: int = 0  # shared across seeds so one task backs a seed sweep
    epsilon: float = float("nan")
    gamma_max: float = float("nan")
    lambda_: float = float("nan")
    level: int = 0
    weight_rule: str = ""
    split_variant: str = "uniform"
    split_m: int = 1
    eps_split: float = 0.3
    laplace_scale: float = 1.0
    ldp_scale: float = 0.0
    spread: float = 1.0
    gamma_target: float | None = None  # overrides spread to hit a heterogeneity level
    center_offset: float = 0.0  # common shift of every minimizer, sets |w0 - w*|
    eig_lo: float = 0.5
    eig_hi: float = 1.0
    n_samples: int = 64
    batch_size: int = 8
    sample_spread: float = 1.0
    ball_radius: float = 10.0
    q0_width: float | None = None
    kt_override: int | None = None

    def __post_init__(self):
        if not self.weight_rule:
            self.weight_rule = "harmonic" if self.mode == "mspdq" else "constant"

    @property
    def bits(self) -> int:
        return bit_width(self.level) if self.level >= 2 else 0

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.n_clients < 1 or self.cohort < 1 or self.dim < 1:
            raise ConfigError("n_clients, cohort and dim must be positive")
        if self.local_steps < 1 or self.rounds < 1:
            raise ConfigError("local_steps and rounds must be positive")
        for name in ("seed", "problem_seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not 1 <= self.batch_size <= self.n_samples:
            raise ConfigError("batch_size must lie in [1, n_samples]")
        if not self.ball_radius > 0:
            raise ConfigError(f"ball_radius must be positive, got {self.ball_radius}")
        for name in (
            "spread", "gamma_target", "center_offset", "sample_spread", "ball_radius", "eig_hi",
            "ldp_scale", "laplace_scale",
        ):
            value = getattr(self, name)
            if value is not None and not abs(value) <= SCALE_MAX:
                raise ConfigError(f"{name} must lie within +-{SCALE_MAX:g} (the task's scale envelope), got {value!r}")
        if not self.eig_lo >= 1.0 / SCALE_MAX:
            raise ConfigError(f"eig_lo must be at least {1.0 / SCALE_MAX:g}, got {self.eig_lo!r}")
        if self.q0_width is not None and not self.q0_width > 0:
            raise ConfigError(f"q0_width must be positive, got {self.q0_width}")
        if self.mode in ("msp", "mspdq"):
            u = build_U(self.cohort, self.epsilon)
            if not (self.lambda_ == self.lambda_ and 0 < self.lambda_ < 1):
                raise ConfigError("lambda must lie in (0, 1)")
            if not self.gamma_max == self.gamma_max or self.gamma_max < 0:
                raise ConfigError("gamma_max must be a nonnegative number")
            # the split rule and the step weights check their own fields
            _split_rule(self)
            _step_weights(self)
            check_step_weight_budget(
                self.split_m * self.gamma_max, u, "step-weight budget m*gamma_max ="
            )
        if self.mode == "mspdq":
            if not 2 <= self.level <= MAX_LEVEL:
                raise ConfigError(f"quantization level must lie in [2, 2**53], got {self.level}")
            if self.weight_rule == "constant":
                raise ConfigError("quantized mode needs a decaying step-weight rule")
            if self.gamma_max <= 0:
                raise ConfigError("quantized mode needs gamma_max > 0")
        if self.mode == "ldp" and self.ldp_scale < 0:
            raise ConfigError("ldp_scale must be nonnegative")
        if self.kt_override is not None and not 1 <= self.kt_override <= MAX_CONSENSUS_ROUNDS:
            raise ConfigError(f"kt_override must lie in [1, {MAX_CONSENSUS_ROUNDS}], got {self.kt_override}")

    @classmethod
    def from_dict(cls, doc: dict) -> "FLConfig":
        mode = doc.get("mode")
        required = ["n_clients", "cohort", "dim", "local_steps", "rounds", "mode", "seed"]
        if mode in ("msp", "mspdq"):
            required += ["epsilon", "gamma_max", "lambda_"]
        if mode == "mspdq":
            required += ["level"]
        missing = [k for k in required if k not in doc]
        if missing:
            raise ConfigError(f"config is missing required fields: {', '.join(missing)}")
        fields = cls.__dataclass_fields__
        unknown = set(doc) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(sorted(unknown))}")
        for name, value in doc.items():
            _check_field_type(name, value, fields[name])
        return cls(**doc)


_JSON_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _check_field_type(name: str, value, f) -> None:
    """JSON type gate for one FLConfig field, driven by its annotation.

    Floats must be finite, except that NaN stays allowed where it is the
    field's default: it marks a safety field as unset, and `validate`
    rejects it in the modes that need the field.
    """
    kind, *rest = f.type.split(" | ")
    if value is None and rest == ["None"]:
        return
    types, what = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"config field {name} must be {what}, got {value!r}")
    if kind == "float" and not math.isfinite(value):
        unset = isinstance(f.default, float) and math.isnan(f.default)
        if not (unset and math.isnan(value)):
            raise ConfigError(f"config field {name} must be finite, got {value!r}")


@dataclass
class RoundMetrics:
    t: int
    gap: float
    dist2: float
    kt: int
    uploads: int
    bits: int
    max_width: float
    delta_max: float

    def __post_init__(self):
        # `not v >= 0` also rejects NaN
        if not all(v >= 0 for v in (self.gap, self.dist2, self.kt, self.uploads, self.bits)):
            raise ProtocolIntegrityError(f"metrics must be nonnegative numbers, got {self}")


@dataclass
class RunResult:
    config: FLConfig
    metrics: list
    constants: dict
    trajectory: np.ndarray  # (T+1, d) global models incl. w_0


# -- schedules ----------------------------------------------------------------


def vartheta(mu: float, L: float, E: int) -> float:
    """Learning-rate offset max{8L/mu, E} - 1."""
    return max(8.0 * L / mu, float(E)) - 1.0


def lr_schedule(t: int, mu: float, vtheta: float) -> float:
    """Diminishing rate 2 / (mu (vartheta + t))."""
    if t < 1:
        raise ConfigError("learning rounds start at t = 1")
    return 2.0 / (mu * (vtheta + t))


def kt_schedule(t: int, mu: float, vtheta: float, lam: float, mode: str) -> int:
    """Consensus-round budget after learning round t.

    Plain splitting: ceil(log_lam(2/(mu(vartheta+t)))); quantized mode takes
    the max with ceil(mu(vartheta+t)/2) so the interval has time to shrink.
    Clamped to at least one round; more than MAX_CONSENSUS_ROUNDS is a
    ConfigError.
    """
    if not 0 < lam < 1:
        raise ConfigError("lambda must lie in (0, 1)")
    eta = 2.0 / (mu * (vtheta + t))
    kt = max(1, math.ceil(math.log(eta) / math.log(lam)))
    if mode == "mspdq":
        kt = max(kt, math.ceil(1.0 / eta))
    if kt > MAX_CONSENSUS_ROUNDS:
        raise ConfigError(
            f"round {t} needs {kt} consensus rounds, over {MAX_CONSENSUS_ROUNDS}; "
            "the budget grows with eig_hi, rounds and lambda_"
        )
    return kt


def consensus_horizon(config: FLConfig, pc: ProblemConstants) -> int:
    """K_T, the most consensus rounds a learning round of the run takes
    (kt_schedule never decreases in t); 0 in the modes without consensus."""
    if config.mode not in ("msp", "mspdq"):
        return 0
    vt = vartheta(pc.mu, pc.L, config.local_steps)
    return config.kt_override or kt_schedule(config.rounds, pc.mu, vt, config.lambda_, config.mode)


def sample_clients(p: np.ndarray, M: int, rng: np.random.Generator) -> np.ndarray:
    """M i.i.d. draws with replacement from the distribution p (a bundle's
    checked `p`); duplicates are distinct cohort slots.

    This is the inverse-CDF draw that rng.choice(len(p), size=M, p=p) runs
    once its argument checks pass, so both read the same values.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(M), side="right")


def local_sgd(
    w0: np.ndarray,
    A: np.ndarray,
    targets: np.ndarray,
    eta: float,
    E: int,
    rngs: list,
    batch_size: int,
) -> np.ndarray:
    """E mini-batch gradient steps from the broadcast model for u stacked
    clients (A (u, d, d), targets (u, n, d)); returns the (u, d) local models.

    Client i draws all E batches from its own stream rngs[i] in one call.
    The bounded draw keeps its spare 32-bit half-word in the bit generator,
    not in the call, so that call reads the values E per-step calls would,
    and the stacked pass is bitwise u separate ones.
    """
    if E < 1:
        raise ConfigError("need at least one local step")
    n = targets.shape[-2]
    w = np.empty((len(rngs), len(w0)))
    w[:] = w0
    batches = np.empty((E, len(rngs), batch_size), dtype=np.int64)
    for i, rng in enumerate(rngs):
        batches[:, i] = rng.integers(0, n, size=(E, batch_size))
    for batch in batches:
        w -= eta * stochastic_gradient(A, targets, w, batch)
    return w


# -- problem construction ----------------------------------------------------


PROBLEM_FIELDS = (
    "n_clients", "dim", "spread", "gamma_target", "center_offset", "problem_seed", "eig_lo",
    "eig_hi", "n_samples", "batch_size", "sample_spread", "ball_radius",
)


def problem_key(config: FLConfig) -> tuple:
    """The config fields that `build_problem` reads: configs with equal keys
    share one problem bundle."""
    return tuple(getattr(config, name) for name in PROBLEM_FIELDS)


def build_problem(config: FLConfig) -> ProblemBundle:
    """Instantiate the synthetic task; gamma_target rescales the minimizer
    spread to hit the requested heterogeneity exactly (it is quadratic in
    the spread)."""
    A, b = make_quadratic_problem(
        config.n_clients, config.dim, config.spread, config.problem_seed,
        eig_range=(config.eig_lo, config.eig_hi),
    )
    p = np.full(config.n_clients, 1.0 / config.n_clients)
    if config.gamma_target is not None and config.gamma_target > 0:
        if config.spread <= 0:
            raise ConfigError("gamma_target needs a positive starting spread")
        _, F_star = global_optimum(A, b, p)
        if F_star <= 0:
            raise ConfigError("degenerate problem: zero heterogeneity at positive spread")
        b = b * math.sqrt(config.gamma_target / F_star)
    if config.center_offset:
        b = b + config.center_offset * np.ones(config.dim) / math.sqrt(config.dim)
    targets = make_client_targets(A, b, config.n_samples, config.sample_spread, config.problem_seed)
    constants = problem_constants(A, b, p, targets, config.batch_size, config.ball_radius)
    return ProblemBundle(problem_key(config), p, A, b, targets, constants)


def _split_rule(config: FLConfig) -> SplitRule:
    return SplitRule(
        variant=config.split_variant,
        m=config.split_m,
        eps_split=config.eps_split,
        scale=config.laplace_scale,
    )


def _step_weights(config: FLConfig) -> StepWeights:
    gamma = np.full((config.cohort, config.split_m), config.gamma_max)
    return StepWeights(gamma=gamma, rule=config.weight_rule)


def _check_ball(w: np.ndarray, w_star: np.ndarray, radius: float, what: str) -> None:
    # `not ... <= radius` also rejects a NaN model
    if not np.linalg.norm(w - w_star) <= radius:
        raise ProtocolIntegrityError(
            f"{what} left the operating ball (radius {radius}); "
            "theorem constants are void, enlarge ball_radius"
        )


# -- training loops -----------------------------------------------------------


# Learning rounds whose stream keys are hashed in one pass: the word tables
# stay at a fixed size whatever the horizon.
_HASH_BLOCK = 128


@dataclass
class _RoundStreams:
    """The keyed streams of one learning round."""

    cohort: np.ndarray  # (M,) client of each cohort slot
    clients: np.ndarray  # the cohort's sorted unique clients
    gradient: list  # one (round, client) stream per entry of clients
    split: list  # one (round, slot) stream per cohort slot; empty without splitting
    aggregate: np.random.Generator | None  # quantization (mspdq) or Laplace noise (ldp)


def _round_streams(config: FLConfig, p: np.ndarray):
    """Yields the _RoundStreams of rounds 1..T, hashing the keys of one block
    of rounds per `rngmod.seed_words` call for each purpose.

    A block's cohorts are drawn first (the sampling streams do not depend on
    the model), so the gradient keys cover only the clients they use.
    """
    seed, M = config.seed, config.cohort
    for start in range(1, config.rounds + 1, _HASH_BLOCK):
        ts = np.arange(start, min(start + _HASH_BLOCK, config.rounds + 1))
        cohorts = np.array([
            sample_clients(p, M, rngmod.generator(words))
            for words in rngmod.seed_words(seed, rngmod.CLIENT_SAMPLING, ts)
        ])
        ordered = np.sort(cohorts, axis=1)
        first = np.ones(ordered.shape, dtype=bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        rows, cols = np.nonzero(first)
        gradient = rngmod.seed_words(seed, rngmod.GRADIENT, ts[rows], ordered[rows, cols])
        split = aggregate = None
        if config.mode in ("msp", "mspdq"):
            split = rngmod.seed_words(seed, rngmod.SPLITTING, ts[:, None], np.arange(M))
        if config.mode == "mspdq":
            aggregate = rngmod.seed_words(seed, rngmod.QUANTIZATION, ts)
        elif config.mode == "ldp" and config.ldp_scale > 0:
            aggregate = rngmod.seed_words(seed, rngmod.LDP_NOISE, ts)
        lo = 0
        for i in range(len(ts)):
            clients = ordered[i, first[i]]
            hi = lo + len(clients)
            yield _RoundStreams(
                cohorts[i],
                clients,
                [rngmod.generator(words) for words in gradient[lo:hi]],
                [] if split is None else [rngmod.generator(words) for words in split[i]],
                None if aggregate is None else rngmod.generator(aggregate[i]),
            )
            lo = hi


def _local_round(config, bundle, streams, w_prev, eta):
    """One stacked local SGD pass over a round's sorted unique clients, each
    on its own (round, client) gradient stream; returns the (M, d) local
    models of the cohort slots."""
    local = local_sgd(
        w_prev, bundle.A[streams.clients], bundle.targets[streams.clients], eta,
        config.local_steps, streams.gradient, config.batch_size,
    )
    return local[np.searchsorted(streams.clients, streams.cohort)]


def _base_constants(config: FLConfig, bundle: ProblemBundle) -> dict:
    pc = bundle.constants
    return {
        "mu": pc.mu,
        "L": pc.L,
        "gamma_het": pc.gamma_het,
        "G": pc.G,
        "sigma": pc.sigma_i.tolist(),
        "F_star": pc.F_star,
        "vartheta": vartheta(pc.mu, pc.L, config.local_steps),
    }


def mspdq_initial_state(
    splits: list[SplitState],
    w_prev: np.ndarray,
    q0_width: float,
    level: int,
):
    """Quantized initial cohort state of a list of splits; returns (state,
    shared)."""
    state = state_from_splits(splits)
    return state, snap_initial_upload(state, w_prev, q0_width, level)


def snap_initial_upload(state: RoundState, w_prev: np.ndarray, q0_width: float, level: int) -> np.ndarray:
    """Give a split cohort state the quantized mode's shared initial upload,
    in place; returns the shared upload.

    The first cohort slot's visible draw is snapped to the nearest knob of
    the round-zero interval (scalar bounds around the broadcast model) and
    broadcast; every slot adopts it, and each slot's absorbing invisible
    soaks up the difference so its own sum constraint still holds exactly.
    """
    lo0 = float(w_prev.min()) - q0_width / 2.0
    hi0 = float(w_prev.max()) + q0_width / 2.0
    bin0 = (hi0 - lo0) / (level - 1)
    vis0 = state.visible[0]
    if np.logical_or.reduce((vis0 < lo0) | (vis0 > hi0)):
        raise ProtocolIntegrityError(
            "initial split visible escaped the round-zero interval; increase q0_width"
        )
    idx = np.minimum(np.rint((vis0 - lo0) / bin0), level - 1)  # np.round is rint; x >= 0 here
    shared = knob_values(lo0, hi0, level, idx)
    state.invisible[np.arange(state.M), state.m_counts - 1] += state.visible - shared
    state.visible[:] = shared
    state.quantized = state.visible.copy()
    state.level = level
    state.global_model = np.add.reduce(state.quantized, axis=0) / state.M
    return shared


def run(config: FLConfig, bundle: ProblemBundle | None = None) -> RunResult:
    """One seeded run in any mode.

    Every mode shares cohort sampling, local SGD, the ball check, metrics
    and the trajectory; only aggregation differs: the mean of the uploads
    (with Laplace noise in ldp mode), or a split followed by kt consensus
    rounds, whose uploads are quantized in mspdq mode.
    """
    config.validate()
    if bundle is None:
        bundle = build_problem(config)
    elif bundle.key != problem_key(config):
        diff = "; ".join(
            f"{name} {built!r} in the bundle, {wanted!r} in the config"
            for name, built, wanted in zip(PROBLEM_FIELDS, bundle.key, problem_key(config))
            if built != wanted
        )
        raise ConfigError(f"problem bundle was built for another problem: {diff}")
    pc = bundle.constants
    vt = vartheta(pc.mu, pc.L, config.local_steps)
    split = config.mode in ("msp", "mspdq")
    quantized = config.mode == "mspdq"
    if split:
        rule = _split_rule(config)
        weight_table = _step_weights(config).table(consensus_horizon(config, pc))
    lam2 = None
    upload_bits = 64 * config.dim
    if quantized:
        lam2 = lambda2_U(build_U(config.cohort, config.epsilon))
        q0_width = config.q0_width
        if q0_width is None:
            q0_width = 6.0 * (float(np.linalg.norm(pc.w_star)) + config.ball_radius)
        upload_bits = 8 * encoded_size(config.dim, config.bits)
    w = np.zeros(config.dim)
    traj = [w.copy()]
    metrics = []
    w_tilde_run = 0.0
    for t, streams in enumerate(_round_streams(config, bundle.p), start=1):
        eta = lr_schedule(t, pc.mu, vt)
        local = _local_round(config, bundle, streams, w, eta)
        kt = 0
        summary = {"max_width": 0.0, "delta_max": 0.0}
        if not split:
            if streams.aggregate is not None:
                local = local + streams.aggregate.laplace(0.0, config.ldp_scale, size=local.shape)
            w = local.mean(axis=0)
        else:
            kt = config.kt_override or kt_schedule(t, pc.mu, vt, config.lambda_, config.mode)
            visible, invisible = split_cohort(local, rule, streams.split)
            state = RoundState(visible, invisible, np.full(config.cohort, rule.m), visible.mean(axis=0))
            if quantized:
                snap_initial_upload(state, w, q0_width, config.level)
            final, _, summary = run_consensus(
                state,
                kt,
                config.mode,
                config.epsilon,
                weight_table[:kt],
                rng=streams.aggregate,
                lambda2_u=lam2,
                record=False,
                wire_check=quantized and t <= 2,
            )
            check_conserved(conserved_sum(state), conserved_sum(final))
            w_tilde_run = max(w_tilde_run, summary["w_tilde_max"])
            w = final.global_model
        _check_ball(w, pc.w_star, config.ball_radius, "global model")
        uploads_t = config.cohort * (kt + 1)
        metrics.append(
            RoundMetrics(
                t=t,
                gap=global_loss(bundle.A, bundle.b, bundle.p, w) - pc.F_star,
                dist2=float(np.sum((w - pc.w_star) ** 2)),
                kt=kt,
                uploads=uploads_t,
                bits=uploads_t * upload_bits,
                max_width=summary["max_width"],
                delta_max=summary["delta_max"],
            )
        )
        traj.append(w.copy())
    constants = _base_constants(config, bundle)
    if quantized:
        constants["w_tilde_run_max"] = w_tilde_run
    return RunResult(config, metrics, constants, np.stack(traj))


# -- theorem constants and communication accounting ---------------------------


def theorem_constants(
    bundle: ProblemBundle,
    config: FLConfig,
    w_tilde_max: float | None = None,
) -> dict:
    """Constants of the convergence bounds, measured from the instance.

    The contraction constant C is fitted over a product probe at the
    config's own schedule so dev(k) <= C lambda^{k+1} holds on the horizon
    the schedules actually use.  The quantized-mode variance constant uses
    the supplied interval-width maximum (e.g. measured on a probe round).
    """
    pc = bundle.constants
    vt = vartheta(pc.mu, pc.L, config.local_steps)
    out = _base_constants(config, bundle)
    w0 = np.zeros(config.dim)
    dist0 = float(np.sum((w0 - pc.w_star) ** 2))
    out["dist0"] = dist0
    w_max_norm = float(np.linalg.norm(pc.w_star)) + config.ball_radius
    out["w_max_norm"] = w_max_norm
    if config.mode in ("msp", "mspdq"):
        u = build_U(config.cohort, config.epsilon)
        out["lambda2_U"] = lambda2_U(u)
        out["lambda_min_U"] = lambda_min_U(u)
        horizon = max(
            kt_schedule(t, pc.mu, vt, config.lambda_, config.mode)
            for t in (1, config.rounds)
        )
        devs, measured = contraction_probe(u, _step_weights(config), horizon)
        C = fit_contraction_constant(devs, config.lambda_)
        out["C"] = C
        out["measured_contraction"] = measured
        out["lambda"] = config.lambda_
        x = config.eps_split
        D1 = (2 * x**2 - 4 * x + 8) / 3.0 * C**2 * w_max_norm**2
        E = config.local_steps
        D2 = (
            D1
            + float(np.sum(bundle.p**2 * pc.sigma_i))
            + 6 * pc.L * pc.gamma_het
            + 8 * (E - 1) ** 2 * pc.G
            + 4.0 / config.cohort * E**2 * pc.G
        )
        out["D1"], out["D2"] = D1, D2
        D3 = 0.0
        if config.mode == "mspdq":
            if w_tilde_max is None:
                w_tilde_max = 2.0 * math.sqrt(config.cohort) * (1 + config.split_m) * w_max_norm
            pi_tilde = compute_pi_t(config.epsilon, lambda2_U(u), w_tilde_max)
            D3 = d3_formula(config.dim, config.gamma_max, pi_tilde, config.cohort, config.level)
            out["pi_tilde"] = pi_tilde
            out["w_tilde_max"] = w_tilde_max
            out["assumption3_bits_ok"] = config.bits <= math.log2(
                math.sqrt(config.cohort * config.dim) * pi_tilde + 1
            )
        out["D3"] = D3
        mu, L = pc.mu, pc.L
        out["nu1"] = max(4 * D2 / mu**2, (vt + 1) * dist0)
        out["nu2"] = max(4 * (D2 + D3) / mu**2, (vt + 1) * dist0)
    return out


def bound_curve(constants: dict, config: FLConfig, ts: np.ndarray) -> np.ndarray:
    """Objective-gap upper bound as a function of the learning round."""
    mu, L = constants["mu"], constants["L"]
    vt = constants["vartheta"]
    D = constants["D2"] + constants.get("D3", 0.0)
    E = config.local_steps
    dist0 = constants["dist0"]
    ts = np.asarray(ts, dtype=np.float64)
    return 8 * L / (mu * (vt + ts)) * (2 * D / mu + (8 * L + mu * E) / 2.0 * dist0)


def d3_formula(d: int, gamma_max: float, pi_tilde: float, M: int, level: int) -> float:
    return d * gamma_max**2 * pi_tilde**2 / (4 * M * (level - 1) ** 2)


def comm_complexity_bound(rho_acc: float, constants: dict, M: int) -> float:
    """Upload-count bound to reach relative distance ratio rho_acc."""
    if rho_acc <= 0:
        raise ConfigError("target accuracy must be positive")
    mu = constants["mu"]
    vt = constants["vartheta"]
    dist0 = constants["dist0"]
    I = constants["nu2"] / (rho_acc * dist0) - vt
    if I <= 0:
        return 0.0
    Ic = math.ceil(I)
    return M * Ic * (1 + mu * vt + mu / 2.0 * (1 + Ic))


def comm_counter(metrics: list) -> int:
    return int(sum(m.uploads for m in metrics))


# -- export -------------------------------------------------------------------

METRIC_FIELDS = ("t", "gap", "dist2", "kt", "uploads", "bits", "max_width", "delta_max")


def metrics_to_csv(metrics: list) -> str:
    lines = [",".join(METRIC_FIELDS)]
    for m in metrics:
        lines.append(
            ",".join(repr(getattr(m, f)) if isinstance(getattr(m, f), float) else str(getattr(m, f)) for f in METRIC_FIELDS)
        )
    return "\n".join(lines) + "\n"


def summary_dict(result: RunResult) -> dict:
    last = result.metrics[-1]
    return {
        "mode": result.config.mode,
        "seed": result.config.seed,
        "final_gap": last.gap,
        "final_dist2": last.dist2,
        "total_uploads": comm_counter(result.metrics),
        "total_bits": int(sum(m.bits for m in result.metrics)),
    }
