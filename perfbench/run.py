"""Outside-in benchmark for fedsplit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds nothing: it puts the checkout's `src/` first on the import path and
drives fedsplit only through its public functions and the `fedsplit` CLI
entry point (`fedsplit.cli.main`), never editing a file under `src/`.
Each workload is a closed loop in this one process: one caller issues
batches of ops back to back until `--seconds` have passed (whole batches,
at least one). The only other threads are the CLI's own sweep pool.

Host speed on a shared machine moves by up to 1.6x in phases that last
seconds to minutes, and CPU time moves with it. So each batch is bracketed by a fixed reference kernel
(`reference_seconds`, numpy and pure Python, no fedsplit code), and the
timed end-to-end metrics are each batch's times divided by the kernel's time
beside it, scaled by REF_S: seconds on a host where the kernel takes REF_S.
The raw seconds are in the detail line.

Every op passes a correctness gate, and the run prints one JSON detail line
(environment stamp, per-op SHA-256 of the outputs, gate results) and then,
as its last line, the result object. `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates an untraced and a traced pass of each batch
on the same seeds and reports the per-layer metrics. See README.md here for
the workloads and the layer -> end-to-end table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("desk_msp_cli", "desk_mspdq_sweep", "audit")
SWEEP_BITS = (4, 8, 12)
# Half the desk horizon: an op takes ~1 s, so the reference kernel brackets
# it closely enough to follow the host's speed phases, which change every
# few seconds; at T=500 (~4 s ops) the sweep spread 0.04-0.17 between sets.
SWEEP_ROUNDS = 250
CLI_SEEDS_PER_BATCH = 2
AUDIT_SEEDS_PER_BATCH = 4
SETUP_REPEATS = 7
REF_S = 0.05  # reference kernel's CPU seconds on the host the scale is quoted for

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: "<span>.calls" and "<span>.self_s" are per traced op,
# "<span>.us_per_call" is self time per call, "<span>.s" is mean duration
# per call.
PER_LAYER = {
    "problem.stochastic_gradient.calls": "calls/op",
    "problem.stochastic_gradient.self_s": "s/op",
    "problem.stochastic_gradient.us_per_call": "us",
    "problem.ClientDataset.targets.calls": "calls/op",
    "problem.ClientDataset.targets.self_s": "s/op",
    "rng.stream.calls": "calls/op",
    "rng.stream.self_s": "s/op",
    "splitting.split_model.calls": "calls/op",
    "splitting.split_model.self_s": "s/op",
    "orchestrator.local_sgd.calls": "calls/op",
    "orchestrator.local_sgd.self_s": "s/op",
    "orchestrator.local_sgd.dedup_ratio": "ratio",
    "orchestrator.run.self_s": "s/op",
    "orchestrator.mspdq_initial_state.self_s": "s/op",
    "orchestrator.theorem_constants.s": "s",
    "orchestrator.final_gap": "loss",
    "orchestrator.uploads_per_op": "uploads/op",
    "spectral.contraction_probe.s": "s",
    "spectral.StepWeights.at.calls": "calls/op",
    "consensus.msp_round.calls": "calls/op",
    "consensus.msp_round.self_s": "s/op",
    "consensus.msp_round.us_per_call": "us",
    "consensus.mspdq_round.calls": "calls/op",
    "consensus.mspdq_round.self_s": "s/op",
    "consensus.mspdq_round.us_per_call": "us",
    "consensus.run_consensus.self_s": "s/op",
    "consensus.rounds_per_learning_round": "rounds",
    "quantizer.encode.calls": "calls/op",
    "quantizer.encode.self_s": "s/op",
    "quantizer.decode.calls": "calls/op",
    "quantizer.decode.self_s": "s/op",
    "quantizer.payload_bytes": "B/op",
    "quantizer.output_distribution.calls": "calls/op",
    "quantizer.output_distribution.self_s": "s/op",
    "quantizer.tv_distance.calls": "calls/op",
    "quantizer.tv_distance.self_s": "s/op",
    "privacy_audit.replay_and_compare.self_s": "s/op",
    "privacy_audit.record_view.self_s": "s/op",
    "privacy_audit.quantizer_dp_audit.self_s": "s/op",
    "privacy_audit.witness_attempts_per_success": "ratio",
    "cli.cmd_run.self_s": "s/op",
    "cli.cmd_report.s": "s",
    "cli.bytes_written": "B/op",
    "cli.pool_overlap": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s/op",
}


# -- ops and batches ------------------------------------------------------------


@dataclass
class Op:
    """One seeded orchestrator.run (training) or run_audit seed (audit)."""

    seed: int
    label: str
    seconds: float = 0.0
    cpu_s: float = 0.0  # CPU time of the thread that ran the op
    output: bytes = b""  # metrics_to_csv bytes, or the audit report JSON
    error: str = ""


@dataclass
class Batch:
    ops: list
    wall_s: float = 0.0
    cpu_s: float = 0.0
    ref_s: float = 0.0  # reference kernel's CPU seconds around the batch
    bytes_written: int = 0
    pool_threads: int = 0
    problems: list = field(default_factory=list)  # wrong outputs seen in the batch


@dataclass
class RunLog:
    """What the measured loop saw, across every batch of the run."""

    batches: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # failed ops
    problems: list = field(default_factory=list)  # wrong outputs: the run is not correct
    checks: dict = field(default_factory=dict)

    @property
    def ops(self) -> list:
        return [op for b in self.batches + self.traced for op in b.ops]


def parse_metrics_csv(text: str) -> dict:
    """Columns of a metrics.csv document as lists of floats."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v))
    return cols


class SeedStream:
    """Distinct op seeds drawn from the workload seed."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used: set[int] = set()

    def take(self, n: int) -> list[int]:
        out = []
        while len(out) < n:
            s = self._rng.randrange(1 << 31)
            if s not in self._used:
                self._used.add(s)
                out.append(s)
        return out


@contextlib.contextmanager
def op_clock(orch, log: list):
    """Time each orchestrator.run call the CLI makes on its pool threads,
    appending (wall s, thread CPU s, thread id) in completion order."""
    inner = orch.run

    def timed(*args, **kwargs):
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            return inner(*args, **kwargs)
        finally:
            log.append((time.perf_counter() - t0, time.thread_time() - c0, threading.get_ident()))

    orch.run = timed
    try:
        yield
    finally:
        orch.run = inner


def timed_batch(fn) -> Batch:
    """Run fn() -> list of Op, recording wall and process CPU time."""
    c0, t0 = time.process_time(), time.perf_counter()
    ops = fn()
    return Batch(ops=ops, wall_s=time.perf_counter() - t0, cpu_s=time.process_time() - c0)


_REF_RNG = random.Random(0)
_REF_A = [[_REF_RNG.gauss(0.0, 0.1) for _ in range(10)] for _ in range(10)]


def reference_seconds(threads: int = 1) -> float:
    """CPU seconds of a fixed kernel shaped like fedsplit's work: small
    numpy steps and averages driven from Python loops, then a dict and float
    loop. It uses no fedsplit code, so a fedsplit change moves the ops'
    times but not this one. With threads > 1, that many copies run at once,
    as the CLI pool's ops do, and the result is process CPU per copy."""
    if threads > 1:
        c0 = time.process_time()
        pool = [threading.Thread(target=reference_seconds) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        return (time.process_time() - c0) / threads
    import numpy as np

    c0 = time.thread_time()
    a = np.array(_REF_A)
    rng = np.random.default_rng(1)
    xs = [np.zeros(10) for _ in range(8)]
    for _ in range(300):
        for k in range(8):
            xs[k] = xs[k] - 0.1 * (a @ xs[k] - a[k] + 0.01 * rng.standard_normal(10))
        m = np.mean(np.stack(xs), axis=0)
        xs = [0.5 * (x + m) for x in xs]
        float(np.linalg.norm(m))
    d, acc = {}, 0.0
    for i in range(150000):
        d[i & 1023] = acc
        acc += (i % 7) * 0.5 - d.get((i * 31) & 1023, 0.0) * 1e-6
    return time.thread_time() - c0


# -- workloads ------------------------------------------------------------------


class Workload:
    """Set-up plus one batch of ops; subclasses gate the outputs."""

    training = True
    seeds_per_batch = 1
    ref_threads = 1  # copies of the reference kernel that run at once

    def __init__(self, seed: int, work_dir: Path, rounds: int | None = None):
        self.seeds = SeedStream(seed)
        self.work_dir = work_dir
        self.rounds = rounds
        self.setup()

    def next_batch(self):
        """What one batch runs; a traced pass replays the same value."""
        return self.seeds.take(self.seeds_per_batch)

    def kt_expected(self, cfg) -> list[int]:
        """Per-round consensus budgets from the public schedule."""
        from fedsplit import orchestrator as orch

        pc = self.bundle.constants
        vt = orch.vartheta(pc.mu, pc.L, cfg.local_steps)
        return [orch.kt_schedule(t, pc.mu, vt, cfg.lambda_, cfg.mode) for t in range(1, cfg.rounds + 1)]

    def check_op(self, op: Op) -> str:
        """Empty when the op's output passes the gate, else the reason."""
        cfg = self.config_for(op.label)
        cols = parse_metrics_csv(op.output.decode())
        expected = [cfg.cohort * (k + 1) for k in self.kt_expected(cfg)]
        if [int(u) for u in cols["uploads"]] != expected:
            return "per-round uploads differ from M(kt_schedule(t)+1)"
        return ""

    def check_run(self, ops: list) -> list[str]:
        """Seed-mean gap curve of each config against its bound curve."""
        import numpy as np
        from fedsplit import orchestrator as orch

        problems = []
        for label in sorted({op.label for op in ops}):
            cols = [parse_metrics_csv(op.output.decode()) for op in ops if op.label == label]
            cfg = self.config_for(label)
            gaps = np.array([c["gap"] for c in cols]).mean(axis=0)
            consts = orch.theorem_constants(self.bundle, cfg, w_tilde_max=self.w_tilde.get(label))
            bound = orch.bound_curve(consts, cfg, np.arange(1, len(gaps) + 1))
            if not np.all(gaps <= bound):
                problems.append(f"{label}: seed-mean gap exceeds the bound curve")
        return problems


class DeskMspCli(Workload):
    """`fedsplit run` then `fedsplit report` on a generated desk msp config."""

    seeds_per_batch = CLI_SEEDS_PER_BATCH
    ref_threads = min(CLI_SEEDS_PER_BATCH, os.cpu_count() or 1)

    def setup(self) -> None:
        from fedsplit import orchestrator as orch
        from fedsplit import presets

        kwargs = {"rounds": self.rounds} if self.rounds else {}
        self.config = presets.desk_config("msp", 0, **kwargs)
        self.config_path = self.work_dir / "desk_msp.json"
        self.config_path.write_text(json.dumps(asdict(self.config), sort_keys=True))
        orch.FLConfig.from_dict(json.loads(self.config_path.read_text())).validate()
        self.bundle = orch.build_problem(self.config)
        self.w_tilde = {}
        self.batches = 0

    def config_for(self, label: str):
        return self.config

    def run_batch(self, seeds: list) -> Batch:
        from fedsplit import cli
        from fedsplit import orchestrator as orch

        self.batches += 1
        out = self.work_dir / f"batch{self.batches}"
        run_args = ["run", "--config", str(self.config_path), "--seeds", ",".join(map(str, seeds)), "--out", str(out)]
        sink = io.StringIO()
        codes, clock = [], []

        def work():
            with op_clock(orch, clock), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes.append(cli.main(run_args))
                codes.append(cli.main(["report", "--run-dir", str(out)]))
            return []

        batch = timed_batch(work)
        batch.pool_threads = len({tid for _, _, tid in clock})
        manifest_path = out / "manifest.json"
        runs = json.loads(manifest_path.read_text())["runs"] if manifest_path.is_file() else []
        # the pool finishes ops in any order; only their distribution is used
        for seed, (wall, cpu, _) in zip(seeds, clock + [(0.0, 0.0, 0)] * len(seeds)):
            op = Op(seed=seed, label="msp", seconds=wall, cpu_s=cpu)
            run_ids = [r for r in runs if r.endswith(f"_seed{seed}")]
            if codes != [0, 0]:
                op.error = f"exit codes {codes}: {sink.getvalue().strip()[-300:]}"
            elif len(run_ids) != 1:
                op.error = "run missing from the manifest"
            else:
                op.output = (out / run_ids[0] / "metrics.csv").read_bytes()
            batch.ops.append(op)
        batch.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if codes == [0, 0]:
            batch.problems += self._check_report(out, batch.ops)
        shutil.rmtree(out, ignore_errors=True)
        return batch

    def _check_report(self, out: Path, ops: list) -> list[str]:
        """The report's mean gap column must equal the seed mean of the runs."""
        import numpy as np

        rows = (out / "gap_vs_t_msp.csv").read_text().strip().splitlines()[1:]
        reported = np.array([float(r.split(",")[1]) for r in rows])
        mean = np.array([parse_metrics_csv(op.output.decode())["gap"] for op in ops]).mean(axis=0)
        return [] if np.allclose(reported, mean, rtol=1e-12, atol=0) else ["report mean gap differs from the runs"]


class DeskMspdqSweep(Workload):
    """Library orchestrator.run of the desk mspdq config at B in SWEEP_BITS.

    One batch is one op plus its post-processing. Batches rotate through the
    bit widths, so each seed runs at every B before the next seed starts.
    """

    def setup(self) -> None:
        from fedsplit import orchestrator as orch
        from fedsplit import presets

        kwargs = {"rounds": self.rounds or SWEEP_ROUNDS}
        self.configs = {f"B{b}": presets.desk_config("mspdq", 0, level=2**b, **kwargs) for b in SWEEP_BITS}
        for cfg in self.configs.values():
            cfg.validate()
        self.bundle = orch.build_problem(self.configs["B4"])
        self.w_tilde = {}
        self._pending = []

    def config_for(self, label: str):
        return self.configs[label]

    def next_batch(self):
        if not self._pending:
            (seed,) = self.seeds.take(1)
            self._pending = [(seed, label) for label in self.configs]
        return self._pending.pop(0)

    def run_batch(self, spec) -> Batch:
        from fedsplit import orchestrator as orch

        seed, label = spec
        cfg = replace(self.configs[label], seed=seed)

        def work():
            op = Op(seed=seed, label=label)
            t0, c0 = time.perf_counter(), time.thread_time()
            try:
                result = orch.run(cfg, self.bundle)
            except Exception:
                op.error = traceback.format_exc(limit=2)
                return [op]
            op.seconds, op.cpu_s = time.perf_counter() - t0, time.thread_time() - c0
            op.output = orch.metrics_to_csv(result.metrics).encode()
            w_tilde = result.constants["w_tilde_run_max"]
            # the post-processing `fedsplit run` does for its manifest
            orch.theorem_constants(self.bundle, cfg, w_tilde_max=w_tilde)
            self.w_tilde[label] = max(self.w_tilde.get(label, 0.0), w_tilde)
            return [op]

        return timed_batch(work)


class Audit(Workload):
    """privacy_audit.run_audit at its defaults (no negative controls), one op per seed."""

    training = False
    seeds_per_batch = AUDIT_SEEDS_PER_BATCH

    def setup(self) -> None:
        from fedsplit import privacy_audit  # noqa: F401  (import is set-up work)

    def run_batch(self, seeds: list) -> Batch:
        from fedsplit import privacy_audit

        def work():
            ops = []
            for seed in seeds:
                op = Op(seed=seed, label="audit")
                t0, c0 = time.perf_counter(), time.thread_time()
                try:
                    report = privacy_audit.run_audit(seed=seed)
                except Exception:
                    op.error = traceback.format_exc(limit=2)
                    ops.append(op)
                    continue
                op.seconds, op.cpu_s = time.perf_counter() - t0, time.thread_time() - c0
                op.output = privacy_audit.report_to_json(report).encode()
                ops.append(op)
            return ops

        return timed_batch(work)

    def check_op(self, op: Op) -> str:
        return "" if json.loads(op.output)["pass"] else "audit report has pass = false"

    def check_run(self, ops: list) -> list[str]:
        return []


CLASSES = {"desk_msp_cli": DeskMspCli, "desk_mspdq_sweep": DeskMspdqSweep, "audit": Audit}


def setup(workload: str, seed: int, work_dir: Path, rounds: int | None = None) -> Workload:
    """Import, config generation and validation, and build_problem."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work_dir.mkdir(parents=True, exist_ok=True)
    return CLASSES[workload](seed, work_dir, rounds)


def setup_seconds(workload: str, seed: int, work_dir: Path, rounds: int | None) -> list[float]:
    """Wall time of fresh processes that start, set up and exit."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(work_dir / "probe")]
    if rounds:
        probe.append(str(rounds))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(probe, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# -- the measured loop ----------------------------------------------------------


def gate(work: Workload, batch: Batch, log: RunLog) -> None:
    for op in batch.ops:
        if not op.error:
            op.error = work.check_op(op)
        if op.error:
            log.failures.append({"seed": op.seed, "label": op.label, "error": op.error})
    log.problems += batch.problems


def measure(work: Workload, seconds: float, tracer: Tracer | None = None) -> RunLog:
    """Run whole batches until `seconds` have passed; with a tracer, each
    batch runs untraced and then traced again on the same seeds."""
    log = RunLog()
    t_end = time.perf_counter() + seconds
    ref = reference_seconds(work.ref_threads)
    while not log.batches or time.perf_counter() < t_end:
        spec = work.next_batch()
        if tracer is not None and tracer.installed:
            raise RuntimeError("an untraced pass would start with the tracer installed")
        batch = work.run_batch(spec)
        ref_after = reference_seconds(work.ref_threads)
        batch.ref_s, ref = (ref + ref_after) / 2, ref_after
        gate(work, batch, log)
        log.batches.append(batch)
        if tracer is None:
            continue
        tracer.install()
        try:
            traced = work.run_batch(spec)
        finally:
            stale = tracer.uninstall()
        log.checks["patches_restored"] = log.checks.get("patches_restored", True) and not stale
        gate(work, traced, log)
        log.traced.append(traced)
        if [op.output for op in batch.ops] != [op.output for op in traced.ops]:
            log.problems.append(f"traced outputs differ from untraced ones for {spec}")
    return log


# -- metrics --------------------------------------------------------------------


def env_stamp(workload: str, seed: int) -> dict:
    import numpy as np

    def git(*args):
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    src = hashlib.sha256()
    for path in sorted((SRC / "fedsplit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    status = git("status", "--porcelain", "--untracked-files=no", "--", "src")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src.hexdigest(),
        "fedsplit_threads_env": os.environ.get("FEDSPLIT_THREADS"),
    }


def end_to_end(log: RunLog, setup_times: list) -> dict:
    """Medians over the run; times other than setup_s are in REF_S units."""
    batches = log.batches
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(b.wall_s / b.ref_s for b in batches) * REF_S,
        "op_s_p50": statistics.median(op.cpu_s / b.ref_s for b in batches for op in b.ops if op.output) * REF_S,
        "cpu_s": statistics.median(b.cpu_s / b.ref_s for b in batches) * REF_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def output_figures(work: Workload, ops: list) -> dict:
    """Quantities read from the op outputs: uploads, rounds, bytes, gap."""
    from fedsplit.quantizer import encoded_size

    good = [op for op in ops if op.output and not op.error]
    fig = {"ops": len(good), "uploads": 0, "kt_sum": {"msp": 0, "mspdq": 0}, "slots": 0,
           "learning_rounds": 0, "payload_bytes": 0, "final_gap": 0.0, "local_steps": 0}
    if not work.training:
        return fig
    for op in good:
        cfg = work.config_for(op.label)
        cols = parse_metrics_csv(op.output.decode())
        uploads = int(sum(cols["uploads"]))
        fig["uploads"] += uploads
        fig["kt_sum"][cfg.mode] += int(sum(cols["kt"]))
        fig["slots"] += cfg.rounds * cfg.cohort
        fig["learning_rounds"] += cfg.rounds
        fig["final_gap"] += cols["gap"][-1] / len(good)
        if cfg.mode == "mspdq":
            fig["payload_bytes"] += uploads * encoded_size(cfg.dim, cfg.bits)
        fig["local_steps"] = cfg.local_steps
    return fig


def per_layer(work: Workload, log: RunLog, tracer, figures: dict) -> dict:
    summ = tracer.summary()
    n_ops = max(1, sum(len(b.ops) for b in log.traced))

    def span(name):
        return summ.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_op(name, key):
        return span(name)[key] / n_ops

    def us_per_call(name):
        s = span(name)
        return s["self_s"] / s["calls"] * 1e6 if s["calls"] else 0.0

    def mean_s(name):
        s = span(name)
        return s["s"] / s["calls"] if s["calls"] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for key in PER_LAYER:
        base, _, kind = key.rpartition(".")
        if kind in ("calls", "self_s"):
            values[key] = per_op(base, kind)
        elif kind == "us_per_call":
            values[key] = us_per_call(base)
        elif kind == "s":
            values[key] = mean_s(base)
    traced_wall = sum(b.wall_s for b in log.traced)
    pairs = [(a, b) for a, b in zip(log.batches, log.traced) if a.ops]
    values.update({
        "orchestrator.local_sgd.dedup_ratio": ratio(span("orchestrator.local_sgd")["calls"], figures["slots"]),
        "orchestrator.final_gap": figures["final_gap"],
        "orchestrator.uploads_per_op": ratio(figures["uploads"], figures["ops"]),
        "consensus.rounds_per_learning_round": ratio(sum(figures["kt_sum"].values()), figures["learning_rounds"]),
        "quantizer.payload_bytes": ratio(figures["payload_bytes"], figures["ops"]),
        "privacy_audit.witness_attempts_per_success": ratio(
            span("privacy_audit.construct_witness")["calls"], span("privacy_audit.witness_with_retries")["calls"]
        ),
        "cli.bytes_written": ratio(sum(b.bytes_written for b in log.traced), n_ops),
        "cli.pool_overlap": ratio(span("orchestrator.run")["s"], span("cli.cmd_run")["s"]),
        "trace.coverage": ratio(tracer.root_coverage(), traced_wall),
        "trace.overhead_s": statistics.median((t.wall_s - u.wall_s) / len(u.ops) for u, t in pairs) if pairs else 0.0,
    })
    return {k: {"value": float(values[k]), "unit": PER_LAYER[k]} for k in PER_LAYER}


def cross_check(work: Workload, tracer, figures: dict) -> dict:
    """Trace call counts against counts derived from the traced outputs."""
    summ = tracer.summary()

    def calls(name):
        return summ.get(name, {"calls": 0})["calls"]

    checks = {
        "stochastic_gradient_eq_E_local_sgd": calls("problem.stochastic_gradient")
        == figures["local_steps"] * calls("orchestrator.local_sgd"),
    }
    if work.training:
        checks["msp_round_eq_sum_kt"] = calls("consensus.msp_round") == figures["kt_sum"]["msp"]
        checks["mspdq_round_eq_sum_kt"] = calls("consensus.mspdq_round") == figures["kt_sum"]["mspdq"]
    else:
        checks["audit_runs_no_local_sgd"] = calls("orchestrator.local_sgd") == 0
    return checks


def bench(workload: str, seed: int, seconds: float, trace: bool, rounds: int | None = None) -> dict:
    """One benchmark run; returns {"detail": ..., "result": ...}."""
    load_start = os.getloadavg()
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setup_times = setup_seconds(workload, seed, run_dir, rounds)
        work = setup(workload, seed, run_dir, rounds)
        log = measure(work, seconds, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    ops = log.ops
    # traced passes repeat the untraced seeds, and outputs were compared above
    log.problems += work.check_run([op for b in log.batches for op in b.ops if not op.error])
    figures = output_figures(work, [op for b in (log.traced if trace else log.batches) for op in b.ops])
    if trace:
        log.checks.update(cross_check(work, tracer, figures))
        metrics = per_layer(work, log, tracer, figures)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{workload}.npz")
    else:
        metrics = end_to_end(log, setup_times)
    failed = sum(1 for op in ops if op.error)
    env = env_stamp(workload, seed)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    env["cli_pool_threads"] = max(b.pool_threads for b in log.batches) if workload == "desk_msp_cli" else None
    detail = {
        "env": env,
        "batches": len(log.batches),
        "ops": len(ops),
        "failed_ops_frac": failed / len(ops),
        "final_gap": figures["final_gap"] if work.training else None,
        "uploads_per_op": figures["uploads"] / figures["ops"] if work.training and figures["ops"] else None,
        "op_wall_s_p50": statistics.median(op.seconds for op in ops),
        "setup_runs_s": setup_times,
        "batch_wall_s": [b.wall_s for b in log.batches],
        "batch_cpu_s": [b.cpu_s for b in log.batches],
        "batch_ref_s": [b.ref_s for b in log.batches],
        "op_cpu_s": [op.cpu_s for b in log.batches for op in b.ops],
        "checks": log.checks,
        "problems": log.problems,
        "failures": log.failures[:20],
        "op_sha256": [[op.seed, op.label, hashlib.sha256(op.output).hexdigest()] for op in ops],
    }
    correct = not log.problems and all(log.checks.values())
    result = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return {"detail": detail, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fedsplit" / "__init__.py").is_file():
        print(f"error: no fedsplit package under {SRC}", file=sys.stderr)
        return 2
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
