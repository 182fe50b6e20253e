"""Command-line surface: run experiments, validate configs, audit privacy,
and export plot data.

Exit codes: 0 success, 2 configuration/validation failure, 3 invariant
violation or failed audit check.  All outputs are a pure function of
(config, seeds); files are written atomically.  `run` executes its jobs one
after another; a sweep point whose run breaks a protocol invariant is listed
with its error in the manifest, the other runs are still written, and the
command then exits 3.  The manifest groups runs by sweep point (the run id
without its seed), each with its own config and theorem constants, which
`report` uses for that group's bound curve.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import orchestrator as orch
from . import privacy_audit
from .errors import ConfigError, FedsplitError, ProtocolIntegrityError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRITY = 3


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _parse_seeds(spec: str) -> list[int]:
    """Accepts '0..19', '3', or '0,2,5'; an empty selection, a negative seed
    or a repeated one is an error."""
    spec = spec.strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(s) for s in spec.split(",") if s]
    except ValueError:
        raise ConfigError(f"--seeds {spec!r} must look like 0..19, 3 or 0,2,5") from None
    if not seeds:
        raise ConfigError(f"--seeds {spec!r} selects no seeds")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds {spec!r} must list nonnegative seeds")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds {spec!r} lists a seed more than once")
    return seeds


def _parse_sweep(items: list[str]) -> dict:
    axes = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"sweep axis {item!r} must look like key=v1,v2")
        key, vals = item.split("=", 1)
        if key == "seed":
            raise ConfigError(f"sweep axis {item!r}: seeds are set with --seeds, e.g. --seeds 5,6")
        parsed = []
        for v in vals.split(","):
            try:
                parsed.append(json.loads(v))
            except json.JSONDecodeError:
                parsed.append(v)
        axes[key] = parsed
    return axes


def _load_config(path: str, mode_override: str | None) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"--config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"--config {path}: expected a JSON object")
    if mode_override:
        doc["mode"] = mode_override
    return doc


def _sweep_points(axes: dict) -> list[dict]:
    points = [{}]
    for key, values in axes.items():
        points = [{**p, key: v} for p in points for v in values]
    return points


def _point_parts(point: dict) -> list[str]:
    return [f"{k}{v}" for k, v in sorted(point.items())]


def _run_id(config: orch.FLConfig, point: dict) -> str:
    return "_".join([config.mode, f"seed{config.seed}", *_point_parts(point)])


def _group_id(config: orch.FLConfig, point: dict) -> str:
    """The run id without its seed: one group per sweep point."""
    return "_".join([config.mode, *_point_parts(point)])


def _parse_floats(flag: str, spec: str) -> tuple[float, ...]:
    """A comma list of finite numbers; anything else names the flag."""
    try:
        values = tuple(float(x) for x in spec.split(","))
    except ValueError:
        values = ()
    if not values or not all(np.isfinite(values)):
        raise ConfigError(f"{flag} {spec!r} must be a comma list of finite numbers")
    return values


def cmd_run(args) -> int:
    """Every sweep point is validated and its problem built before anything
    is written, so a bad point exits 2 with an empty --out."""
    doc = _load_config(args.config, args.mode)
    axes = _parse_sweep(args.sweep)
    seeds = _parse_seeds(args.seeds)

    jobs = []
    bundles: dict[tuple, orch.ProblemBundle] = {}
    for point in _sweep_points(axes):
        for seed in seeds:
            cfg = orch.FLConfig.from_dict({**doc, **point, "seed": seed})
            cfg.validate()
            key = orch.problem_key(cfg)
            if key not in bundles:
                bundles[key] = orch.build_problem(cfg)
            jobs.append((point, cfg, bundles[key]))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    groups: dict[str, dict] = {}
    failed = []
    for point, cfg, bundle in jobs:
        run_id = _run_id(cfg, point)
        try:
            result = orch.run(cfg, bundle)
        except ProtocolIntegrityError as exc:
            print(f"integrity violation in {run_id}: {exc}", file=sys.stderr)
            failed.append({"run": run_id, "point": point, "error": str(exc)})
            continue
        run_dir = out_dir / run_id
        run_dir.mkdir(parents=True, exist_ok=True)
        _atomic_write(run_dir / "metrics.csv", orch.metrics_to_csv(result.metrics))
        _atomic_write(
            run_dir / "summary.json",
            json.dumps(orch.summary_dict(result), sort_keys=True, indent=2),
        )
        group = groups.setdefault(
            _group_id(cfg, point), {"cfg": cfg, "bundle": bundle, "runs": [], "w_tilde": 0.0}
        )
        group["runs"].append(run_id)
        group["w_tilde"] = max(group["w_tilde"], result.constants.get("w_tilde_run_max", 0.0))

    manifest_groups = {}
    for gid, group in groups.items():
        cfg = group["cfg"]
        w_tilde = group["w_tilde"] or None
        constants = orch.theorem_constants(
            group["bundle"], cfg, w_tilde_max=w_tilde if cfg.mode == "mspdq" else None
        )
        manifest_groups[gid] = {"config": asdict(cfg), "constants": constants, "runs": group["runs"]}
    manifest = {
        "sweep": axes,
        "seeds": seeds,
        "groups": manifest_groups,
        "runs": [run_id for group in groups.values() for run_id in group["runs"]],
        "failed": failed,
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2))
    print(f"wrote {len(manifest['runs'])} runs to {out_dir}")
    if failed:
        print(f"{len(failed)} runs failed; see 'failed' in the manifest", file=sys.stderr)
        return EXIT_INTEGRITY
    return EXIT_OK


def cmd_validate(args) -> int:
    doc = _load_config(args.config, args.mode)
    cfg = orch.FLConfig.from_dict(doc)
    cfg.validate()
    bundle = orch.build_problem(cfg)
    constants = orch.theorem_constants(bundle, cfg)
    print(json.dumps(constants, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_audit(args) -> int:
    e_mags = _parse_floats("--e-mags", args.e_mags) if args.e_mags else privacy_audit.DEFAULT_E_MAGNITUDES
    if args.n_witness < 1:
        raise ConfigError(f"--n-witness must be at least 1, got {args.n_witness}")
    seeds = _parse_seeds(args.seeds)
    reports = []
    ok = True
    for seed in seeds:
        report = privacy_audit.run_audit(
            seed=seed,
            n_witness=args.n_witness,
            e_magnitudes=e_mags,
            mutate=args.mutate,
        )
        reports.append({"seed": seed, **report})
        ok &= report["pass"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "audit.json", json.dumps(reports, sort_keys=True, indent=2))
    print(f"audit {'passed' if ok else 'FAILED'}; report at {out / 'audit.json'}")
    return EXIT_OK if ok else EXIT_INTEGRITY


def _read_metrics(path: Path) -> list[dict]:
    """Rows of one run's metrics.csv; a missing or malformed file names itself."""
    try:
        lines = path.read_text().strip().splitlines()
        if len(lines) < 2 or lines[0].split(",") != list(orch.METRIC_FIELDS):
            raise ValueError(f"expected a header {','.join(orch.METRIC_FIELDS)} and at least one row")
        return [
            dict(zip(orch.METRIC_FIELDS, (float(x) for x in line.split(",")), strict=True))
            for line in lines[1:]
        ]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable metrics ({exc})") from None


def _read_group(run_dir: Path, gid: str, group) -> tuple:
    """(config, constants, per-run metric rows) of one manifest group; any
    damage is a ConfigError that names the group or the file."""
    try:
        cfg = orch.FLConfig.from_dict(group["config"])
        constants, run_ids = group["constants"], group["runs"]
        if not isinstance(constants, dict) or not isinstance(run_ids, list) or not run_ids:
            raise ValueError("needs a constants object and a non-empty runs list")
    except (AttributeError, KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ConfigError(f"manifest group {gid!r}: {exc!r}") from None
    # the constants cmd_report reads, under its presence gates: the bound
    # curve (which reads an absent D3 as 0) and the complexity rows; both
    # divide by mu and dist0
    keys = ["mu", "L", "vartheta", "dist0", "D2", "D3"] if "D2" in constants else []
    for key in keys + (["mu", "vartheta", "dist0", "nu2"] if "nu2" in constants else []):
        value = constants.get(key, 0.0 if key == "D3" else "missing")
        positive = key in ("mu", "dist0")
        finite = not isinstance(value, bool) and isinstance(value, (int, float)) and math.isfinite(value)
        if not finite or (positive and not value > 0):
            raise ConfigError(
                f"manifest group {gid!r}: constant {key!r} must be a "
                f"{'positive ' if positive else ''}finite number, got {value!r}"
            )
    runs = [_read_metrics(run_dir / str(run_id) / "metrics.csv") for run_id in run_ids]
    if len({len(rows) for rows in runs}) != 1:
        raise ConfigError(f"manifest group {gid!r}: its runs have unequal lengths")
    return cfg, constants, runs


def cmd_report(args) -> int:
    """Every group and metrics file is read before anything is written, so a
    damaged run dir exits 2 with no output."""
    run_dir = Path(args.run_dir)
    rhos = _parse_floats("--rho", args.rho)
    if min(rhos) <= 0:
        raise ConfigError(f"--rho {args.rho!r} must list positive numbers")
    try:
        groups = json.loads((run_dir / "manifest.json").read_text())["groups"]
        if not isinstance(groups, dict):
            raise TypeError("groups must be an object")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(
            f"--run-dir {run_dir}: needs a manifest.json with per-group runs ({exc!r})"
        ) from None
    groups = {gid: _read_group(run_dir, gid, group) for gid, group in groups.items()}
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)
    all_within = True
    complexity = ["group,rho,measured_uploads,bound"]
    for gid, (cfg, constants, runs) in groups.items():
        T = len(runs[0])
        ts = np.arange(1, T + 1)
        gaps = np.array([[row["gap"] for row in rows] for rows in runs])
        bits = np.array([[row["bits"] for row in rows] for rows in runs])
        mean = gaps.mean(axis=0)
        std = gaps.std(axis=0)
        if "D2" in constants:
            bound = orch.bound_curve(constants, cfg, ts)
        else:
            bound = np.full(T, float("inf"))
        within = mean <= bound
        all_within &= bool(within.all())
        lines = ["t,mean,std,bound,within_bound"]
        for idx in range(T):
            lines.append(
                f"{int(ts[idx])},{float(mean[idx])!r},{float(std[idx])!r},"
                f"{float(bound[idx])!r},{int(within[idx])}"
            )
        _atomic_write(out / f"gap_vs_t_{gid}.csv", "\n".join(lines) + "\n")
        cum_bits = bits.cumsum(axis=1).mean(axis=0)
        blines = ["t,mean_cumulative_bits"]
        for idx in range(T):
            blines.append(f"{int(ts[idx])},{float(cum_bits[idx])!r}")
        _atomic_write(out / f"bits_vs_t_{gid}.csv", "\n".join(blines) + "\n")
        if "nu2" in constants:
            for rho in rhos:
                measured = _measured_uploads(runs, constants, rho)
                bound_rho = orch.comm_complexity_bound(rho, constants, cfg.cohort)
                complexity.append(f"{gid},{rho!r},{measured},{bound_rho}")
    if len(complexity) > 1:
        _atomic_write(out / "complexity.csv", "\n".join(complexity) + "\n")
    if not all_within:
        print("warning: mean gap exceeded the bound curve somewhere", file=sys.stderr)
    print(f"report written to {out}")
    return EXIT_OK


def _measured_uploads(runs: list, constants: dict, rho: float) -> int:
    """Uploads until the seed-mean distance ratio of one group's runs first
    reaches rho; -1 when the horizon ends first."""
    dist0 = constants["dist0"]
    total = 0
    for t in range(len(runs[0])):
        total += int(np.mean([rows[t]["uploads"] for rows in runs]))
        ratio = float(np.mean([rows[t]["dist2"] for rows in runs])) / dist0
        if ratio <= rho:
            return total
    return -1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="fedsplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded runs and write metrics")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", default=None)
    p_run.add_argument("--seeds", default="0")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--sweep", action="append", default=[], metavar="k=v1,v2")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a config and print constants")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--mode", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_aud = sub.add_parser("audit", help="run the privacy audit suite")
    p_aud.add_argument("--seeds", default="0")
    p_aud.add_argument("--out", default="audit")
    p_aud.add_argument("--e-mags", default=None, help="comma list of witness shift magnitudes")
    p_aud.add_argument("--mutate", action="store_true", help="include negative controls")
    p_aud.add_argument("--n-witness", type=int, default=12)
    p_aud.set_defaults(func=cmd_audit)

    p_rep = sub.add_parser("report", help="aggregate run metrics into plot data")
    p_rep.add_argument("--run-dir", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--rho", default="0.1,0.01")
    p_rep.set_defaults(func=cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ProtocolIntegrityError as exc:
        print(f"integrity violation: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except FedsplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
