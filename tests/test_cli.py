import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fedsplit import consensus
from fedsplit import orchestrator as orch
from fedsplit import privacy_audit
from fedsplit.cli import main
from fedsplit.errors import ProtocolIntegrityError
from fedsplit.presets import desk_config
from fedsplit.privacy_audit import MAX_E_MAGNITUDE, run_audit

from oracles import strict_json


@pytest.fixture()
def config_path(tmp_path: Path) -> Path:
    cfg = asdict(desk_config("mspdq", 0, level=64, rounds=12))
    cfg["n_clients"] = 6
    cfg["cohort"] = 4
    cfg["dim"] = 3
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_expected_artifacts(config_path, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(config_path), "--seeds", "0..2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 3
    for run_id in manifest["runs"]:
        rows = (out / run_id / "metrics.csv").read_text().strip().splitlines()
        assert rows[0].startswith("t,gap,dist2")
        assert len(rows) == 13
        summary = json.loads((out / run_id / "summary.json").read_text())
        assert summary["total_uploads"] > 0
    (group,) = manifest["groups"].values()
    assert sorted(group["runs"]) == sorted(manifest["runs"])
    for key in ("mu", "L", "gamma_het", "G", "D2", "D3", "C", "lambda", "pi_tilde"):
        assert key in group["constants"], key


def test_run_is_byte_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_path), "--seeds", "1", "--out", str(out1)])
    main(["run", "--config", str(config_path), "--seeds", "1", "--out", str(out2)])
    csv1 = (out1 / "mspdq_seed1" / "metrics.csv").read_bytes()
    csv2 = (out2 / "mspdq_seed1" / "metrics.csv").read_bytes()
    assert csv1 == csv2


def test_run_is_byte_identical_across_processes(tmp_path):
    # outputs are a function of (config, seeds) only: not of the process or
    # its string-hash salt
    cfg = tmp_path / "desk_mspdq.json"
    cfg.write_text(json.dumps(asdict(desk_config("mspdq", 0, rounds=8))))
    src = str(Path(orch.__file__).resolve().parents[1])
    trees = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"out{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-m", "fedsplit.cli", "run", "--config", str(cfg), "--seeds", "0..1", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        trees.append({str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert {"manifest.json", "mspdq_seed0/metrics.csv", "mspdq_seed1/summary.json"} <= set(trees[0])
    assert trees[0] == trees[1]


def test_run_sweep_axes(config_path, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "run", "--config", str(config_path), "--seeds", "0",
        "--out", str(out), "--sweep", "level=16,64",
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["runs"]) == ["mspdq_seed0_level16", "mspdq_seed0_level64"]


def test_invalid_epsilon_exits_2(config_path, tmp_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["epsilon"] = 2.5  # cap is M/(M-1) = 4/3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--config", str(bad), "--seeds", "0", "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "M/(M-1)" in err


def test_missing_safety_field_exits_2(config_path, tmp_path):
    doc = json.loads(config_path.read_text())
    del doc["lambda_"]
    bad = tmp_path / "bad2.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(bad)]) == 2


def test_validate_prints_constants(config_path, capsys):
    assert main(["validate", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert 0 < doc["mu"] <= doc["L"]


def test_report_schema_and_bound_column(config_path, tmp_path):
    out = tmp_path / "runs"
    main(["run", "--config", str(config_path), "--seeds", "0..1", "--out", str(out)])
    assert main(["report", "--run-dir", str(out)]) == 0
    gap_lines = (out / "gap_vs_t_mspdq.csv").read_text().strip().splitlines()
    assert gap_lines[0] == "t,mean,std,bound,within_bound"
    assert len(gap_lines) == 13
    for line in gap_lines[1:]:
        t, mean, std, bound, within = line.split(",")
        assert float(bound) >= float(mean)
        assert within == "1"
    comp = (out / "complexity.csv").read_text().strip().splitlines()
    assert comp[0] == "group,rho,measured_uploads,bound"
    assert all(row.startswith("mspdq,") for row in comp[1:])
    assert len(comp) == 3
    bits_lines = (out / "bits_vs_t_mspdq.csv").read_text().strip().splitlines()
    assert bits_lines[0] == "t,mean_cumulative_bits"


@pytest.mark.parametrize("manifest", [None, "{not json", '{"runs": [], "constants": {}}'])
def test_report_without_a_group_manifest_exits_2(tmp_path, capsys, manifest):
    if manifest is not None:
        (tmp_path / "manifest.json").write_text(manifest)
    assert main(["report", "--run-dir", str(tmp_path)]) == 2
    assert "--run-dir" in capsys.readouterr().err


def test_cli_reproduces_the_desk_experiment_and_bit_sweep(tmp_path):
    # A hand-written experiment loop (one shared bundle, orch.run per mode,
    # level and seed, numpy's mean and std over seeds, summed bits) against
    # README's two experiment recipes at the same size: report's CSVs hold
    # the same floats, bit for bit, once parsed.  (np.std of a 1-D array sums
    # pairwise from 8 entries on, so from 8 seeds the final-row std of the
    # columns can differ from it in the last bit.)
    R, configs = 10, Path(__file__).resolve().parents[1] / "configs"
    recipes = {
        "modes": ["--config", str(configs / "desk_msp.json"), "--sweep", "mode=fedavg,ldp,msp", "--sweep", "ldp_scale=0.05"],
        "levels": ["--config", str(configs / "desk_mspdq.json"), "--sweep", "level=16,256"],
    }
    for name, argv in recipes.items():
        out = str(tmp_path / name)
        assert main(["run", *argv, "--seeds", "0..1", "--sweep", f"rounds={R}", "--out", out]) == 0
        assert main(["report", "--run-dir", out]) == 0

    def column(pattern, name):
        (path,) = tmp_path.glob(pattern)
        header, *rows = path.read_text().splitlines()
        return np.array([float(row.split(",")[header.split(",").index(name)]) for row in rows])

    bundle = orch.build_problem(desk_config("msp", 0, rounds=R))
    for mode, level, group in [
        ("fedavg", 256, "modes/{}_fedavg_*"), ("ldp", 256, "modes/{}_ldp_*"), ("msp", 256, "modes/{}_msp_*"),
        ("mspdq", 256, "levels/{}_mspdq_level256_*"), ("mspdq", 16, "levels/{}_mspdq_level16_*"),
    ]:
        runs = []
        for seed in (0, 1):
            cfg = desk_config(mode, seed, level=level, rounds=R)
            if mode == "ldp":
                cfg.ldp_scale = 0.05
            runs.append(orch.run(cfg, bundle).metrics)
        gaps = np.array([[m.gap for m in metrics] for metrics in runs])
        mean, std = column(group.format("gap_vs_t"), "mean"), column(group.format("gap_vs_t"), "std")
        assert mean.tobytes() == gaps.mean(axis=0).tobytes() and std.tobytes() == gaps.std(axis=0).tobytes()
        assert (mean[-1], std[-1]) == (np.mean(gaps[:, -1]), np.std(gaps[:, -1]))
        total_bits = np.mean([sum(m.bits for m in metrics) for metrics in runs])
        assert column(group.format("bits_vs_t"), "mean_cumulative_bits")[-1] == total_bits


def readme_commands(monkeypatch, command: str) -> list[list[str]]:
    """The arguments of every `fedsplit <command>` line in README's code
    blocks, with the working directory set to the repo root they name
    their configs from."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```\w*\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    monkeypatch.chdir(root)
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith(f"fedsplit {command} ")]


def test_readme_run_recipes_work(tmp_path, monkeypatch, capsys):
    # README holds the experiment recipes: each `fedsplit run` in its code
    # blocks runs at one seed and three rounds (argparse keeps the last
    # --seeds and --out, and a later sweep axis replaces an earlier one),
    # and report reads the run dir it writes
    commands = readme_commands(monkeypatch, "run")
    assert len(commands) >= 3
    for i, command in enumerate(commands):
        out = str(tmp_path / str(i))
        argv = [*command, "--seeds", "0", "--sweep", "rounds=3", "--out", out]
        assert main(argv) == 0, (command, capsys.readouterr().err)
        assert main(["report", "--run-dir", out]) == 0, command


def test_readme_validate_lines_work(monkeypatch, capsys):
    commands = readme_commands(monkeypatch, "validate")
    assert commands
    for command in commands:
        assert main(command) == 0, (command, capsys.readouterr().err)


def test_readme_audit_lines_work(tmp_path, monkeypatch, capsys):
    commands = readme_commands(monkeypatch, "audit")
    assert commands
    for i, command in enumerate(commands):
        out = tmp_path / str(i)
        assert main([*command, "--out", str(out)]) == 0, (command, capsys.readouterr().err)
        reports = json.loads((out / "audit.json").read_text())
        assert reports and all(report["pass"] is True for report in reports)


def test_audit_command_and_negative_control(tmp_path):
    out = tmp_path / "audit"
    code = main(["audit", "--seeds", "0", "--n-witness", "3", "--mutate", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "audit.json").read_text())
    assert report[0]["pass"]
    mutated = [row for row in report[0]["witness_checks"] if "mutated" in row]
    assert mutated and all(row["detected"] for row in mutated)


def test_audit_default_magnitudes(tmp_path):
    out = tmp_path / "audit2"
    code = main([
        "audit", "--seeds", "0", "--n-witness", "4",
        "--e-mags", "0.001,1,1000,1000000", "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "audit.json").read_text())
    mags = {row["e_magnitude"] for row in report[0]["witness_checks"] if "e_magnitude" in row}
    assert mags == {0.001, 1.0, 1000.0, 1000000.0}


def test_mutated_witness_whose_replay_breaks_conservation_is_a_detection(tmp_path):
    # at the shift cap, a mutated witness's replay can fail its phase's
    # conservation check; the row records the error instead of a deviation
    report = run_audit(seed=7, n_witness=4, e_magnitudes=(MAX_E_MAGNITUDE,), mutate=True, n_dp_configs=0)
    assert report["pass"]
    raised = [row for row in report["witness_checks"] if "replay_error" in row]
    assert raised and all(row["detected"] and row["max_deviation"] is None for row in raised)
    assert "conserved sum drifted" in raised[0]["replay_error"]
    out = tmp_path / "audit"
    argv = ["audit", "--seeds", "7", "--e-mags", str(MAX_E_MAGNITUDE), "--mutate", "--n-witness", "4"]
    assert main([*argv, "--out", str(out)]) == 0
    (written,) = strict_json((out / "audit.json").read_text())
    assert written["pass"] and any("replay_error" in row for row in written["witness_checks"])


def test_integrity_violation_exits_3(config_path, tmp_path, capsys):
    doc = json.loads(config_path.read_text())
    doc["ball_radius"] = 1e-9
    doc["center_offset"] = 3.0
    bad = tmp_path / "tiny_ball.json"
    bad.write_text(json.dumps(doc))
    code = main(["run", "--config", str(bad), "--seeds", "0", "--out", str(tmp_path / "y")])
    assert code == 3
    assert "ball" in capsys.readouterr().err


@pytest.fixture()
def msp_config_path(tmp_path: Path) -> Path:
    cfg = asdict(desk_config("msp", 0, rounds=3))
    cfg.update(n_clients=6, cohort=4, dim=3)
    path = tmp_path / "msp.json"
    path.write_text(json.dumps(cfg))
    return path


def _run_with(config_path, tmp_path, *args, **fields):
    """`fedsplit run` on the test config with `fields` replaced."""
    doc = json.loads(config_path.read_text())
    doc.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "edited_out"
    return main(["run", "--config", str(path), "--out", str(out), *args]), out


def test_run_builds_each_bundle_once_before_the_pool(config_path, tmp_path, monkeypatch):
    calls = []
    real_build = orch.build_problem

    def counting_build(cfg):
        calls.append(cfg.seed)
        return real_build(cfg)

    monkeypatch.setattr(orch, "build_problem", counting_build)
    code, _ = _run_with(config_path, tmp_path, "--seeds", "0,1", rounds=3)
    assert code == 0
    assert len(calls) == 1


def test_run_sweep_over_center_offset_builds_distinct_problems(
    config_path, tmp_path, monkeypatch
):
    code, out = _run_with(
        config_path, tmp_path, "--sweep", "center_offset=1.0,3.0", rounds=3
    )
    assert code == 0
    a = (out / "mspdq_seed0_center_offset1.0" / "metrics.csv").read_text()
    b = (out / "mspdq_seed0_center_offset3.0" / "metrics.csv").read_text()
    assert a != b


def test_empty_seed_range_exits_2(config_path, tmp_path, capsys):
    code, out = _run_with(config_path, tmp_path, "--seeds", "5..3")
    assert code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [
        ("level", "256"),
        ("rounds", float("nan")),
        ("kt_override", 0),
        ("ball_radius", 0.0),
        ("ball_radius", -1.0),
        ("q0_width", 0.0),
        ("problem_seed", -3),
        ("kt_override", orch.MAX_CONSENSUS_ROUNDS + 1),
        *[
            (field, float(np.nextafter(orch.SCALE_MAX, np.inf)))
            for field in ("spread", "gamma_target", "center_offset", "sample_spread", "ball_radius", "eig_hi")
        ],
        ("eig_lo", float(np.nextafter(1 / orch.SCALE_MAX, 0.0))),
        *[(field, float(np.nextafter(orch.SCALE_MAX, np.inf))) for field in ("ldp_scale", "laplace_scale")],
        ("gamma_target", -0.5),
        ("sample_spread", -1.0),
        ("eig_hi", 0.3),
        ("split_m", 0),
        ("split_variant", "bogus"),
        ("laplace_scale", 0.0),
        ("weight_rule", "bogus"),
        ("weight_rule", "constant"),
        ("lambda_", 1.0),
        ("epsilon", None),
        ("gamma_max", None),
        ("lambda_", None),
    ],
)
def test_bad_field_value_exits_2(config_path, tmp_path, capsys, field, value):
    # the test config is mspdq (where a constant weight_rule is bad), and
    # laplace_scale is read only under the laplace split
    others = {"split_variant": "laplace"} if field == "laplace_scale" else {}
    code, out = _run_with(config_path, tmp_path, **others, **{field: value})
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", str(tmp_path / "edited.json")]) == 2
    assert field in capsys.readouterr().err


def test_manifest_of_a_mode_without_safety_fields_is_strict_json(tmp_path):
    # fedavg needs no epsilon, gamma_max or lambda_: unset, they are null
    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / "desk_msp.json").read_text())
    for name in ("epsilon", "gamma_max", "lambda_"):
        del doc[name]
    path = tmp_path / "fedavg.json"
    path.write_text(json.dumps({**doc, "mode": "fedavg", "rounds": 3}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    (group,) = strict_json((out / "manifest.json").read_text())["groups"].values()
    assert [group["config"][name] for name in ("epsilon", "gamma_max", "lambda_")] == [None, None, None]
    assert main(["report", "--run-dir", str(out)]) == 0


def test_gamma_target_zero_gives_a_task_without_heterogeneity(config_path, tmp_path):
    code, out = _run_with(config_path, tmp_path, gamma_target=0.0, rounds=2)
    assert code == 0
    (group,) = json.loads((out / "manifest.json").read_text())["groups"].values()
    assert abs(group["constants"]["gamma_het"]) <= 1e-12


def test_repeated_sweep_value_exits_2(config_path, tmp_path, capsys):
    code, out = _run_with(config_path, tmp_path, "--sweep", "level=16,16", rounds=2)
    assert code == 2
    assert "'level'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_values_that_give_one_config_exit_2(config_path, tmp_path, capsys):
    # 6 and 6.0 would name two run dirs over one config
    code, out = _run_with(config_path, tmp_path, "--sweep", "ball_radius=6,6.0", rounds=2)
    assert code == 2
    assert "'ball_radius'" in capsys.readouterr().err
    assert not out.exists()


def test_gamma_target_zero_at_zero_spread_gives_a_task_without_heterogeneity(config_path, tmp_path):
    # with no common offset every minimizer is zero, so gamma_het is exactly zero
    doc = {**json.loads(config_path.read_text()), "gamma_target": 0.0, "spread": 0.0, "center_offset": 0.0}
    assert orch.build_problem(orch.FLConfig.from_dict(doc)).constants.gamma_het == 0
    code, _ = _run_with(config_path, tmp_path, "--sweep", "gamma_target=0", "--sweep", "spread=0", rounds=2)
    assert code == 0


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_unreadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert "--config" in capsys.readouterr().err


def test_report_bounds_each_sweep_group_with_its_own_constants(config_path, tmp_path):
    code, out = _run_with(config_path, tmp_path, "--seeds", "0..1", "--sweep", "level=16,64")
    assert code == 0
    assert main(["report", "--run-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    columns = {}
    for level in (16, 64):
        group = manifest["groups"][f"mspdq_level{level}"]
        cfg = orch.FLConfig.from_dict(group["config"])
        assert cfg.level == level
        w_tilde = max(
            orch.run(orch.FLConfig.from_dict({**group["config"], "seed": seed})).constants[
                "w_tilde_run_max"
            ]
            for seed in (0, 1)
        )
        expected = orch.bound_curve(
            orch.theorem_constants(orch.build_problem(cfg), cfg, w_tilde_max=w_tilde),
            cfg,
            np.arange(1, cfg.rounds + 1),
        )
        rows = (out / f"gap_vs_t_mspdq_level{level}.csv").read_text().strip().splitlines()[1:]
        columns[level] = np.array([float(row.split(",")[3]) for row in rows])
        assert np.array_equal(columns[level], expected)
    assert not np.array_equal(columns[16], columns[64])
    comp = (out / "complexity.csv").read_text().strip().splitlines()
    assert {row.split(",")[0] for row in comp[1:]} == {"mspdq_level16", "mspdq_level64"}


def test_failed_sweep_point_keeps_the_finished_runs(config_path, tmp_path, capsys):
    code, out = _run_with(
        config_path, tmp_path, "--sweep", "ball_radius=1e-9,6.0", center_offset=3.0
    )
    assert code == 3
    assert "ball" in capsys.readouterr().err
    assert (out / "mspdq_seed0_ball_radius6.0" / "metrics.csv").is_file()
    assert not (out / "mspdq_seed0_ball_radius1e-09").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == ["mspdq_seed0_ball_radius6.0"]
    (failed,) = manifest["failed"]
    assert failed["run"] == "mspdq_seed0_ball_radius1e-09"
    assert failed["point"] == {"ball_radius": 1e-9}
    assert "ball" in failed["error"]


@pytest.mark.parametrize(
    "sweep",
    [
        "weight_rule=constant,bogus",
        "split_variant=uniform,bogus",
        "eps_split=0.9,1.5",
        "spread=1.0,-1.0",
        "eig_lo=0.5,-1",
        "epsilon=0.5,1.2",
        "=3",
    ],
)
def test_bad_sweep_point_exits_2_before_any_write(msp_config_path, tmp_path, sweep):
    code, out = _run_with(msp_config_path, tmp_path, "--sweep", sweep)
    assert code == 2
    assert not out.exists() or not any(out.iterdir())


def test_seed_sweep_axis_exits_2_naming_seeds(msp_config_path, tmp_path, capsys):
    code, out = _run_with(msp_config_path, tmp_path, "--seeds", "0", "--sweep", "seed=5,6")
    assert code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_conservation_leak_fails_the_run(msp_config_path, tmp_path, capsys, monkeypatch):
    real_round = consensus.msp_round

    def leaky_round(state, weights_k, **kwargs):
        nxt = real_round(state, weights_k, **kwargs)
        nxt.visible[0] += 1e-6
        return nxt

    monkeypatch.setattr(consensus, "msp_round", leaky_round)
    code, out = _run_with(msp_config_path, tmp_path, "--seeds", "0")
    assert code == 3
    assert "conserved sum drifted" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == []
    (failed,) = manifest["failed"]
    assert failed["run"] == "msp_seed0" and "conserved sum drifted" in failed["error"]


def test_sweep_may_override_a_bad_base_value(msp_config_path, tmp_path):
    # epsilon 1.4 exceeds M/(M-1) = 4/3, but every sweep point replaces it
    code, out = _run_with(
        msp_config_path, tmp_path, "--sweep", "epsilon=0.5,0.6", epsilon=1.4, gamma_max=0.2
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["runs"]) == ["msp_seed0_epsilon0.5", "msp_seed0_epsilon0.6"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["report", "--rho", "abc"], "--rho"),
        (["report", "--rho", "nan"], "--rho"),
        (["report", "--rho", "0.1,inf"], "--rho"),
        (["audit", "--e-mags", "abc"], "--e-mags"),
        (["audit", "--e-mags", "nan"], "--e-mags"),
        (["audit", "--n-witness", "0"], "--n-witness"),
        (["report", "--rho", "0"], "--rho"),
        (["report", "--rho", "-1"], "--rho"),
        (["run", "--seeds=-1"], "--seeds"),
        (["run", "--seeds", "1,1"], "--seeds"),
        (["audit", "--seeds=-2"], "--seeds"),
        (["audit", "--e-mags", "1e308"], "--e-mags"),
        (["audit", "--e-mags", "0.001,-1e10"], "--e-mags"),
    ],
)
def test_bad_cli_number_exits_2(msp_config_path, tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    if argv[0] == "report":
        assert main(["run", "--config", str(msp_config_path), "--out", str(out)]) == 0
        argv = [*argv, "--run-dir", str(out)]
    else:
        argv = [*argv, "--out", str(out)]
    if argv[0] == "run":
        argv += ["--config", str(msp_config_path)]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not list(out.glob("*.csv")) and not (out / "audit.json").exists()
    assert argv[0] == "report" or not out.exists()


@pytest.mark.parametrize("mode", ["fedavg", "ldp", "msp", "mspdq"])
def test_shipped_configs_equal_the_desk_preset(mode):
    # fedavg and ldp run on desk_msp.json under --mode or --sweep mode=
    path = Path(__file__).resolve().parents[1] / "configs" / f"desk_{'mspdq' if mode == 'mspdq' else 'msp'}.json"
    shipped = orch.FLConfig.from_dict({**json.loads(path.read_text()), "mode": mode})
    assert asdict(shipped) == asdict(desk_config(mode, 0, rounds=200))


def test_nan_in_a_consensus_round_fails_the_run(msp_config_path, tmp_path, capsys, monkeypatch):
    real_round = consensus.msp_round

    def nan_round(state, weights_k, **kwargs):
        nxt = real_round(state, weights_k, **kwargs)
        nxt.visible[0, 0] = np.nan
        return nxt

    monkeypatch.setattr(consensus, "msp_round", nan_round)
    cfg = orch.FLConfig.from_dict(json.loads(msp_config_path.read_text()))
    with pytest.raises(ProtocolIntegrityError):
        orch.run(cfg)
    code, out = _run_with(msp_config_path, tmp_path, "--seeds", "0")
    assert code == 3
    assert "nan" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["runs"] == []


def test_level_that_is_not_a_power_of_two_runs(tmp_path, capsys):
    # the error bound divides by l - 1, not 2^ceil(log2 l) - 1
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_mspdq.json"
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--seeds", "0", "--sweep", "level=257", "--sweep", "rounds=40"]
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed"] == [] and len(manifest["runs"]) == 1


@pytest.mark.parametrize(
    "level, errors",
    [
        (2, ["visible escaped its shrunk interval at round 1 (client 0, coordinate 0); box width too small"] * 2),
        (3, [
            "visible escaped its shrunk interval at round 1 (client 5, coordinate 9); box width too small",
            "visible escaped its shrunk interval at round 1 (client 4, coordinate 2); box width too small",
        ]),
        (8, ["global model left the operating ball (radius 6.0); theorem constants are void, enlarge ball_radius"] * 2),
    ],
)
def test_coarse_levels_fail_with_the_first_violation(tmp_path, capsys, level, errors):
    # a consensus phase reports its first escape by round, client and
    # coordinate; pytest turns any RuntimeWarning of the rounds an escape
    # leaves behind into an error
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_mspdq.json"
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--seeds", "0,1", "--sweep", f"level={level}", "--sweep", "rounds=40"]
    assert main([*argv, "--out", str(out)]) == 3
    runs = [f"mspdq_seed{seed}_level{level}_rounds40" for seed in (0, 1)]
    lines = capsys.readouterr().err.splitlines()
    assert lines[:2] == [f"integrity violation in {run}: {error}" for run, error in zip(runs, errors)]
    assert "Warning" not in "\n".join(lines)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == []
    assert [(f["run"], f["error"]) for f in manifest["failed"]] == list(zip(runs, errors))
    # no run is left to aggregate, so report refuses the run dir
    assert main(["report", "--run-dir", str(out)]) == 2
    assert f"--run-dir {out}: the manifest lists no runs (2 under 'failed')" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_collapsed_knobs_run_without_a_warning(tmp_path, capsys):
    # at level 2**53 a bin is below the float spacing of the box, so the two
    # bracketing knobs can be one float; pytest turns any RuntimeWarning of
    # the rounding kernel into an error, and the outputs stay as recorded
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_mspdq.json"
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--seeds", "1", "--sweep", f"level={2**53}", "--sweep", "rounds=60"]
    assert main([*argv, "--out", str(out)]) == 0, capsys.readouterr().err
    assert "Warning" not in capsys.readouterr().err
    (run_id,) = json.loads((out / "manifest.json").read_text())["runs"]
    digest = hashlib.sha256((out / run_id / "metrics.csv").read_bytes()).hexdigest()
    assert digest == "cdbbb848405ba78b4e58721a6dcdaf589f1e97fc7a45626c0f2e27fa9e4b249e"


def test_quantization_error_over_its_bound_fails_the_run(config_path, tmp_path, capsys, monkeypatch):
    real_bound = consensus.dynamic_error_bound

    def lossy_bound(pi_t, level, a_max_k, d):
        bound = real_bound(pi_t, level, a_max_k, d)
        if len(bound) > 2:  # round 2 of every phase errs a whole box, past one bin
            bound[2] -= np.sqrt(d) * pi_t[2] * a_max_k[2]
        return bound

    monkeypatch.setattr(consensus, "dynamic_error_bound", lossy_bound)
    cfg = orch.FLConfig.from_dict(json.loads(config_path.read_text()))
    with pytest.raises(ProtocolIntegrityError, match="exceeded its bound at round 2"):
        orch.run(cfg)
    code, out = _run_with(config_path, tmp_path, "--seeds", "0")
    assert code == 3
    assert "exceeded its bound at round" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["runs"] == []
    (failed,) = manifest["failed"]
    assert failed["run"] == "mspdq_seed0" and "exceeded its bound at round 2" in failed["error"]


@pytest.mark.parametrize("level", [2**53 + 1, 2**70])
def test_oversized_level_exits_2(config_path, tmp_path, capsys, level):
    code, out = _run_with(config_path, tmp_path, level=level)
    assert code == 2
    assert "level" in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", str(tmp_path / "edited.json")]) == 2
    assert "level" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, others",
    [
        pytest.param("dim", 10**6, {}, id="1000000"),
        pytest.param("dim", 2**63, {}, id="9223372036854775808"),
        pytest.param("cohort", 2**63, {}, id="cohort-9223372036854775808"),
        pytest.param("split_m", 2**63, {}, id="split_m-9223372036854775808"),
        pytest.param("cohort", 100000, {}, id="cohort-100000"),
        pytest.param("cohort", 2**63, {"mode": "fedavg"}, id="fedavg-cohort-9223372036854775808"),
        pytest.param("local_steps", 10**9, {}, id="local_steps-1000000000"),
        pytest.param("cohort", 11000, {}, id="probe-cohort-11000"),
        pytest.param("cohort", 160, {"weight_rule": "harmonic", "kt_override": 2**20}, id="table-cohort-160"),
    ],
)
def test_oversized_task_exits_2_naming_dim_before_allocating(tmp_path, capsys, field, value, others):
    # dim 10**6 asked numpy for 146 TiB of curvatures, cohort 100000 for a
    # 74.5 GiB mixing matrix, and each 2**63 for an array past its dimension
    # limit.  Read from the code, not run: fedavg's 2**63 cohort and
    # local_steps 10**9 would draw (128, cohort, local_steps * batch_size)
    # batch indices, cohort 11000 would have validate's contraction probe
    # build a 22000 x 22000 identity, and kt_override 2**20 a 1.3 GB
    # harmonic step-weight table of 160 clients
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_msp.json"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**json.loads(config.read_text()), field: value, **others}))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["validate", "--config", str(edited)]) == 2
        assert field in capsys.readouterr().err
        assert main(["run", "--config", str(edited), "--seeds", "0", "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert not out.exists()


@pytest.mark.parametrize("mode", ["msp", "mspdq"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("ball_radius", 1e160), ("eig_hi", 1e300), ("center_offset", 1e300), ("sample_spread", 1e300),
        ("ldp_scale", 1e308), ("laplace_scale", 1e308),
    ],
)
def test_overflowing_scale_exits_2_before_any_write(tmp_path, capsys, mode, field, value):
    # each value overflowed a constant or the consensus horizon; pytest turns
    # a numpy overflow warning into an error
    config = Path(__file__).resolve().parents[1] / "configs" / f"desk_{mode}.json"
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--seeds", "0", "--sweep", "rounds=20", "--sweep", f"{field}={value}"]
    assert main([*argv, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**json.loads(config.read_text()), field: value}))
    assert main(["validate", "--config", str(edited)]) == 2
    assert field in capsys.readouterr().err


def test_consensus_horizon_past_its_cap_exits_2(config_path, tmp_path, capsys):
    # inside the scale envelope, eig_hi = 1e7 still asks mspdq for ~4e7
    # consensus rounds per learning round
    code, out = _run_with(config_path, tmp_path, "--sweep", "eig_hi=1.0,1e7")
    assert code == 2
    assert "eig_hi" in capsys.readouterr().err
    assert not out.exists()
    assert _run_with(config_path, tmp_path, eig_hi=1e7)[0] == 2
    assert main(["validate", "--config", str(tmp_path / "edited.json")]) == 2
    assert "eig_hi" in capsys.readouterr().err


def test_kt_override_sets_the_consensus_horizon_of_run_and_validate(tmp_path, capsys):
    # the schedule alone asks for ~1.5e6 consensus rounds at round 3, over
    # the cap; kt_override replaces it in the theorem constants' probe too
    config = Path(__file__).resolve().parents[1] / "configs" / "desk_msp.json"
    point = {"lambda_": 0.99999, "eig_hi": 1e6, "kt_override": 3, "rounds": 3}
    sweeps = [arg for field, value in point.items() for arg in ("--sweep", f"{field}={value}")]
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seeds", "0", *sweeps, "--out", str(out)]) == 0, (
        capsys.readouterr().err
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["runs"]) == 1 and manifest["failed"] == []
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps({**json.loads(config.read_text()), **point}))
    assert main(["validate", "--config", str(edited)]) == 0, capsys.readouterr().err


def _drop_metrics(out, manifest):
    (out / "msp_seed1" / "metrics.csv").unlink()
    return "msp_seed1"


def _empty_group(out, manifest):
    manifest["groups"]["msp"]["runs"] = []
    return "'msp'"


def _garble_metrics(out, manifest):
    (out / "msp_seed0" / "metrics.csv").write_text("t,gap\n1,oops\n")
    return "msp_seed0"


def _truncate_run(out, manifest):
    path = out / "msp_seed1" / "metrics.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return "'msp'"


def _drop_config(out, manifest):
    del manifest["groups"]["msp"]["config"]
    return "'msp'"


def _drop_constants(out, manifest):
    del manifest["groups"]["msp"]["constants"]
    return "'msp'"


def _damage_constant(key, value):
    """Delete one theorem constant (value None) or overwrite it."""

    def damage(out, manifest):
        constants = manifest["groups"]["msp"]["constants"]
        if value is None:
            del constants[key]
        else:
            constants[key] = value
        return f"manifest group 'msp': constant {key!r}"

    damage.__name__ = f"_damage_{key}_{value}"
    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _drop_metrics, _empty_group, _garble_metrics, _truncate_run, _drop_config, _drop_constants,
        # D2 and nu2 gate what report reads, so only the keys they gate are dropped
        *(_damage_constant(key, None) for key in ("mu", "L", "vartheta", "dist0")),
        _damage_constant("mu", "x"),
        _damage_constant("D3", float("nan")),
        _damage_constant("nu2", float("inf")),
        _damage_constant("dist0", True),
        # report divides by both, so a zero is damage too
        _damage_constant("mu", 0.0),
        _damage_constant("dist0", 0.0),
    ],
    ids=lambda damage: damage.__name__,
)
def test_report_on_a_damaged_run_dir_exits_2_naming_it(msp_config_path, tmp_path, capsys, damage):
    code, out = _run_with(msp_config_path, tmp_path, "--seeds", "0..1")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    named = damage(out, manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not list(out.glob("gap_vs_t_*.csv"))


@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
@pytest.mark.parametrize("command", ["run", "audit", "report"])
def test_out_at_or_below_a_file_exits_2_before_any_work(msp_config_path, tmp_path, capsys, monkeypatch, command, below):
    taken = tmp_path / "taken"
    taken.write_text("a file")
    out = taken / "sub" if below else taken

    def no_work(*args, **kwargs):
        raise AssertionError("work began before --out was checked")

    monkeypatch.setattr(orch, "build_problem", no_work)
    monkeypatch.setattr(privacy_audit, "run_audit", no_work)
    argv = {
        "run": ["run", "--config", str(msp_config_path), "--seeds", "0"],
        "audit": ["audit", "--seeds", "0"],
        # a run dir without a manifest: reading it first would exit 2 naming it
        "report": ["report", "--run-dir", str(tmp_path)],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert f"--out {out}: {taken} exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "a file"


def test_failed_write_exits_2_naming_the_path(msp_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)  # a directory where the manifest goes
    assert main(["run", "--config", str(msp_config_path), "--seeds", "0", "--out", str(out)]) == 2
    assert f"cannot write {out / 'manifest.json'}" in capsys.readouterr().err
