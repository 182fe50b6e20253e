import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fedsplit import consensus
from fedsplit import orchestrator as orch
from fedsplit.cli import main
from fedsplit.errors import ProtocolIntegrityError
from fedsplit.presets import desk_config


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
    ],
)
def test_bad_field_value_exits_2(config_path, tmp_path, capsys, field, value):
    code, out = _run_with(config_path, tmp_path, **{field: value})
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()
    assert main(["validate", "--config", str(tmp_path / "edited.json")]) == 2
    assert field in capsys.readouterr().err


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

    def leaky_round(state, epsilon, weights_k, **kwargs):
        nxt = real_round(state, epsilon, weights_k, **kwargs)
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


@pytest.mark.parametrize("mode", ["msp", "mspdq"])
def test_shipped_configs_equal_the_desk_preset(mode):
    path = Path(__file__).resolve().parents[1] / "configs" / f"desk_{mode}.json"
    shipped = orch.FLConfig.from_dict(json.loads(path.read_text()))
    assert asdict(shipped) == asdict(desk_config(mode, 0, rounds=200))


def test_nan_in_a_consensus_round_fails_the_run(msp_config_path, tmp_path, capsys, monkeypatch):
    real_round = consensus.msp_round

    def nan_round(state, epsilon, weights_k, **kwargs):
        nxt = real_round(state, epsilon, weights_k, **kwargs)
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
