import json
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from fedsplit import orchestrator as orch
from fedsplit.cli import main
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
    for key in ("mu", "L", "gamma_het", "G", "D2", "D3", "C", "lambda", "pi_tilde"):
        assert key in manifest["constants"], key


def test_run_is_byte_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_path), "--seeds", "1", "--out", str(out1)])
    main(["run", "--config", str(config_path), "--seeds", "1", "--out", str(out2)])
    csv1 = (out1 / "mspdq_seed1" / "metrics.csv").read_bytes()
    csv2 = (out2 / "mspdq_seed1" / "metrics.csv").read_bytes()
    assert csv1 == csv2


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
    assert comp[0] == "rho,measured_uploads,bound"
    assert len(comp) == 3
    bits_lines = (out / "bits_vs_t_mspdq.csv").read_text().strip().splitlines()
    assert bits_lines[0] == "t,mean_cumulative_bits"


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


def _run_with(config_path, tmp_path, *args, **fields):
    """`fedsplit run` on the test config with `fields` replaced."""
    doc = json.loads(config_path.read_text())
    doc.update(fields)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "edited_out"
    return main(["run", "--config", str(path), "--out", str(out), *args]), out


def test_run_builds_each_bundle_once_before_the_pool(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("FEDSPLIT_THREADS", "2")
    calls = []
    real_build = orch.build_problem

    def counting_build(cfg):
        calls.append(cfg.seed)
        time.sleep(0.05)  # wide enough for a second pool thread to race in
        return real_build(cfg)

    monkeypatch.setattr(orch, "build_problem", counting_build)
    code, _ = _run_with(config_path, tmp_path, "--seeds", "0,1", rounds=3)
    assert code == 0
    assert len(calls) == 1


def test_run_sweep_over_center_offset_builds_distinct_problems(
    config_path, tmp_path, monkeypatch
):
    monkeypatch.setenv("FEDSPLIT_THREADS", "1")  # no pool race to mask a shared bundle
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
    "field, value", [("level", "256"), ("rounds", float("nan")), ("kt_override", 0)]
)
def test_bad_field_value_exits_2(config_path, tmp_path, capsys, field, value):
    code, _ = _run_with(config_path, tmp_path, **{field: value})
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json", "[1, 2]"])
def test_unreadable_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 2
    assert "--config" in capsys.readouterr().err


def test_bad_thread_count_exits_2(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("FEDSPLIT_THREADS", "two")
    code, _ = _run_with(config_path, tmp_path, rounds=3)
    assert code == 2
    assert "FEDSPLIT_THREADS" in capsys.readouterr().err
