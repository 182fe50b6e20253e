import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, extra, outputs",
    [
        (
            "run_desk_experiment.py",
            [],
            ["gap_fedavg.csv", "gap_ldp.csv", "gap_msp.csv", "gap_mspdq.csv", "summary.json"],
        ),
        ("run_bit_sweep.py", ["--bits", "4"], ["bit_sweep.csv"]),
    ],
)
def test_script_main_writes_its_outputs(script, extra, outputs, tmp_path, monkeypatch):
    out = tmp_path / "out"
    argv = [script, "--seeds", "1", "--rounds", "5", "--out", str(out), *extra]
    monkeypatch.setattr(sys, "argv", argv)
    runpy.run_path(str(SCRIPTS / script))["main"]()
    for name in outputs:
        assert (out / name).is_file(), name
