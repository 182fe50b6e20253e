"""Set-up of one workload in a fresh process, for the benchmark's setup_s.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORK_DIR [ROUNDS]

Starts the interpreter, imports fedsplit, generates and validates the
workload's configs, builds the problem, and exits. The caller times the
whole process.
"""

import shutil
import sys
from pathlib import Path

import run

if __name__ == "__main__":
    work_dir = Path(sys.argv[3])
    run.setup(sys.argv[1], int(sys.argv[2]), work_dir, int(sys.argv[4]) if len(sys.argv) > 4 else None)
    shutil.rmtree(work_dir, ignore_errors=True)
