import functools
import math
import os
import subprocess
import sys
import time

import hypothesis
import numpy as np
import pytest

from fedsplit import orchestrator as orch
from fedsplit.presets import desk_config

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


@functools.cache
def blas_kernel() -> str:
    """The BLAS kernel numpy runs on here: the golden hashes pin float bits
    that depend on it (ROADMAP item 13).  OpenBLAS names it on import under
    OPENBLAS_VERBOSE=2, so a child process reports the kernel this
    environment, OPENBLAS_CORETYPE included, gives numpy."""
    try:
        child = subprocess.run(
            [sys.executable, "-c", "import numpy"], env={**os.environ, "OPENBLAS_VERBOSE": "2"},
            capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown ({exc})"
    cores = [line for line in (child.stderr + child.stdout).splitlines() if line.startswith("Core:")]
    return cores[0].split(":", 1)[1].strip() if cores else "not named by the BLAS library"


def pytest_report_header(config):
    return f"blas kernel: {blas_kernel()}"


# wall seconds of the desk fixture's setup, for the terminal summary
DESK_SETUP_SECONDS = pytest.StashKey[float]()


@pytest.hookimpl(hookwrapper=True)
def pytest_fixture_setup(fixturedef, request):
    # the fixtures it depends on are set up before this hook runs
    t0 = time.perf_counter()
    yield
    if fixturedef.argname == "desk":
        request.config.stash[DESK_SETUP_SECONDS] = time.perf_counter() - t0


def pytest_terminal_summary(terminalreporter, config):
    if config.option.verbose < 0:  # -q drops the header
        terminalreporter.write_line(f"blas kernel: {blas_kernel()}")
    seconds = config.stash.get(DESK_SETUP_SECONDS, None)
    terminalreporter.write_line(
        "desk fixture setup: not run" if seconds is None else f"desk fixture setup: {seconds:.1f} s"
    )


def pytest_collection_modifyitems(items):
    """Mark every test that needs the desk fixture, so `-m "not desk"` is the
    quick loop."""
    for item in items:
        if "desk" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.desk)


@pytest.fixture(scope="session")
def desk_bundle() -> orch.ProblemBundle:
    """The shared desk-scale problem (one instance behind every seed sweep)."""
    return orch.build_problem(desk_config("msp", 0))


@pytest.fixture(scope="session")
def small_bundle() -> orch.ProblemBundle:
    cfg = desk_config("msp", 0, rounds=40)
    cfg.dim = 4
    cfg.n_clients = 6
    cfg.cohort = 4
    return orch.build_problem(cfg)


def loglog_slope(gaps: np.ndarray, t_min: int = 50) -> float:
    ts = np.arange(1, len(gaps) + 1)
    mask = ts >= t_min
    A = np.vstack([np.log(ts[mask]), np.ones(mask.sum())]).T
    coef, _, _, _ = np.linalg.lstsq(A, np.log(gaps[mask]), rcond=None)
    return float(coef[0])


def neumaier_sum(terms, start=0):
    """Builtin sum of Python 3.12 and later on float terms, in pure Python:
    the first term joins the int start exactly, later terms feed Neumaier's
    running compensation, which is added at the end when finite and nonzero."""
    total, comp = start, 0.0
    for x in terms:
        if type(total) is not float:
            total = total + x
            continue
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total
