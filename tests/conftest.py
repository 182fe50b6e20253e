import hypothesis
import numpy as np
import pytest

from fedsplit import orchestrator as orch
from fedsplit.presets import desk_config

hypothesis.settings.register_profile(
    "suite", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("suite")


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
