import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

from kswave import GrowthProfile, InitialCondition, SimParams
from kswave.harness import parse_config, run_experiment

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def case1_profile():
    return GrowthProfile.from_breakpoints([(-8.0, -1.0), (-7.0, 10.0)])


@pytest.fixture(scope="session")
def case2_profile():
    return GrowthProfile.from_breakpoints(
        [(-8.0, -1.0), (-7.0, 10.0), (7.0, 10.0), (8.0, -1.0)])


@pytest.fixture(scope="session")
def exp1_params():
    return SimParams(chi=0.1, mu=1.0, nu=0.05, b=1.0, c=1.0)


@pytest.fixture(scope="session")
def case2_exp1_params():
    return SimParams(chi=0.6, mu=1.0, nu=1.0, b=1.0, c=1.0)


@pytest.fixture(scope="session")
def case1_u0():
    return InitialCondition(breakpoints=((-1.0, 0.0), (1.0, 10.0)))


@pytest.fixture(scope="session")
def case2_u0():
    return InitialCondition(bump=(-1.0, 1.0))


@pytest.fixture(scope="session")
def sweep_case1_c(tmp_path_factory):
    """The T = 140 c-sweep of experiments/sweep_case1_c.cfg, run once for
    the session: its rows and the path of the regime_map.csv it wrote.  It
    runs on two workers when two CPUs are usable; the rows are the same
    bytes for any worker count, so the recorded digest checks the pool."""
    out = tmp_path_factory.mktemp("sweep_case1_c")
    spec = parse_config((EXPERIMENTS / "sweep_case1_c.cfg").read_text())
    workers = min(2, len(os.sched_getaffinity(0)))
    return run_experiment(spec, out, workers=workers), out / "regime_map.csv"


@pytest.fixture
def rng():
    return np.random.default_rng(20230917)
