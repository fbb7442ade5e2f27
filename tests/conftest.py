"""Shared fixtures; the long closed-loop runs are session-scoped."""

import json
import time

import numpy as np
import pytest

# wall-clock build time of the expensive session fixtures, keyed by name;
# the acceptance tests charge these against their runtime budgets
RUNTIMES: dict[str, float] = {}


def _timed(name, thunk):
    tic = time.perf_counter()
    result = thunk()
    RUNTIMES[name] = time.perf_counter() - tic
    return result


# criterion number -> measured values, bounds and verdict, filled in by
# tests/test_acceptance.py and written to acceptance.json in the rootdir
ACCEPTANCE: dict[int, dict] = {}


def pytest_sessionfinish(session):
    if ACCEPTANCE:
        record = {"criteria": [ACCEPTANCE[k] for k in sorted(ACCEPTANCE)]}
        (session.config.rootpath / "acceptance.json").write_text(
            json.dumps(record, indent=2) + "\n")

from polysafe.cbf import build
from polysafe.inputs import Unbounded
from polysafe.plant import ArmParams, nominal_tracking, two_link_arm
from polysafe.polytope import compute_cert, hexagon_spec, slab_spec
from polysafe.sim import Scenario, simulate


@pytest.fixture(scope="session")
def hexagon():
    return hexagon_spec()


@pytest.fixture(scope="session")
def hexagon_cert(hexagon):
    return compute_cert(hexagon, overrides=np.zeros(2))


@pytest.fixture(scope="session")
def hexagon_cbf(hexagon, hexagon_cert):
    return build(hexagon, hexagon_cert, 10.0, 0.1)


@pytest.fixture(scope="session")
def slab():
    return slab_spec()


@pytest.fixture(scope="session")
def slab_cert(slab):
    return compute_cert(slab, overrides=np.zeros(1))


@pytest.fixture(scope="session")
def arm_params():
    return ArmParams()


@pytest.fixture(scope="session")
def arm(arm_params):
    return two_link_arm(arm_params)


@pytest.fixture(scope="session")
def arm_nominal(arm_params):
    return nominal_tracking(arm_params)


@pytest.fixture(scope="session")
def gravity_arm():
    return two_link_arm(ArmParams(gravity=True))


@pytest.fixture(scope="session")
def gravity_constants(gravity_arm, hexagon):
    from polysafe.plant import estimate_constants

    return _timed("gravity_constants",
                  lambda: estimate_constants(gravity_arm, hexagon,
                                             resolution=200))


def _arm_scenario(cbf, arm, nominal, mode, t_final=10.0, dt=1e-3):
    return Scenario(cbf=cbf, plant=arm, mode=mode, x0=np.zeros(4),
                    t_final=t_final, dt=dt, nominal=nominal,
                    input_set=Unbounded())


@pytest.fixture(scope="session")
def safeguarded_log(hexagon_cbf, arm, arm_nominal):
    """Reference safeguarded run: 10 s at dt = 1e-3."""
    return _timed("safeguarded_log", lambda: simulate(
        _arm_scenario(hexagon_cbf, arm, arm_nominal, "safeguarded")))


@pytest.fixture(scope="session")
def safeguarded_log_half_dt(hexagon_cbf, arm, arm_nominal):
    """Same run at dt = 5e-4 for step-size robustness checks."""
    return simulate(_arm_scenario(hexagon_cbf, arm, arm_nominal,
                                  "safeguarded", dt=5e-4))


@pytest.fixture(scope="session")
def nominal_log(hexagon_cbf, arm, arm_nominal):
    """Unfiltered tracking run; expected to leave the safety region."""
    return _timed("nominal_log", lambda: simulate(
        _arm_scenario(hexagon_cbf, arm, arm_nominal, "nominal")))
