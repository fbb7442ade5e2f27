"""Drift gate: two 2 s arm runs reproduce a recorded reference.

The filter's QP is strictly convex, so its optimum is unique and any
rewrite of the solvers underneath must give the same closed loop up to
round-off.  The runs are the two-link arm in the hexagon with the
tracking nominal from x0 = 0 at dt = 1e-3, at gamma = 0.1 with
epsilon = gamma * delta / 2 and at gamma = 10 with epsilon = 0.1.

The reference is `data/drift_reference.npz`; rewrite it only when a change
is meant to move the loop:

    PYTHONPATH=src python tests/test_drift.py
"""

from pathlib import Path

import numpy as np
import pytest

from polysafe.cbf import build
from polysafe.inputs import Unbounded
from polysafe.plant import ArmParams, nominal_tracking, two_link_arm
from polysafe.polytope import compute_cert, hexagon_spec
from polysafe.sim import Scenario, simulate

REFERENCE = Path(__file__).with_name("data") / "drift_reference.npz"
TOL = 1e-9
RUNS = {"g0.1": (0.1, lambda delta: 0.1 * delta / 2),
        "g10": (10.0, lambda delta: 0.1)}


def drift_run(name: str) -> dict[str, np.ndarray]:
    """Per-step u, final state, min B and fast-path step count of one run."""
    gamma, epsilon = RUNS[name]
    spec = hexagon_spec()
    cert = compute_cert(spec, overrides=np.zeros(2))
    params = ArmParams()
    log = simulate(Scenario(
        cbf=build(spec, cert, gamma, epsilon(cert.delta)),
        plant=two_link_arm(params), mode="safeguarded", x0=np.zeros(4),
        t_final=2.0, dt=1e-3, nominal=nominal_tracking(params),
        input_set=Unbounded()))
    return {"u": log.u, "x_final": log.x[-1], "min_B": np.array(log.B.min()),
            "fast": np.array(log.status.count("fast"))}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_closed_loop_matches_reference(name):
    ref = np.load(REFERENCE)
    got = drift_run(name)
    assert got["u"].shape == ref[f"{name}_u"].shape == (2001, 2)
    for key in ("u", "x_final", "min_B"):
        np.testing.assert_allclose(got[key], ref[f"{name}_{key}"], rtol=0,
                                   atol=TOL, err_msg=key)
    assert int(got["fast"]) == int(ref[f"{name}_fast"])


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE, **{f"{name}_{key}": value
                                      for name in RUNS
                                      for key, value in drift_run(name).items()})
    print(f"wrote {REFERENCE}")
