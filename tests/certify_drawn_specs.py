"""Certify 1,000 random geometries outside tier-1: 50 `bounded_specs` draws
under each of the seeds 2001-2020, each through `compute_cert`, and each
certified one through the rest of the chain: the barrier at gamma = 1,
epsilon = delta / 2, its compactness and velocity bound, a lift of every
witness, 20 boundary samples and the safety condition for a double
integrator with unbounded input.

    PYTHONPATH=src python tests/certify_drawn_specs.py

Prints the counts: specs drawn, rejected when built, certified, refused
by exit code, witnesses, witnesses with h < 0, the worst witness h, and
the chain's outcomes by error class.  Exits 1 if any spec exits 5
(numerical breakdown), any witness lies outside C, the condition fails
at a sample, or the chain raises anything but a NumericalBreakdown (a
singular simplex basis, counted but not gated).
"""

import collections
import os
import sys

from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_geometry_properties import bounded_specs  # noqa: E402

from polysafe.cbf import (  # noqa: E402
    build,
    check_compactness,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from polysafe.errors import PolysafeError  # noqa: E402
from polysafe.inputs import Unbounded  # noqa: E402
from polysafe.plant import double_integrator  # noqa: E402
from polysafe.polytope import compute_cert, eval_h  # noqa: E402

SEEDS = range(2001, 2021)
DRAWS = 50


def chain(spec, cert) -> str:
    """The rest of the construction on a certified spec: its outcome's key."""
    cbf = build(spec, cert, 1.0, cert.delta / 2)
    check_compactness(cbf)
    velocity_bound(cbf)
    for y in cert.witnesses.values():
        lift_position(cbf, y)
    X = sample_boundary(cbf, 20, 0)
    report = verify_safety_condition(cbf, double_integrator(spec.n), Unbounded(), X)
    return "chain passed" if report.all_feasible else "chain condition failed"


def certify(counts: collections.Counter, worst: list) -> None:
    """Draw DRAWS specs under each of SEEDS and tally what compute_cert gives."""
    def one(data):
        try:   # a draw that fails an `assume` is not counted
            spec = data.draw(bounded_specs())
        except PolysafeError as exc:
            counts["drawn"] += 1
            counts[f"rejected when built (exit {exc.exit_code})"] += 1
            return
        counts["drawn"] += 1
        try:
            cert = compute_cert(spec)
        except PolysafeError as exc:
            counts[f"exit {exc.exit_code}"] += 1
            return
        counts["certified"] += 1
        h = [eval_h(spec, y) for y in cert.witnesses.values()]
        counts["witnesses"] += len(h)
        counts["witnesses with h < 0"] += sum(v < 0.0 for v in h)
        worst.append(min(h))
        try:
            counts[chain(spec, cert)] += 1
        except PolysafeError as exc:
            counts[f"chain {type(exc).__name__}"] += 1

    for s in SEEDS:
        # a tally, not a test: no shrinking, replay or draw-speed check
        seed(s)(settings(max_examples=DRAWS, deadline=None, database=None,
                         phases=[Phase.generate],
                         suppress_health_check=list(HealthCheck))(
            given(data=st.data())(one)))()


def main() -> int:
    counts: collections.Counter = collections.Counter()
    worst: list[float] = []
    certify(counts, worst)
    for key in sorted(counts):
        print(key, counts[key])
    print("worst witness h", min(worst, default=float("nan")))
    chain_failures = sum(v for k, v in counts.items() if k.startswith("chain ")
                         and k not in ("chain passed", "chain NumericalBreakdown"))
    return 1 if counts["exit 5"] or counts["witnesses with h < 0"] or chain_failures else 0


if __name__ == "__main__":
    sys.exit(main())
