"""Certify 1,000 random geometries outside tier-1: 50 `bounded_specs` draws
under each of the seeds 2001-2020, each through `compute_cert`, and each
certified one through the rest of the chain: the barrier at gamma = 1,
epsilon = delta / 2, its compactness and velocity bound, a lift of every
witness, 20 boundary samples and the safety condition for a double
integrator with unbounded input.  Each barrier's velocity extents are
solved again by `extents` LPs with no start, each running phase 1, and
compared bit for bit with the barrier's own, whose LPs skip phase 1.  Each
barrier is also written by `to_dict` and read back by `cbf_from_dict`,
which checks its certificate against the spec.

    PYTHONPATH=src python tests/certify_drawn_specs.py

Prints the counts: specs drawn, rejected when built, certified, refused
by exit code, witnesses, witnesses with h < 0, the worst witness h, the
velocity extents compared with their cold solve and how many differ, the
barriers read back and how many were refused or read with another delta,
the chain's outcomes by error class, and the NumericalBreakdowns (a
singular simplex basis) per step of STEPS.  Exits 1 if any spec exits 5 (a
breakdown in the certificate included), any witness lies outside C, any
velocity extents differ from their cold solve, a barrier is refused or
reads another delta when read back, the condition fails at a
sample, the chain raises anything but a NumericalBreakdown, or a
NumericalBreakdown arises in the compactness and velocity bound step,
whose LPs are the spec's own rows shrunk by epsilon / gamma, or in
sampling, which solves no LP.  Breakdowns in the other steps are
counted, not gated.  Last it prints the number of
`lp_solve` calls and a sha256 over every result in call order (status,
start, x, dual, ray and objective), so that two trees whose LPs should
agree bit for bit can be compared by one line; the digest is not gated.
The read-back's LPs are neither counted nor hashed.
"""

import collections
import contextlib
import hashlib
import os
import sys

import numpy as np
from hypothesis import HealthCheck, Phase, given, seed, settings
from hypothesis import strategies as st

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_geometry_properties import bounded_specs  # noqa: E402

from polysafe import cbf as pcbf, lp as plp, polytope as ppoly, qp as pqp  # noqa: E402
from polysafe.cbf import (  # noqa: E402
    build,
    cbf_from_dict,
    check_compactness,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from polysafe.errors import NumericalBreakdown, PolysafeError  # noqa: E402
from polysafe.inputs import Unbounded  # noqa: E402
from polysafe.plant import double_integrator  # noqa: E402
from polysafe.polytope import compute_cert, eval_h, extents  # noqa: E402

SEEDS = range(2001, 2021)
DRAWS = 50
STEPS = ("certificate", "compactness and velocity bound", "lift", "sampling",
         "condition")


LP_MODULES = (plp, ppoly, pcbf, pqp)
LP_SOLVE = plp.lp_solve


def hash_lp_results(digest) -> list:
    """Route every module's `lp_solve` through a wrapper that feeds each
    result to `digest`, in call order; returns the one-item call counter."""
    solve, calls = LP_SOLVE, [0]

    def hashed(problem, start=None):
        sol = solve(problem, start)
        calls[0] += 1
        digest.update(repr((sol.status, sol.start)).encode())
        for v in (sol.x, sol.dual, sol.ray, sol.objective):
            digest.update(b"None" if v is None else np.asarray(v, dtype=float).tobytes())
        return sol

    for module in LP_MODULES:
        module.lp_solve = hashed
    return calls


@contextlib.contextmanager
def unhashed():
    """`lp_solve` as it is, with no hashing wrapper, inside the block."""
    wrapped = [module.lp_solve for module in LP_MODULES]
    for module in LP_MODULES:
        module.lp_solve = LP_SOLVE
    try:
        yield
    finally:
        for module, solve in zip(LP_MODULES, wrapped):
            module.lp_solve = solve


def read_back(cbf, counts: collections.Counter) -> None:
    """`cbf_from_dict(cbf.to_dict())`, outside the hashed `lp_solve`:
    counts the barriers read back, refused, and read with another delta."""
    counts["barriers read back"] += 1
    try:
        with unhashed():
            back = cbf_from_dict(cbf.to_dict())
    except PolysafeError:
        back = None
    counts["barriers refused when read back"] += back is None
    counts["barriers read back with another delta"] += (
        back is not None and back.cert.delta != cbf.cert.delta)


def cold_velocity_extents(cbf) -> np.ndarray:
    """`cbf.velocity_extents` from `extents` LPs with no start."""
    rho = cbf.epsilon / cbf.gamma
    out = []
    for ell, lo_hi in enumerate(cbf.spec.term_extents):
        A, b, _ = cbf.spec.rows.term_rows(ell)
        out.append(cbf.gamma * (np.array(extents(A, b - rho)) - lo_hi[::-1]))
    return np.array(out)


def chain(spec, cert, counts: collections.Counter):
    """The rest of the construction on a certified spec: yields the name of
    each step before it runs, and last the outcome's key."""
    yield "compactness and velocity bound"
    cbf = build(spec, cert, 1.0, cert.delta / 2)
    read_back(cbf, counts)
    check_compactness(cbf)
    velocity_bound(cbf)
    counts["velocity extents compared with their cold solve"] += 1
    counts["velocity extents differing from their cold solve"] += (
        cbf.velocity_extents.tobytes() != cold_velocity_extents(cbf).tobytes())
    yield "lift"
    for y in cert.witnesses.values():
        lift_position(cbf, y)
    yield "sampling"
    X = sample_boundary(cbf, 20, 0)
    yield "condition"
    report = verify_safety_condition(cbf, double_integrator(spec.n), Unbounded(), X)
    yield "chain passed" if report.all_feasible else "chain condition failed"


def certify(counts: collections.Counter, breakdowns: collections.Counter,
            worst: list) -> None:
    """Draw DRAWS specs under each of SEEDS and tally what compute_cert and
    the chain give."""
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
            if isinstance(exc, NumericalBreakdown):
                breakdowns["certificate"] += 1
            return
        counts["certified"] += 1
        h = [eval_h(spec, y) for y in cert.witnesses.values()]
        counts["witnesses"] += len(h)
        counts["witnesses with h < 0"] += sum(v < 0.0 for v in h)
        worst.append(min(h))
        try:
            for step in chain(spec, cert, counts):   # on a raise, step names the step
                pass
            counts[step] += 1
        except NumericalBreakdown:
            breakdowns[step] += 1
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
    breakdowns: collections.Counter = collections.Counter()
    worst: list[float] = []
    digest = hashlib.sha256()
    calls = hash_lp_results(digest)
    certify(counts, breakdowns, worst)
    for key in sorted(counts):
        print(key, counts[key])
    print("worst witness h", min(worst, default=float("nan")))
    for step in STEPS:
        print(f"NumericalBreakdown in {step}", breakdowns[step])
    print("lp_solve calls", calls[0], "sha256", digest.hexdigest())
    chain_failures = sum(v for k, v in counts.items()
                         if k.startswith("chain ") and k != "chain passed")
    return 1 if (counts["exit 5"] or counts["witnesses with h < 0"] or chain_failures
                 or counts["velocity extents differing from their cold solve"]
                 or counts["barriers refused when read back"]
                 or counts["barriers read back with another delta"]
                 or breakdowns["compactness and velocity bound"]
                 or breakdowns["sampling"]) else 0


if __name__ == "__main__":
    sys.exit(main())
