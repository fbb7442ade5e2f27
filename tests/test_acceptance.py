"""End-to-end acceptance gate: one test (and one pass/fail line) per
criterion.  Each test prints a summary line with the measured numbers and
records them, with their bounds and the verdict, for acceptance.json."""

import operator
import time

import numpy as np
import pytest

from _oracles import (
    qp_bruteforce,
    random_qp,
    sample_extended_states,
    sample_safe_positions,
)
from conftest import ACCEPTANCE, RUNTIMES
from polysafe.cbf import (
    build,
    eval_B_many,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from polysafe.inputs import PolytopicBall, Unbounded
from polysafe.plant import select_gamma
from polysafe.polytope import compute_cert, eval_h_many, hexagon_spec, slab_spec
from polysafe.qp import QpProblem, solve_qp
from polysafe.sim import rk4_step


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


def _line(num, detail, *checks):
    """Print criterion num's PASS/FAIL line and record it for acceptance.json.

    Each check is (what, measured, relation, bound); the criterion passes
    when every check holds.
    """
    results = [{"what": what, "measured": float(value), "relation": rel,
                "bound": float(bound), "pass": bool(_RELATIONS[rel](value, bound))}
               for what, value, rel, bound in checks]
    ok = all(r["pass"] for r in results)
    ACCEPTANCE[num] = {"criterion": num, "verdict": "PASS" if ok else "FAIL",
                       "detail": detail, "checks": results}
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_interior_margin_reproduction():
    tic = time.perf_counter()
    spec = hexagon_spec()
    cert = compute_cert(spec, overrides=np.zeros(2))
    elapsed = time.perf_counter() - tic
    err = abs(cert.delta - np.pi / 2)
    _line(1, f"delta error {err:.3g}, {elapsed:.2f} s",
          ("delta error", err, "<=", 1e-12), ("seconds", elapsed, "<", 1.0))
    assert err <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_no_positions_lost(hexagon_cbf):
    tic = time.perf_counter()
    X1 = sample_safe_positions(hexagon_cbf.spec, 10000, seed=2)
    lifted = np.array([lift_position(hexagon_cbf, x1) for x1 in X1])
    min_B = float(eval_B_many(hexagon_cbf, lifted).min())
    states = sample_extended_states(hexagon_cbf, 10000, seed=2)
    min_h = float(eval_h_many(hexagon_cbf.spec, states[:, :2]).min())
    elapsed = time.perf_counter() - tic
    _line(2, f"lifted min B {min_B:.3g}, projected min h {min_h:.3g}, "
             f"{elapsed:.1f} s",
          ("lifted min B", min_B, ">=", 0.0), ("projected min h", min_h, ">=", 0.0),
          ("seconds", elapsed, "<", 10.0))
    assert min_B >= 0.0
    assert min_h >= 0.0
    assert elapsed < 10.0


def test_criterion_3_velocity_bound_scaling(hexagon, hexagon_cert):
    slab = slab_spec()
    slab_cert = compute_cert(slab, overrides=np.zeros(1))
    worst_rel = 0.0
    for spec, cert, gamma, eps in ((slab, slab_cert, 1.0, 0.5),
                                   (hexagon, hexagon_cert, 10.0, 0.1)):
        base = velocity_bound(build(spec, cert, gamma, eps))
        for s in (0.1, 10.0):
            scaled = velocity_bound(build(spec, cert, s * gamma, s * eps))
            rel = abs(scaled.per_component_bound / s
                      - base.per_component_bound) / base.per_component_bound
            worst_rel = max(worst_rel, rel)
    analytic = velocity_bound(build(slab, slab_cert, 3.0, 0.2))
    analytic_err = abs(analytic.per_component_bound - (2 * 3.0 - 0.2))
    _line(3, f"worst relative scaling error {worst_rel:.3g}, "
             f"analytic error {analytic_err:.3g}",
          ("worst relative scaling error", worst_rel, "<=", 1e-9),
          ("analytic error", analytic_err, "<=", 1e-9))
    assert worst_rel <= 1e-9
    assert analytic_err <= 1e-9


def test_criterion_4_qp_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(4))
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(500):
        P, c, G, h = random_qp(rng)
        sol = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
        ref = qp_bruteforce(P, c, G, h)
        assert sol.optimal and ref is not None
        worst_obj = max(worst_obj, abs(sol.objective - ref[1]))
        worst_kkt = max(worst_kkt, max(sol.residuals.values()))
    _line(4, f"worst objective gap {worst_obj:.3g}, "
             f"worst KKT residual {worst_kkt:.3g}",
          ("worst objective gap", worst_obj, "<=", 1e-6),
          ("worst KKT residual", worst_kkt, "<=", 1e-8))
    assert worst_obj <= 1e-6
    assert worst_kkt <= 1e-8


def test_criterion_5_closed_loop_dichotomy(safeguarded_log, nominal_log):
    min_B = float(safeguarded_log.B.min())
    min_h = float(nominal_log.h.min())
    elapsed = RUNTIMES["safeguarded_log"] + RUNTIMES["nominal_log"]
    _line(5, f"safeguarded min B {min_B:.4g}, "
             f"unfiltered min h {min_h:.4g}, {elapsed:.1f} s",
          ("safeguarded min B", min_B, ">=", -1e-6),
          ("unfiltered min h", min_h, "<", 0.0), ("seconds", elapsed, "<", 60.0))
    assert min_h < 0.0
    assert elapsed < 60.0
    assert min_B >= -1e-6


def test_criterion_6_gamma_sweep_monotonicity(hexagon, hexagon_cert, arm,
                                              arm_nominal):
    from polysafe.sim import Scenario, simulate

    tic = time.perf_counter()
    maxima = {}
    for gamma in (0.1, 1.0):
        cbf = build(hexagon, hexagon_cert, gamma,
                    gamma * hexagon_cert.delta / 2)
        sc = Scenario(cbf=cbf, plant=arm, mode="safeguarded", x0=np.zeros(4),
                      t_final=10.0, dt=1e-3, nominal=arm_nominal,
                      input_set=Unbounded())
        log = simulate(sc)
        maxima[gamma] = (float(np.linalg.norm(log.u, axis=1).max()),
                         float(np.linalg.norm(log.x[:, 2:], axis=1).max()))
    elapsed = time.perf_counter() - tic
    u_small, v_small = maxima[0.1]
    u_large, v_large = maxima[1.0]
    _line(6, f"max input {u_small:.3g} vs {u_large:.3g}, "
             f"max velocity {v_small:.3g} vs {v_large:.3g}, "
             f"{elapsed:.0f} s",
          ("max input at gamma 0.1 (bound: at gamma 1)", u_small, "<", u_large),
          ("max velocity at gamma 0.1 (bound: at gamma 1)", v_small, "<", v_large),
          ("seconds", elapsed, "<", 120.0))
    assert u_small < u_large
    assert v_small < v_large
    assert elapsed < 120.0


def test_criterion_7_boundary_condition_end_to_end(hexagon_cbf, hexagon,
                                                   hexagon_cert, arm,
                                                   gravity_arm,
                                                   gravity_constants):
    tic = time.perf_counter()
    X = sample_boundary(hexagon_cbf, 1000, seed=7)
    full = verify_safety_condition(hexagon_cbf, arm, Unbounded(), X)

    d = gravity_constants.kG * gravity_constants.k1 + 10.0
    gamma, eps = select_gamma(gravity_constants, d, hexagon, hexagon_cert)
    cbf = build(hexagon, hexagon_cert, gamma, eps)
    Xg = sample_boundary(cbf, 1000, seed=7)
    ball = verify_safety_condition(cbf, gravity_arm, PolytopicBall(d), Xg)
    elapsed = time.perf_counter() - tic + RUNTIMES["gravity_constants"]
    _line(7, f"full actuation worst margin {full.worst_margin:.3g}, "
             f"bounded-input worst margin {ball.worst_margin:.3g}, "
             f"gamma {gamma:.4g}, {elapsed:.0f} s",
          ("full-actuation infeasible samples",
           sum(not c.feasible for c in full.checks), "<=", 0),
          ("bounded-input infeasible samples",
           sum(not c.feasible for c in ball.checks), "<=", 0),
          ("seconds", elapsed, "<", 60.0))
    assert full.all_feasible
    assert ball.all_feasible
    assert elapsed < 60.0


def test_criterion_8_integrator_order_and_energy(arm, arm_params):
    from polysafe.plant import mass_matrix

    x0 = np.array([0.2, -0.3, 1.5, -1.0])

    def integrate(dt, t_final=0.5):
        x = x0.copy()
        for _ in range(int(round(t_final / dt))):
            x = rk4_step(arm, np.zeros(2), x, dt)
        return x

    ref = integrate(0.02 / 8)
    ratio = (np.linalg.norm(integrate(0.02) - ref)
             / np.linalg.norm(integrate(0.01) - ref))

    def energy(x):
        return 0.5 * x[2:] @ mass_matrix(arm_params, x[:2]) @ x[2:]

    x = np.array([0.3, -0.4, 1.0, -2.0])
    e0 = energy(x)
    drift = 0.0
    for _ in range(10000):
        x = rk4_step(arm, np.zeros(2), x, 1e-3)
        drift = max(drift, abs(energy(x) - e0))
    _line(8, f"convergence ratio {ratio:.2f}, energy drift {drift:.3g}",
          ("|convergence ratio - 16|", abs(ratio - 16.0), "<=", 2.0),
          ("energy drift", drift, "<", 1e-6))
    assert ratio == pytest.approx(16.0, abs=2.0)
    assert drift < 1e-6
