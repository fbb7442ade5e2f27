"""Closed-loop simulation: integrator accuracy, logging, invariance audit."""

import numpy as np
import pytest

from polysafe.cbf import build, eval_B, velocity_bound
from polysafe.errors import NonFinite, QpInfeasibleAt
from polysafe.inputs import Unbounded
from polysafe.plant import double_integrator
from polysafe.qp import QpWeights, SafeguardAssembler
from polysafe.sim import Scenario, audit_invariance, rk4_step, simulate


# --- integrator ---------------------------------------------------------------

def test_rk4_constant_velocity_exact():
    plant = double_integrator(1)
    x = rk4_step(plant, np.zeros(1), np.array([0.0, 1.0]), 0.1)
    np.testing.assert_array_equal(x, [0.1, 1.0])


def test_rk4_constant_acceleration_exact():
    plant = double_integrator(1)
    x = rk4_step(plant, np.ones(1), np.zeros(2), 0.1)
    np.testing.assert_allclose(x, [0.005, 0.1], atol=1e-16)


def test_rk4_fourth_order_convergence(arm):
    # Richardson ratio between dt and dt/2 errors against a dt/8 baseline
    x0 = np.array([0.2, -0.3, 1.5, -1.0])
    u = np.zeros(2)

    def integrate(dt, t_final=0.5):
        x = x0.copy()
        for _ in range(int(round(t_final / dt))):
            x = rk4_step(arm, u, x, dt)
        return x

    ref = integrate(0.02 / 8)
    e1 = np.linalg.norm(integrate(0.02) - ref)
    e2 = np.linalg.norm(integrate(0.01) - ref)
    assert e1 / e2 == pytest.approx(16.0, abs=2.0)


# --- scenario validation ------------------------------------------------------

def test_scenario_rejects_bad_inputs(hexagon_cbf, arm):
    with pytest.raises(ValueError):
        Scenario(cbf=hexagon_cbf, plant=arm, mode="other", x0=np.zeros(4),
                 t_final=1.0)
    with pytest.raises(ValueError):
        Scenario(cbf=hexagon_cbf, plant=arm, mode="nominal", x0=np.zeros(4),
                 t_final=1.0, dt=0.0)
    with pytest.raises(ValueError):
        Scenario(cbf=hexagon_cbf, plant=arm, mode="nominal", x0=np.zeros(3),
                 t_final=1.0)


def test_zero_duration_logs_initial_row_only(hexagon_cbf, arm):
    sc = Scenario(cbf=hexagon_cbf, plant=arm, mode="nominal",
                  x0=np.zeros(4), t_final=0.0)
    log = simulate(sc)
    assert len(log) == 1
    assert log.t[0] == 0.0
    report = audit_invariance(log, hexagon_cbf)
    assert report.first_B_violation is None


# --- logging ------------------------------------------------------------------

def test_log_shape_and_uniform_time(safeguarded_log):
    assert len(safeguarded_log) == 10001
    steps = np.diff(safeguarded_log.t)
    np.testing.assert_allclose(steps, 1e-3, atol=1e-12)
    assert all(s in ("fast", "optimal") for s in safeguarded_log.status)


def test_csv_export(tmp_path, hexagon_cbf, arm, arm_nominal):
    sc = Scenario(cbf=hexagon_cbf, plant=arm, mode="safeguarded",
                  x0=np.zeros(4), t_final=0.01, nominal=arm_nominal,
                  input_set=Unbounded())
    log = simulate(sc)
    path = tmp_path / "log.csv"
    log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("t,x1_1,x1_2,x2_1,x2_2,u_1,u_2,B,h,alpha,M,"
                       "qp_iters,n_active,status,solve_us")
    assert len(lines) == len(log) + 1
    # 17-significant-digit rendering round-trips exactly
    row = lines[5].split(",")
    assert float(row[7]) == log.B[4]


def test_determinism_bit_identical(hexagon_cbf, arm, arm_nominal):
    def run():
        sc = Scenario(cbf=hexagon_cbf, plant=arm, mode="safeguarded",
                      x0=np.zeros(4), t_final=0.2, nominal=arm_nominal,
                      input_set=Unbounded(), seed=42)
        return simulate(sc)

    a, b = run(), run()
    assert (a.x == b.x).all()
    assert (a.u == b.u).all()
    assert (a.B == b.B).all()


@pytest.mark.parametrize("mode, sim_calls", [("safeguarded", 0), ("nominal", 51)])
def test_logged_B_is_eval_B_at_each_state(monkeypatch, hexagon_cbf, arm,
                                          arm_nominal, mode, sim_calls):
    # the safeguarded loop logs the value the filter evaluated at x and
    # calls eval_B only in nominal mode
    import polysafe.sim

    calls = []
    monkeypatch.setattr(polysafe.sim, "eval_B",
                        lambda cbf, x: calls.append(x) or eval_B(cbf, x))
    log = simulate(Scenario(cbf=hexagon_cbf, plant=arm, mode=mode,
                            x0=np.zeros(4), t_final=0.05, nominal=arm_nominal))
    assert len(calls) == sim_calls
    for x, B in zip(log.x, log.B):
        assert B == eval_B(hexagon_cbf, x).value


@pytest.mark.parametrize("mode", ["safeguarded", "nominal"])
def test_logged_qp_iters_leave_the_loop_unchanged(monkeypatch, hexagon, hexagon_cert,
                                                  arm, arm_nominal, mode):
    # the log holds the filter's iteration count on QP steps and 0 elsewhere;
    # x, u and B are the filter's own results and the steps they drive
    results = []
    solve = SafeguardAssembler.solve

    def recording(self, *args, **kwargs):
        results.append(solve(self, *args, **kwargs))
        return results[-1]

    monkeypatch.setattr(SafeguardAssembler, "solve", recording)
    cbf = build(hexagon, hexagon_cert, 0.1, 0.1 * hexagon_cert.delta / 2)
    log = simulate(Scenario(cbf=cbf, plant=arm, mode=mode, x0=np.zeros(4),
                            t_final=0.05, nominal=arm_nominal))
    assert log.qp_iters.dtype.kind == "i" and log.qp_iters.shape == (51,)
    for k in range(len(log) - 1):
        assert (log.x[k + 1] == rk4_step(arm, log.u[k], log.x[k], 1e-3)).all()
    if mode == "nominal":
        assert not results and not log.qp_iters.any()
        return
    assert [r.fast_path for r in results] == [s == "fast" for s in log.status]
    assert log.status.count("optimal") > 40
    assert (log.u == [r.u_star for r in results]).all()
    assert (log.B == [r.B for r in results]).all()
    assert log.qp_iters.tolist() == [0 if r.fast_path else r.solution.iterations
                                     for r in results]
    assert (log.qp_iters[np.array(log.status) == "optimal"] >= 1).all()


@pytest.mark.parametrize("mode, gamma", [("safeguarded", 0.1), ("safeguarded", 10.0),
                                         ("nominal", 0.1)])
def test_logged_n_active_leaves_the_loop_unchanged(hexagon, hexagon_cert, arm,
                                                   arm_nominal, mode, gamma):
    # the log holds the optimum's active-row count on QP steps and 0
    # elsewhere; x, u and B are those of the same loop run with no log,
    # bit for bit (at gamma = 0.1 every step is a QP step, at 10 none is)
    cbf = build(hexagon, hexagon_cert, gamma, min(0.1, gamma * hexagon_cert.delta / 2))
    log = simulate(Scenario(cbf=cbf, plant=arm, mode=mode, x0=np.zeros(4),
                            t_final=0.05, nominal=arm_nominal))
    assert log.n_active.dtype.kind == "i" and log.n_active.shape == (51,)
    if mode == "nominal":
        assert not log.n_active.any()
        return
    asm = SafeguardAssembler(cbf, arm, QpWeights(), Unbounded())
    x = np.zeros(4)
    for k in range(len(log)):
        res = asm.solve(x, u_nom=arm_nominal(log.t[k], x))
        assert (log.x[k] == x).all() and (log.u[k] == res.u_star).all()
        assert log.B[k] == res.B
        assert log.n_active[k] == (0 if res.fast_path else len(res.solution.active))
        x = rk4_step(arm, res.u_star, x, 1e-3)
    optimal = np.array(log.status) == "optimal"
    assert optimal.all() if gamma < 1 else not optimal.any()
    assert (log.n_active[optimal] >= 1).all()


# --- runtime failure paths ----------------------------------------------------

def test_infeasible_start_aborts_with_context(hexagon_cbf, arm):
    sc = Scenario(cbf=hexagon_cbf, plant=arm, mode="safeguarded",
                  x0=np.array([2.0, 0.0, 0.0, 0.0]), t_final=1.0,
                  input_set=Unbounded())
    with pytest.raises(QpInfeasibleAt) as err:
        simulate(sc)
    assert err.value.t == 0.0


@pytest.mark.parametrize("mode", ["nominal", "safeguarded"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_nominal_input_aborts_as_nonfinite(hexagon_cbf, arm, mode, bad):
    sc = Scenario(cbf=hexagon_cbf, plant=arm, mode=mode, x0=np.zeros(4),
                  t_final=0.01, nominal=lambda t, x: np.array([bad, 0.0]),
                  input_set=Unbounded())
    with pytest.raises(NonFinite, match="nominal input at t=0"):
        simulate(sc)


# --- invariance audit ---------------------------------------------------------

def test_audit_recomputes_independently(safeguarded_log, hexagon_cbf):
    report = audit_invariance(log=safeguarded_log, cbf=hexagon_cbf)
    assert report.min_B == pytest.approx(float(safeguarded_log.B.min()),
                                         abs=1e-12)
    assert report.min_h == pytest.approx(float(safeguarded_log.h.min()),
                                         abs=1e-12)


def test_audit_reports_nominal_violation(nominal_log, hexagon_cbf):
    report = audit_invariance(nominal_log, hexagon_cbf)
    assert report.min_h < 0.0
    assert report.first_h_violation is not None
    assert 0.0 < report.first_h_violation < 10.0


def test_velocity_bound_holds_in_closed_loop(safeguarded_log, hexagon_cbf):
    cert = velocity_bound(hexagon_cbf)
    report = audit_invariance(safeguarded_log, hexagon_cbf)
    assert report.max_speed <= cert.norm_bound + 1e-6


def test_step_size_robustness(safeguarded_log, safeguarded_log_half_dt):
    # halving dt must not move the worst-case barrier value by 1e-3
    a = float(safeguarded_log.B.min())
    b = float(safeguarded_log_half_dt.B.min())
    assert abs(a - b) < 1e-3
