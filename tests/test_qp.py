"""QP solver oracle equivalence and safeguarding controller behavior."""

import dataclasses
import warnings

import numpy as np
import pytest

from _oracles import (
    continuity_probe,
    qp_bruteforce,
    qp_diagnostics_eager,
    random_qp,
    safeguard,
)
from polysafe.cbf import build, eval_B
from polysafe.errors import (
    Infeasible,
    NonFinite,
    NumericalBreakdown,
    ParameterViolation,
    PolysafeError,
)
from polysafe.inputs import Box, Unbounded
from polysafe.plant import double_integrator
from polysafe.polytope import compute_cert, slab_spec
from polysafe.qp import (
    DT,
    QpProblem,
    QpWeights,
    SafeguardAssembler,
    solve_qp,
)
from polysafe.sim import Scenario, rk4_step, simulate


# --- core solver --------------------------------------------------------------

def test_unconstrained_minimum():
    P = np.diag([2.0, 4.0])
    c = np.array([-2.0, -4.0])
    sol = solve_qp(QpProblem(P=P, c=c, G=np.zeros((0, 2)), h=np.zeros(0)))
    np.testing.assert_allclose(sol.z, [1.0, 1.0], atol=1e-10)


def test_projection_onto_halfplane():
    # min ||z - (2, 0)||^2 s.t. z_1 <= 1 -> (1, 0)
    sol = solve_qp(QpProblem(P=2 * np.eye(2), c=np.array([-4.0, 0.0]),
                             G=np.array([[1.0, 0.0]]), h=np.array([1.0])))
    np.testing.assert_allclose(sol.z, [1.0, 0.0], atol=1e-9)
    assert sol.active == (0,)
    assert sol.lam[0] > 0


def test_infeasible_detected(monkeypatch):
    import polysafe.qp

    lp_calls = []
    lp_solve = polysafe.qp.lp_solve
    monkeypatch.setattr(polysafe.qp, "lp_solve",
                        lambda p: lp_calls.append(p) or lp_solve(p))
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])  # z <= -1 and z >= 1
    sol = solve_qp(QpProblem(P=np.array([[2.0]]), c=np.zeros(1), G=G, h=h))
    assert sol.status == "infeasible"
    # one phase-1 LP decides infeasibility and its dual is the certificate
    assert len(lp_calls) == 1
    y = sol.farkas
    assert (y >= 0.0).all()
    assert np.abs(y @ G).max() <= 1e-9
    assert y @ h < 0.0


def test_zero_row_decides_feasibility_alone():
    # a row 0 z <= b holds everywhere or nowhere: with b < 0 the set is empty
    # and the certificate must still come out; with b >= 0 the row is idle
    G = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    P, c = np.diag([2.0, 2.0]), np.array([-6.0, -1.0])
    sol = solve_qp(QpProblem(P=P, c=c, G=G, h=np.array([1.0, -1.0, 1.0])))
    assert sol.status == "infeasible"
    y = sol.farkas
    assert y is not None and (y >= 0.0).all()
    assert np.abs(y @ G).max() <= 1e-9
    assert y @ np.array([1.0, -1.0, 1.0]) < 0.0
    sol = solve_qp(QpProblem(P=P, c=c, G=G, h=np.array([1.0, 1.0, 1.0])))
    ref = solve_qp(QpProblem(P=P, c=c, G=G[[0, 2]], h=np.array([1.0, 1.0])))
    assert sol.optimal and ref.optimal
    np.testing.assert_allclose(sol.z, ref.z, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.z, [1.0, 0.5], rtol=0, atol=1e-12)


def test_not_positive_definite_rejected():
    with pytest.raises(PolysafeError, match="cost matrix is not symmetric") as info:
        QpProblem(P=np.array([[1.0, 2.0], [0.0, 1.0]]), c=np.zeros(2),
                  G=np.zeros((0, 2)), h=np.zeros(0))
    assert info.type is PolysafeError
    with pytest.raises(PolysafeError, match="cost matrix failed Cholesky") as info:
        QpProblem(P=np.array([[0.0]]), c=np.zeros(1),
                  G=np.zeros((0, 1)), h=np.zeros(0))
    assert info.type is PolysafeError
    # Cholesky refuses a zero or negative diagonal entry
    for diag in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0]):
        with pytest.raises(PolysafeError, match="cost matrix failed Cholesky") as info:
            QpProblem(P=np.diag(diag), c=np.zeros(3),
                      G=np.zeros((0, 3)), h=np.zeros(0))
        assert info.type is PolysafeError


def test_matches_bruteforce_on_500_random_instances():
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(500):
        P, c, G, h = random_qp(rng)
        sol = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
        ref = qp_bruteforce(P, c, G, h)
        assert sol.optimal and ref is not None
        assert sol.objective == pytest.approx(ref[1], abs=1e-6)
        np.testing.assert_allclose(sol.z, ref[0], atol=1e-5)
        assert sol.residuals["stationarity"] <= 1e-8
        assert sol.residuals["primal"] <= 1e-8
        assert sol.residuals["complementarity"] <= 1e-8


def test_residuals_and_objective_are_computed_on_read():
    # on criterion 4's instances the values read equal the formulas once
    # evaluated on every solve, bit for bit; a second read is the cached one
    rng = np.random.Generator(np.random.Philox(4))
    for _ in range(500):
        p = QpProblem(*random_qp(rng))
        sol = solve_qp(p)
        objective, residuals = qp_diagnostics_eager(p, sol.z, sol.lam)
        assert sol.residuals == residuals
        assert sol.objective == objective
        assert sol.residuals is sol.residuals and sol.objective is sol.objective
    sol = solve_qp(QpProblem(P=np.array([[2.0]]), c=np.zeros(1),
                             G=np.array([[1.0], [-1.0]]), h=np.array([-1.0, -1.0])))
    assert sol.status == "infeasible"
    assert sol.residuals == {} and sol.objective is None


def test_repeated_blocking_rows_match_bruteforce():
    # copies of an active row, exact or positively scaled, are dependent on
    # it; only the lowest-index copy may enter the working set
    rng = np.random.Generator(np.random.Philox(7))
    checked = 0
    while checked < 100:
        P, c, G, h = random_qp(rng)
        base = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
        if not base.active:
            continue
        r = base.active[int(rng.integers(len(base.active)))]
        scale = float(rng.uniform(0.5, 3.0))
        copies = [(G[r], h[r]), (scale * G[r], scale * h[r])]
        rows = list(zip(G, h))
        for copy in copies:
            rows.insert(int(rng.integers(len(rows) + 1)), copy)
        G2 = np.array([g for g, _ in rows])
        h2 = np.array([b for _, b in rows])
        # the rows (g, b) that are positive multiples of (G[r], h[r])
        group = [i for i, (g, b) in enumerate(rows) if g @ G[r] > 0 and
                 np.linalg.matrix_rank([np.r_[g, b], np.r_[G[r], h[r]]],
                                       tol=1e-10) == 1]
        sol = solve_qp(QpProblem(P=P, c=c, G=G2, h=h2))
        ref = qp_bruteforce(P, c, G2, h2)
        assert sol.optimal and ref is not None
        np.testing.assert_allclose(sol.z, ref[0], atol=1e-5)
        assert sol.objective == pytest.approx(ref[1], abs=1e-6)
        assert [i for i in sol.active if i in group] == [min(group)]
        checked += 1


@pytest.mark.parametrize("scale", [1e5, 1e6])
def test_scaled_instances_converge(scale):
    # scaling c and h scales the optimizer; the stationarity test must
    # scale with the iterate, or round-off in the step never falls below it
    rng = np.random.Generator(np.random.Philox(99))
    for _ in range(200):
        P, c, G, h = random_qp(rng)
        ref = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
        sol = solve_qp(QpProblem(P=P, c=scale * c, G=G, h=scale * h))
        assert sol.optimal
        np.testing.assert_allclose(sol.z / scale, ref.z, rtol=0, atol=1e-10)


def test_any_strictly_feasible_start_gives_the_same_optimum():
    # criterion 4's instances, each solved from its phase-1 point and from
    # random points strictly inside the feasible set
    rng = np.random.Generator(np.random.Philox(4))
    hints = np.random.Generator(np.random.Philox(41))
    for _ in range(500):
        P, c, G, h = random_qp(rng)
        prob = QpProblem(P=P, c=c, G=G, h=h)
        lp_started = solve_qp(prob)
        ref = qp_bruteforce(P, c, G, h)
        assert lp_started.optimal and ref is not None
        np.testing.assert_allclose(lp_started.z, ref[0], rtol=0, atol=1e-9)
        z0 = lp_started.start
        assert (G @ z0 < h).all()  # random_qp's sets have an interior
        for _ in range(3):
            d = hints.normal(size=z0.size)
            gd = G @ d
            room = np.min((h - G @ z0)[gd > 0] / gd[gd > 0], initial=10.0)
            hint = z0 + hints.uniform(0.0, 1.0) * room * d
            sol = solve_qp(prob, start=hint)
            np.testing.assert_array_equal(sol.start, hint)  # accepted as is
            np.testing.assert_allclose(sol.z, lp_started.z, rtol=0, atol=1e-9)
            np.testing.assert_allclose(sol.z, ref[0], rtol=0, atol=1e-9)


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                   reason="no rank test on the entering row: the solve cycles "
                          "between working sets {0, 1} and {0, 1, 3}")
def test_nearly_dependent_rows_terminate():
    # a feasible, strictly convex QP whose row 3 enters 1e-10 rad from row
    # 1's span; the 3-row KKT matrix then has condition number about 2e17,
    # its multipliers read [2, 1, -1] for about [2, 6e10, 6e10], row 3 is
    # dropped, and the next step is blocked by it at length 0
    P, c = 2.0 * np.eye(3), np.zeros(3)
    G = np.array([[-1.0, 0.0, 0.0], [0.0, -1.0, -1e-10], [-0.5, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, 0.0, -0.5], [0.5, -1.0, 0.5]])
    h = np.array([-1.0000000002979998, -1.0000000002979998, 1.0, 1.0, 1.0, 1.0])
    ref = qp_bruteforce(P, c, G, h)
    assert ref is not None
    sol = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
    assert sol.optimal
    np.testing.assert_allclose(sol.z, ref[0], rtol=0, atol=1e-6)


def test_deterministic_resolve():
    rng = np.random.Generator(np.random.Philox(5))
    P, c, G, h = random_qp(rng)
    a = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
    b = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
    assert (a.z == b.z).all()
    assert a.active == b.active


# --- weights ------------------------------------------------------------------

def test_weights_validation():
    with pytest.raises(ValueError):
        QpWeights(q_alpha=0.0)
    with pytest.raises(ValueError):
        QpWeights(c_M=-1.0)


def test_weights_matrix_Q():
    w = QpWeights(Q=np.diag([2.0, 3.0]))
    np.testing.assert_allclose(w.Q, np.diag([2.0, 3.0]))
    assert QpWeights().Q == "identity"


@pytest.mark.parametrize("Q", [[[1.0]], np.eye(3)], ids=["1x1", "3x3"])
def test_Q_of_the_wrong_size_is_rejected(hexagon_cbf, arm, Q):
    # a 1 x 1 Q would broadcast into a singular 2 x 2 input block
    with pytest.raises(ValueError, match="m = 2"):
        SafeguardAssembler(hexagon_cbf, arm, QpWeights(Q=Q), Unbounded())


# --- safeguarding filter ------------------------------------------------------

@pytest.fixture(scope="module")
def slab_cbf():
    spec = slab_spec()
    cert = compute_cert(spec, overrides=np.zeros(1))
    return build(spec, cert, 1.0, 0.5)


@pytest.fixture(scope="module")
def slab_weights():
    return QpWeights(c_alpha=1.0, q_alpha=1e4)


def test_interior_passthrough(slab_cbf, slab_weights):
    # deep inside the safe set any modest command is returned unchanged
    plant = double_integrator(1)
    res = safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                    x=np.array([0.0, 0.0]), u_nom=np.array([0.3]))
    assert res.fast_path
    assert res.u_star[0] == pytest.approx(0.3, abs=1e-12)
    assert res.alpha_star == slab_weights.c_alpha
    assert res.M_star == slab_weights.c_M


def test_boundary_clamps_outward_push(slab_cbf, slab_weights):
    # on the extended boundary (right face, inward-retracting velocity)
    # the binding row reads -u + gamma * |x2| >= 0 in continuous time; over
    # the held step, exact on the double integrator, it reads
    # -(1 + dt/2) u + gamma * |x2| >= 0, so u <= 0.5 / (1 + dt/2) here
    plant = double_integrator(1)
    x = np.array([1.0, -0.5])
    res = safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                    x=x, u_nom=np.array([5.0]))
    assert not res.fast_path
    assert res.u_star[0] == pytest.approx(0.5 / (1.0 + DT / 2), abs=1e-8)
    assert (res.margins >= -1e-8).all()


def test_safe_command_is_never_worsened(slab_cbf, slab_weights):
    # filtering the filter's own output changes nothing when it was safe
    plant = double_integrator(1)
    x = np.array([0.5, 0.0])
    res1 = safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                     x=x, u_nom=np.array([2.0]))
    res2 = safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                     x=x, u_nom=res1.u_star)
    assert res2.u_star[0] == pytest.approx(res1.u_star[0], abs=1e-8)


def test_held_step_rows_bound_B_at_the_next_sample(slab_cbf, slab_weights):
    # on the double integrator RK4 is exact for a held input and the step
    # is affine in u, so the held-step rows hold exactly over the step:
    # B(x+) >= (1 - alpha* dt) B(x) to round-off, at a dt large enough for
    # the continuous-time clamp to let the same step leave the safe set
    plant = double_integrator(1)
    dt = 0.05
    asm = SafeguardAssembler(slab_cbf, plant, slab_weights, Unbounded(), dt=dt)
    states = [np.array([1.0, -0.5]), np.array([0.2, 0.3]),
              np.array([0.15, 0.3]), np.array([-0.5, 0.0])]
    for x in states:
        for u_nom in (5.0, -5.0):
            res = asm.solve(x, u_nom=np.array([u_nom]))
            B0 = eval_B(slab_cbf, x).value
            B1 = eval_B(slab_cbf, rk4_step(plant, res.u_star, x, dt)).value
            assert B1 >= (1.0 - res.alpha_star * dt) * B0 - 1e-12
    x = states[0]
    held = asm.solve(x, u_nom=np.array([5.0]))
    assert not held.fast_path
    # the continuous-time clamp u = gamma |x2| of test_boundary_clamps_outward_push
    u_instant = np.array([slab_cbf.gamma * abs(x[1])])
    assert eval_B(slab_cbf, rk4_step(plant, u_instant, x, dt)).value < -1e-4


def test_held_step_keeps_alpha_dt_at_most_one(slab_cbf):
    # B(x+) >= (1 - alpha* dt) B(x) protects B only while alpha* dt <= 1.
    # From B = 0.05 with u_nom = 50 at dt = 0.05, c_alpha = 30 forces
    # alpha* dt >= 1.5 (one step lands at B = -0.025), so it is rejected;
    # a cheap alpha (q_alpha = 1e-2, alpha* = 195 without the cap) stops
    # at 1/dt and the step ends on B >= 0
    plant = double_integrator(1)
    dt = 0.05
    x = np.array([0.95, -0.5])
    with pytest.raises(ParameterViolation):
        SafeguardAssembler(slab_cbf, plant, QpWeights(c_alpha=30.0), Unbounded(),
                           dt=dt)
    asm = SafeguardAssembler(slab_cbf, plant, QpWeights(c_alpha=1.0, q_alpha=1e-2),
                             Unbounded(), dt=dt)
    res = asm.solve(x, u_nom=np.array([50.0]))
    assert eval_B(slab_cbf, x).value == pytest.approx(0.05, abs=1e-12)
    assert res.alpha_star <= 1.0 / dt + 1e-9
    assert eval_B(slab_cbf, rk4_step(plant, res.u_star, x, dt)).value >= -1e-12


def test_held_step_model_matches_rk4_to_second_order(hexagon_cbf, arm):
    # the QP's affine model of the held step, against forward differences
    # of the RK4 step itself: with the dt^2 terms in the input sensitivity
    # its error falls 100-fold when dt falls 10-fold (10-fold without them)
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(5):
        x = np.concatenate([rng.uniform(-1.0, 1.0, 2), rng.uniform(-8.0, 8.0, 2)])
        u = rng.uniform(-100.0, 100.0, 2)
        errors = []
        for dt in (1e-3, 1e-4):
            asm = SafeguardAssembler(hexagon_cbf, arm, QpWeights(), Unbounded(),
                                     dt=dt)
            x_lin = rk4_step(arm, u, x, dt)
            d, S = asm._held_rate(x, u)
            np.testing.assert_allclose(d + S @ u, (x_lin - x) / dt, rtol=0,
                                       atol=1e-9)
            fd = np.column_stack([(rk4_step(arm, u + e, x, dt) - x_lin) / dt
                                  for e in np.eye(2)])
            errors.append(np.abs(S - fd).max())
        assert errors[1] <= errors[0] / 50


def test_far_outside_raises(slab_cbf, slab_weights):
    plant = double_integrator(1)
    with pytest.raises(Infeasible):
        safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                  x=np.array([3.0, 0.0]), u_nom=np.array([0.0]))


def test_input_box_respected(slab_cbf, slab_weights):
    plant = double_integrator(1)
    box = Box(np.array([0.5]))
    res = safeguard(slab_cbf, plant, slab_weights, box,
                    x=np.array([0.0, 0.0]), u_nom=np.array([5.0]))
    assert not res.fast_path  # the box rejects u_nom
    assert abs(res.u_star[0]) <= 0.5 + 1e-9


@pytest.mark.parametrize("bad", [
    pytest.param(np.nan, id="nan-held"), pytest.param(np.inf, id="inf-held")])
def test_nonfinite_nominal_input_raises_nonfinite(hexagon_cbf, arm, bad):
    # rejected before any arithmetic: no warning, and no plant call on it
    asm = SafeguardAssembler(hexagon_cbf, arm, QpWeights(), Unbounded())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            asm.solve(np.zeros(4), u_nom=np.array([bad, 0.0]))


def test_nominal_input_of_the_wrong_size_raises(hexagon_cbf, arm):
    # at rest in the hexagon a zero input takes the fast step and a large
    # one the QP step; with one entry too few or too many neither is taken
    x = np.zeros(4)
    for u, fast in (([0.0, 0.0], True), ([1e4, 1e4], False)):
        assert safeguard(hexagon_cbf, arm, QpWeights(), Unbounded(), x=x,
                         u_nom=np.array(u)).fast_path is fast
        for bad in (u[:1], u + [0.0]):
            with pytest.raises(ValueError, match="m = 2"):
                safeguard(hexagon_cbf, arm, QpWeights(), Unbounded(), x=x,
                          u_nom=np.array(bad))
    # in nominal mode, with no filter, simulate checks the size itself
    for mode in ("safeguarded", "nominal"):
        for bad in ([0.0], [0.0, 0.0, 0.0]):
            sc = Scenario(cbf=hexagon_cbf, plant=arm, mode=mode, x0=x,
                          t_final=0.01, nominal=lambda t, x, u=np.array(bad): u,
                          input_set=Unbounded())
            with pytest.raises(ValueError, match="m = 2"):
                simulate(sc)


@pytest.mark.parametrize("field", ["G2", "f2", "accel"])
def test_nonfinite_plant_on_the_qp_step_raises_nonfinite(hexagon_cbf, arm, field):
    # the filter reads the plant only through rk4_step: through accel when
    # the plant has one, else through f2 and G2.  The NaN fails the fast
    # step and reaches the QP's rows through the held step's secant; the
    # assembler checks c, G and h
    nan = {"G2": lambda x1: np.full((2, 2), np.nan),
           "f2": lambda x1, x2: np.full(2, np.nan),
           "accel": lambda x1, x2, u: [np.nan, np.nan]}[field]
    plant = dataclasses.replace(arm, **{"accel": None, field: nan})
    asm = SafeguardAssembler(hexagon_cbf, plant, QpWeights(), Unbounded())
    with pytest.raises(NonFinite, match="non-finite entries in the QP data"):
        asm.solve(np.zeros(4), u_nom=np.array([1e4, 1e4]))


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -1e-3])
def test_period_must_be_positive_and_finite(hexagon_cbf, arm, dt):
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        SafeguardAssembler(hexagon_cbf, arm, QpWeights(), Unbounded(), dt=dt)


def test_arm_fast_path_at_start(hexagon_cbf, arm, arm_nominal):
    x0 = np.zeros(4)
    u_nom = arm_nominal(0.0, x0)
    res = safeguard(hexagon_cbf, arm, QpWeights(), Unbounded(),
                    x=x0, u_nom=u_nom)
    assert res.fast_path
    np.testing.assert_allclose(res.u_star, u_nom)
    assert (res.margins >= 0.0).all()


@pytest.fixture(scope="module")
def phase1_loops(hexagon, hexagon_cert, arm, arm_nominal):
    """The drift gate's 2 s loops: per gamma, the log, the phase-1 LP count
    and the (G, h) of every filter QP."""
    from polysafe import qp as pqp
    from polysafe.sim import Scenario, simulate

    runs = {}
    for gamma, epsilon in ((0.1, 0.1 * hexagon_cert.delta / 2), (10.0, 0.1)):
        calls, qps = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pqp, "lp_solve", lambda p, f=pqp.lp_solve: calls.append(p) or f(p))
            mp.setattr(pqp, "solve_qp", lambda p, start=None, f=pqp.solve_qp:
                       qps.append((p.G, p.h)) or f(p, start=start))
            log = simulate(Scenario(cbf=build(hexagon, hexagon_cert, gamma, epsilon),
                                    plant=arm, mode="safeguarded", x0=np.zeros(4),
                                    t_final=2.0, dt=1e-3, nominal=arm_nominal,
                                    input_set=Unbounded()))
        runs[gamma] = log, len(calls), qps
    return runs


def test_worst_held_step_miss_on_the_drift_loops(phase1_loops):
    # each QP step's rows bound B over the held step, linearized in u at the
    # last step's input, so B(x_{k+1}) >= (1 - alpha_k dt) B(x_k) holds up
    # to the model's error at u*.  With S the step's own secant the worst
    # miss reads -2.5e-12 (gamma = 0.1) and +8.1e-15 (gamma = 10); a dt^2
    # series for S misses by -1.96e-10 and -2.46e-10
    for gamma in (0.1, 10.0):
        log = phase1_loops[gamma][0]
        k = np.flatnonzero(np.array(log.status[:-1]) == "optimal")
        miss = log.B[k + 1] - (1.0 - log.alpha[k] * 1e-3) * log.B[k]
        assert miss.min() >= -2e-11, (gamma, miss.min())


def test_phase1_lp_runs_on_few_filter_steps(phase1_loops):
    # each QP step starts from the last one's start point; the phase-1 LP's
    # point is the rows' Chebyshev center (up to 480 from every row), so
    # the rows' O(dt) motion rarely leaves it infeasible and only a lost
    # hint costs an LP: 6 of 1,931 QP steps at gamma = 0.1 and 1 of 296 at
    # 10, where a slack blind to row norms ran 9 and 12
    for gamma, min_steps in ((0.1, 1500), (10.0, 250)):
        log, lp_calls, _ = phase1_loops[gamma]
        qp_steps = log.status.count("optimal")
        assert qp_steps > min_steps
        # the run's first QP step has no hint
        assert 1 <= lp_calls <= qp_steps / 100, (gamma, lp_calls, qp_steps)


def test_phase1_slack_cap_never_binds_on_the_held_filter(monkeypatch, phase1_loops):
    # h holds 1/dt, and the unit rows alpha >= c_alpha, alpha <= 1/dt bound
    # the distance t from the rows by (1/dt - c_alpha) / 2, below the cap
    from polysafe import qp as pqp

    problems = []
    monkeypatch.setattr(pqp, "lp_solve",
                        lambda p, f=pqp.lp_solve: problems.append(p) or f(p))
    log, _, qps = phase1_loops[0.1]
    assert len(qps) == log.status.count("optimal")
    bound = (1e3 - QpWeights().c_alpha) / 2
    for G, h in qps:
        _, lp = pqp._feasible_start(G, h, np.linalg.norm(G, axis=1), None)
        t, cap = lp.x[-1], -problems[-1].b[-1]  # the row -t >= -cap
        assert 0.0 < t <= bound + 1e-9 < cap


def test_filter_qps_own_their_rows(phase1_loops):
    # each QP step writes its rows into fresh arrays; one buffer reused
    # across steps would turn every recorded (G, h) into the last step's,
    # and the tests above would check one problem many times over
    for gamma in (0.1, 10.0):
        _, _, qps = phase1_loops[gamma]
        for arrays in zip(*qps):  # every G, then every h
            assert all(a.flags.c_contiguous for a in arrays)
            assert not any(np.shares_memory(a, b) for a, b in zip(arrays, arrays[1:]))
            # contiguous blocks, so sorted extents that never overlap mean
            # no two arrays share a byte
            spans = sorted((a.ctypes.data, a.ctypes.data + a.nbytes) for a in arrays)
            assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


@pytest.mark.parametrize("scale", [10.0, 1e5])
def test_phase1_point_scales_with_the_problem(scale):
    # with max |h| >= 1 the slack cap max(1, max |h|) scales with h, so
    # scaling (c, h) scales the phase-1 point; criterion 4's instances
    rng = np.random.Generator(np.random.Philox(4))
    checked = 0
    for _ in range(500):
        P, c, G, h = random_qp(rng)
        if np.abs(h).max() < 1.0:
            continue
        ref = solve_qp(QpProblem(P=P, c=c, G=G, h=h))
        sol = solve_qp(QpProblem(P=P, c=scale * c, G=G, h=scale * h))
        # to round-off on the problem's own scale (6e-15 of max |h| seen)
        np.testing.assert_allclose(sol.start / scale, ref.start, rtol=0,
                                   atol=1e-12 * np.abs(h).max())
        checked += 1
    assert checked > 350  # 401 of the 500


def test_phase1_radius_ignores_row_scaling():
    # the phase-1 t is the radius of the largest ball inside the rows, so
    # scaling a row (g_i, h_i) by s_i > 0 leaves t as it is, and the point
    # is at least t from every row; criterion 4's instances
    from polysafe import qp as pqp

    def phase1(G, h):
        z, lp = pqp._feasible_start(G, h, np.linalg.norm(G, axis=1), None)
        t = lp.x[-1]
        return z, t, t < max(1.0, np.abs(h).max()) - 1e-9  # the cap is idle

    rng = np.random.Generator(np.random.Philox(4))
    scales = np.random.Generator(np.random.Philox(43))
    checked = 0
    for _ in range(500):
        _, _, G, h = random_qp(rng)
        s = 10.0 ** scales.uniform(-3.0, 3.0, size=h.size)
        _, t, free = phase1(G, h)
        z, t_scaled, free_scaled = phase1(s[:, None] * G, s * h)
        if not (free and free_scaled):
            continue
        assert t_scaled == pytest.approx(t, rel=1e-9, abs=0)
        slack = (h - G @ z) / np.linalg.norm(G, axis=1)
        assert slack.min() >= t - 1e-9
        checked += 1
    assert checked > 150  # 194 of the 500


def test_margins_nonnegative_along_safeguarded_run(safeguarded_log,
                                                   hexagon_cbf, arm):
    asm = SafeguardAssembler(hexagon_cbf, arm, QpWeights(), Unbounded())
    rng = np.random.Generator(np.random.Philox(17))
    for k in rng.integers(0, len(safeguarded_log), size=25):
        x = safeguarded_log.x[k]
        if eval_B(hexagon_cbf, x).value < -0.05:
            continue  # outside the filter's feasibility neighborhood
        res = asm.solve(x, u_nom=safeguarded_log.u[k])
        assert (res.margins >= -1e-7).all()


def test_continuity_probe_finite(slab_cbf, slab_weights):
    plant = double_integrator(1)
    path = [np.array([0.3 + 0.001 * k, 0.1]) for k in range(20)]
    rate = continuity_probe(slab_cbf, plant, slab_weights, Unbounded(), path,
                            u_nom_fn=lambda x: np.array([2.0]))
    assert np.isfinite(rate)
