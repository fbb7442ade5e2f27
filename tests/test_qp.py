"""QP solver oracle equivalence and safeguarding controller behavior."""

import numpy as np
import pytest

from _oracles import continuity_probe, qp_bruteforce, random_qp, safeguard
from polysafe.cbf import build, eval_B
from polysafe.errors import (
    Infeasible,
    NonFinite,
    NotPositiveDefinite,
    ParameterViolation,
)
from polysafe.inputs import Box, Unbounded
from polysafe.plant import double_integrator
from polysafe.polytope import compute_cert, slab_spec
from polysafe.qp import (
    QpProblem,
    QpWeights,
    SafeguardAssembler,
    solve_qp,
)
from polysafe.sim import rk4_step


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


def test_not_positive_definite_rejected():
    with pytest.raises(NotPositiveDefinite):
        QpProblem(P=np.array([[1.0, 2.0], [0.0, 1.0]]), c=np.zeros(2),
                  G=np.zeros((0, 2)), h=np.zeros(0))
    with pytest.raises(NotPositiveDefinite):
        QpProblem(P=np.array([[0.0]]), c=np.zeros(1),
                  G=np.zeros((0, 1)), h=np.zeros(0))
    # a diagonal P skips the factorization only with a positive diagonal
    for diag in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0]):
        with pytest.raises(NotPositiveDefinite):
            QpProblem(P=np.diag(diag), c=np.zeros(3),
                      G=np.zeros((0, 3)), h=np.zeros(0))


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
    # the binding row reads -u + gamma * |x2| >= 0, so u <= 0.5 here
    plant = double_integrator(1)
    x = np.array([1.0, -0.5])
    res = safeguard(slab_cbf, plant, slab_weights, Unbounded(),
                    x=x, u_nom=np.array([5.0]))
    assert not res.fast_path
    assert res.u_star[0] == pytest.approx(0.5, abs=1e-8)
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
    # the instantaneous rows to let the same step leave the safe set
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
    instant = safeguard(slab_cbf, plant, slab_weights, Unbounded(), x=x,
                        u_nom=np.array([5.0]))
    assert not held.fast_path
    assert eval_B(slab_cbf, rk4_step(plant, instant.u_star, x, dt)).value < -1e-4


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_nominal_input_raises_nonfinite(hexagon_cbf, arm, bad):
    asm = SafeguardAssembler(hexagon_cbf, arm, QpWeights(), Unbounded())
    with pytest.raises(NonFinite):
        asm.solve(np.zeros(4), u_nom=np.array([bad, 0.0]))


def test_arm_fast_path_at_start(hexagon_cbf, arm, arm_nominal):
    x0 = np.zeros(4)
    u_nom = arm_nominal(0.0, x0)
    res = safeguard(hexagon_cbf, arm, QpWeights(), Unbounded(),
                    x=x0, u_nom=u_nom)
    assert res.fast_path
    np.testing.assert_allclose(res.u_star, u_nom)
    assert (res.margins >= 0.0).all()


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
