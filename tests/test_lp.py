"""LP solver: hand examples, scipy cross-check, duality certificates."""

import numpy as np
import pytest
from scipy.optimize import linprog

from polysafe.lp import LpProblem, lp_feasible_point, lp_solve


def test_scalar_interval():
    # max x s.t. x <= 1, x >= -3
    sol = lp_solve(LpProblem(c=np.array([1.0]),
                             A=np.array([[-1.0], [1.0]]),
                             b=np.array([-1.0, -3.0])))
    assert sol.optimal
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_known_vertex():
    # max x + 2y s.t. 0 <= x <= 1, 0 <= y <= 2 -> (1, 2), objective 5
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([0.0, -1.0, 0.0, -2.0])
    sol = lp_solve(LpProblem(c=np.array([1.0, 2.0]), A=A, b=b))
    assert sol.optimal
    assert sol.objective == pytest.approx(5.0, abs=1e-9)
    np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_hexagon_face_optimum(hexagon):
    # max x + y over the hexagon; the optimum lies on the face x + y = pi,
    # so only the objective value is pinned
    sol = lp_solve(LpProblem(c=np.array([1.0, 1.0]), A=hexagon.A,
                             b=-hexagon.offsets))
    assert sol.optimal
    assert sol.objective == pytest.approx(np.pi, abs=1e-9)


def test_infeasible():
    # x >= 1 and x <= 0
    sol = lp_solve(LpProblem(c=np.array([1.0]),
                             A=np.array([[1.0], [-1.0]]),
                             b=np.array([1.0, 0.0])))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_unbounded_with_ray():
    sol = lp_solve(LpProblem(c=np.array([1.0]), A=np.array([[1.0]]),
                             b=np.array([0.0])))
    assert sol.status == "unbounded"
    assert sol.ray is not None
    assert sol.ray[0] > 0  # improving recession direction


def test_degenerate_redundant_rows_terminate():
    # the same facet stacked five times forces degenerate pivots
    A = np.vstack([[-1.0, 0.0]] * 5 + [[0.0, -1.0], [1.0, 1.0]])
    b = np.array([-1.0] * 5 + [-1.0, 0.0])
    sol = lp_solve(LpProblem(c=np.array([1.0, 1.0]), A=A, b=b))
    assert sol.optimal
    assert sol.objective == pytest.approx(2.0, abs=1e-8)


def test_feasible_point_helper():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([2.0, 3.0])
    x = lp_feasible_point(A, b)
    assert x is not None
    assert (A @ x >= b - 1e-9).all()
    assert lp_feasible_point(np.array([[1.0], [-1.0]]),
                             np.array([1.0, 0.0])) is None


def _random_problem(rng):
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 9))
    A = rng.normal(size=(k, n))
    if rng.random() < 0.5:
        b = A @ rng.normal(size=n) - rng.uniform(0.0, 1.0, size=k)
    else:
        b = rng.normal(size=k)
    if rng.random() < 0.7:
        # box rows keep most instances bounded
        A = np.vstack([A, np.eye(n), -np.eye(n)])
        b = np.concatenate([b, -10.0 * np.ones(2 * n)])
    return LpProblem(c=rng.normal(size=A.shape[1]), A=A, b=b)


def test_matches_scipy_on_200_random_problems():
    rng = np.random.Generator(np.random.Philox(2024))
    agreed = 0
    for _ in range(200):
        p = _random_problem(rng)
        ours = lp_solve(p)
        ref = linprog(-p.c, A_ub=-p.A, b_ub=-p.b,
                      bounds=[(None, None)] * p.A.shape[1], method="highs")
        if ours.optimal:
            assert ref.status == 0
            assert ours.objective == pytest.approx(-ref.fun, abs=1e-7)
        elif ours.status == "infeasible":
            assert ref.status == 2
        else:
            assert ref.status == 3
        agreed += 1
    assert agreed == 200


@pytest.mark.parametrize("box", [False, True], ids=["free", "box"])
@pytest.mark.parametrize("deficiency", ["unseen", "duplicate"])
def test_rank_deficient_matches_scipy(deficiency, box):
    # a variable no row sees, or a column repeated under a second variable:
    # A has a null direction, so the solve has a redundant equation; with a
    # tied cost the LP stays bounded, otherwise it is unbounded along it
    rng = np.random.Generator(np.random.Philox(11))
    statuses = set()
    for _ in range(50):
        n = int(rng.integers(2, 5))
        A = rng.normal(size=(int(rng.integers(1, 9)), n))
        if box:
            A = np.vstack([A, np.eye(n), -np.eye(n)])
        c = rng.normal(size=n)
        j, k = rng.choice(n, size=2, replace=False)
        A[:, j] = 0.0 if deficiency == "unseen" else A[:, k]
        if rng.random() < 0.5:
            c[j] = 0.0 if deficiency == "unseen" else c[k]
        b = A @ rng.normal(size=n) - rng.uniform(0.1, 1.0, size=A.shape[0])
        p = LpProblem(c=c, A=A, b=b)
        ours = lp_solve(p)
        ref = linprog(-c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * n,
                      method="highs")
        assert ours.status == {0: "optimal", 2: "infeasible",
                               3: "unbounded"}[ref.status]
        if ours.optimal:
            assert ours.objective == pytest.approx(-ref.fun, abs=1e-7)
        statuses.add(ours.status)
    assert statuses == {"optimal", "unbounded"}


def test_dual_certificate_on_random_optima():
    rng = np.random.Generator(np.random.Philox(7))
    seen = 0
    while seen < 50:
        p = _random_problem(rng)
        sol = lp_solve(p)
        if not sol.optimal:
            continue
        seen += 1
        mu = sol.dual
        assert (mu >= -1e-9).all()
        assert np.abs(p.c + p.A.T @ mu).max() <= 1e-7
        assert np.abs(mu * (p.A @ sol.x - p.b)).max() <= 1e-6
        assert -p.b @ mu == pytest.approx(sol.objective, abs=1e-7)
