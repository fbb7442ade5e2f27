"""LP solver: hand examples, scipy cross-check, duality certificates."""

import numpy as np
import pytest
from scipy.optimize import linprog

from polysafe import lp as lp_module
from polysafe.errors import NumericalBreakdown
from polysafe.lp import LpProblem, lp_feasible_point, lp_solve
from polysafe.polytope import HalfSpace, SafetySpec, enumerate_s_cap


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


def test_infeasible_primal_with_infeasible_dual():
    # max x1 + x2 s.t. x1 - x2 >= 1 and x2 - x1 >= 1: the dual
    # mu1 - mu2 = -1, mu2 - mu1 = -1 is infeasible too, so phase 1 fails
    # and the feasibility LP tells an empty primal from an unbounded one
    A, b, c = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([1.0, 1.0]), np.ones(2)
    sol = lp_solve(LpProblem(c=c, A=A, b=b))
    assert sol.status == "infeasible"
    assert sol.x is None
    ref = linprog(-c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * 2, method="highs")
    assert ref.status == 2   # scipy: infeasible


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


def _beale_tableau():
    """Beale's cycling example (Naval Res. Logist. Q. 2, 1955) in equality
    form with slack basis {0, 1, 2}: min -3/4 x3 + 150 x4 - 1/50 x5 + 6 x6."""
    As = np.hstack([np.eye(3), [[0.25, -60.0, -1 / 25, 9.0],
                                [0.5, -90.0, -1 / 50, 3.0],
                                [0.0, 0.0, 1.0, 0.0]]])
    cs = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1 / 50, 6.0])
    return lp_module._Tableau(As, np.array([0.0, 0.0, 1.0]), cs, basis=[0, 1, 2])


def test_bland_switch_ends_beale_cycle(monkeypatch):
    # the most-negative entering rule cycles on Beale's example; the switch
    # to Bland's rule after a run of degenerate pivots must end it
    t = _beale_tableau()
    status, xB, _ = lp_module._simplex_core(t, lp_module.OPT_TOL)
    assert status == "optimal"
    assert t.cs[t.basis] @ xB == pytest.approx(-1 / 20, abs=1e-12)
    monkeypatch.setattr(lp_module, "_BLAND_AFTER", lp_module._MAX_ITER)
    with pytest.raises(NumericalBreakdown, match="iteration limit"):
        lp_module._simplex_core(_beale_tableau(), lp_module.OPT_TOL)


@pytest.mark.parametrize("gap", [0.0, 5e-13])
def test_ratio_tie_leaves_the_smallest_basis_index(gap):
    # column 0 enters, and both rows block it at ratio 1 (row 1 up to a gap
    # inside the 1e-12 tie window); row 1 holds basis index 2 < 3, so it
    # leaves although row 0 comes first: Bland's tie-break
    As = np.array([[1.0, 1.0, 0.0, 1.0],
                   [1.0, 0.0, 1.0, 0.0]])
    t = lp_module._Tableau(As, np.array([1.0, 1.0 + gap]),
                           np.array([-1.0, 1.0, 0.0, 0.0]), basis=[3, 2])
    status, _, _ = lp_module._simplex_core(t, lp_module.OPT_TOL)
    assert status == "optimal"
    assert t.basis == [3, 0]


def test_entering_column_without_a_pivot_above_tolerance_is_unbounded():
    # column 0 improves, and its one positive entry is PIVOT_TOL itself: no
    # row blocks it, so the ray is unbounded rather than a pivot on 1e-12
    As = np.array([[lp_module.PIVOT_TOL, 1.0, 0.0],
                   [-1.0, 0.0, 1.0]])
    t = lp_module._Tableau(As, np.array([1.0, 1.0]), np.array([-1.0, 0.0, 0.0]),
                           basis=[1, 2])
    status, entering, d = lp_module._simplex_core(t, lp_module.OPT_TOL)
    assert (status, entering) == ("unbounded", 0)
    np.testing.assert_array_equal(d, As[:, 0])


def test_optimal_points_meet_every_row_of_the_margin_lps():
    # a 3-D spec drawn by the geometry property tests: before the inverse was
    # recomputed ahead of the optimality test, eta updates left ten margin LPs
    # "optimal" with a row violated by up to 1.13e-5 (cond(A) at most 2.5)
    rows = [((1.3645787641405416, 1.8830988549488893e-232, 6.437161264169156e-240), 0.5),
            ((-0.45764109269102177, 1.0773468872033427, 2.9106126612862683e-190),
             1.6422395160945567),
            ((-0.21829076344733458, 8.376175729861714e-08, 0.8376175729861715),
             0.4676442718848321),
            ((-0.7302809791675885, -0.3511455135706695, -0.39534861721130415),
             2.0980464570684036),
            ((-1.2136003366946877, -0.4782958873731074, 3.4233125195697614e-270),
             0.9677407105184181),
            ((4.542661853441075e-228, -0.6809134647190025, -6.8091346471900246e-12),
             1.8141857422959076),
            ((1.5e-12, 0.16710910018124106, 1.5), 0.8459756931008867),
            ((1.1839174506526475, 0.8097630893361454, -0.6003986218461873),
             0.8942445110673316)]
    spec = SafetySpec(halfspaces=tuple(HalfSpace(np.array(a), b) for a, b in rows),
                      terms=((0, 1, 2, 3), (4, 5, 6, 7)), n=3)
    c = np.array([0.0, 0.0, 0.0, 1.0])
    solved = 0
    for I in enumerate_s_cap(spec):
        for term in spec.terms:
            # max_min_point's margin LP: max t s.t. h_i >= t on I, h_i >= 0 on the term
            idx = sorted(I) + sorted(term)
            A = np.column_stack([spec.A[idx], [-1.0] * len(I) + [0.0] * len(term)])
            b = -spec.offsets[idx]
            sol = lp_solve(LpProblem(c=c, A=A, b=b))
            if sol.optimal:
                solved += 1
                assert (A @ sol.x - b).min() >= -1e-12, (sorted(I), term)
    assert solved > 100


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                   reason="phase 1 pivots on a tiny tied entry into a singular basis")
def test_degenerate_tie_does_not_pivot_into_a_singular_basis():
    # a well-conditioned LP (cond(A) 4.7) shaped like a barrier's extended rows:
    # a degenerate phase-1 tie takes the lowest basis index, so it pivots on
    # d = 3.0e-11, which passes PIVOT_TOL (cond(B) 1.4e11), and the basis is
    # singular one pivot later; HiGHS solves it
    N = np.array([[-1.1395993173793673, 0.305417115212382, -1e-9],
                  [0.03458528269678976, 1.4695383451048314, 0.0],
                  [0.0, -0.3991867291191243, -1.0],
                  [0.8320423548678368, -0.4111691582920743, 0.4806527888844649]])
    A = np.block([[N, np.zeros((4, 3))], [N, N]])
    b = -np.ones(8)
    c = np.eye(6)[4]
    ref = linprog(-c, A_ub=-A, b_ub=-b, bounds=[(None, None)] * 6, method="highs")
    assert ref.status == 0
    sol = lp_solve(LpProblem(c=c, A=A, b=b))
    assert sol.optimal
    assert sol.objective == pytest.approx(-ref.fun, rel=1e-7)
    assert (A @ sol.x - b).min() >= -1e-12
