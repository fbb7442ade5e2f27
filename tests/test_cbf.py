"""Extended barrier: evaluation, lift, velocity bound, boundary checks."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import activation_eager, eval_barrier_naive, sample_safe_positions
from polysafe.cbf import (
    ACTIVATION_TOL,
    BOUNDARY_TOL,
    build,
    cbf_from_dict,
    check_compactness,
    eval_B,
    eval_B_many,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from polysafe.errors import ParameterViolation, PolysafeError
from polysafe.inputs import Box, PolytopicBall, Unbounded
from polysafe.plant import PlantModel
from polysafe.polytope import (HalfSpace, SafetySpec, compute_cert, hexagon_spec, slab_spec,
                               vertices)


@pytest.fixture(scope="module")
def slab_cbf(slab, slab_cert):
    return build(slab, slab_cert, 1.0, 0.5)


# --- construction gate --------------------------------------------------------

def test_build_requires_strict_margin_product(slab, slab_cert):
    build(slab, slab_cert, 1.0, 0.999)  # delta = 1, just inside
    with pytest.raises(ParameterViolation):
        build(slab, slab_cert, 1.0, 1.0)  # equality is rejected
    with pytest.raises(ParameterViolation):
        build(slab, slab_cert, 0.01, 1.0)


def test_build_rejects_nonpositive_parameters(slab, slab_cert):
    with pytest.raises(ParameterViolation):
        build(slab, slab_cert, -1.0, 0.1)
    with pytest.raises(ParameterViolation):
        build(slab, slab_cert, 1.0, 0.0)


@pytest.mark.parametrize("spec", [
    hexagon_spec(),
    SafetySpec(halfspaces=(HalfSpace(np.array([4.0]), 1.0),
                           HalfSpace(np.array([-4.0]), 1.0)), terms=((0, 1),), n=1),
], ids=["offsets", "normals"])
def test_build_rejects_overflowing_velocity_rows(spec):
    # the hexagon's gamma * b overflows at gamma = 1e308 (offsets up to pi),
    # the steep slab's gamma * A (normals of 4)
    cert = compute_cert(spec, overrides=np.zeros(spec.n))
    build(spec, cert, 1e300, 0.1)
    with pytest.raises(ParameterViolation, match="overflow"):
        build(spec, cert, 1e308, 0.1)


def test_extended_terms_double_the_indices(hexagon_cbf):
    assert hexagon_cbf.extended_terms == ((0, 1, 2, 3, 4, 5,
                                           6, 7, 8, 9, 10, 11),)
    grad, const = hexagon_cbf.row(6)  # companion of row 0: a = (-1, 0)
    np.testing.assert_allclose(grad, [-10.0, 0.0, -1.0, 0.0])
    assert const == pytest.approx(10.0 * np.pi / 2 - 0.1)


# --- evaluation ---------------------------------------------------------------

def test_barrier_at_origin(hexagon_cbf):
    act = eval_B(hexagon_cbf, np.zeros(4))
    assert act.value == pytest.approx(np.pi / 2, abs=1e-12)
    assert act.argmax_terms == (0,)


def test_barrier_matches_naive_oracle(hexagon_cbf):
    rng = np.random.Generator(np.random.Philox(11))
    X = rng.uniform(-4.0, 4.0, size=(500, 4))
    fast = eval_B_many(hexagon_cbf, X)
    for x, v in zip(X, fast):
        assert v == pytest.approx(eval_barrier_naive(hexagon_cbf, x), abs=1e-12)
        assert eval_B(hexagon_cbf, x).value == pytest.approx(v, abs=1e-12)


@functools.lru_cache(maxsize=1)
def _union_cbf():
    # two disjoint unit intervals, [-2, -1] union [1, 2]
    from polysafe.polytope import HalfSpace, SafetySpec

    def hs(a, b):
        return HalfSpace(np.array(a, dtype=float), b)

    spec = SafetySpec(
        halfspaces=(hs([1.0], -1.0), hs([-1.0], 2.0),
                    hs([-1.0], -1.0), hs([1.0], 2.0)),
        terms=((0, 1), (2, 3)), n=1)
    cert = compute_cert(spec)
    return build(spec, cert, 1.0, cert.delta / 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=2))
def test_barrier_union_is_max_of_terms(pt):
    cbf = _union_cbf()
    x = np.array([pt[0], pt[1]])
    vals = []
    for ell in range(2):
        A, b, _ = cbf.term_rows(ell)
        vals.append((A @ x + b).min())
    act = eval_B(cbf, x)
    assert act.value == pytest.approx(max(vals), abs=1e-12)
    # the stacked row values and term minima, against the row definitions
    np.testing.assert_allclose(act.per_term_min, vals, rtol=0, atol=1e-12)
    naive = [cbf.row(i)[0] @ x + cbf.row(i)[1] for ids in cbf.extended_terms
             for i in ids]
    np.testing.assert_allclose(act.row_values, naive, rtol=0, atol=1e-12)


# --- activation bookkeeping ---------------------------------------------------

def _bookkeeping_cbf(name, hexagon_cbf, slab_cbf):
    return {"hexagon": hexagon_cbf, "slab": slab_cbf, "union": _union_cbf()}[name]


@pytest.mark.parametrize("name", ["hexagon", "slab", "union"])
def test_lazy_bookkeeping_matches_eager_oracle(name, hexagon_cbf, slab_cbf):
    cbf = _bookkeeping_cbf(name, hexagon_cbf, slab_cbf)
    dim = 2 * cbf.n
    rng = np.random.Generator(np.random.Philox(23))
    states = list(rng.uniform(-3.0, 3.0, size=(200, dim)))
    states += [lift_position(cbf, y) for y in cbf.cert.witnesses.values()]
    states += list(sample_boundary(cbf, 40, seed=3))
    for x in states:
        act = eval_B(cbf, x)
        assert (act.argmax_terms, act.active_indices) == activation_eager(cbf, x)


@pytest.mark.parametrize("name", ["hexagon", "slab", "union"])
def test_lazy_bookkeeping_at_near_ties(name, hexagon_cbf, slab_cbf):
    # along x1 through the origin two values split by 2 |x1|: the hexagon's
    # rows 0 and 1, the slab's velocity rows, the union's two terms; steps of
    # a quarter ACTIVATION_TOL walk across the tolerance either side
    cbf = _bookkeeping_cbf(name, hexagon_cbf, slab_cbf)
    e1 = np.eye(2 * cbf.n)[0]
    sizes = set()
    for j in range(-8, 9):
        x = j * 0.25 * ACTIVATION_TOL * e1
        act = eval_B(cbf, x)
        assert (act.argmax_terms, act.active_indices) == activation_eager(cbf, x)
        sizes.add((len(act.argmax_terms), len(act.active_indices)))
    assert len(sizes) > 1  # the tie is both inside and outside the tolerance


def test_condition_report_active_sets_match_oracle(hexagon_cbf, arm):
    samples = sample_boundary(hexagon_cbf, 30, seed=8)
    report = verify_safety_condition(hexagon_cbf, arm, Unbounded(), samples)
    for c in report.checks:
        assert c.active_indices == activation_eager(hexagon_cbf, c.x)[1]


# --- lift ---------------------------------------------------------------------

def test_lift_slab_example(slab_cbf):
    # sigma = (1 + eps/(gamma delta))/2 = 0.75; x1 = 1 -> x2 = -0.75
    state = lift_position(slab_cbf, np.array([1.0]))
    assert state[1] == pytest.approx(-0.75, abs=1e-12)
    assert eval_B(slab_cbf, state).value >= 0.0


def test_lift_rejects_outside_position(slab_cbf):
    with pytest.raises(PolysafeError,
                       match=r"position outside the safety set \(h = -5\.000e-01\)") as info:
        lift_position(slab_cbf, np.array([1.5]))
    assert info.type is PolysafeError


def test_lift_keeps_thousand_positions_safe(hexagon_cbf):
    X1 = sample_safe_positions(hexagon_cbf.spec, 1000, seed=5)
    states = np.array([lift_position(hexagon_cbf, x1) for x1 in X1])
    assert eval_B_many(hexagon_cbf, states).min() >= 0.0


# --- compactness and velocity bound -------------------------------------------

def test_extended_terms_are_compact(hexagon_cbf, slab_cbf):
    assert check_compactness(hexagon_cbf)
    assert check_compactness(slab_cbf)


def test_compactness_accepts_a_zero_offset_companion_row():
    # the interval [-0.5, 10] has delta = 5.25; with gamma = 1, epsilon = 0.5
    # the companion of x + 0.5 >= 0 has offset gamma * 0.5 - epsilon = 0
    from polysafe.polytope import HalfSpace, SafetySpec

    spec = SafetySpec(halfspaces=(HalfSpace(np.array([1.0]), 0.5),
                                  HalfSpace(np.array([-1.0]), 10.0)),
                      terms=((0, 1),), n=1)
    cert = compute_cert(spec)
    assert cert.delta == pytest.approx(5.25, abs=1e-9)
    cbf = build(spec, cert, 1.0, 0.5)
    assert cbf.row(2)[1] == 0.0
    assert check_compactness(cbf)


def test_certification_lp_budget(monkeypatch):
    # every LP of the package runs the simplex in lp._simplex_core, so with it
    # raising, none is solved: the spec's boundedness test, its term extents
    # and the barrier's velocity extents come from vertices, compactness and
    # the bounding box read the term extents, and the pinned certificate
    # evaluates its witness
    from polysafe import lp as plp
    from polysafe.polytope import position_bounding_box

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(plp, "_simplex_core", no_lp)
    spec = hexagon_spec()
    cert = compute_cert(spec, overrides=np.zeros(2))
    cbf = build(spec, cert, 10.0, 0.1)
    assert check_compactness(cbf)
    velocity_bound(cbf)
    for gamma, eps in ((1.0, 0.5), (3.0, 0.2), (100.0, 1.0)):
        velocity_bound(build(spec, cert, gamma, eps))
    position_bounding_box(spec)
    # unpinned, the one term is the union of all 63 index sets, so one
    # margin LP's vertex witnesses them all and no feasibility LP runs
    monkeypatch.undo()
    phase1 = _count_phase1(monkeypatch)
    compute_cert(spec)
    assert len(phase1) == 1


def _count_phase1(monkeypatch) -> list:
    """Route lp._simplex_core through a counter of its phase-1 calls (one
    per LP solved here, as each of these LPs is feasible and bounded)."""
    from polysafe import lp as plp

    core, phase1 = plp._simplex_core, []

    def counting_core(t, tol, n_real=None):
        if n_real is not None:   # phase 1, from the artificials
            phase1.append(t)
        return core(t, tol, n_real)

    monkeypatch.setattr(plp, "_simplex_core", counting_core)
    return phase1


def test_two_term_cert_has_one_witness_per_union(monkeypatch):
    # boxes x in [-2, 1] and x in [-1, 2], both with |y| <= 1, sharing the y
    # rows 2 and 3: every index set meets the safety set, and one outside
    # term 0 takes the union I | term 0, one of {0, 1, 2, 3} plus {4}, {5}
    # or {4, 5}.  Those three unions each need a feasibility LP, and each of
    # the four distinct unions one margin LP per term
    rows = [((1, 0), 2), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1), ((1, 0), 1), ((-1, 0), 2)]
    spec = SafetySpec(halfspaces=tuple(HalfSpace(np.array(a, dtype=float), b)
                                       for a, b in rows),
                      terms=((0, 1, 2, 3), (4, 5, 2, 3)), n=2)
    phase1 = _count_phase1(monkeypatch)
    cert = compute_cert(spec)
    assert len(phase1) == 3 + 4 * 2
    assert len(cert.s_cap) == 2 ** 6 - 1
    assert len({id(y) for y in cert.witnesses.values()}) == 4
    mixed, union = frozenset({0, 4}), frozenset({0, 1, 2, 3, 4})
    assert cert.witnesses[mixed] is cert.witnesses[union]
    assert cert.delta == pytest.approx(1.0, abs=1e-12)   # the overlap's |x|, |y| <= 1
    cbf = build(spec, cert, 1.0, 0.5)
    for t in spec.terms:
        state = lift_position(cbf, cert.witnesses[frozenset(t)])
        assert eval_B(cbf, state).value >= 0.0, t


def test_velocity_bound_slab_analytic(slab, slab_cert):
    for gamma, eps in ((1.0, 0.5), (3.0, 0.2), (10.0, 1.0)):
        cert = velocity_bound(build(slab, slab_cert, gamma, eps))
        assert cert.per_component_bound == pytest.approx(2 * gamma - eps,
                                                         abs=1e-9)
        assert cert.norm_bound == pytest.approx(2 * gamma - eps, abs=1e-9)
        assert cert.c == pytest.approx((2 * gamma - eps) / gamma, abs=1e-9)


def test_velocity_bound_scales_linearly(hexagon, hexagon_cert):
    base = velocity_bound(build(hexagon, hexagon_cert, 10.0, 0.1))
    for s in (0.1, 10.0):
        scaled = velocity_bound(build(hexagon, hexagon_cert, 10.0 * s, 0.1 * s))
        assert scaled.per_component_bound / s == pytest.approx(
            base.per_component_bound, rel=1e-9)


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0, 3e9, 1e15])
def test_velocity_extents_analytic(hexagon, hexagon_cert, slab, slab_cert, gamma):
    # gamma (P_rho - P): the hexagon's |x2_1| <= gamma pi - epsilon and
    # |x2_2| <= 2 pi gamma - epsilon, the unit slab's |x2| <= 2 gamma - epsilon.
    # From gamma = 2e9 on, LPs on the gamma-scaled extended rows read these
    # extents unbounded
    eps = 0.05
    ext = build(hexagon, hexagon_cert, gamma, eps).velocity_extents
    top = [gamma * np.pi - eps, 2 * np.pi * gamma - eps]
    np.testing.assert_allclose(ext, [[np.negative(top), top]], rtol=1e-12, atol=0.0)
    ext = build(slab, slab_cert, gamma, eps).velocity_extents
    np.testing.assert_allclose(ext, [[[-(2 * gamma - eps)], [2 * gamma - eps]]],
                               rtol=1e-12, atol=0.0)


def test_velocity_bound_holds_on_extended_samples(hexagon_cbf):
    from _oracles import sample_extended_states

    states = sample_extended_states(hexagon_cbf, 2000, seed=3)
    cert = velocity_bound(hexagon_cbf)
    assert np.abs(states[:, 2:]).max() <= cert.per_component_bound + 1e-9


# --- boundary sampling --------------------------------------------------------

def test_sample_boundary_on_surface_and_deterministic(hexagon_cbf):
    X = sample_boundary(hexagon_cbf, 200, seed=42)
    assert X.shape == (200, 4)
    assert np.abs(eval_B_many(hexagon_cbf, X)).max() <= 1e-9
    X2 = sample_boundary(hexagon_cbf, 200, seed=42)
    assert (X == X2).all()
    X3 = sample_boundary(hexagon_cbf, 200, seed=43)
    assert not (X == X3).all()


def test_sample_boundary_zero_count(hexagon_cbf):
    assert sample_boundary(hexagon_cbf, 0, seed=1).shape == (0, 4)


def test_sample_boundary_negative_count_raises(hexagon_cbf):
    with pytest.raises(ValueError, match="nonnegative"):
        sample_boundary(hexagon_cbf, -3, seed=1)


def _far_row_cbf(hexagon, gamma, epsilon):
    # x1 <= 10 never binds in the hexagon: row 6, and its velocity
    # companion, extended row 13
    far = HalfSpace(np.array([-1.0, 0.0]), 10.0)
    spec = SafetySpec(halfspaces=hexagon.halfspaces + (far,), terms=(tuple(range(7)),), n=2)
    return build(spec, compute_cert(spec), gamma, epsilon)


def test_sample_boundary_skips_empty_facets(hexagon):
    # no vertex of the term P, or of P_rho, lies on row 6, so the facets of
    # extended rows 6 and 13 are empty and neither row is ever at 0
    cbf = _far_row_cbf(hexagon, 1.0, 0.5)
    A, b, _ = cbf.spec.rows.term_rows(0)
    for rho in (0.0, cbf.epsilon / cbf.gamma):
        V = vertices(A, b - rho)
        assert len(V) == 6 and (V @ A[6] + b[6] - rho > 1.0).all()
    X = sample_boundary(cbf, 50, seed=0)
    assert X.shape == (50, 4)
    assert max(abs(eval_B(cbf, x).value) for x in X) <= 1e-9
    for i in (6, 13):
        a, c = cbf.row(i)
        assert (X @ a + c > 1.0).all()


@pytest.mark.parametrize("gamma", [0.1, 10.0, 1e4])
def test_sample_boundary_reaches_every_nonempty_facet(hexagon, gamma):
    # the hexagon's 6 rows and their velocity companions each bound a
    # nonempty facet; the far row's two facets are empty
    cbf = _far_row_cbf(hexagon, gamma, 0.05 * gamma)
    X = sample_boundary(cbf, 60, seed=5)
    assert np.abs(eval_B_many(cbf, X)).max() <= BOUNDARY_TOL
    at_zero = (np.abs(X @ cbf.rows.A.T + cbf.rows.b) <= BOUNDARY_TOL).any(axis=0)
    assert {i for i, hit in zip(cbf.rows.ids, at_zero) if hit} == set(range(14)) - {6, 13}


def test_sample_boundary_solves_no_lp(monkeypatch, hexagon_cbf):
    from polysafe import lp as plp

    def no_lp(*args, **kwargs):
        raise AssertionError("sample_boundary ran the simplex")

    monkeypatch.setattr(plp, "_simplex_core", no_lp)
    assert sample_boundary(hexagon_cbf, 50, seed=3).shape == (50, 4)


# --- boundary safety condition ------------------------------------------------

def test_condition_fully_actuated_arm(hexagon_cbf, arm):
    X = sample_boundary(hexagon_cbf, 100, seed=9)
    report = verify_safety_condition(hexagon_cbf, arm, Unbounded(), X)
    assert report.all_feasible
    # witness margins are at least gamma * delta - epsilon by construction
    floor = hexagon_cbf.gamma * hexagon_cbf.cert.delta - hexagon_cbf.epsilon
    assert report.worst_margin >= floor - 1e-6


def test_condition_infeasible_under_tiny_input_box(hexagon_cbf, arm):
    X = sample_boundary(hexagon_cbf, 50, seed=9)
    report = verify_safety_condition(hexagon_cbf, arm,
                                     Box(np.array([1e-6, 1e-6])), X)
    assert not report.all_feasible


def test_condition_refuses_a_g2_without_right_inverse(hexagon, hexagon_cert):
    cbf = build(hexagon, hexagon_cert, 1.0, 0.5)
    X = sample_boundary(cbf, 20, seed=0)
    stalled = PlantModel(n=2, m=2, f2=lambda x1, x2: np.zeros(2),
                         G2=lambda x1: np.zeros((2, 2)))
    with pytest.raises(PolysafeError, match="G2 not right invertible at sample 6") as info:
        verify_safety_condition(cbf, stalled, Unbounded(), X)
    assert info.type is PolysafeError


def test_largest_beta_against_analytic_values():
    from polysafe.cbf import _largest_beta

    # the bisection brackets beta to 2^-20 of its initial bracket
    def approx(value):
        return pytest.approx(value, rel=1e-5)

    box = Box(np.array([2.0, 3.0]))
    assert _largest_beta(box, np.zeros(2), np.array([1.0, 1.0])) == approx(2.0)
    assert _largest_beta(box, np.array([1.0, 0.0]), np.array([0.0, -2.0])) == approx(1.5)
    assert _largest_beta(box, np.array([3.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    # 16-gon inscribed in the radius-2 circle: apothem 2 cos(pi/16) along a
    # facet normal, the full radius along a vertex direction
    ball = PolytopicBall(2.0)
    assert _largest_beta(ball, np.zeros(2), np.array([0.5, 0.0])) == approx(
        4.0 * np.cos(np.pi / 16))
    vertex = np.array([np.cos(np.pi / 16), np.sin(np.pi / 16)])
    assert _largest_beta(ball, np.zeros(2), vertex) == approx(2.0)
    assert _largest_beta(ball, np.array([1.0]), np.array([-4.0])) == approx(0.75)
    # no row limits beta: U = R^m, or a zero direction
    assert _largest_beta(Unbounded(), np.zeros(2), np.array([1.0, 1.0])) == 1.0
    assert _largest_beta(box, np.array([1.0, 1.0]), np.zeros(2)) == 1.0


def test_condition_report_csv(tmp_path, hexagon_cbf, arm):
    X = sample_boundary(hexagon_cbf, 10, seed=9)
    report = verify_safety_condition(hexagon_cbf, arm, Unbounded(), X)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sample_id,x1,x2,x3,x4,active_indices,margin,feasible"
    assert len(lines) == 11


# --- serialization ------------------------------------------------------------

def test_cbf_dict_round_trip(hexagon_cbf):
    back = cbf_from_dict(hexagon_cbf.to_dict())
    assert back.gamma == hexagon_cbf.gamma
    assert back.epsilon == hexagon_cbf.epsilon
    assert back.cert.delta == hexagon_cbf.cert.delta
    rng = np.random.Generator(np.random.Philox(1))
    X = rng.uniform(-3, 3, size=(50, 4))
    np.testing.assert_array_equal(eval_B_many(back, X),
                                  eval_B_many(hexagon_cbf, X))
