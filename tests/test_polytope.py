"""Constraint geometry: validation, membership, certificates, serialization."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy.optimize import linprog
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysafe.errors import ValidationError
from polysafe.polytope import (
    HalfSpace,
    SafetySpec,
    bounded,
    compute_cert,
    contains,
    enumerate_s_cap,
    eval_h,
    eval_h_many,
    extents,
    hexagon_spec,
    max_min_point,
    position_bounding_box,
    slab_spec,
    velocity_extents,
    vertices,
)


def _hs(a, b):
    return HalfSpace(np.array(a, dtype=float), b)


# --- validation ---------------------------------------------------------------

def test_halfspace_rejects_zero_direction():
    with pytest.raises(ValidationError):
        _hs([0.0, 0.0], 1.0)


def test_halfspace_rejects_zero_offset():
    with pytest.raises(ValidationError):
        _hs([1.0, 0.0], 0.0)


def test_halfspace_rejects_nonfinite():
    with pytest.raises(ValidationError):
        _hs([np.nan, 1.0], 1.0)
    with pytest.raises(ValidationError):
        _hs([1.0], np.inf)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([1e-200, 1e-162, 1e-161, 1e200])),
                min_size=1, max_size=3))
@example([1e-200, 1e-200])
@example([1e-161, 0.0])
@example([-0.0, 0.0])
def test_halfspace_direction_test_is_numpys_norm(a):
    # a direction is taken iff it is finite and numpy's norm, sqrt(a @ a), is
    # not 0: (1e-200, 1e-200) is nonzero, but its norm underflows to 0
    with np.errstate(over="ignore"):   # (1e200, 1e200): an infinite norm is nonzero
        expected = bool(np.isfinite(a).all() and np.linalg.norm(a) != 0.0)
    try:
        _hs(a, 1.0)
    except ValidationError:
        assert not expected, a
    else:
        assert expected, a


@pytest.mark.parametrize("terms", [(), ((),), ((0, 7),), ((0, 0),)])
def test_spec_rejects_bad_terms(terms):
    hs = (_hs([1.0], 1.0), _hs([-1.0], 1.0))
    with pytest.raises(ValidationError):
        SafetySpec(halfspaces=hs, terms=terms, n=1)


def test_spec_rejects_dependent_augmented_pair():
    # identical hyperplane written twice (scaled copy)
    hs = (_hs([1.0, 0.0], 1.0), _hs([2.0, 0.0], 2.0))
    with pytest.raises(ValidationError, match="half-spaces 0 and 1 "):
        SafetySpec(halfspaces=hs, terms=((0, 1),), n=2)
    hs = (_hs([1.0, 0.0], 1.0), _hs([0.0, 1.0], 1.0), _hs([-1.0, 0.0], 1.0),
          _hs([0.0, -3.0], -3.0))   # the second, scaled by -3
    with pytest.raises(ValidationError, match="half-spaces 1 and 3 "):
        SafetySpec(halfspaces=hs, terms=((0, 1, 2, 3),), n=2)


def test_spec_rejects_empty_term():
    hs = (_hs([1.0], -2.0), _hs([-1.0], -2.0))  # x >= 2 and x <= -2
    with pytest.raises(ValidationError, match="term 0 is an empty intersection"):
        SafetySpec(halfspaces=hs, terms=((0, 1),), n=1)
    hs += (_hs([1.0], 1.0), _hs([-1.0], 3.0))   # -1 <= x <= 3
    with pytest.raises(ValidationError, match="term 1 is an empty intersection"):
        SafetySpec(halfspaces=hs, terms=((2, 3), (0, 1)), n=1)


def _near_degenerate_spec():
    """A 3-D union the geometry property tests drew, with normal entries
    down to 1e-308: a witness taken as the lexicographic minimizer of its
    margin LP's face broke down on it (for I = {0, 2, 4, 7})."""
    hs = (_hs([-1, 0.11843298518488593, -0.28481845629266184], 0.9683521112997997),
          _hs([-6.3331502613834225e-09, -0.6333150261383422, 2.0662020864622852e-296],
              0.878325941135872),
          _hs([-4.23665811722546e-295, 0.004804971664378233, 0.5755883678684517],
              1.729573417118721),
          _hs([0.642633598468076, 0.3915114263137511, -0.1468218081543702],
              1.7311631403426384),
          _hs([1.9263653395593603, 0.35776849774556907, -0.33800458469766653],
              -1.7204306887185923),
          _hs([2.0005944223470445e-38, 1.701917512955402, 0.4836878473604657],
              0.9673017439072517),
          _hs([-3.7304703383001527e-205, -4.2337987025907775e-308, 1.9027677155091052],
              1.9130534608108318),
          _hs([-1.5069703371235872, -1.544032605441097, -0.982274513667367],
              2.523377636658936))
    return SafetySpec(halfspaces=hs, terms=((0, 1, 2, 3), (4, 5, 6, 7)), n=3)


def test_witness_lps_certify_a_near_degenerate_spec():
    spec = _near_degenerate_spec()
    for I, y in compute_cert(spec).witnesses.items():
        assert eval_h(spec, y) >= 0.0, sorted(I)


def test_spec_dimension_mismatch():
    with pytest.raises(ValidationError):
        SafetySpec(halfspaces=(_hs([1.0, 0.0], 1.0),), terms=((0,),), n=1)


# --- evaluation and membership ------------------------------------------------

def test_eval_h_hexagon_values(hexagon):
    assert eval_h(hexagon, np.zeros(2)) == pytest.approx(np.pi / 2, abs=1e-12)
    assert eval_h(hexagon, np.array([np.pi / 2, np.pi / 2])) == pytest.approx(
        0.0, abs=1e-12)
    assert eval_h(hexagon, np.array([2.0, 0.0])) < 0.0
    assert contains(hexagon, np.zeros(2))
    assert not contains(hexagon, np.array([2.0, 0.0]))


def test_eval_h_union_takes_max():
    # [-2, -1] union [1, 2]
    hs = (_hs([1.0], -1.0), _hs([-1.0], 2.0), _hs([-1.0], -1.0), _hs([1.0], 2.0))
    spec = SafetySpec(halfspaces=hs, terms=((0, 1), (2, 3)), n=1)
    assert contains(spec, np.array([1.5]))
    assert contains(spec, np.array([-1.5]))
    assert not contains(spec, np.array([0.0]))
    assert eval_h(spec, np.array([1.5])) == pytest.approx(0.5, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_eval_h_many_matches_scalar(pt):
    spec = hexagon_spec()
    x = np.array(pt)
    assert eval_h_many(spec, x[None, :])[0] == pytest.approx(
        eval_h(spec, x), abs=1e-12)


# --- boundedness --------------------------------------------------------------

def test_is_bounded_hexagon(hexagon):
    assert bounded(hexagon.A)


def test_is_bounded_false_for_halfplane():
    assert not bounded(np.array([[1.0, 0.0]]))


def test_is_bounded_false_for_parallel_slab_2d():
    assert not bounded(np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_is_bounded_true_for_interval():
    assert bounded(np.array([[1.0], [-1.0]]))


def test_is_bounded_raises_on_empty():
    # bounded rows with no common point: `extents` finds no vertex
    A = np.array([[1.0], [-1.0]])
    assert bounded(A)
    with pytest.raises(ValidationError, match="intersection is empty"):
        extents(A, np.array([-2.0, -2.0]))


def test_is_bounded_square_vs_dropped_row():
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert bounded(square)
    for k in range(4):
        assert not bounded(np.delete(square, k, axis=0))


# --- extents ------------------------------------------------------------------

def _linprog_extents(A, b):
    """Oracle: scipy's min and max of each coordinate over A @ x + b >= 0."""
    d = A.shape[1]
    lo, hi = np.empty(d), np.empty(d)
    for j, e in enumerate(np.eye(d)):
        for sign, out in ((1.0, lo), (-1.0, hi)):
            ref = linprog(sign * e, A_ub=-A, b_ub=b, bounds=[(None, None)] * d,
                          method="highs")
            assert ref.status in (0, 3)
            out[j] = sign * ref.fun if ref.status == 0 else -sign * np.inf
    return lo, hi


def _positive_basis(rng, n):
    """n random normals and minus their sum, offsets in [0.5, 2]: a simplex
    around the origin."""
    a = rng.normal(size=(n, n))
    A = np.vstack([a, -a.sum(axis=0)])
    return A, rng.uniform(0.5, 2.0, size=n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extents_match_linprog_on_random_polytopes(n):
    rng = np.random.Generator(np.random.Philox(100 + n))
    for _ in range(10):
        A, b = _positive_basis(rng, n)
        extra = rng.normal(size=(n + 2, n))
        A = np.vstack([A, extra])
        b = np.concatenate([b, rng.uniform(0.5, 2.0, size=n + 2)])
        lo, hi = extents(A, b)
        ref_lo, ref_hi = _linprog_extents(A, b)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        np.testing.assert_allclose(lo, ref_lo, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(hi, ref_hi, rtol=1e-7, atol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extents_infinite_with_a_row_dropped(n):
    # a simplex is bounded, and without one of its rows some extent is infinite
    rng = np.random.Generator(np.random.Philox(200 + n))
    for _ in range(5):
        A, b = _positive_basis(rng, n)
        assert bounded(A)
        k = rng.integers(n + 1)
        A, b = np.delete(A, k, axis=0), np.delete(b, k)
        assert not bounded(A)
        ref_lo, ref_hi = _linprog_extents(A, b)
        assert not (np.isfinite(ref_lo).all() and np.isfinite(ref_hi).all())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extents_raise_on_empty_sets(n):
    rng = np.random.Generator(np.random.Philox(300 + n))
    for _ in range(5):
        A, b = _positive_basis(rng, n)
        # a_0 @ x + b_0 >= 0 and a_0 @ x + b_0 <= -1 cannot both hold
        A = np.vstack([A, -A[0]])
        b = np.concatenate([b, [-b[0] - 1.0]])
        ref = linprog(np.zeros(n), A_ub=-A, b_ub=b, bounds=[(None, None)] * n,
                      method="highs")
        assert ref.status == 2
        with pytest.raises(ValidationError):
            extents(A, b)


def test_extents_of_a_half_plane_run_along_its_line():
    # x1 >= -1 in 2-D: rank 1, so x2 runs along a line, and x1 up a ray
    A, b = np.array([[1.0, 0.0]]), np.array([1.0])
    assert bounded(A) is False
    np.testing.assert_array_equal(np.array(_linprog_extents(A, b)),
                                  [[-1.0, -np.inf], [np.inf, np.inf]])


def test_extents_of_a_3d_slab():
    # -1 <= x1 + x2 <= 2 and -1 <= x1 <= 2 in 3-D: rank 1, lines along the rest
    for A in ([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]):
        assert bounded(np.array(A)) is False


def test_extents_raise_on_an_empty_rank_deficient_set():
    # x1 >= 1 and x1 <= -1 in 2-D: the rank test refuses it before emptiness
    A = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert bounded(A) is False
    hs = (_hs([1.0, 0.0], -1.0), _hs([-1.0, 0.0], -1.0))
    with pytest.raises(ValidationError, match="term 0 is unbounded"):
        SafetySpec(halfspaces=hs, terms=((0, 1),), n=2)


def test_vertices_solve_their_subsets_in_bounded_blocks(monkeypatch):
    # one term with n = 8 and 20 rows has C(20, 8) = 125,970 vertex subsets
    # (`bounded` takes C(20, 7) = 77,520 for its rays): each solve takes at
    # most a block of them
    from polysafe import polytope as ppoly

    rng = np.random.Generator(np.random.Philox(8))
    A, b = _positive_basis(rng, 8)
    A = np.vstack([A, rng.normal(size=(11, 8))])
    b = np.concatenate([b, rng.uniform(0.5, 2.0, size=11)])
    batches, solve = [], np.linalg.solve

    def recording(a, rhs):
        batches.append(len(a))
        return solve(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    lo, hi = extents(A, b)
    assert len(batches) > 2 and max(batches) <= ppoly._BLOCK
    assert sum(batches) <= math.comb(20, 8) + math.comb(20, 7)   # each ray on s
    np.testing.assert_allclose(np.array([lo, hi]), np.array(_linprog_extents(A, b)),
                               rtol=1e-9, atol=1e-9)


def test_velocity_extents_raise_on_an_empty_shrunk_term(hexagon):
    # no point of the hexagon lies pi/2 inside every row
    with pytest.raises(ValidationError):
        velocity_extents(hexagon, 2.0)


def test_velocity_extents_enumerate_vertices_once_per_term(hexagon, monkeypatch):
    # P_rho has the rows of the spec's bounded term P: no second, ray, enumeration
    from polysafe import polytope as ppoly

    calls, original = [], ppoly.vertices

    def counting(*args, **kwargs):
        calls.append(kwargs.get("on_last", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(ppoly, "vertices", counting)
    velocity_extents(hexagon, 0.3)
    assert calls == [False] * len(hexagon.terms)


def test_bounding_box_of_a_union_is_the_hull_of_term_extents():
    # the square [-1, 1]^2 and the rectangle [2, 4] x [-0.5, 2]
    hs = tuple(_hs(a, b) for a, b in [
        ([1.0, 0.0], 1.0), ([-1.0, 0.0], 1.0), ([0.0, 1.0], 1.0),
        ([0.0, -1.0], 1.0), ([1.0, 0.0], -2.0), ([-1.0, 0.0], 4.0),
        ([0.0, 1.0], 0.5), ([0.0, -1.0], 2.0)])
    spec = SafetySpec(halfspaces=hs, terms=((0, 1, 2, 3), (4, 5, 6, 7)), n=2)
    lo, hi = position_bounding_box(spec)
    np.testing.assert_allclose(lo, [-1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(hi, [4.0, 2.0], atol=1e-12)


def _sorted_rows(X):
    return X[np.lexsort(X.T[::-1])]


@pytest.mark.parametrize("rho", [0.0, 0.3])
def test_vertices_of_the_hexagon_and_its_shrunk_copy(hexagon, rho):
    # rows shrunk to a_i @ x + b_i >= rho move the corners (+-pi/2, +-pi/2)
    # to (+-(pi/2 - rho), +-pi/2) and (0, +-pi) to (0, +-(pi - rho))
    A, b, _ = hexagon.rows.term_rows(0)
    h, f = np.pi / 2 - rho, np.pi - rho
    corners = [[-h, -np.pi / 2], [-h, np.pi / 2], [0.0, -f], [0.0, f],
               [h, -np.pi / 2], [h, np.pi / 2]]
    np.testing.assert_allclose(_sorted_rows(vertices(A, b - rho)), corners,
                               rtol=0.0, atol=1e-15)


def test_vertices_of_the_slab_and_a_3d_box(slab):
    A, b, _ = slab.rows.term_rows(0)
    np.testing.assert_array_equal(_sorted_rows(vertices(A, b)), [[-1.0], [1.0]])
    # [-1, 1] x [-2, 2] x [-3, 3]: 20 choices of 3 rows, 8 of them nonsingular
    half = np.array([1.0, 2.0, 3.0])
    A, b = np.vstack([np.eye(3), -np.eye(3)]), np.concatenate([half, half])
    corners = np.array(list(itertools.product(*[(-w, w) for w in half])))
    np.testing.assert_array_equal(_sorted_rows(vertices(A, b)), corners)


@pytest.mark.parametrize("scale", [(1e-7, 1e-7, 1e-7, 1e-7), (1e7, 1e-7, 1e7, 1e-7)],
                         ids=["short", "mixed"])
def test_vertices_and_extents_do_not_depend_on_row_lengths(scale):
    # the unit square with its rows scaled: "short" makes every corner's |det|
    # 1e-14, and "mixed" spreads the singular values 1e14 apart, yet the rows
    # are orthogonal either way
    b = np.array(scale)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]) * b[:, None]
    corners = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
    np.testing.assert_allclose(_sorted_rows(vertices(A, b)), corners, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.array(extents(A, b)), [[-1.0, -1.0], [1.0, 1.0]],
                               rtol=0, atol=1e-15)


def test_term_vertices_2d_is_the_counterclockwise_hexagon():
    from polysafe.plots import term_vertices_2d

    # deduplicated on the corners rounded to 12 decimals
    h = np.pi / 2
    np.testing.assert_allclose(
        term_vertices_2d(hexagon_spec()),
        [[-h, -h], [0.0, -np.pi], [h, -h], [h, h], [0.0, np.pi], [-h, h]],
        rtol=0.0, atol=1e-12)


# --- index-set enumeration ----------------------------------------------------

def test_s_cap_hexagon_all_subsets(hexagon):
    # every subset intersection contains the hexagon itself
    assert len(enumerate_s_cap(hexagon)) == 2 ** 6 - 1


def test_s_cap_slab(slab):
    got = {frozenset(I) for I in enumerate_s_cap(slab)}
    assert got == {frozenset({0}), frozenset({1}), frozenset({0, 1})}


def test_s_cap_disjoint_union_matches_grid_oracle():
    # [-2, -1] union [1, 2]; oracle: dense 1-D sampling of each candidate
    hs = (_hs([1.0], -1.0), _hs([-1.0], 2.0), _hs([-1.0], -1.0), _hs([1.0], 2.0))
    spec = SafetySpec(halfspaces=hs, terms=((0, 1), (2, 3)), n=1)
    got = {frozenset(I) for I in enumerate_s_cap(spec)}
    grid = np.linspace(-3.0, 3.0, 6001)
    inside = eval_h_many(spec, grid[:, None]) >= 0.0
    expected = set()
    import itertools
    for size in range(1, 5):
        for combo in itertools.combinations(range(4), size):
            vals = np.stack([spec.A[i, 0] * grid + spec.offsets[i]
                             for i in combo])
            if ((vals >= 0.0).all(axis=0) & inside).any():
                expected.add(frozenset(combo))
    assert got == expected


@pytest.mark.parametrize("r, n", [(21, 10), (30, 15), (40, 20)])
def test_spec_refuses_a_term_with_too_many_vertex_subsets(r, n):
    # C(r, n) row subsets are beyond C(20, 10): refused before any is enumerated
    rng = np.random.Generator(np.random.Philox(r))
    d = {"n": n, "terms": [list(range(1, r + 1))],
         "halfspaces": [{"a": rng.normal(size=n).tolist(), "b": 1.0} for _ in range(r)]}
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=rf"term 0: C\({r}, {n}\) row subsets"):
        SafetySpec.from_dict(d)
    assert time.perf_counter() - start < 1.0


def test_spec_keeps_a_term_at_the_subset_cap():
    # 20 rows in n = 10, the most a spec within the enumeration cap has
    rng = np.random.Generator(np.random.Philox(20))
    hs = tuple(_hs(rng.normal(size=10), 1.0) for _ in range(20))
    spec = SafetySpec(halfspaces=hs, terms=(tuple(range(20)),), n=10)
    assert spec.term_extents.shape == (1, 2, 10)


def test_s_cap_enumeration_cap():
    # a regular 21-gon: bounded, so only r is beyond the cap
    angles = 2 * np.pi * np.arange(21) / 21
    hs = tuple(_hs([np.cos(t), np.sin(t)], 1.0 + 0.01 * k) for k, t in enumerate(angles))
    spec = SafetySpec(halfspaces=hs, terms=(tuple(range(21)),), n=2)
    with pytest.raises(ValidationError, match="r=21 exceeds enumeration cap 20") as info:
        enumerate_s_cap(spec)
    assert info.type is ValidationError


# --- witnesses and the certificate --------------------------------------------

def test_max_min_point_slab_center(slab):
    y, margin = max_min_point(slab, frozenset({0, 1}))
    assert margin == pytest.approx(1.0, abs=1e-9)
    assert y[0] == pytest.approx(0.0, abs=1e-9)


def test_max_min_point_infeasible_set():
    hs = (_hs([1.0], -1.0), _hs([-1.0], 2.0), _hs([-1.0], -1.0), _hs([1.0], 2.0))
    spec = SafetySpec(halfspaces=hs, terms=((0, 1), (2, 3)), n=1)
    message = r"no interior witness for \[0, 2\]: best margin -2\.000e\+00"
    with pytest.raises(ValidationError, match=message) as info:
        max_min_point(spec, frozenset({0, 2}))  # x >= 1 and x <= -1
    assert info.type is ValidationError


def test_cert_hexagon_origin_witnesses(hexagon, hexagon_cert):
    assert hexagon_cert.delta == pytest.approx(np.pi / 2, abs=1e-12)
    assert len(hexagon_cert.s_cap) == 63
    for I, y in hexagon_cert.witnesses.items():
        np.testing.assert_allclose(y, np.zeros(2))


def _linprog_margin(spec, I):
    """Oracle: HiGHS's optimal margin max over C of min_{i in I} h_i, the
    best over the terms of max t s.t. h_i >= t on I and h_i >= 0 on the term."""
    best = -np.inf
    for term in spec.terms:
        idx = sorted(I) + sorted(term)
        # rows t - h_i(x) <= 0 on I and -h_i(x) <= 0 on the term
        A_ub = np.column_stack([-spec.A[idx], [1.0] * len(I) + [0.0] * len(term)])
        ref = linprog(-np.eye(spec.n + 1)[spec.n], A_ub=A_ub, b_ub=spec.offsets[idx],
                      bounds=[(None, None)] * (spec.n + 1), method="highs")
        if ref.status == 0:
            best = max(best, -ref.fun)
    return best


@pytest.mark.parametrize("make_spec", [hexagon_spec, _near_degenerate_spec],
                         ids=["hexagon", "near_degenerate"])
def test_cert_witnesses_attain_the_optimal_margin(make_spec):
    # each index set I carries the witness of its union U: any maximizer of
    # U's margin LP will do, so the witness is whichever vertex the simplex
    # reaches; it must attain HiGHS's margin on U and lie in C, and delta is
    # HiGHS's smallest margin over every I
    spec = make_spec()
    cert = compute_cert(spec)
    s_cap = enumerate_s_cap(spec)
    assert list(cert.witnesses) == list(s_cap)
    for I, U in s_cap.items():
        y = cert.witnesses[I]
        assert y is cert.witnesses[U], sorted(I)
        idx = sorted(U)
        margin = (spec.A[idx] @ y + spec.offsets[idx]).min()
        assert margin == pytest.approx(_linprog_margin(spec, U), rel=0, abs=1e-10), idx
        assert eval_h(spec, y) >= 0.0, idx
    best = min(_linprog_margin(spec, I) for I in s_cap)
    assert cert.delta == pytest.approx(best, rel=0, abs=1e-10)


def test_cert_witnesses_in_C_and_delta_attained(hexagon):
    # LP witnesses are vertices on the boundary of C: they must not lie
    # outside it, and delta must be a margin some witness attains
    cert = compute_cert(hexagon)
    margins = []
    for I, y in cert.witnesses.items():
        assert eval_h(hexagon, y) >= 0.0, sorted(I)
        idx = sorted(I)
        margins.append((hexagon.A[idx] @ y + hexagon.offsets[idx]).min())
    assert cert.delta == pytest.approx(min(margins), rel=0, abs=1e-15)


def test_cert_optimized_matches_override(hexagon):
    # the LP-optimized interior margin also equals pi/2 (h_0 + h_1 = pi)
    cert = compute_cert(hexagon)
    assert cert.delta == pytest.approx(np.pi / 2, abs=1e-12)


def test_cert_rejects_bad_override(hexagon):
    # (pi/2, pi/2) is a vertex of C, where h_0 = 0
    with pytest.raises(ValidationError,
                       match=r"witness for \[0\] lacks a positive margin") as info:
        compute_cert(hexagon, overrides=np.array([np.pi / 2, np.pi / 2]))
    assert info.type is ValidationError


def _no_lp(monkeypatch):
    from polysafe import lp as plp

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(plp, "_simplex_core", no_lp)


def test_cert_rejects_unbounded_term(monkeypatch):
    # a quadrant of full rank: its recession cone has extreme rays
    _no_lp(monkeypatch)
    with pytest.raises(ValidationError, match="term 0 is unbounded") as info:
        SafetySpec(halfspaces=(_hs([1.0, 0.0], 1.0), _hs([0.0, 1.0], 1.0)),
                   terms=((0, 1),), n=2)
    assert info.type is ValidationError


def test_unbounded_term_is_refused_before_any_lp(monkeypatch):
    # two quadrants: enumerating their index sets would solve feasibility LPs
    # for the unions of one term's rows with the other's; the spec refuses them
    _no_lp(monkeypatch)
    with pytest.raises(ValidationError, match="term 0 is unbounded"):
        SafetySpec(halfspaces=(_hs([1.0, 0.0], 1.0), _hs([0.0, 1.0], 1.0),
                               _hs([-1.0, 0.0], 1.0), _hs([0.0, -1.0], 1.0)),
                   terms=((0, 1), (2, 3)), n=2)


def test_slab_delta_scales_with_width():
    for width in (0.25, 1.0, 4.0):
        cert = compute_cert(slab_spec(width), overrides=np.zeros(1))
        assert cert.delta == pytest.approx(width, abs=1e-9)


def test_bounding_box_hexagon(hexagon):
    lo, hi = position_bounding_box(hexagon)
    np.testing.assert_allclose(lo, [-np.pi / 2, -np.pi], atol=1e-9)
    np.testing.assert_allclose(hi, [np.pi / 2, np.pi], atol=1e-9)


# --- serialization ------------------------------------------------------------

def test_json_round_trip_exact(hexagon):
    back = SafetySpec.from_dict(json.loads(json.dumps(hexagon.to_dict())))
    assert back.n == hexagon.n
    assert back.terms == hexagon.terms
    for h1, h2 in zip(hexagon.halfspaces, back.halfspaces):
        assert (h1.a == h2.a).all()  # bit-exact floats through JSON
        assert h1.b == h2.b


def test_serialized_terms_are_one_based(hexagon):
    d = hexagon.to_dict()
    assert d["terms"] == [[1, 2, 3, 4, 5, 6]]
