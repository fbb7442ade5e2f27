"""Constraint geometry: validation, membership, certificates, serialization."""

import numpy as np
import pytest
from scipy.optimize import linprog
from hypothesis import given, settings
from hypothesis import strategies as st

from polysafe.errors import (
    AssumptionViolated,
    EmptySet,
    TooManyHalfspaces,
    UnboundedPositions,
    ValidationError,
)
from polysafe.polytope import (
    HalfSpace,
    SafetySpec,
    compute_cert,
    contains,
    enumerate_s_cap,
    eval_h,
    eval_h_many,
    extents,
    hexagon_spec,
    is_bounded,
    max_min_point,
    position_bounding_box,
    slab_spec,
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


@pytest.mark.parametrize("terms", [(), ((),), ((0, 7),), ((0, 0),)])
def test_spec_rejects_bad_terms(terms):
    hs = (_hs([1.0], 1.0), _hs([-1.0], 1.0))
    with pytest.raises(ValidationError):
        SafetySpec(halfspaces=hs, terms=terms, n=1)


def test_spec_rejects_dependent_augmented_pair():
    # identical hyperplane written twice (scaled copy)
    hs = (_hs([1.0, 0.0], 1.0), _hs([2.0, 0.0], 2.0))
    with pytest.raises(ValidationError):
        SafetySpec(halfspaces=hs, terms=((0, 1),), n=2)


def test_spec_rejects_empty_term():
    hs = (_hs([1.0], -2.0), _hs([-1.0], -2.0))  # x >= 2 and x <= -2
    with pytest.raises(ValidationError):
        SafetySpec(halfspaces=hs, terms=((0, 1),), n=1)


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
    assert is_bounded(hexagon.A, hexagon.offsets)


def test_is_bounded_false_for_halfplane():
    assert not is_bounded(np.array([[1.0, 0.0]]), np.array([1.0]))


def test_is_bounded_false_for_parallel_slab_2d():
    assert not is_bounded(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, 1.0]))


def test_is_bounded_true_for_interval():
    assert is_bounded(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))


def test_is_bounded_raises_on_empty():
    with pytest.raises(EmptySet):
        is_bounded(np.array([[1.0], [-1.0]]), np.array([-2.0, -2.0]))


def test_is_bounded_square_vs_dropped_row():
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    assert is_bounded(square, np.ones(4))
    for k in range(4):
        kept = np.delete(np.arange(4), k)
        assert not is_bounded(square[kept], np.ones(3))


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
        assert is_bounded(A, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_extents_infinite_with_a_row_dropped(n):
    rng = np.random.Generator(np.random.Philox(200 + n))
    for _ in range(5):
        A, b = _positive_basis(rng, n)
        k = rng.integers(n + 1)
        A, b = np.delete(A, k, axis=0), np.delete(b, k)
        lo, hi = extents(A, b)
        ref_lo, ref_hi = _linprog_extents(A, b)
        assert not (np.isfinite(lo).all() and np.isfinite(hi).all())
        np.testing.assert_array_equal(np.isfinite(lo), np.isfinite(ref_lo))
        np.testing.assert_array_equal(np.isfinite(hi), np.isfinite(ref_hi))
        np.testing.assert_allclose(lo, ref_lo, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(hi, ref_hi, rtol=1e-7, atol=1e-7)
        assert not is_bounded(A, b)


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
        with pytest.raises(EmptySet):
            extents(A, b)


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


def test_s_cap_enumeration_cap():
    hs = tuple(_hs([1.0, k], 1.0 + k) for k in range(1, 22))
    spec = SafetySpec(halfspaces=hs, terms=(tuple(range(21)),), n=2)
    with pytest.raises(TooManyHalfspaces):
        enumerate_s_cap(spec)


# --- witnesses and the certificate --------------------------------------------

def test_max_min_point_slab_center(slab):
    y, margin = max_min_point(slab, frozenset({0, 1}))
    assert margin == pytest.approx(1.0, abs=1e-9)
    assert y[0] == pytest.approx(0.0, abs=1e-9)


def test_max_min_point_infeasible_set():
    hs = (_hs([1.0], -1.0), _hs([-1.0], 2.0), _hs([-1.0], -1.0), _hs([1.0], 2.0))
    spec = SafetySpec(halfspaces=hs, terms=((0, 1), (2, 3)), n=1)
    with pytest.raises(AssumptionViolated):
        max_min_point(spec, frozenset({0, 2}))  # x >= 1 and x <= -1


def test_cert_hexagon_origin_witnesses(hexagon, hexagon_cert):
    assert hexagon_cert.delta == pytest.approx(np.pi / 2, abs=1e-12)
    assert len(hexagon_cert.s_cap) == 63
    assert hexagon_cert.proj_bounded
    for I, y in hexagon_cert.witnesses.items():
        np.testing.assert_allclose(y, np.zeros(2))


def test_cert_optimized_matches_override(hexagon):
    # the LP-optimized interior margin also equals pi/2 (h_0 + h_1 = pi)
    cert = compute_cert(hexagon)
    assert cert.delta == pytest.approx(np.pi / 2, abs=1e-9)


def test_cert_rejects_bad_override(hexagon):
    with pytest.raises(AssumptionViolated):
        compute_cert(hexagon, overrides=np.array([np.pi / 2, np.pi / 2]))


def test_cert_rejects_unbounded_term():
    spec = SafetySpec(halfspaces=(_hs([1.0, 0.0], 1.0), _hs([0.0, 1.0], 1.0)),
                      terms=((0, 1),), n=2)
    with pytest.raises(UnboundedPositions):
        compute_cert(spec)


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
    back = SafetySpec.from_json(hexagon.to_json())
    assert back.n == hexagon.n
    assert back.terms == hexagon.terms
    for h1, h2 in zip(hexagon.halfspaces, back.halfspaces):
        assert (h1.a == h2.a).all()  # bit-exact floats through JSON
        assert h1.b == h2.b


def test_serialized_terms_are_one_based(hexagon):
    d = hexagon.to_dict()
    assert d["terms"] == [[1, 2, 3, 4, 5, 6]]
