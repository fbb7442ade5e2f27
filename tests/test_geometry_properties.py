"""Property tests over random bounded geometries: the certificate either
fails with a documented geometry error or holds everything the barrier
relies on."""

import numpy as np
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from _oracles import (exact_extents, exact_velocity_extents, extended_extents_full,
                      relative_errors)
from polysafe.cbf import (
    build,
    check_compactness,
    eval_B,
    lift_position,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from polysafe.errors import PolysafeError, ValidationError
from polysafe.inputs import Unbounded
from polysafe.plant import double_integrator
from polysafe.sim import Scenario, audit_invariance, simulate
from polysafe.polytope import (
    HalfSpace,
    SafetySpec,
    compute_cert,
    contains,
    eval_h,
    extents,
    max_min,
    velocity_extents,
)

MAX_ROWS = 8   # the index sets enumerated number 2^r - 1

_coord = st.floats(-2.0, 2.0).map(lambda v: round(v, 3))


def _vectors(draw, count, n, elements=_coord):
    return np.array(draw(st.lists(st.lists(elements, min_size=n, max_size=n),
                                  min_size=count, max_size=count)),
                    dtype=float).reshape(count, n)


@st.composite
def bounded_specs(draw):
    """Unions of 1-3 bounded polytopes in R^1..R^3 with at most MAX_ROWS rows.

    Each term has n independent normals (rows of a scaled, diagonally
    dominant matrix), one in the negative cone of those (so the normals
    positively span R^n and the term is bounded) and up to two more; the
    offsets put a drawn center inside it.
    """
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, min(3, MAX_ROWS // (n + 1))))
    halfspaces, terms = [], []
    for ell in range(n_terms):
        room = MAX_ROWS - len(halfspaces) - (n_terms - ell - 1) * (n + 1)
        extra = draw(st.integers(0, min(2, room - n - 1)))
        off = _vectors(draw, n, n, st.floats(-0.45, 0.45)) * (1 - np.eye(n))
        scale = _vectors(draw, 1, n, st.floats(0.5, 2.0))[0]
        signs = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)), -1, 1)
        basis = (np.eye(n) + off) * (signs * scale)[:, None]
        weights = _vectors(draw, 1, n, st.floats(0.2, 1.0))[0]
        normals = np.vstack([basis, -weights @ basis, _vectors(draw, extra, n)])
        assume((np.linalg.norm(normals, axis=1) > 0.1).all())
        center = _vectors(draw, 1, n)[0]
        radii = _vectors(draw, 1, len(normals), st.floats(0.2, 2.0))[0]
        start = len(halfspaces)
        halfspaces += [HalfSpace(a, r - a @ center) for a, r in zip(normals, radii)]
        terms.append(tuple(range(start, len(halfspaces))))
    return SafetySpec(halfspaces=tuple(halfspaces), terms=tuple(terms), n=n)


@seed(0)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_geometry_certificate_holds_or_fails_documented(data):
    try:
        spec = data.draw(bounded_specs())
        cert = compute_cert(spec)
    except PolysafeError as exc:   # e.g. an index set touching C at one point
        assert exc.exit_code == 3, f"{type(exc).__name__}: {exc}"
        return
    assert cert.delta > 0
    for I, y in cert.witnesses.items():
        assert eval_h(spec, y) >= 0.0, sorted(I)
        idx = sorted(I)
        assert (spec.A[idx] @ y + spec.offsets[idx]).min() >= cert.delta - 1e-14
    for t in spec.terms:   # a term's witness is interior
        assert contains(spec, cert.witnesses[frozenset(t)])

    cbf = build(spec, cert, 1.0, cert.delta / 2)
    assert check_compactness(cbf)
    assert np.isfinite(velocity_bound(cbf).norm_bound)
    for y in cert.witnesses.values():
        # a witness on the boundary of C lifts to B = h(y) = 0 up to round-off
        assert eval_B(cbf, lift_position(cbf, y)).value >= -1e-12
    X = sample_boundary(cbf, 20, seed=0)
    report = verify_safety_condition(cbf, double_integrator(spec.n), Unbounded(), X)
    assert report.all_feasible, report.worst_margin


def _h_rows(spec, y):
    """h_i(y) per half-space index i, from h's own evaluation (max_min)."""
    return dict(zip(spec.rows.ids, max_min(spec.rows, y)[0].tolist()))


@seed(0)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_geometry_stored_extents_match_the_lps(data):
    """What the spec and the barrier store equals `extents` and
    `velocity_extents` recomputed, lies within 1e-14 of the exact optimum
    (relative to max(|e|, 1)), and agrees with the LPs over the extended
    terms' 2n coordinates, over the certificate test's specs (the same seed
    draws the same specs)."""
    try:
        spec = data.draw(bounded_specs())
    except PolysafeError as exc:
        assert exc.exit_code == 3, f"{type(exc).__name__}: {exc}"
        return
    for ell in range(len(spec.terms)):
        A, b, _ = spec.rows.term_rows(ell)
        assert spec.term_extents[ell].tobytes() == np.array(extents(A, b)).tobytes()
        assert max(relative_errors(spec.term_extents[ell], exact_extents(A, b))) <= 1e-14
    try:
        certs = [compute_cert(spec)]
    except PolysafeError as exc:
        assert exc.exit_code == 3, f"{type(exc).__name__}: {exc}"
        return
    try:   # the largest index set's witness, pinned for every index set
        certs.append(compute_cert(spec, overrides=certs[0].witnesses[certs[0].s_cap[-1]]))
    except ValidationError as exc:   # it lacks a margin on some index set
        if "lacks a positive margin" not in str(exc):
            raise
    for cert in certs:
        attained = min(_h_rows(spec, y)[i] for I, y in cert.witnesses.items() for i in I)
        assert cert.delta == attained
    for gamma in (1.0, 3.0):
        cbf = build(spec, certs[0], gamma, certs[0].delta / 2)
        rho = cbf.epsilon / gamma
        for ell in range(len(spec.terms)):   # gamma (P_rho - P), bit for bit
            A, b, _ = spec.rows.term_rows(ell)
            shrunk = np.array(extents(A, b - rho))
            product = gamma * (shrunk - spec.term_extents[ell][::-1])
            assert cbf.velocity_extents[ell].tobytes() == product.tobytes()
        exact = exact_velocity_extents(spec, rho, gamma)
        assert max(relative_errors(cbf.velocity_extents, exact)) <= 1e-14
        # the LPs over the extended term's 2n coordinates agree to round-off
        full = extended_extents_full(cbf)
        np.testing.assert_allclose(cbf.velocity_extents, full[:, :, spec.n:],
                                   rtol=1e-12, atol=0.0)
        assert check_compactness(cbf) == bool(np.isfinite(full).all())
        assert (velocity_bound(cbf).per_component_bound
                == np.abs(cbf.velocity_extents).max())
    # select_gamma's c, read from the spec, is the gamma = 1 barrier's, bit for bit
    rho = certs[0].delta / 2
    c = np.sqrt(spec.n) * np.abs(velocity_extents(spec, rho)).max()
    assert c == velocity_bound(build(spec, certs[0], 1.0, rho)).c


@seed(0)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_geometry_filtered_loop_stays_invariant(data):
    """A double integrator pushed outward at a constant input stays in C^s
    through the filter, over the certificate test's specs and barriers: from
    the first term's witness lifted into C^s, 3 s at dt = 1e-2, in which the
    unfiltered input would carry it 9 units along (1, ..., 1).  Most draws
    reach the boundary (min B within 1e-13 of 0).  A QpInfeasibleAt fails
    the test."""
    try:
        spec = data.draw(bounded_specs())
        cert = compute_cert(spec)
    except PolysafeError as exc:
        assert exc.exit_code == 3, f"{type(exc).__name__}: {exc}"
        return
    cbf = build(spec, cert, 1.0, cert.delta / 2)
    x0 = lift_position(cbf, cert.witnesses[frozenset(spec.terms[0])])
    push = np.full(spec.n, 2.0 / np.sqrt(spec.n))
    log = simulate(Scenario(cbf, double_integrator(spec.n), "safeguarded", x0,
                            t_final=3.0, dt=1e-2, nominal=lambda t, x: push,
                            input_set=Unbounded()))
    report = audit_invariance(log, cbf)
    assert report.invariant, report.min_B
