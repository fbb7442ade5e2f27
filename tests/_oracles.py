"""Independent reference implementations used only by the tests."""

import heapq
import itertools
from fractions import Fraction

import numpy as np


def qp_bruteforce(P, c, G, h, tol=1e-9):
    """Optimal z of min 0.5 z P z + c z s.t. G z <= h by enumerating
    candidate active sets and checking the optimality conditions.

    Returns None when no candidate satisfies feasibility plus
    nonnegative multipliers (the problem is then infeasible, since P is
    positive definite and the feasible set, if nonempty, has a
    minimizer).  Exponential in the row count; test-sized inputs only.
    """
    k, nz = G.shape
    best = None
    for size in range(0, min(k, nz) + 1):
        for combo in itertools.combinations(range(k), size):
            Gw = G[list(combo)]
            K = np.block([[P, Gw.T], [Gw, np.zeros((size, size))]])
            rhs = np.concatenate([-c, h[list(combo)]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:nz], sol[nz:]
            if (G @ z > h + tol).any() or (lam < -tol).any():
                continue
            obj = 0.5 * z @ P @ z + c @ z
            if best is None or obj < best[1] - 1e-12:
                best = (z, obj)
    return best


def random_qp(rng, max_dim=4, max_rows=8):
    """A random strictly convex QP, feasible by construction."""
    nz = int(rng.integers(1, max_dim + 1))
    k = int(rng.integers(1, max_rows + 1))
    A = rng.normal(size=(nz, nz))
    P = A @ A.T + nz * np.eye(nz)
    c = rng.normal(size=nz)
    G = rng.normal(size=(k, nz))
    z0 = rng.normal(size=nz)
    h = G @ z0 + rng.uniform(0.0, 1.0, size=k)
    return P, c, G, h


def eval_barrier_naive(cbf, x):
    """Scalar max-min evaluation straight from the row definitions."""
    best = -np.inf
    for ids in cbf.extended_terms:
        worst = np.inf
        for i in ids:
            grad, const = cbf.row(i)
            worst = min(worst, float(grad @ x + const))
        best = max(best, worst)
    return best


def lp_extents(A, b):
    """(lo, hi) of each coordinate over {x | A @ x + b >= 0} from the
    package's simplex: the 2n LPs c = +-e_j, -inf or +inf when unbounded."""
    from polysafe.lp import LpProblem, lp_solve

    d = A.shape[1]
    lo, hi = np.empty((2, d))
    for j in range(d):
        for sign, out in ((1.0, hi), (-1.0, lo)):
            c = np.zeros(d)
            c[j] = sign
            sol = lp_solve(LpProblem(c=c, A=A, b=-b))
            assert sol.status != "infeasible"
            out[j] = sol.x[j] if sol.optimal else sign * np.inf
    return lo, hi


def extended_extents_full(cbf):
    """Per extended term, the 2 x 2n extents of every coordinate (4n LPs)."""
    return np.array([lp_extents(*cbf.term_rows(ell)[:2])
                     for ell in range(len(cbf.spec.terms))])


def _solve_exact(M, rhs):
    """x with M x = rhs in Fractions by Gauss-Jordan elimination, or None if
    M is singular."""
    n = len(M)
    T = [row + [r] for row, r in zip(M, rhs)]
    for k in range(n):
        p = next((i for i in range(k, n) if T[i][k] != 0), None)
        if p is None:
            return None
        T[k], T[p] = T[p], T[k]
        for i in range(n):
            if i != k and T[i][k] != 0:
                f = T[i][k] / T[k][k]
                T[i] = [a - f * c for a, c in zip(T[i], T[k])]
    return [T[i][n] / T[i][i] for i in range(n)]


def exact_extents(A, b):
    """(lo, hi), lists of Fractions, of each coordinate over the bounded,
    nonempty {x | A @ x + b >= 0}, its floats read exactly: every n-row
    subset solved as equalities in rational arithmetic, and the min and max
    over the solutions that meet every row exactly."""
    A = [[Fraction(v) for v in row] for row in np.asarray(A, dtype=float).tolist()]
    b = [Fraction(v) for v in np.asarray(b, dtype=float).tolist()]
    n = len(A[0])
    verts = []
    for idx in itertools.combinations(range(len(b)), n):
        x = _solve_exact([A[i] for i in idx], [-b[i] for i in idx])
        if x is not None and all(sum(a * v for a, v in zip(row, x)) + bi >= 0
                                 for row, bi in zip(A, b)):
            verts.append(x)
    assert verts, "no vertex: the set is empty or unbounded"
    return ([min(v[j] for v in verts) for j in range(n)],
            [max(v[j] for v in verts) for j in range(n)])


def relative_errors(found, exact):
    """|f - e| / max(|e|, 1) per pair of float f and Fraction e, flattened."""
    return [float(abs(Fraction(f) - e) / max(abs(e), 1))
            for f, e in zip(np.ravel(found).tolist(), np.ravel(exact).tolist())]


def exact_velocity_extents(spec, rho, gamma=1.0):
    """`gamma * velocity_extents(spec, rho)` in Fractions: per term, gamma
    times (lo_rho - hi, hi_rho - lo) from `exact_extents` of the term rows
    and of the same rows with the float offsets b - rho."""
    out = []
    for ell in range(len(spec.terms)):
        A, b, _ = spec.rows.term_rows(ell)
        lo, hi = exact_extents(A, b)
        lo_rho, hi_rho = exact_extents(A, b - rho)
        g = Fraction(gamma)
        out.append(([g * (p - q) for p, q in zip(lo_rho, hi)],
                    [g * (p - q) for p, q in zip(hi_rho, lo)]))
    return out


def sample_safe_positions(spec, count, seed):
    """Rejection-sample `count` positions inside the safety region."""
    from polysafe.polytope import eval_h_many, position_bounding_box

    lo, hi = position_bounding_box(spec)
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    while sum(len(b) for b in out) < count:
        pts = rng.uniform(lo, hi, size=(4 * count, spec.n))
        out.append(pts[eval_h_many(spec, pts) >= 0.0])
    return np.concatenate(out)[:count]


def sample_extended_states(cbf, count, seed):
    """States in the extended safe set: per-term vertex mixtures.

    Vertices come from random-cost LPs over each extended term polytope;
    Dirichlet-weighted combinations stay inside the (convex) term.
    """
    from polysafe.lp import LpProblem, lp_solve

    rng = np.random.Generator(np.random.Philox(seed))
    term_vertices = []
    for ell in range(len(cbf.spec.terms)):
        A, b, _ = cbf.term_rows(ell)
        verts = []
        for _ in range(8 * cbf.n + 8):
            sol = lp_solve(LpProblem(c=rng.normal(size=A.shape[1]), A=A, b=-b))
            if sol.optimal:
                verts.append(sol.x)
        term_vertices.append(np.array(verts))
    states = []
    for k in range(count):
        verts = term_vertices[k % len(term_vertices)]
        w = rng.dirichlet(np.ones(len(verts)))
        states.append(w @ verts)
    return np.array(states)


def scan_grid_pointwise(plant, grid, dirs, v_cap):
    """The constant-estimation grid scan one point and direction at a time.

    Returns the first maximizer of ||f2_potential|| and of ||G2^+||_2 over
    the grid, and the three largest (||f2_velocity(x1, v_cap d)|| / v_cap,
    z = (x1, d)), ties keeping the earliest (nlargest is stable).
    """
    n = plant.n

    def f_k2(z):
        x1, w = z[:n], z[n:]
        x2 = v_cap * w / np.linalg.norm(w)
        return float(np.linalg.norm(plant.f2_velocity(x1, x2))) / v_cap

    k1 = kG = 0.0
    top = []
    x1_k1 = x1_kG = grid[0]
    for x1 in grid:
        v1 = float(np.linalg.norm(plant.f2_potential(x1)))
        if v1 > k1:
            k1, x1_k1 = v1, x1
        vG = float(np.linalg.norm(np.linalg.pinv(np.atleast_2d(plant.G2(x1))), 2))
        if vG > kG:
            kG, x1_kG = vG, x1
        top = heapq.nlargest(
            3, top + [(f_k2(z), z) for z in
                      (np.concatenate([x1, d]) for d in dirs)],
            key=lambda t: t[0])
    return x1_k1, x1_kG, top


def rk4_step_reference(plant, u, x, dt):
    """The classical RK4 step on arrays, with f2 + G2 @ u at every stage."""
    n = plant.n

    def xdot(state):
        x1, x2 = state[:n], state[n:]
        return np.concatenate([x2, plant.f2(x1, x2) + plant.G2(x1) @ u])

    k1 = xdot(x)
    k2 = xdot(x + 0.5 * dt * k1)
    k3 = xdot(x + 0.5 * dt * k2)
    k4 = xdot(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_step_stage_loop(plant, u, x, dt):
    """rk4_step's loop over stage lists, the same for every n: each stage's
    arithmetic elementwise on Python floats, one plant call per stage."""
    n, h, u = plant.n, 0.5 * dt, np.asarray(u, dtype=float)
    accel = plant.accel
    if accel is None:
        f2, G2 = plant.f2, plant.G2

        def accel(x1, x2, _):
            x1 = np.array(x1)
            return (f2(x1, np.array(x2)) + G2(x1) @ u).tolist()

    us, xs = u.tolist(), np.asarray(x, dtype=float).tolist()
    k1 = xs[n:] + accel(xs[:n], xs[n:], us)
    s = [a + h * b for a, b in zip(xs, k1)]
    k2 = s[n:] + accel(s[:n], s[n:], us)
    s = [a + h * b for a, b in zip(xs, k2)]
    k3 = s[n:] + accel(s[:n], s[n:], us)
    s = [a + dt * b for a, b in zip(xs, k3)]
    k4 = s[n:] + accel(s[:n], s[n:], us)
    w = dt / 6.0
    return np.array([a + w * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(xs, k1, k2, k3, k4)])


def two_link_arm_reference(params):
    """two_link_arm's callables as the scalar helpers _inertia, _coriolis
    and _potential computed them, each through its call chain, with the
    entries read from the c_ij table at every call."""
    import math

    from polysafe.errors import PolysafeError
    from polysafe.plant import PlantModel

    c = params.coefficients

    def _inertia(c, theta):
        ct2 = math.cos(theta[1])
        return (c["c11"] + c["c12"] * ct2, c["c13"] + c["c14"] * ct2,
                c["c22"] + c["c23"] * ct2, c["c21"])

    def _coriolis(c, theta, thetad):
        st2 = math.sin(theta[1])
        return (c["c15"] * st2 * thetad[1], c["c16"] * st2 * thetad[1],
                c["c24"] * st2 * thetad[0])

    def _potential(c, theta):
        return c["c25"] * math.cos(theta[0] + theta[1])

    def _inverse_inertia(theta):
        m11, m12, m21, m22 = _inertia(c, theta)
        det = m11 * m22 - m12 * m21
        if abs(det) <= 1e-12 * m11 * m22:   # relative: M scales with m l^2; 0 <= 0 too
            raise PolysafeError(f"inertia matrix singular at theta2={theta[1]:.4g}")
        return m22 / det, -m12 / det, -m21 / det, m11 / det

    def _solve(theta, r0, r1):
        """M(theta)^{-1} @ (r0, r1)."""
        i11, i12, i21, i22 = _inverse_inertia(theta)
        return np.array([i11 * r0 + i12 * r1, i21 * r0 + i22 * r1])

    def _coriolis_force(theta, thetad):
        """C(theta, thetad) @ thetad."""
        c11, c12, c21 = _coriolis(c, theta, thetad)
        return c11 * thetad[0] + c12 * thetad[1], c21 * thetad[0]

    def G2(x1):
        i11, i12, i21, i22 = _inverse_inertia(x1)
        return np.array([[i11, i12], [i21, i22]])

    def f2(x1, x2):
        r0, r1 = _coriolis_force(x1, x2)
        return _solve(x1, r0, r1 + _potential(c, x1))

    def f2_velocity(x1, x2):
        return _solve(x1, *_coriolis_force(x1, x2))

    def f2_potential(x1):
        return _solve(x1, 0.0, _potential(c, x1))

    def accel(x1, x2, u):
        r0, r1 = _coriolis_force(x1, x2)
        i11, i12, i21, i22 = _inverse_inertia(x1)
        r0 += u[0]
        r1 += _potential(c, x1) + u[1]
        return [i11 * r0 + i12 * r1, i21 * r0 + i22 * r1]

    return PlantModel(n=2, m=2, f2=f2, G2=G2, f2_potential=f2_potential,
                      f2_velocity=f2_velocity, accel=accel)


def qp_diagnostics_eager(p, z, lam):
    """(objective, KKT residuals) of the optimum z, lam of QpProblem p,
    by the formulas solve_qp once evaluated on every solve."""
    P, c, G, h = p.P, p.c, p.G, p.h
    grad = P @ z + c + (G.T @ lam if G.size else 0.0)
    primal = float(np.maximum(G @ z - h, 0.0).max()) if G.size else 0.0
    comp = float(np.abs(lam * (G @ z - h)).max()) if G.size else 0.0
    residuals = {
        "stationarity": float(np.abs(grad).max()),
        "primal": primal,
        "complementarity": comp,
    }
    return float(0.5 * z @ P @ z + c @ z), residuals


def safeguard(cbf, plant, weights, input_set, x, u_nom=None):
    """One-shot filter solve at x, on a fresh assembler at the default period."""
    from polysafe.qp import SafeguardAssembler

    asm = SafeguardAssembler(cbf, plant, weights, input_set)
    return asm.solve(np.asarray(x, dtype=float), u_nom=u_nom)


def continuity_probe(cbf, plant, weights, input_set, path, u_nom_fn=None):
    """Max ||u*(x_{k+1}) - u*(x_k)|| / ||x_{k+1} - x_k|| along a path.

    Empirical Lipschitz audit of the filter; identical consecutive
    points contribute zero.
    """
    from polysafe.qp import SafeguardAssembler

    asm = SafeguardAssembler(cbf, plant, weights, input_set)
    path = [np.asarray(x, dtype=float) for x in path]
    us = [asm.solve(x, u_nom=None if u_nom_fn is None else u_nom_fn(x)).u_star
          for x in path]
    worst = 0.0
    for (xa, ua), (xb, ub) in zip(zip(path, us), zip(path[1:], us[1:])):
        dx = np.linalg.norm(xb - xa)
        if dx > 0:
            worst = max(worst, np.linalg.norm(ub - ua) / dx)
    return worst


def activation_eager(cbf, x):
    """(argmax_terms, active_indices) of the barrier at x, built eagerly from
    the stacked rows: the terms whose minimum is within ACTIVATION_TOL of the
    max-min value, and the extended ids of their rows within ACTIVATION_TOL
    of it."""
    from polysafe.cbf import ACTIVATION_TOL
    from polysafe.polytope import max_min

    rows = cbf.rows
    vals, mins, value = max_min(rows, np.asarray(x, dtype=float))
    value = float(value)
    row_vals = vals.tolist()
    argmax = tuple(ell for ell, v in enumerate(mins.tolist())
                   if v >= value - ACTIVATION_TOL)
    active = frozenset(rows.ids[k] for ell in argmax for k in rows.spans[ell]
                       if row_vals[k] <= value + ACTIVATION_TOL)
    return argmax, active
