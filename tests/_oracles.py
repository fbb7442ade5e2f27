"""Independent reference implementations used only by the tests."""

import heapq
import itertools

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


def extended_extents_full(cbf):
    """Per extended term, the 2 x 2n extents of every coordinate (4n LPs)."""
    from polysafe.polytope import extents

    return np.array([extents(*cbf.term_rows(ell)[:2])
                     for ell in range(len(cbf.spec.terms))])


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


def safeguard(cbf, plant, weights, input_set, x, u_nom=None):
    """One-shot filter solve at x, with no control period."""
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
