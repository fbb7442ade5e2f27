"""Strictly convex dense QP solver and the safeguarding controller.

The controller minimally modifies a nominal command subject to one
barrier-derivative row per (term, extended index) pair, with the
class-K slope alpha and the max-min coupling weight M as additional
decision variables bounded below by c_alpha and c_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cbf import ExtendedCbf, eval_B
from .errors import (
    Infeasible,
    NonFinite,
    NumericalBreakdown,
    ParameterViolation,
    PolysafeError,
)
from .inputs import Unbounded
from .lp import LpProblem, lp_solve
from .plant import rk4_step

_OPT_TOL = 1e-9
_MAX_ITER = 200
DT = 1e-3  # the default control period, s
FEASIBILITY_MARGIN = 0.1  # the filter refuses states with B below -this


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 z @ P @ z + c @ z  s.t.  G @ z <= h, with P symmetric PD and
    every entry finite.  `_over` takes a P validated here before, such as
    the filter's constant one, and checks only that c, G and h are finite."""

    P: np.ndarray
    c: np.ndarray
    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        G = np.asarray(self.G, dtype=float).reshape(-1, c.size)
        h = np.atleast_1d(np.asarray(self.h, dtype=float)).reshape(G.shape[0])
        if not all(np.isfinite(arr).all() for arr in (P, c, G, h)):
            raise NonFinite("non-finite entries in the QP data")
        if np.linalg.norm(P - P.T) > 1e-10:
            raise PolysafeError("cost matrix is not symmetric")
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError as exc:
            raise PolysafeError("cost matrix failed Cholesky") from exc
        self.__dict__.update(P=P, c=c, G=G, h=h)  # past the frozen __setattr__

    @classmethod
    def _over(cls, P, c, G, h):  # c, G and h: float arrays of matching shapes
        if not (np.isfinite(c).all() and np.isfinite(G).all() and np.isfinite(h).all()):
            raise NonFinite("non-finite entries in the QP data")
        p = object.__new__(cls)
        p.__dict__.update(P=P, c=c, G=G, h=h)
        return p


@dataclass(frozen=True)
class QpSolution:
    """A solve_qp result.  The objective and KKT residuals are computed from
    the problem kept here on first read, and cached (None and {} if infeasible)."""

    status: str  # "optimal" | "infeasible"
    z: np.ndarray | None = None
    active: tuple[int, ...] = ()
    lam: np.ndarray | None = None
    farkas: np.ndarray | None = None
    iterations: int = 0
    start: np.ndarray | None = None  # the feasible point the active set began at
    problem: QpProblem | None = field(default=None, repr=False)

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @cached_property
    def objective(self) -> float | None:
        p, z = self.problem, self.z
        return float(0.5 * z @ p.P @ z + p.c @ z) if self.optimal else None

    @cached_property
    def residuals(self) -> dict:
        if not self.optimal:
            return {}
        p, z, lam = self.problem, self.z, self.lam
        grad = p.P @ z + p.c + (p.G.T @ lam if p.G.size else 0.0)
        primal = float(np.maximum(p.G @ z - p.h, 0.0).max()) if p.G.size else 0.0
        comp = float(np.abs(lam * (p.G @ z - p.h)).max()) if p.G.size else 0.0
        return {"stationarity": float(np.abs(grad).max()), "primal": primal,
                "complementarity": comp}


def _feasible_start(G: np.ndarray, h: np.ndarray, g_norm: np.ndarray, hint):
    """(z, phase-1 LP solution) with G z <= h; z is None if the set is empty.

    A feasible hint is returned as is, with no LP solution.  Otherwise the
    LP max t s.t. g_i z + ||g_i|| t <= h_i, t <= max(1, max |h_i|) decides
    (a zero row keeps the coefficient 1, so an empty set still has a dual):
    the set is empty iff its optimal t < 0, and then its dual is a Farkas
    certificate.  t is a distance, so the point is the Chebyshev center,
    the center of the largest ball inside the rows, whatever their scale.
    The cap scales with h, so the point scales with the problem; on the
    held filter, whose h holds 1/dt, it never binds.
    """
    if hint is not None and (G @ hint <= h + 1e-11).all():
        return np.asarray(hint, dtype=float), None
    nz = G.shape[1]
    A = np.vstack([np.column_stack([-G, -np.where(g_norm > 0.0, g_norm, 1.0)]),
                   np.append(np.zeros(nz), -1.0)])
    b = np.concatenate([-h, [-max(1.0, np.abs(h).max())]])
    c = np.append(np.zeros(nz), 1.0)
    sol = lp_solve(LpProblem(c=c, A=A, b=b))
    if not sol.optimal or sol.objective < -1e-10:
        return None, sol
    return sol.x[:nz], sol


def solve_qp(p: QpProblem, start: np.ndarray | None = None) -> QpSolution:
    """Primal active-set method from a feasible point.

    The working set starts empty at the hint `start` if it is feasible,
    else at the phase-1 LP's Chebyshev center, and the solution reports
    that point as its `start`.  Rows are added/dropped with lowest-index
    tie-breaking, which makes the solve deterministic.  Strict convexity
    makes the optimum unique, whatever the start.

    Each iteration solves the KKT system, kept in one buffer, for the
    minimizer z_W on the working rows and steps along p = z_W - z; the
    right-hand side [-c; h_W] changes only as rows enter or leave.  The
    ratio test is one pass in Python floats over the sorted free rows, and
    a blocking row needs g @ p > 1e-12 ||g|| ||p||.  With no rank test, a
    row nearly in the working rows' span can enter, and the solve then
    cycles (test_qp.py::test_nearly_dependent_rows_terminate).
    """
    P, c, G, h = p.P, p.c, p.G, p.h
    nz = P.shape[0]
    g_norm = np.sqrt(np.add.reduce(G * G, axis=1))  # np.linalg.norm's formula
    if G.size:
        z, phase1 = _feasible_start(G, h, g_norm, start)
        if z is None:
            # Farkas-type certificate: y >= 0 with y @ G = 0, y @ h < 0
            return QpSolution(status="infeasible", farkas=(
                None if phase1.dual is None else phase1.dual[:-1]))
    else:
        z = start if start is not None else np.zeros(nz)
    z0 = z

    K = np.zeros((2 * nz, 2 * nz))  # at most nz rows work at once
    K[:nz, :nz] = P
    rhs = np.empty(2 * nz)
    rhs[:nz] = -c
    work: list[int] = []
    free = list(range(G.shape[0]))  # the rows outside the working set, sorted
    g_tol = (1e-12 * g_norm).tolist()
    for it in range(_MAX_ITER):
        k = nz + len(work)
        try:
            sol = np.linalg.solve(K[:k, :k], rhs[:k])
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K[:k, :k], rhs[:k], rcond=None)
        step_p = sol[:nz] - z
        p_norm = math.sqrt(step_p @ step_p)  # the same formula for a vector
        # with nz independent working rows p is zero but for round-off
        if len(work) == nz or p_norm <= 1e-11 * max(1.0, math.sqrt(z @ z)):
            lam_w = sol[nz:].tolist()
            if not lam_w or min(lam_w) >= -_OPT_TOL:
                break
            free = sorted([*free, work.pop(lam_w.index(min(lam_w)))])
            K[nz:k - 1, :nz] = G[work]
            K[:nz, nz:k - 1] = G[work].T
            rhs[nz:k - 1] = h[work]
            continue
        # longest step along p that stays feasible; the lowest index wins
        # among ratios within 1e-12 of the shortest
        alpha, blocker = 1.0, None
        if free:
            gp, slack = (G @ step_p).tolist(), (h - G @ z).tolist()
            ratios = [((slack[i] if slack[i] > 0.0 else 0.0) / gp[i], i)
                      for i in free if gp[i] > g_tol[i] * p_norm]
            if ratios and (shortest := min(ratios)[0]) < 1.0 - 1e-12:
                alpha, blocker = next(r for r in ratios if r[0] <= shortest + 1e-12)
        z = z + alpha * step_p
        if blocker is not None:
            K[k, :nz] = K[:nz, k] = G[blocker]
            rhs[k] = h[blocker]
            work.append(blocker)
            free.remove(blocker)
        # a full step with no blocker ends on the next stationarity check
    else:
        raise NumericalBreakdown("active-set iteration limit reached")

    lam = np.zeros(G.shape[0])
    for j, i in enumerate(work):
        lam[i] = max(lam_w[j], 0.0)
    return QpSolution(status="optimal", z=z, active=tuple(sorted(work)), lam=lam,
                      iterations=it + 1, start=z0, problem=p)


@dataclass(frozen=True)
class QpWeights:
    """Cost weights of the safeguarding program.

    Q, the input cost, is "identity" or a fixed symmetric positive definite
    matrix; the assembler builds the QP's Hessian from it once.
    """

    q_alpha: float = 1e4
    q_M: float = 1.0
    c_alpha: float = 40.0
    c_M: float = 1.0
    Q: object = "identity"

    def __post_init__(self):
        for name in ("q_alpha", "q_M", "c_alpha", "c_M"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if isinstance(self.Q, str):
            if self.Q != "identity":
                raise ValueError(f"Q must be 'identity' or a matrix, not {self.Q!r}")
            return
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        if not (Q.ndim == 2 and np.isfinite(Q).all() and np.array_equal(Q, Q.T)):
            raise ValueError("Q must be a finite symmetric matrix")
        try:
            np.linalg.cholesky(Q)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Q must be positive definite") from exc
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class SafeguardResult:
    u_star: np.ndarray
    alpha_star: float
    M_star: float
    B: float  # barrier value at x, from eval_B
    margins: np.ndarray  # barrier-row values at the optimizer, one per (term, i)
    solution: QpSolution | None
    fast_path: bool


class SafeguardAssembler:
    """The safety filter of one (cbf, plant, weights, input set) tuple,
    for an input held over the control period dt.

    Precomputes everything state-independent, and validates the QP's
    constant P once, so the per-step work is a handful of small matrix
    products and a finiteness check of the QP's c, G and h.

    With g_i the gradient of the affine B_i over x = (x1, x2) and
    Phi(x, u) = rk4_step(plant, u, x, dt) the held step, the row of
    (term ell, extended index i) reads

        g_i @ (Phi(x, u) - x) / dt + alpha * B_i(x) + M * (B(x) - B^ell(x)) >= 0.

    B_i is affine, so the row bounds the change of B_i over the step: the
    maximizing term gives B(x+) >= (1 - alpha dt) B(x), which keeps B >= 0
    at the samples of a sample-and-hold loop while alpha dt <= 1: the QP
    bounds alpha by 1/dt, and c_alpha dt > 1 is rejected.  The candidate
    u_nom is checked against the exact step; the QP uses Phi linearized in
    u at the last call's input (at u_nom on the first call), its input
    sensitivity the secant of Phi itself over a small input step.

    Consecutive solve calls follow one trajectory; a fresh assembler is
    the one-shot filter.
    """

    def __init__(self, cbf: ExtendedCbf, plant, weights: QpWeights,
                 input_set=None, dt: float = DT):
        if not 0 < dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if weights.c_alpha * dt > 1.0:
            raise ParameterViolation(
                f"c_alpha * dt = {weights.c_alpha * dt:.6g} exceeds 1; the held "
                "step keeps B >= 0 only while alpha * dt <= 1")
        self.cbf = cbf
        self.plant = plant
        self.weights = weights
        self.input_set = input_set if input_set is not None else Unbounded()
        self.dt = dt
        self.m = m = plant.m
        self._Q = np.eye(m) if isinstance(weights.Q, str) else weights.Q
        if self._Q.shape != (m, m):
            raise ValueError(f"Q must be {m} x {m} for a plant with m = {m} "
                             f"inputs, not {self._Q.shape[0]} x {self._Q.shape[1]}")
        self._Gu_rows, self._hu = self.input_set.rows(m)
        # the QP's rows G z <= h after the barrier rows: alpha >= c_alpha,
        # M >= c_M, alpha <= 1/dt, then the input set
        bounds = [(m, -1.0, -weights.c_alpha), (m + 1, -1.0, -weights.c_M),
                  (m, 1.0, 1.0 / dt)]
        self._G_fixed = np.zeros((len(bounds) + len(self._hu), m + 2))
        for k, (j, g, _) in enumerate(bounds):
            self._G_fixed[k, j] = g
        self._G_fixed[len(bounds):, :m] = self._Gu_rows
        self._h_fixed = np.concatenate([[b for _, _, b in bounds], self._hu])
        # the Hessian diag(2 Q, 2 q_alpha, 2 q_M), the same at every state, checked once
        self._P = np.zeros((m + 2, m + 2))
        self._P[:m, :m] = 2.0 * self._Q
        self._P[m, m] = 2.0 * weights.q_alpha
        self._P[m + 1, m + 1] = 2.0 * weights.q_M
        self._P.setflags(write=False)
        QpProblem(P=self._P, c=np.zeros(m + 2), G=self._G_fixed, h=self._h_fixed)
        self._u_last = self._start = None

    def _held_rate(self, x: np.ndarray, u_lin: np.ndarray):
        """(d, S) with (Phi(x, u) - x) / dt ~ d + S @ u near u_lin.

        S is the secant of the held step itself: column j is
        (Phi(x, u_lin + eps e_j) - Phi(x, u_lin)) / (eps dt), with
        eps = 1e-3 max(1, |u_lin|_inf).  So the filter reads the plant only
        through rk4_step, and the model is exact where Phi is affine in u.
        """
        plant, dt = self.plant, self.dt
        x_lin = rk4_step(plant, u_lin, x, dt)
        us = u_lin.tolist()  # Python floats perturb cheaper than arrays
        eps = 1e-3 * max(1.0, *map(abs, us))
        S = np.empty((x.size, len(us)))
        for j in range(len(us)):
            S[:, j] = rk4_step(plant, us[:j] + [us[j] + eps] + us[j + 1:], x, dt)
        S -= x_lin[:, None]
        S /= eps * dt
        return (x_lin - x) / dt - S @ u_lin, S

    def solve(self, x: np.ndarray, u_nom: np.ndarray | None = None) -> SafeguardResult:
        """Filter u_nom (zero when None) at state x, the next state along
        the trajectory of the previous calls.

        The last call's input is the one the held step is linearized at,
        and the last QP step's start point, its accepted hint or phase-1
        point, is the next one's hint: the phase-1 point is the Chebyshev
        center of the rows, as far from the nearest of them as any point,
        so it stays feasible while the rows move by O(dt), whereas the
        optimum lies on rows that move off it.
        """
        w, m, dt = self.weights, self.m, self.dt
        rows = self.cbf.rows
        x = np.asarray(x, dtype=float)
        act = eval_B(self.cbf, x)
        if act.value < -FEASIBILITY_MARGIN:
            raise Infeasible(
                f"state outside the feasibility neighborhood (B = {act.value:.4g})"
            )
        Bi = act.row_values
        lift = act.value - act.per_term_min[rows.row_term]
        u_nom = np.zeros(m) if u_nom is None else np.array(u_nom, dtype=float, ndmin=1)
        if u_nom.shape != (m,):
            raise ValueError(f"nominal input must have m = {m} entries, "
                             f"got shape {u_nom.shape}")
        # math.isfinite per entry costs a tenth of np.isfinite on a 2-vector
        if not all(map(math.isfinite, u_nom.tolist())):
            raise NonFinite("non-finite nominal input")

        # candidate: u unconstrained-optimal, alpha and M at their lower
        # bounds with positive multipliers; globally optimal if feasible
        rate = (rk4_step(self.plant, u_nom, x, dt) - x) / dt
        margins = rows.A @ rate + w.c_alpha * Bi + w.c_M * lift
        # an input set with no rows admits every u, as in contains
        if margins.min() >= -1e-11 and (
                not self._hu.size or (self._Gu_rows @ u_nom <= self._hu + 1e-11).all()):
            self._u_last = u_nom
            return SafeguardResult(u_star=u_nom, alpha_star=float(w.c_alpha),
                                   M_star=float(w.c_M), B=act.value,
                                   margins=margins, solution=None, fast_path=True)

        d, S = self._held_rate(x, u_nom if self._u_last is None else self._u_last)
        # barrier rows h_b - G_b @ z >= 0 over z = (u, alpha, M), then the
        # fixed rows, in fresh arrays, as a caller may keep each step's rows
        nb = Bi.size
        G = np.empty((nb + self._h_fixed.size, m + 2))
        h = np.empty(G.shape[0])
        np.negative(rows.A @ S, out=G[:nb, :m])
        G[:nb, m], G[:nb, m + 1], G[nb:] = -Bi, -lift, self._G_fixed
        np.matmul(rows.A, d, out=h[:nb])
        h[nb:] = self._h_fixed
        c = np.concatenate([-2.0 * self._Q @ u_nom, [0.0, 0.0]])
        sol = solve_qp(QpProblem._over(self._P, c, G, h), start=self._start)
        if not sol.optimal:
            raise Infeasible("safeguarding QP infeasible: the boundary safety "
                             "condition fails here or the input set is too small")
        self._u_last, self._start = sol.z[:m], sol.start
        margins = h[:nb] - G[:nb] @ sol.z
        return SafeguardResult(u_star=sol.z[:m], alpha_star=float(sol.z[m]),
                               M_star=float(sol.z[m + 1]), B=act.value,
                               margins=margins, solution=sol, fast_path=False)
