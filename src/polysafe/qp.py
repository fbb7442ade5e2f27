"""Strictly convex dense QP solver and the safeguarding controller.

The controller minimally modifies a nominal command subject to one
barrier-derivative row per (term, extended index) pair, with the
class-K slope alpha and the max-min coupling weight M as additional
decision variables bounded below by c_alpha and c_M.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cbf import ExtendedCbf, eval_B
from .errors import (
    Infeasible,
    NonFinite,
    NotPositiveDefinite,
    NumericalBreakdown,
    ParameterViolation,
)
from .inputs import Unbounded
from .lp import LpProblem, lp_solve
from .plant import rk4_step

_OPT_TOL = 1e-9
_MAX_ITER = 200
FEASIBILITY_MARGIN = 0.1  # the filter refuses states with B below -this


@dataclass(frozen=True)
class QpProblem:
    """min 0.5 z @ P @ z + c @ z  s.t.  G @ z <= h, with P symmetric PD and
    every entry finite."""

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
            raise NotPositiveDefinite("cost matrix is not symmetric")
        diag = P.diagonal()
        # a diagonal P with a positive diagonal is PD as it stands
        if not ((diag > 0).all() and np.count_nonzero(P) == diag.size):
            try:
                np.linalg.cholesky(P)
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefinite("cost matrix failed Cholesky") from exc
        for name, arr in (("P", P), ("c", c), ("G", G), ("h", h)):
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class QpSolution:
    status: str  # "optimal" | "infeasible"
    z: np.ndarray | None = None
    objective: float | None = None
    active: tuple[int, ...] = ()
    lam: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    farkas: np.ndarray | None = None
    iterations: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _feasible_start(G: np.ndarray, h: np.ndarray, hint):
    """(z, phase-1 LP solution) with G z <= h; z is None if the set is empty.

    A feasible hint is returned as is, with no LP solution.  Otherwise the
    LP max t s.t. G z + t <= h, t <= 1 decides: the set is empty iff its
    optimal t < 0, and then its dual is a Farkas certificate.
    """
    if hint is not None and (G @ hint <= h + 1e-11).all():
        return np.asarray(hint, dtype=float), None
    nz = G.shape[1]
    A = np.vstack([np.hstack([-G, -np.ones((G.shape[0], 1))]),
                   np.append(np.zeros(nz), -1.0)])
    b = np.concatenate([-h, [-1.0]])
    c = np.append(np.zeros(nz), 1.0)
    sol = lp_solve(LpProblem(c=c, A=A, b=b))
    if not sol.optimal or sol.objective < -1e-10:
        return None, sol
    return sol.x[:nz], sol


def solve_qp(p: QpProblem, start: np.ndarray | None = None) -> QpSolution:
    """Primal active-set method from a feasible point.

    The working set starts empty at the phase-1 point (or caller hint)
    and rows are added/dropped with lowest-index tie-breaking, which
    makes the solve deterministic.  Strict convexity makes the optimum
    unique.

    The working rows stay linearly independent without a rank test: the
    KKT solve gives Gw @ p = 0, so any row in their span has g @ p = 0 up
    to round-off, while a blocking row needs g @ p > 1e-12 ||g|| ||p||.
    The KKT matrix lives in one buffer per solve, its constraint block
    rewritten whenever the working set changes.
    """
    P, c, G, h = p.P, p.c, p.G, p.h
    nz = P.shape[0]
    if G.size:
        z, phase1 = _feasible_start(G, h, start)
        if z is None:
            # Farkas-type certificate: y >= 0 with y @ G = 0, y @ h < 0
            return QpSolution(status="infeasible", farkas=(
                None if phase1.dual is None else phase1.dual[:-1]))
    else:
        z = start if start is not None else np.zeros(nz)

    g_norm = np.linalg.norm(G, axis=1)
    K = np.zeros((nz + G.shape[0], nz + G.shape[0]))
    K[:nz, :nz] = P
    rhs = np.zeros(nz + G.shape[0])
    work: list[int] = []
    in_work = np.zeros(G.shape[0], dtype=bool)
    lam_w = np.zeros(0)
    for it in range(_MAX_ITER):
        k = nz + len(work)
        rhs[:nz] = -(P @ z + c)
        try:
            sol = np.linalg.solve(K[:k, :k], rhs[:k])
        except np.linalg.LinAlgError:
            sol, *_ = np.linalg.lstsq(K[:k, :k], rhs[:k], rcond=None)
        step_p = sol[:nz]
        lam_w = sol[nz:]
        p_norm = np.linalg.norm(step_p)
        if p_norm <= 1e-11 * max(1.0, np.linalg.norm(z)):
            if len(work) == 0 or (lam_w >= -_OPT_TOL).all():
                break
            worst = int(np.argmin(lam_w))
            in_work[work.pop(worst)] = False
            K[nz:k - 1, :nz] = G[work]
            K[:nz, nz:k - 1] = G[work].T
            continue
        # longest step along p that stays feasible; the lowest index wins
        # among ratios within 1e-12 of the shortest
        alpha = 1.0
        blocker = None
        if G.size:
            gp = G @ step_p
            rising = (gp > 1e-12 * g_norm * p_norm) & ~in_work
            ratio = np.full(G.shape[0], np.inf)
            ratio[rising] = np.maximum(h[rising] - G[rising] @ z, 0.0) / gp[rising]
            shortest = ratio.min()
            if shortest < 1.0 - 1e-12:
                blocker = int(np.argmax(ratio <= shortest + 1e-12))
                alpha = ratio[blocker]
        z = z + alpha * step_p
        if blocker is not None:
            K[k, :nz] = K[:nz, k] = G[blocker]
            work.append(blocker)
            in_work[blocker] = True
        # a full step with no blocker ends on the next stationarity check
    else:
        raise NumericalBreakdown("active-set iteration limit reached")

    lam = np.zeros(G.shape[0])
    for j, i in enumerate(work):
        lam[i] = max(lam_w[j], 0.0) if lam_w.size else 0.0
    grad = P @ z + c + (G.T @ lam if G.size else 0.0)
    primal = float(np.maximum(G @ z - h, 0.0).max()) if G.size else 0.0
    comp = float(np.abs(lam * (G @ z - h)).max()) if G.size else 0.0
    residuals = {
        "stationarity": float(np.linalg.norm(grad, np.inf)),
        "primal": primal,
        "complementarity": comp,
    }
    return QpSolution(status="optimal", z=z,
                      objective=float(0.5 * z @ P @ z + c @ z),
                      active=tuple(sorted(work)), lam=lam,
                      residuals=residuals, iterations=it + 1)


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
    row_labels: tuple[tuple[int, int], ...]  # (term, extended index)
    solution: QpSolution | None
    fast_path: bool


class SafeguardAssembler:
    """Reusable row assembly for one (cbf, plant, weights, input set) tuple.

    Precomputes everything state-independent so the per-step work is a
    handful of small matrix products; used directly by the simulator.

    With g_i the gradient of the affine B_i over x = (x1, x2), the row of
    (term ell, extended index i) reads

        g_i @ rate(u) + alpha * B_i(x) + M * (B(x) - B^ell(x)) >= 0.

    Without a hold period `dt`, rate(u) is the instantaneous xdot, so the
    row bounds Bdot_i.  With one, rate(u) = (Phi(x, u) - x) / dt for the
    held step Phi(x, u) = rk4_step(plant, u, x, dt).  B_i is affine, so the
    row then bounds the change of B_i over the step: the maximizing term
    gives B(x+) >= (1 - alpha dt) B(x), which keeps B >= 0 at the samples
    of a sample-and-hold loop, not only as dt -> 0, while alpha dt <= 1:
    the QP bounds alpha by 1/dt, and c_alpha dt > 1 is rejected.
    The candidate u_nom is checked against the exact rate; the QP uses Phi
    linearized in u at the previous optimizer (warm start) or at u_nom,
    with its input sensitivity correct to second order in dt.
    """

    def __init__(self, cbf: ExtendedCbf, plant, weights: QpWeights,
                 input_set=None, dt: float | None = None):
        if dt is not None and not dt > 0:
            raise ValueError("dt must be positive")
        if dt is not None and weights.c_alpha * dt > 1.0:
            raise ParameterViolation(
                f"c_alpha * dt = {weights.c_alpha * dt:.6g} exceeds 1; the held "
                "step keeps B >= 0 only while alpha * dt <= 1")
        self.cbf = cbf
        self.plant = plant
        self.weights = weights
        self.input_set = input_set if input_set is not None else Unbounded()
        self.dt = dt
        self.m = m = plant.m
        self.row_labels = tuple(zip(cbf.rows.row_term.tolist(), cbf.rows.ids))
        self._Gu_rows, self._hu = self.input_set.rows(m)
        # the QP's rows G z <= h after the barrier rows: alpha >= c_alpha,
        # M >= c_M, with a hold period alpha <= 1/dt, then the input set
        bounds = [(m, -1.0, -weights.c_alpha), (m + 1, -1.0, -weights.c_M)]
        if dt is not None:
            bounds.append((m, 1.0, 1.0 / dt))
        self._G_fixed = np.zeros((len(bounds) + len(self._hu), m + 2))
        for k, (j, g, _) in enumerate(bounds):
            self._G_fixed[k, j] = g
        self._G_fixed[len(bounds):, :m] = self._Gu_rows
        self._h_fixed = np.concatenate([[b for _, _, b in bounds], self._hu])
        # the Hessian diag(2 Q, 2 q_alpha, 2 q_M) is the same at every state
        self._Q = np.eye(m) if isinstance(weights.Q, str) else weights.Q
        self._P = np.zeros((m + 2, m + 2))
        self._P[:m, :m] = 2.0 * self._Q
        self._P[m, m] = 2.0 * weights.q_alpha
        self._P[m + 1, m + 1] = 2.0 * weights.q_M
        self._P.setflags(write=False)
        self._warm = None

    def _instant_rate(self, x: np.ndarray):
        """(d, S) with xdot(x, u) = d + S @ u."""
        n = self.plant.n
        x1, x2 = x[:n], x[n:]
        G2 = np.atleast_2d(self.plant.G2(x1))
        d = np.concatenate([x2, np.atleast_1d(self.plant.f2(x1, x2))])
        return d, np.vstack([np.zeros((n, self.m)), G2])

    def _held_rate(self, x: np.ndarray, u_lin: np.ndarray):
        """(d, S) with (Phi(x, u) - x) / dt ~ d + S @ u near u_lin.

        The sensitivity is dPhi/du / dt to second order in dt: x1 moves by
        dt^2/2 G2 du, and x2 by dt G2 du + dt^2/2 (DG2[x2] + df2/dx2 G2) du,
        the bracket taken by forward differences over a short time tau.
        """
        plant, n, dt = self.plant, self.plant.n, self.dt
        x1, x2 = x[:n], x[n:]
        x_lin = rk4_step(plant, u_lin, x, dt)
        G2 = np.atleast_2d(plant.G2(x1))
        f2 = np.atleast_1d(plant.f2(x1, x2))
        tau = 1e-3 * dt
        jerk_u = (np.atleast_2d(plant.G2(x1 + tau * x2)) - G2) / tau + np.column_stack(
            [(np.atleast_1d(plant.f2(x1, x2 + tau * g)) - f2) / tau for g in G2.T])
        S = np.vstack([0.5 * dt * G2, G2 + 0.5 * dt * jerk_u])
        return (x_lin - x) / dt - S @ u_lin, S

    def solve(self, x: np.ndarray, u_nom: np.ndarray | None = None,
              warm_start: bool = False) -> SafeguardResult:
        """Filter u_nom (zero when None) at state x.

        warm_start: consecutive calls along one trajectory; the previous
        optimizer seeds the active-set start and, with a hold period, is
        the input the held step is linearized at.
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

        # candidate: u unconstrained-optimal, alpha and M at their lower
        # bounds with positive multipliers; globally optimal if feasible
        if dt is None:
            d, S = self._instant_rate(x)
            rate = d + S @ u_nom
        else:
            rate = (rk4_step(self.plant, u_nom, x, dt) - x) / dt
        margins = rows.A @ rate + w.c_alpha * Bi + w.c_M * lift
        # an input set with no rows admits every u, as in contains
        if margins.min() >= -1e-11 and (
                not self._hu.size or (self._Gu_rows @ u_nom <= self._hu + 1e-11).all()):
            z_cand = np.concatenate([u_nom, [w.c_alpha, w.c_M]])
            if warm_start:
                self._warm = z_cand
            return SafeguardResult(u_star=z_cand[:m], alpha_star=float(w.c_alpha),
                                   M_star=float(w.c_M), B=act.value,
                                   margins=margins, row_labels=self.row_labels,
                                   solution=None, fast_path=True)

        if dt is not None:
            warm = warm_start and self._warm is not None
            d, S = self._held_rate(x, self._warm[:m] if warm else u_nom)
        # rows coef @ z + const >= 0 over z = (u, alpha, M)
        coef = np.column_stack([rows.A @ S, Bi, lift])
        const = rows.A @ d
        G = np.vstack([-coef, self._G_fixed])
        h = np.concatenate([const, self._h_fixed])

        c = np.concatenate([-2.0 * self._Q @ u_nom, [0.0, 0.0]])
        prob = QpProblem(P=self._P, c=c, G=G, h=h)
        start = self._warm if warm_start else None
        sol = solve_qp(prob, start=start)
        if not sol.optimal:
            raise Infeasible("safeguarding QP infeasible: the boundary safety "
                             "condition fails here or the input set is too small")
        if warm_start:
            self._warm = sol.z
        margins = coef @ sol.z + const
        return SafeguardResult(u_star=sol.z[:m], alpha_star=float(sol.z[m]),
                               M_star=float(sol.z[m + 1]), B=act.value,
                               margins=margins, row_labels=self.row_labels,
                               solution=sol, fast_path=False)
