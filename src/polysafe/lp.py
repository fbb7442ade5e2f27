"""Dense linear programming by two-phase revised simplex on the dual.

Problems are stated as

    max  c @ x    s.t.  A @ x >= b,   x free,

which is the natural form for half-space geometry (every row is a
half-space membership requirement).  Its dual

    min  -b @ mu  s.t.  A.T @ mu = -c,   mu >= 0

is in standard form with one equation per variable, so the simplex runs
on it directly: x is read off its simplex multipliers and mu is its
basic solution.  Instances in this package are tiny (a few variables,
tens of rows), so each iteration refactorizes the basis; robustness is
preferred over speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-12
_MAX_ITER = 20000
_BLAND_AFTER = 60  # consecutive degenerate pivots before switching rules


@dataclass(frozen=True)
class LpProblem:
    """max c @ x subject to A @ x >= b."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if A.shape != (b.size, c.size):
            raise ValueError(f"shape mismatch: A{A.shape}, b({b.size},), c({c.size},)")
        if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
            raise ValueError("non-finite coefficients in LP data")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class LpSolution:
    """Status-tagged solve result.

    For an `optimal` solve, `dual` holds multipliers mu >= 0
    with c + A.T @ mu = 0 and mu_i * (a_i @ x - b_i) = 0; the dual
    objective is -b @ mu.  For `unbounded`, `ray` is an improving
    direction (inf-norm 1) that stays feasible.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None
    ray: np.ndarray | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


@dataclass
class _Tableau:
    """Equality-form data  min cs @ z, As @ z = bs, z >= 0  with bs >= 0."""

    As: np.ndarray
    bs: np.ndarray
    cs: np.ndarray
    basis: list[int] = field(default_factory=list)


def _simplex_core(t: _Tableau):
    """Run primal simplex on a tableau with a feasible starting basis.

    Returns ("optimal", xB, y) or ("unbounded", entering_col, direction_d).
    """
    As, bs, cs = t.As, t.bs, t.cs
    m = As.shape[0]
    bland = False
    degenerate = 0
    for _ in range(_MAX_ITER):
        B = As[:, t.basis]
        try:
            xB = np.linalg.solve(B, bs)
            y = np.linalg.solve(B.T, cs[t.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("singular basis in simplex") from exc
        reduced = cs - As.T @ y
        reduced[t.basis] = 0.0
        if bland:
            improving = np.flatnonzero(reduced < -FEAS_TOL)
            if improving.size == 0:
                return "optimal", xB, y
            entering = int(improving[0])
        else:
            entering = int(np.argmin(reduced))
            if reduced[entering] >= -FEAS_TOL:
                return "optimal", xB, y
        d = np.linalg.solve(B, As[:, entering])
        positive = d > PIVOT_TOL
        if not positive.any():
            return "unbounded", entering, d
        ratios = np.full(m, np.inf)
        ratios[positive] = np.maximum(xB[positive], 0.0) / d[positive]
        best = ratios.min()
        # smallest basis index among tied rows: anti-cycling tie-break
        tied = np.flatnonzero(ratios <= best + 1e-12)
        leaving = int(min(tied, key=lambda r: t.basis[r]))
        if abs(d[leaving]) < PIVOT_TOL:
            if not bland:
                bland = True
                continue
            raise NumericalBreakdown("pivot below tolerance under Bland's rule")
        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate > _BLAND_AFTER:
                bland = True
        else:
            degenerate = 0
        t.basis[leaving] = entering
    raise NumericalBreakdown("simplex iteration limit reached")


def lp_solve(p: LpProblem) -> LpSolution:
    """Solve a dense LP; see LpProblem/LpSolution for conventions."""
    c, A, b = p.c, p.A, p.b
    m, n = A.shape

    # the dual  min -b @ mu  s.t.  A.T @ mu = -c, mu >= 0, each row signed
    # so that its right-hand side |c_j| is nonnegative
    sign = np.where(c > 0, -1.0, 1.0)
    As = sign[:, None] * A.T
    bs = np.abs(c)

    # phase 1: one artificial per dual row
    A1 = np.hstack([As, np.eye(n)])
    c1 = np.concatenate([np.zeros(m), np.ones(n)])
    t = _Tableau(A1, bs, c1, basis=list(range(m, m + n)))
    status, xB, y = _simplex_core(t)
    assert status == "optimal"  # phase 1 is always bounded below by 0
    if c1[t.basis] @ xB > 1e-7:
        # no dual solution; the phase-1 multipliers give A @ ray >= 0 and
        # c @ ray > 0, so the LP is unbounded unless it is infeasible
        if lp_feasible_point(A, b) is None:
            return LpSolution(status="infeasible")
        return LpSolution(status="unbounded", ray=-sign * y / np.abs(y).max())

    # drive leftover (degenerate) artificials out of the basis; one that
    # cannot leave marks its own dual row as redundant
    keep = np.ones(n, dtype=bool)
    for art in [j for j in t.basis if j >= m]:
        k = t.basis.index(art)
        tab_row = np.linalg.solve(A1[np.ix_(keep, t.basis)], As[keep])[k]
        entering = [j for j in np.flatnonzero(np.abs(tab_row) > 1e-9)
                    if j not in t.basis]
        if entering:
            t.basis[k] = int(entering[0])
        else:
            keep[art - m] = False
            del t.basis[k]

    # phase 2: an unbounded dual means an empty primal
    t2 = _Tableau(As[keep], bs[keep], -b, basis=t.basis)
    status, xB, y = _simplex_core(t2)
    if status == "unbounded":
        return LpSolution(status="infeasible")
    # x is the dual's simplex multipliers, unsigned; mu its basic solution
    x = np.zeros(n)
    x[keep] = -sign[keep] * y
    mu = np.zeros(m)
    mu[t2.basis] = xB
    return LpSolution(status="optimal", x=x, objective=float(c @ x), dual=mu)


def lp_feasible_point(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Return some x with A @ x >= b, or None if the polyhedron is empty."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sol = lp_solve(LpProblem(c=np.zeros(A.shape[1]), A=A, b=b))
    return sol.x if sol.optimal else None
