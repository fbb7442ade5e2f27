"""Dense linear programming by two-phase revised simplex on the dual.

Problems are stated as

    max  c @ x    s.t.  A @ x >= b,   x free,

which is the natural form for half-space geometry (every row is a
half-space membership requirement).  Its dual

    min  -b @ mu  s.t.  A.T @ mu = -c,   mu >= 0

is in standard form with one equation per variable, so the simplex runs
on it directly: x is read off its simplex multipliers and mu is its
basic solution.  Each simplex iteration inverts its basis afresh, and
the basic solution, the multipliers and the entering column are products
with that inverse; an inverse updated pivot by pivot gathers error, and
then calls a basis optimal whose x misses a row by far more than the
tolerance.  Phase 1's first basis is the identity, never inverted.
Instances here are tiny (a few variables, tens of rows), so the ratio
test is one pass in Python floats over the entering column d: each row
with d > PIVOT_TOL blocks at max(xB, 0) / d (no such row: the step is
unbounded), and of the rows within 1e-12 of the shortest ratio the one
with the smallest basis index leaves, Bland's anti-cycling tie-break.
Phase 1 stops once no artificial is basic.  Phase 2's reduced costs are
the residuals a_i @ x - b_i, so its optimality test (OPT_TOL) makes an
optimal x meet every row to about 1e-12.
tests/test_lp.py checks all this against scipy and by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBreakdown

FEAS_TOL = 1e-9
OPT_TOL = 1e-12
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
        self.__dict__.update(c=c, A=A, b=b)  # past the frozen __setattr__


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
    """Equality-form data  min cs @ z, As @ z = bs, z >= 0  with bs >= 0, and
    `Binv`, As[:, basis]'s inverse if known, for the first iteration only."""

    As: np.ndarray
    bs: np.ndarray
    cs: np.ndarray
    basis: list[int] = field(default_factory=list)
    Binv: np.ndarray | None = None


def _simplex_core(t: _Tableau, tol: float, n_real: int | None = None):
    """Run primal simplex on a tableau with a feasible starting basis.

    The basis is optimal once no reduced cost is below -tol, or once it
    holds no column >= n_real, if given (then xB and y read None).  Returns
    ("optimal", xB, y) or ("unbounded", entering_col, direction_d).
    """
    As, bs, cs = t.As, t.bs, t.cs
    bland = False
    degenerate = 0
    for _ in range(_MAX_ITER):
        if n_real is not None and max(t.basis, default=-1) < n_real:
            return "optimal", None, None
        Binv, t.Binv = t.Binv, None
        if Binv is None:
            try:
                Binv = np.linalg.inv(As[:, t.basis])
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown("singular basis in simplex") from exc
        xB = Binv @ bs
        y = cs[t.basis] @ Binv
        reduced = cs - As.T @ y
        reduced[t.basis] = 0.0
        if bland:
            improving = np.flatnonzero(reduced < -tol)
            if improving.size == 0:
                return "optimal", xB, y
            entering = int(improving[0])
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -tol:
                return "optimal", xB, y
        d = Binv @ As[:, entering]
        # (ratio, basis index) of each row that blocks the step
        rows = [(max(x, 0.0) / dr, j)
                for x, dr, j in zip(xB.tolist(), d.tolist(), t.basis) if dr > PIVOT_TOL]
        if not rows:
            return "unbounded", entering, d
        best = min(rows)[0]
        # smallest basis index among tied rows: anti-cycling tie-break
        leaving = min(j for q, j in rows if q <= best + 1e-12)
        if best <= FEAS_TOL:
            degenerate += 1
            if degenerate > _BLAND_AFTER:
                bland = True
        else:
            degenerate = 0
        t.basis[t.basis.index(leaving)] = entering
    raise NumericalBreakdown("simplex iteration limit reached")


def lp_solve(p: LpProblem) -> LpSolution:
    """Solve a dense LP; see LpProblem/LpSolution for conventions."""
    c, A, b = p.c, p.A, p.b
    m, n = A.shape

    # the dual  min -b @ mu  s.t.  A.T @ mu = -c, mu >= 0, each row signed
    # so that its right-hand side |c_j| is nonnegative
    sign = np.where(c > 0, -1.0, 1.0)
    bs = np.abs(c)
    As = sign[:, None] * A.T

    # phase 1: one artificial per dual row, written beside the dual's columns
    A1 = np.eye(n, m + n, m)
    A1[:, :m] = As
    c1 = np.zeros(m + n)
    c1[m:] = 1.0
    t = _Tableau(A1, bs, c1, basis=list(range(m, m + n)), Binv=np.eye(n))
    status, xB, y = _simplex_core(t, FEAS_TOL, m)
    assert status == "optimal"  # phase 1 is always bounded below by 0
    if xB is not None and c1[t.basis] @ xB > 1e-7:
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

    dropped = not keep.all()
    if dropped:   # a redundant dual row
        As, bs = As[keep], bs[keep]

    # phase 2: an unbounded dual means an empty primal
    t2 = _Tableau(As, bs, -b, basis=t.basis)
    status, xB, y = _simplex_core(t2, OPT_TOL)
    if status == "unbounded":
        return LpSolution(status="infeasible")
    # x is the dual's simplex multipliers, unsigned; mu its basic solution
    x = np.zeros(n) if dropped else -sign * y
    if dropped:
        x[keep] = -sign[keep] * y
    mu = np.zeros(m)
    mu[t2.basis] = xB
    return LpSolution("optimal", x, float(c @ x), mu)


def lp_feasible_point(A: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Return some x with A @ x >= b, or None if the polyhedron is empty."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sol = lp_solve(LpProblem(c=np.zeros(A.shape[1]), A=A, b=b))
    return sol.x if sol.optimal else None
