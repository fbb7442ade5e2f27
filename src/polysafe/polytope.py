"""Half-space geometry of the position constraint set.

A safety region is a union of intersections of half-spaces
{x1 | a_i @ x1 + b_i >= 0} (max-min of affine functions).  This module
validates such specifications, evaluates membership, and produces the
LP-backed geometry certificate (witness points y_I per intersecting
index set and the interior margin delta) required before the extended
barrier can be built.

All index sets are 0-based internally; the JSON serialization uses
1-based indices in `terms`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySet, ValidationError, integer, parsing, real
from .lp import LpProblem, lp_solve, lp_feasible_point

ENUMERATION_CAP = 20


@dataclass(frozen=True)
class HalfSpace:
    """{x | a @ x + b >= 0} with a nonzero direction and nonzero offset."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        vals = a.ravel().tolist()   # numpy's norm is sqrt(a @ a): 0 iff every v * v is
        if not all(map(math.isfinite, vals)) or not any(v * v for v in vals):
            raise ValidationError("half-space direction must be finite and nonzero")
        b = float(self.b)
        if b == 0.0 or not math.isfinite(b):
            raise ValidationError("half-space offset must be finite and nonzero")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


class TermRows:
    """Affine rows A @ x + b stacked term after term, built once.

    Row k is row ids[k] of the originating family (half-space or extended
    index) and belongs to term row_term[k]; term ell owns the rows
    spans[ell], which start at starts[ell].  The arrays are read-only.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray,
                 terms: tuple[tuple[int, ...], ...]):
        ids = [i for t in terms for i in t]
        self.A = np.array(A[ids], dtype=float)
        self.b = np.array(b[ids], dtype=float)
        self.ids = tuple(ids)
        sizes = [len(t) for t in terms]
        self.row_term = np.repeat(np.arange(len(terms)), sizes)
        self.starts = np.cumsum([0] + sizes[:-1])
        self.spans = tuple(range(s, s + k) for s, k in zip(self.starts.tolist(), sizes))
        for arr in (self.A, self.b, self.row_term, self.starts):
            arr.setflags(write=False)

    def term_rows(self, ell: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """(A, b, ids) of term ell, as read-only slices."""
        s = self.spans[ell]
        return self.A[s.start:s.stop], self.b[s.start:s.stop], self.ids[s.start:s.stop]


def max_min(rows: TermRows, X: np.ndarray):
    """(row values, per-term minima, max over terms) at X.

    X is one point (shape (d,)) or a batch (N x d); the row values are
    X @ A.T + b.  This is the one evaluation of both the position region h
    and the extended barrier B.
    """
    vals = X @ rows.A.T + rows.b
    mins = np.minimum.reduceat(vals, rows.starts, axis=-1)
    return vals, mins, mins.max(axis=-1)


@dataclass(frozen=True)
class SafetySpec:
    """Union-of-intersections position constraint over r half-spaces.

    `terms` lists, per union term, the 0-based indices of its
    half-spaces.  Every term must be a nonempty, feasible intersection,
    and distinct half-spaces must have linearly independent augmented
    vectors (a_i, b_i).  `A` (r x n) and `offsets` hold the half-spaces
    in index order and `rows` the term rows stacked for `max_min`.
    `term_extents` (terms x 2 x n) holds each term's `extents`, solved
    once (2n LPs per term): an empty term is rejected from those same
    LPs, and the certificate's boundedness test, the bounding box and
    the barrier's compactness and velocity extents read them, and
    `term_starts` their phase-1 bases (`velocity_extents`).  All are built
    once and read-only.
    """

    halfspaces: tuple[HalfSpace, ...]
    terms: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        hs = tuple(self.halfspaces)
        terms = tuple(tuple(int(i) for i in t) for t in self.terms)
        object.__setattr__(self, "halfspaces", hs)
        object.__setattr__(self, "terms", terms)
        if not hs:
            raise ValidationError("at least one half-space required")
        if any(h.a.size != self.n for h in hs):
            raise ValidationError(f"half-space dimension != n={self.n}")
        r = len(hs)
        if not terms or any(len(t) == 0 for t in terms):
            raise ValidationError("terms must be nonempty")
        for t in terms:
            if any(i < 0 or i >= r for i in t):
                raise ValidationError(f"term index out of range 0..{r - 1}: {t}")
            if len(set(t)) != len(t):
                raise ValidationError(f"duplicate index in term {t}")
        A = np.array([h.a for h in hs])
        offsets = np.array([h.b for h in hs])
        aug = np.column_stack([A, offsets])
        pairs = np.array(list(itertools.combinations(range(r), 2)),
                         dtype=int).reshape(-1, 2)
        dependent = pairs[np.linalg.matrix_rank(aug[pairs], tol=1e-12) < 2]
        if dependent.size:
            i, j = dependent[0]
            raise ValidationError(
                f"half-spaces {i} and {j} have dependent augmented vectors"
            )
        rows = TermRows(A, offsets, terms)
        solved = []
        for li in range(len(terms)):
            try:
                solved.append(_extents(*rows.term_rows(li)[:2]))
            except EmptySet:
                raise ValidationError(f"term {li} is an empty intersection") from None
        ext, starts = zip(*solved)
        for name, arr in (("A", A), ("offsets", offsets),
                          ("term_extents", np.array(ext))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "term_starts", starts)

    @property
    def r(self) -> int:
        return len(self.halfspaces)

    # --- serialization (1-based term indices on the wire) ---

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "halfspaces": [{"a": list(h.a), "b": h.b} for h in self.halfspaces],
            "terms": [[i + 1 for i in t] for t in self.terms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SafetySpec":
        """Inverse of to_dict; raises ValidationError naming a bad field."""
        if not isinstance(d, dict):
            raise ValidationError(f"spec must be a JSON object, not {type(d).__name__}")

        with parsing("spec field 'halfspaces'", ValidationError):
            hs = tuple(HalfSpace(real(e["a"], "a"), real(e["b"], "b"))
                       for e in d["halfspaces"])
        with parsing("spec field 'terms'", ValidationError):
            terms = tuple(tuple(integer(i, "terms") - 1 for i in t)
                          for t in d["terms"])
        with parsing("spec field 'n'", ValidationError):
            n = integer(d["n"], "n")
        return cls(halfspaces=hs, terms=terms, n=n)


@dataclass(frozen=True)
class GeometryCert:
    """Witness points and interior margin certifying the standing assumption.

    delta = min over stored (I, i in I) of h_i(y_I) and is strictly
    positive.  `s_cap` lists the witnessed index sets in canonical order:
    by size, then by sorted members.
    """

    witnesses: dict[frozenset[int], np.ndarray]
    delta: float

    @property
    def s_cap(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.witnesses, key=lambda I: (len(I), sorted(I))))


def eval_h(spec: SafetySpec, x1: np.ndarray) -> float:
    """Max over terms of min over term members of a_i @ x1 + b_i."""
    return float(max_min(spec.rows, np.asarray(x1, dtype=float))[2])


def eval_h_many(spec: SafetySpec, X: np.ndarray) -> np.ndarray:
    """Vectorized eval_h over rows of X (N x n)."""
    return max_min(spec.rows, np.asarray(X, dtype=float))[2]


def contains(spec: SafetySpec, x1: np.ndarray) -> bool:
    return eval_h(spec, x1) >= 0.0


def extents(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo[j] = min x_j, hi[j] = max x_j over {x | A @ x + b >= 0},
    from the LPs c = +-e_j, each with its phase 1 (`velocity_extents` skips it).

    An unbounded LP gives -inf or +inf; an empty set raises EmptySet.
    """
    return _extents(A, b)[0]


def _extents(A, b, starts=None):
    """`extents` with LP k started from starts[k], and the LPs' `start`s.
    (A, b) is checked once, and the 2n LPs are built over the checked data."""
    d = A.shape[1]
    lo, hi = np.empty((2, d))
    found = []
    p = LpProblem(c=np.zeros(d), A=A, b=-b)
    for j in range(d):
        for sign, out in ((1.0, hi), (-1.0, lo)):
            c = np.zeros(d)
            c[j] = sign
            sol = lp_solve(LpProblem._over(c, p.A, p.b), starts and starts[len(found)])
            found.append(sol.start)
            if sol.status == "infeasible":
                raise EmptySet("half-space intersection is empty")
            out[j] = sol.x[j] if sol.optimal else sign * np.inf
    return (lo, hi), tuple(found)


def vertices(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vertices (k x n) of {x | A @ x + b >= 0}: every n rows with
    |det| >= 1e-12 solved as equalities, kept where no row is below -1e-9.
    Not rounded, and a vertex on more than n rows repeats."""
    n = A.shape[1]
    idx = np.array(list(itertools.combinations(range(len(b)), n)), dtype=int).reshape(-1, n)
    idx = idx[np.abs(np.linalg.det(A[idx])) >= 1e-12]
    X = np.linalg.solve(A[idx], -b[idx][..., None])[..., 0]
    return X[(X @ A.T + b >= -1e-9).all(axis=1)]


def velocity_extents(spec: SafetySpec, rho: float) -> np.ndarray:
    """Per term P, the 2 x n extents (lo_rho - hi, hi_rho - lo) of P_rho - P,
    P_rho its rows shrunk to a_i @ x + b_i >= rho, from its LPs in phase 2 only
    (the spec's `term_starts`); gamma times them bound the barrier's x2."""
    out = []
    for ell, (lo, hi) in enumerate(spec.term_extents):
        A, b, _ = spec.rows.term_rows(ell)
        lo_rho, hi_rho = _extents(A, b - rho, spec.term_starts[ell])[0]
        out.append((lo_rho - hi, hi_rho - lo))
    return np.array(out)


def enumerate_s_cap(spec: SafetySpec) -> list[frozenset[int]]:
    """All nonempty I whose half-space intersection meets the safety set.

    Exhaustive over the 2^r - 1 subsets with one feasibility LP per
    distinct union I | term that is not a term itself (the spec has
    shown every term nonempty); capped at r <= ENUMERATION_CAP.
    """
    if spec.r > ENUMERATION_CAP:
        raise ValidationError(f"r={spec.r} exceeds enumeration cap {ENUMERATION_CAP}")
    term_sets = [frozenset(t) for t in spec.terms]
    cache = dict.fromkeys(term_sets, True)
    result = []
    for size in range(1, spec.r + 1):
        for combo in itertools.combinations(range(spec.r), size):
            I = frozenset(combo)
            for t in term_sets:
                union = t if I <= t else I | t   # I inside a term: the term itself
                if union not in cache:
                    idx = sorted(union)
                    cache[union] = lp_feasible_point(
                        spec.A[idx], -spec.offsets[idx]) is not None
                if cache[union]:
                    result.append(I)
                    break
    return result


def max_min_point(spec: SafetySpec, I: frozenset[int]) -> tuple[np.ndarray, float]:
    """Best interior witness y_I = argmax over C of min_{i in I} h_i.

    Solves one margin-maximization LP per term whose intersection with
    the I half-spaces is nonempty; returns the optimal vertex of the best
    term's LP and its margin.  Ties across terms break toward the lowest
    term index.  Each term row is held 1e-12 max(1, |b_i|) inside, so the
    vertex lies in C although the LP meets a row only to round-off.  The
    margin LP is degenerate, with a face of maximizers, and the witness is
    whichever vertex the simplex reaches: a change to the pivoting in
    lp.py may move it (a pinned witness does not move).
    """
    I = frozenset(I)
    idx_I = sorted(I)
    n = spec.n
    best = None
    for t in spec.terms:
        # variables (x, t_margin); maximize t_margin with h_i(x) >= t_margin
        # on I and h_i(x) >= its floor on the term
        idx = idx_I + sorted(t)
        margin_col = np.concatenate([-np.ones(len(idx_I)), np.zeros(len(t))])
        A, b = np.column_stack([spec.A[idx], margin_col]), -spec.offsets[idx]
        b[len(idx_I):] += 1e-12 * np.maximum(1.0, np.abs(b[len(idx_I):]))
        c = np.zeros(n + 1)
        c[-1] = 1.0
        sol = lp_solve(LpProblem(c=c, A=A, b=b))
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            raise ValidationError("witness margin LP unbounded; positions not compact")
        if best is None or sol.objective > best[1] + 1e-12:
            best = (sol.x[:n], sol.objective)
    if best is None:
        raise ValidationError(f"index set {sorted(I)} does not meet the safety set")
    y, margin = best
    if margin <= 0.0:
        raise ValidationError(
            f"no interior witness for {sorted(I)}: best margin {margin:.3e}"
        )
    return y, float(margin)


def compute_cert(spec: SafetySpec, overrides=None) -> GeometryCert:
    """Assemble the geometry certificate.

    Each index set's witness is `overrides`, one point pinned for all, if
    given, and else max_min_point's LP vertex, which lies in C and may move
    when lp.py's pivoting changes.  Every witness's margin is evaluated at
    the witness: its r row values h_i(y) once, then their minimum over
    each I, so delta is the smallest margin one attains.  Boundedness is
    read from the spec's stored term extents.  Raises ValidationError if
    any term is unbounded or a witness fails its strict margin.
    """
    for li, lo_hi in enumerate(spec.term_extents):
        if not np.isfinite(lo_hi).all():
            raise ValidationError(f"term {li} is unbounded")
    s_cap = enumerate_s_cap(spec)
    pinned = None if overrides is None else np.asarray(overrides, dtype=float)
    if pinned is not None:
        if not contains(spec, pinned):
            raise ValidationError("override witness lies outside the safety set")
        vals = (pinned @ spec.A.T + spec.offsets).tolist()
        delta = min(vals[i] for i in frozenset().union(*s_cap))   # the rows s_cap covers
        if delta > 0.0:
            return GeometryCert(witnesses=dict.fromkeys(s_cap, pinned), delta=float(delta))
    return certify_witnesses(spec, ((I, max_min_point(spec, I)[0] if pinned is None
                                     else pinned) for I in s_cap))


def certify_witnesses(spec: SafetySpec, pairs) -> GeometryCert:
    """The certificate of the witnesses (I, y_I) in `pairs`, read in order:
    each margin min_{i in I} h_i(y_I) must be positive (ValidationError
    naming I if not), and delta is the smallest of them."""
    witnesses: dict[frozenset[int], np.ndarray] = {}
    delta = np.inf
    for I, y in pairs:
        # a few rows: plain Python beats numpy's per-call cost here
        vals = (y @ spec.A.T + spec.offsets).tolist()
        margin = min(vals[i] for i in I)
        if not 0.0 < margin < math.inf:   # a non-finite y has no finite margin
            raise ValidationError(f"witness for {sorted(I)} lacks a positive margin")
        witnesses[I] = y
        delta = min(delta, margin)
    return GeometryCert(witnesses=witnesses, delta=float(delta))


def position_bounding_box(spec: SafetySpec) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) axis-aligned bounds of the safety set: the stored term extents' hull."""
    ext = spec.term_extents
    if not np.isfinite(ext).all():
        raise ValidationError("term unbounded while computing bounds")
    return ext[:, 0].min(axis=0), ext[:, 1].max(axis=0)


# canonical example geometries -------------------------------------------------

def hexagon_spec() -> SafetySpec:
    """Hexagonal joint-angle region with vertices (+-pi/2, +-pi/2), (0, +-pi)."""
    rows = [
        ((-1.0, 0.0), np.pi / 2),
        ((1.0, 0.0), np.pi / 2),
        ((-1.0, -1.0), np.pi),
        ((1.0, 1.0), np.pi),
        ((-1.0, 1.0), np.pi),
        ((1.0, -1.0), np.pi),
    ]
    hs = tuple(HalfSpace(np.array(a), b) for a, b in rows)
    return SafetySpec(halfspaces=hs, terms=((0, 1, 2, 3, 4, 5),), n=2)


def slab_spec(width: float = 1.0) -> SafetySpec:
    """1-D slab -width <= x <= width."""
    hs = (HalfSpace(np.array([1.0]), width), HalfSpace(np.array([-1.0]), width))
    return SafetySpec(halfspaces=hs, terms=((0, 1),), n=1)
