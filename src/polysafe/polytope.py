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
import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolated,
    EmptySet,
    TooManyHalfspaces,
    UnboundedPositions,
    ValidationError,
    parsing,
)
from .lp import LpProblem, lp_solve, lp_feasible_point

ENUMERATION_CAP = 20


@dataclass(frozen=True)
class HalfSpace:
    """{x | a @ x + b >= 0} with a nonzero direction and nonzero offset."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        if not np.isfinite(a).all() or np.linalg.norm(a) == 0.0:
            raise ValidationError("half-space direction must be finite and nonzero")
        b = float(self.b)
        if b == 0.0 or not np.isfinite(b):
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
    in index order and `rows` the term rows stacked for `max_min`; all
    are built once.
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
        for i, j in itertools.combinations(range(r), 2):
            if np.linalg.matrix_rank(aug[[i, j]], tol=1e-12) < 2:
                raise ValidationError(
                    f"half-spaces {i} and {j} have dependent augmented vectors"
                )
        for name, arr in (("A", A), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rows", TermRows(A, offsets, terms))
        for li in range(len(terms)):
            At, bt, _ = self.rows.term_rows(li)
            if lp_feasible_point(At, -bt) is None:
                raise ValidationError(f"term {li} is an empty intersection")

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
            hs = tuple(HalfSpace(np.array(e["a"], dtype=float), float(e["b"]))
                       for e in d["halfspaces"])
        with parsing("spec field 'terms'", ValidationError):
            terms = tuple(tuple(int(i) - 1 for i in t) for t in d["terms"])
        with parsing("spec field 'n'", ValidationError):
            n = int(d["n"])
        return cls(halfspaces=hs, terms=terms, n=n)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SafetySpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GeometryCert:
    """Witness points and interior margin certifying the standing assumption.

    delta = min over stored (I, i in I) of h_i(y_I) and is strictly
    positive; proj_bounded records that every term is a bounded polytope.
    """

    s_cap: tuple[frozenset[int], ...]
    witnesses: dict[frozenset[int], np.ndarray]
    delta: float
    proj_bounded: bool


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
    from the LPs c = +-e_j.

    An unbounded LP gives -inf or +inf; an empty set raises EmptySet.
    """
    d = A.shape[1]
    lo, hi = np.empty((2, d))
    for j in range(d):
        for sign, out in ((1.0, hi), (-1.0, lo)):
            c = np.zeros(d)
            c[j] = sign
            sol = lp_solve(LpProblem(c=c, A=A, b=-b))
            if sol.status == "infeasible":
                raise EmptySet("half-space intersection is empty")
            out[j] = sol.x[j] if sol.optimal else sign * np.inf
    return lo, hi


def is_bounded(A: np.ndarray, b: np.ndarray) -> bool:
    """True iff every extent of {x | A @ x + b >= 0} is finite (EmptySet if empty)."""
    return bool(np.isfinite(extents(A, b)).all())


def enumerate_s_cap(spec: SafetySpec) -> list[frozenset[int]]:
    """All nonempty I whose half-space intersection meets the safety set.

    Exhaustive over the 2^r - 1 subsets with one feasibility LP per
    distinct union I | term; capped at r <= ENUMERATION_CAP.
    """
    if spec.r > ENUMERATION_CAP:
        raise TooManyHalfspaces(f"r={spec.r} exceeds enumeration cap {ENUMERATION_CAP}")
    cache: dict[frozenset[int], bool] = {}
    result = []
    for size in range(1, spec.r + 1):
        for combo in itertools.combinations(range(spec.r), size):
            I = frozenset(combo)
            for t in spec.terms:
                union = I | frozenset(t)
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
    the I half-spaces is nonempty; returns the best point and its margin.
    Ties across terms break toward the lowest term index.
    """
    I = frozenset(I)
    idx_I = sorted(I)
    n = spec.n
    best = None
    for t in spec.terms:
        # variables (x, t_margin); maximize t_margin with h_i(x) >= t_margin
        # on I and h_i(x) >= 0 on the term
        idx = idx_I + sorted(t)
        margin_col = np.concatenate([-np.ones(len(idx_I)), np.zeros(len(t))])
        c = np.zeros(n + 1)
        c[-1] = 1.0
        sol = lp_solve(LpProblem(c=c, A=np.column_stack([spec.A[idx], margin_col]),
                                 b=-spec.offsets[idx]))
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            raise UnboundedPositions("witness margin LP unbounded; positions not compact")
        if best is None or sol.objective > best[1] + 1e-12:
            best = (sol.x[:n], sol.objective)
    if best is None:
        raise AssumptionViolated(f"index set {sorted(I)} does not meet the safety set")
    if best[1] <= 0.0:
        raise AssumptionViolated(
            f"no interior witness for {sorted(I)}: best margin {best[1]:.3e}"
        )
    return best[0], float(best[1])


def compute_cert(spec: SafetySpec, overrides=None) -> GeometryCert:
    """Assemble the geometry certificate.

    `overrides`, if given, is one point pinned as the witness of every
    index set.  Raises UnboundedPositions if any term is an unbounded
    polytope, AssumptionViolated if a witness fails its strict margin.
    """
    for li in range(len(spec.terms)):
        if not is_bounded(*spec.rows.term_rows(li)[:2]):
            raise UnboundedPositions(f"term {li} is unbounded")
    s_cap = enumerate_s_cap(spec)
    pinned = None if overrides is None else np.asarray(overrides, dtype=float)
    witnesses: dict[frozenset[int], np.ndarray] = {}
    delta = np.inf
    # each I as a term: its minimum at y is min over I of h_i(y)
    index_rows = TermRows(spec.A, spec.offsets, tuple(sorted(I) for I in s_cap))
    for ell, I in enumerate(s_cap):
        if pinned is not None:
            y = pinned
            margin = float(max_min(index_rows, y)[1][ell])
            if margin <= 0.0 or not contains(spec, y):
                raise AssumptionViolated(
                    f"override witness for {sorted(I)} lacks a positive margin"
                )
        else:
            y, margin = max_min_point(spec, I)
        witnesses[I] = y
        delta = min(delta, margin)
    order = sorted(s_cap, key=lambda I: (len(I), sorted(I)))
    return GeometryCert(
        s_cap=tuple(order),
        witnesses=witnesses,
        delta=float(delta),
        proj_bounded=True,
    )


def position_bounding_box(spec: SafetySpec) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) axis-aligned bounds of the safety set: the term extents' hull."""
    ext = np.array([extents(*spec.rows.term_rows(ell)[:2])
                    for ell in range(len(spec.terms))])
    if not np.isfinite(ext).all():
        raise UnboundedPositions("term unbounded while computing bounds")
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
