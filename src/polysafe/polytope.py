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

from .errors import ValidationError, integer, parsing, real
from .lp import LpProblem, lp_solve, lp_feasible_point

ENUMERATION_CAP = 20
_RANK_RTOL = 1e-12  # rows are independent above this share of their lengths
_BLOCK = 4096       # index subsets per batch in `vertices`
_SUBSET_CAP = math.comb(ENUMERATION_CAP, ENUMERATION_CAP // 2)  # C(20, 10)


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
    half-spaces.  Every term must be a bounded, nonempty intersection, so
    the safety set is compact, and distinct half-spaces must have linearly
    independent augmented vectors (a_i, b_i).  `A` (r x n) and `offsets`
    hold the half-spaces in index order and `rows` the term rows stacked
    for `max_min`.  A term whose m rows have over C(20, 10) subsets of a
    size k <= n is rejected before they are enumerated, then one whose rows
    fail `bounded` as unbounded, and one with no vertex as empty.
    `term_extents` (terms x 2 x n) holds each term's `extents`, its
    vertices' min and max with no LP, which the bounding box and the
    barrier's velocity extents read.  All are built once and read-only.
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
        for li, t in enumerate(terms):   # `extents` takes C(m, k) subsets, k <= n
            if math.comb(m := len(t), k := min(self.n, m // 2)) > _SUBSET_CAP:
                raise ValidationError(f"term {li}: C({m}, {k}) row subsets exceed the cap")
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
        ext = []
        for li in range(len(terms)):
            A_t, b_t, _ = rows.term_rows(li)
            if not bounded(A_t):
                raise ValidationError(f"term {li} is unbounded")
            try:
                ext.append(extents(A_t, b_t))
            except ValidationError:
                raise ValidationError(f"term {li} is an empty intersection") from None
        for name, arr in (("A", A), ("offsets", offsets),
                          ("term_extents", np.array(ext))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "rows", rows)

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


def bounded(A: np.ndarray) -> bool:
    """Whether {x | A @ x + b >= 0} (A's rows nonzero) is bounded for every b,
    reading A alone: A has rank n, counting the singular values above
    _RANK_RTOL of the largest with its rows scaled to unit length as in
    `vertices`' test, and the recession cone {d | A @ d >= 0} has no extreme
    ray, that is no vertex of its section {d | A @ d >= 0, s @ d = 1}, s the
    sum of A's rows (s @ d > 0 on the cone but at 0 when A has rank n)."""
    sv = np.linalg.svd(A / np.linalg.norm(A, axis=1)[:, None], compute_uv=False)
    if (sv > _RANK_RTOL * sv[0]).sum() < A.shape[1]:
        return False
    return not len(vertices(np.vstack([A, A.sum(axis=0)]),
                            np.append(np.zeros(len(A)), -1.0), on_last=True))


def extents(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo[j] = min x_j, hi[j] = max x_j over {x | A @ x + b >= 0},
    for A that is `bounded`: the min and max of the set's vertices, with no
    LP.  A set with no vertex is empty (ValidationError)."""
    V = vertices(A, b)
    if not len(V):
        raise ValidationError("half-space intersection is empty")
    return V.min(axis=0), V.max(axis=0)


def vertices(A: np.ndarray, b: np.ndarray, on_last: bool = False) -> np.ndarray:
    """Vertices (k x n) of {x | A @ x + b >= 0}: every n rows whose |det|
    exceeds _RANK_RTOL times the product of their lengths, solved as
    equalities, kept where no row is below -1e-9 (`on_last`: the last row
    and n - 1 others).  The subsets are taken _BLOCK at a time, so memory
    does not grow with their number.  Not rounded, and a vertex on more
    than n rows repeats."""
    n = A.shape[1]
    m = len(b) - on_last
    lengths = np.linalg.norm(A, axis=1)
    subsets = (c + (m,) * on_last for c in itertools.combinations(range(m), n - on_last))
    found = [np.zeros((0, n))]
    while block := list(itertools.islice(subsets, _BLOCK)):
        idx = np.array(block, dtype=int)
        idx = idx[np.abs(np.linalg.det(A[idx])) > _RANK_RTOL * lengths[idx].prod(axis=1)]
        X = np.linalg.solve(A[idx], -b[idx][..., None])[..., 0]
        found.append(X[(X @ A.T + b >= -1e-9).all(axis=1)])
    return np.concatenate(found)


def velocity_extents(spec: SafetySpec, rho: float) -> np.ndarray:
    """Per term P, the 2 x n extents (lo_rho - hi, hi_rho - lo) of P_rho - P,
    P_rho its rows shrunk to a_i @ x + b_i >= rho; gamma times them bound the
    barrier's x2.  P_rho has P's rows, which the spec has shown `bounded`, so
    its extents are its vertices' min and max (ValidationError if it is empty)."""
    out = []
    for ell, (lo, hi) in enumerate(spec.term_extents):
        A, b, _ = spec.rows.term_rows(ell)
        out.append(np.array(extents(A, b - rho)) - (hi, lo))
    return np.array(out)


def enumerate_s_cap(spec: SafetySpec) -> dict[frozenset[int], frozenset[int]]:
    """{I: U} for every nonempty I whose half-spaces meet the safety set, in
    canonical order; U = I | term for the first term it is feasible with.
    Exhaustive over the 2^r - 1 subsets with one feasibility LP per distinct
    union that is not a term (the spec has shown every term bounded and
    nonempty).  A spec with r > ENUMERATION_CAP is refused first
    (ValidationError)."""
    if spec.r > ENUMERATION_CAP:
        raise ValidationError(f"r={spec.r} exceeds enumeration cap {ENUMERATION_CAP}")
    term_sets = [frozenset(t) for t in spec.terms]
    cache = dict.fromkeys(term_sets, True)
    result = {}
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
                    result[I] = union
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
    idx_I = sorted(I)
    c = np.eye(spec.n + 1)[-1]
    best = None
    for t in spec.terms:
        # variables (x, t_margin); maximize t_margin with h_i(x) >= t_margin
        # on I and h_i(x) >= its floor on the term
        idx = idx_I + sorted(t)
        margin_col = np.concatenate([-np.ones(len(idx_I)), np.zeros(len(t))])
        A, b = np.column_stack([spec.A[idx], margin_col]), -spec.offsets[idx]
        b[len(idx_I):] += 1e-12 * np.maximum(1.0, np.abs(b[len(idx_I):]))
        sol = lp_solve(LpProblem(c=c, A=A, b=b))
        if sol.status == "infeasible":
            continue
        if sol.status == "unbounded":
            raise ValidationError("witness margin LP unbounded; positions not compact")
        if best is None or sol.objective > best[1] + 1e-12:
            best = (sol.x[:spec.n], sol.objective)
    if best is None:
        raise ValidationError(f"index set {sorted(I)} does not meet the safety set")
    y, margin = best
    if margin <= 0.0:
        raise ValidationError(
            f"no interior witness for {sorted(I)}: best margin {margin:.3e}"
        )
    return y, float(margin)


def compute_cert(spec: SafetySpec, overrides=None) -> GeometryCert:
    """The geometry certificate: each index set I takes the witness of its
    union U (`enumerate_s_cap`), whose margin on I is at least U's, so
    certify_witnesses checks one witness per distinct U, and delta is the
    smallest margin over every I (a maximal I is its own union).  It is
    `overrides` if given (a failure named by its first failing row), else
    max_min_point's LP vertex for U, in C, which may move with lp.py."""
    s_cap = enumerate_s_cap(spec)
    unions = list(dict.fromkeys(s_cap.values()))
    if overrides is None:
        pairs = ((U, max_min_point(spec, U)[0]) for U in unions)
    else:
        y = np.asarray(overrides, dtype=float)
        if not contains(spec, y):
            raise ValidationError("override witness lies outside the safety set")
        vals = (y @ spec.A.T + spec.offsets).tolist()   # its first failing row names it
        failing = [frozenset([i]) for i in sorted(frozenset().union(*unions)) if not vals[i] > 0]
        pairs = [(U, y) for U in failing[:1] + unions]
    cert = certify_witnesses(spec, pairs)
    return GeometryCert({I: cert.witnesses[U] for I, U in s_cap.items()}, cert.delta)


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
    return spec.term_extents[:, 0].min(axis=0), spec.term_extents[:, 1].max(axis=0)


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
