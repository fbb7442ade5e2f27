"""Extended barrier construction over position and velocity.

Each position half-space row a_i @ x1 + b_i contributes a companion
velocity row a_i @ x2 + gamma * (a_i @ x1 + b_i) - epsilon; the extended
safe set C^s is the superlevel set of the max-min over both families.
This module builds that barrier, certifies its compactness and velocity
bound by LP, lifts safe positions into C^s, samples its boundary, and
checks the boundary safety condition against a plant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    EmptyFacet,
    NotInC,
    NotRightInvertible,
    ParameterViolation,
    PolysafeError,
)
from .lp import LpProblem, lp_solve, lp_feasible_point
from .polytope import GeometryCert, SafetySpec, TermRows, extents, max_min

ACTIVATION_TOL = 1e-9
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class ExtendedCbf:
    """Barrier data: 2r affine functions over the 2n-dimensional state.

    Extended index i < r is the position row h_i; index i + r is its
    velocity companion.  Each extended term stacks both families of the
    originating position term; `rows` holds every term's rows, stacked
    once for `max_min`.
    """

    spec: SafetySpec
    cert: GeometryCert
    gamma: float
    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.gamma < np.inf and 0.0 < self.epsilon < np.inf):
            raise ParameterViolation("gamma and epsilon must be positive and finite")
        if self.gamma * self.cert.delta <= self.epsilon:
            raise ParameterViolation(
                f"gamma*delta = {self.gamma * self.cert.delta:.6g} must exceed "
                f"epsilon = {self.epsilon:.6g}"
            )
        # built once: the barrier is evaluated at every control step
        A, b = self.spec.A, self.spec.offsets
        A_ext = np.block([[A, np.zeros_like(A)], [self.gamma * A, A]])
        b_ext = np.concatenate([b, self.gamma * b - self.epsilon])
        object.__setattr__(self, "rows", TermRows(A_ext, b_ext, self.extended_terms))

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def r(self) -> int:
        return self.spec.r

    @property
    def extended_terms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(t) + tuple(i + self.r for i in t) for t in self.spec.terms)

    def row(self, i: int) -> tuple[np.ndarray, float]:
        """(gradient over (x1, x2), constant) of extended row i."""
        n, r = self.n, self.r
        if i < r:
            h = self.spec.halfspaces[i]
            return np.concatenate([h.a, np.zeros(n)]), h.b
        h = self.spec.halfspaces[i - r]
        return np.concatenate([self.gamma * h.a, h.a]), self.gamma * h.b - self.epsilon

    def term_rows(self, ell: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Stacked (A, b, extended ids) for extended term ell (read-only)."""
        return self.rows.term_rows(ell)

    @cached_property
    def velocity_extents(self) -> np.ndarray:
        """Per extended term, the 2 x n extents (lo, hi) of the velocity x2.

        2n LPs per term; the positions of an extended term lie in its
        position term, whose extents the spec already holds.
        """
        n = self.n
        return np.array([extents(*self.term_rows(ell)[:2], coords=range(n, 2 * n))
                         for ell in range(len(self.spec.terms))])

    def to_dict(self) -> dict:
        return {
            **self.spec.to_dict(),
            "cbf": {"gamma": self.gamma, "epsilon": self.epsilon},
            "cert": {
                "delta": self.cert.delta,
                "witnesses": [
                    {"indices": sorted(i + 1 for i in I), "y": list(y)}
                    for I, y in sorted(
                        self.cert.witnesses.items(),
                        key=lambda kv: (len(kv[0]), sorted(kv[0])),
                    )
                ],
            },
        }


@dataclass(frozen=True)
class ActiveSet:
    """Barrier value at a state; `row_values` (one per row of `rows`) and
    `per_term_min` are max_min's output.  The activation bookkeeping,
    `argmax_terms` and `active_indices`, is worked out on each read."""

    value: float
    per_term_min: np.ndarray
    row_values: np.ndarray
    rows: TermRows

    @property
    def argmax_terms(self) -> tuple[int, ...]:
        """Terms whose minimum is within ACTIVATION_TOL of the value."""
        return tuple(ell for ell, v in enumerate(self.per_term_min.tolist())
                     if v >= self.value - ACTIVATION_TOL)

    @property
    def active_indices(self) -> frozenset[int]:
        """Extended indices of the argmax terms' rows within ACTIVATION_TOL
        of the value."""
        rows, vals, top = self.rows, self.row_values.tolist(), self.value + ACTIVATION_TOL
        return frozenset(rows.ids[k] for ell in self.argmax_terms for k in rows.spans[ell]
                         if vals[k] <= top)


@dataclass(frozen=True)
class VelocityCert:
    """LP-certified bound on each velocity component inside C^s."""

    gamma: float
    epsilon: float
    per_component_bound: float
    norm_bound: float
    c: float


@dataclass(frozen=True)
class SampleCheck:
    """Boundary-condition outcome for one sampled state."""

    sample_id: int
    x: np.ndarray
    active_indices: frozenset[int]
    binding: frozenset[int]  # position indices whose velocity row is tight
    u_witness: np.ndarray | None
    beta: float
    margin: float
    feasible: bool


@dataclass(frozen=True)
class ConditionReport:
    samples: np.ndarray
    checks: tuple[SampleCheck, ...]

    @property
    def all_feasible(self) -> bool:
        return all(c.feasible for c in self.checks)

    @property
    def worst_margin(self) -> float:
        margins = [c.margin for c in self.checks if c.u_witness is not None]
        return min(margins) if margins else np.inf

    def to_csv(self, path) -> None:
        with open(path, "w") as f:
            dim = self.samples.shape[1] if len(self.checks) else 0
            cols = [f"x{k + 1}" for k in range(dim)]
            f.write(",".join(["sample_id", *cols, "active_indices", "margin",
                              "feasible"]) + "\n")
            for c in self.checks:
                xs = [format(v, ".17g") for v in c.x]
                act = ";".join(str(i) for i in sorted(c.active_indices))
                f.write(",".join([str(c.sample_id), *xs, act,
                                  format(c.margin, ".17g"),
                                  str(int(c.feasible))]) + "\n")


def build(spec: SafetySpec, cert: GeometryCert, gamma: float,
          epsilon: float) -> ExtendedCbf:
    """Validated extended barrier; requires gamma * cert.delta > epsilon."""
    return ExtendedCbf(spec=spec, cert=cert, gamma=gamma, epsilon=epsilon)


def cbf_from_dict(d: dict) -> ExtendedCbf:
    """Inverse of ExtendedCbf.to_dict (witness indices 1-based on the wire)."""
    spec = SafetySpec.from_dict(d)
    witnesses = {
        frozenset(i - 1 for i in e["indices"]): np.array(e["y"], dtype=float)
        for e in d["cert"]["witnesses"]
    }
    cert = GeometryCert(
        s_cap=tuple(sorted(witnesses, key=lambda I: (len(I), sorted(I)))),
        witnesses=witnesses,
        delta=float(d["cert"]["delta"]),
    )
    return build(spec, cert, float(d["cbf"]["gamma"]), float(d["cbf"]["epsilon"]))


def eval_B(cbf: ExtendedCbf, x: np.ndarray) -> ActiveSet:
    """Exact max-min evaluation; the activation bookkeeping waits for a read."""
    x = np.asarray(x, dtype=float)
    if x.size != 2 * cbf.n:
        raise ValueError(f"state must have dimension {2 * cbf.n}")
    vals, mins, value = max_min(cbf.rows, x)
    return ActiveSet(float(value), mins, vals, cbf.rows)


def eval_B_many(cbf: ExtendedCbf, X: np.ndarray) -> np.ndarray:
    """Barrier values only, vectorized over rows of X (N x 2n)."""
    return max_min(cbf.rows, np.asarray(X, dtype=float))[2]


def lift_position(cbf: ExtendedCbf, x1: np.ndarray) -> np.ndarray:
    """Complete a safe position to a state in C^s.

    Uses the witness point of the maximizing term and the retraction
    velocity x2 = -gamma * sigma * (x1 - y) with sigma the midpoint of
    the admissible interval (epsilon / (gamma * delta), 1).
    """
    x1 = np.asarray(x1, dtype=float)
    _, term_vals, h = max_min(cbf.spec.rows, x1)
    if h < 0.0:
        raise NotInC(f"position outside the safety set (h = {h:.3e})")
    best = int(np.argmax(term_vals))
    y = cbf.cert.witnesses[frozenset(cbf.spec.terms[best])]
    sigma = 0.5 * (1.0 + cbf.epsilon / (cbf.gamma * cbf.cert.delta))
    x2 = -cbf.gamma * sigma * (x1 - y)
    state = np.concatenate([x1, x2])
    if eval_B(cbf, state).value < -1e-9:
        raise PolysafeError("lifted state unexpectedly left C^s")
    return state


def check_compactness(cbf: ExtendedCbf) -> bool:
    """True: every extended term is a bounded polytope (finite extents).

    An extended term's positions lie in its position term, so its
    position extents are bounded by the spec's stored term extents and
    only its velocity extents take LPs.  A certificate exists only for
    bounded position terms, so an unbounded extended term is an internal
    inconsistency and raises.
    """
    unbounded = [ell for ell, (pos, vel) in
                 enumerate(zip(cbf.spec.term_extents, cbf.velocity_extents))
                 if not (np.isfinite(pos).all() and np.isfinite(vel).all())]
    if unbounded:
        raise PolysafeError(
            f"extended terms {unbounded} unbounded despite bounded positions")
    return True


def velocity_bound(cbf: ExtendedCbf) -> VelocityCert:
    """Largest |x2_j| over every extended term: its velocity extents."""
    n = cbf.n
    bound = np.abs(cbf.velocity_extents).max()
    if not np.isfinite(bound):
        raise PolysafeError("velocity unbounded over an extended term")
    norm_bound = np.sqrt(n) * bound
    return VelocityCert(gamma=cbf.gamma, epsilon=cbf.epsilon,
                        per_component_bound=float(bound),
                        norm_bound=float(norm_bound),
                        c=float(norm_bound / cbf.gamma))


def _facet_vertices(cbf: ExtendedCbf, ell: int, k: int,
                    rng: np.random.Generator, n_lps: int) -> np.ndarray:
    """Vertices of facet {row k = 0} of extended term ell via random-cost LPs."""
    A, b, _ = cbf.term_rows(ell)
    eq_A = np.vstack([A, -A[k]])
    eq_b = np.concatenate([-b, [b[k]]])  # rows >= 0 plus the reversed row k
    if lp_feasible_point(eq_A, eq_b) is None:
        raise EmptyFacet(f"facet ({ell}, {k}) is empty")
    verts = []
    for _ in range(n_lps):
        c = rng.normal(size=A.shape[1])
        sol = lp_solve(LpProblem(c=c, A=eq_A, b=eq_b))
        if sol.optimal:
            verts.append(sol.x)
    if not verts:
        raise EmptyFacet(f"facet ({ell}, {k}) produced no vertices")
    return np.array(verts)


def sample_boundary(cbf: ExtendedCbf, count: int, seed: int) -> np.ndarray:
    """`count` states on the boundary of C^s (|B| <= BOUNDARY_TOL).

    Facet-stratified: per (term, row) facet, vertices are generated by
    randomized-cost LPs and combined with Dirichlet weights; combinations
    dominated by another term (B > 0 there) are rejected.  Deterministic
    under `seed`.
    """
    if count == 0:
        return np.zeros((0, 2 * cbf.n))
    rng = np.random.Generator(np.random.Philox(seed))
    facets = []
    for ell, span in enumerate(cbf.rows.spans):
        for k in range(len(span)):
            try:
                facets.append(_facet_vertices(cbf, ell, k, rng, n_lps=4 * cbf.n + 4))
            except EmptyFacet:
                continue
    if not facets:
        raise PolysafeError("no nonempty boundary facets found")
    samples = []
    attempts = 0
    fi = 0
    while len(samples) < count:
        attempts += 1
        if attempts > 200 * count:
            raise PolysafeError("boundary sampling rejection budget exhausted")
        verts = facets[fi % len(facets)]
        fi += 1
        w = rng.dirichlet(np.ones(len(verts)))
        x = w @ verts
        if abs(eval_B(cbf, x).value) <= BOUNDARY_TOL:
            samples.append(x)
    return np.array(samples)


def _largest_beta(input_set, base: np.ndarray, direction: np.ndarray) -> float:
    """Largest beta in (0, beta_hi] with base + beta * direction admissible.

    beta = 1 when no row G u <= h of the input set limits it (U = R^m, or a
    zero direction).  Otherwise the admissible betas form an interval by
    convexity; 20 bisection steps after an exponential bracket.
    """
    G, _ = input_set.rows(direction.size)
    if not (G @ direction > 0.0).any():
        return 1.0
    if not input_set.contains(base + 1e-12 * direction):
        return 0.0
    hi = 1.0
    doublings = 0
    while input_set.contains(base + hi * direction) and doublings < 40:
        hi *= 2.0
        doublings += 1
    if doublings == 40:
        return hi
    lo = 0.0
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        if input_set.contains(base + mid * direction):
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else 0.0


def verify_safety_condition(cbf: ExtendedCbf, plant, input_set,
                            samples: np.ndarray) -> ConditionReport:
    """Check the boundary derivative condition at sampled boundary states.

    At each sample the binding set I_x (position indices whose velocity
    row is active and zero) is extracted.  If empty the condition holds
    vacuously.  Otherwise a witness input is formed from the witness
    point of I_x:

        u_x = -G2^+(x) (f2(x) + gamma x2) + beta * G2^+(x) y_x,
        y_x = -x2 - gamma x1 + gamma y_{I_x},

    with beta maximal subject to admissibility (beta = 1 for U = R^m).
    The recorded margin is min over binding i of
    a_i @ (gamma x2 + f2 + G2 u_x).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, r, gamma = cbf.n, cbf.r, cbf.gamma
    checks = []
    for sid, x in enumerate(samples):
        x1, x2 = x[:n], x[n:]
        act = eval_B(cbf, x)
        active = act.active_indices  # computed on each read: read it once
        binding = frozenset(
            i - r for i, v in zip(cbf.rows.ids, act.row_values.tolist())
            if i >= r and i in active and abs(v) <= 10 * ACTIVATION_TOL
        )
        if not binding:
            checks.append(SampleCheck(sid, x, active, binding,
                                      None, 0.0, np.inf, True))
            continue
        y = cbf.cert.witnesses[binding]
        G2 = np.atleast_2d(plant.G2(x1))
        G2p = np.linalg.pinv(G2)
        if np.linalg.norm(G2 @ G2p - np.eye(G2.shape[0])) > 1e-8:
            raise NotRightInvertible(f"G2 not right invertible at sample {sid}")
        f2 = np.atleast_1d(plant.f2(x1, x2))
        y_x = -x2 - gamma * x1 + gamma * y
        base = -G2p @ (f2 + gamma * x2)
        direction = G2p @ y_x
        beta = _largest_beta(input_set, base, direction)
        u_x = base + beta * direction
        accel = gamma * x2 + f2 + G2 @ u_x
        A_bind = cbf.spec.A[sorted(binding)]
        margin = float((A_bind @ accel).min())
        feasible = margin > 0.0 and input_set.contains(u_x)
        checks.append(SampleCheck(sid, x, active, binding,
                                  u_x, beta, margin, feasible))
    return ConditionReport(samples=samples, checks=tuple(checks))
