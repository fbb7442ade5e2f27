"""Extended barrier construction over position and velocity.

Each position half-space row a_i @ x1 + b_i contributes a companion
velocity row a_i @ x2 + gamma * (a_i @ x1 + b_i) - epsilon; the extended
safe set C^s is the superlevel set of the max-min over both families.
This module builds that barrier, certifies its compactness (from the
spec's term extents) and velocity bound (from vertices on the spec's rows),
lifts safe positions into C^s, samples its boundary, and checks the
boundary safety condition against a plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (NonFinite, ParameterViolation, PolysafeError, ValidationError,
                     integer, parsing, real)
from .lp import lp_solve  # noqa: F401  no LP here: the benchmark tracer's patch site
from .polytope import (GeometryCert, SafetySpec, TermRows, certify_witnesses,
                       enumerate_s_cap, max_min, velocity_extents, vertices)

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
        A, b, r, n = self.spec.A, self.spec.offsets, self.r, self.n
        A_ext = np.zeros((2 * r, 2 * n))   # [[A, 0], [gamma A, A]]
        A_ext[:r, :n] = A_ext[r:, n:] = A
        with np.errstate(over="ignore"):   # an overflow is refused below
            A_ext[r:, :n] = self.gamma * A
            b_ext = np.concatenate([b, self.gamma * b - self.epsilon])
        if not (np.isfinite(A_ext).all() and np.isfinite(b_ext).all()):
            raise ParameterViolation(
                f"gamma = {self.gamma:.6g} overflows the velocity rows "
                f"(gamma * A, gamma * b - epsilon)")
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

    # kept on the class: the tests read it, and the benchmark tracer patches it
    def term_rows(self, ell: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        """Stacked (A, b, extended ids) for extended term ell (read-only)."""
        return self.rows.term_rows(ell)

    @cached_property
    def velocity_extents(self) -> np.ndarray:
        """Per extended term, the 2 x n extents (lo, hi) of the velocity x2.

        Divided by gamma, the velocity row of half-space i reads
        a_i @ w + b_i >= rho in w = x1 + x2 / gamma, rho = epsilon / gamma.
        So an extended term is P x P_rho, its position term P times P shrunk
        by rho, and its velocities are gamma (P_rho - P).
        """
        return self.gamma * velocity_extents(self.spec, self.epsilon / self.gamma)

    def to_dict(self) -> dict:
        return {
            **self.spec.to_dict(),
            "cbf": {"gamma": self.gamma, "epsilon": self.epsilon},
            "cert": {
                "delta": self.cert.delta,
                "witnesses": [{"indices": sorted(i + 1 for i in I),
                               "y": list(self.cert.witnesses[I])}
                              for I in self.cert.s_cap],
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
    """Inverse of ExtendedCbf.to_dict (witness indices 1-based on the wire).
    The certificate is checked as compute_cert makes it (ValidationError)."""
    spec = SafetySpec.from_dict(d)
    with parsing("barrier field 'cert'", ValidationError):
        witnesses = {frozenset(integer(i, "indices") - 1 for i in e["indices"]):
                     np.reshape(real(e["y"], "y"), spec.n) for e in d["cert"]["witnesses"]}
        delta = real(d["cert"]["delta"], "delta")
    s_cap = enumerate_s_cap(spec)
    if witnesses.keys() != set(s_cap):
        raise ValidationError(f"cert witnesses must name the {len(s_cap)} index sets "
                              "that meet the safety set")
    cert = certify_witnesses(spec, ((I, witnesses[I]) for I in s_cap))
    if cert.delta != delta:
        raise ValidationError(f"cert delta {delta!r} is not the smallest witness "
                              f"margin {cert.delta!r}")
    return build(spec, cert, real(d["cbf"]["gamma"], "gamma"),
                 real(d["cbf"]["epsilon"], "epsilon"))


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
        raise PolysafeError(f"position outside the safety set (h = {h:.3e})")
    best = int(np.argmax(term_vals))
    y = cbf.cert.witnesses[frozenset(cbf.spec.terms[best])]
    sigma = 0.5 * (1.0 + cbf.epsilon / (cbf.gamma * cbf.cert.delta))
    x2 = -cbf.gamma * sigma * (x1 - y)
    state = np.concatenate([x1, x2])
    if eval_B(cbf, state).value < -1e-9:
        raise PolysafeError("lifted state unexpectedly left C^s")
    return state


def check_compactness(cbf: ExtendedCbf) -> bool:
    """True iff every extended term is a bounded polytope.

    An extended term is P x P_rho (see `ExtendedCbf.velocity_extents`), so
    it is bounded iff its position term P is: the spec's stored term
    extents answer it, with no LP.
    """
    return bool(np.isfinite(cbf.spec.term_extents).all())


def velocity_bound(cbf: ExtendedCbf) -> VelocityCert:
    """Largest |x2_j| over every extended term: its velocity extents."""
    bound = np.abs(cbf.velocity_extents).max()
    if not np.isfinite(bound):
        raise PolysafeError("velocity unbounded over an extended term")
    norm_bound = np.sqrt(cbf.n) * bound
    return VelocityCert(per_component_bound=float(bound),
                        norm_bound=float(norm_bound),
                        c=float(norm_bound / cbf.gamma))


def sample_boundary(cbf: ExtendedCbf, count: int, seed: int) -> np.ndarray:
    """`count` states on the boundary of C^s (|B| <= BOUNDARY_TOL).

    Facet-stratified over each term's position rows, then its velocity
    rows.  In (x1, w), w = x1 + x2 / gamma, an extended term is P x P_rho
    (see `ExtendedCbf.velocity_extents`): a position row's facet is
    (P's vertices on the row) x P_rho's vertices, a velocity row's is P's
    vertices x (P_rho's on the row), both from `vertices` on the spec's
    rows.  A sample is a Dirichlet combination on each factor, mapped back
    by x2 = gamma (w - x1); one dominated by another term (B > 0 there)
    is rejected.  Deterministic under `seed`.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if count == 0:
        return np.zeros((0, 2 * cbf.n))
    rng = np.random.Generator(np.random.Philox(seed))
    rho = cbf.epsilon / cbf.gamma
    facets = []
    for ell in range(len(cbf.spec.terms)):
        A, b, _ = cbf.spec.rows.term_rows(ell)
        P, Q = vertices(A, b), vertices(A, b - rho)
        tight_P = np.abs(P @ A.T + b) <= BOUNDARY_TOL
        tight_Q = np.abs(Q @ A.T + b - rho) <= BOUNDARY_TOL
        facets += [(P[on], Q) for on in tight_P.T] + [(P, Q[on]) for on in tight_Q.T]
    facets = [(P, Q) for P, Q in facets if len(P) and len(Q)]
    if not facets:
        raise PolysafeError("no nonempty boundary facets found")
    samples = []
    attempts = 0
    fi = 0
    while len(samples) < count:
        attempts += 1
        if attempts > 200 * count:
            raise PolysafeError("boundary sampling rejection budget exhausted")
        P, Q = facets[fi % len(facets)]
        fi += 1
        x1 = rng.dirichlet(np.ones(len(P))) @ P
        w = rng.dirichlet(np.ones(len(Q))) @ Q
        x = np.concatenate([x1, cbf.gamma * (w - x1)])
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
        f2 = np.atleast_1d(plant.f2(x1, x2))
        # before any arithmetic on them: a NaN margin reads as a failed condition
        if not all(map(math.isfinite, G2.ravel().tolist() + f2.tolist())):
            raise NonFinite(f"plant G2 or f2 not finite at sample {sid}")
        G2p = np.linalg.pinv(G2)
        if np.linalg.norm(G2 @ G2p - np.eye(G2.shape[0])) > 1e-8:
            raise PolysafeError(f"G2 not right invertible at sample {sid}")
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
