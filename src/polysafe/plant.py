"""Second-order plants: the planar two-link arm and a double integrator.

The arm model is the standard planar elbow manipulator with point
masses at the link ends, written with the Coriolis and potential forcing
on the right-hand side:

    M(theta) thetadd = C(theta, thetad) thetad + [0, c25 cos(th1+th2)] + u.

Links are horizontal by default (c25 = 0); a gravity toggle enables the
potential term for input-bound experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InsufficientActuation, NoSplit, SingularInertia, ValidationError
from .polytope import SafetySpec, contains, eval_h_many, position_bounding_box

GRAVITY = 9.8  # m/s^2
_BLOCK = 512   # grid points per block of the constant-estimation scan
_DIRECTIONS = 32   # velocity directions per grid point of the scan (n >= 2)


@dataclass(frozen=True)
class PlantModel:
    """Control-affine second-order dynamics x1dd = f2(x1, x2) + G2(x1) u.

    The optional split f2 = f2_potential(x1) + f2_velocity(x1, x2), with
    f2_velocity a quadratic form in x2 (Coriolis/centripetal forcing), is
    needed for the Euler-Lagrange constant estimates (estimate_constants).

    accel(x1, x2, u), if given, is f2 + G2 u in one call, on lists of
    floats; rk4_step calls it once per stage.  Without it rk4_step reads f2
    and G2 at each step, so a dataclasses.replace copy integrates its own.
    """

    n: int
    m: int
    f2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    G2: Callable[[np.ndarray], np.ndarray]
    f2_potential: Callable[[np.ndarray], np.ndarray] | None = None
    f2_velocity: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    accel: Callable[[list, list, list], list] | None = None

    @property
    def has_split(self) -> bool:
        return self.f2_potential is not None and self.f2_velocity is not None


def rk4_step(plant: PlantModel, u: np.ndarray, x: np.ndarray,
             dt: float) -> np.ndarray:
    """Classical RK4 step of xdot = (x2, f2 + G2 u) with u held constant.

    One plant call per stage (plant.accel, else f2 + G2 @ u); the stage
    arithmetic runs elementwise on Python floats, in the order of arrays.
    """
    n, h, u = plant.n, 0.5 * dt, np.asarray(u, dtype=float)
    accel = plant.accel
    if accel is None:
        f2, G2 = plant.f2, plant.G2

        def accel(x1, x2, _):
            x1 = np.array(x1)
            return (f2(x1, np.array(x2)) + G2(x1) @ u).tolist()

    us, xs = u.tolist(), np.asarray(x, dtype=float).tolist()
    k1 = xs[n:] + accel(xs[:n], xs[n:], us)
    s = [a + h * b for a, b in zip(xs, k1)]
    k2 = s[n:] + accel(s[:n], s[n:], us)
    s = [a + h * b for a, b in zip(xs, k2)]
    k3 = s[n:] + accel(s[:n], s[n:], us)
    s = [a + dt * b for a, b in zip(xs, k3)]
    k4 = s[n:] + accel(s[:n], s[n:], us)
    w = dt / 6.0
    return np.array([a + w * (b1 + 2 * b2 + 2 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(xs, k1, k2, k3, k4)])


@dataclass(frozen=True)
class ElConstants:
    """Force and inertia constants over the safety set: grid maxima refined
    by a local polish (estimate_constants), so lower bounds of the maxima.

    k2 is estimated on the velocity ball ||x2|| <= v_cap only (the
    velocity force is quadratic for the arm, so a linear bound needs a
    bounded velocity set).
    """

    k1: float
    kG: float
    k2: float
    v_cap: float


@dataclass(frozen=True)
class ArmParams:
    """Two-link arm with point masses at the link ends."""

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    gravity: bool = False

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.m1, self.m2, self.l1, self.l2)):
            raise ValueError("masses and lengths must be positive and finite")
        m1, m2, l1, l2 = self.m1, self.m2, self.l1, self.l2
        k = m2 * l1 * l2
        # built once: the dynamics read it several times per evaluation
        object.__setattr__(self, "_coefficients", {
            "c11": (m1 + m2) * l1 ** 2 + m2 * l2 ** 2,
            "c12": 2.0 * k,
            "c13": m2 * l2 ** 2,
            "c14": k,
            "c15": 2.0 * k,
            "c16": k,
            "c21": m2 * l2 ** 2,
            "c22": m2 * l2 ** 2,
            "c23": k,
            "c24": -k,
            "c25": -m2 * GRAVITY * l2 if self.gravity else 0.0,
        })

    @property
    def coefficients(self) -> dict[str, float]:
        """The c_ij table from masses and lengths; shared, do not modify."""
        return self._coefficients


def _inertia(c: dict, theta) -> tuple[float, float, float, float]:
    """Entries (M11, M12, M21, M22) of the inertia matrix."""
    ct2 = math.cos(theta[1])
    return (c["c11"] + c["c12"] * ct2, c["c13"] + c["c14"] * ct2,
            c["c22"] + c["c23"] * ct2, c["c21"])


def _coriolis(c: dict, theta, thetad) -> tuple[float, float, float]:
    """Nonzero entries (C11, C12, C21) of the Coriolis matrix."""
    st2 = math.sin(theta[1])
    return (c["c15"] * st2 * thetad[1], c["c16"] * st2 * thetad[1],
            c["c24"] * st2 * thetad[0])


def _potential(c: dict, theta) -> float:
    return c["c25"] * math.cos(theta[0] + theta[1])


def mass_matrix(p: ArmParams, theta: np.ndarray) -> np.ndarray:
    m11, m12, m21, m22 = _inertia(p.coefficients, theta)
    return np.array([[m11, m12], [m21, m22]])


def coriolis_matrix(p: ArmParams, theta: np.ndarray,
                    thetad: np.ndarray) -> np.ndarray:
    """Right-hand-side Coriolis matrix C with M thetadd = C thetad + ..."""
    c11, c12, c21 = _coriolis(p.coefficients, theta, thetad)
    return np.array([[c11, c12], [c21, 0.0]])


def potential_vector(p: ArmParams, theta: np.ndarray) -> np.ndarray:
    return np.array([0.0, _potential(p.coefficients, theta)])


def two_link_arm(params: ArmParams) -> PlantModel:
    """n = m = 2 arm plant: G2 = M^{-1}, the Coriolis/potential split, accel.

    The dynamics are evaluated in scalars, from the same entries as
    mass_matrix, coriolis_matrix and potential_vector: they run many times
    per control step, and numpy's per-call cost dominates on 2x2 arrays.
    accel, which rk4_step calls once per stage, takes one cosine and one
    sine of theta2 and one inverse of the inertia, and builds no array.
    """
    c = params.coefficients

    def _inverse_inertia(theta):
        m11, m12, m21, m22 = _inertia(c, theta)
        det = m11 * m22 - m12 * m21
        if abs(det) < 1e-12 * m11 * m22:   # relative: M scales with m l^2
            raise SingularInertia(f"inertia matrix singular at theta2={theta[1]:.4g}")
        return m22 / det, -m12 / det, -m21 / det, m11 / det

    def _solve(theta, r0, r1):
        """M(theta)^{-1} @ (r0, r1)."""
        i11, i12, i21, i22 = _inverse_inertia(theta)
        return np.array([i11 * r0 + i12 * r1, i21 * r0 + i22 * r1])

    def _coriolis_force(theta, thetad):
        """C(theta, thetad) @ thetad."""
        c11, c12, c21 = _coriolis(c, theta, thetad)
        return c11 * thetad[0] + c12 * thetad[1], c21 * thetad[0]

    def G2(x1):
        i11, i12, i21, i22 = _inverse_inertia(x1)
        return np.array([[i11, i12], [i21, i22]])

    def f2(x1, x2):
        r0, r1 = _coriolis_force(x1, x2)
        return _solve(x1, r0, r1 + _potential(c, x1))

    def f2_velocity(x1, x2):
        return _solve(x1, *_coriolis_force(x1, x2))

    def f2_potential(x1):
        return _solve(x1, 0.0, _potential(c, x1))

    def accel(x1, x2, u):
        r0, r1 = _coriolis_force(x1, x2)
        i11, i12, i21, i22 = _inverse_inertia(x1)
        r0 += u[0]
        r1 += _potential(c, x1) + u[1]
        return [i11 * r0 + i12 * r1, i21 * r0 + i22 * r1]

    return PlantModel(n=2, m=2, f2=f2, G2=G2, f2_potential=f2_potential,
                      f2_velocity=f2_velocity, accel=accel)


def double_integrator(n: int = 1) -> PlantModel:
    eye = np.eye(n)
    zero = np.zeros(n)
    return PlantModel(n=n, m=n,
                      f2=lambda x1, x2: zero,
                      G2=lambda x1: eye,
                      f2_potential=lambda x1: zero,
                      f2_velocity=lambda x1, x2: zero)


@dataclass(frozen=True)
class SineReference:
    """r(t) = (A1 sin(w1 t), A2 sin(w2 t)) with analytic derivatives."""

    amplitudes: tuple[float, float] = (np.pi, np.pi / 2)
    frequencies: tuple[float, float] = (1.0, 4.0)

    def __post_init__(self):
        for name in ("amplitudes", "frequencies"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (2,) or not np.isfinite(v).all():
                raise ValueError(f"{name} must be two finite numbers")
            object.__setattr__(self, name, tuple(v.tolist()))
        # rd and rdd scale by a w and a w^2: both must stay finite
        for a, w in zip(self.amplitudes, self.frequencies):
            if not (math.isfinite(a * w) and math.isfinite(a * (w * w))):
                raise ValueError(f"amplitude {a!r} at frequency {w!r} overflows the "
                                 "reference's derivatives")

    def r(self, t: float) -> np.ndarray:
        a, w = self.amplitudes, self.frequencies
        return np.array([a[0] * math.sin(w[0] * t), a[1] * math.sin(w[1] * t)])

    def rd(self, t: float) -> np.ndarray:
        a, w = self.amplitudes, self.frequencies
        return np.array([a[0] * w[0] * math.cos(w[0] * t),
                         a[1] * w[1] * math.cos(w[1] * t)])

    def rdd(self, t: float) -> np.ndarray:
        a, w = self.amplitudes, self.frequencies
        return np.array([-a[0] * w[0] ** 2 * math.sin(w[0] * t),
                         -a[1] * w[1] ** 2 * math.sin(w[1] * t)])


def nominal_tracking(params: ArmParams,
                     reference: SineReference | None = None):
    """Computed-torque tracking law for the arm (no gravity compensation).

    u(t, x) = M (rdd - ed - e) - C thetad  with e = theta - r, which
    cancels the right-hand-side Coriolis forcing and imposes the stable
    error dynamics edd + ed + e = 0.
    """
    ref = reference if reference is not None else SineReference()

    def controller(t: float, x: np.ndarray) -> np.ndarray:
        theta, thetad = x[:2], x[2:]
        e = theta - ref.r(t)
        ed = thetad - ref.rd(t)
        M = mass_matrix(params, theta)
        Crhs = coriolis_matrix(params, theta, thetad)
        return M @ (ref.rdd(t) - ed - e) - Crhs @ thetad

    return controller


def _position_grid(spec: SafetySpec, lo: np.ndarray, hi: np.ndarray,
                   resolution: int) -> np.ndarray:
    axes = [np.linspace(lo[j], hi[j], resolution) for j in range(spec.n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return pts[eval_h_many(spec, pts) >= 0.0]


def _unit_directions(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    rng = np.random.Generator(np.random.Philox(0))
    d = rng.normal(size=(count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _pattern_polish(f, x0: np.ndarray, step: np.ndarray,
                    feasible=lambda x: True, rounds: int = 80):
    """Deterministic coordinate pattern search; returns the refined max."""
    x = x0.copy()
    fx = f(x)
    step = step.copy()
    for _ in range(rounds):
        improved = False
        for j in range(x.size):
            for sgn in (1.0, -1.0):
                cand = x.copy()
                cand[j] += sgn * step[j]
                if feasible(cand):
                    fc = f(cand)
                    if fc > fx + 1e-15:
                        x, fx = cand, fc
                        improved = True
        if not improved:
            step *= 0.5
            if (step < 1e-10).all():
                break
    return fx


def _stable_top(kept: list, vals: np.ndarray, at, f, k: int) -> list:
    """The k largest (f(item), item) of `kept` and the items at(i), earliest
    first among ties.  `vals` estimates f to within 1e-9 of its largest
    value; f itself ranks every item whose estimate could make the cut."""
    tol = 1e-9 * max([vals.max(initial=0.0)] + [v for v, _ in kept])
    ranked = np.sort(np.concatenate([[v for v, _ in kept], vals - tol]))
    pick = vals + tol >= (ranked[-k] if len(ranked) >= k else -np.inf)
    if len(kept) == k:   # a later item displaces a kept one only if larger
        pick &= vals + tol > kept[-1][0]
    cands = kept + [(f(at(i)), at(i)) for i in np.flatnonzero(pick)]
    return sorted(cands, key=lambda t: t[0], reverse=True)[:k]


def estimate_constants(plant: PlantModel, spec: SafetySpec,
                       resolution: int = 200, v_cap: float = 1.0) -> ElConstants:
    """Maxima of the potential force, right-inverse norm, and the
    velocity-force gain over the safety set: a grid scan followed by a
    deterministic pattern-search polish from the best grid candidates (the
    first maxima of k1 and kG, the three largest of k2, earliest first
    among ties), so the reported values are refined local maxima.

    f2_velocity must be a quadratic form in x2 (NoSplit if not), so
    ||f2_velocity|| / ||x2|| is maximal on ||x2|| = v_cap, and the block
    scan calls it per grid point only at v_cap (e_j + e_k) and v_cap e_j:
    by polarization these price every direction.
    """
    if not plant.has_split:
        raise NoSplit("plant lacks the potential/velocity decomposition")
    lo, hi = position_bounding_box(spec)
    grid = _position_grid(spec, lo, hi, max(resolution, 0))
    if not len(grid):
        raise ValidationError(f"no point of the resolution-{resolution} grid is in C")
    n, dirs = spec.n, _unit_directions(plant.n, _DIRECTIONS)
    spacing = (hi - lo) / max(resolution - 1, 1)
    in_c = lambda x1: contains(spec, x1)

    def f_k1(x1):
        return float(np.linalg.norm(plant.f2_potential(x1)))

    def f_kG(x1):
        return float(np.linalg.norm(np.linalg.pinv(np.atleast_2d(plant.G2(x1))), 2))

    def f_k2(z):
        x1, w = z[:n], z[n:]
        x2 = v_cap * w / np.linalg.norm(w)
        return float(np.linalg.norm(plant.f2_velocity(x1, x2))) / v_cap

    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    probes = v_cap * np.array([np.eye(n)[j] + (j < k) * np.eye(n)[k] for j, k in pairs])

    def weights(W):   # f2_velocity(x1, v_cap w) = weights(w) @ probe values
        return np.stack([W[:, j] * (W[:, k] if j < k else 2 * W[:, j] - W.sum(1))
                         for j, k in pairs], axis=1)

    check = np.linspace(-0.5, 1.0, n)   # no probe, nor a multiple of one
    k1_top, kG_top, k2_top = [(0.0, grid[0])], [(0.0, grid[0])], []
    for s in range(0, len(grid), _BLOCK):
        blk = grid[s:s + _BLOCK]
        F = np.array([[plant.f2_velocity(x1, p) for p in probes] for x1 in blk])
        direct = plant.f2_velocity(blk[0], v_cap * check)
        if np.abs(weights(check[None]) @ F[0] - direct).max() > 1e-9 * max(
                np.abs(direct).max(), np.abs(F[0]).max()):
            raise NoSplit("f2_velocity is not a quadratic form in x2")
        G = np.array([np.atleast_2d(plant.G2(x1)) for x1 in blk])
        k1_top = _stable_top(k1_top, np.linalg.norm(
            [plant.f2_potential(x1) for x1 in blk], axis=1), blk.__getitem__, f_k1, 1)
        kG_top = _stable_top(kG_top, np.linalg.norm(
            np.linalg.pinv(G), 2, axis=(1, 2)), blk.__getitem__, f_kG, 1)
        k2 = np.linalg.norm(weights(dirs) @ F, axis=2).ravel() / v_cap
        k2_top = _stable_top(k2_top, k2, lambda i: np.concatenate(
            [blk[i // len(dirs)], dirs[i % len(dirs)]]), f_k2, 3)
    k1 = _pattern_polish(f_k1, k1_top[0][1], spacing.copy(), feasible=in_c)
    kG = _pattern_polish(f_kG, kG_top[0][1], spacing.copy(), feasible=in_c)
    dir_step = np.full(plant.n, np.pi / _DIRECTIONS)
    k2 = max([0.0] + [_pattern_polish(
        f_k2, z, np.concatenate([spacing, dir_step]),
        feasible=lambda z: in_c(z[:spec.n])
        and np.linalg.norm(z[spec.n:]) > 0.1) for _, z in k2_top])
    return ElConstants(k1=k1, kG=kG, k2=k2, v_cap=v_cap)


def select_gamma(constants: ElConstants, d: float, spec: SafetySpec,
                 cert) -> tuple[float, float]:
    """Largest gamma (with 10% slack) meeting the input-bound condition
    gamma (k2 + gamma) kG c < (d - k1 kG) / 2, plus epsilon = gamma delta / 2.

    c is computed once at gamma = 1, epsilon = delta / 2 and reused: the
    velocity bound scales exactly linearly in (gamma, epsilon).
    """
    from .cbf import build, velocity_bound

    headroom = d - constants.kG * constants.k1
    if headroom <= 0:
        raise InsufficientActuation(
            f"d = {d:.6g} <= kG*k1 = {constants.kG * constants.k1:.6g}"
        )
    delta = cert.delta
    c = velocity_bound(build(spec, cert, 1.0, delta / 2)).c
    kGc = constants.kG * c
    if kGc <= 0:
        gamma = 1.0
    else:
        # stable positive root of g (k2 + g) kG c = target
        t = 0.45 * headroom / kGc   # strict half with 10% slack
        k2 = constants.k2
        gamma = 2.0 * t / (k2 + math.sqrt(k2 * k2 + 4.0 * t))
    return gamma, gamma * delta / 2
