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

from .errors import (
    NonFinite,
    ParameterViolation,
    PolysafeError,
    UsageError,
    ValidationError,
)
from .polytope import (SafetySpec, contains, eval_h_many, position_bounding_box,
                       velocity_extents)

GRAVITY = 9.8  # m/s^2
_V_CAP = 1.0   # radius of the velocity ball that k2 is estimated on
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
    A two-joint state (n = 2) runs the same operations in the same order
    as straight-line scalar code, so both paths give equal bits; the loop
    over stage lists is the path for every other n.

    A stage state that overflows reaches the plant as inf, where math.sin
    raises ValueError; the step is then retaken with each stage checked,
    which raises NonFinite there and repeats any other error of the plant's.
    """
    u = np.asarray(u, dtype=float)
    accel = plant.accel
    if accel is None:
        f2, G2 = plant.f2, plant.G2

        def accel(x1, x2, _):
            x1 = np.array(x1)
            return (f2(x1, np.array(x2)) + G2(x1) @ u).tolist()

    us, xs = u.tolist(), np.asarray(x, dtype=float).tolist()
    try:
        return _rk4(accel, plant.n, us, xs, dt)
    except ValueError:
        def checked(x1, x2, u):
            if not all(map(math.isfinite, x1 + x2)):
                raise NonFinite("non-finite state in an RK4 stage") from None
            return accel(x1, x2, u)

        return _rk4(checked, plant.n, us, xs, dt)


def _rk4(accel, n: int, us: list, xs: list, dt: float) -> np.ndarray:
    """rk4_step's stages, on Python floats."""
    h = 0.5 * dt
    if n == 2:   # k1 = (v, a), k2 = (b, c), k3 = (d, e), k4 = (f, g)
        p0, p1, v0, v1 = xs
        a0, a1 = accel([p0, p1], [v0, v1], us)
        b0, b1 = v0 + h * a0, v1 + h * a1
        c0, c1 = accel([p0 + h * v0, p1 + h * v1], [b0, b1], us)
        d0, d1 = v0 + h * c0, v1 + h * c1
        e0, e1 = accel([p0 + h * b0, p1 + h * b1], [d0, d1], us)
        f0, f1 = v0 + dt * e0, v1 + dt * e1
        g0, g1 = accel([p0 + dt * d0, p1 + dt * d1], [f0, f1], us)
        w = dt / 6.0
        return np.array([p0 + w * (v0 + 2 * b0 + 2 * d0 + f0),
                         p1 + w * (v1 + 2 * b1 + 2 * d1 + f1),
                         v0 + w * (a0 + 2 * c0 + 2 * e0 + g0),
                         v1 + w * (a1 + 2 * c1 + 2 * e1 + g1)])
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

    k2 is estimated on the velocity ball ||x2|| <= _V_CAP = 1 only (the
    velocity force is quadratic for the arm, so a linear bound needs a
    bounded velocity set).
    """

    k1: float
    kG: float
    k2: float


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
        try:   # a float ** raises OverflowError where * reads inf
            c = {
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
            }
        except OverflowError:
            c = {"c11": math.inf}
        if not all(map(math.isfinite, c.values())):
            raise ValueError("masses and lengths overflow the arm's coefficients c_ij")
        object.__setattr__(self, "_coefficients", c)   # read by every dynamics call

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

    Each callable, on arrays or lists, is straight-line code on Python floats
    with the c_ij bound once and one shared inverse of the inertia: they run
    many times per control step and per grid point, where numpy's per-scalar
    costs dominate.  The entries are those of mass_matrix, coriolis_matrix
    and potential_vector, each computed with the same operations in order.
    """
    c11, c12, c13, c14, c15, c16, c21, c22, c23, c24, c25 = \
        params.coefficients.values()   # built in this order by ArmParams

    def inverse_inertia(t1):
        """Entries of M^{-1} at theta2 = t1: M = [[m11, m12], [m21, c21]]."""
        ct2 = math.cos(t1)
        m11, m12, m21 = c11 + c12 * ct2, c13 + c14 * ct2, c22 + c23 * ct2
        det = m11 * c21 - m12 * m21
        if abs(det) <= 1e-12 * m11 * c21:   # relative: M scales with m l^2; 0 <= 0 too
            raise PolysafeError(f"inertia matrix singular at theta2={t1:.4g}")
        return c21 / det, -m12 / det, -m21 / det, m11 / det

    def G2(x1):
        i11, i12, i21, i22 = inverse_inertia(x1[1])
        return np.array([[i11, i12], [i21, i22]])

    def f2(x1, x2):
        t1, v0, v1 = x1[1], float(x2[0]), float(x2[1])   # no numpy-scalar products
        st2 = math.sin(t1)
        r0 = c15 * st2 * v1 * v0 + c16 * st2 * v1 * v1
        r1 = c24 * st2 * v0 * v0 + c25 * math.cos(x1[0] + t1)
        i11, i12, i21, i22 = inverse_inertia(t1)
        return np.array([i11 * r0 + i12 * r1, i21 * r0 + i22 * r1])

    def f2_velocity(x1, x2):
        t1, v0, v1 = x1[1], float(x2[0]), float(x2[1])
        st2 = math.sin(t1)
        r0 = c15 * st2 * v1 * v0 + c16 * st2 * v1 * v1
        r1 = c24 * st2 * v0 * v0
        i11, i12, i21, i22 = inverse_inertia(t1)
        return np.array([i11 * r0 + i12 * r1, i21 * r0 + i22 * r1])

    def f2_potential(x1):
        r1 = c25 * math.cos(x1[0] + x1[1])
        i11, i12, i21, i22 = inverse_inertia(x1[1])
        return np.array([i11 * 0.0 + i12 * r1, i21 * 0.0 + i22 * r1])

    def accel(x1, x2, u):
        t1, v0, v1 = x1[1], x2[0], x2[1]
        st2 = math.sin(t1)
        i11, i12, i21, i22 = inverse_inertia(t1)
        r0 = c15 * st2 * v1 * v0 + c16 * st2 * v1 * v1 + u[0]
        r1 = c24 * st2 * v0 * v0 + (c25 * math.cos(x1[0] + t1) + u[1])
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
                       resolution: int = 200) -> ElConstants:
    """Maxima of the potential force, right-inverse norm, and the
    velocity-force gain over the safety set: a grid scan followed by a
    deterministic pattern-search polish from the best grid candidates (the
    first maxima of k1 and kG, the three largest of k2, earliest first
    among ties), so the reported values are refined local maxima.

    f2_velocity must be a quadratic form in x2 (PolysafeError if not), so
    ||f2_velocity|| / ||x2|| is maximal on ||x2|| = _V_CAP, and the block
    scan calls it per grid point only at _V_CAP (e_j + e_k) and _V_CAP e_j:
    by polarization these price every direction.  The scan's kG values come
    from one batched SVD per block: 1 / the least singular value above
    pinv's 1e-15 relative cutoff, as ||pinv(G2)||_2 reads it.
    """
    if not plant.has_split:
        raise PolysafeError("plant lacks the potential/velocity decomposition")
    lo, hi = position_bounding_box(spec)
    try:
        grid = _position_grid(spec, lo, hi, max(resolution, 0))
    except (MemoryError, OverflowError, ValueError) as exc:
        raise UsageError(f"a resolution-{resolution} grid has {resolution}^{spec.n} "
                         "points, too many to allocate") from exc
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
        x2 = _V_CAP * w / np.linalg.norm(w)
        return float(np.linalg.norm(plant.f2_velocity(x1, x2))) / _V_CAP

    pairs = [(j, k) for j in range(n) for k in range(j, n)]
    probes = _V_CAP * np.array([np.eye(n)[j] + (j < k) * np.eye(n)[k] for j, k in pairs])

    def weights(W):   # f2_velocity(x1, _V_CAP w) = weights(w) @ probe values
        return np.stack([W[:, j] * (W[:, k] if j < k else 2 * W[:, j] - W.sum(1))
                         for j, k in pairs], axis=1)

    check = np.linspace(-0.5, 1.0, n)   # no probe, nor a multiple of one
    k1_top, kG_top, k2_top = [(0.0, grid[0])], [(0.0, grid[0])], []
    for s in range(0, len(grid), _BLOCK):
        blk = grid[s:s + _BLOCK]
        F = np.array([[plant.f2_velocity(x1, p) for p in probes] for x1 in blk])
        direct = plant.f2_velocity(blk[0], _V_CAP * check)
        if np.abs(weights(check[None]) @ F[0] - direct).max() > 1e-9 * max(
                np.abs(direct).max(), np.abs(F[0]).max()):
            raise PolysafeError("f2_velocity is not a quadratic form in x2")
        s_G = np.linalg.svd([np.atleast_2d(plant.G2(x1)) for x1 in blk], compute_uv=False)
        k1_top = _stable_top(k1_top, np.linalg.norm(
            [plant.f2_potential(x1) for x1 in blk], axis=1), blk.__getitem__, f_k1, 1)
        kept = s_G > 1e-15 * s_G[:, :1]   # pinv's cutoff: ||G^+||_2 = 1 / least kept
        kG_top = _stable_top(kG_top, np.divide(1.0, s_G, out=np.zeros_like(s_G),
                                               where=kept).max(1), blk.__getitem__, f_kG, 1)
        k2 = np.linalg.norm(weights(dirs) @ F, axis=2).ravel() / _V_CAP
        k2_top = _stable_top(k2_top, k2, lambda i: np.concatenate(
            [blk[i // len(dirs)], dirs[i % len(dirs)]]), f_k2, 3)
    k1 = _pattern_polish(f_k1, k1_top[0][1], spacing.copy(), feasible=in_c)
    kG = _pattern_polish(f_kG, kG_top[0][1], spacing.copy(), feasible=in_c)
    dir_step = np.full(plant.n, np.pi / _DIRECTIONS)
    k2 = max([0.0] + [_pattern_polish(
        f_k2, z, np.concatenate([spacing, dir_step]),
        feasible=lambda z: in_c(z[:spec.n])
        and np.linalg.norm(z[spec.n:]) > 0.1) for _, z in k2_top])
    return ElConstants(k1=k1, kG=kG, k2=k2)


def select_gamma(constants: ElConstants, d: float, spec: SafetySpec,
                 cert) -> tuple[float, float]:
    """Largest gamma (with 10% slack) meeting the input-bound condition
    gamma (k2 + gamma) kG c < (d - k1 kG) / 2, plus epsilon = gamma delta / 2.

    There rho = epsilon / gamma = delta / 2 at every gamma, so ||x2|| <= c gamma
    with c = sqrt(n) max |velocity_extents(spec, delta / 2)|: no barrier is built.
    A non-finite d, like d <= k1 kG, is a ParameterViolation.
    """
    if not math.isfinite(d):
        raise ParameterViolation(f"d = {d!r} is not finite")
    headroom = d - constants.kG * constants.k1
    if headroom <= 0:
        raise ParameterViolation(
            f"d = {d:.6g} <= kG*k1 = {constants.kG * constants.k1:.6g}"
        )
    delta = cert.delta
    c = float(np.sqrt(spec.n) * np.abs(velocity_extents(spec, delta / 2)).max())
    kGc = constants.kG * c
    if kGc <= 0:
        gamma = 1.0
    else:
        # stable positive root of g (k2 + g) kG c = target
        t = 0.45 * headroom / kGc   # strict half with 10% slack
        k2 = constants.k2
        gamma = 2.0 * t / (k2 + math.sqrt(k2 * k2 + 4.0 * t))
    return gamma, gamma * delta / 2
