"""Deterministic fixed-step closed-loop simulation with invariance audit.

Control is sample-and-hold: the input is computed once per step and
frozen across the four RK4 stages, mirroring a digital implementation.
The safety filter is given the period, so its rows bound the barrier over
each held step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cbf import ExtendedCbf, VelocityCert, eval_B, eval_B_many
from .errors import Infeasible, NonFinite, QpInfeasibleAt
from .plant import PlantModel, rk4_step
from .polytope import eval_h, eval_h_many
from .qp import QpWeights, SafeguardAssembler

VIOLATION_TOL = 1e-6  # audit_invariance flags B < -this


@dataclass(frozen=True)
class Scenario:
    """One closed-loop run: plant, barrier, controller mode, horizon."""

    cbf: ExtendedCbf
    plant: PlantModel
    mode: str  # "nominal" | "safeguarded"
    x0: np.ndarray
    t_final: float
    dt: float = 1e-3
    nominal: Callable[[float, np.ndarray], np.ndarray] | None = None
    weights: QpWeights = field(default_factory=QpWeights)
    input_set: object = None
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0 <= self.t_final < np.inf:
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final!r}")
        if self.mode not in ("nominal", "safeguarded"):
            raise ValueError(f"unknown mode {self.mode!r}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.size != 2 * self.cbf.n or not np.isfinite(x0).all():
            raise ValueError(f"initial state must be finite with dimension {2 * self.cbf.n}")
        object.__setattr__(self, "x0", x0)


@dataclass
class TrajectoryLog:
    """Uniform-step record of states, applied inputs, and QP diagnostics."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    B: np.ndarray
    h: np.ndarray
    alpha: np.ndarray
    M: np.ndarray
    status: list[str]
    solve_us: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path) -> None:
        n = self.x.shape[1] // 2
        m = self.u.shape[1]
        cols = (["t"]
                + [f"x1_{j + 1}" for j in range(n)]
                + [f"x2_{j + 1}" for j in range(n)]
                + [f"u_{j + 1}" for j in range(m)]
                + ["B", "h", "alpha", "M", "status", "solve_us"])
        with open(path, "w") as f:
            f.write(",".join(cols) + "\n")
            for k in range(len(self.t)):
                vals = [self.t[k], *self.x[k], *self.u[k], self.B[k], self.h[k],
                        self.alpha[k], self.M[k]]
                f.write(",".join(format(v, ".17g") for v in vals)
                        + f",{self.status[k]},{format(self.solve_us[k], '.17g')}\n")


def simulate(sc: Scenario) -> TrajectoryLog:
    """Run the closed loop; aborts with QpInfeasibleAt on filter failure."""
    steps = int(round(sc.t_final / sc.dt)) if sc.t_final > 0 else 0
    npt = steps + 1
    n, m = sc.plant.n, sc.plant.m
    t = np.arange(npt) * sc.dt
    X = np.zeros((npt, 2 * n))
    U = np.zeros((npt, m))
    B = np.zeros(npt)
    H = np.zeros(npt)
    alpha = np.full(npt, np.nan)
    Mv = np.full(npt, np.nan)
    status = []
    solve_us = np.zeros(npt)

    asm = None
    if sc.mode == "safeguarded":
        asm = SafeguardAssembler(sc.cbf, sc.plant, sc.weights, sc.input_set,
                                 dt=sc.dt)

    x = sc.x0.copy()
    for k in range(npt):
        if not np.isfinite(x).all():
            raise NonFinite(f"non-finite state at t={t[k]:.6g}")
        X[k] = x
        H[k] = eval_h(sc.cbf.spec, x[:n])
        u_nom = sc.nominal(t[k], x) if sc.nominal is not None else np.zeros(m)
        if not np.isfinite(u_nom).all():
            raise NonFinite(f"non-finite nominal input at t={t[k]:.6g}")
        if asm is not None:
            tic = time.perf_counter()
            try:
                res = asm.solve(x, u_nom=u_nom, warm_start=True)
            except Infeasible as exc:
                raise QpInfeasibleAt(t[k], x, str(exc)) from exc
            solve_us[k] = (time.perf_counter() - tic) * 1e6
            B[k] = res.B   # the filter has just evaluated B at x
            u = res.u_star
            alpha[k] = res.alpha_star
            Mv[k] = res.M_star
            status.append("fast" if res.fast_path else "optimal")
        else:
            B[k] = eval_B(sc.cbf, x).value
            u = np.atleast_1d(u_nom)
            status.append("nominal")
        U[k] = u
        if k < steps:
            x = rk4_step(sc.plant, u, x, sc.dt)
    return TrajectoryLog(t=t, x=X, u=U, B=B, h=H, alpha=alpha, M=Mv,
                         status=status, solve_us=solve_us)


@dataclass(frozen=True)
class InvarianceReport:
    min_B: float
    min_h: float
    first_B_violation: float | None  # time of first B < -VIOLATION_TOL, if any
    first_h_violation: float | None
    max_speed: float
    speed_bound: float | None

    @property
    def invariant(self) -> bool:
        return self.first_B_violation is None


def audit_invariance(log: TrajectoryLog, cbf: ExtendedCbf,
                     velocity_cert: VelocityCert | None = None) -> InvarianceReport:
    """Recompute B and h at every logged state, independent of the loop."""
    if len(log) == 0:
        return InvarianceReport(np.inf, np.inf, None, None, 0.0,
                                None if velocity_cert is None
                                else velocity_cert.norm_bound)
    n = cbf.n
    Bvals = eval_B_many(cbf, log.x)
    hvals = eval_h_many(cbf.spec, log.x[:, :n])
    speeds = np.linalg.norm(log.x[:, n:], axis=1)
    bviol = np.flatnonzero(Bvals < -VIOLATION_TOL)
    hviol = np.flatnonzero(hvals < 0.0)
    return InvarianceReport(
        min_B=float(Bvals.min()),
        min_h=float(hvals.min()),
        first_B_violation=float(log.t[bviol[0]]) if bviol.size else None,
        first_h_violation=float(log.t[hviol[0]]) if hviol.size else None,
        max_speed=float(speeds.max()),
        speed_bound=None if velocity_cert is None else velocity_cert.norm_bound,
    )
