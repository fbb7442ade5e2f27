"""The benchmark's workloads: set-up, inputs, job and output checks.

Every call into polysafe goes through a module attribute (`ppoly.compute_cert`,
`psim.simulate`, ...) so that the tracer's patches in `spans.py` apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from polysafe import cbf as pcbf
from polysafe import plant as pplant
from polysafe import polytope as ppoly
from polysafe import qp as pqp
from polysafe import sim as psim
from polysafe.errors import PolysafeError
from polysafe.inputs import PolytopicBall, Unbounded

WITNESS = np.zeros(2)
START_RADIUS = 0.05   # rad; seeded start positions lie in this disc
DT = 1e-3
B_TOL = 1e-12         # logged B against an independent eval_B_many
BOUND_TOL = 1e-9      # alpha >= c_alpha, M >= c_M, and boundary |B|


@dataclass(frozen=True)
class Size:
    """Job size: the full benchmark, or the short smoke mode for tests."""

    t_final: float         # closed-loop horizon, s
    resolution: int        # estimate_constants grid
    samples: int           # boundary samples per input set
    setup_window_s: float  # wall time of each block of set-up repeats


FULL = Size(t_final=10.0, resolution=200, samples=1000, setup_window_s=1.0)
SMOKE = Size(t_final=0.2, resolution=20, samples=50, setup_window_s=0.0)


@dataclass
class JobResult:
    outputs: dict[str, np.ndarray]   # deterministic outputs, compared bitwise
    latencies: list[float]           # per-operation wall seconds
    cpu: list[float]                 # per-operation thread CPU seconds
    starts: list[float]              # per-operation start, perf_counter
    attempted: int
    failed: int
    error: str | None = None
    # repeats the job's unit operations on the same inputs, appending their
    # timings to the given JobResult's lists and ticking the given speed
    # clock; returns the outputs they determine
    replay: Callable[[JobResult, object], dict] | None = None


def same_outputs(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k], equal_nan=True) for k in a)


def ticking(fn, speed):
    """`fn` that lets the speed clock sample after each call."""
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        speed.tick()
        return result

    return call


@contextlib.contextmanager
def timed(owner, attr: str, into: JobResult, speed=None):
    """Time every successful call of owner.attr, by wall clock and thread CPU.

    The speed clock, if given, may sample after a call, outside its timers.
    """
    original = owner.__dict__[attr]
    clock, cpu_clock = time.perf_counter, time.thread_time

    def timed_call(*args, **kwargs):
        tic, cpu_tic = clock(), cpu_clock()
        result = original(*args, **kwargs)
        cpu_toc, toc = cpu_clock(), clock()
        into.latencies.append(toc - tic)
        into.cpu.append(cpu_toc - cpu_tic)
        into.starts.append(tic)
        if speed is not None:
            speed.tick()
        return result

    setattr(owner, attr, timed_call)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _check_delta(cert, checks):
    err = abs(cert.delta - math.pi / 2)
    checks.append(("delta == pi/2", err <= 1e-12, f"error {err:.3g}"))


class ClosedLoop:
    """Two-link arm in the hexagon, tracking nominal, safeguarded, dt = 1e-3."""

    def __init__(self, gamma: float, epsilon, size: Size):
        self.gamma = gamma
        self.epsilon = epsilon          # delta -> epsilon
        self.size = size

    def setup(self):
        spec = ppoly.hexagon_spec()
        cert = ppoly.compute_cert(spec, overrides=WITNESS)
        cbf = pcbf.build(spec, cert, self.gamma, self.epsilon(cert.delta))
        pcbf.check_compactness(cbf)
        velocity = pcbf.velocity_bound(cbf)
        params = pplant.ArmParams()
        arm = pplant.two_link_arm(params)
        weights = pqp.QpWeights()
        # simulate() builds its own assembler; this one charges set-up with
        # the filter's state-independent work, as a caller of the filter pays it
        pqp.SafeguardAssembler(cbf, arm, weights, Unbounded())
        return dict(cert=cert, cbf=cbf, velocity=velocity, arm=arm,
                    nominal=pplant.nominal_tracking(params), weights=weights)

    def inputs(self, ready, seed: int) -> np.ndarray:
        """A start position near the witness, lifted into C^s."""
        rng = np.random.Generator(np.random.Philox(seed))
        radius = START_RADIUS * math.sqrt(rng.uniform())
        angle = rng.uniform(0.0, 2 * math.pi)
        x1 = WITNESS + radius * np.array([math.cos(angle), math.sin(angle)])
        return pcbf.lift_position(ready["cbf"], x1)

    def job(self, ready, x0, tracer=None, t_final=None, speed=None) -> JobResult:
        arm, nominal = ready["arm"], ready["nominal"]
        if tracer is not None:
            arm = tracer.traced_plant(arm)
            nominal = tracer.wrap("plant.nominal", nominal)
        t_final = self.size.t_final if t_final is None else t_final
        scenario = psim.Scenario(cbf=ready["cbf"], plant=arm, mode="safeguarded",
                                 x0=x0, t_final=t_final, dt=DT, nominal=nominal,
                                 weights=ready["weights"], input_set=Unbounded())
        steps = int(round(t_final / DT)) + 1
        result = JobResult({}, [], [], [], steps, 0)
        with timed(pqp.SafeguardAssembler, "solve", result, speed):
            try:
                log = psim.simulate(scenario)
            except PolysafeError as exc:
                result.failed = steps - len(result.latencies)
                result.error = f"{type(exc).__name__}: {exc}"
                return result
        result.outputs = {"x": log.x, "u": log.u, "B": log.B, "h": log.h,
                          "alpha": log.alpha, "M": log.M,
                          "fast": np.array([s == "fast" for s in log.status])}
        return result

    def check(self, ready, result: JobResult) -> list[tuple[str, bool, str]]:
        checks = []
        _check_delta(ready["cert"], checks)
        if result.error is not None:
            checks.append(("run completes", False, result.error))
            return checks
        out = result.outputs
        finite = bool(np.isfinite(out["x"]).all())
        checks.append(("logged states finite", finite, ""))
        if finite:
            gap = float(np.abs(out["B"] - pcbf.eval_B_many(ready["cbf"], out["x"])).max())
            checks.append(("logged B == eval_B_many", gap <= B_TOL, f"max gap {gap:.3g}"))
        w = ready["weights"]
        low_alpha = float((w.c_alpha - out["alpha"]).max())
        low_M = float((w.c_M - out["M"]).max())
        checks.append(("alpha >= c_alpha", low_alpha <= BOUND_TOL,
                       f"worst shortfall {low_alpha:.3g}"))
        checks.append(("M >= c_M", low_M <= BOUND_TOL, f"worst shortfall {low_M:.3g}"))
        return checks

    def warmup(self, ready, x0) -> None:
        self.job(ready, x0, t_final=0.05)

    @staticmethod
    def layer_notes(result: JobResult) -> dict:
        # reported as measured: the sample-and-hold gap shows here
        return {"min_B": float(result.outputs["B"].min())}


class CertifyGravity:
    """Bounded-input certification: constants, gamma, boundary verification."""

    D_HEADROOM = 10.0   # d = kG * k1 + 10, as in the acceptance gate

    def __init__(self, size: Size):
        self.size = size

    def setup(self):
        spec = ppoly.hexagon_spec()
        cert = ppoly.compute_cert(spec, overrides=WITNESS)
        cbf = pcbf.build(spec, cert, 10.0, 0.1)
        return dict(spec=spec, cert=cert, cbf=cbf,
                    arm=pplant.two_link_arm(pplant.ArmParams()),
                    gravity_arm=pplant.two_link_arm(pplant.ArmParams(gravity=True)))

    def inputs(self, ready, seed: int) -> int:
        return seed   # the boundary sampler's seed

    def job(self, ready, seed, tracer=None, resolution=None,
            samples=None, speed=None) -> JobResult:
        arm, gravity_arm = ready["arm"], ready["gravity_arm"]
        if tracer is not None:
            arm = tracer.traced_plant(arm)
            gravity_arm = tracer.traced_plant(gravity_arm)
        if speed is not None:   # estimate_constants calls G2 throughout
            gravity_arm = dataclasses.replace(gravity_arm,
                                              G2=ticking(gravity_arm.G2, speed))
        spec, cert = ready["spec"], ready["cert"]
        resolution = self.size.resolution if resolution is None else resolution
        samples = self.size.samples if samples is None else samples
        result = JobResult({}, [], [], [], 2 * samples, 0)
        try:
            consts = pplant.estimate_constants(gravity_arm, spec, resolution=resolution)
            d = consts.kG * consts.k1 + self.D_HEADROOM
            gamma, epsilon = pplant.select_gamma(consts, d, spec, cert)
            bounded = pcbf.build(spec, cert, gamma, epsilon)
            outputs = {"constants": np.array([consts.k1, consts.kG, consts.k2,
                                              gamma, epsilon])}
            sets = {"full": (ready["cbf"], arm, Unbounded()),
                    "ball": (bounded, gravity_arm, PolytopicBall(d))}
            for tag, (cbf, _, _) in sets.items():
                X = pcbf.sample_boundary(cbf, samples, seed)
                outputs[f"X_{tag}"] = X
                outputs[f"B_{tag}"] = pcbf.eval_B_many(cbf, X)

            def verify(into: JobResult, speed) -> dict:
                # one boundary state per call: the per-sample check is the
                # workload's unit operation, timed like the filter solve.  The
                # two input sets alternate, so any stretch of calls mixes them.
                checks = {tag: [] for tag in sets}
                with timed(pcbf, "verify_safety_condition", into, speed):
                    for k in range(samples):
                        for tag, (cbf, plant, input_set) in sets.items():
                            x = outputs[f"X_{tag}"][k]
                            checks[tag].append(pcbf.verify_safety_condition(
                                cbf, plant, input_set, x[None]).checks[0])
                verdicts = {}
                for tag, cs in checks.items():
                    verdicts[f"margin_{tag}"] = np.array([c.margin for c in cs])
                    verdicts[f"feasible_{tag}"] = np.array([c.feasible for c in cs])
                    verdicts[f"u_{tag}"] = np.array(
                        [np.full(2, np.nan) if c.u_witness is None else c.u_witness
                         for c in cs])
                return verdicts

            outputs.update(verify(result, speed))
        except PolysafeError as exc:
            result.failed = 2 * samples
            result.error = f"{type(exc).__name__}: {exc}"
            return result
        result.outputs = outputs
        result.failed = sum(int((~outputs[f"feasible_{tag}"]).sum()) for tag in sets)
        result.replay = verify
        return result

    def check(self, ready, result: JobResult) -> list[tuple[str, bool, str]]:
        checks = []
        _check_delta(ready["cert"], checks)
        if result.error is not None:
            checks.append(("certification completes", False, result.error))
            return checks
        out = result.outputs
        gamma = out["constants"][3]
        checks.append(("select_gamma finite and positive",
                       bool(np.isfinite(out["constants"]).all() and gamma > 0),
                       f"gamma {gamma:.6g}"))
        for tag in ("full", "ball"):
            worst = float(np.abs(out[f"B_{tag}"]).max())
            checks.append((f"boundary |B| <= 1e-9 ({tag})", worst <= BOUND_TOL,
                           f"worst {worst:.3g}"))
            bad = int((~out[f"feasible_{tag}"]).sum())
            checks.append((f"verification feasible ({tag})", bad == 0,
                           f"{bad} infeasible, worst margin "
                           f"{out[f'margin_{tag}'].min():.3g}"))
        return checks

    def warmup(self, ready, seed) -> None:
        self.job(ready, seed, resolution=8, samples=5)

    @staticmethod
    def layer_notes(result: JobResult) -> dict:
        return {}


def make(name: str, size: Size):
    if name == "arm_hex_g0.1":
        return ClosedLoop(0.1, lambda delta: 0.1 * delta / 2, size)
    if name == "arm_hex_g10":
        return ClosedLoop(10.0, lambda delta: 0.1, size)
    if name == "certify_gravity":
        return CertifyGravity(size)
    raise KeyError(name)
