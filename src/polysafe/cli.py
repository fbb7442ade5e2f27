"""Command-line surface: construct | verify | simulate | sweep.

Exit codes (stable contract):
  0   success
  2   parameter violation (gamma * delta <= epsilon, insufficient actuation)
  3   geometry failure (unbounded or empty constraint set, bad spec file)
  4   boundary condition infeasible at some sample
  5   runtime infeasibility during simulation
  64  usage error
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cbf import (
    build,
    cbf_from_dict,
    check_compactness,
    sample_boundary,
    velocity_bound,
    verify_safety_condition,
)
from .errors import (
    AssumptionViolated,
    EmptySet,
    InsufficientActuation,
    ParameterViolation,
    QpInfeasibleAt,
    TooManyHalfspaces,
    UnboundedPositions,
    ValidationError,
)
from .inputs import input_set_from_dict
from .plant import (
    ArmParams,
    SineReference,
    double_integrator,
    estimate_constants,
    nominal_tracking,
    select_gamma,
    two_link_arm,
)
from .plots import SvgChart, term_vertices_2d
from .polytope import SafetySpec, compute_cert
from .qp import QpWeights
from .sim import Scenario, audit_invariance, simulate

EXIT_OK = 0
EXIT_PARAMETER = 2
EXIT_GEOMETRY = 3
EXIT_CONDITION = 4
EXIT_RUNTIME = 5
EXIT_USAGE = 64

_PARAMETER_ERRORS = (ParameterViolation, InsufficientActuation)
_GEOMETRY_ERRORS = (UnboundedPositions, EmptySet, AssumptionViolated,
                    ValidationError, TooManyHalfspaces)


class UsageError(Exception):
    pass


def _load_json(path) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError as exc:
        raise UsageError(f"file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"not valid JSON: {path} ({exc})") from exc


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plant_from_config(cfg: dict):
    kind = cfg.get("type", "two_link_arm")
    if kind == "two_link_arm":
        params = ArmParams(
            m1=float(cfg.get("m1", 1.0)), m2=float(cfg.get("m2", 1.0)),
            l1=float(cfg.get("l1", 1.0)), l2=float(cfg.get("l2", 1.0)),
            gravity=bool(cfg.get("gravity", False)),
        )
        return two_link_arm(params), params
    if kind == "double_integrator":
        return double_integrator(int(cfg.get("n", 1))), None
    raise UsageError(f"unknown plant type {kind!r}")


def _input_set_from_config(ctrl: dict):
    try:
        return input_set_from_dict(ctrl.get("input_set", {"type": "unbounded"}))
    except ValueError as exc:
        raise UsageError(f"controller.input_set: {exc}") from exc


def _nominal_from_config(cfg: dict, params):
    kind = cfg.get("nominal", "zero")
    if kind == "zero":
        return None
    if kind == "tracking":
        if params is None:
            raise UsageError("tracking nominal controller requires the arm plant")
        ref_cfg = cfg.get("reference", {})
        ref = SineReference(
            amplitudes=tuple(ref_cfg.get("amplitudes", (np.pi, np.pi / 2))),
            frequencies=tuple(ref_cfg.get("frequencies", (1.0, 4.0))),
        )
        return nominal_tracking(params, ref)
    raise UsageError(f"unknown nominal controller {kind!r}")


def _load_scenario(path, seed_override=None):
    """Scenario file -> (Scenario, plant params, raw dict)."""
    raw = _load_json(path)
    if "spec_file" in raw:
        spec = SafetySpec.from_dict(_load_json(raw["spec_file"]))
    else:
        spec = SafetySpec.from_dict(raw["spec"])
    cbf_cfg = raw.get("cbf", {})
    witness = cbf_cfg.get("witness")
    cert = compute_cert(spec, overrides=None if witness is None
                        else np.array(witness, dtype=float))
    cbf = build(spec, cert, float(cbf_cfg.get("gamma", 1.0)),
                float(cbf_cfg.get("epsilon", cert.delta / 2)))
    plant, params = _plant_from_config(raw.get("plant", {}))
    ctrl = raw.get("controller", {})
    try:
        weights = QpWeights(**ctrl.get("weights", {}))
    except TypeError as exc:
        raise UsageError(f"controller.weights: {exc}") from exc
    input_set = _input_set_from_config(ctrl)
    seed = seed_override if seed_override is not None else int(raw.get("seed", 42))
    sc = Scenario(
        cbf=cbf,
        plant=plant,
        mode=ctrl.get("mode", "safeguarded"),
        x0=np.array(raw.get("initial_state", [0.0] * (2 * spec.n)), dtype=float),
        t_final=float(raw.get("t_final", 10.0)),
        dt=float(raw.get("dt", 1e-3)),
        nominal=_nominal_from_config(ctrl, params),
        weights=weights,
        input_set=input_set,
        seed=seed,
    )
    return sc, params, raw


def cmd_construct(args) -> int:
    spec = SafetySpec.from_dict(_load_json(args.specfile))
    witness = (np.array([float(v) for v in args.witness.split(",")])
               if args.witness else None)
    cert = compute_cert(spec, overrides=witness)
    if args.auto:
        if args.d is None:
            raise UsageError("--auto requires --d")
        if args.resolution < 2:
            raise UsageError(f"--resolution must be at least 2, got {args.resolution}")
        plant, _ = _plant_from_config(
            {"type": "two_link_arm", "gravity": args.gravity})
        constants = estimate_constants(plant, spec, resolution=args.resolution)
        gamma, epsilon = select_gamma(constants, args.d, spec, cert)
        print(f"auto-selected gamma = {gamma:.9g}, epsilon = {epsilon:.9g} "
              f"(k1 = {constants.k1:.6g}, kG = {constants.kG:.6g}, "
              f"k2 = {constants.k2:.6g})")
    else:
        if args.gamma is None or args.epsilon is None:
            raise UsageError("provide --gamma and --epsilon, or --auto with --d")
        gamma, epsilon = args.gamma, args.epsilon
    cbf = build(spec, cert, gamma, epsilon)
    bounded = check_compactness(cbf)
    vel = velocity_bound(cbf)
    out = _outdir(args) / "cbf.json"
    with open(out, "w") as f:
        json.dump(cbf.to_dict(), f, indent=2)
    print(f"delta = {cert.delta:.9g}")
    print(f"terms bounded: {bounded}")
    print(f"velocity bound: per-component {vel.per_component_bound:.9g}, "
          f"norm {vel.norm_bound:.9g}, c = {vel.c:.9g}")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cbf = cbf_from_dict(_load_json(args.cbffile))
    raw = _load_json(args.scenariofile)
    plant, _ = _plant_from_config(raw.get("plant", {}))
    input_set = _input_set_from_config(raw.get("controller", {}))
    seed = args.seed if args.seed is not None else int(raw.get("seed", 42))
    if args.samples == 0:
        print("warning: 0 samples requested; condition vacuously verified")
        return EXIT_OK
    X = sample_boundary(cbf, args.samples, seed)
    report = verify_safety_condition(cbf, plant, input_set, X)
    out = _outdir(args) / "condition_report.csv"
    report.to_csv(out)
    print(f"{args.samples} boundary samples, worst margin "
          f"{report.worst_margin:.6g}, wrote {out}")
    if not report.all_feasible:
        bad = sum(1 for c in report.checks if not c.feasible)
        print(f"condition FAILED at {bad} samples")
        return EXIT_CONDITION
    print("condition verified at every sample")
    return EXIT_OK


def _write_plots(outdir: Path, log, sc: Scenario) -> None:
    n = sc.plant.n
    traces = SvgChart(title="joint angles", xlabel="t [s]", ylabel="angle [rad]")
    for j in range(n):
        traces.add_line(log.t, log.x[:, j], label=f"x1_{j + 1}")
    traces.write(outdir / "traces.svg")

    if n == 2:
        portrait = SvgChart(title="position trajectory", xlabel="x1_1 [rad]",
                            ylabel="x1_2 [rad]")
        for ell in range(len(sc.cbf.spec.terms)):
            portrait.add_polygon(term_vertices_2d(sc.cbf.spec, ell))
        portrait.add_line(log.x[:, 0], log.x[:, 1], label="trajectory")
        portrait.write(outdir / "portrait.svg")

    mags = SvgChart(title="input and velocity magnitudes", xlabel="t [s]",
                    ylabel="magnitude")
    mags.add_line(log.t, np.linalg.norm(log.u, axis=1), label="|u|")
    mags.add_line(log.t, np.linalg.norm(log.x[:, n:], axis=1), label="|x2|")
    mags.write(outdir / "magnitudes.svg")

    barrier = SvgChart(title="barrier values", xlabel="t [s]", ylabel="value")
    barrier.add_line(log.t, log.B, label="B")
    barrier.add_line(log.t, log.h, label="h")
    barrier.write(outdir / "barrier.svg")


def _precheck_condition(sc: Scenario, samples: int) -> float:
    X = sample_boundary(sc.cbf, samples, sc.seed)
    report = verify_safety_condition(sc.cbf, sc.plant, sc.input_set, X)
    if not report.all_feasible:
        raise AssumptionViolated(
            f"boundary condition failed pre-check "
            f"(worst margin {report.worst_margin:.6g})"
        )
    return report.worst_margin


def cmd_simulate(args) -> int:
    sc, _, _ = _load_scenario(args.scenariofile, seed_override=args.seed)
    if sc.mode == "safeguarded" and not args.skip_verify:
        try:
            _precheck_condition(sc, samples=50)
        except AssumptionViolated as exc:
            print(str(exc))
            return EXIT_CONDITION
    log = simulate(sc)
    outdir = _outdir(args)
    csv = outdir / "trajectory.csv"
    log.to_csv(csv)
    report = audit_invariance(log, sc.cbf)
    print(f"wrote {csv} ({len(log)} rows)")
    print(f"min B = {report.min_B:.6g}, min h = {report.min_h:.6g}, "
          f"max |x2| = {report.max_speed:.6g}")
    if report.first_B_violation is not None:
        print(f"first barrier violation at t = {report.first_B_violation:.6g}")
    if report.first_h_violation is not None:
        print(f"first position violation at t = {report.first_h_violation:.6g}")
    if args.plot:
        _write_plots(outdir, log, sc)
        print(f"wrote plots to {outdir}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values or any(v <= 0 for v in values):
        raise UsageError("--values needs a nonempty comma list of positive numbers")
    sc0, params, raw = _load_scenario(args.scenariofile, seed_override=args.seed)
    delta = sc0.cbf.cert.delta
    rows = []
    for gamma in values:
        cbf = build(sc0.cbf.spec, sc0.cbf.cert, gamma, gamma * delta / 2)
        sc = Scenario(cbf=cbf, plant=sc0.plant, mode=sc0.mode, x0=sc0.x0,
                      t_final=sc0.t_final, dt=sc0.dt, nominal=sc0.nominal,
                      weights=sc0.weights, input_set=sc0.input_set, seed=sc0.seed)
        log = simulate(sc)
        n = sc.plant.n
        max_u = float(np.linalg.norm(log.u, axis=1).max())
        max_v = float(np.linalg.norm(log.x[:, n:], axis=1).max())
        rows.append((gamma, max_u, max_v, float(log.B.min())))
        print(f"gamma = {gamma:g}: max |u| = {max_u:.6g}, "
              f"max |x2| = {max_v:.6g}, min B = {log.B.min():.6g}")
    out = _outdir(args) / "sweep.csv"
    with open(out, "w") as f:
        f.write("gamma,max_input,max_velocity,min_B\n")
        for row in rows:
            f.write(",".join(format(v, ".17g") for v in row) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polysafe",
        description="Safety filtering for second-order systems with "
                    "polytopic position constraints.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (default 42)")
        sp.add_argument("--out", default=".", help="output directory")

    c = sub.add_parser("construct", help="build and certify an extended barrier")
    c.add_argument("specfile")
    c.add_argument("--gamma", type=float)
    c.add_argument("--epsilon", type=float)
    c.add_argument("--witness", help="comma-separated interior witness point")
    c.add_argument("--auto", action="store_true",
                   help="select gamma from the input bound --d")
    c.add_argument("--d", type=float, help="input magnitude bound for --auto")
    c.add_argument("--gravity", action="store_true",
                   help="enable arm gravity for --auto constant estimation")
    c.add_argument("--resolution", type=int, default=60,
                   help="grid resolution for --auto constant estimation")
    common(c)
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="sample the boundary and check the "
                                      "safety condition")
    v.add_argument("cbffile")
    v.add_argument("scenariofile")
    v.add_argument("--samples", type=int, default=100)
    common(v)
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="run a closed-loop scenario")
    s.add_argument("scenariofile")
    s.add_argument("--plot", action="store_true", help="emit SVG figures")
    s.add_argument("--skip-verify", action="store_true",
                   help="skip the boundary condition pre-check")
    common(s)
    s.set_defaults(func=cmd_simulate)

    w = sub.add_parser("sweep", help="compare runs across gamma values")
    w.add_argument("scenariofile")
    w.add_argument("--param", default="gamma", choices=["gamma"])
    w.add_argument("--values", required=True,
                   help="comma-separated positive gamma values")
    common(w)
    w.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _PARAMETER_ERRORS as exc:
        print(f"parameter violation: {exc}", file=sys.stderr)
        return EXIT_PARAMETER
    except _GEOMETRY_ERRORS as exc:
        print(f"geometry failure: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    except QpInfeasibleAt as exc:
        print(f"runtime infeasibility: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
