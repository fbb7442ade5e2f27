"""Command-line surface: construct | verify | simulate | sweep.

Exit codes (stable contract): 0 on success and 4 when the boundary
condition fails at some sample; otherwise the `exit_code` of the package
error raised.  A spec or barrier field that is missing or malformed
exits 3, any other malformed input field or argument 64, a design
parameter that fails its gate (gamma * delta <= epsilon, insufficient
actuation, c_alpha * dt > 1) 2, and any failure while running 5.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
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
from .errors import PolysafeError, UsageError, ValidationError, integer, parsing, real
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
from .qp import DT, QpWeights
from .sim import Scenario, audit_invariance, simulate

EXIT_OK = 0
EXIT_CONDITION = 4

# the keys each scenario section may hold
_SCENARIO_KEYS = ("spec", "spec_file", "cbf", "plant", "controller",
                  "initial_state", "t_final", "dt", "seed")
_CBF_KEYS = ("gamma", "epsilon", "witness")
_PLANT_KEYS = {"two_link_arm": ("type", "m1", "m2", "l1", "l2", "gravity"),
               "double_integrator": ("type", "n")}
_CONTROLLER_KEYS = ("mode", "nominal", "reference", "weights", "input_set")


def _load_json(path):
    try:
        with open(Path(path)) as f:
            return json.load(f)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"not valid JSON: {path} ({exc})") from exc


def _known_keys(cfg, keys) -> dict:
    """cfg, which must be a JSON object holding no key outside `keys`."""
    if not isinstance(cfg, dict):
        raise TypeError(f"expected a JSON object, not {type(cfg).__name__}")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    return cfg


def _load_config(path) -> dict:
    """A scenario file, which must hold a JSON object of known keys."""
    raw = _load_json(path)
    with parsing("scenario"):
        return _known_keys(raw, _SCENARIO_KEYS)


def _controller_config(raw: dict) -> dict:
    with parsing("controller"):
        return _known_keys(raw.get("controller", {}), _CONTROLLER_KEYS)


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"--out {args.out}: {exc}") from exc
    return out


def _seed(raw: dict, override) -> int:
    with parsing("seed"):
        seed = (override if override is not None
                else integer(raw.get("seed", 42), "seed"))
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _plant_from_config(cfg: dict, n: int):
    """(plant, arm parameters or None) for a spec of dimension n."""
    with parsing("plant"):
        kind = cfg.get("type", "two_link_arm")
        if kind not in _PLANT_KEYS:
            raise ValueError(f"unknown plant type {kind!r}")
        _known_keys(cfg, _PLANT_KEYS[kind])
        plant_n = 2 if kind == "two_link_arm" else integer(cfg.get("n", n), "n")
        if plant_n != n:
            raise ValueError(f"{kind} has n = {plant_n}, the spec n = {n}")
        if kind == "double_integrator":
            return double_integrator(n), None
        gravity = cfg.get("gravity", False)
        if not isinstance(gravity, bool):
            raise ValueError(f"'gravity' must be true or false, not {gravity!r}")
        params = ArmParams(
            m1=real(cfg.get("m1", 1.0), "m1"), m2=real(cfg.get("m2", 1.0), "m2"),
            l1=real(cfg.get("l1", 1.0), "l1"), l2=real(cfg.get("l2", 1.0), "l2"),
            gravity=gravity,
        )
        return two_link_arm(params), params


def _input_set_from_config(ctrl: dict, m: int):
    with parsing("controller.input_set"):
        input_set = input_set_from_dict(ctrl.get("input_set", {"type": "unbounded"}))
        input_set.rows(m)   # its rows must fit the plant's m inputs
    return input_set


def _nominal_from_config(cfg: dict, params):
    kind = cfg.get("nominal", "zero")
    if kind == "zero":
        return None
    if kind == "tracking":
        if params is None:
            raise UsageError("tracking nominal controller requires the arm plant")
        with parsing("controller.reference"):
            ref = SineReference(**{k: real(v, k)
                                   for k, v in cfg.get("reference", {}).items()})
        return nominal_tracking(params, ref)
    raise UsageError(f"unknown nominal controller {kind!r}")


def _load_scenario(path, seed_override=None) -> Scenario:
    raw = _load_config(path)
    with parsing("spec", ValidationError):
        spec = SafetySpec.from_dict(_load_json(raw["spec_file"]) if "spec_file" in raw
                                    else raw["spec"])
    with parsing("cbf"):
        cbf_cfg = _known_keys(raw.get("cbf", {}), _CBF_KEYS)
    with parsing("cbf.witness"):
        y = cbf_cfg.get("witness")
        witness = None if y is None else np.reshape(real(y, "witness"), spec.n)
    cert = compute_cert(spec, overrides=witness)
    with parsing("cbf"):
        cbf = build(spec, cert, real(cbf_cfg.get("gamma", 1.0), "gamma"),
                    real(cbf_cfg.get("epsilon", cert.delta / 2), "epsilon"))
    plant, params = _plant_from_config(raw.get("plant", {}), spec.n)
    ctrl = _controller_config(raw)
    with parsing("controller.weights"):
        weights = QpWeights(**{k: v if k == "Q" and isinstance(v, str) else real(v, k)
                               for k, v in ctrl.get("weights", {}).items()})
        if not isinstance(weights.Q, str) and weights.Q.shape != (plant.m, plant.m):
            raise ValueError(f"Q must be {plant.m} x {plant.m}")
    input_set = _input_set_from_config(ctrl, plant.m)
    with parsing("initial_state"):
        x0 = real(raw.get("initial_state", [0.0] * (2 * spec.n)), "initial_state")
    with parsing("t_final"):
        t_final = real(raw.get("t_final", 10.0), "t_final")
    with parsing("dt"):
        dt = real(raw.get("dt", DT), "dt")
    with parsing("scenario"):
        return Scenario(
            cbf=cbf, plant=plant, mode=ctrl.get("mode", "safeguarded"),
            x0=x0, t_final=t_final, dt=dt,
            nominal=_nominal_from_config(ctrl, params), weights=weights,
            input_set=input_set, seed=_seed(raw, seed_override))


def cmd_construct(args) -> int:
    spec = SafetySpec.from_dict(_load_json(args.specfile))
    with parsing("--witness"):
        witness = (np.array([float(v) for v in args.witness.split(",")]).reshape(spec.n)
                   if args.witness else None)
    cert = compute_cert(spec, overrides=witness)
    if args.auto:
        if args.d is None:
            raise UsageError("--auto requires --d")
        if not np.isfinite(args.d):
            raise UsageError(f"--d must be finite, got {args.d!r}")
        if args.resolution < 2:
            raise UsageError(f"--resolution must be at least 2, got {args.resolution}")
        plant, _ = _plant_from_config(
            {"type": "two_link_arm", "gravity": args.gravity}, spec.n)
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
    with parsing("barrier file", ValidationError):
        cbf = cbf_from_dict(_load_json(args.cbffile))
    raw = _load_config(args.scenariofile)
    plant, _ = _plant_from_config(raw.get("plant", {}), cbf.n)
    input_set = _input_set_from_config(_controller_config(raw), plant.m)
    seed = _seed(raw, args.seed)
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
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


def cmd_simulate(args) -> int:
    sc = _load_scenario(args.scenariofile, seed_override=args.seed)
    if sc.mode == "safeguarded" and not args.skip_verify:
        X = sample_boundary(sc.cbf, 50, sc.seed)
        report = verify_safety_condition(sc.cbf, sc.plant, sc.input_set, X)
        if not report.all_feasible:
            print(f"boundary condition failed pre-check "
                  f"(worst margin {report.worst_margin:.6g})")
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
    with parsing("--values"):
        values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values or any(v <= 0 for v in values):
        raise UsageError("--values needs a nonempty comma list of positive numbers")
    sc0 = _load_scenario(args.scenariofile, seed_override=args.seed)
    delta = sc0.cbf.cert.delta
    rows = []
    for gamma in values:
        sc = replace(sc0, cbf=build(sc0.cbf.spec, sc0.cbf.cert, gamma, gamma * delta / 2))
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

    def out(sp):
        sp.add_argument("--out", default=".", help="output directory")

    def common(sp):
        sp.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed (default 42)")
        out(sp)

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
    out(c)
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
        return EXIT_OK if exc.code in (0, None) else UsageError.exit_code
    try:
        return args.func(args)
    except PolysafeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
