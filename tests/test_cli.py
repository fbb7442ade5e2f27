"""Command-line exit codes, file outputs, and idempotence."""

import copy
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polysafe
from polysafe import cli
from polysafe.cbf import build
from polysafe.cli import main
from polysafe.polytope import compute_cert, hexagon_spec


@pytest.fixture()
def specfile(tmp_path):
    path = tmp_path / "hexagon.json"
    path.write_text(json.dumps(hexagon_spec().to_dict()))
    return path


def _scenario(tmp_path, specfile, **overrides):
    cfg = {
        "spec_file": str(specfile),
        "cbf": {"gamma": 10.0, "epsilon": 0.1, "witness": [0.0, 0.0]},
        "plant": {"type": "two_link_arm"},
        "controller": {"mode": "safeguarded", "nominal": "tracking",
                       "weights": {"c_alpha": 40.0}},
        "initial_state": [0.0, 0.0, 0.0, 0.0],
        "t_final": 0.2,
        "dt": 1e-3,
        "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_construct_success(tmp_path, specfile, capsys):
    code = main(["construct", str(specfile), "--gamma", "10",
                 "--epsilon", "0.1", "--witness", "0,0",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "delta = 1.57079633" in out
    assert (tmp_path / "out" / "cbf.json").exists()


def test_construct_zero_offset_companion_row_exit_0(tmp_path):
    # interval [-0.5, 10], delta = 5.25: at gamma = 1, epsilon = 0.5 one
    # velocity companion row has a zero offset, which is a valid barrier
    spec = {"n": 1, "halfspaces": [{"a": [1.0], "b": 0.5},
                                   {"a": [-1.0], "b": 10.0}],
            "terms": [[1, 2]]}
    path = tmp_path / "interval.json"
    path.write_text(json.dumps(spec))
    code = main(["construct", str(path), "--gamma", "1", "--epsilon", "0.5",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "cbf.json").exists()


@pytest.mark.parametrize("gamma, per_component", [("3e9", "1.88495559e+10"),
                                                  ("1e15", "6.28318531e+15")])
def test_construct_huge_gamma_exit_0(tmp_path, specfile, capsys, gamma, per_component):
    # the velocity extents are gamma (P_rho - P), from vertices on the spec's
    # own rows; LPs on the gamma-scaled rows read them unbounded from 2e9 on
    code = main(["construct", str(specfile), "--gamma", gamma, "--epsilon", "0.1",
                 "--witness", "0,0", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"velocity bound: per-component {per_component}," in out
    assert "c = 8.88576588" in out


def test_verify_huge_gamma_samples_the_boundary(tmp_path, specfile, capsys):
    # the facets come from the vertices of P and P_rho on the spec's own
    # rows, so gamma enters no vertex
    assert main(["construct", str(specfile), "--gamma", "3e9", "--epsilon", "0.1",
                 "--witness", "0,0", "--out", str(tmp_path)]) == 0
    code = main(["verify", str(tmp_path / "cbf.json"), str(_scenario(tmp_path, specfile)),
                 "--samples", "5", "--out", str(tmp_path)])
    assert "no nonempty boundary facets found" not in capsys.readouterr().err
    assert code == 0


def test_construct_auto_with_gravity_exit_0(tmp_path, specfile, capsys):
    code = main(["construct", str(specfile), "--auto", "--d", "400", "--gravity",
                 "--resolution", "20", "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.startswith("auto-selected gamma = ")
    assert (tmp_path / "cbf.json").exists()


@pytest.mark.parametrize("flags, message", [
    (["--auto"], "--auto requires --d"),
    ([], "provide --gamma and --epsilon, or --auto with --d"),
    (["--gamma", "1"], "provide --gamma and --epsilon, or --auto with --d"),
])
def test_construct_without_gamma_exit_64(tmp_path, specfile, capsys, flags, message):
    assert main(["construct", str(specfile), *flags, "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err == f"UsageError: {message}\n"


@pytest.mark.parametrize("d", ["nan", "inf", "-inf"])
def test_construct_non_finite_d_exit_64_before_the_scan(tmp_path, specfile, capsys,
                                                        monkeypatch, d):
    def scan(*args, **kwargs):
        raise AssertionError("estimate_constants ran")

    monkeypatch.setattr(cli, "estimate_constants", scan)
    assert main(["construct", str(specfile), "--auto", f"--d={d}",
                 "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err == f"UsageError: --d must be finite, got {float(d)!r}\n"


def test_construct_parameter_violation_exit_2(tmp_path, specfile):
    code = main(["construct", str(specfile), "--gamma", "0.01",
                 "--epsilon", "1", "--out", str(tmp_path)])
    assert code == 2


def test_construct_unbounded_geometry_exit_3(tmp_path):
    spec = {"n": 2, "halfspaces": [{"a": [1.0, 0.0], "b": 1.0}],
            "terms": [[1]]}
    path = tmp_path / "half.json"
    path.write_text(json.dumps(spec))
    code = main(["construct", str(path), "--gamma", "1", "--epsilon", "0.1",
                 "--out", str(tmp_path)])
    assert code == 3


def test_construct_term_with_too_many_vertex_subsets_exit_3(tmp_path, capsys):
    # 30 rows in n = 15: C(30, 15) vertex subsets, refused before enumeration
    rng = np.random.Generator(np.random.Philox(30))
    spec = {"n": 15, "terms": [list(range(1, 31))],
            "halfspaces": [{"a": rng.normal(size=15).tolist(), "b": 1.0}
                           for _ in range(30)]}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(spec))
    code = main(["construct", str(path), "--gamma", "1", "--epsilon", "0.1",
                 "--out", str(tmp_path)])
    assert code == 3
    assert "C(30, 15) row subsets exceed the cap" in capsys.readouterr().err


@pytest.mark.parametrize("gamma, epsilon", [("nan", "0.1"), ("inf", "0.1"),
                                            ("10", "nan")])
def test_construct_non_finite_parameter_exit_2(tmp_path, specfile, capsys,
                                               gamma, epsilon):
    code = main(["construct", str(specfile), "--gamma", gamma,
                 "--epsilon", epsilon, "--out", str(tmp_path)])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("spec, field", [
    ({"n": 2, "halfspaces": [{"a": [1.0, 0.0], "b": 1.0}]}, "'terms'"),
    ([{"a": [1.0, 0.0], "b": 1.0}], "JSON object"),
    ({"n": 2, "halfspaces": [{"a": [1.0, 0.0]}], "terms": [[1]]}, "'halfspaces'"),
    ({"n": "two", "halfspaces": [{"a": [1.0], "b": 1.0}], "terms": [[1]]}, "'n'"),
    ({**hexagon_spec().to_dict(), "terms": [[1.9, 2, 3, 4, 5, 6]]}, "'terms'"),
    ({**hexagon_spec().to_dict(), "n": 2.7}, "'n'"),
    ({**hexagon_spec().to_dict(), "n": True}, "'n'"),
])
def test_malformed_spec_exit_3(tmp_path, specfile, capsys, spec, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code = main(["construct", str(path), "--gamma", "1", "--epsilon", "0.1",
                 "--out", str(tmp_path)])
    assert code == 3
    assert field in capsys.readouterr().err
    # verify reads the spec fields of a barrier file the same way
    code = main(["verify", str(path), str(_scenario(tmp_path, specfile)),
                 "--out", str(tmp_path)])
    assert code == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("controller, field", [
    ({"weights": {"c_alpha": 40.0, "c_beta": 1.0}}, "controller.weights"),
    ({"input_set": {"type": "sphere", "d": 1.0}}, "controller.input_set"),
])
def test_unknown_controller_field_exit_64(tmp_path, specfile, capsys,
                                          controller, field):
    scenario = _scenario(tmp_path, specfile,
                         controller={"mode": "safeguarded", "nominal": "tracking",
                                     **controller})
    code = main(["simulate", str(scenario), "--out", str(tmp_path / "r"),
                 "--skip-verify"])
    assert code == 64
    assert field in capsys.readouterr().err


def test_verify_unknown_input_set_type_exit_64(tmp_path, specfile, capsys):
    out = tmp_path / "out"
    assert main(["construct", str(specfile), "--gamma", "10",
                 "--epsilon", "0.1", "--witness", "0,0",
                 "--out", str(out)]) == 0
    scenario = _scenario(tmp_path, specfile,
                         controller={"input_set": {"type": "sphere"}})
    code = main(["verify", str(out / "cbf.json"), str(scenario),
                 "--samples", "5", "--out", str(out)])
    assert code == 64
    assert "controller.input_set" in capsys.readouterr().err


def _construct_with_witness(witness):
    return lambda tmp_path, specfile: [
        "construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
        "--witness", witness, "--out", str(tmp_path)]


def _simulate_with(**overrides):
    return lambda tmp_path, specfile: [
        "simulate", str(_scenario(tmp_path, specfile, **overrides)),
        "--out", str(tmp_path / "r"), "--skip-verify"]


def _verify_with(barrier, scenario=None, samples="5"):
    def argv(tmp_path, specfile):
        path = tmp_path / "barrier.json"
        path.write_text(json.dumps(barrier))
        scenario_path = _scenario(tmp_path, specfile)
        if scenario is not None:
            scenario_path.write_text(json.dumps(scenario))
        return ["verify", str(path), str(scenario_path),
                "--samples", samples, "--out", str(tmp_path)]
    return argv


_TRACKING = {"mode": "safeguarded", "nominal": "tracking"}
_HEX_CBF = {**hexagon_spec().to_dict(), "cbf": {"gamma": 10.0, "epsilon": 0.1}}
# what `construct hexagon.json --gamma 10 --epsilon 0.1 --witness 0,0` writes
_HEX_BARRIER = build(hexagon_spec(), compute_cert(hexagon_spec(), overrides=np.zeros(2)),
                     10.0, 0.1).to_dict()


@pytest.mark.parametrize("argv, code, field", [
    pytest.param(_construct_with_witness("a,b"), 64, "--witness", id="witness-text"),
    pytest.param(_construct_with_witness("0,0,0"), 64, "--witness", id="witness-size"),
    pytest.param(_simulate_with(controller={**_TRACKING, "mode": "bogus"}), 64,
                 "mode", id="mode"),
    pytest.param(_simulate_with(dt=0), 64, "dt", id="dt"),
    pytest.param(_simulate_with(initial_state=[0.0, 0.0]), 64, "initial state",
                 id="initial-state"),
    pytest.param(_simulate_with(controller={**_TRACKING, "weights": {"q_M": -1}}),
                 64, "controller.weights", id="weight"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "m1": 0}), 64,
                 "plant", id="mass"),
    pytest.param(_simulate_with(controller={**_TRACKING, "input_set": {"type": "box"}}),
                 64, "controller.input_set", id="box-limits"),
    pytest.param(_simulate_with(controller="safeguarded"), 64, "controller",
                 id="controller-text"),
    pytest.param(_verify_with(_HEX_CBF), 3, "cert", id="barrier-cert"),
    pytest.param(_verify_with(_HEX_BARRIER, scenario=[1, 2]), 64, "scenario",
                 id="scenario-list"),
])
def test_malformed_load_field_exits_with_code(tmp_path, specfile, capsys, argv,
                                              code, field):
    assert main(argv(tmp_path, specfile)) == code
    assert field in capsys.readouterr().err


def _edited_cert(edit):
    barrier = copy.deepcopy(_HEX_BARRIER)
    edit(barrier["cert"])
    return barrier


# the one half-plane x1 >= -1, with a witness that has its margin
_HALF_PLANE_BARRIER = {"n": 2, "halfspaces": [{"a": [1.0, 0.0], "b": 1.0}], "terms": [[1]],
                       "cbf": {"gamma": 1.0, "epsilon": 0.5},
                       "cert": {"delta": 1.0, "witnesses": [{"indices": [1], "y": [0.0, 0.0]}]}}


@pytest.mark.parametrize("barrier, message", [
    pytest.param(_edited_cert(lambda c: c.update(witnesses=[])),
                 "must name the 63 index sets", id="no-witnesses"),
    pytest.param(_edited_cert(lambda c: [w.update(y=[0]) for w in c["witnesses"]]),
                 "barrier field 'cert'", id="short-witnesses"),
    pytest.param(_edited_cert(lambda c: c["witnesses"][0].update(y=[100, 100])),
                 "witness for [0] lacks a positive margin", id="witness-outside"),
    pytest.param(_edited_cert(lambda c: c.update(delta=5)), "cert delta 5", id="delta"),
    pytest.param(_HALF_PLANE_BARRIER, "term 0 is unbounded", id="unbounded-term"),
    pytest.param(_edited_cert(lambda c: c["witnesses"].insert(
        0, {"indices": [1], "y": [100, 100]})), "cert names indices [1] twice",
                 id="repeated-indices"),
    pytest.param(_edited_cert(lambda c: c["witnesses"][0].update(indices=[1, 1])),
                 "cert entry [1, 1] repeats an index", id="repeated-member"),
])
def test_barrier_with_a_false_certificate_exits_3(tmp_path, specfile, capsys, barrier,
                                                   message):
    # the certificate was once trusted as written: these exited 1 with a
    # KeyError traceback, 0, 4 and 0 in turn; an unbounded term exited 5 with
    # no boundary facets, and a false entry before a true one for the same
    # index set was overwritten and exited 0, and a member named twice in an
    # entry was dropped, the entry read as its set
    assert main(_verify_with(barrier, samples="20")(tmp_path, specfile)) == 3
    err = capsys.readouterr().err
    assert err.startswith("ValidationError: ") and err.count("\n") == 1
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("resolution", ["0", "1", "-5"])
def test_construct_auto_bad_resolution_exit_64(tmp_path, specfile, capsys,
                                               resolution):
    code = main(["construct", str(specfile), "--auto", "--d", "400",
                 "--resolution", resolution, "--out", str(tmp_path)])
    assert code == 64
    assert "--resolution" in capsys.readouterr().err


def test_construct_auto_resolution_too_large_to_allocate_exit_64(tmp_path, specfile,
                                                                capsys):
    # numpy refuses a 1e20-point axis before allocating anything
    code = main(["construct", str(specfile), "--auto", "--d", "400",
                 "--resolution", "100000000000000000000", "--out", str(tmp_path)])
    assert code == 64
    err = capsys.readouterr().err
    assert "resolution-100000000000000000000 grid" in err
    assert "Traceback" not in err


def test_construct_missing_file_exit_64(tmp_path):
    assert main(["construct", str(tmp_path / "nope.json"), "--gamma", "1",
                 "--epsilon", "0.1", "--out", str(tmp_path)]) == 64


def test_unknown_subcommand_exit_64():
    assert main(["frobnicate"]) == 64


def test_verify_success_and_csv(tmp_path, specfile):
    out = tmp_path / "out"
    assert main(["construct", str(specfile), "--gamma", "10",
                 "--epsilon", "0.1", "--witness", "0,0",
                 "--out", str(out)]) == 0
    scenario = _scenario(tmp_path, specfile)
    code = main(["verify", str(out / "cbf.json"), str(scenario),
                 "--samples", "25", "--out", str(out)])
    assert code == 0
    assert (out / "condition_report.csv").exists()


def test_verify_zero_samples_warns(tmp_path, specfile, capsys):
    out = tmp_path / "out"
    main(["construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
          "--witness", "0,0", "--out", str(out)])
    scenario = _scenario(tmp_path, specfile)
    code = main(["verify", str(out / "cbf.json"), str(scenario),
                 "--samples", "0", "--out", str(out)])
    assert code == 0
    assert "warning" in capsys.readouterr().out


def test_verify_small_input_set_exit_4(tmp_path, specfile):
    out = tmp_path / "out"
    main(["construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
          "--witness", "0,0", "--out", str(out)])
    scenario = _scenario(
        tmp_path, specfile,
        controller={"mode": "safeguarded", "nominal": "tracking",
                    "input_set": {"type": "box", "limits": [1e-6, 1e-6]}})
    code = main(["verify", str(out / "cbf.json"), str(scenario),
                 "--samples", "25", "--out", str(out)])
    assert code == 4


def test_simulate_writes_csv_and_plots(tmp_path, specfile):
    scenario = _scenario(tmp_path, specfile)
    out = tmp_path / "run"
    code = main(["simulate", str(scenario), "--out", str(out), "--plot",
                 "--skip-verify"])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    for name in ("traces.svg", "portrait.svg", "magnitudes.svg",
                 "barrier.svg"):
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and "polyline" in svg


def test_simulate_small_arm_exit_0(tmp_path, specfile):
    # det M is about 1e-16 at every state, yet M is well conditioned
    scenario = _scenario(tmp_path, specfile, t_final=0.01,
                         plant={"type": "two_link_arm", "m1": 1e-4, "m2": 1e-4,
                                "l1": 0.01, "l2": 0.01})
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "r"),
                 "--skip-verify"]) == 0


def test_simulate_alpha_dt_above_one_exit_2(tmp_path, specfile):
    # the held-step filter needs c_alpha * dt <= 1: here 2000 * 1e-3 = 2
    scenario = _scenario(tmp_path, specfile,
                         controller={"mode": "safeguarded", "nominal": "tracking",
                                     "weights": {"c_alpha": 2000.0}})
    code = main(["simulate", str(scenario), "--out", str(tmp_path / "r"),
                 "--skip-verify"])
    assert code == 2


def test_simulate_pre_check_failure_exit_4(tmp_path, specfile, capsys):
    # a 1e-6 box leaves no admissible witness input at the binding samples
    scenario = _scenario(
        tmp_path, specfile,
        controller={**_TRACKING, "input_set": {"type": "box", "limits": [1e-6, 1e-6]}})
    out = tmp_path / "r"
    assert main(["simulate", str(scenario), "--out", str(out)]) == 4
    assert capsys.readouterr().out.startswith("boundary condition failed pre-check")
    assert not (out / "trajectory.csv").exists()


def test_simulate_runtime_infeasibility_exit_5(tmp_path, specfile):
    scenario = _scenario(tmp_path, specfile,
                         initial_state=[2.0, 0.0, 0.0, 0.0])
    code = main(["simulate", str(scenario), "--out", str(tmp_path / "r"),
                 "--skip-verify"])
    assert code == 5


def test_simulate_idempotent(tmp_path, specfile):
    scenario = _scenario(tmp_path, specfile)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(scenario), "--out", str(a),
                 "--skip-verify"]) == 0
    assert main(["simulate", str(scenario), "--out", str(b),
                 "--skip-verify"]) == 0

    def rows_without_timing(path):
        # every column except the trailing wall-clock solve time
        return [line.rsplit(",", 1)[0]
                for line in (path / "trajectory.csv").read_text().splitlines()]

    assert rows_without_timing(a) == rows_without_timing(b)


def test_sweep_single_value(tmp_path, specfile):
    scenario = _scenario(tmp_path, specfile, t_final=0.1)
    out = tmp_path / "sweep"
    code = main(["sweep", str(scenario), "--values", "1.0",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma,max_input,max_velocity,min_B"
    assert len(lines) == 2


def test_sweep_empty_values_exit_64(tmp_path, specfile):
    scenario = _scenario(tmp_path, specfile)
    assert main(["sweep", str(scenario), "--values", "",
                 "--out", str(tmp_path)]) == 64


def _sweep_with(*extra, scenario=None):
    def argv(tmp_path, specfile):
        path = _scenario(tmp_path, specfile, t_final=0.01)
        if scenario is not None:
            path.write_text(json.dumps(scenario))
        return ["sweep", str(path), "--out", str(tmp_path / "s"), *extra]
    return argv


def _verify_args(*extra, **overrides):
    def argv(tmp_path, specfile):
        barrier = tmp_path / "out"
        assert main(["construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
                     "--witness", "0,0", "--out", str(barrier)]) == 0
        return ["verify", str(barrier / "cbf.json"),
                str(_scenario(tmp_path, specfile, **overrides)),
                "--samples", "5", "--out", str(tmp_path), *extra]
    return argv


def _simulate_list(tmp_path, specfile):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    return ["simulate", str(path), "--out", str(tmp_path / "r"), "--skip-verify"]


def _out_is_file(tmp_path, specfile):
    (tmp_path / "taken").write_text("")
    return ["construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
            "--out", str(tmp_path / "taken")]


def _controller(**fields):
    return {"controller": {**_TRACKING, **fields}}


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("argv, field", [
    pytest.param(_simulate_with(t_final=_NAN), "t_final", id="t_final-nan"),
    pytest.param(_simulate_with(t_final=_INF), "t_final", id="t_final-inf"),
    pytest.param(_simulate_with(dt=_NAN), "dt", id="dt-nan"),
    pytest.param(_simulate_with(**_controller(reference={"amplitudes": [1.0]})),
                 "controller.reference", id="amplitudes-length"),
    pytest.param(_simulate_with(**_controller(reference={"amplitudes": "ab"})),
                 "controller.reference", id="amplitudes-text"),
    pytest.param(_simulate_with(**_controller(reference={"frequencies": [1e200, 4.0]})),
                 "controller.reference", id="frequency-square-overflows"),
    pytest.param(_simulate_with(**_controller(reference={"frequencies": [1e154, 4.0]})),
                 "controller.reference", id="frequency-rdd-overflows"),
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "box", "limits": [_NAN, 1.0]})),
        "controller.input_set", id="box-nan"),
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "box", "limits": [_INF, _INF]})),
        "controller.input_set", id="box-inf"),
    pytest.param(_simulate_with(**_controller(input_set={"type": "ball", "d": _NAN})),
                 "controller.input_set", id="ball-nan"),
    pytest.param(_simulate_with(**_controller(input_set={"type": "ball", "d": _INF})),
                 "controller.input_set", id="ball-inf"),
    pytest.param(_simulate_with(**_controller(weights={"q_alpha": _NAN})),
                 "controller.weights", id="q_alpha-nan"),
    pytest.param(_simulate_with(**_controller(weights={"Q": [[1.0, 0.0], [0.0]]})),
                 "controller.weights", id="Q-ragged"),
    pytest.param(_simulate_with(**_controller(weights={"Q": [[1.0, 2.0], [2.0, 1.0]]})),
                 "controller.weights", id="Q-not-pd"),
    pytest.param(_simulate_with(**_controller(weights={"Q": "diagonal"})),
                 "controller.weights", id="Q-text"),
    pytest.param(_simulate_with(plant={"type": "double_integrator", "n": 3},
                                controller={"mode": "safeguarded", "nominal": "zero"}),
                 "plant", id="plant-n"),
    pytest.param(_simulate_list, "scenario", id="simulate-list"),
    pytest.param(_sweep_with("--values", "1", scenario=[1, 2]), "scenario",
                 id="sweep-list"),
    pytest.param(_sweep_with("--values", "a,b"), "--values", id="sweep-values"),
    pytest.param(_verify_args("--samples", "-1"), "--samples", id="samples-negative"),
    pytest.param(_verify_args("--seed", "-1"), "seed", id="seed-argument"),
    pytest.param(_verify_args(seed=-1), "seed", id="seed-field"),
    pytest.param(_out_is_file, "--out", id="out-is-file"),
    pytest.param(lambda tmp_path, specfile: [
        "construct", str(tmp_path), "--gamma", "10", "--epsilon", "0.1"],
        "cannot read", id="spec-is-directory"),
    pytest.param(_simulate_with(t_finale=1.0), "t_finale", id="unknown-top-level"),
    pytest.param(_simulate_with(cbf={"gama": 0.1, "epsilon": 0.1, "witness": [0, 0]}),
                 "gama", id="unknown-cbf"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "m3": 1.0}), "m3",
                 id="unknown-plant"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "n": 2}), "'n'",
                 id="unknown-arm-n"),
    pytest.param(_simulate_with(**_controller(gains={"c_alpha": 40.0})), "gains",
                 id="unknown-controller"),
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "ball", "d": 1.0, "radius": 2.0})), "radius",
        id="unknown-input-set"),
    pytest.param(_verify_args(plant={"type": "two_link_arm", "m3": 1.0}), "m3",
                 id="verify-unknown-plant"),
    pytest.param(lambda tmp_path, specfile: [
        "construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
        "--seed", "7", "--out", str(tmp_path)], "--seed", id="construct-seed"),
    pytest.param(_simulate_with(t_final="x"), "t_final", id="t_final-text"),
    pytest.param(_simulate_with(dt="x"), "dt", id="dt-text"),
    # horizons whose log numpy refuses at once, before allocating anything
    pytest.param(_simulate_with(t_final=1e12, dt=1e-3), "t_final / dt",
                 id="horizon-too-long"),
    pytest.param(_simulate_with(t_final=1.0, dt=1e-300), "t_final / dt",
                 id="step-too-short"),
    pytest.param(_simulate_with(t_final=1e300, dt=1e-10), "t_final / dt",
                 id="step-count-overflows"),
    pytest.param(_simulate_with(initial_state=["a", 0.0, 0.0, 0.0]), "initial_state",
                 id="initial_state-text"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "gravity": "false"}),
                 "'gravity'", id="gravity-text"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "gravity": 0}),
                 "'gravity'", id="gravity-number"),
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "ball", "d": 100.0, "facets": 7.9})), "'facets'",
        id="facets-fraction"),
    # refused before any row is allocated: 1e9 facets once took all memory
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "ball", "d": 100.0, "facets": 10**12})), "'facets'",
        id="facets-too-many"),
    pytest.param(_simulate_with(plant={"type": "double_integrator", "n": 2.9},
                                controller={"mode": "safeguarded", "nominal": "zero"}),
                 "'n'", id="plant-n-fraction"),
    pytest.param(_simulate_with(seed=1.5), "seed", id="seed-fraction"),
    pytest.param(_simulate_with(seed=True), "seed", id="seed-bool"),
    # a JSON string or boolean in a numeric field, which float() would read
    pytest.param(_simulate_with(t_final="0.02"), "'t_final'", id="t_final-number-text"),
    pytest.param(_simulate_with(dt="0.001"), "'dt'", id="dt-number-text"),
    pytest.param(_simulate_with(cbf={"gamma": "10", "epsilon": 0.1}), "'gamma'",
                 id="gamma-text"),
    pytest.param(_simulate_with(cbf={"gamma": 10, "epsilon": True}), "'epsilon'",
                 id="epsilon-bool"),
    pytest.param(_simulate_with(cbf={"gamma": 10, "epsilon": 0.1, "witness": [True, 0]}),
                 "'witness'", id="witness-bool"),
    pytest.param(_simulate_with(plant={"type": "two_link_arm", "m1": "1"}), "'m1'",
                 id="m1-text"),
    # every c_ij but c25 is inf; this once exited 5 in the boundary pre-check
    pytest.param(lambda tmp_path, specfile: [
        "simulate", str(_scenario(tmp_path, specfile,
                                  plant={"type": "two_link_arm", "m2": 1e308, "l2": 10.0})),
        "--out", str(tmp_path / "r")], "plant", id="arm-coefficients-overflow"),
    pytest.param(_simulate_with(initial_state=["0", "0", "0", "0"]), "'initial_state'",
                 id="initial_state-number-text"),
    pytest.param(_simulate_with(**_controller(input_set={"type": "ball", "d": True})),
                 "'d'", id="ball-bool"),
    pytest.param(_simulate_with(**_controller(
        input_set={"type": "box", "limits": [True, True]})), "'limits'", id="box-bool"),
    pytest.param(_simulate_with(**_controller(weights={"q_alpha": True})), "'q_alpha'",
                 id="q_alpha-bool"),
    pytest.param(_simulate_with(**_controller(weights={"Q": [[True, 0], [0, 1]]})),
                 "'Q'", id="Q-bool"),
    pytest.param(_simulate_with(**_controller(reference={"amplitudes": ["1", "2"]})),
                 "'amplitudes'", id="amplitudes-number-text"),
])
def test_malformed_input_exits_64_naming_field(tmp_path, specfile, capsys, argv,
                                                field):
    assert main(argv(tmp_path, specfile)) == 64
    assert field in capsys.readouterr().err


def test_ball_facet_limit_is_checked_before_the_rows():
    # building the ball allocates nothing, so the refused count is safe to try
    from polysafe.inputs import MAX_FACETS, PolytopicBall

    for facets in (2, MAX_FACETS + 1, 10**12):
        with pytest.raises(ValueError, match=f"from 3 to {MAX_FACETS}"):
            PolytopicBall(1.0, facets=facets)
    G, h = PolytopicBall(1.0, facets=MAX_FACETS).rows(2)
    assert G.shape == (MAX_FACETS, 2) and h.shape == (MAX_FACETS,)


def _construct_slab(**first):
    """construct on the slab -1 <= x <= 1, its first half-space's fields replaced."""
    def argv(tmp_path, specfile):
        spec = {"n": 1, "halfspaces": [{"a": [1.0], "b": 1.0, **first},
                                       {"a": [-1.0], "b": 1.0}], "terms": [[1, 2]]}
        path = tmp_path / "slab.json"
        path.write_text(json.dumps(spec))
        return ["construct", str(path), "--gamma", "1", "--epsilon", "0.1",
                "--out", str(tmp_path)]
    return argv


def _verify_edited(edit):
    """verify on the hexagon's barrier file, after edit(barrier) changed a field."""
    def argv(tmp_path, specfile):
        out = tmp_path / "out"
        assert main(["construct", str(specfile), "--gamma", "10", "--epsilon", "0.1",
                     "--witness", "0,0", "--out", str(out)]) == 0
        barrier = json.loads((out / "cbf.json").read_text())
        edit(barrier)
        (out / "cbf.json").write_text(json.dumps(barrier))
        return ["verify", str(out / "cbf.json"), str(_scenario(tmp_path, specfile)),
                "--samples", "5", "--out", str(tmp_path)]
    return argv


def _set(*path, value):
    def edit(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value
    return edit


@pytest.mark.parametrize("argv, field", [
    pytest.param(_construct_slab(b="0.5"), "'b'", id="spec-b-text"),
    pytest.param(_construct_slab(a=[True]), "'a'", id="spec-a-bool"),
    pytest.param(_verify_edited(_set("cbf", "gamma", value="10")), "'gamma'",
                 id="barrier-gamma-text"),
    pytest.param(_verify_edited(_set("cert", "delta", value=True)), "'delta'",
                 id="barrier-delta-bool"),
    pytest.param(_verify_edited(_set("cert", "witnesses", 0, "y", value=["0", "0"])),
                 "'y'", id="barrier-witness-text"),
    pytest.param(_verify_edited(_set("cert", "witnesses", 0, "indices", value=[True])),
                 "'indices'", id="barrier-indices-bool"),
])
def test_json_bool_or_string_in_a_spec_or_barrier_field_exits_3(tmp_path, specfile,
                                                                capsys, argv, field):
    # float() and numpy read "10" as 10.0 and true as 1.0
    assert main(argv(tmp_path, specfile)) == 3
    err = capsys.readouterr().err
    assert field in err
    assert "must be a number" in err or "must be an integer" in err


_HUGE_GAMMA = {"gamma": 1e308, "epsilon": 0.1, "witness": [0.0, 0.0]}


@pytest.mark.parametrize("argv", [
    pytest.param(lambda tmp_path, specfile: [
        "construct", str(specfile), "--gamma", "1e308", "--epsilon", "0.1",
        "--out", str(tmp_path)], id="construct"),
    pytest.param(_verify_edited(_set("cbf", "gamma", value=1e308)), id="verify"),
    pytest.param(lambda tmp_path, specfile: [
        "simulate", str(_scenario(tmp_path, specfile, cbf=_HUGE_GAMMA)),
        "--out", str(tmp_path / "r")], id="simulate"),
    pytest.param(_simulate_with(cbf=_HUGE_GAMMA), id="simulate-skip-verify"),
    pytest.param(_sweep_with("--values", "1e308"), id="sweep"),
])
def test_overflowing_velocity_rows_exit_2(tmp_path, specfile, capsys, argv):
    # the hexagon's offsets reach pi, so gamma * b overflows at gamma = 1e308;
    # once these exited 1 (non-finite LP data) or filtered with +inf rows
    assert main(argv(tmp_path, specfile)) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParameterViolation: ") and err.count("\n") == 1
    assert "overflow" in err


def test_non_finite_rk4_stage_exit_5(tmp_path, specfile, capsys):
    # m2 = 1e-320 overflows the inverse inertia; a later RK4 stage's angle
    # reads inf, where the arm's math.sin raises ValueError
    argv = _simulate_with(plant={"type": "two_link_arm", "m2": 1e-320})
    assert main(argv(tmp_path, specfile)) == 5
    err = capsys.readouterr().err
    assert err.startswith("NonFinite: ") and err.count("\n") == 1


def _simulate_checked(tmp_path, specfile):
    plant = {"type": "two_link_arm", "m2": 1e-320}
    return ["simulate", str(_scenario(tmp_path, specfile, plant=plant)),
            "--out", str(tmp_path / "r")]


@pytest.mark.parametrize("argv", [
    pytest.param(_verify_args("--samples", "50",
                              plant={"type": "two_link_arm", "m2": 1e-320}), id="verify"),
    pytest.param(_simulate_checked, id="simulate-pre-check"),
])
def test_non_finite_plant_at_a_binding_sample_exit_5(tmp_path, specfile, capsys, argv):
    # m2 = 1e-320 puts inf in G2: its NaN margin must not read as a failed
    # condition (exit 4), and pinv must not see it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv(tmp_path, specfile)) == 5
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err == "NonFinite: plant G2 or f2 not finite at sample 6\n"


_TINY_L2 = {"type": "two_link_arm", "l2": 1e-200}


@pytest.mark.parametrize("argv", [
    pytest.param(_simulate_with(plant=_TINY_L2), id="simulate-skip-verify"),
    pytest.param(lambda tmp_path, specfile: [
        "simulate", str(_scenario(tmp_path, specfile, plant=_TINY_L2)),
        "--out", str(tmp_path / "r")], id="simulate"),
    pytest.param(_verify_args("--samples", "50", plant=_TINY_L2), id="verify"),
])
def test_underflowing_inertia_exit_5(tmp_path, specfile, capsys, argv):
    # l2 = 1e-200 makes det M and its floor both 0; this once exited 1 with
    # a ZeroDivisionError traceback
    assert main(argv(tmp_path, specfile)) == 5
    err = capsys.readouterr().err
    assert err.startswith("PolysafeError: inertia matrix singular") and err.count("\n") == 1


# the documented exit code of every exported error class; 4 belongs to the
# condition check alone
_EXIT_CODES = {
    "PolysafeError": 5, "ValidationError": 3, "UsageError": 64,
    "ParameterViolation": 2, "NumericalBreakdown": 5,
    "Infeasible": 5, "QpInfeasibleAt": 5, "NonFinite": 5,
}
_ERROR_CLASSES = sorted(
    name for name in polysafe.__all__
    if isinstance(getattr(polysafe, name), type)
    and issubclass(getattr(polysafe, name), polysafe.PolysafeError))


@pytest.mark.parametrize("name", _ERROR_CLASSES)
def test_every_error_class_exits_with_its_code(tmp_path, specfile, capsys,
                                               monkeypatch, name):
    error = getattr(polysafe, name)

    def command(args):
        raise (error(0.0, np.zeros(4), "probe") if error is polysafe.QpInfeasibleAt
               else error("probe"))

    monkeypatch.setattr(cli, "cmd_construct", command)
    code = main(["construct", str(specfile), "--out", str(tmp_path)])
    assert code == _EXIT_CODES[name] == error.exit_code
    assert f"{name}: " in capsys.readouterr().err


_FUZZ_FIELDS = [
    ("t_final",), ("dt",), ("seed",), ("spec_file",), ("initial_state",),
    ("initial_state", 0), ("cbf",), ("cbf", "gamma"), ("cbf", "epsilon"),
    ("cbf", "witness"), ("plant",), ("plant", "type"), ("plant", "m1"),
    ("plant", "l2"), ("plant", "n"), ("controller",), ("controller", "mode"),
    ("controller", "nominal"), ("controller", "reference"),
    ("controller", "reference", "amplitudes"),
    ("controller", "reference", "frequencies", 1), ("controller", "weights"),
    ("controller", "weights", "q_alpha"), ("controller", "weights", "c_M"),
    ("controller", "weights", "Q"), ("controller", "input_set"),
    ("controller", "input_set", "type"), ("controller", "input_set", "limits"),
    ("controller", "input_set", "limits", 1),
]
_MALFORMED = [_NAN, _INF, -_INF, 0, 0.0, -1, -0.5, "", "x", None, False, [], {},
              [_NAN], [-1.0, 1.0], [[1.0, 0.0], [0.0]], {"x": 1.0}]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(path=st.sampled_from(_FUZZ_FIELDS), value=st.sampled_from(_MALFORMED))
def test_fuzz_malformed_scenario_field_exits_with_contract_code(tmp_path_factory,
                                                                path, value):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    specfile = tmp_path / "hexagon.json"
    specfile.write_text(json.dumps(hexagon_spec().to_dict()))
    cfg = json.loads(_scenario(tmp_path, specfile, t_final=0.02).read_text())
    cfg["controller"].update(reference={"amplitudes": [1.0, 0.5],
                                        "frequencies": [1.0, 4.0]},
                             input_set={"type": "box", "limits": [1e3, 1e3]})
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / "scenario.json").write_text(json.dumps(cfg))
    code = main(["simulate", str(tmp_path / "scenario.json"),
                 "--out", str(tmp_path / "r"), "--skip-verify"])
    assert code in {0, 2, 3, 4, 5, 64}
