"""Command-line exit codes, file outputs, and idempotence."""

import json

import pytest

from polysafe.cli import main
from polysafe.polytope import hexagon_spec


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


@pytest.mark.parametrize("resolution", ["0", "1", "-5"])
def test_construct_auto_bad_resolution_exit_64(tmp_path, specfile, capsys,
                                               resolution):
    code = main(["construct", str(specfile), "--auto", "--d", "400",
                 "--resolution", resolution, "--out", str(tmp_path)])
    assert code == 64
    assert "--resolution" in capsys.readouterr().err


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


def test_simulate_alpha_dt_above_one_exit_2(tmp_path, specfile):
    # the held-step filter needs c_alpha * dt <= 1: here 2000 * 1e-3 = 2
    scenario = _scenario(tmp_path, specfile,
                         controller={"mode": "safeguarded", "nominal": "tracking",
                                     "weights": {"c_alpha": 2000.0}})
    code = main(["simulate", str(scenario), "--out", str(tmp_path / "r"),
                 "--skip-verify"])
    assert code == 2


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
