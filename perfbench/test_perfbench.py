"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = run.load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc, proc.stdout.splitlines()


def _smoke(workload, trace):
    proc, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                       "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result.keys() == RESULT_KEYS
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_every_end_to_end_metric(workload):
    metrics = _smoke(workload, 0)
    assert all(v > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reproduces_outputs_and_reports_layers(workload):
    metrics = _smoke(workload, 1)   # "correct" includes the bit-for-bit check
    if workload == "certify_gravity":
        assert metrics["lp.phase1.calls"] == 0
        assert metrics["qp.filter.calls"] == 0
        assert metrics["plant.estimate_constants.s"] > 0
    else:
        assert metrics["sim.steps"] == 200
        assert metrics["qp.filter.calls"] == 201
    if workload == "arm_hex_g0.1":
        assert metrics["qp.fast_share"] < 0.5 and metrics["lp.phase1.calls"] > 0
    if workload == "arm_hex_g10":
        assert metrics["qp.fast_share"] > 0.5


def test_speed_clock_converts_by_the_reference_loop_time():
    from calib import REF_S, SpeedClock

    def clock(ref_s):
        speed = SpeedClock()
        for t in (0.0, 1.0, 2.0):   # samples of one fixed duration
            speed.start.append(t)
            speed.end.append(t + ref_s)
        return speed

    nominal, slow = clock(REF_S), clock(2 * REF_S)
    # samples are left out; at half speed a wall second is half a reference one
    assert nominal.seconds(0.0, 3.0) == pytest.approx(3.0 - 3 * REF_S)
    assert slow.seconds(0.0, 3.0) == pytest.approx((3.0 - 6 * REF_S) / 2)
    assert nominal.scale([0.5, 2.5], [0.01, 0.02]) == pytest.approx([0.01, 0.02])
    assert slow.scale([0.5, 2.5], [0.01, 0.02]) == pytest.approx([0.005, 0.01])


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    for var in run.THREAD_VARS:   # main() pins them; restore them afterwards
        monkeypatch.setenv(var, "1")
    run.import_polysafe()
    import workloads

    monkeypatch.setattr(workloads, "B_TOL", -1.0)   # no gap can meet it
    code = run.main(["--workload", "arm_hex_g10", "--smoke", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_without_package_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_all_mode_runs_every_workload(tmp_path):
    out = tmp_path / "record.json"
    proc, lines = _run("--workload", "all", "--seconds", "0", "--smoke",
                       "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(out.read_text())
    assert [(r["workload"], r["trace"]) for r in record["runs"]] == [
        (w, t) for w in WORKLOADS for t in (0, 1)]
    for m in BENCH["end_to_end"]:
        assert any(m["name"] in line and m["unit"] in line for line in lines)
