#!/usr/bin/env python3
"""polysafe benchmark: closed-loop filter latency and offline certification.

One workload per process (the form the metrics contract runs):

    python3 perfbench/run.py --workload arm_hex_g10 --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
runs the job untraced and then traced, checks that both give the same
outputs bit for bit, and reports the per-layer metrics.  Every workload,
both modes, with a summary table and a JSON record:

    python3 perfbench/run.py --workload all --seed 0 --out perfbench/baseline.json

End-to-end times are in reference seconds, corrected for the machine's
speed of the moment by a reference loop timed between operations
(`calib.py`); the report line holds the wall-clock figures.

`--smoke` shortens every job for the benchmark's own tests.  The last line
of stdout is always {"correct", "attempted", "failed", "metrics"}; any
failed output check makes the exit code nonzero.  Metric names, units and
workloads come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# pinned by main(); numpy, and the benchmark modules that import it, are
# therefore imported inside functions, after the pinning
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REPORT_PREFIX = "report "
CHILD_TIMEOUT_S = 900


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def import_polysafe() -> None:
    """Import polysafe from this checkout's sources, never from elsewhere."""
    package = SRC / "polysafe"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no polysafe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polysafe

    if Path(polysafe.__file__).resolve().parent != package.resolve():
        raise ImportError(f"polysafe imported from {polysafe.__file__}, not {package}")


def provenance() -> dict:
    import numpy as np

    info = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_sha": None, "git_dirty": None}
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            info["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip()
            info["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True,
                timeout=30, check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return info


def traced_run(work, ready, inputs, report):
    """One traced set-up, then the job untraced and traced: per-layer metrics."""
    import metrics as pm
    import workloads as wl
    from spans import Tracer

    clock = time.perf_counter
    tracer = Tracer()
    with tracer.patched():
        work.setup()
    tic = clock()
    plain = work.job(ready, inputs)
    plain_s = clock() - tic
    tic = clock()
    with tracer.patched():
        traced = work.job(ready, inputs, tracer=tracer)
    traced_s = clock() - tic
    checks = [("traced outputs == untraced outputs, bit for bit",
               wl.same_outputs(plain.outputs, traced.outputs), "")]
    notes = work.layer_notes(plain) if plain.error is None else {}
    report.update(job_s_untraced=plain_s, job_s_traced=traced_s)
    return [plain, traced], pm.layer_metrics(tracer, traced_s - plain_s, notes), checks


def plain_run(work, ready, inputs, seconds, setups, speed, report):
    """The job repeated until the run has measured `seconds` of it: end-to-end metrics.

    Times are in reference seconds (see calib.py); the wall-clock figures
    go into the report line.
    """
    import metrics as pm
    import numpy as np
    import workloads as wl

    clock = time.perf_counter
    results, jobs = [], []
    while not jobs or (sum(b - a for a, b in jobs) < seconds and not results[-1].error):
        speed.sample()
        tic = clock()
        results.append(work.job(ready, inputs, speed=speed))
        jobs.append((tic, clock()))
    speed.sample()
    first = results[0]
    checks = [(f"repeat {k} == repeat 0, bit for bit",
               wl.same_outputs(first.outputs, r.outputs), "")
              for k, r in enumerate(results[1:], start=1)]
    op_runs = list(results)
    if first.replay is not None and first.error is None:
        # a job whose unit operations fill only a moment of it repeats them
        # on the same inputs for half the window, so that their latencies
        # are not all taken in one state of the machine
        deadline = clock() + seconds / 2
        while clock() < deadline:
            op_runs.append(wl.JobResult({}, [], [], [], 0, 0))
            again = first.replay(op_runs[-1], speed)
            checks.append(("replayed operations == job, bit for bit",
                           wl.same_outputs(again, {k: first.outputs[k] for k in again}),
                           ""))
    more_setups, _ = pm.time_setups(work, work.size.setup_window_s, speed)
    setups = setups + more_setups
    setup_s = [speed.seconds(a, b) for a, b in setups]
    job_s = [speed.seconds(a, b) for a, b in jobs]
    latency_runs = [speed.scale(r.starts, r.cpu) for r in op_runs]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "job_s": statistics.median(job_s),
        "op_p50_us": pm.percentile_us(np.concatenate(latency_runs), 50),
        "op_p99_us": pm.op_p99_us(latency_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_ops = np.concatenate([r.latencies for r in op_runs])
    report.update(setup_s_all=setup_s, job_s_all=job_s,
                  wall_setup_s=statistics.median(b - a for a, b in setups),
                  wall_job_s_all=[b - a for a, b in jobs],
                  wall_op_p50_us=pm.percentile_us(wall_ops, 50),
                  wall_op_p99_us=pm.op_p99_us([r.latencies for r in op_runs]),
                  speed=speed.summary(),
                  op_samples=int(wall_ops.size))
    if first.error is None:
        report.update(work.layer_notes(first))
    return results, metrics, checks


def run_one(args, bench: dict) -> int:
    import metrics as pm
    import workloads as wl
    from calib import SpeedClock

    work = wl.make(args.workload, wl.SMOKE if args.smoke else wl.FULL)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "provenance": provenance()}
    speed = SpeedClock()
    speed.sample()
    setups, ready = pm.time_setups(work, work.size.setup_window_s, speed)
    inputs = work.inputs(ready, args.seed)
    tic = time.perf_counter()
    work.warmup(ready, inputs)
    report["warmup_s"] = time.perf_counter() - tic

    if args.trace:
        results, metrics, checks = traced_run(work, ready, inputs, report)
    else:
        results, metrics, checks = plain_run(work, ready, inputs, args.seconds,
                                             setups, speed, report)
    for r in results:
        checks.extend(work.check(ready, r))
    merged = {}   # one line per check name; failed if any instance failed
    for name, ok, detail in checks:
        if name not in merged or (merged[name][0] and not ok):
            merged[name] = (ok, detail)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    failed_checks = [c for c in checks if not c[1]]
    attempted = sum(r.attempted for r in results) + len(checks)
    failed = sum(r.failed for r in results) + len(failed_checks)
    report.update(checks={n: {"ok": ok, "detail": d} for n, (ok, d) in merged.items()},
                  fail_share=failed / attempted)

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    for name, (ok, detail) in merged.items():
        print(f"  check {'PASS' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(REPORT_PREFIX + json.dumps(report))
    print(json.dumps({
        "correct": not failed_checks, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if not failed_checks else 1


def run_all(args, bench: dict) -> int:
    """Each workload in a fresh process, one at a time, both trace modes."""
    runs, status = [], 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            try:
                proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []),
                                      capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired as exc:   # the child is killed and reaped
                proc = subprocess.CompletedProcess(cmd, None, exc.stdout or "",
                                                   f"timed out after {exc.timeout} s\n")
            lines = proc.stdout.splitlines()
            report = next((json.loads(line[len(REPORT_PREFIX):]) for line in lines
                           if line.startswith(REPORT_PREFIX)), None)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            runs.append({"workload": w["name"], "trace": trace,
                         "exit_code": proc.returncode, "result": result,
                         "report": report})
            if proc.returncode != 0 or result is None:
                status = 1
                sys.stderr.write(proc.stderr)
            print(f"{w['name']} trace {trace}: exit {proc.returncode}")
            for name, m in (result or {}).get("metrics", {}).items():
                print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    record = {"command": "python3 perfbench/run.py --workload all "
                         f"--seed {args.seed} --seconds {args.seconds}"
                         + (" --smoke" if args.smoke else ""),
              "provenance": provenance(), "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["result"]["attempted"] for r in runs if r["result"]),
        "failed": sum(r["result"]["failed"] for r in runs if r["result"]),
        "metrics": {}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short jobs, for tests")
    parser.add_argument("--out", help="with --workload all: write the JSON record here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    for var in THREAD_VARS:   # before numpy is imported
        os.environ[var] = "1"
    try:
        bench = load_benchmark()
        import_polysafe()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
