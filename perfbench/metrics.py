"""Metrics derived from the timings and spans a run collects."""

from __future__ import annotations

import statistics
import time

import numpy as np

OP_WINDOW = 1000   # operations per window of the op_p99_us estimate


def percentile_us(latencies, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e6 if len(latencies) else 0.0


def layer_metrics(tracer, overhead_s: float, notes: dict) -> dict:
    """Per-layer metrics of one traced set-up plus one traced job."""
    spans = tracer.summary()

    def get(name, key="calls"):
        return spans[name][key] if name in spans else 0

    fast = np.array(tracer.notes.get("qp.filter", []), dtype=bool)
    solves = spans["qp.filter"]["dur"][:fast.size] if fast.size else np.zeros(0)
    iters = np.array(tracer.notes.get("qp.solve_qp", []), dtype=float)
    return {
        "lp.phase1.calls": get("lp.phase1"),
        "lp.phase1.self_s": get("lp.phase1", "self_s"),
        "lp.cert.calls": get("lp.cert"),
        "lp.cert.self_s": get("lp.cert", "self_s"),
        "qp.filter.calls": get("qp.filter"),
        "qp.fast_share": float(fast.mean()) if fast.size else 0.0,
        "qp.fast.us_p50": percentile_us(solves[fast], 50),
        "qp.active.us_p50": percentile_us(solves[~fast], 50),
        "qp.active.us_p99": percentile_us(solves[~fast], 99),
        "qp.solve_qp.calls": get("qp.solve_qp"),
        "qp.solve_qp.iters_mean": float(iters.mean()) if iters.size else 0.0,
        "qp.solve_qp.iters_max": int(iters.max()) if iters.size else 0,
        "qp.solve_qp.self_s": get("qp.solve_qp", "self_s"),
        "qp.assemble.self_s": get("qp.filter", "self_s"),
        "cbf.eval_B.calls": get("cbf.eval_B"),
        "cbf.eval_B.self_s": get("cbf.eval_B", "self_s"),
        "cbf.term_rows.calls": get("cbf.term_rows"),
        "cbf.term_rows.self_s": get("cbf.term_rows", "self_s"),
        "cbf.velocity_bound.s": get("cbf.velocity_bound", "s"),
        "cbf.sample_boundary.s": get("cbf.sample_boundary", "s"),
        "cbf.verify.s": get("cbf.verify", "s"),
        "plant.f2.calls": get("plant.f2"),
        "plant.f2.self_s": get("plant.f2", "self_s"),
        "plant.G2.calls": get("plant.G2"),
        "plant.G2.self_s": get("plant.G2", "self_s"),
        "plant.coefficients.calls": get("plant.coefficients"),
        "plant.nominal.self_s": get("plant.nominal", "self_s"),
        "plant.estimate_constants.s": get("plant.estimate_constants", "s"),
        "polytope.compute_cert.s": get("polytope.compute_cert", "s"),
        "polytope.eval_h.calls": get("polytope.eval_h"),
        "polytope.eval_h.self_s": get("polytope.eval_h", "self_s"),
        "polytope.contains.calls": get("polytope.contains"),
        "sim.steps": get("sim.rk4"),
        "sim.rk4.self_s": get("sim.rk4", "self_s"),
        "sim.loop.self_s": get("sim.simulate", "self_s"),
        "sim.min_B": notes.get("min_B", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.spans": len(tracer.start),
    }


def time_setups(work, window_s: float, speed, min_repeats: int = 3):
    """Repeat set-up for at least `window_s` and `min_repeats`.

    Returns the (start, end) of each set-up, for `speed` to convert once
    all its samples are in, and the last set-up's result.
    """
    clock = time.perf_counter
    spans = []
    start = clock()
    while len(spans) < min_repeats or clock() - start < window_s:
        speed.tick()
        tic = clock()
        ready = work.setup()
        spans.append((tic, clock()))
    speed.sample()
    return spans, ready


def op_p99_us(latency_runs) -> float:
    """Median over consecutive 1000-operation windows of each window's p99.

    A window holds ten operations beyond its 99th percentile; the median
    over windows keeps a burst of machine noise in one window from setting
    the tail of the whole run.
    """
    windows = [chunk for lat in latency_runs if len(lat)
               for chunk in np.array_split(lat, max(1, len(lat) // OP_WINDOW))]
    return statistics.median(percentile_us(w, 99) for w in windows) if windows else 0.0
