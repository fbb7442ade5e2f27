"""Machine-speed calibration: a fixed reference loop timed between operations.

A shared host runs the same single-threaded Python code 20-40% faster or
slower from one quarter-minute to the next, and every CPU-bound timing of
a run moves with it.  The benchmark therefore times a fixed reference loop
(interpreter work plus small numpy operations, the mix polysafe runs) every
`EVERY_S` seconds between the job's operations, never inside a timed
operation, and reports times in reference seconds: seconds on a machine
running at the speed at which the reference loop takes `REF_S`.  A time
measured while the reference loop ran at duration `r` is scaled by
`REF_S / r`; the samples are smoothed by a running median, and a span
between two samples takes the mean of the two.  The reference loop is the
benchmark's own code, so a change to polysafe moves reference seconds by
exactly the share it moves wall seconds at a fixed machine speed.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

REF_S = 2.5e-3     # nominal duration of one reference loop, s
EVERY_S = 0.1      # time between samples, s
SMOOTH = 51        # samples in the running median, about 5 s


def reference_loop() -> float:
    """Fixed work: Python arithmetic and calls, and 2x2..4x4 numpy operations."""
    m = np.array([[2.0, 0.5, 0.0, 0.1], [0.5, 1.5, 0.2, 0.0],
                  [0.0, 0.2, 1.0, 0.3], [0.1, 0.0, 0.3, 2.5]])
    v = np.array([0.3, -0.2, 0.1, 0.4])
    acc = 0.0
    for k in range(120):
        w = np.linalg.solve(m[:2, :2], v[:2])
        v = 0.5 * (v + m @ v / 4.0)
        acc += float(w[0]) + max(float(v.min()), -1.0) + sum(i * 0.5 for i in range(20))
    return acc


class SpeedClock:
    """Reference-loop samples taken during a run, and times converted with them."""

    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self._next = 0.0
        self._factors = None

    def sample(self) -> None:
        clock = time.perf_counter
        tic = clock()
        reference_loop()
        toc = clock()
        self.start.append(tic)
        self.end.append(toc)
        self._next = toc + EVERY_S
        self._factors = None

    def tick(self) -> None:
        """Sample if `EVERY_S` has passed since the last sample."""
        if time.perf_counter() >= self._next:
            self.sample()

    def factors(self) -> np.ndarray:
        """Scale of each span around the samples: before the first, between
        each pair, after the last (n + 1 values for n samples)."""
        if self._factors is None:
            if not self.start:
                raise RuntimeError("no reference samples")
            dur = np.frombuffer(self.end) - np.frombuffer(self.start)
            half = SMOOTH // 2
            padded = np.pad(dur, half, mode="edge")
            smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, SMOOTH),
                               axis=1)
            edges = np.concatenate(([smooth[0]], 0.5 * (smooth[:-1] + smooth[1:]),
                                    [smooth[-1]]))
            self._factors = REF_S / edges
        return self._factors

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval [a, b], samples left out."""
        lo = np.concatenate(([-np.inf], np.frombuffer(self.end)))
        hi = np.concatenate((np.frombuffer(self.start), [np.inf]))
        overlap = np.clip(np.minimum(hi, b) - np.maximum(lo, a), 0.0, None)
        return float(overlap @ self.factors())

    def scale(self, starts, durations) -> np.ndarray:
        """Reference seconds of operations that start at `starts` and hold no sample."""
        span = np.searchsorted(np.frombuffer(self.end), starts, side="right")
        return np.asarray(durations) * self.factors()[span]

    def summary(self) -> dict:
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return {"samples": int(dur.size), "ref_ms_median": float(np.median(dur)) * 1e3,
                "ref_ms_p10": float(np.percentile(dur, 10)) * 1e3,
                "ref_ms_p90": float(np.percentile(dur, 90)) * 1e3}
