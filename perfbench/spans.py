"""In-memory span recorder that traces polysafe's layers from outside.

Nothing in the package is edited: each traced entry point is replaced,
for the duration of a `with tracer.patched(...)` block, at the place the
caller looks it up (a module global imported by name, a class attribute,
or a callable handed to the program).  A span is (name, start, end,
parent); spans stay in memory and self times are computed at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from array import array

import numpy as np

# span name -> where the callers look the function up
MODULE_PATCHES = {
    "lp.phase1": [("polysafe.qp", "lp_solve")],
    "lp.cert": [("polysafe.lp", "lp_solve"), ("polysafe.polytope", "lp_solve"),
                ("polysafe.cbf", "lp_solve")],
    "qp.solve_qp": [("polysafe.qp", "solve_qp")],
    "cbf.eval_B": [("polysafe.cbf", "eval_B"), ("polysafe.qp", "eval_B"),
                   ("polysafe.sim", "eval_B")],
    "cbf.velocity_bound": [("polysafe.cbf", "velocity_bound")],
    "cbf.sample_boundary": [("polysafe.cbf", "sample_boundary")],
    "cbf.verify": [("polysafe.cbf", "verify_safety_condition")],
    "plant.estimate_constants": [("polysafe.plant", "estimate_constants")],
    "polytope.compute_cert": [("polysafe.polytope", "compute_cert")],
    "polytope.eval_h": [("polysafe.polytope", "eval_h"), ("polysafe.sim", "eval_h")],
    "polytope.contains": [("polysafe.polytope", "contains"),
                          ("polysafe.plant", "contains")],
    "sim.simulate": [("polysafe.sim", "simulate")],
    "sim.rk4": [("polysafe.sim", "rk4_step")],
}

# span name -> what to keep from each call's result
NOTES = {"qp.solve_qp": lambda sol: sol.iterations,
         "qp.filter": lambda res: res.fast_path}


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(result)` is kept per call."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        notes = self.notes.setdefault(name, []) if note is not None else None
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if notes is not None:
                notes.append(note(result))
            return result

        return traced

    def traced_plant(self, plant):
        """A copy of `plant` whose f2 and G2 record spans."""
        return dataclasses.replace(plant, f2=self.wrap("plant.f2", plant.f2),
                                   G2=self.wrap("plant.G2", plant.G2))

    @contextlib.contextmanager
    def patched(self):
        """Swap every traced entry point in; restore the originals on exit."""
        import importlib

        from polysafe.cbf import ExtendedCbf
        from polysafe.plant import ArmParams
        from polysafe.qp import SafeguardAssembler

        saved = []

        def swap(owner, attr, value):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        for name, sites in MODULE_PATCHES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                swap(module, attr, self.wrap(name, getattr(module, attr),
                                             note=NOTES.get(name)))
        swap(ExtendedCbf, "term_rows",
             self.wrap("cbf.term_rows", ExtendedCbf.term_rows))
        swap(ArmParams, "coefficients",
             property(self.wrap("plant.coefficients", ArmParams.coefficients.fget)))
        swap(SafeguardAssembler, "solve",
             self.wrap("qp.filter", SafeguardAssembler.solve, note=NOTES["qp.filter"]))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, durations."""
        if not self.start:
            return {}
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        self_s = dur - children
        out = {}
        for k, name in enumerate(self.names):
            sel = nid == k
            out[name] = {"calls": int(sel.sum()), "s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum()), "dur": dur[sel]}
        return out
