"""Admissible input sets, kept polyhedral so the safety filter stays a QP.

The Euclidean ball ||u|| <= d is approximated by an inscribed regular
polytope (vertices on the sphere), so the polytopic set is a subset of
the ball and any guarantee proved for the ball remains conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import integer, real

MAX_FACETS = 1024  # the polygon then lies within 1 - cos(pi/1024) = 4.7e-6 d of the ball


class _Polyhedral:
    """An input set {u | G @ u <= h}, with (G, h) = rows(m)."""

    def contains(self, u: np.ndarray) -> bool:
        """Membership to 1e-9, one rule for every set."""
        G, h = self.rows(np.size(u))
        # a few rows, often none: plain Python beats numpy's per-call cost
        return not h.size or all(
            g <= b + 1e-9 for g, b in zip((G @ np.atleast_1d(u)).tolist(), h.tolist()))


class Unbounded(_Polyhedral):
    """U = R^m: no rows, everything admissible."""

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, m)), np.zeros(0)


@dataclass(frozen=True)
class Box(_Polyhedral):
    """Symmetric box |u_j| <= limits_j."""

    limits: np.ndarray

    def __post_init__(self):
        lim = np.atleast_1d(np.asarray(self.limits, dtype=float))
        if not ((lim > 0) & (lim < np.inf)).all():
            raise ValueError("box limits must be positive and finite")
        object.__setattr__(self, "limits", lim)

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        lim = np.broadcast_to(self.limits, (m,))
        G = np.vstack([np.eye(m), -np.eye(m)])
        h = np.concatenate([lim, lim])
        return G, h


@dataclass(frozen=True)
class PolytopicBall(_Polyhedral):
    """Inscribed regular-polytope surrogate for the ball ||u|| <= d.

    For m = 1 this degenerates to the exact interval; for m = 2 it is a
    regular `facets`-gon with apothem d * cos(pi / facets).  Higher input
    dimensions are out of scope.  Each facet is a row of the filter's dense
    QP, so `facets` is at most MAX_FACETS, checked before any row exists.
    """

    d: float
    facets: int = 16

    def __post_init__(self):
        if not 0 < self.d < np.inf:
            raise ValueError("ball radius must be positive and finite")
        if not 3 <= self.facets <= MAX_FACETS:
            raise ValueError(f"'facets' must be from 3 to {MAX_FACETS}, not {self.facets}")

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        if m == 1:
            return np.array([[1.0], [-1.0]]), np.array([self.d, self.d])
        if m == 2:
            angles = 2 * np.pi * np.arange(self.facets) / self.facets
            G = np.column_stack([np.cos(angles), np.sin(angles)])
            h = np.full(self.facets, self.d * np.cos(np.pi / self.facets))
            return G, h
        raise ValueError("polytopic ball supports m <= 2")


_FIELDS = {"unbounded": (), "box": ("limits",), "ball": ("d", "facets")}


def input_set_from_dict(d: dict):
    kind = d.get("type", "unbounded")
    if kind not in _FIELDS:
        raise ValueError(f"unknown input set type {kind!r}")
    unknown = sorted(set(d) - {"type", *_FIELDS[kind]})
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} for a {kind} input set")
    if kind == "unbounded":
        return Unbounded()
    if kind == "box":
        return Box(real(d["limits"], "limits"))
    return PolytopicBall(real(d["d"], "d"), integer(d.get("facets", 16), "facets"))
