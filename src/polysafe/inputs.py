"""Admissible input sets, kept polyhedral so the safety filter stays a QP.

The Euclidean ball ||u|| <= d is approximated by an inscribed regular
polytope (vertices on the sphere), so the polytopic set is a subset of
the ball and any guarantee proved for the ball remains conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class Unbounded:
    """U = R^m: no rows, everything admissible."""

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, m)), np.zeros(0)

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        return True


@dataclass(frozen=True)
class Box:
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

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        lim = np.broadcast_to(self.limits, np.shape(u))
        return bool((np.abs(u) <= lim + tol).all())


@dataclass(frozen=True)
class PolytopicBall:
    """Inscribed regular-polytope surrogate for the ball ||u|| <= d.

    For m = 1 this degenerates to the exact interval; for m = 2 it is a
    regular `facets`-gon with apothem d * cos(pi / facets).  Higher input
    dimensions are out of scope.
    """

    d: float
    facets: int = 16

    def __post_init__(self):
        if not 0 < self.d < np.inf:
            raise ValueError("ball radius must be positive and finite")
        if self.facets < 3:
            raise ValueError("need at least 3 facets")

    def rows(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        if m == 1:
            return np.array([[1.0], [-1.0]]), np.array([self.d, self.d])
        if m == 2:
            angles = 2 * np.pi * np.arange(self.facets) / self.facets
            G = np.column_stack([np.cos(angles), np.sin(angles)])
            h = np.full(self.facets, self.d * np.cos(np.pi / self.facets))
            return G, h
        raise ValueError("polytopic ball supports m <= 2")

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        G, h = self.rows(np.atleast_1d(u).size)
        return bool((G @ np.atleast_1d(u) <= h + tol).all())


def input_set_from_dict(d: dict):
    kind = d.get("type", "unbounded")
    if kind == "unbounded":
        return Unbounded()
    if kind == "box":
        return Box(np.array(d["limits"], dtype=float))
    if kind == "ball":
        return PolytopicBall(float(d["d"]), int(d.get("facets", 16)))
    raise ValueError(f"unknown input set type {kind!r}")
