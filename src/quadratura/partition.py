"""Intervals, partitions, and the dyadic block grid behind the approximants.

The block grid splits [a, b] into 2**n equal blocks; ``epsilon_n`` gives
the width eps = (b-a) / (n * 2**n) of the narrow strips next to each block
edge, where the approximant is allowed to ramp between block levels.

Grid points are formed as ``a + i * h`` (one rounding each), never by
cumulative addition, so multi-million point grids stay monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "Partition",
    "ResourceLimitError",
    "uniform_partition",
    "epsilon_n",
    "block_grid",
    "MAX_GRID_LEVEL",
]

MAX_GRID_LEVEL = 24  # 2**24 blocks ~ 5e7 approximant knots; beyond that, refuse


class ResourceLimitError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed bounded interval [a, b] of finite width; degenerate (a == b) allowed."""

    a: float
    b: float

    def __post_init__(self):
        a, b = float(self.a), float(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
        if a > b:
            raise ValueError(f"interval endpoints out of order: [{a}, {b}]")
        if not math.isfinite(b - a):
            raise ValueError(f"interval width overflows: [{a}, {b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def is_degenerate(self) -> bool:
        return self.a == self.b

    def __contains__(self, x: float) -> bool:
        return self.a <= x <= self.b


@dataclass(frozen=True, eq=False, slots=True)
class Partition:
    """Strictly increasing finite points x_0 < ... < x_n of finite width x_n - x_0."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a partition needs at least two points")
        finite = np.isfinite(pts)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"partition points must be finite, got {pts[i]} at index {i}")
        if not np.all(pts[1:] > pts[:-1]):
            raise ValueError("partition points must be strictly increasing")
        if not math.isfinite(float(pts[-1]) - float(pts[0])):
            raise ValueError(f"partition width overflows: [{pts[0]}, {pts[-1]}]")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.points[0]), float(self.points[-1]))

    @property
    def cell_count(self) -> int:
        return self.points.size - 1

    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def norm(self) -> float:
        return float(self.widths().max())


def uniform_partition(iv: Interval, n: int) -> Partition:
    """Split ``iv`` into ``n`` equal cells (n + 1 points, norm width/n)."""
    if n < 1:
        raise ValueError(f"cell count must be >= 1, got {n}")
    if iv.is_degenerate:
        raise ValueError(f"cannot partition degenerate interval [{iv.a}, {iv.b}]")
    return Partition(np.linspace(iv.a, iv.b, n + 1))


def epsilon_n(iv: Interval, n: int) -> float:
    """Width of the narrow ramp strips at refinement level ``n``: (b-a)/(n*2^n)."""
    if n < 3:
        raise ValueError(f"the block construction starts at n = 3, got {n}")
    return iv.width / (n * (1 << n))


def block_grid(iv: Interval, n: int) -> Partition:
    """The 2**n equal blocks of level ``n`` over ``iv`` (3 <= n <= MAX_GRID_LEVEL):
    edges a + i*(b-a)/2**n, exact at both interval endpoints.  A block that
    rounds to zero width is a ValueError.
    """
    if n < 3:
        raise ValueError(f"grid level must be >= 3, got {n}")
    if n > MAX_GRID_LEVEL:
        raise ResourceLimitError(f"grid level {n} exceeds cap {MAX_GRID_LEVEL} ({1 << n} blocks)")
    if iv.is_degenerate:
        raise ValueError("cannot grid a degenerate interval")
    e = np.linspace(iv.a, iv.b, (1 << n) + 1)
    if (e[1:] == e[:-1]).any():
        raise ValueError(
            f"level {n} is too fine for [{iv.a!r}, {iv.b!r}]:"
            f" some of its 2^{n} blocks round to zero width"
        )
    return Partition(e)
