"""Intervals, partitions, and the dyadic block grid behind the approximants.

The block grid splits [a, b] into 2**n equal blocks and each block into
four closed sub-intervals.  Interior blocks get narrow first and last
sub-intervals of width eps = (b-a) / (n * 2**n) with the middle two
sharing the remainder; the first block instead narrows only its last
sub-interval and the final block only its first.  The narrow strips are
where the approximant is allowed to ramp between block levels.

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
    "BlockGrid",
    "ResourceLimitError",
    "uniform_partition",
    "epsilon_n",
    "block_grid",
    "MAX_GRID_LEVEL",
]

MAX_GRID_LEVEL = 24  # 2**24 blocks ~ 6.7e7 sub-intervals; beyond that, refuse


class ResourceLimitError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed bounded interval [a, b]; degenerate (a == b) allowed."""

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
    """Strictly increasing points x_0 < ... < x_n spanning an interval."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a partition needs at least two points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("partition points must be strictly increasing")
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

    def refines(self, coarser: "Partition") -> bool:
        return bool(np.all(np.isin(coarser.points, self.points)))


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


@dataclass(frozen=True, slots=True)
class BlockGrid:
    """Level-``n`` block grid over an interval, computed lazily per block.

    Blocks are indexed 1..2**n left to right; ``sub_boundaries(k)`` gives
    the five cut points of block k's four closed sub-intervals.
    """

    interval: Interval
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"grid level must be >= 3, got {self.n}")
        if self.n > MAX_GRID_LEVEL:
            raise ResourceLimitError(
                f"grid level {self.n} exceeds cap {MAX_GRID_LEVEL}"
                f" ({1 << self.n} blocks)"
            )
        if self.interval.is_degenerate:
            raise ValueError("cannot grid a degenerate interval")

    @property
    def block_count(self) -> int:
        return 1 << self.n

    @property
    def block_width(self) -> float:
        return self.interval.width / self.block_count

    @property
    def epsilon(self) -> float:
        return epsilon_n(self.interval, self.n)

    def boundary(self, i: int) -> float:
        """i-th block edge, i in 0..2**n; exact at both interval endpoints."""
        if i == self.block_count:
            return self.interval.b
        return self.interval.a + i * self.block_width

    def boundaries(self) -> np.ndarray:
        return np.linspace(self.interval.a, self.interval.b, self.block_count + 1)

    def block(self, k: int) -> Interval:
        """Block k, 1-indexed."""
        self._check_index(k)
        return Interval(self.boundary(k - 1), self.boundary(k))

    def sub_boundaries(self, k: int) -> tuple[float, float, float, float, float]:
        self._check_index(k)
        lo = self.boundary(k - 1)
        hi = self.boundary(k)
        eps = self.epsilon
        if k == 1:
            # narrow strip only on the right; the rest in three equal parts
            third = (hi - eps - lo) / 3.0
            return (lo, lo + third, lo + 2.0 * third, hi - eps, hi)
        if k == self.block_count:
            third = (hi - (lo + eps)) / 3.0
            p1 = lo + eps
            return (lo, p1, p1 + third, p1 + 2.0 * third, hi)
        return (lo, lo + eps, (lo + hi) / 2.0, hi - eps, hi)

    def sub_intervals(self, k: int) -> tuple[Interval, Interval, Interval, Interval]:
        p = self.sub_boundaries(k)
        return tuple(Interval(p[j], p[j + 1]) for j in range(4))

    def _check_index(self, k: int) -> None:
        if not 1 <= k <= self.block_count:
            raise IndexError(f"block index {k} outside 1..{self.block_count}")


def block_grid(iv: Interval, n: int) -> BlockGrid:
    """Level-``n`` block grid over ``iv`` (n >= 3, capped at MAX_GRID_LEVEL)."""
    return BlockGrid(iv, n)
