"""Piecewise-linear below-approximants built from block infima.

Level n >= 3 splits [a, b] into 2**n equal blocks with edges
a = e_0 < e_1 < ... < e_N = b and block infima m_1..m_N, and sets
eps = (b-a) / (n * 2**n).  The knots (x, value) are (a, m_1), then
(e_1 - eps, m_1), and for each inner edge e_k in turn (e_k, min(m_k,
m_{k+1})), (e_k + eps, m_{k+1}) and (e_{k+1} - eps, m_{k+1}), where the
last of these is (b, m_N).  So the function sits at m_k on each block's
plateau and ramps between adjacent levels inside a width-eps strip next
to each edge: up in the strip right of the edge, down in the one left
of it, so the graph never leaves the block whose infimum bounds it.  A
knot that rounds onto the one before it is dropped.  Levels 1 and 2 are
the zero function.  The construction requires f >= 0 and produces a
continuous function with 0 <= f_n <= f whenever the block infima are
exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import darboux
from .darboux import DEFAULT_CONFIG, Integrand, SamplingConfig, as_evaluator
from .partition import Interval, Partition, block_grid

__all__ = [
    "PiecewiseLinear",
    "NegativityError",
    "build_approximant",
    "eval_pl",
    "integrate_pl",
    "l1_distance",
    "write_csv",
]


class NegativityError(ValueError):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by knots and values >= 0."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        kn = np.asarray(self.knots, dtype=float).copy()
        va = np.asarray(self.values, dtype=float).copy()
        if kn.ndim != 1 or kn.size < 2 or va.shape != kn.shape:
            raise ValueError("need matching knot/value sequences of length >= 2")
        if not np.all(np.diff(kn) > 0):
            raise ValueError("knots must be strictly increasing")
        if not np.all(va >= 0):
            raise ValueError("values must be nonnegative")
        kn.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "knots", kn)
        object.__setattr__(self, "values", va)

    @property
    def interval(self) -> Interval:
        return Interval(float(self.knots[0]), float(self.knots[-1]))

    def __call__(self, x):
        return eval_pl(self, x)


def build_approximant(
    f: Integrand,
    iv: Interval,
    n: int,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> PiecewiseLinear:
    """Level-``n`` below-approximant of a nonnegative ``f`` over ``iv``.

    Block infima are sampled per ``cfg`` (exact when ``hints`` list the
    turning points of f).  A sampled negative value raises
    NegativityError.  Levels 1 and 2 return the zero function.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if iv.is_degenerate:
        raise ValueError("cannot approximate over a degenerate interval")
    if n <= 2:
        return PiecewiseLinear(np.array([iv.a, iv.b]), np.zeros(2))

    grid = block_grid(iv, n)
    e = grid.boundaries()
    if (e[1:] == e[:-1]).any():
        raise ValueError(
            f"level {n} is too fine for [{iv.a!r}, {iv.b!r}]:"
            f" some of its 2^{n} blocks round to zero width"
        )
    m = darboux.infimum_on(f, Partition(e), cfg, hints)
    if (m < 0).any():
        k_bad = int(np.argmin(m)) + 1
        raise NegativityError(
            f"f is negative on block {k_bad} (sampled infimum {m[k_bad - 1]:.3g})"
        )

    eps = grid.epsilon
    # np.where, not np.minimum: a tie between -0.0 and 0.0 keeps m_k
    ramp_lo = np.where(m[:-1] <= m[1:], m[:-1], m[1:])
    xs = np.column_stack([e[1:-1], e[1:-1] + eps, e[2:] - eps]).ravel()
    ys = np.column_stack([ramp_lo, m[1:], m[1:]]).ravel()
    xs = np.concatenate([[e[0], e[1] - eps], xs[:-1], [e[-1]]])
    ys = np.concatenate([m[:1], m[:1], ys])
    keep = np.concatenate([[True], xs[1:] != xs[:-1]])  # rounding can merge knots
    return PiecewiseLinear(xs[keep], ys[keep])


def eval_pl(g: PiecewiseLinear, x):
    """Linear interpolation, exact at knots; outside the range is an error.

    Interpolated values are clamped into the bracketing knot values, so
    rounding can never push the result past a segment endpoint.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    kn, va = g.knots, g.values
    if (arr < kn[0]).any() or (arr > kn[-1]).any():
        raise ValueError(f"point outside knot range [{kn[0]}, {kn[-1]}]")
    idx = np.clip(np.searchsorted(kn, arr, side="right") - 1, 0, kn.size - 2)
    y = np.interp(arr, kn, va)
    lo = np.minimum(va[idx], va[idx + 1])
    hi = np.maximum(va[idx], va[idx + 1])
    y = np.clip(y, lo, hi)
    return float(y[0]) if scalar else y


def integrate_pl(g: PiecewiseLinear, c: float, d: float) -> float:
    """Exact integral of ``g`` over [c, d] (trapezoid rule is exact here)."""
    iv = g.interval
    if not (iv.a <= c <= d <= iv.b):
        raise ValueError(f"[{c}, {d}] not inside knot range [{iv.a}, {iv.b}]")
    if c == d:
        return 0.0
    # knots strictly inside (c, d) with their own values, which eval_pl gives there
    i = np.searchsorted(g.knots, c, side="right")
    j = np.searchsorted(g.knots, d, side="left")
    yc, yd = eval_pl(g, np.array([c, d]))
    xs = np.concatenate([[c], g.knots[i:j], [d]])
    ys = np.concatenate([[yc], g.values[i:j], [yd]])
    with np.errstate(over="ignore"):  # halving first keeps values near 1e308 finite
        areas = (0.5 * ys[:-1] + 0.5 * ys[1:]) * np.diff(xs)
    try:
        return math.fsum(areas.tolist())
    except OverflowError:  # finite nonnegative areas whose sum overflows
        return math.inf


def l1_distance(
    f: Integrand,
    g: PiecewiseLinear,
    iv: Interval,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
) -> float:
    """Integral of |f - g| over ``iv`` to tolerance ``tol`` (nonnegative)."""
    ev = as_evaluator(f)

    def gap(xs: np.ndarray) -> np.ndarray:
        return np.abs(ev(xs) - eval_pl(g, xs))

    est = darboux.integrate(gap, iv, tol, cfg)
    return max(0.0, est.midpoint)


def write_csv(g: PiecewiseLinear, dest: str | IO[str]) -> None:
    """Two-column CSV (knot, value); '.' decimal separator, no locale."""
    own = isinstance(dest, str)
    fh = open(dest, "w", newline="") if own else dest
    try:
        writer = csv.writer(fh)
        writer.writerow(["knot", "value"])
        for x, y in zip(g.knots, g.values):
            writer.writerow([repr(float(x)), repr(float(y))])
    finally:
        if own:
            fh.close()
