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
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from . import darboux
from .darboux import _FSUM_BLOCK, DEFAULT_CONFIG, Integrand, SamplingConfig, as_evaluator
from .partition import Interval, Partition, block_grid, epsilon_n

__all__ = [
    "PiecewiseLinear",
    "NegativityError",
    "build_approximant",
    "approximant_with_infima",
    "DeficitCheck",
    "check_deficit",
    "eval_pl",
    "integrate_pl",
    "l1_distance",
    "write_csv",
]


class NegativityError(ValueError):
    pass


@dataclass(frozen=True, eq=False, slots=True)
class PiecewiseLinear:
    """Continuous piecewise-linear function given by knots and values >= 0.

    The constructor copies the arrays it is given; ``_adopt`` takes float
    arrays that nothing else holds as they are.
    """

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.knots, dtype=float), np.array(self.values, dtype=float))

    @classmethod
    def _adopt(cls, knots: np.ndarray, values: np.ndarray) -> PiecewiseLinear:
        g = object.__new__(cls)
        g._own(knots, values)
        return g

    def _own(self, kn: np.ndarray, va: np.ndarray) -> None:
        if kn.ndim != 1 or kn.size < 2 or va.shape != kn.shape:
            raise ValueError("need matching knot/value sequences of length >= 2")
        if not (kn[1:] > kn[:-1]).all():  # as np.diff(kn) > 0, NaN and inf - inf included
            raise ValueError("knots must be strictly increasing")
        if not (va >= 0).all():
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
    return approximant_with_infima(f, iv, n, cfg, hints)[0]


def approximant_with_infima(
    f: Integrand,
    iv: Interval,
    n: int,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> tuple[PiecewiseLinear, Partition | None, np.ndarray | None]:
    """``build_approximant``'s function, its 2**n blocks and their infima.

    The blocks and infima are None at levels 1 and 2.  The infima times
    the block widths are the terms of ``lower_sum`` over the blocks with
    the same hints, bit for bit.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if iv.is_degenerate:
        raise ValueError("cannot approximate over a degenerate interval")
    if n <= 2:
        return PiecewiseLinear._adopt(np.array([iv.a, iv.b]), np.zeros(2)), None, None

    blocks = block_grid(iv, n)
    m = darboux.infimum_on(f, blocks, cfg, hints)
    if (m < 0).any():
        k_bad = int(np.argmin(m)) + 1
        raise NegativityError(
            f"f is negative on block {k_bad} (sampled infimum {m[k_bad - 1]:.3g})"
        )

    # the knots in place: two, then three for each inner edge
    e, eps = blocks.points, epsilon_n(iv, n)
    xs, ys = np.empty(3 * m.size - 1), np.empty(3 * m.size - 1)
    xs[0], xs[1], xs[-1] = e[0], e[1] - eps, e[-1]
    xs[2::3] = e[1:-1]
    np.add(e[1:-1], eps, out=xs[3::3])
    np.subtract(e[2:-1], eps, out=xs[4:-1:3])
    ys[:2] = m[0]
    ys[2::3] = ys[3::3] = ys[4::3] = m[1:]
    # min(m_k, m_{k+1}) where a tie between -0.0 and 0.0 keeps m_k
    np.copyto(ys[2::3], m[:-1], where=m[:-1] <= m[1:])
    merged = xs[1:] == xs[:-1]  # rounding can merge knots
    if merged.any():
        keep = np.concatenate([[True], ~merged])
        xs, ys = xs[keep], ys[keep]
    return PiecewiseLinear._adopt(xs, ys), blocks, m


@dataclass(frozen=True, eq=False, slots=True)
class DeficitCheck:
    """A level-n approximant ``g``, its integral, and from level 3 how far
    that falls below the lower sum over its 2**n blocks.

    ``g`` leaves its blocks' infima only in the strips of width
    eps = (b-a) / (n * 2**n) at the inner edges, so the deficit (lower sum
    minus integral) lies in [0, sup f * (b-a) / n] when the infima are
    exact; sup f is sampled at 4,097 points.  ``within_bound`` allows 1e-9
    either side.  The other fields are None at levels 1 and 2.
    """

    g: PiecewiseLinear
    integral: float
    block_lower_sum: float | None = None
    deficit: float | None = None
    bound: float | None = None
    within_bound: bool | None = None


def check_deficit(
    f: Integrand, iv: Interval, n: int, cfg: SamplingConfig = DEFAULT_CONFIG
) -> DeficitCheck:
    """``build_approximant``'s function at level ``n`` checked against its blocks' lower sum.

    Raises what ``build_approximant`` raises.  A sum that overflows is
    left as +-inf for the caller to report.
    """
    g, blocks, m = approximant_with_infima(f, iv, n, cfg)
    integral = integrate_pl(g, iv.a, iv.b)
    if m is None:
        return DeficitCheck(g, integral)
    with np.errstate(over="ignore"):
        lower = darboux.compensated_sum(m * blocks.widths())  # lower_sum over the blocks
    deficit = lower - integral
    bound = darboux.supremum_on(f, iv, SamplingConfig(samples_per_cell=4097)) * iv.width / n
    return DeficitCheck(g, integral, lower, deficit, bound, bool(-1e-9 <= deficit <= bound + 1e-9))


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
    idx = np.minimum(np.searchsorted(kn, arr, side="right") - 1, kn.size - 2)  # arr >= kn[0]
    # np.interp copies a read-only array whole, so it gets only the segments
    # that hold a point; a point's value depends only on its segment
    window = slice(idx.min(), idx.max() + 2) if idx.size else slice(None)
    y = np.interp(arr, kn[window], va[window])
    lo = np.minimum(va[idx], va[idx + 1])
    hi = np.maximum(va[idx], va[idx + 1])
    y = np.clip(y, lo, hi)
    return float(y[0]) if scalar else y


def integrate_pl(g: PiecewiseLinear, c: float, d: float) -> float:
    """Exact integral of ``g`` over [c, d] (trapezoid rule is exact here).

    The trapezoids' areas are computed and summed exactly in blocks of
    ``_FSUM_BLOCK`` (``darboux.fsum_blocks``); +-inf when finite areas
    overflow.
    """
    iv = g.interval
    if not (iv.a <= c <= d <= iv.b):
        raise ValueError(f"[{c}, {d}] not inside knot range [{iv.a}, {iv.b}]")
    if c == d:
        return 0.0
    # knots strictly inside (c, d) with their own values, which eval_pl gives there
    i = np.searchsorted(g.knots, c, side="right")
    j = np.searchsorted(g.knots, d, side="left")
    yc, yd = eval_pl(g, c), eval_pl(g, d)  # two windows of np.interp (see eval_pl)
    # points c, knots i..j-1, d: knots i-1 and j hold the places of c and d
    xs, ys = g.knots[i - 1 : j + 1], g.values[i - 1 : j + 1]
    last = xs.size - 1  # trapezoids

    def areas():
        dx, half, out = np.empty(_FSUM_BLOCK), np.empty(_FSUM_BLOCK + 1), np.empty(_FSUM_BLOCK)
        for s in range(0, last, _FSUM_BLOCK):
            t = min(s + _FSUM_BLOCK, last)
            w, h = dx[: t - s], half[: t - s + 1]
            np.subtract(xs[s + 1 : t + 1], xs[s:t], out=w)
            np.multiply(ys[s : t + 1], 0.5, out=h)
            if s == 0:
                w[0] = (d if last == 1 else xs[1]) - c
                h[0] = 0.5 * yc
            if t == last:
                w[-1] = d - (c if last == 1 else xs[-2])
                h[-1] = 0.5 * yd
            # halving first keeps values near 1e308 finite
            area = np.add(h[:-1], h[1:], out=out[: t - s])
            area *= w
            yield area

    with np.errstate(over="ignore"):
        return darboux.fsum_blocks(areas)


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
