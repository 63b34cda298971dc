"""Sampled lower/upper Darboux sums and a bracketing integral estimator.

Per-cell extrema come from a finite sample grid, so the sums here are
"sampled Darboux" sums: the lower sum may overestimate a true infimum
between samples (and the upper sum underestimate a supremum).  Over a
``Partition``, ``lower_sum`` and ``upper_sum`` weight by the cell widths
the very extrema ``infimum_on`` and ``supremum_on`` give for it.  For
functions that are piecewise monotone at the sampling scale the bracket
is exact; callers needing guarantees pass ``hints`` listing the interior
turning points, which makes every cell extremum exact.

``integrate`` refines a uniform cell count N, 2N, 4N, ... until the
bracket closes to the requested tolerance; the midpoint of the final
bracket is the point estimate.  For smooth integrands the midpoint
converges one order faster than the bracket width (it is the trapezoid
value when cell extrema sit at cell edges), so moderate tolerances
already give tight values.

Levels that cannot close are skipped, keeping every bit of plain
doubling.  The grids nest exactly (``2j * (s/2) == j * s``), and the two
halves of a cell share its midpoint sample and hold all its samples and
hints, so width(2M) >= width(M)/2 in exact arithmetic: a gap g at N
cells rules out each level N*2**i where g/2**i, less a margin for the
rounding of the sums, exceeds the tolerance.  Every point of a skipped
level is a point of the level jumped to, so when that level has an
undefined sample inside (a, b) (a shared midpoint may be one), raises
``UndefinedSamplesError`` or has a sum that is not finite, refinement
goes back to the first skipped level and doubles plainly from there.

Isolated undefined sample points (both neighbours defined) are skipped
under the default policy; this is how endpoint singularities like a
derivative that only fails to exist at the boundary are tolerated.
Hints take part in this unequally.  ``infimum_on`` and ``supremum_on``
sort a hint's value into its cell's samples, so an undefined one is
skipped between defined samples and raises next to an undefined one,
and a defined hint can keep a cell whose grid samples are all undefined.
``_scatter_hints`` (behind ``lower_sum``, ``upper_sum`` and
``integrate``) leaves an undefined hint value out instead.
Reductions run in fixed ascending cell order with compensated chunk
summation, so results are bitwise reproducible.  A sum that is not
finite ends refinement at once with a non-convergence error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .expr import Expr, evaluate_array
from .partition import Interval, Partition

# Unused here, but perfbench/tracer.py wraps ``darboux.uniform_partition``.
from .partition import uniform_partition  # noqa: F401

__all__ = [
    "SamplingConfig",
    "DarbouxEstimate",
    "NonConvergenceError",
    "UndefinedSamplesError",
    "SKIP_ISOLATED",
    "FAIL_ON_UNDEFINED",
    "DEFAULT_CONFIG",
    "START_CELLS",
    "CELL_CAP",
    "compensated_sum",
    "as_evaluator",
    "infimum_on",
    "supremum_on",
    "lower_sum",
    "upper_sum",
    "integrate",
    "integrate_signed",
]

SKIP_ISOLATED = "skip-isolated"
FAIL_ON_UNDEFINED = "fail"

START_CELLS = 2**10
CELL_CAP = 2**24

_CHUNK_POINTS = 2**21  # bound per-chunk working memory to ~16 MB of samples

Evaluator = Callable[[np.ndarray], np.ndarray]
Integrand = Union[Expr, Evaluator]


class NonConvergenceError(RuntimeError):
    """Bracket failed to close; ``estimate`` holds the last bracket."""

    def __init__(self, message: str, estimate: "DarbouxEstimate"):
        super().__init__(message)
        self.estimate = estimate


class UndefinedSamplesError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SamplingConfig:
    """How cell extrema are sampled.

    Samples are equally spaced and include both cell edges, which
    neighbouring cells share.  samples_per_cell=2 costs one evaluation
    per cell edge and is exact for cell-monotone integrands; the default
    64 guards oscillatory ones.
    """

    samples_per_cell: int = 64
    undefined_policy: str = SKIP_ISOLATED

    def __post_init__(self):
        if self.samples_per_cell < 2:
            raise ValueError("samples_per_cell must be >= 2")
        if self.undefined_policy not in (SKIP_ISOLATED, FAIL_ON_UNDEFINED):
            raise ValueError(f"unknown undefined_policy {self.undefined_policy!r}")


DEFAULT_CONFIG = SamplingConfig()


@dataclass(frozen=True, slots=True)
class DarbouxEstimate:
    """One quadrature pass: sampled lower/upper sums over ``cells`` cells.

    ``norm`` is the partition norm (0 only for the degenerate-interval
    estimate).  The point estimate is ``midpoint``.  ``levels`` and
    ``swept`` count the work behind it: refinement levels evaluated and
    the cells summed over all of them.
    """

    lower: float
    upper: float
    norm: float
    cells: int
    levels: int = 0
    swept: int = 0

    def __post_init__(self):
        if self.lower > self.upper:  # NaN-safe: comparison is False for NaN
            raise ValueError(f"bracket out of order: [{self.lower}, {self.upper}]")
        if self.norm < 0 or self.cells < 0:
            raise ValueError("norm and cells must be nonnegative")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def __neg__(self) -> "DarbouxEstimate":
        return DarbouxEstimate(
            -self.upper, -self.lower, self.norm, self.cells, self.levels, self.swept
        )


def as_evaluator(f: Integrand) -> Evaluator:
    """Adapt an expression or vectorized callable to ndarray -> ndarray."""
    if isinstance(f, Expr):
        return lambda xs: evaluate_array(f, xs)
    if callable(f):
        return lambda xs: np.asarray(f(xs), dtype=float)
    raise TypeError(f"not an integrand: {f!r}")


def _fsum(values) -> float:
    """``math.fsum``, giving +-inf on overflow and NaN for inf - inf."""
    try:
        return math.fsum(values)
    except OverflowError:  # finite terms whose partial sums overflow
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(values))
        return total if math.isnan(total) else math.copysign(math.inf, total)
    except ValueError:  # both infinities among the terms
        return math.nan


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction in fixed (ascending) order."""
    values = np.asarray(values, dtype=float)
    # fsum reads a list of floats faster than it iterates an array: same floats, same bits
    if values.size <= 4096:
        return _fsum(values.tolist())
    starts = np.arange(0, values.size, 4096)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf inside a block
        return _fsum(np.add.reduceat(values, starts).tolist())


def _cell_extrema(ys: np.ndarray, w: int, policy: str):
    """Per-cell (min, max) of shared-edge samples; cell i owns ys[i*w : i*w + w + 1].

    Undefined (NaN) samples raise under FAIL_ON_UNDEFINED; under
    SKIP_ISOLATED they are left out unless two are adjacent, so every
    cell keeps a defined sample.  The third value holds their indices
    (None when there are none).  ``ys`` is masked in place and restored.
    """
    mask = np.isnan(ys)
    undefined = None
    if mask.any():
        if policy == FAIL_ON_UNDEFINED:
            raise UndefinedSamplesError("undefined sample value")
        if (mask[:-1] & mask[1:]).any():
            raise UndefinedSamplesError(
                "adjacent undefined samples; only isolated undefined points can be skipped"
            )
        undefined = np.flatnonzero(mask)
        ys[undefined] = np.inf
    body = ys[:-1].reshape(-1, w)
    right = ys[w::w]
    lo = body.min(axis=1)
    np.minimum(lo, right, out=lo)
    if undefined is not None:
        ys[undefined] = -np.inf
    hi = body.max(axis=1)
    np.maximum(hi, right, out=hi)
    if undefined is not None:
        ys[undefined] = np.nan
    return lo, hi, undefined


def _cell_bounds(
    f: Integrand,
    cells: Interval | Partition,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Per-cell (min, max) of ``f`` over each cell's grid plus the hints inside it.

    Cell [a, b] samples ``a + (width/w)*arange(w+1)`` with the last point
    set to b, and the hints strictly inside it sorted in.  Runs of cells
    without such a hint share their edge samples and are evaluated in
    chunks of at most _CHUNK_POINTS samples; a cell with one is reduced on
    its own.  A run also ends at an inner edge of -0.0, which the cell on
    its left samples as b = -0.0 and the one on its right as a + 0 = +0.0.
    An Interval gives floats, a Partition arrays.
    """
    if isinstance(cells, Partition):
        pts = cells.points
    elif cells.is_degenerate:
        raise ValueError("cell must be non-degenerate")
    else:
        pts = np.array([cells.a, cells.b])
    ev = as_evaluator(f)
    n = pts.size - 1
    w = cfg.samples_per_cell - 1
    ramp = np.arange(w)

    def grid(e: np.ndarray) -> np.ndarray:
        # each cell's np.linspace(a, b, w + 1) bit for bit, its edges shared
        rows = e[:-1, None] + (np.diff(e) / w)[:, None] * ramp
        return np.append(rows.ravel(), e[-1])

    hs = np.asarray(() if hints is None else hints, dtype=float)
    # the one cell each hint can lie strictly inside
    owner = np.clip(np.searchsorted(pts, hs, side="right") - 1, 0, n - 1)
    inside = (pts[owner] < hs) & (hs < pts[owner + 1])
    hinted = set(owner[inside].tolist())
    inner = pts[1:-1]
    negative_zero = (np.flatnonzero((inner == 0) & np.signbit(inner)) + 1).tolist()
    cuts = sorted({0, n, *hinted, *(c + 1 for c in hinted), *negative_zero})

    lo, hi = np.empty(n), np.empty(n)
    per_chunk = max(1, (_CHUNK_POINTS - 1) // w)
    for start, stop in zip(cuts, cuts[1:]):
        for c0 in range(start, stop, per_chunk):
            c1 = min(stop, c0 + per_chunk)
            xs, gaps = grid(pts[c0 : c1 + 1]), w
            if c0 in hinted:  # a run of one cell
                xs = np.sort(np.concatenate([xs, hs[inside & (owner == c0)]]))
                gaps = xs.size - 1
            lo[c0:c1], hi[c0:c1], _ = _cell_extrema(ev(xs), gaps, cfg.undefined_policy)
    if isinstance(cells, Interval):
        return float(lo[0]), float(hi[0])
    return lo, hi


def infimum_on(
    f: Integrand,
    cells: Interval | Partition,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float | np.ndarray:
    """Minimum of ``f`` over each cell's sample grid (approximate infimum).

    An Interval gives a float; a Partition gives an array with one value
    per cell, each the value its cell gives as an Interval, bit for bit.
    With ``hints`` (interior turning points of f) the value is the true
    infimum for functions monotone between hints.  A hint's value is one
    more sample of the cell it lies strictly inside, so an undefined one
    falls under the undefined-sample policy.
    """
    return _cell_bounds(f, cells, cfg, hints)[0]


def supremum_on(
    f: Integrand,
    cells: Interval | Partition,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float | np.ndarray:
    """Maximum of ``f`` over each cell's sample grid (approximate supremum).

    Takes and gives what ``infimum_on`` does.
    """
    return _cell_bounds(f, cells, cfg, hints)[1]


def _scatter_hints(
    extrema: np.ndarray,
    edges: np.ndarray,
    hint_xs: np.ndarray,
    hint_ys: np.ndarray,
    want_max: bool,
) -> None:
    # a hint on an edge belongs to the cell on its right, also across chunks
    idx = np.searchsorted(edges, hint_xs, side="right") - 1
    keep = (idx >= 0) & (idx < extrema.size)
    op = max if want_max else min
    for i, y in zip(idx[keep], hint_ys[keep]):
        if not np.isnan(y):
            extrema[i] = op(extrema[i], y)


def _hint_values(ev: Evaluator, hints: Sequence[float] | None, a: float, b: float):
    """(sorted hint points inside (a, b), their values), or None without any."""
    inside = sorted(h for h in (() if hints is None else hints) if a < h < b)
    if not inside:
        return None
    hint_xs = np.asarray(inside, dtype=float)
    return hint_xs, ev(hint_xs)


def _partition_sums(
    f: Integrand,
    p: Partition,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float]:
    """(lower, upper) sampled Darboux sums: the cell extrema times the widths."""
    lows, highs = _cell_bounds(f, p, cfg, None)
    pts = p.points
    hinted = _hint_values(as_evaluator(f), hints, pts[0], pts[-1])
    if hinted is not None:
        _scatter_hints(lows, pts, *hinted, want_max=False)
        _scatter_hints(highs, pts, *hinted, want_max=True)
    widths = p.widths()
    with np.errstate(over="ignore"):
        return compensated_sum(lows * widths), compensated_sum(highs * widths)


def lower_sum(
    f: Integrand,
    p: Partition,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float:
    """Sampled lower Darboux sum: sum of (cell minimum) * (cell width)."""
    return _partition_sums(f, p, cfg, hints)[0]


def upper_sum(
    f: Integrand,
    p: Partition,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float:
    """Sampled upper Darboux sum: sum of (cell maximum) * (cell width)."""
    return _partition_sums(f, p, cfg, hints)[1]


def _uniform_sums(
    ev: Evaluator,
    a: float,
    b: float,
    cells: int,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float, float, bool]:
    """(lower, upper, magnitude, holes) over ``cells`` equal cells.

    Cell i's samples are the global uniform grid slice [i*w, i*w + w]
    for w = samples_per_cell - 1, so each distinct point is evaluated
    once.  ``magnitude``, the sum of (|min| + |max|) * width over the
    cells, scales the rounding of the sums; ``holes`` tells whether an
    undefined sample was skipped strictly inside (a, b).
    """
    w = cfg.samples_per_cell - 1
    step = (b - a) / (cells * w)
    dx = (b - a) / cells
    hinted = _hint_values(ev, hints, a, b)

    lo_parts: list[float] = []
    hi_parts: list[float] = []
    magnitude, holes = 0.0, False
    cells_per_chunk = max(1, _CHUNK_POINTS // w)
    for c0 in range(0, cells, cells_per_chunk):
        c1 = min(cells, c0 + cells_per_chunk)
        xs = np.arange(c0 * w, c1 * w + 1, dtype=float)
        xs *= step
        xs += a
        if c1 == cells:
            xs[-1] = b
        lo, hi, undefined = _cell_extrema(ev(xs), w, cfg.undefined_policy)
        if undefined is not None:
            undefined += c0 * w  # global sample index; 0 is a, cells*w is b
            holes = holes or bool(((undefined > 0) & (undefined < cells * w)).any())
        if hinted is not None:
            edges = a + dx * np.arange(c0, c1 + 1)
            if c1 == cells:
                edges[-1] = b  # as the last sample is, so no hint below b falls out
            _scatter_hints(lo, edges, *hinted, want_max=False)
            _scatter_hints(hi, edges, *hinted, want_max=True)
        lo_parts.append(compensated_sum(lo))
        hi_parts.append(compensated_sum(hi))
        with np.errstate(over="ignore"):
            magnitude += float(np.abs(lo, out=lo).sum() + np.abs(hi, out=hi).sum())

    return _fsum(lo_parts) * dx, _fsum(hi_parts) * dx, magnitude * dx, holes


def integrate(
    f: Integrand,
    iv: Interval,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
) -> DarbouxEstimate:
    """Refine uniform cells from 2**10 until upper - lower <= tol.

    A level of N cells that does not close is followed by N*2**j cells
    for the least j >= 1 at which the bracket might close: a gap g at N
    cells rules out every level N*2**i with g/2**i, less a rounding
    margin, above ``tol`` (see the module docstring).  The result is the
    one plain doubling gives, bit for bit.  Raises NonConvergenceError
    carrying the last bracket when ``max_cells`` is reached first, or at
    once when a sum is not finite (refining keeps every sample point, so
    it cannot become finite later).  The bracket endpoints are the
    sampled Darboux sums of the final refinement; ``midpoint`` is the
    point estimate.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if iv.is_degenerate:
        raise ValueError("cannot integrate over a degenerate interval")
    ev = as_evaluator(f)
    cells = min(start_cells, max_cells)
    levels = swept = last = 0  # ``last``: cells of the previous level
    jumps = True
    while True:
        jumped = 0 < 2 * last < cells
        levels, swept = levels + 1, swept + cells
        try:
            lower, upper, magnitude, holes = _uniform_sums(ev, iv.a, iv.b, cells, cfg, hints)
            undo = jumped and (holes or not math.isfinite(upper - lower))
        except UndefinedSamplesError:
            if not jumped:
                raise
            undo = True
        if undo:  # a skipped level may have failed first or broken the bound
            cells, jumps = 2 * last, False
            continue
        est = DarbouxEstimate(lower, upper, iv.width / cells, cells, levels, swept)
        gap = upper - lower
        if not math.isfinite(gap):
            raise NonConvergenceError(
                f"sum is not finite: bracket [{lower:.3g}, {upper:.3g}] at {cells} cells",
                est,
            )
        if gap <= tol:
            return est
        if cells >= max_cells:
            raise NonConvergenceError(
                f"bracket width {gap:.3g} > tol {tol:.3g} at {cells} cells",
                est,
            )
        nxt = 2 * cells
        # Skip nxt while its width (>= gap*cells/nxt) stays above tol after
        # rounding: 2**-30 of gap, and 2**-36 (32x the error bound of a 4096-term
        # block sum) of magnitude.  Land only on a level that nests in the cap.
        while jumps and 2 * nxt <= max_cells and (
            gap * (1 - 2**-30) * cells / nxt - magnitude * 2**-36 > tol
        ):
            nxt *= 2
        last, cells = cells, min(nxt, max_cells)


def integrate_signed(
    f: Integrand,
    a: float,
    b: float,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
    max_cells: int = CELL_CAP,
) -> DarbouxEstimate:
    """Oriented integral: reversing the endpoints negates the estimate.

    ``a == b`` yields the zero estimate (norm 0, cells 0).
    """
    if a == b:
        return DarbouxEstimate(0.0, 0.0, norm=0.0, cells=0)
    if a < b:
        return integrate(f, Interval(a, b), tol, cfg, hints, max_cells)
    return -integrate(f, Interval(b, a), tol, cfg, hints, max_cells)
