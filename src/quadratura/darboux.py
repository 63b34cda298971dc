"""Sampled lower/upper Darboux sums and a bracketing integral estimator.

Per-cell extrema come from a finite sample grid, so the sums here are
"sampled Darboux" sums: the lower sum may overestimate a true infimum
between samples (and the upper sum underestimate a supremum).  For
functions that are piecewise monotone at the sampling scale the bracket
is exact; callers needing guarantees pass ``hints`` listing the interior
turning points, which makes every cell extremum exact.

``integrate`` doubles a uniform cell count until the bracket closes to
the requested tolerance; the midpoint of the final bracket is the point
estimate.  For smooth integrands the midpoint converges one order
faster than the bracket width (it is the trapezoid value when cell
extrema sit at cell edges), so moderate tolerances already give tight
values.

Isolated undefined sample points (both neighbours defined) are skipped
under the default policy; this is how endpoint singularities like a
derivative that only fails to exist at the boundary are tolerated.
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
    estimate).  The point estimate is ``midpoint``.
    """

    lower: float
    upper: float
    norm: float
    cells: int

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
        return DarbouxEstimate(-self.upper, -self.lower, self.norm, self.cells)


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
        with np.errstate(over="ignore"):
            return math.copysign(math.inf, float(np.sum(values)))
    except ValueError:  # both infinities among the terms
        return math.nan


def compensated_sum(values: np.ndarray) -> float:
    """Deterministic compensated reduction in fixed (ascending) order."""
    values = np.asarray(values, dtype=float)
    if values.size <= 4096:
        return _fsum(values)
    starts = np.arange(0, values.size, 4096)
    with np.errstate(over="ignore"):
        return _fsum(np.add.reduceat(values, starts))


def _cell_extrema(ys: np.ndarray, w: int, policy: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell (min, max) of shared-edge samples; cell i owns ys[i*w : i*w + w + 1].

    Undefined (NaN) samples raise under FAIL_ON_UNDEFINED; under
    SKIP_ISOLATED they are left out unless two are adjacent, so every
    cell keeps a defined sample.  ``ys`` is masked in place and restored.
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
    return lo, hi


def _cell_bounds(
    f: Integrand,
    cell: Interval,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float]:
    """(min, max) of ``f`` over one cell's grid plus the hints inside it."""
    if cell.is_degenerate:
        raise ValueError("cell must be non-degenerate")
    w = cfg.samples_per_cell - 1
    # np.linspace(a, b, w + 1) bit for bit, without its overhead
    xs = cell.a + (cell.width / w) * np.arange(w + 1)
    xs[-1] = cell.b
    if hints:
        inside = [h for h in hints if cell.a < h < cell.b]
        if inside:
            xs = np.concatenate([xs, np.asarray(inside, dtype=float)])
            xs.sort()
    lo, hi = _cell_extrema(as_evaluator(f)(xs), xs.size - 1, cfg.undefined_policy)
    return float(lo[0]), float(hi[0])


def infimum_on(
    f: Integrand,
    cell: Interval,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float:
    """Minimum of ``f`` over the cell's sample grid (approximate infimum).

    With ``hints`` (interior turning points of f) the value is the true
    infimum for functions monotone between hints.
    """
    return _cell_bounds(f, cell, cfg, hints)[0]


def supremum_on(
    f: Integrand,
    cell: Interval,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
) -> float:
    """Maximum of ``f`` over the cell's sample grid (approximate supremum)."""
    return _cell_bounds(f, cell, cfg, hints)[1]


def _scatter_hints(
    extrema: np.ndarray,
    edges: np.ndarray,
    hint_xs: np.ndarray,
    hint_ys: np.ndarray,
    want_max: bool,
) -> None:
    if hint_xs.size == 0:
        return
    idx = np.searchsorted(edges, hint_xs, side="right") - 1
    keep = (idx >= 0) & (idx < extrema.size) & (hint_xs > edges[0]) & (hint_xs < edges[-1])
    op = max if want_max else min
    for i, y in zip(idx[keep], hint_ys[keep]):
        if not np.isnan(y):
            extrema[i] = op(extrema[i], y)


def _hint_values(ev: Evaluator, hints: Sequence[float] | None):
    """(sorted hint points, their values), or None without hints."""
    if not hints:
        return None
    hint_xs = np.asarray(sorted(hints), dtype=float)
    return hint_xs, ev(hint_xs)


def _partition_sums(
    f: Integrand,
    p: Partition,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float]:
    """(lower, upper) sampled Darboux sums over an arbitrary partition."""
    ev = as_evaluator(f)
    pts = p.points
    widths = p.widths()
    n = p.cell_count
    w = cfg.samples_per_cell - 1
    offsets = np.linspace(0.0, 1.0, w + 1)[:-1]

    lows = np.empty(n)
    highs = np.empty(n)
    chunk = max(1, _CHUNK_POINTS // w)
    for i0 in range(0, n, chunk):
        i1 = min(n, i0 + chunk)
        grid = pts[i0:i1, None] + widths[i0:i1, None] * offsets
        xs = np.append(grid.ravel(), pts[i1])  # exact shared edges
        lows[i0:i1], highs[i0:i1] = _cell_extrema(ev(xs), w, cfg.undefined_policy)

    hinted = _hint_values(ev, hints)
    if hinted is not None:
        _scatter_hints(lows, pts, *hinted, want_max=False)
        _scatter_hints(highs, pts, *hinted, want_max=True)

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
) -> tuple[float, float]:
    """(lower, upper) over ``cells`` equal cells, sharing edge evaluations.

    Cell i's samples are the global uniform grid slice [i*w, i*w + w]
    for w = samples_per_cell - 1, so each distinct point is evaluated
    once.
    """
    w = cfg.samples_per_cell - 1
    step = (b - a) / (cells * w)
    dx = (b - a) / cells
    hinted = _hint_values(ev, hints)

    lo_parts: list[float] = []
    hi_parts: list[float] = []
    cells_per_chunk = max(1, _CHUNK_POINTS // w)
    for c0 in range(0, cells, cells_per_chunk):
        c1 = min(cells, c0 + cells_per_chunk)
        xs = np.arange(c0 * w, c1 * w + 1, dtype=float)
        xs *= step
        xs += a
        if c1 == cells:
            xs[-1] = b
        lo, hi = _cell_extrema(ev(xs), w, cfg.undefined_policy)
        if hinted is not None:
            edges = a + dx * np.arange(c0, c1 + 1)
            _scatter_hints(lo, edges, *hinted, want_max=False)
            _scatter_hints(hi, edges, *hinted, want_max=True)
        lo_parts.append(compensated_sum(lo))
        hi_parts.append(compensated_sum(hi))

    return _fsum(lo_parts) * dx, _fsum(hi_parts) * dx


def integrate(
    f: Integrand,
    iv: Interval,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
) -> DarbouxEstimate:
    """Refine uniform cells (doubling from 2**10) until upper - lower <= tol.

    Raises NonConvergenceError carrying the last bracket when the cap is
    reached first, or at once when a sum is not finite (refining keeps
    every sample point, so it cannot become finite later).  The bracket
    endpoints are the sampled Darboux sums of the final refinement;
    ``midpoint`` is the point estimate.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if iv.is_degenerate:
        raise ValueError("cannot integrate over a degenerate interval")
    ev = as_evaluator(f)
    cells = min(start_cells, max_cells)
    while True:
        lower, upper = _uniform_sums(ev, iv.a, iv.b, cells, cfg, hints)
        est = DarbouxEstimate(lower, upper, norm=iv.width / cells, cells=cells)
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
        cells = min(cells * 2, max_cells)


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
