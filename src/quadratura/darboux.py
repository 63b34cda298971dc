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

Isolated undefined sample points (both neighbours defined) are left
out and two adjacent ones raise ``UndefinedSamplesError``; this is how
endpoint singularities like a derivative that only fails to exist at the
boundary are tolerated.  Hints follow one rule everywhere: a hint
strictly inside a cell folds its value into that cell's min and max, a
tie keeps the grid sample's value, and an undefined hint value is left
out, so hints never change which grids raise.
Results are bitwise reproducible.  A row of at most 4096 terms gets its
correctly rounded sum, the bits of math.fsum, from the error-free
extraction of Rump, Ogita & Oishi (SIAM J. Sci. Comput. 31(1), 2008) in
a few vector passes; a longer one is summed in ascending blocks of 4096
whose sums are fsum'd.  Samples are evaluated and reduced in blocks of
at most 8192 points, which bound the working memory; the summation
chunks of 2**21 samples, not the blocks, fix the order of the sums.
Intervals of equal cell count can be sampled as the rows of one level,
a block holding the same cells of each, and every row keeps the bits of
sampling it alone.  A sum that is not finite ends refinement at once
with a non-convergence error.
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

START_CELLS = 2**10
CELL_CAP = 2**24

# Samples are evaluated and reduced in blocks of at most this many points,
# one evaluator block (``expr._EVAL_BLOCK``), so their temporaries stay in cache.
_CHUNK_POINTS = 8192
# ``integrate`` sums 2**21 // w cells a chunk: this fixes its summation order.
_SUM_CHUNK_POINTS = 2**21

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
    64 guards oscillatory ones.  An undefined (NaN) sample is left out
    when both its neighbours are defined; two adjacent ones raise.
    """

    samples_per_cell: int = 64

    def __post_init__(self):
        if self.samples_per_cell < 2:
            raise ValueError("samples_per_cell must be >= 2")


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
    """``math.fsum`` of a sequence, also where its partial sums overflow.

    math.fsum raises OverflowError when a partial sum of finite terms
    overflows, even if the exact sum is finite.  Then the sum is that of
    the infinite and NaN terms when there are any; else it is the exact
    sum correctly rounded, +-inf only when it is out of range.  Both
    infinities among the terms give NaN.
    """
    try:
        return math.fsum(values)
    except OverflowError:
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return _fsum(special)
        # each term is p/q with q a power of two: put them over the largest q
        ratios = [float(v).as_integer_ratio() for v in values]
        q = max(d for _, d in ratios)
        total = sum(n * (q // d) for n, d in ratios)
        try:
            return total / q  # int / int is correctly rounded
        except OverflowError:
            return math.inf if total > 0 else -math.inf
    except ValueError:  # both infinities among the terms
        return math.nan


# A row of at most this many terms is summed exactly (``fsum_rows``); a
# longer one in blocks of this many, whose sums are then fsum'd.
_FSUM_BLOCK = 4096


def fsum_rows(rows: np.ndarray, *, _abs: np.ndarray | None = None) -> list[float]:
    """``_fsum`` of each row of a 2-D array, by error-free extraction.

    Rump, Ogita & Oishi, "Accurate floating-point summation part I:
    faithful rounding", SIAM J. Sci. Comput. 31(1), 2008.  For rows of n
    terms with every |x| <= 2**e, take sigma = 2**(e + n.bit_length()):
    q = (x + sigma) - sigma and r = x - q are exact, every q is a multiple
    of 2**-53 * sigma with |q| <= 2**e, so a row's partial sums of q stay
    below n * 2**e < sigma and ``q.sum()`` is exact in any order.  Every
    |r| <= 2**-53 * sigma, which is the second extraction's 2**e.  That
    leaves each row's exact sum as two partial sums plus the residuals
    still nonzero, and their fsum is the correctly rounded sum: math.fsum's
    bits.  Rows with a term that is inf, NaN or 2**960 or more, and rows
    whose sum is zero (for fsum's sign of zero), go to ``_fsum``.
    ``_abs`` is ``np.abs(rows)`` when the caller already holds it.
    """
    m = float((np.abs(rows) if _abs is None else _abs).max()) if rows.size else 0.0
    if not 0 < m < 2.0**960:  # no nonzero term, or one that is not finite or huge
        if len(rows) == 1:
            return [_fsum(rows[0].tolist())]
        return [s for row in rows for s in fsum_rows(row[None])]
    b = rows.shape[1].bit_length()
    e = math.frexp(m)[1]  # m < 2**e
    x, parts = rows, []
    for sigma in (math.ldexp(1.0, e + b), math.ldexp(1.0, e + 2 * b - 53)):
        q = x + sigma
        q -= sigma
        x = x - q
        parts.append(q.sum(axis=1).tolist())
    rest = [r[r != 0].tolist() for r in x] if x.any() else [()] * len(x)
    sums = [_fsum([s1, s2, *r]) for s1, s2, r in zip(*parts, rest)]
    return [s if s else _fsum(row.tolist()) for s, row in zip(sums, rows)]


def compensated_sum(values, *, _abs: np.ndarray | None = None) -> float | list[float]:
    """Deterministic compensated sum of a row, or of each row of a 2-D array.

    A row of at most 4096 terms gets its correctly rounded sum, the bits
    of math.fsum, by error-free extraction (``fsum_rows``).  A longer row
    is summed in ascending blocks of 4096 terms, and the block sums are
    fsum'd, so there a block sum that overflows gives +-inf although the
    exact sum may be finite.  A scalar is a row of one term; a 2-D array
    gives a list with one sum per row.  ``_abs`` (internal) is
    ``np.abs(values)`` when the caller already holds it, which saves the
    extraction that pass.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim > 2:
        raise ValueError(f"compensated_sum takes a scalar, a row or rows, not shape {values.shape}")
    rows = values if values.ndim == 2 else values.reshape(1, -1)
    if rows.shape[1] <= _FSUM_BLOCK:
        sums = fsum_rows(rows, _abs=_abs)
    else:
        starts = np.arange(0, rows.shape[1], _FSUM_BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf inside a block
            sums = [_fsum(np.add.reduceat(row, starts).tolist()) for row in rows]
    return sums if values.ndim == 2 else sums[0]


def _cell_extrema(ys: np.ndarray, w: int, lo=None, hi=None):
    """Per-cell (min, max) of shared-edge samples; cell i owns ys[i*w : i*w + w + 1].

    Undefined (NaN) samples are left out; two adjacent ones raise, so
    every cell keeps a defined sample.  The third value holds their indices
    (None when there are none).  ``ys`` is masked in place and restored.
    The extrema are written into ``lo`` and ``hi`` when given (one slot
    per cell), else into fresh arrays.
    """
    mask = np.isnan(ys)
    undefined = None
    if mask.any():
        if (mask[:-1] & mask[1:]).any():
            raise UndefinedSamplesError(
                "adjacent undefined samples; only isolated undefined points can be skipped"
            )
        undefined = np.flatnonzero(mask)
        ys[undefined] = np.inf
    body = ys[:-1].reshape(-1, w)
    right = ys[w::w]
    # at w = 1 a cell's body is its left edge, taken as is rather than reduced
    # over an axis of length 1: the same operands, so the same bits
    lo = np.minimum(ys[:-1] if w == 1 else body.min(axis=1, out=lo), right, out=lo)
    if undefined is not None:
        ys[undefined] = -np.inf
    hi = np.maximum(ys[:-1] if w == 1 else body.max(axis=1, out=hi), right, out=hi)
    if undefined is not None:
        ys[undefined] = np.nan
    return lo, hi, undefined


def _hint_values(ev: Evaluator, hints: Sequence[float] | None, a: float, b: float):
    """(sorted hint points inside (a, b), their values), both empty without any."""
    inside = sorted(h for h in (() if hints is None else hints) if a < h < b)
    hint_xs = np.asarray(inside, dtype=float)
    return hint_xs, ev(hint_xs) if inside else hint_xs


def _fold_hints(lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, values: np.ndarray) -> None:
    """Fold each hint's value into its cell's (min, max), in order.

    A tie keeps the value already there, and an undefined (NaN) value,
    which compares false, is left out.
    """
    for i, y in zip(cell.tolist(), values.tolist()):
        if y < lo[i]:
            lo[i] = y
        if y > hi[i]:
            hi[i] = y


def _cell_bounds(
    f: Integrand,
    cells: Interval | Partition,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Per-cell (min, max) of ``f`` over each cell's grid, with the hints folded in.

    Cell [a, b] samples ``a + (width/w)*arange(w+1)`` with the last point
    set to b.  Runs of cells share their edge samples and are evaluated
    in chunks of at most _CHUNK_POINTS samples.  A run ends at an inner
    edge of -0.0, which the cell on its left samples as b = -0.0 and the
    one on its right as a + 0 = +0.0.  The hints inside (a, b) are then
    evaluated in one call and folded in; one on an inner edge belongs to
    the cell on its right.  An Interval gives floats, a Partition arrays.
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

    inner = pts[1:-1]
    negative_zero = (np.flatnonzero((inner == 0) & np.signbit(inner)) + 1).tolist()
    cuts = [0, *negative_zero, n]

    lo, hi = np.empty(n), np.empty(n)
    per_chunk = max(1, (_CHUNK_POINTS - 1) // w)
    for start, stop in zip(cuts, cuts[1:]):
        for c0 in range(start, stop, per_chunk):
            c1 = min(stop, c0 + per_chunk)
            _cell_extrema(ev(grid(pts[c0 : c1 + 1])), w, lo[c0:c1], hi[c0:c1])
    hint_xs, hint_ys = _hint_values(ev, hints, pts[0], pts[-1])
    _fold_hints(lo, hi, np.searchsorted(pts, hint_xs, side="right") - 1, hint_ys)
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
    per cell.  With ``hints`` (interior turning points of f) the value is
    the true infimum for functions monotone between hints.  A hint folds
    its value into the cell it lies strictly inside; a tie keeps the grid
    sample's value, and an undefined hint value is left out.
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


def _partition_sums(
    f: Integrand,
    p: Partition,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float]:
    """(lower, upper) sampled Darboux sums: the cell extrema times the widths."""
    with np.errstate(over="ignore"):
        lower, upper = compensated_sum(np.stack(_cell_bounds(f, p, cfg, hints)) * p.widths())
    return lower, upper


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


def _uniform_rows(
    ev: Evaluator,
    a: Sequence[float],
    b: Sequence[float],
    cells: int,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> list[tuple[float, float, float, bool] | UndefinedSamplesError]:
    """Each row's (lower, upper, magnitude, holes) over ``cells`` equal cells of [a[r], b[r]].

    A row with adjacent undefined samples gives the UndefinedSamplesError
    it raised instead.  Cell i of a row samples the row's uniform grid
    slice [i*w, i*w + w] for w = samples_per_cell - 1, so each distinct
    point is evaluated once, except the edge sample two evaluation blocks
    share.  A block holds the same cells of every row, at most
    _CHUNK_POINTS samples in all, and is evaluated in one call.  Blocks
    fill in the cell extrema of a chunk of _SUM_CHUNK_POINTS samples a
    row, and all rows of the chunk are summed in one call, so neither the
    blocks nor the other rows change a bit of a row's result.
    ``magnitude``, the sum of (|min| + |max|) * width over the cells,
    scales the rounding of the sums; ``holes`` tells whether an undefined
    sample was skipped strictly inside (a, b).  Sampling stops once every
    row has raised.
    """
    rows = len(a)
    w = cfg.samples_per_cell - 1
    dx = [(hi - lo) / cells for lo, hi in zip(a, b)]
    step = [(hi - lo) / (cells * w) for lo, hi in zip(a, b)]
    pins = None  # each row's hints inside it and their values
    if hints is not None:
        pins = [_hint_values(ev, hints, lo, hi) for lo, hi in zip(a, b)]

    errors: list[UndefinedSamplesError | None] = [None] * rows
    holes = [False] * rows
    chunk_sums: list[list[float]] = []  # each chunk's lower sums, then its upper sums
    magnitude = [0.0] * rows
    cells_per_chunk = max(1, _SUM_CHUNK_POINTS // w)
    cells_per_block = max(1, (_CHUNK_POINTS // rows - 1) // w)
    # room for one chunk's (lo, hi) rows, so no two chunks' are alive at once
    room = np.empty(2 * rows * min(cells, cells_per_chunk))
    for c0 in range(0, cells, cells_per_chunk):
        c1 = min(cells, c0 + cells_per_chunk)
        pair = room[: 2 * rows * (c1 - c0)].reshape(2 * rows, c1 - c0)
        lo, hi = pair[:rows], pair[rows:]
        for k0 in range(c0, c1, cells_per_block):
            k1 = min(c1, k0 + cells_per_block)
            grids = []
            for r in range(rows):  # row by row: numpy's fast path for a scalar
                grid = np.arange(k0 * w, k1 * w + 1, dtype=float)
                grid *= step[r]
                grid += a[r]
                if k1 == cells:
                    grid[-1] = b[r]
                grids.append(grid)
            ys = ev(grids[0] if rows == 1 else np.concatenate(grids)).reshape(rows, -1)
            for r in range(rows):
                try:
                    _, _, undefined = _cell_extrema(
                        ys[r], w, lo[r, k0 - c0 : k1 - c0], hi[r, k0 - c0 : k1 - c0]
                    )
                except UndefinedSamplesError as exc:
                    errors[r] = errors[r] or exc
                    continue
                if undefined is not None:
                    undefined += k0 * w  # global sample index; 0 is a, cells*w is b
                    holes[r] = holes[r] or bool(((undefined > 0) & (undefined < cells * w)).any())
            if all(errors):
                return errors
        for r, (hint_xs, hint_ys) in enumerate(pins or ()):
            if hint_xs.size:
                edges = a[r] + dx[r] * np.arange(c0, c1 + 1)
                if c1 == cells:
                    edges[-1] = b[r]  # as the last sample is, so no hint below b falls out
                # a hint on an edge belongs to the cell on its right, also across chunks
                idx = np.searchsorted(edges, hint_xs, side="right") - 1
                keep = (idx >= 0) & (idx < c1 - c0)
                _fold_hints(lo[r], hi[r], idx[keep], hint_ys[keep])
        if c1 - c0 <= _FSUM_BLOCK:  # one |pair| pass bounds the extraction too
            size = np.abs(pair)
            chunk_sums.append(compensated_sum(pair, _abs=size))
        else:
            chunk_sums.append(compensated_sum(pair))
            size = np.abs(pair, out=pair)
        with np.errstate(over="ignore"):
            size = size.sum(axis=1).tolist()
        for r in range(rows):
            magnitude[r] += size[r] + size[rows + r]

    levels: list[tuple[float, float, float, bool] | UndefinedSamplesError] = []
    for r in range(rows):
        if errors[r] is not None:
            levels.append(errors[r])
            continue
        lower = _fsum([sums[r] for sums in chunk_sums]) * dx[r]
        upper = _fsum([sums[rows + r] for sums in chunk_sums]) * dx[r]
        levels.append((lower, upper, magnitude[r] * dx[r], holes[r]))
    return levels


def _level_sums(level) -> tuple[float, float, float, bool]:
    """A row of ``_uniform_rows``: its sums, or its error raised."""
    if isinstance(level, UndefinedSamplesError):
        raise level
    return level


def _uniform_sums(
    ev: Evaluator,
    a: float,
    b: float,
    cells: int,
    cfg: SamplingConfig,
    hints: Sequence[float] | None,
) -> tuple[float, float, float, bool]:
    """(lower, upper, magnitude, holes) over ``cells`` equal cells of [a, b].

    The one-row ``_uniform_rows``; adjacent undefined samples raise.
    """
    return _level_sums(_uniform_rows(ev, [a], [b], cells, cfg, hints)[0])


def integrate(
    f: Integrand,
    iv: Interval,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    hints: Sequence[float] | None = None,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
    *,
    _first=None,
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

    ``_first`` (internal) is the first level when the caller has sampled
    it already: its row of ``_uniform_rows`` over ``iv`` at
    min(start_cells, max_cells) cells with these ``cfg`` and ``hints``.
    The improper runner samples the strips of a truncation step as rows
    of one level this way; the result is that of sampling it here.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")
    if iv.is_degenerate:
        raise ValueError("cannot integrate over a degenerate interval")
    ev = as_evaluator(f)
    cells = min(start_cells, max_cells)
    levels = swept = last = 0  # ``last``: cells of the previous level
    jumps = True
    while True:
        jumped = 0 < 2 * last < cells
        levels, swept = levels + 1, swept + cells
        level, _first = _first, None
        try:
            if level is None:
                level = _uniform_sums(ev, iv.a, iv.b, cells, cfg, hints)
            lower, upper, magnitude, holes = _level_sums(level)
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
