"""Sampled lower/upper Darboux sums and a bracketing integral estimator.

Per-cell extrema come from a finite sample grid, so the sums here are
"sampled Darboux" sums: the lower sum may overestimate a true infimum
between samples (and the upper sum underestimate a supremum).  Over a
``Partition``, ``lower_sum`` and ``upper_sum`` weight by the cell widths
the very extrema ``infimum_on`` and ``supremum_on`` give for it.  For
functions that are piecewise monotone at the sampling scale the bracket
is exact; callers of these four partition functions that need guarantees
pass ``hints`` listing the interior turning points, which makes every
cell extremum exact.

At 16 samples a cell or more (``_MONOTONE_SAMPLES``), an expression of
one variable, of any height, is tested for monotone cells first: f and
f' are enclosed by interval evaluation of their tape
(``interval.slope_tape``, ``interval.enclose``) on the cells between the
evaluated edge samples, and a cell is *certified* when f's enclosure is
finite, the enclosure of f' keeps one sign (lo >= 0 or hi <= 0) and both
edge values are defined and nonzero.  f is then monotone on the cell, so
its extrema are its edge values, the exact Darboux terms; only the other
cells are sampled in full.  This is the monotonicity test of interval
global optimization (Hansen & Walster, "Global Optimization Using
Interval Analysis", 2004).  The test costs about as much as evaluating 5
to 8 samples a cell, so it is decided once a level: a level of at most
2,048 cells is tested whole, and so is a larger one whose parent level's
certified cells saved 8 samples a cell (their children almost always
certify too); any other is tested whole only if a probe of its first
2,048 cells pays, else sampled in full.  A summation chunk takes one
pass that only certifies, its edges evaluated in one call and its cells
enclosed 2,048 a call, cell by cell; one call then samples the rest.
``integrate`` keeps which cells of the last level it accepted the test
certified, a bool a cell.  The grids nest, so a cell of the next level
lies inside one of them, and inside its enclosures too (inclusion
monotonicity: Moore, Kearfott & Cloud, "Introduction to Interval
Analysis", 2009): it is certified without an enclosure of its own once
its two edge values are defined and nonzero.  Only the cells of the
first level and those inside an uncertified cell are enclosed; where a
level jumps 8 or more cells a parent cell and has more such cells than
one call takes, they are enclosed first in aligned groups of at most a
quarter of a parent cell (the bisection step of interval global
optimization), and a cell of a certified group inherits as well.
Where the evaluated f is monotone on a certified cell, as it is on every
formula of the bitwise battery in ``tests/test_monotone.py``, its
samples' extrema are its edge values bit for bit, so the sums are those
of sampling every cell; only rounding that makes the evaluated f locally
non-monotone could move a bit.  Callables and fewer samples a cell take
every sample as before.

``integrate`` refines a uniform cell count N, 2N, 4N, ... until the
bracket closes to the requested tolerance; the midpoint of the final
bracket is the point estimate.  For smooth integrands the midpoint
converges one order faster than the bracket width (it is the trapezoid
value when cell extrema sit at cell edges), so moderate tolerances
already give tight values.

Levels that cannot close are skipped, keeping every bit of plain
doubling.  The grids nest exactly (``2j * (s/2) == j * s``), and the two
halves of a cell share its midpoint sample and hold all its samples, so
width(2M) >= width(M)/2 in exact arithmetic.  Certified cells
keep the bound: a certified cell's range is that of its two edges, which
are edge samples of its halves, and a certified half's range holds every
sample inside it, f being monotone there.  (The halves of a certified
cell lie inside its enclosures, so they stay certified unless the
midpoint value is zero.)  A gap g at N
cells rules out each level N*2**i where g/2**i, less a margin for the
rounding of the sums, exceeds the tolerance.  Every point of a skipped
level is a point of the level jumped to, so when that level has an
undefined sample inside (a, b) (a shared midpoint may be one), raises
``UndefinedSamplesError`` or has a sum that is not finite, refinement
goes back to the first skipped level and doubles plainly from there.

Isolated undefined sample points (both neighbours defined) are left
out and two adjacent ones raise ``UndefinedSamplesError``; this is how
endpoint singularities like a derivative that only fails to exist at the
boundary are tolerated.  Hints, which the partition functions and
``approximant.build_approximant`` take, follow one rule: a hint strictly
inside a cell folds its value into that cell's min and max, a tie keeps
the grid sample's value, and an undefined hint value is left out, so
hints never change which grids raise.
Results are bitwise reproducible.  A row of at most 4096 terms gets its
correctly rounded sum, the bits of math.fsum, from the error-free
extraction of Rump, Ogita & Oishi (SIAM J. Sci. Comput. 31(1), 2008) in
a few vector passes; a longer one is summed in ascending blocks of 4096
whose sums are fsum'd.  Samples are evaluated and reduced in blocks of
at most 8192 points, which bound the working memory; the summation
chunks of 2**21 samples, not the blocks, fix the order of the sums.  A
sum that is not finite ends refinement at once with a non-convergence
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .expr import _EVAL_BLOCK, Expr, evaluate_array
from .interval import enclose, slope_tape
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
# one evaluator block, so their temporaries stay in cache.
_CHUNK_POINTS = _EVAL_BLOCK
# ``integrate`` sums 2**21 // w cells a chunk: this fixes its summation order.
_SUM_CHUNK_POINTS = 2**21
# At this many samples a cell or more, an expression's cells are tested for
# monotonicity first (``_monotone_pass``), enclosed _MONOTONE_CELLS a call; a
# larger level than that without a parent that paid is probed on as many.
_MONOTONE_SAMPLES = 16
_MONOTONE_CELLS = 2048
# Evaluating the edges and enclosing cells that inherit nothing costs about 5
# to 8 samples a cell (E1's product and simpler formulas on a 2-vCPU Xeon), so
# a test pays where its certified cells save _TEST_SAMPLES a cell (``_pays``).
_TEST_SAMPLES = 8

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
    when both its neighbours are defined; two adjacent ones raise.  From
    16 samples on, ``integrate`` evaluates only the edges of the cells of
    an expression, of any height, that its derivative's enclosure
    certifies monotone (see the module docstring), and samples the rest.
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
    the cells summed over all of them.  ``certified`` counts the cells of
    the final level whose extrema came from their edge values alone.
    """

    lower: float
    upper: float
    norm: float
    cells: int
    levels: int = 0
    swept: int = 0
    certified: int = 0

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
            -self.upper, -self.lower, self.norm, self.cells, self.levels, self.swept, self.certified
        )


def as_evaluator(f: Integrand | tuple[Expr, ...]) -> Evaluator:
    """Adapt an expression, a tuple of them (a row each) or a callable to ndarray -> ndarray."""
    if isinstance(f, (Expr, tuple)):
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
# ``fsum_blocks`` takes its blocks this long.
_FSUM_BLOCK = 4096


def _extract(x: np.ndarray, q: np.ndarray, e: int, b: int) -> tuple[list, bool]:
    """Error-free extraction from the rows of ``x``, in place.

    Rump, Ogita & Oishi, "Accurate floating-point summation part I:
    faithful rounding", SIAM J. Sci. Comput. 31(1), 2008.  For rows of
    fewer than 2**b terms with every |x| <= 2**e, take sigma = 2**(e + b):
    q = (x + sigma) - sigma and r = x - q are exact, every q is a multiple
    of 2**-53 * sigma with |q| <= 2**e, so a row's partial sums of q stay
    below 2**b * 2**e = sigma and ``q.sum()`` is exact in any order.  Every
    |r| <= 2**-53 * sigma, which is the next round's 2**e.  Two rounds are
    made, then more while residuals remain and sigma / 2 is normal.
    ``x`` is left holding the residuals; ``q`` is scratch of its shape.
    Returns each round's sums of q along the last axis, and whether a
    residual is nonzero.
    """
    sums = []
    while True:
        sigma = math.ldexp(1.0, e + b)
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        sums.append(q.sum(axis=-1))
        e += b - 53
        if len(sums) >= 2:
            left = bool(x.any())
            if not left or e + b <= -1022:
                return sums, left


def fsum_rows(rows: np.ndarray, *, _abs: np.ndarray | None = None) -> list[float]:
    """``_fsum`` of each row of a 2-D array, by error-free extraction.

    Each row's exact sum is its rounds' sums of q (``_extract``, one sigma
    for all rows) plus the residuals still nonzero, and their fsum is the
    correctly rounded sum: math.fsum's bits.  Rows with a term that is
    inf, NaN or 2**960 or more, and rows whose sum is zero (for fsum's
    sign of zero), go to ``_fsum``.  ``_abs`` is ``np.abs(rows)`` when the
    caller already holds it.
    """
    m = float((np.abs(rows) if _abs is None else _abs).max()) if rows.size else 0.0
    if not 0 < m < 2.0**960:  # no nonzero term, or one that is not finite or huge
        if len(rows) == 1:
            return [_fsum(rows[0].tolist())]
        return [s for row in rows for s in fsum_rows(row[None])]
    x = rows.copy()
    parts, left = _extract(x, np.empty_like(x), math.frexp(m)[1], rows.shape[1].bit_length())
    rest = [r[r != 0].tolist() for r in x] if left else [()] * len(x)
    sums = [_fsum([*p, *r]) for p, r in zip(zip(*[s.tolist() for s in parts]), rest)]
    return [s if s else _fsum(row.tolist()) for s, row in zip(sums, rows)]


def fsum_blocks(blocks: Callable[[], Iterable[np.ndarray]]) -> float:
    """``_fsum`` of a row that ``blocks()`` yields in 1-D blocks of at most
    ``_FSUM_BLOCK`` terms, with no array of the row's length.

    Each block is extracted on its own (``_extract``, sigma from its own
    largest term and length), in place, so a yielded block may be a
    buffer that the next one reuses.  The row's exact sum is every block's
    round sums plus their nonzero residuals, and their fsum is math.fsum's
    bits.  A row with a term that is inf, NaN or 2**960 or more, or whose
    sum is zero, is taken again from ``blocks()`` and goes to ``_fsum``.
    """
    scratch = np.empty(_FSUM_BLOCK)
    parts: list = []
    for x in blocks():
        q = scratch[: x.size]
        m = float(np.abs(x, out=q).max()) if x.size else 0.0
        if m == 0:
            continue
        if not m < 2.0**960:  # inf, NaN or huge
            break
        sums, left = _extract(x, q, math.frexp(m)[1], x.size.bit_length())
        parts += sums
        if left:
            parts += x[x != 0].tolist()
    else:
        total = _fsum(parts)
        if total:
            return total
    return _fsum([t for x in blocks() for t in x.tolist()])


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


def _cell_extrema(ys: np.ndarray, w: int, lo=None, hi=None, ends=None):
    """Per-cell (min, max) of shared-edge samples; cell i owns ys[i*w : i*w + w + 1].

    Undefined (NaN) samples are left out; two adjacent ones raise, so
    every cell keeps a defined sample.  The third value holds their indices
    (None when there are none).  ``ys`` is masked in place and restored.
    The extrema are written into ``lo`` and ``hi`` when given (one slot
    per cell), else into fresh arrays.

    ``ends`` (internal) gives gathered cells instead: m cells' w body
    samples each, then the right edges of the cells ``ends`` lists, those
    that end a run (ascending, the last cell among them).
    """
    m = (ys.size - (1 if ends is None else ends.size)) // w
    right_at = slice(w, None, w)
    if ends is not None:
        right_at = np.arange(w, (m + 1) * w, w)
        right_at[ends] = np.arange(m * w, ys.size)
    mask = np.isnan(ys)
    undefined = None
    if mask.any():
        inner = mask[: m * w].reshape(m, w)
        if (inner[:, :-1] & inner[:, 1:]).any() or (inner[:, -1] & mask[right_at]).any():
            raise UndefinedSamplesError(
                "adjacent undefined samples; only isolated undefined points can be skipped"
            )
        undefined = np.flatnonzero(mask)
        ys[undefined] = np.inf
    # at w = 1 a cell's body is its left edge, taken as is rather than reduced
    # over an axis of length 1: the same operands, so the same bits
    body = ys[: m * w] if w == 1 else ys[: m * w].reshape(m, w)
    lo = np.minimum(body if w == 1 else body.min(axis=1, out=lo), ys[right_at], out=lo)
    if undefined is not None:
        ys[undefined] = -np.inf
    hi = np.maximum(body if w == 1 else body.max(axis=1, out=hi), ys[right_at], out=hi)
    if undefined is not None:
        ys[undefined] = np.nan
    return lo, hi, undefined


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
    inside = sorted(h for h in (() if hints is None else hints) if pts[0] < h < pts[-1])
    if inside:
        hint_xs = np.asarray(inside, dtype=float)
        cell = np.searchsorted(pts, hint_xs, side="right") - 1
        # in order; a tie keeps the grid value, and NaN, which compares false, is left out
        for i, y in zip(cell.tolist(), ev(hint_xs).tolist()):
            if y < lo[i]:
                lo[i] = y
            if y > hi[i]:
                hi[i] = y
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


def _row_points(a: float, b: float, step: float, last: int, i0: int, i1: int, stride: int = 1):
    """Samples i0, i0 + stride, ..., i1 of a level: ``i*step + a``, and b at index ``last``."""
    xs = np.arange(i0, i1 + 1, stride, dtype=float)
    xs *= step
    xs += a
    if i1 == last:
        xs[-1] = b
    return xs


def _monotone_tape(f: Integrand, cfg: SamplingConfig) -> tuple | None:
    """The interval tape of (f, f') when f's cells are tested for monotonicity, else None."""
    if isinstance(f, Expr) and cfg.samples_per_cell >= _MONOTONE_SAMPLES:
        return slope_tape(f)
    return None


def _sampled_cells(ev, a, b, step, w, last, k0, todo, lo, hi) -> bool:
    """Sample cells k0 + todo of a level in full: their extrema written into
    lo[todo] and hi[todo] by ``_cell_extrema``, and whether an undefined
    sample inside (a, b) was skipped.

    ``todo`` is a range or ascending indices.  A run of cells takes the
    shared-edge layout, (_CHUNK_POINTS - 1) // w cells a call, its extrema
    written straight into views; other cells take ``_cell_extrema``'s
    gathered layout, _CHUNK_POINTS // (w + 1) cells a call at most.
    """
    holes, i, n = False, 0, len(todo)
    per_run = max(1, (_CHUNK_POINTS - 1) // w)
    while i < n:
        j = min(n, i + per_run)
        c0, c1 = todo[i], todo[j - 1] + 1
        if c1 - c0 != j - i:  # not one run: gather fewer cells
            j = min(n, i + max(1, _CHUNK_POINTS // (w + 1)))
            c1 = todo[j - 1] + 1
        i0, i1 = (c0 + k0) * w, (c1 + k0) * w  # the first and last sample
        if c1 - c0 == j - i:
            ys = ev(_row_points(a, b, step, last, i0, i1))
            _, _, undefined = _cell_extrema(ys, w, lo[c0:c1], hi[c0:c1])
        else:
            part, m = todo[i:j], j - i
            first = (part + k0) * w  # each cell's left edge sample
            ends = np.append(np.flatnonzero(part[1:] - part[:-1] != 1), m - 1)
            xs = np.empty(m * w + ends.size)
            np.add(first[:, None], np.arange(w, dtype=float), out=xs[: m * w].reshape(m, w))
            xs[m * w :] = first[ends] + w
            xs *= step
            xs += a
            if i1 == last:
                xs[-1] = b
            ys = ev(xs)
            lo[part], hi[part], undefined = _cell_extrema(ys, w, ends=ends)
        i = j
        if undefined is not None:  # a hole unless it is the level's sample a or b
            a_at = 0 if i0 == 0 else -1
            b_at = ys.size - 1 if i1 == last else -1
            holes = holes or bool(((undefined != a_at) & (undefined != b_at)).any())
    return holes


def _pays(certified: np.ndarray, w: int) -> bool:
    """Whether ``certified`` cells of w + 1 samples save the samples their test costs."""
    return np.count_nonzero(certified) * w >= _TEST_SAMPLES * certified.size


def _one_sign(tape, x0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """Whether f's enclosure on [x0[i], x1[i]] is finite and f' keeps one
    sign there, a bool an interval, enclosed _MONOTONE_CELLS a call."""
    sure = np.empty(x0.size, dtype=bool)
    for k in range(0, x0.size, _MONOTONE_CELLS):
        part = slice(k, k + _MONOTONE_CELLS)
        f_range, slope = enclose(tape, x0[part], x1[part])
        sure[part] = np.isfinite(f_range).all(axis=0) & ((slope[0] >= 0) | (slope[1] <= 0))
    return sure


def _monotone_pass(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent) -> np.ndarray:
    """Cells c0..c1-1 of a level of ``cells`` tested for monotone cells:
    which of them are certified.  Their edge extrema are written into
    ``lo`` and ``hi`` (a slot a cell from c0).

    A cell is certified when f's enclosure is finite, f' keeps one sign on
    it and both edge values are defined and nonzero: f is monotone there, so
    its extrema are its edge values, taken in ``_cell_extrema``'s operand
    order.  (A zero edge value could tie a zero of the other sign among the
    samples.)  ``parent`` is None or the certified cells of a level that
    this one refines, cell k inside its cell k // (cells // parent.size).
    A cell inside a certified parent cell inherits: it lies inside that
    cell's enclosures, so only its edge values are checked.  The edges are
    evaluated in one call and the fresh (not inherited) cells enclosed
    _MONOTONE_CELLS a call.  Where r = cells // parent.size is at least 8
    and there are more fresh cells F than that, they are first enclosed in
    groups of g consecutive cells, g the least power of two with F / g <=
    _MONOTONE_CELLS but at most r / 4 (so at least 2), each group aligned to
    g and so inside one parent cell; a cell of a certified group inherits,
    and only the cells of the other groups are enclosed one by one.  The
    pass samples nothing: the caller samples the rest.
    """
    edges = _row_points(a, b, step, cells * w, c0 * w, c1 * w, w)
    ys = ev(edges)
    nonzero = np.abs(ys) > 0  # False where NaN
    certified = nonzero[:-1] & nonzero[1:]
    if parent is None:
        fresh = np.arange(c1 - c0)
    else:
        r = cells // parent.size
        inherited = parent[c0 // r : (c1 - 1) // r + 1].repeat(r)[c0 % r : c0 % r + c1 - c0]
        fresh = np.flatnonzero(~inherited)
        if r >= 8 and fresh.size > _MONOTONE_CELLS:
            g = min(r // 4, 1 << ((fresh.size - 1) // _MONOTONE_CELLS).bit_length())
            # the groups whose g cells are all in the chunk, each inside one fresh parent cell
            first = fresh[((fresh + c0) % g == 0) & (fresh + g <= c1 - c0)]
            first = first[_one_sign(tape, edges[first], edges[first + g])]
            inherited[(first[:, None] + np.arange(g)).ravel()] = True
            fresh = np.flatnonzero(~inherited)
    certified[fresh] &= _one_sign(tape, edges[fresh], edges[fresh + 1])
    np.minimum(ys[:-1], ys[1:], out=lo)
    np.maximum(ys[:-1], ys[1:], out=hi)
    return certified


def _uniform_sums(
    ev: Evaluator,
    a: float,
    b: float,
    cells: int,
    cfg: SamplingConfig,
    tape: tuple | None = None,
    parent: np.ndarray | None = None,
) -> tuple[float, float, float, bool, np.ndarray | None]:
    """(lower, upper, magnitude, holes, certified) over ``cells`` equal cells of [a, b].

    Cell i samples the uniform grid slice [i*w, i*w + w] for w =
    samples_per_cell - 1, so each distinct point is evaluated once, except
    the edge sample two evaluation blocks share.  A block of at most
    _CHUNK_POINTS samples is evaluated in one call.  Blocks fill in the
    cell extrema of a chunk of _SUM_CHUNK_POINTS samples, which is summed
    in one call, so the blocks do not change a bit of the result.
    ``magnitude``, the sum of (|min| + |max|) * width over the cells,
    scales the rounding of the sums; ``holes`` tells whether an undefined
    sample was skipped strictly inside (a, b).  Adjacent undefined samples
    raise.

    With ``tape`` (``_monotone_tape``), a level is tested for monotone
    cells as a whole or not at all (see the module docstring): a level of
    more than _MONOTONE_CELLS cells whose ``parent`` does not pay
    (``_pays``) first probes as many cells, and when they do not pay it
    drops them and is sampled in full.  A tested chunk takes one
    ``_monotone_pass`` and one ``_sampled_cells`` call for the rest.
    ``certified`` marks the cells whose extrema came from their edges, a
    bool a cell, and is None when no cell is, as always without a tape:
    the array is allocated at the first certified cell.  ``parent``
    (``_monotone_pass``), the certified cells of a level whose cell count
    divides ``cells``, gives the cells that inherit; None inherits nothing
    and pays for nothing, as an all-False array would.
    """
    w = cfg.samples_per_cell - 1
    dx = (b - a) / cells
    step = (b - a) / (cells * w)
    last = cells * w  # the index of sample b
    certified = None

    holes, testing = False, tape is not None
    lowers, uppers, magnitude = [], [], 0.0  # each summation chunk's sums
    cells_per_chunk = max(1, _SUM_CHUNK_POINTS // w)
    # a level of more than _MONOTONE_CELLS cells without a parent that paid
    # is judged by a probe of its first cells
    paid = parent is not None and _pays(parent, w)
    probe = 0 if cells <= _MONOTONE_CELLS or paid else min(_MONOTONE_CELLS, cells_per_chunk)
    level = (ev, tape, a, b, step, w, cells)  # the arguments every pass shares
    # room for one chunk's (lo, hi), so no two chunks' are alive at once
    room = np.empty(2 * min(cells, cells_per_chunk))
    for c0 in range(0, cells, cells_per_chunk):
        c1 = min(cells, c0 + cells_per_chunk)
        pair = room[: 2 * (c1 - c0)].reshape(2, c1 - c0)
        lo, hi = pair[0], pair[1]
        todo = range(c1 - c0)
        if testing:
            k = probe or c1 - c0
            sure = _monotone_pass(*level, c0, c0 + k, lo[:k], hi[:k], parent)
            if probe:  # a probe that does not pay leaves the level untested
                probe, testing = 0, _pays(sure, w)
                if testing and k < c1 - c0:
                    rest = _monotone_pass(*level, c0 + k, c1, lo[k:], hi[k:], parent)
                    sure = np.append(sure, rest)
        if testing:
            if sure.any():
                if certified is None:
                    certified = np.zeros(cells, dtype=bool)
                certified[c0:c1] = sure
            todo = np.flatnonzero(~sure)
        holes = _sampled_cells(ev, a, b, step, w, last, c0, todo, lo, hi) or holes
        if c1 - c0 <= _FSUM_BLOCK:  # one |pair| pass bounds the extraction too
            size = np.abs(pair)
            lower, upper = compensated_sum(pair, _abs=size)
        else:
            lower, upper = compensated_sum(pair)
            size = np.abs(pair, out=pair)
        lowers.append(lower)
        uppers.append(upper)
        with np.errstate(over="ignore"):
            size_lo, size_hi = size.sum(axis=1).tolist()
        magnitude += size_lo + size_hi
    return _fsum(lowers) * dx, _fsum(uppers) * dx, magnitude * dx, holes, certified


def _sweep(
    ev: Evaluator, pieces: Sequence[tuple[float, float]], cells: int, cfg: SamplingConfig
) -> list:
    """One untested level over a list of pieces: each piece's ``_uniform_sums``
    over ``cells`` equal cells of it, or the UndefinedSamplesError it raised.

    The pieces' cells * w + 1 points each must fit one evaluator block
    together (_CHUNK_POINTS), so each piece's level is one evaluator block
    and one summation chunk, as ``_uniform_sums`` samples it alone.  The
    points are evaluated in one call, each piece is reduced by
    ``_cell_extrema``, and the 2n rows of extrema are summed in one
    ``compensated_sum`` call.  Evaluation is elementwise and ``fsum_rows``
    rounds row by row, so each piece gets the bits of ``_uniform_sums``.
    """
    w = cfg.samples_per_cell - 1
    last = cells * w  # the index of sample b
    a, b = np.array(pieces, dtype=float).T
    # each piece's _row_points(a, b, step, last, 0, last), as a row
    xs = np.arange(last + 1.0) * ((b - a) / last)[:, None]
    xs += a[:, None]
    xs[:, -1] = b
    pairs = np.empty((len(pieces), 2, cells))
    swept: list = []  # each piece's error, or whether it skipped a hole
    for ys, pair in zip(ev(xs.ravel()).reshape(len(pieces), -1), pairs):
        try:
            undefined = _cell_extrema(ys, w, *pair)[2]
        except UndefinedSamplesError as exc:
            swept.append(exc)
            pair[...] = 0.0
            continue
        # a hole unless it is sample a or b
        swept.append(undefined is not None and bool(((undefined != 0) & (undefined != last)).any()))
    rows = pairs.reshape(-1, cells)
    size = np.abs(rows)
    sums = compensated_sum(rows, _abs=size)
    with np.errstate(over="ignore"):
        sizes = size.sum(axis=1).tolist()
    for r, (lo, hi) in enumerate(pieces):
        if not isinstance(swept[r], UndefinedSamplesError):
            dx = (hi - lo) / cells
            lower, upper = _fsum([sums[2 * r]]) * dx, _fsum([sums[2 * r + 1]]) * dx
            swept[r] = (lower, upper, (sizes[2 * r] + sizes[2 * r + 1]) * dx, swept[r], None)
    return swept


def integrate(
    f: Integrand,
    iv: Interval,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    *,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
    _opened=None,
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

    From 16 samples a cell, each level after the first encloses only the
    cells inside the last accepted level's uncertified cells (see the
    module docstring); the rest inherit their parent's certification.

    ``_opened`` (internal) is the first level when the caller has swept it
    already: ``_sweep``'s entry for ``iv`` at min(start_cells, max_cells)
    cells with this ``cfg``, untested, so only where ``f`` takes no
    monotone test.  The result is that of sweeping it here.
    """
    if not tol > 0:  # NaN as well
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")
    if iv.is_degenerate:
        raise ValueError("cannot integrate over a degenerate interval")
    ev = as_evaluator(f)
    tape = _monotone_tape(f, cfg)
    cells = min(start_cells, max_cells)
    levels = swept = last = 0  # ``last``: cells of the previous level
    kept = None  # the certified cells of the last level accepted
    jumps = True
    while True:
        jumped = 0 < 2 * last < cells
        levels, swept = levels + 1, swept + cells
        parent = kept if kept is not None and cells % kept.size == 0 else None
        try:
            if _opened is None:
                level = _uniform_sums(ev, iv.a, iv.b, cells, cfg, tape, parent)
            elif isinstance(_opened, UndefinedSamplesError):
                raise _opened
            else:
                level, _opened = _opened, None
            lower, upper, magnitude, holes, sure = level
            undo = jumped and (holes or not math.isfinite(upper - lower))
        except UndefinedSamplesError:
            if not jumped:
                raise
            undo = True
        if undo:  # a skipped level may have failed first or broken the bound
            cells, jumps = 2 * last, False
            continue
        kept = sure
        certified = 0 if sure is None else int(np.count_nonzero(sure))
        est = DarbouxEstimate(lower, upper, iv.width / cells, cells, levels, swept, certified)
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
    *,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
) -> DarbouxEstimate:
    """Oriented integral: reversing the endpoints negates the estimate.

    ``a == b`` yields the zero estimate (norm 0, cells 0).
    """
    if a == b:
        return DarbouxEstimate(0.0, 0.0, norm=0.0, cells=0)
    cells = {"max_cells": max_cells, "start_cells": start_cells}
    if a < b:
        return integrate(f, Interval(a, b), tol, cfg, **cells)
    return -integrate(f, Interval(b, a), tol, cfg, **cells)
