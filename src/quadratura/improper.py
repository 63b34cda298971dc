"""Improper integrals: verify the identity through truncation schedules.

Each side is truncated on its own schedule: finite open endpoints are
approached geometrically (offset * 2^-k) and infinite ones through
doubling cutoffs (base * 2^k).  A side counts as converged when three
consecutive truncation values differ by less than its tolerance; a
stable geometric tail is also extrapolated (Aitken) and the
extrapolated value is preferred when trustworthy.

Truncation is incremental.  Step 0 integrates [u_0, v_0]; step k >= 1
integrates only the strips it adds, [u_k, u_{k-1}] and [v_{k-1}, v_k]
(whichever are non-empty), and adds their lower/upper sums, in that
order, to running totals.  Step 0 gets a bracket budget of inner_tol/2
when the schedule has an open end; step k gets half of the slack that
the running bracket leaves under inner_tol, and strip i of its n gets
the step's unspent budget over n - i, so a strip that closes cheaply
passes what it leaves to the next.  The slack after step k is at least
inner_tol * 2^-(k+1): the running bracket stays within inner_tol, and no
strip gets a smaller budget (or sweeps more cells) than a fixed halving
schedule, inner_tol * 2^-(k+1) split evenly, would give it.  A step
reports the midpoint and width of the running bracket, and ``cells``
counts all cells covering [u_k, v_k].  Each strip gets its own uniform
grid, so a strip near a steep end does not force fine cells onto the
rest of the truncation.

An expression's strips open together where their first levels take no
monotone test (below 16 samples a cell): a strip's first level does not
depend on its budget, so as many strips of the coming steps as fit in one
evaluator block (7 of 1,025 points at 2 samples and 1,024 cells) are
swept at once (``darboux._sweep``), and each strip then refines alone
from its opened level, with its own budget.  The results and errors are
those of opening each strip alone; a strip that is no interval, and the
ones after it, are not swept ahead and fail in their own turn.
Callables, whose evaluation might raise, and strips whose first level is
tested, so that the next inherits its certification, open alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import changevar, darboux
from .changevar import INCONCLUSIVE, MISMATCH, VERIFIED, SubstitutionProblem
from .darboux import CELL_CAP, NonConvergenceError, SamplingConfig
from .expr import Expr
from .partition import Interval

__all__ = [
    "MAX_STEPS",
    "ImproperSchedule",
    "ImproperSide",
    "ImproperReport",
    "improper_verify",
]


# Step k cuts an infinite end off at cutoff_base * 2.0**k, which raises
# OverflowError from k = 1,024.
MAX_STEPS = 1024


def _check_steps(**steps: int | None) -> None:
    """Raise ValueError unless each step count given (not None) is in [1, MAX_STEPS]."""
    for name, value in steps.items():
        if value is not None and not 1 <= value <= MAX_STEPS:
            raise ValueError(f"{name} must be in [1, {MAX_STEPS}], got {value}")


def _check_lengths(**lengths: float | None) -> None:
    """Raise ValueError unless each length given (not None) is finite and > 0."""
    for name, value in lengths.items():
        if value is not None and not 0 < value < math.inf:  # NaN as well
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True, slots=True)
class ImproperSchedule:
    """Truncation schedule for one pair of endpoints.

    Open finite endpoints are approached as ``endpoint -+ offset * 2^-k``;
    infinite ones are cut off at ``-+ cutoff_base * 2^k``.  Closed
    endpoints stay fixed.  The sequences are strictly monotone toward
    the limits.  ``offset=None`` is a quarter of ``hi - lo`` where that is
    finite, else 0.25.  ``cutoff_base=None`` is 1.0, doubled until step 0's
    truncation is not degenerate, so it lies past a finite other end.
    ``max_steps`` is at most ``MAX_STEPS``.
    """

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False
    offset: float | None = None
    cutoff_base: float | None = None
    max_steps: int = 40
    tol: float = 1e-6

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) and not self.lo_open:
            object.__setattr__(self, "lo_open", True)
        if math.isinf(self.hi) and not self.hi_open:
            object.__setattr__(self, "hi_open", True)
        if self.offset is None:
            span = self.hi - self.lo
            object.__setattr__(self, "offset", span / 4.0 if math.isfinite(span) else 0.25)
        _check_lengths(offset=self.offset)
        if self.cutoff_base is None:
            object.__setattr__(self, "cutoff_base", 1.0)
            while math.isinf(self.lo) != math.isinf(self.hi):  # else 1.0 is never degenerate
                u, v = self.truncation(0)
                if u < v:
                    break
                object.__setattr__(self, "cutoff_base", 2.0 * self.cutoff_base)
            if math.isinf(self.cutoff_base):
                raise ValueError(
                    f"no finite first cutoff lies past the finite end of [{self.lo}, {self.hi}]"
                )
        _check_lengths(cutoff_base=self.cutoff_base)
        _check_steps(max_steps=self.max_steps)

    @property
    def any_open(self) -> bool:
        return self.lo_open or self.hi_open

    def truncation(self, k: int) -> tuple[float, float]:
        if self.lo_open:
            u = -self.cutoff_base * 2.0**k if math.isinf(self.lo) else self.lo + self.offset * 2.0**-k
        else:
            u = self.lo
        if self.hi_open:
            v = self.cutoff_base * 2.0**k if math.isinf(self.hi) else self.hi - self.offset * 2.0**-k
        else:
            v = self.hi
        return u, v


@dataclass(slots=True)
class ImproperSide:
    """Per-truncation trail for one side of the identity."""

    steps: list[dict] = field(default_factory=list)
    value: float = math.nan
    last: float = math.nan
    extrapolated: float | None = None
    converged: bool = False
    stable_trend: bool = False
    error: str = ""

    @property
    def usable(self) -> bool:
        return bool(self.steps) and (self.converged or self.stable_trend)

    def to_json(self) -> dict:
        return {
            "steps": self.steps,
            "value": self.value,
            "last": self.last,
            "extrapolated": self.extrapolated,
            "converged": self.converged,
            "stable_trend": self.stable_trend,
            "error": self.error,
        }


def _aitken(values: list[float]) -> tuple[float | None, bool]:
    """(extrapolated limit, trend is stably geometric) from the last values."""
    if len(values) < 4:
        return None, False
    d = np.diff(np.asarray(values[-4:]))
    if (d == 0).any():
        return None, False
    r1, r2 = d[1] / d[0], d[2] / d[1]
    if not (0.05 <= r2 <= 0.95 and 0.05 <= r1 <= 0.95 and abs(r2 - r1) <= 0.25):
        return None, False
    limit = values[-1] + d[2] * r2 / (1.0 - r2)
    return float(limit), True


def _strips(schedule: ImproperSchedule, k: int) -> list[tuple[float, float]] | None:
    """The strips step k integrates, or None where its truncation is degenerate."""
    u, v = schedule.truncation(k)
    if not u < v:
        return None
    if k == 0:
        return [(u, v)]
    pu, pv = schedule.truncation(k - 1)
    # No strips once offset * 2^-k no longer moves a finite endpoint.
    return [(a, b) for a, b in ((u, pu), (pv, v)) if a < b]


def _open_ahead(f, schedule: ImproperSchedule, k: int, i: int, cfg: SamplingConfig,
                cells: int, count: int) -> dict:
    """The opening levels of strip i of step k and of the strips after it,
    ``count`` strips at most, swept in one ``darboux._sweep``: a dict from
    each strip to its level.  The strips stop before a degenerate step and
    before a strip that is no interval, which then fails in its own turn.
    """
    strips: list[tuple[float, float]] = []
    for j in range(k, schedule.max_steps):
        step = _strips(schedule, j)
        if step is None:
            break
        strips += step[i:] if j == k else step
        if len(strips) >= count:
            break
    pieces = []
    for a, b in strips[:count]:
        if not math.isfinite(b - a):  # no Interval, for a < b
            break
        pieces.append((a, b))
    if not pieces:
        return {}
    return dict(zip(pieces, darboux._sweep(darboux.as_evaluator(f), pieces, cells, cfg)))


def _run_side(
    f,
    schedule: ImproperSchedule,
    inner_tol: float,
    cfg: SamplingConfig,
    max_cells: int,
    sign: float = 1.0,
) -> ImproperSide:
    side = ImproperSide()
    values: list[float] = []
    lower = upper = 0.0
    cells = 0
    # An expression that takes no monotone test opens the strips of the
    # coming steps together, as many as fit in one evaluator block.
    opening = min(darboux.START_CELLS, max_cells)
    ahead = darboux._CHUNK_POINTS // (opening * (cfg.samples_per_cell - 1) + 1)
    if not isinstance(f, Expr) or darboux._monotone_tape(f, cfg) is not None:
        ahead = 0
    opened: dict = {}
    for k in range(schedule.max_steps):
        u, v = schedule.truncation(k)
        strips = _strips(schedule, k)
        if strips is None:
            side.error = f"schedule degenerate at step {k}"
            break
        if k == 0:
            budget = inner_tol / 2.0 if schedule.any_open else inner_tol
        else:
            budget = (inner_tol - (upper - lower)) / 2.0
        try:
            for i, (a, b) in enumerate(strips):
                tol = budget / (len(strips) - i)
                if ahead > 1 and (a, b) not in opened:
                    opened = _open_ahead(f, schedule, k, i, cfg, opening, ahead)
                est = darboux.integrate(f, Interval(a, b), tol, cfg, max_cells=max_cells,
                                        _opened=opened.pop((a, b), None))
                lower += est.lower
                upper += est.upper
                cells += est.cells
                budget -= est.upper - est.lower
        except (NonConvergenceError, ValueError) as exc:
            side.error = f"step {k} on [{u:.6g}, {v:.6g}]: {exc}"
            break
        if not math.isfinite(upper - lower):
            side.error = f"step {k} on [{u:.6g}, {v:.6g}]: running bracket is not finite"
            break
        mid = 0.5 * (lower + upper)
        if not math.isfinite(mid):  # finite sums whose sum overflows
            mid = 0.5 * lower + 0.5 * upper
        value = sign * mid
        values.append(value)
        side.steps.append(
            {
                "step": k,
                "lo": u,
                "hi": v,
                "value": value,
                "bracket_width": upper - lower,
                "cells": cells,
            }
        )
        if not schedule.any_open:
            side.converged = True
            break
        if len(values) >= 4:
            d = np.abs(np.diff(values[-4:]))
            if (d < schedule.tol).all():
                side.converged = True
                break
    if values:
        side.last = values[-1]
        ext, stable = _aitken(values)
        side.extrapolated = ext
        side.stable_trend = stable
        side.value = ext if (stable and ext is not None) else side.last
    return side


@dataclass(slots=True)
class ImproperReport:
    rhs: ImproperSide
    lhs: ImproperSide
    image_lo: float
    image_hi: float
    orientation: float
    abs_diff: float
    tol: float
    verdict: str

    def to_json(self) -> dict:
        return {
            "rhs": self.rhs.to_json(),
            "lhs": self.lhs.to_json(),
            "image": {"lo": self.image_lo, "hi": self.image_hi, "orientation": self.orientation},
            "abs_diff": self.abs_diff,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def _image_limit(phi_ev, ts: list[float]) -> float:
    vals = [v for v in phi_ev(np.array(ts, dtype=float)).tolist() if not math.isnan(v)]
    if not vals:
        raise ValueError("phi undefined along the probe sequence")
    if len(vals) >= 2 and abs(vals[-1]) > 1e8 and abs(vals[-1]) > 2.0 * abs(vals[0]):
        return math.copysign(math.inf, vals[-1])
    return vals[-1]


def improper_verify(
    p: SubstitutionProblem,
    t_schedule: ImproperSchedule,
    tol: float,
    rhs_inner_tol: float,
    lhs_inner_tol: float,
    lhs_offset: float | None = None,
    lhs_cutoff_base: float | None = None,
    lhs_max_steps: int | None = None,
    lhs_tol: float | None = None,
    cfg: SamplingConfig = SamplingConfig(samples_per_cell=2),
    max_cells: int = CELL_CAP,
) -> ImproperReport:
    """Truncate both sides toward their improper endpoints and compare.

    The t side integrates (f o phi) phi' over the ``t_schedule``
    truncations.  The x side integrates f over its own schedule built on
    the probed limits of phi (finite limits approached geometrically,
    infinite ones through doubling cutoffs), oriented by the direction
    of phi.
    """
    if max_cells < 1:
        raise ValueError(f"max_cells must be >= 1, got {max_cells}")
    _check_lengths(lhs_offset=lhs_offset, lhs_cutoff_base=lhs_cutoff_base)
    _check_steps(lhs_max_steps=lhs_max_steps)
    rhs = _run_side(p.product, t_schedule, rhs_inner_tol, cfg, max_cells)

    phi_ev = changevar.as_evaluator(p.phi)
    probe_ks = (0, 6, 12, 18, 24, 30, 36)
    lo_probes = [t_schedule.truncation(k)[0] for k in probe_ks]
    hi_probes = [t_schedule.truncation(k)[1] for k in probe_ks]
    lhs = ImproperSide()
    image_a = image_b = math.nan
    orientation = 1.0
    try:
        image_a = _image_limit(phi_ev, lo_probes)
        image_b = _image_limit(phi_ev, hi_probes)
    except ValueError as exc:
        lhs.error = str(exc)

    if not lhs.error:
        if image_a == image_b:
            lhs.value = lhs.last = 0.0
            lhs.converged = True
            lhs.steps.append({"step": 0, "lo": image_a, "hi": image_b, "value": 0.0,
                              "bracket_width": 0.0, "cells": 0})
        else:
            orientation = 1.0 if image_a < image_b else -1.0
            x_lo, x_hi = min(image_a, image_b), max(image_a, image_b)
            f_ev = changevar.as_evaluator(p.f)
            # an x end is open where its t end is, where it is infinite, and
            # where f is undefined; f is evaluated at the other ends in one call
            ends = (x_lo, x_hi)
            t_open = (t_schedule.lo_open, t_schedule.hi_open)[:: 1 if orientation > 0 else -1]
            opened = [o or math.isinf(x) for x, o in zip(ends, t_open)]
            closed = [i for i in (0, 1) if not opened[i]]
            if closed:
                for i, y in zip(closed, f_ev(np.array([ends[i] for i in closed])).tolist()):
                    opened[i] = math.isnan(y)
            lo_open, hi_open = opened
            try:  # a default offset may round to 0 on a subnormal image
                x_schedule = ImproperSchedule(
                    lo=x_lo,
                    hi=x_hi,
                    lo_open=lo_open,
                    hi_open=hi_open,
                    offset=lhs_offset,
                    cutoff_base=lhs_cutoff_base,
                    max_steps=lhs_max_steps if lhs_max_steps is not None else t_schedule.max_steps,
                    tol=lhs_tol if lhs_tol is not None else t_schedule.tol,
                )
            except ValueError as exc:
                lhs.error = f"x schedule on [{x_lo:.6g}, {x_hi:.6g}]: {exc}"
            else:
                lhs = _run_side(p.f, x_schedule, lhs_inner_tol, cfg, max_cells, sign=orientation)

    if rhs.steps and lhs.steps:
        abs_diff = abs(rhs.value - lhs.value)
    else:
        abs_diff = math.nan
    if rhs.usable and lhs.usable and abs_diff <= tol:
        verdict = VERIFIED
    elif rhs.usable and lhs.usable and abs_diff > tol:
        verdict = MISMATCH
    else:
        verdict = INCONCLUSIVE
    return ImproperReport(
        rhs=rhs,
        lhs=lhs,
        image_lo=image_a,
        image_hi=image_b,
        orientation=orientation,
        abs_diff=abs_diff,
        tol=tol,
        verdict=verdict,
    )
