"""Per-layer spans around quadratura's public functions, installed from outside.

A ``Tracer`` replaces module attributes such as ``darboux.evaluate_array``
with timing wrappers, at the places where the package looks the names up,
and restores them on exit.  Nothing under ``src/`` knows about it.

Each wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it encloses, and the tracer's own bookkeeping is
subtracted from every enclosing span, so the self times of all spans add
up to the time spent inside the outermost ones.  Counts are taken from
arguments, returned values and raised estimates, and roll up into every
enclosing span (``cli.improper.cells_swept`` is the cells swept by the
``darboux.integrate`` spans inside ``cli.improper``).
"""

from __future__ import annotations

import inspect
from time import perf_counter

import numpy as np

from quadratura import approximant, changevar, cli, darboux, expr, partition


def _count_evaluate(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"points": result.size, "undefined_points": int(np.count_nonzero(np.isnan(result)))}


_INTEGRATE_SIG = inspect.signature(darboux.integrate)


def _count_integrate(args, kwargs, result, exc):
    """Refinement levels and cells swept, replayed from the doubling rule.

    The final cell count comes from the returned estimate, or from the one
    a NonConvergenceError carries.  A pass that raised anything else has
    no final count, so it adds only to ``errors``.
    """
    if exc is None:
        final, nonconverged = result.cells, 0
    elif isinstance(exc, darboux.NonConvergenceError):
        final, nonconverged = exc.estimate.cells, 1
    else:
        return {"errors": 1}
    bound = _INTEGRATE_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    cells = min(bound.arguments["start_cells"], bound.arguments["max_cells"])
    levels, swept = 1, cells
    while cells < final:
        cells = min(cells * 2, bound.arguments["max_cells"])
        levels += 1
        swept += cells
    return {
        "levels": levels,
        "cells_swept": swept,
        "final_cells": final,
        "nonconverged": nonconverged,
    }


def _count_build(args, kwargs, result, exc):
    n = args[2] if len(args) > 2 else kwargs["n"]
    return {"blocks": 1 << n if n >= 3 else 0}


def _count_verify(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"inconclusive": int(result.verdict == changevar.INCONCLUSIVE)}


def _count_improper(args, kwargs, result, exc):
    if exc is not None:
        return {}
    return {"steps": len(result.rhs.steps) + len(result.lhs.steps)}


# (module, attribute, span name, counter).  One span name may wrap several
# lookup sites of the same function.
PATCHES = (
    (expr, "parse", "expr.parse", None),
    (expr, "differentiate", "expr.differentiate", None),
    (changevar, "differentiate", "expr.differentiate", None),
    (expr, "evaluate_array", "expr.evaluate", _count_evaluate),
    (darboux, "evaluate_array", "expr.evaluate", _count_evaluate),
    (partition, "uniform_partition", "partition", None),
    (darboux, "uniform_partition", "partition", None),
    (partition, "block_grid", "partition", None),
    (approximant, "block_grid", "partition", None),
    (darboux, "integrate", "darboux.integrate", _count_integrate),
    (darboux, "compensated_sum", "darboux.reduce", None),
    (darboux, "infimum_on", "darboux.cell_extremum", None),
    (darboux, "supremum_on", "darboux.cell_extremum", None),
    (darboux, "lower_sum", "darboux.partition_sum", None),
    (darboux, "upper_sum", "darboux.partition_sum", None),
    (approximant, "build_approximant", "approximant.build", _count_build),
    (approximant, "eval_pl", "approximant.eval_pl", None),
    (approximant, "integrate_pl", "approximant.integrate_pl", None),
    (changevar, "verify", "changevar.verify", _count_verify),
    (changevar, "lhs_integral", "changevar.verify.lhs", None),
    (changevar, "rhs_integral", "changevar.verify.rhs", None),
    (changevar, "check_hypotheses", "changevar.hypotheses", None),
    (cli, "improper_verify", "cli.improper", _count_improper),
)

# The span that wraps one whole operation of the benchmark loop; its self
# time is the harness's own work between calls into the package.
OP_SPAN = "bench.op"


class _Frame:
    __slots__ = ("child", "hidden", "counts")

    def __init__(self):
        self.child = 0.0  # summed durations of enclosed spans
        self.hidden = 0.0  # tracer bookkeeping inside this span
        self.counts: dict[str, int] = {}


class Tracer:
    """Collects spans while installed; ``totals`` maps span name to sums.

    Each entry of ``totals`` holds ``calls``, ``self_s``, ``total_s`` and
    the rolled-up counts.  ``bookkeeping_s`` is the tracer's own time inside
    outermost spans, which no span is charged for.
    """

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {}
        self.bookkeeping_s = 0.0
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, span, count in PATCHES:
                original = getattr(module, attr)  # a moved name fails loudly here
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span, count))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def wrap(self, fn, span: str, count=None):
        stack = self._stack

        def traced(*args, **kwargs):
            t_in = perf_counter()
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, frame, t_in, t0, count, args, kwargs, None, exc)
                raise
            self._close(span, frame, t_in, t0, count, args, kwargs, result, None)
            return result

        return traced

    def _close(self, span, frame, t_in, t0, count, args, kwargs, result, exc):
        t1 = perf_counter()
        self._stack.pop()
        duration = t1 - t0 - frame.hidden
        if count is not None:
            for key, value in count(args, kwargs, result, exc).items():
                frame.counts[key] = frame.counts.get(key, 0) + value
        entry = self.totals.get(span)
        if entry is None:
            entry = self.totals[span] = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        entry["calls"] += 1
        entry["self_s"] += duration - frame.child
        entry["total_s"] += duration
        for key, value in frame.counts.items():
            entry[key] = entry.get(key, 0) + value
        if self._stack:
            parent = self._stack[-1]
            parent.child += duration
            for key, value in frame.counts.items():
                parent.counts[key] = parent.counts.get(key, 0) + value
            parent.hidden += frame.hidden + (t0 - t_in) + (perf_counter() - t1)
        else:
            self.bookkeeping_s += frame.hidden
