"""The improper runner integrates each strip of a truncation step alone.

``improper._run_side`` gives every strip one plain ``darboux.integrate``
call, so a strip refines like any other integral: its levels after the
first inherit their parent cells' monotone certification.  Below 16
samples, an expression's strips of the coming steps open together, in one
``darboux._sweep``, and each strip refines alone from its opened level.
The step tables and errors are those of ``sequential_side``, a copy of
the strip loop that opens every strip alone, bit for bit, and those of
testing every level afresh.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadratura import changevar, darboux, improper
from quadratura.changevar import SubstitutionProblem
from quadratura.darboux import CELL_CAP, NonConvergenceError, SamplingConfig
from quadratura.expr import Expr, parse
from quadratura.improper import ImproperSchedule, improper_verify
from quadratura.interval import enclose
from quadratura.partition import Interval
from test_monotone import sums_afresh

EDGES = SamplingConfig(samples_per_cell=2)


def hexed(value):
    """``value`` with every float as its hex string, so equality is bitwise."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def sequential_side(ev, schedule, inner_tol, cfg, max_cells):
    """The strip loop of ``_run_side``, one plain ``darboux.integrate`` per strip.

    Gives (step table, error).
    """
    steps, values, error = [], [], ""
    lower = upper = 0.0
    cells = 0
    prev = None
    for k in range(schedule.max_steps):
        u, v = schedule.truncation(k)
        if not u < v:
            error = f"schedule degenerate at step {k}"
            break
        if prev is None:
            strips = [(u, v)]
            budget = inner_tol / 2.0 if schedule.any_open else inner_tol
        else:
            strips = [(a, b) for a, b in ((u, prev[0]), (prev[1], v)) if a < b]
            budget = (inner_tol - (upper - lower)) / 2.0
        try:
            for i, (a, b) in enumerate(strips):
                tol = budget / (len(strips) - i)
                est = darboux.integrate(ev, Interval(a, b), tol, cfg, max_cells=max_cells)
                lower += est.lower
                upper += est.upper
                cells += est.cells
                budget -= est.upper - est.lower
        except (NonConvergenceError, ValueError) as exc:
            error = f"step {k} on [{u:.6g}, {v:.6g}]: {exc}"
            break
        if not math.isfinite(upper - lower):
            error = f"step {k} on [{u:.6g}, {v:.6g}]: running bracket is not finite"
            break
        prev = (u, v)
        mid = 0.5 * (lower + upper)
        if not math.isfinite(mid):
            mid = 0.5 * lower + 0.5 * upper
        values.append(mid)
        steps.append({"step": k, "lo": u, "hi": v, "value": mid,
                      "bracket_width": upper - lower, "cells": cells})
        if not schedule.any_open:
            break
        if len(values) >= 4 and (np.abs(np.diff(values[-4:])) < schedule.tol).all():
            break
    return hexed(steps), error


def side_outcome(ev, schedule, inner_tol, cfg, max_cells):
    side = improper._run_side(ev, schedule, inner_tol, cfg, max_cells)
    return hexed(side.steps), side.error


def sample_at(a, b, cells, w, i):
    """The grid point the first level of strip [a, b] samples as index i."""
    return b if i == cells * w else float(i) * ((b - a) / (cells * w)) + a


def holed(base, bad):
    """``base`` with NaN at the points ``bad``."""
    bad = np.asarray(bad, dtype=float)
    return lambda xs: np.where(np.isin(xs, bad), np.nan, base(xs))


# (f, phi, t schedule) for the rhs, which truncates t; the lhs truncates x
MAPS = {
    "1/(1+t)": ("x", "1/(1+t)", dict(lo=0.0, hi=math.inf, lo_open=True, hi_open=True)),
    "t/(1+t)": ("x^2", "t/(1+t)", dict(lo=0.0, hi=math.inf, lo_open=True, hi_open=True)),
    "exp(-t)": ("x^3", "exp(-t)", dict(lo=0.0, hi=math.inf, lo_open=True, hi_open=True)),
    "tan(t)": ("1/(x^2+1)", "tan(t)", dict(lo=-math.pi / 2, hi=math.pi / 2, lo_open=True,
                                          hi_open=True, offset=math.pi / 4)),
}
SAMPLES = (2, 3, 8, 64)
MAX_CELLS = (256, 4096, 2**16)


class TestStripsIntegrateAlone:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(MAPS)), samples=st.sampled_from(SAMPLES),
           max_cells=st.sampled_from(MAX_CELLS), inner=st.sampled_from([1e-3, 1e-5, 1e-7]),
           steps=st.integers(2, 12))
    @example(name="1/(1+t)", samples=8, max_cells=CELL_CAP, inner=1e-5, steps=20)
    @example(name="tan(t)", samples=2, max_cells=CELL_CAP, inner=2.5e-10, steps=12)
    def test_reports_match_one_integrate_per_strip(self, name, samples, max_cells, inner, steps):
        f, phi, sched = MAPS[name]
        schedule = ImproperSchedule(**sched, max_steps=steps, tol=1e-4)
        cfg = SamplingConfig(samples_per_cell=samples)
        p = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0))
        ev = darboux.as_evaluator(p.product)
        with np.errstate(all="ignore"):
            assert side_outcome(ev, schedule, inner, cfg, max_cells) == sequential_side(
                ev, schedule, inner, cfg, max_cells)

    @settings(max_examples=60, deadline=None)
    @given(samples=st.sampled_from(SAMPLES), max_cells=st.sampled_from(MAX_CELLS),
           step=st.integers(1, 4), strip=st.sampled_from([0, 1]),
           at=st.floats(0.0, 1.0), kind=st.sampled_from(["isolated", "adjacent"]))
    # an isolated and an adjacent pair of undefined samples inside the later strip
    @example(samples=2, max_cells=CELL_CAP, step=2, strip=1, at=0.5, kind="isolated")
    @example(samples=2, max_cells=CELL_CAP, step=2, strip=1, at=0.5, kind="adjacent")
    @example(samples=64, max_cells=256, step=1, strip=1, at=0.25, kind="adjacent")
    def test_undefined_samples_in_a_strip(self, samples, max_cells, step, strip, at, kind):
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, max_steps=6, tol=1e-4)
        u, v = schedule.truncation(step)
        pu, pv = schedule.truncation(step - 1)
        a, b = ((u, pu), (pv, v))[strip]
        cells, w = min(darboux.START_CELLS, max_cells), samples - 1
        i = round(at * cells * w)
        span = (i,) if kind == "isolated" else (i, i + 1) if i < cells * w else (i - 1, i)
        ev = holed(lambda xs: 1.0 / (1.0 + xs) ** 2,
                   [sample_at(a, b, cells, w, j) for j in span])
        cfg = SamplingConfig(samples_per_cell=samples)
        got = side_outcome(ev, schedule, 1e-6, cfg, max_cells)
        assert got == sequential_side(ev, schedule, 1e-6, cfg, max_cells)

    def test_earlier_failing_strip_is_reported(self):
        # At step 1, strip [0.125, 0.25] of 1/x cannot close in 256 cells and
        # the first level of strip [1, 2] has adjacent undefined samples.
        def f(xs):
            ys = np.where(xs < 0.2, 1.0 / xs, 0.0)
            return np.where((xs > 1.5) & (xs < 1.6), np.nan, ys)

        ev = darboux.as_evaluator(f)
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, max_steps=4, tol=1e-4)
        got = side_outcome(ev, schedule, 1e-5, EDGES, 256)
        assert got == sequential_side(ev, schedule, 1e-5, EDGES, 256)
        assert got[1].startswith("step 1 on [0.125, 2]: bracket width")

    def test_strip_that_is_no_interval_keeps_strip_order(self):
        # cutoffs 5e307 * 2^k reach inf at step 2, so its strip toward inf is
        # no interval; its strip toward 0 has adjacent undefined samples
        def f(xs):
            return np.where((xs > 0.07) & (xs < 0.08), np.nan, 0.0 * xs)

        ev = darboux.as_evaluator(f)
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, cutoff_base=5e307,
                                    max_steps=4, tol=1e-4)
        got = side_outcome(ev, schedule, 1e-5, EDGES, CELL_CAP)
        assert got == sequential_side(ev, schedule, 1e-5, EDGES, CELL_CAP)
        assert got[1].startswith("step 2 on [0.0625, inf]: adjacent undefined samples")

    def test_runner_evaluates_what_each_strip_does_alone(self):
        sizes, estimates = [], []

        def f(xs):
            sizes.append(xs.size)
            return 1.0 / (1.0 + xs) ** 2

        ev = darboux.as_evaluator(f)
        integrate = darboux.integrate

        def recording(ev_, iv, tol, *args, **kwargs):
            estimates.append((iv, tol, integrate(ev_, iv, tol, *args, **kwargs)))
            return estimates[-1][2]

        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, max_steps=2, tol=1e-4)
        with mock.patch.object(darboux, "integrate", recording):
            side = improper._run_side(ev, schedule, 1e-6, EDGES, CELL_CAP)
        assert len(side.steps) == 2 and len(estimates) == 3
        runner_sizes = list(sizes)
        sizes.clear()
        for iv, tol, est in estimates:
            lone = darboux.integrate(ev, iv, tol, EDGES)
            assert (est.lower.hex(), est.upper.hex(), est.cells, est.levels, est.swept) == (
                lone.lower.hex(), lone.upper.hex(), lone.cells, lone.levels, lone.swept)
        # step 1's two strips each open with their own first-level evaluation
        assert runner_sizes == sizes


def gap(a, b, cells, w, i, j):
    """1/(1+x)^2 plus ``0*sqrt((x-c)^2 - d^2)``: undefined on the first
    level of strip [a, b] exactly at its samples i..j.  For i < j the gap
    ends halfway to the samples around them; for one sample it is 2^-40 of
    it wide, so the finer levels find no other sample inside either.
    """
    if i == j:
        c = sample_at(a, b, cells, w, i)
        lo, hi = c - abs(c) * 2.0**-40, c + abs(c) * 2.0**-40
    else:
        lo = 0.5 * (sample_at(a, b, cells, w, i - 1) + sample_at(a, b, cells, w, i))
        hi = 0.5 * (sample_at(a, b, cells, w, j) + sample_at(a, b, cells, w, j + 1))
    return parse(f"0*sqrt((x-{0.5 * (lo + hi)!r})^2-{0.5 * (hi - lo)!r}^2)+1/(1+x)^2")


def swept(entry):
    """A ``_sweep`` entry with its floats in hex, or its error's type and text."""
    if isinstance(entry, Exception):
        return type(entry), str(entry)
    lower, upper, magnitude, holes, certified = entry
    return lower.hex(), upper.hex(), magnitude.hex(), holes, certified


class TestSweepAhead:
    # (0, inf) at 2 samples opens step 0's strip and the two strips of each
    # of steps 1-3 in one sweep of 7 * 1,025 points
    HALF_LINE = dict(lo=0.0, hi=math.inf, lo_open=True, hi_open=True)

    @pytest.mark.parametrize("samples", [2, 3, 4])
    @pytest.mark.parametrize("max_cells", [1, 256, CELL_CAP])
    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_reports_match_opening_each_strip_alone(self, name, samples, max_cells):
        f, phi, sched = MAPS[name]
        schedule = ImproperSchedule(**sched, max_steps=8, tol=1e-4)
        cfg = SamplingConfig(samples_per_cell=samples)
        p = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0))
        fused = p.product
        assert isinstance(fused, Expr)
        for side, tol in ((fused, 1e-4), (parse("1/(x^2+1)"), 1e-3)):  # a t side, an x side
            with np.errstate(all="ignore"):
                got = side_outcome(side, schedule, tol, cfg, max_cells)
                assert got == sequential_side(side, schedule, tol, cfg, max_cells)

    @pytest.mark.parametrize("samples", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["isolated", "adjacent"])
    def test_undefined_samples_in_a_strip_inside_a_sweep(self, samples, kind):
        # step 1's lower strip [0.125, 0.25]: second of the sweep that step 0
        # opens, at 2, 3 and 4 samples alike
        schedule = ImproperSchedule(**self.HALF_LINE, max_steps=8, tol=1e-4)
        cells, w = darboux.START_CELLS, samples - 1
        i = cells * w // 3
        f = gap(0.125, 0.25, cells, w, i, i + (kind == "adjacent"))
        assert np.isnan(darboux.as_evaluator(f)(np.array([sample_at(0.125, 0.25, cells, w, i)])))
        cfg = SamplingConfig(samples_per_cell=samples)
        strips = []
        sweep = darboux._sweep

        def recording(ev, pieces, *args, **kwargs):
            strips.append(list(pieces))
            return sweep(ev, pieces, *args, **kwargs)

        with mock.patch.object(darboux, "_sweep", recording):
            got = side_outcome(f, schedule, 1e-5, cfg, CELL_CAP)
        assert got == sequential_side(f, schedule, 1e-5, cfg, CELL_CAP)
        assert strips[0][:2] == [(0.25, 1.0), (0.125, 0.25)]
        if kind == "adjacent":
            assert got[1].startswith("step 1 on [0.125, 2]: adjacent undefined samples")
        else:
            assert not got[1] and len(got[0]) > 2

    def test_later_strips_that_are_no_interval(self):
        # cutoffs 1e308 * 2^k reach inf at step 1: the sweep stops before the
        # strip [1e308, inf], which then fails in its own turn; a zero
        # integrand closes the strip [0.25, 1e308] at once
        schedule = ImproperSchedule(lo=0.0, hi=math.inf, lo_open=True, cutoff_base=1e308,
                                    max_steps=4, tol=1e-4)
        f = parse("0*x")
        strips = []
        sweep = darboux._sweep

        def recording(ev, pieces, *args, **kwargs):
            strips.append(list(pieces))
            return sweep(ev, pieces, *args, **kwargs)

        with mock.patch.object(darboux, "_sweep", recording):
            got = side_outcome(f, schedule, 1e-5, EDGES, CELL_CAP)
        assert got == sequential_side(f, schedule, 1e-5, EDGES, CELL_CAP)
        assert strips[0] == [(0.25, 1e308), (0.125, 0.25)]
        assert got[1] == "step 1 on [0.125, inf]: interval endpoints must be finite, got [1e+308, inf]"

    def test_steps_whose_offset_stops_moving(self):
        # 1 + 2^-(k+1) is 1 from step 52 on: steps 53-59 add no strip, and the
        # sweeps pass over them to the end of the schedule
        schedule = ImproperSchedule(lo=1.0, hi=2.0, lo_open=True, offset=0.5, max_steps=60,
                                    tol=0.0)
        f = parse("x")
        got = side_outcome(f, schedule, 1e-5, EDGES, CELL_CAP)
        assert got == sequential_side(f, schedule, 1e-5, EDGES, CELL_CAP)
        assert len(got[0]) == 60 and not got[1]
        assert got[0][52]["cells"] == got[0][-1]["cells"]

    def test_strips_of_consecutive_steps_share_one_evaluator_call(self):
        schedule = ImproperSchedule(**self.HALF_LINE, max_steps=20, tol=1e-4)
        sizes, swept_strips, integrated = [], [], []
        evaluate_array, sweep, integrate = darboux.evaluate_array, darboux._sweep, darboux.integrate

        def counting(e, xs):
            sizes.append(np.asarray(xs).size)
            return evaluate_array(e, xs)

        def recording(ev, pieces, *args, **kwargs):
            swept_strips.extend(pieces)
            return sweep(ev, pieces, *args, **kwargs)

        def integrating(f, iv, *args, **kwargs):
            integrated.append((iv.a, iv.b))
            return integrate(f, iv, *args, **kwargs)

        with mock.patch.object(darboux, "evaluate_array", counting), \
                mock.patch.object(darboux, "_sweep", recording), \
                mock.patch.object(darboux, "integrate", integrating):
            side = improper._run_side(parse("1/(1+x)^2"), schedule, 1e-5, EDGES, CELL_CAP)
        assert side.steps and not side.error
        # steps 0-3, then 4-6 and the lower strip of step 7, in one call each
        assert sizes[0] == 7 * 1025 and sizes.count(7 * 1025) >= 2
        # every strip is opened once, in order, and fewer than 7 go unused
        assert swept_strips[: len(integrated)] == integrated
        assert len(integrated) <= len(swept_strips) < len(integrated) + 7

    @pytest.mark.parametrize("max_cells", [256, CELL_CAP])
    def test_levels_that_take_the_monotone_test_open_alone(self, max_cells):
        # at 16 samples two 256-cell levels would fit one evaluator block, but
        # a strip's first level is tested, so that the next inherits
        f, phi, sched = MAPS["t/(1+t)"]
        schedule = ImproperSchedule(**sched, max_steps=10, tol=1e-4)
        cfg = SamplingConfig(samples_per_cell=16)
        fused = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0)).product
        enclosed = []

        def counting(tape, lo, hi):
            enclosed.append(len(lo))
            return enclose(tape, lo, hi)

        with mock.patch.object(darboux, "enclose", counting), np.errstate(all="ignore"):
            got = side_outcome(fused, schedule, 1e-5, cfg, max_cells)
            runner = sum(enclosed)
            enclosed.clear()
            assert got == sequential_side(fused, schedule, 1e-5, cfg, max_cells)
        assert runner == sum(enclosed) > 0

    @pytest.mark.parametrize("samples", [2, 3, 4, 8])
    @pytest.mark.parametrize("cells", [1, 3, 256, 1024])
    def test_each_opened_level_is_that_of_opening_it_alone(self, samples, cells):
        # magnitude too: it decides which levels integrate skips
        cfg = SamplingConfig(samples_per_cell=samples)
        w = samples - 1
        pieces = [(0.25, 1.0), (0.125, 0.25), (1.0, 2.0), (-3.0, -1e-300), (1e-300, 1e300),
                  (2.0, 2.0 + 2.0**-40)]
        for f in (parse("1/(1+x)^2"), parse("x^3*exp(-x)"), parse("sin(1/x)*1e300"),
                  gap(1.0, 2.0, cells, w, cells * w // 2, cells * w // 2),  # a hole
                  gap(1.0, 2.0, cells, w, 1, 2)):  # adjacent undefined samples
            ev = darboux.as_evaluator(f)
            count = max(1, darboux._CHUNK_POINTS // (cells * w + 1))
            for k in range(0, len(pieces), count):
                part = pieces[k : k + count]
                got = [swept(level) for level in darboux._sweep(ev, part, cells, cfg)]
                want = []
                for a, b in part:
                    try:
                        want.append(swept(darboux._uniform_sums(ev, a, b, cells, cfg)))
                    except darboux.UndefinedSamplesError as exc:
                        want.append(swept(exc))
                assert got == want


class TestStripsInherit:
    @pytest.mark.parametrize("samples", [16, 64])
    def test_later_levels_inherit_with_the_bits_of_testing_afresh(self, samples):
        # x^2 over t/(1+t): each strip's levels after its first enclose only
        # the children of the cells the level before left uncertified
        f, phi, sched = MAPS["t/(1+t)"]
        schedule = ImproperSchedule(**sched, max_steps=20, tol=1e-4)
        cfg = SamplingConfig(samples_per_cell=samples)
        p = SubstitutionProblem(parse(f), parse(phi), *schedule.truncation(0))
        fused = p.product
        enclosed = []

        def counting(tape, lo, hi):
            enclosed.append(len(lo))
            return enclose(tape, lo, hi)

        with mock.patch.object(darboux, "enclose", counting):
            got = side_outcome(fused, schedule, 1e-5, cfg, CELL_CAP)
            inherited = sum(enclosed)
            enclosed.clear()
            # each strip opens alone, its first level tested
            assert sequential_side(fused, schedule, 1e-5, cfg, CELL_CAP) == got
            assert sum(enclosed) == inherited
            enclosed.clear()
            with mock.patch.object(darboux, "_uniform_sums", sums_afresh):
                want = sequential_side(fused, schedule, 1e-5, cfg, CELL_CAP)
        assert got == want and not got[1]
        assert 0 < inherited < sum(enclosed)


class TestImageProbes:
    def test_one_phi_call_per_end(self):
        sizes = []
        ts = [0.25 * 2.0**-k for k in (0, 6, 12, 18, 24, 30, 36)]

        def phi(xs):
            sizes.append(xs.size)
            return 1.0 / (1.0 + xs)

        ev = darboux.as_evaluator(phi)
        got = improper._image_limit(ev, ts)
        assert sizes == [len(ts)]
        assert got.hex() == float(ev(np.array([ts[-1]]))[0]).hex()

    def test_closed_ends_checked_in_one_call(self):
        # a schedule with both t ends closed: f is probed at both x ends at once
        calls = []
        as_evaluator = changevar.as_evaluator

        def counting(f):
            ev = as_evaluator(f)

            def wrapped(xs):
                calls.append((f, np.asarray(xs).size))
                return ev(xs)

            return wrapped

        p = SubstitutionProblem(parse("1/x"), parse("t"), 0.5, 1.0)
        schedule = ImproperSchedule(lo=0.5, hi=1.0, max_steps=3)
        with mock.patch.object(changevar, "as_evaluator", counting):
            report = improper_verify(p, schedule, tol=1e-3, rhs_inner_tol=1e-5,
                                     lhs_inner_tol=1e-5, cfg=EDGES)
        assert report.verdict == "verified"
        assert [n for g, n in calls if g is p.phi] == [7, 7]
        assert [n for g, n in calls if g is p.f][0] == 2
