"""Monotone cells: interval enclosures of the tape, and the cells they certify.

``interval.enclose`` runs a compiled tape on intervals.  ``integrate`` uses it
at 16 samples a cell or more: a cell where f' keeps one sign takes its two
edge values as its extrema.  On every formula here that gives the bits of
sampling each cell in full, which is what the same expression wrapped as a
plain callable gets.
"""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadratura import cli
from quadratura import darboux as D
from quadratura import expr as E
from quadratura import interval as I
from quadratura.changevar import SubstitutionProblem, verify
from quadratura.darboux import (
    DarbouxEstimate,
    NonConvergenceError,
    SamplingConfig,
    UndefinedSamplesError,
    integrate,
)
from quadratura.expr import evaluate_array, parse
from quadratura.interval import enclose
from quadratura.gallery import GALLERY
from quadratura.partition import Interval
from test_darboux import PINNED
from test_pinned_bits import EVAL_PINNED, SPECIAL

CFG16 = SamplingConfig(samples_per_cell=16)
CFG64 = SamplingConfig(samples_per_cell=64)

# ---------------------------------------------------------------------------
# The interval rules

SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
    math.inf, -math.inf, math.pi / 2, -math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi,
    1e16, 710.0, -746.0,
]
values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False))
EXPONENTS = [0.0, -0.0, 1.0, 2.0, 3.0, 7.0, 64.0, 65.0, 66.0, -1.0, -2.0, -3.0, -65.0, 0.5,
             -0.5, 2.5, 1 / 3, 1e300, -1e300, math.nan]

ONE_OPERAND = sorted({*E._CALL.values(), np.negative}, key=lambda fn: fn.__name__)
TWO_OPERANDS = [np.add, np.subtract, np.multiply, E._div, E._pow]


@st.composite
def intervals(draw):
    """An interval (lo, hi) and points of it: its ends and one drawn between."""
    lo, hi = sorted([draw(values), draw(values)])
    points = [lo, hi]
    if lo < hi:
        points.append(draw(st.floats(None if lo == -math.inf else lo,
                                     None if hi == math.inf else hi, allow_nan=False)))
    return lo, hi, points


def check_enclosed(rule_out, point_values):
    """Each defined point value lies in the enclosure, and a finite one holds
    only defined values; an enclosure with NaN is none."""
    lo, hi = (float(v) for v in np.broadcast_to(rule_out, (2, 1))[:, 0])
    if math.isnan(lo) or math.isnan(hi):
        return
    assert lo <= hi
    for y in point_values:
        if math.isfinite(lo) and math.isfinite(hi):
            assert not math.isnan(y)
        if not math.isnan(y):
            assert lo <= y <= hi, (lo, y, hi)


class TestIntervalRules:
    def test_every_step_has_a_rule_or_none(self):
        steps = {*E._STEP.values(), *E._CALL.values(), E._pow_literal, E._pow}
        assert steps == set(I._ENCLOSE)

    @settings(max_examples=400, deadline=None)
    @given(fn=st.sampled_from(ONE_OPERAND), case=intervals())
    @example(fn=np.sin, case=(math.pi / 2, math.pi / 2, [math.pi / 2]))
    @example(fn=np.cos, case=(3.0, 3.5, [3.0, math.pi, 3.5]))
    @example(fn=np.exp, case=(-math.inf, 0.0, [-math.inf, 0.0]))
    @example(fn=np.tan, case=(1.5, 1.6, [1.5, math.pi / 2, 1.6]))
    @example(fn=E._log, case=(-0.0, 1.0, [-0.0, 0.5, 1.0]))
    @example(fn=np.sqrt, case=(-1e-300, 1.0, [-1e-300, 1.0]))
    @example(fn=np.abs, case=(-2.0, -0.0, [-2.0, -1.0, -0.0]))
    def test_one_operand(self, fn, case):
        lo, hi, points = case
        with np.errstate(all="ignore"):
            out = I._ENCLOSE[fn](np.array([[lo], [hi]]))
            ys = [float(fn(np.array([x]))[0]) for x in points]
        check_enclosed(out, ys)

    @settings(max_examples=600, deadline=None)
    @given(fn=st.sampled_from(TWO_OPERANDS), a=intervals(), b=intervals(),
           constant=st.sampled_from([None, 0, 1]))
    @example(fn=np.multiply, a=(0.0, 0.0, [0.0]), b=(1.0, math.inf, [1.0, math.inf]),
             constant=None)
    @example(fn=E._div, a=(1.0, 2.0, [1.0, 2.0]), b=(-1.0, 0.0, [-1.0, -0.0, 0.0]),
             constant=None)
    @example(fn=E._div, a=(1.0, 1.0, [1.0]), b=(1.0, math.inf, [1.0, math.inf]), constant=0)
    @example(fn=np.add, a=(1.0, math.inf, [math.inf]), b=(-math.inf, 0.0, [-math.inf]),
             constant=None)
    # an exponent that varies: a^b is monotone in each operand for a > 0
    @example(fn=E._pow, a=(0.5, 2.0, [0.5, 1.0, 2.0]), b=(-1.0, 3.0, [-1.0, 0.0, 3.0]),
             constant=None)
    @example(fn=E._pow, a=(0.5, 0.5, [0.5]), b=(-1.0, math.inf, [-1.0, math.inf]), constant=0)
    def test_two_operands(self, fn, a, b, constant):
        # ``constant`` names the operand the tape would hold as a scalar
        if constant == 0:
            a = (a[0], a[0], [a[0]])
        elif constant == 1:
            b = (b[0], b[0], [b[0]])

        def operand(case, k):
            lo, hi, _ = case
            return np.float64(lo) if constant == k else np.array([[lo], [hi]])

        def point(x, k):
            return np.float64(x) if constant == k else np.array([x])

        with np.errstate(all="ignore"):
            out = I._ENCLOSE[fn](operand(a, 0), operand(b, 1))
            ys = [float(np.broadcast_to(fn(point(x, 0), point(y, 1)), 1)[0])
                  for x in a[2] for y in b[2]]
        check_enclosed(out, ys)

    @settings(max_examples=400, deadline=None)
    @given(fn=st.sampled_from([E._pow_literal, E._pow]), c=st.sampled_from(EXPONENTS),
           a=intervals())
    @example(fn=E._pow_literal, c=-2.0, a=(-1.0, 1.0, [-1.0, 0.0, 1.0]))
    @example(fn=E._pow_literal, c=-3.0, a=(-1.0, 1.0, [-1.0, 0.5, 1.0]))
    @example(fn=E._pow, c=2.0, a=(-3.0, 1.0, [-3.0, -0.0, 1.0]))
    @example(fn=E._pow, c=0.5, a=(-1.0, 4.0, [-1.0, 4.0]))
    # (-inf)^2.5 is inf, not NaN, while 0^2.5 is 0
    @example(fn=E._pow_literal, c=2.5, a=(-math.inf, 1.0, [-math.inf, 1.0, 0.0]))
    # np.power(x, -2.0) and np.power(-x, -2.0) differ in the last bit
    @example(fn=E._pow, c=-2.0, a=(-812338653412601.0, -812338653412601.0,
                                   [-812338653412601.0]))
    def test_constant_exponents(self, fn, c, a):
        # the tape holds a folded exponent as a scalar for both pow steps
        lo, hi, points = a
        with np.errstate(all="ignore"):
            out = I._ENCLOSE[fn](np.array([[lo], [hi]]), np.float64(c))
            ys = [float(fn(np.array([x]), np.float64(c))[0]) for x in points]
        check_enclosed(out, ys)


class TestEnclose:
    def test_points_of_a_cell_lie_inside(self):
        f = parse("t*sin(1/t)^2 - exp(-t)/(1+t^2) + sqrt(t)*log(t)")
        lo = np.linspace(0.01, 3.0, 200)
        hi = lo + 0.013
        (f_lo, f_hi), = enclose(I.interval_tape(f), lo, hi)
        assert np.isfinite(f_lo).all() and np.isfinite(f_hi).all()
        ts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 33)
        ts[:, -1] = hi
        ys = evaluate_array(f, ts)
        assert ((f_lo[:, None] <= ys) & (ys <= f_hi[:, None])).all()

    def test_domain_edges_give_no_enclosure(self):
        lo, hi = np.array([-1.0, 0.0, 0.5, -0.5]), np.array([1.0, 0.25, 1.0, -0.25])
        x = E.var("x")
        for f, none in ((parse("1/x"), [1, 1, 0, 0]), (parse("log(x)"), [1, 1, 0, 1]),
                        (parse("sqrt(x)"), [1, 0, 0, 1]), (parse("x^0.5"), [1, 0, 0, 1]),
                        (E.pow_(x, E.const(-2.0)), [1, 1, 0, 0]),
                        (E.pow_(x, E.const(-0.5)), [1, 1, 0, 1]),
                        (parse("x^-2"), [1, 1, 0, 0]),
                        # an exponent that varies needs a base > 0; a NaN one has none
                        (parse("x^x"), [1, 1, 0, 1]),
                        (E.pow_(x, E.const(math.nan)), [1, 1, 1, 1])):
            out = enclose(I.interval_tape(f), lo, hi)[0]
            assert np.isnan(out).tolist() == [[bool(n) for n in none]] * 2, str(f)

    def test_constant_and_variable_roots(self):
        x = parse("x")
        out = enclose(I.interval_tape(x, parse("2"), E.const(-0.0)), [1.0, 2.0], [1.5, 3.0])
        assert out.tolist() == [[[1.0, 2.0], [1.5, 3.0]], [[2.0, 2.0]] * 2, [[-0.0, -0.0]] * 2]

    def test_point_tape_is_left_alone(self):
        p = SubstitutionProblem(parse("x^3"), parse("t*sin(1/t)"), 0.0, 1.0)
        product = p.product_integrand()
        roots = (p.phi, p._derived_exprs()[0], product)
        tapes = [g._tape for g in roots]
        slope = I.slope_tape(product)
        enclose(slope, [0.5], [0.6])
        assert all(g._tape is tape for g, tape in zip(roots, tapes))
        assert I.slope_tape(product) is slope

    def test_slope_tape_is_kept_at_any_height(self):
        f = parse("x^3")
        assert I.slope_tape(f) is I.slope_tape(f)
        assert enclose(I.slope_tape(f), [1.0], [2.0]).tolist() == [[[1.0], [8.0]], [[3.0], [12.0]]]
        # abs and a varying exponent have derivatives: x/abs(x) and 2^x*log(2)
        (_, _), (lo, hi) = enclose(I.slope_tape(parse("abs(x)")), [-2.0, 1.0], [-1.0, 2.0])
        assert (hi[0], lo[1]) == (-0.5, 0.5)
        (f_lo, f_hi), (lo, hi) = enclose(I.slope_tape(parse("2^x")), [1.0], [2.0])
        assert (f_lo[0], f_hi[0], lo[0], hi[0]) == (2.0, 4.0, 2 * math.log(2), 4 * math.log(2))
        tall = parse("+".join(["x"] * 20000))
        assert enclose(I.slope_tape(tall), [1.0], [2.0]).tolist() == [
            [[20000.0], [40000.0]], [[20000.0], [20000.0]]]

    def test_only_the_last_slope_tapes_are_kept(self):
        f = parse("x^3")
        first = I.slope_tape(f)
        assert I.slope_tape(parse("x^3")) is not first  # kept by identity, not by value
        for k in range(I._SLOPES_KEPT):
            I.slope_tape(parse(f"x^{k + 4}"))
        assert len(I._SLOPES) == I._SLOPES_KEPT
        assert I.slope_tape(f) is not first


# ---------------------------------------------------------------------------
# Certified cells in integrate


def counted(f, iv, tol, cfg, max_cells=2**12):
    """integrate's result: its bits and counts, or the error and its message."""
    try:
        est, head = integrate(f, iv, tol, cfg, max_cells=max_cells), ()
    except NonConvergenceError as exc:
        est, head = exc.estimate, (type(exc).__name__, str(exc))
    except (UndefinedSamplesError, ValueError) as exc:
        return (type(exc).__name__, str(exc)), 0
    return (*head, est.lower.hex(), est.upper.hex(), est.cells, est.levels, est.swept), est.certified


def sampled_in_full(f):
    """The same expression as a plain callable: every cell sampled."""
    return lambda xs: evaluate_array(f, xs)


def product(f_text, phi_text, alpha, beta):
    return SubstitutionProblem(parse(f_text), parse(phi_text), alpha, beta).product_integrand()


FORMULAS = {key: SPECIAL.get(key) or parse(key) for key in EVAL_PINNED}
FORMULAS.update({key[0]: parse(key[0]) for key in PINNED})
for text in ("x/x", "sqrt(x^2-1e-4)", "1/(x-0.3)", "log(x)", "0*x"):
    FORMULAS[text] = parse(text)

# (integrand, interval, tol): the formulas on an interval across 0 and on one
# clear of it, the gallery's rhs products and E1 with x^1 to x^3
CASES = {
    f"{text} on {a}..{b}": (f, Interval(a, b), 1e-2)
    for text, f in FORMULAS.items()
    for a, b in ((-1.0, 2.0), (0.25, 3.0))
}
for g in GALLERY:
    alpha, beta = (-1.5, 1.5) if g.improper else (g.alpha, g.beta)
    CASES[f"gallery {g.id}"] = (product(g.f, g.phi, alpha, beta), Interval(alpha, beta), 1e-3)
for k in (1, 2, 3):
    CASES[f"E1 x^{k}"] = (product(f"x^{k}", "t*sin(1/t)", 0.0, 2 / math.pi),
                          Interval(0.0, 2 / math.pi), 1e-3)
# overflow, subnormal values, an even power flat at its zeros, a pole and
# domain edges inside the interval
for text, a, b in (("exp(x)", 700.0, 720.0), ("x*1e-320", -1.0, 1.0), ("sin(x)^64", 0.0, 10.0),
                   ("atan(1/x)", -1.0, 1.0), ("sqrt(1-x^2)", -1.0, 1.0)):
    CASES[f"{text} on {a}..{b}"] = (parse(text), Interval(a, b), 1e-3)
# a tree taller than any recursion limit: 101 sin(x), and sin(x+...+x) of 3,000 x
TALL = {"101 sin(x)": "+".join(["sin(x)"] * 101), "sin of 3000 x": f"sin({'+'.join(['x'] * 3000)})"}
for name, text in TALL.items():
    CASES[f"{name} on 0..3"] = (parse(text), Interval(0.0, 3.0), 0.101)


class TestCertifiedCells:
    @pytest.mark.parametrize("cfg", [CFG16, CFG64], ids=lambda c: str(c.samples_per_cell))
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_bits_of_sampling_in_full(self, name, cfg):
        f, iv, tol = CASES[name]
        with np.errstate(all="ignore"):
            got, certified = counted(f, iv, tol, cfg)
            want, none = counted(sampled_in_full(f), iv, tol, cfg)
        assert got == want
        assert none == 0

    def test_cells_are_certified(self):
        for name in ("x^3 on 0.25..3.0", "exp(x) on -1.0..2.0", "gallery E2",
                     "101 sin(x) on 0..3", "sin of 3000 x on 0..3"):
            f, iv, tol = CASES[name]
            est = integrate(f, iv, tol, CFG64)
            assert est.certified > 0.9 * est.cells, name

    def test_e1_at_two_to_the_sixteen(self):
        # the E1 rhs integrand at 64 samples: all but the cells near 0 and at
        # the turning points are monotone
        f = product("x^3", "t*sin(1/t)", 0.0, 2 / math.pi)
        *_, certified = D._uniform_sums(D.as_evaluator(f), 0.0, 2 / math.pi, 2**16, CFG64,
                                        D._monotone_tape(f, CFG64))
        assert np.count_nonzero(certified) >= 0.98 * 2**16

    def test_e1_rhs_closes_with_the_bits_of_sampling_in_full(self):
        p = SubstitutionProblem(parse("x^3"), parse("t*sin(1/t)"), 0.0, 2 / math.pi * 1.01)
        f, iv = p.product_integrand(), Interval(0.0, 2 / math.pi * 1.01)
        got, certified = counted(f, iv, 5e-6, CFG64, D.CELL_CAP)
        assert got == counted(sampled_in_full(f), iv, 5e-6, CFG64, D.CELL_CAP)[0]
        assert got[2] == 65536 and certified > 0.98 * 65536

    def test_levels_of_adjacent_intervals(self):
        # the pieces of [0, 1] an improper runner's strips could be, at a cell
        # count that is no multiple of the 2,048-cell test blocks
        f = product("x^2", "t*sin(1/t)", 0.0, 1.0)
        ev, tape = D.as_evaluator(f), D._monotone_tape(f, CFG16)
        for a, b in ((0.0, 0.1), (0.1, 0.5), (0.5, 1.0)):
            got = D._uniform_sums(ev, a, b, 3000, CFG16, tape)
            assert got[:4] == D._uniform_sums(ev, a, b, 3000, CFG16)[:4]
            assert got[4].any()

    def test_below_the_cutoff_nothing_is_enclosed(self):
        with mock.patch.object(D, "enclose", side_effect=AssertionError("enclosed")):
            est = integrate(parse("x^3"), Interval(0.0, 1.0), 1e-2, SamplingConfig(15))
            assert est.certified == 0

    def test_uncertified_runs_keep_the_evaluation_size(self):
        # 1/(x-0.3) leaves the cells around 0.3 uncertified
        sizes = []
        f = parse("1/(x-0.3)")
        ev = D.as_evaluator(f)

        def recording(xs):
            sizes.append(xs.size)
            return ev(xs)

        cfg = SamplingConfig(samples_per_cell=1000)
        D._uniform_sums(recording, 0.0, 1.0, 2**13, cfg, D._monotone_tape(f, cfg))
        assert max(sizes) <= D._CHUNK_POINTS
        assert sum(sizes) < 2**13 * 20

    def test_runs_take_as_many_cells_a_call_as_fit(self):
        # a run takes (8192 - 1) // w cells a call: at 2 samples, 2**16 cells
        # take 9 calls (16 in gathered parts of 4,096); x*x-x^2 certifies
        # nothing, so its 6,144 cells take 48 calls after its probe's edges
        def sizes(f, cells, cfg):
            ev, got = D.as_evaluator(f), []

            def recording(xs):
                got.append(xs.size)
                return ev(xs)

            D._uniform_sums(recording, 0.0, 1.0, cells, cfg, D._monotone_tape(f, cfg))
            return got

        got = sizes(parse("x/(1+x)"), 2**16, SamplingConfig(samples_per_cell=2))
        assert len(got) == 9 and max(got) <= D._CHUNK_POINTS
        got = sizes(parse("x*x-x^2"), 3 * D._MONOTONE_CELLS, CFG64)
        assert len(got) <= 49 and max(got) <= D._CHUNK_POINTS


class TestSampledCells:
    """The cells left to sample take ``_cell_extrema``'s bits, NaN rule and holes."""

    @settings(max_examples=300, deadline=None)
    @given(w=st.sampled_from([15, 63]), k0=st.integers(0, 3), n=st.integers(1, 300),
           data=st.data())
    def test_matches_cell_extrema(self, w, k0, n, data):
        last = (k0 + n) * w
        todo = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        planted = data.draw(st.dictionaries(
            st.integers(0, last), st.sampled_from([math.nan, 0.0, -0.0]), max_size=5))
        pair = data.draw(st.none() | st.integers(0, last - 1))  # two undefined in a row
        if pair is not None:
            planted.update({pair: math.nan, pair + 1: math.nan})
        self.check(w, k0, n, todo, planted)

    # cells 0 and 2 of 15 gaps sampled apart, or 0 and 1 together: sample 15
    # is the right edge of cell 0 and the left edge of cell 1
    @pytest.mark.parametrize("todo, planted", [
        ([0, 2], {14: math.nan, 15: math.nan}),  # raises: both in cell 0
        ([0, 1], {14: math.nan, 15: math.nan}),
        ([1], {15: math.nan, 16: math.nan}),
        ([0, 2], {15: math.nan, 16: math.nan, 44: -0.0}),  # a hole: 16 is in cell 1
        ([0, 1], {15: math.nan, 0: -0.0, 30: 0.0}),
        # a hole: 14 and 30 sit next to each other in the gathered samples only
        ([0, 2], {14: math.nan, 30: math.nan}),
        ([1, 2], {45: math.nan}),  # no hole: b, in a run
        ([0, 2], {0: math.nan, 45: math.nan}),  # no hole: a and b, gathered
        ([1, 2], {15: math.nan}),  # holes: the first and the last sample, but not a or b
        ([0, 1], {30: math.nan}),
    ])
    def test_undefined_samples_at_cell_edges(self, todo, planted):
        self.check(15, 0, 3, todo, planted)

    @staticmethod
    def check(w, k0, n, todo, planted):
        last = (k0 + n) * w
        a, b = -1.0, 2.0
        step = (b - a) / last
        grid = D._row_points(a, b, step, last, 0, last)
        values = np.sin(7.0 * grid)
        for i, v in planted.items():
            values[i] = v

        def ev(xs):
            at = np.searchsorted(grid, xs)
            assert (grid[at] == xs).all()  # every point is a grid point, bit for bit
            assert xs.size <= D._CHUNK_POINTS
            return values[at]

        samples = {i for c in todo for i in range((k0 + c) * w, (k0 + c + 1) * w + 1)}
        nans = {i for i in samples if math.isnan(values[i])}
        lo, hi = np.full(n, 7.0), np.full(n, 7.0)
        # adjacent undefined samples of one cell raise, as in _cell_extrema
        if any(i + 1 in nans and i // w - k0 in todo for i in nans):
            with pytest.raises(UndefinedSamplesError):
                D._sampled_cells(ev, a, b, step, w, last, k0, np.array(todo), lo, hi)
            return
        holes = D._sampled_cells(ev, a, b, step, w, last, k0, np.array(todo), lo, hi)
        assert holes == any(0 < i < last for i in nans)
        # one cell at a time through _cell_extrema gives the same bits
        for c in todo:
            ys = values[(k0 + c) * w : (k0 + c + 1) * w + 1].copy()
            want_lo, want_hi, _ = D._cell_extrema(ys, w)
            assert (lo[c].hex(), hi[c].hex()) == (want_lo[0].hex(), want_hi[0].hex())
        untouched = np.setdiff1d(np.arange(n), todo)
        assert (lo[untouched] == 7.0).all() and (hi[untouched] == 7.0).all()

    def test_a_run_takes_the_bits_of_one_cell_extrema_call(self):
        w, k0, n = 15, 2, 1000
        last = (k0 + n) * w
        step = 3.0 / last
        grid = D._row_points(-1.0, 2.0, step, last, 0, last)
        x0 = float(grid[5000])
        f = parse(f"sin(7*x) + (x - {x0!r})/(x - {x0!r})")  # undefined at a sample inside
        ev = D.as_evaluator(f)
        lo, hi = np.empty(n), np.empty(n)
        with np.errstate(all="ignore"):
            holes = D._sampled_cells(ev, -1.0, 2.0, step, w, last, k0, np.arange(n), lo, hi)
            want_lo, want_hi, undefined = D._cell_extrema(ev(grid[k0 * w :]), w)
        assert holes and (undefined + k0 * w).tolist() == [5000]
        assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()

    def test_a_probe_certifying_none_leaves_its_level_untested(self):
        # x*x - x^2: the enclosure of its derivative always holds 0
        f, calls = parse("x*x-x^2"), []

        def counting(tape, lo, hi):
            calls.append(len(lo))
            return enclose(tape, lo, hi)

        with mock.patch.object(D, "enclose", counting):
            lower, upper, _, _, certified = D._uniform_sums(
                D.as_evaluator(f), 0.0, 1.0, 3 * D._MONOTONE_CELLS, CFG64,
                D._monotone_tape(f, CFG64))
        assert calls == [D._MONOTONE_CELLS] and certified is None  # no array for no cell
        want = D._uniform_sums(D.as_evaluator(f), 0.0, 1.0, 3 * D._MONOTONE_CELLS, CFG64)
        assert (lower, upper) == want[:2]

    def test_a_probe_certifying_too_few_to_pay_leaves_its_level_untested(self):
        # sin(3000x): 69 of 1,024 cells certify, saving 4.2 samples a cell at
        # 64 samples, under the 8 the test costs; a level of at most 2,048
        # cells is tested whole all the same.  Finer, nearly all certify.
        f, calls = parse("sin(3000*x)"), []
        ev, tape = D.as_evaluator(f), D._monotone_tape(f, CFG64)
        lower, upper, _, _, certified = D._uniform_sums(ev, 0.0, 1.0, 1024, CFG64, tape)
        assert np.count_nonzero(certified) == 69
        assert (lower, upper) == D._uniform_sums(ev, 0.0, 1.0, 1024, CFG64)[:2]
        finer = D._uniform_sums(ev, 0.0, 1.0, 16384, CFG64, tape)[4]
        assert np.count_nonzero(finer) > 0.9 * 16384

        def counting(tape, lo, hi):
            calls.append(len(lo))
            return enclose(tape, lo, hi)

        # the same cell width over [0, 6], with no parent: the probe of the
        # first 2,048 cells certifies 138, under the 260 that would pay, so
        # they are dropped and the whole level is sampled
        cells = 3 * D._MONOTONE_CELLS
        with mock.patch.object(D, "enclose", counting):
            lower, upper, _, _, certified = D._uniform_sums(ev, 0.0, 6.0, cells, CFG64, tape)
        assert calls == [D._MONOTONE_CELLS]
        assert certified is None
        assert (lower, upper) == D._uniform_sums(ev, 0.0, 6.0, cells, CFG64)[:2]

    def test_a_failed_probe_makes_one_enclose_call(self):
        # 2**18 cells at 16 samples span two summation chunks; x*x-x^2
        # certifies nothing, so the probe's 2,048 cells are the only ones
        # enclosed, and their edges the only ones evaluated
        f, calls, sizes = parse("x*x-x^2"), [], []
        ev = D.as_evaluator(f)

        def counting(tape, lo, hi):
            calls.append(len(lo))
            return enclose(tape, lo, hi)

        def recording(xs):
            sizes.append(xs.size)
            return ev(xs)

        cells = 2**18
        with mock.patch.object(D, "enclose", counting):
            got = D._uniform_sums(recording, 0.0, 1.0, cells, CFG16, D._monotone_tape(f, CFG16))
        assert calls == [D._MONOTONE_CELLS] and got[4] is None
        probe, tested = sizes[0], sizes[1:]
        sizes.clear()
        assert got[:4] == D._uniform_sums(recording, 0.0, 1.0, cells, CFG16)[:4]
        assert probe == D._MONOTONE_CELLS + 1 and tested == sizes  # then sampled as untested


class TestPerLevelRule:
    """A level of more than 2,048 cells is tested whole when its parent's
    certified cells paid for their test, else when a probe of its first
    2,048 cells pays, else not at all."""

    def test_a_level_whose_parent_paid_is_tested_whole(self):
        # E1 x^2 at tol 1e-6: the rhs goes from 1,024 cells to 2**19 and then
        # 2**23.  The first 2,048 cells of 2**23 lie below t = 1.6e-4, where
        # few certify, yet the parent paid, so every block is tested
        p = SubstitutionProblem(parse("x^2"), parse("t*sin(1/t)"), 0.0, 2 / math.pi)
        report = verify(p, 1e-6, CFG64)
        rhs = report.rhs
        assert report.verdict == "verified"
        assert (rhs.lower.hex(), rhs.upper.hex(), rhs.cells, rhs.levels, rhs.swept) == (
            "0x1.6045a9784550bp-4", "0x1.6045fdbe2c36bp-4", 2**23, 3, 12583936)
        assert rhs.certified >= 0.99 * 2**23

    @pytest.mark.parametrize("cfg, probed", [(CFG16, 2**20), (CFG64, 2**19)], ids=["16", "64"])
    def test_a_level_after_a_poor_parent_is_probed_then_tested(self, cfg, probed):
        # x+1e-4*sin(1e6*x): the levels to 2**18 cells certify nothing, the
        # next probe certifies 805 of 2,048 cells (39%), which pays at 64
        # samples and not at 16; at 16 samples the level after it is probed
        # in turn and pays.
        f, passes = parse("x+1e-4*sin(1e6*x)"), []
        monotone_pass = D._monotone_pass

        def recording(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent):
            sure = monotone_pass(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent)
            passes.append((cells, c0, c1))
            return sure

        with mock.patch.object(D, "_monotone_pass", recording):
            est = integrate(f, Interval(0.0, 1.0), 1e-4, cfg)
        want = {16: ("0x1.fff8310c97a07p-2", "0x1.0003e779daf0ep-1"),
                64: ("0x1.fff830e32b0ffp-2", "0x1.0003e78e91416p-1")}[cfg.samples_per_cell]
        assert (est.lower.hex(), est.upper.hex()) == want
        assert (est.cells, est.levels, est.swept, est.certified) == (2**20, 6, 1917952, 730265)
        levels = sorted({p[0] for p in passes})
        assert levels == [2**10, 2**14, 2**16, 2**18, 2**19, 2**20]
        for cells in levels[1:]:
            first = [p for p in passes if p[0] == cells][0]
            # probed where no parent paid: the first 2,048 cells alone
            assert (first[1:3] == (0, D._MONOTONE_CELLS)) == (cells <= probed)
        # the probe that paid goes on from cell 2,048, and its level is tested whole
        tested = [p for p in passes if p[0] == probed]
        assert tested[1][1] == D._MONOTONE_CELLS and tested[-1][2] == probed


class TestEstimateCount:
    def test_default_and_negation(self):
        assert DarbouxEstimate(1.0, 3.0, 0.5, 2).certified == 0
        est = DarbouxEstimate(1.0, 3.0, 0.5, 2, levels=3, swept=14, certified=2)
        assert (-est).certified == 2

    def test_kept_on_a_nonconvergence_error(self):
        with pytest.raises(NonConvergenceError) as err:
            integrate(parse("x^3"), Interval(0.0, 1.0), 1e-12, CFG64, max_cells=2048)
        assert err.value.estimate.cells == 2048
        assert err.value.estimate.certified == 2047  # the cell at 0 has a zero edge value

    def test_signed_integral(self):
        est = D.integrate_signed(parse("x^3"), 1.0, 0.25, 1e-3, CFG64)
        assert est.certified == est.cells


# ---------------------------------------------------------------------------
# Certification inherited from the level before

SUMS = D._uniform_sums


def sums_afresh(ev, a, b, cells, cfg, tape=None, parent=None):
    """``_uniform_sums`` inheriting nothing: every cell of every level is tested."""
    return SUMS(ev, a, b, cells, cfg, tape)


def inheriting(f, iv, tol, cfg, max_cells=2**14, afresh=False):
    """integrate's bits and counts, the cells it enclosed and each level's
    (cells, cells a parent cell held, 0 without a parent), with or without
    inheriting."""
    enclosed, levels = [], []

    def counting(tape, lo, hi):
        enclosed.append(len(lo))
        return enclose(tape, lo, hi)

    def recording(ev, a, b, cells, cfg, tape=None, parent=None):
        ratio = None if tape is None else 0 if parent is None else cells // parent.size
        levels.append((cells, ratio))
        return (sums_afresh if afresh else SUMS)(ev, a, b, cells, cfg, tape, parent)

    with mock.patch.object(D, "enclose", counting), \
            mock.patch.object(D, "_uniform_sums", recording), np.errstate(all="ignore"):
        try:
            est, head = integrate(f, iv, tol, cfg, max_cells=max_cells), ()
        except NonConvergenceError as exc:
            est, head = exc.estimate, (str(exc),)
    bits = (*head, est.lower.hex(), est.upper.hex(), est.norm.hex(), est.cells, est.levels,
            est.swept, est.certified)
    return bits, sum(enclosed), levels


INHERIT_CASES = {
    "E1 rhs": (product("x^3", "t*sin(1/t)", 0.0, 2 / math.pi), Interval(0.0, 2 / math.pi)),
    "E1 lhs": (parse("x^3"), Interval(0.0, 2 / math.pi)),
    "x^3": (parse("x^3"), Interval(-1.0, 2.0)),
    # 0 is inside a certified cell of the first level and an edge of the next
    "x^3 across 0": (parse("x^3"), Interval(-2.0**-11, 1 - 2.0**-11)),
    "sin(3000*x)": (parse("sin(3000*x)"), Interval(0.0, 1.0)),
    "sin(x)*cos(x)-sin(2*x)/2+x": (parse("sin(x)*cos(x)-sin(2*x)/2+x"), Interval(0.0, 1.0)),
    "x*x-x^2": (parse("x*x-x^2"), Interval(0.0, 1.0)),  # certifies nothing
    "exp(x)*exp(-x)": (parse("exp(x)*exp(-x)"), Interval(0.0, 1.0)),  # nor this, to the cap
}


class TestInheritedCertification:
    @pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6, 1e-20])
    @pytest.mark.parametrize("cfg", [CFG16, CFG64], ids=lambda c: str(c.samples_per_cell))
    @pytest.mark.parametrize("name", sorted(INHERIT_CASES))
    def test_bits_of_testing_every_level_afresh(self, name, cfg, tol):
        f, iv = INHERIT_CASES[name]
        got, enclosed, levels = inheriting(f, iv, tol, cfg)
        want, enclosed_afresh, levels_afresh = inheriting(f, iv, tol, cfg, afresh=True)
        assert got == want
        assert levels == levels_afresh
        if name in ("x*x-x^2", "exp(x)*exp(-x)"):
            assert got[-1] == 0 and enclosed == enclosed_afresh
        elif len(levels) > 1:  # each first level certifies some cells
            assert enclosed < enclosed_afresh

    @pytest.mark.parametrize("tol, ratios", [
        (1e-4, [None, 4]),  # x^3 on -1..2: 1,024 cells, then 4,096 (a jump)
        (1.5e-2, [None, 2]),  # then 2,048 (plain doubling)
    ])
    def test_jumped_and_doubled_levels(self, tol, ratios):
        f, iv = parse("x^3"), Interval(-1.0, 2.0)
        got, enclosed, levels = inheriting(f, iv, tol, CFG64, max_cells=2**12)
        assert got == inheriting(f, iv, tol, CFG64, max_cells=2**12, afresh=True)[0]
        assert [ratio or None for _, ratio in levels] == ratios
        assert enclosed == 1024  # the first level certified every cell

    def test_a_level_that_does_not_nest_inherits_nothing(self):
        # a cap of 1,536 cells: the second level's cells straddle the first's
        f, iv = INHERIT_CASES["E1 rhs"]
        got, enclosed, levels = inheriting(f, iv, 1e-6, CFG64, max_cells=1536)
        want, enclosed_afresh, _ = inheriting(f, iv, 1e-6, CFG64, max_cells=1536, afresh=True)
        assert got == want
        assert levels == [(1024, 0), (1536, 0)] and enclosed == enclosed_afresh == 1024 + 1536

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), cells=st.integers(1, 300), ratio=st.sampled_from([1, 2, 4, 64]))
    def test_cells_written_in_pieces_are_inherited_by_the_children(self, data, cells, ratio):
        # x*x-x^2+1: no fresh cell is certified, and no edge value is zero,
        # so a pass certifies exactly the cells it inherits
        certified = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
        cuts = sorted(data.draw(st.sets(st.integers(1, cells - 1))) if cells > 1 else ())
        parent = np.zeros(cells, dtype=bool)
        for k0, k1 in zip([0, *cuts], [*cuts, cells]):  # as _uniform_sums writes its chunks
            parent[k0:k1] = certified[k0:k1]
        n = cells * ratio
        k0 = data.draw(st.integers(0, n - 1))
        k1 = data.draw(st.integers(k0 + 1, min(n, k0 + D._MONOTONE_CELLS)))
        f = parse("x*x-x^2+1")
        lo, hi = np.empty(k1 - k0), np.empty(k1 - k0)
        got = D._monotone_pass(D.as_evaluator(f), D._monotone_tape(f, CFG16), -1.0, 2.0,
                               3.0 / (n * 15), 15, n, k0, k1, lo, hi, parent)
        assert (got == certified.repeat(ratio)[k0:k1]).all()

    def test_a_jumped_level_that_undoes_inherits_from_the_last_accepted(self):
        # x0 is the midpoint of a 1,024-cell level's cell: an edge at 2,048
        # cells and a sample of the jumped 4,096-cell level, where it is a
        # hole, so refinement goes back to 2,048 cells and doubles from there
        a, b, w = -1.0, 2.0, 63
        x0 = float(D._row_points(a, b, (b - a) / (2048 * w), 2048 * w, 1001 * w, 1001 * w)[0])
        f = parse(f"x^3 + (x - {x0!r})/(x - {x0!r})")
        got, enclosed, levels = inheriting(f, Interval(a, b), 1e-4, CFG64, max_cells=2**12)
        want, enclosed_afresh, _ = inheriting(f, Interval(a, b), 1e-4, CFG64, max_cells=2**12,
                                              afresh=True)
        assert got == want
        # the undone level inherits from 1,024 cells; 2,048 and 4,096 then double
        assert levels == [(1024, 0), (4096, 4), (2048, 2), (4096, 2)]
        assert enclosed < enclosed_afresh


class TestEnclosedCount:
    def test_e1_rhs_encloses_the_children_of_uncertified_cells(self):
        # E1 x^3 at tol 1e-5: the rhs goes from 1,024 cells to 65,536, and
        # there only the 64 children of each of the 104 cells the first level
        # left uncertified are enclosed; afresh, all 65,536 would be
        p = SubstitutionProblem(parse("x^3"), parse("t*sin(1/t)"), 0.0, 0.6366197723675814)
        rhs = p.product_integrand()
        enclosed, level = {}, [None]  # each level's enclose calls, by size

        def counting(tape, lo, hi):
            enclosed.setdefault(level[0], []).append(len(lo))
            return enclose(tape, lo, hi)

        def recording(ev, a, b, cells, cfg, tape=None, parent=None):
            level[0] = (tape is D._monotone_tape(rhs, cfg), cells)
            return SUMS(ev, a, b, cells, cfg, tape, parent)

        with mock.patch.object(D, "enclose", counting), \
                mock.patch.object(D, "_uniform_sums", recording):
            report = verify(p, 1e-5, CFG64)
        first = D._uniform_sums(D.as_evaluator(rhs), 0.0, 0.6366197723675814, 1024, CFG64,
                                D._monotone_tape(rhs, CFG64))
        assert report.rhs.cells == 65536 and np.count_nonzero(first[4]) == 920
        # their 6,656 cells are first enclosed 4 a group, 16 groups a parent
        # cell, and the 4 cells of each of the 397 groups left uncertified
        # one by one (were 6,656 cells, one by one)
        assert enclosed[True, 65536] == [64 * (1024 - 920) // 4, 4 * 397] == [1664, 1588]
        # was 8,704 in 6 calls, and 133,120 afresh (both sides, both levels)
        assert sum(map(sum, enclosed.values())) == 5300
        assert sum(map(len, enclosed.values())) == 4


# ---------------------------------------------------------------------------
# One monotone pass a summation chunk, against a loop over blocks


def reference_block(ev, tape, a, b, step, w, cells, k0, k1, lo, hi, inherited):
    """One block tested on its own: (cells certified, holes, which cells)."""
    edges = D._row_points(a, b, step, cells * w, k0 * w, k1 * w, w)
    ys = ev(edges)
    nonzero = np.abs(ys) > 0
    certified = inherited.copy()
    fresh = np.flatnonzero(~inherited)
    if fresh.size:
        if fresh.size == k1 - k0:
            fresh = slice(None)
        f_range, slope = D.enclose(tape, edges[:-1][fresh], edges[1:][fresh])
        certified[fresh] = np.isfinite(f_range).all(axis=0) & ((slope[0] >= 0) | (slope[1] <= 0))
    certified &= nonzero[:-1] & nonzero[1:]
    np.minimum(ys[:-1], ys[1:], out=lo)
    np.maximum(ys[:-1], ys[1:], out=hi)
    holes = D._sampled_cells(ev, a, b, step, w, cells * w, k0, np.flatnonzero(~certified), lo, hi)
    return int(np.count_nonzero(certified)), holes, certified


def reference_pass(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent):
    """A chunk as a loop over blocks of 2,048 cells: each block's edges
    evaluated, its fresh cells enclosed and its uncertified cells sampled on
    their own: ((cells certified, holes), which cells)."""
    inherited = np.zeros(cells, bool) if parent is None else parent.repeat(cells // parent.size)
    certified = np.zeros(c1 - c0, dtype=bool)
    sure, holes = 0, False
    for k0 in range(c0, c1, D._MONOTONE_CELLS):
        k1 = min(c1, k0 + D._MONOTONE_CELLS)
        block = slice(k0 - c0, k1 - c0)
        got, hole, certified[block] = reference_block(ev, tape, a, b, step, w, cells, k0, k1,
                                                      lo[block], hi[block], inherited[k0:k1])
        sure, holes = sure + got, holes or hole
    return (sure, holes), certified


def one_pass(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent):
    """A chunk as ``_uniform_sums`` tests it: ``_monotone_pass``, then every
    cell it left uncertified in one ``_sampled_cells`` call."""
    certified = D._monotone_pass(ev, tape, a, b, step, w, cells, c0, c1, lo, hi, parent)
    assert certified.dtype == bool and certified.size == c1 - c0
    holes = D._sampled_cells(ev, a, b, step, w, cells * w, c0, np.flatnonzero(~certified), lo, hi)
    return (int(np.count_nonzero(certified)), holes), certified


def chunk_passes(run, f, a, b, cells, w, parent_bits, chunk):
    """A level's chunks of ``chunk`` cells through ``run``: the lo/hi bytes,
    each chunk's (cells certified, holes), the level's certified cells and
    the sorted cells handed to ``enclose``.  ``parent_bits`` (None: nothing
    nests) are the certified cells of the level before, whose cells hold
    cells // len(parent_bits)."""
    cfg = SamplingConfig(samples_per_cell=w + 1)
    ev, tape = D.as_evaluator(f), D._monotone_tape(f, cfg)
    parent = None if parent_bits is None else np.asarray(parent_bits, dtype=bool)
    certified = np.zeros(cells, dtype=bool)
    enclosed = []

    def recording(tape, lo, hi):
        enclosed.extend(zip(np.asarray(lo).tolist(), np.asarray(hi).tolist()))
        return enclose(tape, lo, hi)

    lo, hi = np.full(cells, 7.0), np.full(cells, 7.0)
    results = []
    with mock.patch.object(D, "enclose", recording), np.errstate(all="ignore"):
        for c0 in range(0, cells, chunk):
            c1 = min(cells, c0 + chunk)
            try:
                result, certified[c0:c1] = run(ev, tape, a, b, (b - a) / (cells * w), w, cells,
                                               c0, c1, lo[c0:c1], hi[c0:c1], parent)
            except UndefinedSamplesError:  # both raise; what came before may differ
                return "raised", c0
            results.append(result)
    return lo.tobytes(), hi.tobytes(), results, certified.tobytes(), sorted(enclosed)


def edge_point(a, b, cells, w, k):
    """The left edge of cell k of a level, as its samples place it."""
    return float(D._row_points(a, b, (b - a) / (cells * w), cells * w, k * w, k * w)[0])


def spans(enclosed, a, b, cells, w):
    """The cells k0..k1-1 each enclosed interval spans, as (k0, k1) arrays,
    its ends matched bit for bit to the level's cell edges."""
    edges = D._row_points(a, b, (b - a) / (cells * w), cells * w, 0, cells * w, w)
    lo, hi = np.array(enclosed, dtype=float).reshape(-1, 2).T
    k0, k1 = np.searchsorted(edges, lo), np.searchsorted(edges, hi)
    assert (edges[k0] == lo).all() and (edges[k1] == hi).all()
    return k0, k1


def same_but_groups(got, want, a, b, cells, w, parent_bits):
    """``chunk_passes`` of ``one_pass`` (got) and ``reference_pass`` (want)
    agree in everything but the enclosed intervals, and each of got's is one
    cell or a group of g cells, g a power of two at most r / 4 and the group
    aligned to g, inside one uncertified parent cell of r cells.  Every cell
    want encloses, got encloses alone or in a group, and no cell twice alone;
    got's lone cells are want's.  Returns (groups, lone cells) got encloses."""
    assert got[:4] == want[:4]
    if got[0] == "raised":
        return 0, 0
    k0, k1 = spans(got[4], a, b, cells, w)
    fresh = spans(want[4], a, b, cells, w)[0]
    g = k1 - k0
    grouped, alone = g > 1, k0[g == 1]
    assert np.unique(alone).size == alone.size and np.isin(alone, fresh).all()
    if grouped.any():
        r, g, k0, k1 = cells // len(parent_bits), g[grouped], k0[grouped], k1[grouped]
        assert ((g & (g - 1)) == 0).all() and (4 * g <= r).all() and (k0 % g == 0).all()
        assert (k0 // r == (k1 - 1) // r).all() and not np.asarray(parent_bits)[k0 // r].any()
    covered = np.zeros(cells, dtype=bool)
    covered[alone] = True
    for i, j in zip(k0, k1):
        covered[i:j] = True
    assert covered[fresh].all()
    return int(np.count_nonzero(grouped)), alone.size


# the derivative's enclosure of x*x-x^2 always holds 0: a cell is certified
# exactly when it inherits and its edge values are nonzero
PASS_FORMULAS = ["x*x-x^2+1", "x*x-x^2", "sin(30*x)", "x^3", "exp(x)*x", "1/(x-0.3)",
                 "sqrt(x)"]


class TestOnePassAChunk:
    @settings(max_examples=200, deadline=None)
    @given(text=st.sampled_from(PASS_FORMULAS), w=st.sampled_from([15, 63]),
           parents=st.integers(1, 60) | st.integers(300, 600),
           ratio=st.sampled_from([1, 4, 16, 64, None]),
           share=st.sampled_from([0.0, 0.5, 0.95, 0.995, 1.0]), data=st.data())
    def test_random_inheritance(self, text, w, parents, ratio, share, data):
        cells = parents * (ratio or 48)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = None if ratio is None else rng.random(parents) < share
        chunk = data.draw(st.integers(max(1, cells // 3), cells))
        args = (parse(text), -1.0, 2.0, cells, w, bits, chunk)
        got, want = chunk_passes(one_pass, *args), chunk_passes(reference_pass, *args)
        groups, _ = same_but_groups(got, want, -1.0, 2.0, cells, w, bits)
        if groups == 0:  # no group stage: the same cells enclosed
            assert got == want

    @pytest.mark.parametrize("text", ["x*x-x^2+1", "x*x-x^2", "sin(30*x)"])
    def test_a_poor_block_in_the_middle_does_not_end_the_pass(self, text):
        # 64 cells a parent, 32 parents a block: blocks 0-2 inherit all but two
        # parents' cells each, block 3 nothing, the blocks after it most
        bits = np.ones(8 * 32, dtype=bool)
        bits[[5, 40, 70, 101]] = False
        bits[96:128] = False
        args = (parse(text), 0.0, 1.0, 8 * 2048, 63, bits, 8 * 2048)
        got, want = chunk_passes(one_pass, *args), chunk_passes(reference_pass, *args)
        groups, alone = same_but_groups(got, want, 0.0, 1.0, 8 * 2048, 63, bits)
        assert len(want[4]) == 35 * 64  # only the cells of uncertified parents are enclosed
        # their 2,240 cells, more than one call takes, are first enclosed 2 a
        # group: no group certifies where f' holds 0, all but 2 do on sin(30*x)
        assert groups == 35 * 64 // 2
        assert alone == (4 if text == "sin(30*x)" else 35 * 64)
        if text == "x*x-x^2+1":  # every inherited cell, in the blocks after block 3 too
            assert got[2] == [((8 * 32 - 35) * 64, False)]

    def test_an_undefined_edge_sample(self):
        cells, w = 4 * 2048, 63
        x0 = edge_point(0.0, 1.0, cells, w, 5000)
        bits = np.ones(cells // 4, dtype=bool)
        args = (parse(f"x*x-x^2+1 + (x - {x0!r})/(x - {x0!r})"), 0.0, 1.0, cells, w, bits, cells)
        got = chunk_passes(one_pass, *args)
        assert got == chunk_passes(reference_pass, *args)
        assert got[2] == [(cells - 2, True)]

    def test_sixteen_samples_a_chunk_that_starts_inside_a_parent_cell(self):
        # 2**21 // 15 = 139,810 cells a chunk, 2 more than a multiple of 16:
        # the second chunk starts 2 cells into parent cell 8738
        w, cells = 15, 2**18
        chunk = D._SUM_CHUNK_POINTS // w
        assert chunk == 139810
        bits = np.ones(cells // 16, dtype=bool)
        bits[8745:8800] = False
        bits[9000:9200] = False
        args = (parse("x*x-x^2+1"), 0.0, 1.0, cells, w, bits, chunk)
        got, want = chunk_passes(one_pass, *args), chunk_passes(reference_pass, *args)
        groups, alone = same_but_groups(got, want, 0.0, 1.0, cells, w, bits)
        # the second chunk certifies all but the 255 uncertified parents' cells,
        # and only those are enclosed: 2 a group first (4,080 cells are more
        # than one call takes), and as no group certifies, then one by one
        assert got[2] == [(chunk, False), (cells - chunk - 255 * 16, False)]
        level = np.frombuffer(got[3], dtype=bool)
        assert level[chunk : chunk + 14].all() and not level[8745 * 16 : 8800 * 16].any()
        assert (groups, alone) == (255 * 16 // 2, 255 * 16)
        assert min(lo for lo, _ in got[4]) == edge_point(0.0, 1.0, cells, w, 8745 * 16)

    def test_sixty_four_samples_a_chunk_that_starts_eight_cells_into_a_parent_cell(self):
        # 2**21 // 63 = 33,288 cells a chunk, 8 more than a multiple of 32: at
        # 32 cells a parent, the second chunk starts 8 cells into parent 1040
        w, cells = 63, 65536
        chunk = D._SUM_CHUNK_POINTS // w
        assert (chunk // 32, chunk % 32) == (1040, 8)
        bits = np.ones(cells // 32, dtype=bool)
        bits[1041] = False
        bits[1100:1140] = False
        args = (parse("x*x-x^2+1"), 0.0, 1.0, cells, w, bits, chunk)
        got = chunk_passes(one_pass, *args)
        assert got == chunk_passes(reference_pass, *args)
        assert got[2] == [(chunk, False), (cells - chunk - 41 * 32, False)]
        # the second chunk opens with parent 1040's last 24 cells, then 1041's 32
        level = np.frombuffer(got[3], dtype=bool)
        assert level[chunk : chunk + 24].all() and not level[chunk + 24 : chunk + 56].any()
        assert len(got[4]) == 41 * 32  # only the children of uncertified parents are enclosed


# ---------------------------------------------------------------------------
# The group stage: a jumped level's fresh cells enclosed in groups first

E1_RHS = product("x^3", "t*sin(1/t)", 0.0, 2 / math.pi)


class TestGroupStage:
    @settings(max_examples=100, deadline=None)
    @given(text=st.sampled_from([*PASS_FORMULAS, "E1 rhs"]), w=st.sampled_from([15, 63]),
           ratio=st.sampled_from([4, 8, 16, 64]), data=st.data())
    def test_groups_certify_what_their_cells_do(self, text, w, ratio, data):
        # more than 4,096 fresh cells, so at least one of at most two chunks
        # holds more than one enclose call takes; at 4 cells a parent cell a
        # group of at most a quarter of one would be one cell, so none is made
        parents = data.draw(st.integers(4096 // ratio + 1, 12288 // ratio))
        uncertified = data.draw(st.integers(4096 // ratio + 1, parents))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = np.ones(parents, dtype=bool)
        bits[rng.permutation(parents)[:uncertified]] = False
        cells = parents * ratio
        chunk = data.draw(st.integers((cells + 1) // 2, cells))
        f, (a, b) = (E1_RHS, (0.0, 2 / math.pi)) if text == "E1 rhs" else (parse(text), (-1.0, 2.0))
        args = (f, a, b, cells, w, bits, chunk)
        got, want = chunk_passes(one_pass, *args), chunk_passes(reference_pass, *args)
        groups, _ = same_but_groups(got, want, a, b, cells, w, bits)
        if ratio == 4 or got[0] == "raised":
            assert got == want
        else:
            assert groups > 0

    def test_plain_doubling_encloses_as_before(self):
        # 524,288 -> 1,048,576 cells: a ratio of 2 takes no group stage
        f = parse("x+1e-4*sin(1e6*x)")
        got, enclosed, levels = inheriting(f, Interval(0.0, 1.0), 1e-4, CFG64, max_cells=D.CELL_CAP)
        assert levels[-2:] == [(524288, 0), (1048576, 2)] and got[3] == 1048576
        assert enclosed == 1168076

    def test_improper_strips_at_sixteen_samples_enclose_as_before(self):
        enclosed = []

        def counting(tape, lo, hi):
            enclosed.append(len(lo))
            return enclose(tape, lo, hi)

        argv = ["improper", "--f", "x", "--phi", "1/(1+t)", "--alpha", "0", "--beta", "inf",
                "--open-alpha", "--tol", "1e-3", "--inner-tol", "1e-5", "--steps", "20",
                "--samples", "16"]
        with mock.patch.object(D, "enclose", counting), \
                contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        assert code == 0 and json.loads(out.getvalue())["verdict"] == "verified"
        assert sum(enclosed) == 43008

    @pytest.mark.parametrize("text, calls", [
        ("sin(x)^2+cos(x)^2", {16: [1024, 2048, 2048, 2048], 64: [1024] + [2048] * 6}),
        ("x*x-x^2", {16: [1024], 64: [1024]}),
        ("exp(x)*exp(-x)", {16: [1024, 2048, 2048, 2048], 64: [1024] + [2048] * 6}),
    ])
    def test_formulas_that_certify_nothing_make_the_same_calls(self, text, calls):
        # no parent certifies a cell, so no level has fresh cells to group
        for samples, want in calls.items():
            sizes = []

            def counting(tape, lo, hi):
                sizes.append(len(lo))
                return enclose(tape, lo, hi)

            cfg = SamplingConfig(samples_per_cell=samples)
            with mock.patch.object(D, "enclose", counting):
                got, certified = counted(parse(text), Interval(0.0, 1.0), 1e-20, cfg, 2**16)
            assert certified == 0 and sizes == want, samples
