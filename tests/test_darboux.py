import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import sici

from quadratura import darboux as D
from quadratura.approximant import build_approximant
from quadratura.changevar import SubstitutionProblem, rhs_integral
from quadratura.darboux import (
    DarbouxEstimate,
    NonConvergenceError,
    SamplingConfig,
    UndefinedSamplesError,
    compensated_sum,
    infimum_on,
    integrate,
    integrate_signed,
    lower_sum,
    supremum_on,
    upper_sum,
)
from quadratura.expr import parse
from quadratura.partition import Interval, Partition, uniform_partition
from test_approximant import REFERENCE_FORMULAS

EDGES = SamplingConfig(samples_per_cell=2)


class TestInfimum:
    def test_constant(self):
        assert infimum_on(parse("5"), Interval(0.0, 3.0)) == 5.0

    def test_monotone_left_endpoint(self):
        assert infimum_on(parse("x"), Interval(0.25, 0.5)) == 0.25

    def test_supremum_monotone(self):
        assert supremum_on(parse("x"), Interval(0.25, 0.5)) == 0.5

    def test_oscillatory_cell_against_dense_oracle(self):
        f = parse("sin(1/t)")
        cell = Interval(0.01, 0.02)
        cfg = SamplingConfig(samples_per_cell=64)
        got = infimum_on(f, cell, cfg)
        # the sampled value is exactly the 64-point grid minimum
        grid = np.linspace(cell.a, cell.b, 64)
        own = float(np.sin(1.0 / grid).min())
        assert got == own
        assert got >= -1.0
        # dense brute-force oracle: 63 * 16000 + 1 samples
        dense = np.linspace(cell.a, cell.b, 63 * 16000 + 1)
        ys = np.sin(1.0 / dense)
        oracle = float(ys.min())
        assert got >= oracle - 1e-12
        # within one sampling-gap oscillation of the oracle
        per_gap = ys[:-1].reshape(63, 16000)
        osc = float((per_gap.max(axis=1) - per_gap.min(axis=1)).max())
        assert got <= oracle + osc

    def test_degenerate_cell_rejected(self):
        with pytest.raises(ValueError):
            infimum_on(parse("x"), Interval(1.0, 1.0))

    def test_all_undefined_is_error(self):
        with pytest.raises(UndefinedSamplesError):
            infimum_on(parse("sqrt(-1-x^2)"), Interval(0.0, 1.0))

    def test_isolated_undefined_skipped(self):
        # sin(x)/x is undefined only at x = 0
        v = infimum_on(parse("sin(x)/x"), Interval(0.0, 1.0))
        assert abs(v - math.sin(1.0)) < 1e-3

    def test_hints_give_exact_interior_minimum(self):
        f = parse("abs(x-1/2)")
        cell = Interval(0.4999, 0.5002)
        assert infimum_on(f, cell, EDGES, hints=(0.5,)) == 0.0


def reference_cell(f, a, b, cfg, hints):
    """The per-cell rule written out: one cell's grid extrema, then its hints folded in.

    The hints strictly inside (a, b) are taken in ascending order.  One
    replaces the min (max) only when its value is strictly below (above)
    it, so a tie keeps the grid's value and an undefined value is left out.
    """
    ev = D.as_evaluator(f)
    w = cfg.samples_per_cell - 1
    xs = a + ((b - a) / w) * np.arange(w + 1)
    xs[-1] = b
    lo, hi, _ = D._cell_extrema(ev(xs), w)
    lo, hi = float(lo[0]), float(hi[0])
    inside = np.array(sorted(h for h in hints or () if a < h < b), dtype=float)
    for y in (ev(inside) if inside.size else ()):
        if y < lo:
            lo = float(y)
        if y > hi:
            hi = float(y)
    return lo, hi


def cell_outcome(run, *args):
    try:
        lo, hi = run(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return np.asarray(lo, dtype=float).tobytes(), np.asarray(hi, dtype=float).tobytes()


@st.composite
def partition_cases(draw):
    a = draw(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, -0.0]), st.floats(-3.0, 3.0)))
    steps = draw(st.lists(st.floats(1e-6, 1.5), min_size=1, max_size=12))
    pts = np.concatenate([[a], a + np.cumsum(steps)])
    hints = None
    if draw(st.booleans()):
        hints = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["inside", "edge", "outside", "negative", "repeat"]))
            if kind == "inside":
                hints.append(float(pts[0] + draw(st.floats(0.0, 1.0)) * (pts[-1] - pts[0])))
            elif kind == "edge":
                hints.append(float(draw(st.sampled_from(pts.tolist()))))
            elif kind == "outside":
                hints.append(draw(st.sampled_from([pts[0] - 1.0, pts[-1] + 0.5])))
            elif kind == "negative":  # undefined for sqrt(x)
                hints.append(-draw(st.floats(1e-3, 2.0)))
            elif hints:
                hints.append(hints[-1])
    return pts, hints


class TestPartitionForm:
    """infimum_on/supremum_on over a Partition is the per-cell Interval calls, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        text=st.sampled_from(REFERENCE_FORMULAS),
        case=partition_cases(),
        samples=st.sampled_from([2, 8, 64]),
        chunk_points=st.sampled_from([D._CHUNK_POINTS, 5, 64]),
    )
    # an inner edge of -0.0: the cell on its left samples -0.0, the one on its right +0.0
    @example(text="x", case=(np.array([-1.0, -0.0, 1.0]), None), samples=2,
             chunk_points=D._CHUNK_POINTS)
    # a hint on an edge, one inside, a repeat, one outside and one undefined for sqrt
    @example(text="sqrt(x)", case=(np.array([-0.5, 0.25, 0.5, 2.0]), [0.25, 0.3, 0.3, 3.0, -0.2]),
             samples=8, chunk_points=5)
    def test_matches_per_cell_calls_bitwise(self, text, case, samples, chunk_points):
        pts, hints = case
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples)
        cells = list(zip(pts[:-1].tolist(), pts[1:].tolist()))

        def per_cell(bounds):
            pairs = [bounds(a, b) for a, b in cells]
            return [lo for lo, _ in pairs], [hi for _, hi in pairs]

        with np.errstate(all="ignore"):
            written_out = cell_outcome(
                per_cell, lambda a, b: reference_cell(f, a, b, cfg, hints)
            )
            intervals = cell_outcome(per_cell, lambda a, b: (
                infimum_on(f, Interval(a, b), cfg, hints),
                supremum_on(f, Interval(a, b), cfg, hints),
            ))
            with mock.patch.object(D, "_CHUNK_POINTS", chunk_points):
                partition = cell_outcome(lambda: (
                    infimum_on(f, Partition(pts), cfg, hints),
                    supremum_on(f, Partition(pts), cfg, hints),
                ))
        assert intervals == written_out
        assert partition == intervals

    def test_interval_gives_float_partition_gives_array(self):
        f = parse("x^2")
        assert type(infimum_on(f, Interval(1.0, 2.0))) is float
        got = supremum_on(f, Partition(np.array([0.0, 0.5, 2.0])), EDGES)
        assert isinstance(got, np.ndarray) and got.tolist() == [0.25, 4.0]


def hint_rule_outcomes(f, iv, hints):
    """What each entry point that takes hints gives on ``iv``, compared by bits or error."""
    one_cell = Partition(np.array([iv.a, iv.b]))
    runs = {
        "infimum_on": lambda: infimum_on(f, iv, EDGES, hints),
        "supremum_on": lambda: supremum_on(f, one_cell, EDGES, hints).tobytes(),
        "lower_sum": lambda: lower_sum(f, one_cell, EDGES, hints),
        "upper_sum": lambda: upper_sum(f, uniform_partition(iv, 4), EDGES, hints),
        "build_approximant": lambda: build_approximant(f, iv, 4, EDGES, hints).values.tobytes(),
    }
    out = {}
    for name, run in runs.items():
        try:
            out[name] = run()
        except Exception as exc:  # compared by type and message
            out[name] = type(exc), str(exc)
    return out


class TestOneHintRule:
    """A hint strictly inside a cell folds its value into that cell's min and max.

    A tie keeps the grid sample's value and an undefined hint value is left
    out, in every entry point that takes hints.
    """

    def test_undefined_hint_is_left_out(self):
        f = parse("x+(x-0.3)/(x-0.3)")  # undefined at 0.3 only
        iv = Interval(0.0, 1.0)
        got = hint_rule_outcomes(f, iv, [0.3])
        assert got == hint_rule_outcomes(f, iv, None)
        assert not any(isinstance(v, tuple) for v in got.values())
        assert (got["infimum_on"], supremum_on(f, iv, EDGES, [0.3])) == (1.0, 2.0)

    def test_undefined_hint_next_to_undefined_sample_is_left_out(self):
        f = parse("sqrt(x)")
        cell = Interval(-1.0, 1.0)
        assert infimum_on(f, cell, EDGES, hints=[-0.5]) == infimum_on(f, cell, EDGES) == 1.0
        p = Partition(np.array([-1.0, 0.5, 1.0]))
        assert lower_sum(f, p, EDGES, hints=[-0.5]) == lower_sum(f, p, EDGES)

    @pytest.mark.parametrize("text", ["sqrt(0.5-abs(x))", "(x^2-1)/(x^2-1)"])
    def test_defined_hint_does_not_rescue_adjacent_undefined_samples(self, text):
        # both edge samples of [-1, 1] are undefined; the hint at 0 is defined
        f = parse(text)
        iv = Interval(-1.0, 1.0)
        got = hint_rule_outcomes(f, iv, [0.0])
        assert got == hint_rule_outcomes(f, iv, None)
        for name in ("infimum_on", "supremum_on", "lower_sum"):  # the one-cell grids
            assert got[name][0] is UndefinedSamplesError, name
            assert got[name][1].startswith("adjacent undefined samples"), name

    def test_tie_keeps_the_grid_value(self):
        # +0.0 at both edges of [0.4, 0.8], -0.0 at the hint 0.6
        f = parse("0*(x-0.5)*(x-0.7)")
        iv = Interval(0.4, 0.8)
        assert math.copysign(1.0, D.as_evaluator(f)(np.array([0.6]))[0]) == -1.0
        for value in (infimum_on(f, iv, EDGES, [0.6]), supremum_on(f, iv, EDGES, [0.6]),
                      build_approximant(f, iv, 3, EDGES, [0.6]).values[0]):
            assert math.copysign(1.0, value) == 1.0
        assert reference_cell(f, iv.a, iv.b, EDGES, [0.6]) == (0.0, 0.0)

    def test_one_evaluation_for_the_hints(self):
        calls = []

        def traced(xs):
            calls.append(xs.tolist())
            return np.abs(xs - 0.3)

        got = infimum_on(traced, Partition(np.linspace(0.0, 1.0, 9)), EDGES, [0.3, 0.6, 0.3])
        assert calls[-1] == [0.3, 0.3, 0.6] and len(calls) == 2
        assert got[2] == 0.0


class TestArrayHints:
    """Hints given as an ndarray give the bits a list of the same hints gives."""

    @pytest.mark.parametrize("hints", [[0.3, 0.5], [0.5, 0.3, 0.3], []], ids=repr)
    def test_ndarray_matches_list(self, hints):
        f = parse("abs(x-0.3)+abs(x-0.5)")
        iv = Interval(0.0, 1.0)
        p = Partition(np.array([0.0, 0.3, 0.4, 1.0]))
        arr = np.array(hints, dtype=float)

        def results(h):
            g = build_approximant(f, iv, 6, EDGES, h)
            return (
                infimum_on(f, Interval(0.0, 0.45), EDGES, h),
                supremum_on(f, p, EDGES, h).tobytes(),
                lower_sum(f, p, EDGES, h),
                g.knots.tobytes(), g.values.tobytes(),
            )

        assert results(arr) == results(hints)


class TestSumsOfCellExtrema:
    """lower_sum/upper_sum sum the Partition-form cell extrema times the cell widths."""

    @settings(max_examples=150, deadline=None)
    @given(
        text=st.sampled_from(REFERENCE_FORMULAS),
        case=partition_cases(),
        samples=st.sampled_from([2, 8, 64]),
    )
    # one cell where a second grid formula rounded a sample differently
    @example(text="sin(20*x)", case=(np.array([0.73, 0.89]), None), samples=8)
    # a defined hint between two undefined edge samples: both raise
    @example(text="sqrt(0.5-abs(x))", case=(np.array([-1.0, 1.0]), [0.0]), samples=2)
    def test_matches_weighted_extrema(self, text, case, samples):
        pts, hints = case
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples)
        p = Partition(pts)

        def weighted():
            return (
                compensated_sum(infimum_on(f, p, cfg, hints) * p.widths()),
                compensated_sum(supremum_on(f, p, cfg, hints) * p.widths()),
            )

        with np.errstate(all="ignore"):
            sums = cell_outcome(lambda: (lower_sum(f, p, cfg, hints), upper_sum(f, p, cfg, hints)))
            assert sums == cell_outcome(weighted)


class TestSums:
    def test_constant_both_sums(self):
        p = uniform_partition(Interval(2.0, 5.0), 7)
        f = parse("3")
        assert abs(lower_sum(f, p) - 9.0) < 1e-12
        assert abs(upper_sum(f, p) - 9.0) < 1e-12

    def test_identity_quarter_cells(self):
        p = uniform_partition(Interval(0.0, 1.0), 4)
        assert lower_sum(parse("x"), p) == 0.375
        assert upper_sum(parse("x"), p) == 0.625

    def test_identity_formula(self):
        for n in (8, 32, 128):
            p = uniform_partition(Interval(0.0, 1.0), n)
            want = (n - 1) / (2 * n)
            assert abs(lower_sum(parse("x"), p) - want) < 1e-14

    def test_brackets_quarter_pi_over_two(self):
        # smooth positive integrand with a known value
        f = parse("x/(x^4+1)")
        p = uniform_partition(Interval(0.0, 1.0), 2**16)
        cfg = SamplingConfig(samples_per_cell=8)
        lo = lower_sum(f, p, cfg)
        hi = upper_sum(f, p, cfg)
        assert lo <= math.pi / 8.0 <= hi
        assert hi - lo < 5e-5

    def test_refinement_monotonicity_exact(self, battery):
        for b in battery:
            prev_lo, prev_hi = -math.inf, math.inf
            for k in range(4, 11):
                p = uniform_partition(Interval(0.0, 1.0), 2**k)
                lo = lower_sum(b.fn, p, EDGES, hints=b.hints)
                hi = upper_sum(b.fn, p, EDGES, hints=b.hints)
                assert lo >= prev_lo - 1e-12
                assert hi <= prev_hi + 1e-12
                assert lo <= hi
                prev_lo, prev_hi = lo, hi

    def test_refinement_monotonicity_sampled_with_slack(self):
        f = parse("sin(1/t)")
        iv = Interval(0.02, 1.0)
        cfg = SamplingConfig(samples_per_cell=16)
        coarse = uniform_partition(iv, 2**8)
        fine = uniform_partition(iv, 2**9)
        lo_c = lower_sum(f, coarse, cfg)
        lo_f = lower_sum(f, fine, cfg)
        # sampled infima within one cell can move either way; allow
        # twice the largest per-cell oscillation as slack
        dense = np.sin(1.0 / np.linspace(iv.a, iv.b, 2**8 * 256 + 1)[:-1]).reshape(2**8, 256)
        osc = float((dense.max(axis=1) - dense.min(axis=1)).max())
        assert lo_f >= lo_c - 2.0 * osc

    def test_lipschitz_gap_bound(self, battery):
        iv = Interval(0.0, 1.0)
        for b in battery:
            if b.lipschitz is None:
                continue
            for n in (16, 256):
                p = uniform_partition(iv, n)
                gap = upper_sum(b.fn, p, EDGES, hints=b.hints) - lower_sum(
                    b.fn, p, EDGES, hints=b.hints
                )
                assert gap <= b.lipschitz * iv.width * p.norm * (1 + 1e-9) + 1e-15


class TestIntegrate:
    def test_linear(self):
        est = integrate(parse("x"), Interval(0.0, 1.0), 1e-6, EDGES)
        assert est.width <= 1e-6
        assert est.lower <= 0.5 <= est.upper

    def test_smooth_rational_brackets_pi_over_8(self):
        est = integrate(parse("x/(x^4+1)"), Interval(0.0, 1.0), 1e-6, EDGES)
        assert est.lower <= math.pi / 8.0 <= est.upper
        assert est.width <= 1e-6

    def test_cubic_brackets_four_over_pi_fourth(self):
        est = integrate(parse("x^3"), Interval(0.0, 2.0 / math.pi), 1e-7, EDGES)
        want = 4.0 / math.pi**4
        assert est.lower <= want <= est.upper
        assert est.width <= 1e-7

    def test_isolated_singularity_skipped(self):
        est = integrate(parse("sin(x)/x"), Interval(0.0, 1.0), 1e-6, EDGES)
        si1 = float(sici(1.0)[0])
        assert abs(est.midpoint - si1) < 1e-6

    def test_nonconvergence_carries_bracket(self):
        with pytest.raises(NonConvergenceError) as exc:
            integrate(parse("x^2"), Interval(0.0, 1.0), 1e-13, EDGES, max_cells=2**14)
        est = exc.value.estimate
        assert est.cells == 2**14
        assert est.lower <= 1.0 / 3.0 <= est.upper

    def test_adjacent_undefined_region_fails(self):
        with pytest.raises(UndefinedSamplesError):
            integrate(parse("log(x-1/2)"), Interval(0.0, 1.0), 1e-6, EDGES)

    def test_unbounded_integrand_does_not_converge(self):
        with pytest.raises(NonConvergenceError):
            integrate(
                parse("1/sqrt(x)"), Interval(0.0, 1.0), 1e-6, EDGES, max_cells=2**14
            )

    def test_overflowing_sum_fails_fast(self):
        # exp(x) on [0, 1000]: finite samples whose sum overflows, then inf
        with pytest.raises(NonConvergenceError, match="not finite") as exc:
            integrate(parse("exp(x)"), Interval(0.0, 1000.0), 1e-6, EDGES)
        est = exc.value.estimate
        assert est.cells == 2**10
        assert est.upper == math.inf

    def test_opposite_infinite_cells_fail_fast(self):
        # samples saturate to -inf on the left and +inf on the right
        with pytest.raises(NonConvergenceError, match="not finite") as exc:
            integrate(parse("exp(x)-exp(-x)"), Interval(-1000.0, 1000.0), 1e-6, EDGES)
        assert math.isnan(exc.value.estimate.width)

    def test_non_finite_width_stops_at_first_level(self):
        # every sample is finite, but the cell sums overflow; doubling keeps
        # every sample point, so no later level could be finite
        with pytest.raises(NonConvergenceError, match="not finite") as exc:
            integrate(parse("x"), Interval(0.0, 1e300), 1e-6, EDGES)
        assert exc.value.estimate.cells == 2**10
        assert not math.isfinite(exc.value.estimate.width)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            integrate(parse("x"), Interval(0.0, 1.0), 0.0)
        # NaN as well, for which tol <= 0 is False
        with pytest.raises(ValueError, match="tolerance must be positive, got nan"):
            integrate(parse("x"), Interval(0.0, 1.0), math.nan)

    def test_deterministic(self):
        a = integrate(parse("exp(-x^2)"), Interval(0.0, 2.0), 1e-6, EDGES)
        b = integrate(parse("exp(-x^2)"), Interval(0.0, 2.0), 1e-6, EDGES)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_dense_sampling_matches_edges_for_monotone(self):
        dense = SamplingConfig(samples_per_cell=9)
        a = integrate(parse("x^2"), Interval(0.0, 1.0), 1e-4, EDGES)
        b = integrate(parse("x^2"), Interval(0.0, 1.0), 1e-4, dense)
        assert abs(a.midpoint - b.midpoint) < 1e-4


class TestOrientation:
    def test_reversal_negates_exactly(self):
        fwd = integrate_signed(parse("x/(x^4+1)"), 0.0, 1.0, 1e-5, EDGES)
        rev = integrate_signed(parse("x/(x^4+1)"), 1.0, 0.0, 1e-5, EDGES)
        assert rev.lower == -fwd.upper
        assert rev.upper == -fwd.lower

    def test_degenerate_is_zero(self):
        est = integrate_signed(parse("x"), 2.0, 2.0, 1e-6)
        assert est.lower == est.upper == 0.0
        assert est.cells == 0


class TestEstimateType:
    def test_bracket_order_enforced(self):
        with pytest.raises(ValueError):
            DarbouxEstimate(1.0, 0.0, 0.1, 4)

    def test_midpoint_width(self):
        est = DarbouxEstimate(1.0, 3.0, 0.5, 2)
        assert est.midpoint == 2.0
        assert est.width == 2.0

    def test_negation(self):
        est = DarbouxEstimate(1.0, 3.0, 0.5, 2, levels=3, swept=14)
        neg = -est
        assert (neg.lower, neg.upper) == (-3.0, -1.0)
        assert (neg.levels, neg.swept) == (3, 14)

    def test_counts_default_to_zero(self):
        est = DarbouxEstimate(1.0, 3.0, 0.5, 2)
        assert (est.levels, est.swept) == (0, 0)


class TestCompensatedSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-1.0, 1.0, 100_000) * 10.0 ** rng.integers(-8, 8, 100_000)
        got = compensated_sum(vals)
        want = math.fsum(vals)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    def test_small_arrays_exact(self):
        vals = np.array([1e16, 1.0, -1e16, 1.0])
        assert compensated_sum(vals) == 2.0

    def test_overflow_gives_signed_infinity(self):
        assert compensated_sum(np.array([1e308, 1e308])) == math.inf
        assert compensated_sum(np.array([-1e308, -1e308])) == -math.inf
        assert compensated_sum(np.full(10_000, 1e305)) == math.inf

    def test_intermediate_overflow_gives_the_exact_sum(self):
        # math.fsum raises when a partial sum overflows, though these sums are finite
        assert compensated_sum([1e308, 1e308, -1e308]) == 1e308
        assert compensated_sum([1e308, -1e308, 1e308, 1e308, -1e308, -1e308, -1e308]) == -1e308
        assert compensated_sum([1e308, 1e308, -math.inf]) == -math.inf
        assert math.isnan(compensated_sum([1e308, 1e308, math.nan]))
        assert math.isnan(compensated_sum([1e308, 1e308, math.inf, -math.inf]))

    @staticmethod
    def exact_sum(values):
        """The sum of the terms as a Fraction, correctly rounded; +-inf out of range."""
        total = sum(map(Fraction, values), Fraction(0))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf

    @settings(max_examples=200, deadline=None)
    @given(terms=st.lists(st.one_of(
               st.floats(0.5e308, 1.7976931348623157e308).map(lambda x: x * (-1) ** int(x % 2)),
               st.sampled_from([1e308, -1e308, 8.98846567431158e307, 1.0, -3.5e300, 5e-324]),
               st.floats(-1e300, 1e300)), min_size=1, max_size=40),
           copies=st.sampled_from([1, 3, 100]))
    def test_huge_terms_match_the_exact_sum(self, terms, copies):
        values = np.array(terms * copies)[: D._FSUM_BLOCK]
        want = self.exact_sum(values.tolist()).hex()
        assert D._fsum(values.tolist()).hex() == want
        assert compensated_sum(values).hex() == want

    def test_opposite_infinities_give_nan(self):
        assert math.isnan(compensated_sum(np.array([math.inf, -math.inf])))
        both_in_one_block = np.zeros(4097)
        both_in_one_block[:2] = math.inf, -math.inf
        with np.errstate(all="raise"):  # and numpy warns of nothing
            assert math.isnan(compensated_sum(both_in_one_block))

    @staticmethod
    def array_path(values):
        """compensated_sum with fsum iterating the numpy arrays themselves."""
        values = np.asarray(values, dtype=float)
        if values.size <= 4096:
            return D._fsum(values)
        starts = np.arange(0, values.size, 4096)
        with np.errstate(over="ignore", invalid="ignore"):
            return D._fsum(np.add.reduceat(values, starts))

    @settings(max_examples=200, deadline=None)
    @given(size=st.sampled_from((0, 1, 2, 4095, 4096, 4097, 8192, 8193, 12289)),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from((1.0, 1e-300, 1e300, 1e308, -0.0)),
           specials=st.lists(st.tuples(st.integers(0, 2**14), st.sampled_from(
               (1e308, -1e308, math.inf, -math.inf, math.nan, -0.0, 5e-324))), max_size=6))
    # one whole fsum block, and one block plus a single term
    @example(size=4096, seed=0, scale=1.0, specials=[])
    @example(size=4097, seed=0, scale=1.0, specials=[(4096, 1e16)])
    # partial sums of +-1e308 overflow each way, within a block and across two
    @example(size=4096, seed=0, scale=1.0, specials=[(0, 1e308), (1, 1e308)])
    @example(size=4097, seed=0, scale=1.0, specials=[(0, -1e308), (4096, -1e308)])
    @example(size=4097, seed=0, scale=1e308, specials=[])
    @example(size=4097, seed=0, scale=1.0, specials=[(0, math.inf), (4096, -math.inf)])
    @example(size=4096, seed=0, scale=1.0, specials=[(7, math.nan)])
    @example(size=4097, seed=0, scale=-0.0, specials=[])
    def test_matches_array_path(self, size, seed, scale, specials):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, size) * scale
        for i, v in specials:
            if size:
                values[i % size] = v
        got, want = compensated_sum(values), self.array_path(values)
        assert (math.isnan(got) and math.isnan(want)) or (
            np.float64(got).view(np.int64) == np.float64(want).view(np.int64)
        ), (got, want)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=50_000)
        assert compensated_sum(vals) == compensated_sum(vals.copy())

    # Sizes around the kernel's limits (4096 terms, 2**k - 1 of them), and the
    # 3 * 2**13 + 1 trapezoid areas of integrate_pl at level 13.
    KERNEL_SIZES = (0, 1, 2, 63, 64, 65, 1024, 4095, 4096, 24577)
    KINDS = ("spread", "cancel", "ties", "subnormal", "zeros", "special", "overflow",
             "one-sign", "residual-bound", "wide", "to-zero")

    @staticmethod
    def terms(kind, size, rng):
        if size == 0:
            return np.zeros(0)
        if kind == "spread":  # exponents from 1e-300 to 1e300
            return rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
        if kind == "cancel":  # v and -v shuffled, plus one 2**-60
            v = rng.uniform(-1.0, 1.0, (size - 1) // 2) * 10.0 ** rng.uniform(-20.0, 20.0, (size - 1) // 2)
            x = np.concatenate([v, -v, [2.0**-60], np.zeros(size - 1 - 2 * v.size)])[:size]
            return rng.permutation(x)
        if kind == "ties":  # sums halfway between two floats, some pushed off the tie
            x = rng.choice([2.0**-53, -(2.0**-53), 2.0**-54, 3 * 2.0**-54, 2.0**-106, 0.0], size)
            x[0] = rng.choice([1.0, 1.0 + 2.0**-52])
            return x
        if kind == "subnormal":
            return rng.integers(-(2**20), 2**20, size) * 5e-324
        if kind == "zeros":
            return rng.choice([0.0, -0.0], size)
        if kind == "special":
            x = rng.normal(size=size)
            x[rng.integers(0, size, 3)] = rng.choice([math.inf, -math.inf, math.nan], 3)
            return x
        if kind == "overflow":  # terms near 1e308 whose partial sums overflow
            return rng.uniform(0.9, 1.0, size) * 1e308 * rng.choice([1.0, -1.0], size, p=[0.7, 0.3])
        if kind == "one-sign":  # partial sums near the bound of the first extraction
            return rng.uniform(0.5, 1.0, size) * rng.choice([1.0, -1.0, 3e-310, 3e200])
        if kind == "wide":  # terms spanning 2**40 to 2**120: more than two extractions
            span = rng.choice([40, 60, 120])
            return rng.uniform(-1.0, 1.0, size) * 2.0 ** rng.integers(-span, 1, size)
        if kind == "to-zero":  # v and -v shuffled: the exact sum is zero
            v = rng.uniform(-1.0, 1.0, size // 2) * 2.0 ** rng.integers(-60, 60, size // 2)
            return rng.permutation(np.concatenate([v, -v, np.zeros(size % 2)]))
        # residuals near the bound of the second extraction, 0.75 - 0.75 cancelling
        x = rng.uniform(0.9, 1.0, size) * 2.0 ** (size.bit_length() - 53)
        x *= rng.choice([1.0, -0.5], size, p=[0.97, 0.03])
        x[:2] = [0.75, -0.75][:size]
        return x

    @staticmethod
    def assert_fsum_bits(got, values):
        """``got`` is math.fsum(values) in every bit, sign of zero included.

        Where math.fsum raises, the sum is ``_fsum``'s: +-inf on overflow,
        NaN for inf - inf.
        """
        try:
            want = math.fsum(values.tolist())
        except (OverflowError, ValueError):
            want = D._fsum(values.tolist())
        assert float.hex(got) == float.hex(want), (got, want)

    @settings(max_examples=300, deadline=None)
    @given(size=st.sampled_from(KERNEL_SIZES), kind=st.sampled_from(KINDS),
           other=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    @example(size=4096, kind="zeros", other="zeros", seed=0)
    @example(size=64, kind="one-sign", other="residual-bound", seed=1)
    @example(size=63, kind="residual-bound", other="spread", seed=1)
    def test_kernel_is_fsum_bitwise(self, size, kind, other, seed):
        rng = np.random.default_rng(seed)
        values = self.terms(kind, size, rng)
        self.assert_fsum_bits(D.fsum_rows(values[None])[0], values)
        # the blocked sum, in blocks of 4096, and with more cuts at random
        grid = [*range(0, size, D._FSUM_BLOCK), size]
        for ends in (grid, sorted({*grid, *rng.integers(0, size + 1, 3).tolist()})):
            def blocks():
                for s, t in zip(ends[:-1], ends[1:]):
                    yield values[s:t].copy()  # overwritten in place
            with np.errstate(over="ignore", invalid="ignore"):
                self.assert_fsum_bits(D.fsum_blocks(blocks), values)
        if size > D._FSUM_BLOCK:
            return
        self.assert_fsum_bits(compensated_sum(values), values)
        rows = np.stack([values, rng.permutation(values), self.terms(other, size, rng), -values])
        for got, row in zip(compensated_sum(rows), rows):
            self.assert_fsum_bits(got, row)

    @example(size=24577, kind="wide", other="zeros", seed=3)
    @example(size=4096, kind="to-zero", other="zeros", seed=4)
    @example(size=8192, kind="overflow", other="zeros", seed=5)
    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(KERNEL_SIZES), kind=st.sampled_from(KINDS),
           other=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1))
    def test_blocks_are_extracted_in_place(self, size, kind, other, seed):
        values = self.terms(kind, size, np.random.default_rng(seed))
        buffer = np.empty(D._FSUM_BLOCK)

        def blocks():  # one buffer for every block
            for s in range(0, size, D._FSUM_BLOCK):
                block = buffer[: min(D._FSUM_BLOCK, size - s)]
                block[...] = values[s : s + D._FSUM_BLOCK]
                yield block

        with np.errstate(over="ignore", invalid="ignore"):
            self.assert_fsum_bits(D.fsum_blocks(blocks), values)

    def test_wide_rows_leave_no_residual_to_fsum(self, monkeypatch):
        # terms spanning 2**60: after two extractions most were left as
        # residuals for fsum; a third leaves none
        rng = np.random.default_rng(5)
        rows = rng.uniform(0.5, 1.0, (2, 1024)) * 2.0 ** rng.integers(-60, 1, (2, 1024))
        fsum, seen = D._fsum, []
        monkeypatch.setattr(D, "_fsum", lambda values: seen.append(len(values)) or fsum(values))
        got = D.fsum_rows(rows)
        assert seen == [3, 3]
        for g, row in zip(got, rows):
            self.assert_fsum_bits(g, row)
        seen.clear()
        got = D.fsum_blocks(lambda: (row.copy() for row in rows))
        assert seen == [6]
        self.assert_fsum_bits(got, rows.ravel())

    def test_extraction_stops_where_sigma_leaves_the_normal_range(self):
        # terms from 2**-930 down to 2**-1074: a third extraction's sigma / 2
        # would be subnormal, so the residuals left after two go to fsum, and
        # the subnormal sum keeps their last bit
        for values in ([2.0**-930, -(2.0**-1000), 3 * 2.0**-1070, 2.0**-1074],
                       [2.0**-930, -(2.0**-930), 2.0**-1028, 2.0**-1074]):
            values = np.array(values)
            self.assert_fsum_bits(D.fsum_rows(values[None])[0], values)
            self.assert_fsum_bits(D.fsum_blocks(lambda: [values.copy()]), values)

    def test_all_negative_zeros_keep_fsum_sign(self):
        for values in (np.full(3, -0.0), np.array([[-0.0, -0.0], [1.0, -1.0]])):
            got = compensated_sum(values)
            for g, row in zip(np.atleast_1d(got), np.atleast_2d(values)):
                self.assert_fsum_bits(float(g), row)

    def test_scalar_is_one_term(self):
        assert compensated_sum(3.0) == 3.0
        got = compensated_sum(np.float64(2.0))
        assert got == 2.0 and type(got) is float

    def test_rows_give_one_sum_each(self):
        assert compensated_sum([[1.0, 2.0], [3.0, 4.0]]) == [3.0, 7.0]
        assert compensated_sum(np.zeros((3, 0))) == [0.0, 0.0, 0.0]
        assert compensated_sum(np.zeros((0, 5))) == []
        values = np.random.default_rng(6).normal(size=(2, 5000))  # blocks of 4096, per row
        assert compensated_sum(values) == [compensated_sum(row) for row in values]

    def test_rows_with_a_special_row(self):
        rows = np.array([[1.0, math.inf, 2.0], [1e16, 1.0, -1e16], [math.nan, 0.0, 1.0]])
        got = compensated_sum(rows)
        assert got[:2] == [math.inf, 1.0] and math.isnan(got[2])

    @pytest.mark.parametrize("shape", [(2, 2, 2), (1, 1, 1, 1)])
    def test_other_shapes_raise(self, shape):
        with pytest.raises(ValueError, match="scalar, a row or rows"):
            compensated_sum(np.zeros(shape))


def extrema_by_reduction(ys, w):
    """_cell_extrema's rule written out: each cell's body reduced, then its right edge."""
    ys = ys.copy()
    mask = np.isnan(ys)
    if (mask[:-1] & mask[1:]).any():
        raise UndefinedSamplesError("adjacent undefined samples")
    ys[mask] = np.inf
    lo = np.minimum(ys[:-1].reshape(-1, w).min(axis=1), ys[w::w])
    ys[mask] = -np.inf
    hi = np.maximum(ys[:-1].reshape(-1, w).max(axis=1), ys[w::w])
    return lo, hi, (np.flatnonzero(mask) if mask.any() else None)


class TestCellExtremaAtTwoSamples:
    """At w = 1, _cell_extrema takes the two edges of each cell without a reduction."""

    CASES = {
        "isolated NaN": [1.0, math.nan, 3.0, -2.0, math.nan],
        "adjacent NaNs": [1.0, math.nan, math.nan, 2.0],
        "signed zero ties": [0.0, -0.0, 0.0, -0.0, -0.0, 0.0],
        "infinities": [math.inf, -math.inf, 1.0, math.inf, math.nan, -math.inf],
        "one cell": [2.0, -1.0],
    }

    @staticmethod
    def bits(a):
        return None if a is None else np.asarray(a).tobytes()

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("given_out", [False, True])
    def test_matches_reduction_bitwise(self, name, given_out):
        ys = np.array(self.CASES[name])
        kept = ys.copy()
        try:
            want = extrema_by_reduction(ys, 1)
        except UndefinedSamplesError:
            with pytest.raises(UndefinedSamplesError):
                D._cell_extrema(ys, 1)
            return
        # views into a caller's (lo, hi) rows, as _uniform_sums passes them
        pair = np.full((2, ys.size + 1), 7.0)
        lo, hi = (pair[0, 1:-1], pair[1, 1:-1]) if given_out else (None, None)
        got = D._cell_extrema(ys, 1, lo, hi)
        assert [self.bits(g) for g in got] == [self.bits(v) for v in want]
        assert ys.tobytes() == kept.tobytes()  # masked in place and restored
        if given_out:
            assert got[0] is lo and got[1] is hi
            assert pair[:, [0, -1]].tolist() == [[7.0, 7.0], [7.0, 7.0]]

    @settings(max_examples=100, deadline=None)
    @given(ys=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]),
                       min_size=2, max_size=40),
           w=st.sampled_from([1, 1, 2, 3]))
    def test_random_samples(self, ys, w):
        ys = np.array(ys[: 1 + (len(ys) - 1) // w * w])
        if ys.size < 2:
            return
        try:
            want = extrema_by_reduction(ys, w)
        except UndefinedSamplesError:
            with pytest.raises(UndefinedSamplesError):
                D._cell_extrema(ys, w)
            return
        got = D._cell_extrema(ys, w)
        assert [self.bits(g) for g in got] == [self.bits(v) for v in want]


class TestSamplingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(samples_per_cell=1)


class TestWorkCounts:
    def test_closed_estimate_counts_its_levels(self):
        # E1's rhs: x^3 over t*sin(1/t), 64 samples per cell
        p = SubstitutionProblem(f=parse("x^3"), phi=parse("t*sin(1/t)"), alpha=0.0,
                                beta=2.0 / math.pi)
        est = rhs_integral(p, 1e-5, SamplingConfig(samples_per_cell=64))
        doubling = est.cells.bit_length() - D.START_CELLS.bit_length() + 1
        assert est.levels < doubling
        assert D.START_CELLS + est.cells <= est.swept < 2 * est.cells

    def test_nonconvergence_estimate_carries_counts(self):
        with pytest.raises(NonConvergenceError) as exc:
            integrate(parse("x^2"), Interval(0.0, 1.0), 1e-13, EDGES, max_cells=2**14)
        est = exc.value.estimate
        assert est.cells == 2**14
        assert 2 <= est.levels <= 5 and est.swept >= 2**10 + 2**14

    def test_reversed_interval_carries_counts(self):
        fwd = integrate_signed(parse("x^2"), 0.0, 1.0, 1e-6, EDGES)
        rev = integrate_signed(parse("x^2"), 1.0, 0.0, 1e-6, EDGES)
        assert fwd.levels > 0 and (rev.levels, rev.swept) == (fwd.levels, fwd.swept)


def plain_doubling(f, iv, tol, cfg, max_cells, start_cells):
    """The refinement rule without level skipping: N, 2N, 4N, ... up to the cap."""
    ev = D.as_evaluator(f)
    cells = min(start_cells, max_cells)
    while True:
        lower, upper = D._uniform_sums(ev, iv.a, iv.b, cells, cfg)[:2]
        est = DarbouxEstimate(lower, upper, iv.width / cells, cells)
        gap = upper - lower
        if not math.isfinite(gap):
            raise NonConvergenceError(
                f"sum is not finite: bracket [{lower:.3g}, {upper:.3g}] at {cells} cells", est
            )
        if gap <= tol:
            return est
        if cells >= max_cells:
            raise NonConvergenceError(
                f"bracket width {gap:.3g} > tol {tol:.3g} at {cells} cells", est
            )
        cells = min(cells * 2, max_cells)


def integrate_outcome(run, *args, **kwargs):
    def bits(est):
        return est.lower.hex(), est.upper.hex(), est.norm.hex(), est.cells

    try:
        return bits(run(*args, **kwargs))
    except NonConvergenceError as exc:
        return type(exc), str(exc), bits(exc.estimate)
    except UndefinedSamplesError as exc:
        return type(exc), str(exc)


# Isolated holes across 0 (x/x, sin(x)/x, a jump with a hole), a band of
# adjacent undefined samples, poles with finite, overflowing and infinite
# samples, sin(1/x), a kink, and a huge offset.
SKIP_FORMULAS = (
    "x/x", "sin(x)/x", "x/abs(x)", "sqrt(x^2-0.0001)", "1/(x-0.3)", "1e300/(x-0.3)",
    "exp(1/x)", "sin(1/x)", "abs(x-1/3)^0.01", "1e6+sin(200*x)",
)
SKIP_CAP = 50_000


@st.composite
def skip_cases(draw):
    text = draw(st.sampled_from(SKIP_FORMULAS))
    a = draw(st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.1]), st.floats(-1.5, 0.5)))
    b = a + draw(st.one_of(st.sampled_from([1.0, 1.3, 2.0]), st.floats(0.1, 3.0)))
    samples = draw(st.sampled_from([2, 3, 8, 64]))
    start = draw(st.sampled_from([3, 7]))
    tol = 10.0 ** draw(st.floats(-9.0, -2.0))
    return text, a, b, samples, start, tol


class TestLevelSkipping:
    """integrate skips levels that cannot close, yet ends as plain doubling does."""

    @settings(max_examples=100, deadline=None)
    @given(case=skip_cases())
    # gap cancellation under |lower| = 1e9: fails without the absolute margin
    @example(case=("1e9+sin(20*x)", 0.0, 1.0, 2, 3, float.fromhex("0x1.1378p-10")))
    # a hole on a skipped level's edge splits the jump: fails without the fallback
    @example(case=("x/abs(x)", -1.0, 1.0, 64, 3, 1e-3))
    def test_matches_plain_doubling_bitwise(self, case):
        text, a, b, samples, start, tol = case
        f, iv, cfg = parse(text), Interval(a, b), SamplingConfig(samples_per_cell=samples)
        with np.errstate(all="ignore"):
            want = integrate_outcome(plain_doubling, f, iv, tol, cfg, SKIP_CAP, start)
            got = integrate_outcome(
                integrate, f, iv, tol, cfg, max_cells=SKIP_CAP, start_cells=start
            )
        assert got == want


def whole_chunk_sums(ev, a, b, cells, cfg, tape=None, parent=None):
    """``_uniform_sums`` with each summation chunk sampled and evaluated at once.

    Every cell is sampled, so ``tape`` and ``parent`` go unused and nothing
    is certified.
    """
    w = cfg.samples_per_cell - 1
    step = (b - a) / (cells * w)
    dx = (b - a) / cells
    lo_parts, hi_parts = [], []
    magnitude, holes = 0.0, False
    cells_per_chunk = max(1, D._SUM_CHUNK_POINTS // w)
    for c0 in range(0, cells, cells_per_chunk):
        c1 = min(cells, c0 + cells_per_chunk)
        xs = np.arange(c0 * w, c1 * w + 1, dtype=float) * step + a
        if c1 == cells:
            xs[-1] = b
        lo, hi, undefined = D._cell_extrema(ev(xs), w)
        if undefined is not None:
            undefined += c0 * w
            holes = holes or bool(((undefined > 0) & (undefined < cells * w)).any())
        lo_parts.append(compensated_sum(lo))
        hi_parts.append(compensated_sum(hi))
        magnitude += float(np.abs(lo).sum() + np.abs(hi).sum())
    return D._fsum(lo_parts) * dx, D._fsum(hi_parts) * dx, magnitude * dx, holes, None


def sums_outcome(run, *args):
    try:
        lower, upper, magnitude, holes, certified = run(*args)
    except UndefinedSamplesError as exc:
        return type(exc), str(exc)
    return lower.hex(), upper.hex(), magnitude.hex(), holes, certified


def counted_outcome(run, *args, **kwargs):
    """``integrate_outcome`` with the work counts of the estimate."""
    try:
        est, head = run(*args, **kwargs), ()
    except NonConvergenceError as exc:
        est, head = exc.estimate, (type(exc), str(exc))
    except UndefinedSamplesError as exc:
        return type(exc), str(exc)
    return (*head, est.lower.hex(), est.upper.hex(), est.norm.hex(), est.cells,
            est.levels, est.swept)


def sample_at(a, b, cells, w, i):
    """The grid point ``_uniform_sums`` samples as global index i."""
    return b if i == cells * w else float(i) * ((b - a) / (cells * w)) + a


@st.composite
def block_cases(draw):
    """A level whose undefined points sit on evaluation-block and summation-chunk edges."""
    samples = draw(st.sampled_from([2, 3, 8, 17, 64]))
    w = samples - 1
    chunk_points = draw(st.sampled_from([17, 100, D._CHUNK_POINTS]))
    sum_points = draw(st.sampled_from([D._SUM_CHUNK_POINTS, 64, 333]))
    a = draw(st.sampled_from([0.0, -1.0, 0.1, -0.3]))
    b = a + draw(st.sampled_from([1.0, 2.5, 0.7]))
    cells = draw(st.integers(1, 1500))
    per_block = max(1, (chunk_points - 1) // w)
    per_sum = max(1, sum_points // w)
    edges = {0, cells * w}
    for c0 in range(0, cells, per_sum):
        edges.update(range(c0 * w, min(cells, c0 + per_sum) * w, per_block * w))
    edges = sorted(edges)
    bad = set()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from(edges)) if draw(st.booleans()) else draw(
            st.integers(0, cells * w))
        kind = draw(st.sampled_from(["isolated", "pair-left", "pair-right"]))
        span = {"isolated": (i,), "pair-left": (i - 1, i), "pair-right": (i, i + 1)}[kind]
        bad.update(sample_at(a, b, cells, w, j) for j in span if 0 <= j <= cells * w)
    return samples, chunk_points, sum_points, a, b, cells, sorted(bad)


def block_integrand(bad, sizes):
    """abs(sin(7x)) with NaN at the points ``bad``, recording each call's size."""
    bad = np.asarray(bad, dtype=float)

    def f(xs):
        sizes.append(xs.size)
        return np.where(np.isin(xs, bad), np.nan, np.abs(np.sin(7.0 * xs)))

    return f


class TestEvaluationBlocks:
    """integrate samples, evaluates and reduces blocks of at most _CHUNK_POINTS samples.

    Its sums, errors and counts are those of sampling each summation chunk
    of _SUM_CHUNK_POINTS samples at once, bit for bit.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=block_cases())
    # an isolated undefined sample on the first block edge (17 points, 16 gaps)
    @example(case=(2, 17, D._SUM_CHUNK_POINTS, 0.0, 1.0, 100,
                   [sample_at(0.0, 1.0, 100, 1, 16)]))
    # adjacent undefined samples on each side of that edge
    @example(case=(3, 17, D._SUM_CHUNK_POINTS, 0.0, 1.0, 100,
                   [sample_at(0.0, 1.0, 100, 2, i) for i in (15, 16)]))
    @example(case=(3, 17, D._SUM_CHUNK_POINTS, 0.0, 1.0, 100,
                   [sample_at(0.0, 1.0, 100, 2, i) for i in (16, 17)]))
    # an undefined sample at b, in the last of several blocks, is not a hole
    @example(case=(2, 17, D._SUM_CHUNK_POINTS, 0.0, 1.0, 100, [1.0]))
    def test_level_matches_whole_chunks(self, case):
        samples, chunk_points, sum_points, a, b, cells, bad = case
        cfg = SamplingConfig(samples_per_cell=samples)
        sizes = []
        f = D.as_evaluator(block_integrand(bad, sizes))
        with mock.patch.object(D, "_CHUNK_POINTS", chunk_points), \
                mock.patch.object(D, "_SUM_CHUNK_POINTS", sum_points), np.errstate(all="ignore"):
            want = sums_outcome(whole_chunk_sums, f, a, b, cells, cfg)
            sizes.clear()
            got = sums_outcome(D._uniform_sums, f, a, b, cells, cfg)
        assert got == want
        assert max(sizes) <= max(chunk_points, samples)

    @settings(max_examples=60, deadline=None)
    @given(case=block_cases(), start=st.sampled_from([3, 7]),
           tol=st.floats(-7.0, -2.0).map(lambda e: 10.0**e))
    def test_integrate_matches_whole_chunks(self, case, start, tol):
        samples, chunk_points, sum_points, a, b, cells, bad = case
        cfg = SamplingConfig(samples_per_cell=samples)
        f = block_integrand(bad, [])
        args = (f, Interval(a, b), tol, cfg)
        kwargs = dict(max_cells=4 * cells, start_cells=start)
        with mock.patch.object(D, "_CHUNK_POINTS", chunk_points), \
                mock.patch.object(D, "_SUM_CHUNK_POINTS", sum_points), np.errstate(all="ignore"):
            with mock.patch.object(D, "_uniform_sums", whole_chunk_sums):
                want = counted_outcome(integrate, *args, **kwargs)
            got = counted_outcome(integrate, *args, **kwargs)
        assert got == want

    def test_default_sizes_across_chunk_edges(self):
        # 65,536 cells of 63 gaps: blocks of 130 cells, summation chunks of 33,288
        a, b, cells, w = 0.0, 1.0, 65536, 63
        at = [33288 * w, 130 * w, 33280 * w, 65530 * w]  # chunk edge, block edges
        bad = [sample_at(a, b, cells, w, i) for i in at]
        sizes = []
        f = D.as_evaluator(block_integrand(bad, sizes))
        cfg = SamplingConfig(samples_per_cell=64)
        with np.errstate(all="ignore"):
            want = sums_outcome(whole_chunk_sums, f, a, b, cells, cfg)
            sizes.clear()
            got = sums_outcome(D._uniform_sums, f, a, b, cells, cfg)
        assert got == want and got[3] is True
        assert max(sizes) <= D._CHUNK_POINTS
        # one more point for each of the 505 block edges inside the level
        assert sum(sizes) == cells * w + 1 + 505

    def test_sampling_stops_at_the_block_that_raised(self):
        # 2**14 + 1 samples span three blocks; the first one raises
        sizes = []

        def f(xs):
            sizes.append(xs.size)
            return np.full_like(xs, np.nan)

        with pytest.raises(UndefinedSamplesError):
            D._uniform_sums(D.as_evaluator(f), 0.0, 1.0, 2**14, EDGES)
        assert sizes == [D._CHUNK_POINTS]

    def test_e1_level_memory(self):
        # E1's rhs integrand at 64 samples: 2**16 cells are 4.1 M samples
        f = parse("(t*sin(1/t))^3*(sin(1/t)-cos(1/t)/t)")
        iv = Interval(0.0, 2.0 / math.pi)
        cfg = SamplingConfig(samples_per_cell=64)

        def level():
            return integrate(f, iv, 1.0, cfg, start_cells=2**16)

        level()  # compile the tape first
        tracemalloc.start()
        try:
            est = level()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.cells == 2**16 and est.levels == 1
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_level_holds_one_chunk_of_extrema(self, monkeypatch):
        # four summation chunks of 2**17 cells at 2 samples: lo and hi are 1 MB each
        monkeypatch.setattr(D, "_SUM_CHUNK_POINTS", 2**17)
        ev = D.as_evaluator(parse("x/(1+x)"))
        D._uniform_sums(ev, 0.0, 1.0, 2**10, EDGES)  # compile the tape first
        tracemalloc.start()
        try:
            D._uniform_sums(ev, 0.0, 1.0, 2**19, EDGES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two chunks' lo and hi alive at once would be 4 MB
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.2f} MB"


# float.hex of (lower_sum, upper_sum) on UNIFORM_16, the same on IRREGULAR,
# integrate's (lower, upper) on [0, 1] at tol 2e-4 (unhinted rows only:
# integrate takes no hints) and (infimum_on, supremum_on) on PIN_CELL, keyed
# by (formula, samples, hinted, cells that integrate stops at).  The formulas use arithmetic only, no libm call, so
# the bits do not depend on the CPU; the third has an isolated undefined
# point at 0.5, a grid edge in most rows.
PIN_HINTS = {
    "x/(x^4+1)": (0.7598356856515925,),
    "(x-0.3)^2": (0.3,),
    "(x^2-0.25)/(x-0.5)": (0.5,),
}
UNIFORM_16 = uniform_partition(Interval(0.0, 1.0), 16)
IRREGULAR = Partition(np.array([0.0, 0.03, 0.1, 0.17, 0.31, 0.5, 0.52, 0.77, 0.9, 1.0]))
PIN_CELL = Interval(0.1, 0.9)
PINNED = {
    ('x/(x^4+1)', 2, False, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61629981dfe2p-2',
        '0x1.5ea949b128665p-2', '0x1.bb1ef33b65219p-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da09f4dbp-2',
        '0x1.998f1d838b954p-4', '0x1.163e7b334631ep-1',
    ),
    ('x/(x^4+1)', 2, True, None): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('x/(x^4+1)', 8, False, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a6187fbc09679p-2',
        '0x1.5ea949b128665p-2', '0x1.bb1ef33b65219p-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b6p-2',
        '0x1.998f1d838b954p-4', '0x1.23468bdb80f2cp-1',
    ),
    ('x/(x^4+1)', 8, True, None): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('x/(x^4+1)', 64, False, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884cd3b197p-2',
        '0x1.5ea949b128665p-2', '0x1.bb28a2570bb31p-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b6p-2',
        '0x1.998f1d838b954p-4', '0x1.23c6d79af9a09p-1',
    ),
    ('x/(x^4+1)', 64, True, None): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('(x-0.3)^2', 2, False, 4096): (
        '0x1.b1a3d70a3d70ap-4', '0x1.23051eb851eb8p-3',
        '0x1.5753a3ec02f31p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224ccd70a3p-4', '0x1.f9769fae0a3d6p-4',
        '0x1.47ae147ae147ap-5', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 2, True, None): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 8, False, 4096): (
        '0x1.b19a6f98589b7p-4', '0x1.23051eb851eb8p-3',
        '0x1.5753a3ec02f31p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccda2cp-4', '0x1.f9769fae0a3d6p-4',
        '0x1.abfd7e03c2fc8p-11', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 8, True, None): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 64, False, 4096): (
        '0x1.b1999c3dee218p-4', '0x1.23051eb851eb8p-3',
        '0x1.57452438c7137p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccccf6p-4', '0x1.f9769fae0a3d6p-4',
        '0x1.522a43f65490fp-17', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 64, True, None): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x^2-0.25)/(x-0.5)', 2, False, 8192): (
        '0x1.f200000000000p-1', '0x1.0700000000000p+0',
        '0x1.d837b4a2339c2p-1', '0x1.0ac083126e979p+0',
        '0x1.fff8008000000p-1', '0x1.0003ffc000000p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 2, True, None): (
        '0x1.f200000000000p-1', '0x1.0700000000000p+0',
        '0x1.d837b4a2339c2p-1', '0x1.0ac083126e979p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 8, False, 8192): (
        '0x1.f049249249248p-1', '0x1.07db6db6db6dbp+0',
        '0x1.d80ac441c5228p-1', '0x1.12ac6211e7c66p+0',
        '0x1.fff800124924ap-1', '0x1.0003fff6db6dcp+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 8, True, None): (
        '0x1.f049249249248p-1', '0x1.07db6db6db6dbp+0',
        '0x1.d80ac441c5228p-1', '0x1.12ac6211e7c66p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 64, False, 8192): (
        '0x1.f00820820820fp-1', '0x1.07fbefbefbef8p+0',
        '0x1.d8041be7a1ce6p-1', '0x1.13d8cef562062p+0',
        '0x1.fff8000208208p-1', '0x1.0003fffefbefcp+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 64, True, None): (
        '0x1.f00820820820fp-1', '0x1.07fbefbefbef8p+0',
        '0x1.d8041be7a1ce6p-1', '0x1.13d8cef562062p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
}


class TestPinnedBits:
    @pytest.mark.parametrize("key", sorted(PINNED, key=repr), ids=repr)
    def test_bits(self, key):
        text, samples, hinted, cells = key
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples)
        hints = PIN_HINTS[text] if hinted else None
        sums = (
            lower_sum(f, UNIFORM_16, cfg, hints), upper_sum(f, UNIFORM_16, cfg, hints),
            lower_sum(f, IRREGULAR, cfg, hints), upper_sum(f, IRREGULAR, cfg, hints),
        )
        cell = infimum_on(f, PIN_CELL, cfg, hints), supremum_on(f, PIN_CELL, cfg, hints)
        if hinted:
            got = (*sums, *cell)
        else:
            est = integrate(f, Interval(0.0, 1.0), 2e-4, cfg)
            assert est.cells == cells
            got = (*sums, est.lower, est.upper, *cell)
        assert tuple(v.hex() for v in got) == PINNED[key]

    def test_integrate_across_chunks(self):
        # 131072 cells of 63 gaps span four evaluation chunks
        cfg = SamplingConfig(samples_per_cell=64)
        est = integrate(parse("x/(x^4+1)"), Interval(0.0, 1.0), 8e-6, cfg)
        assert est.cells == 131072
        assert (est.lower.hex(), est.upper.hex()) == ('0x1.921f117d3faf4p-2', '0x1.9220590b05f3ep-2')
