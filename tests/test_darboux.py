import math
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

    def test_fail_policy(self):
        cfg = SamplingConfig(undefined_policy=D.FAIL_ON_UNDEFINED)
        with pytest.raises(UndefinedSamplesError):
            infimum_on(parse("sin(x)/x"), Interval(0.0, 1.0), cfg)

    def test_hints_give_exact_interior_minimum(self):
        f = parse("abs(x-1/2)")
        cell = Interval(0.4999, 0.5002)
        assert infimum_on(f, cell, EDGES, hints=(0.5,)) == 0.0


def reference_cell(f, a, b, cfg, hints):
    """The per-cell rule written out: one cell's grid, its interior hints sorted in."""
    w = cfg.samples_per_cell - 1
    xs = a + ((b - a) / w) * np.arange(w + 1)
    xs[-1] = b
    inside = [h for h in hints or () if a < h < b]
    if inside:
        xs = np.concatenate([xs, np.asarray(inside, dtype=float)])
        xs.sort()
    lo, hi, _ = D._cell_extrema(D.as_evaluator(f)(xs), xs.size - 1, cfg.undefined_policy)
    return float(lo[0]), float(hi[0])


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
        policy=st.sampled_from([D.SKIP_ISOLATED, D.FAIL_ON_UNDEFINED]),
        chunk_points=st.sampled_from([D._CHUNK_POINTS, 5, 64]),
    )
    # an inner edge of -0.0: the cell on its left samples -0.0, the one on its right +0.0
    @example(text="x", case=(np.array([-1.0, -0.0, 1.0]), None), samples=2,
             policy=D.SKIP_ISOLATED, chunk_points=D._CHUNK_POINTS)
    # a hint on an edge, one inside, a repeat, one outside and one undefined for sqrt
    @example(text="sqrt(x)", case=(np.array([-0.5, 0.25, 0.5, 2.0]), [0.25, 0.3, 0.3, 3.0, -0.2]),
             samples=8, policy=D.SKIP_ISOLATED, chunk_points=5)
    def test_matches_per_cell_calls_bitwise(self, text, case, samples, policy, chunk_points):
        pts, hints = case
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples, undefined_policy=policy)
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


class TestNanHints:
    """Cell extrema sort a hint's value into the cell's samples, NaN or not.

    ``_scatter_hints`` (``lower_sum``, ``upper_sum``, ``integrate``) leaves
    an undefined hint value out instead.
    """

    def test_undefined_hint_between_defined_samples_is_skipped(self):
        f = parse("x+(x-0.3)/(x-0.3)")  # undefined at 0.3 only
        cell = Interval(0.0, 1.0)
        assert infimum_on(f, cell, EDGES, hints=[0.3]) == 1.0
        assert supremum_on(f, cell, EDGES, hints=[0.3]) == 2.0
        fail = SamplingConfig(samples_per_cell=2, undefined_policy=D.FAIL_ON_UNDEFINED)
        with pytest.raises(UndefinedSamplesError, match="undefined sample value"):
            infimum_on(f, cell, fail, hints=[0.3])
        p = Partition(np.array([0.0, 0.5, 1.0]))
        assert lower_sum(f, p, fail, hints=[0.3]) == lower_sum(f, p, fail)

    def test_undefined_hint_next_to_undefined_sample_raises(self):
        f = parse("sqrt(x)")
        cell = Interval(-1.0, 1.0)
        assert infimum_on(f, cell, EDGES) == 1.0  # sqrt(-1) alone is skipped
        with pytest.raises(UndefinedSamplesError, match="adjacent undefined samples"):
            infimum_on(f, cell, EDGES, hints=[-0.5])

    def test_defined_hint_between_undefined_samples_keeps_the_cell(self):
        f = parse("sqrt(0.5-abs(x))")  # undefined at both edges of [-1, 1]
        with pytest.raises(UndefinedSamplesError, match="adjacent undefined samples"):
            infimum_on(f, Interval(-1.0, 1.0), EDGES)
        assert infimum_on(f, Interval(-1.0, 1.0), EDGES, hints=[0.0]) == math.sqrt(0.5)
        g = parse("(x^2-1)/(x^2-1)")  # undefined at -1 and 1 only
        got = infimum_on(g, Partition(np.array([-3.0, -1.0, 1.0, 3.0])), EDGES, hints=[0.0])
        assert got.tolist() == [1.0, 1.0, 1.0]
        with pytest.raises(UndefinedSamplesError, match="adjacent undefined samples"):
            infimum_on(g, Partition(np.array([-3.0, -1.0, 1.0, 3.0])), EDGES)


class TestArrayHints:
    """Hints given as an ndarray give the bits a list of the same hints gives."""

    @pytest.mark.parametrize("hints", [[0.3, 0.5], [0.5, 0.3, 0.3], []], ids=repr)
    def test_ndarray_matches_list(self, hints):
        f = parse("abs(x-0.3)+abs(x-0.5)")
        iv = Interval(0.0, 1.0)
        p = Partition(np.array([0.0, 0.3, 0.4, 1.0]))
        arr = np.array(hints, dtype=float)

        def results(h):
            est = integrate(f, iv, 1e-6, EDGES, h)
            g = build_approximant(f, iv, 6, EDGES, h)
            return (
                infimum_on(f, Interval(0.0, 0.45), EDGES, h),
                supremum_on(f, p, EDGES, h).tobytes(),
                lower_sum(f, p, EDGES, h),
                (est.lower, est.upper, est.cells),
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
        policy=st.sampled_from([D.SKIP_ISOLATED, D.FAIL_ON_UNDEFINED]),
    )
    # one cell where a second grid formula rounded a sample differently
    @example(text="sin(20*x)", case=(np.array([0.73, 0.89]), None), samples=8,
             policy=D.SKIP_ISOLATED)
    def test_matches_weighted_extrema(self, text, case, samples, policy):
        pts, hints = case
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples, undefined_policy=policy)
        p = Partition(pts)
        if hints is not None:  # the sums leave an undefined hint value out, the extrema do not
            with np.errstate(all="ignore"):
                hints = [h for h in hints if not math.isnan(D.as_evaluator(f)(np.array([h]))[0])]

        def weighted(bounds_hints):
            return (
                compensated_sum(infimum_on(f, p, cfg, bounds_hints) * p.widths()),
                compensated_sum(supremum_on(f, p, cfg, bounds_hints) * p.widths()),
            )

        with np.errstate(all="ignore"):
            sums = cell_outcome(lambda: (lower_sum(f, p, cfg, hints), upper_sum(f, p, cfg, hints)))
            # the sums raise from the hintless grid, where a defined hint can keep a cell
            raised = isinstance(sums[0], type)
            assert sums == cell_outcome(weighted, None if raised else hints)


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


class TestSamplingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingConfig(samples_per_cell=1)
        with pytest.raises(ValueError):
            SamplingConfig(undefined_policy="whatever")


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


class TestHintOnChunkEdge:
    # 65,536 cells of 63 gaps: chunks of 33,288 cells, one edge at cell 33,288
    CFG = SamplingConfig(samples_per_cell=64)

    def hint_effect(self, a, b, k):
        cells = 65536
        c = a + (b - a) / cells * k
        ev = D.as_evaluator(parse(f"abs(x-{c!r})^0.01"))
        hinted = D._uniform_sums(ev, a, b, cells, self.CFG, [c])[0]
        return hinted - D._uniform_sums(ev, a, b, cells, self.CFG, None)[0]

    def test_hint_on_chunk_edge_counts(self):
        assert self.hint_effect(1.0 / 3.0, 2.0, 33288) < -1e-6
        assert self.hint_effect(0.1, 1.3, 33287) < -1e-6  # an edge inside a chunk


def plain_doubling(f, iv, tol, cfg, hints, max_cells, start_cells):
    """The refinement rule without level skipping: N, 2N, 4N, ... up to the cap."""
    ev = D.as_evaluator(f)
    cells = min(start_cells, max_cells)
    while True:
        lower, upper = D._uniform_sums(ev, iv.a, iv.b, cells, cfg, hints)[:2]
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


def integrate_outcome(run, *args):
    def bits(est):
        return est.lower.hex(), est.upper.hex(), est.norm.hex(), est.cells

    try:
        return bits(run(*args))
    except NonConvergenceError as exc:
        return type(exc), str(exc), bits(exc.estimate)
    except UndefinedSamplesError as exc:
        return type(exc), str(exc)


# Isolated holes across 0 (x/x, sin(x)/x, a jump with a hole), a band of
# adjacent undefined samples, poles with finite, overflowing and infinite
# samples, sin(1/x), a kink for hints, and a huge offset.
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
    chunk = 2**21 // (samples - 1)  # cells per evaluation chunk
    hints = None
    if draw(st.booleans()):
        hints = []
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                hints.append(a + draw(st.floats(0.0, 1.0)) * (b - a))
                continue
            # an edge of some level, or the chunk edge of a level that has one
            cells = min(start << draw(st.integers(0, 14)), SKIP_CAP)
            on_chunk = cells > chunk and draw(st.booleans())
            k = chunk if on_chunk else draw(st.integers(1, cells - 1))
            hints.append(a + (b - a) / cells * k)
    return text, a, b, samples, start, tol, hints


class TestLevelSkipping:
    """integrate skips levels that cannot close, yet ends as plain doubling does."""

    @settings(max_examples=100, deadline=None)
    @given(case=skip_cases())
    # gap cancellation under |lower| = 1e9: fails without the absolute margin
    @example(case=("1e9+sin(20*x)", 0.0, 1.0, 2, 3, float.fromhex("0x1.1378p-10"), None))
    # a hole on a skipped level's edge splits the jump: fails without the fallback
    @example(case=("x/abs(x)", -1.0, 1.0, 64, 3, 1e-3, None))
    # a hint on the edge between the two evaluation chunks of 49,152 cells
    @example(case=("abs(x-1/3)^0.01", 1.0 / 3.0, 2.0, 64, 3, 1e-4,
                   [1.0 / 3.0 + (2.0 - 1.0 / 3.0) / 49152 * 33288]))
    def test_matches_plain_doubling_bitwise(self, case):
        text, a, b, samples, start, tol, hints = case
        args = (parse(text), Interval(a, b), tol, SamplingConfig(samples_per_cell=samples),
                hints, SKIP_CAP, start)
        with np.errstate(all="ignore"):
            want = integrate_outcome(plain_doubling, *args)
            got = integrate_outcome(integrate, *args)
        assert got == want


# float.hex of (lower_sum, upper_sum) on UNIFORM_16, the same on IRREGULAR,
# integrate's (lower, upper) on [0, 1] at tol 2e-4 and (infimum_on,
# supremum_on) on PIN_CELL, keyed by (formula, samples, hinted, cells that
# integrate stops at).  The formulas use arithmetic only, no libm call, so
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
    ('x/(x^4+1)', 2, True, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b7p-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('x/(x^4+1)', 8, False, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a6187fbc09679p-2',
        '0x1.5ea949b128665p-2', '0x1.bb1ef33b65219p-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b6p-2',
        '0x1.998f1d838b954p-4', '0x1.23468bdb80f2cp-1',
    ),
    ('x/(x^4+1)', 8, True, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b7p-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('x/(x^4+1)', 64, False, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884cd3b197p-2',
        '0x1.5ea949b128665p-2', '0x1.bb28a2570bb31p-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b6p-2',
        '0x1.998f1d838b954p-4', '0x1.23c6d79af9a09p-1',
    ),
    ('x/(x^4+1)', 64, True, 4096): (
        '0x1.7d292750b5ebfp-2', '0x1.a61884d8b3e8bp-2',
        '0x1.5ea949b128665p-2', '0x1.bb28eda43cc7dp-2',
        '0x1.920b3be7e6554p-2', '0x1.92342da0a71b7p-2',
        '0x1.998f1d838b954p-4', '0x1.23c6e3224f9d1p-1',
    ),
    ('(x-0.3)^2', 2, False, 4096): (
        '0x1.b1a3d70a3d70ap-4', '0x1.23051eb851eb8p-3',
        '0x1.5753a3ec02f31p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224ccd70a3p-4', '0x1.f9769fae0a3d6p-4',
        '0x1.47ae147ae147ap-5', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 2, True, 4096): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccccccp-4', '0x1.f9769fae0a3d6p-4',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 8, False, 4096): (
        '0x1.b19a6f98589b7p-4', '0x1.23051eb851eb8p-3',
        '0x1.5753a3ec02f31p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccda2cp-4', '0x1.f9769fae0a3d6p-4',
        '0x1.abfd7e03c2fc8p-11', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 8, True, 4096): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccccccp-4', '0x1.f9769fae0a3d6p-4',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 64, False, 4096): (
        '0x1.b1999c3dee218p-4', '0x1.23051eb851eb8p-3',
        '0x1.57452438c7137p-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccccf6p-4', '0x1.f9769fae0a3d6p-4',
        '0x1.522a43f65490fp-17', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x-0.3)^2', 64, True, 4096): (
        '0x1.b199999999999p-4', '0x1.23051eb851eb8p-3',
        '0x1.5744f5d35653ep-4', '0x1.61682f944241dp-3',
        '0x1.f8e224cccccccp-4', '0x1.f9769fae0a3d6p-4',
        '0x0.0p+0', '0x1.70a3d70a3d70cp-2',
    ),
    ('(x^2-0.25)/(x-0.5)', 2, False, 8192): (
        '0x1.f200000000000p-1', '0x1.0700000000000p+0',
        '0x1.d837b4a2339c2p-1', '0x1.0ac083126e979p+0',
        '0x1.fff8008000000p-1', '0x1.0003ffc000000p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 2, True, 8192): (
        '0x1.f200000000000p-1', '0x1.0700000000000p+0',
        '0x1.d837b4a2339c2p-1', '0x1.0ac083126e979p+0',
        '0x1.fff8008000000p-1', '0x1.0003ffc000000p+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 8, False, 8192): (
        '0x1.f049249249248p-1', '0x1.07db6db6db6dbp+0',
        '0x1.d80ac441c5228p-1', '0x1.12ac6211e7c66p+0',
        '0x1.fff800124924ap-1', '0x1.0003fff6db6dcp+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 8, True, 8192): (
        '0x1.f049249249248p-1', '0x1.07db6db6db6dbp+0',
        '0x1.d80ac441c5228p-1', '0x1.12ac6211e7c66p+0',
        '0x1.fff800124924ap-1', '0x1.0003fff6db6dcp+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 64, False, 8192): (
        '0x1.f00820820820fp-1', '0x1.07fbefbefbef8p+0',
        '0x1.d8041be7a1ce6p-1', '0x1.13d8cef562062p+0',
        '0x1.fff8000208208p-1', '0x1.0003fffefbefcp+0',
        '0x1.3333333333333p-1', '0x1.6666666666667p+0',
    ),
    ('(x^2-0.25)/(x-0.5)', 64, True, 8192): (
        '0x1.f00820820820fp-1', '0x1.07fbefbefbef8p+0',
        '0x1.d8041be7a1ce6p-1', '0x1.13d8cef562062p+0',
        '0x1.fff8000208208p-1', '0x1.0003fffefbefcp+0',
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
        est = integrate(f, Interval(0.0, 1.0), 2e-4, cfg, hints)
        got = (
            lower_sum(f, UNIFORM_16, cfg, hints), upper_sum(f, UNIFORM_16, cfg, hints),
            lower_sum(f, IRREGULAR, cfg, hints), upper_sum(f, IRREGULAR, cfg, hints),
            est.lower, est.upper,
            infimum_on(f, PIN_CELL, cfg, hints), supremum_on(f, PIN_CELL, cfg, hints),
        )
        assert est.cells == cells
        assert tuple(v.hex() for v in got) == PINNED[key]

    def test_integrate_across_chunks(self):
        # 131072 cells of 63 gaps span four evaluation chunks
        cfg = SamplingConfig(samples_per_cell=64)
        est = integrate(parse("x/(x^4+1)"), Interval(0.0, 1.0), 8e-6, cfg)
        assert est.cells == 131072
        assert (est.lower.hex(), est.upper.hex()) == ('0x1.921f117d3faf4p-2', '0x1.9220590b05f3ep-2')
