import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quadratura import darboux
from quadratura.approximant import (
    NegativityError,
    PiecewiseLinear,
    build_approximant,
    eval_pl,
    integrate_pl,
    l1_distance,
    write_csv,
)
from quadratura.darboux import SamplingConfig
from quadratura.expr import parse
from quadratura.partition import (
    Interval,
    ResourceLimitError,
    block_grid,
    uniform_partition,
)

EDGES = SamplingConfig(samples_per_cell=2)
UNIT = Interval(0.0, 1.0)


def build(b, n):
    return build_approximant(b.fn, UNIT, n, EDGES, hints=b.hints)


class TestBuild:
    def test_constant_has_no_ramps(self):
        g = build_approximant(parse("1"), UNIT, 3, EDGES)
        assert np.all(g.values == 1.0)

    def test_identity_level3_matches_hand_construction(self):
        g = build_approximant(parse("x"), UNIT, 3, EDGES)
        eps = 1.0 / 24.0
        knots, vals = [0.0], [0.0]
        for k in range(1, 8):
            knots += [k / 8 - eps, k / 8, k / 8 + eps]
            vals += [(k - 1) / 8, (k - 1) / 8, k / 8]
        knots.append(1.0)
        vals.append(7.0 / 8.0)
        assert np.array_equal(g.knots, knots)
        assert np.array_equal(g.values, vals)

    def test_low_levels_are_zero(self):
        for n in (1, 2):
            g = build_approximant(parse("x"), UNIT, n, EDGES)
            assert np.array_equal(g.knots, [0.0, 1.0])
            assert np.array_equal(g.values, [0.0, 0.0])

    def test_negativity_rejected(self):
        with pytest.raises(NegativityError):
            build_approximant(parse("x-1/2"), UNIT, 4, EDGES)

    def test_resource_cap_propagates(self):
        with pytest.raises(ResourceLimitError):
            build_approximant(parse("x"), UNIT, 25, EDGES)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            build_approximant(parse("x"), UNIT, 0, EDGES)

    def test_decreasing_ramps(self):
        # 1 - x has descending plateaus; ramps live in the left strips
        g = build_approximant(parse("1-x"), UNIT, 3, EDGES)
        eps = 1.0 / 24.0
        assert eval_pl(g, 0.0) == 7.0 / 8.0
        # plateau value on block 2 is inf over block 2 = 1 - 2/8
        assert eval_pl(g, 0.125 + eps) == 0.75
        # ramp occupies [k/8 - eps, k/8]
        mid_ramp = eval_pl(g, 0.125 - eps / 2)
        assert 0.75 < mid_ramp < 0.875


def reference_build(f, iv, n, cfg, hints):
    """The per-block rule behind build_approximant, one block at a time.

    Block i spans [a + i*h, a + (i+1)*h] (the last ends at b); a block
    that rounds to zero width is an error before any infimum is taken.
    Knots are emitted in order and one equal to the knot before it is
    skipped.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if iv.is_degenerate:
        raise ValueError("cannot approximate over a degenerate interval")
    if n <= 2:
        return PiecewiseLinear(np.array([iv.a, iv.b]), np.zeros(2))
    blocks = 1 << n
    h = iv.width / blocks
    eps = iv.width / (n * blocks)

    def edge(i):
        return iv.b if i == blocks else iv.a + i * h

    if any(edge(i) == edge(i + 1) for i in range(blocks)):
        raise ValueError(
            f"level {n} is too fine for [{iv.a!r}, {iv.b!r}]:"
            f" some of its 2^{n} blocks round to zero width"
        )
    m = np.empty(blocks)
    for i in range(blocks):
        m[i] = darboux.infimum_on(f, Interval(edge(i), edge(i + 1)), cfg, hints)
    if (m < 0).any():
        k_bad = int(np.argmin(m)) + 1
        raise NegativityError(
            f"f is negative on block {k_bad} (sampled infimum {m[k_bad - 1]:.3g})"
        )
    xs, ys = [], []

    def emit(x, y):
        if not xs or x != xs[-1]:
            xs.append(x)
            ys.append(y)

    emit(edge(0), m[0])
    emit(edge(1) - eps, m[0])
    for k in range(1, blocks):
        mk, mk1 = m[k - 1], m[k]
        emit(edge(k), mk if mk <= mk1 else mk1)
        emit(edge(k) + eps, mk1)
        emit(edge(k + 1) if k + 1 == blocks else edge(k + 1) - eps, mk1)
    return PiecewiseLinear(np.array(xs), np.array(ys))


def outcome(build_fn, *args):
    try:
        g = build_fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return g.knots.tobytes(), g.values.tobytes()


# Nonnegative, sign-changing, undefined-in-places and signed-zero formulas.
REFERENCE_FORMULAS = (
    "x^2", "1+sin(x)", "abs(x-1/3)", "exp(-x)", "x", "1/x", "sqrt(x)", "-(0*x)", "0*x",
)


class TestMatchesPerBlockRule:
    @given(
        text=st.sampled_from(REFERENCE_FORMULAS),
        a=st.one_of(
            st.floats(-10.0, 10.0),
            st.sampled_from([0.0, -0.0, 1e6, 1e15, -1e15, 3e14]),
        ),
        log_width=st.floats(-12.0, 4.0),
        n=st.integers(1, 11),
        samples=st.sampled_from([2, 8]),
        hint_fractions=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), max_size=3)),
    )
    @settings(max_examples=120, deadline=None)
    # blocks either side of 0 hold infima +0.0 and -0.0: the tie keeps m_k
    @example(text="-(0*x)", a=-1.0, log_width=math.log10(2.0), n=3, samples=2,
             hint_fractions=None)
    @example(text="0*x", a=-1.0, log_width=math.log10(2.0), n=3, samples=2,
             hint_fractions=None)
    # 32 blocks of width 1/32 where the float spacing is 1/8
    @example(text="x", a=1e15, log_width=0.0, n=5, samples=2, hint_fractions=None)
    def test_knots_values_and_errors_bitwise(
        self, text, a, log_width, n, samples, hint_fractions
    ):
        width = 10.0**log_width
        iv = Interval(a, a + width)
        hints = None
        if hint_fractions is not None:
            hints = [iv.a + t * iv.width for t in hint_fractions]
        f = parse(text)
        cfg = SamplingConfig(samples_per_cell=samples)
        with np.errstate(all="ignore"):
            want = outcome(reference_build, f, iv, n, cfg, hints)
            got = outcome(build_approximant, f, iv, n, cfg, hints)
        assert got == want


class TestAcrossChunks:
    """One build over several evaluation chunks keeps the per-block bits."""

    @pytest.mark.parametrize("samples", [2, 8, 64])
    def test_hints_on_chunk_and_block_edges(self, monkeypatch, samples):
        # 17 samples a chunk: 16 blocks of one gap, 2 of seven, 1 of 63
        monkeypatch.setattr(darboux, "_CHUNK_POINTS", 17)
        iv = Interval(0.1, 1.7)
        n = 6
        edges = block_grid(iv, n).boundaries()
        chunk_edge, block_edge = float(edges[16]), float(edges[5])
        inner = float(0.5 * (edges[40] + edges[41]))
        f = parse(f"abs(x-{chunk_edge!r})+abs(x-{block_edge!r})+abs(x-{inner!r})")
        hints = [chunk_edge, block_edge, inner]
        cfg = SamplingConfig(samples_per_cell=samples)
        sizes = []

        def traced(xs):
            sizes.append(xs.size)
            return darboux.as_evaluator(f)(xs)

        want = outcome(reference_build, f, iv, n, cfg, hints)
        assert outcome(build_approximant, traced, iv, n, cfg, hints) == want
        assert outcome(build_approximant, f, iv, n, cfg, np.array(hints)) == want
        # a block with a hint inside is evaluated on its own, with that hint
        assert len(sizes) > 2 and max(sizes) <= max(17, samples + 1)

    def test_evaluation_chunks_stay_within_bound(self, monkeypatch):
        monkeypatch.setattr(darboux, "_CHUNK_POINTS", 100)
        sizes = []

        def traced(xs):
            sizes.append(xs.size)
            return xs * xs

        cfg = SamplingConfig(samples_per_cell=8)
        got = darboux.infimum_on(traced, uniform_partition(UNIT, 512), cfg)
        assert got.size == 512 and max(sizes) <= 100
        assert sum(sizes) == 512 * 7 + len(sizes)  # edges shared inside each chunk


class TestEvalPl:
    def test_segment_midpoint(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert eval_pl(g, 0.5) == 1.0

    def test_knot_exactness(self):
        g = PiecewiseLinear(np.array([0.0, 0.3, 1.0]), np.array([1.0, 0.25, 0.75]))
        for x, v in zip(g.knots, g.values):
            assert eval_pl(g, float(x)) == v

    def test_out_of_range(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            eval_pl(g, 1.5)
        with pytest.raises(ValueError):
            eval_pl(g, -0.01)

    def test_vectorized(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        xs = np.linspace(0.0, 1.0, 11)
        assert np.allclose(eval_pl(g, xs), 2.0 * xs)

    def test_clamped_within_segment(self):
        g = PiecewiseLinear(np.array([0.0, 1e-9, 1.0]), np.array([0.3, 0.7, 0.7]))
        xs = np.linspace(0.0, 1.0, 1001)
        ys = eval_pl(g, xs)
        assert ys.min() >= 0.3 and ys.max() <= 0.7


class TestIntegratePl:
    def test_unit_area(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert integrate_pl(g, 0.0, 1.0) == 1.0

    def test_triangle(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert integrate_pl(g, 0.0, 1.0) == 1.0

    def test_partial_range_splits_segments(self):
        g = PiecewiseLinear(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]))
        assert abs(integrate_pl(g, 0.25, 0.75) - 0.375) < 1e-15

    def test_range_check(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        with pytest.raises(ValueError):
            integrate_pl(g, -0.5, 0.5)

    def test_identity_level6_deficit(self):
        g = build_approximant(parse("x"), UNIT, 6, EDGES)
        v = integrate_pl(g, 0.0, 1.0)
        assert v <= 0.5
        assert 0.5 - v <= 1.0 / 6.0  # sup bound with M = 1

    def test_against_darboux_oracle(self):
        g = build_approximant(parse("x"), UNIT, 6, EDGES)
        exact = integrate_pl(g, 0.0, 1.0)
        est = darboux.integrate(lambda xs: eval_pl(g, xs), UNIT, 1e-6, EDGES)
        assert est.lower - 1e-12 <= exact <= est.upper + 1e-12

    def test_values_near_overflow(self):
        g = PiecewiseLinear(np.array([0.0, 1.0, 2.0]), np.array([1e308, 1.5e308, 1e308]))
        assert integrate_pl(g, 0.0, 1.0) == 1.25e308
        assert integrate_pl(g, 0.0, 2.0) == math.inf

    def test_empty_range(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert integrate_pl(g, 0.3, 0.3) == 0.0

    @pytest.mark.parametrize("text", ["x", "abs(x-1/3)", "1+sin(20*x)"])
    def test_sub_ranges_match_trapezoid_over_eval_pl(self, text):
        g = build_approximant(parse(text), UNIT, 6, SamplingConfig(samples_per_cell=8))
        kn = g.knots
        ranges = [
            (0.0, 1.0),  # the full range
            (float(kn[3]), float(kn[40])),  # both ends on a knot
            (float(kn[3]), 0.6180339887),  # one end on a knot, one between knots
            (0.1234567, float(kn[-2])),
            (0.1234567, 0.6180339887),  # both ends between knots
            (float(kn[5]), float(kn[6])),  # adjacent knots: no knot strictly inside
            (0.3000001, 0.3000002),  # inside one segment
        ]
        for c, d in ranges:
            xs = np.concatenate([[c], kn[(kn > c) & (kn < d)], [d]])
            ys = eval_pl(g, xs)
            want = math.fsum(((0.5 * ys[:-1] + 0.5 * ys[1:]) * np.diff(xs)).tolist())
            assert integrate_pl(g, c, d).hex() == want.hex(), (c, d)


class TestL1Distance:
    def test_constant_is_exact_at_level3(self):
        f = parse("1")
        g = build_approximant(f, UNIT, 3, EDGES)
        assert l1_distance(f, g, UNIT, 1e-9, EDGES) < 1e-9

    def test_identity_shrinks_with_level(self):
        f = parse("x")
        g4 = build_approximant(f, UNIT, 4, EDGES)
        g12 = build_approximant(f, UNIT, 12, EDGES)
        l4 = l1_distance(f, g4, UNIT, 1e-5, EDGES)
        l12 = l1_distance(f, g12, UNIT, 1e-5, EDGES)
        assert l4 > 0 and l12 > 0
        assert l12 < l4

    def test_zero_approximant_gives_full_mass(self):
        f = parse("x^2")
        g = build_approximant(f, UNIT, 1, EDGES)
        got = l1_distance(f, g, UNIT, 1e-6, EDGES)
        assert abs(got - 1.0 / 3.0) < 1e-6


class TestBelowApproximantProperties:
    def test_below_property_exact_hints(self, battery):
        xs = np.linspace(0.0, 1.0, 10_000)
        for b in battery:
            fv = darboux.as_evaluator(b.fn)(xs)
            for n in (3, 5, 8):
                g = build(b, n)
                gv = eval_pl(g, xs)
                assert np.all(gv >= 0.0)
                assert np.all(gv <= fv), f"{b.name} level {n}"

    def test_plateau_bound(self, battery):
        n = 5
        edges = block_grid(UNIT, n).boundaries()
        for b in battery:
            g = build(b, n)
            for lo, hi in zip(edges[:-1], edges[1:]):
                m_k = darboux.infimum_on(b.fn, Interval(lo, hi), EDGES, hints=b.hints)
                xs = np.linspace(lo, hi, 9)
                assert np.all(eval_pl(g, xs) <= m_k + 1e-12)

    def test_ramp_bound(self):
        f = parse("x^2")
        n = 4
        g = build_approximant(f, UNIT, n, EDGES)
        grid = block_grid(UNIT, n)
        edges, eps = grid.boundaries(), grid.epsilon
        m = [darboux.infimum_on(f, Interval(lo, hi), EDGES) for lo, hi in zip(edges[:-1], edges[1:])]
        for k in range(1, 16):
            # the strips either side of inner edge k hold the ramp
            xs = np.linspace(edges[k] - eps, edges[k] + eps, 17)
            ys = eval_pl(g, xs)
            lo, hi = min(m[k - 1], m[k]), max(m[k - 1], m[k])
            assert np.all(ys >= lo - 1e-15) and np.all(ys <= hi + 1e-15)

    def test_pointwise_convergence_for_continuous(self, battery):
        probes = np.linspace(0.0, 1.0, 100)
        for b in battery:
            if not b.continuous:
                continue
            g = build(b, 12)
            fv = darboux.as_evaluator(b.fn)(probes)
            gap = np.abs(eval_pl(g, probes) - fv).max()
            assert gap < 0.02, b.name

    def test_key_deficit_inequality(self, battery):
        for b in battery:
            for n in range(3, 13):
                g = build(b, n)
                p = uniform_partition(UNIT, 2**n)
                s = darboux.lower_sum(b.fn, p, EDGES, hints=b.hints)
                integral = integrate_pl(g, 0.0, 1.0)
                deficit = s - integral
                assert deficit >= -1e-12, (b.name, n)
                assert deficit <= b.sup_01 * 1.0 / n + 1e-12, (b.name, n)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        g = build_approximant(parse("x"), UNIT, 3, EDGES)
        path = tmp_path / "approx.csv"
        write_csv(g, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["knot", "value"]
        knots = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(knots, g.knots)
        assert np.array_equal(vals, g.values)

    def test_csv_uses_dots(self):
        g = PiecewiseLinear(np.array([0.0, 0.5]), np.array([0.25, 1.5]))
        buf = io.StringIO()
        write_csv(g, buf)
        text = buf.getvalue()
        assert "0.25" in text and "," in text
        assert ";" not in text


class TestPiecewiseLinearType:
    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            PiecewiseLinear(np.array([0.0, 1.0]), np.array([1.0]))

    def test_callable(self):
        g = PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert g(0.25) == 0.5
