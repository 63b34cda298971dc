import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadratura.partition import (
    Interval,
    Partition,
    ResourceLimitError,
    epsilon_n,
    block_grid,
    uniform_partition,
)


class TestInterval:
    def test_basic(self):
        iv = Interval(0.0, 2.5)
        assert iv.width == 2.5
        assert not iv.is_degenerate
        assert 1.0 in iv

    def test_degenerate_allowed(self):
        assert Interval(2.0, 2.0).is_degenerate

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_finite_endpoints_required(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)

    def test_finite_width_required(self):
        with pytest.raises(ValueError, match="width overflows"):
            Interval(-1e308, 1e308)
        assert Interval(-8e307, 8e307).width == 1.6e308


class TestUniformPartition:
    def test_quarters(self):
        p = uniform_partition(Interval(0.0, 1.0), 4)
        assert np.array_equal(p.points, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert p.norm == 0.25

    def test_minimal(self):
        p = uniform_partition(Interval(0.0, 1.0), 1)
        assert np.array_equal(p.points, [0.0, 1.0])

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            uniform_partition(Interval(2.0, 2.0), 4)

    def test_endpoints_exact(self):
        p = uniform_partition(Interval(0.1, 0.9), 7)
        assert p.points[0] == 0.1 and p.points[-1] == 0.9

    def test_large_grid_monotone(self):
        p = uniform_partition(Interval(-3.7, 11.1), 2**20)
        assert np.all(np.diff(p.points) > 0)

    def test_points_read_only(self):
        p = uniform_partition(Interval(0.0, 1.0), 4)
        with pytest.raises(ValueError):
            p.points[0] = 5.0


class TestEpsilon:
    def test_unit_interval_level_3(self):
        assert epsilon_n(Interval(0.0, 1.0), 3) == 1.0 / 24.0

    def test_scales_with_width(self):
        assert epsilon_n(Interval(0.0, 2.0), 3) == 1.0 / 12.0

    def test_starts_at_three(self):
        with pytest.raises(ValueError):
            epsilon_n(Interval(0.0, 1.0), 2)

    def test_times_block_count_is_width_over_n(self):
        for n in range(3, 20):
            iv = Interval(0.3, 1.7)
            got = epsilon_n(iv, n) * (1 << n)
            want = iv.width / n
            assert abs(got - want) <= 2 * np.spacing(want)


class TestBlockGrid:
    def test_level4_interior_strip_is_epsilon(self):
        iv = Interval(0.0, 1.0)
        assert block_grid(iv, 4).cell_count == 16
        assert epsilon_n(iv, 4) == 1.0 / 64.0

    def test_block_widths_equal(self):
        widths = block_grid(Interval(0.2, 0.9), 6).widths()
        # each boundary carries one rounding at endpoint scale
        assert max(widths) - min(widths) <= 4 * np.spacing(0.9)

    @given(a=st.floats(-100.0, 100.0), width=st.floats(1e-3, 50.0), n=st.integers(3, 12))
    @settings(max_examples=60, deadline=None)
    def test_boundaries_match_uniform_partition(self, a, width, n):
        iv = Interval(a, a + width)
        got = block_grid(iv, n).points
        assert got.tobytes() == uniform_partition(iv, 2**n).points.tobytes()

    def test_level_below_three_rejected(self):
        with pytest.raises(ValueError):
            block_grid(Interval(0.0, 1.0), 2)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            block_grid(Interval(0.0, 1.0), 25)

    @given(
        a=st.floats(-100.0, 100.0),
        width=st.floats(1e-3, 50.0),
        n=st.integers(3, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, a, width, n):
        iv = Interval(a, a + width)
        g = block_grid(iv, n)
        e, eps = g.points, epsilon_n(iv, n)
        h = iv.width / g.cell_count
        tol = 8 * np.spacing(max(abs(iv.a), abs(iv.b), h))
        assert e.size == g.cell_count + 1
        assert e[0] == iv.a and e[-1] == iv.b
        assert np.all(np.abs(np.diff(e) - h) <= tol)
        # the ramp strips either side of every edge stay apart
        assert 0 < eps < h / 2
        assert np.all(e[1:-1] + eps < e[2:] - eps)


class TestPartitionType:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Partition(np.array([1.0]))

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            Partition(np.array([0.0, 0.5, 0.5, 1.0]))

    def test_norm_positive(self):
        p = Partition(np.array([0.0, 0.1, 0.7, 1.0]))
        assert p.norm == 0.6
        assert p.cell_count == 3

    @pytest.mark.parametrize("points", [[0.0, 1.0, math.inf], [-math.inf, 0.0], [0.0, math.nan, 1.0]],
                             ids=repr)
    def test_finite_points_required(self, points):
        with pytest.raises(ValueError, match="partition points must be finite"):
            Partition(np.array(points))

    def test_finite_widths_required(self):
        with pytest.raises(ValueError, match="partition width overflows"):
            Partition(np.array([-1e308, 0.0, 1e308]))
        with pytest.raises(ValueError, match="partition width overflows"):
            Partition([-1e308, 1e308])
        assert Partition([-8e307, 8e307]).widths().tolist() == [1.6e308]
