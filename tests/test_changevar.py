import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quadratura import changevar as CV
from quadratura import darboux
from quadratura import expr as E
from quadratura.changevar import (
    FAIL,
    INCONCLUSIVE,
    MISMATCH,
    PASS,
    UNDECIDABLE,
    VERIFIED,
    SubstitutionProblem,
    check_hypotheses,
    lhs_integral,
    report_to_json,
    rhs_integral,
    verify,
)
from quadratura.darboux import SamplingConfig
from quadratura.expr import parse
from quadratura.partition import Interval

EDGES = SamplingConfig(samples_per_cell=2)


def problem(f, phi, alpha, beta, **kw):
    return SubstitutionProblem(parse(f), parse(phi), alpha, beta, **kw)


class TestLhsIntegral:
    def test_forward_orientation(self):
        p = problem("x/(x^4+1)", "sqrt(t)", 0.0, 1.0)
        est = lhs_integral(p, 1e-5, EDGES)
        assert abs(est.midpoint - math.pi / 8.0) < 1e-6

    def test_degenerate_image(self):
        p = problem("x^2", "0*t+2", 0.0, 1.0)
        est = lhs_integral(p, 1e-6, EDGES)
        assert est.lower == est.upper == 0.0

    def test_undefined_endpoint_probed(self):
        # phi(0) is undefined but has limit 0
        p = problem("x^3", "t*sin(1/t)", 0.0, 2.0 / math.pi)
        est = lhs_integral(p, 1e-5, EDGES)
        assert abs(est.midpoint - 4.0 / math.pi**4) < 1e-5

    def test_reversed_is_negative(self):
        p = problem("x^2", "-t", -1.0, 0.0)
        est = lhs_integral(p, 1e-5, EDGES)
        assert abs(est.midpoint - (-1.0 / 3.0)) < 1e-6


class TestRhsIntegral:
    def test_transformed_rational(self):
        # f(sqrt(t)) * (2 sqrt(t))^-1 == 0.5 / (t^2 + 1)
        p = problem("x/(x^4+1)", "sqrt(t)", 0.0, 1.0)
        est = rhs_integral(p, 1e-5, EDGES)
        assert abs(est.midpoint - math.pi / 8.0) < 1e-6

    def test_oscillator_with_endpoint_singularity(self):
        p = problem("x^3", "t*sin(1/t)", 0.0, 2.0 / math.pi)
        est = rhs_integral(p, 5e-4, SamplingConfig(samples_per_cell=64))
        assert abs(est.midpoint - 4.0 / math.pi**4) < 5e-4

    def test_supplied_phi_prime_used(self):
        p = problem("x^2", "t^2", 0.0, 1.0, phi_prime=parse("2*t"))
        est = rhs_integral(p, 1e-6, EDGES)
        assert abs(est.midpoint - 1.0 / 3.0) < 1e-6

    def test_abs_phi(self):
        # d|t| = t/|t|, compiled into the one t-tape like any other phi'
        p = problem("x^2", "abs(t)", 0.5, 1.5)
        est = rhs_integral(p, 1e-5, EDGES)
        want = (1.5**3 - 0.5**3) / 3.0
        assert abs(est.midpoint - want) < 1e-5

    def test_varying_exponent_phi(self):
        # d(t^t) = t^t (log t + 1): the rhs is phi(t)^2 phi'(t), whose integral is phi^3/3
        p = problem("x^2", "t^t", 0.5, 1.5)
        est = rhs_integral(p, 1e-5, EDGES)
        want = (1.5**4.5 - 0.5**1.5) / 3.0
        assert abs(est.midpoint - want) < 1e-5


class TestVerify:
    def test_identity_substitution(self):
        p = problem("x^2", "t", 0.0, 1.0)
        report = verify(p, 1e-5, EDGES)
        assert report.verdict == VERIFIED
        assert abs(report.lhs.midpoint - 1.0 / 3.0) < 1e-8
        assert abs(report.rhs.midpoint - 1.0 / 3.0) < 1e-8
        # brackets overlap
        assert report.lhs.lower <= report.rhs.upper
        assert report.rhs.lower <= report.lhs.upper

    def test_decreasing_substitution_signed(self):
        p = problem("x^2", "-t", -1.0, 0.0)
        report = verify(p, 1e-5, EDGES)
        assert report.verdict == VERIFIED
        # phi(alpha) = 1 > phi(beta) = 0, so both sides equal -1/3
        assert abs(report.lhs.midpoint + 1.0 / 3.0) < 1e-6
        assert abs(report.rhs.midpoint + 1.0 / 3.0) < 1e-6

    def test_orientation_antisymmetry(self):
        fwd = problem("x^2", "t", 0.0, 1.0)
        rev = problem("x^2", "1-t", 0.0, 1.0)
        lhs_fwd = lhs_integral(fwd, 1e-5, EDGES)
        lhs_rev = lhs_integral(rev, 1e-5, EDGES)
        assert lhs_rev.lower == -lhs_fwd.upper
        assert lhs_rev.upper == -lhs_fwd.lower
        assert verify(rev, 1e-5, EDGES).verdict == VERIFIED

    def test_mismatch_with_wrong_derivative(self):
        p = problem("x^2", "t", 0.0, 1.0, phi_prime=parse("2"))
        report = verify(p, 1e-5, EDGES)
        assert report.verdict == MISMATCH
        assert report.abs_diff > 0.3

    def test_mismatch_over_an_empty_image(self):
        # phi(0) = phi(1): the lhs is the exact zero estimate on the second grid too
        p = problem("x", "t*(1-t)", 0.0, 1.0, phi_prime=parse("1"))
        report = verify(p, 1e-3, EDGES)
        assert report.verdict == MISMATCH and report.reason == ""
        assert report.lhs.cells == 0 and abs(report.abs_diff - 1 / 6) < 1e-3

    def test_mismatch_of_aliasing_brackets_is_not_confirmed(self):
        # at 2 samples every lhs edge k/1024 is a zero of f, so the lhs closes
        # near 0 at 1,024 cells; on 1,025 cells both sides close near 1/2
        p = problem("sin(1024*pi*x)^2", "t^2", 0.0, 1.0)
        report = verify(p, 0.2, EDGES, max_cells=2**16)
        assert report.verdict == INCONCLUSIVE
        assert report.reason.startswith(
            "the mismatch is not confirmed on 1025 lhs and 32769 rhs cells: the midpoints differ by"
        )
        assert (report.lhs.cells, report.rhs.cells) == (1024, 32768)  # the accepted brackets
        assert report.lhs.upper < 1e-25 and report.abs_diff > 0.4

    @pytest.mark.parametrize("tol", [0.2, 1e-3])
    def test_no_mismatch_on_the_aliasing_battery(self, tol):
        # sin(m*2^k*pi*x)^2 has m*2^(k-1) periods on [0, 1]; from k = 10 they
        # alias with the power-of-two grids (k = 8 and 9 are controls)
        for k in range(8, 15):
            for m in (1, 63):
                for samples in (2, 64):
                    for phi in ("t", "t^2", "2*t"):
                        p = problem(f"sin({m * 2**k}*pi*x)^2", phi, 0.0, 1.0)
                        report = verify(p, tol, SamplingConfig(samples), max_cells=2**16)
                        assert report.verdict != MISMATCH, (k, m, samples, phi)

    def test_inconclusive_when_phi_never_defined(self):
        p = problem("x^2", "sqrt(-1-t^2)", 0.0, 1.0)
        report = verify(p, 1e-5, EDGES)
        assert report.verdict == INCONCLUSIVE
        assert report.reason

    def test_inconclusive_on_unattainable_tolerance(self):
        p = problem("x^2", "t", 0.0, 1.0)
        report = verify(p, 1e-13, EDGES, max_cells=2**14)
        assert report.verdict == INCONCLUSIVE
        assert report.lhs is not None  # last bracket carried

    def test_declared_domain_specialization(self):
        p = problem("x/(x^4+1)", "t", 0.0, 1.0)
        report = verify(p, 1e-5, EDGES)
        assert report.hypotheses.verdict("endpoints_hit_domain") == UNDECIDABLE
        direct = darboux.integrate(p.f, Interval(0.0, 1.0), 5e-6, EDGES)
        assert report.lhs.lower == direct.lower
        assert report.lhs.upper == direct.upper

    def test_identity_substitution_law_over_battery(self, battery):
        # phi(t) = t: lhs and rhs brackets overlap for every member,
        # including the staircase supplied as a plain callable
        for b in battery:
            p = SubstitutionProblem(b.fn, parse("t"), 0.0, 1.0)
            report = verify(p, 1e-4, EDGES)
            assert report.verdict == VERIFIED, b.name
            assert report.lhs.lower <= report.rhs.upper
            assert report.rhs.lower <= report.lhs.upper

    def test_non_finite_sum_is_inconclusive(self):
        # phi(800) overflows: the lhs interval is not finite and the rhs
        # product's sum overflows at the first level
        report = verify(problem("x", "exp(t)", 0.0, 800.0), 1e-5, EDGES)
        assert report.verdict == INCONCLUSIVE
        assert report.lhs is None
        assert report.rhs.cells == 2**10
        assert "rhs: sum is not finite" in report.reason


def affine_case_tolerance(coeffs, u, v) -> float:
    """Bracket tolerance that forces enough refinement for 1e-9 values.

    The midpoint converges one order faster than the bracket, so pick
    the tolerance from the oracle's own variation estimate: stopping
    then lands near 2^16 cells and the trapezoid-order error is ~1e-12.
    """
    xs = np.linspace(min(u, v), max(u, v), 2001)
    dmax = max(
        float(np.abs(sum(k * coeffs[k] * xs ** (k - 1) for k in range(1, 5))).max()),
        1e-300,
    )
    width = abs(v - u)
    return max(dmax * width * width / 2**16, 1e-12)


class TestAffineOracle:
    def test_randomized_cases(self):
        rng = np.random.default_rng(42)
        for case in range(5):
            coeffs = [float(v) for v in rng.uniform(-0.5, 0.5, 5)]
            m = float(rng.uniform(0.25, 0.75) * (1 if case % 2 else -1))
            c = float(rng.uniform(-0.25, 0.25))
            f_text = "+".join(f"({coeffs[k]!r})*x^{k}" for k in range(5))
            p = problem(f_text, f"({m!r})*t+({c!r})", 0.0, 0.5)

            def F(x):
                return math.fsum(coeffs[k] * x ** (k + 1) / (k + 1) for k in range(5))

            u, v = c, m * 0.5 + c
            want = F(v) - F(u)
            report = verify(p, 2.0 * affine_case_tolerance(coeffs, u, v), EDGES)
            assert report.verdict == VERIFIED
            assert abs(report.lhs.midpoint - want) < 1e-9
            assert abs(report.rhs.midpoint - want) < 1e-9


# Reference probes with one np.linspace, one evaluation and one finite-max
# per endpoint window or continuity grid, and each evaluator probed on its
# own.  check_hypotheses, which evaluates a grid and all windows (or all
# three grids) in one call per evaluator, must match them bit for bit.


def _ref_finite_stats(ys):
    finite = ys[np.isfinite(ys)]
    if finite.size == 0:
        return math.nan, 0
    return float(np.abs(finite).max()), int(finite.size)


def _ref_window_maxima(ev, lo, hi, at_left):
    width = hi - lo
    out = []
    for j in range(9):
        w_far = width * 10.0 ** (-j)
        w_near = width * 10.0 ** (-j - 1)
        if at_left:
            xs = np.linspace(lo + w_near, lo + w_far, 64)
        else:
            xs = np.linspace(hi - w_far, hi - w_near, 64)
        m, count = _ref_finite_stats(ev(xs))
        out.append(m if count else math.nan)
    return out


def _ref_bounded_verdict(ev, lo, hi, grid_size):
    ys = ev(np.linspace(lo, hi, grid_size))
    grid_max, defined = _ref_finite_stats(ys)
    witness = {"grid_max": grid_max, "defined_samples": defined}
    if defined == 0:
        return CV.HypothesisCheck("", FAIL, witness)
    diverging = bool(np.isinf(ys).any()) or grid_max >= CV._OVERFLOW_LIMIT
    for side, at_left in (("left", True), ("right", False)):
        maxima = _ref_window_maxima(ev, lo, hi, at_left)
        witness[f"{side}_window_maxima"] = maxima
        clean = [m for m in maxima if not math.isnan(m)]
        if len(clean) >= 2:
            first, last = clean[0], clean[-1]
            if last >= CV._OVERFLOW_LIMIT or last > CV._GROWTH_LIMIT * max(first, 1e-12):
                diverging = True
    return CV.HypothesisCheck("", FAIL if diverging else PASS, witness)


def _ref_bounded_verdicts(ev, lo, hi, grid):
    # ev gives one array, or several as rows: one reference check per row
    rows = ev(grid).reshape(-1, grid.size).shape[0]
    return [
        _ref_bounded_verdict(lambda xs, j=j: ev(xs).reshape(rows, -1)[j], lo, hi, grid.size)
        for j in range(rows)
    ]


def _ref_modulus(ev, lo, hi, n):
    ys = ev(np.linspace(lo, hi, n))
    with np.errstate(invalid="ignore"):
        diffs = np.abs(np.diff(ys))
    diffs = diffs[np.isfinite(diffs)]
    return float(diffs.max()) if diffs.size else math.nan


def _ref_continuity_verdict(ev, lo, hi, grid):
    mods = [_ref_modulus(ev, lo, hi, k * grid.size) for k in (1, 2, 4)]
    witness = {"sampled_moduli": mods}
    if any(math.isnan(m) for m in mods):
        return CV.HypothesisCheck("", UNDECIDABLE, witness)
    scale = 1.0 + max(mods)
    shrinking = mods[2] <= max(0.8 * mods[0], 1e-9 * scale)
    return CV.HypothesisCheck("", PASS if shrinking else FAIL, witness)


def _step(x):
    return np.where(x < 0.5, 0.0, 1.0)


# Undefined regions (1/x, log, sqrt of a negative), overflow-scale values,
# a plain callable, and phi with a kink (abs: phi' undefined at it).
# exp(t) on [0, 800] gives an unbounded J.
_PROBE_FS = st.sampled_from(("x", "x^3", "1/x", "log(x)", "sqrt(-x)", "tan(x)", "1e308*x",
                             "exp(x)", "sin(1/x)", "abs(x-0.5)", "1", _step))
_PROBE_PHIS = st.sampled_from(("t", "t*sin(1/t)", "1/t", "log(t)", "tan(t)", "abs(t-0.5)",
                               "sqrt(t)", "exp(t)", "t^3-t", "1e300*t", "sqrt(1-t^2)"))
_PROBE_ALPHAS = st.sampled_from((0.0, -1.0, 0.5, 1e-310, -1e300, 5e-324))
_PROBE_WIDTHS = st.sampled_from((1.0, 2.0 / math.pi, 800.0, 1e-12, 1e-320, 1e300, 1.5e308))


class TestHypotheses:
    @settings(max_examples=150, deadline=None)
    @given(f=_PROBE_FS, phi=_PROBE_PHIS, alpha=_PROBE_ALPHAS, width=_PROBE_WIDTHS,
           grid_size=st.sampled_from((100, 137, 1000)))
    # every window step of a width near 1e-320 underflows to 0 below some decade
    @example(f="x", phi="t", alpha=0.0, width=1e-320, grid_size=1000)
    @example(f="x", phi="exp(t)", alpha=0.0, width=800.0, grid_size=1000)
    def test_matches_per_window_reference(self, f, phi, alpha, width, grid_size):
        beta = alpha + width
        assume(alpha < beta and math.isfinite(beta - alpha))

        def report():
            p = SubstitutionProblem(
                parse(f) if isinstance(f, str) else f, parse(phi), alpha, beta
            )
            return json.dumps(check_hypotheses(p, grid_size).to_json())

        got = report()
        with mock.patch.object(CV, "_bounded_verdicts", _ref_bounded_verdicts), \
                mock.patch.object(CV, "_continuity_verdict", _ref_continuity_verdict):
            want = report()
        assert got == want  # json writes NaN as NaN, so NaN compares as NaN

    def test_formula_problem_probes_in_four_evaluations(self, monkeypatch):
        sizes = []
        original = darboux.evaluate_array

        def counting(e, xs):
            sizes.append(xs.size)
            return original(e, xs)

        monkeypatch.setattr(darboux, "evaluate_array", counting)
        h = check_hypotheses(problem("x^2+1", "t^3+t", 0.0, 1.0))
        assert h.verdict("product_bounded") == PASS
        # phi's continuity grids, phi' and the product in one run, f on J, both ends
        assert len(sizes) <= 4
        assert sum(sizes) == 7000 + 2 * (1000 + 18 * 64) + 2

    def test_verify_evaluates_phi_at_each_endpoint_once(self, monkeypatch):
        p = problem("x^2", "t^3-t", 0.25, 1.0)
        at = []
        original = darboux.evaluate_array

        def counting(e, xs):
            if e is p.phi and xs.size <= 2:
                at.append(xs.tolist())
            return original(e, xs)

        monkeypatch.setattr(darboux, "evaluate_array", counting)
        report = verify(p, 1e-5, EDGES)
        assert report.verdict == VERIFIED
        assert at == [[0.25, 1.0]]  # both ends in one call

    def test_undefined_endpoint_is_not_kept(self, monkeypatch):
        p = problem("x", "log(t)", -1.0, 1.0)
        calls = []
        original = darboux.evaluate_array

        def counting(e, xs):
            if e is p.phi:
                calls.append(xs.size)
            return original(e, xs)

        monkeypatch.setattr(darboux, "evaluate_array", counting)
        for _ in range(2):
            with pytest.raises(darboux.UndefinedSamplesError, match="near t = -1.0"):
                p.image_endpoints()
        assert calls == 2 * [2, 7]  # both ends, then alpha's seven inward probes, each time

    def test_verify_compiles_two_tapes(self, monkeypatch):
        # one t-tape for phi, phi' and the product, one x-tape for f
        compiled = []
        original = E._compile

        def counting(*roots):
            compiled.append(len(roots))
            return original(*roots)

        monkeypatch.setattr(E, "_compile", counting)
        report = verify(problem("x^2+1", "t^3+t", 0.0, 1.0), 1e-5, EDGES)
        assert report.verdict == VERIFIED
        assert compiled == [3, 1]

    def test_verify_differentiates_once(self, monkeypatch):
        calls = []
        original = CV.differentiate

        def counting(e, *args):
            calls.append(e)
            return original(e, *args)

        monkeypatch.setattr(CV, "differentiate", counting)
        report = verify(problem("x^2", "t^3-t", 0.0, 1.0), 1e-5, EDGES)
        assert report.verdict == VERIFIED
        assert len(calls) == 1

    def test_grid_size_validated(self):
        p = problem("x", "t", 0.0, 1.0)
        with pytest.raises(ValueError):
            check_hypotheses(p, grid_size=50)

    def test_bounded_check_evaluates_its_grid_once(self):
        sizes = []

        def ev(xs):
            sizes.append(xs.size)
            return xs**2

        (check,) = CV._bounded_verdicts(ev, 0.0, 1.0, np.linspace(0.0, 1.0, 1000))
        assert check.verdict == PASS
        assert sizes == [1000 + 18 * 64]

    def test_unbounded_image_interval_is_undecidable(self):
        h = check_hypotheses(problem("x", "exp(t)", 0.0, 800.0))
        check = next(c for c in h if c.name == "f_bounded_on_J")
        assert check.verdict == UNDECIDABLE
        assert check.witness == {"unbounded_end": "upper"}
        h = check_hypotheses(problem("x", "-exp(t)", 0.0, 800.0))
        assert next(c for c in h if c.name == "f_bounded_on_J").witness == {
            "unbounded_end": "lower"
        }

    def test_oscillator_flags(self):
        p = problem("x^3", "t*sin(1/t)", 0.0, 2.0 / math.pi)
        h = check_hypotheses(p)
        assert h.verdict("phi_prime_bounded") == FAIL
        assert h.verdict("product_bounded") == PASS
        assert h.verdict("phi_continuous") == PASS
        assert h.verdict("f_bounded_on_J") == PASS

    def test_sqrt_flags(self):
        p = problem("x/(x^4+1)", "sqrt(t)", 0.0, 1.0)
        h = check_hypotheses(p)
        assert h.verdict("phi_prime_bounded") == FAIL
        assert h.verdict("product_bounded") == PASS

    def test_polynomial_all_pass(self):
        p = problem("x^2+1", "t^3-t", 0.0, 1.0)
        h = check_hypotheses(p)
        assert h.verdict("phi_continuous") == PASS
        assert h.verdict("phi_prime_bounded") == PASS
        assert h.verdict("product_bounded") == PASS
        assert h.verdict("f_bounded_on_J") == PASS

    def test_ae_conditions_never_decided(self):
        p = problem("x", "t", 0.0, 1.0)
        h = check_hypotheses(p)
        assert h.verdict("phi_prime_ae_continuous") == UNDECIDABLE
        assert h.verdict("f_ae_continuous") == UNDECIDABLE

    def test_discontinuous_phi_fails_continuity(self):
        # floor-like jump built from the expression language is not
        # available; a steep but resolvable ramp must still pass, so use
        # a genuinely jumpy callable via phi_prime override instead.
        p = problem("x", "atan(1000000*(t-1/2))", 0.0, 1.0)
        h = check_hypotheses(p, grid_size=200)
        assert h.verdict("phi_continuous") == FAIL

    def test_witnesses_present(self):
        p = problem("x", "t", 0.0, 1.0)
        for check in check_hypotheses(p):
            assert isinstance(check.witness, dict)
            assert check.witness


class TestReportJson:
    def test_schema_fields(self):
        p = problem("x^2", "t", 0.0, 1.0)
        report = verify(p, 1e-5, EDGES)
        payload = report_to_json(report)
        assert set(payload) == {
            "lhs", "rhs", "abs_diff", "tol", "hypotheses", "verdict", "reason"
        }
        assert payload["reason"] == ""
        assert set(payload["lhs"]) == {"lower", "upper"}
        for entry in payload["hypotheses"]:
            assert set(entry) == {"name", "verdict", "witness"}

    def test_reason_names_the_side_that_failed(self):
        payload = report_to_json(verify(problem("x", "exp(t)", 0.0, 800.0), 1e-5, EDGES))
        assert payload["verdict"] == INCONCLUSIVE
        assert "rhs: sum is not finite" in payload["reason"]

    def test_round_trip(self):
        p = problem("x^2", "t", 0.0, 1.0)
        payload = report_to_json(verify(p, 1e-5, EDGES))
        text = json.dumps(payload)
        again = json.loads(text)
        assert again == payload
        assert again["lhs"]["lower"] == payload["lhs"]["lower"]


class TestProblemType:
    def test_endpoint_order(self):
        with pytest.raises(ValueError):
            problem("x", "t", 1.0, 0.0)

    def test_immutable(self):
        p = problem("x", "t", 0.0, 1.0)
        with pytest.raises(AttributeError):
            p.alpha = 5.0

    def test_derived_expressions_leave_equality_alone(self):
        p = problem("x^2", "t^3-t", 0.0, 1.0)
        fresh = problem("x^2", "t^3-t", 0.0, 1.0)
        check_hypotheses(p)
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh)
