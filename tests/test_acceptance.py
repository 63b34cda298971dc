"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
prints a PASS/FAIL line (visible with ``pytest -s`` or on failure).
"""

import math
import time

import numpy as np

from quadratura import darboux
from quadratura.approximant import build_approximant, eval_pl, integrate_pl, l1_distance
from quadratura.changevar import FAIL, PASS, VERIFIED, SubstitutionProblem, verify
from quadratura.darboux import SamplingConfig
from quadratura.expr import differentiate, evaluate_array, parse
from quadratura.gallery import GALLERY, run_gallery_entry
from quadratura.partition import Interval, uniform_partition

EDGES = SamplingConfig(samples_per_cell=2)
UNIT = Interval(0.0, 1.0)


def record(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_sqrt_substitution_to_1e7():
    expected = math.pi / 8.0
    t0 = time.perf_counter()
    row = run_gallery_entry(GALLERY[1])  # E2
    elapsed = time.perf_counter() - t0
    ok = (
        row["lhs_error"] <= 1e-7
        and row["rhs_error"] <= 1e-7
        and row["verdict"] == VERIFIED
        and elapsed < 1.0
    )
    record(
        1,
        ok,
        f"sqrt substitution: |lhs-pi/8|={row['lhs_error']:.2e}, "
        f"|rhs-pi/8|={row['rhs_error']:.2e} (tol 1e-7), verdict={row['verdict']}, "
        f"{elapsed:.2f}s (< 1 s); expected {expected:.10f}",
    )


def test_criterion_2_oscillator_substitution_to_5e4():
    t0 = time.perf_counter()
    row = run_gallery_entry(GALLERY[0])  # E1
    elapsed = time.perf_counter() - t0
    verdicts = {h["name"]: h["verdict"] for h in row["detail"]["hypotheses"]}
    ok = (
        row["lhs_error"] <= 5e-4
        and row["rhs_error"] <= 5e-4
        and row["verdict"] == VERIFIED
        and verdicts["phi_prime_bounded"] == FAIL
        and verdicts["product_bounded"] == PASS
        and elapsed < 10.0
    )
    record(
        2,
        ok,
        f"oscillator substitution: errors ({row['lhs_error']:.2e}, "
        f"{row['rhs_error']:.2e}) <= 5e-4, phi' bounded={verdicts['phi_prime_bounded']}, "
        f"product bounded={verdicts['product_bounded']}, {elapsed:.2f}s (< 10 s)",
    )


def test_criterion_3_tangent_improper():
    t0 = time.perf_counter()
    row = run_gallery_entry(GALLERY[2])  # E3
    elapsed = time.perf_counter() - t0
    detail = row["detail"]
    rhs = detail["rhs"]
    lhs = detail["lhs"]
    rhs_err = abs(rhs["last"] - math.pi)
    last_step = lhs["steps"][-1]
    lhs_err = abs(last_step["value"] - math.pi)
    ok = (
        rhs["converged"]
        and rhs_err <= 1e-9
        and last_step["lo"] == -2000.0
        and last_step["hi"] == 2000.0
        and lhs_err <= 1.5e-3
        and elapsed < 5.0
    )
    record(
        3,
        ok,
        f"tangent improper: rhs truncations -> pi within {rhs_err:.2e} (tol 1e-9), "
        f"lhs at R=2000 within {lhs_err:.2e} (tol 1.5e-3, tail 2/R), "
        f"{elapsed:.2f}s (< 5 s)",
    )


def test_criterion_4_approximant_property_suite(battery):
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 10_000)
    violations = 0
    for b in battery:
        fv = darboux.as_evaluator(b.fn)(grid)
        for n in (3, 6, 9, 12):
            g = build_approximant(b.fn, UNIT, n, EDGES, hints=b.hints)
            gv = eval_pl(g, grid)
            violations += int(np.count_nonzero(gv < 0.0))
            violations += int(np.count_nonzero(gv > fv))

    deficit_ok = True
    for b in battery:
        for n in range(3, 13):
            g = build_approximant(b.fn, UNIT, n, EDGES, hints=b.hints)
            s = darboux.lower_sum(
                b.fn, uniform_partition(UNIT, 2**n), EDGES, hints=b.hints
            )
            deficit = s - integrate_pl(g, 0.0, 1.0)
            if not (-1e-12 <= deficit <= b.sup_01 / n + 1e-12):
                deficit_ok = False

    l1_ok = True
    worst_l1 = 0.0
    for b in battery:
        if not b.continuous:
            continue
        g = build_approximant(b.fn, UNIT, 12, EDGES, hints=b.hints)
        l1 = l1_distance(b.fn, g, UNIT, 1e-3, EDGES)
        worst_l1 = max(worst_l1, l1)
        if l1 >= 0.02:
            l1_ok = False

    elapsed = time.perf_counter() - t0
    ok = violations == 0 and deficit_ok and l1_ok and elapsed < 30.0
    record(
        4,
        ok,
        f"approximant suite: below-violations={violations} (want 0), "
        f"deficit bound n=3..12 {'holds' if deficit_ok else 'BROKEN'}, "
        f"worst l1 at n=12 = {worst_l1:.4f} (< 0.02), {elapsed:.1f}s (< 30 s)",
    )


def test_criterion_5_symbolic_vs_central_differences():
    cases = [
        ("x^3", -2.0, 2.0),
        ("t*sin(1/t)", 0.05, 2.0 / math.pi),  # singular set near t = 0 excluded
        ("x/(x^4+1)", 0.0, 1.0),
        ("sqrt(t)", 0.01, 1.0),  # derivative blows up at 0
        ("1/(x^2+1)", -4.0, 4.0),
        ("tan(t)", -1.47, 1.47),  # poles at +-pi/2 excluded
    ]
    rng = np.random.default_rng(20240811)
    h = 1e-6
    worst = 0.0
    worst_name = ""
    for text, lo, hi in cases:
        e = parse(text)
        d = differentiate(e)
        xs = rng.uniform(lo, hi, 100)
        sym = evaluate_array(d, xs)
        central = (evaluate_array(e, xs + h) - evaluate_array(e, xs - h)) / (2.0 * h)
        rel = float((np.abs(sym - central) / (1.0 + np.abs(sym))).max())
        if rel > worst:
            worst, worst_name = rel, text
    ok = worst <= 1e-6
    record(
        5,
        ok,
        f"symbolic vs central differences over gallery formulas: worst relative "
        f"deviation {worst:.2e} ({worst_name}) <= 1e-6",
    )


def test_criterion_6_bracket_soundness(battery):
    sound = True
    gap_ok = True
    for b in battery:
        for k in range(10, 16):
            p = uniform_partition(UNIT, 2**k)
            lo = darboux.lower_sum(b.fn, p, EDGES, hints=b.hints)
            hi = darboux.upper_sum(b.fn, p, EDGES, hints=b.hints)
            if not (lo <= b.integral_01 <= hi):
                sound = False
            if b.lipschitz is not None:
                bound = b.lipschitz * UNIT.width * p.norm
                if hi - lo > bound * (1 + 1e-9) + 1e-15:
                    gap_ok = False
    ok = sound and gap_ok
    record(
        6,
        ok,
        f"bracket soundness with exact infima: closed-form value enclosed at every "
        f"level {'yes' if sound else 'NO'}; Lipschitz gap bound "
        f"{'holds' if gap_ok else 'BROKEN'}",
    )


def test_criterion_7_affine_orientation_oracle():
    rng = np.random.default_rng(77)
    worst = 0.0
    all_verified = True
    saw_negative_slope = False
    for case in range(20):
        degree = case % 5
        coeffs = [float(v) for v in rng.uniform(-0.5, 0.5, degree + 1)]
        m = float(rng.uniform(0.25, 0.75)) * (1.0 if case % 2 == 0 else -1.0)
        c = float(rng.uniform(-0.25, 0.25))
        saw_negative_slope = saw_negative_slope or m < 0
        f_text = "+".join(f"({coeffs[k]!r})*x^{k}" for k in range(degree + 1))
        problem = SubstitutionProblem(
            parse(f_text), parse(f"({m!r})*t+({c!r})"), 0.0, 0.5
        )

        def antiderivative(x):
            return math.fsum(
                coeffs[k] * x ** (k + 1) / (k + 1) for k in range(degree + 1)
            )

        u, v = c, m * 0.5 + c
        want = antiderivative(v) - antiderivative(u)

        xs = np.linspace(min(u, v), max(u, v), 2001)
        slope = sum(
            k * coeffs[k] * xs ** (k - 1) for k in range(1, degree + 1)
        )
        dmax = max(float(np.abs(slope).max()) if degree else 0.0, 1e-300)
        width = abs(v - u)
        tol = 2.0 * max(dmax * width * width / 2**16, 1e-12)

        report = verify(problem, tol, EDGES)
        all_verified = all_verified and report.verdict == VERIFIED
        worst = max(
            worst,
            abs(report.lhs.midpoint - want),
            abs(report.rhs.midpoint - want),
        )
    ok = all_verified and worst <= 1e-9 and saw_negative_slope
    record(
        7,
        ok,
        f"affine substitution oracle: 20 randomized cases incl. reversed "
        f"orientation, worst |value - closed form| = {worst:.2e} <= 1e-9, "
        f"all verified={all_verified}",
    )
