"""The four seeded workloads: generated inputs, the timed call, the check.

Every workload is a sequence of rounds.  Round ``r`` of seed ``s`` is a
fixed mix of problem classes whose parameters come from
``random.Random(f"{name}:{s}:{r}")``, so each round holds fresh inputs
of the same shape and a run's cost does not hinge on which seed it got.
An operation is what one CLI call would do: parse the formulas, then call
the library.  Only the generated formulas, endpoints and tolerances reach
the library.

References are closed forms evaluated with ``math`` (or numpy lambdas for
grid checks), never with the package's evaluator.  A check returns
``(cause, wrong, err_over_tol)``: ``cause`` is None when the operation
succeeded; ``wrong`` marks a verdict or value that is false, as opposed to
an error or an inconclusive answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quadratura import approximant, changevar, cli, darboux, expr, partition

CFG2 = darboux.SamplingConfig(samples_per_cell=2)
CFG64 = darboux.SamplingConfig(samples_per_cell=64)

# Exceptions inside the documented contract (ParseError is a ValueError).
CONTRACT_ERRORS = (darboux.NonConvergenceError, ValueError)

Check = Callable[[object, BaseException | None], tuple[str | None, bool, float | None]]


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list[Op]]
    trace_rounds: int  # rounds in a traced run; fixed, so counts repeat exactly
    spans: tuple[str, ...]  # spans a traced run must record
    # The speed probe its timings are scaled by (see run.py): "interp" where
    # operations are many small calls, "numpy" where they are bulk sampling.
    # Each is the probe whose drift tracked the operations' drift best.
    probe: str

    def round(self, seed: int, r: int) -> list[Op]:
        return self.make_round(random.Random(f"{self.name}:{seed}:{r}"), r)


def _error_cause(exc: BaseException) -> str:
    return type(exc).__name__


def _check_verified(ref: float, tol: float, values: Callable[[object], tuple[float, ...]]) -> Check:
    """Expect a ``verified`` report whose values lie within ``tol`` of ``ref``."""

    def check(result, exc):
        if exc is not None:
            return _error_cause(exc), False, None
        if result.verdict == changevar.INCONCLUSIVE:
            return "inconclusive", False, None
        if result.verdict != changevar.VERIFIED:
            return f"wrong verdict {result.verdict}", True, None
        err = max(abs(v - ref) for v in values(result)) / tol
        if not err <= 1.0:
            return "value outside tolerance", True, err
        return None, False, err

    return check


def _report_midpoints(report) -> tuple[float, float]:
    return report.lhs.midpoint, report.rhs.midpoint


def _improper_values(report) -> tuple[float, float]:
    return report.lhs.value, report.rhs.value


def _verify_op(f_text: str, phi_text: str, alpha: float, beta: float, tol: float, cfg=CFG2):
    """Mirror ``quadratura substitute``."""

    def run():
        p = changevar.SubstitutionProblem(
            f=expr.parse(f_text), phi=expr.parse(phi_text), alpha=alpha, beta=beta
        )
        return changevar.verify(p, tol, cfg)

    return run


# ---------------------------------------------------------------------------
# verify-oscillatory: the E1 family at 64 samples per cell

OSC_TOL = 1e-5


def _oscillatory_round(rng: random.Random, r: int) -> list[Op]:
    # f = x^3: lower powers do not close the rhs bracket below the 2^24 cap
    # in reasonable time (x^2 needs 2^19 cells, x^1 hits the cap).  beta
    # stays where both sides need 2^16 cells, so every operation is alike.
    ops = []
    for _ in range(4):
        beta = 2.0 / math.pi * rng.uniform(1.002, 1.03)
        u = beta * math.sin(1.0 / beta)  # phi(beta); phi(0+) = 0
        run = _verify_op("x^3", "t*sin(1/t)", 0.0, beta, OSC_TOL, CFG64)
        ops.append(Op("E1 x^3", run, _check_verified(u**4 / 4.0, OSC_TOL, _report_midpoints)))
    return ops


# ---------------------------------------------------------------------------
# improper-truncation: truncation schedules on (0, inf) and the E3 example

# f = c*x^k, phi, and phi's limits at t -> 0 and t -> inf
_IMPROPER_MAPS = ((1, "1/(1+t)", 1.0, 0.0), (2, "t/(1+t)", 0.0, 1.0), (3, "exp(-t)", 1.0, 0.0))


def _improper_op(f: str, phi: str, schedule: dict, **runner) -> Callable[[], object]:
    """Mirror ``quadratura improper``: schedule, first truncation, runner."""

    def run():
        sched = cli.ImproperSchedule(**schedule)
        alpha, beta = sched.truncation(0)
        p = changevar.SubstitutionProblem(
            f=expr.parse(f), phi=expr.parse(phi), alpha=alpha, beta=beta
        )
        return cli.improper_verify(p, sched, cfg=CFG2, **runner)

    return run


def _improper_round(rng: random.Random, r: int) -> list[Op]:
    ops = []
    for k, phi, x0, x1 in _IMPROPER_MAPS:
        # The seed draws the scale c, and every tolerance scales with it, so
        # each round does the same work.  Round 0 holds the CLI test case
        # --f x --phi 1/(1+t) unscaled.
        c = 1.0 if (r == 0 and k == 1) else round(rng.uniform(0.5, 2.0), 3)
        tol = 1e-3 * c
        run = _improper_op(
            f"{c!r}*x^{k}",
            phi,
            dict(lo=0.0, hi=math.inf, lo_open=True, hi_open=True, offset=0.25,
                 max_steps=20, tol=tol),
            tol=tol,
            rhs_inner_tol=1e-5 * c,
            lhs_inner_tol=1e-5 * c,
        )
        ref = c * (x1 ** (k + 1) - x0 ** (k + 1)) / (k + 1)
        ops.append(Op(f"x^{k} over {phi}", run, _check_verified(ref, tol, _improper_values)))
    # E3 with the gallery's schedule: integral of 1/(x^2+1) over the real line
    run = _improper_op(
        "1/(x^2+1)",
        "tan(t)",
        dict(lo=-math.pi / 2, hi=math.pi / 2, lo_open=True, hi_open=True,
             offset=math.pi / 4, max_steps=40, tol=1e-9),
        tol=1.5e-3,
        rhs_inner_tol=2.5e-10,
        lhs_inner_tol=2e-2,
        lhs_cutoff_base=125.0,
        lhs_max_steps=5,
        lhs_tol=1.5e-3,
    )
    ops.append(Op("E3", run, _check_verified(math.pi, 1.5e-3, _improper_values)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# approximant-build: mirror of ``quadratura approx`` with exact hints


def _approximant_family(rng: random.Random, kind: str):
    """(formula, a, b, hints, reference lambda, max of f, integral of f)."""
    a = rng.uniform(0.0, 0.5)
    b = a + rng.uniform(0.5, 1.5)
    c = a + rng.uniform(0.2, 0.8) * (b - a)
    if kind == "power":
        k = rng.randint(1, 3)
        return (f"x^{k}", a, b, None, lambda x: x**k, b**k,
                (b ** (k + 1) - a ** (k + 1)) / (k + 1))
    if kind == "abs":
        return (f"abs(x-{c!r})", a, b, [c], lambda x: np.abs(x - c),
                max(c - a, b - c), ((c - a) ** 2 + (b - c) ** 2) / 2.0)
    if kind == "square":
        return (f"(x-{c!r})^2", a, b, [c], lambda x: (x - c) ** 2,
                max(c - a, b - c) ** 2, ((b - c) ** 3 + (c - a) ** 3) / 3.0)
    return ("exp(-x)", a, b, None, lambda x: np.exp(-x), math.exp(-a),
            math.exp(-a) - math.exp(-b))


def _approximant_op(rng: random.Random, kind: str, n: int) -> Op:
    text, a, b, hints, f_ref, f_max, f_int = _approximant_family(rng, kind)

    def run():
        f = expr.parse(text)
        iv = partition.Interval(a, b)
        g = approximant.build_approximant(f, iv, n, CFG2, hints)
        integral = approximant.integrate_pl(g, a, b)
        blocks = partition.uniform_partition(iv, 2**n)
        return g, integral, darboux.lower_sum(f, blocks, CFG2, hints)

    def check(result, exc):
        if exc is not None:
            return _error_cause(exc), False, None
        g, integral, block_sum = result
        xs = np.union1d(g.knots, np.linspace(a, b, 4097))
        gv = np.interp(xs, g.knots, g.values)
        if (gv < 0.0).any() or (gv > f_ref(xs) + 1e-12 * (1.0 + f_max)).any():
            return "approximant leaves [0, f]", True, None
        if integral > f_int + 1e-9:
            return "approximant integral above the integral of f", True, None
        bound = f_max * (b - a) / n
        deficit = block_sum - integral
        if not -1e-9 <= deficit <= bound + 1e-9:
            return "deficit bound", True, deficit / bound
        return None, False, deficit / bound

    return Op(f"{kind} n={n}", run, check)


def _approximant_round(rng: random.Random, r: int) -> list[Op]:
    # three levels per formula kind, so the median falls inside the n=12 group
    ops = [
        _approximant_op(rng, kind, n)
        for kind in ("power", "abs", "square", "exp")
        for n in (11, 12, 13)
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# formula-batch: many small substitution problems plus the hostile inputs

# phi kind -> (text template, phi, phi'); the affine one takes p and q
_PHI_KINDS = {
    "affine": ("{p!r}*t+{q!r}", lambda t, p, q: p * t + q, lambda t, p, q: p + 0.0 * t),
    "square": ("t^2", lambda t, p, q: t * t, lambda t, p, q: 2.0 * t),
    "sqrt": ("sqrt(t)", lambda t, p, q: np.sqrt(t), lambda t, p, q: 0.5 / np.sqrt(t)),
    "exp": ("exp(t)", lambda t, p, q: np.exp(t), lambda t, p, q: np.exp(t)),
    "sin": ("sin(t)", lambda t, p, q: np.sin(t), lambda t, p, q: np.cos(t)),
    "log1p": ("log(1+t)", lambda t, p, q: np.log1p(t), lambda t, p, q: 1.0 / (1.0 + t)),
    "atan": ("atan(t)", lambda t, p, q: np.arctan(t), lambda t, p, q: 1.0 / (1.0 + t * t)),
}

# Problems are kept small: the bracket width of a side is about its total
# variation times the cell width, and a problem is redrawn until both sides
# should close within this many cells.
_BATCH_MAX_CELLS = 2**15
_BATCH_GRID = 2049


def _poly_text(coeffs: list[float]) -> str:
    text = repr(coeffs[0])
    for j, c in enumerate(coeffs[1:], start=1):
        text += f" {'-' if c < 0 else '+'} {abs(c)!r}*x^{j}"
    return text


def _poly(coeffs: list[float], x):
    return sum(c * x**j for j, c in enumerate(coeffs))


def _cells_needed(values: np.ndarray, width: float, tol: float) -> float:
    return float(np.abs(np.diff(values)).sum()) * width / (tol / 2.0)


def _batch_problem(rng: random.Random, kind: str, degree: int) -> Op:
    template, phi, dphi = _PHI_KINDS[kind]
    while True:
        coeffs = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(degree + 1)]
        p, q = round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(-1.0, 1.0), 3)
        alpha = round(rng.uniform(0.05, 0.5), 3)
        beta = round(alpha + rng.uniform(0.1, 0.4), 3)
        u, v = float(phi(alpha, p, q)), float(phi(beta, p, q))
        antiderivative = [0.0] + [c / (j + 1) for j, c in enumerate(coeffs)]
        ref = _poly(antiderivative, v) - _poly(antiderivative, u)
        tol = 1e-5 * (1.0 + abs(ref))
        ts = np.linspace(alpha, beta, _BATCH_GRID)
        xs = np.linspace(u, v, _BATCH_GRID)
        product = _poly(coeffs, phi(ts, p, q)) * dphi(ts, p, q)
        need = max(
            _cells_needed(_poly(coeffs, xs), v - u, tol),
            _cells_needed(product, beta - alpha, tol),
        )
        if need <= _BATCH_MAX_CELLS:
            break
    run = _verify_op(_poly_text(coeffs), template.format(p=p, q=q), alpha, beta, tol)
    return Op(f"poly{degree} over {kind}", run, _check_verified(ref, tol, _report_midpoints))


def _check_hostile(fallback: Check | None) -> Check:
    """In contract: a contract error, or an inconclusive report.

    ``fallback`` judges a returned answer for inputs that have a finite
    true value; for the others any returned answer is wrong.
    """

    def check(result, exc):
        if isinstance(exc, CONTRACT_ERRORS):
            return None, False, None
        if exc is not None:
            return f"{_error_cause(exc)} outside contract", False, None
        if getattr(result, "verdict", None) == changevar.INCONCLUSIVE:
            return None, False, None
        if fallback is not None:
            return fallback(result, exc)
        return "answer for an unbounded integral", True, None

    return check


def _integrate_op(f_text: str, a: float, b: float, tol: float) -> Callable[[], object]:
    """Mirror ``quadratura integrate``."""
    return lambda: darboux.integrate_signed(expr.parse(f_text), a, b, tol, CFG2)


# The inputs reproduced in ROADMAP item 4; each round holds one of each.
HOSTILE = (
    Op("exp(x) on [0, 1000]", _integrate_op("exp(x)", 0.0, 1000.0, 1e-6), _check_hostile(None)),
    Op("phi=exp(t) to beta=800", _verify_op("x", "exp(t)", 0.0, 800.0, 1e-5), _check_hostile(None)),
    Op(
        "5000 nested parentheses",
        _verify_op("(" * 5000 + "x" + ")" * 5000, "t", 0.0, 1.0, 1e-5),
        _check_hostile(_check_verified(0.5, 1e-5, _report_midpoints)),
    ),
    Op("x on [0, 1e300]", _integrate_op("x", 0.0, 1e300, 1e-6), _check_hostile(None)),
)


def _batch_round(rng: random.Random, r: int) -> list[Op]:
    ops = [
        _batch_problem(rng, kind, degree)
        for kind in _PHI_KINDS
        for degree in (1, 2, 3)
        for _ in range(6)
    ]
    ops.extend(HOSTILE)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------

_COMMON = ("bench.op", "expr.parse", "expr.evaluate", "darboux.integrate", "darboux.reduce")
_VERIFY = ("expr.differentiate", "changevar.verify", "changevar.verify.lhs",
           "changevar.verify.rhs", "changevar.hypotheses")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-oscillatory", _oscillatory_round, 2, _COMMON + _VERIFY, "numpy"),
        Workload("improper-truncation", _improper_round, 1,
                 _COMMON + ("expr.differentiate", "cli.improper"), "numpy"),
        Workload("approximant-build", _approximant_round, 3,
                 ("bench.op", "expr.parse", "expr.evaluate", "darboux.reduce", "partition",
                  "darboux.cell_extremum", "darboux.partition_sum", "approximant.build",
                  "approximant.eval_pl", "approximant.integrate_pl"), "interp"),
        Workload("formula-batch", _batch_round, 5, _COMMON + _VERIFY, "interp"),
    )
}
