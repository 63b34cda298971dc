"""Numerically verify both sides of the substitution identity.

For f, a substitution map phi and endpoints alpha < beta, the two
integrals compared are the oriented integral of f between phi(alpha)
and phi(beta), and the integral of (f o phi) * phi' over [alpha, beta].
Both sides are bracketed independently; the report carries the brackets,
their midpoint difference, and heuristic hypothesis diagnostics.

Hypothesis checks are sampling heuristics: boundedness and continuity
verdicts come from grids, and genuinely measure-theoretic conditions
(almost-everywhere continuity) are always reported as undecidable
numerically rather than guessed.

phi' at the endpoints (or at isolated interior points) may fail to
exist; the quadrature skips isolated undefined samples, which realises
the freedom to assign such values arbitrarily without changing the
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import darboux
from .darboux import (
    CELL_CAP,
    DEFAULT_CONFIG,
    DarbouxEstimate,
    Evaluator,
    NonConvergenceError,
    SamplingConfig,
    UndefinedSamplesError,
    as_evaluator,
    integrate_signed,
)
from .expr import Expr, NonDifferentiableError, differentiate, mul, substitute
from .partition import Interval

__all__ = [
    "SubstitutionProblem",
    "HypothesisCheck",
    "HypothesisReport",
    "SubstitutionReport",
    "VERIFIED",
    "MISMATCH",
    "INCONCLUSIVE",
    "PASS",
    "FAIL",
    "UNDECIDABLE",
    "lhs_integral",
    "rhs_integral",
    "verify",
    "check_hypotheses",
    "verify_zero_extension",
    "report_to_json",
]

VERIFIED = "verified"
MISMATCH = "mismatch"
INCONCLUSIVE = "inconclusive"

PASS = "pass"
FAIL = "fail"
UNDECIDABLE = "undecidable-numerically"

_OVERFLOW_LIMIT = 1e15
_GROWTH_LIMIT = 10.0


@dataclass(frozen=True, slots=True)
class SubstitutionProblem:
    """One identity instance: f in x, phi in t, bounded [alpha, beta], alpha < beta.

    ``phi_prime`` overrides the symbolic derivative when given; when phi
    is not symbolically differentiable the engine falls back to central
    differences with step 1e-7 * (beta - alpha).  ``f_domain`` optionally
    declares the interval [a, b] that phi is expected to map onto
    (endpoint diagnostics only).
    """

    f: Expr
    phi: Expr
    alpha: float
    beta: float
    phi_prime: Expr | None = None
    f_domain: tuple[float, float] | None = None
    # (phi' or None, the product expression or None), built on first use so
    # the hypothesis probes and the rhs share one derivative and one tape.
    _derived: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if not math.isfinite(self.beta - self.alpha):
            raise ValueError(f"need a bounded [alpha, beta], got [{self.alpha}, {self.beta}]")

    @property
    def span(self) -> float:
        return self.beta - self.alpha

    def _derived_exprs(self) -> tuple[Expr | None, Expr | None]:
        """phi' (the override, else the symbolic derivative, else None) and
        (f o phi) * phi' as one expression (None unless all three are formulas).
        """
        derived = self._derived
        if derived is None:
            dphi = self.phi_prime
            if dphi is None:
                try:
                    dphi = differentiate(self.phi)
                except NonDifferentiableError:
                    pass
            product = None
            if all(isinstance(g, Expr) for g in (self.f, self.phi, dphi)):
                product = mul(substitute(self.f, self.phi), dphi)
            derived = (dphi, product)
            object.__setattr__(self, "_derived", derived)
        return derived

    def phi_prime_evaluator(self) -> Evaluator:
        dphi = self._derived_exprs()[0]
        if dphi is not None:
            return as_evaluator(dphi)
        phi_ev = as_evaluator(self.phi)
        h = 1e-7 * self.span

        def central(ts: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where phi overflows
                return (phi_ev(ts + h) - phi_ev(ts - h)) / (2.0 * h)

        return central

    def product_evaluator(self) -> Evaluator:
        """(f o phi) * phi', compiled as one expression when all are formulas.

        f, phi and phi' then share their common subterms (for t*sin(1/t),
        1/t and sin(1/t)); the values are those of the three separate
        evaluations, bit for bit where defined.
        """
        fused = self._derived_exprs()[1]
        if fused is not None:
            return as_evaluator(fused)
        f_ev = as_evaluator(self.f)
        phi_ev = as_evaluator(self.phi)
        dphi_ev = self.phi_prime_evaluator()

        def product(ts: np.ndarray) -> np.ndarray:
            # inf/NaN flow on to the sums.  One expression of temporaries
            # lets numpy reuse the left factor's buffer for the product.
            with np.errstate(over="ignore", invalid="ignore"):
                return f_ev(phi_ev(ts)) * dphi_ev(ts)

        return product

    def image_endpoints(self) -> tuple[float, float]:
        u = _endpoint_value(as_evaluator(self.phi), self.alpha, +1.0, self.span)
        v = _endpoint_value(as_evaluator(self.phi), self.beta, -1.0, self.span)
        return u, v


@dataclass(frozen=True, slots=True)
class HypothesisCheck:
    name: str
    verdict: str
    witness: dict

    def to_json(self) -> dict:
        return {"name": self.name, "verdict": self.verdict, "witness": self.witness}


@dataclass(frozen=True, slots=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]

    def verdict(self, name: str) -> str:
        for c in self.checks:
            if c.name == name:
                return c.verdict
        raise KeyError(name)

    def __iter__(self):
        return iter(self.checks)

    def to_json(self) -> list[dict]:
        return [c.to_json() for c in self.checks]


@dataclass(frozen=True, slots=True)
class SubstitutionReport:
    lhs: DarbouxEstimate | None
    rhs: DarbouxEstimate | None
    abs_diff: float
    tol: float
    hypotheses: HypothesisReport
    verdict: str
    reason: str = ""
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return report_to_json(self)


def report_to_json(report: SubstitutionReport) -> dict:
    def est(e: DarbouxEstimate | None):
        if e is None:
            return None
        return {"lower": e.lower, "upper": e.upper}

    return {
        "lhs": est(report.lhs),
        "rhs": est(report.rhs),
        "abs_diff": report.abs_diff,
        "tol": report.tol,
        "hypotheses": report.hypotheses.to_json(),
        "verdict": report.verdict,
        "reason": report.reason,
    }


def _endpoint_value(phi_ev: Evaluator, t: float, inward: float, span: float) -> float:
    """phi(t), probing just inside the interval when t itself is undefined."""
    v = float(phi_ev(np.array([t]))[0])
    if not math.isnan(v):
        return v
    for scale in (1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
        v = float(phi_ev(np.array([t + inward * scale * span]))[0])
        if not math.isnan(v):
            return v
    raise UndefinedSamplesError(f"phi is undefined at and near t = {t}")


def lhs_integral(
    p: SubstitutionProblem,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    max_cells: int = CELL_CAP,
) -> DarbouxEstimate:
    """Oriented integral of f between phi(alpha) and phi(beta).

    Reversed image endpoints negate the estimate; equal ones give the
    zero estimate.
    """
    u, v = p.image_endpoints()
    return integrate_signed(p.f, u, v, tol, cfg, max_cells=max_cells)


def rhs_integral(
    p: SubstitutionProblem,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    max_cells: int = CELL_CAP,
) -> DarbouxEstimate:
    """Bracket for the integral of (f o phi) * phi' over [alpha, beta]."""
    return darboux.integrate(
        p.product_evaluator(),
        Interval(p.alpha, p.beta),
        tol,
        cfg,
        max_cells=max_cells,
    )


def verify(
    p: SubstitutionProblem,
    tol: float = 1e-6,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    grid_size: int = 1000,
    max_cells: int = CELL_CAP,
) -> SubstitutionReport:
    """Run both integrals at tol/2 each and compare.

    verified  <=> both brackets closed and |lhs - rhs| <= tol
    mismatch  <=> both closed and the difference exceeds tol
    inconclusive otherwise (the reason and any partial bracket are kept).
    """
    hypotheses = check_hypotheses(p, grid_size)
    side_tol = tol / 2.0

    lhs_est = rhs_est = None
    lhs_ok = rhs_ok = False
    reasons = []
    try:
        lhs_est = lhs_integral(p, side_tol, cfg, max_cells)
        lhs_ok = True
    except NonConvergenceError as exc:
        lhs_est = exc.estimate
        reasons.append(f"lhs: {exc}")
    except ValueError as exc:
        reasons.append(f"lhs: {exc}")
    try:
        rhs_est = rhs_integral(p, side_tol, cfg, max_cells)
        rhs_ok = True
    except NonConvergenceError as exc:
        rhs_est = exc.estimate
        reasons.append(f"rhs: {exc}")
    except ValueError as exc:
        reasons.append(f"rhs: {exc}")

    if lhs_est is not None and rhs_est is not None:
        abs_diff = abs(lhs_est.midpoint - rhs_est.midpoint)
    else:
        abs_diff = math.nan
    if lhs_ok and rhs_ok:
        verdict = VERIFIED if abs_diff <= tol else MISMATCH
    else:
        verdict = INCONCLUSIVE
    return SubstitutionReport(
        lhs=lhs_est,
        rhs=rhs_est,
        abs_diff=abs_diff,
        tol=tol,
        hypotheses=hypotheses,
        verdict=verdict,
        reason="; ".join(reasons),
    )


def verify_zero_extension(
    p: SubstitutionProblem,
    tol: float = 1e-6,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    grid_size: int = 1000,
    max_cells: int = CELL_CAP,
) -> SubstitutionReport:
    """Four-way identity with f zeroed outside the image interval J.

    g = f * (indicator of J).  Checks that the J-integrals of f and g
    and the [alpha, beta]-integrals of the two products all agree within
    tol.  Assumes the preimage of the J endpoints has measure zero; that
    condition is not checkable numerically and is not checked.
    """
    hypotheses = check_hypotheses(p, grid_size)
    u, v = p.image_endpoints()
    j_lo, j_hi = min(u, v), max(u, v)
    f_ev = as_evaluator(p.f)
    phi_ev = as_evaluator(p.phi)
    dphi_ev = p.phi_prime_evaluator()

    def g_ev(xs: np.ndarray) -> np.ndarray:
        inside = (xs >= j_lo) & (xs <= j_hi)
        return np.where(inside, f_ev(xs), 0.0)

    def g_product(ts: np.ndarray) -> np.ndarray:
        return g_ev(phi_ev(ts)) * dphi_ev(ts)

    side_tol = tol / 2.0
    try:
        if u == v:
            zero = DarbouxEstimate(0.0, 0.0, 0.0, 0)
            g_lhs = f_lhs = zero
        else:
            g_lhs = integrate_signed(g_ev, u, v, side_tol, cfg, max_cells=max_cells)
            f_lhs = integrate_signed(p.f, u, v, side_tol, cfg, max_cells=max_cells)
        t_iv = Interval(p.alpha, p.beta)
        f_rhs = darboux.integrate(
            p.product_evaluator(), t_iv, side_tol, cfg, max_cells=max_cells
        )
        g_rhs = darboux.integrate(g_product, t_iv, side_tol, cfg, max_cells=max_cells)
    except (NonConvergenceError, ValueError) as exc:
        return SubstitutionReport(
            lhs=None,
            rhs=None,
            abs_diff=math.nan,
            tol=tol,
            hypotheses=hypotheses,
            verdict=INCONCLUSIVE,
            reason=str(exc),
        )

    mids = [g_lhs.midpoint, f_lhs.midpoint, f_rhs.midpoint, g_rhs.midpoint]
    abs_diff = max(mids) - min(mids)
    verdict = VERIFIED if abs_diff <= tol else MISMATCH
    return SubstitutionReport(
        lhs=g_lhs,
        rhs=g_rhs,
        abs_diff=abs_diff,
        tol=tol,
        hypotheses=hypotheses,
        verdict=verdict,
        extra={
            "g_over_J": g_lhs.midpoint,
            "f_over_J": f_lhs.midpoint,
            "f_product": f_rhs.midpoint,
            "g_product": g_rhs.midpoint,
        },
    )


# ---------------------------------------------------------------------------
# Hypothesis heuristics


# 10^-j, j = 0..9, as Python's pow gives them: the endpoint windows' decades
_DECADES = tuple(10.0 ** -j for j in range(10))


def _finite_abs_max(ys: np.ndarray) -> np.ndarray:
    """max |y| over each row's finite entries (last axis); NaN for a row with none."""
    m = np.where(np.isfinite(ys), np.abs(ys), -np.inf).max(axis=-1)
    return np.where(m == -np.inf, np.nan, m)


def _window_grids(lo: float, hi: float) -> np.ndarray:
    """Rows 0-8: 64 points on [lo + w/10^(j+1), lo + w/10^j], w = hi - lo; rows
    9-17: the mirrors at hi.  Each row equals that window's own ``np.linspace``.
    """
    width = hi - lo
    far = width * np.array(_DECADES[:-1])
    near = width * np.array(_DECADES[1:])
    starts = np.concatenate([lo + near, hi - far])
    stops = np.concatenate([lo + far, hi - near])
    if ((stops - starts) / 63 == 0).any():
        # linspace scales every row by delta/div once any row's step underflows
        return np.array([np.linspace(s, e, 64) for s, e in zip(starts, stops)])
    return np.linspace(starts, stops, 64, axis=1)


def _bounded_verdict(ev: Evaluator, lo: float, hi: float, grid_size: int) -> HypothesisCheck:
    ys = ev(np.linspace(lo, hi, grid_size))
    grid_max, defined = float(_finite_abs_max(ys)), int(np.isfinite(ys).sum())
    witness: dict = {"grid_max": grid_max, "defined_samples": defined}
    if defined == 0:
        return HypothesisCheck("", FAIL, witness)  # name filled by caller
    diverging = bool(np.isinf(ys).any()) or grid_max >= _OVERFLOW_LIMIT
    windows = _window_grids(lo, hi)
    maxima = _finite_abs_max(ev(windows.ravel()).reshape(windows.shape)).tolist()
    for side, side_maxima in (("left", maxima[:9]), ("right", maxima[9:])):
        witness[f"{side}_window_maxima"] = side_maxima
        clean = [m for m in side_maxima if not math.isnan(m)]
        if len(clean) >= 2:
            first, last = clean[0], clean[-1]
            if last >= _OVERFLOW_LIMIT or last > _GROWTH_LIMIT * max(first, 1e-12):
                diverging = True
    return HypothesisCheck("", FAIL if diverging else PASS, witness)


def _continuity_verdict(ev: Evaluator, lo: float, hi: float, grid_size: int) -> HypothesisCheck:
    sizes = [k * grid_size for k in (1, 2, 4)]
    ys = ev(np.concatenate([np.linspace(lo, hi, n) for n in sizes]))
    mods = []
    for grid in np.split(ys, np.cumsum(sizes[:-1])):
        # inf - inf where phi overflows; finite neighbours near +-1e308 overflow
        with np.errstate(over="ignore", invalid="ignore"):
            mods.append(float(_finite_abs_max(np.diff(grid))))
    witness = {"sampled_moduli": mods}
    if any(math.isnan(m) for m in mods):
        return HypothesisCheck("", UNDECIDABLE, witness)
    scale = 1.0 + max(mods)
    shrinking = mods[2] <= max(0.8 * mods[0], 1e-9 * scale)
    return HypothesisCheck("", PASS if shrinking else FAIL, witness)


def check_hypotheses(p: SubstitutionProblem, grid_size: int = 1000) -> HypothesisReport:
    """Grid diagnostics for the identity's hypotheses.

    Boundedness: no overflow-scale values and no divergence trend toward
    either endpoint (growth across the probed endpoint decades below
    10x).  Continuity: the sampled modulus of continuity shrinks under
    grid refinement.  Almost-everywhere conditions are never decided.
    """
    if grid_size < 100:
        raise ValueError(f"grid_size must be >= 100, got {grid_size}")
    lo, hi = p.alpha, p.beta
    checks: list[HypothesisCheck] = []

    c = _continuity_verdict(as_evaluator(p.phi), lo, hi, grid_size)
    checks.append(HypothesisCheck("phi_continuous", c.verdict, c.witness))

    b = _bounded_verdict(p.phi_prime_evaluator(), lo, hi, grid_size)
    checks.append(HypothesisCheck("phi_prime_bounded", b.verdict, b.witness))

    b = _bounded_verdict(p.product_evaluator(), lo, hi, grid_size)
    checks.append(HypothesisCheck("product_bounded", b.verdict, b.witness))

    try:
        u, v = p.image_endpoints()
        j_lo, j_hi = min(u, v), max(u, v)
        unbounded = [end for end, x in (("lower", j_lo), ("upper", j_hi)) if math.isinf(x)]
        if j_lo == j_hi:
            checks.append(
                HypothesisCheck("f_bounded_on_J", PASS, {"degenerate_J": j_lo})
            )
        elif unbounded:
            # a grid on an unbounded J has no defined sample: nothing to judge
            witness = {"unbounded_end": " and ".join(unbounded)}
            checks.append(HypothesisCheck("f_bounded_on_J", UNDECIDABLE, witness))
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # J's width may overflow
                b = _bounded_verdict(as_evaluator(p.f), j_lo, j_hi, grid_size)
            checks.append(HypothesisCheck("f_bounded_on_J", b.verdict, b.witness))
        endpoint_witness = {"phi_alpha": u, "phi_beta": v}
        if p.f_domain is not None:
            a, b_ = p.f_domain
            scale = max(abs(a), abs(b_), 1.0)
            hit = abs(u - a) <= 1e-12 * scale and abs(v - b_) <= 1e-12 * scale
            endpoint_witness["declared_domain"] = list(p.f_domain)
            checks.append(
                HypothesisCheck(
                    "endpoints_hit_domain", PASS if hit else FAIL, endpoint_witness
                )
            )
        else:
            checks.append(
                HypothesisCheck("endpoints_hit_domain", UNDECIDABLE, endpoint_witness)
            )
    except UndefinedSamplesError as exc:
        checks.append(HypothesisCheck("f_bounded_on_J", UNDECIDABLE, {"error": str(exc)}))
        checks.append(
            HypothesisCheck("endpoints_hit_domain", UNDECIDABLE, {"error": str(exc)})
        )

    for name in ("phi_prime_ae_continuous", "f_ae_continuous"):
        checks.append(
            HypothesisCheck(
                name,
                UNDECIDABLE,
                {"note": "no finite sample distinguishes a.e. conditions"},
            )
        )
    return HypothesisReport(tuple(checks))
