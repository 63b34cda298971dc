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
    START_CELLS,
    DarbouxEstimate,
    Evaluator,
    Integrand,
    NonConvergenceError,
    SamplingConfig,
    UndefinedSamplesError,
    as_evaluator,
    integrate_signed,
)
from .expr import Expr, compile_tape, differentiate, mul, substitute
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

    ``phi_prime`` overrides the symbolic derivative when given; every
    formula phi has one, abs and varying exponents included.

    Construction builds ``dphi``, phi' (the override, else the symbolic
    derivative), and ``product``, (f o phi) * phi'.  When f is a formula the
    product is one expression, which ``darboux.integrate`` can test for
    monotone cells, compiled with phi and phi' to one t-tape whose outputs
    are phi, phi' and the product: they share their common subterms (for
    t*sin(1/t), 1/t and sin(1/t)), with each output's values bit for bit
    those of its own evaluation where defined.  Else it is a callable.
    Neither field takes part in equality, hashing or repr: hashing a derived
    phi' would cost as much as printing it, which grows as n^2 for an
    n-factor product chain.
    """

    f: Expr
    phi: Expr
    alpha: float
    beta: float
    phi_prime: Expr | None = None
    dphi: Expr = field(init=False, repr=False, compare=False)
    product: Integrand = field(init=False, repr=False, compare=False)
    # (phi(alpha), phi(beta)) once computed: the probes and the lhs share them.
    _endpoints: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        if not math.isfinite(self.beta - self.alpha):
            raise ValueError(f"need a bounded [alpha, beta], got [{self.alpha}, {self.beta}]")
        dphi = differentiate(self.phi) if self.phi_prime is None else self.phi_prime
        if isinstance(self.f, Expr):
            product = mul(substitute(self.f, self.phi), dphi)
            compile_tape(self.phi, dphi, product)
        else:
            f_ev, phi_ev, dphi_ev = map(as_evaluator, (self.f, self.phi, dphi))

            def product(ts: np.ndarray) -> np.ndarray:
                # inf/NaN flow on to the sums.  One expression of temporaries
                # lets numpy reuse the left factor's buffer for the product.
                with np.errstate(over="ignore", invalid="ignore"):
                    return f_ev(phi_ev(ts)) * dphi_ev(ts)

        object.__setattr__(self, "dphi", dphi)
        object.__setattr__(self, "product", product)

    @property
    def span(self) -> float:
        return self.beta - self.alpha

    def image_endpoints(self) -> tuple[float, float]:
        """(phi(alpha), phi(beta)) from one call, probed just inside an end
        where phi is undefined.

        Computed on first use and kept; an ``UndefinedSamplesError`` is
        raised again on every call.
        """
        ends = self._endpoints
        if ends is None:
            phi_ev = as_evaluator(self.phi)
            ends = phi_ev(np.array([self.alpha, self.beta])).tolist()
            for i, (t, inward) in enumerate(((self.alpha, 1.0), (self.beta, -1.0))):
                if math.isnan(ends[i]):
                    ends[i] = _inward_value(phi_ev, t, inward, self.span)
            ends = tuple(ends)
            object.__setattr__(self, "_endpoints", ends)
        return ends


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

    def to_json(self) -> dict:
        return report_to_json(self)


def report_to_json(report: SubstitutionReport) -> dict:
    return {
        "lhs": report.lhs.to_json() if report.lhs else None,
        "rhs": report.rhs.to_json() if report.rhs else None,
        "abs_diff": report.abs_diff,
        "tol": report.tol,
        "hypotheses": report.hypotheses.to_json(),
        "verdict": report.verdict,
        "reason": report.reason,
    }


def _inward_value(phi_ev: Evaluator, t: float, inward: float, span: float) -> float:
    """The first defined value of phi just inside the interval from t, in one call."""
    scales = np.array([1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
    for v in phi_ev(t + inward * scales * span).tolist():
        if not math.isnan(v):
            return v
    raise UndefinedSamplesError(f"phi is undefined at and near t = {t}")


def lhs_integral(
    p: SubstitutionProblem,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
) -> DarbouxEstimate:
    """Oriented integral of f between phi(alpha) and phi(beta).

    Reversed image endpoints negate the estimate; equal ones give the
    zero estimate.
    """
    u, v = p.image_endpoints()
    return integrate_signed(p.f, u, v, tol, cfg, max_cells=max_cells, start_cells=start_cells)


def rhs_integral(
    p: SubstitutionProblem,
    tol: float,
    cfg: SamplingConfig = DEFAULT_CONFIG,
    max_cells: int = CELL_CAP,
    start_cells: int = START_CELLS,
) -> DarbouxEstimate:
    """Bracket for the integral of (f o phi) * phi' over [alpha, beta]."""
    return darboux.integrate(
        p.product,
        Interval(p.alpha, p.beta),
        tol,
        cfg,
        max_cells=max_cells,
        start_cells=start_cells,
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
    mismatch  <=> both closed, the difference exceeds tol, and it does so
                  again on a second grid (``_unconfirmed``)
    inconclusive otherwise (the reason and any partial bracket are kept).

    The report carries the brackets first accepted, also where the second
    grid turns a mismatch into inconclusive.
    """
    hypotheses = check_hypotheses(p, grid_size)
    side_tol = tol / 2.0

    estimates, reasons = [], []
    for name, side in (("lhs", lhs_integral), ("rhs", rhs_integral)):
        try:
            estimates.append(side(p, side_tol, cfg, max_cells))
        except NonConvergenceError as exc:
            estimates.append(exc.estimate)
            reasons.append(f"{name}: {exc}")
        except ValueError as exc:
            estimates.append(None)
            reasons.append(f"{name}: {exc}")
    lhs_est, rhs_est = estimates

    if lhs_est is not None and rhs_est is not None:
        abs_diff = abs(lhs_est.midpoint - rhs_est.midpoint)
    else:
        abs_diff = math.nan
    if reasons:
        verdict = INCONCLUSIVE
    elif abs_diff <= tol:
        verdict = VERIFIED
    else:
        reasons = _unconfirmed(p, estimates, tol, cfg, max_cells)
        verdict = INCONCLUSIVE if reasons else MISMATCH
    return SubstitutionReport(
        lhs=lhs_est,
        rhs=rhs_est,
        abs_diff=abs_diff,
        tol=tol,
        hypotheses=hypotheses,
        verdict=verdict,
        reason="; ".join(reasons),
    )


def _unconfirmed(p: SubstitutionProblem, estimates: list[DarbouxEstimate], tol: float,
                 cfg: SamplingConfig, max_cells: int) -> list[str]:
    """Why the mismatch of the accepted ``estimates`` is not confirmed; empty
    when it is.

    Each side is integrated once more at tol/2 on one level of N + 1
    cells, N its accepted count (N - 1 where N + 1 is above ``max_cells``):
    a grid whose edges do not line up with a period that aliased on the
    accepted one, as sin(1024*pi*x)^2 does at 2 samples and 1,024 cells
    (every edge a zero).  A side of 0 cells, an lhs over an empty image,
    is exact: it gives the zero estimate again.  The mismatch is confirmed
    when both brackets close and their midpoints still differ by more than
    ``tol``.
    """
    again = []
    for name, side, est in zip(("lhs", "rhs"), (lhs_integral, rhs_integral), estimates):
        cells = est.cells + 1 if est.cells < max_cells else est.cells - 1
        try:
            again.append(side(p, tol / 2.0, cfg, cells, start_cells=cells))
        except (NonConvergenceError, ValueError) as exc:
            return [f"{name}: the mismatch is not confirmed on {cells} cells: {exc}"]
    diff = abs(again[0].midpoint - again[1].midpoint)
    if diff <= tol:
        return [
            f"the mismatch is not confirmed on {again[0].cells} lhs and {again[1].cells} rhs"
            f" cells: the midpoints differ by {diff:.3g} <= tol {tol:.3g}"
        ]
    return []


# ---------------------------------------------------------------------------
# Hypothesis heuristics


# 10^-j, j = 0..9, as Python's pow gives them: the endpoint windows' decades
_DECADES = np.array([10.0 ** -j for j in range(10)])
_RAMP = np.arange(64.0)


def _finite_abs_max(ys: np.ndarray) -> np.ndarray:
    """max |y| over each row's finite entries (last axis); NaN for a row with none."""
    m = np.abs(ys).max(axis=-1)
    if np.isfinite(m).all():  # max propagates NaN and inf, so every entry is finite
        return m
    m = np.where(np.isfinite(ys), np.abs(ys), -np.inf).max(axis=-1)
    return np.where(m == -np.inf, np.nan, m)


def _window_grids(lo: float, hi: float) -> np.ndarray:
    """Rows 0-8: 64 points on [lo + w/10^(j+1), lo + w/10^j], w = hi - lo; rows
    9-17: the mirrors at hi.  Each row is built as that window's own
    ``np.linspace`` builds it: ``arange(64) * step + start``, then the stop.
    """
    spans = (hi - lo) * _DECADES
    far, near = spans[:-1], spans[1:]
    starts = np.concatenate([lo + near, hi - far])
    stops = np.concatenate([lo + far, hi - near])
    steps = (stops - starts) / 63
    if not steps.all():
        # linspace scales every row by delta/div once any row's step underflows
        return np.array([np.linspace(s, e, 64) for s, e in zip(starts, stops)])
    rows = _RAMP * steps[:, None] + starts[:, None]
    rows[:, -1] = stops
    return rows


def _bounded_verdicts(
    ev: Evaluator, lo: float, hi: float, grid: np.ndarray
) -> list[HypothesisCheck]:
    """One boundedness check on [lo, hi] per row of ``ev``'s values (names
    filled by the caller): ``ev`` gives one array, or several as rows.

    ``grid`` is the ``grid_size`` grid on [lo, hi]; with the 18 endpoint
    windows it makes one set of points, which ``ev`` takes in one call.
    """
    n = grid.size
    windows = _window_grids(lo, hi)
    points = np.concatenate([grid, windows.ravel()])
    checks = []
    for ys in ev(points).reshape(-1, points.size):
        grid_ys = ys[:n]
        top = float(np.abs(grid_ys).max())
        if math.isfinite(top):  # max propagates NaN and inf, so every value is finite
            grid_max, defined, diverging = top, n, top >= _OVERFLOW_LIMIT
        else:
            grid_max = float(_finite_abs_max(grid_ys))
            defined = int(np.isfinite(grid_ys).sum())
            diverging = bool(np.isinf(grid_ys).any()) or grid_max >= _OVERFLOW_LIMIT
        witness: dict = {"grid_max": grid_max, "defined_samples": defined}
        if defined == 0:
            checks.append(HypothesisCheck("", FAIL, witness))
            continue
        maxima = _finite_abs_max(ys[n:].reshape(windows.shape)).tolist()
        for side, side_maxima in (("left", maxima[:9]), ("right", maxima[9:])):
            witness[f"{side}_window_maxima"] = side_maxima
            clean = [m for m in side_maxima if not math.isnan(m)]
            if len(clean) >= 2:
                first, last = clean[0], clean[-1]
                if last >= _OVERFLOW_LIMIT or last > _GROWTH_LIMIT * max(first, 1e-12):
                    diverging = True
        checks.append(HypothesisCheck("", FAIL if diverging else PASS, witness))
    return checks


def _continuity_verdict(ev: Evaluator, lo: float, hi: float, grid: np.ndarray) -> HypothesisCheck:
    """Sampled moduli on ``grid`` (the ``grid_size`` grid on [lo, hi]) and on
    the grids of twice and four times its size, all evaluated in one call.
    """
    n = grid.size
    ys = ev(np.concatenate([grid, np.linspace(lo, hi, 2 * n), np.linspace(lo, hi, 4 * n)]))
    # One difference pass over the three grids; each grid's moduli skip the
    # seam after it.  inf - inf where phi overflows; finite neighbours near
    # +-1e308 overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.diff(ys)
        grids = ((0, n), (n, 3 * n), (3 * n, 7 * n))
        mods = [float(_finite_abs_max(d[a : b - 1])) for a, b in grids]
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
    grid = np.linspace(lo, hi, grid_size)

    c = _continuity_verdict(as_evaluator(p.phi), lo, hi, grid)
    checks = [HypothesisCheck("phi_continuous", c.verdict, c.witness)]
    if isinstance(p.product, Expr):  # phi' and the product from one run of the t-tape
        rows = as_evaluator((p.dphi, p.product))
    else:
        dphi_ev = as_evaluator(p.dphi)

        def rows(ts: np.ndarray) -> np.ndarray:
            return np.stack([dphi_ev(ts), p.product(ts)])

    bounded = _bounded_verdicts(rows, lo, hi, grid)
    for name, b in zip(("phi_prime_bounded", "product_bounded"), bounded):
        checks.append(HypothesisCheck(name, b.verdict, b.witness))

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
                j_grid = np.linspace(j_lo, j_hi, grid_size)
                (b,) = _bounded_verdicts(as_evaluator(p.f), j_lo, j_hi, j_grid)
            checks.append(HypothesisCheck("f_bounded_on_J", b.verdict, b.witness))
        checks.append(
            HypothesisCheck("endpoints_hit_domain", UNDECIDABLE, {"phi_alpha": u, "phi_beta": v})
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
