"""The built-in examples E1-E3, run end to end.

Each entry's expected value is a formula evaluated at run time; E1 and
E2 go through ``changevar.verify`` and E3 through the improper runner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import changevar, expr
from .changevar import VERIFIED, SubstitutionProblem
from .darboux import CELL_CAP, SamplingConfig
from .improper import ImproperSchedule, improper_verify

__all__ = [
    "GalleryEntry",
    "GALLERY",
    "expected_value",
    "run_gallery_entry",
    "run_gallery",
]


@dataclass(frozen=True, slots=True)
class GalleryEntry:
    """A shipped example; ``expected`` is a formula, evaluated at run time."""

    id: str
    f: str
    phi: str
    alpha: float
    beta: float
    expected: str
    tol: float
    improper: bool = False


GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        id="E1",
        f="x^3",
        phi="t*sin(1/t)",
        alpha=0.0,
        beta=2.0 / math.pi,
        expected="4/pi^4",
        tol=5e-4,
    ),
    GalleryEntry(
        id="E2",
        f="x/(x^4+1)",
        phi="sqrt(t)",
        alpha=0.0,
        beta=1.0,
        expected="pi/8",
        tol=1e-7,
    ),
    GalleryEntry(
        id="E3",
        f="1/(x^2+1)",
        phi="tan(t)",
        alpha=-math.pi / 2.0,
        beta=math.pi / 2.0,
        expected="pi",
        tol=1.5e-3,
        improper=True,
    ),
)

# Engine knobs per entry: sampling density and internal tolerances are
# tuned to each integrand (E1's product oscillates, so it gets the dense
# sampling; E2 and E3 are piecewise monotone and run on cell edges).
GALLERY_PROFILES: dict[str, dict] = {
    "E1": {"samples": 64, "verify_tol": 5e-4},
    "E2": {"samples": 2, "verify_tol": 1e-5},
    "E3": {
        "samples": 2,
        "rhs_tol": 1e-9,
        "rhs_inner_tol": 2.5e-10,
        "lhs_tol": 1.5e-3,
        "lhs_inner_tol": 2e-2,
        "lhs_cutoff_base": 125.0,
        "lhs_max_steps": 5,
        "max_steps": 40,
    },
}


def expected_value(entry: GalleryEntry) -> float:
    return expr.evaluate(expr.parse(entry.expected), 0.0)


def _entry_problem(entry: GalleryEntry) -> SubstitutionProblem:
    return SubstitutionProblem(
        f=expr.parse(entry.f),
        phi=expr.parse(entry.phi),
        alpha=entry.alpha,
        beta=entry.beta,
    )


def run_gallery_entry(
    entry: GalleryEntry,
    tol_override: float | None = None,
    samples_override: int | None = None,
    max_cells: int = CELL_CAP,
) -> dict:
    """Run one entry end to end; returns a result row."""
    profile = GALLERY_PROFILES[entry.id]
    expected = expected_value(entry)
    tol = entry.tol if tol_override is None else tol_override
    samples = profile["samples"] if samples_override is None else samples_override
    cfg = SamplingConfig(samples_per_cell=samples)
    problem = _entry_problem(entry)

    if entry.improper:
        schedule = ImproperSchedule(
            lo=entry.alpha,
            hi=entry.beta,
            lo_open=True,
            hi_open=True,
            max_steps=profile["max_steps"],
            tol=profile["rhs_tol"] if tol_override is None else tol_override,
        )
        report = improper_verify(
            problem,
            schedule,
            tol=tol,
            rhs_inner_tol=profile["rhs_inner_tol"],
            lhs_inner_tol=profile["lhs_inner_tol"],
            lhs_cutoff_base=profile["lhs_cutoff_base"],
            lhs_max_steps=profile["lhs_max_steps"],
            lhs_tol=profile["lhs_tol"],
            cfg=cfg,
            max_cells=max_cells,
        )
        lhs_value, rhs_value = report.lhs.value, report.rhs.value
        verdict = report.verdict
        detail = report.to_json()
    else:
        verify_tol = profile["verify_tol"] if tol_override is None else tol_override
        report = changevar.verify(problem, verify_tol, cfg, max_cells=max_cells)
        lhs_value = report.lhs.midpoint if report.lhs else math.nan
        rhs_value = report.rhs.midpoint if report.rhs else math.nan
        verdict = report.verdict
        detail = report.to_json()

    lhs_err = abs(lhs_value - expected)
    rhs_err = abs(rhs_value - expected)
    ok = verdict == VERIFIED and lhs_err <= tol and rhs_err <= tol
    return {
        "id": entry.id,
        "expected": expected,
        "lhs": lhs_value,
        "rhs": rhs_value,
        "lhs_error": lhs_err,
        "rhs_error": rhs_err,
        "tol": tol,
        "verdict": verdict,
        "pass": ok,
        "detail": detail,
    }


def run_gallery(
    only: str | None = None,
    tol_override: float | None = None,
    samples_override: int | None = None,
    max_cells: int = CELL_CAP,
) -> list[dict]:
    rows = []
    for entry in GALLERY:
        if only is not None and entry.id != only:
            continue
        rows.append(run_gallery_entry(entry, tol_override, samples_override, max_cells))
    return rows
