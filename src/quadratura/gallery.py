"""The built-in examples E1-E3, each a CLI command line run end to end.

Each entry's expected value is a formula evaluated at run time.  An
entry is the ``substitute`` or ``improper`` command that ``argv()``
spells, parsed by the CLI's parser and run through that command's own
report function; the gallery's overrides are set on the parsed
namespace, so an override out of range is the library's ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import cli, expr
from .changevar import VERIFIED
from .darboux import CELL_CAP

__all__ = [
    "GalleryEntry",
    "GALLERY",
    "expected_value",
    "run_gallery_entry",
    "run_gallery",
]

_parser = functools.cache(cli.build_parser)


@dataclass(frozen=True, slots=True)
class GalleryEntry:
    """A shipped example; ``expected`` is a formula, evaluated at run time.

    ``flags`` are the command's own flags; ``tol`` is the error within which
    both sides must meet ``expected`` for the entry to pass.
    """

    id: str
    f: str
    phi: str
    alpha: float
    beta: float
    expected: str
    tol: float
    flags: tuple[str, ...]
    improper: bool = False

    def argv(self) -> list[str]:
        """The command line that runs this entry."""
        return [
            "improper" if self.improper else "substitute",
            "--f", self.f, "--phi", self.phi,
            "--alpha", repr(self.alpha), "--beta", repr(self.beta),
            *self.flags,
        ]


# E1's product oscillates, so it gets the dense sampling; E2 and E3 are
# piecewise monotone and run on cell edges, the default.  E2 and E3 are the
# README's `substitute` and `improper` examples.
GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        id="E1",
        f="x^3",
        phi="t*sin(1/t)",
        alpha=0.0,
        beta=2.0 / math.pi,
        expected="4/pi^4",
        tol=5e-4,
        flags=("--tol", "5e-4", "--samples", "64"),
    ),
    GalleryEntry(
        id="E2",
        f="x/(x^4+1)",
        phi="sqrt(t)",
        alpha=0.0,
        beta=1.0,
        expected="pi/8",
        tol=1e-7,
        flags=("--tol", "1e-5"),
    ),
    GalleryEntry(
        id="E3",
        f="1/(x^2+1)",
        phi="tan(t)",
        alpha=-math.pi / 2.0,
        beta=math.pi / 2.0,
        expected="pi",
        tol=1.5e-3,
        flags=("--open-alpha", "--open-beta", "--lhs-cutoff-base", "125", "--lhs-steps", "5",
               "--lhs-inner-tol", "2e-2", "--tol", "1.5e-3"),
        improper=True,
    ),
)


def expected_value(entry: GalleryEntry) -> float:
    return expr.evaluate(expr.parse(entry.expected), 0.0)


def run_gallery_entry(
    entry: GalleryEntry,
    tol_override: float | None = None,
    samples_override: int | None = None,
    max_cells: int = CELL_CAP,
) -> dict:
    """Run one entry's command line, with the overrides given; returns a result row."""
    args = _parser().parse_args(entry.argv())
    args.max_cells = max_cells
    if tol_override is not None:
        args.tol = tol_override
    if samples_override is not None:
        args.samples = samples_override
    report = args.report(args)
    if entry.improper:
        lhs_value, rhs_value = report.lhs.value, report.rhs.value
    else:
        lhs_value, rhs_value = (e.midpoint if e else math.nan for e in (report.lhs, report.rhs))

    expected = expected_value(entry)
    tol = entry.tol if tol_override is None else tol_override
    lhs_err = abs(lhs_value - expected)
    rhs_err = abs(rhs_value - expected)
    ok = report.verdict == VERIFIED and lhs_err <= tol and rhs_err <= tol
    return {
        "id": entry.id,
        "expected": expected,
        "lhs": lhs_value,
        "rhs": rhs_value,
        "lhs_error": lhs_err,
        "rhs_error": rhs_err,
        "tol": tol,
        "verdict": report.verdict,
        "pass": ok,
        "detail": report.to_json(),
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
