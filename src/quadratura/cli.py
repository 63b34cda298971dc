"""Batch command-line front end: argument parsing, commands, output.

Subcommands: integrate, substitute, improper, approx, diff, gallery.
Each prints a JSON report on stdout (CSV where noted), except that
``gallery`` prints a pass table and ``diff`` the derivative's text
unless given ``--json``.  Each exits 0 on success/verified, 1 on usage
or parse errors, 2 on numerical non-convergence, mismatch or resource
limits.  The improper runner lives in ``quadratura.improper``.  The
examples in ``quadratura.gallery`` are ``substitute`` and ``improper``
command lines, run through ``substitute_report`` and ``improper_report``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as _csv
import io
import json
import math
import os
import sys

from . import approximant, changevar, darboux, expr
from .changevar import VERIFIED, SubstitutionProblem, SubstitutionReport
from .darboux import CELL_CAP, NonConvergenceError, SamplingConfig
from .expr import ParseError
from .improper import MAX_STEPS, ImproperReport, ImproperSchedule, improper_verify
from .partition import Interval, ResourceLimitError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


# ---------------------------------------------------------------------------
# Command implementations


def _finite_json(obj):
    """``obj`` with each non-finite float as the string "inf", "-inf" or "nan".

    Strict JSON has no such numbers; ``float()`` reads the strings back.
    """
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _json_text(payload) -> str:
    # allow_nan=False: a non-finite number that escapes _finite_json raises
    return json.dumps(_finite_json(payload), indent=2, allow_nan=False)


def _emit(payload, args) -> None:
    _emit_text(_json_text(payload) + "\n", args)


def _emit_text(text: str, args) -> None:
    if getattr(args, "out", None):
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


@contextlib.contextmanager
def _writing(path: str):
    """An OSError inside is one ``error:`` line naming ``path``, exit 1."""
    try:
        yield
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot write {path}: {exc.strerror or exc}"))


def _steps_csv(report: ImproperReport) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(["side", "step", "lo", "hi", "value", "bracket_width", "cells"])
    for side_name, side in (("rhs", report.rhs), ("lhs", report.lhs)):
        for s in side.steps:
            writer.writerow(
                [side_name, s["step"], repr(s["lo"]), repr(s["hi"]),
                 repr(s["value"]), repr(s["bracket_width"]), s["cells"]]
            )
    return buf.getvalue()


def _gallery_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf)
    writer.writerow(["id", "lhs", "rhs", "expected", "lhs_error", "rhs_error",
                     "tol", "verdict", "pass"])
    for r in rows:
        writer.writerow(
            [r["id"], repr(r["lhs"]), repr(r["rhs"]), repr(r["expected"]),
             repr(r["lhs_error"]), repr(r["rhs_error"]), repr(r["tol"]),
             r["verdict"], r["pass"]]
        )
    return buf.getvalue()


def _parse_formula(text: str, what: str, max_height: int | None = None) -> expr.Expr:
    try:
        return expr.parse(text, max_height)
    except ParseError as exc:
        raise SystemExit(_usage_error(f"cannot parse {what}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cfg_from(args) -> SamplingConfig:
    return SamplingConfig(samples_per_cell=args.samples)


def cmd_integrate(args) -> int:
    f = _parse_formula(args.f, "--f")
    try:
        est = darboux.integrate_signed(
            f, args.a, args.b, args.tol, _cfg_from(args), max_cells=args.max_cells
        )
    except NonConvergenceError as exc:
        payload = exc.estimate.to_json()
        payload["error"] = str(exc)
        _emit(payload, args)
        return EXIT_NUMERIC
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit(est.to_json(), args)
    return EXIT_OK


def substitute_report(args) -> SubstitutionReport:
    """The ``substitute`` report of ``args``; ValueError where the problem cannot be built."""
    problem = SubstitutionProblem(
        f=_parse_formula(args.f, "--f"),
        phi=_parse_formula(args.phi, "--phi"),
        alpha=args.alpha,
        beta=args.beta,
        phi_prime=_parse_formula(args.phi_prime, "--phi-prime") if args.phi_prime else None,
    )
    return changevar.verify(
        problem, args.tol, _cfg_from(args), grid_size=args.grid_size, max_cells=args.max_cells
    )


def cmd_substitute(args) -> int:
    try:
        report = substitute_report(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    _emit(report.to_json(), args)
    return EXIT_OK if report.verdict == VERIFIED else EXIT_NUMERIC


def improper_report(args) -> ImproperReport:
    """The ``improper`` report of ``args``; ValueError where the problem cannot be built."""
    schedule = ImproperSchedule(
        lo=args.alpha,
        hi=args.beta,
        lo_open=args.open_alpha,
        hi_open=args.open_beta,
        offset=args.offset,
        cutoff_base=args.cutoff_base,
        max_steps=args.steps,
        tol=args.tol,
    )
    if not schedule.any_open:  # an infinite end is open
        raise ValueError("improper needs at least one open or infinite endpoint")
    first_lo, first_hi = schedule.truncation(0)
    problem = SubstitutionProblem(
        f=_parse_formula(args.f, "--f"),
        phi=_parse_formula(args.phi, "--phi"),
        alpha=first_lo,
        beta=first_hi,
    )
    inner = args.inner_tol if args.inner_tol is not None else max(args.tol / 4.0, 1e-12)
    lhs_inner = args.lhs_inner_tol if args.lhs_inner_tol is not None else inner
    return improper_verify(
        problem,
        schedule,
        tol=args.tol,
        rhs_inner_tol=inner,
        lhs_inner_tol=lhs_inner,
        lhs_offset=args.lhs_offset,
        lhs_cutoff_base=args.lhs_cutoff_base,
        lhs_max_steps=args.lhs_steps,
        lhs_tol=args.lhs_tol,
        cfg=_cfg_from(args),
        max_cells=args.max_cells,
    )


def cmd_improper(args) -> int:
    try:
        report = improper_report(args)
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.csv:
        _emit_text(_steps_csv(report), args)
    else:
        _emit(report.to_json(), args)
    return EXIT_OK if report.verdict == VERIFIED else EXIT_NUMERIC


def cmd_approx(args) -> int:
    f = _parse_formula(args.f, "--f")
    try:
        check = approximant.check_deficit(f, Interval(args.a, args.b), args.n, _cfg_from(args))
    except (ResourceLimitError, approximant.NegativityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        return _usage_error(str(exc))
    g = check.g
    summary = {
        "level": args.n,
        "knots": int(g.knots.size),
        "value_min": float(g.values.min()),
        "value_max": float(g.values.max()),
        "integral": check.integral,
        "csv": args.out or None,
    }
    if check.block_lower_sum is not None:
        summary.update(
            {
                "block_lower_sum": check.block_lower_sum,
                "deficit": check.deficit,
                "deficit_bound": check.bound,
                "deficit_within_bound": check.within_bound,
            }
        )
    for key in ("integral", "block_lower_sum"):
        if key in summary and not math.isfinite(summary[key]):
            print(f"error: the {key} overflows ({_finite_json(summary[key])})", file=sys.stderr)
            return EXIT_NUMERIC
    if args.out:
        with _writing(args.out):
            approximant.write_csv(g, args.out)
    print(_json_text(summary))
    return EXIT_OK


def cmd_diff(args) -> int:
    f = _parse_formula(args.f, "--f", expr.MAX_TREE_HEIGHT)
    d = expr.differentiate(f, args.var)  # f has one variable, and a rule for every node
    payload = {"input": expr.to_text(f), "derivative": expr.to_text(d)}
    if args.json:
        _emit(payload, args)
    else:
        _emit_text(payload["derivative"] + "\n", args)
    return EXIT_OK


def cmd_gallery(args) -> int:
    from .gallery import run_gallery  # the gallery runs this module's report functions

    rows = run_gallery(
        only=args.only,
        tol_override=args.tol,
        samples_override=args.samples,
        max_cells=args.max_cells,
    )
    if not rows:
        return _usage_error(f"unknown gallery id {args.only!r}")
    if args.csv:
        _emit_text(_gallery_csv(rows), args)
    elif args.json:
        _emit([{k: v for k, v in row.items() if k != "detail"} for row in rows], args)
    else:
        header = f"{'id':<4} {'lhs':>14} {'rhs':>14} {'expected':>14} {'verdict':<13} pass"
        lines = [header, "-" * len(header)]
        for row in rows:
            lines.append(
                f"{row['id']:<4} {row['lhs']:>14.9f} {row['rhs']:>14.9f} "
                f"{row['expected']:>14.9f} {row['verdict']:<13} "
                f"{'yes' if row['pass'] else 'NO'}"
            )
        lines.append(f"{sum(r['pass'] for r in rows)}/{len(rows)} pass")
        _emit_text("\n".join(lines) + "\n", args)
    return EXIT_OK if all(r["pass"] for r in rows) else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Argument parsing


def _count(minimum: int, maximum: int | None = None):
    """An argparse type: an integer in [minimum, maximum], else a usage error."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value

    count.__name__ = "int"  # argparse names the type in "invalid int value"
    return count


# Upper bounds keep every allocation possible: one cell's samples fit one
# evaluation block, a level holds at most the default cap of cells, and the
# continuity probe's 7 * 2^20 points take 56 MiB; improper's step k cuts an
# infinite end off at cutoff_base * 2.0**k, which overflows from k = 1,024.
_SAMPLES = _count(2, darboux._CHUNK_POINTS)
_MAX_CELLS = _count(1, CELL_CAP)
_GRID_SIZE = _count(100, 2**20)
_STEPS = _count(1, MAX_STEPS)


def _tolerance(text: str) -> float:
    """An argparse type: a positive float (not NaN), else a usage error."""
    value = float(text)
    if not value > 0:  # NaN as well
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {value}")
    return value


def _length(text: str) -> float:
    """An argparse type: a finite float > 0, else a usage error."""
    value = float(text)
    if not 0 < value < math.inf:  # NaN as well
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


_tolerance.__name__ = _length.__name__ = "float"  # argparse: "invalid float value"


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="target tolerance")
    p.add_argument(
        "--samples",
        type=_SAMPLES,
        default=2,
        help="samples per cell, >= 2 (2 = cell edges; raise for oscillatory integrands)",
    )
    p.add_argument(
        "--max-cells", type=_MAX_CELLS, default=CELL_CAP, help="uniform cell cap, 1 to 2^24"
    )
    p.add_argument("--out", type=str, default=None, help="write the report to PATH")


class _SingleDashToken:
    """Matches a token with one leading '-': '-inf', '-1e308', '-x^2'."""

    @staticmethod
    def match(text: str) -> bool:
        return not text.startswith("--")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token with one leading '-' as a value.

    argparse only treats '-5' and '-.5' that way, so ``--alpha -inf`` and
    ``--f -x^2`` failed with "expected one argument".  The only
    single-dash option is -h, which argparse looks up before asking the
    matcher.  A usage error is one ``error:`` line, exit 1.  Subparsers
    inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _SingleDashToken

    def error(self, message):
        # one error line instead of the usage text argparse prints
        raise SystemExit(_usage_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quadratura",
        description="Sampled Darboux quadrature and substitution-identity checks",
        epilog="Exit status: 0 success or verified, 1 usage or parse error,"
        " 2 non-convergence, mismatch or resource limit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="bracket the integral of f over [a, b]")
    p.add_argument("--f", required=True, help="integrand, e.g. 'x/(x^4+1)'")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("substitute", help="verify both sides of the substitution identity")
    p.add_argument("--f", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--phi-prime", default=None, help="override the symbolic derivative")
    p.add_argument(
        "--grid-size", type=_GRID_SIZE, default=1000, help="hypothesis-check grid, 100 to 2^20"
    )
    _add_common(p)
    p.set_defaults(func=cmd_substitute, report=substitute_report)

    p = sub.add_parser("improper", help="verify the identity through truncation schedules")
    p.add_argument("--f", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--alpha", type=float, required=True, help="number, 'inf' or '-inf'")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--open-alpha", action="store_true", help="approach alpha as an open endpoint")
    p.add_argument("--open-beta", action="store_true")
    p.add_argument("--steps", type=_STEPS, default=40, help="maximum truncation steps, 1 to 1,024")
    p.add_argument("--offset", type=_length, default=None, help="initial offset for finite open endpoints")
    p.add_argument(
        "--cutoff-base", type=_length, default=None,
        help="initial cutoff for infinite endpoints (default 1, doubled past a finite end)",
    )
    p.add_argument(
        "--inner-tol", type=_tolerance, default=None, help="per-truncation bracket tolerance"
    )
    p.add_argument("--lhs-inner-tol", type=_tolerance, default=None)
    p.add_argument("--lhs-offset", type=_length, default=None)
    p.add_argument("--lhs-cutoff-base", type=_length, default=None)
    p.add_argument("--lhs-steps", type=_STEPS, default=None)
    p.add_argument("--lhs-tol", type=_tolerance, default=None)
    p.add_argument("--csv", action="store_true", help="emit the step table as CSV")
    _add_common(p)
    p.set_defaults(func=cmd_improper, report=improper_report)

    p = sub.add_parser("approx", help="build the piecewise-linear below-approximant")
    p.add_argument("--f", required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True, help="refinement level")
    p.add_argument("--samples", type=_SAMPLES, default=2)
    p.add_argument("--out", type=str, default=None, help="write the knot CSV to PATH")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("diff", help="print the symbolic derivative")
    p.add_argument("--f", required=True)
    p.add_argument("--var", default=None, help="variable name (inferred when omitted)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("gallery", help="run the built-in examples end to end")
    p.add_argument("--only", default=None, help="run a single entry (E1, E2 or E3)")
    p.add_argument("--tol", type=_tolerance, default=None, help="override every entry's tolerance")
    p.add_argument("--samples", type=_SAMPLES, default=None)
    p.add_argument("--max-cells", type=_MAX_CELLS, default=CELL_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_gallery)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # The reader closed stdout early; point the descriptor at devnull so
        # the interpreter's final flush has nothing left to report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE


if __name__ == "__main__":
    # run as ``python -m quadratura.cli``: the gallery's ``from . import cli`` gets this module
    sys.modules.setdefault("quadratura.cli", sys.modules[__name__])
    sys.exit(main())
