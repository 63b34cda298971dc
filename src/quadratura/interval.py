"""Interval enclosures: a compiled expression tape run on intervals.

An interval register holds the rows (lo, hi) of one array, shape (2, n);
a constant stays a scalar.  Each step function has an interval rule
(natural interval extension: Moore, Kearfott & Cloud, "Introduction to
Interval Analysis", SIAM 2009) that applies the step itself to the
endpoints, or to the corners of two operands, with the same rounding.
Rounding is monotone, so a defined point value of the step lies between
the rule's endpoints; nothing is rounded outward.  NaN marks "no
enclosure", where an operand touches the domain's edge.  A rule whose
value at an infinite end could be finite (a divisor, a negative power, a
varying exponent, exp, atan, sin, cos, tan) gives none for one, so an
enclosure that is finite holds only defined point values.

``interval_tape`` compiles its roots to one tape with ``expr._compile``,
as evaluation does, with each step's rule in place of the step;
``enclose`` runs it.  ``slope_tape`` gives the tape of an expression and
its derivative, kept apart from the expression's point tape.  This module
stands apart from ``expr`` so that the larger source is not compiled in
one piece: that raised the peak memory of a process importing the package.
"""

from __future__ import annotations

import math

import numpy as np

from .expr import (
    MAX_TREE_HEIGHT,
    Expr,
    _compile,
    _div,
    _log,
    _pow,
    _pow_literal,
    _run,
    differentiate,
)

__all__ = ["enclose", "interval_tape", "slope_tape"]


def _none_where(out: np.ndarray, mask) -> np.ndarray:
    """``out`` (a fresh array of rows lo, hi) with no enclosure where ``mask`` holds."""
    if mask.any():
        out[:, mask] = np.nan
    return out


def _finite(a: np.ndarray) -> np.ndarray:
    return np.isfinite(a).all(axis=0)


def _hull(corners: np.ndarray) -> np.ndarray:
    """The (lo, hi) rows of the least and greatest of 2 x 2 corner values."""
    corners = corners.reshape(4, -1)
    out = np.empty((2, corners.shape[1]))
    np.minimum.reduce(corners, axis=0, out=out[0])
    np.maximum.reduce(corners, axis=0, out=out[1])
    return out


def _ordered(p: np.ndarray) -> np.ndarray:
    """The (lo, hi) rows of the lesser and greater of two rows."""
    out = np.empty_like(p)
    np.minimum(p[0], p[1], out=out[0])
    np.maximum(p[0], p[1], out=out[1])
    return out


def _scaled(fn, a, c):
    """``fn(a, c)`` for the constant c, its rows put in order."""
    out = fn(a, c)
    return out if c >= 0 else out[::-1]


def _isub(a, b):
    return a - (b if np.ndim(b) == 0 else b[::-1])


def _imul(a, b):
    if np.ndim(a) == 0:
        a, b = b, a
    return _scaled(np.multiply, a, b) if np.ndim(b) == 0 else _hull(a[:, None] * b)


def _idiv(a, b):
    # a divisor that holds zero or an infinite end has no enclosure
    if np.ndim(b) == 0:
        out = _scaled(np.divide, a, b)
        return out if b != 0 and math.isfinite(b) else np.full_like(out, np.nan)
    out = _ordered(a / b) if np.ndim(a) == 0 else _hull(a[:, None] / b)
    return _none_where(out, ~(((b[0] > 0) | (b[1] < 0)) & _finite(b)))


def _iabs(a):
    # |a| at both ends, put in order, and 0 below where a holds 0 inside
    out = _ordered(np.abs(a))
    np.copyto(out[0], 0.0, where=(a[0] < 0) & (a[1] > 0))
    return out


def _varying_power(a, b):
    """The rule of a^b for an exponent b that varies: the hull at the corners,
    a^b = exp(b log a) being monotone in each operand where a > 0; none unless
    a is finite and > 0 and b finite."""
    a = np.broadcast_to(a, b.shape)
    out = _hull(np.power(a[:, None], b))
    return _none_where(out, ~((a[0] > 0) & _finite(a) & _finite(b)))


def _power(point):
    """The rule of a power step ``point`` with a constant exponent c: the step
    at both ends, x^c being monotone on each side of 0."""

    def rule(a, c):
        if np.ndim(c):
            return _varying_power(a, c)
        out = _ordered(point(a, c))
        if c < 0:  # none across the pole at 0, or with an infinite end
            return _none_where(out, ~(((a[0] > 0) | (a[1] < 0)) & _finite(a)))
        if c > 0 and not c.is_integer():  # undefined below 0, though (-inf)^c is inf
            return _none_where(out, a[0] < 0)
        if c > 0 and c % 2 == 0:  # falls to 0 and rises again
            np.copyto(out[0], 0.0, where=(a[0] < 0) & (a[1] > 0))
        return out

    return rule


def _spans(a, peak: float, period: float) -> tuple[np.ndarray, np.ndarray]:
    """Each [lo, hi] in units of ``period`` from ``peak``, widened for rounding:
    it holds a point peak + k*period where ``floor(hi) >= lo``."""
    u = (a - peak) * (1.0 / period)
    margin = np.abs(u)
    margin *= 2.0**-40
    margin += 2.0**-40
    return u[0] - margin[0], u[1] + margin[1]


def _periodic(fn, peak: float):
    """The rule of sin or cos: its hull at the ends, 1 where a peak + 2*pi*k is
    held and -1 where a trough, half a period on, is."""

    def rule(a):
        out = _ordered(fn(a))
        none = np.isnan(out[0])  # fn is NaN exactly at an end that is not finite
        lo, hi = _spans(a, peak, 2.0 * math.pi)
        np.copyto(out[0], -1.0, where=np.floor(hi - 0.5) + 0.5 >= lo)
        np.copyto(out[1], 1.0, where=np.floor(hi) >= lo)
        return _none_where(out, none)

    return rule


def _itan(a):
    # increasing between its poles pi/2 + k*pi
    lo, hi = _spans(a, math.pi / 2, math.pi)
    return _none_where(np.tan(a), (np.floor(hi) >= lo) | ~_finite(a))


def _bounded_increasing(fn):
    return lambda a: _none_where(fn(a), ~_finite(a))


# Each step function's interval rule.  np.sqrt and _log are their own: they
# are increasing and give NaN below their domain.
_ENCLOSE = {
    np.negative: lambda a: -a[::-1],
    np.add: np.add,
    np.subtract: _isub,
    np.multiply: _imul,
    _div: _idiv,
    _pow_literal: _power(_pow_literal),
    _pow: _power(_pow),
    np.sin: _periodic(np.sin, math.pi / 2),
    np.cos: _periodic(np.cos, 0.0),
    np.tan: _itan,
    np.sqrt: np.sqrt,
    np.arctan: _bounded_increasing(np.arctan),
    np.exp: _bounded_increasing(np.exp),
    np.abs: _iabs,
    _log: _log,
}


def interval_tape(*roots: Expr) -> tuple:
    """The tape of ``roots`` compiled as for evaluation, each step's rule in
    place of the step: the first argument of ``enclose``."""
    registers, steps, outputs = _compile(*roots)
    return registers, tuple((_ENCLOSE[fn], *rest) for fn, *rest in steps), outputs


# The slope tapes of the last _SLOPES_KEPT expressions, by identity: every
# level of an integral and every strip of an improper one reuses its tape.
# (With a field on Expr for it, improper-truncation read 2% slower.)
_SLOPES: dict[int, tuple[Expr, tuple | None]] = {}
_SLOPES_KEPT = 8


def _within_height(f: Expr, height: int) -> bool:
    """Whether no path from f down to a leaf holds more than ``height`` nodes:
    the nodes at each depth, each once, until there are none."""
    level = (f,)
    for _ in range(height):
        level = {id(a): a for node in level for a in node.args}.values()
        if not level:
            return True
    return False


def slope_tape(f: Expr) -> tuple | None:
    """The interval tape of f and its derivative, kept for the next call on f.

    The derivative is built simplified, each node of f differentiated once,
    and compiled with f to one tape.  None for a tree of two variables, and
    for a tree taller than MAX_TREE_HEIGHT, which ``differentiate`` may not
    reach through; the height is read level by level, at most that many levels.
    """
    kept = _SLOPES.get(id(f))
    if kept is not None and kept[0] is f:
        return kept[1]
    tape = None
    if _within_height(f, MAX_TREE_HEIGHT):
        try:
            tape = interval_tape(f, differentiate(f))
        except ValueError:  # two variables
            pass
    if len(_SLOPES) >= _SLOPES_KEPT:
        del _SLOPES[next(iter(_SLOPES))]
    _SLOPES[id(f)] = (f, tape)  # f kept alive, so its id is not reused
    return tape


def enclose(tape: tuple, lo, hi) -> np.ndarray:
    """Enclosures of each root of ``tape`` over the intervals [lo[i], hi[i]],
    shape (roots, 2, n).

    ``out[k, 0]`` and ``out[k, 1]`` bound root k below and above; NaN in
    both marks a cell without an enclosure (see the module docstring).
    """
    registers, steps, outputs = tape
    x = np.stack((np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)))
    with np.errstate(all="ignore"):
        regs = _run(registers, steps, x)
    out = np.empty((len(outputs), *x.shape))
    for row, (result, _) in zip(out, outputs):
        row[...] = regs[result]
    np.copyto(out, np.nan, where=np.isnan(out).any(axis=1, keepdims=True))
    return out
