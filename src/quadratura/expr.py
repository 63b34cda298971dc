"""Parse, evaluate, differentiate and print formulas in one real variable.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right-associative and binds tighter than unary minus, so
``-x^2`` reads as ``-(x^2)`` while ``2^-3`` is fine.  Known functions:
sin, cos, tan, sqrt, atan, exp, log, abs.  ``pi`` and ``e`` parse as
constants.  Exactly one other identifier may appear; it names the free
variable.

Evaluation composes IEEE doubles node by node, except that leaving a
node's domain (division by zero, log of a non-positive, even root of a
negative) yields NaN, the *undefined* outcome.  Undefinedness
propagates: an undefined sub-term makes the enclosing term undefined.
Overflow saturates to +-inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Expr",
    "EvalOutcome",
    "UNDEFINED",
    "ParseError",
    "MAX_PARSE_DEPTH",
    "UnknownIdentifierError",
    "ArityError",
    "NonDifferentiableError",
    "parse",
    "evaluate",
    "evaluate_array",
    "differentiate",
    "to_text",
    "variables",
    "is_undefined",
    "const",
    "var",
]

FUNCTIONS = ("sin", "cos", "tan", "sqrt", "atan", "exp", "log", "abs")
CONSTANTS = {"pi": math.pi, "e": math.e}

#: Evaluation result: an IEEE double where NaN encodes "undefined".
EvalOutcome = float
UNDEFINED: float = math.nan

_ARITY = {
    "const": 0,
    "var": 0,
    "neg": 1,
    "add": 2,
    "sub": 2,
    "mul": 2,
    "div": 2,
    "pow": 2,
    "call": 1,
}


def is_undefined(y: float) -> bool:
    return math.isnan(y)


class ParseError(ValueError):
    """Syntax error; ``offset`` is the byte offset into the input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    pass


class ArityError(ParseError):
    pass


class NonDifferentiableError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Expr:
    """Immutable expression tree node.

    ``kind`` is one of const, var, neg, add, sub, mul, div, pow, call.
    Constants store ``value``; variables and calls store ``name``.
    """

    kind: str
    value: float = 0.0
    name: str = ""
    args: tuple["Expr", ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if len(self.args) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} node takes {_ARITY[self.kind]} children")
        if self.kind == "call" and self.name not in FUNCTIONS:
            raise ValueError(f"unknown function {self.name!r}")

    def __call__(self, x):
        if np.ndim(x) == 0:
            return evaluate(self, float(x))
        return evaluate_array(self, np.asarray(x, dtype=float))

    def __str__(self) -> str:
        return to_text(self)


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(name: str) -> Expr:
    return Expr("var", name=name)


def neg(a: Expr) -> Expr:
    return Expr("neg", args=(a,))


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", args=(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", args=(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", args=(a, b))


def div(a: Expr, b: Expr) -> Expr:
    return Expr("div", args=(a, b))


def pow_(a: Expr, b: Expr) -> Expr:
    return Expr("pow", args=(a, b))


def call(name: str, a: Expr) -> Expr:
    return Expr("call", name=name, args=(a,))


def variables(e: Expr) -> frozenset[str]:
    """Names of all variables occurring in ``e``."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if node.kind == "var":
            out.add(node.name)
        stack.extend(node.args)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Tokenizer / parser


_NUMBER_START = "0123456789."

#: Deepest nesting of factors (parentheses, calls, unary minus, powers) that
#: parses.  Parsing, differentiating, evaluating and printing all recurse
#: per level, and at this depth they stay well inside Python's default
#: recursion limit.
MAX_PARSE_DEPTH = 100


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        start = i
        if ch in "+-*/^(),":
            tokens.append((ch, ch, start))
            i += 1
        elif ch in _NUMBER_START:
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "." and ch != ".":
                i += 1
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j + 1
                    while i < n and text[i].isdigit():
                        i += 1
            lexeme = text[start:i]
            try:
                float(lexeme)
            except ValueError:
                raise ParseError(f"bad number {lexeme!r}", _byte_offset(text, start))
            tokens.append(("num", lexeme, start))
        elif ch.isalpha() or ch == "_":
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(("ident", text[start:i], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", _byte_offset(text, start))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.varname: str | None = None

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, pos: int, cls=ParseError):
        raise cls(message, _byte_offset(self.text, pos))

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            self.error(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2])
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.error(f"unexpected {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            self.error(f"formula nested deeper than {MAX_PARSE_DEPTH} levels", self.peek()[2])
        if self.peek()[0] == "-":
            self.advance()
            e = neg(self.factor())
        else:
            e = self.base()
            if self.peek()[0] == "^":
                self.advance()
                e = pow_(e, self.factor())
        self.depth -= 1
        return e

    def base(self) -> Expr:
        tok = self.advance()
        kind, lexeme, pos = tok
        if kind == "num":
            return const(float(lexeme))
        if kind == "(":
            e = self.expr()
            closing = self.peek()
            if closing[0] != ")":
                self.error("missing ')'", closing[2])
            self.advance()
            return e
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call_args(lexeme, pos)
            if lexeme in CONSTANTS:
                return const(CONSTANTS[lexeme])
            if lexeme in FUNCTIONS:
                self.error(f"function {lexeme!r} needs an argument list", pos)
            if self.varname is None:
                self.varname = lexeme
            elif lexeme != self.varname:
                self.error(
                    f"unknown identifier {lexeme!r} (variable is {self.varname!r})",
                    pos,
                    UnknownIdentifierError,
                )
            return var(lexeme)
        self.error(f"unexpected {lexeme or 'end of input'!r}", pos)

    def call_args(self, fname: str, pos: int) -> Expr:
        self.expect("(")
        args = [self.expr()]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expr())
        closing = self.peek()
        if closing[0] != ")":
            self.error("missing ')'", closing[2])
        self.advance()
        if fname not in FUNCTIONS:
            self.error(f"unknown identifier {fname!r}", pos, UnknownIdentifierError)
        if len(args) != 1:
            self.error(f"{fname} takes 1 argument, got {len(args)}", pos, ArityError)
        return call(fname, args[0])


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with byte offset), UnknownIdentifierError or
    ArityError; nesting deeper than MAX_PARSE_DEPTH is a ParseError.
    The returned tree mirrors the grammar; no folding or rewriting is
    applied.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def _patch_nan(out: np.ndarray, *parents: np.ndarray) -> np.ndarray:
    # numpy lets NaN escape through power (nan**0 == 1, 1**nan == 1);
    # undefinedness must propagate unconditionally.
    for p in parents:
        bad = np.isnan(p)
        if bad.any():
            out[bad] = np.nan
    return out


def _int_power(base: np.ndarray, k: int) -> np.ndarray:
    # binary exponentiation; cheaper than np.power for small integer k
    if k == 0:
        return _patch_nan(np.ones_like(base), base)
    acc = None
    sq = base
    m = k
    while m:
        if m & 1:
            acc = sq.copy() if acc is None else acc * sq
        m >>= 1
        if m:
            sq = sq * sq
    return acc


def _eval(e: Expr, x: np.ndarray) -> np.ndarray:
    kind = e.kind
    if kind == "const":
        return np.full_like(x, e.value)
    if kind == "var":
        return x
    if kind == "neg":
        return -_eval(e.args[0], x)
    if kind == "call":
        u = _eval(e.args[0], x)
        name = e.name
        if name == "sin":
            return np.sin(u)
        if name == "cos":
            return np.cos(u)
        if name == "tan":
            return np.tan(u)
        if name == "sqrt":
            return np.sqrt(u)
        if name == "atan":
            return np.arctan(u)
        if name == "exp":
            return np.exp(u)
        if name == "abs":
            return np.abs(u)
        # log: non-positive arguments are out of domain (np.log(0) == -inf)
        out = np.log(u)
        bad = u <= 0.0
        if bad.any():
            out = out.copy() if out is u else out
            out[bad] = np.nan
        return out
    a = _eval(e.args[0], x)
    if kind == "pow":
        exp_node = e.args[1]
        if exp_node.kind == "const":
            c = exp_node.value
            if float(c).is_integer() and abs(c) <= 64:
                k = int(c)
                if k >= 0:
                    return _int_power(a, k)
                out = 1.0 / _int_power(a, -k)
                zero = a == 0.0
                if zero.any():
                    out[zero] = np.nan
                return _patch_nan(out, a)
            out = np.power(a, c)
            if c < 0:
                zero = a == 0.0
                if zero.any():
                    out[zero] = np.nan
            return _patch_nan(out, a)
        b = _eval(exp_node, x)
        out = np.power(a, b)
        bad = (a == 0.0) & (b < 0.0)
        if bad.any():
            out[bad] = np.nan
        return _patch_nan(out, a, b)
    b = _eval(e.args[1], x)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    # div: division by zero is out of domain, not +-inf
    out = a / b
    zero = b == 0.0
    if zero.any():
        out[zero] = np.nan
    return out


# Long inputs are evaluated in blocks of this many points: each node's
# temporaries (64 KB) then stay in cache and under malloc's default mmap
# threshold (128 KB), instead of being mapped and faulted in afresh.
_EVAL_BLOCK = 8192


def evaluate_array(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` elementwise over ``xs``; NaN marks undefined points."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        if xs.ndim == 1 and xs.size > _EVAL_BLOCK:
            out = np.empty_like(xs)
            for i in range(0, xs.size, _EVAL_BLOCK):
                out[i : i + _EVAL_BLOCK] = _eval(e, xs[i : i + _EVAL_BLOCK])
            return out
        out = _eval(e, xs)
    if out is xs:  # bare variable: never alias the caller's buffer
        out = xs.copy()
    return out


def evaluate(e: Expr, x: float) -> EvalOutcome:
    """Evaluate at one point.  Deterministic: same (e, x) gives the same bits."""
    return float(evaluate_array(e, np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# Differentiation


def _is_constant(e: Expr) -> bool:
    return not variables(e)


def _const_value(e: Expr) -> float:
    return evaluate(e, 0.0)


def differentiate(e: Expr, varname: str | None = None) -> Expr:
    """Symbolic derivative of ``e`` with respect to its variable.

    Exponents must be constants (the power rule is applied with the
    folded exponent value); ``abs`` is rejected.  The result is lightly
    simplified (constant folding, +0 / *1 / *0 elimination) but carries
    no canonical form: correctness is pointwise evaluation equality.
    """
    if varname is None:
        names = variables(e)
        if len(names) > 1:
            raise ValueError(f"ambiguous variable: {sorted(names)}")
        varname = next(iter(names), "x")
    return _simplify(_diff(e, varname))


def _diff(e: Expr, v: str) -> Expr:
    kind = e.kind
    if kind == "const":
        return const(0.0)
    if kind == "var":
        return const(1.0 if e.name == v else 0.0)
    if kind == "neg":
        return neg(_diff(e.args[0], v))
    if kind == "add":
        return add(_diff(e.args[0], v), _diff(e.args[1], v))
    if kind == "sub":
        return sub(_diff(e.args[0], v), _diff(e.args[1], v))
    if kind == "mul":
        a, b = e.args
        return add(mul(_diff(a, v), b), mul(a, _diff(b, v)))
    if kind == "div":
        a, b = e.args
        num = sub(mul(_diff(a, v), b), mul(a, _diff(b, v)))
        return div(num, pow_(b, const(2.0)))
    if kind == "pow":
        base_node, exp_node = e.args
        if not _is_constant(exp_node):
            raise NonDifferentiableError(
                f"cannot differentiate {to_text(e)}: exponent must be a constant"
            )
        c = _const_value(exp_node)
        if c == 0.0:
            return const(0.0)
        term = mul(const(c), pow_(base_node, const(c - 1.0)))
        return mul(term, _diff(base_node, v))
    u = e.args[0]
    du = _diff(u, v)
    name = e.name
    if name == "sin":
        return mul(call("cos", u), du)
    if name == "cos":
        return neg(mul(call("sin", u), du))
    if name == "tan":
        return div(du, pow_(call("cos", u), const(2.0)))
    if name == "sqrt":
        return div(du, mul(const(2.0), call("sqrt", u)))
    if name == "atan":
        return div(du, add(const(1.0), pow_(u, const(2.0))))
    if name == "exp":
        return mul(call("exp", u), du)
    if name == "log":
        return div(du, u)
    raise NonDifferentiableError(f"cannot differentiate node {name!r}")


def _fold(e: Expr) -> Expr | None:
    """Fold a constant subtree to a literal when the result is finite."""
    if all(a.kind == "const" for a in e.args):
        v = evaluate(e, 0.0)
        if math.isfinite(v):
            return const(v)
    return None


def _simplify(e: Expr) -> Expr:
    if e.kind in ("const", "var"):
        return e
    args = tuple(_simplify(a) for a in e.args)
    e = Expr(e.kind, value=e.value, name=e.name, args=args)
    folded = _fold(e)
    if folded is not None:
        return folded
    kind = e.kind
    if kind == "neg":
        (a,) = args
        if a.kind == "neg":
            return a.args[0]
        return e
    if kind in ("add", "sub", "mul", "div", "pow"):
        a, b = args
        if kind == "add":
            if _is_zero(a):
                return b
            if _is_zero(b):
                return a
        elif kind == "sub":
            if _is_zero(b):
                return a
            if _is_zero(a):
                return _simplify(neg(b))
        elif kind == "mul":
            if _is_zero(a) or _is_zero(b):
                return const(0.0)
            if _is_one(a):
                return b
            if _is_one(b):
                return a
        elif kind == "div":
            if _is_one(b):
                return a
        elif kind == "pow":
            if _is_one(b):
                return a
            if _is_zero(b):
                return const(1.0)
    return e


def _is_zero(e: Expr) -> bool:
    return e.kind == "const" and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return e.kind == "const" and e.value == 1.0


# ---------------------------------------------------------------------------
# Printing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM = 5
_OP_TEXT = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _prec(e: Expr) -> int:
    if e.kind == "const" and (e.value < 0 or math.copysign(1.0, e.value) < 0):
        return _PREC["neg"]
    return _PREC.get(e.kind, _ATOM)


def _wrap(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


def _const_text(v: float) -> str:
    if v.is_integer() and abs(v) < 1e16 and not (v == 0 and math.copysign(1.0, v) < 0):
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render ``e`` so that ``parse(to_text(e))`` evaluates identically.

    Right operands of the left-associative operators are parenthesized at
    equal precedence, so the reassembled tree reassociates nothing.
    """
    kind = e.kind
    if kind == "const":
        return _const_text(e.value)
    if kind == "var":
        return e.name
    if kind == "call":
        return f"{e.name}({to_text(e.args[0])})"
    if kind == "neg":
        return "-" + _wrap(e.args[0], _PREC["neg"])
    a, b = e.args
    p = _PREC[kind]
    if kind == "pow":  # right-associative
        return f"{_wrap(a, p + 1)}^{_wrap(b, p)}"
    return f"{_wrap(a, p)}{_OP_TEXT[kind]}{_wrap(b, p + 1)}"
