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

A tree is compiled once, on its first evaluation, to a flat tape: one
step per distinct subtree in postorder, constants held as scalars and
constant-only subtrees folded.  Identical subtrees share one step
(common-subexpression elimination), keyed on each node's kind, the bit
pattern of its constant and its operands' steps, so ``0.0`` and
``-0.0`` stay apart.  Sharing only skips recomputing a value, so the
tape gives the bits a node-by-node evaluation gives, bit for bit where
defined; an undefined point is NaN either way, its sign unspecified.
``substitute`` builds ``f(phi(t))`` as one tree; ``changevar``
evaluates the substitution product ``f(phi(t))*phi'(t)`` that way, so
f, phi and phi' share their common subterms.  Compiling and evaluating are iterative,
so any height evaluates.  Differentiating and printing recurse once per
level; ``parse(text, max_height=MAX_TREE_HEIGHT)`` keeps a formula
within their reach.
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
    "MAX_TREE_HEIGHT",
    "UnknownIdentifierError",
    "ArityError",
    "NonDifferentiableError",
    "parse",
    "evaluate",
    "evaluate_array",
    "differentiate",
    "substitute",
    "to_text",
    "variables",
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
    # The compiled tape, set on first evaluation (see ``evaluate_array``).
    _tape: tuple | None = field(default=None, init=False, repr=False, compare=False, hash=False)

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


def _postorder(root: Expr):
    """Each distinct node object of ``root`` once, operands first, without recursion."""
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded or not node.args:
            seen.add(id(node))
            yield node
        else:
            stack.append((node, True))
            stack.extend((a, False) for a in reversed(node.args))


def substitute(e: Expr, value: Expr) -> Expr:
    """``e`` with every variable replaced by ``value``: ``f(phi)`` as one tree.

    ``value`` is shared, not copied, so it is compiled once when the
    result is evaluated.
    """
    new: dict[int, Expr] = {}
    for node in _postorder(e):
        if node.kind == "var":
            new[id(node)] = value
        elif node.args:
            args = tuple(new[id(a)] for a in node.args)
            new[id(node)] = Expr(node.kind, node.value, node.name, args)
        else:
            new[id(node)] = node
    return new[id(e)]


# ---------------------------------------------------------------------------
# Tokenizer / parser


_NUMBER_START = "0123456789."

#: Deepest nesting of factors (parentheses, calls, unary minus, powers) that
#: parses.  The parser recurses per level, and at this depth it stays well
#: inside Python's default recursion limit.
MAX_PARSE_DEPTH = 100

#: Tallest tree, counting every link of a chain like ``x+x+x``, that
#: ``differentiate`` and ``to_text`` (which recurse per level, ``to_text``
#: also on the derivative's taller tree) are known to handle.  Pass it as
#: ``parse(..., max_height=MAX_TREE_HEIGHT)`` for a formula that will be
#: differentiated.
MAX_TREE_HEIGHT = 100


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
    def __init__(self, text: str, max_height: int | None = None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.varname: str | None = None
        self.max_height = max_height
        self.heights: dict[int, int] = {}  # id(inner node) -> height, under a cap

    def node(self, e: Expr, pos: int) -> Expr:
        """Return the inner node ``e``; taller than ``max_height`` is an error at ``pos``."""
        if self.max_height is None:
            return e
        h = 1 + max(self.heights.get(id(a), 1) for a in e.args)  # leaves: 1
        if h > self.max_height:
            self.error(f"formula taller than {self.max_height} levels", pos)
        self.heights[id(e)] = h
        return e

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
            op, _, pos = self.advance()
            rhs = self.term()
            e = self.node(add(e, rhs) if op == "+" else sub(e, rhs), pos)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.factor()
            e = self.node(mul(e, rhs) if op == "*" else div(e, rhs), pos)
        return e

    def factor(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_PARSE_DEPTH:
            self.error(f"formula nested deeper than {MAX_PARSE_DEPTH} levels", self.peek()[2])
        if self.peek()[0] == "-":
            pos = self.advance()[2]
            e = self.node(neg(self.factor()), pos)
        else:
            e = self.base()
            if self.peek()[0] == "^":
                pos = self.advance()[2]
                e = self.node(pow_(e, self.factor()), pos)
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
        return self.node(call(fname, args[0]), pos)


def parse(text: str, max_height: int | None = None) -> Expr:
    """Parse ``text`` into an expression tree.

    Raises ParseError (with byte offset), UnknownIdentifierError or
    ArityError; nesting deeper than MAX_PARSE_DEPTH is a ParseError, and
    so is a tree taller than ``max_height`` when one is given (the
    offset is that of the operator or token that crosses it).  The
    returned tree mirrors the grammar; no folding or rewriting is
    applied.
    """
    return _Parser(text, max_height).parse()


# ---------------------------------------------------------------------------
# Evaluation: each tree is compiled once to a tape of numpy calls


def _undefined_where(out: np.ndarray, mask) -> np.ndarray:
    if mask.any():
        out[mask] = np.nan
    return out


def _patch_nan(out: np.ndarray, *parents: np.ndarray) -> np.ndarray:
    # numpy lets NaN escape through power (nan**0 == 1, 1**nan == 1);
    # undefinedness must propagate unconditionally.
    for p in parents:
        _undefined_where(out, np.isnan(p))
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
            acc = sq if acc is None else acc * sq
        m >>= 1
        if m:
            sq = sq * sq
    return acc


# Steps see arrays, or the scalar of a constant in place of one operand:
# a node whose operands are all constant is folded when compiled.  No
# step writes into an operand, so a step may return one (x^1 does).


def _div(a, b):
    # division by zero is out of domain, not +-inf
    return _undefined_where(a / b, b == 0.0)


def _log(u):
    # non-positive arguments are out of domain (np.log(0) == -inf)
    return _undefined_where(np.log(u), u <= 0.0)


def _pow_literal(a, c):
    """a^c for a literal exponent c: binary powering for an integer up to 64."""
    if c.is_integer() and abs(c) <= 64:
        k = int(c)
        if k >= 0:
            return _int_power(a, k)
        out = 1.0 / _int_power(a, -k)
    else:
        out = np.power(a, c)
    if c < 0:
        _undefined_where(out, a == 0.0)
    return _patch_nan(out, a)


def _pow(a, b):
    """a^b for an exponent that is not a literal."""
    # A constant operand is spread to a full array: np.power rounds a
    # scalar exponent of 2 or 0.5 differently from an array of them.
    if np.ndim(a) == 0:
        a = np.full_like(b, a)
    if np.ndim(b) == 0:
        b = np.full_like(a, b)
    out = _undefined_where(np.power(a, b), (a == 0.0) & (b < 0.0))
    return _patch_nan(out, a, b)


_STEP = {"neg": np.negative, "add": np.add, "sub": np.subtract, "mul": np.multiply, "div": _div}
_CALL = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "sqrt": np.sqrt,
    "atan": np.arctan,
    "exp": np.exp,
    "abs": np.abs,
    "log": _log,
}


def _step_fn(e: Expr):
    if e.kind == "call":
        return _CALL[e.name]
    if e.kind == "pow":
        return _pow_literal if e.args[1].kind == "const" else _pow
    return _STEP[e.kind]


def _fold_constants(fn, values: list[np.float64]) -> np.float64:
    """``fn`` on constant operands, each as a one-point array as at run time."""
    args = [v if i and fn is _pow_literal else np.array([v]) for i, v in enumerate(values)]
    with np.errstate(all="ignore"):
        return fn(*args)[0]


def _compile(root: Expr) -> tuple:
    """Compile ``root`` to ``(registers, steps, result)`` for ``_run``.

    Values are numbered in postorder.  A node's key is its step function
    (which tells the kinds and pow variants apart) with its operands'
    numbers, or the bit pattern of a constant, so identical subtrees get
    one number and equal but differently signed zeros do not.  Register
    0 holds the input and constants their own registers; a computed
    value's register is reused after its last read.
    """
    number: dict[int, int] = {}  # id(node) -> value number
    by_key: dict[tuple, int] = {("var",): 0}
    constant: dict[int, np.float64] = {}
    computed: dict[int, tuple] = {}  # value number -> (fn, operand numbers)
    for node in _postorder(root):
        if node.kind == "var":
            key, c = ("var",), None
        elif node.kind == "const":
            c = np.float64(node.value)
            key = ("const", c.tobytes())
        else:
            fn = _step_fn(node)
            operands = tuple(number[id(a)] for a in node.args)
            if all(k in constant for k in operands):
                c = _fold_constants(fn, [constant[k] for k in operands])
                key = ("const", c.tobytes())
            else:
                key, c = (fn, *operands), None
        k = by_key.get(key)
        if k is None:
            k = by_key[key] = len(by_key)
            if c is None:
                computed[k] = key
            else:
                constant[k] = c
        number[id(node)] = k

    result = number[id(root)]
    last_read = {k: at for at, (_, *operands) in computed.items() for k in operands}
    registers: list = [None]
    reg = {0: 0}
    for k, c in constant.items():
        reg[k] = len(registers)
        registers.append(c)
    free: list[int] = []
    steps = []
    for at, (fn, *operands) in computed.items():  # in postorder
        srcs = [reg[k] for k in operands]
        for k in set(operands):
            if k in computed and last_read[k] == at:
                free.append(reg[k])
        if free:
            reg[at] = free.pop()
        else:
            reg[at] = len(registers)
            registers.append(None)
        steps.append((fn, reg[at], srcs[0], srcs[1] if len(srcs) > 1 else -1))
    return registers, tuple(steps), reg[result]


def _run(tape: tuple, x: np.ndarray):
    """The result array, ``x`` itself for a bare variable, or a scalar constant."""
    registers, steps, result = tape
    regs = registers.copy()
    regs[0] = x
    for fn, dst, i, j in steps:
        regs[dst] = fn(regs[i]) if j < 0 else fn(regs[i], regs[j])
    return regs[result]


# Long inputs are evaluated in blocks of this many points: each step's
# temporaries (64 KB) then stay in cache and under malloc's default mmap
# threshold (128 KB), instead of being mapped and faulted in afresh.
_EVAL_BLOCK = 8192


def evaluate_array(e: Expr, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` elementwise over ``xs``; NaN marks undefined points.

    The tape is compiled on the first call and kept on ``e``.  A 0-d
    input is evaluated as a one-point array (numpy ufuncs return scalars
    for 0-d arrays, which a domain rule cannot write NaN into) and gives
    a 0-d result.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 0:
        return evaluate_array(e, xs.reshape(1)).reshape(())
    tape = e._tape
    if tape is None:
        tape = _compile(e)
        object.__setattr__(e, "_tape", tape)
    with np.errstate(all="ignore"):
        if xs.ndim == 1 and xs.size > _EVAL_BLOCK:
            out = np.empty_like(xs)
            for i in range(0, xs.size, _EVAL_BLOCK):
                out[i : i + _EVAL_BLOCK] = _run(tape, xs[i : i + _EVAL_BLOCK])
            return out
        out = _run(tape, xs)
    if out is xs or not isinstance(out, np.ndarray):  # x itself, or a constant
        out = np.array(np.broadcast_to(out, xs.shape))
    return out


def evaluate(e: Expr, x: float) -> EvalOutcome:
    """Evaluate at one point.  Deterministic: same (e, x) gives the same bits."""
    return float(evaluate_array(e, np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# Differentiation


def _is_constant(e: Expr) -> bool:
    return not variables(e)


def _const_value(e: Expr) -> float:
    """The value of a constant-only tree, folded node by node as ``_compile``
    folds it, so the bits are those of ``evaluate(e, 0.0)`` without a tape.
    """
    if e.kind == "const":
        return e.value
    values = [np.float64(_const_value(a)) for a in e.args]
    return float(_fold_constants(_step_fn(e), values))


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
        v = _const_value(e)
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
