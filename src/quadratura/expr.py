"""Parse, evaluate, differentiate and print formulas in one real variable.

Grammar (whitespace-insensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | base ("^" factor)?
    base   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

``^`` is right-associative and binds tighter than unary minus, so
``-x^2`` reads as ``-(x^2)`` while ``2^-3`` is fine.  A ``-NUMBER`` right
after ``^`` and not itself raised to a power is one negative literal:
``x^-2`` is pow(x, -2), as ``to_text`` prints it, and ``x^(-2)`` is
pow(x, neg(2)).  Known functions:
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
Several trees compile to one tape with one output each
(``compile_tape``): the steps follow the roots' postorders in the order
given, so each output is computed by a prefix of the steps, and no
output's register is reused.  A root evaluated alone runs only its
prefix; ``evaluate_array`` on a tuple of roots runs the longest prefix
once and gives the outputs as the rows of one array.  ``substitute``
builds ``f(phi(t))`` as one tree; ``changevar`` compiles phi, phi' and
the substitution product ``f(phi(t))*phi'(t)`` as one tape, so f, phi
and phi' share their common subterms.  ``interval.enclose`` runs the steps
of such a tape on intervals; ``darboux`` encloses an integrand and its
derivative to find the cells on which the integrand is monotone.
Compiling, evaluating and differentiating are iterative, so a formula of
any height evaluates and differentiates.  Printing recurses once per
level; ``parse(text, max_height=MAX_TREE_HEIGHT)`` keeps a formula whose
derivative is printed within its reach.
"""

from __future__ import annotations

import math
import struct
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
    "parse",
    "evaluate",
    "evaluate_array",
    "compile_tape",
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


def _postorder(root: Expr, seen: set[int] | None = None):
    """Each node object of ``root`` not in ``seen`` once, operands first, without
    recursion; ``seen`` collects their ids."""
    seen = set() if seen is None else seen
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

#: Tallest tree, counting every link of a chain like ``x+x+x``, whose
#: derivative ``to_text`` is known to print: it recurses per level, and the
#: printed derivative of an n-factor product ``x*x*...*x`` grows as n^2.
#: Pass it as ``parse(..., max_height=MAX_TREE_HEIGHT)`` for such a formula.
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
                e = self.node(pow_(e, self.exponent()), pos)
        self.depth -= 1
        return e

    def exponent(self) -> Expr:
        """A factor, or one negative literal for ``-NUMBER`` not raised to a power."""
        tokens, i = self.tokens, self.i  # the last token is "end", so none runs past it
        if tokens[i][0] == "-" and tokens[i + 1][0] == "num" and tokens[i + 2][0] != "^":
            self.i += 2
            return const(-float(tokens[i + 1][1]))
        return self.factor()

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
    try:
        return _Parser(text, max_height).parse()
    except ParseError as exc:
        error = exc
    # Raised again out here without its traceback: an error found hundreds of
    # frames down would otherwise keep every parser frame, and the parser's
    # tokens, alive for as long as the exception lives.
    raise error.with_traceback(None)


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
    if c != c:  # np.power(1, nan) is 1, but undefinedness propagates
        return np.full_like(a, np.nan)
    if c.is_integer() and abs(c) <= 64:
        k = int(c)
        if k >= 0:
            return _int_power(a, k)
        out = 1.0 / _int_power(a, -k)
    else:
        out = np.power(a, c)
    if c < 0:
        _undefined_where(out, a == 0.0)
    return out  # NaN propagates through a product of powers and np.power(nan, c != 0)


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


def _step_fn(kind: str, name: str, args: tuple[Expr, ...]):
    """The step of a node: by kind, a call's by name, a power's by whether
    its exponent is a literal."""
    fn = _STEP.get(kind)
    if fn is None:
        fn = _CALL[name] if kind == "call" else _pow_literal if args[1].kind == "const" else _pow
    return fn


def _fold_constants(fn, values: list[np.float64]) -> np.float64:
    """``fn`` on constant operands, each as a one-point array as at run time.

    Call it under ``np.errstate(all="ignore")``.
    """
    args = [v if i and fn is _pow_literal else np.array([v]) for i, v in enumerate(values)]
    return fn(*args)[0]


_PACK = struct.Struct("d").pack  # a constant's key: its bits, so 0.0 and -0.0 differ


def _compile(*roots: Expr) -> tuple:
    """Compile ``roots`` to one tape, ``(registers, steps, outputs)`` for ``_run``.

    Values are numbered in postorder of the roots in the order given, each
    node once, in one walk with an explicit stack.  A node's key is its
    step function (which tells the kinds and pow variants apart) with its
    operands' numbers, or the bit pattern of a constant, so identical
    subtrees get one number and equal but differently signed zeros do not.
    Register 0 holds the input and constants their own registers; a
    computed value's register is reused after its last read, unless it
    holds a root's value.  ``outputs`` holds each root's register and the
    length of the prefix of ``steps`` that computes it: the steps up to the
    last value its postorder added.
    """
    number: dict[int, int] = {}  # id(node) -> value number; the input is 0
    by_key: dict = {}  # a constant's bits, or (fn, *operands) -> value number
    constant: dict[int, np.float64] = {}  # value number -> value
    computed: list[tuple] = []  # (value number, fn, operands), in postorder
    last_read: dict[int, int] = {}  # value number -> the last value number reading it
    ends = []

    def leaf(node: Expr) -> int:
        if node.kind == "var":
            k = 0
        else:
            key = _PACK(node.value)
            k = by_key.get(key)
            if k is None:
                k = by_key[key] = len(by_key) + 1
                constant[k] = np.float64(node.value)
        number[id(node)] = k
        return k

    for root in roots:
        stack = [root] if root.args else []
        if not stack:
            leaf(root)
        while stack:  # a node stays on the stack until its operands have numbers
            node = stack[-1]
            if id(node) in number:
                stack.pop()
                continue
            args = node.args
            ka = number.get(id(args[0]))
            if ka is None:
                if args[0].args:
                    stack.append(args[0])
                    continue
                ka = leaf(args[0])
            if len(args) == 1:
                operands = (ka,)
                folds = ka in constant
            else:
                kb = number.get(id(args[1]))
                if kb is None:
                    if args[1].args:
                        stack.append(args[1])
                        continue
                    kb = leaf(args[1])
                operands = (ka, kb)
                folds = ka in constant and kb in constant
            stack.pop()
            fn = _step_fn(node.kind, node.name, args)
            if folds:
                with np.errstate(all="ignore"):
                    c = _fold_constants(fn, [constant[k] for k in operands])
                key = c.tobytes()
            else:
                key = (fn, *operands)
            k = by_key.get(key)
            if k is None:
                k = by_key[key] = len(by_key) + 1
                if folds:
                    constant[k] = c
                else:
                    computed.append((k, fn, operands))
                    for j in operands:
                        last_read[j] = k
            number[id(node)] = k
        ends.append(len(computed))

    results = [number[id(root)] for root in roots]
    kept = set(results)
    first = len(constant) + 1  # the first register of a computed value
    registers: list = [None, *constant.values()]
    reg = [0] * (len(by_key) + 1)  # value number -> register
    for r, k in enumerate(constant, 1):
        reg[k] = r
    free: list[int] = []
    steps = []
    for k, fn, operands in computed:
        # freed once each (x*x reads one value twice), in a set's order: it fixes the numbering
        for j in {j for j in operands if reg[j] >= first and last_read[j] == k and j not in kept}:
            free.append(reg[j])
        r = free.pop() if free else len(registers)
        if r == len(registers):
            registers.append(None)
        steps.append((fn, r, reg[operands[0]], reg[operands[-1]] if len(operands) > 1 else -1))
        reg[k] = r
    return registers, tuple(steps), tuple((reg[k], end) for k, end in zip(results, ends))


def compile_tape(*roots: Expr) -> None:
    """Compile ``roots`` to one tape with one output each, kept on every root:
    alone, a root runs its prefix; ``evaluate_array(roots, xs)`` runs it once.
    """
    registers, steps, outputs = _compile(*roots)
    for root, (result, end) in zip(roots, outputs):
        object.__setattr__(root, "_tape", (registers, steps[:end], result))


def _run(registers: list, steps: tuple, x: np.ndarray) -> list:
    """The registers after ``steps``: arrays, ``x`` itself, or scalar constants."""
    regs = registers.copy()
    regs[0] = x
    for fn, dst, i, j in steps:
        regs[dst] = fn(regs[i]) if j < 0 else fn(regs[i], regs[j])
    return regs


# Long inputs are evaluated in blocks of this many points: each step's
# temporaries (64 KB) then stay in cache and under malloc's default mmap
# threshold (128 KB), instead of being mapped and faulted in afresh.
_EVAL_BLOCK = 8192


def evaluate_array(e: Expr | tuple[Expr, ...], xs: np.ndarray) -> np.ndarray:
    """Evaluate ``e`` elementwise over ``xs``; NaN marks undefined points.

    The tape is compiled on the first call and kept on ``e``.  A 0-d
    input is evaluated as a one-point array (numpy ufuncs return scalars
    for 0-d arrays, which a domain rule cannot write NaN into) and gives
    a 0-d result.  A tuple of expressions gives their values as the rows of
    one array, from one run of their tape (``compile_tape`` where not shared).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 0:
        out = evaluate_array(e, xs.reshape(1))
        return out.reshape(out.shape[:-1])
    if not isinstance(e, Expr):
        return _evaluate_rows(e, xs)
    if e._tape is None:
        compile_tape(e)
    registers, steps, result = e._tape
    with np.errstate(all="ignore"):
        if xs.ndim == 1 and xs.size > _EVAL_BLOCK:
            out = np.empty_like(xs)
            for i in range(0, xs.size, _EVAL_BLOCK):
                out[i : i + _EVAL_BLOCK] = _run(registers, steps, xs[i : i + _EVAL_BLOCK])[result]
            return out
        out = _run(registers, steps, xs)[result]
    if out is xs or not isinstance(out, np.ndarray):  # x itself, or a constant
        out = np.array(np.broadcast_to(out, xs.shape))
    return out


def _evaluate_rows(roots: tuple[Expr, ...], xs: np.ndarray) -> np.ndarray:
    """The roots' values as rows: the longest root's steps, run once a block."""
    tapes = [root._tape for root in roots]
    if any(t is None or t[0] is not tapes[0][0] for t in tapes):
        compile_tape(*roots)
        tapes = [root._tape for root in roots]
    registers, steps, _ = max(tapes, key=lambda t: len(t[1]))
    flat = xs.ravel()
    out = np.empty((len(tapes), flat.size))
    with np.errstate(all="ignore"):
        for i in range(0, flat.size, _EVAL_BLOCK):
            regs = _run(registers, steps, flat[i : i + _EVAL_BLOCK])
            for row, (_, _, result) in zip(out, tapes):
                row[i : i + _EVAL_BLOCK] = regs[result]
    return out.reshape(len(tapes), *xs.shape)


def evaluate(e: Expr, x: float) -> EvalOutcome:
    """Evaluate at one point.  Deterministic: same (e, x) gives the same bits."""
    return float(evaluate_array(e, np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# Differentiation


def _const_value(e: Expr) -> float:
    """The value of a constant-only tree, folded node by node as ``_compile``
    folds it, so the bits are those of ``evaluate(e, 0.0)`` without a tape.
    """
    values: dict[int, np.float64] = {}  # id(node of e) -> its value
    with np.errstate(all="ignore"):
        for n in _postorder(e):
            if n.kind == "const":
                values[id(n)] = np.float64(n.value)
            else:
                operands = [values[id(a)] for a in n.args]
                values[id(n)] = _fold_constants(_step_fn(n.kind, n.name, n.args), operands)
    return float(values[id(e)])


def differentiate(e: Expr, varname: str | None = None) -> Expr:
    """Symbolic derivative of ``e`` with respect to its variable.

    A constant exponent c takes the power rule with its folded value;
    one that varies takes d(a^b) = a^b * (b' log a + b a'/a), and
    d|u| = u' u/|u|, so both are undefined where log a or u/|u| is (an
    isolated u = 0 is one undefined sample); a constant through either,
    |u| whose u' folds to 0 and 0^b, has the derivative 0.  The result is
    lightly simplified (constant folding, +0 / *1 / *0 elimination) as it is
    built, node by node (``_node``), and it carries no canonical form:
    correctness is pointwise evaluation equality.  One pass over the
    nodes of ``e``, operands first, differentiates each node object once,
    and a node is copied into the result once, with the operands under it,
    when a rule first asks for it; so any height differentiates, and the
    result shares the nodes that ``e`` shares.  A node whose copy would
    equal it, operand for operand, is taken as it is, so the result shares
    those subtrees with ``e`` too.
    """
    if varname is None:
        names = variables(e)
        if len(names) > 1:
            raise ValueError(f"ambiguous variable: {sorted(names)}")
        varname = next(iter(names), "x")
    copies: dict[int, Expr] = {}  # id(node of e) -> it rebuilt by _node
    copied: set[int] = set()  # the keys of copies, for _postorder to skip
    derivatives: dict[int, Expr] = {}  # id(node of e) -> its derivative

    def copy(n: Expr) -> Expr:
        if id(n) not in copies:  # copy the nodes under n not copied yet, operands first
            for m in _postorder(n, copied):
                got = m
                if m.args:
                    got = _node(m.kind, tuple(copies[id(a)] for a in m.args), m.name)
                    same = got.kind == m.kind and got.name == m.name
                    if same and all(x is y for x, y in zip(got.args, m.args)):
                        got = m  # nothing changed: share the node itself
                copies[id(m)] = got
        return copies[id(n)]

    def d(n: Expr) -> Expr:
        return derivatives[id(n)]

    with np.errstate(all="ignore"):
        for n in _postorder(e):
            derivatives[id(n)] = _derivative(n, varname, d, copy)
    return d(e)


def _derivative(e: Expr, v: str, d, copy) -> Expr:
    """The derivative of ``e`` from ``d``, its operands' derivatives, and
    ``copy``, its operands rebuilt."""
    kind = e.kind
    if kind == "const":
        return const(0.0)
    if kind == "var":
        return const(1.0 if e.name == v else 0.0)
    if kind == "neg":
        return _node("neg", (d(e.args[0]),))
    if kind in ("add", "sub"):
        return _node(kind, (d(e.args[0]), d(e.args[1])))
    if kind in ("mul", "div"):
        a, b = e.args
        da_b = _node("mul", (d(a), copy(b)))
        a_db = _node("mul", (copy(a), d(b)))
        if kind == "mul":
            return _node("add", (da_b, a_db))
        return _node("div", (_node("sub", (da_b, a_db)), _node("pow", (copy(b), const(2.0)))))
    if kind == "pow":
        base_node, exp_node = e.args
        if exp_node.kind != "const" and variables(exp_node):  # a^b * (b' log a + b a'/a)
            if _is_zero(copy(base_node)):  # 0^b is constant where it is defined
                return const(0.0)
            db_log_a = _node("mul", (d(exp_node), _node("call", (copy(base_node),), "log")))
            b_da_a = _node("div", (_node("mul", (copy(exp_node), d(base_node))), copy(base_node)))
            return _node("mul", (copy(e), _node("add", (db_log_a, b_da_a))))
        c = _const_value(exp_node)
        if c == 0.0:
            return const(0.0)
        term = _node("mul", (const(c), _node("pow", (copy(base_node), const(c - 1.0)))))
        return _node("mul", (term, d(base_node)))
    u = e.args[0]
    du = d(u)
    name = e.name
    if name == "sin":
        return _node("mul", (_node("call", (copy(u),), "cos"), du))
    if name == "cos":
        return _node("neg", (_node("mul", (_node("call", (copy(u),), "sin"), du)),))
    if name == "tan":
        return _node("div", (du, _node("pow", (_node("call", (copy(u),), "cos"), const(2.0)))))
    if name == "sqrt":
        return _node("div", (du, _node("mul", (const(2.0), _node("call", (copy(u),), "sqrt")))))
    if name == "atan":
        return _node("div", (du, _node("add", (const(1.0), _node("pow", (copy(u), const(2.0)))))))
    if name == "exp":
        return _node("mul", (_node("call", (copy(u),), "exp"), du))
    if name == "log":
        return _node("div", (du, copy(u)))
    if _is_zero(du):  # abs of a constant
        return const(0.0)
    return _node("div", (_node("mul", (du, copy(u))), copy(e)))  # abs: u' u/|u|, undefined at 0


def _node(kind: str, args: tuple[Expr, ...], name: str = "") -> Expr:
    """The node ``kind(*args)`` over operands that ``_node`` built, simplified.

    Constant operands are folded through the step function when the value
    is finite; otherwise ``-(-a)``, ``a+0``, ``a-0``, ``0-a``, ``a*0``,
    ``a*1``, ``a/1``, ``a^1`` and ``a^0`` are rewritten, and nothing else
    is.  Call it under ``np.errstate(all="ignore")``.
    """
    a = args[0]
    b = args[1] if len(args) > 1 else a
    if a.kind == "const" and b.kind == "const":
        values = [np.float64(c.value) for c in args]
        v = float(_fold_constants(_step_fn(kind, name, args), values))
        if math.isfinite(v):
            return const(v)
    if kind == "neg":
        if a.kind == "neg":
            return a.args[0]
    elif kind == "add":
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif kind == "sub":
        if _is_zero(b):
            return a
        if _is_zero(a):
            return _node("neg", (b,))
    elif kind == "mul":
        if _is_zero(a) or _is_zero(b):
            return const(0.0)
        if _is_one(a):
            return b
        if _is_one(b):
            return a
    elif kind in ("div", "pow"):
        if _is_one(b):
            return a
        if kind == "pow" and _is_zero(b):
            return const(1.0)
    return Expr(kind, name=name, args=args)


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
    if e.kind == "const" and _const_text(e.value).startswith("-"):  # parses as a negation
        return _PREC["neg"]
    return _PREC.get(e.kind, _ATOM)


def _wrap(e: Expr, minimum: int) -> str:
    text = to_text(e)
    return f"({text})" if _prec(e) < minimum else text


def _const_text(v: float) -> str:
    if not math.isfinite(v):  # repr's inf and nan would parse as names
        return "(1e999-1e999)" if math.isnan(v) else ("1e999" if v > 0 else "-1e999")
    if v.is_integer() and abs(v) < 1e16 and not (v == 0 and math.copysign(1.0, v) < 0):
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Render ``e`` so that ``parse(to_text(e))`` evaluates identically.

    Right operands of the left-associative operators are parenthesized at
    equal precedence, so the reassembled tree reassociates nothing.
    Infinities print as ``1e999`` and ``-1e999``; NaN prints as
    ``(1e999-1e999)``, NaN everywhere, so ``x^nan`` reads back NaN at x = 1 too.
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
    if kind == "pow":  # right-associative; a negative literal exponent reads back as one
        exponent = to_text(b) if b.kind == "const" else _wrap(b, p)
        return f"{_wrap(a, p + 1)}^{exponent}"
    return f"{_wrap(a, p)}{_OP_TEXT[kind]}{_wrap(b, p + 1)}"
