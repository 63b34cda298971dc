"""Reference implementations for ``tests/test_expr.py``: the tape compiler
and the differentiator as they were before ``_compile`` became one walk and
``differentiate`` built its nodes already simplified.

``compile_reference(*roots)`` walks each root with a generator, keys each
constant by ``np.float64(...).tobytes()`` and picks each node's step
function by ``_step_fn``; ``differentiate_reference`` builds the whole
derivative tree and then simplifies it in a second recursive pass.  Both
must give exactly what the library gives: the same registers, bit for bit,
steps and outputs, and derivatives that are ``==`` with the same text.
"""

import math

import numpy as np

from quadratura.expr import (
    _CALL,
    _STEP,
    Expr,
    _pow,
    _pow_literal,
    add,
    call,
    const,
    div,
    mul,
    neg,
    pow_,
    sub,
    variables,
)


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


def compile_reference(*roots: Expr) -> tuple:
    """Compile ``roots`` to one tape, ``(registers, steps, outputs)`` for ``_run``.

    Values are numbered in postorder of the roots in the order given, each
    node once.  A node's key is its step function (which tells the kinds
    and pow variants apart) with its operands' numbers, or the bit pattern
    of a constant, so identical subtrees get one number and equal but
    differently signed zeros do not.  Register 0 holds the input and
    constants their own registers; a computed value's register is reused
    after its last read, unless it holds a root's value.  ``outputs`` holds
    each root's register and the length of the prefix of ``steps`` that
    computes it: the steps up to the last value its postorder added.
    """
    number: dict[int, int] = {}  # id(node) -> value number
    by_key: dict[tuple, int] = {("var",): 0}
    constant: dict[int, np.float64] = {}
    computed: dict[int, tuple] = {}  # value number -> (fn, operand numbers)
    seen: set[int] = set()
    ends = []
    for root in roots:
        for node in _postorder(root, seen):
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
        ends.append(len(computed))

    results = [number[id(root)] for root in roots]
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
            if k in computed and last_read[k] == at and k not in results:
                free.append(reg[k])
        if free:
            reg[at] = free.pop()
        else:
            reg[at] = len(registers)
            registers.append(None)
        steps.append((fn, reg[at], srcs[0], srcs[1] if len(srcs) > 1 else -1))
    return registers, tuple(steps), tuple((reg[k], end) for k, end in zip(results, ends))


def _const_value(e: Expr) -> float:
    """The value of a constant-only tree, folded node by node as ``_compile``
    folds it, so the bits are those of ``evaluate(e, 0.0)`` without a tape.
    """
    if e.kind == "const":
        return e.value
    values = [np.float64(_const_value(a)) for a in e.args]
    return float(_fold_constants(_step_fn(e), values))


def differentiate_reference(e: Expr, varname: str | None = None) -> Expr:
    if varname is None:
        names = variables(e)
        if len(names) > 1:
            raise ValueError(f"ambiguous variable: {sorted(names)}")
        varname = next(iter(names), "x")
    return _simplify(_diff(e, varname))


def _is_constant(e: Expr) -> bool:
    return not variables(e)


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
            if _is_zero(_simplify(base_node)):
                return const(0.0)
            db_log_a = mul(_diff(exp_node, v), call("log", base_node))
            b_da_a = div(mul(exp_node, _diff(base_node, v)), base_node)
            return mul(e, add(db_log_a, b_da_a))
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
    if _is_zero(_simplify(du)):
        return const(0.0)
    return div(mul(du, u), e)  # abs


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
