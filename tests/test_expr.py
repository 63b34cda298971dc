import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import expr_reference as R
from quadratura import expr as E
from quadratura.gallery import GALLERY
from quadratura.expr import (
    ArityError,
    ParseError,
    UnknownIdentifierError,
    differentiate,
    evaluate,
    evaluate_array,
    parse,
    to_text,
)


def ev(text, x):
    return evaluate(parse(text), x)


class TestParse:
    def test_power_tree(self):
        e = parse("x^3")
        assert e.kind == "pow"
        assert e.args[0].kind == "var" and e.args[0].name == "x"
        assert e.args[1].kind == "const" and e.args[1].value == 3.0

    def test_oscillator_tree(self):
        e = parse("t*sin(1/t)")
        assert e.kind == "mul"
        assert e.args[0] == E.var("t")
        inner = e.args[1]
        assert inner.kind == "call" and inner.name == "sin"
        assert inner.args[0].kind == "div"

    def test_unclosed_paren_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("sin(")
        assert exc.value.offset == 4

    def test_garbage_operator(self):
        with pytest.raises(ParseError):
            parse("x**")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse("foo(x)")

    def test_second_variable_rejected(self):
        with pytest.raises(UnknownIdentifierError):
            parse("x + y")

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("sin(x, 1)")

    def test_function_name_needs_call(self):
        with pytest.raises(ParseError):
            parse("sin + 1")

    def test_whitespace_insensitive(self):
        a = parse("1 +  2 * x")
        b = parse("1+2*x")
        assert evaluate(a, 3.0) == evaluate(b, 3.0) == 7.0

    def test_constants(self):
        assert ev("pi", 0.0) == math.pi
        assert ev("e", 0.0) == math.e

    def test_number_forms(self):
        assert ev("1.5e2", 0.0) == 150.0
        assert ev(".25", 0.0) == 0.25
        assert ev("2e-1", 0.0) == 0.2

    def test_nesting_at_depth_cap(self):
        # 1/(1/(...x)) costs the most stack per level to differentiate;
        # x sits at depth MAX_PARSE_DEPTH
        k = E.MAX_PARSE_DEPTH - 1
        e = parse("1/(" * k + "x" + ")" * k)
        d = differentiate(e)
        assert evaluate(e, 2.0) == 0.5
        assert math.isclose(evaluate(d, 2.0), -0.25, rel_tol=1e-12)
        assert evaluate(parse(to_text(e)), 2.0) == 0.5
        assert to_text(d)

    def test_nesting_above_depth_cap(self):
        k = E.MAX_PARSE_DEPTH
        with pytest.raises(ParseError) as exc:
            parse("1/(" * k + "x" + ")" * k)
        assert exc.value.offset == 3 * k  # the x one level too deep

    def test_deep_parentheses_are_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            parse("(" * 5000 + "x" + ")" * 5000)
        assert exc.value.offset == E.MAX_PARSE_DEPTH

    def test_parse_error_holds_no_parser_frames(self):
        with pytest.raises(ParseError) as exc:
            parse("(" * 5000 + "x" + ")" * 5000)
        tb, frames = exc.value.__traceback__, []
        while tb is not None:
            frames.append(tb.tb_frame)
            tb = tb.tb_next
        assert not any(isinstance(f.f_locals.get("self"), E._Parser) for f in frames)
        assert exc.value.__context__ is None

    @pytest.mark.parametrize("shape", ["+", "*", "/", "nested 1/(", "nested tan(", "^1"])
    def test_tree_at_height_cap(self, shape):
        # chains count: every shape is exactly MAX_TREE_HEIGHT tall, and
        # differentiating and printing it stay inside the recursion limit
        h = E.MAX_TREE_HEIGHT
        if shape.startswith("nested"):
            opener = shape.split()[1]
            text = opener * (h - 1) + "x" + ")" * (h - 1)
        elif shape == "^1":
            text = "x" + "^1" * (h - 1)
        else:
            text = shape.join(["x"] * h)
        e = parse(text, max_height=h)
        d = differentiate(e)
        assert to_text(d) and to_text(e)
        assert math.isfinite(evaluate(d, 0.75))

    def test_tree_above_height_cap(self):
        h = E.MAX_TREE_HEIGHT
        text = "+".join(["x"] * (h + 1))
        parse(text)  # no cap unless asked for
        with pytest.raises(ParseError) as exc:
            parse(text, max_height=h)
        assert exc.value.offset == 2 * h - 1  # the '+' that makes it h+1 tall
        with pytest.raises(ParseError):
            parse("-" * h + "x", max_height=h)


class TestPrecedence:
    def test_mul_over_add(self):
        assert ev("1+2*3", 0.0) == 7.0
        assert ev("(1+2)*3", 0.0) == 9.0

    def test_pow_right_associative(self):
        assert ev("2^3^2", 0.0) == 512.0

    def test_pow_binds_tighter_than_unary_minus(self):
        assert ev("-x^2", 2.0) == -4.0
        assert ev("(-x)^2", 2.0) == 4.0

    def test_unary_minus_in_products(self):
        assert ev("2*-3", 0.0) == -6.0
        assert ev("2^-1", 0.0) == 0.5

    def test_left_associative_sub_div(self):
        assert ev("8-3-2", 0.0) == 3.0
        assert ev("8/2/2", 0.0) == 2.0


class TestEvaluate:
    def test_cube(self):
        assert ev("x^3", 2.0) == 8.0

    def test_tangent_at_quarter_pi(self):
        assert abs(ev("tan(x)", math.pi / 4.0) - 1.0) < 1e-15

    def test_division_by_zero_is_undefined(self):
        assert math.isnan(ev("1/t", 0.0))

    def test_log_domain(self):
        assert math.isnan(ev("log(x)", -1.0))
        assert math.isnan(ev("log(x)", 0.0))
        assert ev("log(x)", 1.0) == 0.0

    def test_sqrt_domain(self):
        assert math.isnan(ev("sqrt(x)", -4.0))

    def test_zero_to_negative_power_undefined(self):
        assert math.isnan(ev("x^-1", 0.0))
        assert math.isnan(ev("x^-0.5", 0.0))

    def test_overflow_saturates(self):
        assert ev("exp(x)", 1000.0) == math.inf

    def test_undefined_propagates(self):
        assert math.isnan(ev("0*(1/t)", 0.0))
        assert math.isnan(ev("(1/t)^0", 0.0))

    @pytest.mark.parametrize("c", ["3", "64", "-3", "-64", "0.5", "-2.5", "65", "-70", "100.5"])
    def test_undefined_base_of_a_literal_power_stays_undefined(self, c):
        # binary powering, its reciprocal and np.power with c != 0 all keep NaN
        xs = np.array([np.nan, 0.5, -1.0, 2.0])
        for base in ("x", "log(x)"):  # a NaN input, and a domain error at -1.0
            ys = evaluate_array(parse(f"({base})^{c}"), xs)
            assert math.isnan(ys[0]) and np.isnan(ys[2]) == (base == "log(x)" or "." in c)
            assert math.isnan(ev(f"(1/x)^{c}", 0.0))

    def test_negative_base_fractional_power_undefined(self):
        assert math.isnan(ev("x^0.5", -1.0))

    def test_integer_power_of_negative_base(self):
        assert ev("x^3", -2.0) == -8.0
        assert ev("x^4", -2.0) == 16.0

    def test_deterministic_bitwise(self):
        e = parse("t*sin(1/t)+exp(t)/atan(t)")
        for x in (0.17, 0.93, 2.4):
            a, b = evaluate(e, x), evaluate(e, x)
            assert a.hex() == b.hex()

    def test_array_matches_scalar(self):
        e = parse("x/(x^4+1)")
        xs = np.linspace(0.0, 1.0, 37)
        ys = evaluate_array(e, xs)
        for x, y in zip(xs, ys):
            assert evaluate(e, float(x)) == y

    def test_long_array_matches_short_pieces(self):
        # long inputs are evaluated block by block; the bits must not change
        e = parse("t*sin(1/t)+sqrt(t)/log(t)")
        xs = np.linspace(-1.0, 3.0, 3 * E._EVAL_BLOCK + 5)
        pieces = np.concatenate([evaluate_array(e, xs[i : i + 1000])
                                 for i in range(0, xs.size, 1000)])
        assert np.isnan(pieces).any()
        assert evaluate_array(e, xs).tobytes() == pieces.tobytes()
        assert evaluate_array(parse("t"), xs) is not xs

    def test_array_input_not_mutated(self):
        xs = np.linspace(0.0, 1.0, 5)
        snapshot = xs.copy()
        evaluate_array(parse("x"), xs)
        evaluate_array(parse("x^2+1"), xs)
        assert np.array_equal(xs, snapshot)

    @pytest.mark.parametrize("text, x", [
        ("1/x", 0.0),            # division by zero
        ("log(x)", 0.0),         # log of a non-positive
        ("log(x)", -1.0),
        ("sqrt(x)", -4.0),       # even root of a negative
        ("x^0.5", -1.0),
        ("x^-1", 0.0),           # zero to a negative literal power
        ("x^(x-1)", 0.0),        # zero to a negative computed power
        ("(1/x)^0", 0.0),        # undefinedness through a power
        ("x^2+1", 3.0),          # no rule fires
        ("x", 2.0),
        ("7", 2.0),
    ])
    def test_zero_dimensional_input(self, text, x):
        e = parse(text)
        for xs in (np.float64(x), np.array(x)):
            ys = evaluate_array(e, xs)
            assert isinstance(ys, np.ndarray) and ys.shape == ()
            assert float(ys).hex() == evaluate(e, x).hex()
        assert math.isnan(evaluate(e, x)) == (text not in ("x^2+1", "x", "7"))


class TestDifferentiate:
    def test_power_rule(self):
        d = differentiate(parse("x^3"))
        for x in (-1.5, 0.0, 0.7, 2.0):
            assert abs(evaluate(d, x) - 3.0 * x * x) < 1e-14 * (1 + 3 * x * x)

    def test_any_height(self):
        # far taller than Python's recursion limit: one pass, operands first
        chain = parse("+".join(["x"] * 20000))
        assert differentiate(chain) == E.const(20000.0)
        power = parse("x^(" + "+".join(["1"] * 3000) + ")")
        assert to_text(differentiate(power)) == "3000*x^2999"
        nested = parse("sin(" + "+".join(["x"] * 3000) + ")")
        assert evaluate(differentiate(nested), 0.25) == evaluate(parse("cos(x)*3000"), 750.0)

    def test_oscillator_derivative_matches_closed_form(self):
        # d/dt [t sin(1/t)] = sin(1/t) - (1/t) cos(1/t), checked by value
        d = differentiate(parse("t*sin(1/t)"))
        for t in (0.05, 0.11, 0.37, 0.6):
            want = math.sin(1 / t) - (1 / t) * math.cos(1 / t)
            assert abs(evaluate(d, t) - want) < 1e-12 * (1 + abs(want))

    def test_tangent_derivative_is_secant_squared(self):
        d = differentiate(parse("tan(x)"))
        for x in (-1.2, -0.3, 0.0, 0.9):
            sec2 = 1.0 / math.cos(x) ** 2
            assert abs(evaluate(d, x) - sec2) < 1e-12 * sec2

    def test_sqrt_derivative(self):
        d = differentiate(parse("sqrt(t)"))
        for t in (0.04, 0.5, 2.0):
            assert abs(evaluate(d, t) - 0.5 / math.sqrt(t)) < 1e-14

    def test_quotient_rule(self):
        d = differentiate(parse("x/(x^4+1)"))
        for x in (0.0, 0.3, 0.76, 1.0):
            want = (1 - 3 * x**4) / (x**4 + 1) ** 2
            assert abs(evaluate(d, x) - want) < 1e-12 * (1 + abs(want))

    def test_abs_derivative_is_the_sign(self):
        # d|u| = u' u/|u|: the sign of x - 0.3, undefined at its zero
        d = differentiate(parse("abs(x-0.3)"))
        assert to_text(d) == "(x-0.3)/abs(x-0.3)"
        for x in (-1.0, 0.1, 0.5, 2.0):
            assert evaluate(d, x) == math.copysign(1.0, x - 0.3)
        assert math.isnan(evaluate(d, 0.3))
        d = differentiate(parse("abs(sin(x))"))
        for x in (-2.0, -0.5, 0.5, 4.0):
            want = math.cos(x) * math.copysign(1.0, math.sin(x))
            assert abs(evaluate(d, x) - want) < 1e-15

    @pytest.mark.parametrize("text", ["abs(0*x)", "abs(x-x)", "0^x", "(0*x)^x", "abs(0^x)"])
    def test_constant_through_abs_or_a_power_has_derivative_zero(self, text):
        # not u' u/|u| = 0/0, nor 0^x (log 0 + ...), which are undefined everywhere
        assert to_text(differentiate(parse(text))) == "0"

    def test_variable_exponent_derivative(self):
        # d(a^b) = a^b (b' log a + b a'/a)
        d = differentiate(parse("x^x"))
        for x in (0.1, 0.5, 1.0, 2.5):
            want = x**x * (math.log(x) + 1.0)
            assert abs(evaluate(d, x) - want) < 1e-14 * (1 + abs(want))
        d = differentiate(parse("2^x"))
        assert to_text(d) == "2^x*" + repr(math.log(2.0))
        for x in (-1.0, 0.0, 3.0):
            assert abs(evaluate(d, x) - 2.0**x * math.log(2.0)) < 1e-14 * 2.0**x
        d = differentiate(parse("(1+x)^sin(x)"))
        for x in (0.2, 1.0, 2.0):
            want = (1 + x) ** math.sin(x) * (math.cos(x) * math.log(1 + x)
                                             + math.sin(x) / (1 + x))
            assert abs(evaluate(d, x) - want) < 1e-14 * (1 + abs(want))

    def test_constant_expression_exponent_allowed(self):
        d = differentiate(parse("x^(1+1)"))
        assert evaluate(d, 3.0) == 6.0

    def test_zero_exponent(self):
        d = differentiate(parse("x^0"))
        assert evaluate(d, 5.0) == 0.0

    def test_fractional_power_rule(self):
        d = differentiate(parse("x^1.5"))
        for x in (0.25, 1.0, 4.0):
            assert abs(evaluate(d, x) - 1.5 * math.sqrt(x)) < 1e-13

    def test_central_difference_agreement(self):
        rng = np.random.default_rng(7)
        cases = [
            ("x^3", (-2.0, 2.0)),
            ("x/(x^4+1)", (0.0, 1.0)),
            ("atan(x)*exp(-x^2)", (-2.0, 2.0)),
            ("log(x+2)", (-1.0, 3.0)),
            ("abs(x-0.3)", (-1.0, 0.29)),  # each side of the kink
            ("abs(x-0.3)", (0.31, 2.0)),
            ("x^x", (0.1, 2.0)),
            ("2^x", (-1.0, 2.0)),
            ("(1+x)^sin(x)", (0.0, 3.0)),
        ]
        h = 1e-6
        for text, (lo, hi) in cases:
            e = parse(text)
            d = differentiate(e)
            xs = rng.uniform(lo, hi, 100)
            sym = evaluate_array(d, xs)
            central = (evaluate_array(e, xs + h) - evaluate_array(e, xs - h)) / (2 * h)
            rel = np.abs(sym - central) / (1.0 + np.abs(sym))
            assert rel.max() <= 1e-6


def _expr_strategy():
    leaves = st.one_of(
        st.builds(E.const, st.floats(-5.0, 5.0, allow_nan=False)),
        st.just(E.var("x")),
        st.just(E.const(0.0)),
        st.just(E.const(1.0)),
    )

    def extend(children):
        unary = st.builds(E.neg, children)
        calls = st.builds(E.call, st.sampled_from(E.FUNCTIONS), children)
        binop = st.builds(
            lambda k, a, b: E.Expr(k, args=(a, b)),
            st.sampled_from(["add", "sub", "mul", "div", "pow"]),
            children,
            children,
        )
        return st.one_of(unary, calls, binop)

    return st.recursive(leaves, extend, max_leaves=12)


class TestTape:
    def test_compiled_once_and_kept(self):
        e = parse("x^2+1")
        assert e._tape is None
        evaluate_array(e, np.arange(3.0))
        tape = e._tape
        evaluate_array(e, np.arange(5.0))
        assert e._tape is tape

    def test_identical_subtrees_share_one_step(self):
        # the E1 product: 1/t, sin(1/t) and t^2 recur in f(phi), phi and phi'
        phi = parse("t*sin(1/t)")
        product = E.mul(E.substitute(parse("x^3"), phi), differentiate(phi))
        _, steps, _ = E._compile(product)
        distinct = {to_text(n) for n in E._postorder(product) if E.variables(n) and n.args}
        assert len(steps) == len(distinct) == 11

    def test_signed_zero_constants_stay_apart(self):
        x = E.var("x")
        e = E.mul(E.mul(x, E.const(0.0)), E.mul(x, E.const(-0.0)))
        assert evaluate(e, 1.0).hex() == "-0x0.0p+0"

    def test_constant_formula_fills_the_input_shape(self):
        for text, value in (("2^3", 8.0), ("pi", math.pi), ("1/0", math.nan)):
            for xs in (np.zeros(4), np.zeros((2, 3)), np.zeros(3 * E._EVAL_BLOCK)):
                ys = evaluate_array(parse(text), xs)
                assert ys.shape == xs.shape
                assert np.array_equal(ys, np.full(xs.shape, value), equal_nan=True)

    def test_unit_power_does_not_alias_the_input(self):
        xs = np.linspace(0.0, 1.0, 5)
        ys = evaluate_array(parse("x^1"), xs)
        assert ys is not xs and np.array_equal(ys, xs)

    def test_twenty_thousand_term_sum(self):
        # compiling and evaluating are iterative
        e = parse("+".join(["x"] * 20000))
        xs = np.array([0.0, 0.5, 2.0])
        assert evaluate_array(e, xs).tolist() == [0.0, 10000.0, 40000.0]


@st.composite
def _shared_roots(draw):
    """1-4 roots drawn from one pool of nodes, each built on earlier ones, so
    roots share subtrees and may read each other; the pool holds signed zeros, constant-only nodes
    that fold, and the bare variable and constants, which may be roots.
    """
    pool = [E.var("x"), E.const(0.0), E.const(-0.0),
            E.const(draw(st.sampled_from([2.0, -1.5, 0.5, 3.0, 1e308])))]
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]  # noqa: E731
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["neg", "call", "add", "sub", "mul", "div", "pow"]))
        if kind == "neg":
            pool.append(E.neg(pick()))
        elif kind == "call":
            pool.append(E.call(draw(st.sampled_from(E.FUNCTIONS)), pick()))
        else:
            pool.append(E.Expr(kind, args=(pick(), pick())))
    roots = [pick() for _ in range(draw(st.integers(0, 3)))]
    # the newest node reads earlier ones, which may be roots too
    roots.insert(draw(st.integers(0, len(roots))), pool[-1])
    return roots


_MULTI_INPUTS = (
    np.array(0.7),
    np.array([np.nan, -0.0, 0.0, 1e-310, 0.5, 1.0, -2.5, 3.0, np.inf, -np.inf]),
    np.where(np.arange(2 * E._EVAL_BLOCK + 3) % 997 == 5, np.nan,
             np.linspace(-3.0, 3.0, 2 * E._EVAL_BLOCK + 3)),
)


class TestMultiOutputTape:
    @given(roots=_shared_roots())
    @settings(max_examples=150, deadline=None)
    @example(roots=[E.var("x"), E.const(-0.0)])
    @example(roots=[E.mul(E.var("x"), E.const(-0.0)), E.var("x"), E.neg(E.const(0.0))])
    def test_each_output_is_its_own_tape(self, roots):
        want = []
        for root in roots:
            E.compile_tape(root)
            want.append([evaluate_array(root, xs) for xs in _MULTI_INPUTS])
        for j, xs in enumerate(_MULTI_INPUTS):
            rows = evaluate_array(tuple(roots), xs)  # compiles the roots together
            assert rows.shape == (len(roots), *xs.shape)
            for row, single in zip(rows, want):
                assert row.tobytes() == single[j].tobytes()
        registers = roots[0]._tape[0]
        for root, single in zip(roots, want):  # each root alone runs its prefix
            assert root._tape[0] is registers
            for xs, ys in zip(_MULTI_INPUTS, single):
                assert evaluate_array(root, xs).tobytes() == ys.tobytes()

    def test_outputs_run_prefixes_in_root_order(self):
        phi = parse("t*sin(1/t)")
        dphi = differentiate(phi)
        product = E.mul(E.substitute(parse("x^3"), phi), dphi)
        E.compile_tape(phi, dphi, product)
        lengths = [len(e._tape[1]) for e in (phi, dphi, product)]
        _, steps, _ = E._compile(product)
        # the product runs the steps of its own tape, phi's first
        assert lengths[0] < lengths[1] < lengths[2] == len(steps)
        assert Counter(s[0] for s in product._tape[1]) == Counter(s[0] for s in steps)

    def test_a_root_register_is_never_reused(self):
        # x^2 is read by the second root and then dead, but it is an output
        square = parse("x^2")
        roots = (square, E.add(square, E.const(1.0)), parse("sin(x)*cos(x)"))
        rows = evaluate_array(roots, np.array([0.5, 2.0]))
        assert rows[0].tolist() == [0.25, 4.0] and rows[1].tolist() == [1.25, 5.0]


class TestSubstitute:
    def test_replaces_every_variable(self):
        e = E.substitute(parse("x^2+sin(x)"), parse("1/t"))
        assert to_text(e) == "(1/t)^2+sin(1/t)"

    def test_shares_the_value(self):
        phi = parse("exp(t)")
        e = E.substitute(parse("x*x"), phi)
        assert e.args[0] is phi and e.args[1] is phi

    def test_deep_formula(self):
        e = E.substitute(parse("+".join(["x"] * 20000)), parse("2*t"))
        assert evaluate(e, 0.25) == 10000.0

    @given(f=_expr_strategy(), phi=_expr_strategy(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    # fused gives +NaN and separate -NaN here; no result reads a NaN's sign
    @example(f=parse("-x"), phi=parse("x/0"), seed=0)
    def test_fused_product_is_bitwise_the_separate_one(self, f, phi, seed):
        dphi = differentiate(phi)
        ts = np.random.default_rng(seed).uniform(-3.0, 3.0, 40)
        ts[:3] = (0.0, -0.0, 1.0)
        fused = evaluate_array(E.mul(E.substitute(f, phi), dphi), ts)
        with np.errstate(all="ignore"):
            separate = evaluate_array(f, evaluate_array(phi, ts)) * evaluate_array(dphi, ts)
        undefined = np.isnan(fused)
        assert np.array_equal(undefined, np.isnan(separate))
        assert fused[~undefined].tobytes() == separate[~undefined].tobytes()


def _hex(v: float) -> str:
    return "nan" if math.isnan(v) else v.hex()  # NaN compares as NaN, its sign unread


# Literals for constant-only trees: signed zeros, the domain edges of
# division, log and sqrt, and negative, fractional and above-64 exponents.
_FOLD_LEAVES = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -2.5, 3.0, -3.0, 1.5, 64.0, 65.0, 70.0, -65.0,
                1e-300, 1e300, math.inf, -math.inf, math.nan)


def _constant_tree():
    leaves = st.builds(E.const, st.sampled_from(_FOLD_LEAVES))

    def extend(children):
        return st.one_of(
            st.builds(E.neg, children),
            st.builds(E.call, st.sampled_from(E.FUNCTIONS), children),
            st.builds(
                lambda k, a, b: E.Expr(k, args=(a, b)),
                st.sampled_from(["add", "sub", "mul", "div", "pow"]),
                children,
                children,
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


# Every formula differentiated or pinned elsewhere in the suite, plus
# constant exponents built from calls, divisions and negations.
_DIFF_CORPUS = (
    "x", "-x", "x+0.1", "0.1-x", "x*0.1", "x/3", "3/x", "x-x", "x^0", "x^1", "x^2", "x^3",
    "x^7", "x^64", "x^65", "x^-1", "x^-2", "x^-3", "x^0.5", "x^-0.5", "x^2.5", "x^(1/3)",
    "x^(1/2)", "x^(4/2)", "x^(0-2)", "2^x", "(-2)^x", "0^x", "sin(x)", "cos(x)", "tan(x)",
    "sqrt(x)", "atan(x)", "exp(x)", "log(x)", "log(x)^0", "(0/x)^0", "(x-x)^(0-1)",
    "log(0*x)", "sqrt(x)^2", "1/0", "2^3", "pi", "e", "sin(2)", "log(0)", "0^(0-1)",
    "(1/0)^0", "-0", "0/0*x", "t*sin(1/t)", "x/(x^4+1)", "1/(x^2+1)", "exp(-x^2)*cos(3*x)",
    "tan(x)^2+1", "sin(1/x)+x*(cos(1/x)*(-1/x^2))", "x^1.5", "atan(x)*exp(-x^2)",
    "log(x+2)", "1/(1+t)", "t/(1+t)", "t^3-t", "x^(2*pi)", "x^(1/0)", "x^log(-1)",
    "x^sqrt(-1)", "x^(-7/2)", "x^(130/2)", "x^-(2^7)", "(x+1)^(sin(1)/cos(1))",
    "x^(2^0.5)", "(2^0.5)*x^(1/3)", "exp(x^(3/4))/sqrt(1-x^2)", "x^(0^(0-1))",
)


class TestConstantFolding:
    @given(e=_constant_tree())
    @settings(max_examples=400, deadline=None)
    @example(e=E.div(E.const(1.0), E.const(0.0)))
    @example(e=E.call("log", E.const(-1.0)))
    @example(e=E.call("sqrt", E.const(-1.0)))
    @example(e=E.pow_(E.const(-2.0), E.const(-3.0)))
    @example(e=E.pow_(E.const(-2.0), E.const(0.5)))
    @example(e=E.pow_(E.const(1.5), E.const(65.0)))
    @example(e=E.pow_(E.const(0.0), E.const(-65.0)))
    @example(e=E.pow_(E.const(2.0), E.add(E.const(1.0), E.const(0.5))))
    def test_folding_matches_the_tape(self, e):
        want = evaluate(e, 0.0)
        assert _hex(E._const_value(e)) == _hex(want)
        if e.args and all(a.kind == "const" for a in e.args):
            with np.errstate(all="ignore"):
                built = E._node(e.kind, e.args, e.name)
            if math.isfinite(want):
                assert built.kind == "const" and built.value.hex() == want.hex()
            assert built == R._simplify(e)  # not finite: a rule, or the node unfolded

    @pytest.mark.parametrize("text", _DIFF_CORPUS)
    def test_derivative_keeps_its_text_and_bits(self, text, monkeypatch):
        e = parse(text)
        got = differentiate(e)
        with monkeypatch.context() as m:  # fold through a compiled tape, as evaluate does
            m.setattr(E, "_const_value", lambda c: evaluate(c, 0.0))
            want = differentiate(e)
        assert to_text(got) == to_text(want)
        xs = np.array([-2.0, -0.5, -0.0, 0.0, 1e-300, 0.25, 0.5, 1.0, 3.0, 1e300])
        a, b = evaluate_array(got, xs), evaluate_array(want, xs)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()


# Constants a formula DAG draws from: signed zeros, NaN, infinities, and
# values on either side of the folding and simplifying rules' cases.
_DAG_CONSTANTS = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -1.5, 3.0, math.nan, math.inf, -math.inf)
# Literal exponents: zero, one, integers either side of 64, negative and
# non-integer ones, signed zero and the non-finite ones.
_DAG_EXPONENTS = (0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, -0.5, 2.5, 65.0, -65.0,
                  math.nan, math.inf, -math.inf)


@st.composite
def _formula_dag(draw):
    """1-3 roots over one pool of nodes, each built on earlier ones: shared
    subtrees, roots that read each other, constant-only nodes, and powers
    with literal, constant-only and variable exponents."""
    pool = [E.var("x"), *(E.const(c) for c in draw(st.lists(
        st.sampled_from(_DAG_CONSTANTS), min_size=1, max_size=4)))]
    constant_only = [n for n in pool if n.kind == "const"]
    pick = lambda among: among[draw(st.integers(0, len(among) - 1))]  # noqa: E731
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(
            ["neg", "call", "add", "sub", "mul", "div", "pow", "pow", "pow"]))
        if kind == "neg":
            node = E.neg(pick(pool))
        elif kind == "call":
            node = E.call(draw(st.sampled_from(E.FUNCTIONS)), pick(pool))
        elif kind == "pow":
            exponent = draw(st.one_of(
                st.builds(E.const, st.sampled_from(_DAG_EXPONENTS)),
                st.just(pick(constant_only)),
                st.just(pick(pool)),
            ))
            node = E.pow_(pick(pool), exponent)
        else:
            node = E.Expr(kind, args=(pick(pool), pick(pool)))
        pool.append(node)
        if not E.variables(node):
            constant_only.append(node)
    roots = [pick(pool) for _ in range(draw(st.integers(0, 2)))]
    roots.insert(draw(st.integers(0, len(roots))), pool[-1])
    return roots


def _assert_same_tape(got, want):
    """Registers equal bit for bit, the same steps and the same outputs."""
    (regs, steps, outputs), (want_regs, want_steps, want_outputs) = got, want
    assert [r if r is None else (type(r), r.tobytes()) for r in regs] == [
        r if r is None else (type(r), r.tobytes()) for r in want_regs]
    assert steps == want_steps
    assert outputs == want_outputs


def _number(e, numbers: dict) -> int:
    """e's number in ``numbers``, which numbers each distinct structure once:
    equal numbers mean trees that are ``==`` with constants equal bit for bit
    (``==`` itself fails on NaN, and does not tell 0.0 from -0.0)."""
    memo: dict[int, int] = {}

    def walk(n):
        got = memo.get(id(n))
        if got is None:
            key = (n.kind, struct.pack("d", n.value), n.name, tuple(map(walk, n.args)))
            got = memo[id(n)] = numbers.setdefault(key, len(numbers))
        return got

    return walk(e)


def _assert_derivative_as_reference(e):
    """``differentiate(e)`` is ``==`` the reference's, prints the same and
    compiles, with e, to the same tape."""
    got, want = differentiate(e), R.differentiate_reference(e)
    numbers: dict = {}
    assert _number(got, numbers) == _number(want, numbers)
    assert to_text(got) == to_text(want)
    _assert_same_tape(E._compile(e, got), R.compile_reference(e, want))


def _batch_shapes():
    """The shapes of a formula-batch problem: a cubic f over each kind of phi."""
    f = parse("0.125 - 0.5*x^1 + 0.75*x^2 - 0.375*x^3")
    for phi_text in ("1.25*t+-0.5", "t^2", "sqrt(t)", "exp(t)", "sin(t)", "log(1+t)", "atan(t)"):
        yield f, parse(phi_text)


def _battery():
    """Formulas whose tapes and derivatives are compared with the reference:
    the gallery's (E1's among them) with their products, the formula-batch
    shapes and the pinned and corpus formulas."""
    from test_pinned_bits import EVAL_PINNED, SPECIAL

    pairs = [(parse(g.f), parse(g.phi)) for g in GALLERY] + list(_batch_shapes())
    formulas = [SPECIAL[k] if k in SPECIAL else parse(k) for k in sorted(EVAL_PINNED)]
    formulas += [parse(text) for text in _DIFF_CORPUS]
    for f, phi in pairs:
        dphi = differentiate(phi)
        formulas += [f, phi, dphi, E.mul(E.substitute(f, phi), dphi)]
    return pairs, formulas


class TestAgainstReference:
    """The one-walk compiler and the simplifying differentiator give what the
    two-pass ones in ``expr_reference`` give."""

    @given(roots=_formula_dag())
    @settings(max_examples=300, deadline=None)
    @example(roots=[E.pow_(E.var("x"), E.const(0.0))])
    @example(roots=[E.mul(E.const(0.0), E.const(math.inf)), E.neg(E.neg(E.var("x")))])
    @example(roots=[E.sub(E.const(-0.0), E.mul(E.var("x"), E.const(math.nan)))])
    def test_tape_and_derivative(self, roots):
        _assert_same_tape(E._compile(*roots), R.compile_reference(*roots))
        for root in roots:
            _assert_derivative_as_reference(root)

    @given(roots=_formula_dag(), phi=_formula_dag())
    @settings(max_examples=100, deadline=None)
    def test_substituted_product(self, roots, phi):
        # a DAG input: phi shared by every variable of f and by the product
        f, phi = roots[-1], phi[-1]
        dphi = differentiate(phi)
        product = E.mul(E.substitute(f, phi), dphi)
        _assert_same_tape(E._compile(phi, dphi, product),
                          R.compile_reference(phi, dphi, product))
        _assert_derivative_as_reference(product)

    def test_battery(self):
        pairs, formulas = _battery()
        for e in formulas:
            _assert_same_tape(E._compile(e), R.compile_reference(e))
            _assert_derivative_as_reference(e)
        for f, phi in pairs:  # the two tapes of a formula problem
            dphi = differentiate(phi)
            product = E.mul(E.substitute(f, phi), dphi)
            _assert_same_tape(E._compile(phi, dphi, product),
                              R.compile_reference(phi, dphi, product))

    def test_shared_subtree_is_differentiated_once(self, monkeypatch):
        # f(phi) * phi' reads phi in both factors: one derivative node for it
        phi = parse("t*sin(1/t)")
        product = E.mul(E.substitute(parse("x^3"), phi), differentiate(phi))
        seen = Counter()
        original = E._derivative

        def counting(e, *rest):
            seen[id(e)] += 1
            return original(e, *rest)

        monkeypatch.setattr(E, "_derivative", counting)
        differentiate(product)
        assert seen and max(seen.values()) == 1


class TestRoundTrip:
    @given(e=_expr_strategy(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_print_parse_evaluates_identically(self, e, seed):
        text = to_text(e)
        reparsed = parse(text)
        xs = np.random.default_rng(seed).uniform(-3.0, 3.0, 25)
        a = evaluate_array(e, xs)
        b = evaluate_array(reparsed, xs)
        assert np.array_equal(a, b, equal_nan=True)

    def test_negative_literal_exponent(self):
        # x^(-2) used to print for the literal -2 and parse back as neg(2),
        # a power that np.power rounds otherwise: 11.111111111111112 at 0.3
        x = E.var("x")
        literal, negated = E.pow_(x, E.const(-2.0)), E.pow_(x, E.neg(E.const(2.0)))
        assert (to_text(literal), to_text(negated)) == ("x^-2", "x^(-2)")
        assert parse(to_text(literal)) == literal and parse(to_text(negated)) == negated
        xs = np.array([0.3])
        assert evaluate_array(parse(to_text(literal)), xs).tolist() == [11.11111111111111]
        assert evaluate_array(literal, xs).tolist() == [11.11111111111111]

    def test_minus_number_after_caret_is_one_literal(self):
        x, two = E.var("x"), E.const(2.0)
        assert parse("x^-2") == E.pow_(x, E.const(-2.0))
        assert parse("x ^ - 2.5e-1 * x") == E.mul(E.pow_(x, E.const(-0.25)), x)
        assert parse("x^-0.0").args[1].value.hex() == "-0x0.0p+0"
        # raised to a power itself, or not a number, the minus stays a negation
        assert parse("x^-2^x") == E.pow_(x, E.neg(E.pow_(two, x)))
        assert parse("x^-x") == E.pow_(x, E.neg(x))
        assert parse("-x^2") == E.neg(E.pow_(x, two))
        xs = np.random.default_rng(3).uniform(-3.0, 3.0, 2000)
        for k in (1, 2, 3, 4):  # odd or even bit for bit, as np.power was not
            f = parse(f"x^-{k}")
            sign = (-1.0) ** k
            assert evaluate_array(f, xs).tobytes() == (sign * evaluate_array(f, -xs)).tobytes()

    def test_specific_round_trips(self):
        for text in ("x^3", "t*sin(1/t)", "-x^2", "(1+x)/(1-x)", "2^-x", "abs(x-1/2)",
                     "x^2*1e400", "x^(1e400-1e400)", "x^-1e400", "-1e400*x"):
            e = parse(text)
            again = parse(to_text(e))
            xs = np.linspace(-2.0, 2.0, 41)
            assert np.array_equal(
                evaluate_array(e, xs), evaluate_array(again, xs), equal_nan=True
            )

    def test_non_finite_constants(self):
        # repr's inf and nan would read back as unknown names
        x, inf, nan = E.var("x"), E.const(math.inf), E.const(math.nan)
        minus_inf = E.const(-math.inf)
        cases = [
            (inf, "1e999"), (minus_inf, "-1e999"), (nan, "(1e999-1e999)"),
            (E.mul(x, minus_inf), "x*-1e999"), (E.pow_(x, minus_inf), "x^-1e999"),
            (E.pow_(minus_inf, x), "(-1e999)^x"),
            (E.sub(nan, E.neg(inf)), "(1e999-1e999)--1e999"),
            (differentiate(parse("x^2*1e400")), "2*x*1e999"),
            (differentiate(parse("x^(1e400-1e400)")), "(1e999-1e999)*x^(1e999-1e999)"),
        ]
        xs = np.linspace(-2.0, 2.0, 41)
        with np.errstate(all="ignore"):
            for e, text in cases:
                assert to_text(e) == text
                assert np.array_equal(evaluate_array(parse(text), xs), evaluate_array(e, xs),
                                      equal_nan=True), text
        assert parse("2*x*1e999") == cases[-2][0]
        # NaN at every point, whatever the sign bit of the constant
        assert to_text(E.const(-math.nan)) == "(1e999-1e999)"
        assert np.isnan(evaluate_array(parse("(1e999-1e999)"), xs)).all()

    def test_nan_literal_exponent_round_trip_at_one(self):
        # np.power(1, nan) is 1; the literal and its printed form are NaN there
        literal = E.pow_(E.var("x"), E.const(math.nan))
        again = parse(to_text(literal))
        assert again != literal  # (1e999-1e999) reads back as no literal
        xs = np.array([-1.0, 0.0, 1.0, 2.0])
        for e in (literal, again):
            assert np.isnan(evaluate_array(e, xs)).all()
        folded = E.add(E.var("x"), E.pow_(E.const(1.0), E.const(math.nan)))
        assert np.isnan(evaluate_array(folded, xs)).all()


class TestExprType:
    def test_immutable(self):
        e = parse("x+1")
        with pytest.raises(AttributeError):
            e.kind = "mul"

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            E.Expr("add", args=(E.const(1.0),))
        with pytest.raises(ValueError):
            E.Expr("call", name="nosuch", args=(E.const(1.0),))

    def test_callable_sugar(self):
        e = parse("x^2")
        assert e(3.0) == 9.0
        assert np.array_equal(e(np.array([1.0, 2.0])), np.array([1.0, 4.0]))
