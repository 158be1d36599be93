"""Expression grammar: parsing, error offsets, canonical formatting."""

import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liouville_ep.expr import ParseError, format_poly, parse_expression
from liouville_ep.poly import GaussRational, MultiPoly

V = ("x", "y")


def gr(re, im=0):
    return GaussRational.of(Fraction(re), Fraction(im))


def const(v):
    return MultiPoly.constant(V, v)


X = MultiPoly.variable(V, "x")
Y = MultiPoly.variable(V, "y")


class TestParsing:
    def test_integer_and_rational_literals(self):
        assert parse_expression("42", V) == const(42)
        assert parse_expression("3/4", ()) == MultiPoly.constant((), Fraction(3, 4))

    def test_decimal_literals_are_exact(self):
        assert parse_expression("0.25", V) == const(Fraction(1, 4))
        assert parse_expression("2.5", V) == const(Fraction(5, 2))
        assert parse_expression("0.1", V) == const(Fraction(1, 10))

    def test_imaginary_unit(self):
        assert parse_expression("i", V) == const(gr(0, 1))
        assert parse_expression("i*i", V) == const(-1)
        assert parse_expression("2*i", V) == const(gr(0, 2))

    def test_precedence(self):
        assert parse_expression("1 + 2*3", V) == const(7)
        assert parse_expression("(1 + 2)*3", V) == const(9)
        assert parse_expression("2*x^2", V) == (X**2).scale(gr(2))
        assert parse_expression("2 - 3 - 4", V) == const(-5)

    def test_unary_minus(self):
        assert parse_expression("-x", V) == X.scale(gr(-1))
        assert parse_expression("--x", V) == X
        assert parse_expression("3 - -2", V) == const(5)

    def test_negated_power_binds_inside(self):
        # the power binds inside a leading minus: '-x^2' is -(x^2), not (-x)^2
        assert parse_expression("-x^2", V) == (X**2).scale(gr(-1))
        assert parse_expression("-1*x^2", V) == (X**2).scale(gr(-1))
        assert parse_expression("-2^2", V) == const(-4)
        assert parse_expression("3*-2^2", V) == const(-12)
        assert parse_expression("(-2)^2", V) == const(4)
        assert parse_expression("--x^2", V) == X**2

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_expression("2x", V)
        with pytest.raises(ParseError):
            parse_expression("x y", V)

    def test_division_by_constant(self):
        assert parse_expression("x/2", V) == X.scale(gr(Fraction(1, 2)))
        assert parse_expression("x/(1/2)", V) == X.scale(gr(2))

    def test_division_by_variable_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1/x", V)
        assert exc.value.offset == 1

    def test_division_by_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("x/0", V)
        with pytest.raises(ParseError):
            parse_expression("x/(1 - 1)", V)

    def test_error_offsets(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x + ", V)
        assert exc.value.offset == 4
        with pytest.raises(ParseError) as exc:
            parse_expression("x + $", V)
        assert exc.value.offset == 4
        with pytest.raises(ParseError) as exc:
            parse_expression("(x + 1", V)
        assert exc.value.offset == 6

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_expression("z + 1", V)

    @pytest.mark.parametrize(
        "source, message, offset",
        [
            ("q + (", "unknown variable 'q'", 0),
            ("x/0 )", "division by zero", 1),
            ("y + x/y (", "division only by constant subexpressions", 5),
        ],
        ids=["unknown-variable", "division-by-zero", "division-by-variable"],
    )
    def test_errors_reported_left_to_right(self, source, message, offset):
        # the polynomial is built while parsing, so a semantic error before a
        # syntax error is the one reported
        with pytest.raises(ParseError) as exc:
            parse_expression(source, V)
        assert str(exc.value) == f"{message} (offset {offset})"
        assert exc.value.offset == offset

    def test_power_requires_unsigned_integer(self):
        with pytest.raises(ParseError):
            parse_expression("x^-2", V)
        with pytest.raises(ParseError):
            parse_expression("x^y", V)
        with pytest.raises(ParseError):
            parse_expression("x^(2)", V)

    @pytest.mark.parametrize(
        "source, value",
        [
            ("1e3", 1000),
            ("2.5E3", 2500),
            ("1e-3", Fraction(1, 1000)),
            ("1.25e+2", 125),
            ("07e0", 7),
            ("1e-400", Fraction(1, 10**400)),
            ("3e9999", 3 * 10**9999),
            ("2e1*x", X.scale(gr(20))),
        ],
        ids=["1e3", "2.5E3", "1e-3", "1.25e+2", "07e0", "1e-400", "3e9999", "2e1*x"],
    )
    def test_exponent_literals(self, source, value):
        expected = value if isinstance(value, MultiPoly) else const(value)
        assert parse_expression(source, V) == expected

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1e10000", ("exponent of more than 4 digits", 0)),
            ("x + 2.5E-00001", ("exponent of more than 4 digits", 4)),
            ("x^1e3", ("exponent must be an unsigned integer", 2)),
            ("x^2.0", ("exponent must be an unsigned integer", 2)),
            ("1.e5", ("digit expected after decimal point", 2)),
            ("2e", ("unexpected token 'e'", 1)),
            ("2e+", ("unexpected token 'e'", 1)),
            ("1e5e5", ("unexpected token 'e5'", 3)),
        ],
        ids=["five-digit-exponent", "five-digit-exponent-with-zeros", "power-with-exponent",
             "power-with-point", "point-before-exponent", "no-exponent-digit",
             "sign-without-digit", "two-exponents"],
    )
    def test_exponent_literal_errors(self, source, expected):
        # an exponent has at most four digits, so 10^9999 is the largest
        # power of ten a literal builds; the bound is checked before any
        # number is made
        message, offset = expected
        with pytest.raises(ParseError) as exc:
            parse_expression(source, V)
        assert str(exc.value) == f"{message} (offset {offset})"

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("3^999999999", ("power of more than 262144 bits", 2)),
            ("(1+i)^99999999", ("power of more than 262144 bits", 6)),
            ("2^262145", ("power of more than 262144 bits", 2)),
            ("(1/2)^262145", ("power of more than 262144 bits", 6)),
            ("x + 1e9999^8", ("power of more than 262144 bits", 11)),
            ("(1e300*(1+x+y))^60", ("power of more than 262144 bits", 16)),
            ("x^257", ("power of total degree above 256", 2)),
            ("(x*y)^129", ("power of total degree above 256", 6)),
            ("x^" + "9" * 4000, ("power of total degree above 256", 2)),
            ("(1+x+y)^63", ("power of more than 2048 terms", 8)),
        ],
        ids=["three", "one-plus-i", "two-past-the-bits", "half-past-the-bits", "huge-literal-base",
             "bits-of-a-polynomial", "monomial", "product", "long-exponent", "terms"],
    )
    def test_power_bounds(self, source, expected):
        # a power is refused at its exponent before it is expanded; a
        # polynomial's bits count once per term of the power
        message, offset = expected
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_expression(source, V)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"{message} (offset {offset})"

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1^99999999999", const(1)),
            ("i^123456789123", const(gr(0, -1))),
            ("(-1)^99999999", const(-1)),
            ("0^99999999", const(0)),
            ("2^262144", const(2**262144)),
            ("(1/2)^262144", const(Fraction(1, 2**262144))),
            ("x^256", X**256),
            ("(x*y)^128", (X * Y) ** 128),
            ("(x+y)^256", (X + Y) ** 256),
        ],
        ids=["one", "i", "minus-one", "zero", "two", "half", "monomial", "product", "binomial"],
    )
    def test_powers_within_the_bounds(self, source, expected):
        # a unit has every power; a binomial's terms are bounded by the
        # multisets of its two terms, not by the monomials of its degree
        assert parse_expression(source, V) == expected

    def test_literal_past_the_interpreter_digit_limit(self, monkeypatch):
        # under a lowered PYTHONINTMAXSTRDIGITS a literal shorter than the
        # tokenizer's bound is an error at its offset, in a power too
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            for source, offset in (("x + " + "7" * 700, 4), ("x^" + "1" * 700, 2), ("1" * 640, None)):
                if offset is None:
                    assert parse_expression(source, V) == const(int(source))
                    continue
                with pytest.raises(ParseError) as exc:
                    parse_expression(source, V)
                assert str(exc.value) == f"number of more digits than this interpreter reads (offset {offset})"
        finally:
            sys.set_int_max_str_digits(limit)

    def test_reserved_imaginary_name(self):
        with pytest.raises(ValueError):
            parse_expression("i", ("i",))

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1.", ("digit expected after decimal point", 2)),
            ("1.5.3", ("unexpected character '.'", 3)),
            ("x.5", ("unexpected character '.'", 1)),
            ("2xy", ("unexpected token 'xy'", 1)),
            ("\u2177", ("unexpected character '\u2177'", 0)),
            ("\u00b2", ("unexpected character '\u00b2'", 0)),
            ("\u0663", ("unexpected character '\u0663'", 0)),
            ("7\u0663", ("unexpected character '\u0663'", 1)),
            ("x\u00b2", ("unknown variable 'x\u00b2'", 0)),
            ("\u00a0x", X),
            ("x + " + "1" * 5000, ("number of more than 4300 characters", 4)),
            ("0." + "5" * 5000, ("number of more than 4300 characters", 0)),
            ("1" * 4300, MultiPoly.constant(V, int("1" * 4300))),
        ],
        ids=["trailing-point", "two-points", "point-after-name", "digit-then-name",
             "roman-numeral", "superscript-two", "arabic-indic-three", "seven-arabic-indic-three",
             "name-with-superscript", "no-break-space", "long-integer", "long-decimal",
             "longest-integer"],
    )
    def test_token_edge_cases(self, source, expected):
        # numbers are ASCII digit literals; a non-ASCII digit is no digit
        if isinstance(expected, MultiPoly):
            assert parse_expression(source, V) == expected
            return
        message, offset = expected
        with pytest.raises(ParseError) as exc:
            parse_expression(source, V)
        assert str(exc.value) == f"{message} (offset {offset})"
        assert exc.value.offset == offset

    def test_whitespace_insensitive(self):
        a = parse_expression("x^2+2*x*y  +y^2", V)
        b = parse_expression(" x^2 + 2*x*y + y^2 ", V)
        assert a == b == (X + Y) ** 2


class TestFormatting:
    def test_zero(self):
        assert format_poly(MultiPoly.zero(V)) == "0"

    def test_constants(self):
        assert format_poly(const(3)) == "3"
        assert format_poly(const(Fraction(-1, 2))) == "-1/2"
        assert format_poly(const(gr(0, 1))) == "i"
        assert format_poly(const(gr(0, -1))) == "-i"
        assert format_poly(const(gr(0, 2))) == "2*i"

    def test_unit_coefficients_omitted(self):
        assert format_poly(X) == "x"
        assert format_poly(X.scale(gr(-1))) == "-x"
        assert format_poly(X.scale(gr(0, 1))) == "i*x"

    def test_leading_negative_power_is_unambiguous(self):
        s = format_poly((X**2).scale(gr(-1)))
        assert s == "-1*x^2"
        assert parse_expression(s, V) == (X**2).scale(gr(-1))

    def test_mixed_complex_coefficient_parenthesized(self):
        p = (X**2).scale(gr(Fraction(-1, 2), 3))
        assert format_poly(p) == "(-1/2+3*i)*x^2"

    def test_roundtrip_random(self):
        rng = random.Random(314)
        for _ in range(300):
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = (rng.randint(0, 4), rng.randint(0, 4))
                c = GaussRational.of(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                )
                if not c.is_zero():
                    terms[e] = c
            p = MultiPoly(V, terms)
            assert parse_expression(format_poly(p), V) == p


coeff_st = st.builds(
    lambda a, b, c, d: GaussRational.of(Fraction(a, b), Fraction(c, d)),
    st.integers(-9, 9),
    st.integers(1, 6),
    st.integers(-9, 9),
    st.integers(1, 6),
)
term_st = st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)), coeff_st)


@settings(max_examples=200, deadline=None)
@given(st.lists(term_st, max_size=7))
def test_roundtrip_property(term_list):
    terms = {}
    for e, c in term_list:
        if not c.is_zero():
            terms[e] = terms.get(e, GaussRational.of(0)) + c
    p = MultiPoly(V, {e: c for e, c in terms.items() if not c.is_zero()})
    assert parse_expression(format_poly(p), V) == p


# the grammar's ASCII characters, with letters and digits outside ASCII and
# whitespace outside ASCII: no-break, em and ideographic spaces, line separator
GRAMMAR_TEXT = st.text(
    st.sampled_from(list("0123456789.+-*/^() xyieE_") + list("\u03b3\u00e9\u00b2\u0663\u2460\u2177")
                    + ["\u00a0", "\u2003", "\u3000", "\u2028"]),
    max_size=16,
)


@settings(max_examples=300, deadline=None, derandomize=True)
# every power is bounded before it is expanded, so no text is slow to parse
@given(GRAMMAR_TEXT)
def test_any_text_parses_or_raises_parse_error(text):
    try:
        p = parse_expression(text, V)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(text)
    else:
        assert isinstance(p, MultiPoly)
