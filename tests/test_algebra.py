from decimal import Decimal
from fractions import Fraction as F

import pytest
from helpers_oracles import (
    NEAR_RATIONALS,
    eval_at,
    first_coeff_difference,
    fraction_add,
    fraction_div,
    fraction_mul,
    fraction_neg,
    fraction_poly,
    fraction_pow,
    fraction_sub,
)
from hypothesis import example, given
from hypothesis import strategies as st

from blowup_series.algebra import XPoly, parse_rational, render_xpoly
from blowup_series.pairing import MomentFunctional, eval_simple_type
from blowup_series.series import TSeries, parse_pair

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=24)
xpolys = st.lists(rationals, max_size=5).map(XPoly)


class TestRational:
    def test_exact_fraction_arithmetic(self):
        assert F(1, 2) + F(1, 3) == F(5, 6)
        assert F(-4, 6) * 3 == F(-2)
        value = F(-4, 6)  # canonical reduced form
        assert (value.numerator, value.denominator) == (-2, 3)

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            F(1, 0)
        with pytest.raises(ZeroDivisionError):
            F(1) / F(0)

    def test_format_never_prints_unit_denominator(self):
        assert str(F(7)) == "7"
        assert str(F(-2, 3)) == "-2/3"
        assert str(F(4, 2)) == "2"

    @given(rationals)
    def test_parse_format_round_trip(self, a):
        assert parse_rational(str(a)) == a

    @pytest.mark.parametrize(
        "bad",
        ["", "1.5", "x", "1/2/3", "--3", "1/ 2", "+4", "1\n", "3/4\n", "\u0661\u0662"]
        + ["1/\u0662", "\uff11", "1_000", " 1", "1/-2", "0x1f"],
    )
    def test_parse_rejects_non_canonical(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.integers(-(2**300), 2**300), st.integers(1, 2**300))
    def test_parse_reduces_wide_literals(self, p, q):
        value = parse_rational(f"{p}/{q}")
        assert value == F(p, q) and type(value) is F
        assert parse_rational(f"00{abs(p)}") == abs(p)

    def test_parse_rejects_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")


def _refusal(parse, text):
    """``(value, None)`` if ``parse`` accepts ``text``, else ``(None, (type, text))`` of its refusal."""
    try:
        return parse(text), None
    except (ValueError, ZeroDivisionError) as exc:
        return None, (type(exc), str(exc))


def _pinned_literals(test):
    for text in NEAR_RATIONALS + ["0/0", "-0/5", "2/4", "\u0661\u0662"]:
        test = example(text)(test)
    return test


#: texts near the literal grammar, and values that are not texts
_LITERALS = (
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True)
    | st.from_regex(r"[-+ 0-9/.e\n]{0,8}", fullmatch=True)
    | st.text(max_size=8)
    | st.integers()
    | st.none()
)


@given(_LITERALS)
@_pinned_literals
def test_parse_pair_and_parse_rational_agree(text):
    """Both parsers accept the same texts, and refuse the others with the same
    exception and text.  ``parse_pair`` gives the literal's own pair,
    unreduced, and ``parse_rational`` that pair's reduced ``Fraction``."""
    pair, pair_refusal = _refusal(parse_pair, text)
    value, value_refusal = _refusal(parse_rational, text)
    assert pair_refusal == value_refusal
    if pair_refusal is None:
        numerator, _, denominator = text.partition("/")
        assert pair == (int(numerator), int(denominator or 1))
        assert F(*pair) == value and type(value) is F


#: each place the Python API takes a ``RationalLike``, given one value there
_API_RATIONALS = {
    "XPoly": lambda v: XPoly([v]),
    "TSeries": lambda v: TSeries(0, [v], 0),
    "TSeries.scale_arg": lambda v: TSeries.monomial(1, 1, 2).scale_arg(v),
    "MomentFunctional": lambda v: MomentFunctional("m", [v]),
    "MomentFunctional.scaled": lambda v: MomentFunctional("m", [1]).scaled(v),
    "MomentFunctional.geometric-scale": lambda v: MomentFunctional.geometric("m", v, 1, 2),
    "MomentFunctional.geometric-ratio": lambda v: MomentFunctional.geometric("m", 1, v, 2),
    "eval_simple_type-a": lambda v: eval_simple_type(v, 0, 0, "even", 2).coeffs,
    "eval_simple_type-b": lambda v: eval_simple_type(0, v, 0, "even", 2).coeffs,
    "eval_simple_type-d": lambda v: eval_simple_type(0, 0, v, "odd", 2).coeffs,
}


@pytest.mark.parametrize("take", _API_RATIONALS.values(), ids=_API_RATIONALS)
def test_the_api_reads_texts_by_the_one_literal_grammar(take):
    """A text given to the Python API is a literal of ``parse_pair``'s grammar:
    each near-rational is refused with ``parse_rational``'s exception and text,
    and ``"1/2"`` and ``"-3"`` mean what the ``Fraction``s and the int mean."""
    for text in NEAR_RATIONALS:
        assert _refusal(take, text) == (None, _refusal(parse_rational, text)[1])
    assert take("1/2") == take(F(1, 2)) and take("1/2") != take(F(1, 3))
    assert take("-3") == take(-3) == take(F(-3))


class TestXPoly:
    def test_canonical_trailing_zero_free(self):
        p = XPoly((1, 2, 0, 0))
        assert p.degree == 1
        assert XPoly((0, 0)).is_zero
        assert XPoly(()).degree == -1

    def test_a_string_of_coefficients_is_refused(self):
        """A string is not read one character at a time: ``XPoly("12")`` once was 1 + 2x."""
        with pytest.raises(TypeError, match=r"^coeffs must be a sequence of scalars, not the string '12'$"):
            XPoly("12")
        assert XPoly(["12"]).coeffs == (12,)

    def test_product_of_monomials(self):
        x = XPoly.x()
        assert x * x == XPoly((0, 0, 1))
        assert (x * -1) * (x * -1) - x**2 == XPoly.zero()

    def test_cancellation_gives_empty_coefficients(self):
        p = XPoly((0, 8)) + XPoly((0, -8))
        assert p.is_zero
        assert p.coeffs == ()

    def test_scalar_lifting(self):
        x = XPoly.x()
        assert 2 + x**2 == XPoly((2, 0, 1))
        assert (2 - x) - (2 - x) == XPoly.zero()
        assert 3 * x == XPoly((0, 3))

    def test_eval_at(self):
        assert eval_at(XPoly((0, 8)), 2) == 16
        assert eval_at(XPoly((-4, 0, -32)), 2) == -132
        assert eval_at(XPoly((2, 0, 1)), -2) == 6

    @given(xpolys, xpolys, xpolys)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(xpolys, xpolys, rationals)
    def test_eval_is_a_ring_homomorphism(self, p, q, v):
        assert eval_at(p * q, v) == eval_at(p, v) * eval_at(q, v)
        assert eval_at(p + q, v) == eval_at(p, v) + eval_at(q, v)

    @given(xpolys)
    def test_json_strings_round_trip(self, p):
        assert XPoly(parse_rational(str(v)) for v in p.coeffs) == p

    def test_first_coeff_difference(self):
        assert first_coeff_difference(XPoly((1, 2)), XPoly((1, 2))) is None
        k, a, b = first_coeff_difference(XPoly((1, 2)), XPoly((1, 3)))
        assert (k, a, b) == (1, F(2), F(3))


#: scalars as the API takes them: ints, ``Fraction``s (integral ones too) and zeros
scalars = st.integers(-20, 20) | rationals | st.integers(-9, 9).map(F) | st.sampled_from([0, F(0)])
#: coefficient lists of such scalars, with trailing zeros
coefficients = st.builds(
    lambda head, zeros: head + zeros,
    st.lists(scalars, max_size=5),
    st.lists(st.sampled_from([0, F(0)]), max_size=2),
)


def _follows_the_scalar_rule(coeffs) -> bool:
    """Each coefficient is an int where it is integral and a ``Fraction``
    otherwise, and the last one is nonzero: a clean kernel entry."""
    kinds = all(type(v) is (int if v.denominator == 1 else F) for v in coeffs)
    return kinds and (not coeffs or coeffs[-1] != 0)


class TestKernelArithmetic:
    """``XPoly`` runs on the kernel's polynomial arithmetic; the ``Fraction``
    loops of ``helpers_oracles`` are its reference."""

    @given(coefficients, coefficients, scalars, st.integers(0, 3))
    @example([2, F(4, 2), 0], [F(-2), 0, F(0)], F(2), 2)
    @example([F(1, 2)], [F(1, 2)], 2, 1)
    @example([], [0, F(0)], 0, 0)
    def test_every_operation_matches_the_fraction_loops(self, a, b, c, n):
        p, q = XPoly(a), XPoly(b)
        cases = {
            "p": (p, fraction_poly(a)),
            "p + q": (p + q, fraction_add(a, b)),
            "p + c": (p + c, fraction_add(a, [c])),
            "c + p": (c + p, fraction_add([c], a)),
            "p - q": (p - q, fraction_sub(a, b)),
            "p - c": (p - c, fraction_sub(a, [c])),
            "c - p": (c - p, fraction_sub([c], a)),
            "-p": (-p, fraction_neg(a)),
            "p * q": (p * q, fraction_mul(a, b)),
            "p * c": (p * c, fraction_mul(a, c)),
            "c * p": (c * p, fraction_mul(a, c)),
            "p ** n": (p**n, fraction_pow(a, n)),
        }
        if c:
            cases["p / c"] = (p / c, fraction_div(a, c))
        for name, (got, want) in cases.items():
            assert got.coeffs == want and _follows_the_scalar_rule(got.coeffs), name
        assert p == XPoly(fraction_poly(a)) and hash(p) == hash(fraction_poly(a))
        assert (p == c) == (fraction_poly(a) == fraction_poly([c]))

    @pytest.mark.parametrize("zero", [0, F(0)], ids=repr)
    @pytest.mark.parametrize("coeffs", [(), (1,), (F(1, 2), 3)], ids=repr)
    def test_a_zero_divisor_is_refused_for_every_polynomial(self, coeffs, zero):
        with pytest.raises(ZeroDivisionError) as err:
            XPoly(coeffs) / zero
        assert str(err.value) == ("integer modulo by zero" if type(zero) is int else "division by zero")

    def test_an_integral_fraction_is_the_int(self):
        two, fraction_two = XPoly((2,)), XPoly((F(2),))
        assert two == fraction_two and hash(two) == hash(fraction_two)
        assert type(fraction_two.coeffs[0]) is int
        assert XPoly.x().coeff(5) == 0

    @given(
        st.integers(0, 3),
        st.lists(coefficients.map(XPoly), max_size=5),
        st.integers(-1, 8),
        scalars | coefficients.map(XPoly),
    )
    @example(0, [XPoly((F(1, 2), 3))], 2, F(2))
    @example(0, [XPoly((F(1, 2), 3))], 2, 2)
    def test_a_series_times_a_coefficient_matches_the_fraction_loops(self, val, coeffs, order, c):
        a = TSeries(val, coeffs, order)
        want = c.coeffs if isinstance(c, XPoly) else c
        for product in (a * c, c * a):
            assert product.order == a.order
            assert all(_follows_the_scalar_rule(p) for p in product.h)
            for k in range(order + 1):
                assert product.coeff(k).coeffs == fraction_mul(a.coeff(k).coeffs, want)

    @pytest.mark.parametrize("value", ["1/2", "1", 1.5], ids=repr)
    def test_texts_and_floats_are_not_coefficients(self, value):
        a, p = TSeries(0, [1], 2), XPoly((1,))
        for operation in (
            lambda: a * value,
            lambda: value * a,
            lambda: p + value,
            lambda: value + p,
            lambda: p - value,
            lambda: value - p,
            lambda: p * value,
            lambda: p / value,
        ):
            with pytest.raises(TypeError):
                operation()
        assert p != value

    @pytest.mark.parametrize("value", [0.5, Decimal("0.5")], ids=repr)
    def test_floats_and_decimals_are_not_scalars(self, value):
        """Every call that reads a scalar takes an int, a ``Fraction`` or a
        literal text, and refuses a binary or decimal float."""
        mu = MomentFunctional("mu", (1, 2, 3))
        refusal = f"^a scalar must be an int, a Fraction or a rational literal, not {type(value).__name__}$"
        for call in (
            lambda: XPoly([value]),
            lambda: TSeries(0, [value], 0),
            lambda: TSeries(0, [1, 1], 1).scale_arg(value),
            lambda: MomentFunctional("mu", [value]),
            lambda: mu.scaled(value),
            lambda: MomentFunctional.geometric("mu", value, 2, 3),
            lambda: MomentFunctional.geometric("mu", 1, value, 3),
            lambda: eval_simple_type(value, 0, 0, "even", 2),
            lambda: eval_simple_type(0, value, 0, "even", 2),
            lambda: eval_simple_type(0, 0, value, "odd", 2),
        ):
            with pytest.raises(TypeError, match=refusal):
                call()


class TestRendering:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ((), "0"),
            ((1,), "1"),
            ((0, -6, 0, -1), "-6x - x^3"),
            ((2, 0, 1), "2 + x^2"),
            ((0, 96, 0, 128), "96x + 128x^3"),
            ((13584, 0, -88320, 0, -46080, 0, -8192), "13584 - 88320x^2 - 46080x^4 - 8192x^6"),
            ((F(-1, 12),), "-1/12"),
            ((0, 0, F(-1, 12)), "-(1/12)x^2"),
        ],
    )
    def test_render(self, coeffs, text):
        assert render_xpoly(XPoly(coeffs)) == text
