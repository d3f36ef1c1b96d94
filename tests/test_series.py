import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from helpers_oracles import (
    WRITES,
    as_biseries,
    binomial_subst_pm,
    cos_series,
    cosh_series,
    exp_t_squared,
    sin_series,
    sinh_series,
)

from blowup_series import algebra, blowup, derived, hurwitz, series
from blowup_series.algebra import XPoly, first_difference_uv
from blowup_series.blowup import golden_table
from blowup_series.pairing import EvalResult
from blowup_series.series import SeriesError, TSeries, first_difference

X = XPoly.x()

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
xpolys = st.lists(rationals, max_size=4).map(XPoly)


@st.composite
def tseries(draw, min_val=0, max_val=3, max_len=5):
    val = draw(st.integers(min_val, max_val))
    coeffs = draw(st.lists(xpolys, max_size=max_len))
    slack = draw(st.integers(0, 2))
    order = val + len(coeffs) - 1 + slack
    return TSeries(val, coeffs, order)


@pytest.fixture(scope="module")
def b_ref():
    """The even reference series, taken from the embedded golden table."""
    return golden_table()["B"]


@pytest.fixture(scope="module")
def s_ref():
    """The odd reference series, taken from the embedded golden table."""
    return golden_table()["S"]


#: a child that prints the kernel entries of the series its argument makes,
#: under a 256 MB address-space limit, so a constructor whose cost grows with
#: what it drops fails fast rather than filling the memory of the host
_BOUNDED_BUILD = """
import itertools, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))
from blowup_series.series import TSeries
print(json.dumps(eval(sys.argv[1]).h))
"""


class TestConstruction:
    def test_normalisation_strips_leading_zeros(self):
        a = TSeries(0, (0, 0, 1), 5)
        assert a.valuation == 2
        assert a.order == 5

    def test_a_string_of_coefficients_is_refused(self):
        """A string is not read one character at a time: ``TSeries(0, "12", 1)`` once was 1 + 2t."""
        with pytest.raises(TypeError, match=r"^coeffs must be a sequence of coefficients, not the string '12'$"):
            TSeries(0, "12", 1)
        assert TSeries(0, ["12"], 1).h == ((12,), ())

    def test_zero_series_convention(self):
        z = TSeries.zero(7)
        assert z.is_zero and z.valuation == 8 and z.order == 7
        assert TSeries(0, (0, 0), 1).is_zero

    def test_coeff_above_order_is_unknown(self):
        a = TSeries.monomial(1, 1, 3)
        with pytest.raises(SeriesError):
            a.coeff(4)
        assert a.coeff(0).is_zero  # below valuation: a known zero

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TSeries(-1, [1], 3),
            lambda: TSeries.monomial(1, -1, 3),
            lambda: TSeries.from_terms({-1: 1, 0: 2}, 3),
            lambda: TSeries.from_json({**TSeries.monomial(1, 1, 3).to_json(), "valuation": -1}),
            lambda: TSeries.from_json({**TSeries.monomial(1, 1, 3).to_json("factorial"), "valuation": -1}),
        ],
        ids=["init", "monomial", "from_terms", "from_json", "from_json_factorial"],
    )
    def test_a_negative_valuation_is_refused(self, make):
        """Every constructor and both JSON forms refuse t^-1, with one line."""
        with pytest.raises(SeriesError, match=r"valuation.* >= 0, got -1$") as raised:
            make()
        assert "\n" not in str(raised.value)

    @pytest.mark.parametrize("normalization", ["plain", "factorial"])
    def test_an_order_past_the_cap_is_refused(self, normalization):
        """Series JSON that declares an order past ``build_order(MAX_ORDER)``
        is refused, naming the field, before its vector is padded; the cap
        itself is read."""
        top = blowup.build_order(blowup.MAX_ORDER)
        data = TSeries.monomial(1, 1, 3).to_json(normalization)
        with pytest.raises(SeriesError, match=f"^series JSON field 'order' must be <= {top}, got {top + 1}$"):
            TSeries.from_json({**data, "order": top + 1})
        assert TSeries.from_json({**data, "order": top}).order == top

    @pytest.mark.parametrize(
        "make, h",
        [
            ("TSeries.from_json({'variable': 't', 'valuation': 10**7, 'order': 3, 'coeffs': [['1']]})", [[]] * 4),
            (
                "TSeries.from_json({'variable': 't', 'valuation': 10**8, 'order': 3,"
                " 'normalization': 'factorial', 'coeffs': [['1']]})",
                [[]] * 4,
            ),
            ("TSeries.monomial(1, 10**7, 3)", [[]] * 4),
            ("TSeries(0, itertools.repeat(1), 3)", [[1], [1], [2], [6]]),
        ],
        ids=["from_json", "from_json_factorial", "monomial", "endless_coeffs"],
    )
    def test_a_constructor_costs_what_it_keeps(self, make, h):
        """A valuation far past the order, or coefficients without end, build
        only the entries through the order: a child under a 256 MB
        address-space limit makes the series within 20 s."""
        src = str(Path(series.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-c", _BOUNDED_BUILD, make], env=env, capture_output=True, text=True, timeout=20
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == h


#: a value of each type that does not come from a set, and the names to write
#: on it: public names, slots and a name it does not have
_VALUES = {
    "TSeries": (lambda: TSeries(1, [X, 2], 3), ("h", "order", "valuation", "other")),
    "XPoly": (lambda: XPoly([1, F(1, 2)]), ("coeffs", "degree", "other")),
    "BiSeries": (lambda: TSeries(0, [1, X], 2).subst_pm(1), ("_rows", "order", "other")),
    "EvalResult": (lambda: EvalResult(((1, 1), (0, 1)), "maina"), ("coeffs", "provenance", "series", "other")),
}


def _held(value) -> dict:
    """What a value holds: its instance dictionary, or its slots."""
    if hasattr(value, "__dict__"):
        return dict(vars(value))
    return {name: getattr(value, name) for name in type(value).__slots__}


@pytest.mark.parametrize("write", WRITES)
@pytest.mark.parametrize("kind", _VALUES)
def test_a_value_refuses_every_write(kind, write):
    """Assigning or deleting any name is refused, and the value stays as it was."""
    make, names = _VALUES[kind]
    value = make()
    held = _held(value)
    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot {write} field '{name}'$"):
            WRITES[write](value, name)
    assert _held(value) == held
    if kind == "XPoly":  # hashable by its coefficients
        assert hash(value) == hash(make())


class TestArithmetic:
    def test_t_times_t(self):
        t = TSeries.monomial(1, 1, 6)
        assert t * t == TSeries.monomial(1, 2, 6)

    def test_product_bs_matches_table(self, b_ref, s_ref):
        # frozen from the appendix-style table: BS = t - x t^3/6 + (x^2-8) t^5/120
        expected = TSeries.from_terms(
            {1: 1, 3: X * F(-1, 6), 5: (X * X - 8) * F(1, 120)}, 5
        )
        assert first_difference(b_ref * s_ref, expected, through=5) is None

    def test_square_of_odd_series_starts_at_t2(self, s_ref):
        s2 = s_ref * s_ref
        assert s2.valuation == 2
        assert s2.coeff(2) == XPoly((1,))
        assert s2.coeff(2, normalized=True) == XPoly((2,))

    def test_mul_order_bookkeeping(self):
        a = TSeries(0, (1, 1), 4)
        b = TSeries(2, (1,), 3)
        assert (a * b).order == 3 + 0  # min(4 + 2, 3 + 0) is 3? no: min(6, 3)
        # valuation-shifted rule: min(a.order + b.val, b.order + a.val)
        assert (a * b).order == min(4 + 2, 3 + 0)

    @given(tseries(), tseries(), tseries())
    def test_mul_is_commutative_associative_distributive(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(tseries())
    def test_additive_inverse(self, a):
        assert (a + (-a)).is_zero


class TestCalculus:
    def test_derivative_examples(self, b_ref, s_ref):
        assert TSeries.monomial(1, 2, 5).derivative() == TSeries.monomial(2, 1, 4)
        assert s_ref.derivative().coeff(0) == XPoly((1,))  # S'(0) = 1
        db = b_ref.derivative()
        assert db.valuation == 3
        assert db.coeff(3) == XPoly((F(-1, 3),))  # from B = 1 - 2 t^4/4! + ...

    def test_integral_examples(self):
        one = TSeries.monomial(1, 0, 4)
        assert one.integrate() == TSeries.monomial(1, 1, 5)

    def test_integral_of_scaled_quotient(self, b_ref, s_ref):
        # S/B = t - x t^3/6 + O(t^5); the two composition routes
        # int_0^t (S/B)(2s) ds and (1/2) int_0^{2t} (S/B)(s) ds agree
        q = (s_ref * b_ref.recip()).truncate(5)
        assert first_difference(
            q, TSeries.from_terms({1: 1, 3: X * F(-1, 6)}, 3), through=3
        ) is None
        route_a = q.scale_arg(2).integrate()
        route_b = q.integrate().scale_arg(2) * F(1, 2)
        assert route_a == route_b
        # frozen: int_0^{2t} (S/B) = 2t^2 - (2x/3) t^4 + O(t^6), and halving it
        doubled = q.integrate().scale_arg(2)
        assert doubled.coeff(2) == XPoly((2,))
        assert doubled.coeff(4) == X * F(-2, 3)
        assert route_b.coeff(2) == XPoly((1,))
        assert route_b.coeff(4) == X * F(-1, 3)

    @given(tseries())
    def test_derivative_then_integral_round_trips(self, a):
        assume(a.order >= 0)
        assert a.integrate().derivative() == a
        # integrating the derivative loses only the constant term
        back = a.derivative().integrate()
        assert back == a - TSeries.monomial(a.coeff(0), 0, a.order)


class TestScaleArg:
    def test_argument_doubling(self, b_ref):
        b2t = b_ref.scale_arg(2)
        assert b2t.coeff(4) == XPoly((F(-4, 3),))  # (-1/12) * 16

    def test_parity(self, b_ref, s_ref):
        assert b_ref.scale_arg(-1) == b_ref
        assert s_ref.scale_arg(-1) == -s_ref

    @pytest.mark.parametrize("c", [2, F(2), "2"], ids=repr)
    def test_an_integral_result_is_an_int(self, c):
        """The kernel scalar rule on the int path too: 2 * (1/2) is the int 1."""
        h = TSeries.from_kernel([[], [F(1, 2)], [F(3, 4), F(1, 3)]], 2).scale_arg(c).h
        assert h == ((), (1,), (3, F(4, 3)))
        assert [type(v) for p in h for v in p] == [int, int, F]


class TestReciprocalAndDivision:
    def test_geometric_series(self):
        one_minus_t = TSeries.from_terms({0: 1, 1: -1}, 5)
        r = one_minus_t.recip()
        assert r == TSeries.from_terms({n: 1 for n in range(6)}, 5)
        assert r * one_minus_t == TSeries.monomial(1, 0, 5)

    @pytest.mark.parametrize(
        "terms, order",
        [({0: X, 1: 1}, 3), ({1: 1}, 3), ({}, 3), ({0: 1}, -1)],
        ids=["x", "t", "zero", "unknown"],
    )
    def test_recip_needs_an_x_free_nonzero_constant_term(self, terms, order):
        with pytest.raises(SeriesError, match="^recip needs an x-free nonzero constant term$"):
            TSeries.from_terms(terms, order).recip()

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=12).filter(lambda v: v != 0),
        st.lists(xpolys, max_size=4),
        st.integers(0, 2),
    )
    def test_recip_is_a_right_inverse(self, lead, tail, slack):
        a = TSeries(0, [XPoly((lead,))] + tail, len(tail) + slack)
        prod = a * a.recip()
        assert prod == TSeries.monomial(1, 0, prod.order)


class TestExpAndSqrt:
    def test_trivial_values(self):
        assert TSeries.zero(4).exp() == TSeries.monomial(1, 0, 4)
        assert TSeries.monomial(1, 0, 4).sqrt() == TSeries.monomial(1, 0, 4)

    def test_exp_of_quadratic_monomial(self):
        e = TSeries.monomial(X * F(-1, 6), 2, 5).exp()
        assert e.coeff(0) == XPoly((1,))
        assert e.coeff(2) == X * F(-1, 6)
        assert e.coeff(4) == X * X * F(1, 72)

    def test_exp_needs_positive_valuation(self):
        with pytest.raises(SeriesError):
            TSeries.monomial(1, 0, 3).exp()

    def test_sqrt_of_doubled_even_series(self, b_ref):
        root = b_ref.scale_arg(2).sqrt()
        assert root.coeff(2).is_zero
        assert root.coeff(4) == XPoly((F(-2, 3),))  # frozen: sqrt(1 - 4/3 t^4 + ...)
        assert root * root == b_ref.scale_arg(2)

    def test_sqrt_needs_unit_constant_term(self):
        with pytest.raises(SeriesError):
            TSeries.from_terms({0: 2, 1: 1}, 3).sqrt()

    @given(tseries(min_val=1, max_val=3), tseries(min_val=1, max_val=3))
    def test_exp_is_a_homomorphism(self, a, b):
        assert (a + b).exp() == a.exp() * b.exp()

    @given(st.lists(xpolys, max_size=4))
    def test_sqrt_squares_back(self, tail):
        a = TSeries(0, [XPoly((1,))] + tail, len(tail) + 2)
        assume(a.coeff(0) == XPoly((1,)))
        r = a.sqrt()
        assert r * r == a


class TestCoefficientAccess:
    def test_normalized_table_coefficients(self, b_ref, s_ref):
        assert b_ref.coeff(8, normalized=True) == XPoly((-4, 0, -32))
        assert s_ref.coeff(11, normalized=True) == XPoly((0, 564, 0, -20, 0, -1))
        assert b_ref.coeff(3).is_zero  # B is even

    def test_first_difference_reporting(self, b_ref, s_ref):
        assert first_difference(b_ref, b_ref, through=16) is None
        # the even and odd series differ from the very first slot: 1 vs 0
        d = first_difference(b_ref, s_ref, through=1)
        assert (d.t, d.x, d.lhs, d.rhs) == (0, 0, F(1), F(0))
        # at t^1 the difference is 0 vs 1, visible once t^0 agrees
        d1 = first_difference(b_ref - TSeries.monomial(1, 0, 16), s_ref, through=1)
        assert (d1.t, d1.x, d1.lhs, d1.rhs) == (1, 0, F(0), F(1))

    def test_comparison_beyond_known_order_is_rejected(self, b_ref):
        with pytest.raises(SeriesError):
            first_difference(b_ref, b_ref, through=17)


class TestBivariate:
    def test_a_string_of_rows_or_a_string_row_is_refused(self):
        """A string is not read one character at a time: ``BiSeries(['12', '3'], 1)``
        once had 1 at (0, 0), 2 at (0, 1) and 3 at (1, 0)."""
        with pytest.raises(TypeError, match=r"^rows must be a sequence of coefficient rows, not the string '12'$"):
            algebra.BiSeries("12", 1)
        with pytest.raises(TypeError, match=r"^each of rows must be a sequence of coefficients, not the string '12'$"):
            algebra.BiSeries(["12", "3"], 1)
        bi = algebra.BiSeries([["12"], ["3"]], 1)
        assert [bi.coeff(i, j).coeffs for i, j in ((0, 0), (0, 1), (1, 0))] == [(12,), (), (3,)]

    def test_square_substitution(self):
        t2 = TSeries.monomial(1, 2, 2)
        bi = t2.subst_pm(+1)
        assert type(bi) is algebra.BiSeries
        assert bi.coeff(2, 0) == XPoly((1,))
        assert bi.coeff(1, 1) == XPoly((2,))
        assert bi.coeff(0, 2) == XPoly((1,))

    def test_odd_series_lowest_block(self, s_ref):
        bi = s_ref.truncate(1).subst_pm(-1)
        assert bi.coeff(1, 0) == XPoly((1,))
        assert bi.coeff(0, 1) == XPoly((-1,))

    def test_product_slot_consistency(self, b_ref, s_ref):
        # [u^2 v^2] of B(u+v) B(u-v) equals the slot of B^2(u)B^2(v) - S^2(u)S^2(v);
        # frozen value -1 forced by the v^2-extraction of the product identity
        m = 8
        bt = b_ref.truncate(m)
        st_ = s_ref.truncate(m)
        lhs = bt.subst_pm(+1) * bt.subst_pm(-1)
        b2, s2 = bt * bt, st_ * st_
        rhs = as_biseries(b2, "u", m) * as_biseries(b2, "v", m)
        rhs = rhs - as_biseries(s2, "u", m) * as_biseries(s2, "v", m)
        assert lhs.coeff(2, 2) == XPoly((-1,))
        assert rhs.coeff(2, 2) == XPoly((-1,))
        assert first_difference_uv(lhs, rhs) is None

    @given(tseries(max_len=4), tseries(max_len=4))
    def test_substitution_respects_products(self, a, b):
        assume(a.order >= 0 and b.order >= 0)
        prod = a * b
        assume(prod.order >= 0)
        direct = prod.subst_pm(+1)
        split = a.subst_pm(+1) * b.subst_pm(+1)
        assert first_difference_uv(direct, split) is None

    @given(
        st.integers(1, 3),
        st.lists(st.lists(rationals, max_size=3).map(XPoly), max_size=13),
        st.integers(0, 12),
        st.sampled_from([1, -1]),
    )
    @example(1, [XPoly((F(1, 2), F(-1, 3))), XPoly((2,))], 12, -1)
    def test_the_signed_re_index_matches_the_binomial_expansion(self, val, coeffs, order, sign):
        a = TSeries(val, coeffs, order)
        assert _biseries_slots(a.subst_pm(sign)) == _biseries_slots(binomial_subst_pm(a, sign))

    @pytest.mark.parametrize("name", ["b", "s", "b2", "ws1"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_signed_re_index_matches_the_binomial_expansion_on_the_set(self, name, sign):
        f = getattr(blowup.series_set(33), name)
        assert _biseries_slots(f.subst_pm(sign)) == _biseries_slots(binomial_subst_pm(f, sign))

    @pytest.mark.parametrize(
        "series, sign, text",
        [(TSeries.zero(3), 2, "sign must be +1 or -1"), (TSeries.zero(-1), 1, "total-degree order must be >= 0")],
        ids=["sign", "order"],
    )
    def test_subst_pm_refusals_keep_their_texts(self, series, sign, text):
        with pytest.raises(SeriesError) as caught:
            series.subst_pm(sign)
        assert str(caught.value) == text


def _biseries_slots(bi: algebra.BiSeries) -> tuple:
    """The order and every coefficient tuple of a bivariate series, row by row."""
    return bi.order, [[bi.coeff(i, j).coeffs for j in range(bi.order - i + 1)] for i in range(bi.order + 1)]


# ---------------------------------------------------------------------------
# order soundness: no route claims an order its inputs do not support

#: a kernel entry of ``Fraction``s
_entry = st.lists(rationals, max_size=3).map(hurwitz.clean)


@st.composite
def known_and_extended(draw, head=st.integers(0, 3).map(lambda v: [[]] * v), max_order=8):
    """A series whose kernel vector starts with the entries ``head`` draws,
    and the same series known further: random entries past its order."""
    first = draw(head)
    order = draw(st.integers(len(first) - 1, max_order))
    h = first + draw(st.lists(_entry, min_size=order + 1 - len(first), max_size=order + 1 - len(first)))
    extra = draw(st.lists(_entry, min_size=1, max_size=4))
    return TSeries.from_kernel(h, order), TSeries.from_kernel(h + extra, order + len(extra))


def parity_entry(n: int, weight: int, values) -> list:
    """The kernel entry at t^n that holds ``values`` at the x-powers k the
    parity rule n + 2k = weight (mod 4) allows, ascending: the rule of B
    (weight 0) and of S (weight 1)."""
    if (n - weight) % 2:
        return []
    p = [0] * ((weight - n) // 2 % 2)  # the least k the rule allows
    for v in values:
        p += [v, 0]
    return hurwitz.clean(p)


def parity_extended(h: list, weight: int, order: int, more) -> tuple:
    """The series of the entries ``h`` through ``order``, and the same series
    known further: one entry past ``order`` that keeps the parity rule per
    item of ``more``."""
    extra = [parity_entry(n, weight, values) for n, values in enumerate(more, order + 1)]
    return TSeries.from_kernel(h, order), TSeries.from_kernel([*h[: order + 1], *extra], order + len(extra))


#: the values of entries that keep the parity rule
_parity_values = st.lists(st.lists(rationals, max_size=3), max_size=9)
_more = st.lists(st.lists(rationals, max_size=3), min_size=1, max_size=4)


def assert_sound(route, *pairs) -> None:
    """``route`` gives the same outputs, through the orders it claims, on the
    inputs as they are known and on the same inputs known further."""
    claimed = route(*(known for known, _ in pairs))
    further = route(*(extended for _, extended in pairs))
    for out, more in zip(claimed, further):
        assert more.order >= out.order
        if isinstance(out, TSeries):
            assert first_difference(out, more, through=out.order) is None
        else:
            assert first_difference_uv(out, more, through=out.order) is None


_unit_head = st.fractions(min_value=-8, max_value=8, max_denominator=12).filter(bool).map(lambda c: [hurwitz.clean([c])])


class TestOrderSoundness:
    """Each input is extended past its order with random entries; no output
    may change through the order it claims."""

    @given(known_and_extended(), known_and_extended())
    def test_ring_operations(self, a, b):
        assert_sound(lambda f, g: (f * g, f + g, f - g, f * f), a, b)

    @given(known_and_extended(), st.integers(-3, 3) | rationals | xpolys)
    def test_a_product_with_a_coefficient(self, a, c):
        assert_sound(lambda f: (f * c, c * f), a)

    @given(known_and_extended(max_order=6).filter(lambda pair: pair[0].order >= 0))
    def test_subst_pm_by_total_degree(self, a):
        assert_sound(lambda f: (f.subst_pm(1), f.subst_pm(-1)), a)

    @given(known_and_extended(), rationals)
    def test_calculus(self, a, c):
        assert_sound(lambda f: (f.derivative(), f.integrate(), f.scale_arg(c), -f), a)

    @given(known_and_extended(head=_unit_head))
    def test_recip(self, a):
        assert_sound(lambda f: (f.recip(),), a)

    @given(known_and_extended(head=st.just([[]])), known_and_extended(head=st.just([[1]])))
    def test_exp_and_sqrt(self, a, b):
        assert_sound(lambda f: (f.exp(),), a)
        assert_sound(lambda f: (f.sqrt(),), b)

    @given(_parity_values, _parity_values, _more, _more)
    def test_exponential_pair(self, b_values, s_values, b_more, s_more):
        """On random pairs that keep the parity rule, with B(0) = 1."""
        b = [[1]] + [parity_entry(n, 0, values) for n, values in enumerate(b_values, 1)]
        s = [parity_entry(n, 1, values) for n, values in enumerate(s_values)]
        pairs = parity_extended(b, 0, len(b) - 1, b_more), parity_extended(s, 1, len(s) - 1, s_more)
        assert_sound(derived.exponential_pair, *pairs)

    @given(st.integers(2, 24), st.integers(2, 24), _more, _more)
    def test_odd_case_pair(self, b_order, s_order, b_more, s_more):
        """On the generated pair cut at its orders, whose low entries fix the
        pole that the guard asks for, extended by the parity rule."""
        generated = blowup.series_set(25)
        pairs = parity_extended(generated.b.h, 0, b_order, b_more), parity_extended(generated.s.h, 1, s_order, s_more)
        assert_sound(derived.odd_case_pair, *pairs)


#: the derived-group constructions the benchmark tracer binds from ``blowup``
_TRACED_CONSTRUCTIONS = ("derived_products", "exponential_pair", "odd_case_pair", "series_content_hash")


class TestLazyBivariateNames:
    """``series`` and ``blowup`` serve the three plain bivariate names the
    benchmark tracer binds from them, which live in ``algebra``, ``blowup``
    the four derived-group constructions it binds, and no other name."""

    @pytest.mark.parametrize(
        "module, name",
        [(series, "BiSeries"), (series, "first_difference_uv"), (blowup, "bb_sides")],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_a_tracer_bound_name_is_algebras_object_and_lands_in_vars(
        self, monkeypatch, module, name
    ):
        monkeypatch.delitem(vars(module), name, raising=False)
        assert getattr(module, name) is getattr(algebra, name)
        assert vars(module)[name] is getattr(algebra, name)

    @pytest.mark.parametrize("name", _TRACED_CONSTRUCTIONS)
    def test_a_tracer_bound_construction_is_deriveds_object_and_lands_in_vars(self, monkeypatch, name):
        monkeypatch.delitem(vars(blowup), name, raising=False)
        assert getattr(blowup, name) is getattr(derived, name)
        assert vars(blowup)[name] is getattr(derived, name)

    @pytest.mark.parametrize(
        "module, name",
        [(series, "nope"), (blowup, "nope"), (series, "bb_sides"), (blowup, "BiSeries"),
         (blowup, "first_difference_uv"), (series, "bb_tables"), (blowup, "bbb_tables"),
         (blowup, "checked_pair"), (blowup, "degeneration_form"), (blowup, "golden_diff"),
         (series, "derived_products")],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_any_other_name_is_missing(self, module, name):
        assert not hasattr(module, name)
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(module, name)

    def test_the_names_import_from_their_old_modules(self):
        from blowup_series.blowup import (
            bb_sides,
            derived_products,
            exponential_pair,
            odd_case_pair,
            series_content_hash,
        )
        from blowup_series.series import BiSeries, first_difference_uv

        assert (BiSeries, first_difference_uv, bb_sides) == (
            algebra.BiSeries,
            algebra.first_difference_uv,
            algebra.bb_sides,
        )
        assert (derived_products, exponential_pair, odd_case_pair, series_content_hash) == tuple(
            getattr(derived, name) for name in _TRACED_CONSTRUCTIONS
        )


class TestSerialization:
    def test_plain_json_round_trip(self, b_ref):
        data = b_ref.to_json()
        assert data["variable"] == "t" and data["normalization"] == "plain"
        assert TSeries.from_json(data) == b_ref

    def test_factorial_json_round_trip(self, s_ref):
        data = s_ref.to_json("factorial")
        assert TSeries.from_json(data) == s_ref

    @given(tseries(), st.sampled_from(["plain", "factorial"]))
    def test_json_round_trip_property(self, a, normalization):
        data = a.to_json(normalization)
        back = TSeries.from_json(data)
        assert back == a
        assert (back.order, back.valuation) == (a.order, a.valuation)
        assert back.to_json(normalization) == data

    @given(
        st.integers(1, 3),
        st.lists(st.lists(st.one_of(st.integers(-50, 50), rationals), max_size=3), min_size=1, max_size=5),
        st.integers(1, 3),
        st.sampled_from(["plain", "factorial"]),
    )
    def test_the_reader_drops_items_past_the_order(self, val, items, extra, normalization):
        """Int and ``Fraction`` entries from a valuation above 0, with more
        items than the order keeps: the reader gives the kernel entries of the
        plain constructor, ints wherever they are integral."""
        longer = TSeries(val, [XPoly(c) for c in items], val + len(items) - 1)
        kept = longer.truncate(longer.order - extra)
        back = TSeries.from_json({**longer.to_json(normalization), "order": kept.order})
        assert (back.h, back.order) == (kept.h, kept.order)
        assert all(type(v) is int or v.denominator != 1 for p in back.h for v in p)

    @pytest.mark.parametrize("normalization", ["plain", "factorial"])
    @pytest.mark.parametrize("literal, text", [(3, "not a rational literal: 3"), ("1.5", "not a rational literal: '1.5'")])
    def test_a_bad_literal_is_named(self, normalization, literal, text):
        data = {**TSeries.monomial(1, 1, 3).to_json(normalization), "coeffs": [["1"], ["2", literal]]}
        with pytest.raises(ValueError) as caught:
            TSeries.from_json(data)
        assert str(caught.value) == text

    @pytest.mark.parametrize("normalization", ["plain", "factorial"])
    def test_a_bad_literal_past_the_order_is_named(self, normalization):
        """Items past the order are dropped, but each literal is still read."""
        data = {**TSeries.monomial(1, 1, 3).to_json(normalization), "coeffs": [["1"], [], [], [], ["2", "1.5"]]}
        with pytest.raises(ValueError) as caught:
            TSeries.from_json(data)
        assert str(caught.value) == "not a rational literal: '1.5'"

    @pytest.mark.parametrize(
        "change",
        [
            {"order": 3.9},
            {"order": True},
            {"order": "3"},
            {"valuation": "0"},
            {"valuation": False},
            {"valuation": 0.0},
            {"coeffs": "12"},
            {"coeffs": ["1"]},
        ],
    )
    def test_from_json_refuses_non_integer_fields(self, change):
        data = {**TSeries.monomial(1, 1, 3).to_json(), **change}
        with pytest.raises(ValueError):
            TSeries.from_json(data)

    @pytest.mark.parametrize("field", ["valuation", "order", "coeffs"])
    def test_from_json_missing_field_is_a_value_error(self, field):
        data = TSeries.monomial(1, 1, 3).to_json()
        del data[field]
        with pytest.raises(ValueError, match=field):
            TSeries.from_json(data)

    def test_from_json_refuses_a_non_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            TSeries.from_json(["not", "an", "object"])


class TestScalarReferenceSeries:
    def test_pythagorean_identities(self):
        n = 12
        c, s = cosh_series(n), sinh_series(n)
        assert c * c - s * s == TSeries.monomial(1, 0, n)
        c, s = cos_series(n), sin_series(n)
        assert c * c + s * s == TSeries.monomial(1, 0, n)

    def test_gaussian_inverse(self):
        n = 10
        assert exp_t_squared(-1, n) * exp_t_squared(1, n) == TSeries.monomial(1, 0, n)
