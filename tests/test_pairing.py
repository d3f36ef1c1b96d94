import json
import random
from fractions import Fraction as F

import pytest
from helpers_oracles import (
    cosh_series,
    eval_x,
    exp_t_squared,
    reference_eval,
    reference_pair,
    simple_type_form,
    sinh_series,
    value_on,
)
from hypothesis import example, given
from hypothesis import strategies as st

from blowup_series import series_set
from blowup_series.algebra import XPoly
from blowup_series.pairing import (
    InsufficientMomentsError,
    MomentFunctional,
    eval_even,
    eval_even_main_prime,
    eval_odd,
    eval_simple_type,
    pair,
)
from blowup_series.series import TSeries, first_difference

ORDER = 16
MOMENTS = 24


def geometric(scale, ratio=2, label="mu"):
    return MomentFunctional.geometric(label, scale, ratio, MOMENTS)


ZERO = MomentFunctional.zero("zero", MOMENTS)
UNIT = MomentFunctional("unit", (F(1),) * MOMENTS)


class TestMomentFunctional:
    def test_value_on_polynomials(self):
        """Pairing a t-free series applies the functional to its one polynomial."""
        mu = MomentFunctional("m", (F(1), F(2), F(4)))
        assert pair(TSeries.monomial(XPoly((3, 0, 1)), 0, 0), mu).coeff(0) == XPoly((3 + 4,))
        assert pair(TSeries.zero(0), mu).is_zero
        assert value_on(mu, XPoly((3, 0, 1))) == 3 + 4

    def test_insufficient_moments_names_required_length(self):
        mu = MomentFunctional("short", (F(1),))
        with pytest.raises(InsufficientMomentsError) as err:
            pair(TSeries.monomial(XPoly((0, 0, 0, 5)), 0, 0), mu)
        assert err.value.required == 4
        assert "4" in str(err.value)

    def test_fraction_moments_are_kept_as_given(self):
        moments = (F(1, 3), F(-2))
        mu = MomentFunctional("m", moments + (5,))
        assert all(a is b for a, b in zip(mu.moments, moments))
        assert mu.moments[2] == F(5) and type(mu.moments[2]) is F

    def test_functionals_compare_and_hash_by_label_and_moments(self):
        mu = MomentFunctional("m", [1, F(1, 2)])
        assert mu == MomentFunctional("m", (F(1), F(1, 2))) and mu != MomentFunctional("n", mu.moments)
        assert mu != MomentFunctional("m", (F(1),)) and mu != ("m", mu.moments)
        assert hash(mu) == hash(("m", (F(1), F(1, 2))))
        assert len({mu, MomentFunctional("m", mu.moments)}) == 1

    @pytest.mark.parametrize("name", ["label", "moments", "other"])
    def test_a_functional_is_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(UNIT, name, None)
        assert UNIT == MomentFunctional("unit", (F(1),) * MOMENTS)

    @given(st.text(), st.lists(st.fractions() | st.integers()))
    @example("D_c", [F(1), F(-2, 3)])
    def test_json_round_trip(self, label, moments):
        """Through the JSON text and back, labels and moments come back as they were."""
        mu = MomentFunctional(label, tuple(moments))
        again = MomentFunctional.from_json(json.loads(json.dumps(mu.to_json())))
        assert again == mu and again.to_json() == mu.to_json()

    def test_json_validation(self):
        with pytest.raises(ValueError):
            MomentFunctional.from_json({"label": "x"})
        with pytest.raises(ValueError):
            MomentFunctional.from_json({"label": "x", "moments": ["1.5"]})


class TestPair:
    def test_zero_moments_annihilate(self, set17):
        result = pair(set17.b2.truncate(ORDER), ZERO)
        assert result.is_zero

    def test_geometric_moments_substitute(self, set17):
        """mu_k = 2^k pairs b2 into its x -> 2 evaluation, the hyperbolic form."""
        paired = pair(set17.b2.truncate(ORDER), geometric(1))
        assert first_difference(paired, eval_x(set17.b2.truncate(ORDER), 2)) is None
        cosh = cosh_series(ORDER)
        reference = exp_t_squared(-1, ORDER) * cosh * cosh
        assert first_difference(paired, reference, through=ORDER) is None

    def test_unit_first_moment_extracts_x_free_parts(self, set17):
        """Frozen from the table: the x-free parts of B^2 are
        1 - 4 t^4/4! + 272 t^8/8! + 7104 t^12/12! - ..."""
        delta = MomentFunctional("delta", (F(1),) + (F(0),) * (MOMENTS - 1))
        paired = pair(set17.b2.truncate(14), delta)
        assert paired.coeff(0, normalized=True) == XPoly((1,))
        assert paired.coeff(4, normalized=True) == XPoly((-4,))
        assert paired.coeff(6, normalized=True).is_zero
        assert paired.coeff(8, normalized=True) == XPoly((272,))
        assert paired.coeff(12, normalized=True) == XPoly((7104,))

    def test_laurent_input_rejected(self):
        laurent = TSeries.monomial(1, -1, 4)
        with pytest.raises(Exception):
            pair(laurent, ZERO)

    def test_geometric_substitution_law(self, set17):
        rng = random.Random(20260809)
        f = set17.s2.truncate(ORDER)
        for _ in range(40):
            c = F(rng.randint(-20, 20), rng.randint(1, 9))
            r = F(rng.randint(-12, 12), rng.randint(1, 7))
            mu = MomentFunctional.geometric("g", c, r, MOMENTS)
            lhs = pair(f, mu)
            rhs = eval_x(f, r) * c
            assert first_difference(lhs, rhs) is None


#: a moment: zero, or a signed rational whose denominator is drawn from 1 to 2^256
_MOMENT = st.one_of(
    st.just(F(0)),
    st.builds(
        F,
        st.integers(-(2**256), 2**256),
        st.one_of(st.integers(1, 9), st.integers(1, 2**64), st.integers(1, 2**256)),
    ),
)
_EVALUATORS = {"maina": eval_even, "main-prime": eval_even_main_prime, "mainb": eval_odd}


class TestKernelPairing:
    """The kernel dot product against the per-term Fraction reference."""

    @given(st.data())
    def test_formulas_equal_the_fraction_reference(self, data):
        order = data.draw(st.integers(0, 40), label="order")
        formula = data.draw(st.sampled_from(sorted(_EVALUATORS)), label="formula")
        moments = st.lists(_MOMENT, min_size=order + 1, max_size=order + 1)
        mu = MomentFunctional("mu", tuple(data.draw(moments, label="mu")))
        nu = MomentFunctional("nu", tuple(data.draw(moments, label="nu")))
        st41 = series_set(41)
        got = _EVALUATORS[formula](mu, nu, order, series=st41).series
        want = reference_eval(formula, st41, mu, nu, order)
        assert got.to_json() == want.to_json()

    @given(st.data())
    def test_pair_equals_the_fraction_reference(self, data):
        order = data.draw(st.integers(0, 40), label="order")
        name = data.draw(st.sampled_from(["b2", "s2", "wronskian", "bs"]), label="series")
        moments = data.draw(st.lists(_MOMENT, min_size=order + 1, max_size=order + 1))
        mu = MomentFunctional("mu", tuple(moments))
        f = getattr(series_set(41), name).truncate(order)
        assert pair(f, mu).to_json() == reference_pair(f, mu).to_json()

    def test_pair_reads_fractional_entries(self):
        f = TSeries(0, [XPoly((F(1, 3), F(-5, 7))), XPoly(()), XPoly((0, 0, F(9, 4)))], 2)
        mu = MomentFunctional("mu", (F(2, 5), F(7), F(-1, 6)))
        assert pair(f, mu).to_json() == reference_pair(f, mu).to_json()

    @pytest.mark.parametrize("formula", sorted(_EVALUATORS))
    @pytest.mark.parametrize("short", ["first", "second", "both"])
    def test_insufficient_moments_text_matches_the_reference(self, set17, formula, short):
        full = (F(1),) * (ORDER + 1)
        mu = MomentFunctional("first", (F(1), F(2)) if short in ("first", "both") else full)
        nu = MomentFunctional("second", (F(3),) if short in ("second", "both") else full)
        with pytest.raises(InsufficientMomentsError) as got:
            _EVALUATORS[formula](mu, nu, ORDER, series=set17)
        with pytest.raises(InsufficientMomentsError) as want:
            reference_eval(formula, set17, mu, nu, ORDER)
        assert str(got.value) == str(want.value)
        assert got.value.required == want.value.required
        assert repr("second" if short == "second" else "first") in str(got.value)


class TestEvaluationFormulas:
    def test_even_with_vanishing_second_functional(self, set17):
        result = eval_even(UNIT, ZERO, ORDER, series=set17)
        assert result.provenance == "maina"
        assert first_difference(result.series, pair(set17.b2.truncate(ORDER), UNIT)) is None

    def test_even_geometric_reproduces_hyperbolic_forms(self, set17):
        a, b = F(3), F(-5, 2)
        result = eval_even(geometric(a), geometric(b), ORDER, series=set17)
        envelope = exp_t_squared(-1, ORDER)
        cosh, sinh = cosh_series(ORDER), sinh_series(ORDER)
        reference = envelope * (cosh * cosh * a + sinh * sinh * b)
        assert first_difference(result.series, reference, through=ORDER) is None

    def test_even_t2_coefficient_doubles_the_second_functional(self, set17):
        result = eval_even(ZERO, UNIT, ORDER, series=set17)
        assert result.series.coeff(2, normalized=True) == XPoly((2,))

    def test_main_prime_consistency(self, set17):
        mu = geometric(F(7, 3))
        mup = MomentFunctional("mu'", tuple(F(k + 1, 2) for k in range(MOMENTS)))
        direct = eval_even(mu, mup, ORDER, series=set17)
        primed = eval_even_main_prime(mu, mup.scaled(2), ORDER, series=set17)
        assert primed.provenance == "main-prime"
        assert first_difference(direct.series, primed.series) is None

    def test_main_prime_with_zero_insertion(self, set17):
        result = eval_even_main_prime(UNIT, ZERO, ORDER, series=set17)
        assert first_difference(result.series, pair(set17.b2.truncate(ORDER), UNIT)) is None

    def test_main_prime_t4_reproduces_the_quartic_relation(self, set17):
        """Frozen: with unit moments the normalized t^4 coefficient is
        -4 mu_0 - 4 nu_1 = -8, the quartic evaluation relation."""
        result = eval_even_main_prime(UNIT, UNIT, ORDER, series=set17)
        assert result.series.coeff(4, normalized=True) == XPoly((-8,))

    def test_odd_with_geometric_first_functional(self, set17):
        a = F(5, 4)
        result = eval_odd(geometric(a), ZERO, ORDER, series=set17)
        assert result.provenance == "mainb"
        assert first_difference(
            result.series, exp_t_squared(-1, ORDER) * a, through=ORDER
        ) is None

    def test_odd_with_geometric_insertion(self, set17):
        d = F(-7, 2)
        result = eval_odd(ZERO, geometric(d), ORDER, series=set17)
        reference = exp_t_squared(-1, ORDER) * (
            sinh_series(ORDER).scale_arg(2) * F(1, 2) * d
        )
        assert first_difference(result.series, reference, through=ORDER) is None

    def test_odd_linear_term_is_the_inserted_zeroth_moment(self, set17):
        nu = MomentFunctional("nu", (F(9, 7),) + (F(3),) * (MOMENTS - 1))
        result = eval_odd(ZERO, nu, ORDER, series=set17)
        assert result.series.coeff(1) == XPoly((F(9, 7),))

    def test_linearity(self, set17):
        rng = random.Random(77)
        for _ in range(20):
            alpha = F(rng.randint(-9, 9), rng.randint(1, 5))
            beta = F(rng.randint(-9, 9), rng.randint(1, 5))
            m1 = MomentFunctional("m1", tuple(F(rng.randint(-9, 9)) for _ in range(MOMENTS)))
            m2 = MomentFunctional("m2", tuple(F(rng.randint(-9, 9)) for _ in range(MOMENTS)))
            combo = MomentFunctional(
                "combo", tuple(alpha * a + beta * b for a, b in zip(m1.moments, m2.moments))
            )
            lhs = eval_even(combo, ZERO, 12, series=set17).series
            rhs = (
                eval_even(m1, ZERO, 12, series=set17).series * alpha
                + eval_even(m2, ZERO, 12, series=set17).series * beta
            )
            assert first_difference(lhs, rhs) is None

    def test_moment_requirements_propagate(self, set17):
        short = MomentFunctional("short", (F(1), F(1)))
        with pytest.raises(InsufficientMomentsError):
            eval_even(short, short, ORDER, series=set17)


class TestSimpleTypeClosedForms:
    def test_even_frozen_coefficients(self):
        result = eval_simple_type(1, 0, 0, "even", 8)
        assert result.provenance == "corollary-even"
        assert result.series.coeff(4) == XPoly((F(-1, 6),))
        assert result.series.coeff(6) == XPoly((F(2, 45),))

    def test_zero_data_gives_zero(self):
        assert eval_simple_type(0, 0, 0, "even", 8).series.is_zero
        assert eval_simple_type(0, 0, 0, "odd", 8).series.is_zero

    def test_odd_linear_coefficient(self):
        result = eval_simple_type(1, 0, 1, "odd", 8)
        assert result.provenance == "corollary-odd"
        assert result.series.coeff(1) == XPoly((1,))

    def test_matches_moment_route_on_geometric_data(self, set17):
        a, b = F(2, 3), F(-1, 4)
        closed = eval_simple_type(a, b, 0, "even", ORDER)
        moments = eval_even(geometric(a), geometric(b), ORDER, series=set17)
        assert first_difference(closed.series, moments.series) is None

        a, d = F(5), F(7, 2)
        closed_odd = eval_simple_type(a, 0, d, "odd", ORDER)
        moments_odd = eval_odd(geometric(a), geometric(d), ORDER, series=set17)
        assert first_difference(closed_odd.series, moments_odd.series) is None

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            eval_simple_type(1, 0, 0, "sideways", 8)

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 8, 13, 21, 34, 48])
    def test_one_envelope_equals_one_envelope_per_form(self, order):
        """The shared envelope gives what each closed form times its own envelope gives."""

        def per_form(first, second, x, y):
            series = simple_type_form(first, 2, order) * x + simple_type_form(second, 2, order) * y
            return series.truncate(order)

        values = (F(0), F(1), F(-1), F(3, 7), F(-5, 2))
        for a in values:
            for c in values:
                for parity, names in (("even", ("b2", "s2")), ("odd", ("wronskian", "bs"))):
                    got = eval_simple_type(a, c, c, parity, order).series
                    want = per_form(*names, a, c)
                    assert (got.valuation, got.order, got.to_json()) == (
                        want.valuation,
                        want.order,
                        want.to_json(),
                    ), (parity, a, c)


class TestEvalResultJson:
    def test_provenance_travels_with_the_series(self):
        result = eval_simple_type(1, 0, 0, "even", 6)
        data = result.to_json()
        assert data["provenance"] == "corollary-even"
        assert TSeries.from_json(data) == result.series
