import json
import math
import random
import sys
from fractions import Fraction as F

import pytest
from helpers_oracles import (
    EVAL_FORMULAS,
    WRITES,
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

from blowup_series import cli, series_set
from blowup_series.algebra import XPoly, parse_rational
from blowup_series.cli import main
from blowup_series.hurwitz import clean
from blowup_series.pairing import (
    InsufficientMomentsError,
    MomentFunctional,
    _plain,
    _set_split,
    _sums,
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

    def test_values_are_kept_as_their_reduced_pairs(self):
        """A functional made from values stores only their reduced pairs, and
        forms its ``Fraction``s from them when ``moments`` is first read."""
        mu = MomentFunctional("m", (F(1, 3), F(-2), 5, "4/6"))
        assert mu.pairs == ((1, 3), (-2, 1), (5, 1), (2, 3)) and "moments" not in vars(mu)
        assert mu.moments == (F(1, 3), F(-2), F(5), F(2, 3)) and all(type(m) is F for m in mu.moments)

    def test_a_string_of_moments_is_refused(self):
        """A string is not read one character at a time: ``MomentFunctional("a", "12")``
        once had the moments 1 and 2."""
        with pytest.raises(TypeError, match=r"^moments must be a sequence of scalars, not the string '12'$"):
            MomentFunctional("a", "12")
        assert MomentFunctional("a", ["12"]).pairs == ((12, 1),)

    def test_functionals_compare_and_hash_by_label_and_moments(self):
        mu = MomentFunctional("m", [1, F(1, 2)])
        assert mu == MomentFunctional("m", (F(1), F(1, 2))) and mu != MomentFunctional("n", mu.moments)
        assert mu != MomentFunctional("m", (F(1),)) and mu != ("m", mu.moments)
        assert hash(mu) == hash(("m", (F(1), F(1, 2))))
        assert len({mu, MomentFunctional("m", mu.moments)}) == 1

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("name", ["label", "moments", "pairs", "other"])
    def test_a_functional_is_read_only(self, name, write):
        read = MomentFunctional.from_json({"label": "unit", "moments": ["1"] * MOMENTS})
        for mu in (UNIT, read):
            with pytest.raises(AttributeError, match=f"^cannot {write} field '{name}'$"):
                WRITES[write](mu, name)
        assert UNIT == MomentFunctional("unit", (F(1),) * MOMENTS) == read
        assert hash(UNIT) == hash(read)

    @given(st.lists(st.tuples(st.integers(-(2**70), 2**70), st.integers(1, 2**70), st.booleans())))
    @example([(2, 4, False), (-3, 1, True), (-3, 1, False), (0, 7, False), (6, 3, False)])
    def test_json_moments_are_the_reduced_literals(self, drawn):
        """``pairs`` holds each literal's own pair; ``moments``, formed when
        first read, holds its reduced ``Fraction``."""
        texts = [str(p) if bare else f"{p}/{q}" for p, q, bare in drawn]
        mu = MomentFunctional.from_json({"label": "m", "moments": texts})
        assert mu.pairs == tuple((p, 1 if bare else q) for p, q, bare in drawn)
        assert "moments" not in vars(mu)
        assert mu.moments == tuple(parse_rational(t) for t in texts)
        assert all(type(m) is F and m == F(*pair) for m, pair in zip(mu.moments, mu.pairs))

    def test_equal_values_make_equal_functionals(self):
        """Unreduced and reduced literals, and ``Fraction``s, of equal values compare and hash alike."""
        read = [MomentFunctional.from_json({"label": "m", "moments": [t, "3"]}) for t in ("2/4", "1/2")]
        made = MomentFunctional("m", (F(1, 2), 3))
        assert read[0] == read[1] == made and hash(read[0]) == hash(read[1]) == hash(made)
        assert len({*read, made}) == 1
        assert read[0] != MomentFunctional.from_json({"label": "m", "moments": ["2/4", "4"]})

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
        got = _EVALUATORS[formula](mu, nu, order).series
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
            _EVALUATORS[formula](mu, nu, ORDER)
        with pytest.raises(InsufficientMomentsError) as want:
            reference_eval(formula, set17, mu, nu, ORDER)
        assert str(got.value) == str(want.value)
        assert got.value.required == want.value.required
        assert repr("second" if short == "second" else "first") in str(got.value)



@st.composite
def shared_moments(draw, order: int) -> "tuple[tuple, tuple]":
    """Two functionals of order + 1 moments whose denominators come from one
    small pool, so that they share factors within and across the two; the
    numerators are signed, and zero moments are drawn too."""
    pool = draw(st.lists(st.integers(1, 36) | st.integers(1, 2**70), min_size=1, max_size=3))
    moment = st.just(F(0)) | st.builds(F, st.integers(-(2**80), 2**80), st.sampled_from(pool))
    moments = st.lists(moment, min_size=order + 1, max_size=order + 1)
    return tuple(draw(moments)), tuple(draw(moments))


def plain_sum(p: list, moments: tuple, n: int) -> F:
    """sum_k c_k mu_k for the plain coefficients c_k = p[k] / n! of a kernel entry."""
    return sum((F(c, math.factorial(n)) * moments[k] for k, c in enumerate(p)), F(0))


class TestFusedPass:
    """Each entry's one integer pass against sums of plain ``Fraction`` terms."""

    @given(st.data())
    def test_formulas_equal_the_plain_sums(self, data):
        order = data.draw(st.integers(0, 40), label="order")
        formula = data.draw(st.sampled_from(sorted(_EVALUATORS)), label="formula")
        mu, nu = data.draw(shared_moments(order), label="moments")
        st41 = series_set(41)
        first, second, factor = EVAL_FORMULAS[formula]
        want = [
            plain_sum(getattr(st41, first).h[n], mu, n) + factor * plain_sum(getattr(st41, second).h[n], nu, n)
            for n in range(order + 1)
        ]
        got = _EVALUATORS[formula](MomentFunctional("mu", mu), MomentFunctional("nu", nu), order)
        assert got.coeffs == tuple((w.numerator, w.denominator) for w in want)

    @given(st.data())
    def test_pair_equals_the_plain_sums(self, data):
        order = data.draw(st.integers(0, 40), label="order")
        name = data.draw(st.sampled_from(["b2", "s2", "wronskian", "bs"]), label="series")
        mu, _ = data.draw(shared_moments(order), label="moments")
        f = getattr(series_set(41), name).truncate(order)
        got = pair(f, MomentFunctional("mu", mu))
        assert [got.coeff(n) for n in range(order + 1)] == [
            XPoly((plain_sum(f.h[n], mu, n),)) for n in range(order + 1)
        ]

    @given(st.data())
    def test_a_short_functional_is_named_at_its_first_uncovered_entry(self, data):
        """The first functional is checked first, each in ascending t-powers."""
        order = data.draw(st.integers(0, 40), label="order")
        formula = data.draw(st.sampled_from(sorted(_EVALUATORS)), label="formula")
        lengths = data.draw(st.tuples(st.integers(0, order + 1), st.integers(0, order + 1)), label="lengths")
        st41 = series_set(41)
        expected = None
        for label, name, length in zip(("first", "second"), EVAL_FORMULAS[formula], lengths):
            need = next((len(p) for p in getattr(st41, name).h[: order + 1] if len(p) > length), None)
            if need is not None:
                expected = InsufficientMomentsError(label, length, need)
                break
        mu, nu = (MomentFunctional(label, (F(1),) * n) for label, n in zip(("first", "second"), lengths))
        if expected is None:
            _EVALUATORS[formula](mu, nu, order)
            return
        with pytest.raises(InsufficientMomentsError) as err:
            _EVALUATORS[formula](mu, nu, order)
        assert (str(err.value), err.value.required) == (str(expected), expected.required)


#: moment denominators a^k for the first functional and b^k for the second:
#: coprime, and 6^k against 15^k, which share 3^k
_BASES = {"coprime": (3, 5), "shared": (6, 15)}


def _powers_moments(base: int, order: int) -> list:
    return [F((-1) ** k * (base * k + 1), base**k) for k in range(order + 1)]


#: an unreduced pair of ints, the denominator positive
_PAIR = st.tuples(st.integers(-(2**80), 2**80) | st.integers(-9, 9), st.integers(1, 2**80) | st.integers(1, 36))
_ZEROS = [((0, 1), (0, 1))] * 3


class TestCrossGcd:
    """The sum of the two functionals' pairs, each coefficient reduced by one
    gcd, end to end over both kinds of moment denominators: coprime ones, where
    no entry's two denominators share a factor, and shared ones, where some
    entry's do."""

    @given(st.lists(st.tuples(_PAIR, _PAIR), min_size=1, max_size=8))
    @example([((1, 2), (-2, 4))])  # a zero sum
    @example([((1, 6), (1, 10))])  # a factor shared by da and db
    @example(_ZEROS + [((6, 1), (12, 1))])  # a factor shared with 3!
    @example(_ZEROS + [((9, 12), (0, 1))])  # a (0, 1) side, the mainb shape
    def test_plain_equals_the_fraction_sum_over_n_factorial(self, sums):
        want = [(F(*a) + F(*b)) / math.factorial(n) for n, (a, b) in enumerate(sums)]
        got = _plain([a for a, _ in sums], [b for _, b in sums])
        assert got == tuple((w.numerator, w.denominator) for w in want)

    @pytest.mark.parametrize("formula", sorted(_EVALUATORS))
    @pytest.mark.parametrize("order", [12, 40])
    @pytest.mark.parametrize("kind", sorted(_BASES))
    def test_formulas_equal_the_fraction_reference(self, formula, order, kind):
        a, b = _BASES[kind]
        functionals = tuple(MomentFunctional(n, _powers_moments(base, order)) for n, base in (("mu", a), ("nu", b)))
        st41 = series_set(41)
        first, second, factor = EVAL_FORMULAS[formula]
        halves = (
            _sums(getattr(st41, first).h, functionals[0], order),
            _sums(getattr(st41, second).h, functionals[1], order, factor.denominator),
        )
        shared = any(math.gcd(da, db) != 1 for (_, da), (_, db) in zip(*halves))
        # BS' - B'S is even in t and BS odd, so one side of each mainb entry is 0/1
        assert shared == (kind == "shared" and formula != "mainb")
        got = _EVALUATORS[formula](*functionals, order)
        want = reference_eval(formula, st41, *functionals, order).to_json()
        assert got.to_json() == {**want, "provenance": formula}
        # the same values as unreduced literals
        texts = [{"label": f.label, "moments": [f"{7 * p}/{7 * q}" for p, q in f.pairs]} for f in functionals]
        assert _EVALUATORS[formula](*map(MomentFunctional.from_json, texts), order).coeffs == got.coeffs

    @pytest.mark.parametrize("kind", sorted(_BASES))
    def test_pair_on_fractional_entries(self, kind):
        """``pair`` on a series whose entries have ``Fraction`` coefficients."""
        a, b = _BASES[kind]
        f = TSeries(0, [XPoly((F(1, b), F(-5, a * b))), XPoly(()), XPoly((0, F(2, 3), F(9, b**2)))], 2)
        mu = MomentFunctional.from_json({"label": "mu", "moments": [f"{k + 1}/{2 * a**k}" for k in range(3)]})
        assert pair(f, mu).to_json() == reference_pair(f, mu).to_json()


#: a kernel scalar: an int, small or wide, or a Fraction
_SCALAR = st.integers(-50, 50) | st.integers(-(2**70), 2**70) | st.fractions(-50, 50, max_denominator=12)
#: a clean kernel entry whose x-powers may be of both parities
_ENTRY = st.lists(_SCALAR, max_size=7).map(clean)


def _inverses(length: int) -> list:
    return [F(1, k + 1) for k in range(length)]


class TestParityChains:
    """Each x-parity part of an entry paired over the prefix denominators of
    the moments of its own parity, against the Fraction reference."""

    @pytest.mark.parametrize("name, residue", [("b2", 0), ("s2", 2), ("wronskian", 0), ("bs", 1)])
    def test_no_entry_of_the_eval_series_mixes_x_parities(self, name, residue):
        """[FS]'s parity rule: entry n holds only x^k with n + 2k = residue (mod 4)."""
        for n, p in enumerate(getattr(series_set(41), name).h):
            assert all((n + 2 * k) % 4 == residue for k, c in enumerate(p) if c), (name, n)

    @given(
        st.lists(_ENTRY, min_size=1, max_size=6),
        st.lists(_MOMENT, min_size=7, max_size=8),
        st.sampled_from([1, 2]),
    )
    @example([[1, 2, 3], [0, 5, F(1, 2), 7]], [F(1, 2), F(1, 3), F(1, 5), F(-3, 4)], 1)  # both parities
    @example([[F(1, 3), 0, F(5, 7)], [0, F(-2, 9)], [F(1, 2), F(1, 4)]], [F(2, 5), F(7), F(-1, 6)], 2)  # Fractions
    @example([[1, 1, 1], [2, 0, 2], [0, 3, 0, 3], [1, 3, 1, 3]], [F(1), F(2, 3), F(-1), F(-2, 3)], 1)  # a part is 0
    def test_sums_and_pair_equal_the_fraction_reference(self, h, moments, scale):
        order = len(h) - 1
        mu = MomentFunctional("mu", moments)
        want = [value_on(mu, XPoly(p)) / scale for p in h]
        got = _sums(h, mu, order, scale)
        assert [F(*p) for p in got] == want
        assert all(type(n) is int and type(d) is int and d > 0 for n, d in got)
        f = TSeries.from_kernel(h, order)
        assert pair(f, mu).to_json() == reference_pair(f, mu).to_json()

    @given(
        st.integers(0, 40),
        st.sampled_from(sorted(_EVALUATORS)),
        st.lists(_MOMENT, min_size=41, max_size=41),
        st.lists(_MOMENT, min_size=41, max_size=41),
        st.sampled_from([None, 0, 1]),
    )
    @example(12, "maina", _inverses(41), _inverses(41), 0)
    @example(12, "main-prime", _inverses(41), _inverses(41), 1)
    @example(13, "mainb", _inverses(41), _inverses(41), 1)
    def test_formulas_equal_the_fraction_reference_where_a_parity_pairs_to_0(self, order, formula, mu, nu, zero):
        """The moments of parity ``zero`` are 0, so each entry of that parity
        pairs to 0.  The formulas' entries each have one part (the test above)."""
        if zero is not None:
            mu, nu = ([F(0) if k % 2 == zero else m for k, m in enumerate(v)] for v in (mu, nu))
        mu, nu = MomentFunctional("mu", mu), MomentFunctional("nu", nu)
        got = _EVALUATORS[formula](mu, nu, order).series
        assert got.to_json() == reference_eval(formula, series_set(41), mu, nu, order).to_json()

    def test_each_series_is_split_once_per_set(self):
        _set_split.cache_clear()
        mu = MomentFunctional("mu", (F(1),) * 13)
        for _ in range(3):
            for evaluate in _EVALUATORS.values():
                evaluate(mu, mu, 12)
        info = _set_split.cache_info()
        assert (info.misses, info.hits) == (4, 14)


def test_in_a_set_built_at_n_only_ws0_and_the_wronskian_fall_short():
    """The set built at 10 knows ws0 and the Wronskian through t^9 and every
    other series through t^10 or further: ``gen`` guards exactly the selectors
    whose series fall short, and the formulas read a set one order higher."""
    st10 = series_set(10)
    names = ("b", "s", "b2", "s2", "bs", "wronskian", "b_plus", "b_minus", "b0", "btau", "ws0", "ws1")
    orders = {name: getattr(st10, name).order for name in names}
    assert {name: n for name, n in orders.items() if n < 10} == {"ws0": 9, "wronskian": 9}
    assert cli._GUARDED == {sel for sel, name in cli.SELECTORS.items() if orders[name] < 10}


def test_a_result_past_the_digit_limit_is_one_line_and_exit_2(capsys, tmp_path):
    """1024-bit moments over 21 distinct odd denominators: the t^40 entry
    needs more digits than int -> str converts."""
    moments = {"label": "m", "moments": [f"1/{2**1024 + 2 * k + 1}" for k in range(21)]}
    request = tmp_path / "request.json"
    request.write_text(json.dumps({"parity": "even", "order": 40, "functionals": {"mu_c": moments, "mu_ctau": moments}}))
    assert main(["eval", str(request)]) == 2
    out, err = capsys.readouterr()
    limit = sys.get_int_max_str_digits()
    assert (out, err) == (
        "",
        f"eval: a result coefficient exceeds the limit of {limit} digits for integer string conversion\n",
    )

class TestEvaluationFormulas:
    def test_even_with_vanishing_second_functional(self, set17):
        result = eval_even(UNIT, ZERO, ORDER)
        assert result.provenance == "maina"
        assert first_difference(result.series, pair(set17.b2.truncate(ORDER), UNIT)) is None

    def test_even_geometric_reproduces_hyperbolic_forms(self):
        a, b = F(3), F(-5, 2)
        result = eval_even(geometric(a), geometric(b), ORDER)
        envelope = exp_t_squared(-1, ORDER)
        cosh, sinh = cosh_series(ORDER), sinh_series(ORDER)
        reference = envelope * (cosh * cosh * a + sinh * sinh * b)
        assert first_difference(result.series, reference, through=ORDER) is None

    def test_even_t2_coefficient_doubles_the_second_functional(self):
        result = eval_even(ZERO, UNIT, ORDER)
        assert result.series.coeff(2, normalized=True) == XPoly((2,))

    def test_main_prime_consistency(self):
        mu = geometric(F(7, 3))
        mup = MomentFunctional("mu'", tuple(F(k + 1, 2) for k in range(MOMENTS)))
        direct = eval_even(mu, mup, ORDER)
        primed = eval_even_main_prime(mu, mup.scaled(2), ORDER)
        assert primed.provenance == "main-prime"
        assert first_difference(direct.series, primed.series) is None

    def test_main_prime_with_zero_insertion(self, set17):
        result = eval_even_main_prime(UNIT, ZERO, ORDER)
        assert first_difference(result.series, pair(set17.b2.truncate(ORDER), UNIT)) is None

    def test_main_prime_t4_reproduces_the_quartic_relation(self):
        """Frozen: with unit moments the normalized t^4 coefficient is
        -4 mu_0 - 4 nu_1 = -8, the quartic evaluation relation."""
        result = eval_even_main_prime(UNIT, UNIT, ORDER)
        assert result.series.coeff(4, normalized=True) == XPoly((-8,))

    def test_odd_with_geometric_first_functional(self):
        a = F(5, 4)
        result = eval_odd(geometric(a), ZERO, ORDER)
        assert result.provenance == "mainb"
        assert first_difference(
            result.series, exp_t_squared(-1, ORDER) * a, through=ORDER
        ) is None

    def test_odd_with_geometric_insertion(self):
        d = F(-7, 2)
        result = eval_odd(ZERO, geometric(d), ORDER)
        reference = exp_t_squared(-1, ORDER) * (
            sinh_series(ORDER).scale_arg(2) * F(1, 2) * d
        )
        assert first_difference(result.series, reference, through=ORDER) is None

    def test_odd_linear_term_is_the_inserted_zeroth_moment(self):
        nu = MomentFunctional("nu", (F(9, 7),) + (F(3),) * (MOMENTS - 1))
        result = eval_odd(ZERO, nu, ORDER)
        assert result.series.coeff(1) == XPoly((F(9, 7),))

    def test_linearity(self):
        rng = random.Random(77)
        for _ in range(20):
            alpha = F(rng.randint(-9, 9), rng.randint(1, 5))
            beta = F(rng.randint(-9, 9), rng.randint(1, 5))
            m1 = MomentFunctional("m1", tuple(F(rng.randint(-9, 9)) for _ in range(MOMENTS)))
            m2 = MomentFunctional("m2", tuple(F(rng.randint(-9, 9)) for _ in range(MOMENTS)))
            combo = MomentFunctional(
                "combo", tuple(alpha * a + beta * b for a, b in zip(m1.moments, m2.moments))
            )
            lhs = eval_even(combo, ZERO, 12).series
            rhs = (
                eval_even(m1, ZERO, 12).series * alpha
                + eval_even(m2, ZERO, 12).series * beta
            )
            assert first_difference(lhs, rhs) is None

    def test_moment_requirements_propagate(self):
        short = MomentFunctional("short", (F(1), F(1)))
        with pytest.raises(InsufficientMomentsError):
            eval_even(short, short, ORDER)


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

    def test_matches_moment_route_on_geometric_data(self):
        a, b = F(2, 3), F(-1, 4)
        closed = eval_simple_type(a, b, 0, "even", ORDER)
        moments = eval_even(geometric(a), geometric(b), ORDER)
        assert first_difference(closed.series, moments.series) is None

        a, d = F(5), F(7, 2)
        closed_odd = eval_simple_type(a, 0, d, "odd", ORDER)
        moments_odd = eval_odd(geometric(a), geometric(d), ORDER)
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
