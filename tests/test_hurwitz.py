"""The divided-power kernel against the plain-basis reference arithmetic."""
from fractions import Fraction as F

import pytest
from helpers_oracles import (
    e2_residual,
    e4_residual,
    plain_add,
    plain_derivative,
    plain_exp,
    plain_first_difference,
    plain_generate_pair,
    plain_integrate,
    plain_mul,
    plain_recip,
    plain_scale_arg,
    plain_sqrt,
    reference_assemble,
    reference_bb,
    reference_bb_diagonal,
    reference_bb_sides,
    reference_bbb,
    reference_bbb_sides,
    reference_pm_ode,
    three_triple_bbb_tables,
)
from hypothesis import example, given
from hypothesis import strategies as st

from blowup_series import bivariate, hurwitz
from blowup_series.algebra import XPoly, _biseries, bb_sides, first_difference_uv
from blowup_series.bivariate import bb_tables, bbb_tables
from blowup_series.blowup import BlowupSeriesSet, GenerationError, assemble_set, generate_pair
from blowup_series.derived import odd_case_pair
from blowup_series.series import SeriesError, TSeries, first_difference
from blowup_series.verify import CATALOG

# denominators up to 12 make most Hurwitz entries n! [t^n] non-integral
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)
nonzero_rationals = rationals.filter(bool)
xpolys = st.lists(rationals, max_size=4).map(XPoly)
# kernel entries: int and Fraction scalars, zero, the unit, and entries even
# or odd in x as the blow-up pair's are
_entries = st.lists(st.one_of(st.integers(-3, 3), rationals), max_size=6).map(hurwitz.clean)
_parity_entries = st.tuples(_entries, st.integers(0, 1)).map(
    lambda e: hurwitz.clean([v if k % 2 == e[1] else 0 for k, v in enumerate(e[0])])
)
kernel_vectors = st.lists(st.one_of(_entries, _parity_entries, st.just([1]), st.just([0, 1])), max_size=10)


@st.composite
def tseries(draw, min_val=0, max_val=3, max_len=6, lead=None):
    """A series with random valuation; ``lead`` draws its leading coefficient."""
    val = draw(st.integers(min_val, max_val))
    coeffs = draw(st.lists(xpolys, max_size=max_len))
    if lead is not None:
        coeffs = [XPoly((draw(lead),))] + coeffs
    slack = draw(st.integers(0, 2))
    return TSeries(val, coeffs, val + len(coeffs) - 1 + slack)


def same(a: TSeries, b: TSeries) -> bool:
    """Equal valuation, order and every coefficient (plain JSON form)."""
    return a.to_json() == b.to_json()


class TestAgainstPlainReference:
    @given(tseries(), tseries())
    def test_mul(self, a, b):
        assert same(a * b, plain_mul(a, b))
        assert same(a * a, plain_mul(a, a))

    @given(tseries(max_val=0, lead=nonzero_rationals))
    # lead 2/3 (head 3/2) with a Fraction tail that carries x
    @example(TSeries(0, [F(2, 3), XPoly((F(1, 2), F(-1, 3))), XPoly((0, 0, F(5, 7)))], 5))
    @example(TSeries(0, [-1, XPoly((0, 1)), 2, F(1, 3)], 5))  # lead -1
    @example(TSeries(0, [F(2, 3)], 0))  # order 0: the head alone
    def test_recip(self, a):
        assert same(a.recip(), plain_recip(a))

    @given(tseries(min_val=1))
    # known only through t^0: the ODE has no derivative entries to read
    @example(TSeries(1, [], 0))
    def test_exp(self, a):
        assert same(a.exp(), plain_exp(a))

    @given(tseries(min_val=1, max_val=1))
    @example(TSeries(1, [], 0))  # order 0
    # a Fraction tail that carries x: the divisor 2 of each entry is inexact
    @example(TSeries(1, [XPoly((F(1, 2), F(-1, 3))), F(2, 3), XPoly((0, 0, F(5, 7)))], 6))
    def test_sqrt(self, tail):
        a = TSeries.monomial(1, 0, tail.order) + tail
        assert same(a.sqrt(), plain_sqrt(a))

    def test_recip_sqrt_and_exp_are_one_linear_ode_solve_each(self, monkeypatch):
        """The kernel keeps one solver; the series type has no division route of its own."""
        assert not hasattr(hurwitz, "recip") and not hasattr(hurwitz, "sqrt")
        solve, calls = hurwitz.linear_ode, []
        monkeypatch.setattr(hurwitz, "linear_ode", lambda *args: calls.append(args) or solve(*args))
        unit = TSeries(0, [1, XPoly((0, 1)), F(1, 2)], 4)
        tail = TSeries(1, [XPoly((0, 1)), F(1, 2)], 4)
        for op, a in ((TSeries.recip, unit), (TSeries.sqrt, unit), (TSeries.exp, tail)):
            calls.clear()
            op(a)
            assert len(calls) == 1, op.__name__

    @given(tseries(), st.sampled_from((0, 1, -1, 2, -3, F(1, 2), F(-2, 3))))
    def test_shift_calculus_and_scaling(self, a, c):
        """d/dt and the integral are index shifts; t -> ct scales entry n by c^n."""
        assert same(a.integrate(), plain_integrate(a))
        assert same(a.derivative(), plain_derivative(a))
        assert same(a.scale_arg(c), plain_scale_arg(a, c))

    @given(tseries(), tseries())
    def test_sum_and_difference(self, a, b):
        """Entries add at equal indices, and cancelled leading entries move the valuation up."""
        assert same(a + b, plain_add(a, b))
        assert same(a - b, plain_add(a, b, -1))
        assert same(a - a, plain_add(a, a, -1))
        assert same(a * F(1, 2), plain_mul(a, TSeries.monomial(F(1, 2), 0, a.order - a.valuation)))

    @given(tseries(), tseries())
    def test_first_difference_reads_the_plain_slot(self, a, b):
        through = min(a.order, b.order)
        assert first_difference(a, b) == plain_first_difference(a, b, through)
        assert first_difference(a, a + b) == plain_first_difference(a, plain_add(a, b), through)


class TestStorage:
    def test_entries_are_ints_where_integral_and_fractions_elsewhere(self):
        a = TSeries(0, [XPoly((1,)), XPoly(), XPoly((F(1, 2), F(1, 5))), XPoly((F(1, 7),))], 3)
        assert a.h == ((1,), (), (1, F(2, 5)), (F(6, 7),))
        assert type(a.h[2][0]) is int
        assert a.coeff(2) == XPoly((F(1, 2), F(1, 5)))

    def test_blowup_pair_is_integral_in_the_hurwitz_basis(self, set17):
        for name in ("b", "s", "b2", "s2", "bs", "wronskian", "b_plus", "b_minus", "ws0", "ws1"):
            for entry in getattr(set17, name).h:
                assert all(type(v) is int for v in entry), name


class TestRecurrence:
    def test_plain_recurrence_reproduces_the_pair(self):
        order = 24
        b, s = generate_pair(order)
        b_plain, s_plain = plain_generate_pair(order)
        for n in range(order + 1):
            assert b.coeff(n) == b_plain[n], f"b mismatch at t^{n}"
            assert s.coeff(n) == s_plain[n], f"s mismatch at t^{n}"

    @given(
        kernel_vectors,
        st.integers(0, 20),
        st.integers(0, 20),
        st.lists(st.integers(-9, 9), min_size=21, max_size=21),
    )
    # an entry with both x-parities times a Fraction entry, x (odd part 1)
    # squared, and a second sum whose d reaches past the vector
    @example([[1, 2], [0, 1], [F(1, 2), 0, -1]], 2, 7, [1] * 21)
    @example([[3], [0, 1]], 5, 0, list(range(21)))
    def test_stored_pair_products_give_the_symmetric_sum(self, h, d, e, weights):
        """The pair products formed once and summed with weights equal the
        weighted sums that form each product as they add it."""
        parted = [hurwitz.parts(p) for p in h]
        w = weights.__getitem__
        stored = hurwitz.pair_sum((hurwitz.pair_products(parted, d), d, w), (hurwitz.pair_products(parted, e), e, w))
        direct = hurwitz.symmetric_sum(hurwitz.symmetric_sum([], h, d, w), h, e, w)
        assert hurwitz.clean(stored) == hurwitz.clean(direct)

    def test_extracted_relations_vanish_on_plain_coefficients(self):
        order = 20
        b, s = generate_pair(order)
        bc = [b.coeff(n) for n in range(order + 1)]
        sc = [s.coeff(n) for n in range(order + 1)]
        for n in range(order - 3):
            assert e4_residual(bc, sc, n).is_zero, f"(E4) at t^{n}"
        for m in range(order - 1):
            assert e2_residual(bc, sc, m).is_zero, f"(E2) at t^{m}"


#: pairs that the odd-case pole guards refuse, each made from the generated pair
POLE_CORRUPTIONS = [
    # (-B + S')/S has a pole
    lambda b, s: (b, s * 2),
    # S leads with -x t^3/6, not a rational unit
    lambda b, s: (b, s - TSeries.monomial(1, 1, s.order)),
    lambda b, s: (b, TSeries.zero(s.order)),
    # S = 1 + t + ...: (B + S')/S has no pole at all
    lambda b, s: (b, s + TSeries.monomial(1, 0, s.order)),
    # B + S' = 2 + 2t + ..., S = t + t^2/2 + ...: a t^0 term survives
    lambda b, s: (
        b + TSeries.monomial(1, 1, b.order),
        s + TSeries.monomial(F(1, 2), 2, s.order),
    ),
]


def _outcome(build):
    """The built series as JSON, or the error a build raised."""
    try:
        built = build()
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)
    return {name: series.to_json() for name, series in built.items()}


_DERIVED = ("b2", "s2", "bs", "wronskian", "b_plus", "b_minus", "b0", "btau", "ws0", "ws1")


def _kernel_route(b, s):
    st_ = assemble_set(b, s)
    return {name: getattr(st_, name) for name in _DERIVED}


class TestDerivedFamily:
    def test_corrupted_pair_matches_the_reference_route(self):
        b, s = generate_pair(14)
        bad = b + TSeries.monomial(F(1, 7), 4, b.order)
        kernel = _kernel_route(bad, s)
        reference = reference_assemble(bad, s)
        for name in _DERIVED:
            assert same(kernel[name], reference[name]), name

    def test_every_one_slot_mutation_has_the_reference_outcome(self):
        """Built series and pole-guard errors agree with the Laurent route
        wherever the pair obeys the parity rule: t^n may enter B only at
        n = 0 (mod 4) and S only at n = 1 (mod 4).  Elsewhere reading b_plus
        refuses the pair at the bumped slot."""
        order = 9
        b, s = generate_pair(order)
        for exponent in range(order + 1):
            bump = TSeries.monomial(1, exponent, order)
            for pair, weight in (((b + bump, s), 0), ((b, s + bump), 1), ((b, s - bump * 2), 1)):
                kernel = _outcome(lambda: _kernel_route(*pair))
                if exponent % 4 == weight:
                    assert kernel == _outcome(lambda: reference_assemble(*pair)), exponent
                    continue
                name = "B" if weight == 0 else "S"
                with pytest.raises(SeriesError, match=rf"^{name} breaks the parity rule"):
                    assemble_set(*pair).b_plus
                assert kernel[0] == "SeriesError" and kernel[1].endswith(
                    f"at t^{exponent}, x^0"
                ), exponent

    @pytest.mark.parametrize("corrupt", POLE_CORRUPTIONS)
    def test_pole_guards_raise_what_the_laurent_route_raises(self, corrupt):
        pair = corrupt(*generate_pair(8))
        with pytest.raises(Exception) as kernel:
            odd_case_pair(*pair)
        with pytest.raises(Exception) as reference:
            reference_assemble(*pair)
        assert (type(kernel.value), str(kernel.value)) == (
            type(reference.value),
            str(reference.value),
        )

    def test_the_pole_guards_form_no_reciprocal(self, monkeypatch):
        """With ``TSeries.recip`` refused, every pair above still raises what
        the reference route raises: the guards read kernel entries, and only
        the residue of a wrong pole, which none of them has, forms one."""

        def refused(self):
            raise AssertionError("a reciprocal was formed")

        monkeypatch.setattr(TSeries, "recip", refused)
        for corrupt in POLE_CORRUPTIONS:
            self.test_pole_guards_raise_what_the_laurent_route_raises(corrupt)


# ---------------------------------------------------------------------------
# the bivariate and evaluation-ODE checks


# linear in x, so products of nine-term series keep their rationals small
linear_xpolys = st.lists(rationals, max_size=2).map(XPoly)


@st.composite
def pairs(draw, extra=0, lead=None):
    """(b, s, m): two random power series known through m + extra, with m <= 8."""
    m = draw(st.integers(0, 8))
    size = m + extra + 1
    b = draw(st.lists(linear_xpolys, min_size=size, max_size=size))
    if lead is not None:
        b[0] = XPoly((draw(lead),))
    s = draw(st.lists(linear_xpolys, min_size=size, max_size=size))
    return TSeries(0, b, m + extra), TSeries(0, s, m + extra), m


@st.composite
def kernel_pairs(draw):
    """(b, s, m): two power series known through t^(m+1), m <= 7, whose kernel
    entries are ints, Fractions, [1], or even or odd in x."""
    m = draw(st.integers(0, 7))
    entries = st.one_of(_entries, _parity_entries, st.just([1]))
    b = draw(st.lists(entries, min_size=m + 2, max_size=m + 2))
    s = draw(st.lists(entries, min_size=m + 2, max_size=m + 2))
    return TSeries.from_kernel(b, m + 1), TSeries.from_kernel(s, m + 1), m


def obeys_parity(b: TSeries, s: TSeries) -> bool:
    """B(0) = 1, and every term x^k t^n has
    n + 2k = 0 (mod 4) in B and n + 2k = 1 (mod 4) in S: the pairs whose
    evaluation ODE the exponential group solves."""
    if b.coeff(0) != XPoly((1,)):
        return False
    return all(
        (n + 2 * k) % 4 == weight
        for f, weight in ((b, 0), (s, 1))
        for n, p in f.terms()
        for k, v in enumerate(p.coeffs)
        if v
    )


@st.composite
def parity_pairs(draw):
    """(b, s, m) from :func:`pairs`, projected onto the parity rule with B(0) = 1."""
    b, s, m = draw(pairs(extra=1))

    def projected(f: TSeries, weight: int, head: dict) -> TSeries:
        terms = {
            n: XPoly(v if (n + 2 * k) % 4 == weight else 0 for k, v in enumerate(p.coeffs))
            for n, p in f.terms()
        }
        return TSeries.from_terms({**terms, **head}, f.order)

    return projected(b, 0, {0: 1}), projected(s, 1, {}), m


#: (b, s, m) with B = 1 and S = x t^7 known through t^8, checked through t^7
X_T7_PAIR = (TSeries.monomial(1, 0, 8), TSeries.monomial(XPoly((0, 1)), 7, 8), 7)

#: (b, s, m) whose B has the kernel entries [1] past t^0, x, zero, and one
#: with both x-parities and a Fraction, checked through total degree 5
BB_PARTS_PAIR = (
    TSeries.from_kernel([[2], [1], [0, 1], [F(1, 2), 3, 0, -1], [], [1, 0, 2]], 5),
    TSeries.from_kernel([[], [1], [0, F(1, 3)]], 5),
    5,
)


def checked_set(b: TSeries, s: TSeries) -> BlowupSeriesSet:
    """A set over the pair; the checks build only the products they read."""
    return assemble_set(b, s)


def _result(check):
    """What a check returns, or the error it raises as a report states it."""
    try:
        return check()
    except (SeriesError, GenerationError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


ENTRY = {d.id: d for d in CATALOG}


def _reported(report):
    return report.first_mismatch if report.error is None else report.error


def _pm_ode_expected(set_: BlowupSeriesSet, sign: int, through: int):
    """What a ``pm_ode`` row must report: the plain quotient route's result on
    a pair that obeys the parity rule with B(0) = 1, and otherwise the
    exponential group's error, which b0_equals_b2 reports too."""
    if obeys_parity(set_.b, set_.s):
        return _result(lambda: reference_pm_ode(set_, sign, through))
    refused = _result(lambda: set_.b_plus)
    assert isinstance(refused, str) and refused.startswith("SeriesError: ")
    assert refused == _reported(ENTRY["b0_equals_b2"].run(set_, through))
    return refused


class TestBivariateTables:
    @given(pairs())
    # B(u+v) B(u-v) from stored pair products: a part 1 is not multiplied
    # (the entries [1] and x), and an entry with both x-parities and a
    # Fraction gives a pair of two parts with each entry it meets
    @example(BB_PARTS_PAIR)
    def test_bb_sides_equal_the_plain_sides(self, pair):
        b, s, m = pair
        for kernel, plain in zip(bb_sides(b, s, m), reference_bb_sides(b, s, m)):
            assert kernel.order == plain.order
            assert first_difference_uv(kernel, plain) is None

    @pytest.mark.parametrize("m", [24, 64])
    def test_each_pair_product_of_the_pm_table_is_formed_once(self, monkeypatch, m):
        """B(u+v) B(u-v) reads the pairs b_i b_{d-i} of each d <= m once per
        entry of total degree d; each pair of x-parity parts is multiplied
        once, and one with a part 1 not at all."""
        b, _ = generate_pair(m)
        parted = [hurwitz.parts(p) for p in b.h]
        addmul = hurwitz.addmul
        calls = []
        monkeypatch.setattr(hurwitz, "addmul", lambda *args: calls.append(args) or addmul(*args))
        bivariate.product_pm(b.h, m)
        products = sum(
            1
            for d in range(m + 1)
            for i in range(d // 2 + 1)
            for _, p in parted[i]
            for _, q in parted[d - i]
            if (1,) not in (p, q)
        )
        assert len(calls) == products

    @given(pairs(extra=1))
    # total degree 0: each triple product reads one entry of each vector
    @example((TSeries(0, [2, XPoly((1, 1))], 1), TSeries(0, [XPoly((0, 3)), 1], 1), 0))
    def test_bbb_sides_equal_the_plain_sides(self, pair):
        b, s, m = pair
        tables = bbb_tables(b, s, m)
        for table, plain in zip(tables, reference_bbb_sides(b, s, m)):
            kernel = _biseries(table, m)
            assert kernel.order == plain.order
            assert first_difference_uv(kernel, plain) is None

    @given(
        st.one_of(parity_pairs(), pairs(extra=1, lead=nonzero_rationals)), st.sampled_from((1, -1))
    )
    # a zero entry against a nonzero one was once reported as differing at x^0
    @example(X_T7_PAIR, 1)
    @example(X_T7_PAIR, -1)
    def test_ode_checks_equal_the_plain_route(self, pair, sign):
        """On a pair that obeys the parity rule with B(0) = 1 the row reports
        what the plain quotient route reports; on any other pair it reports
        the exponential group's error, as b0_equals_b2 does."""
        b, s, m = pair
        set_ = checked_set(b, s)
        row = ENTRY["pm_ode_plus" if sign == 1 else "pm_ode_minus"]
        for through in (m, m + 1):
            assert _reported(row.run(set_, through)) == _pm_ode_expected(set_, sign, through)
            assert _reported(ENTRY["bb_diagonal"].run(set_, through)) == _result(
                lambda: reference_bb_diagonal(set_, through)
            )

    @given(tseries(min_val=0, max_len=9), tseries(min_val=0, max_len=9), st.integers(0, 9))
    def test_a_symmetric_table_equals_its_unmirrored_form(self, f, h, m):
        """``outer(f, f)`` and ``triple(f, f, h)`` compute the entries j >= i
        and mirror the rest; a copy of f takes the unmirrored route."""
        assert bivariate.outer(f.h, f.h, m) == bivariate.outer(f.h, list(f.h), m)
        assert bivariate.triple(f.h, f.h, h.h, m) == bivariate.triple(f.h, list(f.h), h.h, m)

    def test_a_zero_entry_differs_first_where_the_other_is_nonzero(self):
        assert list(hurwitz.differences([(0, [], [0, 64])])) == [(0, 1)]
        assert bivariate.table_mismatch([[[0, 0, 3]]], [[[]]], 0) == (0, 0, 2, 3, 0)
        # B = 1, S = x t^7: the t^7 slot of the ODE checks differs at x^1 only
        b, s, m = X_T7_PAIR
        set_ = checked_set(b, s)
        for cid, sign in (("pm_ode_plus", 1), ("pm_ode_minus", -1)):
            got = ENTRY[cid].check(set_, m)
            assert got == reference_pm_ode(set_, sign, m) and (got.t, got.x) == (7, 1)

    @given(kernel_pairs())
    # entries that break the parity rule, with both x-parities in one entry
    @example(
        (
            TSeries.from_kernel([[1], [1, 1], [2, 0, 3], [0, 1], [5]], 4),
            TSeries.from_kernel([[], [1], [1, 1], [0, 2], [3]], 4),
            3,
        )
    )
    # Fraction entries, integral and not
    @example(
        (
            TSeries.from_kernel([[F(1, 2)], [0, F(-2, 3)], [F(3, 4), 1], [], [F(5, 6)]], 4),
            TSeries.from_kernel([[F(1, 3)], [1], [], [F(-1, 2), 0, 1], [F(4, 2)]], 4),
            3,
        )
    )
    # every entry [1]: the unit polynomial everywhere
    @example((TSeries.from_kernel([[1]] * 6, 5), TSeries.from_kernel([[1]] * 6, 5), 4))
    def test_bbb_tables_equal_the_three_triple_route(self, pair):
        """The right side (d/du + d/dv) T - 3 T' from one P table equals the
        three triple products entry for entry, int or Fraction alike."""
        b, s, m = pair

        def typed(table):
            return [[[(type(v), v) for v in p] for p in row] for row in table]

        got, want = bbb_tables(b, s, m), three_triple_bbb_tables(b, s, m)
        assert [typed(t) for t in got] == [typed(t) for t in want]

    def test_bbb_needs_b_one_order_past_the_total_degree(self):
        """B' is known one order less than B: its refusal keeps the text it
        had when the check read B' as a series."""
        b, s = generate_pair(8)
        bbb_tables(b, s, 7)
        for pair, m, message in (
            ((b, s), 8, "cannot extend truncation order 7 to 8"),
            ((b, s.truncate(6)), 7, "cannot extend truncation order 6 to 7"),
        ):
            with pytest.raises(SeriesError) as raised:
                bbb_tables(*pair, m)
            assert str(raised.value) == message

    def test_entries_are_ints_on_the_blowup_pair(self, set17):
        b, s = set17.b, set17.s
        for table in bb_tables(b, s, set17.b2, set17.s2, 12) + bbb_tables(b, s, 12):
            assert all(type(v) is int for row in table for p in row for v in p)


class TestMutatedPairs:
    def test_every_one_slot_mutation_has_the_reference_outcome(self):
        """Mismatch slot, values and errors agree with the plain route."""
        order = 10
        b, s = generate_pair(order)
        detected = 0
        for exponent in range(order + 1):
            for delta in (1, -1):
                bump = TSeries.monomial(delta, exponent, order)
                for pair in ((b + bump, s), (b, s + bump)):
                    detected += self._same_outcomes(*pair, order)
        assert detected > 30

    @staticmethod
    def _same_outcomes(b: TSeries, s: TSeries, order: int) -> bool:
        set_ = checked_set(b, s)
        bb = ENTRY["bb"].run(set_, order)
        assert _reported(bb) == _result(lambda: reference_bb(b, s, order))
        for m in (order - 1, order):
            assert _reported(ENTRY["bbb"].run(set_, m)) == _result(lambda: reference_bbb(b, s, m))
        for through in (order - 1, order, order + 1):
            assert _reported(ENTRY["bb_diagonal"].run(set_, through)) == _result(
                lambda: reference_bb_diagonal(set_, through)
            )
            for cid, sign in (("pm_ode_plus", 1), ("pm_ode_minus", -1)):
                report = ENTRY[cid].run(set_, through)
                assert _reported(report) == _pm_ode_expected(set_, sign, through)
        return not bb.passed
