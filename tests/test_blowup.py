import hashlib
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from helpers_oracles import (
    WRITES,
    _simple_type_factor,
    exp_t_squared,
    laurent_coeff,
    plain_mul,
    plain_recip,
    simple_type_form,
    solve_by_bivariate_identity,
    unit_part,
    weierstrass_s,
)

from blowup_series import blowup, build_series_set, derived, hurwitz, series_set
from blowup_series.algebra import XPoly, bb_sides, first_difference_uv
from blowup_series.bivariate import bb_tables, table_mismatch
from blowup_series.blowup import (
    GenerationError,
    UnexpectedPoleError,
    assemble_set,
    generate_pair,
    golden_table,
)
from blowup_series.derived import (
    degeneration_form,
    derived_products,
    exponential_pair,
    odd_case_pair,
    series_content_hash,
)
from blowup_series.series import SeriesError, TSeries, first_difference
from blowup_series.pairing import MomentFunctional, eval_even
from blowup_series.verify import golden_diff, golden_table_hash, run_catalog, verify_all

X = XPoly.x()


class _RecurrenceStarted(Exception):
    """Raised by a stub of the first recurrence step."""


def _refuse_recurrence(monkeypatch):
    def started(*_):
        raise _RecurrenceStarted

    monkeypatch.setattr(blowup, "_e4_rest", started)


class TestGeneration:
    def test_minimum_order(self):
        with pytest.raises(ValueError):
            generate_pair(3)

    @pytest.mark.parametrize("build", [generate_pair, series_set, build_series_set])
    def test_a_build_past_the_cap_is_refused_before_the_recurrence(self, monkeypatch, build):
        _refuse_recurrence(monkeypatch)
        top = blowup.build_order(blowup.MAX_ORDER)
        with pytest.raises(ValueError, match=f"^generation serves order <= {top}, got {top + 1}$"):
            build(top + 1)

    @pytest.mark.parametrize(
        "serve",
        [verify_all, lambda order: eval_even(MomentFunctional("m", (1,)), MomentFunctional("m", (1,)), order)],
        ids=["verify_all", "eval_even"],
    )
    def test_a_request_past_the_cap_is_refused_before_the_recurrence(self, monkeypatch, serve):
        _refuse_recurrence(monkeypatch)
        with pytest.raises(ValueError, match="^generation serves order <= "):
            serve(blowup.MAX_ORDER + 1)

    def test_the_cap_itself_starts_the_recurrence(self, monkeypatch):
        """``build_order(MAX_ORDER)`` is served: the stubbed first step runs."""
        _refuse_recurrence(monkeypatch)
        with pytest.raises(_RecurrenceStarted):
            generate_pair(blowup.build_order(blowup.MAX_ORDER))
        with pytest.raises(_RecurrenceStarted):
            verify_all(blowup.MAX_ORDER)

    def test_the_golden_reach_is_the_largest_golden_order(self):
        assert blowup.GOLDEN_ORDER == max(row.order for row in golden_table().values())

    def test_forced_low_coefficients(self):
        b, s = generate_pair(8)
        assert b.coeff(4, normalized=True) == XPoly((-2,))
        assert b.coeff(2).is_zero
        assert s.coeff(5, normalized=True) == 2 + X**2
        assert b.coeff(8, normalized=True) == XPoly((-4, 0, -32))

    def test_matches_bivariate_solve_oracle(self):
        """The production recurrence agrees with solving the bivariate
        product identity directly with symbolic frontier unknowns."""
        order = 11
        b_oracle, s_oracle = solve_by_bivariate_identity(order)
        b, s = generate_pair(order)
        for n in range(order + 1):
            assert b.coeff(n) == b_oracle[n], f"b mismatch at t^{n}"
            assert s.coeff(n) == s_oracle[n], f"s mismatch at t^{n}"

    def test_full_golden_table_reproduced(self, set17):
        assert golden_diff(set17) == []

    def test_parity(self, set17):
        for name in ("b", "b2", "s2", "ws0", "b_plus", "b_minus", "b0", "btau"):
            series = getattr(set17, name)
            for n, _ in series.terms():
                assert n % 2 == 0, f"{name} has an odd-power term t^{n}"
        for name in ("s", "bs", "ws1"):
            series = getattr(set17, name)
            for n, _ in series.terms():
                assert n % 2 == 1, f"{name} has an even-power term t^{n}"

    def test_x_degree_growth_bound(self, set17):
        for series in (set17.b, set17.s):
            for n, c in series.terms():
                assert c.degree <= max(0, (n - 1) // 2)

    def test_extracted_odes_hold_independently(self, set17):
        """Re-verify (E2) and (E4) with series arithmetic, not the recurrence."""
        b, s = set17.b, set17.s
        db = b.derivative()
        d2b = db.derivative()
        d3b = d2b.derivative()
        d4b = d3b.derivative()
        e2 = d2b * b - db * db + s * s
        assert e2.is_zero and e2.order >= 14
        e4 = d4b * b - d3b * db * 4 + d2b * d2b * 3 + b * b * 2 - s * s * X * 4
        assert e4.is_zero and e4.order >= 12

    def test_bb_identity_on_generated_pair(self, set17):
        lhs, rhs = bb_sides(set17.b, set17.s, 10)
        assert first_difference_uv(lhs, rhs, through=10) is None

    def test_seed_corruption_is_caught_by_bb_check(self):
        b, s = generate_pair(8)
        bad = b + TSeries.monomial(F(1, 7), 4, b.order)
        assert table_mismatch(*bb_tables(bad, s, bad * bad, s * s, 8), 8) is not None

    def test_bb_holds_through_total_degree_16_on_the_pair_the_golden_check_accepts(self):
        """Generation checks only the golden rows, and this is why (*) needs no
        second check there: through total degree 16, (*) reads b_0..b_16 and
        s_0..s_16.  The golden rows pin B through t^16 and S through t^15, and
        s_16 enters only as s_0 s_16, where s_0 = 0 is pinned.  So every entry
        this check reads is fixed once the golden check has passed."""
        b, s = generate_pair(16)
        assert table_mismatch(*bb_tables(b, s, b * b, s * s, 16), 16) is None

    @pytest.mark.parametrize(
        "step, at, entry, row", [("_e4_rest", 6, 10, "B"), ("_e2_rest", 14, 13, "S")]
    )
    def test_a_perturbed_recurrence_step_fails_the_golden_check(
        self, monkeypatch, step, at, entry, row
    ):
        """b_10 from (E4) at t^6, or s_13 from (E2) at t^14, is knocked off.
        s_13 feeds B only above t^16, so the S row is the first to differ.
        Each step reads the stored pair products of B and of S."""
        rest = getattr(blowup, step)

        def perturbed(b_pairs, s_pairs, n):
            value = rest(b_pairs, s_pairs, n)
            return hurwitz.add(value, [1]) if n == at else value

        monkeypatch.setattr(blowup, step, perturbed)
        message = rf"generated {row} disagrees with the golden table at t\^{entry}, "
        with pytest.raises(GenerationError, match=message) as raised:
            generate_pair(20)
        assert raised.value.degree == entry

    def test_a_seed_consistency_failure_names_its_residual(self, monkeypatch):
        """(E2) at t^2 and t^4 is redundant with the seeds; a nonzero rest there
        is refused with its plain value and degree."""
        rest = blowup._e2_rest
        monkeypatch.setattr(blowup, "_e2_rest", lambda b, s, m: [1] if m == 4 else rest(b, s, m))
        with pytest.raises(GenerationError) as raised:
            generate_pair(8)
        assert str(raised.value) == "seed consistency check failed, residual 1/24 (degree 4)"
        assert raised.value.degree == 4

    @pytest.mark.parametrize("order", [5, 20, 65])
    def test_each_pair_product_is_formed_once(self, monkeypatch, order):
        """(E4) and (E2) read the pairs b_i b_{d-i} of one d up to three times,
        and s_i s_{d-i} twice; each product is formed once, and one with the
        factor b_0 = 1 or s_1 = 1 not at all.  (E4) at t^n reads the b-pairs of
        n + 4 and the s-pairs of n, (E2) at t^(n+2) the s-pairs of n + 2, for
        the even n below ``order``.  Past the returned vectors stand only pairs
        with b_0 or s_1."""
        addmul = hurwitz.addmul
        calls = []
        monkeypatch.setattr(hurwitz, "addmul", lambda *args: calls.append(args) or addmul(*args))
        b, s = generate_pair(order)
        last = (order - 1) // 2 * 2

        def products(h, top):
            return sum(
                1
                for d in range(0, top + 1, 2)
                for i in range(max(0, d - len(h) + 1), d // 2 + 1)
                if h[i] and h[d - i] and (1,) not in (h[i], h[d - i])
            )

        assert len(calls) == products(b.h, last + 4) + products(s.h, last + 2)


class TestDerivedProducts:
    def test_table_spot_values(self, set17):
        assert set17.b2.coeff(6, normalized=True) == 16 * X
        assert set17.s2.coeff(4, normalized=True) == -8 * X
        assert set17.wronskian.coeff(4, normalized=True) == 8 + X**2

    def test_products_are_recomputed_not_aliased(self, set17):
        assert set17.b2 is not set17.b0
        assert first_difference(set17.b2, set17.b * set17.b) is None


class TestExponentialPair:
    def test_low_order_expansion(self, set17):
        # frozen hand expansion: plus-series = 1 + t^2 + (-1/6 - x/3) t^4 + ...
        plus = set17.b_plus
        assert plus.coeff(0) == XPoly((1,))
        assert plus.coeff(2) == XPoly((1,))
        assert plus.coeff(4) == XPoly((F(-1, 6), 0)) + X * F(-1, 3)

    def test_half_sum_and_difference(self, set17):
        assert set17.b0.coeff(4, normalized=True) == XPoly((-4,))
        assert set17.btau.coeff(2, normalized=True) == XPoly((2,))

    def test_product_collapses_to_doubled_argument(self, set17):
        prod = set17.b_plus * set17.b_minus
        assert first_difference(prod, set17.b.scale_arg(2)) is None

    def test_closed_forms_disagree_on_corrupted_input(self):
        b, s = generate_pair(8)
        bad_s = s + TSeries.monomial(1, 5, s.order)
        plus, minus, b0, btau = exponential_pair(b, bad_s)  # still consistent forms
        # corrupting b breaks nothing in the form agreement either (it is an
        # identity in b), so the guard only fires on inconsistent plumbing;
        # the corruption is caught by the identity catalog instead
        assert first_difference(b0 + btau, plus) is None

    def test_ode_solutions_equal_the_closed_forms_at_order_64(self):
        """b_+- = sqrt(B(2t)) * exp(+-(1/2) int_0^{2t} S/B), built with plain series."""
        st = series_set(65)
        b, s = st.b, st.s
        root = b.scale_arg(2).sqrt()
        half_integral = (s * b.recip()).integrate().scale_arg(2) * F(1, 2)
        for built, exponent in ((st.b_plus, half_integral), (st.b_minus, -half_integral)):
            closed = root * exponent.exp()
            through = min(built.order, closed.order)
            assert through >= 64
            assert first_difference(built, closed, through=through) is None

    @pytest.mark.parametrize("x_power, row", [(0, "btau_equals_s2"), (1, "b0_equals_b2")])
    def test_catalog_catches_a_corrupted_ode_solution(self, monkeypatch, x_power, row):
        """Add x^k t^6 / 6! to b_plus.  b0 keeps the terms of t^6 with odd k
        and btau those with even k, so the term's x-parity picks the equality
        row.  Both pm_ode rows compare B^2 +- S^2 with the corrupted solution,
        so they fail too."""
        b, s = generate_pair(12)
        solve = derived._ode_solution

        def shifted(sigma, *args):
            w = solve(sigma, *args)
            if sigma is b:  # the evaluation ODE, not an odd-case one
                h = list(w.h)
                h[6] = hurwitz.add(h[6], [0] * x_power + [1])
                w = TSeries.from_kernel(h, w.order)
            return w

        monkeypatch.setattr(derived, "_ode_solution", shifted)
        reports = run_catalog(assemble_set(b, s), 11, bivariate_order=8)
        assert {r.identity for r in reports if not r.passed} == {row, "pm_ode_plus", "pm_ode_minus"}

    def test_the_flip_solves_the_minus_equation_on_any_pair_that_obeys_the_parity_rule(self):
        """x t^6 has n + 2k = 8, so B + x t^6 obeys the rule but not (*)."""
        b, s = generate_pair(12)
        b = b + TSeries.monomial(X, 6, b.order)
        minus = b.derivative() - s
        solved = derived._ode_solution(b, minus, [[1]], derived._quotient_order(minus, b) + 1)
        plus, flipped, b0, btau = exponential_pair(b, s)
        assert flipped.to_json() == solved.to_json()
        assert (b0 + btau).to_json() == plus.to_json()

    @pytest.mark.parametrize(
        "bump_b, bump_s, slot",
        [(F(1, 7), 0, "B breaks .* at t\\^2, x\\^0"), (0, X, "S breaks .* at t\\^6, x\\^1")],
        ids=["B", "S"],
    )
    def test_a_pair_that_breaks_the_parity_rule_is_refused(self, bump_b, bump_s, slot):
        """1/7 t^2 in B has n + 2k = 2, x t^6 in S has 8 where S needs 1 (mod 4)."""
        b, s = generate_pair(12)
        bad_b = b + TSeries.monomial(bump_b, 2, b.order)
        bad_s = s + TSeries.monomial(bump_s, 6, s.order)
        with pytest.raises(SeriesError, match=f"^{slot}"):
            exponential_pair(bad_b, bad_s)

    def test_every_derived_series_obeys_the_parity_rule_at_order_129(self):
        """Term x^k t^n of a series of weight w has n + 2k = w (mod 4): it
        picks up i^w under (t, x) -> (it, -x), as B, S and their products do."""
        st = series_set(129)
        weights = {"b": 0, "s": 1, "b2": 0, "s2": 2, "bs": 1, "wronskian": 0}
        weights.update(b0=0, btau=2, ws0=0, ws1=1)
        for name, weight in weights.items():
            series = getattr(st, name)
            assert series.order >= 128, name
            for n, p in enumerate(series.h):
                bad = [k for k, v in enumerate(p) if v and (n + 2 * k) % 4 != weight]
                assert not bad, f"{name} at t^{n}, x^{bad[:1]}"


class TestOddCasePair:
    def test_low_order_expansions(self, set17):
        # frozen: ws0 = 1 - (x/2) t^2 + (1/3 + x^2/24) t^4 + ...
        ws0 = set17.ws0
        assert ws0.coeff(2) == X * F(-1, 2)
        assert ws0.coeff(4) == XPoly((F(1, 3),)) + X**2 * F(1, 24)
        assert ws0.coeff(4, normalized=True) == 8 + X**2
        # frozen: ws1 = t - (x/6) t^3 + ...
        ws1 = set17.ws1
        assert ws1.coeff(1) == XPoly((1,))
        assert ws1.coeff(3) == X * F(-1, 6)

    def test_pole_structure_of_integrands(self, set17):
        """With S = t u, each integrand q/S is t^-1 times the power series q/u."""
        b, s = set17.b, set17.s
        v, u = unit_part(s)
        assert v == 1
        regular = (s.derivative() - b) * u.recip()
        assert regular.valuation >= 2
        singular = (b + s.derivative()) * u.recip()
        assert singular.valuation == 0
        assert singular.coeff(0) == XPoly((2,))
        removed = singular - TSeries.monomial(2, 0, singular.order)
        # frozen: after removing the pole 2/t the integrand starts at -(x/6) t
        assert removed.valuation == 2
        assert removed.coeff(2) == X * F(-1, 6)

    def test_corrupted_pair_trips_the_pole_guard(self):
        b, s = generate_pair(8)
        # S'(0) becomes 2, so S' - B starts with 1 and (-B + S')/S = 1/(2t) + ...
        # fails the first check, before the residue of (B + S')/S is read
        with pytest.raises(UnexpectedPoleError) as caught:
            odd_case_pair(b, s * 2)
        assert str(caught.value) == "(-B + S')/S should vanish at 0 but has valuation -1"

    def test_wrong_residue_is_reported_from_the_laurent_quotient(self):
        # S' - B = 0 passes the first check; (B + S')/S = 4t/t^2 = 4/t
        b, s = TSeries.monomial(2, 1, 8), TSeries.monomial(1, 2, 8)
        with pytest.raises(UnexpectedPoleError) as caught:
            odd_case_pair(b, s)
        assert str(caught.value) == (
            "(B + S')/S should have exactly the pole 2/t; got valuation -1 with residue 4"
        )

    @pytest.mark.parametrize(
        "s_terms, singular_terms, residue",
        [({2: 1, 3: -1}, {0: 1}, "1"), ({2: 3, 3: X}, {0: 1, 1: X}, "(2/9)x")],
        ids=["unit-lead", "lead-3-x-residue"],
    )
    def test_a_deeper_pole_is_reported_with_the_residue_of_the_quotient(self, s_terms, singular_terms, residue):
        """1/(t^2 - t^3) = t^-2 (1 + t + t^2 + ...) has the residue 1.  With
        S = 3t^2 + x t^3 the reciprocal divides by a ``Fraction``:
        (1 + x t)/S = t^-2 (1 + x t)/(3 + x t) has the residue (2/9) x.  Each
        is the Laurent route's coefficient too.  The guard is called alone:
        through odd_case_pair a pole deeper than 1/t in (B + S')/S puts one
        in (-B + S')/S too, which is refused first."""
        s, singular = TSeries.from_terms(s_terms, 8), TSeries.from_terms(singular_terms, 8)
        v, u = unit_part(s)
        assert str(laurent_coeff(-v, plain_mul(singular, plain_recip(u)), -1)) == residue
        with pytest.raises(UnexpectedPoleError) as caught:
            derived._check_poles(s, TSeries.zero(7), singular)
        assert str(caught.value) == (
            f"(B + S')/S should have exactly the pole 2/t; got valuation -2 with residue {residue}"
        )

    def test_a_quotient_known_only_below_the_residue_names_its_order(self):
        """B = 0 known through t^0 and S = t^3: B + S' is known through t^0, so
        (B + S')/S only through t^-3, short of the residue at t^-1."""
        with pytest.raises(UnexpectedPoleError) as caught:
            odd_case_pair(TSeries.zero(0), TSeries.from_terms({3: 1}, 9))
        assert str(caught.value) == (
            "(B + S')/S should have exactly the pole 2/t, but it is known only through t^-3"
        )


def _oracle_mismatches(b: TSeries, s: TSeries) -> tuple:
    """The first slot where S leaves :func:`weierstrass_s`, and the first where
    B^2 leaves S'^2 - S S''; (None, None) when the pair passes both."""
    n = s.order
    ds, dds = s.h[1:], s.h[2:]
    squares = [hurwitz.add(p, q, -1) for p, q in zip(hurwitz.mul(ds, ds, n), hurwitz.mul(s.h, dds, n - 1))]
    return (
        next(hurwitz.differences(zip(range(n + 1), s.h, weierstrass_s(n))), None),
        next(hurwitz.differences(zip(range(n - 1), hurwitz.mul(b.h, b.h, n - 1), squares)), None),
    )


class TestWeierstrassOracle:
    """S against sigma's a_{m,n} recursion, S = exp(-x t^2/6) sigma(t), and
    B^2 against S'^2 - S S'', which is S^2 (wp - e3) with e3 = -x/3.  Neither
    shares the E2/E4 recurrence, and both reach past the t^16 golden table."""

    def test_the_pair_matches_the_oracle_through_t129(self):
        st = series_set(129)
        assert _oracle_mismatches(st.b, st.s) == (None, None)

    def test_a_change_past_the_golden_table_fails_the_oracle(self):
        """t^41 in S keeps the parity rule (41 = 1 mod 4), so the golden
        table and the parity guard pass it; the oracle does not."""
        st = series_set(129)
        bad_s = st.s + TSeries.monomial(1, 41, st.s.order)
        assert golden_diff(assemble_set(st.b, bad_s)) == []
        assert _oracle_mismatches(st.b, bad_s) == ((41, 0), (40, 0))


class TestGoldenTable:
    def test_parsed_rows_have_expected_shape(self):
        table = golden_table()
        assert table["B"].order == 16 and table["B"].valuation == 0
        assert table["S"].order == 15 and table["S"].valuation == 1
        assert table["B2"].order == 14
        assert table["S2"].order == 12 and table["S2"].valuation == 2
        assert table["WS0"].order == 12
        assert table["WS1"].order == 13

    def test_factorial_parse(self):
        assert golden_table()["B"].coeff(4) == XPoly((F(-2, 24),))
        assert golden_table()["S"].coeff(3) == X * F(-1, 6)

    def test_table_internal_redundancy(self):
        """B2/S2/WS0/WS1 rows are recomputable from the B and S rows, which
        guards the transcription itself."""
        table = golden_table()
        b, s = table["B"], table["S"]
        assert first_difference(b * b, table["B2"], through=14) is None
        assert first_difference(s * s, table["S2"], through=12) is None
        wronskian = b * s.derivative() - b.derivative() * s
        assert first_difference(wronskian, table["WS0"], through=12) is None
        assert first_difference(b * s, table["WS1"], through=13) is None

    def test_each_row_is_parsed_once_and_generation_reads_b_and_s(self):
        blowup._golden_row.cache_clear()
        generate_pair(8)
        assert blowup._golden_row.cache_info().currsize == 2
        assert list(golden_table("S", "B")) == ["S", "B"]
        table = golden_table()
        assert sorted(table) == ["B", "B2", "S", "S2", "WS0", "WS1"]
        assert all(golden_table()[name] is row for name, row in table.items())

    def test_hash_is_stable_sha256(self):
        h = golden_table_hash()
        assert len(h) == 64 and int(h, 16) >= 0
        assert h == golden_table_hash()


def _pair_payload(st) -> bytes:
    """The bytes that a set's content hash digests: the pair's plain JSON, compact."""
    return json.dumps([st.b.to_json(), st.s.to_json()], sort_keys=True, separators=(",", ":")).encode("ascii")


class TestHashes:
    """Both hashes of the package are SHA-256 through ``derived.sha256_hex``,
    which takes the interpreter's built-in module; each digest equals
    ``hashlib.sha256`` of the same bytes."""

    def test_the_content_hashes_are_hashlibs_sha256_of_the_pair(self):
        for st in (series_set(9), build_series_set(49)):
            assert st.content_hash == hashlib.sha256(_pair_payload(st)).hexdigest()

    def test_the_golden_table_hash_is_hashlibs_sha256_of_the_file(self):
        path = Path(blowup.__file__).parent / "data" / "golden_table.json"
        assert golden_table_hash() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_without_the_built_in_modules_hashlib_gives_the_same_digest(self, monkeypatch):
        payload, sha256, read = _pair_payload(series_set(9)), hashlib.sha256, []
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)  # the import raises ImportError
        monkeypatch.setattr(hashlib, "sha256", lambda data: read.append(data) or sha256(data))
        assert derived.sha256_hex(payload) == series_set(9).content_hash
        assert derived.sha256_hex(b"") == sha256(b"").hexdigest()
        assert read == [payload, b""]


#: the constructions of :mod:`blowup_series.derived` a series set calls, one per derived group
_GROUPS = ("derived_products", "exponential_pair", "odd_case_pair", "series_content_hash")
#: every attribute of a set besides the pair
_READS = ("order", "b2", "s2", "bs", "wronskian", "b_plus", "b_minus", "b0", "btau")
_READS += ("ws0", "ws1", "content_hash")


def _refusing(name):
    def refuse(*args):
        raise AssertionError(f"{name} called")

    return refuse


class TestSeriesSet:
    def test_content_hash_tracks_the_pair(self, set17):
        assert set17.content_hash == series_content_hash(set17.b, set17.s)
        mutated = set17.b + TSeries.monomial(1, 4, set17.b.order)
        assert series_content_hash(mutated, set17.s) != set17.content_hash

    def test_assemble_requires_matching_orders(self, set17):
        with pytest.raises(ValueError):
            assemble_set(set17.b.truncate(10), set17.s)

    def test_each_group_is_built_once_on_first_read(self, monkeypatch):
        st = assemble_set(*generate_pair(10))
        calls = {}
        for name in _GROUPS:
            build = getattr(derived, name)

            def counted(*args, name=name, build=build):
                calls[name] = calls.get(name, 0) + 1
                return build(*args)

            monkeypatch.setattr(derived, name, counted)
        assert st.order == 10 and calls == {}
        for _ in range(2):
            for name in _READS:
                getattr(st, name)
        assert calls == {name: 1 for name in _GROUPS}

    def test_build_series_set_builds_every_group(self, monkeypatch):
        built = blowup.build_series_set(10)
        for name in _GROUPS:
            monkeypatch.setattr(derived, name, _refusing(name))
        read = {name: getattr(built, name) for name in _READS}
        monkeypatch.undo()
        fresh = assemble_set(built.b, built.s)
        assert read == {name: getattr(fresh, name) for name in _READS}

    def test_a_failed_build_is_not_kept(self, monkeypatch):
        st = assemble_set(*generate_pair(10))
        monkeypatch.setattr(derived, "exponential_pair", _refusing("exponential_pair"))
        for _ in range(2):
            with pytest.raises(AssertionError, match="exponential_pair"):
                st.b0
        monkeypatch.undo()
        assert first_difference(st.b0, st.b2) is None

    @pytest.mark.parametrize(
        "bumped, exponent, message",
        [
            ("b", 0, "the evaluation ODE needs B(0) = 1"),
            ("s", 2, "S breaks the parity rule B(it; -x) = B(t; x), S(it; -x) = i S(t; x) at t^2, x^0"),
        ],
        ids=["b0", "parity"],
    )
    def test_a_refused_pair_is_refused_on_every_read(self, set17, bumped, exponent, message):
        """A set over a pair with B(0) != 1, or one that breaks the parity
        rule, is made, but reading an exponential series raises, and raises
        again: the failed build is not kept."""
        pair = {"b": set17.b, "s": set17.s}
        pair[bumped] = pair[bumped] + TSeries.monomial(1, exponent, set17.order)
        st = assemble_set(pair["b"], pair["s"])
        for _ in range(2):
            with pytest.raises(SeriesError) as raised:
                st.b0
            assert str(raised.value) == message

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize("name", ("b", "s") + _READS + ("_products",))
    def test_a_set_is_read_only(self, name, write):
        st = assemble_set(*generate_pair(8))
        with pytest.raises(AttributeError, match=f"^cannot {write} field '{name}'$"):
            WRITES[write](st, name)
        assert "_products" not in vars(st) and st.b.order == 8

    def test_a_refused_write_leaves_the_cached_set_intact(self):
        """``series_set`` hands one set to every later caller in the process."""
        with pytest.raises(AttributeError):
            del series_set(8).b
        with pytest.raises(AttributeError):
            series_set(8).b.h = []
        assert first_difference(series_set(8).b, generate_pair(8)[0]) is None

    def test_an_entry_of_a_cached_series_cannot_be_changed(self):
        """A kernel vector is a tuple of tuples, so a caller cannot change an
        entry in place and thereby the set every later caller reads."""
        with pytest.raises(AttributeError):
            series_set(8).b.h[4].append(7)
        assert first_difference(series_set(8).b, generate_pair(8)[0]) is None

    def test_derived_products_standalone(self, set17):
        b2, s2, bs, wronskian = derived_products(set17.b, set17.s)
        assert first_difference(b2, set17.b2) is None
        assert first_difference(wronskian, set17.wronskian) is None


class TestDegenerationForm:
    @pytest.mark.parametrize("order", [0, 1, 128])
    @pytest.mark.parametrize("name", ["b2", "s2", "wronskian", "bs"])
    @pytest.mark.parametrize("x", [2, -2])
    def test_the_integer_form_is_the_envelope_times_the_factor(self, x, name, order):
        """The form is one x-free integer vector, equal to the Fraction
        envelope exp(-+t^2) times the Fraction factor, multiplied by the
        schoolbook route."""
        form = degeneration_form(x, name, order)
        assert form.order == order
        assert all(len(p) == 1 and type(p[0]) is int for p in form.h if p)
        envelope = exp_t_squared(-x // 2, order)
        assert first_difference(form, plain_mul(envelope, _simple_type_factor(name, x, order))) is None
        assert first_difference(form, simple_type_form(name, x, order)) is None

    def test_only_the_four_series_at_x_equal_to_plus_or_minus_two_have_forms(self):
        with pytest.raises(ValueError, match="x = 2 and x = -2"):
            degeneration_form(0, "b2", 8)
        with pytest.raises(ValueError, match="no simple-type form for 'b'"):
            degeneration_form(2, "b", 8)
