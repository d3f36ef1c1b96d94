import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from helpers_oracles import (
    WRITES,
    as_biseries,
    eval_at,
    eval_x,
    plain_first_difference,
    quotient_pm_ode,
    reference_bb,
    reference_bbb,
    reference_degeneration,
    reference_pm_ode,
    simple_type_form,
)

from blowup_series import algebra, bivariate, blowup, derived, hurwitz, series, verify
from blowup_series.algebra import XPoly
from blowup_series.blowup import assemble_set, build_series_set, generate_pair, series_set
from blowup_series.series import SeriesError, TSeries
from blowup_series.verify import (
    CATALOG,
    CATALOG_IDS,
    STATUS_APPENDIX,
    STATUS_CONJECTURAL,
    golden_check,
    golden_diff,
    run_catalog,
    verify_all,
)

ENTRY = {d.id: d for d in CATALOG}
FRAK = ("b0_equals_b2", "btau_equals_s2", "ws0_equals_wronskian", "ws1_equals_bs")
PM_ODE = ("pm_ode_plus", "pm_ode_minus")


def _bumped(series, n, k, delta):
    """``series`` with ``delta`` added to x^k of its kernel entry n."""
    h = [list(p) for p in series.h]
    h[n] += [0] * (k + 1 - len(h[n]))
    h[n][k] += delta
    return TSeries.from_kernel([hurwitz.clean(p) for p in h], series.order)


def _with_products(base, b2, s2):
    """A set over ``base``'s pair whose B^2 and S^2 are replaced; every other
    group is ``base``'s."""
    set_ = assemble_set(base.b, base.s)
    vars(set_)["_products"] = (b2, s2, base.bs, base.wronskian)
    vars(set_)["_exponential"] = base._exponential
    return set_


def _pm_ode_reports_equal_the_quotient_form(set_, throughs):
    """Both rows report what the quotient form with B's reciprocal reports,
    slot, values and errors, through each order; returns how many failed.

    The quotient form is held to the plain reference once per row, at the
    highest order it reaches: both compare series that do not depend on the
    order, so their first differences then agree at every lower one too."""
    failed = 0
    for cid, sign in zip(PM_ODE, (1, -1)):
        top = None
        for through in throughs:
            report = ENTRY[cid].run(set_, through)
            try:
                expected = quotient_pm_ode(set_, sign, through)
            except SeriesError as exc:
                assert report.error == f"SeriesError: {exc}"
                continue
            assert report.error is None and report.first_mismatch == expected
            failed += not report.passed
            top = through, expected
        if top is not None:
            assert top[1] == reference_pm_ode(set_, sign, top[0])
    return failed


def _mutated_set(base_order=12, exponent=4, delta=F(1, 24)):
    """A series set whose even series is perturbed at one t-slot."""
    b, s = generate_pair(base_order)
    bad_b = b + TSeries.monomial(delta, exponent, b.order)
    return assemble_set(bad_b, s)


class TestCatalogShape:
    def test_fixed_catalog_order(self):
        assert CATALOG_IDS == (
            "b0_equals_b2",
            "btau_equals_s2",
            "ws0_equals_wronskian",
            "ws1_equals_bs",
            "pm_ode_plus",
            "pm_ode_minus",
            "bb_diagonal",
            "bb",
            "bbb",
            "degeneration_x2_b2",
            "degeneration_x2_s2",
            "degeneration_x2_wronskian",
            "degeneration_x2_bs",
            "degeneration_xneg2_b2",
            "degeneration_xneg2_s2",
            "degeneration_xneg2_wronskian",
            "degeneration_xneg2_bs",
            "relations_coefficients",
        )

    def test_statuses(self):
        assert ENTRY["bb"].status == STATUS_CONJECTURAL
        assert ENTRY["relations_coefficients"].status == STATUS_APPENDIX
        assert ENTRY["bb"].arity == "bivariate"
        assert ENTRY["pm_ode_plus"].arity == "univariate"

    @pytest.mark.parametrize("write", WRITES)
    @pytest.mark.parametrize(
        "name", ["id", "arity", "status", "max_feasible_order_hint", "check", "run"]
    )
    def test_a_row_is_read_only(self, name, write):
        row = ENTRY["bb"]
        kept = getattr(row, name)
        with pytest.raises(AttributeError, match=f"^cannot {write} field '{name}'$"):
            WRITES[write](row, name)
        assert getattr(row, name) == kept

    def test_reports_carry_the_id_and_status_of_their_row(self, set17):
        reports = run_catalog(set17, 12, bivariate_order=8)
        assert len(reports) == len(CATALOG)
        for descriptor, report in zip(CATALOG, reports):
            assert (report.identity, report.status) == (descriptor.id, descriptor.status)

    def test_each_id_is_written_once(self):
        """The catalog row is the only place an identity id appears."""
        source = Path(verify.__file__).read_text()
        assert {cid: source.count(f'"{cid}"') for cid in CATALOG_IDS} == dict.fromkeys(
            CATALOG_IDS, 1
        )


class TestFrakIdentities:
    def test_pass_at_low_order(self, set17):
        reports = run_catalog(set17, 16, identities=FRAK)
        assert [r.identity for r in reports] == [
            "b0_equals_b2",
            "btau_equals_s2",
            "ws0_equals_wronskian",
            "ws1_equals_bs",
        ]
        assert all(r.passed for r in reports)

    def test_both_routes_share_the_order4_value(self, set17):
        assert set17.b0.coeff(4, normalized=True) == XPoly((-4,))
        assert set17.b2.coeff(4, normalized=True) == XPoly((-4,))

    def test_corrupted_coefficient_is_reported_with_both_values(self):
        bad = _mutated_set(exponent=4, delta=F(1, 24))  # t^4 slot becomes -3/24
        reports = run_catalog(bad, 8, identities=FRAK)
        failed = [r for r in reports if not r.passed]
        assert failed, "a corrupted even series must break at least one equality"
        report = failed[0]
        assert report.first_mismatch is not None
        assert report.first_mismatch.t == 4
        assert report.first_mismatch.lhs != report.first_mismatch.rhs

    def test_requested_order_beyond_the_data_fails_honestly(self, set17):
        # the wronskian loses one order to differentiation, so a request at
        # the raw truncation order is unprovable and reported as failed
        reports = run_catalog(set17, 17, identities=FRAK)
        by_id = {r.identity: r for r in reports}
        report = by_id["ws0_equals_wronskian"]
        assert not report.passed and report.error is not None

    def test_a_pair_with_b0_other_than_one_is_refused_by_its_condition(self):
        """B(0) = 2: the evaluation ODE's solutions start at f(0) = 1, and the
        rows that read them report the condition B(0) = 1 they need."""
        b, s = generate_pair(8)
        set_ = assemble_set(b + TSeries.monomial(1, 0, b.order), s)
        with pytest.raises(SeriesError, match=r"^the evaluation ODE needs B\(0\) = 1$"):
            set_.b_plus
        for cid in ("b0_equals_b2", "pm_ode_plus"):
            report = ENTRY[cid].run(set_, 6)
            assert report.error == "SeriesError: the evaluation ODE needs B(0) = 1", cid


class TestOdeAndBivariate:
    def test_pm_ode_passes(self, set17):
        reports = run_catalog(set17, 14, identities=PM_ODE)
        assert [r.identity for r in reports] == ["pm_ode_plus", "pm_ode_minus"]
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "b2_change, s2_change",
        [
            ((6, 1, 1), (10, 0, -3)),
            ((10, 2, 5), (6, 0, 1)),
            # b2 + s2 keeps its t^4 entry, so only pm_ode_minus sees the change
            ((4, 0, 7), (4, 0, -7)),
            # b2 - s2 loses its constant term and starts at t^1
            ((0, 0, -1), (12, 3, 2)),
        ],
    )
    def test_pm_ode_failure_reports_equal_the_quotient_form(self, b2_change, s2_change):
        """One corrupted kernel entry of b2 and one of s2: both rows report what
        the quotient form with B's reciprocal reports, slot, values and errors."""
        base = series_set(13)
        set_ = _with_products(base, _bumped(base.b2, *b2_change), _bumped(base.s2, *s2_change))
        assert _pm_ode_reports_equal_the_quotient_form(set_, (3, 5, 9, 12, 13)) >= 4

    def test_pm_ode_reports_equal_the_quotient_form_on_every_one_entry_corruption(self):
        """Every entry x^0 .. x^3 of b2 and of s2 at an order-13 set, one at a
        time, through every order 0 .. 14.  A corrupted t^0 entry makes the
        factor c of the check 2, or makes B^2 - S^2 start at t^1."""
        base = series_set(13)
        failed = 0
        for n in range(14):
            for k in range(4):
                b2, s2 = _bumped(base.b2, n, k, 1), _bumped(base.s2, n, k, 1)
                for set_ in (_with_products(base, b2, base.s2), _with_products(base, base.b2, s2)):
                    failed += _pm_ode_reports_equal_the_quotient_form(set_, range(15))
        assert failed > 1000

    def test_the_ode_rows_form_no_series_product(self, monkeypatch):
        set_ = build_series_set(17)
        mul = hurwitz.mul
        calls = []
        monkeypatch.setattr(hurwitz, "mul", lambda *args: calls.append(args) or mul(*args))
        assert all(r.passed for r in run_catalog(set_, 16, identities=PM_ODE))
        assert calls == []

    def test_bb_diagonal_passes(self, set17):
        assert ENTRY["bb_diagonal"].run(set17, 16).passed

    def test_bb_diagonal_on_a_long_set_equals_it_on_a_short_one(self, set17):
        """B^2 and S^2 are multiplied only through the order asked for: on an
        order-129 set the row reports what it reports on an order-17 set."""
        row = ENTRY["bb_diagonal"]
        bump = TSeries.monomial(F(1, 3), 10, 129)
        for long_set, short_set in (
            (series_set(129), set17),
            (
                assemble_set(series_set(129).b + bump, series_set(129).s),
                assemble_set(set17.b + bump.truncate(17), set17.s),
            ),
        ):
            long, short = row.run(long_set, 16).to_json(), row.run(short_set, 16).to_json()
            assert {**long, "ms": 0} == {**short, "ms": 0, "series_hash": long["series_hash"]}
        assert not long["pass"]

    def test_bb_diagonal_refuses_an_order_beyond_the_set(self, set17):
        report = ENTRY["bb_diagonal"].run(set17, 18)
        assert report.error == "SeriesError: comparison through t^18 exceeds known orders (17, 17)"

    def test_bb_and_bbb_pass(self, set17):
        assert ENTRY["bb"].run(set17, 8).passed
        assert ENTRY["bbb"].run(set17, 8).passed

    def test_bbb_low_order_slot_value(self, set17):
        """Lowest block of the triple-product identity: both sides reduce to
        u^2 v + u v^2, so the (2,1) slot carries coefficient 1."""
        m = 6
        s = set17.s.truncate(m)
        lhs = as_biseries(s, "u", m) * as_biseries(s, "v", m) * s.subst_pm(+1)
        assert lhs.coeff(2, 1) == XPoly((1,))
        db = set17.b.derivative().truncate(m)
        b = set17.b.truncate(m)
        rhs = (
            as_biseries(db, "u", m) * as_biseries(b, "v", m) * b.subst_pm(+1)
            + as_biseries(b, "u", m) * as_biseries(db, "v", m) * b.subst_pm(+1)
            - as_biseries(b, "u", m) * as_biseries(b, "v", m) * db.subst_pm(+1)
        )
        assert rhs.coeff(2, 1) == XPoly((1,))

    def test_bb_catches_mutations(self):
        bad = _mutated_set(exponent=8, delta=1)
        assert not ENTRY["bb"].run(bad, 8).passed

    @pytest.mark.parametrize("n", [8, 24])
    def test_bb_on_a_lazy_set_reports_what_it_reports_on_a_built_one(self, n):
        """``bb`` reads B^2 and S^2 from the set, so on a lazy set it builds the
        product group and no other; its report, passing or failing, is the
        report on a set with every group built, apart from ``ms``."""

        def report(set_):
            (r,) = run_catalog(set_, n - 1, bivariate_order=n - 1, identities=["bb"])
            return {**r.to_json(), "ms": 0}

        def built(b, s):
            set_ = assemble_set(b, s)
            for group in blowup._GROUPS:
                getattr(set_, group)
            return set_

        b, s = generate_pair(n)
        bad = b + TSeries.monomial(F(1, 7), 4, b.order)  # the seed corruption of test_blowup
        for pair, passed in (((b, s), True), ((bad, s), False)):
            lazy = assemble_set(*pair)
            got = report(lazy)
            assert got == report(built(*pair)) and got["pass"] is passed
            assert [group for group in blowup._GROUPS if group in vars(lazy)] == ["_products", "content_hash"]
        assert got["first_mismatch"] == reference_bb(bad, s, n - 1).to_json()
        assert report(series_set(n)) == report(build_series_set(n))

    def test_bb_reaches_total_degree_64(self):
        (report,) = run_catalog(series_set(65), 64, bivariate_order=64, identities=["bb"])
        assert report.passed and report.order == 64

    def test_a_build_and_its_catalog_form_no_plain_coefficient(self, monkeypatch):
        """Generation, the derived groups and a passing catalog stay on kernel
        vectors: neither the plain constructor nor entry / n! runs."""
        calls = []
        plain_init = TSeries.__init__

        def counted_init(self, *args):
            calls.append("TSeries")
            plain_init(self, *args)

        def counted(name, plain):
            def counted_plain(*args):
                calls.append(name)
                return plain(*args)

            return counted_plain

        blowup.golden_table()  # parsed once per process, from kernel vectors
        monkeypatch.setattr(TSeries, "__init__", counted_init)
        monkeypatch.setattr(algebra, "plain_poly", counted("plain_poly", algebra.plain_poly))
        for module in (series, blowup, bivariate, verify):  # each module that values a mismatch
            monkeypatch.setattr(module, "plain_value", counted("plain_value", series.plain_value))
        st = build_series_set(13)
        assert all(r.passed for r in run_catalog(st, 12, bivariate_order=8))
        assert calls == []
        assert st.b2 is st.b2

    def test_a_failing_check_forms_no_xpoly(self, monkeypatch):
        """A pair with B bumped at t^8, x^0 fails most rows and the golden
        table.  With the x-polynomial refused, every mismatch is still found
        and valued, at the slot and with the values of the plain route."""
        built = build_series_set(33)
        st = assemble_set(_bumped(built.b, 8, 0, 1), built.s)
        for group in ("_products", "_exponential", "_odd", "content_hash"):
            getattr(st, group)
        table = blowup.golden_table()

        def refused(self, *args):
            raise AssertionError("an XPoly was formed")

        monkeypatch.setattr(XPoly, "__init__", refused)
        reports = {r.identity: r.first_mismatch for r in run_catalog(st, 32, bivariate_order=12)}
        diffs = golden_diff(st)
        monkeypatch.undo()

        for cid, (lhs, rhs) in zip(FRAK, (("b0", "b2"), ("btau", "s2"), ("ws0", "wronskian"), ("ws1", "bs"))):
            assert reports[cid] == plain_first_difference(getattr(st, lhs), getattr(st, rhs), 32), cid
        for x, tag in ((2, "x2"), (-2, "xneg2")):
            for name in ("b2", "s2", "wronskian", "bs"):
                plain = eval_x(getattr(st, name), x), simple_type_form(name, x, 32)
                assert reports[f"degeneration_{tag}_{name}"] == plain_first_difference(*plain, 32)
        assert reports["bb"] == reference_bb(st.b, st.s, 12)
        assert reports["bbb"] == reference_bbb(st.b, st.s, 12)
        assert sum(m is not None for m in reports.values()) == 15
        for row, name in verify._GOLDEN_PAIRING:
            first = next(((d.t, d.x, d.expected, d.got) for d in diffs if (d.row, d.series) == (row, name)), None)
            assert first == plain_first_difference(table[row], getattr(st, name), table[row].order), row
        assert (diffs[0].row, diffs[0].t, diffs[0].x) == ("B", 8, 0)


class TestDegenerations:
    def test_hyperbolic_point(self, set17):
        ids = [
            "degeneration_x2_b2",
            "degeneration_x2_s2",
            "degeneration_x2_wronskian",
            "degeneration_x2_bs",
        ]
        reports = run_catalog(set17, 14, identities=ids)
        assert all(r.passed for r in reports)
        assert [r.identity for r in reports] == ids

    def test_trigonometric_mirror(self, set17):
        ids = [cid for cid in CATALOG_IDS if cid.startswith("degeneration_xneg2_")]
        reports = run_catalog(set17, 12, identities=ids)
        assert len(reports) == 4 and all(r.passed for r in reports)

    def test_frozen_low_order_values(self, set17):
        """B^2 at x = 2 is exp(-t^2) cosh^2 t = 1 - t^4/6 + (2/45) t^6 + ..."""
        sub = eval_x(set17.b2, 2)
        assert sub.coeff(2).is_zero
        assert sub.coeff(4) == XPoly((F(-1, 6),))
        assert sub.coeff(6) == XPoly((F(2, 45),))
        # the Wronskian row at t^4/4! evaluates to 12 at x = 2, matching exp(-t^2)
        assert eval_at(set17.wronskian.coeff(4, normalized=True), 2) == 12

    @pytest.mark.parametrize("corrupted, untouched", [("b", "s2"), ("s", "b2")])
    def test_a_corrupted_pair_is_reported_as_the_plain_route_reports_it(self, corrupted, untouched):
        """A wrong t^10 coefficient 1 + 3x in B or in S fails every row but the
        untouched square's, and each row names the slot and values that
        substituting x in Fraction series and comparing with the Fraction
        closed form names."""
        pair = dict(zip("bs", generate_pair(24)))
        pair[corrupted] = pair[corrupted] + TSeries.monomial(XPoly((1, 3)), 10, 24)
        bad = assemble_set(pair["b"], pair["s"])
        ids = [cid for cid in CATALOG_IDS if cid.startswith("degeneration_")]
        reports = run_catalog(bad, 20, identities=ids)
        for report in reports:
            x = 2 if "_x2_" in report.identity else -2
            want = reference_degeneration(bad, x, report.identity.rsplit("_", 1)[1], 20)
            assert report.to_json()["first_mismatch"] == (want and want.to_json()), report.identity
        assert {r.identity for r in reports if r.passed} == {
            f"degeneration_x2_{untouched}",
            f"degeneration_xneg2_{untouched}",
        }


class TestRelationsAndGolden:
    def test_relation_coefficients(self, set17):
        (report,) = run_catalog(set17, 16, identities=["relations_coefficients"])
        assert report.passed and report.status == STATUS_APPENDIX and report.order == 4
        assert set17.b2.coeff(2, normalized=True).is_zero
        assert set17.s2.coeff(2, normalized=True) == XPoly((2,))
        assert set17.b2.coeff(4, normalized=True) == XPoly((-4,))
        assert set17.s2.coeff(4, normalized=True) == XPoly.x() * -8

    @pytest.mark.parametrize(
        "name, coeff, t, mismatch",
        [
            # s2 entry 4 becomes 0: the missing x^1 entry reads 0 against -8
            ("s2", XPoly((0, F(1, 3))), 4, {"t": 4, "x": 1, "lhs": "0", "rhs": "-8"}),
            # b2 gains x^2 t^2: the expected entry is empty
            ("b2", XPoly((0, 0, 1)), 2, {"t": 2, "x": 2, "lhs": "2", "rhs": "0"}),
        ],
    )
    def test_a_corrupted_relation_coefficient_is_reported_in_table_form(
        self, monkeypatch, name, coeff, t, mismatch
    ):
        products = derived.derived_products

        def bumped(b, s):
            named = dict(zip(("b2", "s2", "bs", "wronskian"), products(b, s)))
            named[name] = named[name] + TSeries.monomial(coeff, t, b.order)
            return tuple(named.values())

        monkeypatch.setattr(derived, "derived_products", bumped)
        (report,) = run_catalog(
            assemble_set(*generate_pair(8)), 8, identities=["relations_coefficients"]
        )
        assert not report.passed and report.to_json()["first_mismatch"] == mismatch

    def test_golden_check(self, set17):
        report = golden_check(set17)
        assert report.passed and report.identity == "golden_table"

    def test_golden_check_needs_full_table_coverage(self):
        small = assemble_set(*generate_pair(12))
        with pytest.raises(SeriesError):
            golden_check(small)


class TestRunCatalogAndVerifyAll:
    def test_minimum_order(self):
        with pytest.raises(ValueError):
            verify_all(4)

    def test_reports_in_catalog_order(self, set17):
        reports = run_catalog(set17, 12, bivariate_order=8)
        assert [r.identity for r in reports] == list(CATALOG_IDS)
        assert all(r.passed for r in reports)
        assert all(r.series_hash == set17.content_hash for r in reports)

    def test_identity_filter(self, set17):
        reports = run_catalog(set17, 10, identities=["bb_diagonal", "b0_equals_b2"])
        assert [r.identity for r in reports] == ["b0_equals_b2", "bb_diagonal"]
        with pytest.raises(ValueError):
            run_catalog(set17, 10, identities=["nope"])

    def test_monotonicity(self, set17):
        """An identity passing at an order passes at every lower order."""
        for order in (14, 10, 8):
            assert all(r.passed for r in run_catalog(set17, order, identities=FRAK))

    def test_report_json_schema(self, set17):
        report = run_catalog(set17, 8, identities=["bb"])[0]
        data = report.to_json()
        assert set(data) == {
            "identity",
            "order",
            "pass",
            "first_mismatch",
            "series_hash",
            "ms",
            "status",
        }
        text = json.dumps(data)
        assert json.loads(text)["pass"] is True

    def test_mismatch_json_for_corrupted_set(self):
        bad = _mutated_set(exponent=4)
        report = run_catalog(bad, 8, identities=["b0_equals_b2"])[0]
        data = report.to_json()
        assert data["pass"] is False
        assert set(data["first_mismatch"]) == {"t", "x", "lhs", "rhs"}

    def test_out_of_range_order_becomes_failed_report_with_error(self):
        st = assemble_set(*generate_pair(10))
        # differentiation costs one order, so order-10 data cannot certify
        # the ode at order 10; the runner records that as a failed report
        reports = run_catalog(st, 10, identities=PM_ODE)
        assert all(not r.passed and r.error for r in reports)
        assert all("error" in r.to_json() for r in reports)
        # while at order 9 the same set passes cleanly
        assert all(r.passed for r in run_catalog(st, 9, identities=PM_ODE))

    @pytest.mark.parametrize(
        "arguments",
        [
            {"order": 4},
            {"bivariate_order": -1},
            {"identities": ["nope"]},
            {"identities": ["bb", "nope"]},
        ],
        ids=["order", "bivariate_order", "identity", "one_identity_of_two"],
    )
    def test_verify_all_refuses_bad_arguments_before_it_builds(self, monkeypatch, arguments):
        def build_started(order):
            raise AssertionError(f"generation started at order {order}")

        monkeypatch.setattr(blowup, "generate_pair", build_started)
        with pytest.raises(ValueError):
            verify_all(**{"order": 48, **arguments})

    def test_run_catalog_refuses_jobs_below_1_and_verify_all_takes_none(self, set17):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_catalog(set17, 8, jobs=0)
        with pytest.raises(TypeError):
            verify_all(8, jobs=1)

    @pytest.mark.parametrize("ids", ["bb", "b0_equals_b2"])
    def test_one_string_of_ids_is_refused_with_a_request_for_a_list(self, monkeypatch, ids):
        st9 = series_set(9)
        monkeypatch.setattr(blowup, "generate_pair", lambda order: pytest.fail("generation started"))
        refusal = f"^identities must be a list of identity ids, not the string {ids!r}$"
        for run in (lambda: verify_all(8, identities=ids), lambda: run_catalog(st9, 8, identities=ids)):
            with pytest.raises(ValueError, match=refusal):
                run()

    def test_verify_all_takes_identities_once(self):
        reports = verify_all(8, bivariate_order=8, identities=iter(["bb", "b0_equals_b2"]))
        assert [r.identity for r in reports] == ["b0_equals_b2", "bb"]

    @pytest.mark.parametrize("order, bivariate_order", [(8, -1), (-1, 8)])
    def test_negative_orders_are_refused_before_any_check(
        self, monkeypatch, order, bivariate_order
    ):
        def check_ran(*_):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "bb_tables", check_ran)
        monkeypatch.setattr(verify, "first_difference", check_ran)
        with pytest.raises(ValueError, match="must be >= 0"):
            run_catalog(
                series_set(9),
                order,
                bivariate_order=bivariate_order,
                identities=["bb", "bbb", "b0_equals_b2"],
            )
