"""Acceptance suite: one test per criterion, exact tolerances, pinned budgets.

Every numeric comparison in this module is an exact equality of rational
coefficients; there are no floating-point tolerances anywhere.  Each test
prints one PASS line (visible with ``pytest -s`` or in captured output on
failure) so the suite doubles as a human-readable checklist.
"""
import random
import time
from fractions import Fraction as F

from helpers_oracles import eval_x

from blowup_series.algebra import XPoly
from blowup_series.blowup import assemble_set, build_series_set, generate_pair, golden_table
from blowup_series.pairing import (
    MomentFunctional,
    eval_even,
    eval_even_main_prime,
    pair,
)
from blowup_series.series import TSeries, first_difference
from blowup_series.verify import CATALOG_IDS, golden_diff, run_catalog, verify_all

X = XPoly.x()
FRAK = ("b0_equals_b2", "btau_equals_s2", "ws0_equals_wronskian", "ws1_equals_bs")


def _announce(number: int, title: str, detail: str) -> None:
    print(f"ACCEPTANCE {number} PASS  {title}: {detail}")


def test_criterion_1_golden_table_reproduction():
    """Generated B, S, B^2, S^2, WS0, WS1 match every table coefficient
    exactly, in under 5 seconds."""
    start = time.perf_counter()
    series_set = build_series_set(16)
    diffs = golden_diff(series_set)
    elapsed = time.perf_counter() - start
    assert diffs == [], f"golden mismatches: {[d.to_json() for d in diffs[:3]]}"
    expected_b16 = XPoly((13584, 0, -88320, 0, -46080, 0, -8192))
    assert series_set.b.coeff(16, normalized=True) == expected_b16
    assert elapsed < 5.0, f"golden reproduction took {elapsed:.2f}s (budget 5s)"
    _announce(1, "golden-table reproduction", f"exact match in {elapsed:.2f}s < 5s")


def test_criterion_2_integral_formula_identities_orders_28_and_32():
    """b0 = B^2, btau = S^2, ws0 = wronskian, ws1 = BS pass exactly at
    order 28 and again at order 32, the 32 run within 60 seconds."""
    series_28 = build_series_set(29)
    reports_28 = run_catalog(series_28, 28, identities=FRAK)
    assert all(r.passed for r in reports_28), [r.identity for r in reports_28 if not r.passed]

    start = time.perf_counter()
    series_32 = build_series_set(33)
    reports_32 = run_catalog(series_32, 32, identities=FRAK)
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in reports_32), [r.identity for r in reports_32 if not r.passed]
    assert elapsed < 60.0, f"order-32 run took {elapsed:.2f}s (budget 60s)"
    _announce(2, "integral-formula identities", f"exact at 28 and 32; 32 in {elapsed:.2f}s < 60s")


def test_criterion_3_evaluation_ode_before_pairing(set29):
    """B^2 +- S^2 satisfies the evaluation ODE exactly through order 28."""
    start = time.perf_counter()
    reports = run_catalog(set29, 28, identities=["pm_ode_plus", "pm_ode_minus"])
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in reports)
    assert elapsed < 30.0, f"ODE check took {elapsed:.2f}s (budget 30s)"
    _announce(3, "evaluation ODE", f"both signs exact through 28 in {elapsed:.2f}s < 30s")


def test_criterion_4_bivariate_identities(set29):
    """The product and triple-product identities hold through total degree
    16, and the diagonal specialisation B(2t) = B^4 - S^4 through 28."""
    start = time.perf_counter()
    diagonal, bb, bbb = run_catalog(
        set29, 28, bivariate_order=16, identities=["bb", "bbb", "bb_diagonal"]
    )
    elapsed = time.perf_counter() - start
    assert bb.passed, bb.first_mismatch
    assert bbb.passed, bbb.first_mismatch
    assert diagonal.passed, diagonal.first_mismatch
    assert elapsed < 120.0, f"bivariate checks took {elapsed:.2f}s (budget 120s)"
    _announce(4, "bivariate identities", f"total degree 16 + diagonal 28 in {elapsed:.2f}s < 120s")


def _degenerations(point: str) -> list[str]:
    ids = [cid for cid in CATALOG_IDS if cid.startswith(f"degeneration_{point}_")]
    assert len(ids) == 4
    return ids


def test_criterion_5_simple_type_degenerations(set29):
    """x -> 2 collapses the series to the exact hyperbolic forms through 28;
    the x -> -2 mirror gives the trigonometric forms through 12."""
    hyperbolic = run_catalog(set29, 28, identities=_degenerations("x2"))
    assert all(r.passed for r in hyperbolic), [r.identity for r in hyperbolic if not r.passed]
    trigonometric = run_catalog(set29, 12, identities=_degenerations("xneg2"))
    assert all(r.passed for r in trigonometric), [
        r.identity for r in trigonometric if not r.passed
    ]
    _announce(5, "simple-type degenerations", "x=2 exact through 28, x=-2 exact through 12")


def test_criterion_6_relation_coefficients(set29):
    """The four normalized low-order coefficients behind the evaluation
    relations, checked both directly and through the pairing layer."""
    (report,) = run_catalog(set29, 28, identities=["relations_coefficients"])
    assert report.passed
    assert set29.b2.coeff(2, normalized=True) == XPoly.zero()
    assert set29.s2.coeff(2, normalized=True) == XPoly((2,))
    assert set29.b2.coeff(4, normalized=True) == XPoly((-4,))
    assert set29.s2.coeff(4, normalized=True) == X * -8

    # pairing layer: with unit moments the t^2 coefficient doubles the
    # second functional, and the primed route reproduces -4 mu0 - 4 nu1
    unit = MomentFunctional("unit", (F(1),) * 20)
    zero = MomentFunctional.zero("zero", 20)
    ruberman = eval_even(zero, unit, 12)
    assert ruberman.series.coeff(2, normalized=True) == XPoly((2,))
    quartic = eval_even_main_prime(unit, unit, 12)
    assert quartic.series.coeff(4, normalized=True) == XPoly((-8,))
    _announce(6, "relation coefficients", "0, 2, -4, -8x all exact, pairing layer agrees")


def test_criterion_7_pairing_properties(set29):
    """Geometric substitution, linearity, and primed-route consistency,
    each over at least 100 seeded random rational inputs at order 20."""
    order = 20
    length = 24
    rng = random.Random(0xB10F)

    def random_rational(span=18, den=9):
        return F(rng.randint(-span, span), rng.randint(1, den))

    def random_functional(label):
        return MomentFunctional(label, tuple(random_rational() for _ in range(length)))

    # geometric-moment substitution law: pair(f, c*r^k) = c * f|_{x=r}
    for _ in range(100):
        c, r = random_rational(), random_rational()
        mu = MomentFunctional.geometric("g", c, r, length)
        f = set29.b2.truncate(order)
        assert first_difference(pair(f, mu), eval_x(f, r) * c) is None

    # joint linearity of the even evaluation in the moment data
    def mix(alpha, m1, beta, m2):
        return MomentFunctional(
            "mix", tuple(alpha * a + beta * b for a, b in zip(m1.moments, m2.moments))
        )

    for _ in range(100):
        alpha, beta = random_rational(), random_rational()
        m1, m2 = random_functional("m1"), random_functional("m2")
        p1, p2 = random_functional("p1"), random_functional("p2")
        lhs = eval_even(mix(alpha, m1, beta, m2), mix(alpha, p1, beta, p2), order).series
        rhs = (
            eval_even(m1, p1, order).series * alpha
            + eval_even(m2, p2, order).series * beta
        )
        assert first_difference(lhs, rhs) is None

    # primed-route consistency: eval_even(mu, mu') == primed(mu, 2 mu')
    for _ in range(100):
        mu, mup = random_functional("mu"), random_functional("mu'")
        direct = eval_even(mu, mup, order).series
        primed = eval_even_main_prime(mu, mup.scaled(2), order).series
        assert first_difference(direct, primed) is None

    _announce(7, "pairing properties", "3 laws x 100 random rational inputs, order 20, exact")


def _golden_slots():
    table = golden_table()
    for row, attr in (("B", "b"), ("S", "s")):
        series = table[row]
        for n, _ in series.terms():
            yield attr, n


def test_criterion_8_mutation_sensitivity():
    """Perturbing any single golden-covered coefficient of B or S makes at
    least one catalog identity fail (or trips a construction guard)."""
    order = 17  # covers the deepest golden slot (t^16) with one guard order
    b, s = generate_pair(order)
    slots = list(_golden_slots())
    assert len(slots) == 16
    undetected = []
    for attr, exponent in slots:
        if attr == "b":
            mutated_pair = (b + TSeries.monomial(1, exponent, order), s)
        else:
            mutated_pair = (b, s + TSeries.monomial(1, exponent, order))
        try:
            mutated = assemble_set(*mutated_pair)
        except Exception:
            continue  # the construction guards already caught it
        reports = run_catalog(mutated, 16, bivariate_order=8)
        if all(r.passed for r in reports):
            undetected.append((attr, exponent))
    assert undetected == [], f"mutations that slipped through: {undetected}"
    _announce(8, "mutation sensitivity", f"all {len(slots)} golden-slot mutations detected")


def test_criterion_9_determinism():
    """Verification reports are identical (minus timing) across repeated runs."""

    def stripped(reports):
        out = []
        for r in reports:
            record = r.to_json()
            record.pop("ms")
            out.append(record)
        return out

    first = stripped(verify_all(8, bivariate_order=8))
    again = stripped(verify_all(8, bivariate_order=8))
    assert first == again, "repeated runs must agree"
    _announce(9, "determinism", "repeated runs agree modulo timing")
