"""The identity suite: every series identity the engine can certify.

Each identity is checked by expanding both sides exactly to a finite
truncation order and comparing coefficient by coefficient, so a passing
report certifies the identity *through that order only*.  The univariate
equalities between the integral-formula series and the plain products
(b0 = B^2 and friends), the evaluation ODE, the bivariate product
identities and the hyperbolic/trigonometric degenerations are all
theorems about evaluated invariants; as statements between the raw series
they remain conjectural, and their reports say so.  Only the golden-table
and coefficient-relation checks certify transcribed reference data.

The bivariate identities ``bb`` and ``bbb``, the evaluation ODEs
``pm_ode_plus``/``pm_ode_minus`` and ``bb_diagonal`` compare integer tables
in the divided-power basis of :mod:`blowup_series.hurwitz`: i! j! [u^i v^j]
and n! [t^n].  The plain values of a mismatch, entry / (i! j!) or
entry / n!, are formed only at the first slot that differs, in the scan
order of :func:`~blowup_series.series.first_difference_uv` and
:func:`~blowup_series.series.first_difference`
(:func:`~blowup_series.blowup.table_mismatch`,
:func:`~blowup_series.blowup.hurwitz_mismatch`).  The other checks compare
plain coefficients.

Reports carry a hash of the generated pair so a certificate is tied to the
series it was computed from, and a wall-clock duration in milliseconds.
The catalog runs its checks one after another on the calling thread, so
each report's ``ms`` is the time of that check alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import hurwitz
from .algebra import XPoly, first_coeff_difference
from .blowup import (
    BlowupSeriesSet,
    GenerationError,
    bb_tables,
    build_series_set,
    golden_diff,
    hurwitz_form,
    hurwitz_mismatch,
    table_mismatch,
)
from .series import (
    NonUnitLeadingError,
    SeriesError,
    TMismatch,
    TSeries,
    UVMismatch,
    cos_series,
    cosh_series,
    exp_t_squared,
    first_difference,
    sin_series,
    sinh_series,
)

STATUS_CONJECTURAL = "conjectural (series level)"
STATUS_APPENDIX = "appendix data"

UNIVARIATE = "univariate"
BIVARIATE = "bivariate"


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one truncation order."""

    identity: str
    order: int
    passed: bool
    first_mismatch: "TMismatch | UVMismatch | None"
    series_hash: str
    ms: float
    status: str
    error: "str | None" = None

    def to_json(self) -> dict:
        data = {
            "identity": self.identity,
            "order": self.order,
            "pass": self.passed,
            "first_mismatch": None if self.first_mismatch is None else self.first_mismatch.to_json(),
            "series_hash": self.series_hash,
            "ms": self.ms,
            "status": self.status,
        }
        if self.error is not None:
            data["error"] = self.error
        return data


def _timed(
    identity: str,
    status: str,
    order: int,
    series_hash: str,
    check: Callable[[], "TMismatch | UVMismatch | None"],
) -> VerificationReport:
    start = time.perf_counter()
    error = None
    try:
        mismatch = check()
    except (SeriesError, GenerationError, ZeroDivisionError) as exc:
        mismatch = None
        error = f"{type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - start) * 1000.0
    passed = mismatch is None and error is None
    return VerificationReport(identity, order, passed, mismatch, series_hash, ms, status, error)


# ---------------------------------------------------------------------------
# individual identity checks


#: the four univariate identities: (report id, left attribute, right attribute)
_FRAK_PAIRS: tuple[tuple[str, str, str], ...] = (
    ("b0_equals_b2", "b0", "b2"),
    ("btau_equals_s2", "btau", "s2"),
    ("ws0_equals_wronskian", "ws0", "wronskian"),
    ("ws1_equals_bs", "ws1", "bs"),
)


def _frak_report(
    series_set: BlowupSeriesSet, order: int, name: str, lhs: str, rhs: str
) -> VerificationReport:
    return _timed(
        name,
        STATUS_CONJECTURAL,
        order,
        series_set.content_hash,
        lambda: first_difference(
            getattr(series_set, lhs), getattr(series_set, rhs), through=order
        ),
    )


def verify_frak_identities(series_set: BlowupSeriesSet, order: int) -> list[VerificationReport]:
    """The four equalities between integral-formula series and plain products."""
    return [_frak_report(series_set, order, *pair) for pair in _FRAK_PAIRS]


def _pm_ode_mismatch(series_set: BlowupSeriesSet, sign: int, order: int) -> "TMismatch | None":
    if series_set.b.valuation != 0 or series_set.b.coeff(0).degree != 0:
        # every assembled set has B(0) = 1; a Laurent quotient has no table form
        raise NonUnitLeadingError("the evaluation ODE needs B(0) to be a nonzero rational")
    b, s, b2, s2 = (
        hurwitz_form(getattr(series_set, name)) for name in ("b", "s", "b2", "s2")
    )
    combo = b2 + s2 if sign == 1 else b2 - s2
    numerator = b.derivative() + s if sign == 1 else b.derivative() - s
    rhs = (numerator * b.recip()).scale_arg(2) * combo
    return hurwitz_mismatch(combo.derivative(), rhs, order)


def _pm_ode_report(series_set: BlowupSeriesSet, order: int, sign: int) -> VerificationReport:
    return _timed(
        "pm_ode_plus" if sign == 1 else "pm_ode_minus",
        STATUS_CONJECTURAL,
        order,
        series_set.content_hash,
        lambda: _pm_ode_mismatch(series_set, sign, order),
    )


def verify_pm_ode(series_set: BlowupSeriesSet, order: int) -> list[VerificationReport]:
    """d/dt (B^2 +- S^2) = ((B' +- S)/B)(2t) * (B^2 +- S^2), before evaluation."""
    return [_pm_ode_report(series_set, order, sign) for sign in (1, -1)]


def verify_bb_diagonal(series_set: BlowupSeriesSet, order: int) -> VerificationReport:
    """The u = v specialisation of the product identity: B(2t) = B^4 - S^4."""

    def check() -> "TMismatch | None":
        b, b2, s2 = (hurwitz_form(getattr(series_set, name)) for name in ("b", "b2", "s2"))
        return hurwitz_mismatch(b.scale_arg(2), b2 * b2 - s2 * s2, order)

    return _timed("bb_diagonal", STATUS_CONJECTURAL, order, series_set.content_hash, check)


def verify_bb(series_set: BlowupSeriesSet, total_order: int) -> VerificationReport:
    """The bivariate product identity (*) through a total degree."""

    def check() -> "UVMismatch | None":
        return table_mismatch(*bb_tables(series_set.b, series_set.s, total_order), total_order)

    return _timed("bb", STATUS_CONJECTURAL, total_order, series_set.content_hash, check)


def bbb_tables(b: TSeries, s: TSeries, total_order: int) -> tuple[hurwitz.Table, hurwitz.Table]:
    """Both sides of the triple-product identity
    S(u)S(v)S(u+v) = B'(u)B(v)B(u+v) + B(u)B'(v)B(u+v) - B(u)B(v)B'(u+v)
    through a total degree, as divided-power tables."""
    m = total_order
    hb, hs, hdb = (hurwitz_form(x.truncate(m)).h for x in (b, s, b.derivative()))
    lhs = hurwitz.triple(hs, hs, hs, m)
    # B'(u)B(v)B(u+v) is the transpose of B(u)B'(v)B(u+v)
    first = hurwitz.triple(hdb, hb, hb, m)
    transpose = [[first[j][i] for j in range(m - i + 1)] for i in range(m + 1)]
    both = hurwitz.table_add(first, transpose)
    return lhs, hurwitz.table_add(both, hurwitz.triple(hb, hb, hdb, m), -1)


def verify_bbb(series_set: BlowupSeriesSet, total_order: int) -> VerificationReport:
    """The triple-product identity relating S(u)S(v)S(u+v) to derivatives of B."""

    def check() -> "UVMismatch | None":
        return table_mismatch(*bbb_tables(series_set.b, series_set.s, total_order), total_order)

    return _timed("bbb", STATUS_CONJECTURAL, total_order, series_set.content_hash, check)


#: x = 2 and x = -2: (c in the envelope exp(c t^2), even form, odd form)
_DEGENERATION_FORMS = {
    2: (-1, cosh_series, sinh_series),
    -2: (1, cos_series, sin_series),
}

_DEGENERATION_ATTRS = ("b2", "s2", "wronskian", "bs")


def _degeneration_reference(point: int, attr: str, order: int) -> TSeries:
    """The closed hyperbolic or trigonometric form of ``attr`` at x = point."""
    c, even, odd = _DEGENERATION_FORMS[point]
    envelope = exp_t_squared(c, order)
    if attr == "b2":
        return envelope * even(order) * even(order)
    if attr == "s2":
        return envelope * odd(order) * odd(order)
    if attr == "wronskian":
        return envelope
    return envelope * (odd(order).scale_arg(2) * Fraction(1, 2))


def _degeneration_report(
    series_set: BlowupSeriesSet, order: int, point: int, attr: str
) -> VerificationReport:
    if point not in _DEGENERATION_FORMS:
        raise ValueError("degeneration point must be 2 or -2")
    tag = "x2" if point == 2 else "xneg2"
    series: TSeries = getattr(series_set, attr)
    return _timed(
        f"degeneration_{tag}_{attr}",
        STATUS_CONJECTURAL,
        order,
        series_set.content_hash,
        lambda: first_difference(
            series.eval_x(point), _degeneration_reference(point, attr, order), through=order
        ),
    )


def verify_simple_type_degeneration(
    series_set: BlowupSeriesSet, order: int, point: int = 2
) -> list[VerificationReport]:
    """Substituting x -> +-2 collapses the series to closed hyperbolic or
    trigonometric forms; all four named series are compared exactly."""
    return [_degeneration_report(series_set, order, point, attr) for attr in _DEGENERATION_ATTRS]


_RELATION_FACTS: tuple[tuple[str, int, XPoly], ...] = (
    ("b2", 2, XPoly.zero()),
    ("s2", 2, XPoly((2,))),
    ("b2", 4, XPoly((-4,))),
    ("s2", 4, XPoly.x() * -8),
)


def verify_relations_coefficients(series_set: BlowupSeriesSet) -> VerificationReport:
    """The four low-order table coefficients that drive the two classical
    evaluation relations on tau^2 and tau^4."""

    def check() -> "TMismatch | None":
        for attr, n, expected in _RELATION_FACTS:
            got = getattr(series_set, attr).coeff(n, normalized=True)
            diff = first_coeff_difference(got, expected)
            if diff is not None:
                return TMismatch(n, *diff)
        return None

    return _timed("relations_coefficients", STATUS_APPENDIX, 4, series_set.content_hash, check)


def golden_check(series_set: BlowupSeriesSet) -> VerificationReport:
    """Exact comparison of the whole set against the embedded golden table."""
    if series_set.order < 16:
        raise SeriesError("the golden table reaches t^16; build the set at order >= 16")

    def check() -> "TMismatch | None":
        diffs = golden_diff(series_set)
        if diffs:
            d = diffs[0]
            return TMismatch(d.t, d.x, d.got, d.expected)
        return None

    return _timed(
        "golden_table", STATUS_APPENDIX, min(series_set.order, 16), series_set.content_hash, check
    )


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class IdentityDescriptor:
    """One catalog entry: a deterministic recipe for an identity check."""

    id: str
    arity: str
    status: str
    max_feasible_order_hint: int
    run: Callable[[BlowupSeriesSet, int], VerificationReport]


def _make_catalog() -> tuple[IdentityDescriptor, ...]:
    entries: list[IdentityDescriptor] = []

    def add(identity: str, arity: str, status: str, hint: int, run) -> None:
        entries.append(IdentityDescriptor(identity, arity, status, hint, run))

    for pair in _FRAK_PAIRS:
        add(
            pair[0],
            UNIVARIATE,
            STATUS_CONJECTURAL,
            128,
            lambda st, order, pair=pair: _frak_report(st, order, *pair),
        )
    for label, sign in (("plus", 1), ("minus", -1)):
        add(
            f"pm_ode_{label}",
            UNIVARIATE,
            STATUS_CONJECTURAL,
            128,
            lambda st, order, sign=sign: _pm_ode_report(st, order, sign),
        )
    add("bb_diagonal", UNIVARIATE, STATUS_CONJECTURAL, 128, verify_bb_diagonal)
    add("bb", BIVARIATE, STATUS_CONJECTURAL, 24, verify_bb)
    add("bbb", BIVARIATE, STATUS_CONJECTURAL, 24, verify_bbb)
    for point, tag in ((2, "x2"), (-2, "xneg2")):
        for attr in _DEGENERATION_ATTRS:
            add(
                f"degeneration_{tag}_{attr}",
                UNIVARIATE,
                STATUS_CONJECTURAL,
                128,
                lambda st, order, point=point, attr=attr: _degeneration_report(
                    st, order, point, attr
                ),
            )
    add(
        "relations_coefficients",
        UNIVARIATE,
        STATUS_APPENDIX,
        128,
        lambda st, order: verify_relations_coefficients(st),
    )
    return tuple(entries)


CATALOG: tuple[IdentityDescriptor, ...] = _make_catalog()

CATALOG_IDS: tuple[str, ...] = tuple(d.id for d in CATALOG)


def run_catalog(
    series_set: BlowupSeriesSet,
    order: int,
    *,
    bivariate_order: int = 16,
    jobs: int = 1,
    identities: "Iterable[str] | None" = None,
) -> list[VerificationReport]:
    """Run catalog identities over an existing set, in fixed catalog order.

    Univariate identities run through ``order``, bivariate ones through
    ``min(bivariate_order, order)``; both are capped by each entry's
    feasibility hint.  The checks run one after another on the calling
    thread.  ``jobs`` is still accepted and must be at least 1, but it does
    not change how the checks run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    selected = list(CATALOG)
    if identities is not None:
        wanted = list(identities)
        unknown = sorted(set(wanted) - set(CATALOG_IDS))
        if unknown:
            raise ValueError(f"unknown identity ids: {', '.join(unknown)}")
        selected = [d for d in CATALOG if d.id in wanted]

    def order_for(descriptor: IdentityDescriptor) -> int:
        n = order if descriptor.arity == UNIVARIATE else min(bivariate_order, order)
        return min(n, descriptor.max_feasible_order_hint)

    return [d.run(series_set, order_for(d)) for d in selected]


def verify_all(
    order: int,
    jobs: int = 1,
    *,
    bivariate_order: int = 16,
    identities: "Iterable[str] | None" = None,
) -> list[VerificationReport]:
    """Regenerate the pair at ``order`` and run the whole catalog.

    The set is built one order above the request so that every check that
    loses an order to differentiation still genuinely reaches ``order``.
    Generation failures propagate as :class:`GenerationError`.
    """
    if order < 8:
        raise ValueError(f"verification needs order >= 8, got {order}")
    series_set = build_series_set(order + 1)
    return run_catalog(
        series_set,
        order,
        bivariate_order=bivariate_order,
        jobs=jobs,
        identities=identities,
    )
