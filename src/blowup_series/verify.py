"""The identity suite: every series identity the engine can certify.

:data:`CATALOG` is the one place an identity is declared.  Each row gives
its id, its arity (univariate identities run through ``order``, bivariate
ones through a total degree), its status, a feasibility hint that caps the
order, and a check ``(series_set, order) -> mismatch | None``.  A row's
``run`` times its check and builds the :class:`VerificationReport`, so every
report carries the id and status of the row it came from.

Each identity is checked by expanding both sides exactly to a finite
truncation order and comparing coefficient by coefficient, so a passing
report certifies the identity *through that order only*.  The univariate
equalities between the integral-formula series and the plain products
(b0 = B^2 and friends), the evaluation ODE, the bivariate product
identities and the hyperbolic/trigonometric degenerations are all
theorems about evaluated invariants; as statements between the raw series
they remain conjectural, and their reports say so.  Only the golden-table
and coefficient-relation checks certify transcribed reference data.

Every check reads the divided-power vectors of its series, the table forms
n! [t^n] (:mod:`blowup_series.hurwitz`).  The bivariate identities ``bb``
and ``bbb`` compare integer tables of entries i! j! [u^i v^j], built and
compared by :mod:`blowup_series.bivariate`; the other rows compare
vectors with :func:`~blowup_series.series.first_difference`.  The plain
values of a mismatch are formed only at the first slot that differs.  The
two ``pm_ode_*`` rows form no series product: the evaluation ODE is solved
once, by :func:`~blowup_series.derived.exponential_pair`, and each row
compares (B^2 +- S^2)' with its t^0 entry times the derivative of that
solution, which reports what the ODE's quotient form reports.  The
eight ``degeneration_*`` rows evaluate a series at x = +-2, one Horner sum
per entry, and compare it there with its closed form, the integer vector
of :func:`~blowup_series.derived.degeneration_form`: each row builds only
its own form.

Reports carry a hash of the generated pair so a certificate is tied to the
series it was computed from, and a wall-clock duration in milliseconds.
The catalog runs its checks one after another on the calling thread, so
each report's ``ms`` is the time of that check alone on a set from
:func:`~blowup_series.blowup.build_series_set`.  On a lazy set the first
check that reads a derived group also pays for building it.
"""
from __future__ import annotations

import json
import time
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple

from . import hurwitz
from .bivariate import UVMismatch, bb_tables, bbb_tables, table_mismatch
from . import blowup
from .blowup import GOLDEN_ORDER, BlowupSeriesSet, GenerationError, build_order, build_series_set
from .derived import _quotient_order, degeneration_form, sha256_hex
from .series import ReadOnly, SeriesError, TMismatch, TSeries, first_difference, plain_value

STATUS_CONJECTURAL = "conjectural (series level)"
STATUS_APPENDIX = "appendix data"

UNIVARIATE = "univariate"
BIVARIATE = "bivariate"

#: a check: the first mismatch through the given order, or None
Check = Callable[[BlowupSeriesSet, int], "TMismatch | UVMismatch | None"]


class VerificationReport(NamedTuple):
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


class IdentityDescriptor(ReadOnly):
    """One catalog row: an identity and the check that certifies it.

    ``run(series_set, order)`` times ``check`` and reports it.  It is an
    attribute of each row, not a method, so that a profiler can wrap it row
    by row.  A row is read-only through :class:`ReadOnly`.
    """

    id: str
    arity: str
    status: str
    max_feasible_order_hint: int
    check: Check
    run: Callable[[BlowupSeriesSet, int], VerificationReport]

    def __init__(self, id: str, arity: str, status: str, max_feasible_order_hint: int, check: Check):
        self.__dict__.update(
            id=id,
            arity=arity,
            status=status,
            max_feasible_order_hint=max_feasible_order_hint,
            check=check,
            run=self._report,
        )

    def _report(self, series_set: BlowupSeriesSet, order: int) -> VerificationReport:
        start = time.perf_counter()
        error = None
        try:
            mismatch = self.check(series_set, order)
        except (SeriesError, GenerationError, ZeroDivisionError) as exc:
            mismatch = None
            error = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - start) * 1000.0
        passed = mismatch is None and error is None
        return VerificationReport(self.id, order, passed, mismatch, series_set.content_hash, ms, self.status, error)


# ---------------------------------------------------------------------------
# the checks


def _equal(lhs: str, rhs: str) -> Check:
    """Two series of the set agree coefficient by coefficient."""
    return lambda st, order: first_difference(getattr(st, lhs), getattr(st, rhs), order)


def _pm_ode(sign: int) -> Check:
    """d/dt (B^2 +- S^2) = ((B' +- S)/B)(2t) * (B^2 +- S^2), before evaluation.

    The check reads the solution b_+- of this equation that the set's
    exponential group holds, and forms no series product.  The equation
    B(2t) f' = (B' +- S)(2t) f is linear over Q[x], and sigma = B(2t) is a
    unit, so f = B^2 +- S^2 solves it through t^n exactly when f = c b_+-
    through t^(n+1), where c is the t^0 entry of f.  Let d = f - c b_+- have
    its first nonzero entry at t^m, m >= 1.  With rho = (B' +- S)(2t), the
    residual sigma d' - rho d is then first nonzero at t^(m-1), and there it
    equals d'.  So f' and c b_+-' first differ at the slot where the
    quotient form ((B' +- S)/B)(2t) f first differs from f', with the
    quotient form's values: f' on the left and c b_+-' = f' - d' on the
    right.  The right side is known through the quotient form's order, so
    too high an order is refused with the quotient form's orders.  b_+-'
    reaches that order wherever c != 0, since f then starts at t^0; where
    c = 0 the right side is zero.  A pair the exponential group refuses
    (B(0) != 1, or one that breaks the parity rule) raises that group's
    error.
    """

    def check(series_set: BlowupSeriesSet, order: int) -> "TMismatch | None":
        solution = series_set.b_plus if sign == 1 else series_set.b_minus
        b2, s2, b, s = series_set.b2, series_set.s2, series_set.b, series_set.s
        combo = b2 + s2 if sign == 1 else b2 - s2
        numerator = b.derivative() + s if sign == 1 else b.derivative() - s
        # the orders of (numerator / B) and of (numerator / B)(2t) * combo
        quotient_order = _quotient_order(numerator, b)
        rhs_order = min(quotient_order + combo.valuation, combo.order + numerator.valuation)
        c = combo.h[0]
        rhs = TSeries.from_kernel([hurwitz.product(c, p) for p in solution.derivative().h], rhs_order)
        return first_difference(combo.derivative(), rhs, order)

    return check


def _bb_diagonal(series_set: BlowupSeriesSet, order: int) -> "TMismatch | None":
    """The u = v specialisation of the product identity: B(2t) = B^4 - S^4.

    B^2 and S^2 are multiplied only through ``order``; an order beyond what
    the products know is refused by :func:`first_difference`.
    """
    b2, s2 = series_set.b2, series_set.s2
    b2, s2 = b2.truncate(min(order, b2.order)), s2.truncate(min(order, s2.order))
    return first_difference(series_set.b.scale_arg(2), b2 * b2 - s2 * s2, order)


def _bb(series_set: BlowupSeriesSet, total_order: int) -> "UVMismatch | None":
    """The bivariate product identity (*) through a total degree.

    Its right side reads the set's B^2 and S^2, so on a lazy set this check
    builds the product group, and its time includes that build.
    """
    b, s = series_set.b, series_set.s
    return table_mismatch(*bb_tables(b, s, series_set.b2, series_set.s2, total_order), total_order)


def _bbb(series_set: BlowupSeriesSet, total_order: int) -> "UVMismatch | None":
    return table_mismatch(*bbb_tables(series_set.b, series_set.s, total_order), total_order)


def _at(x: int, name: str) -> Check:
    """Substituting x -> +-2 collapses a series to a closed hyperbolic or
    trigonometric form, built inside the timed check."""

    def check(series_set: BlowupSeriesSet, order: int) -> "TMismatch | None":
        return first_difference(_at_x(getattr(series_set, name), x), degeneration_form(x, name, order), order)

    return check


def _at_x(series: TSeries, x: int) -> TSeries:
    """Substitute a value for x in every entry of a power series, one Horner sum each."""
    out = []
    for p in series.h:
        v = 0
        for c in reversed(p):
            v = v * x + c
        out.append(hurwitz.clean([v]))
    return TSeries.from_kernel(out, series.order)


def _relations(series_set: BlowupSeriesSet, order: int) -> "TMismatch | None":
    """The four low-order table coefficients that drive the two classical
    evaluation relations on tau^2 and tau^4, at t^2 and t^4, each read only
    through ``order``.  The table forms n! [t^n] are the kernel entries themselves."""
    for name, n, expected in (("b2", 2, ()), ("s2", 2, (2,)), ("b2", 4, (-4,)), ("s2", 4, (0, -8))):
        if n > order:
            break
        series = getattr(series_set, name)
        if n > series.order:  # raise what reading the plain coefficient raises
            series.coeff(n)
        got = series.h[n]
        for _, x in hurwitz.differences([(n, got, expected)]):  # the first mismatch, if any
            return TMismatch(n, x, plain_value(got, x, 1), plain_value(expected, x, 1))
    return None


@lru_cache(maxsize=1)
def golden_table_hash() -> str:
    return sha256_hex(blowup._golden_bytes())


#: which generated series are measured against which golden rows
_GOLDEN_PAIRING: tuple[tuple[str, str], ...] = (
    ("B", "b"),
    ("S", "s"),
    ("B2", "b2"),
    ("S2", "s2"),
    ("WS0", "wronskian"),
    ("WS0", "ws0"),
    ("WS1", "bs"),
    ("WS1", "ws1"),
)


def golden_diff(series_set: BlowupSeriesSet) -> "list[blowup.GoldenDiff]":
    """All disagreements between the set and the golden table (empty = match).

    The derived series are built from the pair cut at the build order of the
    golden rows' reach, not read from the set: no golden row needs more.
    """
    top = min(series_set.order, build_order(GOLDEN_ORDER))
    cut = blowup.assemble_set(series_set.b.truncate(top), series_set.s.truncate(top))
    return list(blowup._golden_diffs((row, name, getattr(cut, name)) for row, name in _GOLDEN_PAIRING))


def _golden(series_set: BlowupSeriesSet, order: int) -> "TMismatch | None":
    diffs = golden_diff(series_set)
    return TMismatch(diffs[0].t, diffs[0].x, diffs[0].got, diffs[0].expected) if diffs else None


# ---------------------------------------------------------------------------
# the catalog

CATALOG: tuple[IdentityDescriptor, ...] = (
    IdentityDescriptor("b0_equals_b2", UNIVARIATE, STATUS_CONJECTURAL, 128, _equal("b0", "b2")),
    IdentityDescriptor("btau_equals_s2", UNIVARIATE, STATUS_CONJECTURAL, 128, _equal("btau", "s2")),
    IdentityDescriptor("ws0_equals_wronskian", UNIVARIATE, STATUS_CONJECTURAL, 128, _equal("ws0", "wronskian")),
    IdentityDescriptor("ws1_equals_bs", UNIVARIATE, STATUS_CONJECTURAL, 128, _equal("ws1", "bs")),
    IdentityDescriptor("pm_ode_plus", UNIVARIATE, STATUS_CONJECTURAL, 128, _pm_ode(1)),
    IdentityDescriptor("pm_ode_minus", UNIVARIATE, STATUS_CONJECTURAL, 128, _pm_ode(-1)),
    IdentityDescriptor("bb_diagonal", UNIVARIATE, STATUS_CONJECTURAL, 128, _bb_diagonal),
    IdentityDescriptor("bb", BIVARIATE, STATUS_CONJECTURAL, 64, _bb),
    IdentityDescriptor("bbb", BIVARIATE, STATUS_CONJECTURAL, 64, _bbb),
    IdentityDescriptor("degeneration_x2_b2", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(2, "b2")),
    IdentityDescriptor("degeneration_x2_s2", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(2, "s2")),
    IdentityDescriptor("degeneration_x2_wronskian", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(2, "wronskian")),
    IdentityDescriptor("degeneration_x2_bs", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(2, "bs")),
    IdentityDescriptor("degeneration_xneg2_b2", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(-2, "b2")),
    IdentityDescriptor("degeneration_xneg2_s2", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(-2, "s2")),
    IdentityDescriptor("degeneration_xneg2_wronskian", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(-2, "wronskian")),
    IdentityDescriptor("degeneration_xneg2_bs", UNIVARIATE, STATUS_CONJECTURAL, 128, _at(-2, "bs")),
    # the four coefficients sit at t^2 and t^4, so the report states order 4
    IdentityDescriptor("relations_coefficients", UNIVARIATE, STATUS_APPENDIX, 4, _relations),
)

CATALOG_IDS: tuple[str, ...] = tuple(d.id for d in CATALOG)

#: the golden table stays outside the catalog
_GOLDEN = IdentityDescriptor("golden_table", UNIVARIATE, STATUS_APPENDIX, GOLDEN_ORDER, _golden)


def golden_check(series_set: BlowupSeriesSet) -> VerificationReport:
    """Exact comparison of the whole set against the embedded golden table."""
    if series_set.order < GOLDEN_ORDER:
        raise SeriesError(f"the golden table reaches t^{GOLDEN_ORDER}; build the set at order >= {GOLDEN_ORDER}")
    return _GOLDEN.run(series_set, GOLDEN_ORDER)


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
    feasibility hint.  Negative orders are refused before any check runs.
    The checks run one after another on the calling thread.  ``jobs`` must
    be at least 1 and changes nothing; it stays only because the benchmark's
    traced ``verify`` reruns the catalog with ``jobs=2`` and fails a run
    whose reports differ, and it leaves with that caller.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    selected = _select(order, bivariate_order, identities)
    return [
        d.run(series_set, min(_requested(d, order, bivariate_order), d.max_feasible_order_hint))
        for d in selected
    ]


def _requested(descriptor: IdentityDescriptor, order: int, bivariate_order: int) -> int:
    """The order a row is asked for, before its feasibility hint caps it; the
    relations row's data sits at t^2 and t^4, so no more than 4 is asked of it."""
    if descriptor.arity == BIVARIATE:
        return min(bivariate_order, order)
    return min(order, 4) if descriptor.check is _relations else order


def capped_notes(reports: Iterable[VerificationReport], order: int, bivariate_order: int) -> list[str]:
    """One line for each report whose order its row's cap put below the requested order."""
    rows = {d.id: d for d in CATALOG}
    notes = []
    for report in reports:
        d = rows[report.identity]
        requested = _requested(d, order, bivariate_order)
        if report.order < requested:
            unit = "order" if d.arity == UNIVARIATE else "total degree"
            notes.append(
                f"{d.id} checked through {unit} {report.order}, below the requested "
                f"{requested}, the row's cap"
            )
    return notes


def _select(order: int, bivariate_order: int, identities: "Iterable[str] | None") -> list[IdentityDescriptor]:
    """The catalog rows to run, in catalog order; bad arguments raise ValueError."""
    if order < 0 or bivariate_order < 0:
        raise ValueError(f"orders must be >= 0, got {order} and bivariate {bivariate_order}")
    if identities is None:
        return list(CATALOG)
    if isinstance(identities, str):
        raise ValueError(f"identities must be a list of identity ids, not the string {identities!r}")
    wanted = list(identities)
    unknown = sorted(set(wanted) - set(CATALOG_IDS))
    if unknown:
        raise ValueError(f"unknown identity ids: {', '.join(unknown)}")
    return [d for d in CATALOG if d.id in wanted]


def verify_all(
    order: int,
    *,
    bivariate_order: int = 16,
    identities: "Iterable[str] | None" = None,
) -> list[VerificationReport]:
    """Regenerate the pair and run the whole catalog through ``order``.

    The set is built at ``build_order(order)``, so that every check that
    loses an order to differentiation still genuinely reaches ``order``.
    Every argument, and the build's cap ``MAX_ORDER``, is checked before the
    recurrence starts; generation failures propagate as :class:`GenerationError`.
    """
    selected = [d.id for d in _select(order, bivariate_order, identities)]
    series_set = build_series_set(build_order(order))
    return run_catalog(series_set, order, bivariate_order=bivariate_order, identities=selected)


# ---------------------------------------------------------------------------
# the handlers of ``verify``, ``table`` and ``bench``, beside the catalog they
# run, so that their process compiles no other command's handler


def _cmd_verify(args: SimpleNamespace) -> int:
    from .cli import EXIT_FAIL, EXIT_OK, _check_order, _emit, _UsageError, _write

    _check_order(args.order, 0)
    if args.bivariate_order < 0:
        raise _UsageError("--bivariate-order must be >= 0")
    try:
        reports = verify_all(args.order, bivariate_order=args.bivariate_order, identities=args.identity)
    except ValueError as exc:
        raise _UsageError(exc) from None
    _emit("\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports), args.output)
    for note in capped_notes(reports, args.order, args.bivariate_order):
        _write("stderr", f"verify: {note}\n")
    failed = [r.identity for r in reports if not r.passed]
    if failed:
        _write("stderr", f"verify: FAILED: {', '.join(failed)}\n")
        return EXIT_FAIL
    _write("stderr", f"verify: all {len(reports)} identities pass through their reported orders\n")
    return EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    from .cli import EXIT_FAIL, EXIT_OK, _check_order, _emit, _write

    _check_order(args.order, GOLDEN_ORDER, " to cover the golden table")
    # golden_diff builds its own derived series from a cut pair; the hash is the whole pair's
    series = blowup.assemble_set(*blowup.generate_pair(build_order(args.order)))
    report = golden_check(series)
    lines = [json.dumps({**report.to_json(), "golden_hash": golden_table_hash()}, sort_keys=True)]
    # the report stops at the first difference; list them all only on failure
    diffs = [] if report.passed else golden_diff(series)
    lines += [json.dumps(diff.to_json(), sort_keys=True) for diff in diffs]
    _emit("\n".join(lines), args.output)
    if diffs:
        _write("stderr", f"table: {len(diffs)} coefficient slots differ from the golden table\n")
        return EXIT_FAIL
    _write("stderr", "table: exact match with the golden table\n")
    return EXIT_OK


def _cmd_bench(args: SimpleNamespace) -> int:
    from .cli import EXIT_OK, _check_order, _emit, _UsageError

    _check_order(args.order, 0)
    if args.bivariate_order < 0:
        raise _UsageError("--bivariate-order must be >= 0")
    start = time.perf_counter()
    series = blowup.build_series_set(build_order(args.order))
    gen_ms = (time.perf_counter() - start) * 1000.0
    rows = [{"row": "generate", "order": args.order, "ms": gen_ms}]
    reports = run_catalog(series, args.order, bivariate_order=args.bivariate_order)
    rows += [{"row": report.identity, "order": report.order, "ms": report.ms} for report in reports]
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows), args.output)
    return EXIT_OK
