"""Generation of the universal blow-up pair and every series derived from it.

The even series B = 1 - 2 t^4/4! + ... and the odd series S = t - x t^3/3!
+ ... are the unique pair of series in Q[x][[t]] that satisfy the bivariate
product identity

    B(u+v) B(u-v) = B^2(u) B^2(v) - S^2(u) S^2(v)                        (*)

together with the seeds B = 1 (mod t^4) and S = t - x t^3/6 (mod t^5).
Extracting the v^2 and v^4 coefficients of (*) turns it into two ordinary
differential relations,

    (E2)  B''B - (B')^2 + S^2 = 0
    (E4)  B''''B - 4 B'''B' + 3 (B'')^2 + 2 B^2 - 4x S^2 = 0,

and reading those off coefficient by coefficient gives a linear recurrence:
(E4) at t^n pins the next even coefficient b_{n+4}, then (E2) at t^{n+2}
pins the next odd coefficient s_{n+1}.  The seeds make the first two (E2)
instances redundant; they are kept as consistency checks, and generation
compares the pair against the embedded golden coefficient table before
returning.  The identity (*) itself is certified by the catalog row ``bb``.

Every derived series is built by one route.  The exponential series come
from one evaluation ODE and the blow-up symmetry (t, x) -> (it, -x), which
maps it to the other (:func:`exponential_pair`); their closed forms through
sqrt and exp are not built again, because the identity catalog certifies
what they feed (b0 = B^2, btau = S^2 and the evaluation ODEs themselves).

Every construction runs on the divided-power vectors that a
:class:`TSeries` holds (:mod:`blowup_series.hurwitz`), where the table forms
n! [t^n] of B, S and all derived series are integer polynomials in x: the
recurrence gives b_{n+4} = -rest and s_{m-1} = -rest/(2m), products are
binomial convolutions, and the integral formulas are solved as linear ODEs.
The identity checks compare those entries as they are and form plain
values only at the first slot that differs.

A :class:`BlowupSeriesSet` builds each derived group on the first read of one
of its series and keeps it.  :func:`assemble_set` checks only that the pair
shares one order, so a construction error surfaces on that first read, not
when the set is made; a failed build is not kept, and the next read raises
again.  :func:`series_set` is the cached lazy set of a generated pair;
:func:`build_series_set` returns one with every group already built.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

from . import hurwitz
from .algebra import Rational, XPoly
from .hurwitz import Poly, add, clean, divided, pair_pieces, pair_products, pair_sum, parts, scaled
from .series import BiSeries, SeriesError, TSeries, UVMismatch, plain_poly


class GenerationError(RuntimeError):
    """The generating recurrence or its mandatory self-checks failed."""

    def __init__(self, message: str, degree: "int | None" = None):
        super().__init__(message if degree is None else f"{message} (degree {degree})")
        self.degree = degree


class UnexpectedPoleError(SeriesError):
    """A quotient of blow-up series had a pole it must not have."""


def _c(n: int, k: int) -> int:
    """Binomial coefficient, zero outside 0 <= k <= n."""
    return math.comb(n, k) if 0 <= k <= n else 0


#: the stored pair products of one vector by d: the pieces (i, r, c) of
#: :func:`hurwitz.pair_products`
Pairs = dict[int, list[tuple[int, int, Poly]]]


def _e4_rest(b_pairs: Pairs, s_pairs: Pairs, n: int) -> Poly:
    """Left side of (E4) at t^n in the Hurwitz basis, unknown b_{n+4} read as zero.

    Products are binomial convolutions and derivatives index shifts, so
    B''''B - 4B'''B' + 3(B'')^2 is sum_i W(i) b_i b_{n+4-i} with
    W(i) = C(n,i-4) - 4C(n,i-3) + 3C(n,i-2).  The unknown enters only as
    b_0 b_{n+4} = b_{n+4}, so b_{n+4} = -rest needs no division.
    """
    acc = pair_sum(
        (b_pairs[n + 4], n + 4, lambda i: _c(n, i - 4) - 4 * _c(n, i - 3) + 3 * _c(n, i - 2)),
        (b_pairs[n], n, lambda i: 2 * _c(n, i)),
    )
    # -4x S^2: the sum over S, times x by a shift of one x-power
    return add(acc, [0] + pair_sum((s_pairs[n], n, lambda i: -4 * _c(n, i))))


def _e2_rest(b_pairs: Pairs, s_pairs: Pairs, m: int) -> Poly:
    """Left side of (E2) at t^m in the Hurwitz basis, unknowns read as zero.

    The unknown s_{m-1} enters only through s_1 s_{m-1}, with weight
    C(m,1) + C(m,m-1) = 2m, so s_{m-1} = -rest / (2m).
    """
    return clean(
        pair_sum(
            (b_pairs[m + 2], m + 2, lambda i: _c(m, i - 2) - _c(m, i - 1)),
            (s_pairs[m], m, lambda i: _c(m, i)),
        )
    )


def generate_pair(order: int) -> tuple[TSeries, TSeries]:
    """Generate the blow-up pair (B, S) exactly through t^order.

    ``order`` must be at least 4.  Each pair product b_i b_{d-i} and
    s_i s_{d-i} is formed once (:func:`hurwitz.pair_products`) and kept only
    while a later step reads it: (E4) at t^n reads the b-pairs of n + 4 and
    of n and the s-pairs of n, (E2) at t^(n+2) the b-pairs of n + 4 and the
    s-pairs of n + 2.  The pair that holds a step's unknown joins its list
    once the step has solved it; its other factor is b_0 = 1 or s_1 = 1.

    After the recurrence the generated pair is checked: the seed-redundant
    (E2) instances must vanish and the coefficients must match the embedded
    golden table wherever it reaches.  Any mismatch raises
    :class:`GenerationError` naming the offending degree.
    """
    if order < 4:
        raise ValueError(f"generation needs order >= 4, got {order}")
    top = order + 4  # extra guard so s_{order} is reachable
    # Hurwitz vectors: b[n] = n! [t^n] B and s[n] = n! [t^n] S
    b: list[Poly] = [[] for _ in range(top + 1)]
    s: list[Poly] = [[] for _ in range(top + 1)]
    b[0] = [1]
    s[1] = [1]
    s[3] = [0, -1]  # 3! * (-x/6)
    # the x-parity parts of each entry, which the pair products read
    b_parts, s_parts = ([parts(p) if p else [] for p in h] for h in (b, s))
    b_pairs: Pairs = {d: pair_products(b_parts, d) for d in (0, 2)}
    s_pairs: Pairs = {0: []}  # s_0 = 0

    for n in range(0, order, 2):
        d = n + 4
        b_pairs[d] = pair_products(b_parts, d)
        b[d] = [-v for v in _e4_rest(b_pairs, s_pairs, n)]
        b_parts[d] = parts(b[d])
        b_pairs[d] += pair_pieces(0, b_parts[0], b_parts[d])
        m = n + 2
        s_pairs[m] = pair_products(s_parts, m)
        rest = _e2_rest(b_pairs, s_pairs, m)
        if m in (2, 4):
            if rest:
                residual = XPoly(rest) / math.factorial(m)
                raise GenerationError(
                    f"seed consistency check failed, residual {residual}", degree=m
                )
        else:
            s[m - 1] = divided(rest, -2 * m)
            s_parts[m - 1] = parts(s[m - 1])
            s_pairs[m] += pair_pieces(1, s_parts[1], s_parts[m - 1])
        del b_pairs[n], s_pairs[n]  # no later step reads the pairs of n

    hb, hs = TSeries.from_kernel(b, order), TSeries.from_kernel(s, order)
    _check_against_golden(hb, hs)
    return hb, hs


def _check_against_golden(b: TSeries, s: TSeries) -> None:
    diff = next(_golden_diffs((("B", "b", b), ("S", "s", s))), None)
    if diff is not None:
        raise GenerationError(
            f"generated {diff.row} disagrees with the golden table at "
            f"t^{diff.t}, x^{diff.x}: {diff.got} vs {diff.expected}",
            degree=diff.t,
        )


def bb_tables(b: TSeries, s: TSeries, total_order: int) -> tuple[hurwitz.Table, hurwitz.Table]:
    """Both sides of (*) through a total degree, as divided-power tables.

    B(u+v) B(u-v) comes from :func:`hurwitz.product_pm`, the right side from
    outer products of the squares.  Entries above the total degree are not read.
    """
    checked_pair(b, s)
    if min(b.order, s.order) < total_order:
        raise SeriesError("cannot embed beyond the known truncation order")
    m = total_order
    b2, s2 = hurwitz.mul(b.h, b.h, m + 1), hurwitz.mul(s.h, s.h, m + 1)
    rhs = hurwitz.table_add(hurwitz.outer(b2, b2, m), hurwitz.outer(s2, s2, m), -1)
    return hurwitz.product_pm(b.h, m), rhs


def bb_sides(b: TSeries, s: TSeries, total_order: int) -> tuple[BiSeries, BiSeries]:
    """Both sides of the bivariate product identity (*) through a total degree."""
    lhs, rhs = bb_tables(b, s, total_order)
    return _biseries(lhs, total_order), _biseries(rhs, total_order)


def _biseries(table: hurwitz.Table, order: int) -> BiSeries:
    """The series of a kernel table, whose entry (i, j) is i! j! [u^i v^j]."""
    return BiSeries(
        [
            [plain_poly(p, math.factorial(i) * math.factorial(j)) for j, p in enumerate(row)]
            for i, row in enumerate(table)
        ],
        order,
    )


def checked_pair(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries]:
    """``(b, s)``, refused if either is a Laurent series: the constructions read
    their kernel vectors from t^0 on."""
    for series in (b, s):
        if series.valuation < 0:
            raise SeriesError(
                f"blow-up constructions need power series, got valuation {series.valuation}"
            )
    return b, s


def degeneration_forms(x: int, order: int) -> tuple[TSeries, dict[str, TSeries]]:
    """The closed forms of B^2, S^2, the Wronskian and BS at x = 2 or -2.

    With c = x/2 each is the envelope exp(-c t^2) times a factor: cosh^2 t,
    sinh^2 t, 1 and sinh(2t)/2 at x = 2, and cos^2 t, sin^2 t, 1 and
    sin(2t)/2 at x = -2.  All are integer kernel vectors.  The envelope has
    entry (-c)^(n/2) n!/(n/2)! at even n.  With g_n = c^(n//2) 2^(n-1), the
    B^2 factor is 1 at n = 0 and g_n at even n >= 2, the S^2 factor is c
    times that but 0 at n = 0, and the BS factor is g_n at odd n.
    Returns the envelope and the factors by series name.
    """
    if x not in (2, -2):
        raise ValueError(f"the simple-type forms sit at x = 2 and x = -2, got {x}")
    c = x // 2
    g = {n: c ** (n // 2) * 2 ** (n - 1) for n in range(1, order + 1)}
    evens = range(2, order + 1, 2)

    def vector(entries: dict[int, int]) -> TSeries:
        return TSeries.from_kernel(
            [[entries[n]] if entries.get(n) else [] for n in range(order + 1)], order
        )

    f = math.factorial
    envelope = vector({n: (-c) ** (n // 2) * f(n) // f(n // 2) for n in range(0, order + 1, 2)})
    return envelope, {
        "b2": vector({0: 1, **{n: g[n] for n in evens}}),
        "s2": vector({n: c * g[n] for n in evens}),
        "wronskian": vector({0: 1}),
        "bs": vector({n: g[n] for n in range(1, order + 1, 2)}),
    }


def table_mismatch(a: hurwitz.Table, b: hurwitz.Table, through: int) -> "UVMismatch | None":
    """:func:`~blowup_series.series.first_difference_uv` on kernel tables.

    Entries i! j! [u^i v^j] are compared as they are; the plain values are
    formed only at the first slot that differs.
    """
    diff = hurwitz.first_difference_table(a, b, through)
    if diff is None:
        return None
    i, j, k = diff
    f = math.factorial(i) * math.factorial(j)
    return UVMismatch(i, j, k, plain_poly(a[i][j], f).coeff(k), plain_poly(b[i][j], f).coeff(k))


# ---------------------------------------------------------------------------
# derived series


def derived_products(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries, TSeries, TSeries]:
    """B^2, S^2, BS and the Wronskian BS' - B'S, all by fresh arithmetic.

    By Leibniz, (BS)' = B'S + BS', so the Wronskian is 2 BS' - (BS)': it
    reuses BS and takes one product, BS', of its own.
    """
    bs = b * s
    return b * b, s * s, bs, b * s.derivative() * 2 - bs.derivative()


def _quotient_order(num: TSeries, den: TSeries) -> int:
    """Truncation order of the Laurent quotient num/den, as ``num * den.recip()`` states it."""
    v = den.valuation
    return min(num.order - v, den.order - 2 * v + num.valuation)


def _ode_solution(sigma: TSeries, rho: TSeries, head: list[Poly], order: int) -> TSeries:
    """The solution of sigma(2t) w' = rho(2t) w that starts with ``head``."""
    w = hurwitz.linear_ode(sigma.scale_arg(2).h, rho.scale_arg(2).h, head, order + 1)
    return TSeries.from_kernel(w, order)


def _check_parity(b: TSeries, s: TSeries) -> None:
    """Raise unless B(it; -x) = B(t; x) and S(it; -x) = i S(t; x).

    The term x^k t^n picks up the factor i^(n + 2k) under (t, x) -> (it, -x),
    so the rule asks n + 2k = 0 (mod 4) of every term of B and n + 2k = 1
    (mod 4) of every term of S.  The functional equation and its seeds are
    invariant under that map, so the generated pair obeys the rule.
    """
    for name, series, weight in (("B", b, 0), ("S", s, 1)):
        for n, p in enumerate(series.h):
            for k, v in enumerate(p):
                if v and (n + 2 * k) % 4 != weight:
                    raise SeriesError(
                        f"{name} breaks the parity rule B(it; -x) = B(t; x), "
                        f"S(it; -x) = i S(t; x) at t^{n}, x^{k}"
                    )


def exponential_pair(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries, TSeries, TSeries]:
    """The exponential solutions of the two evaluation ODEs, and their halves.

    For each sign the series exp(int_0^t ((B' +- S)/B)(2s) ds) solves
    B(2t) f' = (B' +- S)(2t) f with f(0) = 1.  When B(0) = 1 it equals
    sqrt(B(2t)) * exp(+-(1/2) int_0^{2t} S/B); that closed form is not built
    here.  Only the plus equation is solved.  The blow-up symmetry
    (t, x) -> (it, -x), with B -> B and S -> iS, maps it to the minus
    equation, so b_minus(t; x) = b_plus(it; -x): entry n of b_minus is
    (-1)^(n/2) times entry n of b_plus taken at -x.  The half sum b0 and half
    difference btau are therefore the two x-parity halves of b_plus: b0 keeps
    the terms x^k t^n with k = n/2 (mod 2), btau the others.  A pair that
    breaks the symmetry's parity rule is refused with :class:`SeriesError`
    naming its first bad slot, since its minus series would not solve its
    equation.
    Returns (plus, minus, half_sum, half_difference).
    """
    if b.h[:1] != [[1]]:
        raise SeriesError("the evaluation ODE needs B(0) = 1")
    _check_parity(b, s)
    numerator = b.derivative() + s
    plus = _ode_solution(b, numerator, [[1]], _quotient_order(numerator, b) + 1)
    b0: list[Poly] = []
    btau: list[Poly] = []
    for n, p in enumerate(plus.h):
        e = n // 2 % 2  # b0 keeps x^k t^n with k = n/2 (mod 2); odd n are zero
        b0.append(clean([v if k % 2 == e else 0 for k, v in enumerate(p)]))
        btau.append(clean([0 if k % 2 == e else v for k, v in enumerate(p)]))
    minus = [add(p, q, -1) for p, q in zip(b0, btau)]
    return plus, *(TSeries.from_kernel(h, plus.order) for h in (minus, b0, btau))


def _check_poles(s: TSeries, regular: TSeries, singular: TSeries) -> None:
    """Raise where the Laurent integrands of the odd-case formulas leave their domain.

    ``regular`` and ``singular`` are S' - B and S' + B.  (-B + S')/S must
    vanish at 0, and (B + S')/S must be exactly 2/t + O(t).  Both conditions
    are read off leading kernel entries: c_k = 2 s_{k+1} on plain
    coefficients reads (k + 1) c'_k = 2 s'_{k+1} on the entries c'_k = k! c_k.
    Only an error divides series.
    """
    v = s.valuation
    if v > s.order or len(s.h[v]) != 1:
        # dividing by S needs an x-free unit leading coefficient: raise
        # exactly what the reciprocal of S would
        s.truncate(min(v, s.order)).recip()
    if regular.valuation <= regular.order and regular.valuation < v + 1:
        raise UnexpectedPoleError(
            f"(-B + S')/S should vanish at 0 but has valuation {regular.valuation - v}"
        )
    lead = singular.valuation
    if lead > singular.order or lead != v - 1 or scaled(singular.h[lead], v) != scaled(s.h[v], 2):
        quotient = singular * s.recip()
        raise UnexpectedPoleError(
            "(B + S')/S should have exactly the pole 2/t; got valuation "
            f"{quotient.valuation} with residue {quotient.coeff(-1) if quotient.valuation <= -1 else 0}"
        )
    # the t^0 coefficient of (B + S')/S, where its truncation order reaches t^0
    reaches = min(singular.order - v, s.order - v - 1) >= 0
    if reaches and scaled(singular.h[v], v + 1) != scaled(s.h[v + 1], 2):
        raise UnexpectedPoleError("pole subtraction left a singular or constant term (valuation 0)")


def odd_case_pair(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries]:
    """The universal series of the odd pairing case, from their integral forms.

    ws0 = exp((1/2) int_0^{2t} (-B + S')/S) and
    ws1 = t * exp((1/2) int_0^{2t} [(B + S')/S - 2/s] ds).
    The first integrand must be regular at 0; the second must carry exactly
    the 2/s pole that the subtraction removes.  Both are built as solutions
    of the linear ODE S(2t) w' = q(2t) w: q = S' - B with w(0) = 1 for ws0,
    and q = S' + B with w = t + O(t^2) for ws1.  Unlike the Laurent
    quotients, whose coefficients have Bernoulli-type denominators, the
    ODE stays integral in the Hurwitz basis.
    """
    ds = s.derivative()
    regular, singular = ds - b, ds + b
    _check_poles(s, regular, singular)
    ws0 = _ode_solution(s, regular, [[1]], _quotient_order(regular, s) + 1)
    ws1 = _ode_solution(s, singular, [[], [1]], _quotient_order(singular, s) + 2)
    return ws0, ws1


def series_content_hash(b: TSeries, s: TSeries) -> str:
    import hashlib  # only reports and ``table`` hash; ``gen`` never loads it

    payload = json.dumps(
        [b.to_json(), s.to_json()], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _member(group: str, index: int) -> property:
    """Series ``index`` of a derived group, which is built on the first read."""
    return property(lambda self: getattr(self, group)[index])


@dataclass(frozen=True)
class BlowupSeriesSet:
    """The blow-up pair and every series derived from it, built on first read.

    The fields are the pair ``b``, ``s``; ``order`` is their truncation order.
    Each derived group is built by its module-level construction the first
    time one of its series is read, and kept: ``b2``, ``s2``, ``bs`` and
    ``wronskian`` are recomputed products (:func:`derived_products`), never
    aliases; ``b_plus`` solves the plus evaluation ODE, ``b_minus`` is its
    symmetry image and ``b0``/``btau`` are its two x-parity halves, the half
    sum/difference of the pair (:func:`exponential_pair`);
    ``ws0``/``ws1`` come from the odd-case integral formulas
    (:func:`odd_case_pair`).  Every construction first checks that B and S
    are power series.  ``content_hash`` fingerprints (b, s).

    A construction error therefore surfaces on the first read of a series of
    its group, not when the set is made.  A failed build is not kept, so the
    next read raises again.
    """

    b: TSeries
    s: TSeries

    @property
    def order(self) -> int:
        return self.b.order

    @cached_property
    def _products(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        return derived_products(*checked_pair(self.b, self.s))

    @cached_property
    def _exponential(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        return exponential_pair(*checked_pair(self.b, self.s))

    @cached_property
    def _odd(self) -> tuple[TSeries, TSeries]:
        return odd_case_pair(*checked_pair(self.b, self.s))

    @cached_property
    def content_hash(self) -> str:
        return series_content_hash(self.b, self.s)

    b2, s2, bs, wronskian = (_member("_products", i) for i in range(4))
    b_plus, b_minus, b0, btau = (_member("_exponential", i) for i in range(4))
    ws0, ws1 = (_member("_odd", i) for i in range(2))


#: the cached groups of a set, in build order
_GROUPS = ("_products", "_exponential", "_odd", "content_hash")


def assemble_set(b: TSeries, s: TSeries) -> BlowupSeriesSet:
    """The set over a given pair (no generation checks); nothing derived is built yet."""
    if b.order != s.order:
        raise ValueError("the pair must share one truncation order")
    return BlowupSeriesSet(b, s)


def build_series_set(order: int) -> BlowupSeriesSet:
    """Generate the pair at ``order`` (with checks) and build every derived group now."""
    built = assemble_set(*generate_pair(order))
    for group in _GROUPS:
        getattr(built, group)
    return built


@lru_cache(maxsize=8)
def series_set(order: int) -> BlowupSeriesSet:
    """The cached set at ``order``: the checked pair now, each derived group on first read."""
    return assemble_set(*generate_pair(order))


# ---------------------------------------------------------------------------
# golden table


def _golden_bytes() -> bytes:
    with open(os.path.join(os.path.dirname(__file__), "data", "golden_table.json"), "rb") as f:
        return f.read()


@lru_cache(maxsize=1)
def golden_table() -> dict[str, TSeries]:
    """The embedded reference coefficient table; its factorial rows are kernel vectors."""
    raw = json.loads(_golden_bytes())
    return {name: TSeries.from_json(entry) for name, entry in raw.items()}


@lru_cache(maxsize=1)
def golden_table_hash() -> str:
    import hashlib

    return hashlib.sha256(_golden_bytes()).hexdigest()


class GoldenDiff(NamedTuple):
    """One coefficient slot where a generated series leaves the golden table."""

    row: str
    series: str
    t: int
    x: int
    expected: Rational
    got: Rational

    def to_json(self) -> dict:
        return {
            "row": self.row,
            "series": self.series,
            "t": self.t,
            "x": self.x,
            "expected": str(self.expected),
            "got": str(self.got),
        }


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


def _golden_diffs(rows: Iterable[tuple[str, str, TSeries]]) -> Iterator[GoldenDiff]:
    """Every slot, in scan order, where a (row, name, series) leaves its golden row.

    Kernel entries are compared as they are; the plain values, entry / n!,
    are formed only for the entries that differ.
    """
    table = golden_table()
    for row, name, generated in rows:
        reference = table[row]
        for n in range(min(reference.order, generated.order) + 1):
            want, have = reference.h[n], generated.h[n]
            if want != have:
                scale = math.factorial(n)
                expected, got = plain_poly(want, scale), plain_poly(have, scale)
                for k in range(max(len(want), len(have))):
                    if expected.coeff(k) != got.coeff(k):
                        yield GoldenDiff(row, name, n, k, expected.coeff(k), got.coeff(k))


def golden_diff(series_set: BlowupSeriesSet) -> list[GoldenDiff]:
    """All disagreements between the set and the golden table (empty = match).

    The derived series are built from the pair cut one order past the
    golden rows' reach, not read from the set: no golden row needs more.
    """
    b, s = checked_pair(series_set.b, series_set.s)
    top = min(series_set.order, max(row.order for row in golden_table().values()) + 1)
    cut = assemble_set(b.truncate(top), s.truncate(top))
    return list(_golden_diffs((row, name, getattr(cut, name)) for row, name in _GOLDEN_PAIRING))
