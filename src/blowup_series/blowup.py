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
returning.  The identity (*) itself is certified by the catalog row ``bb``,
on the divided-power tables of :mod:`blowup_series.bivariate`, which only
the catalog commands load.

Every series derived from the pair is built by one route, in
:mod:`blowup_series.derived`, which a set imports on the first read of a
derived group; ``gen --series B`` never loads it.  The benchmark tracer
binds ``bb_sides`` and the four group constructions from this module, so
those names resolve to their modules' functions on first access.

Every construction runs on the divided-power vectors that a
:class:`TSeries` holds (:mod:`blowup_series.hurwitz`), where the table forms
n! [t^n] of B, S and all derived series are integer polynomials in x: the
recurrence gives b_{n+4} = -rest and s_{m-1} = -rest/(2m), products are
binomial convolutions, and the integral formulas are solved as linear ODEs.
The golden check compares those entries as they are and forms plain
values only at a slot that differs.

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
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .hurwitz import Poly, add, clean, differences, divided, pair_pieces, pair_products, pair_sum, parts
from .series import ReadOnly, SeriesError, TSeries, plain_value

if TYPE_CHECKING:
    from .algebra import Rational


class GenerationError(RuntimeError):
    """The generating recurrence or its mandatory self-checks failed."""

    def __init__(self, message: str, degree: "int | None" = None):
        super().__init__(message if degree is None else f"{message} (degree {degree})")
        self.degree = degree


class UnexpectedPoleError(SeriesError):
    """A quotient of blow-up series had a pole it must not have."""


@lru_cache(maxsize=1)
def _row(n: int) -> list[int]:
    """C(n, k - 4) at index k, for k from 0 to n + 8: the binomial row of n
    with four zeros on either side.  (E2) at t^(n+2) and then (E4) at t^(n+2)
    read the same row, so the recurrence computes each row once."""
    return [0] * 4 + [math.comb(n, k) for k in range(n + 1)] + [0] * 4


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
    c = _row(n)
    acc = pair_sum(
        (b_pairs[n + 4], n + 4, lambda i: c[i] - 4 * c[i + 1] + 3 * c[i + 2]),
        (b_pairs[n], n, lambda i: 2 * c[i + 4]),
    )
    # -4x S^2: the sum over S, times x by a shift of one x-power
    return add(acc, [0] + pair_sum((s_pairs[n], n, lambda i: -4 * c[i + 4])))


def _e2_rest(b_pairs: Pairs, s_pairs: Pairs, m: int) -> Poly:
    """Left side of (E2) at t^m in the Hurwitz basis, unknowns read as zero.

    The unknown s_{m-1} enters only through s_1 s_{m-1}, with weight
    C(m,1) + C(m,m-1) = 2m, so s_{m-1} = -rest / (2m).
    """
    c = _row(m)
    return clean(
        pair_sum((b_pairs[m + 2], m + 2, lambda i: c[i + 2] - c[i + 3]), (s_pairs[m], m, lambda i: c[i + 4]))
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
                from .algebra import plain_poly

                residual = plain_poly(rest, math.factorial(m))
                raise GenerationError(f"seed consistency check failed, residual {residual}", degree=m)
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


def _member(group: str, index: int) -> property:
    """Series ``index`` of a derived group, which is built on the first read."""
    return property(lambda self: getattr(self, group)[index])


class _TracerFields:
    """``dataclasses.fields`` of a set, for the benchmark tracer: ``b`` and ``s``.

    The tracer sizes a set by ``dataclasses.fields(series_set)``.  This
    descriptor makes the two fields when it is read, so that only that read
    imports ``dataclasses``.  It goes when the tracer stops calling
    ``dataclasses.fields`` (ROADMAP, item 1).
    """

    def __get__(self, instance, owner):
        import dataclasses

        return dataclasses.make_dataclass(owner.__name__, ["b", "s"]).__dataclass_fields__


class BlowupSeriesSet(ReadOnly):
    """The blow-up pair and every series derived from it, built on first read.

    The fields are the pair ``b``, ``s``; ``order`` is their truncation order.
    Each derived group is built by its construction in
    :mod:`blowup_series.derived` the first time one of its series is read,
    and kept: ``b2``, ``s2``, ``bs`` and ``wronskian`` are recomputed
    products (``derived_products``), never aliases; ``b_plus`` solves the
    plus evaluation ODE, ``b_minus`` is its symmetry image and
    ``b0``/``btau`` are its two x-parity halves, the half sum/difference of
    the pair (``exponential_pair``); ``ws0``/``ws1`` come from the odd-case
    integral formulas (``odd_case_pair``).  ``content_hash`` fingerprints
    (b, s).

    A construction error therefore surfaces on the first read of a series of
    its group, not when the set is made.  A failed build is not kept, so the
    next read raises again.  The set is read-only through :class:`ReadOnly`.
    Two sets are equal only if they are the same object.
    """

    b: TSeries
    s: TSeries

    __dataclass_fields__ = _TracerFields()

    def __init__(self, b: TSeries, s: TSeries):
        self.__dict__.update(b=b, s=s)

    @property
    def order(self) -> int:
        return self.b.order

    @cached_property
    def _products(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        from . import derived

        return derived.derived_products(self.b, self.s)

    @cached_property
    def _exponential(self) -> tuple[TSeries, TSeries, TSeries, TSeries]:
        from . import derived

        return derived.exponential_pair(self.b, self.s)

    @cached_property
    def _odd(self) -> tuple[TSeries, TSeries]:
        from . import derived

        return derived.odd_case_pair(self.b, self.s)

    @cached_property
    def content_hash(self) -> str:
        from . import derived

        return derived.series_content_hash(self.b, self.s)

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
def _golden_json() -> dict:
    return json.loads(_golden_bytes())


@lru_cache(maxsize=None)
def _golden_row(name: str) -> TSeries:
    return TSeries.from_json(_golden_json()[name])


def golden_table(*names: str) -> dict[str, TSeries]:
    """The embedded reference coefficient table, or its rows ``names``.

    Its factorial rows are kernel vectors.  Each row is parsed on its first
    read, so a caller that names rows parses only those.
    """
    return {name: _golden_row(name) for name in names or _golden_json()}


class GoldenDiff(NamedTuple):
    """One coefficient slot where a generated series leaves the golden table."""

    row: str
    series: str
    t: int
    x: int
    expected: Rational
    got: Rational

    def to_json(self) -> dict:
        return {**self._asdict(), "expected": str(self.expected), "got": str(self.got)}


def _golden_diffs(rows: Iterable[tuple[str, str, TSeries]]) -> Iterator[GoldenDiff]:
    """Every slot, in scan order, where a (row, name, series) leaves its golden row.

    Kernel entries are compared as they are; the plain values, entry / n!,
    are formed only at the slots that differ.
    """
    rows = list(rows)
    table = golden_table(*(row for row, _, _ in rows))
    for row, name, generated in rows:
        want, have = table[row].h, generated.h
        slots = ((n, want[n], have[n]) for n in range(min(len(want), len(have))))
        for n, k in differences(slots):
            scale = math.factorial(n)
            yield GoldenDiff(row, name, n, k, plain_value(want[n], k, scale), plain_value(have[n], k, scale))


#: the names the benchmark tracer reads from this module, and their modules
_TRACER_NAMES = {
    "bb_sides": "algebra",
    "derived_products": "derived",
    "exponential_pair": "derived",
    "odd_case_pair": "derived",
    "series_content_hash": "derived",
}


def __getattr__(name: str):
    if name not in _TRACER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    # bind it here, so that ``vars(blowup)`` holds it as an eager import would
    value = globals()[name] = getattr(import_module(f"{__package__}.{_TRACER_NAMES[name]}"), name)
    return value
