"""The bivariate identities of the blow-up pair, on divided-power tables in (u, v).

The engine builds B, S and every derived series in t alone.  The product
identity (*) of :mod:`blowup_series.blowup` and the triple-product identity
of Fintushel and Stern are only checked, by the catalog rows ``bb`` and
``bbb`` (:mod:`blowup_series.verify`), so only the catalog commands load this
module.

A table ``T`` stores the series sum T[i][j] u^i v^j / (i! j!) over the
triangle i + j <= m: row i holds the entries j = 0 .. m - i, each an
x-polynomial of :mod:`blowup_series.hurwitz`.  In this basis f(u +- v) is
the signed re-index (+-1)^j f_{i+j}, f(u) g(v) is the outer product
f_i g_j, and a product of tables is the binomial convolution in u and in v
separately.  Tables are compared as they are, by the kernel's one scan
:func:`~blowup_series.hurwitz.differences`; the plain values of a mismatch,
entry / (i! j!), are formed by :func:`~blowup_series.series.plain_value`
only at the first slot that differs.

This module imports no plain arithmetic: a failing check loads
``fractions`` only to value its mismatch.  The plain bivariate series
:class:`~blowup_series.algebra.BiSeries`, which only the tests and the
benchmark tracer read, lives in :mod:`blowup_series.algebra`.
"""
from __future__ import annotations

import math
from math import comb
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .hurwitz import Poly, _at, add, clean, convolve, differences, pair_products, pair_sum, parts, product, scaled
from .series import SeriesError, plain_value

if TYPE_CHECKING:
    from .algebra import Rational
    from .series import TSeries

# ---------------------------------------------------------------------------
# bivariate tables


Table = list  # list[list[Poly]], row i of length m - i + 1


def _mirrored(entry, symmetric: bool, m: int) -> Table:
    """The table whose entry (i, j) is ``entry(i, j)``, through total degree m.

    A ``symmetric`` table, one with entry (i, j) = entry (j, i), computes
    only the entries j >= i and takes the others from their mirror images,
    which are shared, not copied.
    """
    table: Table = []
    for i in range(m + 1):
        start = min(i, m - i + 1) if symmetric else 0
        mirror = [table[j][i] for j in range(start)]
        table.append(mirror + [entry(i, j) for j in range(start, m - i + 1)])
    return table


def outer(f: Sequence[Poly], g: Sequence[Poly], m: int) -> Table:
    """Table of f(u) g(v) through total degree m; f(u) f(v) is symmetric."""
    return _mirrored(lambda i, j: product(_at(f, i), _at(g, j)), f is g, m)


def table_add(p: Table, q: Table, sign: int = 1) -> Table:
    """``p + sign * q`` entry by entry, for tables over one triangle."""
    return [[add(a, b, sign) for a, b in zip(rp, rq)] for rp, rq in zip(p, q)]


def product_pm(f: Sequence[Poly], m: int) -> Table:
    """Table of f(u + v) f(u - v) through total degree m.

    Entry (i, j) is sum_n K_ij(n) f_n f_{i+j-n} with the x-free weights
    K_ij(n) = sum_{k+l=n} C(i,k) C(j,l) (-1)^(j-l) = [z^n] (1+z)^i (z-1)^j,
    so only the O(m^2) pair products f_n f_{d-n} touch polynomials: each is
    formed once (:func:`~blowup_series.hurwitz.pair_products`) and read by
    every entry of total degree d (:func:`~blowup_series.hurwitz.pair_sum`).
    Since K_ij(d - n) = (-1)^j K_ij(n), the entries with odd j vanish, and
    the others give the unordered pair n < d - n the weight
    K_ij(n) + K_ij(d - n), as ``pair_sum`` does.
    """
    parted = [parts(p) for p in f[: m + 1]]
    pairs = [pair_products(parted, d) for d in range(m + 1)]
    out: Table = []
    for i in range(m + 1):
        weights = [comb(i, n) for n in range(i + 1)]  # (1+z)^i, then times (z-1) per j
        row = []
        for j in range(m - i + 1):
            row.append(clean(pair_sum((pairs[i + j], i + j, weights.__getitem__))) if j % 2 == 0 else [])
            weights = [a - b for a, b in zip([0] + weights, weights + [0])]
        out.append(row)
    return out


def _u_table(f: Sequence[Poly], h: Sequence[Poly], m: int, rows: int) -> Table:
    """Rows 0 .. rows - 1 of the table of f(u) h(u + v) through total degree m:
    P[i][r] = sum_k C(i,k) f_k h_{i-k+r}."""
    shifted = [h[r:] for r in range(m + 1)]  # h_{i-k+r} is entry i - k of h[r:]
    return [[clean(convolve([], f, shifted[r], i)) for r in range(m - i + 1)] for i in range(rows)]


def _v_table(g: Sequence[Poly], p: Table, symmetric: bool, m: int) -> Table:
    """The convolution in v of g with the rows of P through total degree m:
    entry (i, j) is sum_l C(j,l) g_l P[i][j-l]."""
    return _mirrored(lambda i, j: clean(convolve([], g, p[i], j)), symmetric, m)


def triple(f: Sequence[Poly], g: Sequence[Poly], h: Sequence[Poly], m: int) -> Table:
    """Table of f(u) g(v) h(u + v) through total degree m, in O(m^3) products.

    First f(u) h(u + v) = sum_{i,r} P[i][r] u^i v^r / (i! r!) (:func:`_u_table`),
    then the convolution in v with g (:func:`_v_table`).  f(u) f(v) h(u + v)
    is symmetric, so its rows i > m/2 are mirror images and need no row of P.
    """
    symmetric = f is g
    return _v_table(g, _u_table(f, h, m, m // 2 + 1 if symmetric else m + 1), symmetric, m)


# ---------------------------------------------------------------------------
# the identities


class UVMismatch(NamedTuple):
    """First coefficient disagreement between two bivariate series."""

    u: int
    v: int
    x: int
    lhs: Rational
    rhs: Rational

    def to_json(self) -> dict:
        return {**self._asdict(), "lhs": str(self.lhs), "rhs": str(self.rhs)}


def table_mismatch(a: Table, b: Table, through: int) -> "UVMismatch | None":
    """:func:`~blowup_series.algebra.first_difference_uv` on kernel tables.

    Entries i! j! [u^i v^j] are scanned by total degree through ``through``,
    then u-power, then x-power, and compared as they are; the plain values
    are formed only at the first slot that differs.
    """
    slots = (((i, d - i), a[i][d - i], b[i][d - i]) for d in range(through + 1) for i in range(d + 1))
    diff = next(differences(slots), None)
    if diff is None:
        return None
    (i, j), k = diff
    f = math.factorial(i) * math.factorial(j)
    return UVMismatch(i, j, k, plain_value(a[i][j], k, f), plain_value(b[i][j], k, f))


def bb_tables(b: TSeries, s: TSeries, b2: TSeries, s2: TSeries, total_order: int) -> tuple[Table, Table]:
    """Both sides of (*) through a total degree, as divided-power tables.

    B(u+v) B(u-v) comes from :func:`product_pm`, the right side from outer
    products of the squares ``b2`` = B^2 and ``s2`` = S^2, which the caller
    has built: the catalog reads them from its set, and
    :func:`~blowup_series.algebra.bb_sides` multiplies the pair.  A square
    reaches at least as far as its factor, so the refusal reads the orders
    of the pair.  Entries above the total degree are not read.
    """
    if min(b.order, s.order) < total_order:
        raise SeriesError("cannot embed beyond the known truncation order")
    m = total_order
    rhs = table_add(outer(b2.h, b2.h, m), outer(s2.h, s2.h, m), -1)
    return product_pm(b.h, m), rhs


def bbb_tables(b: TSeries, s: TSeries, total_order: int) -> tuple[Table, Table]:
    """Both sides of the triple-product identity
    S(u)S(v)S(u+v) = B'(u)B(v)B(u+v) + B(u)B'(v)B(u+v) - B(u)B(v)B'(u+v)
    through a total degree, as divided-power tables.

    By the product rule the right side is (d/du + d/dv) T - 3 T' with
    T = B(u)B(v)B(u+v) and T' = B(u)B(v)B'(u+v), both symmetric.  A
    derivative is an index shift of a table, so T is needed through total
    degree m + 1.  In the divided-power basis B' is B shifted by one, so the
    table P of B(u)B'(u+v) is that of B(u)B(u+v) read one column on: T and
    T' share one P and differ only in their convolution in v.
    """
    m = total_order
    for known in (b.order, s.order, b.order - 1):  # b, s and B'
        if known < m:
            raise SeriesError(f"cannot extend truncation order {known} to {m}")
    hb, hs = b.h, s.h
    lhs = triple(hs, hs, hs, m)
    p = _u_table(hb, hb, m + 1, (m + 1) // 2 + 1)
    t = _v_table(hb, p, True, m + 1)
    t_prime = _v_table(hb, [row[1:] for row in p[: m // 2 + 1]], True, m)
    rhs = _mirrored(lambda i, j: add(add(t[i + 1][j], t[i][j + 1]), scaled(t_prime[i][j], 3), -1), True, m)
    return lhs, rhs
