"""Divided-power (Hurwitz) arithmetic for power series over Q[x].

Private to the package; :class:`~blowup_series.series.TSeries` holds its
vectors.  A Hurwitz vector ``h`` stores the series
``sum_n h[n] t^n / n!``: entry ``n`` is the table form ``n! [t^n]``.  Each
entry is an x-polynomial held as a plain list of scalars, ascending in x
and free of trailing zeros (``[]`` is zero).  A scalar is an ``int``
wherever it is integral and a ``Fraction`` only where a division was
inexact, so the kernel stays exact over Q for any input while the
blow-up series, whose table forms are integer polynomials, run on plain
Python ints.

In this basis (Keigher, "On the ring of Hurwitz series", Comm. Algebra 25,
1997) the product is the binomial convolution
``(fg)_n = sum_k C(n, k) f_k g_{n-k}``, d/dt and the integral from 0 are
index shifts, and t -> c t multiplies entry n by c^n.  One primitive
serves each way of reading polynomial products.  :func:`convolve` adds
one entry of the product of two vectors (``mul``, ``recip``, the linear
ODE solver, ``triple``).  :func:`symmetric_sum` adds a weighted sum over
the pairs h_i h_{d-i} of one vector, each read once, one product per
unordered pair (``mul`` of a vector with itself, ``sqrt``).  Pairs that
are read many times with other weights (the E2/E4 recurrence,
:func:`product_pm`) are formed once by :func:`pair_products`, split by
x-parity, and weighed by :func:`pair_sum`.  Reciprocals of units with
constant term +-1 never divide; the linear ODE solver divides by one
small integer per entry, which divides exactly on the blow-up series.
The exponential is that solver with sigma = 1: exp(f) solves w' = f' w,
whose divisor is the lead 1.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from math import comb
from typing import Callable, Iterable, Sequence, Union

Scalar = Union[int, Fraction]
Poly = list  # list[Scalar], ascending powers of x, no trailing zeros


def _int_if_integral(v: Scalar) -> Scalar:
    if type(v) is int or v.denominator != 1:
        return v
    return v.numerator


def clean(p: Poly) -> Poly:
    """Drop trailing zeros and turn integral ``Fraction`` entries into ints."""
    while p and not p[-1]:
        p.pop()
    return [_int_if_integral(v) for v in p]


def addmul(acc: Poly, w: Scalar, a: Poly, b: Poly) -> None:
    """``acc += w * a * b`` in place; ``acc`` grows as needed and is left uncleaned."""
    need = len(a) + len(b) - 1
    if len(acc) < need:
        acc.extend([0] * (need - len(acc)))
    for i, ai in enumerate(a):
        if ai:
            wai = w * ai
            for k, bj in enumerate(b, i):
                acc[k] += wai * bj


def scaled(p: Poly, c: Scalar) -> Poly:
    """``c * p`` for a scalar ``c``."""
    if not c:
        return []
    if type(c) is int:
        return [c * v for v in p]
    return [_int_if_integral(c * v) for v in p]


def divided(p: Poly, d: Scalar) -> Poly:
    """``p / d`` for a nonzero scalar ``d``: exact int division where it divides."""
    if type(d) is int:
        return [
            v // d if type(v) is int and v % d == 0 else _int_if_integral(Fraction(v) / d)
            for v in p
        ]
    return [_int_if_integral(v / d) for v in p]


def product(a: Poly, b: Poly) -> Poly:
    """``a * b``."""
    acc: Poly = []
    if a and b:
        addmul(acc, 1, a, b)
    return clean(acc)


def add(p: Poly, q: Poly, sign: int = 1) -> Poly:
    """``p + sign * q`` for ``sign`` in (1, -1)."""
    if len(p) < len(q):
        out = [sign * v for v in q]
        for i, v in enumerate(p):
            out[i] += v
    else:
        out = list(p)
        for i, v in enumerate(q):
            out[i] += sign * v
    return clean(out)


# ---------------------------------------------------------------------------
# ring and calculus operations on Hurwitz vectors
#
# Inputs are read as zero beyond their length; outputs have exactly
# ``length`` entries.


def _at(h: Sequence[Poly], i: int) -> Poly:
    return h[i] if i < len(h) else []


def convolve(acc: Poly, f: Sequence[Poly], g: Sequence[Poly], n: int, sign: int = 1) -> Poly:
    """``acc += sign * sum_k C(n, k) f_k g_{n-k}`` in place, over the k both
    vectors reach; returns ``acc``, uncleaned."""
    for k in range(max(0, n - len(g) + 1), min(n, len(f) - 1) + 1):
        a, b = f[k], g[n - k]
        if a and b:
            addmul(acc, sign * comb(n, k), a, b)
    return acc


def symmetric_sum(acc: Poly, h: Sequence[Poly], d: int, weight) -> Poly:
    """``acc += sum_i weight(i) h_i h_{d-i}`` in place, over the i that ``h``
    reaches, one product per unordered pair; returns ``acc``, uncleaned."""
    for i in range(max(0, d - len(h) + 1), d // 2 + 1):
        j = d - i
        p, q = h[i], h[j]
        if p and q:
            w = weight(i) + weight(j) if i < j else weight(i)
            if w:
                addmul(acc, w, p, q)
    return acc


def parts(p: Poly) -> list[tuple[int, Poly]]:
    """The parts ``(r, c)`` of p = sum_r x^r c(x^2), r in (0, 1), that do not vanish."""
    return [(r, c) for r, c in enumerate((p[0::2], p[1::2])) if any(c)]


def pair_pieces(i: int, p: list, q: list) -> list[tuple[int, int, Poly]]:
    """The product of two entries h_i, h_{d-i} given by their :func:`parts`,
    as pieces ``(i, r, c)``: the product is the sum of x^r c(x^2) over them.

    An entry that is even or odd in x, as every entry of the blow-up pair is
    under its parity rule, has one part, so two such entries give one piece
    for a quarter of the scalar products of :func:`product`.  A part 1 is
    not multiplied.
    """
    pieces = []
    for ra, a in p:
        for rb, b in q:
            if a == [1] or b == [1]:
                c = b if a == [1] else a
            else:
                c = []
                addmul(c, 1, a, b)
            pieces.append((i, (ra + rb) % 2, [0] * ((ra + rb) // 2) + c))
    return pieces


def pair_products(h: Sequence[list], d: int) -> list[tuple[int, int, Poly]]:
    """The pieces of every product h_i h_{d-i}, one per unordered pair
    i <= d - i over the i that ``h`` reaches, from the :func:`parts` of each
    entry (:func:`pair_pieces`)."""
    return [
        piece
        for i in range(max(0, d - len(h) + 1), d // 2 + 1)
        if h[i] and h[d - i]
        for piece in pair_pieces(i, h[i], h[d - i])
    ]


def pair_sum(*sums: tuple[Iterable[tuple[int, int, Poly]], int, Callable]) -> Poly:
    """The sum over ``(pieces, d, weight)`` of sum_i weight(i) h_i h_{d-i},
    from the pieces of :func:`pair_products` at d, each unordered pair
    weighted as :func:`symmetric_sum` weighs it; uncleaned."""
    weights: list[list] = [[], []]  # per x-parity r: the weights of its pieces
    parted: list[list[Poly]] = [[], []]  # and the pieces
    for pieces, d, weight in sums:
        for i, r, c in pieces:
            j = d - i
            weights[r].append(weight(i) + weight(j) if i < j else weight(i))
            parted[r].append(c)
    # the two x-parity halves of the sum, in x^2, one power of x^2 at a time
    halves = [
        [sum(map(operator.mul, weights[r], column)) for column in zip_longest(*parted[r], fillvalue=0)]
        for r in (0, 1)
    ]
    out = [0] * (2 * max(map(len, halves)))
    for r, half in enumerate(halves):
        out[r : 2 * len(half) : 2] = half
    return out


def mul(f: Sequence[Poly], g: Sequence[Poly], length: int) -> list[Poly]:
    """Binomial convolution of two Hurwitz vectors."""
    if f is g:  # C(n, k) f_k f_{n-k} is symmetric in k <-> n-k
        return [clean(symmetric_sum([], f, n, lambda k: comb(n, k))) for n in range(length)]
    return [clean(convolve([], f, g, n)) for n in range(length)]


def recip(f: Sequence[Poly], length: int) -> list[Poly]:
    """Reciprocal of a unit: ``f[0]`` must be a nonzero x-free constant."""
    if len(f[0]) != 1:
        raise ValueError("the reciprocal needs an x-free nonzero constant term")
    inv0 = _int_if_integral(Fraction(1) / f[0][0])
    g = [[inv0]]
    for n in range(1, length):
        # sum_{k>0} C(n, k) f_k g_{n-k} = -f_0 g_n; g reaches only g_{n-1}
        g.append(scaled(clean(convolve([], f, g, n)), -inv0))
    return g[:length]


def sqrt(f: Sequence[Poly], length: int) -> list[Poly]:
    """Square root of a series with constant term exactly 1."""
    if _at(f, 0) != [1]:
        raise ValueError("sqrt needs constant term exactly 1")
    g = [[1]]
    for n in range(1, length):
        # f_n = 2 g_n + sum_{0<k<n} C(n, k) g_k g_{n-k}; g reaches only g_{n-1}
        acc = symmetric_sum([-v for v in _at(f, n)], g, n, lambda k: comb(n, k))
        g.append(divided(clean(acc), -2))
    return g[:length]


def linear_ode(
    sigma: Sequence[Poly], rho: Sequence[Poly], head: Sequence[Poly], length: int
) -> list[Poly]:
    """Solve ``sigma * w' = rho * w`` for w, given its first entries ``head``.

    ``sigma`` has valuation v and an x-free leading entry.  The equation at
    t^n is solved for w_m with m = n - v + 1, whose coefficient there is
    C(n, v) sigma_v - C(n, v-1) rho_{v-1}; it must be a nonzero x-free
    constant for every m at or beyond ``len(head)``.  Entries of ``rho`` below
    index v - 1 must vanish.  Where sigma vanishes at 0 this is a regular
    singular equation, and ``head`` supplies the free initial entries.
    """
    v = next(i for i, p in enumerate(sigma) if p)
    if len(sigma[v]) != 1:
        raise ValueError("the leading entry of sigma must be x-free")
    lead = sigma[v][0]
    w: list[Poly] = [list(p) for p in head]
    for m in range(len(head), length):
        n = m + v - 1
        # entry n of sigma w' - rho w; w reaches only w_{m-1}, so w_m is left out
        acc = convolve(convolve([], sigma, w[1:], n), rho, w, n, -1)
        coeff = comb(n, v) * lead
        r = _at(rho, v - 1) if v else []
        if r:
            if len(r) != 1:
                raise ValueError("rho_{v-1} must be x-free")
            coeff -= comb(n, v - 1) * r[0]
        if not coeff:
            raise ValueError(f"the equation does not determine w_{m}")
        w.append(divided(clean(acc), -coeff))
    return w


def _first_x(p: Poly, q: Poly) -> int:
    """Least x-power where two unequal entries differ; a missing power is 0."""
    return next(k for k, (u, v) in enumerate(zip_longest(p, q, fillvalue=0)) if u != v)


def first_difference(
    f: Sequence[Poly], g: Sequence[Poly], through: int
) -> "tuple[int, int] | None":
    """Least (index, x-power) through ``through`` where two vectors differ, or None."""
    for n in range(through + 1):
        p, q = _at(f, n), _at(g, n)
        if p != q:
            return n, _first_x(p, q)
    return None


# ---------------------------------------------------------------------------
# bivariate tables
#
# A table ``T`` stores the series sum T[i][j] u^i v^j / (i! j!) over the
# triangle i + j <= m: row i holds the entries j = 0 .. m - i, each an
# x-polynomial as above.  In this basis f(u +- v) is the signed re-index
# (+-1)^j f_{i+j}, f(u) g(v) is the outer product f_i g_j, and a product of
# tables is the binomial convolution in u and in v separately.


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
    formed once (:func:`pair_products`) and read by every entry of total
    degree d (:func:`pair_sum`).  Since K_ij(d - n) = (-1)^j K_ij(n), the
    entries with odd j vanish, and the others give the unordered pair
    n < d - n the weight K_ij(n) + K_ij(d - n), as :func:`pair_sum` does.
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


def triple(f: Sequence[Poly], g: Sequence[Poly], h: Sequence[Poly], m: int) -> Table:
    """Table of f(u) g(v) h(u + v) through total degree m, in O(m^3) products.

    First f(u) h(u + v) = sum_{i,r} P[i][r] u^i v^r / (i! r!) with
    P[i][r] = sum_k C(i,k) f_k h_{i-k+r}, then the convolution in v with g.
    f(u) f(v) h(u + v) is symmetric, so its rows i > m/2 are mirror images
    and need no row of P.
    """
    symmetric = f is g
    shifted = [h[r:] for r in range(m + 1)]  # h_{i-k+r} is entry i - k of h[r:]
    rows = m // 2 + 1 if symmetric else m + 1
    p = [[clean(convolve([], f, shifted[r], i)) for r in range(m - i + 1)] for i in range(rows)]
    return _mirrored(lambda i, j: clean(convolve([], g, p[i], j)), symmetric, m)


def first_difference_table(a: Table, b: Table, through: int) -> "tuple[int, int, int] | None":
    """Least (u-power, v-power, x-power) where two tables differ, or None.

    Total degree ascending through ``through``, then u-power, then x-power.
    """
    for d in range(through + 1):
        for i in range(d + 1):
            p, q = a[i][d - i], b[i][d - i]
            if p != q:
                return i, d - i, _first_x(p, q)
    return None
