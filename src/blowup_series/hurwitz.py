"""Divided-power (Hurwitz) arithmetic for power series over Q[x].

Private to the package; :class:`~blowup_series.series.TSeries` holds its
vectors.  A Hurwitz vector ``h`` stores the series
``sum_n h[n] t^n / n!``: entry ``n`` is the table form ``n! [t^n]``.  Each
entry is an x-polynomial, a list here and a tuple in a stored series, of
scalars ascending in x and free of trailing zeros.  A scalar is an ``int``
wherever it is integral and a ``Fraction`` only where a division was
inexact, so the kernel stays exact over Q for any input while the
blow-up series, whose table forms are integer polynomials, run on plain
Python ints.  This module imports ``fractions`` only at an inexact
division; a command that divides only exactly never loads it.

In this basis (Keigher, "On the ring of Hurwitz series", Comm. Algebra 25,
1997) the product is the binomial convolution
``(fg)_n = sum_k C(n, k) f_k g_{n-k}``, d/dt and the integral from 0 are
index shifts, and t -> c t multiplies entry n by c^n.  One primitive
serves each way of reading polynomial products.  :func:`convolve` adds
one entry of the product of two vectors (``mul``, the triple tables of
:mod:`blowup_series.bivariate`).
:func:`symmetric_sum` adds a weighted sum over the pairs h_i h_{d-i} of
one vector, each read once, one product per unordered pair (``mul`` of a
vector with itself).  Pairs that are read many times with other weights
(the E2/E4 recurrence, the table of B(u+v) B(u-v)) are formed once by
:func:`pair_products`, split by x-parity, and weighed by :func:`pair_sum`.
The tables in (u, v) that only the bivariate checks read live in
:mod:`blowup_series.bivariate`, which ``gen`` never loads.

Every series defined by division is a solve of :func:`linear_ode`, which
divides by one scalar per entry: the exponential (w' = f' w), the square
root (2 f w' = f' w), the reciprocal (f w' = -f' w), and the evaluation
and odd-case ODEs of the blow-up series, where each divisor is a small
integer that divides exactly.  Its entry t^n weighs sigma and rho into one
x-polynomial per known entry of w, so it takes one product per entry.

Every comparison of two vectors or tables is one scan, :func:`differences`,
over slots ``(key, p, q)``: the series, golden-table, bivariate and
relations checks only choose the slots, and value a mismatch with
:func:`~blowup_series.series.plain_value`, one ``Fraction`` per side.
"""
from __future__ import annotations

import operator
from itertools import zip_longest
from math import comb
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]
Poly = list  # list[Scalar] (a tuple in a stored series), ascending powers of x, no trailing zeros


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
    """``c * p`` for a scalar ``c``; a clean ``p`` gives a clean product."""
    if not c:
        return []
    if type(c) is int:  # an int times an int is an int; only a Fraction entry can become integral
        return [c * v if type(v) is int else _int_if_integral(c * v) for v in p]
    return [_int_if_integral(c * v) for v in p]


def divided(p: Poly, d: Scalar) -> Poly:
    """``p / d`` for a scalar ``d``: exact int division where it divides.  A zero
    ``d`` is refused for every ``p``, the zero polynomial too."""
    if not d:
        raise ZeroDivisionError("integer modulo by zero" if type(d) is int else "division by zero")
    if type(d) is int:
        out = [v // d for v in p if type(v) is int and v % d == 0]
        if len(out) == len(p):
            return out
    from fractions import Fraction  # an inexact division, or a Fraction in p or d

    return [_int_if_integral(Fraction(v) / d) for v in p]


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


def convolve(acc: Poly, f: Sequence[Poly], g: Sequence[Poly], n: int) -> Poly:
    """``acc += sum_k C(n, k) f_k g_{n-k}`` in place, over the k both vectors
    reach; returns ``acc``, uncleaned."""
    for k in range(max(0, n - len(g) + 1), min(n, len(f) - 1) + 1):
        a, b = f[k], g[n - k]
        if a and b:
            addmul(acc, comb(n, k), a, b)
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
            if len(b) == 1 == b[0]:
                c = [*a]
            elif len(a) == 1 == a[0]:
                c = [*b]
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

    Entry n of sigma w' - rho w is sum_j c_j w_j with the x-polynomial
    c_j = C(n, j-1) sigma_{n+1-j} - C(n, j) rho_{n-j}, so each known entry
    w_j takes one product, with its c_j, not one with sigma and one with rho.
    """
    v = next(i for i, p in enumerate(sigma) if p)
    if len(sigma[v]) != 1:
        raise ValueError("the leading entry of sigma must be x-free")
    lead = sigma[v][0]
    w: list[Poly] = [list(p) for p in head]
    for m in range(len(head), length):
        n = m + v - 1
        # entry n of sigma w' - rho w; w reaches only w_{m-1}, so w_m is left out
        binomials = [0] + [comb(n, j) for j in range(m)]  # C(n, j - 1) at index j
        acc: Poly = []
        for j, wj in enumerate(w):
            if not wj:
                continue
            k = n - j
            c = [binomials[j] * a for a in sigma[k + 1]] if j and k + 1 < len(sigma) else []
            r = rho[k] if k < len(rho) else ()
            if r:
                c += [0] * (len(r) - len(c))
                b = binomials[j + 1]
                for i, a in enumerate(r):
                    c[i] -= b * a
            if c:
                addmul(acc, 1, c, wj)
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


def differences(slots: Iterable[tuple[object, Poly, Poly]]) -> Iterator[tuple[object, int]]:
    """Every ``(key, x-power)`` where the two entries of a slot ``(key, p, q)``
    differ, in slot order and then ascending x; a missing x-power is 0.

    The one scan behind every comparison: ``next(differences(...), None)`` is
    the first mismatch, and the entries are compared as they are.
    """
    for key, p, q in slots:
        if p != q:
            for k, (u, v) in enumerate(zip_longest(p, q, fillvalue=0)):
                if u != v:
                    yield key, k
