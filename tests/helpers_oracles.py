"""Independent oracles and reference arithmetic for the test suite.

The production generator turns the bivariate product identity into two
extracted differential relations and runs them as a linear recurrence.
The oracle here never does that: it expands the bivariate identity
directly slot by slot, treats the frontier coefficients as unknowns,
solves the resulting affine-linear equations degree by degree, and
demands that every remaining slot is consistent.  Quartic cost, so it is
only run at small orders, where it must agree with the production path.
"""
from __future__ import annotations

import argparse
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from blowup_series import hurwitz
from blowup_series.algebra import Rational, RationalLike, XPoly
from blowup_series.blowup import UnexpectedPoleError
from blowup_series.cli import EXIT_USAGE, SELECTORS
from blowup_series.pairing import InsufficientMomentsError, MomentFunctional
from blowup_series.bivariate import BiSeries, UVMismatch, first_difference_uv, table_add, triple
from blowup_series.series import SeriesError, TMismatch, TSeries, first_difference

#: the writes a read-only value refuses, by the verb of the refusal's text
#: ``cannot <verb> field <name>``
WRITES = {"assign to": lambda value, name: setattr(value, name, None), "delete": delattr}

#: texts that look like rational literals and are not, or do not parse
NEAR_RATIONALS = ["1.5", "1e3", " 1", "1 ", "+1", "1/", "/2", "1/-2", "--1", "\uff11", "1/0", "9" * 5000, ""]


def _sq_coeff(coeffs: list[XPoly], n: int) -> XPoly:
    """[t^n] of the square of the series with the given plain coefficients."""
    acc = XPoly.zero()
    for i in range(n + 1):
        a = coeffs[i] if i < len(coeffs) else XPoly.zero()
        b = coeffs[n - i] if n - i < len(coeffs) else XPoly.zero()
        if a and b:
            acc = acc + a * b
    return acc


def _lhs_slot(b: list[XPoly], a: int, c: int) -> XPoly:
    """[u^a v^c] of B(u+v) B(u-v)."""
    acc = XPoly.zero()
    d = a + c
    for n1 in range(d + 1):
        n2 = d - n1
        p1 = b[n1] if n1 < len(b) else XPoly.zero()
        p2 = b[n2] if n2 < len(b) else XPoly.zero()
        if p1.is_zero or p2.is_zero:
            continue
        weight = 0
        for a1 in range(min(a, n1) + 1):
            c1 = n1 - a1
            if c1 < 0 or c1 > c:
                continue
            a2, c2 = a - a1, c - c1
            weight += math.comb(n1, a1) * math.comb(n2, a2) * (-1) ** c2
        if weight:
            acc = acc + (p1 * p2) * weight
    return acc


def _residual_slot(b: list[XPoly], s: list[XPoly], a: int, c: int) -> XPoly:
    """[u^a v^c] of B(u+v)B(u-v) - (B^2(u)B^2(v) - S^2(u)S^2(v))."""
    rhs = _sq_coeff(b, a) * _sq_coeff(b, c) - _sq_coeff(s, a) * _sq_coeff(s, c)
    return _lhs_slot(b, a, c) - rhs


def solve_by_bivariate_identity(order: int) -> tuple[list[XPoly], list[XPoly]]:
    """Solve the bivariate product identity directly for the pair (B, S).

    Returns plain coefficient lists.  Raises AssertionError if any block is
    inconsistent or fails to pin its unknowns uniquely.
    """
    if order < 4:
        raise ValueError("the oracle needs order >= 4")
    # the block at total degree d pins b_d and s_{d-3}, so run enough
    # extra blocks that both lists genuinely cover the requested order
    top = order + 4
    b = [XPoly.zero() for _ in range(top + 1)]
    s = [XPoly.zero() for _ in range(top + 1)]
    b[0] = XPoly((1,))
    s[1] = XPoly((1,))
    s[3] = XPoly.x() * Fraction(-1, 6)

    for d in range(2, top):
        slots = [(a, d - a) for a in range(d + 1)]
        if d % 2 == 1:
            for a, c in slots:
                assert _residual_slot(b, s, a, c).is_zero, (
                    f"odd-degree slot (u^{a} v^{c}) should vanish by parity"
                )
            continue
        if d == 2:
            # the identity does not pin b_2; it is seed data, so this
            # block must already be consistent
            for a, c in slots:
                assert _residual_slot(b, s, a, c).is_zero, "seed block inconsistent"
            continue

        s_index = d - 3  # first odd coefficient reachable at this block
        has_s_unknown = d >= 8

        base = [_residual_slot(b, s, a, c) for a, c in slots]
        b[d] = XPoly((1,))
        with_b = [_residual_slot(b, s, a, c) for a, c in slots]
        b[d] = XPoly.zero()
        alphas = [wb - r0 for wb, r0 in zip(with_b, base)]
        assert all(al.degree <= 0 for al in alphas), "b-multiplier must be rational"
        alphas = [al.coeff(0) for al in alphas]

        if has_s_unknown:
            s[s_index] = XPoly((1,))
            with_s = [_residual_slot(b, s, a, c) for a, c in slots]
            s[s_index] = XPoly.zero()
            betas = [ws - r0 for ws, r0 in zip(with_s, base)]
            assert all(be.degree <= 0 for be in betas), "s-multiplier must be rational"
            betas = [be.coeff(0) for be in betas]
        else:
            betas = [Fraction(0)] * len(slots)

        if has_s_unknown:
            pivot = None
            for i in range(len(slots)):
                for j in range(i + 1, len(slots)):
                    det = alphas[i] * betas[j] - alphas[j] * betas[i]
                    if det != 0:
                        pivot = (i, j, det)
                        break
                if pivot:
                    break
            assert pivot is not None, f"block {d}: unknowns are not pinned uniquely"
            i, j, det = pivot
            b_val = (base[i] * (-betas[j]) + base[j] * betas[i]) * (Fraction(1) / det)
            s_val = (base[i] * alphas[j] + base[j] * (-alphas[i])) * (Fraction(1) / det)
            b[d] = b_val
            s[s_index] = s_val
        else:
            i = next(k for k, al in enumerate(alphas) if al != 0)
            b[d] = base[i] * (Fraction(-1) / alphas[i])

        for (a, c) in slots:
            assert _residual_slot(b, s, a, c).is_zero, (
                f"block {d}: slot (u^{a} v^{c}) inconsistent after the solve"
            )

    return b[: order + 1], s[: order + 1]


# ---------------------------------------------------------------------------
# the Weierstrass oracle
#
# Fintushel and Stern write S = exp(-x t^2/6) sigma(t) for the Weierstrass
# sigma-function with g2 = 4x^2/3 - 4 and g3 = 8x^3/27 - 4x/3.  Its series
# comes from the a_{m,n} recursion (DLMF 23.9), which shares nothing with the
# E2/E4 recurrence of the package.


def weierstrass_s(order: int) -> list[list[int]]:
    """The kernel vector of S through t^order, from sigma's a_{m,n} recursion.

    Entry 4m + 6n + 1 of sigma's table form is sum a_{m,n} (g2/2)^m (2 g3)^n,
    with a_{0,0} = 1 and
    a_{m,n} = 3(m+1) a_{m+1,n-1} + (16/3)(n+1) a_{m-2,n+1}
              - (1/3)(2m+3n-1)(4m+6n-1) a_{m-1,n},
    run by increasing weight 2m + 3n.  Everything stays on ints: in y = x/3,
    g2/2 = 6y^2 - 2 and 2 g3 = 16y^3 - 8y, and the envelope exp(-y t^2/2)
    has entry 2k equal to (-1)^k (2k-1)!! y^k.  Each division is asserted
    exact, the division by 3 in the recursion and y^j -> x^j / 3^j at the end.
    """
    top = (order - 1) // 2  # the largest weight w = 2m + 3n with 2w + 1 <= order
    a: dict[tuple[int, int], int] = {(0, 0): 1}
    for w in range(1, top + 1):
        for n in range(w // 3 + 1):
            if (w - 3 * n) % 2:
                continue
            m = (w - 3 * n) // 2
            thrice = (
                9 * (m + 1) * a.get((m + 1, n - 1), 0)
                + 16 * (n + 1) * a.get((m - 2, n + 1), 0)
                - (2 * m + 3 * n - 1) * (4 * m + 6 * n - 1) * a.get((m - 1, n), 0)
            )
            assert thrice % 3 == 0, (m, n)
            a[m, n] = thrice // 3
    powers = []  # the powers of g2/2 and of 2 g3, in y
    for base, count in (([-2, 0, 6], top // 2), ([0, -8, 0, 16], top // 3)):
        powers.append([[1]])
        for _ in range(count):
            powers[-1].append(hurwitz.product(powers[-1][-1], base))
    sigma: list[list] = [[] for _ in range(order + 1)]
    for (m, n), coefficient in a.items():
        term = hurwitz.scaled(hurwitz.product(powers[0][m], powers[1][n]), coefficient)
        sigma[4 * m + 6 * n + 1] = hurwitz.add(sigma[4 * m + 6 * n + 1], term)
    envelope: list[list] = [[] for _ in range(order + 1)]
    for k in range(order // 2 + 1):
        double_factorial = math.prod(range(1, 2 * k, 2))
        envelope[2 * k] = [0] * k + [(-1) ** k * double_factorial]
    s_in_y = hurwitz.mul(envelope, sigma, order + 1)
    s = []
    for p in s_in_y:
        assert all(c % 3**j == 0 for j, c in enumerate(p)), p
        s.append([c // 3**j for j, c in enumerate(p)])
    return s


# ---------------------------------------------------------------------------
# reference x-polynomial arithmetic
#
# XPoly runs on the kernel's polynomial arithmetic.  The loops below are what
# it did before: one ``Fraction`` per coefficient, on coefficient sequences.


def fraction_poly(coeffs) -> tuple:
    """``coeffs`` as ``Fraction``s with the trailing zeros dropped."""
    c = [Fraction(v) for v in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fraction_add(a, b) -> tuple:
    a, b = fraction_poly(a), fraction_poly(b)
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    return fraction_poly(out)


def fraction_neg(a) -> tuple:
    return fraction_poly(-v for v in fraction_poly(a))


def fraction_sub(a, b) -> tuple:
    return fraction_add(a, fraction_neg(b))


def fraction_mul(a, b) -> tuple:
    """``a * b`` for coefficient sequences, or for a sequence and a scalar ``b``."""
    if isinstance(b, (int, Fraction)):
        return fraction_poly(v * b for v in fraction_poly(a))
    a, b = fraction_poly(a), fraction_poly(b)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return fraction_poly(out)


def fraction_div(a, scalar: RationalLike) -> tuple:
    s = Fraction(scalar)
    return fraction_poly(v / s for v in fraction_poly(a))


def fraction_pow(a, n: int) -> tuple:
    out = (Fraction(1),)
    for _ in range(n):
        out = fraction_mul(out, a)
    return out


def binomial_subst_pm(f: TSeries, sign: int) -> BiSeries:
    """f(u + sign v) by expanding each plain term c t^n by binomials into the
    (u, v) triangle, truncated at total degree ``f.order``."""
    order = f.order
    rows = [[()] * (order - i + 1) for i in range(order + 1)]
    for n, c in f.terms():
        for i in range(n + 1):
            j = n - i
            rows[i][j] = fraction_add(rows[i][j], fraction_mul(c.coeffs, math.comb(n, i) * sign**j))
    return BiSeries([[XPoly(c) for c in row] for row in rows], order)


# ---------------------------------------------------------------------------
# plain-basis reference arithmetic
#
# A TSeries holds divided-power (Hurwitz) vectors, and every operation on it
# runs in that kernel.  The direct loops over plain coefficients below are
# what the series type did before; the tests compare the kernel against them.


def plain_add(a: TSeries, b: TSeries, sign: int = 1) -> TSeries:
    """a + sign * b by adding plain coefficients."""
    order = min(a.order, b.order)
    terms = {n: c for n, c in a.terms() if n <= order}
    for n, c in b.terms():
        if n <= order:
            terms[n] = terms.get(n, XPoly.zero()) + c * sign
    return TSeries.from_terms(terms, order)


def plain_derivative(a: TSeries) -> TSeries:
    """Termwise d/dt; exact through ``a.order - 1``."""
    return TSeries.from_terms({n - 1: c * n for n, c in a.terms() if n != 0}, a.order - 1)


def plain_integrate(a: TSeries) -> TSeries:
    """Definite integral from 0."""
    return TSeries.from_terms({n + 1: c / (n + 1) for n, c in a.terms()}, a.order + 1)


def plain_scale_arg(a: TSeries, c: RationalLike) -> TSeries:
    """t -> c t: the coefficient of t^n scales by c^n."""
    c = Fraction(c)
    if c == 0:
        if a.is_zero or a.valuation > 0:
            return TSeries.zero(a.order)
        return TSeries.from_terms({0: a.coeff(0)}, a.order)
    return TSeries.from_terms({n: coeff * c**n for n, coeff in a.terms()}, a.order)


def first_coeff_difference(a: XPoly, b: XPoly) -> "tuple[int, Rational, Rational] | None":
    """Least x-power where two polynomials differ, with both values."""
    for k in range(max(a.degree, b.degree) + 1):
        va, vb = a.coeff(k), b.coeff(k)
        if va != vb:
            return k, va, vb
    return None


def plain_first_difference(a: TSeries, b: TSeries, through: int) -> "TMismatch | None":
    """Least (t-power, x-power) through ``through`` where the plain coefficients differ."""
    for n in range(min(a.valuation, b.valuation), through + 1):
        diff = first_coeff_difference(a.coeff(n), b.coeff(n))
        if diff is not None:
            return TMismatch(n, *diff)
    return None


def plain_mul(a: TSeries, b: TSeries) -> TSeries:
    """Product by the schoolbook convolution of plain coefficients."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    if a.is_zero or b.is_zero:
        return TSeries.zero(order)
    lo = a.valuation + b.valuation
    out = [XPoly.zero()] * (order - lo + 1)
    for i, ci in a.terms():
        for j, cj in b.terms():
            if i + j <= order:
                out[i + j - lo] = out[i + j - lo] + ci * cj
    return TSeries(lo, out, order)


def plain_recip(a: TSeries) -> TSeries:
    """Reciprocal by the plain recurrence; same domain error as TSeries.recip."""
    if a.order < 0 or a.coeff(0).degree != 0:
        raise SeriesError("recip needs an x-free nonzero constant term")
    u = [a.coeff(n) for n in range(a.order + 1)]
    u0 = u[0].coeff(0)
    inv = [XPoly((Fraction(1) / u0,))]
    for n in range(1, len(u)):
        acc = XPoly.zero()
        for k in range(1, n + 1):
            acc = acc + u[k] * inv[n - k]
        inv.append(acc * (Fraction(-1) / u0))
    return TSeries(0, inv, a.order)


def plain_exp(a: TSeries) -> TSeries:
    """exp of a series with zero constant term, from f' = a' f."""
    if a.valuation < 1:
        raise SeriesError("exp needs valuation >= 1 (zero constant term)")
    c = [a.coeff(n) for n in range(a.order + 1)]
    f = [XPoly((1,))]
    for n in range(1, a.order + 1):
        acc = XPoly.zero()
        for k in range(1, n + 1):
            acc = acc + c[k] * f[n - k] * k
        f.append(acc / n)
    return TSeries(0, f, a.order)


def plain_sqrt(a: TSeries) -> TSeries:
    """Square root of a series with constant term exactly 1."""
    if a.is_zero or a.valuation != 0 or a.coeff(0) != XPoly((1,)):
        raise SeriesError("sqrt needs constant term exactly 1")
    c = [a.coeff(n) for n in range(a.order + 1)]
    g = [XPoly((1,))]
    for n in range(1, a.order + 1):
        acc = c[n]
        for k in range(1, n):
            acc = acc - g[k] * g[n - k]
        g.append(acc / 2)
    return TSeries(0, g, a.order)


def _at(coeffs, i: int) -> XPoly:
    return coeffs[i] if 0 <= i < len(coeffs) else XPoly.zero()


def _ff(i: int, k: int) -> int:
    """Falling factorial (i+k)(i+k-1)...(i+1) -- the t-derivative weights."""
    return math.perm(i + k, k)


def e4_residual(b, s, n: int) -> XPoly:
    """Left side of (E4) at t^n on plain coefficient lists, missing entries read as zero."""
    acc = XPoly.zero()
    for i in range(n + 1):
        j = n - i
        acc = acc + _at(b, i + 4) * _at(b, j) * _ff(i, 4)
        acc = acc + _at(b, i + 3) * _at(b, j + 1) * (-4 * _ff(i, 3) * _ff(j, 1))
        acc = acc + _at(b, i + 2) * _at(b, j + 2) * (3 * _ff(i, 2) * _ff(j, 2))
        acc = acc + _at(b, i) * _at(b, j) * 2
        acc = acc - _at(s, i) * _at(s, j) * (4 * XPoly.x())
    return acc


def e2_residual(b, s, m: int) -> XPoly:
    """Left side of (E2) at t^m on plain coefficient lists, missing entries read as zero."""
    acc = XPoly.zero()
    for i in range(m + 1):
        j = m - i
        acc = acc + _at(b, i + 2) * _at(b, j) * _ff(i, 2)
        acc = acc - _at(b, i + 1) * _at(b, j + 1) * (_ff(i, 1) * _ff(j, 1))
        acc = acc + _at(s, i) * _at(s, j)
    return acc


def plain_generate_pair(order: int) -> tuple[list[XPoly], list[XPoly]]:
    """The (E4)/(E2) recurrence on plain coefficients, without self-checks."""
    top = order + 4
    b = [XPoly.zero()] * (top + 1)
    s = [XPoly.zero()] * (top + 1)
    b[0] = XPoly((1,))
    s[1] = XPoly((1,))
    s[3] = XPoly.x() * Fraction(-1, 6)
    for n in range(0, order, 2):
        b[n + 4] = e4_residual(b, s, n) * Fraction(-1, _ff(n, 4))
        m = n + 2
        if m not in (2, 4):
            s[m - 1] = e2_residual(b, s, m) * Fraction(-1, 2)
    return b[: order + 1], s[: order + 1]


# Laurent series t^shift f, f a power series: the integrands (S' -+ B)/S of
# the odd-case formulas, which the package never builds.


def unit_part(a: TSeries) -> tuple[int, TSeries]:
    """(v, u) with a = t^v u, v the valuation of a nonzero series a."""
    v = a.valuation
    return v, TSeries.from_terms({n - v: c for n, c in a.terms()}, a.order - v)


def laurent_valuation(shift: int, f: TSeries) -> int:
    """The valuation of t^shift f: its order + 1 if it is zero through its order."""
    return shift + (f.order + 1 if f.is_zero else f.valuation)


def laurent_coeff(shift: int, f: TSeries, n: int) -> XPoly:
    """[t^n] of t^shift f, which is known through t^(shift + f.order)."""
    if n > shift + f.order:
        raise SeriesError(
            f"coefficient of t^{n} requested but series is only known through t^{shift + f.order}"
        )
    return f.coeff(n - shift)


def as_power_series(shift: int, f: TSeries) -> TSeries:
    """t^shift f, whose terms below t^0 must vanish, as a series."""
    return TSeries.from_terms({n + shift: c for n, c in f.terms()}, f.order + shift)


def reference_assemble(b: TSeries, s: TSeries) -> dict[str, TSeries]:
    """The derived family by its defining formulas, on plain-basis arithmetic.

    Quotients, exp of integrals and the explicit 2/t pole removal, with the
    pole guards raising what the package raises.  1/S is t^-v / u for
    S = t^v u, so each odd-case integrand is held as t^-v times a power
    series.
    """
    half = Fraction(1, 2)
    db, ds = plain_derivative(b), plain_derivative(s)
    out = {
        "b2": plain_mul(b, b),
        "s2": plain_mul(s, s),
        "bs": plain_mul(b, s),
        "wronskian": plain_add(plain_mul(b, ds), plain_mul(db, s), -1),
    }
    if b.is_zero or b.valuation != 0 or b.coeff(0) != XPoly((1,)):
        raise SeriesError("the evaluation ODE needs B(0) = 1")
    b_inv = plain_recip(b)
    for name, sign in (("b_plus", 1), ("b_minus", -1)):
        integrand = plain_scale_arg(plain_mul(plain_add(db, s, sign), b_inv), 2)
        out[name] = plain_exp(plain_integrate(integrand))
    out["b0"] = plain_add(out["b_plus"], out["b_minus"]) * half
    out["btau"] = plain_add(out["b_plus"], out["b_minus"], -1) * half

    if s.is_zero:
        raise ZeroDivisionError("reciprocal of the zero series")
    v, u = unit_part(s)
    if u.coeff(0).degree != 0:
        raise SeriesError(f"leading coefficient {u.coeff(0)} is not invertible in the rationals")
    u_inv = plain_recip(u)
    # (S' - B)/S = t^-v regular
    regular = plain_mul(plain_add(ds, b, -1), u_inv)
    valuation = laurent_valuation(-v, regular)
    if not regular.is_zero and valuation < 1:
        raise UnexpectedPoleError(f"(-B + S')/S should vanish at 0 but has valuation {valuation}")
    out["ws0"] = plain_exp(plain_scale_arg(plain_integrate(as_power_series(-v, regular)), 2) * half)
    # (B + S')/S = t^-v singular
    singular = plain_mul(plain_add(ds, b), u_inv)
    if singular.order - v < -1:
        raise UnexpectedPoleError(
            "(B + S')/S should have exactly the pole 2/t, but it is known only through "
            f"t^{singular.order - v}"
        )
    valuation = laurent_valuation(-v, singular)
    if valuation != -1 or laurent_coeff(-v, singular, -1) != XPoly((2,)):
        residue = laurent_coeff(-v, singular, -1) if valuation <= -1 else 0
        raise UnexpectedPoleError(
            "(B + S')/S should have exactly the pole 2/t; got valuation "
            f"{valuation} with residue {residue}"
        )
    # the pole 2/t is 2 t^(v-1) in singular
    removed = plain_add(singular, TSeries.monomial(2, v - 1, singular.order), -1)
    valuation = laurent_valuation(-v, removed)
    if not removed.is_zero and valuation < 1:
        raise UnexpectedPoleError(
            f"pole subtraction left a singular or constant term (valuation {valuation})"
        )
    core = plain_exp(plain_scale_arg(plain_integrate(as_power_series(-v, removed)), 2) * half)
    out["ws1"] = plain_mul(TSeries.monomial(1, 1, core.order + 1), core)
    return out


# ---------------------------------------------------------------------------
# plain-route sides of the bivariate and evaluation-ODE checks
#
# The package checks these identities on divided-power tables and vectors.
# The routes below are what it did before: substitution into BiSeries and
# their plain products, and TSeries quotients.


def as_biseries(f: TSeries, axis: str, order: "int | None" = None) -> BiSeries:
    """Embed a power series as a series in u alone (axis='u') or v alone (axis='v')."""
    if axis not in ("u", "v"):
        raise SeriesError("axis must be 'u' or 'v'")
    order = f.order if order is None else order
    if order > f.order:
        raise SeriesError("cannot embed beyond the known truncation order")
    rows = [[XPoly.zero()] * (order - i + 1) for i in range(order + 1)]
    for n, c in f.terms():
        if n <= order:
            if axis == "u":
                rows[n][0] = c
            else:
                rows[0][n] = c
    return BiSeries(rows, order)


def reference_bb_sides(b: TSeries, s: TSeries, total_order: int) -> tuple[BiSeries, BiSeries]:
    """B(u+v) B(u-v) and B^2(u) B^2(v) - S^2(u) S^2(v) as BiSeries products."""
    bt = b.truncate(min(b.order, total_order))
    st = s.truncate(min(s.order, total_order))
    lhs = binomial_subst_pm(bt, +1) * binomial_subst_pm(bt, -1)
    b2 = plain_mul(bt, bt)
    s2 = plain_mul(st, st)
    m = total_order
    rhs = as_biseries(b2, "u", m) * as_biseries(b2, "v", m)
    rhs = rhs - as_biseries(s2, "u", m) * as_biseries(s2, "v", m)
    return lhs, rhs


def reference_bb(b: TSeries, s: TSeries, total_order: int) -> "UVMismatch | None":
    return first_difference_uv(*reference_bb_sides(b, s, total_order), through=total_order)


def reference_bbb_sides(b: TSeries, s: TSeries, total_order: int) -> tuple[BiSeries, BiSeries]:
    """S(u)S(v)S(u+v) and B'(u)B(v)B(u+v) + B(u)B'(v)B(u+v) - B(u)B(v)B'(u+v)."""
    m = total_order
    bt, s = b.truncate(m), s.truncate(m)
    db, b = plain_derivative(b).truncate(m), bt
    b_u, b_v = as_biseries(b, "u", m), as_biseries(b, "v", m)
    db_u, db_v = as_biseries(db, "u", m), as_biseries(db, "v", m)
    b_uv = binomial_subst_pm(b, +1)
    lhs = as_biseries(s, "u", m) * as_biseries(s, "v", m) * binomial_subst_pm(s, +1)
    rhs = db_u * b_v * b_uv + b_u * db_v * b_uv - b_u * b_v * binomial_subst_pm(db, +1)
    return lhs, rhs


def three_triple_bbb_tables(b: TSeries, s: TSeries, total_order: int) -> tuple[list, list]:
    """Both tables of ``bbb`` by the three-triple route: the right side as
    B'(u)B(v)B(u+v) plus its transpose minus B(u)B(v)B'(u+v), each product
    its own ``triple`` table through total degree m."""
    m = total_order
    hb, hs, hdb = b.h, s.h, b.derivative().h
    first = triple(hdb, hb, hb, m)
    transpose = [[first[j][i] for j in range(m - i + 1)] for i in range(m + 1)]
    rhs = table_add(table_add(first, transpose), triple(hb, hb, hdb, m), -1)
    return triple(hs, hs, hs, m), rhs


def reference_bbb(b: TSeries, s: TSeries, total_order: int) -> "UVMismatch | None":
    return first_difference_uv(*reference_bbb_sides(b, s, total_order), through=total_order)


def reference_pm_ode(series_set, sign: int, order: int) -> "TMismatch | None":
    """d/dt (B^2 +- S^2) against ((B' +- S)/B)(2t) (B^2 +- S^2), by the plain
    reciprocal of B, which needs B(0) to be an x-free nonzero rational."""
    combo = plain_add(series_set.b2, series_set.s2, sign)
    lhs = plain_derivative(combo)
    numerator = plain_add(plain_derivative(series_set.b), series_set.s, sign)
    rhs = plain_mul(plain_scale_arg(plain_mul(numerator, plain_recip(series_set.b)), 2), combo)
    return first_difference(lhs, rhs, through=order)


def quotient_pm_ode(series_set, sign: int, order: int) -> "TMismatch | None":
    """The evaluation ODE in its quotient form on kernel series: the reciprocal
    of B is built, and (B' +- S)/B (2t) (B^2 +- S^2) compared with (B^2 +- S^2)'.
    The package multiplies both sides by B(2t) instead."""
    b, s, b2, s2 = series_set.b, series_set.s, series_set.b2, series_set.s2
    combo = b2 + s2 if sign == 1 else b2 - s2
    numerator = b.derivative() + s if sign == 1 else b.derivative() - s
    rhs = (numerator * b.recip()).scale_arg(2) * combo
    return first_difference(combo.derivative(), rhs, order)


def reference_bb_diagonal(series_set, order: int) -> "TMismatch | None":
    """B(2t) against B^4 - S^4."""
    lhs = plain_scale_arg(series_set.b, 2)
    rhs = plain_add(plain_mul(series_set.b2, series_set.b2), plain_mul(series_set.s2, series_set.s2), -1)
    return first_difference(lhs, rhs, through=order)


# ---------------------------------------------------------------------------
# x = +-2 degenerations on plain Fraction series
#
# The package checks the degeneration rows, and builds the closed simple-type
# forms, as integer kernel vectors.  The routes below are what it did before:
# substitute x in every plain coefficient, and multiply Fraction series of
# exp(c t^2), cosh, sinh, cos and sin.


def eval_at(p: XPoly, v: RationalLike) -> Fraction:
    """Evaluate at a rational point by Horner's rule (exact)."""
    v, acc = Fraction(v), Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def eval_x(series: TSeries, v: RationalLike) -> TSeries:
    """Substitute a rational value for x in every coefficient."""
    terms = {n: XPoly((eval_at(c, v),)) for n, c in series.terms()}
    return TSeries.from_terms(terms, series.order)


def exp_t_squared(c: RationalLike, order: int) -> TSeries:
    """exp(c * t^2) as an exact rational series."""
    c = Fraction(c)
    terms = {2 * k: c**k / math.factorial(k) for k in range(order // 2 + 1)}
    return TSeries.from_terms(terms, order)


def cosh_series(order: int) -> TSeries:
    terms = {n: Fraction(1, math.factorial(n)) for n in range(0, order + 1, 2)}
    return TSeries.from_terms(terms, order)


def sinh_series(order: int) -> TSeries:
    terms = {n: Fraction(1, math.factorial(n)) for n in range(1, order + 1, 2)}
    return TSeries.from_terms(terms, order)


def cos_series(order: int) -> TSeries:
    terms = {
        n: Fraction((-1) ** (n // 2), math.factorial(n)) for n in range(0, order + 1, 2)
    }
    return TSeries.from_terms(terms, order)


def sin_series(order: int) -> TSeries:
    terms = {
        n: Fraction((-1) ** ((n - 1) // 2), math.factorial(n))
        for n in range(1, order + 1, 2)
    }
    return TSeries.from_terms(terms, order)


#: x = 2 and x = -2: (c in the envelope exp(c t^2), even form, odd form)
_SIMPLE_TYPE = {2: (-1, cosh_series, sinh_series), -2: (1, cos_series, sin_series)}


def simple_type_form(name: str, x: int, order: int) -> TSeries:
    """The closed form that the derived series ``name`` collapses to at x = 2 or -2.

    At x = 2, B^2 is exp(-t^2) cosh^2 t, S^2 is exp(-t^2) sinh^2 t, the
    Wronskian is exp(-t^2) and BS is exp(-t^2) sinh(2t)/2; at x = -2 the
    envelope is exp(t^2) and cos, sin replace cosh, sinh.
    """
    envelope = exp_t_squared(_SIMPLE_TYPE[x][0], order)
    return envelope if name == "wronskian" else envelope * _simple_type_factor(name, x, order)


def _simple_type_factor(name: str, x: int, order: int) -> TSeries:
    """:func:`simple_type_form` without its envelope exp(-+t^2)."""
    _, even, odd = _SIMPLE_TYPE[x]
    if name == "b2":
        cosh = even(order)
        return cosh * cosh
    if name == "s2":
        sinh = odd(order)
        return sinh * sinh
    if name == "wronskian":
        return TSeries.monomial(1, 0, order)
    if name == "bs":
        return plain_scale_arg(odd(order), 2) * Fraction(1, 2)
    raise ValueError(f"no closed simple-type form for {name!r}")


def reference_degeneration(series_set, x: int, name: str, order: int) -> "TMismatch | None":
    """A degeneration row by the plain route: substitute x, compare with the closed form."""
    return first_difference(
        eval_x(getattr(series_set, name), x), simple_type_form(name, x, order), through=order
    )


# ---------------------------------------------------------------------------
# moment pairing on plain Fraction series
#
# The package pairs kernel entries over prefix common denominators, one
# reduction per t-power.  The route below is what it did before: one
# Fraction product per (t-power, x-power) term of the plain coefficients.


def value_on(mu: MomentFunctional, p: XPoly) -> Fraction:
    """Apply a moment functional to a polynomial in x."""
    if p.degree >= len(mu.moments):
        raise InsufficientMomentsError(mu.label, len(mu.moments), p.degree + 1)
    return sum((c * mu.moments[k] for k, c in enumerate(p.coeffs)), Fraction(0))


def reference_pair(f: TSeries, mu: MomentFunctional) -> TSeries:
    """The functional applied to every plain coefficient, in ascending t-powers."""
    terms = {n: XPoly((value_on(mu, c),)) for n, c in f.terms()}
    return TSeries.from_terms(terms, f.order)


#: formula -> (first series, second series, factor on the second pairing)
EVAL_FORMULAS = {
    "maina": ("b2", "s2", Fraction(1)),
    "main-prime": ("b2", "s2", Fraction(1, 2)),
    "mainb": ("wronskian", "bs", Fraction(1)),
}


def reference_eval(formula: str, series_set, mu: MomentFunctional, nu: MomentFunctional, order: int) -> TSeries:
    """An evaluation formula from plain series and :func:`reference_pair`."""
    first, second, factor = EVAL_FORMULAS[formula]
    paired = reference_pair(getattr(series_set, first).truncate(order), mu)
    return paired + reference_pair(getattr(series_set, second).truncate(order), nu) * factor


# ---------------------------------------------------------------------------
# the command-line parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one line, without the usage block;
    ``add_subparsers`` makes every subcommand parser one too."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=None)
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that the command line had before its option table:
    the reference that ``cli._parse`` must agree with.  Built once per process."""
    parser = _Parser(
        prog="blowup-series",
        description="Exact universal blow-up series: generation, identity "
        "verification, golden-table comparison, and moment evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one series and print it")
    gen.add_argument("--series", required=True, choices=sorted(SELECTORS))
    gen.add_argument("--order", type=int, default=28)
    gen.add_argument("--format", choices=("json", "latex", "table"), default="table")
    gen.add_argument("--normalization", choices=("plain", "factorial"), default="factorial")
    gen.add_argument("--output", type=Path, default=None)

    ver = sub.add_parser("verify", help="run the identity catalog, one JSON report per line")
    ver.add_argument("--order", type=int, default=28)
    ver.add_argument("--bivariate-order", type=int, default=16)
    ver.add_argument(
        "--identity",
        action="append",
        default=None,
        help="run only this identity id (repeatable)",
    )
    ver.add_argument("--output", type=Path, default=None)

    tab = sub.add_parser("table", help="regenerate and diff against the golden table")
    tab.add_argument("--order", type=int, default=28)
    tab.add_argument("--output", type=Path, default=None)

    ev = sub.add_parser("eval", help="evaluate moment data through the pairing formulas")
    ev.add_argument("request", type=Path, help="JSON evaluation request")
    ev.add_argument("--output", type=Path, default=None)

    bench = sub.add_parser("bench", help="time generation and every catalog identity")
    bench.add_argument("--order", type=int, default=28)
    bench.add_argument("--bivariate-order", type=int, default=16)
    bench.add_argument("--output", type=Path, default=None)

    return parser
