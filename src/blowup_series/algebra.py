"""Exact coefficient arithmetic: rationals and dense polynomials in x, and
the plain view of the series.

The scalar everywhere is an arbitrary-precision rational number; dense
polynomials in the formal variable x over those rationals form the
coefficient ring of every series in this package.  An :class:`XPoly` is a
read-only view of a kernel entry of :mod:`blowup_series.hurwitz` and
follows the kernel's scalar rule: a coefficient is an ``int`` where it is
integral and a ``Fraction`` only where it is not.  Its arithmetic is the
kernel's, one call per operation.  No floating point anywhere: all results
are exact and canonical.

The plain view of the series lives here too, so that a process that forms
no plain value never compiles it: the plain coefficients of a ``TSeries``,
the text of ``gen``, and :class:`BiSeries`, which only tests and tracer read.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

from .hurwitz import Poly, add, clean, differences, divided, product, scaled
from .series import CoeffLike, ReadOnly, SeriesError, as_fraction, parse_pair

if TYPE_CHECKING:
    from .bivariate import Table, UVMismatch
    from .series import TSeries

# The exact scalar.  fractions.Fraction already maintains the canonical
# reduced form (gcd(|num|, den) = 1, den >= 1) and prints it as "p" or
# "p/q" with "/1" never shown, which is exactly the textual contract of
# this package.
Rational = Fraction

RationalLike = Union[Rational, int, str]

def parse_rational(text: str) -> Rational:
    """Parse the canonical rational format; reject anything else.

    Accepts 'p' and 'p/q' (q > 0) with an optional leading minus; the
    result is reduced.  Decimal notation is rejected so that golden data
    and JSON payloads stay in a single exact format.  The grammar and its
    refusals are those of :func:`~blowup_series.series.parse_pair`.
    """
    return Fraction(*parse_pair(text))


class XPoly(ReadOnly):
    """Dense polynomial in x with rational coefficients.

    Read-only through :class:`ReadOnly`.  The stored coefficient tuple is a
    clean kernel entry of :mod:`blowup_series.hurwitz`: trailing-zero free,
    each coefficient an ``int`` where it is integral and a ``Fraction``
    otherwise.  The zero polynomial stores nothing and has degree -1
    (standing in for "minus infinity").  The arithmetic is the kernel's.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        if isinstance(coeffs, str):
            raise TypeError(f"coeffs must be a sequence of scalars, not the string {coeffs!r}")
        object.__setattr__(self, "coeffs", tuple(clean([as_fraction(v) for v in coeffs])))

    # -- constructors ------------------------------------------------

    @classmethod
    def _of(cls, p: Poly) -> "XPoly":
        """The x-polynomial of a clean kernel entry, copied into a tuple."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coeffs", tuple(p))
        return poly

    @classmethod
    def zero(cls) -> "XPoly":
        return _XPOLY_ZERO

    @classmethod
    def x(cls) -> "XPoly":
        return _XPOLY_X

    # -- structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Highest x-exponent, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> Rational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "XPoly | RationalLike") -> "XPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._of(add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other: "XPoly | RationalLike") -> "XPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._of(add(self.coeffs, other.coeffs, -1))

    def __rsub__(self, other: "XPoly | RationalLike") -> "XPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._of(add(other.coeffs, self.coeffs, -1))

    def __neg__(self) -> "XPoly":
        return XPoly._of(scaled(self.coeffs, -1))

    def __mul__(self, other: "XPoly | RationalLike") -> "XPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return XPoly._of(product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "XPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return XPoly._of(divided(self.coeffs, scalar))

    def __pow__(self, n: int) -> "XPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("XPoly powers must be non-negative integers")
        result = _XPOLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- display -------------------------------------------------------

    def __str__(self) -> str:
        return render_xpoly(self)

    def __repr__(self) -> str:
        return f"XPoly({[str(v) for v in self.coeffs]})"


def _lift(value: "XPoly | RationalLike") -> "XPoly":
    """``value`` as an x-polynomial: an ``XPoly`` as it is, an int or a
    ``Fraction`` as a constant; ``NotImplemented`` for anything else."""
    if isinstance(value, XPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return XPoly._of(clean([value]))
    return NotImplemented


def render_xpoly(p: XPoly) -> str:
    """Human-readable form, ascending powers: '13584 - 88320x^2 - 8192x^6'.

    Non-integer rational coefficients are parenthesised ('(-1/12)x^4') so
    the slash cannot be misread as dividing by the variable.
    """
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpart = "x" if k == 1 else f"x^{k}"
            if mag == 1:
                body = xpart
            elif mag.denominator == 1:
                body = f"{mag}{xpart}"
            else:
                body = f"({mag}){xpart}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


_XPOLY_ZERO = XPoly()
_XPOLY_ONE = XPoly((1,))
_XPOLY_X = XPoly((0, 1))


def _as_xpoly(v: CoeffLike) -> XPoly:
    """A coefficient as an x-polynomial: an ``XPoly`` as it is, a scalar as a constant."""
    return v if isinstance(v, XPoly) else XPoly((v,))


def plain_poly(p: Poly, scale: int) -> XPoly:
    """The plain coefficient of a kernel entry: ``p / scale``, ``scale`` its factorial."""
    return XPoly._of(divided(p, scale))


def series_from_terms(cls: type, terms: Mapping[int, CoeffLike], order: int) -> TSeries:
    """:meth:`TSeries.from_terms`: the series of an exponent -> coefficient mapping."""
    if not terms:
        return cls.zero(order)
    lo = min(terms)
    return cls(lo, (terms.get(n, 0) for n in range(lo, order + 1)), order)


def series_coeff(f: TSeries, n: int, normalized: bool) -> XPoly:
    """:meth:`TSeries.coeff`: the coefficient of t^n, or with ``normalized`` n! [t^n]."""
    if n > f.order:
        raise SeriesError(f"coefficient of t^{n} requested but series is only known through t^{f.order}")
    if n < 0:
        return XPoly.zero()
    if normalized:
        return XPoly._of(f.h[n])
    return plain_poly(f.h[n], math.factorial(n))


def series_terms(f: TSeries, normalized: bool) -> Iterable[tuple[int, XPoly]]:
    """:meth:`TSeries.terms`: (exponent, coefficient) of each nonzero stored term."""
    scale = 1
    for k, p in enumerate(f.h):
        if k:
            scale *= k
        if p:
            yield k, plain_poly(p, 1 if normalized else scale)


def series_text(f: TSeries) -> str:
    """``str`` of a series: its nonzero plain terms and its O-term."""
    if f.is_zero:
        return f"O(t^{f.order + 1})"
    bits = []
    for n, c in series_terms(f, False):
        body = str(c)
        if c.degree > 0 or ("-" in body[1:] or "+" in body):
            body = f"({body})"
        bits.append(f"{body}*t^{n}")
    return " + ".join(bits) + f" + O(t^{f.order + 1})"


def _latex_term(n: int, body: str, factorial: bool) -> str:
    """The LaTeX of the term of t^n whose shown coefficient renders as ``body``."""
    if n == 0:
        tpart = ""
    elif n == 1:
        tpart = "t"
    elif factorial:
        tpart = f"\\frac{{t^{{{n}}}}}{{{n}!}}"
    else:
        tpart = f"t^{{{n}}}"
    if body == "1" and n >= 1:
        return tpart
    if n == 0 and "x" not in body and not body.startswith("-"):  # a positive constant
        return body
    return f"({body})" + (f" {tpart}" if tpart else "")


def render_series(f: TSeries, name: str, normalization: str, latex: bool) -> str:
    """The ``table`` or LaTeX text of ``gen`` for the series ``f`` selected as ``name``."""
    factorial = normalization == "factorial"
    rows = [f"{name}(t) =" if latex else f"# series {name} order {f.order} normalization {normalization}"]
    for n, poly in series_terms(f, factorial):
        body = render_xpoly(poly)
        if latex:
            rows.append(("  " if len(rows) == 1 else "  + ") + _latex_term(n, body, factorial))
        else:
            rows.append(f"{n}\t{body}")
    if latex and len(rows) == 1:
        rows.append("  0")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# the plain bivariate type


class BiSeries(ReadOnly):
    """Bivariate series in (u, v) over Q[x], truncated by total degree.

    Read-only through :class:`ReadOnly`.  Coefficients live on the triangle
    i + j <= order, stored row-major: ``rows[i][j]`` is the coefficient of
    u^i v^j.  It is the plain reference type of the substitutions
    t -> u +- v (:meth:`TSeries.subst_pm`); the catalog does not multiply it.
    """

    __slots__ = ("_rows", "order")

    def __init__(self, rows: Sequence[Sequence[CoeffLike]], order: int):
        if order < 0:
            raise SeriesError("total-degree order must be >= 0")
        if isinstance(rows, str):
            raise TypeError(f"rows must be a sequence of coefficient rows, not the string {rows!r}")
        norm: list[tuple[XPoly, ...]] = []
        for i in range(order + 1):
            row = rows[i] if i < len(rows) else ()
            if isinstance(row, str):
                raise TypeError(f"each of rows must be a sequence of coefficients, not the string {row!r}")
            vals = [_as_xpoly(c) for c in row[: order - i + 1]]
            norm.append(tuple(vals + [_XPOLY_ZERO] * (order - i + 1 - len(vals))))
        object.__setattr__(self, "_rows", tuple(norm))
        object.__setattr__(self, "order", order)

    def coeff(self, i: int, j: int) -> XPoly:
        if i < 0 or j < 0 or i + j > self.order:
            raise SeriesError(f"(u^{i} v^{j}) is outside the truncation triangle")
        return self._rows[i][j]

    def __add__(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries):
            return NotImplemented
        order = min(self.order, other.order)
        rows = [[self._rows[i][j] + other._rows[i][j] for j in range(order - i + 1)] for i in range(order + 1)]
        return BiSeries(rows, order)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        if not isinstance(other, BiSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BiSeries":
        return BiSeries([[-c for c in row] for row in self._rows], self.order)

    def __mul__(self, other: "BiSeries | CoeffLike") -> "BiSeries":
        if not isinstance(other, BiSeries):
            p = _as_xpoly(other)  # a coefficient: an x-polynomial or a scalar
            return BiSeries([[c * p for c in row] for row in self._rows], self.order)
        order = min(self.order, other.order)
        rows = [[_XPOLY_ZERO] * (order - i + 1) for i in range(order + 1)]
        for i1, j1, c1 in self._slots(order):
            for i2, j2, c2 in other._slots(order - i1 - j1):
                rows[i1 + i2][j1 + j2] += c1 * c2
        return BiSeries(rows, order)

    __rmul__ = __mul__

    def _slots(self, m: int) -> list[tuple[int, int, XPoly]]:
        """``(i, j, coefficient)`` of each nonzero coefficient with i + j <= m, row by row."""
        return [(i, j, c) for i in range(m + 1) for j, c in enumerate(self._rows[i][: m - i + 1]) if c]

    def __repr__(self) -> str:
        return f"<BiSeries order={self.order}>"


def _biseries(table: Table, order: int) -> BiSeries:
    """The series of a kernel table of :mod:`~blowup_series.bivariate`, whose
    entry (i, j) is i! j! [u^i v^j]."""
    fact = math.factorial
    rows = [[plain_poly(p, fact(i) * fact(j)) for j, p in enumerate(row)] for i, row in enumerate(table)]
    return BiSeries(rows, order)


def bb_sides(b: TSeries, s: TSeries, total_order: int) -> tuple[BiSeries, BiSeries]:
    """Both sides of the bivariate product identity (*) through a total degree."""
    from .bivariate import bb_tables

    lhs, rhs = bb_tables(b, s, b * b, s * s, total_order)
    return _biseries(lhs, total_order), _biseries(rhs, total_order)


def first_difference_uv(a: BiSeries, b: BiSeries, through: "int | None" = None) -> "UVMismatch | None":
    """First disagreement scanning total degree ascending, then u-power."""
    limit = min(a.order, b.order) if through is None else through
    if limit > min(a.order, b.order):
        raise SeriesError(f"comparison through total degree {limit} exceeds known orders")
    slots = (
        ((i, d - i), a.coeff(i, d - i).coeffs, b.coeff(i, d - i).coeffs) for d in range(limit + 1) for i in range(d + 1)
    )
    diff = next(differences(slots), None)
    if diff is None:
        return None
    from .bivariate import UVMismatch

    (i, j), k = diff
    return UVMismatch(i, j, k, a.coeff(i, j).coeff(k), b.coeff(i, j).coeff(k))
