"""Exact coefficient arithmetic: rationals and dense polynomials in x.

The scalar everywhere is an arbitrary-precision rational number; dense
polynomials in the formal variable x over those rationals form the
coefficient ring of every series in this package.  An :class:`XPoly` is a
read-only view of a kernel entry of :mod:`blowup_series.hurwitz` and
follows the kernel's scalar rule: a coefficient is an ``int`` where it is
integral and a ``Fraction`` only where it is not.  Its arithmetic is the
kernel's, one call per operation.  No floating point anywhere: all results
are exact and canonical.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .hurwitz import Poly, add, clean, divided, product, scaled
from .series import ReadOnly, as_fraction, parse_pair

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
