"""Truncated power/Laurent series in t over Q[x].

A :class:`TSeries` knows exactly how far it can be trusted: every value
carries an inclusive truncation ``order`` and an integer ``valuation``
(the lowest t-exponent, possibly negative).  Every operation states how
the output order follows from the input orders, so precision is never
silently overstated:

* ``a + b``          order ``min(a.order, b.order)``
* ``a * b``          order ``min(a.order + b.valuation, b.order + a.valuation)``
* ``a.derivative()`` order ``a.order - 1``
* ``a.integrate()``  order ``a.order + 1`` (definite integral from 0)
* ``a.recip()``      order ``a.order - 2 * a.valuation``
* ``a.exp()``, ``a.sqrt()``, ``a.scale_arg(c)``   order ``a.order``

Laurent support is limited to finite negative valuation whose leading
coefficient is a nonzero rational (an x-free unit); there are no formal
logarithms, so integrating a series with a t^-1 term is an error.

A series is stored as a divided-power vector of :mod:`blowup_series.hurwitz`:
entry ``h[k]`` is ``k! [t^(lo+k)]`` with the anchor ``lo = min(valuation, 0)``.
A power series is its table form n! [t^n], which is an integer polynomial
for the blow-up series, and a Laurent series t^v A(t) is stored as the
vector of its unit part A.  Products are the kernel's binomial
convolution; the exponential, the square root and the reciprocal are its
linear ODE solves of w' = a' w, 2 a w' = a' w and a w' = -a' w; d/dt and
the integral are index shifts.  Plain coefficients entry / k! are formed
only by :meth:`TSeries.coeff`, :meth:`TSeries.terms`, JSON and display, and
at the slot where :func:`first_difference` reports a mismatch.  So
:mod:`blowup_series.algebra` and ``fractions`` are imported only where a
plain coefficient, an x-polynomial or a scalar that is not an int is
formed: a product of two series and the factorial JSON of integer entries
load neither.

The bivariate series of the substitutions t -> u +- v (:meth:`TSeries.subst_pm`)
and the tables the bivariate identities compare live in
:mod:`blowup_series.bivariate`, which only the identity catalog loads.  The
module-level names ``BiSeries`` and ``first_difference_uv`` resolve to that
module's objects on first access, because the benchmark tracer binds them
here; nothing in the package reads them through this module.
"""
from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

from . import hurwitz
from .hurwitz import Poly, add, clean, divided, scaled

if TYPE_CHECKING:
    from .algebra import Rational, RationalLike, XPoly

CoeffLike = Union["XPoly", "Rational", int]

#: the integer literals of :func:`~blowup_series.algebra.parse_rational`'s grammar
_INTEGER_RE = re.compile(r"-?[0-9]+")


class SeriesError(ValueError):
    """A series operation was asked to leave its domain."""


class LogSingularityError(SeriesError):
    """Integration hit a nonzero t^-1 coefficient (logarithmic singularity)."""


class NonUnitLeadingError(SeriesError):
    """A reciprocal needs an x-free nonzero leading coefficient."""


def _as_xpoly(v: CoeffLike) -> XPoly:
    from .algebra import XPoly

    if isinstance(v, XPoly):
        return v
    return XPoly((v,))


def plain_poly(p: Poly, scale: int) -> XPoly:
    """The plain coefficient of a kernel entry: ``p / scale``, ``scale`` its factorial."""
    from fractions import Fraction

    from .algebra import XPoly

    return XPoly(Fraction(v, scale) for v in p)


def _plain_text(v: hurwitz.Scalar, scale: int) -> str:
    """``str(Fraction(v, scale))`` for a kernel scalar.

    ``v`` is an int or a reduced fraction, so only ``scale`` can share a
    factor with its numerator: one gcd against the small ``scale``.
    """
    num, den = (v, 1) if type(v) is int else (v.numerator, v.denominator)
    g = math.gcd(num, scale)
    num, den = num // g, den * (scale // g)
    return str(num) if den == 1 else f"{num}/{den}"


def _reanchored(h: Sequence[Poly], d: int) -> list[Poly]:
    """The vector of the same series anchored ``d`` places lower, or ``-d`` higher.

    Entry k of t^d f is k!/(k - d)! f_{k-d}: a lower anchor multiplies by a
    falling factorial, a higher one divides by it and drops the first ``-d``
    entries, which must vanish.
    """
    if d >= 0:
        return [[] for _ in range(d)] + [scaled(p, math.perm(k, d)) for k, p in enumerate(h, d)]
    return [divided(p, math.perm(k, -d)) for k, p in enumerate(h[-d:], -d)]


class TSeries:
    """Truncated (Laurent) series in t over Q[x], held as a divided-power vector.

    Immutable.  ``h[k]`` is the kernel entry k! [t^(lo+k)] for
    k = 0 .. order - lo, with the anchor lo = min(valuation, 0), so a
    Laurent series leads with a nonzero entry.  The constructor takes plain
    coefficients from ``valuation`` on; :meth:`from_kernel` takes a vector.
    A series that is zero through its order has valuation ``order + 1``.
    """

    __slots__ = ("h", "_lo", "_order")

    def __init__(self, valuation: int, coeffs: Iterable[CoeffLike], order: int):
        cs = [_as_xpoly(c) for c in coeffs][: max(order - valuation + 1, 0)]
        while cs and cs[0].is_zero:
            cs.pop(0)
            valuation += 1
        if not cs:
            valuation = order + 1
        lo = min(valuation, 0)
        k = valuation - lo
        h: list[Poly] = [[] for _ in range(k)]
        scale = math.factorial(k)
        for c in cs:
            h.append(clean([v * scale for v in c.coeffs]))
            k += 1
            scale *= k
        self._set(h, lo, order)

    def _set(self, h: Sequence[Poly], lo: int, order: int) -> None:
        """Store ``h`` anchored at ``lo``, clipped or padded to the order, with
        the anchor moved to min(valuation, 0)."""
        if lo > 0:
            h, lo = _reanchored(h, lo), 0
        n = order - lo + 1
        if n < 0:  # nothing is known: the zero series
            h, lo, n = [], order + 1, 0
        h = list(h[:n])
        h.extend([] for _ in range(n - len(h)))
        if lo < 0:
            d = min(next((k for k, p in enumerate(h) if p), n), -lo)
            if d:
                h, lo = _reanchored(h, -d), lo + d
        self.h, self._lo, self._order = h, lo, order

    # -- constructors --------------------------------------------------

    @classmethod
    def from_kernel(cls, h: Sequence[Poly], order: int, lo: int = 0) -> "TSeries":
        """The series whose entry k is ``h[k]`` = k! [t^(lo+k)], known through ``order``."""
        series = object.__new__(cls)
        series._set(h, lo, order)
        return series

    @classmethod
    def zero(cls, order: int) -> "TSeries":
        return cls.from_kernel([], order)

    @classmethod
    def monomial(cls, coeff: CoeffLike, exponent: int, order: int) -> "TSeries":
        return cls(exponent, (coeff,), order)

    @classmethod
    def from_terms(cls, terms: Mapping[int, CoeffLike], order: int) -> "TSeries":
        """Build from an exponent -> coefficient mapping."""
        if not terms:
            return cls.zero(order)
        from .algebra import XPoly

        lo = min(terms)
        coeffs = [XPoly.zero()] * (order - lo + 1)
        for n, c in terms.items():
            if lo <= n <= order:
                coeffs[n - lo] = _as_xpoly(c)
        return cls(lo, coeffs, order)

    # -- structure -----------------------------------------------------

    @property
    def valuation(self) -> int:
        """Lowest t-exponent with a nonzero coefficient (order+1 if zero)."""
        if self._lo:
            return self._lo
        return next((k for k, p in enumerate(self.h) if p), self._order + 1)

    @property
    def order(self) -> int:
        """Inclusive truncation bound: coefficients are exact through t^order."""
        return self._order

    @property
    def is_zero(self) -> bool:
        return not any(self.h)

    def _at_anchor(self, lo: int) -> Sequence[Poly]:
        """The vector anchored at ``lo``, which must not exceed the valuation."""
        return self.h if lo == self._lo else _reanchored(self.h, self._lo - lo)

    def coeff(self, n: int, normalized: bool = False) -> XPoly:
        """Coefficient of t^n; with ``normalized`` the table form n! * [t^n].

        Exponents above the truncation order are unknown and raise;
        exponents below the valuation are known zeros.
        """
        if n > self._order:
            raise SeriesError(
                f"coefficient of t^{n} requested but series is only known through t^{self._order}"
            )
        if normalized and n < 0:
            raise SeriesError("factorial normalization is undefined for negative exponents")
        from .algebra import XPoly

        k = n - self._lo
        if k < 0:
            return XPoly.zero()
        if normalized and not self._lo:
            return XPoly(self.h[k])
        p = plain_poly(self.h[k], math.factorial(k))
        return p * math.factorial(n) if normalized else p

    def terms(self) -> Iterable[tuple[int, XPoly]]:
        """Iterate (exponent, coefficient) over the nonzero stored terms."""
        scale = 1
        for k, p in enumerate(self.h):
            if k:
                scale *= k
            if p:
                yield self._lo + k, plain_poly(p, scale)

    def truncate(self, order: int) -> "TSeries":
        """Forget knowledge above ``order`` (which must not exceed self.order)."""
        if order > self._order:
            raise SeriesError(
                f"cannot extend truncation order {self._order} to {order}"
            )
        return TSeries.from_kernel(self.h, order, self._lo)

    def __eq__(self, other: object) -> bool:
        """Mathematical equality through the smaller truncation order."""
        if not isinstance(other, TSeries):
            return NotImplemented
        return first_difference(self, other) is None

    def __hash__(self) -> None:  # pragma: no cover - mutable-style semantics
        raise TypeError("TSeries is not hashable; compare with first_difference")

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other: "TSeries") -> "TSeries":
        if not isinstance(other, TSeries):
            return NotImplemented
        return self._combine(other, -1)

    def _combine(self, other: "TSeries", sign: int) -> "TSeries":
        """``self + sign * other``, entry by entry at the lower anchor."""
        order, lo = min(self._order, other._order), min(self._lo, other._lo)
        f, g = self._at_anchor(lo), other._at_anchor(lo)
        return TSeries.from_kernel([add(p, q, sign) for p, q in zip(f, g)], order, lo)

    def __neg__(self) -> "TSeries":
        return TSeries.from_kernel([[-v for v in p] for p in self.h], self._order, self._lo)

    def __mul__(self, other: "TSeries | CoeffLike") -> "TSeries":
        if not isinstance(other, TSeries):
            return self._times_coefficient(other)
        order = min(self._order + other.valuation, other._order + self.valuation)
        if self.is_zero or other.is_zero:
            return TSeries.zero(order)
        # t^a A(t) * t^b B(t) = t^(a+b) (A B)(t): one binomial convolution
        lo = self._lo + other._lo
        return TSeries.from_kernel(hurwitz.mul(self.h, other.h, order - lo + 1), order, lo)

    __rmul__ = __mul__

    def _times_coefficient(self, c: CoeffLike) -> "TSeries":
        """``self * c`` for an x-polynomial or a scalar ``c``."""
        if type(c) is int:
            h = [clean(scaled(p, c)) for p in self.h]
        else:
            from fractions import Fraction

            from .algebra import XPoly

            if isinstance(c, XPoly):
                c = clean(list(c.coeffs))
                h = [hurwitz.product(p, c) for p in self.h]
            elif isinstance(c, (Fraction, int)):
                c = Fraction(c)
                h = [divided(scaled(p, c.numerator), c.denominator) for p in self.h]
            else:
                return NotImplemented
        return TSeries.from_kernel(h, self._order, self._lo)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TSeries":
        """Termwise d/dt; the output is exact through ``order - 1``."""
        lo = self._lo
        if not lo:
            return TSeries.from_kernel(self.h[1:], self._order - 1)
        # entry k of the derivative, anchored one lower, is (lo + k) h[k]
        return TSeries.from_kernel(
            [scaled(p, lo + k) for k, p in enumerate(self.h)], self._order - 1, lo - 1
        )

    def integrate(self) -> "TSeries":
        """Definite integral from 0; rejects a nonzero t^-1 coefficient."""
        if self._order < -1:
            raise SeriesError(
                "cannot integrate: the t^-1 coefficient lies beyond the truncation order"
            )
        lo = self._lo
        if not lo:
            return TSeries.from_kernel([[]] + self.h, self._order + 1)
        if self.h[-lo - 1]:
            raise LogSingularityError(
                "integration would create a logarithm: nonzero t^-1 coefficient"
            )
        # entry k of the integral, anchored one higher, is h[k] / (lo + k + 1)
        h = [divided(p, lo + k + 1) if lo + k + 1 else [] for k, p in enumerate(self.h)]
        return TSeries.from_kernel(h, self._order + 1, lo + 1)

    def scale_arg(self, c: RationalLike) -> "TSeries":
        """Substitute t -> c*t for a rational c (coefficient of t^n scales by c^n)."""
        lo = self._lo
        if lo or type(c) is not int:  # a Laurent series needs c^-k as a Fraction
            from fractions import Fraction

            c = Fraction(c)
            if lo:
                if not c:
                    raise SeriesError("cannot substitute t -> 0 into a Laurent series")
            elif c.denominator == 1:
                c = c.numerator
        return TSeries.from_kernel(
            [scaled(p, c ** (lo + k)) for k, p in enumerate(self.h)], self._order, lo
        )

    # -- multiplicative structure ------------------------------------------

    def recip(self) -> "TSeries":
        """Multiplicative inverse; needs an x-free rational leading coefficient.

        For valuation v the result has valuation -v and is exact through
        ``order - 2*v``.
        """
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of the zero series")
        v = self.valuation
        unit = self._at_anchor(v)
        if len(unit[0]) != 1:
            raise NonUnitLeadingError(
                f"leading coefficient {self.coeff(v)} is not invertible in the rationals"
            )
        # w = 1/f solves f w' = -f' w with w(0) = 1/f(0), f the unit part
        minus_f_prime = [[-c for c in p] for p in unit[1:]]
        w = hurwitz.linear_ode(unit, minus_f_prime, [divided([1], unit[0][0])], len(unit))
        return TSeries.from_kernel(w, self._order - 2 * v, -v)

    def exp(self) -> "TSeries":
        """Exponential of a series with zero constant term (valuation >= 1).

        Solved exactly as the linear ODE w' = a' w with w(0) = 1.
        """
        if self.valuation < 1:
            raise SeriesError("exp needs valuation >= 1 (zero constant term)")
        w = hurwitz.linear_ode([[1]], self.h[1:], [[1]], self._order + 1)
        return TSeries.from_kernel(w, self._order)

    def sqrt(self) -> "TSeries":
        """Square root of a series with constant term exactly 1."""
        if self._lo or self.h[:1] != [[1]]:
            raise SeriesError("sqrt needs constant term exactly 1")
        # w = sqrt(f) solves 2 f w' = f' w with w(0) = 1; sigma = 2 f keeps it integral
        twice_f = [scaled(p, 2) for p in self.h]
        w = hurwitz.linear_ode(twice_f, self.h[1:], [[1]], self._order + 1)
        return TSeries.from_kernel(w, self._order)

    # -- bivariate substitution ---------------------------------------------

    def subst_pm(self, sign: int) -> "BiSeries":
        """Substitute t -> u + v (sign=+1) or t -> u - v (sign=-1).

        Each t^n expands by binomials into the (u, v) triangle; the result
        is truncated at total degree ``order``.
        """
        if sign not in (1, -1):
            raise SeriesError("sign must be +1 or -1")
        if self._lo < 0:
            raise SeriesError("bivariate substitution needs valuation >= 0")
        from .algebra import XPoly
        from .bivariate import BiSeries  # a module that ``gen`` never loads

        order = self._order
        rows = [[XPoly.zero()] * (order - i + 1) for i in range(order + 1)]
        for n, c in self.terms():
            for i in range(n + 1):
                j = n - i
                w = math.comb(n, i) * (sign**j)
                rows[i][j] = rows[i][j] + c * w
        return BiSeries(rows, order)

    # -- serialization ---------------------------------------------------

    def to_json(self, normalization: str = "plain") -> dict:
        """JSON form: variable, valuation, order, normalization, dense coeffs."""
        if normalization not in ("plain", "factorial"):
            raise ValueError(f"unknown normalization {normalization!r}")
        factorial = normalization == "factorial"
        if factorial and self._lo < 0:
            raise SeriesError("factorial normalization is undefined for Laurent series")
        valuation = self.valuation
        start = valuation - self._lo
        scale = math.factorial(start)
        coeffs = []
        for k, p in enumerate(self.h[start:], start):
            if k > start:
                scale *= k
            coeffs.append([str(v) if factorial else _plain_text(v, scale) for v in p])
        return {
            "variable": "t",
            "valuation": valuation,
            "order": self._order,
            "normalization": normalization,
            "coeffs": coeffs,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "TSeries":
        if not isinstance(data, Mapping):
            raise ValueError("series JSON must be an object")
        if data.get("variable") != "t":
            raise ValueError("series JSON must declare variable 't'")
        normalization = data.get("normalization", "plain")
        if normalization not in ("plain", "factorial"):
            raise ValueError(f"unknown normalization {normalization!r}")
        val = _json_int(data, "valuation")
        order = _json_int(data, "order")
        factorial = normalization == "factorial"
        coeffs = []
        for k, item in enumerate(_json_coeffs(data)):
            if factorial and all(type(v) is str and _INTEGER_RE.fullmatch(v) for v in item):
                p = clean([int(v) for v in item])  # integer literals are kernel ints as they are
            else:
                from .algebra import XPoly

                p = XPoly.from_strings(item)
                if factorial:
                    p = clean(list(p.coeffs))
            if factorial and val + k < 0:
                raise ValueError("factorial normalization with negative exponent")
            coeffs.append(p)
        if not factorial:
            return cls(val, coeffs, order)
        # the factorial form of a power series is its kernel vector
        return cls.from_kernel([[] for _ in range(val)] + coeffs, order)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return f"O(t^{self._order + 1})"
        bits = []
        for n, c in self.terms():
            body = str(c)
            if c.degree > 0 or ("-" in body[1:] or "+" in body):
                body = f"({body})"
            bits.append(f"{body}*t^{n}")
        return " + ".join(bits) + f" + O(t^{self._order + 1})"

    def __repr__(self) -> str:
        return f"<TSeries valuation={self.valuation} order={self._order}>"


def _json_int(data: Mapping, key: str) -> int:
    """A required integer field of series JSON; bool, float and str are refused."""
    if key not in data:
        raise ValueError(f"series JSON is missing {key!r}")
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"series JSON field {key!r} must be an integer, got {value!r}")
    return value


def _json_coeffs(data: Mapping) -> list:
    """The required ``coeffs`` field: an array of x-polynomial arrays."""
    if "coeffs" not in data:
        raise ValueError("series JSON is missing 'coeffs'")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not all(isinstance(item, list) for item in coeffs):
        raise ValueError("series JSON 'coeffs' must be an array of arrays")
    return coeffs


# ---------------------------------------------------------------------------
# mismatch reporting


class TMismatch(NamedTuple):
    """First coefficient disagreement between two univariate series."""

    t: int
    x: int
    lhs: Rational
    rhs: Rational

    def to_json(self) -> dict:
        return {"t": self.t, "x": self.x, "lhs": str(self.lhs), "rhs": str(self.rhs)}


def first_difference(
    a: TSeries, b: TSeries, through: "int | None" = None
) -> "TMismatch | None":
    """Least (t-power, x-power) where two series differ, or None.

    Comparison runs through ``through`` when given (which must not exceed
    either truncation order), otherwise through the smaller order.  The
    kernel entries are compared as they are, at the lower anchor; the plain
    values are formed only at the first slot that differs.
    """
    limit = min(a.order, b.order) if through is None else through
    if limit > min(a.order, b.order):
        raise SeriesError(
            f"comparison through t^{limit} exceeds known orders ({a.order}, {b.order})"
        )
    lo = min(a._lo, b._lo)
    f, g = a._at_anchor(lo), b._at_anchor(lo)
    diff = hurwitz.first_difference(f, g, limit - lo)
    if diff is None:
        return None
    k, x = diff
    scale = math.factorial(k)
    return TMismatch(lo + k, x, plain_poly(f[k], scale).coeff(x), plain_poly(g[k], scale).coeff(x))


def __getattr__(name: str):
    if name not in ("BiSeries", "first_difference_uv"):  # the names the benchmark tracer reads here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import bivariate

    # bind it here, so that ``vars(series)`` holds it as an eager import would
    value = globals()[name] = getattr(bivariate, name)
    return value
