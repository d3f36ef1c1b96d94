"""Truncated power series in t over Q[x].

A :class:`TSeries` knows exactly how far it can be trusted: every value
carries an inclusive truncation ``order`` and a ``valuation`` (the lowest
t-exponent, never negative).  Every operation states how the output order
follows from the input orders, so precision is never silently overstated:

* ``a + b``          order ``min(a.order, b.order)``
* ``a * b``          order ``min(a.order + b.valuation, b.order + a.valuation)``
* ``a.derivative()`` order ``a.order - 1``
* ``a.integrate()``  order ``a.order + 1`` (definite integral from 0)
* ``a.recip()``, ``a.exp()``, ``a.sqrt()``, ``a.scale_arg(c)``   order ``a.order``

A series is stored as a divided-power vector of :mod:`blowup_series.hurwitz`:
entry ``h[n]`` is ``n! [t^n]``, its table form, which is an integer
polynomial for the blow-up series.  A negative valuation is refused where a
series is made from plain coefficients or JSON.  Products are the kernel's
binomial convolution; the exponential, the square root and the reciprocal
are its linear ODE solves of w' = a' w, 2 a w' = a' w and a w' = -a' w;
d/dt and the integral are index shifts.  Plain coefficients entry / k! are
formed only by :meth:`TSeries.coeff`, :meth:`TSeries.terms`, plain JSON
output and display.  A comparison scans the kernel entries with
:func:`~blowup_series.hurwitz.differences` and values a mismatch by
:func:`plain_value`, one ``Fraction`` per side and no x-polynomial.

The plain view lives in :mod:`blowup_series.algebra`: the plain
constructor reads its coefficients there, and ``coeff``, ``terms``,
``__str__`` and ``from_terms`` delegate there when they run.  So
:mod:`blowup_series.algebra` and ``fractions`` are compiled and imported
only where a plain coefficient, an x-polynomial or a scalar that is not an
int is formed: a product of two series and series JSON of integer
literals load neither.  The bivariate series of the substitutions
t -> u +- v (:meth:`TSeries.subst_pm`) is ``algebra.BiSeries``; the
module-level names ``BiSeries`` and ``first_difference_uv`` resolve to
that module's objects on first access, because the benchmark tracer binds
them here; nothing in the package reads them through this module.  Every
module hook of the package is one that :func:`_lazy_names` makes.
"""
from __future__ import annotations

import itertools
import math
import re
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence, Union

from . import hurwitz
from .hurwitz import Poly, add, clean, divided, scaled

if TYPE_CHECKING:
    from .algebra import Rational, RationalLike, XPoly

CoeffLike = Union["XPoly", "Rational", int]

#: the one rational literal grammar: ``p`` or ``p/q``, ASCII digits, an optional leading minus
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class SeriesError(ValueError):
    """A series operation was asked to leave its domain."""


def parse_pair(text: object) -> tuple[int, int]:
    """The ints ``(p, q)`` that a rational literal ``"p"`` or ``"p/q"`` spells.

    ``"p"`` gives ``(p, 1)``.  The pair is the literal's own: it is not reduced,
    and no ``Fraction`` is formed.  Anything else is refused as ``Fraction``
    would refuse the pair: a :class:`ValueError` for a text that is not a
    literal (decimals, spaces, a plus sign, non-ASCII digits) or has more
    digits than ``int`` converts, and ``ZeroDivisionError('Fraction(p, 0)')``
    for a zero denominator.
    """
    match = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    p = int(numerator)
    if denominator is None:
        return p, 1
    q = int(denominator)
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return p, q


def as_fraction(value: RationalLike) -> Rational:
    """``value``, an ``int``, a ``Fraction`` or a literal of :func:`parse_pair`'s
    grammar, as a ``Fraction``.  Anything else, a ``float`` or a ``Decimal``
    too, is refused with a :class:`TypeError`: no scalar is read as a binary
    fraction."""
    from fractions import Fraction

    if isinstance(value, str):
        return Fraction(*parse_pair(value))
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"a scalar must be an int, a Fraction or a rational literal, not {type(value).__name__}")


class ReadOnly:
    """Base of the value types: a value refuses assignment and deletion of every name.

    Constructors write through ``object.__setattr__``, or through ``__dict__``
    in a class without slots, as ``cached_property`` does.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def plain_value(p: Poly, x: int, scale: int) -> Rational:
    """Coefficient ``x`` of ``p / scale``, the plain coefficient of a kernel entry, as a ``Fraction``."""
    from fractions import Fraction

    return Fraction(p[x] if x < len(p) else 0, scale)


def _plain_kernel(valuation: int, rows: Iterable[Sequence[hurwitz.Scalar]], order: int) -> list[Poly]:
    """The kernel vector through ``order`` of plain rows from ``valuation`` on:
    row n times n!.  Rows past the order are not read and their factorials
    are not formed."""
    if valuation > order:
        return []
    h: list[Poly] = [[] for _ in range(valuation)]
    scale = math.factorial(valuation)
    for n, row in enumerate(itertools.islice(rows, order - valuation + 1), valuation):
        if n > valuation:
            scale *= n
        h.append(clean(scaled(row, scale)))
    return h


def _plain_text(v: hurwitz.Scalar, scale: int) -> str:
    """``str(Fraction(v, scale))`` for a kernel scalar.

    ``v`` is an int or a reduced fraction, so only ``scale`` can share a
    factor with its numerator: one gcd against the small ``scale``.
    """
    num, den = (v, 1) if type(v) is int else (v.numerator, v.denominator)
    g = math.gcd(num, scale)
    num, den = num // g, den * (scale // g)
    return str(num) if den == 1 else f"{num}/{den}"


class TSeries(ReadOnly):
    """Truncated power series in t over Q[x], held as a divided-power vector.

    Read-only through :class:`ReadOnly`; ``h`` is a tuple of tuples, so no
    caller can change a cached entry.  ``h[n]`` is the kernel entry n! [t^n]
    for n = 0 .. order.  The constructor takes plain coefficients from
    ``valuation`` on and does not read those past the order; :meth:`from_kernel`
    takes a vector.  A series that is zero through its order has valuation
    ``order + 1`` (0 if the order is below -1).
    """

    __slots__ = ("h", "order")

    def __init__(self, valuation: int, coeffs: Iterable[CoeffLike], order: int):
        if valuation < 0:
            raise SeriesError(f"a series needs valuation >= 0, got {valuation}")
        if isinstance(coeffs, str):
            raise TypeError(f"coeffs must be a sequence of coefficients, not the string {coeffs!r}")
        from .algebra import _as_xpoly

        self._set(_plain_kernel(valuation, (_as_xpoly(c).coeffs for c in coeffs), order), order)

    def _set(self, h: Sequence[Poly], order: int) -> None:
        """Store ``h``, clipped or padded to the order, as a tuple of tuples."""
        n = max(order + 1, 0)
        entries = tuple(map(tuple, h[:n]))
        object.__setattr__(self, "h", entries + ((),) * (n - len(entries)))
        object.__setattr__(self, "order", order)

    # -- constructors --------------------------------------------------

    @classmethod
    def from_kernel(cls, h: Sequence[Poly], order: int) -> "TSeries":
        """The series whose entry n is ``h[n]`` = n! [t^n], known through ``order``."""
        series = object.__new__(cls)
        series._set(h, order)
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
        from .algebra import series_from_terms

        return series_from_terms(cls, terms, order)

    # -- structure -----------------------------------------------------

    @property
    def valuation(self) -> int:
        """Lowest t-exponent with a nonzero coefficient (order+1 if zero)."""
        return next((k for k, p in enumerate(self.h) if p), len(self.h))

    @property
    def is_zero(self) -> bool:
        return not any(self.h)

    def coeff(self, n: int, normalized: bool = False) -> XPoly:
        """Coefficient of t^n; with ``normalized`` the table form n! * [t^n].

        Exponents above the truncation order are unknown and raise;
        exponents below the valuation are known zeros.
        """
        from .algebra import series_coeff

        return series_coeff(self, n, normalized)

    def terms(self, normalized: bool = False) -> Iterable[tuple[int, XPoly]]:
        """Iterate (exponent, coefficient) over the nonzero stored terms, as :meth:`coeff` forms them."""
        from .algebra import series_terms

        return series_terms(self, normalized)

    def truncate(self, order: int) -> "TSeries":
        """Forget knowledge above ``order`` (which must not exceed self.order)."""
        if order > self.order:
            raise SeriesError(f"cannot extend truncation order {self.order} to {order}")
        return TSeries.from_kernel(self.h, order)

    def __eq__(self, other: object) -> bool:
        """Mathematical equality through the smaller truncation order."""
        if not isinstance(other, TSeries):
            return NotImplemented
        return first_difference(self, other) is None

    def __hash__(self) -> None:  # pragma: no cover - equality through the smaller order is not transitive
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
        """``self + sign * other``, entry by entry."""
        order = min(self.order, other.order)
        return TSeries.from_kernel([add(p, q, sign) for p, q in zip(self.h, other.h)], order)

    def __neg__(self) -> "TSeries":
        return TSeries.from_kernel([[-v for v in p] for p in self.h], self.order)

    def __mul__(self, other: "TSeries | CoeffLike") -> "TSeries":
        if not isinstance(other, TSeries):
            return self._times_coefficient(other)
        order = min(self.order + other.valuation, other.order + self.valuation)
        if self.is_zero or other.is_zero:
            return TSeries.zero(order)
        return TSeries.from_kernel(hurwitz.mul(self.h, other.h, order + 1), order)

    __rmul__ = __mul__

    def _times_coefficient(self, c: CoeffLike) -> "TSeries":
        """``self * c`` for an x-polynomial or a scalar ``c``."""
        if type(c) is int:
            h = [scaled(p, c) for p in self.h]
        else:
            from .algebra import _lift

            c = _lift(c)
            if c is NotImplemented:
                return NotImplemented
            h = [hurwitz.product(p, c.coeffs) for p in self.h]
        return TSeries.from_kernel(h, self.order)

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "TSeries":
        """Termwise d/dt; the output is exact through ``order - 1``."""
        return TSeries.from_kernel(self.h[1:], self.order - 1)

    def integrate(self) -> "TSeries":
        """Definite integral from 0; the output is exact through ``order + 1``."""
        return TSeries.from_kernel(((),) + self.h, self.order + 1)

    def scale_arg(self, c: RationalLike) -> "TSeries":
        """Substitute t -> c*t for a rational c (coefficient of t^n scales by c^n)."""
        if type(c) is not int:
            c = as_fraction(c)
            if c.denominator == 1:
                c = c.numerator
        return TSeries.from_kernel([scaled(p, c**k) for k, p in enumerate(self.h)], self.order)

    # -- multiplicative structure ------------------------------------------

    def recip(self) -> "TSeries":
        """Multiplicative inverse of a series with an x-free nonzero constant term."""
        h = self.h
        if not h or len(h[0]) != 1:
            raise SeriesError("recip needs an x-free nonzero constant term")
        # w = 1/f solves f w' = -f' w with w(0) = 1/f(0)
        minus_f_prime = [[-c for c in p] for p in h[1:]]
        w = hurwitz.linear_ode(h, minus_f_prime, [divided([1], h[0][0])], len(h))
        return TSeries.from_kernel(w, self.order)

    def exp(self) -> "TSeries":
        """Exponential of a series with zero constant term (valuation >= 1).

        Solved exactly as the linear ODE w' = a' w with w(0) = 1.
        """
        if self.valuation < 1:
            raise SeriesError("exp needs valuation >= 1 (zero constant term)")
        w = hurwitz.linear_ode([[1]], self.h[1:], [[1]], self.order + 1)
        return TSeries.from_kernel(w, self.order)

    def sqrt(self) -> "TSeries":
        """Square root of a series with constant term exactly 1."""
        if self.h[:1] != ((1,),):
            raise SeriesError("sqrt needs constant term exactly 1")
        # w = sqrt(f) solves 2 f w' = f' w with w(0) = 1; sigma = 2 f keeps it integral
        twice_f = [scaled(p, 2) for p in self.h]
        w = hurwitz.linear_ode(twice_f, self.h[1:], [[1]], self.order + 1)
        return TSeries.from_kernel(w, self.order)

    # -- bivariate substitution ---------------------------------------------

    def subst_pm(self, sign: int) -> "BiSeries":
        """Substitute t -> u + v (sign=+1) or t -> u - v (sign=-1).

        The kernel's signed re-index: entry (i, j) of the divided-power table
        of f(u +- v) is (+-1)^j f_{i+j}, the fact that
        :func:`~blowup_series.bivariate.product_pm` rests on.  The result is
        truncated at total degree ``order``.
        """
        if sign not in (1, -1):
            raise SeriesError("sign must be +1 or -1")
        from .algebra import _biseries

        order, h = self.order, self.h
        table = [[scaled(h[i + j], sign**j) for j in range(order - i + 1)] for i in range(order + 1)]
        return _biseries(table, order)

    # -- serialization ---------------------------------------------------

    def to_json(self, normalization: str = "plain") -> dict:
        """JSON form: variable, valuation, order, normalization, dense coeffs."""
        if normalization not in ("plain", "factorial"):
            raise ValueError(f"unknown normalization {normalization!r}")
        factorial = normalization == "factorial"
        valuation = self.valuation
        scale = math.factorial(valuation)
        coeffs = []
        for k, p in enumerate(self.h[valuation:], valuation):
            if k > valuation:
                scale *= k
            coeffs.append([str(v) if factorial else _plain_text(v, scale) for v in p])
        return {
            "variable": "t",
            "valuation": valuation,
            "order": self.order,
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
        if val < 0:
            raise SeriesError(f"series JSON field 'valuation' must be >= 0, got {val}")
        order = _json_int(data, "order")
        from .blowup import MAX_ORDER, build_order

        if order > build_order(MAX_ORDER):  # refused before the vector is padded to the order
            raise SeriesError(f"series JSON field 'order' must be <= {build_order(MAX_ORDER)}, got {order}")
        # every literal is parsed, also past the order
        rows = [[_scalar(v) for v in item] for item in _json_coeffs(data)]
        if normalization == "plain":
            return cls.from_kernel(_plain_kernel(val, rows, order), order)
        return cls.from_kernel([[] for _ in range(min(val, order + 1))] + [clean(p) for p in rows], order)

    # -- display ---------------------------------------------------------

    def __str__(self) -> str:
        from .algebra import series_text

        return series_text(self)

    def __repr__(self) -> str:
        return f"<TSeries valuation={self.valuation} order={self.order}>"


def _json_int(data: Mapping, key: str) -> int:
    """A required integer field of series JSON; bool, float and str are refused."""
    if key not in data:
        raise ValueError(f"series JSON is missing {key!r}")
    value = data[key]
    if type(value) is not int:
        raise ValueError(f"series JSON field {key!r} must be an integer, got {value!r}")
    return value


def _scalar(text: object) -> hurwitz.Scalar:
    """The kernel scalar of a literal: an int for ``p`` or ``p/1``, a ``Fraction``
    otherwise; ``fractions`` loads only for a denominator other than 1."""
    p, q = parse_pair(text)
    if q == 1:
        return p
    from fractions import Fraction

    return Fraction(p, q)


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


def first_difference(a: TSeries, b: TSeries, through: "int | None" = None) -> "TMismatch | None":
    """Least (t-power, x-power) where two series differ, or None.

    Comparison runs through ``through`` when given (which must not exceed
    either truncation order), otherwise through the smaller order.  The
    kernel entries are compared as they are; the plain values are formed
    only at the first slot that differs.
    """
    limit = min(a.order, b.order) if through is None else through
    if limit > min(a.order, b.order):
        raise SeriesError(f"comparison through t^{limit} exceeds known orders ({a.order}, {b.order})")
    diff = next(hurwitz.differences((n, a.h[n], b.h[n]) for n in range(limit + 1)), None)
    if diff is None:
        return None
    n, x = diff
    scale = math.factorial(n)
    return TMismatch(n, x, plain_value(a.h[n], x, scale), plain_value(b.h[n], x, scale))


def _lazy_names(namespace: dict, homes: Mapping[str, str]):
    """The PEP 562 ``__getattr__`` of the package module whose globals are
    ``namespace``: a name in ``homes`` is imported from the package module
    ``homes[name]`` on first access and bound in ``namespace``, as an eager
    import binds it, so the next read skips the hook; any other name is missing."""

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        from importlib import import_module

        value = namespace[name] = getattr(import_module(f"{__package__}.{homes[name]}"), name)
        return value

    return __getattr__


#: the names the benchmark tracer reads here
__getattr__ = _lazy_names(globals(), {"BiSeries": "algebra", "first_difference_uv": "algebra"})
