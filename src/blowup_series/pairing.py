"""Pairing universal series against moment data of a linear functional.

An invariant evaluated on powers of the point class x is modelled as a
finite moment sequence mu_0, mu_1, ...; pairing extends the functional
linearly to series coefficients, sending sum_k c_k x^k to sum_k c_k mu_k
per t-power.  The evaluation formulas then combine paired series:

* even case    pair(B^2, mu_c) + pair(S^2, mu_{c+tau})
* even variant pair(B^2, mu_c) + pair(S^2, nu_c) / 2, where nu are the
  tau-inserted moments; with nu = 2 mu_{c+tau} it equals the even case
* odd case     pair(BS' - B'S, mu_c) + pair(BS, nu_c)
* simple type  closed hyperbolic forms, equal to the moment route on
  geometric moments mu_k = a * 2^k

Pairing reads the kernel entries n! [t^n] of a series (integer polynomials
for the blow-up series) and puts the moments p_k/q_k on prefix common
denominators L_k = lcm(q_0..q_k), with numerators P_k = p_k L_k / q_k.  An
entry of x-degree d then pairs to one integer Horner sum over L_d, which
is reduced once into the x-free entry of the paired series: one
``Fraction`` per t-power and functional.  A prefix
denominator, unlike one lcm over all moments, stays as small as the entry's
own degree needs.  :func:`pair` and the three ``eval_*`` formulas share this
one dot product.

Tau-inserted data is always caller-supplied: real invariant data has to
satisfy relations this module can check for consistency but deliberately
does not enforce.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple, Sequence

from .algebra import RationalLike, parse_rational
from .blowup import BlowupSeriesSet, series_set
from .derived import degeneration_form
from .hurwitz import Poly, clean
from .series import SeriesError, TSeries

PROVENANCE_EVEN = "maina"
PROVENANCE_ODD = "mainb"
PROVENANCE_EVEN_PRIME = "main-prime"
PROVENANCE_SIMPLE_EVEN = "corollary-even"
PROVENANCE_SIMPLE_ODD = "corollary-odd"


class InsufficientMomentsError(ValueError):
    """A pairing needed more moments than the functional supplies."""

    def __init__(self, label: str, supplied: int, required: int):
        super().__init__(
            f"functional {label!r} supplies {supplied} moments but the series "
            f"reaches x-degree {required - 1}; at least {required} moments are required"
        )
        self.required = required


class MomentFunctional:
    """A linear form known through its values on x-powers.

    ``moments[k]`` is the value on x^k, turned into a :class:`Fraction` when
    the functional is made.  A functional is read-only: assigning to any of
    its names raises :class:`AttributeError`.  Two functionals are equal, and
    hash alike, when their ``(label, moments)`` are equal.
    """

    label: str
    moments: tuple[Fraction, ...]

    def __init__(self, label: str, moments: Sequence[RationalLike]):
        moments = tuple(m if type(m) is Fraction else Fraction(m) for m in moments)
        self.__dict__.update(label=label, moments=moments)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not MomentFunctional:
            return NotImplemented
        return (self.label, self.moments) == (other.label, other.moments)

    def __hash__(self) -> int:
        return hash((self.label, self.moments))

    def scaled(self, factor: RationalLike) -> "MomentFunctional":
        f = Fraction(factor)
        return MomentFunctional(self.label, tuple(m * f for m in self.moments))

    @classmethod
    def zero(cls, label: str, length: int) -> "MomentFunctional":
        return cls(label, (Fraction(0),) * length)

    @classmethod
    def geometric(
        cls, label: str, scale: RationalLike, ratio: RationalLike, length: int
    ) -> "MomentFunctional":
        """mu_k = scale * ratio^k; pairing against it is substitution x -> ratio."""
        scale, ratio = Fraction(scale), Fraction(ratio)
        return cls(label, tuple(scale * ratio**k for k in range(length)))

    def to_json(self) -> dict:
        return {"label": self.label, "moments": [str(m) for m in self.moments]}

    @classmethod
    def from_json(cls, data: Mapping) -> "MomentFunctional":
        label = data.get("label")
        if not isinstance(label, str):
            raise ValueError("moment JSON needs a string 'label'")
        moments = data.get("moments")
        if not isinstance(moments, list):
            raise ValueError("moment JSON needs a 'moments' array of rational strings")
        return cls(label, tuple(parse_rational(m) for m in moments))


def _paired(h: Sequence[Poly], mu: MomentFunctional, order: int, half: bool = False) -> list:
    """Kernel entries, n = 0..order, of the kernel vector ``h`` paired with ``mu``: x-free scalars.

    Entries are checked in ascending n, so a short functional is named with
    the length its first uncovered entry needs.  With ``half`` every value
    is halved inside its one reduction.
    """
    entries = h[: order + 1]
    supplied = len(mu.moments)
    top = 0
    for p in entries:
        if len(p) > supplied:
            raise InsufficientMomentsError(mu.label, supplied, len(p))
        top = max(top, len(p))
    # prefix common denominators: steps[k] = L_k / L_{k-1}, numerators[k] = P_k
    lcm, steps, numerators, lcms = 1, [], [], []
    for m in mu.moments[:top]:
        q = m.denominator
        step = q // gcd(lcm, q)
        lcm *= step
        steps.append(step)
        numerators.append(m.numerator * (lcm // q))
        lcms.append(lcm)
    values = []
    scale = 2 if half else 1
    for p in entries:
        acc = 0
        for step, c, numerator in zip(steps, p, numerators):
            if step != 1:
                acc *= step
            if c:
                acc += c * numerator
        values.append(Fraction(acc, lcms[len(p) - 1] * scale) if acc else 0)
    return values


def _x_free(values: list, order: int) -> TSeries:
    return TSeries.from_kernel([clean([v]) for v in values], order)


def pair(f: TSeries, mu: MomentFunctional) -> TSeries:
    """Apply a moment functional to every coefficient of a series.

    The output has x-free coefficients and the same truncation order.
    """
    return _x_free(_paired(f.h, mu, f.order), f.order)


class EvalResult(NamedTuple):
    """An evaluated invariant series plus which formula produced it."""

    series: TSeries
    provenance: str

    def to_json(self) -> dict:
        data = self.series.to_json()
        data["provenance"] = self.provenance
        return data


def _series_for(order: int, provided: "BlowupSeriesSet | None") -> BlowupSeriesSet:
    if provided is not None:
        if provided.order < order + 1:
            raise SeriesError(
                f"series set of order {provided.order} cannot evaluate through t^{order}"
            )
        return provided
    # generation needs order >= 4; one guard order on top, as ``gen`` builds
    return series_set(max(order, 4) + 1)


def _evaluate(
    first: tuple[str, MomentFunctional],
    second: tuple[str, MomentFunctional],
    order: int,
    series: "BlowupSeriesSet | None",
    provenance: str,
    half: bool = False,
) -> EvalResult:
    """pair(first series, its functional) + pair(second series, its functional),
    the second halved with ``half``; the first functional is checked first."""
    st = _series_for(order, series)
    (f, mu), (g, nu) = first, second
    a = _paired(getattr(st, f).h, mu, order)
    b = _paired(getattr(st, g).h, nu, order, half)
    return EvalResult(_x_free([u + v for u, v in zip(a, b)], order), provenance)


def eval_even(
    mu_c: MomentFunctional,
    mu_ctau: MomentFunctional,
    order: int,
    series: "BlowupSeriesSet | None" = None,
) -> EvalResult:
    """Even pairing case: pair(B^2, mu_c) + pair(S^2, mu_{c+tau})."""
    return _evaluate(("b2", mu_c), ("s2", mu_ctau), order, series, PROVENANCE_EVEN)


def eval_even_main_prime(
    mu_c: MomentFunctional,
    nu_c: MomentFunctional,
    order: int,
    series: "BlowupSeriesSet | None" = None,
) -> EvalResult:
    """Even-case variant over tau-inserted moments: pair(B^2, mu) + pair(S^2, nu)/2."""
    return _evaluate(("b2", mu_c), ("s2", nu_c), order, series, PROVENANCE_EVEN_PRIME, half=True)


def eval_odd(
    mu_c: MomentFunctional,
    nu_c: MomentFunctional,
    order: int,
    series: "BlowupSeriesSet | None" = None,
) -> EvalResult:
    """Odd pairing case: pair(BS' - B'S, mu_c) + pair(BS, nu_c)."""
    return _evaluate(("wronskian", mu_c), ("bs", nu_c), order, series, PROVENANCE_ODD)


def eval_simple_type(
    a: RationalLike,
    b: RationalLike,
    d: RationalLike,
    parity: str,
    order: int,
) -> EvalResult:
    """Closed simple-type forms.

    even: exp(-t^2) (a cosh^2 t + b sinh^2 t); odd: exp(-t^2) (a + d sinh(2t)/2).
    Equals the moment-based route on geometric moments with ratio 2.
    """
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    if parity == "even":
        terms, provenance = (("b2", a), ("s2", b)), PROVENANCE_SIMPLE_EVEN
    elif parity == "odd":
        terms, provenance = (("wronskian", a), ("bs", d)), PROVENANCE_SIMPLE_ODD
    else:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    # u exp(-t^2) f_1 + v exp(-t^2) f_2 = exp(-t^2) (u f_1 + v f_2), entry for entry
    (first, u), (second, v) = terms
    form = degeneration_form(2, first, order) * u + degeneration_form(2, second, order) * v
    return EvalResult(form, provenance)
