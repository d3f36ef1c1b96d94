"""Every series derived from the blow-up pair, each built by one route.

A :class:`~blowup_series.blowup.BlowupSeriesSet` imports this module on the
first read of a derived group, so ``gen --series B`` and ``gen --series S``
never compile it; the identity catalog and the pairing formulas import it
directly.

The exponential series come from one evaluation ODE and the blow-up
symmetry (t, x) -> (it, -x), which maps it to the other
(:func:`exponential_pair`); their closed forms through sqrt and exp are not
built again, because the identity catalog certifies what they feed
(b0 = B^2, btau = S^2 and the evaluation ODEs themselves).  The odd-case
series solve the linear ODE of their integral formulas
(:func:`odd_case_pair`), and the simple-type forms at x = +-2 are integer
vectors built directly (:func:`degeneration_form`).  Every construction
runs on the divided-power vectors of :mod:`blowup_series.hurwitz`.
"""
from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from . import hurwitz
from .blowup import UnexpectedPoleError
from .hurwitz import Poly, add, clean, divided, scaled
from .series import SeriesError, TSeries

if TYPE_CHECKING:
    from .algebra import XPoly


def degeneration_form(x: int, name: str, order: int) -> TSeries:
    """The closed form of B^2, S^2, the Wronskian or BS at x = 2 or -2.

    With c = x/2 each is the envelope exp(-c t^2) times a factor: cosh^2 t,
    sinh^2 t, 1 and sinh(2t)/2 at x = 2, and cos^2 t, sin^2 t, 1 and
    sin(2t)/2 at x = -2.  The envelope has entry e_n = (-c)^(n/2) n!/(n/2)!
    at even n.  With g_n = c^(n//2) 2^(n-1), the B^2 factor is 1 at n = 0
    and g_n at even n >= 2, the S^2 factor is c times that but 0 at n = 0,
    and the BS factor is g_n at odd n.  The form is the binomial convolution
    sum_m C(n, m) e_{n-m} f_m of the envelope with the factor f, computed on
    x-free integers, so it is an integer kernel vector.
    """
    if x not in (2, -2):
        raise ValueError(f"the simple-type forms sit at x = 2 and x = -2, got {x}")
    c = x // 2
    # per series: the t-parity of its factor's entries, the weight of g_m in them, and f_0
    factors = {"b2": (0, 1, 1), "s2": (0, c, 0), "wronskian": (0, 0, 1), "bs": (1, 1, 0)}
    if name not in factors:
        raise ValueError(f"no simple-type form for {name!r}")
    parity, weight, head = factors[name]
    factor = [(0, head)] if head else []
    if weight:
        factor += [(m, weight * c ** (m // 2) * 2 ** (m - 1)) for m in range(parity or 2, order + 1, 2)]
    fact = math.factorial
    envelope = [(-c) ** i * fact(2 * i) // fact(i) for i in range(order // 2 + 1)]  # e_{2i}
    form = [0] * (order + 1)
    for n in range(parity, order + 1, 2):
        form[n] = sum(math.comb(n, m) * envelope[(n - m) // 2] * fm for m, fm in factor if m <= n)
    return TSeries.from_kernel([[v] if v else [] for v in form], order)


def derived_products(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries, TSeries, TSeries]:
    """B^2, S^2, BS and the Wronskian BS' - B'S, all by fresh arithmetic.

    By Leibniz, (BS)' = B'S + BS', so the Wronskian is 2 BS' - (BS)': it
    reuses BS and takes one product, BS', of its own.
    """
    bs = b * s
    return b * b, s * s, bs, b * s.derivative() * 2 - bs.derivative()


def _quotient_order(num: TSeries, den: TSeries) -> int:
    """Truncation order of the quotient num/den, with v = den.valuation.

    Write den = t^v u.  1/u is known through u's order, den.order - v, so
    num/u is known through min(num.order, den.order - v + num.valuation),
    and the division by t^v lowers that by v.
    """
    v = den.valuation
    return min(num.order - v, den.order - 2 * v + num.valuation)


def _ode_solution(sigma: TSeries, rho: TSeries, head: list[Poly], order: int) -> TSeries:
    """The solution of sigma(2t) w' = rho(2t) w that starts with ``head``."""
    w = hurwitz.linear_ode(sigma.scale_arg(2).h, rho.scale_arg(2).h, head, order + 1)
    return TSeries.from_kernel(w, order)


def _check_parity(b: TSeries, s: TSeries) -> None:
    """Raise unless B(it; -x) = B(t; x) and S(it; -x) = i S(t; x).

    The term x^k t^n picks up the factor i^(n + 2k) under (t, x) -> (it, -x),
    so the rule asks n + 2k = 0 (mod 4) of every term of B and n + 2k = 1
    (mod 4) of every term of S.  The functional equation and its seeds are
    invariant under that map, so the generated pair obeys the rule.
    """
    for name, series, weight in (("B", b, 0), ("S", s, 1)):
        for n, p in enumerate(series.h):
            for k, v in enumerate(p):
                if v and (n + 2 * k) % 4 != weight:
                    raise SeriesError(
                        f"{name} breaks the parity rule B(it; -x) = B(t; x), "
                        f"S(it; -x) = i S(t; x) at t^{n}, x^{k}"
                    )


def exponential_pair(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries, TSeries, TSeries]:
    """The exponential solutions of the two evaluation ODEs, and their halves.

    For each sign the series exp(int_0^t ((B' +- S)/B)(2s) ds) solves
    B(2t) f' = (B' +- S)(2t) f with f(0) = 1.  When B(0) = 1 it equals
    sqrt(B(2t)) * exp(+-(1/2) int_0^{2t} S/B); that closed form is not built
    here.  Only the plus equation is solved.  The blow-up symmetry
    (t, x) -> (it, -x), with B -> B and S -> iS, maps it to the minus
    equation, so b_minus(t; x) = b_plus(it; -x): entry n of b_minus is
    (-1)^(n/2) times entry n of b_plus taken at -x.  The half sum b0 and half
    difference btau are therefore the two x-parity halves of b_plus: b0 keeps
    the terms x^k t^n with k = n/2 (mod 2), btau the others.  A pair that
    breaks the symmetry's parity rule is refused with :class:`SeriesError`
    naming its first bad slot, since its minus series would not solve its
    equation.
    Returns (plus, minus, half_sum, half_difference).
    """
    if b.h[:1] != [[1]]:
        raise SeriesError("the evaluation ODE needs B(0) = 1")
    _check_parity(b, s)
    numerator = b.derivative() + s
    plus = _ode_solution(b, numerator, [[1]], _quotient_order(numerator, b) + 1)
    b0: list[Poly] = []
    btau: list[Poly] = []
    for n, p in enumerate(plus.h):
        e = n // 2 % 2  # b0 keeps x^k t^n with k = n/2 (mod 2); odd n are zero
        b0.append(clean([v if k % 2 == e else 0 for k, v in enumerate(p)]))
        btau.append(clean([0 if k % 2 == e else v for k, v in enumerate(p)]))
    minus = [add(p, q, -1) for p, q in zip(b0, btau)]
    return plus, *(TSeries.from_kernel(h, plus.order) for h in (minus, b0, btau))


def _check_poles(s: TSeries, regular: TSeries, singular: TSeries) -> None:
    """Raise where the integrands of the odd-case formulas leave their domain.

    ``regular`` and ``singular`` are S' - B and S' + B.  Dividing by S needs
    an x-free leading coefficient.  (-B + S')/S must vanish at 0, and
    (B + S')/S must be exactly 2/t + O(t).  Both conditions are read off
    leading kernel entries: c_k = 2 s_{k+1} on plain coefficients reads
    (k + 1) c'_k = 2 s'_{k+1} on the entries c'_k = k! c_k.
    """
    v = s.valuation
    if v > s.order:
        raise ZeroDivisionError("reciprocal of the zero series")
    if len(s.h[v]) != 1:
        raise SeriesError(f"leading coefficient {s.coeff(v)} is not invertible in the rationals")
    if regular.valuation <= regular.order and regular.valuation < v + 1:
        raise UnexpectedPoleError(f"(-B + S')/S should vanish at 0 but has valuation {regular.valuation - v}")
    lead = singular.valuation
    if lead > singular.order or lead != v - 1 or scaled(singular.h[lead], v) != scaled(s.h[v], 2):
        order = _quotient_order(singular, s)
        if order < -1:
            raise UnexpectedPoleError(
                f"(B + S')/S should have exactly the pole 2/t, but it is known only through t^{order}"
            )
        valuation = min(lead - v, order + 1)  # order + 1 if zero through its order
        raise UnexpectedPoleError(
            "(B + S')/S should have exactly the pole 2/t; got valuation "
            f"{valuation} with residue {_residue(singular, s) if valuation <= -1 else 0}"
        )
    # the t^0 coefficient of (B + S')/S, where its truncation order reaches t^0
    reaches = min(singular.order - v, s.order - v - 1) >= 0
    if reaches and scaled(singular.h[v], v + 1) != scaled(s.h[v + 1], 2):
        raise UnexpectedPoleError("pole subtraction left a singular or constant term (valuation 0)")


def _residue(num: TSeries, s: TSeries) -> XPoly:
    """The t^-1 coefficient of num/S, known through t^-1 or beyond.

    With S = t^v u and num = t^m a it is coefficient k = v - 1 - m of
    a * u.recip(), a power series because u(0) is an x-free unit.  Entry n
    of f/t^j is entry n + j of f over (n + j)!/n!.  Only the pole guard's
    error message reads it.
    """
    v, m = s.valuation, num.valuation
    k = v - 1 - m

    def over(f: TSeries, j: int) -> TSeries:  # f/t^j through t^k
        return TSeries.from_kernel([divided(f.h[n + j], math.perm(n + j, j)) for n in range(k + 1)], k)

    return (over(num, m) * over(s, v).recip()).coeff(k)


def odd_case_pair(b: TSeries, s: TSeries) -> tuple[TSeries, TSeries]:
    """The universal series of the odd pairing case, from their integral forms.

    ws0 = exp((1/2) int_0^{2t} (-B + S')/S) and
    ws1 = t * exp((1/2) int_0^{2t} [(B + S')/S - 2/s] ds).
    The first integrand must be regular at 0; the second must carry exactly
    the 2/s pole that the subtraction removes.  Both are built as solutions
    of the linear ODE S(2t) w' = q(2t) w: q = S' - B with w(0) = 1 for ws0,
    and q = S' + B with w = t + O(t^2) for ws1.  Unlike the integrands,
    whose coefficients have Bernoulli-type denominators, the ODE stays
    integral in the Hurwitz basis.
    """
    ds = s.derivative()
    regular, singular = ds - b, ds + b
    _check_poles(s, regular, singular)
    ws0 = _ode_solution(s, regular, [[1]], _quotient_order(regular, s) + 1)
    ws1 = _ode_solution(s, singular, [[], [1]], _quotient_order(singular, s) + 2)
    return ws0, ws1


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, by the interpreter's built-in module
    (``_sha2`` from Python 3.12, ``_sha256`` before), which loads without the
    OpenSSL of ``hashlib``; ``hashlib`` is the fallback.  The digests are equal."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def series_content_hash(b: TSeries, s: TSeries) -> str:
    payload = json.dumps([b.to_json(), s.to_json()], sort_keys=True, separators=(",", ":"))
    return sha256_hex(payload.encode("ascii"))
