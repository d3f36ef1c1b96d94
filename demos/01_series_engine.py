"""Tour of the exact series engine: arithmetic, calculus, Laurent reciprocals.

It shows the truncated series in t over Q[x] and its operations: products,
reciprocals (a Laurent quotient is a product with one), exp, sqrt, d/dt,
the integral, and the substitutions t -> u +- v, each with the truncation
order it states.  Everything below is computed over exact rationals -- no
floating point.
Run with:  python demos/01_series_engine.py
"""
from fractions import Fraction as F

from blowup_series import TSeries, XPoly, first_difference

X = XPoly.x()

# --- building blocks ------------------------------------------------------
# A truncated series carries its valuation (lowest t-power) and an inclusive
# truncation order; coefficients are polynomials in x over the rationals.

geometric = TSeries.from_terms({0: 1, 1: -1}, 8)          # 1 - t
print("1/(1 - t)          =", geometric.recip())

gauss = TSeries.monomial(X * F(-1, 6), 2, 8).exp()        # exp(-x t^2 / 6)
print("exp(-x t^2/6)      =", gauss)

# --- truncation bookkeeping ------------------------------------------------
# Operations state exactly how far their result can be trusted: derivatives
# lose one order, definite integrals gain one, reciprocals of Laurent series
# pay twice their valuation.

a = TSeries.from_terms({1: 1, 3: F(1, 3)}, 9)
print("\norder of a         =", a.order)
print("order of a'        =", a.derivative().order)
print("order of int(a)    =", a.integrate().order)

# --- Laurent reciprocals -------------------------------------------------
# The reciprocal of an odd series of valuation 1 has a simple pole, so a
# product with it does too; the engine tracks the pole exactly and refuses to
# integrate across a t^-1 term.

odd = TSeries.from_terms({1: 1, 3: X * F(-1, 6)}, 7)
quotient = TSeries.from_terms({0: 2, 2: X * F(-1, 2)}, 7) * odd.recip()
print("\n(2 - x t^2/2) / (t - x t^3/6) =", quotient)
print("valuation:", quotient.valuation)

try:
    quotient.integrate()
except Exception as exc:
    print("integrating across the pole ->", type(exc).__name__, "-", exc)

# --- sqrt solves its defining equation exactly -----------------------------
f = TSeries.from_terms({0: 1, 2: F(2, 7), 4: X}, 10)
root = f.sqrt()
print("\nsqrt(f)^2 == f     ->", first_difference(root * root, f) is None)

# --- bivariate substitution --------------------------------------------------
# t -> u + v and t -> u - v expand by binomials, truncated by total degree.
sq = TSeries.monomial(1, 2, 4).subst_pm(+1)
print("\n(u+v)^2 slots      : u^2 ->", sq.coeff(2, 0), " uv ->", sq.coeff(1, 1),
      " v^2 ->", sq.coeff(0, 2))
