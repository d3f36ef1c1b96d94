"""Tour of the exact series engine: products, quotients, calculus, substitution.

It shows the truncated power series in t over Q[x] and what the engine
builds with them: products, exp, sqrt, reciprocals of series with an
x-free nonzero constant term, d/dt, the integral, and the substitutions
t -> u +- v, each with the truncation order it states.  Everything below is
computed over exact rationals -- no floating point.
Run with:  python demos/01_series_engine.py
"""
from fractions import Fraction as F

from blowup_series import SeriesError, TSeries, XPoly, first_difference

X = XPoly.x()

# --- building blocks ------------------------------------------------------
# A truncated series carries its valuation (lowest t-power, never negative)
# and an inclusive truncation order; coefficients are polynomials in x over
# the rationals.

geometric = TSeries.from_terms({0: 1, 1: -1}, 8)          # 1 - t
print("1/(1 - t)          =", geometric.recip())

gauss = TSeries.monomial(X * F(-1, 6), 2, 8).exp()        # exp(-x t^2 / 6)
print("exp(-x t^2/6)      =", gauss)

try:
    TSeries.monomial(1, -1, 8)
except SeriesError as exc:
    print("t^-1               ->", exc)

# --- truncation bookkeeping ------------------------------------------------
# Operations state exactly how far their result can be trusted: derivatives
# lose one order, definite integrals gain one, and a product is known through
# min(a.order + b.valuation, b.order + a.valuation).

a = TSeries.from_terms({1: 1, 3: F(1, 3)}, 9)
print("\norder of a         =", a.order)
print("order of a'        =", a.derivative().order)
print("order of int(a)    =", a.integrate().order)
print("order of a * a     =", (a * a).order)

# --- products and quotients ------------------------------------------------
# A quotient f/g is f * g.recip(); the reciprocal solves g w' = -g' w.

cos_t = TSeries.from_terms({0: 1, 2: F(-1, 2), 4: F(1, 24), 6: F(-1, 720)}, 7)
sin_t = TSeries.from_terms({1: 1, 3: F(-1, 6), 5: F(1, 120), 7: F(-1, 5040)}, 7)
tan_t = sin_t * cos_t.recip()
print("\nsin t / cos t      =", tan_t)
print("sin^2 + cos^2      =", sin_t * sin_t + cos_t * cos_t)
one = TSeries.monomial(1, 0, 7)
print("tan' == 1 + tan^2  ->", first_difference(tan_t.derivative(), one + tan_t * tan_t) is None)

# --- sqrt solves its defining equation exactly -----------------------------
f = TSeries.from_terms({0: 1, 2: F(2, 7), 4: X}, 10)
root = f.sqrt()
print("\nsqrt(f)^2 == f     ->", first_difference(root * root, f) is None)

# --- bivariate substitution --------------------------------------------------
# t -> u + v and t -> u - v expand by binomials, truncated by total degree.
sq = TSeries.monomial(1, 2, 4).subst_pm(+1)
print("\n(u+v)^2 slots      : u^2 ->", sq.coeff(2, 0), " uv ->", sq.coeff(1, 1),
      " v^2 ->", sq.coeff(0, 2))
