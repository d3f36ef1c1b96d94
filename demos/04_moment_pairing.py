"""Evaluate the universal formulas against moment data.

A linear functional on the coefficient ring is described by its values on
x-powers (a moment sequence).  Pairing a universal series against moments
produces an honest rational series in t -- here the even and odd evaluation
formulas, the simple-type closed forms, and the consistency laws between
them.  Run with:  python demos/04_moment_pairing.py
"""
from fractions import Fraction as F

from blowup_series import (
    MomentFunctional,
    eval_even,
    eval_even_main_prime,
    eval_odd,
    eval_simple_type,
    first_difference,
)

ORDER = 14

# --- simple-type data is geometric moments at ratio 2 ----------------------
mu = MomentFunctional.geometric("D_c", scale=1, ratio=2, length=20)
zero = MomentFunctional.zero("D_{c+tau}", length=20)

even = eval_even(mu, zero, ORDER)
closed = eval_simple_type(1, 0, 0, "even", ORDER)
print("even evaluation on geometric moments:")
print("  ", even.series)
print("matches the closed form exp(-t^2) cosh^2 t:",
      first_difference(even.series, closed.series) is None)

# --- the odd case ------------------------------------------------------------
nu = MomentFunctional.geometric("tau-inserted", scale=F(1, 2), ratio=2, length=20)
odd = eval_odd(mu, nu, ORDER)
print("\nodd evaluation (geometric moments, half-weight insertion):")
print("  ", odd.series)

# --- consistency between the two even routes ---------------------------------
mu_ctau = MomentFunctional("mu'", tuple(F(3 * k + 1, 4) for k in range(20)))
direct = eval_even(mu, mu_ctau, ORDER)
primed = eval_even_main_prime(mu, mu_ctau.scaled(2), ORDER)
print("\nprimed route with doubled insertion equals the direct route:",
      first_difference(direct.series, primed.series) is None)

# --- moment files round-trip through JSON -------------------------------------
print("\nmoment functional as JSON:", mu.to_json()["moments"][:6], "...")
