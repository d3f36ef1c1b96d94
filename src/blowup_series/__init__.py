"""Exact-arithmetic engine for the universal blow-up series of spheres of
self-intersection -1 and -2.

Everything is computed over exact rationals: the package generates the
even/odd universal pair (B, S) from its defining bivariate product
identity, builds every derived series (squares, products, Wronskian,
integral-formula series), verifies the catalog of series identities to any
feasible truncation order, and pairs series against user-supplied moment
data of Donaldson-type linear functionals.
"""
from .blowup import (
    BlowupSeriesSet,
    GenerationError,
    UnexpectedPoleError,
    build_series_set,
    golden_table,
    series_set,
)
from .series import SeriesError, TSeries, _lazy_names, first_difference

__version__ = "1.0.0"

#: public names whose module is imported on first access (PEP 562): ``gen``
#: never loads the pairing formulas or the identity catalog, and
#: ``gen --format json`` never loads the x-polynomials of ``algebra``
_LAZY = {
    "InsufficientMomentsError": "pairing",
    "MomentFunctional": "pairing",
    "XPoly": "algebra",
    "eval_even": "pairing",
    "eval_even_main_prime": "pairing",
    "eval_odd": "pairing",
    "eval_simple_type": "pairing",
    "render_xpoly": "algebra",
    "verify_all": "verify",
}

__getattr__ = _lazy_names(globals(), _LAZY)

#: what the demos import and the README names; the rest lives in the submodules
__all__ = [
    "BlowupSeriesSet",
    "GenerationError",
    "InsufficientMomentsError",
    "MomentFunctional",
    "SeriesError",
    "TSeries",
    "UnexpectedPoleError",
    "XPoly",
    "build_series_set",
    "eval_even",
    "eval_even_main_prime",
    "eval_odd",
    "eval_simple_type",
    "first_difference",
    "golden_table",
    "render_xpoly",
    "series_set",
    "verify_all",
]
