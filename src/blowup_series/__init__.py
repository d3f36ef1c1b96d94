"""Exact-arithmetic engine for the universal blow-up series of spheres of
self-intersection -1 and -2.

Everything is computed over exact rationals: the package generates the
even/odd universal pair (B, S) from its defining bivariate product
identity, builds every derived series (squares, products, Wronskian,
integral-formula series), verifies the catalog of series identities to any
feasible truncation order, and pairs series against user-supplied moment
data of Donaldson-type linear functionals.
"""
from .algebra import XPoly, render_xpoly
from .blowup import (
    BlowupSeriesSet,
    GenerationError,
    UnexpectedPoleError,
    build_series_set,
    golden_table,
    series_set,
)
from .pairing import (
    InsufficientMomentsError,
    MomentFunctional,
    eval_even,
    eval_even_main_prime,
    eval_odd,
    eval_simple_type,
)
from .series import BiSeries, SeriesError, TSeries, first_difference
from .verify import verify_all

__version__ = "1.0.0"

#: what the demos import and the README names; the rest lives in the submodules
__all__ = [
    "BiSeries",
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
