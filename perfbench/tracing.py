"""Span tracing of the blowup_series layers, installed from outside the package.

The tracer replaces public functions and methods of each module with
wrappers that time every call.  A wrapped call that is not a leaf becomes a
span ``(name, start, end, parent, self)`` kept in memory; ``self`` is the
span's duration minus the time its child calls cover.  The algebra calls
(``XPoly`` products and sums, rational parsing) number in the millions, so
they are leaves: they are counted and their self time summed per name
instead of being stored one by one, and their time still counts as child
time of the span that made them.

Wrappers keep one call stack, so a traced process must run the program on a
single thread while the tracer is installed.  ``write`` stores the spans and
leaf totals as JSON once, when the traced process ends; ``layer_metrics``
turns that file into the per-layer metrics.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
import types

SERIES_OPS = (
    "mul",
    "add",
    "recip",
    "exp",
    "sqrt",
    "integrate",
    "scale_arg",
    "derivative",
    "subst_pm",
    "biseries_mul",
    "first_difference",
    "to_json",
)

#: calls made from ``generate_pair`` that re-check the generated pair
SELF_CHECKS = (
    "blowup.golden_table",
    "series.first_difference",
    "blowup.bb_sides",
    "series.first_difference_uv",
)

#: phases of ``build_series_set``; what they leave uncovered is ``unaccounted``
BUILD_PHASES = (
    "blowup.generate_pair",
    "blowup.derived_products",
    "blowup.exponential_pair",
    "blowup.odd_case_pair",
    "blowup.series_content_hash",
)

#: the identities of the catalog, in catalog order
CATALOG_IDS = (
    "b0_equals_b2",
    "btau_equals_s2",
    "ws0_equals_wronskian",
    "ws1_equals_bs",
    "pm_ode_plus",
    "pm_ode_minus",
    "bb_diagonal",
    "bb",
    "bbb",
    "degeneration_x2_b2",
    "degeneration_x2_s2",
    "degeneration_x2_wronskian",
    "degeneration_x2_bs",
    "degeneration_xneg2_b2",
    "degeneration_xneg2_s2",
    "degeneration_xneg2_wronskian",
    "degeneration_xneg2_bs",
    "relations_coefficients",
)

#: every per-layer metric a traced run reports, with its unit
LAYER_METRICS = (
    (
        ("algebra.xpoly_mul_calls", "count"),
        ("algebra.xpoly_mul_ms", "ms"),
        ("algebra.scalar_products", "count"),
        ("algebra.xpoly_add_calls", "count"),
        ("algebra.xpoly_add_ms", "ms"),
        ("algebra.parse_rational_calls", "count"),
        ("algebra.parse_rational_ms", "ms"),
    )
    + tuple((f"series.{op}_{kind}", unit) for op in SERIES_OPS for kind, unit in (("calls", "count"), ("ms", "ms")))
    + (
        ("blowup.build_series_set_ms", "ms"),
        ("blowup.recurrence_ms", "ms"),
        ("blowup.self_checks_ms", "ms"),
        ("blowup.derived_products_ms", "ms"),
        ("blowup.exponential_pair_ms", "ms"),
        ("blowup.odd_case_pair_ms", "ms"),
        ("blowup.content_hash_ms", "ms"),
        ("blowup.unaccounted_ms", "ms"),
        ("blowup.max_coeff_bits", "bits"),
        ("blowup.max_x_degree", "degree"),
        ("verify.run_catalog_ms", "ms"),
    )
    + tuple((f"verify.{cid}_ms", "ms") for cid in CATALOG_IDS)
    + (
        ("verify.reported_share", "ratio"),
        ("verify.run_catalog_jobs2_ms", "ms"),
        ("verify.passed", "count"),
        ("verify.attempted", "count"),
        ("pairing.eval_even_ms", "ms"),
        ("pairing.eval_even_main_prime_ms", "ms"),
        ("pairing.eval_odd_ms", "ms"),
        ("pairing.pair_calls", "count"),
        ("pairing.pair_ms", "ms"),
        ("pairing.moment_from_json_ms", "ms"),
        ("pairing.series_set_hit_ratio", "ratio"),
        ("cli.main_ms", "ms"),
        ("cli.main_self_ms", "ms"),
        ("cli.usage_errors", "count"),
        ("trace.overhead_ratio", "ratio"),
    )
)


class Tracer:
    """Wraps program callables; ``install`` and ``uninstall`` swap them in and out."""

    def __init__(self):
        self.spans: list = []
        self.leaves: dict = {}
        #: the last (args, kwargs, result) of each span named in ``keep``
        self.kept: dict = {}
        self._child = [0.0]  # child time of each open call; the root sentinel stays
        self._open = [-1]  # span index of each open span; -1 is the root
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, keep=False):
        spans, child, open_, kept = self.spans, self._child, self._open, self.kept
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            child.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                open_.pop()
                child[-1] += end - start
                spans[index] = (name, start, end, parent, end - start - covered)
            if keep:
                kept[name] = (args, kwargs, result)
            return result

        return wrapper

    def _leaf(self, name, fn, work=None):
        totals = self.leaves.setdefault(name, [0, 0.0, 0])
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = child.pop()
                child[-1] += elapsed
                totals[0] += 1
                totals[1] += elapsed - covered
                if work is not None:
                    totals[2] += work(args)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original, wrapper))
        _set(owner, attr, wrapper)

    def _patch_function(self, fn, wrapper):
        """Replace ``fn`` under its own name in every package module that binds it."""
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "blowup_series" and getattr(module, fn.__name__, None) is fn:
                self._patch(module, fn.__name__, wrapper)

    def _trace_functions(self, layer, functions, keep=()):
        for fn in functions:
            self._patch_function(fn, self._span(f"{layer}.{fn.__name__}", fn, fn.__name__ in keep))

    def install(self) -> None:
        """Wrap every traced callable of the imported package."""
        if self._patches:
            for owner, attr, _, wrapper in self._patches:
                _set(owner, attr, wrapper)
            return
        from blowup_series import algebra, blowup, cli, pairing, series, verify

        xpoly, tseries, biseries = algebra.XPoly, series.TSeries, series.BiSeries

        def products(args):
            a, b = args
            return len(a.coeffs) * len(b.coeffs) if isinstance(b, xpoly) else 0

        mul = self._leaf("algebra.xpoly_mul", xpoly.__mul__, products)
        add = self._leaf("algebra.xpoly_add", xpoly.__add__)
        for attr, wrapper in (("__mul__", mul), ("__rmul__", mul), ("__add__", add), ("__radd__", add)):
            self._patch(xpoly, attr, wrapper)
        parse = algebra.parse_rational
        self._patch_function(parse, self._leaf("algebra.parse_rational", parse))

        for owner, attr, op in (
            (tseries, "__mul__", "mul"),
            (tseries, "__rmul__", "mul"),
            (tseries, "__add__", "add"),
            (biseries, "__mul__", "biseries_mul"),
            (biseries, "__rmul__", "biseries_mul"),
        ) + tuple(
            (tseries, op, op)
            for op in ("recip", "exp", "sqrt", "integrate", "scale_arg", "derivative", "subst_pm", "to_json")
        ):
            self._patch(owner, attr, self._span(f"series.{op}", vars(owner)[attr]))
        self._trace_functions("series", (series.first_difference, series.first_difference_uv))

        self._trace_functions(
            "blowup",
            (
                blowup.build_series_set,
                blowup.generate_pair,
                blowup.assemble_set,
                blowup.derived_products,
                blowup.exponential_pair,
                blowup.odd_case_pair,
                blowup.series_content_hash,
                blowup.bb_sides,
                blowup.golden_table,
                blowup.series_set,
            ),
            keep=("build_series_set",),
        )

        self._trace_functions("verify", (verify.run_catalog,), keep=("run_catalog",))
        for descriptor in verify.CATALOG:
            self._patch(descriptor, "run", self._span(f"verify.{descriptor.id}", descriptor.run))

        self._trace_functions(
            "pairing", (pairing.eval_even, pairing.eval_even_main_prime, pairing.eval_odd, pairing.pair)
        )
        moment = pairing.MomentFunctional
        from_json = vars(moment)["from_json"].__func__
        self._patch(moment, "from_json", classmethod(self._span("pairing.moment_from_json", from_json)))

        self._trace_functions("cli", (cli.main,))

    def uninstall(self) -> None:
        """Put the original callables back; what was recorded stays."""
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)

    def write(self, path, exit_codes, reports=(), jobs2_ms=0.0, jobs2_match=None) -> None:
        """Write the trace as one JSON file; call it once, after ``uninstall``.

        Besides the spans and leaf totals it holds the exit codes of the traced
        ``cli.main`` calls, the catalog reports and the ``jobs=2`` probe, if
        any, the size of the last series set built, and the counts of
        ``series_set.cache_info()``.
        """
        from blowup_series import blowup

        built = self.kept.get("blowup.build_series_set")
        info = blowup.series_set.cache_info()
        payload = {
            "spans": self.spans,
            "leaves": self.leaves,
            "exit_codes": list(exit_codes),
            "reports": list(reports),
            "jobs2_ms": jobs2_ms,
            "jobs2_match": jobs2_match,
            "size": size_stats(built[2]) if built else {"max_coeff_bits": 0, "max_x_degree": 0},
            "cache": [info.hits, info.misses],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _set(owner, attr, value) -> None:
    if isinstance(owner, (type, types.ModuleType)):
        setattr(owner, attr, value)
    else:
        # catalog entries are frozen dataclasses
        object.__setattr__(owner, attr, value)


def size_stats(series_set) -> dict:
    """Largest bit length and x-degree over the n!-normalised coefficients of a set."""
    bits = degree = 0
    for field in dataclasses.fields(series_set):
        value = getattr(series_set, field.name)
        if not hasattr(value, "terms"):
            continue
        for n, _ in value.terms():
            poly = value.coeff(n, normalized=True)
            degree = max(degree, poly.degree)
            for c in poly.coeffs:
                bits = max(bits, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return {"max_coeff_bits": bits, "max_x_degree": degree}


def layer_metrics(trace: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from a trace file written by :meth:`Tracer.write`.

    Times are in ms.  ``algebra``, ``series``, ``pairing`` and ``cli.main_self``
    are self times.  ``blowup`` phases, catalog entries, ``run_catalog`` and
    ``cli.main`` are whole span durations: a phase lasts from its start to its
    end.  ``recurrence`` is the ``generate_pair`` span minus its self-check
    children, and ``unaccounted`` is what the build phases leave of
    ``build_series_set``.
    """
    spans = trace["spans"]
    total: dict = {}
    own: dict = {}
    calls: dict = {}
    for name, start, end, _, self_time in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1

    def ms(table, name):
        return table.get(name, 0.0) * 1000.0

    m: dict = {}
    for key in ("xpoly_mul", "xpoly_add", "parse_rational"):
        n, seconds, work = trace["leaves"].get(f"algebra.{key}", (0, 0.0, 0))
        m[f"algebra.{key}_calls"] = n
        m[f"algebra.{key}_ms"] = seconds * 1000.0
        if key == "xpoly_mul":
            m["algebra.scalar_products"] = work
    for op in SERIES_OPS:
        m[f"series.{op}_calls"] = calls.get(f"series.{op}", 0)
        m[f"series.{op}_ms"] = ms(own, f"series.{op}")

    checks = 0.0
    for name, start, end, parent, _ in spans:
        if name in SELF_CHECKS and parent >= 0 and spans[parent][0] == "blowup.generate_pair":
            checks += end - start
    build = total.get("blowup.build_series_set", 0.0)
    m["blowup.build_series_set_ms"] = build * 1000.0
    m["blowup.recurrence_ms"] = ms(total, "blowup.generate_pair") - checks * 1000.0
    m["blowup.self_checks_ms"] = checks * 1000.0
    m["blowup.derived_products_ms"] = ms(total, "blowup.derived_products")
    m["blowup.exponential_pair_ms"] = ms(total, "blowup.exponential_pair")
    m["blowup.odd_case_pair_ms"] = ms(total, "blowup.odd_case_pair")
    m["blowup.content_hash_ms"] = ms(total, "blowup.series_content_hash")
    m["blowup.unaccounted_ms"] = (build - sum(total.get(p, 0.0) for p in BUILD_PHASES)) * 1000.0
    m["blowup.max_coeff_bits"] = trace["size"]["max_coeff_bits"]
    m["blowup.max_x_degree"] = trace["size"]["max_x_degree"]

    catalog = ms(total, "verify.run_catalog")
    m["verify.run_catalog_ms"] = catalog
    for cid in CATALOG_IDS:
        m[f"verify.{cid}_ms"] = ms(total, f"verify.{cid}")
    reports = trace["reports"]
    m["verify.reported_share"] = sum(r["ms"] for r in reports) / catalog if catalog else 0.0
    m["verify.run_catalog_jobs2_ms"] = trace["jobs2_ms"]
    m["verify.passed"] = sum(1 for r in reports if r["pass"])
    m["verify.attempted"] = len(reports)

    for key in ("eval_even", "eval_even_main_prime", "eval_odd", "pair", "moment_from_json"):
        m[f"pairing.{key}_ms"] = ms(own, f"pairing.{key}")
    m["pairing.pair_calls"] = calls.get("pairing.pair", 0)
    hits, misses = trace["cache"]
    m["pairing.series_set_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    m["cli.main_ms"] = ms(total, "cli.main")
    m["cli.main_self_ms"] = ms(own, "cli.main")
    m["cli.usage_errors"] = sum(1 for code in trace["exit_codes"] if code == 2)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
