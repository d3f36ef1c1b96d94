"""The handlers of the ``verify``, ``table``, ``eval`` and ``bench`` commands.

:func:`blowup_series.cli.main` imports this module only when it dispatches
one of them, so a ``gen`` process never compiles it.  Each handler imports
what only it needs: ``eval`` loads the pairing formulas
(:mod:`.pairing`) and no catalog, and ``verify``, ``table`` and ``bench``
load the identity catalog (:mod:`.verify`, with :mod:`.bivariate`) and no
pairing.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import blowup
from .cli import EXIT_FAIL, EXIT_OK, MAX_ORDER, _check_order, _emit, _UsageError


def _cmd_verify(args: SimpleNamespace) -> int:
    _check_order(args.order, 8)
    if args.bivariate_order < 0:
        raise _UsageError("--bivariate-order must be >= 0")
    from .verify import capped_notes, verify_all

    try:
        reports = verify_all(args.order, bivariate_order=args.bivariate_order, identities=args.identity)
    except ValueError as exc:
        raise _UsageError(exc) from None
    text = "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in reports)
    _emit(text, args.output)
    for note in capped_notes(reports, args.order, args.bivariate_order):
        print(f"verify: {note}", file=sys.stderr)
    failed = [r.identity for r in reports if not r.passed]
    if failed:
        print(f"verify: FAILED: {', '.join(failed)}", file=sys.stderr)
        return EXIT_FAIL
    print(f"verify: all {len(reports)} identities pass through their reported orders", file=sys.stderr)
    return EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    _check_order(args.order, 16, " to cover the golden table")
    from .verify import golden_check, golden_diff, golden_table_hash

    # the comparison builds its own derived series from the pair cut at t^17;
    # the report's hash is that of the whole pair
    series = blowup.assemble_set(*blowup.generate_pair(args.order + 1))
    report = golden_check(series)
    lines = [json.dumps({**report.to_json(), "golden_hash": golden_table_hash()}, sort_keys=True)]
    # the report stops at the first difference; list them all only on failure
    diffs = [] if report.passed else golden_diff(series)
    for diff in diffs:
        lines.append(json.dumps(diff.to_json(), sort_keys=True))
    _emit("\n".join(lines), args.output)
    if diffs:
        print(f"table: {len(diffs)} coefficient slots differ from the golden table", file=sys.stderr)
        return EXIT_FAIL
    print("table: exact match with the golden table", file=sys.stderr)
    return EXIT_OK


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _cmd_eval(args: SimpleNamespace) -> int:
    from .pairing import MomentFunctional, eval_even, eval_even_main_prime, eval_odd

    try:
        request = _load_json(args.request)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
        parity = request.get("parity")
        if parity not in ("even", "odd"):
            raise ValueError("request needs parity 'even' or 'odd'")
        order = request.get("order")
        if type(order) is not int or order < 0:
            raise ValueError("request needs a non-negative integer 'order'")
        if order > MAX_ORDER:
            raise ValueError(f"request 'order' must be <= {MAX_ORDER}")
        functionals = request.get("functionals")
        if not isinstance(functionals, dict):
            raise ValueError("request needs a 'functionals' object")
        base = args.request.parent
        formula = request.get("formula", "maina" if parity == "even" else "mainb")

        def need(field: str) -> MomentFunctional:
            if field not in functionals:
                raise ValueError(f"{parity} parity ({formula}) requires functional {field!r}")
            value = functionals[field]
            if isinstance(value, str):
                value = _load_json(base / value)
            if isinstance(value, dict):
                return MomentFunctional.from_json(value)
            raise ValueError(f"functional {field!r} must be a moment object or a path to one")

        if parity == "even" and formula == "maina":
            result = eval_even(need("mu_c"), need("mu_ctau"), order)
        elif parity == "even" and formula == "main-prime":
            result = eval_even_main_prime(need("mu_c"), need("nu_c"), order)
        elif parity == "odd" and formula == "mainb":
            result = eval_odd(need("mu_c"), need("nu_c"), order)
        else:
            raise ValueError(f"unknown formula {formula!r} for parity {parity!r}")
    except (OSError, ValueError) as exc:  # JSON, moment and series errors are ValueErrors
        raise _UsageError(exc) from None
    except ZeroDivisionError as exc:  # parse_rational on a moment such as "1/0"
        raise _UsageError(f"a moment has a zero denominator: {exc}") from None
    try:
        text = json.dumps(result.to_json(), indent=2, sort_keys=True)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise _UsageError(
            "a result coefficient exceeds the limit of "
            f"{sys.get_int_max_str_digits()} digits for integer string conversion"
        ) from None
    _emit(text, args.output)
    return EXIT_OK


def _cmd_bench(args: SimpleNamespace) -> int:
    _check_order(args.order, 4)
    if args.bivariate_order < 0:
        raise _UsageError("--bivariate-order must be >= 0")
    import time

    from .verify import run_catalog

    start = time.perf_counter()
    series = blowup.build_series_set(args.order + 1)
    gen_ms = (time.perf_counter() - start) * 1000.0
    rows = [{"row": "generate", "order": args.order, "ms": gen_ms}]
    reports = run_catalog(series, args.order, bivariate_order=args.bivariate_order)
    for report in reports:
        rows.append({"row": report.identity, "order": report.order, "ms": report.ms})
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows), args.output)
    return EXIT_OK
