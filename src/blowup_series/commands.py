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
import os
import sys
from pathlib import Path
from stat import S_ISREG
from types import SimpleNamespace

from . import blowup
from .cli import EXIT_FAIL, EXIT_OK, MAX_ORDER, _check_order, _emit, _UsageError, _write


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
        _write("stderr", f"verify: {note}\n")
    failed = [r.identity for r in reports if not r.passed]
    if failed:
        _write("stderr", f"verify: FAILED: {', '.join(failed)}\n")
        return EXIT_FAIL
    _write("stderr", f"verify: all {len(reports)} identities pass through their reported orders\n")
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
        _write("stderr", f"table: {len(diffs)} coefficient slots differ from the golden table\n")
        return EXIT_FAIL
    _write("stderr", "table: exact match with the golden table\n")
    return EXIT_OK


def _load_json(path: Path):
    # a device or FIFO would be read without bound, or block for a writer; one
    # descriptor serves the check and the read, so the check reads the file
    # that was opened, and O_NONBLOCK keeps a FIFO from blocking the open
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    except OSError:
        # a socket cannot be opened, nor may every device: refused all the same
        if not S_ISREG(os.stat(path).st_mode):
            raise ValueError(f"{path}: not a regular file") from None
        raise
    try:
        info = os.fstat(fd)
        if not S_ISREG(info.st_mode):
            raise ValueError(f"{path}: not a regular file")
        data = os.read(fd, info.st_size + 1)
        # one read, unless the file grew after the fstat or gives no size (/proc)
        while len(data) > info.st_size and (more := os.read(fd, 1 << 16)):
            data += more
    finally:
        os.close(fd)
    text = data.decode("utf-8")
    if "\r" in text:  # a text read's newlines, so a JSON error names the same line and column
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _eval_text(data: dict) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)`` of an eval result's JSON.
    No string in it needs escaping: a coefficient holds only ``-``, digits and ``/``."""
    rows = ",\n".join(f'    [\n      "{c[0]}"\n    ]' if c else "    []" for c in data["coeffs"])
    coeffs = f"[\n{rows}\n  ]" if rows else "[]"
    return (
        f'{{\n  "coeffs": {coeffs},\n  "normalization": "plain",\n  "order": {data["order"]},\n'
        f'  "provenance": "{data["provenance"]}",\n  "valuation": {data["valuation"]},\n  "variable": "t"\n}}'
    )


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
    except ZeroDivisionError as exc:  # parse_pair on a moment such as "1/0"
        raise _UsageError(f"a moment has a zero denominator: {exc}") from None
    try:
        text = _eval_text(result.to_json())
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
