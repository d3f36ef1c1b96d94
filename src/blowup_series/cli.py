"""Command-line front end: generate, verify, table, eval, bench.

Exit codes: 0 success / all identities pass, 1 a verification failed,
2 usage or input error, 3 internal generation failure.  Data goes to
stdout (or ``--output``); diagnostics go to stderr.

Every command is a fresh process, so each handler imports what only it
needs: ``gen`` loads neither the identity catalog (:mod:`.verify`) nor the
pairing formulas (:mod:`.pairing`), ``eval`` loads no catalog and
``verify``, ``table`` and ``bench`` load no pairing.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

from . import blowup
from .algebra import render_xpoly
from .blowup import (
    GenerationError,
    build_series_set,
    golden_diff,
    golden_table_hash,
    series_set,
)
from .series import TSeries

SELECTORS = {
    "B": "b",
    "S": "s",
    "B2": "b2",
    "S2": "s2",
    "BS": "bs",
    "WS0": "ws0",
    "WS1": "ws1",
    "BPLUS": "b_plus",
    "BMINUS": "b_minus",
}

#: largest order any command builds.  The full set grows about as order^4.5
#: (0.9 s at order 129 and 21 s at 257 on a 2-core host with Python 3.11), so
#: order 512 would take about eight minutes; the checked pair alone, all that
#: ``gen --series B|S`` builds, takes 0.06 s and 1.0-1.1 s there
MAX_ORDER = 256

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3


class _UsageError(Exception):
    """Bad arguments, input or output path: ``main`` prints one line and exits 2."""


def _emit(text: str, output: "Path | None") -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        output.write_text(text if text.endswith("\n") else text + "\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _UsageError(f"cannot write {output}: {getattr(exc, 'strerror', None) or exc}") from None


def _latex_lines(name: str, series: TSeries, normalization: str) -> list[str]:
    lines = [f"{name}(t) ="]
    first = True
    for n, c in series.terms():
        poly = series.coeff(n, normalized=(normalization == "factorial"))
        body = render_xpoly(poly)
        if n == 0:
            tpart = ""
        elif n == 1:
            tpart = "t"
        elif normalization == "factorial":
            tpart = f"\\frac{{t^{{{n}}}}}{{{n}!}}"
        else:
            tpart = f"t^{{{n}}}"
        if poly == 1 and n >= 1:
            piece = tpart
        elif n == 0 and poly.degree == 0 and not body.startswith("-"):
            piece = body
        else:
            piece = f"({body})" + (f" {tpart}" if tpart else "")
        prefix = "  " if first else "  + "
        lines.append(prefix + piece)
        first = False
    if first:
        lines.append("  0")
    return lines


def _check_order(order: int, least: int, reason: str = "") -> None:
    """Refuse an order below ``least`` or above :data:`MAX_ORDER`."""
    if order < least:
        raise _UsageError(f"--order must be >= {least}{reason}")
    if order > MAX_ORDER:
        raise _UsageError(f"--order must be <= {MAX_ORDER}")


def _cmd_gen(args: SimpleNamespace) -> int:
    _check_order(args.order, 0)
    # the recurrence needs at least order 4, plus one guard order so that
    # derivative-based series still reach the requested order
    internal = max(args.order, 4) + 1
    series = getattr(series_set(internal), SELECTORS[args.series]).truncate(args.order)

    if args.format == "json":
        text = json.dumps(series.to_json(args.normalization), indent=2, sort_keys=True)
    elif args.format == "latex":
        text = "\n".join(_latex_lines(args.series, series, args.normalization))
    else:
        rows = [f"# series {args.series} order {args.order} normalization {args.normalization}"]
        for n, _ in series.terms():
            poly = series.coeff(n, normalized=(args.normalization == "factorial"))
            rows.append(f"{n}\t{render_xpoly(poly)}")
        text = "\n".join(rows)
    _emit(text, args.output)
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
    _check_order(args.order, 8)
    if args.bivariate_order < 0:
        raise _UsageError("--bivariate-order must be >= 0")
    if args.jobs < 1:
        raise _UsageError("--jobs must be >= 1")
    from .verify import capped_notes, verify_all

    try:
        reports = verify_all(
            args.order, args.jobs, bivariate_order=args.bivariate_order, identities=args.identity
        )
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
    from .verify import golden_check

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
    series = build_series_set(args.order + 1)
    gen_ms = (time.perf_counter() - start) * 1000.0
    rows = [{"row": "generate", "order": args.order, "ms": gen_ms}]
    reports = run_catalog(series, args.order, bivariate_order=args.bivariate_order)
    for report in reports:
        rows.append({"row": report.identity, "order": report.order, "ms": report.ms})
    _emit("\n".join(json.dumps(r, sort_keys=True) for r in rows), args.output)
    return EXIT_OK


_OUTPUT = {"--output": (Path, None)}

#: per command: its handler, its help line and its arguments.  ``--name`` is
#: an option and a bare name the positional argument.  Each has a type, a
#: converter or a tuple of choices (``list`` collects a repeated option's
#: values in order), and a default, ``...`` where the argument is required
_COMMANDS = {
    "gen": (_cmd_gen, "generate one series and print it", {
        "--series": (tuple(sorted(SELECTORS)), ...), "--order": (int, 28),
        "--format": (("json", "latex", "table"), "table"),
        "--normalization": (("plain", "factorial"), "factorial"), **_OUTPUT}),
    "verify": (_cmd_verify, "run the identity catalog, one JSON report per line", {
        "--order": (int, 28), "--bivariate-order": (int, 16), "--jobs": (int, 1),
        "--identity": (list, None), **_OUTPUT}),
    "table": (_cmd_table, "regenerate and diff against the golden table", {"--order": (int, 28), **_OUTPUT}),
    "eval": (_cmd_eval, "evaluate moment data through the pairing formulas", {"request": (Path, ...), **_OUTPUT}),
    "bench": (_cmd_bench, "time generation and every catalog identity", {
        "--order": (int, 28), "--bivariate-order": (int, 16), **_OUTPUT}),
}

_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # argparse's "-" tokens that are values; compiled on first use


def _error(message: str, command: str = "") -> _UsageError:
    """The one-line error, in argparse's words, of the program or of ``command``."""
    return _UsageError(f"blowup-series{' ' + command if command else ''}: error: {message}")


def _help(command: str = "") -> str:
    """The usage of the program, or of ``command`` with every argument it takes."""
    if not command:
        rows = [f"  {name:<8}{about}" for name, (_, about, _) in _COMMANDS.items()]
        return "\n".join([f"usage: blowup-series {{{','.join(_COMMANDS)}}} ...", "", *rows])
    _, about, spec = _COMMANDS[command]
    usage = f"usage: blowup-series {command} [OPTION ...]" + "".join(f" {n}" for n in spec if n[0] != "-")
    rows = [usage, "", about]
    for name, (kind, default) in spec.items():
        shown = "{" + ",".join(kind) + "}" if type(kind) is tuple else name.lstrip("-").upper()
        note = "required" if default is ... else "repeatable" if kind is list else default
        rows.append(f"  {name} {shown}" + ("" if note is None else f"  ({note})"))
    return "\n".join(rows)


def _parse(argv: "list[str]") -> "SimpleNamespace | str":
    """``argv`` as a namespace: ``command`` and each argument of that command, or the
    usage text at ``-h``/``--help``.  Raises the :func:`_error` of a malformed line."""
    if not argv:
        raise _error("the following arguments are required: command")
    command, *rest = argv
    if command not in _COMMANDS:
        if command in ("-h", "--help"):
            return _help()
        raise _error(f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    spec, values, extras, tokens = _COMMANDS[command][2], {}, [], iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        name, eq, value = token.partition("=")
        if token[:1] == "-" and name in spec:
            if not eq:
                value = next(tokens, "-")  # past the end: no value
                if value[:1] == "-" and not re.match(_NEGATIVE, value):
                    raise _error(f"argument {name}: expected one argument", command)
        elif token[:1] != "-" or re.match(_NEGATIVE, token):  # the positional argument
            name, value = next((n for n in spec if n[0] != "-" and n not in values), None), token
        if name not in spec:
            extras.append(token)
            continue
        kind = spec[name][0]
        if kind is list:
            value = [*values.get(name, ()), value]
        elif type(kind) is not tuple:
            try:
                value = kind(value)
            except ValueError:
                raise _error(f"argument {name}: invalid {kind.__name__} value: {value!r}", command) from None
        elif value not in kind:
            choices = ", ".join(map(repr, kind))
            raise _error(f"argument {name}: invalid choice: {value!r} (choose from {choices})", command)
        values[name] = value
    missing = [name for name, (_, default) in spec.items() if default is ... and name not in values]
    if missing:
        raise _error(f"the following arguments are required: {', '.join(missing)}", command)
    if extras:
        raise _error(f"unrecognized arguments: {' '.join(extras)}")
    attrs = {name.lstrip("-").replace("-", "_"): values.get(name, default) for name, (_, default) in spec.items()}
    return SimpleNamespace(command=command, **attrs)


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if isinstance(args, str):  # -h or --help
        print(args)
        return EXIT_OK
    try:
        return _COMMANDS[args.command][0](args)
    except GenerationError as exc:
        print(f"{args.command}: generation failed: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    except _UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
