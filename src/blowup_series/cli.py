"""Command-line front end: generate, verify, table, eval, bench.

Exit codes: 0 success / all identities pass, 1 a verification failed,
2 usage or input error, or an output (a file, stdout or stderr) that cannot
be written, 3 internal generation failure.  Data goes to stdout (or
``--output``); diagnostics go to stderr.

Every command is a fresh process, which compiles what it imports when no
bytecode cache is written.  This module holds the option table, the parser
and the ``gen`` handler, whose table and LaTeX text :mod:`.algebra` renders.
:func:`main` imports :mod:`.commands` only to run ``eval``, and the catalog
:mod:`.verify`, where the other handlers live, only to run one of them.  So
``gen`` loads no other handler, catalog or pairing; ``eval`` loads no
catalog, and ``verify``, ``table`` and ``bench`` load no pairing and no
``eval`` handler.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

from .blowup import GenerationError, series_set

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

#: the selectors whose series, in a set built at order N, reach only t^(N-1):
#: ws0 solves its ODE from S' - B, known one order less than the pair
_GUARDED = frozenset({"WS0"})

#: largest order any command builds.  The full set grows about as order^4.7
#: (0.67 s at order 129 and 17.4 s at 257, single runs on a 2-core Intel Xeon
#: host with Python 3.11.7), so order 512 would take about seven minutes; the
#: checked pair alone, all that ``gen --series B|S`` builds, takes 0.10 s at
#: order 129 and 1.6 s at 257 there
MAX_ORDER = 256

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GENERATION = 3


class _UsageError(Exception):
    """Bad arguments or input, or an output that cannot be written: ``main`` prints one line and exits 2."""


def _write(name: str, text: str) -> None:
    """Write ``text`` to the standard stream ``name``, ``"stdout"`` or ``"stderr"``, and flush it.

    A stream that is missing or fails (a closed pipe, a full disk) raises
    the usage error "cannot write NAME", once its descriptor points at the
    null device, so that the flush at interpreter shutdown cannot fail again.
    """
    stream = getattr(sys, name)
    if stream is None:  # its descriptor was closed when the interpreter started
        raise _UsageError(f"cannot write {name}: it is closed")
    try:
        stream.write(text)
        stream.flush()
    except (OSError, ValueError) as exc:  # ValueError: a closed file
        try:
            fd = stream.fileno()
        except (AttributeError, OSError, ValueError):  # a stream without a descriptor
            fd = None
        if fd is not None:
            import os

            devnull = os.open(os.devnull, os.O_WRONLY)
            try:
                os.dup2(devnull, fd)
            finally:
                os.close(devnull)
        raise _UsageError(f"cannot write {name}: {getattr(exc, 'strerror', None) or exc}") from None


def _report(line: str, code: int) -> int:
    """Print the diagnostic ``line`` on stderr, if stderr takes it, and return ``code``."""
    try:
        _write("stderr", line + "\n")
    except _UsageError:
        pass
    return code


def _emit(text: str, output: "Path | None") -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output is None:
        _write("stdout", text)
        return
    try:
        output.write_text(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _UsageError(f"cannot write {output}: {getattr(exc, 'strerror', None) or exc}") from None


def _check_order(order: int, least: int, reason: str = "") -> None:
    """Refuse an order below ``least`` or above :data:`MAX_ORDER`."""
    if order < least:
        raise _UsageError(f"--order must be >= {least}{reason}")
    if order > MAX_ORDER:
        raise _UsageError(f"--order must be <= {MAX_ORDER}")


def _cmd_gen(args: SimpleNamespace) -> int:
    _check_order(args.order, 0)
    # the recurrence needs at least order 4; a series that falls one order
    # short of its set needs one guard order more to reach the requested order
    internal = max(args.order, 4) + (args.series in _GUARDED)
    series = getattr(series_set(internal), SELECTORS[args.series]).truncate(args.order)

    if args.format == "json":
        _emit(json.dumps(series.to_json(args.normalization), indent=2, sort_keys=True), args.output)
        return EXIT_OK
    from .algebra import render_series

    _emit(render_series(series, args.series, args.normalization, args.format == "latex"), args.output)
    return EXIT_OK


_OUTPUT = {"--output": (Path, None)}

#: per command: the name of its handler, its help line and its arguments.
#: ``_cmd_gen`` is here, ``_cmd_eval`` in :mod:`.commands`, the others in
#: :mod:`.verify`.  ``--name`` is an option and a bare name the positional
#: argument.  Each has a type, a converter or a tuple of choices (``list``
#: collects a repeated option's values in order), and a default, ``...``
#: where the argument is required
_COMMANDS = {
    "gen": ("_cmd_gen", "generate one series and print it", {
        "--series": (tuple(sorted(SELECTORS)), ...), "--order": (int, 28),
        "--format": (("json", "latex", "table"), "table"),
        "--normalization": (("plain", "factorial"), "factorial"), **_OUTPUT}),
    "verify": ("_cmd_verify", "run the identity catalog, one JSON report per line", {
        "--order": (int, 28), "--bivariate-order": (int, 16),
        "--identity": (list, None), **_OUTPUT}),
    "table": ("_cmd_table", "regenerate and diff against the golden table", {"--order": (int, 28), **_OUTPUT}),
    "eval": ("_cmd_eval", "evaluate moment data through the pairing formulas", {"request": (Path, ...), **_OUTPUT}),
    "bench": ("_cmd_bench", "time generation and every catalog identity", {
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
        return _report(str(exc), EXIT_USAGE)
    if isinstance(args, str):  # -h or --help
        try:
            _write("stdout", args + "\n")
        except _UsageError as exc:
            return _report(f"blowup-series: {exc}", EXIT_USAGE)
        return EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "eval":
            from . import commands as handlers
        else:
            from . import verify as handlers  # the catalog commands' handlers, beside the catalog
        return getattr(handlers, _COMMANDS[args.command][0])(args)
    except GenerationError as exc:
        return _report(f"{args.command}: generation failed: {exc}", EXIT_GENERATION)
    except _UsageError as exc:
        return _report(f"{args.command}: {exc}", EXIT_USAGE)


if __name__ == "__main__":  # pragma: no cover
    # under ``python -m`` this module runs as ``__main__``: register it under its
    # own name too, so that a handler imports this run, not a second copy
    # whose ``_UsageError`` ``main`` would not catch
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
