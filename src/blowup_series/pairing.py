"""Pairing universal series against moment data of a linear functional.

An invariant evaluated on powers of the point class x is modelled as a
finite moment sequence mu_0, mu_1, ...; pairing extends the functional
linearly to series coefficients, sending sum_k c_k x^k to sum_k c_k mu_k
per t-power.  The evaluation formulas then combine paired series, each
declared once as a row of ``_FORMULAS`` or ``_SIMPLE_TYPES``:

* even case    pair(B^2, mu_c) + pair(S^2, mu_{c+tau})
* even variant pair(B^2, mu_c) + pair(S^2, nu_c) / 2, where nu are the
  tau-inserted moments; with nu = 2 mu_{c+tau} it equals the even case
* odd case     pair(BS' - B'S, mu_c) + pair(BS, nu_c)
* simple type  closed hyperbolic forms, equal to the moment route on
  geometric moments mu_k = a * 2^k

Pairing reads the kernel entries n! [t^n] of a series and the moments as
the integer pairs (p_k, q_k) their literals spell (``MomentFunctional.pairs``:
no ``Fraction`` per moment, and no gcd to reduce a pair).  It puts them on
prefix common denominators, one chain per x-parity r: over the moments
mu_k with k = r (mod 2), L^r_j = lcm(q_r, q_{r+2}, .., q_{r+2j}) with
numerators P^r_j = p_{r+2j} L^r_j / q_{r+2j}.  Each x-parity part
x^r c(x^2) of an entry (:func:`~blowup_series.hurwitz.parts`) pairs to one
integer Horner sum over its own chain; an entry with both parts adds them,
and each entry is left an unreduced pair of ints.  The two functionals'
pairs (a, da) and (b, db) of entry n are added and divided by n! as
(a db + b da) / (da db n!), all on ints, and one gcd reduces that
coefficient: the only gcd it takes.  :func:`pair`, the ``eval_*`` formulas and the
simple type share this pass.

Under [FS]'s parity rule, B(it; -x) = B(t; x) and S(it; -x) = i S(t; x),
entry n of B^2, S^2, the Wronskian and BS holds only the x^k with
n + 2k = 0, 2, 0, 1 (mod 4): no entry mixes parities, so each reads every
other moment, and its denominator holds only those moments' denominators,
about half the bits of one chain over all moments.  The parts of those four
series are split once per cached set (:func:`_set_split`).

There is one universal pair, so an evaluation formula takes only its two
functionals and the order, and reads the cached generated set
``series_set(build_order(order))``, in which the Wronskian reaches the order.

Tau-inserted data is always caller-supplied: real invariant data has to
satisfy relations this module can check for consistency but deliberately
does not enforce.

The module closes with the ``eval`` handler and ``_load_json``, the one reader
of a file a user names.  The handler imports :mod:`.cli` only when it runs, so
a library user of the formulas loads no front end.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter
from stat import S_ISREG
from typing import TYPE_CHECKING, Mapping, Sequence

from .blowup import MAX_ORDER, build_order, series_set
from .derived import degeneration_form
from .hurwitz import Poly, clean, divided, parts
from .series import ReadOnly, TSeries, as_fraction, parse_pair

if TYPE_CHECKING:
    from pathlib import Path
    from types import SimpleNamespace
    from .algebra import RationalLike

#: the pairing formulas, by provenance: the public function that evaluates
#: it, its parity, the (series, request field) of each of its two
#: functionals, and whether the second pairing is halved.  ``eval`` serves
#: every row; a request without a ``formula`` gets the first of its parity
_FORMULAS = {
    "maina": ("eval_even", "even", ("b2", "mu_c"), ("s2", "mu_ctau"), False),
    "main-prime": ("eval_even_main_prime", "even", ("b2", "mu_c"), ("s2", "nu_c"), True),
    "mainb": ("eval_odd", "odd", ("wronskian", "mu_c"), ("bs", "nu_c"), False),
}

#: the closed simple-type forms, by provenance: parity, and per form the
#: series it degenerates and the argument of :func:`eval_simple_type` that weights it
_SIMPLE_TYPES = {
    "corollary-even": ("even", ("b2", "a"), ("s2", "b")),
    "corollary-odd": ("odd", ("wronskian", "a"), ("bs", "d")),
}


class InsufficientMomentsError(ValueError):
    """A pairing needed more moments than the functional supplies."""

    def __init__(self, label: str, supplied: int, required: int):
        super().__init__(
            f"functional {label!r} supplies {supplied} moments but the series "
            f"reaches x-degree {required - 1}; at least {required} moments are required"
        )
        self.required = required


class MomentFunctional(ReadOnly):
    """A linear form known through its values on x-powers.

    ``pairs[k]`` is the value on x^k as a ``(numerator, denominator)`` pair of
    ints, the denominator positive: the literal's own pair, not reduced, for a
    functional read by :meth:`from_json`, and the reduced pair for one made
    from values.  ``moments[k]`` is the same value as a reduced
    :class:`Fraction`, formed from ``pairs`` when ``moments`` is first read.
    A functional is read-only through :class:`ReadOnly`.  Two functionals are
    equal, and hash alike, when their ``(label, moments)`` are equal.
    """

    label: str
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, label: str, moments: Sequence[RationalLike]):
        if isinstance(moments, str):
            raise TypeError(f"moments must be a sequence of scalars, not the string {moments!r}")
        pairs = tuple((m.numerator, m.denominator) for m in map(as_fraction, moments))
        self.__dict__.update(label=label, pairs=pairs)

    @cached_property
    def moments(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, q) for p, q in self.pairs)

    def __eq__(self, other: object) -> bool:
        if type(other) is not MomentFunctional:
            return NotImplemented
        return (self.label, self.moments) == (other.label, other.moments)

    def __hash__(self) -> int:
        return hash((self.label, self.moments))

    def scaled(self, factor: RationalLike) -> "MomentFunctional":
        f = as_fraction(factor)
        return MomentFunctional(self.label, tuple(m * f for m in self.moments))

    @classmethod
    def zero(cls, label: str, length: int) -> "MomentFunctional":
        return cls(label, (Fraction(0),) * length)

    @classmethod
    def geometric(
        cls, label: str, scale: RationalLike, ratio: RationalLike, length: int
    ) -> "MomentFunctional":
        """mu_k = scale * ratio^k; pairing against it is substitution x -> ratio."""
        scale, ratio = as_fraction(scale), as_fraction(ratio)
        return cls(label, tuple(scale * ratio**k for k in range(length)))

    def to_json(self) -> dict:
        return {"label": self.label, "moments": [str(m) for m in self.moments]}

    @classmethod
    def from_json(cls, data: Mapping) -> "MomentFunctional":
        label = data.get("label")
        if not isinstance(label, str):
            raise ValueError("moment JSON needs a string 'label'")
        moments = data.get("moments")
        if not isinstance(moments, list):
            raise ValueError("moment JSON needs a 'moments' array of rational strings")
        # every literal is validated here, also those a formula never reads
        functional = object.__new__(cls)
        functional.__dict__.update(label=label, pairs=tuple(map(parse_pair, moments)))
        return functional


def _split(h: Sequence[Poly]) -> tuple:
    """Each entry of ``h`` as ``(length, parts)``: its x-degree plus one, and
    its :func:`~blowup_series.hurwitz.parts` by x-parity, as tuples."""
    return tuple((len(p), tuple(parts(p))) for p in h)


@lru_cache(maxsize=4 * series_set.cache_parameters()["maxsize"])
def _set_split(order: int, name: str) -> tuple:
    """The :func:`_split` of series ``name`` of ``series_set(order)``, formed
    once: the four series ``eval`` reads, for as many sets as are cached."""
    return _split(getattr(series_set(order), name).h)


def _chain(pairs: Sequence[tuple[int, int]], scale: int) -> tuple[list, list, list]:
    """The prefix common denominators of the moments ``pairs``: ``steps[j]`` =
    L_j / L_{j-1}, ``numerators[j]`` = P_j and ``dens[j + 1]`` = scale L_j."""
    lcm, steps, numerators, dens = 1, [], [], [scale]
    for p, q in pairs:
        step = q // gcd(lcm, q)
        lcm *= step
        steps.append(step)
        numerators.append(p * (lcm // q))
        dens.append(lcm * scale)
    return steps, numerators, dens


def _sums(h: Sequence[Poly], mu: MomentFunctional, order: int, scale: int = 1) -> list:
    """Kernel entries, n = 0..order, of the vector ``h`` paired with ``mu`` and
    divided by ``scale``, as ``(numerator, denominator)`` pairs of ints with a
    positive denominator, not reduced."""
    return _split_sums(_split(h[: order + 1]), mu, scale)


def _split_sums(entries: Sequence, mu: MomentFunctional, scale: int) -> list:
    """:func:`_sums` of the :func:`_split` entries.  A short functional is
    named with the length its first uncovered entry needs."""
    pairs = mu.pairs
    supplied, top = len(pairs), max(map(itemgetter(0), entries), default=0)
    if top > supplied:
        raise InsufficientMomentsError(mu.label, supplied, next(n for n, _ in entries if n > supplied))
    # one chain per x-parity r, over the moments mu_k with k = r (mod 2)
    chains = _chain(pairs[0:top:2], scale), _chain(pairs[1:top:2], scale)
    values = []
    for _, split in entries:
        num, d = 0, 1
        for r, c in split:
            steps, numerators, dens = chains[r]
            acc, den = 0, dens[len(c)]
            for step, v, numerator in zip(steps, c, numerators):
                if step != 1:
                    acc *= step
                if v:
                    acc += v * numerator
            if type(acc) is not int:  # a part with Fraction coefficients
                acc, den = acc.numerator, den * acc.denominator
            num, d = num * den + acc * d, d * den
        values.append((num, d))
    return values


def _plain(first: list, second: list) -> tuple:
    """The reduced pairs ``(first[n] + second[n]) / n!`` of two lists of
    unreduced pairs, each reduced by one gcd."""
    out, factorial = [], 1
    for n, ((na, da), (nb, db)) in enumerate(zip(first, second)):
        if n:
            factorial *= n
        num, den = na * db + nb * da, da * db * factorial
        g = gcd(num, den)
        out.append((num // g, den // g))
    return tuple(out)


def pair(f: TSeries, mu: MomentFunctional) -> TSeries:
    """Apply a moment functional to every coefficient of a series.

    The output has x-free coefficients and the same truncation order.
    """
    entries = [clean(divided([num], den)) for num, den in _sums(f.h, mu, f.order)]
    return TSeries.from_kernel(entries, f.order)


class EvalResult(ReadOnly):
    """An evaluated invariant series plus which formula produced it.

    ``coeffs[n]`` is the plain coefficient of t^n, n = 0..order, as a reduced
    ``(numerator, denominator)`` pair of ints; :attr:`series` builds the
    series from them when read.  Read-only through :class:`ReadOnly`.
    """

    def __init__(self, coeffs: "tuple[tuple[int, int], ...]", provenance: str):
        self.__dict__.update(coeffs=coeffs, provenance=provenance)

    @property
    def series(self) -> TSeries:
        return TSeries(0, [Fraction(*c) for c in self.coeffs], len(self.coeffs) - 1)

    def to_json(self) -> dict:
        """The plain series JSON of :meth:`TSeries.to_json` plus ``provenance``."""
        coeffs = self.coeffs
        valuation = next((n for n, (num, _) in enumerate(coeffs) if num), len(coeffs))
        texts = [[str(n) if d == 1 else f"{n}/{d}"] if n else [] for n, d in coeffs[valuation:]]
        data = {"variable": "t", "valuation": valuation, "order": len(coeffs) - 1, "normalization": "plain"}
        return {**data, "coeffs": texts, "provenance": self.provenance}


def _evaluate(function: str, first: MomentFunctional, second: MomentFunctional, order: int) -> EvalResult:
    """The formula that ``function`` evaluates: pair(its first series, ``first``)
    + pair(its second series, ``second``), the second halved where its row
    says; the first functional is checked first."""
    provenance, (_, _, (f, _), (g, _), half) = next((p, row) for p, row in _FORMULAS.items() if row[0] == function)
    n = build_order(order)
    a = _split_sums(_set_split(n, f)[: order + 1], first, 1)
    b = _split_sums(_set_split(n, g)[: order + 1], second, 2 if half else 1)
    return EvalResult(_plain(a, b), provenance)


def eval_even(mu_c: MomentFunctional, mu_ctau: MomentFunctional, order: int) -> EvalResult:
    """Even pairing case: pair(B^2, mu_c) + pair(S^2, mu_{c+tau})."""
    return _evaluate("eval_even", mu_c, mu_ctau, order)


def eval_even_main_prime(mu_c: MomentFunctional, nu_c: MomentFunctional, order: int) -> EvalResult:
    """Even-case variant over tau-inserted moments: pair(B^2, mu) + pair(S^2, nu)/2."""
    return _evaluate("eval_even_main_prime", mu_c, nu_c, order)


def eval_odd(mu_c: MomentFunctional, nu_c: MomentFunctional, order: int) -> EvalResult:
    """Odd pairing case: pair(BS' - B'S, mu_c) + pair(BS, nu_c)."""
    return _evaluate("eval_odd", mu_c, nu_c, order)


def eval_simple_type(a: RationalLike, b: RationalLike, d: RationalLike, parity: str, order: int) -> EvalResult:
    """Closed simple-type forms.

    even: exp(-t^2) (a cosh^2 t + b sinh^2 t); odd: exp(-t^2) (a + d sinh(2t)/2).
    Equals the moment-based route on geometric moments with ratio 2.
    """
    weights = {"a": as_fraction(a), "b": as_fraction(b), "d": as_fraction(d)}
    # a scan, not a lookup: ``parity`` may be any value, one that cannot be hashed too
    found = next(((p, row) for p, row in _SIMPLE_TYPES.items() if row[0] == parity), None)
    if found is None:
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    provenance, (_, *terms) = found
    # entry n of u exp(-t^2) f_1 + v exp(-t^2) f_2 is u e_n + v e'_n: each form's
    # integer kernel vector paired with the one moment u or v
    halves = [
        _sums(degeneration_form(2, name, order).h, MomentFunctional(name, (weights[w],)), order) for name, w in terms
    ]
    return EvalResult(_plain(*halves), provenance)


# ---------------------------------------------------------------------------
# the handler of ``eval`` and its reader of user files, beside the formulas


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
    from .cli import EXIT_OK, _emit, _UsageError

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
        rows = [(p, row) for p, row in _FORMULAS.items() if row[1] == parity]
        formula = request.get("formula", rows[0][0])
        # a scan, not a lookup: a formula may be any JSON value, a list too
        row = next((row for p, row in rows if p == formula), None)
        if row is None:
            raise ValueError(f"unknown formula {formula!r} for parity {parity!r}")

        def need(field: str) -> MomentFunctional:
            if field not in functionals:
                raise ValueError(f"{parity} parity ({formula}) requires functional {field!r}")
            value = functionals[field]
            if isinstance(value, str):
                value = _load_json(base / value)
            if isinstance(value, dict):
                return MomentFunctional.from_json(value)
            raise ValueError(f"functional {field!r} must be a moment object or a path to one")

        # by its module name when it runs: the benchmark's tracer rebinds that name
        function, _, (_, first), (_, second), _ = row
        result = globals()[function](need(first), need(second), order)
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
