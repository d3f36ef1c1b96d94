"""The eval-sweep workload: seeded ``eval`` requests and their references.

The benchmark process calls :func:`make_batch` to write one batch of request
files from the seed, with the result each request must produce.  A worker
process (``python3 perfbench/evalsweep.py MANIFEST RESULT MODE SECONDS``, with
``src`` on ``PYTHONPATH``) imports the package, loads the golden table and
answers the first request at each order, which builds and caches that
order's series; then it prints ``ready`` with the speed probe's tallies so
far.  That is the set-up.  After it the worker runs the batch again and again
through ``cli.main`` for SECONDS (mode ``bench``), exits (mode ``setup``), or
runs three untraced and three traced batches in turn (mode ``trace``).  It
writes what it measured to RESULT, and the outputs of the last batch next to
the request files.  In modes ``setup`` and ``bench`` the worker runs under
the speed probe of ``speed.py``, and reports each batch and each request in
reference seconds, scaled by the chunks that ran during that batch; mode
``trace`` runs no probe.

References never come from the code under test.  A request whose moments
are geometric with ratio 2 must equal its closed simple-type form, computed
here with ``fractions``.  Every other request must equal the pairing of its
moments with the series B^2, S^2, BS' - B'S and BS that were generated at
the seed and pinned, with their sha256, in ``data/seed_series_40.json``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed

ORDERS = (2, 4, 12, 20, 28, 40)
FORMULAS = ("maina", "main-prime", "mainb")
#: per (order, formula) one request with moments of each size
MOMENT_BITS = (8, 64, 256)
#: the moment size of the request on geometric moments, per formula
GEOMETRIC_BITS = dict(zip(FORMULAS, MOMENT_BITS))
#: orders below this fail at the seed ("generation needs order >= 4")
KNOWN_DEFECT_BELOW = 4

PINNED = Path(__file__).resolve().parent / "data" / "seed_series_40.json"
PINNED_SHA256 = "43e280694bdd2027b49b86f03b7d52a9022afc1016542a4bd5bd2b2bc50f3a8f"


# ---------------------------------------------------------------------------
# references


def pinned_series() -> dict:
    """Plain coefficients c[n][k] of x^k t^n for B2, S2, WRONSKIAN and BS through t^40."""
    raw = PINNED.read_bytes()
    if hashlib.sha256(raw).hexdigest() != PINNED_SHA256:
        raise RuntimeError(f"{PINNED} does not match its pinned sha256")
    series = {}
    for name, entry in json.loads(raw).items():
        rows = [[] for _ in range(entry["order"] + 1)]
        for i, poly in enumerate(entry["coeffs"]):
            n = entry["valuation"] + i
            rows[n] = [Fraction(c) / math.factorial(n) for c in poly]
        series[name] = rows
    return series


def _pair(rows, moments, order) -> list:
    return [sum((c * moments[k] for k, c in enumerate(rows[n])), Fraction(0)) for n in range(order + 1)]


def _mul(a, b, order) -> list:
    return [sum((a[i] * b[n - i] for i in range(n + 1)), Fraction(0)) for n in range(order + 1)]


def closed_form(formula: str, a: Fraction, second: Fraction, order: int) -> list:
    """e^{-t^2}(a cosh^2 t + b sinh^2 t) for the even formulas, e^{-t^2}(a + d sinh(2t)/2) for mainb."""
    envelope = [Fraction(0)] * (order + 1)
    for k in range(order // 2 + 1):
        envelope[2 * k] = Fraction((-1) ** k, math.factorial(k))
    inner = [Fraction(0)] * (order + 1)
    inner[0] = a
    for n in range(1, order + 1):
        half_double = Fraction(2 ** (n - 1), math.factorial(n))  # of cosh 2t or sinh 2t
        if formula == "mainb":
            inner[n] = second * half_double if n % 2 else Fraction(0)
        elif n % 2 == 0:
            inner[n] = (a + second) * half_double  # cosh^2 = (1 + cosh 2t)/2, sinh^2 = (cosh 2t - 1)/2
    return _mul(envelope, inner, order)


def expected_result(request: dict, pinned: dict) -> list:
    """The coefficients of t^0..t^order that a request must produce, from the pinned series."""
    order, formula, f = request["order"], request["formula"], request["moments"]
    if formula == "mainb":
        first, second, scale = _pair(pinned["WRONSKIAN"], f["mu_c"], order), _pair(pinned["BS"], f["nu_c"], order), 1
    else:
        other = "mu_ctau" if formula == "maina" else "nu_c"
        first, second = _pair(pinned["B2"], f["mu_c"], order), _pair(pinned["S2"], f[other], order)
        scale = 1 if formula == "maina" else Fraction(1, 2)
    return [x + y * scale for x, y in zip(first, second)]


# ---------------------------------------------------------------------------
# the batch


def _rational(rng: random.Random, bits: int) -> Fraction:
    numerator = rng.getrandbits(bits) * rng.choice((1, -1))
    return Fraction(numerator, rng.getrandbits(bits) + 1)


def make_batch(seed: int, workdir: Path) -> list:
    """Write one batch of request files; return each with its expected result.

    Every batch holds the same mix, so that its cost hardly depends on the
    seed: each order and formula once with moments of each size, one of the
    three on geometric moments.  So the share of order-2 requests, which
    fail at the seed, is exactly 1/6.  The seed draws the moments and the
    order of the requests.
    """
    rng = random.Random(seed)
    pinned = pinned_series()
    batch = []
    for order in ORDERS:
        for formula in FORMULAS:
            for bits in MOMENT_BITS:
                geometric = bits == GEOMETRIC_BITS[formula]
                batch.append(_make_request(rng, pinned, workdir, len(batch), order, formula, bits, geometric))
    rng.shuffle(batch)
    return batch


def _make_request(rng, pinned, workdir, index, order, formula, bits, geometric) -> dict:
    length = order + 1
    names = ("mu_c", "mu_ctau") if formula == "maina" else ("mu_c", "nu_c")
    if geometric:
        a, second = _rational(rng, bits), _rational(rng, bits)
        # main-prime takes tau-inserted moments nu = 2 mu_{c+tau}
        factors = (a, 2 * second if formula == "main-prime" else second)
        moments = {n: [s * 2**k for k in range(length)] for n, s in zip(names, factors)}
        expected = closed_form(formula, a, second, order)
    else:
        moments = {n: [_rational(rng, bits) for _ in range(length)] for n in names}
        expected = None
    # the first functional is inline, the second a path relative to the request file
    payloads = [{"label": f"{n}_{index}", "moments": [str(m) for m in moments[n]]} for n in names]
    second_file = f"moments_{index}.json"
    (workdir / second_file).write_text(json.dumps(payloads[1]))
    functionals = {names[0]: payloads[0], names[1]: second_file}
    parity = "odd" if formula == "mainb" else "even"
    path = workdir / f"request_{index}.json"
    path.write_text(json.dumps({"parity": parity, "order": order, "formula": formula, "functionals": functionals}))
    request = {
        "path": str(path),
        "out": str(workdir / f"result_{index}.json"),
        "order": order,
        "formula": formula,
        "moments": moments,
    }
    request["expected"] = expected if expected is not None else expected_result(request, pinned)
    return request


def output_matches(request: dict) -> bool:
    """Does the request's output file hold exactly its expected series?"""
    try:
        data = json.loads(Path(request["out"]).read_text())
        if (data["variable"], data["normalization"], data["order"], data["provenance"]) != (
            "t",
            "plain",
            request["order"],
            request["formula"],
        ):
            return False
        got = [Fraction(0)] * (request["order"] + 1)
        for i, poly in enumerate(data["coeffs"]):
            if len(poly) > 1:
                return False
            got[data["valuation"] + i] = Fraction(poly[0]) if poly else Fraction(0)
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return False
    return got == request["expected"]


# ---------------------------------------------------------------------------
# the worker


def _run_batch(cli, batch, latencies, codes, probe) -> "tuple[float, list, int, float]":
    """Answer every request once.

    Return the batch's wall time and the outputs, and the number of speed
    probe chunks that ran in the batch and their time.  The wall time and
    the latencies appended to ``latencies`` leave the chunks' time out.  The
    CLI prints each result to stdout, which is captured in memory, so that
    the timing holds no file-system writes.
    """
    outputs = []
    captured = io.StringIO()
    chunks0, chunk_s0 = probe.mark()
    with contextlib.redirect_stdout(captured):
        start = time.perf_counter()
        for request in batch:
            before = probe.chunk_s
            t0 = time.perf_counter()
            code = cli.main(["eval", request["path"]])
            latencies.append(time.perf_counter() - t0 - (probe.chunk_s - before))
            codes.append(code)
            outputs.append(captured.tell())
        wall = time.perf_counter() - start
    chunks, chunk_s = probe.chunks - chunks0, probe.chunk_s - chunk_s0
    text = captured.getvalue()
    return wall - chunk_s, [text[a:b] for a, b in zip([0] + outputs, outputs)], chunks, chunk_s


def _save(batch, outputs) -> None:
    for request, text in zip(batch, outputs):
        Path(request["out"]).write_text(text)


def worker(manifest: str, result_path: str, mode: str, seconds: float) -> None:
    batch = json.loads(Path(manifest).read_text())
    speed.pin_to_one_core()
    probe = speed.Probe()
    if mode != "trace":
        probe.install()
    with contextlib.redirect_stderr(io.StringIO()):
        from blowup_series import blowup, cli

        if mode == "trace":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        blowup.golden_table()
        warm_codes = []
        for order in sorted({r["order"] for r in batch}):
            _run_batch(cli, [next(r for r in batch if r["order"] == order)], [], warm_codes, probe)
        print("ready", *probe.mark(), flush=True)
        if mode == "setup":
            return

        result = {"walls": [], "plain_walls": [], "latencies": [], "codes": [], "unstable_batches": 0}
        if mode == "trace":
            untraced, traced = [], []
            for _ in range(3):
                tracer.uninstall()
                untraced.append(_run_batch(cli, batch, [], [], probe)[0])
                tracer.install()
                wall, outputs, _, _ = _run_batch(cli, batch, [], result["codes"], probe)
                traced.append(wall)
            tracer.uninstall()
            tracer.write(Path(result_path).with_suffix(".trace.json"), warm_codes + result["codes"])
            result["overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        else:
            first = None
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                latencies = []
                wall, outputs, chunks, chunk_s = _run_batch(cli, batch, latencies, result["codes"], probe)
                # each batch in reference seconds, by the chunks that ran in it
                scale = speed.scale(chunks, chunk_s)
                result["walls"].append(wall * scale)
                result["plain_walls"].append(wall + chunk_s)
                result["latencies"].extend(x * scale for x in latencies)
                first = first or outputs
                result["unstable_batches"] += outputs != first
            probe.uninstall()
        _save(batch, outputs)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    worker(sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]))
