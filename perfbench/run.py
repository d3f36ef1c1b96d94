"""Benchmark of the blowup-series engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it runs the program from ``src``
and installs nothing.  Workloads (``BENCHMARK.json`` says why each exists):

* ``gen-64``     fresh processes of ``blowup-series gen --series B --order 64
  --format json``, one after another;
* ``verify-48``  fresh processes of ``blowup-series verify --order 48
  --bivariate-order 24``;
* ``eval-sweep`` one process answering a seeded batch of ``eval`` request
  files through ``cli.main`` again and again (see ``evalsweep.py``).

A single client runs a closed loop: the next operation starts when the last
one has ended.  Every output is checked against a reference that does not
come from the code under test.  With ``--trace 0`` the run prints the
end-to-end metrics; every time among them is in reference seconds, measured
under the speed probe of ``speed.py``, which takes out how fast the shared
host lets a core run at the time.  With ``--trace 1`` it runs the workload
once untraced and once under the layer tracer (``tracing.py``) and prints
the per-layer metrics, in plain wall time.  The last line of stdout is one
JSON object; the lines before it give each metric by name with its unit.
"""
from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

import evalsweep
import speed
from tracing import CATALOG_IDS, LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
GOLDEN = SRC / "blowup_series" / "data" / "golden_table.json"
DEADLINE_S = 170.0

GEN_ARGS = ["gen", "--series", "B", "--order", "64", "--format", "json"]
VERIFY_ARGS = ["verify", "--order", "48", "--bivariate-order", "24"]
#: sha256 of the gen-64 output, and of the verify-48 report lines without "ms", at the seed
GEN_SHA256 = "15e576a932c960aae52966dc057f74cf3a69f62c5d7fd4c2df595564f6d71847"
VERIFY_SHA256 = "e3c58e63834e1626ada238f9d0dc7edacfd0f9d36c41ed2a49c1227383df6c83"
SETUP_SAMPLES = 9
EVAL_SETUP_SAMPLES = 3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
)


class Run:
    """State of one benchmark run: its deadline, scratch directory and tallies."""

    def __init__(self, seconds: float, workdir: Path):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures other than the known order < 4 defect
        self.children: list = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def record(self, ok: bool, what: str, known_defect: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_defect:
                self.unexpected.append(what)
        return ok

    def spawn(self, argv, stdout=subprocess.DEVNULL) -> subprocess.Popen:
        stderr = open(self.workdir / "stderr.txt", "ab")
        try:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
        finally:
            stderr.close()
        self.children.append(proc)
        return proc

    def finish(self, proc: subprocess.Popen) -> "tuple[int, int]":
        """Wait for a child, killing it at the deadline; return (exit code, peak RSS in KB)."""
        watchdog = threading.Timer(max(self.remaining(), 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.children.remove(proc)
        if proc.stdout:
            proc.stdout.close()
        if self.remaining() <= 0:
            raise TimeoutError("the run passed its deadline")
        return proc.returncode, usage.ru_maxrss

    def stop_children(self) -> None:
        for proc in self.children:
            proc.kill()
            proc.wait()
        self.children.clear()

    def timed(self, argv, stdout_path: "Path | None" = None) -> "tuple[int, float, int]":
        """Run a child to its end; return (exit code, seconds, peak RSS in KB)."""
        with open(stdout_path, "wb") if stdout_path else open(os.devnull, "wb") as out:
            start = time.perf_counter()
            code, rss = self.finish(self.spawn(argv, out))
            return code, time.perf_counter() - start, rss


# ---------------------------------------------------------------------------
# output checks


def golden_terms(entry: dict, through: int) -> dict:
    """Nonzero factorial-normalised coefficients {(n, k): value} through t^through."""
    terms = {}
    for i, poly in enumerate(entry["coeffs"]):
        n = entry["valuation"] + i
        for k, c in enumerate(poly):
            if n <= through and Fraction(c):
                terms[(n, k)] = Fraction(c)
    return terms


def gen_ok(output: bytes) -> bool:
    """The whole output matches the seed digest and t^0..t^16 match the golden table."""
    if hashlib.sha256(output).hexdigest() != GEN_SHA256:
        return False
    data = json.loads(output)
    golden = json.loads(GOLDEN.read_text())["B"]
    return data["normalization"] == "factorial" and golden_terms(data, 16) == golden_terms(golden, 16)


def verify_ok(output: bytes) -> bool:
    """All 18 reports pass and, without ``ms``, match the seed digest."""
    reports = [json.loads(line) for line in output.decode().splitlines()]
    canonical = "\n".join(json.dumps({k: v for k, v in r.items() if k != "ms"}, sort_keys=True) for r in reports)
    return (
        [r["identity"] for r in reports] == list(CATALOG_IDS)
        and all(r["pass"] for r in reports)
        and hashlib.sha256(canonical.encode()).hexdigest() == VERIFY_SHA256
    )


# ---------------------------------------------------------------------------
# workloads


def latency_metrics(good_s: list, all_s: list, total_s: float) -> dict:
    """Latency percentiles of the successful requests (of all, if none succeeded) and goodput."""
    ms = [x * 1000.0 for x in good_s or all_s]
    p99 = statistics.quantiles(ms, n=100, method="inclusive")[98] if len(ms) > 1 else ms[0]
    return {
        "request_p50_ms": statistics.median(ms),
        "request_p99_ms": p99,
        "requests_per_s": len(good_s) / total_s,
    }


def probed(run: Run, args: list, stdout_path: "Path | None" = None) -> "tuple[int, float, float, int]":
    """Run ``probedcli.py`` with ``args`` to its end.

    Return its exit code, its time in reference seconds and in plain
    seconds, and its peak RSS in KB.
    """
    probe_file = run.workdir / "probe.json"
    probe_file.unlink(missing_ok=True)
    code, seconds, rss = run.timed([sys.executable, str(HERE / "probedcli.py"), str(probe_file), *args], stdout_path)
    tally = json.loads(probe_file.read_text()) if probe_file.exists() else None
    if tally is None:
        # the child died before writing its tally; count it, time it unscaled
        return code, seconds, seconds, rss
    return code, speed.reference_seconds(seconds, tally["chunks"], tally["chunk_s"]), seconds, rss


def cli_operation(run: Run, args: list, check) -> "tuple[bool, float, float, int]":
    """One fresh-process CLI command under the speed probe, checked.

    Return whether it succeeded, its reference and plain seconds and its peak RSS in KB.
    """
    out = run.workdir / "stdout.bin"
    code, ref_seconds, seconds, rss = probed(run, args, out)
    ok = code == 0 and check(out.read_bytes())
    return run.record(ok, f"{args[0]} exited {code}" if code else f"{args[0]} output differs"), ref_seconds, seconds, rss


def checked_operation(run: Run, argv: list, args: list, check) -> float:
    """One fresh-process CLI command without the probe, checked; return its seconds."""
    out = run.workdir / "stdout.bin"
    code, seconds, _ = run.timed(argv, out)
    run.record(code == 0 and check(out.read_bytes()), f"{args[0]} exited {code}" if code else f"{args[0]} output differs")
    return seconds


def cli_workload(run: Run, args: list, check, trace: bool) -> dict:
    if trace:
        untraced = checked_operation(run, [sys.executable, "-m", "blowup_series.cli", *args], args, check)
        trace_file = run.workdir / "trace.json"
        traced = checked_operation(run, [sys.executable, str(HERE / "tracedcli.py"), str(trace_file), *args], args, check)
        data = json.loads(trace_file.read_text())
        if data["jobs2_match"] is False:
            run.record(False, "jobs=2 reports differ from jobs=1 reports")
        return layer_metrics(data, traced / untraced)

    setups = [probed(run, ["--setup"])[1] for _ in range(SETUP_SAMPLES)]
    times, plain, good, rss = [], [], [], []
    while not times or time.perf_counter() - run.start + statistics.median(plain) <= run.seconds:
        ok, ref_seconds, seconds, peak = cli_operation(run, args, check)
        times.append(ref_seconds)
        plain.append(seconds)
        rss.append(peak)
        if ok:
            good.append(ref_seconds)
    return {
        "wall_s": statistics.median(times),
        "plain_wall_s": statistics.median(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss) * 1024 / 1e6,
        "success_ratio": len(good) / len(times),
        **latency_metrics(good, times, sum(times)),
        "samples": len(times),
    }


def eval_setup(run: Run, manifest: Path, result: Path, mode: str) -> "tuple[subprocess.Popen, float]":
    """Start an eval worker; return it and its set-up time, spawn to ``ready``.

    The set-up time is in reference seconds, except in mode ``trace``, which
    runs no speed probe and gives plain seconds.
    """
    argv = [sys.executable, str(HERE / "evalsweep.py"), str(manifest), str(result), mode, str(run.seconds)]
    start = time.perf_counter()
    proc = run.spawn(argv, subprocess.PIPE)
    watchdog = threading.Timer(max(run.remaining(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    words = line.split()
    if len(words) != 3 or words[0] != b"ready":
        run.finish(proc)
        raise RuntimeError(f"the eval worker did not get ready (exit {proc.returncode})")
    chunks, chunk_s = int(words[1]), float(words[2])
    return proc, speed.reference_seconds(seconds, chunks, chunk_s) if chunks else seconds


def check_eval(run: Run, batch: list, codes: list, digests_stable: bool) -> list:
    """Record every request; return the indices (within a batch) that succeeded."""
    matches = [evalsweep.output_matches(r) for r in batch]
    for i, code in enumerate(codes):
        request = batch[i % len(batch)]
        known = request["order"] < evalsweep.KNOWN_DEFECT_BELOW and code == 2
        ok = code == 0 and matches[i % len(batch)] and digests_stable
        what = f"exit {code}" if code else "output differs"
        run.record(ok, f"eval order {request['order']} {request['formula']}: {what}", known)
    return [i for i, code in enumerate(codes) if code == 0 and matches[i % len(batch)]]


def eval_workload(run: Run, seed: int, trace: bool) -> dict:
    batch = evalsweep.make_batch(seed, run.workdir)
    manifest = run.workdir / "manifest.json"
    manifest.write_text(json.dumps([{k: r[k] for k in ("path", "out", "order")} for r in batch]))
    result_path = run.workdir / "result.json"

    if trace:
        proc, _ = eval_setup(run, manifest, result_path, "trace")
        run.finish(proc)
        result = json.loads(result_path.read_text())
        check_eval(run, batch, result["codes"], True)
        data = json.loads(result_path.with_suffix(".trace.json").read_text())
        return layer_metrics(data, result["overhead_ratio"])

    setups = []
    for _ in range(EVAL_SETUP_SAMPLES - 1):
        proc, seconds = eval_setup(run, manifest, result_path, "setup")
        run.finish(proc)
        setups.append(seconds)
    proc, seconds = eval_setup(run, manifest, result_path, "bench")
    setups.append(seconds)
    code, rss = run.finish(proc)
    if code != 0:
        raise RuntimeError(f"the eval worker exited {code}")
    result = json.loads(result_path.read_text())
    good = check_eval(run, batch, result["codes"], result["unstable_batches"] == 0)
    return {
        "wall_s": statistics.median(result["walls"]),
        "plain_wall_s": statistics.median(result["plain_walls"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
        "success_ratio": len(good) / len(result["codes"]),
        **latency_metrics([result["latencies"][i] for i in good], result["latencies"], sum(result["walls"])),
        "samples": len(result["walls"]),
    }


WORKLOADS = {
    "gen-64": lambda run, seed, trace: cli_workload(run, GEN_ARGS, gen_ok, trace),
    "verify-48": lambda run, seed, trace: cli_workload(run, VERIFY_ARGS, verify_ok, trace),
    "eval-sweep": eval_workload,
}


def declared_units(trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run, with units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "blowup_series" / "cli.py").is_file() or not GOLDEN.is_file():
        print(f"run.py: no blowup_series sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2

    units = dict(LAYER_METRICS) if args.trace else dict(END_TO_END)
    if declared_units(bool(args.trace)) != units:
        print("run.py: BENCHMARK.json and this script disagree on the metrics", file=sys.stderr)
        return 2

    # a terminated run still stops its children and removes its directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    run = Run(args.seconds, workdir)
    try:
        values = WORKLOADS[args.workload](run, args.seed, bool(args.trace))
    except (OSError, RuntimeError, TimeoutError, ValueError, KeyError) as exc:
        stderr = workdir / "stderr.txt"
        tail = stderr.read_text(errors="replace")[-2000:] if stderr.exists() else ""
        print(f"run.py: {args.workload} failed: {exc}\n{tail}", file=sys.stderr)
        return 1
    finally:
        run.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)

    for name, unit in units.items():
        print(f"{args.workload}  {name:<34} {values[name]:>14.6g} {unit}")
    print(f"{args.workload}  {'fail_ratio':<34} {run.failed / run.attempted:>14.6g} ratio")
    if "plain_wall_s" in values:
        print(f"{args.workload}  {'wall_s in plain seconds':<34} {values['plain_wall_s']:>14.6g} s")
    if "samples" in values:
        print(f"{args.workload}  {'samples (operations or batches)':<34} {values['samples']:>14d}")
    for what, count in sorted(collections.Counter(run.unexpected).items()):
        print(f"{args.workload}  unexpected failure, {count} times: {what}")
    print(
        json.dumps(
            {
                "correct": not run.unexpected,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
