"""Run one ``blowup-series`` command under the layer tracer, in this process.

    python3 perfbench/tracedcli.py TRACE_JSON CLI_ARG...

``src`` must be on ``PYTHONPATH``.  The command's output goes where the CLI
sends it; the trace goes to TRACE_JSON when the command has finished.  After
a ``verify`` command the catalog runs once more with ``jobs=2`` on the same
series set, untraced, and the trace records its wall time and whether its
reports equal the traced ones apart from ``ms``.  The exit code is the
command's.
"""
from __future__ import annotations

import sys
import time

from tracing import Tracer


def reports_without_ms(reports) -> list:
    return [{k: v for k, v in r.to_json().items() if k != "ms"} for r in reports]


def main(trace_path: str, argv: list) -> int:
    from blowup_series import cli, verify

    tracer = Tracer()
    tracer.install()
    code = cli.main(argv)
    tracer.uninstall()

    catalog = tracer.kept.get("verify.run_catalog")
    if catalog is None:
        tracer.write(trace_path, [code])
        return code
    args, kwargs, reports = catalog
    start = time.perf_counter()
    again = verify.run_catalog(*args, **{**kwargs, "jobs": 2})
    jobs2_ms = (time.perf_counter() - start) * 1000.0
    tracer.write(
        trace_path,
        [code],
        reports=[r.to_json() for r in reports],
        jobs2_ms=jobs2_ms,
        jobs2_match=reports_without_ms(again) == reports_without_ms(reports),
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
