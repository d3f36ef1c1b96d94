"""Run one ``blowup-series`` command, or the set-up alone, under the speed probe.

    python3 perfbench/probedcli.py PROBE_JSON CLI_ARG...
    python3 perfbench/probedcli.py PROBE_JSON --setup

``src`` must be on ``PYTHONPATH``.  The process pins itself to one core and
installs the probe of ``speed.py`` before it imports the package; then it
runs the command as ``python -m blowup_series.cli`` would (or, with
``--setup``, imports the package and loads the golden table), and writes
the probe's tallies to PROBE_JSON.  The exit code is the command's.
"""
from __future__ import annotations

import json
import sys

import speed


def main(probe_path: str, argv: list) -> int:
    speed.pin_to_one_core()
    probe = speed.Probe()
    probe.install()
    import blowup_series
    from blowup_series import cli

    if argv == ["--setup"]:
        blowup_series.golden_table()
        code = 0
    else:
        code = cli.main(argv)
    sys.stdout.flush()
    probe.uninstall()
    with open(probe_path, "w") as out:
        json.dump(probe.to_json(), out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
