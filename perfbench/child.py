"""Run one ``twincal`` CLI subcommand in this process and report on it.

Usage: ``python perfbench/child.py RESULT_JSON TRACE -- <twincal argv>``

This is what ``python -m twincal.cli <argv>`` runs (``twincal.cli.main``),
plus a report written to RESULT_JSON when the subcommand returns: its exit
code, this process's own peak RSS (``VmHWM``, which unlike ``ru_maxrss`` is
not inherited across ``exec`` from the parent), its CPU time, and, with
TRACE=1, the aggregated layer spans of :mod:`spans`.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- <twincal argv>")
    from twincal import cli

    record = {}
    if trace == "1":
        from spans import Tracer

        with Tracer() as tracer:
            with tracer.span("cli.main"):
                rc = cli.main(argv)
        record["trace"] = tracer.summary()
    else:
        rc = cli.main(argv)
    record.update(rc=rc, peak_rss_kb=peak_rss_kb(), cpu_s=time.process_time())
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
