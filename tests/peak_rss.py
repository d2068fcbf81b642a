"""Run one kvgeom command and fail if this process's peak resident set is over a limit.

    PYTHONPATH=src python tests/peak_rss.py LIMIT_MIB COMMAND ARGS...

A fresh interpreter runs `kvgeom.cli.main([COMMAND, *ARGS])`, then reads its
own peak resident set size (VmHWM in /proc/self/status, so Linux only),
prints it with the command's exit code, and exits non-zero when the command
failed or the peak is over LIMIT_MIB mebibytes. For example:

    PYTHONPATH=src python tests/peak_rss.py 100 dilution --jobs 2 --out d.csv

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: {sys.argv[0]} LIMIT_MIB COMMAND ARGS...")
    limit_mib = float(sys.argv[1])
    argv = sys.argv[2:]
    from kvgeom.cli import main

    code = main(argv)
    hwm_kib = peak_rss_kib()
    print(f"{' '.join(argv)}: exit {code}, VmHWM {hwm_kib / 1024:.1f} MiB (limit {limit_mib:g})")
    sys.exit(code or hwm_kib > limit_mib * 1024)
