"""Run one kvgeom CLI command in this fresh interpreter and time it from inside.

Usage: python3 bench/worker.py RESULT_JSON TRACE -- KVGEOM_ARGS...

Times `import kvgeom.cli` (set-up) and `kvgeom.cli.main(argv)` (the command),
then reads this process's own peak resident set (VmHWM). With TRACE=1 the
command runs under span-recording wrappers (see spans.py) and the spans are
written to RESULT_JSON with the timings.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mib() -> float:
    # VmHWM is this process's own high-water mark; ru_maxrss can carry the
    # parent's mark across fork and exec.
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import kvgeom.cli
    setup_s = time.perf_counter() - start
    if not Path(kvgeom.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported kvgeom from {kvgeom.cli.__file__}, not from {ROOT / 'src'}")
    result = {"setup_s": setup_s}
    if trace == "1":
        sys.path.insert(0, str(ROOT / "bench"))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        start = time.perf_counter()
        result["rc"] = tracer.run_root(kvgeom.cli.main, argv)
        result["wall_s"] = time.perf_counter() - start
        result["spans"] = tracer.spans
        result["installed"] = tracer.installed
    else:
        start = time.perf_counter()
        result["rc"] = kvgeom.cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = peak_rss_mib()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
