#!/usr/bin/env python3
"""kvgeom benchmark runner.

Usage (from the repository root):

    python3 bench/run.py --workload {cache,sweep,dim} --seed N --seconds S --trace {0,1}

A closed loop with one client: the runner launches one fresh worker process
per kvgeom CLI command, cycling through the workload's commands one after
another for S seconds (whole commands; the first cycle always completes). The worker times `import kvgeom.cli` and
`kvgeom.cli.main(argv)` and reports its own peak RSS; the runner checks every
output with its own numpy code and records the output's sha256.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced cycles and prints the per-layer metrics: the traced cycles' spans
and the untraced cycles' time per command.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output passed
its check, 1 when one did not, and 2 when the benchmark refuses to run.
"""

from __future__ import annotations

import os

# The runner's own numpy needs no BLAS threads; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "cycle_s": ("s", "lower"),
}
MIN_CPUS = 2
COMMAND_TIMEOUT_S = 60
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "KVM_SEED"}


def provenance() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3": l3.read_text().strip() if l3.exists() else "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")),
    }


class Run:
    """One benchmark run: a work directory, the seed and the generated inputs."""

    def __init__(self, workload: str, seed: int, scale: str | None = None):
        self.workload = workload
        self.seed = seed
        self.size = scale or "full"  # "small" shrinks every command (self-test)
        self.work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        start = time.perf_counter()
        self.inputs = workloads.make_inputs(self.work, seed, workload, self.size)
        self.inputs_s = time.perf_counter() - start
        self.checked = {}  # kind -> sha256 of the outputs that passed their check
        self.retention = None  # needle retention of the checked dilution report

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def command(self, kind: str, traced: bool, cycle: int) -> dict:
        """Run one kind in a fresh worker and check its outputs."""
        size = self.size
        outdir = self.work / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir()
        argv, outs = workloads.command(kind, size, self.seed, self.inputs, outdir)
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
               str(BENCH / "worker.py"), str(result_path), "1" if traced else "0", "--", *argv]
        err_path = self.work / "stderr.txt"
        with open(err_path, "w", encoding="utf-8") as err:
            try:
                code = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=COMMAND_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = f"timeout after {COMMAND_TIMEOUT_S} s"
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        sample = {"kind": kind, "size": size, "traced": traced, "cycle": cycle, "errors": []}
        if code != 0:
            tail = [line for line in stderr.splitlines() if not line.startswith("import time:")]
            sample["errors"].append(f"{kind}: worker exit {code}: {' | '.join(tail[-3:])}")
            return sample
        result = json.loads(result_path.read_text(encoding="utf-8"))
        sample.update({k: result[k] for k in ("setup_s", "wall_s", "peak_rss_mb")})
        if result["rc"] != 0:
            sample["errors"].append(f"{kind}: kvgeom exit {result['rc']}: {stderr.strip()[-300:]}")
            return sample
        sample["sha256"] = {name: workloads.sha256(p) for name, p in outs.items() if p.exists()}
        # Outputs of one kind are byte-identical within a run, so only an
        # output that differs from the last checked one is checked again.
        if self.checked.get(kind) != sample["sha256"]:
            inp = self.inputs[workloads.FAMILY[kind]]
            try:
                errors = workloads.CHECKS[kind](argv, outs, inp, self.seed)
                if kind == "dilution":
                    self.retention = workloads.needle_retention(outs["csv"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                errors = [f"{kind}: output unreadable: {type(exc).__name__}: {exc}"]
            sample["errors"] += errors
            self.checked[kind] = None if errors else sample["sha256"]
        if kind == "dilution" and not sample["errors"]:
            sample["needle_retention"] = self.retention
        shutil.rmtree(outdir)
        if traced:
            span_list = [tuple(s) for s in result["spans"]]
            sample["errors"] += spans.check_spans(span_list)
            missing = spans.reached(span_list, kind)
            if missing:
                sample["errors"].append(f"{kind}: trace wrappers never reached: {missing}")
            sample["parts"] = {**spans.command_parts(span_list), **spans.import_times(stderr)}
            sample["spans"] = span_list
            sample["installed"] = result["installed"]
        return sample

    def measure(self, seconds: float, trace: bool) -> list:
        """Cycle through the workload's commands for `seconds`, always finishing
        the first cycle. With `trace`, run pairs of an untraced and a traced
        cycle, starting a pair only while the last one fits.

        One warm-up command comes first, inside the `seconds`: it is checked
        but not timed, because the first command after input generation runs
        slow."""
        own = workloads.WORKLOADS[self.workload]
        start = time.monotonic()
        samples = [{**self.command(own[0], False, -1), "warmup": True}]
        if trace:
            cycle, pair_s = 0, 0.0
            while cycle == 0 or time.monotonic() - start + pair_s <= seconds:
                began = time.monotonic()
                for traced in (False, True):
                    samples += [self.command(kind, traced, cycle) for kind in own]
                    cycle += 1
                pair_s = time.monotonic() - began
            return samples
        i = 0
        while i < len(own) or time.monotonic() - start < seconds:
            cycle, pos = divmod(i, len(own))
            samples.append(self.command(own[pos], False, cycle))
            i += 1
        return samples


def tail_percentile(values: list) -> tuple | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if (1 - p / 100) * len(ordered) >= 10:
            return p, ordered[min(len(ordered) - 1, int(p / 100 * len(ordered)))]
    return None


def command_times(samples: list, traced: bool = False) -> dict:
    """kind -> main() times of the run's commands of that kind."""
    walls = defaultdict(list)
    for s in samples:
        if "wall_s" in s and s["traced"] == traced and not s.get("warmup"):
            walls[s["kind"]].append(s["wall_s"])
    return walls


def end_to_end(samples: list) -> tuple[dict, dict]:
    """(metrics, sample lists) over the run's commands.

    cycle_s is the time of one pass over the workload's commands: the sum
    over its command kinds of each kind's median time.
    """
    timed = [s for s in samples if "wall_s" in s and not s.get("warmup")]
    series = {"setup_s": [s["setup_s"] for s in timed],
              "peak_rss_mb": [s["peak_rss_mb"] for s in timed]}
    metrics = {"peak_rss_mb": max(series["peak_rss_mb"], default=None),
               "setup_s": statistics.median(series["setup_s"]) if timed else None}
    walls = command_times(samples)
    kinds = {s["kind"] for s in samples}
    if walls and set(walls) == kinds:
        metrics["cycle_s"] = sum(statistics.median(w) for w in walls.values())
        series.update({f"{kind}_s": w for kind, w in walls.items()})
    return {k: v for k, v in metrics.items() if v is not None}, series


def per_layer(samples: list) -> dict:
    """Per-layer metrics: per traced cycle, summed over its commands; median over cycles."""
    cycles = defaultdict(lambda: defaultdict(float))
    for s in samples:
        if s["traced"] and "parts" in s:
            for key, value in s["parts"].items():
                cycles[s["cycle"]][key] += value
    finished = [spans.finish(parts) for parts in cycles.values()]
    metrics = {name: statistics.median(c[name] for c in finished)
               for name in spans.PER_LAYER if finished and name in finished[0]}
    plain, traced = command_times(samples), command_times(samples, traced=True)
    kinds = {s["kind"] for s in samples}
    if finished and set(plain) == set(traced) == kinds:
        metrics["trace.overhead_s"] = sum(statistics.median(traced[k]) - statistics.median(plain[k])
                                          for k in kinds)
        # Kinds another workload runs read 0, as do layers a workload never reaches.
        for kind in workloads.KINDS:
            metrics[f"command.{kind}_s"] = statistics.median(plain[kind]) if kind in kinds else 0.0
    retention = [s["needle_retention"] for s in samples if "needle_retention" in s]
    if finished:
        metrics["experiments.needle_retention"] = statistics.median(retention) if retention else 0.0
    return metrics


def report(run: Run, prov: dict, samples: list, trace: bool) -> dict:
    """Print the human-readable summary and return the result object."""
    failed = sum(1 for s in samples if s["errors"])
    print(f"kvgeom benchmark: workload={run.workload} seed={run.seed} trace={int(trace)}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"inputs generated in {run.inputs_s:.3f} s (not timed)")
    if trace:
        table = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
        metrics, series = per_layer(samples), {}
    else:
        table = {name: unit for name, (unit, _) in END_TO_END.items()}
        metrics, series = end_to_end(samples)
    # The per-command times that make up cycle_s are printed after the metrics.
    shown = {**metrics, **{k: statistics.median(v) for k, v in series.items() if k not in table}}
    for name in [*table, *(k for k in shown if k not in table)]:
        if name not in shown:
            print(f"  {name:32s} missing")
            continue
        values = series.get(name, [])
        stat = "max" if name == "peak_rss_mb" else "median"
        extra = f"  ({stat} of n={len(values)}" if values else ""
        tail = tail_percentile(values) if values else None
        if values:
            extra += f", p{tail[0]:g}={tail[1]:.6g})" if tail else ")"
        print(f"  {name:32s} {shown[name]:.6g} {table.get(name, 's')}{extra}")
    print(f"  {'error_rate':32s} {failed / len(samples):.6g} failed/attempted "
          f"({failed} of {len(samples)} commands)")
    for s in samples:
        for error in s["errors"][:3]:
            print(f"  FAILED {s['kind']} ({s['size']}, cycle {s['cycle']}): {error}")
    correct = failed == 0 and set(metrics) == set(table)
    return {"correct": correct, "attempted": len(samples), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": table[name]}
                        for name in table if name in metrics}}


def save_record(run: Run, prov: dict, samples: list, result: dict, trace: bool) -> None:
    records = ROOT / ".bench_work"
    stem = f"{run.workload}-seed{run.seed}-trace{int(trace)}"
    slim = [{k: v for k, v in s.items() if k != "spans"} for s in samples]
    with open(records / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "inputs_s": run.inputs_s, "samples": slim,
                   "result": result}, fh, indent=1)
    if trace:
        with open(records / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([{"kind": s["kind"], "cycle": s["cycle"], "spans": s["spans"]}
                       for s in samples if "spans" in s], fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "kvgeom" / "cli.py").is_file():
        print(f"refusing to run: no kvgeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpus = len(os.sched_getaffinity(0))
    if cpus < MIN_CPUS:
        print(f"refusing to run: {cpus} CPU(s) available, the sweeps need {MIN_CPUS}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prov = provenance()
    run = Run(args.workload, args.seed)
    try:
        samples = run.measure(args.seconds, bool(args.trace))
    finally:
        run.close()
    result = report(run, prov, samples, bool(args.trace))
    save_record(run, prov, samples, result, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
