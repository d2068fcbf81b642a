#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of kvgeom).

Usage, from the repository root: python3 bench/selftest.py

Runs in about a minute on 2 CPUs and prints one PASS or FAIL line
per test; the exit code is 1 if any test failed. The file is not named
test_*.py, so the repository's pytest suite does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import numpy as np

import spans
import workloads

SEED = 5


class Failure(Exception):
    pass


def check(condition, message: str) -> None:
    if not condition:
        raise Failure(message)


def _run(workload: str, trace: bool, scale: str | None = "small") -> tuple[dict, str, list]:
    bench = run.Run(workload, SEED, scale=scale)
    try:
        samples = bench.measure(0, trace)
    finally:
        bench.close()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(bench, {"selftest": True}, samples, trace)
    return result, out.getvalue(), samples


def test_benchmark_json() -> None:
    """BENCHMARK.json lists exactly the workloads and metrics the runner prints."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names differ")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END,
          "end_to_end metrics differ from run.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER,
          "per_layer metrics differ from spans.PER_LAYER")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must have the largest bound")


def test_smoke() -> None:
    """Each workload at reduced shape prints every metric with its unit and passes."""
    for workload in workloads.WORKLOADS:
        for trace, table in ((False, run.END_TO_END), (True, spans.PER_LAYER)):
            result, text, _ = _run(workload, trace)
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {result['failed']} failed\n{text}")
            last = json.loads(json.dumps(result))
            check(set(last["metrics"]) == set(table), f"{workload} trace={trace}: metric set")
            for name, (unit, _) in table.items():
                check(last["metrics"][name]["unit"] == unit, f"{name}: unit")
                check(any(line.split()[:1] == [name] and f" {unit}" in line
                          for line in text.splitlines()),
                      f"{workload} trace={trace}: {name} not printed with unit {unit}")


def _corrupt(path: Path) -> None:
    if path.suffix == ".kvt":
        with open(path, "r+b") as fh:  # first payload value of head 0
            fh.seek(workloads.KVT_HEADER.size)
            value = np.frombuffer(fh.read(4), dtype="<f4")
            fh.seek(workloads.KVT_HEADER.size)
            fh.write((value + np.float32(1.0)).astype("<f4").tobytes())
    else:  # drop the last line
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")


def test_corrupted_output_counts_as_failure() -> None:
    """A corrupted output of any command kind fails its check and the run."""
    originals = dict(workloads.CHECKS)

    def corrupting(check_fn):
        def wrapped(argv, outs, inp, seed):
            _corrupt(sorted(outs.values())[0])
            return check_fn(argv, outs, inp, seed)
        return wrapped

    try:
        for kind in workloads.KINDS:
            workloads.CHECKS[kind] = corrupting(originals[kind])
        for workload, kinds in workloads.WORKLOADS.items():
            result, text, samples = _run(workload, False)
            check(not result["correct"], f"{workload}: corrupted run reported correct")
            check(result["failed"] == len(samples) == len(kinds) + 1,  # + the warm-up
                  f"{workload}: {result['failed']} of {len(samples)} corrupted commands "
                  f"counted as failed\n{text}")
    finally:
        workloads.CHECKS.update(originals)


def test_peak_rss_is_the_workers_own() -> None:
    """A worker's VmHWM does not rise while the runner holds a large array."""
    bench = run.Run("dim", SEED, scale="small")
    try:
        before = bench.command("dim", False, 0)["peak_rss_mb"]
        ballast = np.ones(64 * 2**20)  # 512 MiB, touched
        during = bench.command("dim", False, 0)["peak_rss_mb"]
        del ballast
    finally:
        bench.close()
    check(during < before * 1.2 + 16, f"peak {before:.1f} MiB rose to {during:.1f} MiB")


def test_exact_counts_and_thread_spans() -> None:
    """Full-size traced commands reproduce this commit's counts; under
    --jobs 2 every self time is >= 0 and each thread's self times sum to
    its root spans."""
    expected = {
        "compress": {"eviction.topk_calls": 32, "tensor.keytensor_builds": 4},
        "compress_obs": {"eviction.topk_calls": 32, "tensor.keytensor_builds": 6},
        "dilution": {"synth.gen_calls": 20, "scorers.calls": 60, "synth.unique_ratio": 1.0},
        "ablation": {"synth.gen_calls": 25, "scorers.calls": 50, "synth.unique_ratio": 0.2},
    }
    for workload in ("cache", "sweep"):
        bench = run.Run(workload, SEED, scale=None)
        try:
            for kind in workloads.WORKLOADS[workload]:
                if kind not in expected:
                    continue
                sample = bench.command(kind, True, 1)
                check(not sample["errors"], f"{kind}: {sample['errors']}")
                got = spans.finish(sample["parts"])
                for name, value in expected[kind].items():
                    check(got[name] == value, f"{kind}: {name} = {got[name]}, expected {value}")
                check(spans.check_spans(sample["spans"]) == [], f"{kind}: span sums")
                threads = {s[2] for s in sample["spans"]}
                if kind == "dilution":
                    check(len(threads) >= 3, f"dilution spans on {len(threads)} threads")
                    holders = sample["installed"]["kvgeom.scorers.compute_scores"]
                    check({"kvgeom.cli.compute_scores", "kvgeom.experiments.compute_scores"}
                          <= set(holders), f"compute_scores wrapped only on {holders}")
        finally:
            bench.close()


def test_refuses_without_program() -> None:
    """With only BENCHMARK.json and bench/, the benchmark exits non-zero, printing no result."""
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cache", "--seed",
                               "0", "--seconds", "1", "--trace", "0"], cwd=bare,
                              capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "exit code 0 without the program")
    check('"correct"' not in proc.stdout, "printed a result without the program")


def main() -> int:
    tests = [test_benchmark_json, test_refuses_without_program, test_peak_rss_is_the_workers_own,
             test_corrupted_output_counts_as_failure, test_smoke,
             test_exact_counts_and_thread_spans]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except Failure as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
