"""Every CLI command at small sizes, as a manifest of exit codes and output hashes.

    PYTHONPATH=src python tests/output_matrix.py > manifest.txt
    python tests/output_matrix.py --compare BASE HEAD DECLARED

The first form writes seeded inputs into a fresh temporary directory, runs
each case of CASES there through `kvgeom.cli.main` (the `kvgeom` that
PYTHONPATH selects), and prints a sorted manifest: per case, its exit code
and the sha256 of its stdout, its stderr and each file it wrote. A case
writes its files under a directory named after it, and every path is
relative to the temporary directory, so two checkouts give the same
manifest wherever they run. A case that raises past `main` (a traceback,
exit 1 on the command line) is recorded with exit 1 and the exception's
last line as its stderr. A case named in PATCHED runs with one module
attribute replaced, for a failure that no input file causes.

The second form compares two manifests. It prints each case whose lines
differ and fails unless those cases are exactly the ones DECLARED lists, one
per line (a commit's `Output-Change:` trailer values).

A manifest written under `taskset -c 0` (one CPU: one worker, and a
one-thread BLAS) must equal one written on all CPUs, with nothing declared
(DECLARED may be /dev/null). The 3001-point cloud and the (2, 3, 700, 16)
slabs are the cases where a report could depend on the CPU count.

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path
from unittest import mock

import numpy as np

SIZES = ["--n", "64", "--d", "8"]
GEN = ["gen", *SIZES, "--out-keys", "{out}/k.kvt", "--out-meta", "{out}/m.json"]
SCORE = ["score", "--input", "in/k.kvt", "--out", "{out}/s.csv"]
COMPRESS = ["compress", "--keys", "in/k.kvt", "--values", "in/v.kvt", "--out-keys", "{out}/k.kvt",
            "--out-values", "{out}/v.kvt", "--out-mask", "{out}/m.json",
            "--out-retained", "{out}/r.json"]
DIM = ["dim-estimate", "--input", "in/cloud.kvt"]
SEPARATION = ["separation", "--k", "2", "--d", "16", "--n-grid", "64,128", "--n-out", "2",
              "--seeds", "0,1", "--out", "{out}/r.csv"]
DILUTION = ["dilution", "--k-grid", "1,4", "--n", "256", "--d", "16", "--seeds", "0,1"]
ABLATION = ["ablation", "--n", "256", "--d", "16", "--k-clusters", "4", "--seeds", "0,1"]
COMPARE = ["compare", "--out", "{out}/c.csv"]
TTEST = ["ttest", "--a", "in/a.csv", "--b", "in/b.csv"]
# 3001 points: not a multiple of 8, and 24 row tiles, the last one ragged
DIM_3001 = ["dim-estimate", "--input", "gen-clusters-3001/c.kvt"]
# cases run on in/slab-{k,v,q}.kvt, six (batch, head) slabs of 700 rows
# (three per worker), in place of in/{k,v,q}.kvt
SLAB_CASES = {
    "score-out-kvt": [*SCORE, "--method", "manifold", "--out-kvt", "{out}/s.kvt"],
    "score-hybrid": [*SCORE, "--method", "hybrid", "--lambda", "0.3"],
    "compress-manifold-proportional": [*COMPRESS, "--rho", "0.25", "--method", "manifold",
                                       "--mode", "proportional"],
    "compress-obs-attention": [*COMPRESS, "--rho", "0.25", "--method", "obs_attention",
                               "--obs-window", "16", "--queries", "in/q.kvt"],
    # queries drawn once and broadcast over the (2, 3) frame
    "compare-drawn-queries": [*COMPARE, "--input", "in/k.kvt", "--methods",
                              "manifold,obs_attention"],
    "compare-params": [*COMPARE, "--input", "in/k.kvt", "--methods",
                       "windowed,hybrid,obs_attention", "--window", "64", "--lambda", "0.3",
                       "--obs-window", "16"],
}
# listed here, not read from kvgeom, so that both sides run the same cases
COMMANDS = ("score", "compress", "gen", "dilution", "ablation", "dim-estimate",
            "collision-demo", "separation", "compare", "ttest")
METHOD_FLAGS = {"windowed": ["--window", "16"], "hybrid": ["--lambda", "0.3"],
                "obs_attention": ["--obs-window", "4", "--queries", "in/q.kvt"]}
METHODS = ("manifold", "windowed", "keydiff", "knorm", "l1", "linf", "hybrid", "normalized",
           "obs_attention")

# name -> argv; "{out}" is the case's own output directory. Cases run in this
# order, so a later case may read an earlier one's files.
CASES = {
    **{f"gen-{kind}": [*GEN, "--kind", kind] for kind in ("radial", "clusters", "collision")},
    "gen-subspace": [*GEN, "--kind", "subspace", "--k", "3"],
    "gen-subspace-strict": [*GEN, "--kind", "subspace", "--k", "3", "--strict-separation"],
    "gen-subspace-k-9": [*GEN, "--kind", "subspace"],
    "gen-clusters-shuffle": [*GEN, "--kind", "clusters", "--shuffle"],
    "gen-from-sidecar": [*GEN, "--from-sidecar", "gen-clusters/m.json"],
    **{f"gen-from-sidecar-{kind}": [*GEN, "--from-sidecar", f"gen-{kind}/m.json"]
       for kind in ("subspace", "radial", "collision")},
    **{f"score-{m}": [*SCORE, "--method", m, *METHOD_FLAGS.get(m, [])] for m in METHODS},
    "score-out-kvt": [*SCORE, "--method", "manifold", "--out-kvt", "{out}/s.kvt"],
    "score-windowed-missing-window": [*SCORE, "--method", "windowed"],
    "score-windowed-zero-window": [*SCORE, "--method", "windowed", "--window", "0"],
    "score-hybrid-missing-lambda": [*SCORE, "--method", "hybrid"],
    "score-hybrid-lambda-2": [*SCORE, "--method", "hybrid", "--lambda", "2"],
    "score-obs-attention-missing-queries": [*SCORE, "--method", "obs_attention"],
    "score-config-lambda": [*SCORE, "--method", "hybrid", "--config", "in/lambda.json"],
    "score-config-bad-window": [*SCORE, "--method", "windowed", "--config", "in/window.json"],
    "compress-manifold-proportional": [*COMPRESS, "--mode", "proportional", "--rho", "0.25"],
    **{f"compress-{m}": [*COMPRESS, "--method", m, *METHOD_FLAGS[m]] for m in METHOD_FLAGS},
    # a window of one token scores every token 0: proportional budgets on no score mass
    "compress-windowed-1-proportional": [*COMPRESS, "--method", "windowed", "--window", "1",
                                         "--mode", "proportional"],
    **{f"dim-estimate-{how}-{fmt}": [*DIM, *flags, "--format", fmt, "--out", f"{{out}}/d.{fmt}"]
       for how, flags in (("heads", []), ("pooled", ["--pooled"])) for fmt in ("csv", "json")},
    "collision-demo": ["collision-demo", "--n", "64"],
    **{f"collision-demo-{fmt}": ["collision-demo", "--n", "64", "--format", fmt,
                                 "--out", f"{{out}}/c.{fmt}"] for fmt in ("csv", "json")},
    "separation-subspace": SEPARATION,
    "separation-radial-windowed": [*SEPARATION, "--kind", "radial", "--method", "windowed",
                                   "--window", "16"],
    "separation-hybrid-json": [*SEPARATION, "--method", "hybrid", "--lambda", "0.3",
                               "--format", "json"],
    "separation-obs-attention-jobs-2": [*SEPARATION, "--method", "obs_attention",
                                        "--obs-window", "4", "--jobs", "2"],
    "separation-windowed-missing-window": [*SEPARATION, "--method", "windowed"],
    "dilution-csv-jobs-2": [*DILUTION, "--jobs", "2", "--out", "{out}/d.csv"],
    "dilution-json": [*DILUTION, "--format", "json", "--out", "{out}/d.json"],
    "ablation-csv": [*ABLATION, "--out", "{out}/a.csv"],
    "ablation-json": [*ABLATION, "--format", "json", "--out", "{out}/a.json"],
    "compare-input-params": [*COMPARE, "--input", "in/k.kvt", "--methods",
                             "windowed,hybrid,obs_attention", "--window", "16", "--lambda", "0.3",
                             "--obs-window", "4"],
    "compare-input-queries": [*COMPARE, "--input", "in/k.kvt", "--methods",
                              "manifold,obs_attention", "--obs-window", "4",
                              "--queries", "in/q.kvt"],
    **{f"compare-sidecar-{fmt}": ["compare", "--sidecar", "gen-clusters/m.json", "--methods",
                                  "manifold,keydiff,knorm", "--rho", "0.5", "--format", fmt,
                                  "--out", f"{{out}}/c.{fmt}"] for fmt in ("csv", "json")},
    "compare-obs-window-over-queries": [*COMPARE, "--input", "in/k.kvt", "--methods",
                                        "manifold,obs_attention", "--queries", "in/q.kvt"],
    "compare-missing-lambda": [*COMPARE, "--input", "in/k.kvt", "--methods", "manifold,hybrid"],
    "compare-one-method": [*COMPARE, "--input", "in/k.kvt", "--methods", "manifold"],
    "ttest": TTEST,
    **{f"ttest-{fmt}": [*TTEST, "--format", fmt, "--out", f"{{out}}/t.{fmt}"]
       for fmt in ("csv", "json")},
    "help": ["--help"],
    **{f"help-{c}": [c, "--help"] for c in COMMANDS},
    "no-command": [],
    "unknown-flag": ["score", "--bogus-flag", "x"],
    # range rules: each option's own check, after the required checks
    "compress-rho-1": [*COMPRESS, "--rho", "1"],
    "collision-demo-config-rho-2": ["collision-demo", "--n", "64", "--config", "in/rho.json"],
    "collision-demo-config-rho-overridden": ["collision-demo", "--n", "64", "--config",
                                             "in/rho.json", "--rho", "0.5"],
    # a config file's keys are the command's options, and --config is none of them
    "collision-demo-config-nested-config": ["collision-demo", "--config", "in/nested.json"],
    "dilution-no-seeds": [*DILUTION, "--seeds", ",", "--out", "{out}/d.csv"],
    "separation-jobs-0": [*SEPARATION, "--jobs", "0"],
    "ablation-k-clusters-0": ["ablation", "--k-clusters", "0", "--out", "{out}/a.csv"],
    "ablation-k-clusters-0-rho-2": ["ablation", "--k-clusters", "0", "--rho", "2",
                                    "--out", "{out}/a.csv"],
    "gen-no-kind": [*GEN],
    # one malformed input per documented failure exit code
    "exit-2-bad-magic": [*SCORE, "--method", "manifold", "--input", "in/magic.kvt"],
    "exit-3-missing-input": [*SCORE, "--method", "manifold", "--input", "in/missing.kvt"],
    "exit-4-identical-points": ["dim-estimate", "--input", "in/same.kvt", "--out", "{out}/d.csv"],
    # a bad threshold exits 2 before the neighbor search
    "dim-estimate-threshold-2": [*DIM, "--pooled", "--threshold", "2", "--out", "{out}/d.csv"],
    # larger inputs on which a report could depend on the CPU count (run the
    # matrix on one CPU and on all to compare)
    "gen-clusters-3001": ["gen", "--kind", "clusters", "--n", "3001", "--d", "16",
                          "--out-keys", "{out}/c.kvt", "--out-meta", "{out}/c.json"],
    "dim-estimate-3001-heads": [*DIM_3001, "--out", "{out}/d.csv"],
    "dim-estimate-3001-pooled": [*DIM_3001, "--pooled", "--out", "{out}/d.csv"],
    **{f"slabs-{name}": [a.replace("in/", "in/slab-") for a in argv]
       for name, argv in SLAB_CASES.items()},
    # the boundary's own messages: malformed KVT1 files, frames, configs, flags,
    # CSVs and sidecars
    **{f"exit-2-kvt-{name}": [*SCORE, "--method", "manifold", "--input", f"in/{name}.kvt"]
       for name in ("short", "zero-dim", "truncated", "nan")},
    "exit-2-kvt-shrinks-while-read": [*SCORE, "--method", "manifold"],
    "score-out-kvt-beyond-float32": [*SCORE, "--method", "manifold", "--input", "in/big.kvt",
                                     "--out-kvt", "{out}/s.kvt"],
    "compress-values-frame": [a.replace("in/v.kvt", "in/q.kvt") for a in COMPRESS],
    "score-obs-attention-query-dim": [*SCORE, "--method", "obs_attention", "--obs-window", "4",
                                      "--queries", "in/cloud.kvt"],
    **{f"score-config-{name}": [*SCORE, "--method", "manifold", "--config", f"in/{name}.json"]
       for name in ("root-list", "unknown-key", "malformed")},
    "score-missing-out": ["score", "--input", "in/k.kvt", "--method", "manifold"],
    "score-unknown-method": [*SCORE, "--method", "bogus"],
    "ttest-empty-csv": [*TTEST, "--a", "in/empty.csv"],
    "ttest-missing-column": [*TTEST, "--a", "in/two-columns.csv"],
    **{f"gen-sidecar-{name}": [*GEN, "--from-sidecar", f"in/sidecar-{name}.json"]
       for name in ("root-list", "missing-needles", "params-list", "needles-text",
                    "needles-mismatch")},
}
# name -> (module, attribute, replacement): a case that runs with one attribute
# replaced, for a failure that no input file causes
PATCHED = {
    # the file ends after its header while load_kvt reads the payload
    "exit-2-kvt-shrinks-while-read": (os, "preadv", lambda fd, buffers, offset: 0),
}


def _kvt(path: Path, data: np.ndarray, magic: bytes = b"KVT1") -> None:
    header = magic + np.array(data.shape, "<u4").tobytes()
    path.write_bytes(header + data.astype("<f4").tobytes())


def _write_inputs(root: Path) -> None:
    g = np.random.Generator(np.random.Philox(0))
    inputs = root / "in"
    inputs.mkdir()
    _kvt(inputs / "k.kvt", 3.0 * g.standard_normal((1, 2, 48, 8)))
    _kvt(inputs / "v.kvt", g.standard_normal((1, 2, 48, 8)))
    _kvt(inputs / "q.kvt", g.standard_normal((1, 2, 6, 8)))
    # 150 points span two neighbour-search row tiles, the second one ragged
    basis = np.linalg.qr(g.standard_normal((16, 3)))[0]
    cloud = g.standard_normal((1, 2, 150, 3)) @ basis.T + 1e-3 * g.standard_normal((1, 2, 150, 16))
    _kvt(inputs / "cloud.kvt", cloud)
    _kvt(inputs / "same.kvt", np.ones((1, 1, 16, 4)))
    _kvt(inputs / "magic.kvt", np.zeros((1, 1, 2, 2)), magic=b"KVT0")
    (inputs / "short.kvt").write_bytes(b"KVT1\x01")
    _kvt(inputs / "zero-dim.kvt", np.zeros((1, 0, 4, 2)))
    (inputs / "truncated.kvt").write_bytes(b"KVT1" + np.array([1, 1, 2, 2], "<u4").tobytes()
                                           + bytes(12))
    _kvt(inputs / "nan.kvt", np.array([1.0, np.nan]).reshape(1, 1, 2, 1))
    # alternating +-3e38 keys: scores near 6e38, beyond float32
    _kvt(inputs / "big.kvt", np.resize([3e38, -3e38], (4, 4)).T.reshape(1, 1, 4, 4))
    slabs = np.random.default_rng(0)
    for name in ("k", "v", "q"):
        _kvt(inputs / f"slab-{name}.kvt", slabs.standard_normal((2, 3, 700, 16)))
    (inputs / "a.csv").write_text("score\n1.0\n2.5\n3.0\n4.25\n")
    (inputs / "b.csv").write_text("score\n0.5\n2.0\n3.5\n3.0\n")
    (inputs / "empty.csv").write_text("# nothing but a comment\n")
    (inputs / "two-columns.csv").write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    radial = {"alpha": 100.0, "epsilon": 0.1, "n": 64, "d": 8, "seed": 0}
    files = {"lambda": {"lambda": 0.3}, "window": {"window": "x"}, "rho": {"rho": 2},
             "nested": {"config": "nowhere.json", "n": 64},
             "root-list": [1], "unknown-key": {"bogus": 1},
             "sidecar-root-list": [], "sidecar-missing-needles": {"kind": "radial", "params": {}},
             "sidecar-params-list": {"kind": "radial", "params": [64], "needles": [1]},
             "sidecar-needles-text": {"kind": "radial", "params": radial, "needles": ["x"]},
             "sidecar-needles-mismatch": {"kind": "radial", "params": radial, "needles": []}}
    for name, obj in files.items():
        (inputs / f"{name}.json").write_text(json.dumps(obj))
    (inputs / "malformed.json").write_text("{")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(name: str, argv: list) -> list:
    from kvgeom.cli import main

    out_dir = Path(name)
    out_dir.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    patch = mock.patch.object(*PATCHED[name]) if name in PATCHED else contextlib.nullcontext()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), patch:
        try:
            code = main([a.replace("{out}", name) for a in argv])
        except SystemExit as exc:  # --help
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is a result to record
            code = 1
            stderr.write(traceback.format_exception_only(type(exc), exc)[-1])
    lines = [f"{name} exit {code}", f"{name} stdout {_sha(stdout.getvalue().encode())}",
             f"{name} stderr {_sha(stderr.getvalue().encode())}"]
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        lines.append(f"{name} file {path.relative_to(out_dir)} {_sha(path.read_bytes())}")
    return lines


def manifest() -> list:
    os.environ.pop("KVM_SEED", None)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            _write_inputs(Path(tmp))
            lines = [line for name, argv in CASES.items() for line in _run_case(name, argv)]
        finally:
            os.chdir(cwd)
    return sorted(lines)


def _by_case(path: str) -> dict:
    cases = {}
    for line in Path(path).read_text().splitlines():
        cases.setdefault(line.split(" ", 1)[0], []).append(line)
    return cases


def compare(base_path: str, head_path: str, declared_path: str) -> int:
    base, head = _by_case(base_path), _by_case(head_path)
    changed = {name for name in base.keys() | head.keys() if base.get(name) != head.get(name)}
    declared = set(Path(declared_path).read_text().split())
    for name in sorted(changed):
        note = "declared" if name in declared else "NOT DECLARED"
        print(f"changed ({note}): {name}")
        for line in sorted(set(base.get(name, [])) ^ set(head.get(name, []))):
            print(f"  {'-' if line in base.get(name, []) else '+'} {line}")
    for name in sorted(declared - changed):
        print(f"declared but unchanged: {name}")
    print(f"{len(head)} cases, {len(changed)} changed, {len(declared)} declared")
    return 0 if changed == declared else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 5:
        sys.exit(compare(*sys.argv[2:]))
    if len(sys.argv) > 1:
        sys.exit(f"usage: {sys.argv[0]} [--compare BASE HEAD DECLARED]")
    import kvgeom

    print(f"output matrix: kvgeom from {Path(kvgeom.__file__).parent}", file=sys.stderr)
    print("\n".join(manifest()))
