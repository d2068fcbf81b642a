"""Workload definitions, seeded input generation and output checks.

Everything here is plain numpy and the standard library: inputs are made
and outputs are checked without importing kvgeom, so a defect in the program
cannot hide itself by also breaking its own check.

A workload is a fixed cycle of CLI commands whose layers dominate it. The
"small" size shrinks every command; only the self-test uses it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

KVT_HEADER = struct.Struct("<4sIIII")

KINDS = ("score", "compress", "compress_obs", "dilution", "ablation", "dim", "dim_pooled")

# kind -> the input family it reads and the workload it belongs to
FAMILY = {
    "score": "cache", "compress": "cache", "compress_obs": "cache",
    "dilution": "sweep", "ablation": "sweep",
    "dim": "dim", "dim_pooled": "dim",
}

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "cache": ("score", "compress", "compress_obs"),
    "sweep": ("dilution", "ablation"),
    "dim": ("dim", "dim_pooled"),
}

SIZES = {
    "full": {
        "cache": {"heads": 32, "seq": 8192, "dim": 128, "queries": 16},
        "sweep": {"dilution": [], "ablation": []},  # CLI defaults
        "dim": {"heads": 2, "seq": 4096, "dim": 64},
        "seeds": 5,
    },
    "small": {
        "cache": {"heads": 16, "seq": 2048, "dim": 128, "queries": 16},
        "sweep": {
            "dilution": ["--n", "8192", "--k-grid", "1,4"],
            "ablation": ["--n", "4096", "--k-clusters", "4"],
        },
        "dim": {"heads": 2, "seq": 1536, "dim": 64},
        "seeds": 2,
    },
}

RHO = 0.25
OBS_WINDOW = 16
NEEDLES_PER_HEAD = 8
PLANTED_DIM = 6
DIM_TOLERANCE = 1.0  # |estimate - PLANTED_DIM| allowed for Two-NN and MLE

# README report schemas
DILUTION_COLUMNS = ["row", "k_clusters", "window", "seed", "global_retention",
                    "windowed_retention", "keydiff_retention", "gap"]
ABLATION_COLUMNS = ["row", "window", "seed", "windowed_retention", "global_retention"]
DIM_COLUMNS = ["row", "batch", "head", "pca_d95", "twonn", "mle", "pca_ratio",
               "n_points", "ambient_dim", "discarded_pairs"]
# kvgeom CLI defaults of the sweeps the full-size workload runs with
DILUTION_DEFAULTS = {"k_grid": "1,4,16,32", "n": 16384}
ABLATION_DEFAULTS = {"n": 8192, "k_clusters": 16}


# ---------------------------------------------------------------- KVT1 files

def write_kvt(path: Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(KVT_HEADER.pack(b"KVT1", *arr.shape))
        np.ascontiguousarray(arr, dtype="<f4").tofile(fh)
        fh.flush()
        os.fsync(fh.fileno())  # no write-back of inputs during timed commands


def read_kvt(path: Path) -> np.ndarray:
    """Memory-mapped (batch, heads, seq, dim) view of a KVT1 file."""
    with open(path, "rb") as fh:
        magic, *dims = KVT_HEADER.unpack(fh.read(KVT_HEADER.size))
    if magic != b"KVT1":
        raise ValueError(f"{path.name}: bad magic {magic!r}")
    expected = KVT_HEADER.size + 4 * math.prod(dims)
    if path.stat().st_size != expected:
        raise ValueError(f"{path.name}: {path.stat().st_size} bytes, header implies {expected}")
    return np.memmap(path, dtype="<f4", mode="r", offset=KVT_HEADER.size, shape=tuple(dims))


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------------ inputs

def _rng(seed: int, family: str, size: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(f"{family}/{size}".encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def make_cache(workdir: Path, seed: int, size: str) -> dict:
    """Key and value caches plus queries; keys carry radial needles per head.

    Each head has its own key scale, so proportional budgets differ per head.
    A needle lies along its head's mean direction, several typical distances
    beyond the centroid: centroid distance keeps it, cosine cannot see it.
    """
    s = SIZES[size]["cache"]
    h, n, d = s["heads"], s["seq"], s["dim"]
    rng = _rng(seed, "cache", size)
    scale = np.geomspace(0.5, 2.0, h)[rng.permutation(h)].astype(np.float32)
    mu = rng.standard_normal((h, d), dtype=np.float32)
    mu *= (3.0 * scale / np.linalg.norm(mu, axis=1))[:, None]
    keys = rng.standard_normal((1, h, n, d), dtype=np.float32)
    keys *= scale[None, :, None, None]
    keys += mu[None, :, None, :]
    needles = np.sort(np.stack([rng.choice(n, NEEDLES_PER_HEAD, replace=False)
                                for _ in range(h)]), axis=1)
    typical = scale * math.sqrt(d)
    for head in range(h):
        unit = mu[head] / np.linalg.norm(mu[head])
        radius = 3.0 * scale[head] + typical[head] * (8.0 + np.arange(NEEDLES_PER_HEAD))
        keys[0, head, needles[head]] = radius[:, None] * unit[None, :]
    paths = {"keys": workdir / f"cache-{size}-keys.kvt",
             "values": workdir / f"cache-{size}-values.kvt",
             "queries": workdir / f"cache-{size}-queries.kvt"}
    write_kvt(paths["keys"], keys)
    del keys
    write_kvt(paths["values"], rng.standard_normal((1, h, n, d), dtype=np.float32))
    write_kvt(paths["queries"], rng.standard_normal((1, h, s["queries"], d), dtype=np.float32))
    return {"paths": paths, "needles": needles, "shape": (1, h, n, d)}


def make_cloud(workdir: Path, seed: int, size: str) -> dict:
    """Points on one planted PLANTED_DIM-dimensional linear subspace, plus small noise."""
    s = SIZES[size]["dim"]
    h, n, d = s["heads"], s["seq"], s["dim"]
    rng = _rng(seed, "dim", size)
    basis, _ = np.linalg.qr(rng.standard_normal((d, PLANTED_DIM)))
    coeffs = rng.standard_normal((1, h, n, PLANTED_DIM))
    cloud = coeffs @ basis.T + 1e-3 * rng.standard_normal((1, h, n, d))
    path = workdir / f"dim-{size}-cloud.kvt"
    write_kvt(path, cloud)
    return {"paths": {"cloud": path}, "shape": (1, h, n, d)}


def make_inputs(workdir: Path, seed: int, workload: str, size: str) -> dict:
    """All inputs one cycle of `workload` reads, keyed by input family."""
    family = FAMILY[WORKLOADS[workload][0]]
    make = {"cache": make_cache, "dim": make_cloud}.get(family)
    return {family: make(workdir, seed, size) if make else {}}


# ----------------------------------------------------------------- commands

def command(kind: str, size: str, seed: int, inputs: dict, outdir: Path) -> tuple[list, dict]:
    """(kvgeom argv, output paths) for one command."""
    family = FAMILY[kind]
    paths = inputs[family].get("paths", {})
    if family == "cache":
        if kind == "score":
            outs = {"csv": outdir / f"{kind}.csv"}
            return ["score", "--input", str(paths["keys"]), "--method", "manifold",
                    "--out", str(outs["csv"])], outs
        outs = {name: outdir / f"{kind}-{name}" for name in ("keys.kvt", "values.kvt", "mask.json")}
        argv = ["compress", "--keys", str(paths["keys"]), "--values", str(paths["values"]),
                "--rho", str(RHO), "--out-keys", str(outs["keys.kvt"]),
                "--out-values", str(outs["values.kvt"]), "--out-mask", str(outs["mask.json"])]
        if kind == "compress":
            argv += ["--method", "manifold", "--mode", "proportional"]
        else:
            argv += ["--method", "obs_attention", "--obs-window", str(OBS_WINDOW),
                     "--queries", str(paths["queries"]), "--mode", "uniform"]
        return argv, outs
    if family == "sweep":
        seeds = ",".join(str(seed + i) for i in range(SIZES[size]["seeds"]))
        outs = {"csv": outdir / f"{kind}.csv"}
        return [kind, *SIZES[size]["sweep"][kind], "--jobs", "2", "--seeds", seeds,
                "--out", str(outs["csv"])], outs
    outs = {"csv": outdir / f"{kind}.csv"}
    argv = ["dim-estimate", "--input", str(paths["cloud"]), "--out", str(outs["csv"])]
    if kind == "dim_pooled":
        argv.append("--pooled")
    return argv, outs


# ------------------------------------------------------------------- checks

def _csv_body(path: Path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh if not line.startswith("#")]


def _flag(argv: list, name: str, default):
    return type(default)(argv[argv.index(name) + 1]) if name in argv else default


def check_score(argv, outs, inp, seed) -> list:
    _, h, n, d = inp["shape"]
    lines = _csv_body(outs["csv"])
    if lines[0].strip() != "batch,head,token,score":
        return [f"score: header {lines[0].strip()!r}"]
    table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if table.shape != (h * n, 4):
        return [f"score: {table.shape[0]} rows x {table.shape[1]} columns, expected {h * n} x 4"]
    grid = np.indices((1, h, n)).reshape(3, -1).T
    if not np.array_equal(table[:, :3], grid):
        return ["score: (batch, head, token) columns are not the index grid"]
    keys = read_kvt(inp["paths"]["keys"])
    errors = []
    for head in np.random.default_rng(seed).choice(h, min(h, 4), replace=False):
        block = np.asarray(keys[0, head], dtype=np.float64)
        ref = np.linalg.norm(block - block.mean(axis=0), axis=1)
        got = table[head * n:(head + 1) * n, 3]
        if not np.allclose(got, ref, rtol=1e-9, atol=1e-12):
            errors.append(f"score: head {head} differs from the centroid-distance reference "
                          f"by up to {np.max(np.abs(got - ref)):.3g}")
    return errors


def _row_keys(rows: np.ndarray) -> np.ndarray:
    bits = np.ascontiguousarray(rows[:, :2]).view(np.uint32).astype(np.uint64)
    return (bits[:, 0] << np.uint64(32)) | bits[:, 1]


def check_compress(argv, outs, inp, seed) -> list:
    _, h, n, d = inp["shape"]
    with open(outs["mask.json"], "r", encoding="utf-8") as fh:
        mask = json.load(fh)
    counts = np.asarray(mask["valid_counts"], dtype=np.int64)
    out_k = read_kvt(outs["keys.kvt"])
    out_v = read_kvt(outs["values.kvt"])
    m = int(mask["max_budget"])
    errors = []
    if counts.shape != (1, h) or out_k.shape != (1, h, m, d) or out_v.shape != (1, h, m, d):
        return [f"{argv[0]}: shapes keys {out_k.shape}, values {out_v.shape}, counts "
                f"{counts.shape} do not fit (1, {h}, max_budget={m}, {d})"]
    if counts.min() < 1 or counts.max() != m or counts.max() > n:
        errors.append(f"compress: valid_counts outside [1, {n}] or max != max_budget {m}")
    if "proportional" in argv:
        total = math.floor(h * (1.0 - RHO) * n + 1e-9)
        if int(counts.sum()) != total:
            errors.append(f"compress: valid_counts sum {int(counts.sum())}, expected {total}")
        if np.unique(counts).size < 2:
            errors.append("compress: proportional budgets do not differ per head")
    elif not (counts == math.floor((1.0 - RHO) * n + 1e-9)).all():
        errors.append("compress: uniform valid_counts differ from floor((1 - rho) * n)")
    in_k = read_kvt(inp["paths"]["keys"])
    in_v = read_kvt(inp["paths"]["values"])
    for head in range(h):
        c = int(counts[0, head])
        src = np.asarray(in_k[0, head])
        kept = np.asarray(out_k[0, head, :c])
        src_keys = _row_keys(src)
        order = np.argsort(src_keys, kind="stable")
        pos = np.minimum(np.searchsorted(src_keys, _row_keys(kept), sorter=order), n - 1)
        idx = order[pos]
        if not np.array_equal(src[idx], kept) or not np.array_equal(in_v[0, head, idx],
                                                                    out_v[0, head, :c]):
            errors.append(f"compress: head {head} keeps a row that is not its input row")
        elif np.any(np.diff(idx) <= 0):
            errors.append(f"compress: head {head} rows are not in ascending token order")
        elif "manifold" in argv and not np.isin(inp["needles"][head], idx).all():
            errors.append(f"compress: head {head} evicted a planted needle")
        if np.any(out_k[0, head, c:]) or np.any(out_v[0, head, c:]):
            errors.append(f"compress: head {head} padding rows are not zero")
        if len(errors) >= 4:
            break
    return errors


def _read_report(path: Path, columns: list) -> tuple[list, list]:
    lines = _csv_body(path)
    reader = csv.DictReader(lines)
    if reader.fieldnames != columns:
        return [], [f"{path.name}: columns {reader.fieldnames}, expected {columns}"]
    return list(reader), []


def _check_sweep_rows(name, rows, grid_col, grid, seeds, value_cols) -> list:
    expected = [(label, g, s) for g in grid
                for label, s in [*(("run", str(s)) for s in seeds), ("mean", "")]]
    if [(r["row"], int(r[grid_col]), r["seed"]) for r in rows] != expected:
        return [f"{name}: rows are not one run row per (grid point, seed) "
                f"plus one mean row per grid point"]
    errors = []
    for i, g in enumerate(grid):
        chunk = rows[i * (len(seeds) + 1):(i + 1) * (len(seeds) + 1)]
        for col in value_cols:
            vals = np.array([float(r[col]) for r in chunk])
            if col != "gap" and ((vals < 0).any() or (vals > 1).any()):
                errors.append(f"{name}: {col} outside [0, 1] at {grid_col}={g}")
            if abs(vals[-1] - vals[:-1].mean()) > 1e-12:
                errors.append(f"{name}: {col} mean row is not the seed mean at {grid_col}={g}")
    return errors


def check_dilution(argv, outs, inp, seed) -> list:
    rows, errors = _read_report(outs["csv"], DILUTION_COLUMNS)
    if errors:
        return errors
    grid = [int(k) for k in _flag(argv, "--k-grid", DILUTION_DEFAULTS["k_grid"]).split(",")]
    n = _flag(argv, "--n", DILUTION_DEFAULTS["n"])
    seeds = [int(s) for s in argv[argv.index("--seeds") + 1].split(",")]
    errors = _check_sweep_rows("dilution", rows, "k_clusters", grid, seeds,
                               DILUTION_COLUMNS[4:])
    for r in rows:
        if int(r["window"]) != max(1, n // int(r["k_clusters"])):
            errors.append(f"dilution: window {r['window']} is not n / K at K={r['k_clusters']}")
            break
        gap = float(r["windowed_retention"]) - float(r["global_retention"])
        if abs(float(r["gap"]) - gap) > 1e-12:
            errors.append(f"dilution: gap is not windowed - global at K={r['k_clusters']}")
            break
    return errors


def check_ablation(argv, outs, inp, seed) -> list:
    rows, errors = _read_report(outs["csv"], ABLATION_COLUMNS)
    if errors:
        return errors
    n = _flag(argv, "--n", ABLATION_DEFAULTS["n"])
    extent = max(1, n // _flag(argv, "--k-clusters", ABLATION_DEFAULTS["k_clusters"]))
    grid = sorted({max(1, extent // 2), extent, 2 * extent, 4 * extent, n})
    seeds = [int(s) for s in argv[argv.index("--seeds") + 1].split(",")]
    return _check_sweep_rows("ablation", rows, "window", grid, seeds, ABLATION_COLUMNS[3:])


def check_dim(argv, outs, inp, seed) -> list:
    rows, errors = _read_report(outs["csv"], DIM_COLUMNS)
    if errors:
        return errors
    _, h, n, d = inp["shape"]
    pooled = "--pooled" in argv
    expected = [("pooled", "-1", "-1", h * n)] if pooled else \
        [("per_head", "0", str(head), n) for head in range(h)]
    got = [(r["row"], r["batch"], r["head"], int(r["n_points"])) for r in rows]
    if got != expected:
        return [f"dim: rows {got}, expected {expected}"]
    for r in rows:
        for col in ("twonn", "mle"):
            if not abs(float(r[col]) - PLANTED_DIM) <= DIM_TOLERANCE:
                errors.append(f"dim: {col} = {r[col]} is not within {DIM_TOLERANCE} "
                              f"of the planted dimension {PLANTED_DIM}")
        if not 1 <= int(r["pca_d95"]) <= PLANTED_DIM or int(r["ambient_dim"]) != d:
            errors.append(f"dim: pca_d95 {r['pca_d95']} / ambient_dim {r['ambient_dim']} wrong")
    return errors


CHECKS = {
    "score": check_score,
    "compress": check_compress,
    "compress_obs": check_compress,
    "dilution": check_dilution,
    "ablation": check_ablation,
    "dim": check_dim,
    "dim_pooled": check_dim,
}


def needle_retention(path: Path) -> float:
    """Mean over K of the dilution report's seed-mean windowed_retention."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return float(np.mean([float(r["windowed_retention"]) for r in rows if r["row"] == "mean"]))
