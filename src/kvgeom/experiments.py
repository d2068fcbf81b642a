"""Experiment harness: retention metrics, sweeps, and the paired t-test.

Retention rate (needle recall after eviction) is the desk-scale quality
proxy throughout: every sweep generates seeded scenarios, scores them,
evicts down to a budget, and reports the fraction of planted needles that
survive. Sweep rows are pure functions of (params, seed); grid points may
run in parallel and the row order never depends on the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import pearson, selection_overlap, spearman
from .errors import ValidationError
from .eviction import budget, retention_from_scores
from .report import Report
from .scorers import ScorerSpec, compute_scores
from .synth import Scenario, gen_cluster_mixture, gen_queries, regenerate
from .tensor import KeyTensor, _each_slab

DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# Offset keeping auto-generated query streams disjoint from scenario streams.
_QUERY_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class RetentionResult:
    retained_needles: int
    total_needles: int
    retention_rate: float


@dataclass(frozen=True)
class TTestResult:
    n: int
    mean_diff: float
    std_err: float
    t_stat: float
    p_value: float
    df: int
    degenerate: bool = False


def _count_needle_hits(retained, needles) -> tuple[int, int]:
    """(retained needle count, total needle slots) over all (batch, head) pairs."""
    needle_arr = np.asarray(list(needles), dtype=np.int64)
    if needle_arr.size == 0:
        raise ValidationError("needles must be non-empty")
    # a needle outside [0, seq_len) is a miss in every head, never a wrapped index
    inside = needle_arr[(needle_arr >= 0) & (needle_arr < retained.seq_len)]
    hits = int(np.count_nonzero(retained.keep[:, :, inside]))
    return hits, needle_arr.size * retained.batch * retained.heads


def retention_rate(retained, needles) -> float:
    """|retained ∩ needles| / |needles|, averaged over (batch, head) pairs."""
    hits, total = _count_needle_hits(retained, needles)
    return hits / total


def _score_and_keep(scenario: Scenario, spec: ScorerSpec, m: int, queries=None) -> tuple:
    """(scores, top-m retention) of one spec on a scenario's keys.

    An obs_attention spec given no queries observes one window of
    needle-probing queries (random ones for a scenario without needles),
    drawn from a seed derived from the scenario's.
    """
    if queries is None and spec.method == "obs_attention":
        mode = "needle_probing" if scenario.needles else "random"
        seed = int(scenario.params["seed"]) + _QUERY_SEED_OFFSET
        queries = gen_queries(scenario, spec.param, mode, seed)
    scores = compute_scores(spec, scenario.keys, queries=queries)
    return scores, retention_from_scores(scores, m)


def run_retention(scenario: Scenario, spec: ScorerSpec, rho: float) -> RetentionResult:
    """Score -> budget -> top-k -> needle retention for one scenario."""
    if not scenario.needles:
        raise ValidationError("scenario has no needles to retain")
    _, retained = _score_and_keep(scenario, spec, budget(scenario.seq_len, rho))
    hits, total = _count_needle_hits(retained, scenario.needles)
    return RetentionResult(hits, total, hits / total)


def _mixture_rates(specs, rho: float, **mixture) -> tuple:
    """(retention rate of each of `specs`, in order, at `rho`; scenario source)
    on one cluster mixture, generated once from the `mixture` arguments."""
    scenario = gen_cluster_mixture(**mixture)
    return [run_retention(scenario, spec, rho).retention_rate for spec in specs], scenario.source


def _map_jobs(jobs: int, fn, args_list):
    """[fn(*args) for args in args_list], on up to `jobs` workers of `_each_slab`."""
    rows = [None] * len(args_list)
    _each_slab((len(args_list),), lambda i, _: rows.__setitem__(i, fn(*args_list[i])),
               workers=jobs)
    return rows


def _sweep(name, column, grid, seeds, jobs, job, means, params, carried=()) -> Report:
    """Run `job(point, seed)` for every grid point and seed and group the rows.

    Each job returns its run row and its scenario's `source`. Each grid
    point's run rows are followed by its mean row: the `means` columns
    averaged over seeds and the `carried` columns of the first run. The
    report's columns are row, `column`, `carried`, seed, `means`; its metadata
    is what reached its rows: the first job's scenario source but `column` and
    seed, then `params` (the grid, budget and scorer setting) and the seeds.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:  # a grid point's mean row needs at least one run
        raise ValidationError("seeds must list at least one seed")
    for i, point in enumerate(grid):  # a repeated point's groups would share rows
        if point in grid[:i]:
            raise ValidationError(f"{column} grid lists {point} twice")
    rows, sources = zip(*_map_jobs(jobs, job, [(point, seed) for point in grid for seed in seeds]))
    source = {k: v for k, v in sources[0].items() if k not in (column, "seed")}
    out = []
    for i, point in enumerate(grid):
        chunk = rows[i * len(seeds) : (i + 1) * len(seeds)]
        out.extend(chunk)
        out.append({"row": "mean", column: point, "seed": "",
                    **{c: chunk[0][c] for c in carried},
                    **{c: float(np.mean([r[c] for r in chunk])) for c in means}})
    return Report(name=name, columns=["row", column, *carried, "seed", *means], rows=out,
                  metadata={**source, **params, "seeds": seeds}, group_by=column)


def separation_test(
    k: int,
    d: int,
    sigma: float,
    epsilon: float,
    n_grid,
    n_out: int,
    seeds=DEFAULT_SEEDS,
    spec: ScorerSpec | None = None,
    kind: str = "subspace",
    alpha: float = 100.0,
    jobs: int = 1,
) -> Report:
    """Needle retention at budget M = n_out across sample sizes.

    kind="subspace" runs strict-separation subspace scenarios; kind="radial"
    runs the radial-outlier construction (n_out is forced to 1 there). The
    per-n success fraction counts seeds with perfect retention.
    """
    spec = spec or ScorerSpec("manifold")
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValidationError("n_grid must be non-empty")
    if kind not in ("subspace", "radial"):
        raise ValidationError(f"kind must be 'subspace' or 'radial', got {kind!r}")
    if kind == "radial":
        n_out = 1
    if n_out < 1:
        raise ValidationError(f"n_out must be >= 1, got {n_out}")
    for n in n_grid:
        if n <= n_out:
            raise ValidationError(f"grid n={n} must exceed n_out={n_out}")

    args = {"k": k, "d": d, "sigma": sigma, "n_out": n_out, "epsilon": epsilon, "alpha": alpha,
            "strict_separation": True, "center_scale": 10.0}  # each kind's generator reads its own

    def job(n: int, seed: int) -> tuple:
        scenario = regenerate(kind, {**args, "n": n, "seed": seed})
        rate = retention_rate(_score_and_keep(scenario, spec, n_out)[1], scenario.needles)
        return ({"row": "run", "n": n, "seed": seed, "retention": rate,
                 "success": rate == 1.0}, scenario.source)

    params = {"n_grid": n_grid, "n_out": n_out, "method": spec.label()}
    # the mean of the success flags is the fraction of seeds with perfect retention
    return _sweep("separation", "n", n_grid, seeds, jobs, job, ("retention", "success"), params)


def dilution_sweep(
    k_grid,
    n: int,
    d: int,
    rho: float,
    window: int | None = None,
    seeds=DEFAULT_SEEDS,
    spread: float = 1.0,
    separation: float = 10.0,
    jobs: int = 1,
) -> Report:
    """Global vs windowed centroid-L2 retention as cluster diversity grows.

    For each cluster count K the window defaults to n // K (one window per
    topic block). The gap column is windowed minus global retention: the
    dilution signature grows with K.
    """
    k_grid = [int(k) for k in k_grid]
    if not k_grid or any(k < 1 for k in k_grid):
        raise ValidationError("k_grid must be non-empty positive cluster counts")

    def job(k_clusters: int, seed: int) -> tuple:
        w = window if window is not None else max(1, n // k_clusters)
        (g, wr, kd), source = _mixture_rates(
            [ScorerSpec("manifold"), ScorerSpec("windowed", w), ScorerSpec("keydiff")], rho,
            n=n, d=d, k_clusters=k_clusters, spread=spread, separation=separation, seed=seed)
        return ({"row": "run", "k_clusters": k_clusters, "window": w, "seed": seed,
                 "global_retention": g, "windowed_retention": wr,
                 "keydiff_retention": kd, "gap": wr - g}, source)

    params = {"k_grid": k_grid, "rho": rho, "window": window}
    means = ("global_retention", "windowed_retention", "keydiff_retention", "gap")
    return _sweep("dilution", "k_clusters", k_grid, seeds, jobs, job, means, params,
                  carried=("window",))


def window_ablation(
    w_grid=None,
    *,
    n: int,
    d: int,
    k_clusters: int,
    rho: float,
    seeds=DEFAULT_SEEDS,
    spread: float = 1.0,
    separation: float = 10.0,
    jobs: int = 1,
) -> Report:
    """Windowed retention across window sizes on one cluster-mixture family.

    The window grid defaults to C/2, C, 2C, 4C and n for the topic length
    C = n // k_clusters. The best window (highest seed-mean retention, ties
    resolved toward the larger window, which costs fewer centroid
    computations) is flagged in the report metadata.
    """
    if k_clusters < 1:
        raise ValidationError(f"k_clusters must be >= 1, got {k_clusters}")
    if w_grid is None:
        extent = max(1, n // k_clusters)
        w_grid = sorted({max(1, extent // 2), extent, 2 * extent, 4 * extent, n})
    w_grid = [int(w) for w in w_grid]
    if not w_grid or any(w < 1 for w in w_grid):
        raise ValidationError("w_grid must be non-empty positive window sizes")

    def job(w: int, seed: int) -> tuple:
        (wr, g), source = _mixture_rates(
            [ScorerSpec("windowed", w), ScorerSpec("manifold")], rho,
            n=n, d=d, k_clusters=k_clusters, spread=spread, separation=separation, seed=seed)
        return ({"row": "run", "window": w, "seed": seed,
                 "windowed_retention": wr, "global_retention": g}, source)

    params = {"w_grid": w_grid, "rho": rho}
    means = ("windowed_retention", "global_retention")
    report = _sweep("ablation", "window", w_grid, seeds, jobs, job, means, params)
    mean_of = {r["window"]: r["windowed_retention"] for r in report.rows if r["row"] == "mean"}
    report.metadata["best_window"] = max(sorted(mean_of), key=lambda w: (mean_of[w], w))
    return report


def paired_ttest(a, b) -> TTestResult:
    """Two-sided paired t-test via the regularized incomplete beta function.

    Degenerate zero-variance inputs are flagged: identical samples give
    t = 0, p = 1; a constant nonzero difference gives p = 0.
    """
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    if x.size != y.size:
        raise ValidationError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ValidationError(f"need at least 2 pairs, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValidationError("samples contain NaN or Inf")
    diff = x - y
    n = diff.size
    df = n - 1
    mean = float(diff.mean())
    sd = float(diff.std(ddof=1))
    se = sd / math.sqrt(n)
    if se == 0.0:
        if mean == 0.0:
            return TTestResult(n, 0.0, 0.0, 0.0, 1.0, df, degenerate=True)
        return TTestResult(n, mean, 0.0, math.copysign(math.inf, mean), 0.0, df,
                           degenerate=True)
    from scipy.special import betainc  # imported here: scipy is most of the package's import time

    t = mean / se
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return TTestResult(n, mean, se, t, p, df)


def compare_methods(
    scenario: Scenario,
    specs,
    rho: float,
    queries: KeyTensor | None = None,
) -> Report:
    """Pairwise score agreement (pearson/spearman/overlap) plus per-method retention."""
    specs = list(specs)
    if len(specs) < 2:
        raise ValidationError("need at least 2 scorer specs to compare")
    m = budget(scenario.seq_len, rho)
    scored = [(spec.label(), *_score_and_keep(scenario, spec, m, queries)) for spec in specs]

    rows = []
    for i in range(len(scored)):
        for j in range(i + 1, len(scored)):
            la, sa, ra = scored[i]
            lb, sb, rb = scored[j]
            rows.append({
                "row": "pair", "method_a": la, "method_b": lb,
                "pearson": pearson(sa.data.ravel(), sb.data.ravel()),
                "spearman": spearman(sa.data.ravel(), sb.data.ravel()),
                "overlap": selection_overlap(ra, rb),
            })
    if scenario.needles:
        for label, _, retained in scored:
            rows.append({
                "row": "retention", "method_a": label, "method_b": "",
                "retention": retention_rate(retained, scenario.needles),
            })
    return Report(
        name="compare",
        columns=["row", "method_a", "method_b", "pearson", "spearman", "overlap", "retention"],
        rows=rows,
        metadata={**scenario.source, "methods": ",".join(s.label() for s in specs), "rho": rho},
    )
