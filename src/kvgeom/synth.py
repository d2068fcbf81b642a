"""Seeded scenario generators for needle-retention experiments.

Each generator plants ground-truth "needle" tokens inside a synthetic key
cloud and records their positions. Randomness comes from numpy's Philox
counter-based bit generator keyed by the scenario seed, so regenerating with
the same parameters and seed is bit-identical within one numpy version.
A scenario's params are its generator's arguments, as the generator
validated them, plus the values the generator names as derived from them.
Needle positions are drawn uniformly at random but never land on the first
or last token, keeping them clear of the top-k tie-break rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

from .errors import ValidationError, check_memory, json_value, parse_file
from .report import write_json
from .tensor import ROW_CHUNK, KeyTensor, freeze

QUERY_MODES = ("random", "needle_probing")


@dataclass(frozen=True)
class Scenario:
    """Generated keys plus ground truth: kind, needle indices, echoed params."""

    kind: str
    keys: KeyTensor
    needles: tuple
    params: dict

    @property
    def seq_len(self) -> int:
        return self.keys.seq_len

    def sidecar_obj(self) -> dict:
        return {"kind": self.kind, "params": self.params, "needles": list(self.needles)}


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def _unit(v: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot normalize a zero vector")
    return v / norm


def _orth_unit(rng: np.random.Generator, d: int, *against: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to each of the orthonormal `against`,
    whose components are removed in the order given."""
    v = rng.normal(size=d)
    for u in against:
        v -= u * (u @ v)
    return _unit(v)


def _balanced_units(rng: np.random.Generator, count: int, d: int, axis: np.ndarray) -> np.ndarray:
    """Random unit vectors orthogonal to `axis` that sum to (near-)zero.

    Antithetic pairs (v, -v) cancel exactly; an odd leftover is covered by a
    120-degree triple in a random orthogonal plane when d >= 3. The zero-sum
    layout keeps empirical centroids and normalized-mean anchors pinned to
    the construction axis, so radial-blindness statements hold exactly
    instead of up to O(1/sqrt(n)) sampling drift.
    """
    if count < 1:
        return np.empty((0, d))
    out = np.empty((count, d))
    pos = 0
    if count % 2 == 1 and count >= 3 and d >= 3:
        p = _orth_unit(rng, d, axis)
        q = _orth_unit(rng, d, axis, p)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        for j in range(3):
            angle = phase + j * 2.0 * np.pi / 3.0
            out[pos] = np.cos(angle) * p + np.sin(angle) * q
            pos += 1
    while pos < count - 1:
        out[pos] = _orth_unit(rng, d, axis)
        out[pos + 1] = -out[pos]
        pos += 2
    if pos < count:  # single leftover (count == 1, or odd count with d == 2)
        out[pos] = _orth_unit(rng, d, axis)
    return out


def _needle_positions(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    if count > n - 2:
        raise ValidationError(
            f"cannot place {count} needles in interior positions of {n} tokens"
        )
    return rng.permutation(np.arange(1, n - 1))[:count]


def _check_size(n: int, d: int, k: int = 0) -> None:
    """Refuse, before any allocation, an n x d scenario whose float64 keys
    alone, or whose (d, k) subspace basis, exceed physical memory."""
    check_memory(8 * n * d, f"an n={n} x d={d} scenario", " of float64 keys")
    # per basis entry: the float64 draw and Q factor, a Python float and list slot in params
    check_memory(48 * d * k, f"a d={d} x k={k} subspace basis")


def _as_tensor(matrix: np.ndarray) -> KeyTensor:
    """An (n, d) float64 matrix as a (1, 1, n, d) KeyTensor, cast into a fresh
    float32 array that the tensor adopts without a copy."""
    out = np.empty((1, 1) + matrix.shape, dtype=np.float32)
    # values beyond float32 range become inf here, which KeyTensor reports
    with np.errstate(over="ignore"):
        np.copyto(out[0, 0], matrix, casting="same_kind")
    return KeyTensor(freeze(out))


def _with_needles(commons: np.ndarray, positions, rows) -> np.ndarray:
    """The (n, d) keys holding needle `rows` at `positions` and the `commons`,
    in order, everywhere else."""
    keys = np.empty((len(commons) + len(positions), commons.shape[1]))
    mask = np.ones(len(keys), dtype=bool)
    mask[positions] = False
    keys[mask] = commons
    keys[positions] = rows
    return keys


def _as_scenario(kind: str, keys: KeyTensor, needles, args: dict, **derived) -> Scenario:
    """The scenario whose params are the generator's `args` and its `derived` values."""
    return Scenario(
        kind=kind,
        keys=keys,
        needles=tuple(int(i) for i in sorted(needles)),
        params={**args, **derived},
    )


def gen_subspace_scenario(
    n: int,
    d: int,
    k: int,
    sigma: float,
    n_out: int,
    epsilon: float,
    seed: int,
    strict_separation: bool = False,
    center_scale: float = 10.0,
) -> Scenario:
    """Common tokens inside a random k-dim subspace, needles epsilon off it.

    The common cloud is centered at center_scale * sigma along an in-plane
    direction (an off-center cloud keeps direction-based scorers
    non-degenerate). Each needle is a common-like in-plane point plus a
    component of length epsilon orthogonal to the subspace. With
    strict_separation the common deviations are shrunk until
    epsilon > 3 * diam(common cloud), the regime in which every needle must
    outscore every common token under centroid-L2 scoring.
    """
    args = dict(locals())
    if not 1 <= k < d:
        raise ValidationError(f"need 1 <= k < d, got k={k}, d={d}")
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    if not 0 <= n_out < n:
        raise ValidationError(f"need 0 <= n_out < n, got n_out={n_out}, n={n}")
    if epsilon <= 0 or sigma <= 0:
        raise ValidationError("sigma and epsilon must be positive")
    _check_size(n, d, k)
    rng = _rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(d, k)))
    center = center_scale * sigma * basis[:, 0]
    n_common = n - n_out
    common = center + rng.normal(0.0, sigma, size=(n_common, k)) @ basis.T
    applied_scale = 1.0
    if strict_separation and n_common >= 2:
        mean = common.mean(axis=0)
        radius = float(np.linalg.norm(common - mean, axis=1).max())
        # diam <= 2 * radius, so 6.3 * radius < epsilon forces epsilon > 3 * diam
        limit = epsilon / 6.3
        if radius > limit and radius > 0.0:
            applied_scale = limit / radius
            common = mean + (common - mean) * applied_scale

    inplane = center + applied_scale * (rng.normal(0.0, sigma, size=(n_out, k)) @ basis.T)
    offsets = np.empty((n_out, d))
    for j in range(n_out):
        u = rng.normal(size=d)
        u -= basis @ (basis.T @ u)
        offsets[j] = _unit(u)
    needles = _needle_positions(rng, n_out, n)
    keys = _with_needles(common, needles, inplane + epsilon * offsets)

    return _as_scenario("subspace", _as_tensor(keys), needles, args,
                        separation_scale=applied_scale, basis=basis.tolist())


def gen_radial_failure(alpha: float, epsilon: float, n: int, d: int, seed: int) -> Scenario:
    """One radial outlier among common tokens spread around the first axis.

    Commons are e1 + epsilon * v with v balanced unit vectors orthogonal to
    e1; the single needle is alpha * e1: same direction as every common
    token, extreme magnitude. Direction-only scorers rank it as maximally
    typical while centroid-L2 ranks it as the top outlier.
    """
    args = dict(locals())
    if alpha <= 1.0:
        raise ValidationError(f"alpha must be > 1, got {alpha}")
    if n < 3:
        raise ValidationError(f"n must be >= 3, got {n}")
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    _check_size(n, d)
    rng = _rng(seed)
    axis = np.zeros(d)
    axis[0] = 1.0
    jitter = _balanced_units(rng, n - 1, d, axis)
    pos = int(rng.integers(1, n - 1))
    keys = _with_needles(axis + epsilon * jitter, [pos], [alpha * axis])
    return _as_scenario("radial", _as_tensor(keys), [pos], args)


def gen_cluster_mixture(
    n: int,
    d: int,
    k_clusters: int,
    spread: float,
    separation: float,
    seed: int,
    shuffle: bool = False,
) -> Scenario:
    """Topically-local cluster mixture with one local needle per cluster.

    Cluster means sit at radius `separation` along orthonormal random
    directions. Each cluster's tokens deviate by Gaussian noise with total
    RMS radius `spread` (per-coordinate sigma = spread / sqrt(d)), laid out
    cluster-contiguously so that token block i*n/K .. (i+1)*n/K shares
    cluster i. One needle per cluster sits 3x-4x `spread` from its cluster
    mean, displaced toward the global grand mean: a clear local outlier
    whose global centroid-L2 score drops below ordinary tokens once several
    clusters dilute the centroid. `shuffle` permutes the sequence layout for
    the adversarial interleaved variant. Keys are drawn ROW_CHUNK rows at a
    time into one float64 buffer and cast into place: one Philox stream, the
    bits of casting the whole (n, d) float64 matrix.
    """
    args = dict(locals())
    if k_clusters < 1:
        raise ValidationError(f"k_clusters must be >= 1, got {k_clusters}")
    if k_clusters > d:
        raise ValidationError(
            f"need k_clusters <= d for orthonormal cluster directions, got {k_clusters} > {d}"
        )
    if n < 4 * k_clusters:
        raise ValidationError(f"n must be >= 4 * k_clusters, got n={n}, k={k_clusters}")
    if spread <= 0 or separation <= 0:
        raise ValidationError("spread and separation must be positive")
    _check_size(n, d)
    rng = _rng(seed)
    dirs, _ = np.linalg.qr(rng.normal(size=(d, k_clusters)))
    dirs = dirs.T  # (K, d) orthonormal rows
    means = separation * dirs
    block, remainder = divmod(n, k_clusters)  # the first `remainder` clusters get one more token
    starts = [i * block + min(i, remainder) for i in range(k_clusters + 1)]
    bounds = list(zip(starts, starts[1:]))

    out = np.empty((1, 1, n, d), dtype=np.float32)
    buf = np.empty((min(n, ROW_CHUNK), d))
    needles = []
    per_coord = spread / np.sqrt(d)
    # values beyond float32 range become inf in the casts, which KeyTensor reports
    with np.errstate(over="ignore"):
        for i, (lo, hi) in enumerate(bounds):
            # the stream and bits of means[i] + rng.normal(0.0, per_coord, ...), a block at a time
            for start in range(lo, hi, ROW_CHUNK):
                rows = rng.standard_normal(out=buf[: min(start + ROW_CHUNK, hi) - start])
                rows *= per_coord
                rows += means[i]
                out[0, 0, start : start + len(rows)] = rows
            radius = rng.uniform(3.0, 4.0) * spread
            pos = int(rng.integers(max(lo, 1), min(hi, n - 1)))
            out[0, 0, pos] = means[i] - radius * dirs[i]
            needles.append(pos)

    if shuffle:
        perm = rng.permutation(n)
        out = np.take(out, perm, axis=2)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        needles = [int(inverse[p]) for p in needles]

    return _as_scenario("clusters", KeyTensor(freeze(out)), needles, args,
                        block_bounds=[[lo, hi] for lo, hi in bounds],
                        cluster_means=means.tolist())


def gen_collision_scenario(
    magnitudes: list[float], epsilon: float, n: int, d: int, seed: int
) -> Scenario:
    """Several needles sharing one direction with distinct magnitudes.

    Commons are unit vectors with balanced angular jitter epsilon around a
    random unit direction u; each needle is m * u exactly for one magnitude
    m. All needles are indistinguishable (and maximally typical) to
    direction-only scorers, while centroid-L2 separates them by magnitude.
    """
    magnitudes = [float(m) for m in magnitudes]
    args = dict(locals())
    if not magnitudes:
        raise ValidationError("magnitudes must be non-empty")
    if any(m <= 1.0 for m in magnitudes):
        raise ValidationError(f"all magnitudes must be > 1, got {magnitudes}")
    if n <= len(magnitudes) + 2:
        raise ValidationError(f"n must exceed len(magnitudes) + 2, got n={n}")
    if d < 2:
        raise ValidationError(f"d must be >= 2, got {d}")
    if epsilon <= 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    _check_size(n, d)
    rng = _rng(seed)
    direction = _unit(rng.normal(size=d))
    n_common = n - len(magnitudes)
    jitter = _balanced_units(rng, n_common, d, direction)
    commons = (direction + epsilon * jitter) / np.sqrt(1.0 + epsilon**2)
    positions = _needle_positions(rng, len(magnitudes), n)
    keys = _with_needles(commons, positions, [m * direction for m in magnitudes])
    return _as_scenario("collision", _as_tensor(keys), positions, args,
                        direction=direction.tolist(),
                        needle_positions=[int(p) for p in positions])


def gen_queries(scenario: Scenario, n_queries: int, mode: str, seed: int) -> KeyTensor:
    """Queries for attention-based scoring against a scenario, in the
    scenario's (batch, heads) frame and at its head_dim.

    random: ambient Gaussian queries. needle_probing: queries cycle through
    the needle keys of the scenario's first (batch, head), so attention
    concentrates on the needles (a retrieval-style workload). One
    (n_queries, head_dim) draw serves every (batch, head).
    """
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    if mode not in QUERY_MODES:
        raise ValidationError(f"mode must be one of {QUERY_MODES}, got {mode!r}")
    rng = _rng(seed)
    if mode == "random":
        q = rng.normal(size=(n_queries, scenario.keys.head_dim))
    else:
        if not scenario.needles:
            raise ValidationError("needle_probing requires a scenario with needles")
        base = scenario.keys.data[0, 0, list(scenario.needles)]
        q = base[np.resize(np.arange(len(scenario.needles)), n_queries)]
    out = np.empty(scenario.keys.shape[:2] + q.shape, dtype=np.float32)
    np.copyto(out, q, casting="same_kind")  # the same draw for every (batch, head)
    return KeyTensor(freeze(out))


_GENERATORS = {"subspace": gen_subspace_scenario, "radial": gen_radial_failure,
               "clusters": gen_cluster_mixture, "collision": gen_collision_scenario}
SCENARIO_KINDS = tuple(_GENERATORS)


def regenerate(kind: str, params: dict) -> Scenario:
    """Rebuild a scenario from its kind and echoed input params.

    Each argument's value must have the JSON type its generator annotates.
    """
    if not isinstance(kind, str) or kind not in _GENERATORS:
        raise ValidationError(f"unknown scenario kind {kind!r}")
    fn = _GENERATORS[kind]
    arg_types = get_type_hints(fn)
    del arg_types["return"]
    missing = [a for a in arg_types if a not in params]
    if missing:
        raise ValidationError(f"scenario params missing {missing} for kind {kind!r}")
    return fn(**{
        a: json_value(t, params[a], f"scenario param {a!r}") for a, t in arg_types.items()
    })


def save_sidecar(scenario: Scenario, path) -> None:
    write_json(path, scenario.sidecar_obj())


def load_sidecar(path) -> Scenario:
    """Regenerate a scenario from its JSON sidecar alone."""
    obj = parse_file(path, json.loads, "sidecar JSON")
    if not isinstance(obj, dict):
        raise ValidationError(f"sidecar root must be an object, got {type(obj).__name__}")
    for key in ("kind", "params", "needles"):
        if key not in obj:
            raise ValidationError(f"sidecar missing {key!r}")
    if not isinstance(obj["params"], dict):
        raise ValidationError(f"sidecar params must be an object, got {obj['params']!r}")
    needles = json_value(list[int], obj["needles"], "sidecar needles")
    scenario = regenerate(obj["kind"], obj["params"])
    if list(scenario.needles) != needles:
        raise ValidationError("sidecar needles do not match regenerated scenario")
    return scenario
