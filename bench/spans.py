"""Outside-in tracing of kvgeom: span-recording wrappers and per-layer metrics.

A traced worker replaces public kvgeom functions with wrappers that record a
span (id, name, thread, parent id, start ns, end ns, attributes). Each thread
keeps its own span stack, so spans opened by sweep worker threads nest under
their own thread's spans and never under another thread's. Spans stay in
memory and leave the worker in its result file.

A span's self time is its duration minus the durations of its children; all
times are integer nanoseconds, so per thread the self times add up exactly
to the root spans. Byte counts are computed from array shapes, not measured.
Standard library only.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). Classes are patched on the class; plain
# functions on every loaded kvgeom module that holds them, so callers that
# imported the name into their own namespace reach the wrapper too.
TARGETS = (
    ("kvgeom.cli", "parse_config", "cli.parse"),
    ("kvgeom.tensor", "load_kvt", "tensor.load"),
    ("kvgeom.tensor", "save_kvt", "tensor.save"),
    ("kvgeom.tensor", "KeyTensor.__post_init__", "tensor.keytensor"),
    ("kvgeom.tensor", "ScoreTensor.__post_init__", "tensor.scoretensor"),
    ("kvgeom.scorers", "compute_scores", "scorers.compute"),
    ("kvgeom.scorers", "manifold_score", "scorers.manifold"),
    ("kvgeom.scorers", "windowed_manifold_score", "scorers.windowed"),
    ("kvgeom.scorers", "keydiff_score", "scorers.keydiff"),
    ("kvgeom.scorers", "obs_attention_score", "scorers.obs_attention"),
    ("kvgeom.attention", "attention_weights", "attention.weights"),
    ("kvgeom.eviction", "allocate_head_budgets", "eviction.allocate"),
    ("kvgeom.eviction", "retention_from_scores", "eviction.retention"),
    ("kvgeom.eviction", "topk_select", "eviction.topk"),
    ("kvgeom.eviction", "compress_cache", "eviction.compress_cache"),
    ("kvgeom.manifold", "estimate_dimensions", "manifold.estimate"),
    ("kvgeom.manifold", "pca_effective_dim", "manifold.pca"),
    ("kvgeom.synth", "gen_cluster_mixture", "synth.gen"),
    ("kvgeom.experiments", "run_retention", "experiments.run_retention"),
    ("kvgeom.experiments", "dilution_sweep", "experiments.sweep"),
    ("kvgeom.experiments", "window_ablation", "experiments.sweep"),
    ("kvgeom.experiments", "_map_jobs", "experiments.map_jobs"),
    ("kvgeom.report", "Report.write", "report.write"),
)

_CLI = {"cli.main", "cli.parse", "report.write", "tensor.keytensor"}
_CACHE = _CLI | {"tensor.load", "scorers.compute", "tensor.scoretensor"}
_EVICT = (_CACHE - {"report.write"}) | {"eviction.allocate", "eviction.retention",
                                        "eviction.topk", "eviction.compress_cache", "tensor.save"}
_SWEEP = _CLI | {"synth.gen", "experiments.sweep", "experiments.map_jobs", "experiments.job",
                 "experiments.run_retention", "scorers.compute", "scorers.manifold",
                 "scorers.windowed", "eviction.retention", "eviction.topk",
                 "tensor.scoretensor"}
_DIM = _CLI | {"tensor.load", "manifold.estimate", "manifold.pca"}

# Span names each command kind must reach; a wrapper that is never hit
# (say, after a rename) fails the command instead of reporting zero.
REACHED = {
    "score": _CACHE | {"scorers.manifold"},
    "compress": _EVICT | {"scorers.manifold"},
    "compress_obs": _EVICT | {"scorers.obs_attention", "attention.weights"},
    "dilution": _SWEEP | {"scorers.keydiff"},
    "ablation": _SWEEP,
    "dim": _DIM,
    "dim_pooled": _DIM,
}

# name -> (unit, better); run.py adds the untraced command.* times, the
# needle retention and trace.overhead_s to the span-derived metrics.
PER_LAYER = {
    "import.scipy_s": ("s", "lower"),
    "import.numpy_s": ("s", "lower"),
    "import.kvgeom_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "tensor.load_s": ("s", "lower"),
    "tensor.save_s": ("s", "lower"),
    "tensor.load_bytes": ("B", "lower"),
    "tensor.save_bytes": ("B", "lower"),
    "tensor.keytensor_builds": ("count", "lower"),
    "tensor.keytensor_bytes": ("B", "lower"),
    "tensor.keytensor_s": ("s", "lower"),
    "tensor.scoretensor_builds": ("count", "lower"),
    "scorers.calls": ("count", "lower"),
    "scorers.manifold_s": ("s", "lower"),
    "scorers.windowed_s": ("s", "lower"),
    "scorers.keydiff_s": ("s", "lower"),
    "scorers.obs_attention_s": ("s", "lower"),
    "scorers.bytes_in": ("B", "lower"),
    "scorers.unique_ratio": ("ratio", "higher"),
    "eviction.allocate_s": ("s", "lower"),
    "eviction.topk_calls": ("count", "lower"),
    "eviction.topk_s": ("s", "lower"),
    "eviction.retention_s": ("s", "lower"),
    "eviction.compress_cache_s": ("s", "lower"),
    "eviction.gathered_bytes": ("B", "lower"),
    "attention.weights_s": ("s", "lower"),
    "attention.logit_bytes": ("B", "lower"),
    "manifold.estimate_s": ("s", "lower"),
    "manifold.pca_s": ("s", "lower"),
    "manifold.points": ("count", "lower"),
    "manifold.pairs": ("count", "lower"),
    "synth.gen_calls": ("count", "lower"),
    "synth.gen_s": ("s", "lower"),
    "synth.bytes": ("B", "lower"),
    "synth.unique_ratio": ("ratio", "higher"),
    "experiments.jobs": ("count", "lower"),
    "experiments.retention_calls": ("count", "lower"),
    "experiments.sweep_self_s": ("s", "lower"),
    "experiments.worker_busy_ratio": ("ratio", "higher"),
    "report.write_s": ("s", "lower"),
    "report.rows": ("count", "lower"),
    "report.bytes": ("B", "lower"),
    "experiments.needle_retention": ("ratio", "higher"),
    "command.score_s": ("s", "lower"),
    "command.compress_s": ("s", "lower"),
    "command.compress_obs_s": ("s", "lower"),
    "command.dilution_s": ("s", "lower"),
    "command.ablation_s": ("s", "lower"),
    "command.dim_s": ("s", "lower"),
    "command.dim_pooled_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# metric -> span name whose summed self time it is
_SELF = {
    "cli.parse_s": "cli.parse", "cli.self_s": "cli.main",
    "tensor.load_s": "tensor.load", "tensor.save_s": "tensor.save",
    "tensor.keytensor_s": "tensor.keytensor",
    "scorers.manifold_s": "scorers.manifold", "scorers.windowed_s": "scorers.windowed",
    "scorers.keydiff_s": "scorers.keydiff", "scorers.obs_attention_s": "scorers.obs_attention",
    "eviction.allocate_s": "eviction.allocate", "eviction.topk_s": "eviction.topk",
    "eviction.retention_s": "eviction.retention",
    "eviction.compress_cache_s": "eviction.compress_cache",
    "attention.weights_s": "attention.weights",
    "manifold.estimate_s": "manifold.estimate", "manifold.pca_s": "manifold.pca",
    "synth.gen_s": "synth.gen", "experiments.sweep_self_s": "experiments.sweep",
    "report.write_s": "report.write",
}
# metric -> span name whose calls it counts
_COUNT = {
    "tensor.keytensor_builds": "tensor.keytensor",
    "tensor.scoretensor_builds": "tensor.scoretensor",
    "scorers.calls": "scorers.compute", "eviction.topk_calls": "eviction.topk",
    "synth.gen_calls": "synth.gen", "experiments.jobs": "experiments.job",
    "experiments.retention_calls": "experiments.run_retention",
}
# metric -> (span name, attribute) summed over calls
_ATTR = {
    "tensor.load_bytes": ("tensor.load", "bytes"),
    "tensor.save_bytes": ("tensor.save", "bytes"),
    "tensor.keytensor_bytes": ("tensor.keytensor", "bytes"),
    "scorers.bytes_in": ("scorers.compute", "bytes"),
    "eviction.gathered_bytes": ("eviction.compress_cache", "bytes"),
    "attention.logit_bytes": ("attention.weights", "bytes"),
    "manifold.points": ("manifold.estimate", "points"),
    "manifold.pairs": ("manifold.estimate", "pairs"),
    "synth.bytes": ("synth.gen", "bytes"),
    "report.rows": ("report.write", "rows"),
    "report.bytes": ("report.write", "bytes"),
}
# ratio metric -> (numerator, denominator) parts summed over a cycle's commands
RATIOS = {
    "scorers.unique_ratio": ("scorers.distinct", "scorers.calls"),
    "synth.unique_ratio": ("synth.distinct", "synth.gen_calls"),
    "experiments.worker_busy_ratio": ("experiments.busy_ns", "experiments.capacity_ns"),
}
IMPORT_PREFIXES = {"import.scipy_s": "scipy", "import.numpy_s": "numpy",
                   "import.kvgeom_s": "kvgeom"}
# spans whose attributes _attrs records
_ATTR_SPANS = {name for name, _ in _ATTR.values()} | {"scorers.compute", "experiments.sweep"}


# ------------------------------------------------------------------ recording

def _fingerprint(arr) -> tuple:
    flat = arr.reshape(-1)
    step = max(1, flat.size // 4096)
    return arr.shape, hashlib.blake2b(flat[::step].tobytes(), digest_size=16).hexdigest()


def _kvt_bytes(t) -> int:
    return 20 + t.data.nbytes


def _attrs(name: str, bound: dict, result) -> dict | None:
    """Counts recorded at a span boundary; byte counts come from shapes."""
    if name == "tensor.load":
        return {"bytes": _kvt_bytes(result)}
    if name == "tensor.save":
        return {"bytes": _kvt_bytes(bound["t"])}
    if name == "tensor.keytensor":
        return {"bytes": bound["self"].data.nbytes}
    if name == "scorers.compute":
        spec, keys = bound["spec"], bound["keys"]
        return {"bytes": keys.data.nbytes,
                "key": repr((spec, _fingerprint(keys.data)))}
    if name == "attention.weights":
        q, k = bound["queries"], bound["keys"]
        return {"bytes": 8 * q.batch * q.heads * q.seq_len * k.seq_len}
    if name == "eviction.compress_cache":
        kept = int(sum(len(i) for row in bound["retained"].indices for i in row))
        return {"bytes": 4 * kept * (bound["keys"].head_dim + bound["values"].head_dim)}
    if name == "manifold.estimate":
        n = len(bound["points"])
        return {"points": n, "pairs": n * n}
    if name == "synth.gen":
        return {"bytes": result.keys.data.nbytes,
                "key": repr(sorted(bound.items()))}
    if name == "experiments.sweep":
        return {"jobs": int(bound["jobs"])}
    if name == "report.write":
        return {"rows": len(bound["self"].rows), "bytes": os.path.getsize(bound["path"])}
    return None


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans = []
        self.installed = {}
        self._ids = iter(range(1, sys.maxsize))
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, jobs_fn: bool = False):
        signature = inspect.signature(fn) if name in _ATTR_SPANS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if jobs_fn:  # _map_jobs(jobs, fn, args_list): trace each job
                args = (args[0], tracer.wrap("experiments.job", args[1]), *args[2:])
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans.append((sid, name, threading.get_ident(), parent, start,
                                     time.perf_counter_ns(), None))
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            attrs = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = _attrs(name, bound.arguments, result)
            tracer.spans.append((sid, name, threading.get_ident(), parent, start, end, attrs))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on each kvgeom module that holds it.

        Raises LookupError when a target no longer exists.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "kvgeom" or key.startswith("kvgeom."))]
        for module_name, attr, name in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                raise LookupError(f"trace target module {module_name} is not loaded")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    raise LookupError(f"trace target {module_name}.{attr} is missing")
                setattr(cls, meth, self.wrap(name, vars(cls)[meth]))
                self.installed[f"{module_name}.{attr}"] = [module_name]
                continue
            original = getattr(owner, attr, None)
            if original is None:
                raise LookupError(f"trace target {module_name}.{attr} is missing")
            wrapper = self.wrap(name, original, jobs_fn=(attr == "_map_jobs"))
            holders = []
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        holders.append(f"{module.__name__}.{key}")
            self.installed[f"{module_name}.{attr}"] = holders

    def run_root(self, fn, *args):
        """Call `fn` as the root span "cli.main" of the main thread."""
        return self.wrap("cli.main", fn)(*args)


# ---------------------------------------------------------------- aggregation

def self_times(spans: list) -> dict:
    """span id -> self time in ns (duration minus its children's durations)."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for sid, _, _, parent, start, end, _ in spans:
        if parent:
            own[parent] -= end - start
    return own


def check_spans(spans: list) -> list:
    """Errors if a self time is negative or a thread's self times do not sum
    exactly to its root spans."""
    own = self_times(spans)
    errors = [f"span {s[1]} has negative self time {own[s[0]]} ns"
              for s in spans if own[s[0]] < 0]
    by_thread = defaultdict(int)
    roots = defaultdict(int)
    for sid, _, thread, parent, start, end, _ in spans:
        by_thread[thread] += own[sid]
        if not parent:
            roots[thread] += end - start
    errors += [f"thread {t}: self times sum to {by_thread[t]} ns, roots to {roots[t]} ns"
               for t in by_thread if by_thread[t] != roots[t]]
    return errors


def import_times(stderr_text: str) -> dict:
    """Self import time in s per top-level package, from `python -X importtime`."""
    totals = dict.fromkeys(IMPORT_PREFIXES, 0.0)
    prefix_of = {p: m for m, p in IMPORT_PREFIXES.items()}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        metric = prefix_of.get(parts[2].strip().split(".")[0])
        if metric:
            totals[metric] += int(parts[0]) / 1e6
    return totals


def command_parts(spans: list) -> dict:
    """Additive per-layer parts of one traced command (no ratios yet)."""
    own = self_times(spans)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    attr = defaultdict(int)
    keys = defaultdict(set)
    dur = {s[0]: s[5] - s[4] for s in spans}
    busy = capacity = 0
    for sid, name, _, _, start, end, attrs in spans:
        self_ns[name] += own[sid]
        calls[name] += 1
        if name == "experiments.job":
            busy += end - start
        for key, value in (attrs or {}).items():
            if key == "key":
                keys[name].add(value)
            elif key == "jobs":
                capacity += value * dur[sid]
            else:
                attr[(name, key)] += value
    parts = {m: self_ns[n] / 1e9 for m, n in _SELF.items()}
    parts.update({m: calls[n] for m, n in _COUNT.items()})
    parts.update({m: attr[k] for m, k in _ATTR.items()})
    parts["scorers.distinct"] = len(keys["scorers.compute"])
    parts["synth.distinct"] = len(keys["synth.gen"])
    parts["experiments.busy_ns"] = busy
    parts["experiments.capacity_ns"] = capacity
    return parts


def finish(parts: dict) -> dict:
    """Per-layer metrics from parts summed over commands; absent layers read 0."""
    out = {m: v for m, v in parts.items() if m in PER_LAYER}
    for metric, (num, den) in RATIOS.items():
        out[metric] = parts[num] / parts[den] if parts.get(den) else 0.0
    return out


def reached(spans: list, kind: str) -> list:
    seen = {s[1] for s in spans}
    return sorted(REACHED[kind] - seen)
