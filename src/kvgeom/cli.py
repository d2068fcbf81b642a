"""Command-line front end.

Configuration comes from a JSON file (--config) overridden by explicit
flags; flags always win. Exit codes: 0 success, 2 validation failure
(a request too large for memory included), 3 I/O failure,
4 numerical/estimation failure. Failures print a
machine-readable JSON object to stderr. The KVM_SEED environment variable
(comma-separated integers) overrides the built-in default seed list.

Each option is declared once, as a row of its command in `_COMMANDS`; the
parser, the help text, the defaults, the typing of config values, the
required checks and the range checks all come from those rows, and a config
file's keys are exactly those rows (--config is the parser's own flag). Two
rules hand the options on: an option's config key is the library parameter
it sets (a sweep is passed each option whose key names one of its
parameters), and a report prints what reached its rows: its options but --out
and --format, or (score, compare, sweeps) the inputs, labels and arguments used.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, get_args, get_origin

import numpy as np

from .errors import EXPECTED, EstimationError, ValidationError, json_value, parse_file
from .eviction import (
    BUDGET_MODES,
    allocate_head_budgets,
    budget,
    compress_cache,
    retention_from_scores,
)
from .experiments import (
    DEFAULT_SEEDS,
    compare_methods,
    dilution_sweep,
    paired_ttest,
    run_retention,
    separation_test,
    window_ablation,
)
from .manifold import estimate_dimensions
from .report import Columns, Report, write_json
from .scorers import METHOD_TABLE, METHODS, ScorerSpec, compute_scores
from .synth import (
    SCENARIO_KINDS,
    Scenario,
    load_sidecar,
    regenerate,
    save_sidecar,
)
from .tensor import KeyTensor, load_kvt, one_blas_thread, save_kvt


@dataclass
class Option:
    """One command-line option, declared once.

    Its config key is the flag without dashes (inner dashes as underscores),
    which also names its value in RunConfig.options. `type` is str, int,
    float, bool (a store_true switch) or a list of one of the first three,
    written on the command line comma-separated. `choices` constrain the
    value, or each element of a list. `check` takes the final value and
    returns its error message, or a false value when the value is valid.
    """

    flag: str
    type: object = str
    default: object = None
    help: str = ""
    required: bool = False
    choices: tuple = ()
    check: Callable | None = None

    def __post_init__(self):
        self.key = self.flag[2:].replace("-", "_")


class _Command(NamedTuple):
    summary: str
    options: tuple
    handler: Callable


def _command(handler: Callable, summary: str, *options: Option) -> _Command:
    return _Command(summary, options, handler)


def _method(**kwargs) -> Option:
    return Option("--method", help=f"scoring method, one of: {', '.join(METHODS)}",
                  choices=METHODS, **kwargs)


def _scorer_options(obs_window=None, queries=True) -> tuple:
    """The method parameter flags; `queries=False` leaves out --queries, for a
    command that generates its own queries."""
    options = (
        Option("--window", int, help="window size in tokens (windowed method)"),
        Option("--lambda", float, help="mixing weight in [0, 1] (hybrid method)"),
        Option("--obs-window", int, obs_window,
               help="number of trailing queries to observe (obs_attention method)"),
    )
    if queries:
        options += (Option("--queries", help="KVT1 query tensor (obs_attention method)"),)
    return options


def _rho(default) -> Option:
    return Option("--rho", float, default, help="compression ratio in [0, 1)",
                  check=lambda v: not 0.0 <= v < 1.0 and f"--rho must be in [0, 1), got {v}")


_OUT = Option("--out", required=True, help="output report path")
_FORMAT = Option("--format", default="csv", choices=("csv", "json"),
                 help="report format: csv or json")
# the options every sweep ends with
_SWEEP = (
    Option("--seeds", list[int], ",".join(map(str, DEFAULT_SEEDS)), help="seed list",
           check=lambda v: not v and "--seeds must list at least one seed"),
    Option("--jobs", int, 1, help="parallel sweep workers",
           check=lambda v: v < 1 and f"--jobs must be >= 1, got {v}"),
    _OUT,
    _FORMAT,
)


@dataclass
class RunConfig:
    command: str
    options: dict


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _fmt(prog):
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="kvgeom",
        description="Geometric KV-cache compression toolkit: scorers, eviction, "
        "dimension estimators, and synthetic retention experiments.",
        formatter_class=_fmt,
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.summary, description=command.summary,
                           formatter_class=_fmt)
        p.add_argument("--config", help="JSON config file; explicit flags override its values")
        for o in command.options:
            if o.required:
                note = " (required)"
            elif o.default is not None:
                note = f" (default: {o.default})"
            else:
                note = ""
            # values stay text here; parse_config converts flag, config and default alike
            action = "store_true" if o.type is bool else "store"
            p.add_argument(o.flag, dest=o.key, default=None, action=action, help=o.help + note)
    return parser


def _from_text(kind, text: str, name: str):
    """The command-line converter: `text` as a value of `kind`, lists comma-separated."""
    element = get_args(kind)[0] if get_origin(kind) is list else None
    try:
        if element is None:
            return kind(text)
        return [element(tok.strip()) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"{name}: expected {EXPECTED[kind]}, got {text!r}") from None


def _coerce(o: Option, value):
    """A default, config or flag value as the option's type.

    The value must have the option's own JSON type, or be a string that goes
    through the same converter as the command-line flag into that type;
    anything else, null included, is a ValidationError naming the option.
    """
    name = f"{o.flag} (config key {o.key!r})"
    if isinstance(value, str) and o.type is not bool:
        value = _from_text(o.type, value, name)
    value = json_value(o.type, value, name)
    for v in value if isinstance(value, list) else [value]:
        if o.choices and v not in o.choices:
            raise ValidationError(f"{o.flag} must be one of {', '.join(o.choices)}, got {v!r}")
    return value


def _load_json_config(path, command: str, table: dict) -> dict:
    obj = parse_file(path, json.loads, "JSON")
    if not isinstance(obj, dict):
        raise ValidationError(f"config root must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(table)
    if unknown:
        raise ValidationError(
            f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}"
        )
    return obj


def parse_config(argv) -> RunConfig:
    """argv -> validated RunConfig. Precedence: flags > JSON config > KVM_SEED > defaults."""
    ns = build_parser().parse_args(argv)
    if ns.command is None:
        raise ValidationError("no command given; see --help")
    command = ns.command
    table = {o.key: o for o in _COMMANDS[command].options}
    sources = [{key: o.default for key, o in table.items() if o.default is not None}]
    env = os.environ.get("KVM_SEED")
    if env and ("seeds" in table or "seed" in table):
        seeds = _from_text(list[int], env, "KVM_SEED")
        if not seeds:
            raise ValidationError(f"KVM_SEED must list at least one seed, got {env!r}")
        sources.append({"seeds": seeds} if "seeds" in table else {"seed": seeds[0]})
    if ns.config is not None:
        sources.append(_load_json_config(ns.config, command, table))
    sources.append({k: v for k, v in vars(ns).items() if k in table and v is not None})

    # every value of every source is checked, also one a later source overrides;
    # a switch is False unless set
    options = {key: False if o.type is bool else None for key, o in table.items()}
    for source in sources:
        for key, value in source.items():
            options[key] = _coerce(table[key], value)
    for o in table.values():
        if o.required and options[o.key] is None:
            raise ValidationError(f"{command}: {o.flag} is required")
    for o in table.values():
        if o.check and (message := o.check(options[o.key])):
            raise ValidationError(message)
    _validate(command, options)
    return RunConfig(command=command, options=options)


def _validate(command: str, opts: dict) -> None:
    """The rules across options, which no one option's row states."""
    if command == "gen" and opts["from_sidecar"] is None and opts["kind"] is None:
        raise ValidationError("gen: either --kind or --from-sidecar is required")
    if command == "compare":
        if opts["input"] is None and opts["sidecar"] is None:
            raise ValidationError("compare: either --input or --sidecar is required")
        if len(opts["methods"]) < 2:
            raise ValidationError("compare: --methods needs at least two methods")


def _scorer_spec(opts) -> ScorerSpec:
    row = METHOD_TABLE[opts["method"]]  # a method's parameter, if any, is its row's option
    return ScorerSpec(opts["method"], opts[row.key] if row.key else None)


def _load_queries(opts, methods) -> KeyTensor | None:
    """The --queries tensor, read only when one of `methods` is obs_attention:
    the other methods ignore the flag, as they ignore --window."""
    if "obs_attention" not in methods:
        return None
    path = opts.get("queries")
    if path is None:
        if opts.get("method") == "obs_attention":
            raise ValidationError("--method obs_attention requires --queries")
        return None
    return load_kvt(path)


def _write_report(opts, name: str, columns: list, rows) -> None:
    """Write `rows` to --out in --format, with the options but --out and --format as metadata."""
    metadata = {k: v for k, v in opts.items() if k not in ("out", "format")}
    Report(name, columns, rows, metadata).write(opts["out"], opts["format"])


def _wrote(opts, report: Report, detail: str = "") -> int:
    """Write a library-built `report` to --out in --format, print that it did
    (and `detail`, if any), and return the command's exit status, 0."""
    report.write(opts["out"], opts["format"])
    print(f"{report.name}: wrote {opts['out']} ({len(report.rows)} rows)"
          + (detail and f"; {detail}"))
    return 0


def _cmd_score(opts) -> int:
    keys = load_kvt(opts["input"])
    spec = _scorer_spec(opts)
    queries = _load_queries(opts, [spec.method])
    scores = compute_scores(spec, keys, queries=queries)
    batch, head, token = np.indices(scores.data.shape).reshape(3, -1)
    rows = Columns(batch=batch, head=head, token=token, score=scores.data.ravel())
    report = Report(
        name="score",
        columns=["batch", "head", "token", "score"],
        rows=rows,
        metadata={"input": opts["input"], "method": spec.label(),
                  **({} if queries is None else {"queries": opts["queries"]})},
    )
    # built, and checked against the float32 range, before any output is written
    score_kvt = scores.to_key_tensor() if opts.get("out_kvt") else None
    report.write(opts["out"], "csv")
    if score_kvt is not None:
        save_kvt(score_kvt, opts["out_kvt"])
    print(f"score: wrote {opts['out']} ({len(rows)} rows, method={spec.label()})")
    return 0


def _cmd_compress(opts) -> int:
    cache = [load_kvt(opts["keys"]), load_kvt(opts["values"])]
    spec = _scorer_spec(opts)
    scores = compute_scores(spec, cache[0], queries=_load_queries(opts, [spec.method]))
    budgets = allocate_head_budgets(scores, opts["rho"], opts["mode"])
    retained = retention_from_scores(scores, budgets)
    # the pops hand compress_cache the only references to keys and values,
    # so it can free the keys before it allocates the values' output
    compressed = compress_cache(cache.pop(0), cache.pop(), retained)
    save_kvt(compressed.keys, opts["out_keys"])
    save_kvt(compressed.values, opts["out_values"])
    write_json(opts["out_mask"], compressed.mask_json_obj())
    if opts.get("out_retained"):
        write_json(opts["out_retained"], retained.to_json_obj())
    print(
        f"compress: {retained.seq_len} -> {compressed.keys.seq_len} tokens/head "
        f"(rho={opts['rho']}, mode={opts['mode']}, method={spec.label()})"
    )
    return 0


def _gen_scenario(opts) -> Scenario:
    if opts["from_sidecar"]:
        return load_sidecar(opts["from_sidecar"])
    epsilon = opts["epsilon"]
    if epsilon is None:
        epsilon = 10.0 if opts["kind"] == "subspace" else 0.1
    return regenerate(opts["kind"], {**opts, "epsilon": epsilon})


def _cmd_gen(opts) -> int:
    scenario = _gen_scenario(opts)
    save_kvt(scenario.keys, opts["out_keys"])
    save_sidecar(scenario, opts["out_meta"])
    print(
        f"gen: {scenario.kind} scenario with {scenario.seq_len} tokens, "
        f"{len(scenario.needles)} needles -> {opts['out_keys']}"
    )
    return 0


def _by_name(fn, opts, **given):
    """`fn(**given)`, also passed each option whose config key names one of its parameters."""
    names = inspect.signature(fn).parameters
    return fn(**{k: v for k, v in opts.items() if k in names}, **given)


def _cmd_dilution(opts) -> int:
    report = _by_name(dilution_sweep, opts)
    worst = max((r for r in report.rows if r["row"] == "mean"), key=lambda r: r["gap"])
    return _wrote(opts, report,
                  f"max windowed-global gap {worst['gap']:.3f} at K={worst['k_clusters']}")


def _cmd_ablation(opts) -> int:
    report = _by_name(window_ablation, opts)
    return _wrote(opts, report, f"best window {report.metadata['best_window']}")


def _cmd_dim_estimate(opts) -> int:
    keys = load_kvt(opts["input"])
    rows = []
    if opts["pooled"]:
        points = keys.data.reshape(-1, keys.head_dim).astype(np.float64)
        del keys  # only the float64 points are read from here on
        rep = estimate_dimensions(points, opts["threshold"], opts["k_neighbors"])
        rows.append({"row": "pooled", "batch": -1, "head": -1, **rep.to_dict()})
    else:
        for b in range(keys.batch):
            for h in range(keys.heads):
                rep = estimate_dimensions(keys.matrix(b, h), opts["threshold"], opts["k_neighbors"])
                rows.append({"row": "per_head", "batch": b, "head": h, **rep.to_dict()})
    columns = ["row", "batch", "head", "pca_d95", "twonn", "mle", "pca_ratio",
               "n_points", "ambient_dim", "discarded_pairs"]
    _write_report(opts, "dim-estimate", columns, rows)
    first = rows[0]
    print(
        f"dim-estimate: wrote {opts['out']} ({len(rows)} reports); "
        f"first: pca_d95={first['pca_d95']} twonn={first['twonn']:.2f} mle={first['mle']:.2f}"
    )
    return 0


def _cmd_collision_demo(opts) -> int:
    scenario = regenerate("collision", opts)
    rows = []
    for method in ("manifold", "keydiff"):
        result = run_retention(scenario, ScorerSpec(method), opts["rho"])
        rows.append({
            "method": method,
            "retained_needles": result.retained_needles,
            "total_needles": result.total_needles,
            "retention": result.retention_rate,
        })
        print(
            f"collision-demo: {method} retained {result.retained_needles}/"
            f"{result.total_needles} needles at rho={opts['rho']} "
            f"(budget={budget(scenario.seq_len, opts['rho'])})"
        )
    if opts.get("out"):
        _write_report(opts, "collision-demo",
                      ["method", "retained_needles", "total_needles", "retention"], rows)
        print(f"collision-demo: wrote {opts['out']}")
    return 0


def _cmd_separation(opts) -> int:
    report = _by_name(separation_test, opts, spec=_scorer_spec(opts))
    tail = report.rows[-1]  # the last grid point's mean row
    return _wrote(opts, report, f"success fraction {tail['success']:.2f} at n={tail['n']}")


def _cmd_compare(opts) -> int:
    if opts.get("sidecar"):
        scenario = load_sidecar(opts["sidecar"])
    else:
        keys = load_kvt(opts["input"])
        scenario = Scenario(kind="file", keys=keys, needles=(),
                            params={"seed": 0, "path": str(opts["input"])})
    specs = [_scorer_spec({**opts, "method": method}) for method in opts["methods"]]
    queries = _load_queries(opts, opts["methods"])
    report = compare_methods(scenario, specs, opts["rho"], queries=queries)
    report.metadata.update({} if queries is None else {"queries": opts["queries"]})
    return _wrote(opts, report)


def _read_csv_column(path, col: str) -> list:
    def column(text: str) -> list:
        body = [line for line in io.StringIO(text) if not line.startswith("#")]
        reader = csv.DictReader(body, restval="")
        if reader.fieldnames is None:
            raise ValidationError("empty CSV")
        name = col if col in reader.fieldnames else (
            reader.fieldnames[0] if len(reader.fieldnames) == 1 else None
        )
        if name is None:
            raise ValidationError(f"column {col!r} not found in {reader.fieldnames}")
        return [float(row[name]) for row in reader]

    return parse_file(path, column, "CSV")


def _cmd_ttest(opts) -> int:
    a = _read_csv_column(opts["a"], opts["col"])
    b = _read_csv_column(opts["b"], opts["col"])
    result = paired_ttest(a, b)
    print(
        f"ttest: n={result.n} mean_diff={result.mean_diff:.6g} "
        f"se={result.std_err:.6g} t={result.t_stat:.6g} p={result.p_value:.6g} "
        f"df={result.df}{' (degenerate)' if result.degenerate else ''}"
    )
    if opts.get("out"):
        columns = ["n", "mean_diff", "std_err", "t_stat", "p_value", "df", "degenerate"]
        _write_report(opts, "ttest", columns, [{c: getattr(result, c) for c in columns}])
        print(f"ttest: wrote {opts['out']}")
    return 0


# command -> (summary, options, handler); the parser, its help, config
# coercion, the required checks and the range checks all derive from this table.
_COMMANDS = {
    "score": _command(
        _cmd_score,
        "Score a KVT1 key tensor and write per-token scores as CSV.",
        Option("--input", required=True, help="KVT1 key tensor to score"),
        _method(required=True),
        *_scorer_options(),
        Option("--out", required=True, help="output CSV (columns batch,head,token,score)"),
        Option("--out-kvt", help="also write scores as a KVT1 tensor with head_dim=1"),
    ),
    "compress": _command(
        _cmd_compress,
        "Score, evict, and write the compressed cache.",
        Option("--keys", required=True, help="KVT1 key tensor"),
        Option("--values", required=True, help="KVT1 value tensor"),
        _method(default="manifold"),
        *_scorer_options(),
        _rho(0.2),
        Option("--mode", default="uniform", choices=BUDGET_MODES,
               help=f"budget allocation, one of: {', '.join(BUDGET_MODES)}"),
        Option("--out-keys", required=True, help="compressed keys (KVT1)"),
        Option("--out-values", required=True, help="compressed values (KVT1)"),
        Option("--out-mask", required=True, help="validity mask sidecar (JSON)"),
        Option("--out-retained", help="retained-index rows (JSON)"),
    ),
    "gen": _command(
        _cmd_gen,
        "Generate a synthetic scenario: keys (KVT1) plus a JSON sidecar.",
        Option("--kind", choices=SCENARIO_KINDS,
               help=f"scenario kind, one of: {', '.join(SCENARIO_KINDS)}"),
        Option("--from-sidecar", help="regenerate from an existing sidecar instead of --kind"),
        Option("--n", int, 1024, help="token count"),
        Option("--d", int, 64, help="head dimension"),
        Option("--seed", int, 0, help="scenario seed"),
        Option("--k", int, 9, help="subspace dimension (subspace kind)"),
        Option("--sigma", float, 1.0, help="in-plane spread (subspace kind)"),
        Option("--n-out", int, 8, help="needle count (subspace kind)"),
        Option("--epsilon", float,
               help="outlier offset / jitter; defaults to 10.0 for subspace, 0.1 otherwise"),
        Option("--strict-separation", bool,
               help="shrink the common cloud until epsilon > 3 * diam (subspace kind)"),
        Option("--center-scale", float, 10.0,
               help="cloud center offset in sigmas (subspace kind)"),
        Option("--alpha", float, 100.0, help="outlier magnitude (radial kind)"),
        Option("--k-clusters", int, 4, help="cluster count (clusters kind)"),
        Option("--spread", float, 1.0, help="cluster radius (clusters kind)"),
        Option("--separation", float, 10.0, help="cluster center radius (clusters kind)"),
        Option("--shuffle", bool, help="interleave cluster layout (clusters kind)"),
        Option("--magnitudes", list[float], "2,5,10", help="needle magnitudes (collision kind)"),
        Option("--out-keys", required=True, help="output keys (KVT1)"),
        Option("--out-meta", required=True, help="output sidecar (JSON)"),
    ),
    "dilution": _command(
        _cmd_dilution,
        "Sweep cluster diversity: global vs windowed retention.",
        Option("--k-grid", list[int], "1,4,16,32", help="cluster counts to sweep"),
        Option("--n", int, 16384, help="token count"),
        Option("--d", int, 128, help="head dimension"),
        _rho(0.25),
        Option("--window", int, help="window size in tokens; defaults to n / K per grid point"),
        Option("--spread", float, 1.0, help="cluster radius"),
        Option("--separation", float, 10.0, help="cluster center radius"),
        *_SWEEP,
    ),
    "ablation": _command(
        _cmd_ablation,
        "Sweep window sizes on a cluster mixture.",
        Option("--w-grid", list[int],
               help="window sizes to sweep; defaults to C/2,C,2C,4C,n for C = n/K"),
        Option("--n", int, 8192, help="token count"),
        Option("--d", int, 128, help="head dimension"),
        Option("--k-clusters", int, 16, help="cluster count",
               check=lambda v: v < 1 and f"--k-clusters must be >= 1, got {v}"),
        _rho(0.25),
        Option("--spread", float, 1.0, help="cluster radius"),
        Option("--separation", float, 10.0, help="cluster center radius"),
        *_SWEEP,
    ),
    "dim-estimate": _command(
        _cmd_dim_estimate,
        "Estimate intrinsic dimension of a KVT1 key tensor.",
        Option("--input", required=True, help="KVT1 key tensor"),
        Option("--pooled", bool, help="pool all (batch, head) slices into one point cloud "
               "instead of per-head reports"),
        Option("--threshold", float, 0.95, help="PCA explained-variance threshold"),
        Option("--k-neighbors", int, 10, help="neighbor count for the MLE estimator"),
        _OUT,
        _FORMAT,
    ),
    "collision-demo": _command(
        _cmd_collision_demo,
        "Plant same-direction needles of different magnitudes and compare scorers.",
        Option("--magnitudes", list[float], "2,5,10", help="needle magnitudes"),
        Option("--epsilon", float, 0.1, help="angular jitter of common tokens"),
        Option("--n", int, 256, help="token count"),
        Option("--d", int, 8, help="head dimension"),
        _rho(0.5),
        Option("--seed", int, 0, help="scenario seed"),
        Option("--out", help="optional report path"),
        _FORMAT,
    ),
    "separation": _command(
        _cmd_separation,
        "Retention at budget M = n_out across sample sizes.",
        Option("--k", int, 9, help="subspace dimension"),
        Option("--d", int, 128, help="head dimension"),
        Option("--sigma", float, 1.0, help="in-plane spread"),
        Option("--epsilon", float, 1.0, help="outlier offset"),
        Option("--n-grid", list[int], "512,1024,2048,4096", help="sample sizes to sweep"),
        Option("--n-out", int, 16, help="needle count and retention budget"),
        Option("--kind", default="subspace", choices=("subspace", "radial"),
               help="scenario flavor: subspace or radial"),
        Option("--alpha", float, 100.0, help="outlier magnitude (radial kind)"),
        _method(default="manifold"),
        *_scorer_options(queries=False),
        *_SWEEP,
    ),
    "compare": _command(
        _cmd_compare,
        "Pairwise score agreement and per-method retention.",
        Option("--input", help="KVT1 key tensor to compare on"),
        Option("--sidecar", help="scenario sidecar to regenerate and compare on"),
        Option("--methods", list[str], "manifold,keydiff", choices=METHODS,
               help="comma-separated scoring methods"),
        *_scorer_options(obs_window=16),
        _rho(0.2),
        _OUT,
        _FORMAT,
    ),
    "ttest": _command(
        _cmd_ttest,
        "Paired two-sided t-test between two report columns.",
        Option("--a", required=True, help="first CSV file"),
        Option("--b", required=True, help="second CSV file"),
        Option("--col", default="score",
               help="numeric column name (used when a file has several)"),
        Option("--out", help="optional report path"),
        _FORMAT,
    ),
}

COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig) -> int:
    """Execute a validated RunConfig; returns the process exit status."""
    return _COMMANDS[config.command].handler(config.options)


def _emit_error(code: int, exc: BaseException) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run argv's command (default: sys.argv[1:]) under `one_blas_thread`; return its exit code."""
    try:
        config = parse_config(argv)
        with one_blas_thread():
            return run(config)
    except (ValidationError, MemoryError) as exc:
        return _emit_error(2, exc)
    except OSError as exc:
        return _emit_error(3, exc)
    except (EstimationError, ArithmeticError) as exc:
        return _emit_error(4, exc)


if __name__ == "__main__":
    sys.exit(main())
