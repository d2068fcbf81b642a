import contextlib
import csv
import functools
import io
import json
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from typing import get_args, get_origin
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvgeom import (
    METHODS,
    EstimationError,
    KeyTensor,
    SCENARIO_KINDS,
    ScorerSpec,
    compute_scores,
    gen_cluster_mixture,
    gen_collision_scenario,
    gen_radial_failure,
    gen_subspace_scenario,
    load_kvt,
    manifold_score,
    save_kvt,
    save_sidecar,
)
from kvgeom import cli, manifold, tensor
from kvgeom.cli import COMMANDS, build_parser, main, parse_config
from kvgeom.scorers import METHOD_TABLE
from kvgeom.tensor import freeze

from conftest import random_tensor, rng

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_report_csv(path):
    body = [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


@pytest.fixture
def keys_file(tmp_path):
    path = tmp_path / "keys.kvt"
    save_kvt(random_tensor(0, batch=1, heads=2, seq=12, dim=4), path)
    return path


class TestHelp:
    def test_golden_help(self):
        parser = build_parser()
        subs = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0].choices
        sections = [parser.format_help()]
        for name in COMMANDS:
            sections.append("=" * 72)
            sections.append(subs[name].format_help())
        assert "\n".join(sections) == (DATA / "help_golden.txt").read_text()

    def test_every_default_is_documented(self):
        parser = build_parser()
        subs = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0].choices
        for name in COMMANDS:
            text = " ".join(subs[name].format_help().split())
            for o in cli._COMMANDS[name].options:
                if o.default is not None:
                    assert f"(default: {o.default})" in text, (name, o.key)

    def test_method_choices_are_the_scorer_table(self):
        rows = [(name, o) for name, c in cli._COMMANDS.items() for o in c.options
                if o.flag in ("--method", "--methods")]
        assert {name for name, _ in rows} == {"score", "compress", "separation", "compare"}
        assert all(o.choices == METHODS for _, o in rows)

    def test_scorer_options_set_the_spec_fields(self):
        # each method's parameter flag lands under its table row's key, and from
        # there in the spec's one parameter
        required = {
            "score": ["--input", "k.kvt", "--out", "s.csv"],
            "compress": ["--keys", "k.kvt", "--values", "v.kvt", "--out-keys", "a",
                         "--out-values", "b", "--out-mask", "c"],
            "separation": ["--out", "o.csv"],
            "compare": ["--input", "k.kvt", "--out", "o.csv"],
        }
        flags = (("windowed", "--window", "window", 5), ("hybrid", "--lambda", "lambda", 0.3),
                 ("obs_attention", "--obs-window", "obs_window", 4))
        for name, argv in required.items():
            for method, flag, key, value in flags:
                picked = ["--methods", f"manifold,{method}"] if name == "compare" else [
                    "--method", method]
                opts = parse_config([name, *argv, *picked, flag, str(value)]).options
                assert opts[key] == value and METHOD_TABLE[method].key == key, (name, flag)
                spec = cli._scorer_spec({**opts, "method": method})
                assert spec == ScorerSpec(method, value), (name, flag)

    def test_all_commands_registered(self):
        parser = build_parser()
        subs = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0].choices
        assert set(subs) == set(COMMANDS)


class TestParseConfig:
    def test_flag_overrides_json(self, tmp_path, keys_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho": 0.2, "keys": str(keys_file)}))
        config = parse_config([
            "compress", "--config", str(cfg), "--rho", "0.5",
            "--values", "v.kvt", "--out-keys", "a", "--out-values", "b", "--out-mask", "c",
        ])
        assert config.options["rho"] == 0.5
        assert config.options["keys"] == str(keys_file)

    def test_json_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": "x.csv", "b": "y.csv"}))
        config = parse_config(["ttest", "--config", str(cfg)])
        assert config.options["a"] == "x.csv"

    def test_json_lambda_alias(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.3}))
        config = parse_config([
            "score", "--config", str(cfg), "--input", "k.kvt",
            "--method", "hybrid", "--out", "s.csv",
        ])
        assert config.options["lambda"] == 0.3

    def test_kvm_seed_env_overrides_default(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KVM_SEED", "7,8")
        config = parse_config(["dilution", "--out", str(tmp_path / "o.csv")])
        assert config.options["seeds"] == [7, 8]

    def test_explicit_seeds_beat_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("KVM_SEED", "7,8")
        config = parse_config([
            "dilution", "--out", str(tmp_path / "o.csv"), "--seeds", "1,2,3",
        ])
        assert config.options["seeds"] == [1, 2, 3]

    def test_json_values_typed_or_converted_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": "2", "window": "8", "k_grid": [1, 4], "spread": 1,
                                   "seeds": "3, 4", "rho": "0.5"}))
        opts = parse_config(["dilution", "--config", str(cfg), "--out", "o.csv"]).options
        assert opts["jobs"] == 2 and opts["window"] == 8
        assert opts["k_grid"] == [1, 4] and opts["seeds"] == [3, 4]
        assert opts["spread"] == 1.0 and type(opts["spread"]) is float
        assert opts["rho"] == 0.5

    # the smallest valid argv of each command that has a switch
    SWITCH_ARGV = {"gen": ["gen", "--kind", "clusters", "--out-keys", "k", "--out-meta", "m"],
                   "dim-estimate": ["dim-estimate", "--input", "k.kvt", "--out", "d.csv"]}

    @pytest.mark.parametrize("command, option", [
        (name, o) for name, c in cli._COMMANDS.items() for o in c.options if o.type is bool])
    def test_switches_are_false_unless_set(self, tmp_path, command, option):
        argv = self.SWITCH_ARGV[command]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({option.key: False}))
        assert parse_config(argv).options[option.key] is False
        assert parse_config([*argv, option.flag]).options[option.key] is True
        assert parse_config([*argv, "--config", str(cfg)]).options[option.key] is False


GEN_OUT = ["--out-keys", "{tmp}/k.kvt", "--out-meta", "{tmp}/m.json"]
REPORT_OUT = ["--out", "{tmp}/o.csv"]
SCORE_BAD = ["score", "--input", "{tmp}/bad.kvt", "--method", "manifold", *REPORT_OUT]
KVT_HEADER = struct.Struct("<4sIIII")


class TestValidationFailures:
    def test_unknown_flag_names_token(self, capsys):
        code, _, err = run_cli(capsys, "score", "--bogus-flag", "x")
        assert code == 2
        payload = json.loads(err)
        assert "--bogus-flag" in payload["message"]

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "score", "--input", "k.kvt", "--method", "manifold")
        assert code == 2
        assert "--out" in json.loads(err)["message"]

    def test_windowed_requires_window(self, capsys, keys_file, tmp_path):
        code, _, err = run_cli(
            capsys, "score", "--input", str(keys_file), "--method", "windowed",
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert "--window" in json.loads(err)["message"]

    def test_rho_domain(self, capsys, keys_file, tmp_path):
        code, _, err = run_cli(
            capsys, "compress", "--keys", str(keys_file), "--values", str(keys_file),
            "--rho", "1.5", "--out-keys", str(tmp_path / "k"),
            "--out-values", str(tmp_path / "v"), "--out-mask", str(tmp_path / "m"),
        )
        assert code == 2
        assert "rho" in json.loads(err)["message"]

    def test_malformed_json_config(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{oops")
        code, _, err = run_cli(capsys, "ttest", "--config", str(cfg), "--a", "a", "--b", "b")
        assert code == 2
        assert "JSON" in json.loads(err)["message"]

    def test_unknown_json_key_named(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"wibble": 1}))
        code, _, err = run_cli(capsys, "ttest", "--config", str(cfg), "--a", "a", "--b", "b")
        assert code == 2
        assert "wibble" in json.loads(err)["message"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_key_config_is_unknown(self, capsys, tmp_path, command):
        # --config names the file; a config file naming another is refused, not ignored
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "nowhere.json"}))
        code, _, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert json.loads(err)["message"] == f"unknown config key(s) for {command}: config"

    def test_missing_input_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "score", "--input", str(tmp_path / "missing.kvt"),
            "--method", "manifold", "--out", str(tmp_path / "s.csv"),
        )
        assert code == 3

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv,files,seed_env", [
        pytest.param(["dilution", "--config", "{tmp}/c.json", *REPORT_OUT],
                     {"c.json": {"rho": "abc"}}, None, id="config-number-not-numeric"),
        pytest.param(["dilution", "--config", "{tmp}/c.json", *REPORT_OUT],
                     {"c.json": {"rho": None}}, None, id="config-null"),
        pytest.param(["gen", "--kind", "radial", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"n": "abc"}}, None, id="config-int-not-numeric"),
        pytest.param(["gen", "--kind", "radial", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"n": True}}, None, id="config-bool-for-int"),
        pytest.param(["gen", "--kind", "radial", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"n": 64.5}}, None, id="config-float-for-int"),
        pytest.param(["gen", "--kind", "subspace", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"strict_separation": "yes"}}, None, id="config-text-for-switch"),
        pytest.param(["gen", "--kind", "collision", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"magnitudes": [2, "x"]}}, None, id="config-list-element"),
        pytest.param(["gen", "--kind", "collision", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"kind": ["radial"]}}, None, id="config-list-for-string"),
        pytest.param(["dilution", "--config", "{tmp}/bad", *REPORT_OUT], {"bad": b"\xff{}"}, None,
                     id="config-not-utf8"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/bad", *GEN_OUT], {"bad": b"\xff{}"}, None,
                     id="sidecar-not-utf8"),
        pytest.param(["ttest", "--a", "{tmp}/bad", "--b", "{tmp}/bad"], {"bad": b"score\n\xff\n"},
                     None, id="csv-not-utf8"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": "radial", "needles": [1], "params": {
                         "alpha": 100.0, "epsilon": 0.1, "n": "64", "d": 8, "seed": 0}}},
                     None, id="sidecar-param-text-for-int"),
        pytest.param(["compare", "--sidecar", "{tmp}/s.json", *REPORT_OUT],
                     {"s.json": {"kind": "clusters", "needles": [1], "params": {
                         "n": 64, "d": 8, "k_clusters": 2, "spread": [1], "separation": 10.0,
                         "seed": 0, "shuffle": False}}},
                     None, id="sidecar-param-list-for-number"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": "radial", "needles": ["x"], "params": {
                         "alpha": 100.0, "epsilon": 0.1, "n": 64, "d": 8, "seed": 0}}},
                     None, id="sidecar-needles-not-ints"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": "radial", "needles": [1], "params": [64]}},
                     None, id="sidecar-params-not-object"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": ["radial"], "needles": [1], "params": {}}},
                     None, id="sidecar-kind-not-string"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": "kind params needles"}, None, id="sidecar-root-not-object"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": "radial", "needles": [1], "params": {
                         "alpha": 100.0, "epsilon": 0.1, "n": 64, "d": 8, "seed": -1}}},
                     None, id="sidecar-negative-seed"),
        pytest.param(["gen", "--kind", "radial", "--n", "32", "--d", "4", "--seed", "-1",
                      *GEN_OUT], {}, None, id="gen-negative-seed"),
        pytest.param(["dilution", "--n", "64", "--d", "8", "--k-grid", "1", "--seeds=-1",
                      *REPORT_OUT], {}, None, id="sweep-negative-seed"),
        pytest.param(["collision-demo", "--n", "32"], {}, "-1", id="env-negative-seed"),
        pytest.param(["separation", "--config", "{tmp}/c.json", *REPORT_OUT],
                     {"c.json": {"n_grid": []}}, None, id="config-empty-grid"),
        # a cluster count of 0 once divided n before any check (exit 4)
        pytest.param(["dilution", "--k-grid", "0", *REPORT_OUT], {}, None,
                     id="dilution-zero-cluster-count"),
        pytest.param(["ablation", "--k-clusters", "0", *REPORT_OUT], {}, None,
                     id="ablation-zero-cluster-count"),
        # sizes beyond physical memory (10**14 tokens) from a flag, config, sidecar or sweep
        pytest.param(["gen", "--kind", "radial", "--n", str(10**14), "--d", "4", *GEN_OUT], {},
                     None, id="gen-size-beyond-memory"),
        pytest.param(["gen", "--kind", "radial", "--config", "{tmp}/c.json", *GEN_OUT],
                     {"c.json": {"n": 10**14, "d": 4}}, None, id="config-size-beyond-memory"),
        pytest.param(["gen", "--from-sidecar", "{tmp}/s.json", *GEN_OUT],
                     {"s.json": {"kind": "radial", "needles": [1], "params": {
                         "alpha": 100.0, "epsilon": 0.1, "n": 10**14, "d": 4, "seed": 0}}},
                     None, id="sidecar-size-beyond-memory"),
        pytest.param(["dilution", "--n", str(10**14), "--k-grid", "1", "--seeds", "0",
                      *REPORT_OUT], {}, None, id="sweep-size-beyond-memory"),
        # KVT1 payloads: a header claiming 65535**4 values over 16 bytes, a truncated
        # payload, a NaN
        pytest.param(SCORE_BAD, {"bad.kvt": KVT_HEADER.pack(b"KVT1", *[65535] * 4) + bytes(16)},
                     None, id="kvt-header-beyond-file"),
        pytest.param(SCORE_BAD, {"bad.kvt": KVT_HEADER.pack(b"KVT1", 1, 1, 2, 2) + bytes(12)},
                     None, id="kvt-truncated"),
        pytest.param(SCORE_BAD, {"bad.kvt": KVT_HEADER.pack(b"KVT1", 1, 1, 2, 1)
                                 + np.array([1.0, np.nan], "<f4").tobytes()},
                     None, id="kvt-nan"),
    ])
    def test_malformed_input_exits_2(self, capsys, monkeypatch, tmp_path, argv, files, seed_env):
        for name, content in files.items():
            raw = content if isinstance(content, bytes) else json.dumps(content).encode()
            (tmp_path / name).write_bytes(raw)
        if seed_env is not None:
            monkeypatch.setenv("KVM_SEED", seed_env)
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, *[a.replace("{tmp}", str(tmp_path)) for a in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        _assert_documented_exit(code, err)
        assert peak < 2**20  # refused before any large allocation

    def test_stray_memory_error_exits_2(self, capsys, monkeypatch):
        def run(config):
            raise MemoryError("Unable to allocate 1.00 PiB")

        monkeypatch.setattr(cli, "run", run)
        code, _, err = run_cli(capsys, "collision-demo", "--n", "32")
        assert code == 2
        _assert_documented_exit(code, err)
        assert json.loads(err)["error"] == "MemoryError"


# the required flags of each command with a range-checked option; range checks
# run after the required checks and before any file is opened
RANGE_REQUIRED = {
    "compress": ["--keys", "--values", "--out-keys", "--out-values", "--out-mask"],
    "dilution": ["--out"], "ablation": ["--out"], "separation": ["--out"],
    "collision-demo": [], "compare": ["--out"],
}
RHO_COMMANDS = ("compress", "dilution", "ablation", "collision-demo", "compare")
SWEEPS = ("dilution", "ablation", "separation")


@pytest.mark.parametrize("argv, message", [
    *[pytest.param([c, "--rho", "1"], "--rho must be in [0, 1), got 1.0", id=f"{c}-rho")
      for c in RHO_COMMANDS],
    *[pytest.param([c, "--seeds", ","], "--seeds must list at least one seed", id=f"{c}-seeds")
      for c in SWEEPS],
    *[pytest.param([c, "--jobs", "0"], "--jobs must be >= 1, got 0", id=f"{c}-jobs")
      for c in SWEEPS],
    pytest.param(["ablation", "--k-clusters", "0"], "--k-clusters must be >= 1, got 0",
                 id="ablation-k-clusters"),
    # the rho a flag overrides is type-checked but not range-checked
    pytest.param(["collision-demo", "--n", "64", "--config", "{tmp}/rho2.json"],
                 "--rho must be in [0, 1), got 2.0", id="config-rho"),
    pytest.param(["collision-demo", "--n", "64", "--config", "{tmp}/rho2.json", "--rho", "0.5"],
                 None, id="config-rho-overridden"),
    # checks run in row order, whatever the order on the command line: --k-clusters
    # is declared before --rho
    pytest.param(["ablation", "--rho", "2", "--k-clusters", "0"],
                 "--k-clusters must be >= 1, got 0", id="ablation-k-clusters-before-rho"),
])
def test_range_rules(capsys, tmp_path, argv, message):
    (tmp_path / "rho2.json").write_text(json.dumps({"rho": 2}))
    required = [a for flag in RANGE_REQUIRED[argv[0]] for a in (flag, str(tmp_path / flag[2:]))]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, stdout, err = run_cli(capsys, *argv, *required)
    if message is None:
        assert (code, err) == (0, "")
        return
    payload = {"error": "ValidationError", "message": message, "exit_code": 2}
    assert (code, stdout, err) == (2, "", json.dumps(payload) + "\n")
    assert [p.name for p in tmp_path.iterdir()] == ["rho2.json"]


class TestSlabWorkerErrors:
    """Bad payloads in the last of several (batch, head) slabs, with two CPUs usable:
    the payload is read in one loop on the calling thread, whatever the worker count."""

    SHAPE = (2, 3, 700, 16)  # six slabs, each 700 x 16 float32 values

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(tensor, "_usable_cpus", lambda: 2)

    def _write(self, path, nan=False, prefix=b"KVT1"):
        data = rng(len(path.name)).normal(size=self.SHAPE).astype("<f4")
        if nan:
            data[-1, -1, -1, -1] = np.nan
        path.write_bytes(KVT_HEADER.pack(prefix, *self.SHAPE) + data.tobytes())
        return str(path)

    @staticmethod
    def _message(capsys, *argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        _assert_documented_exit(code, err)
        return json.loads(err)["message"]

    def test_nan_in_the_last_slab(self, capsys, tmp_path):
        keys = self._write(tmp_path / "k.kvt", nan=True)
        message = self._message(capsys, "score", "--input", keys, "--method", "manifold",
                                "--out", str(tmp_path / "o.csv"))
        assert message == "tensor contains NaN or Inf"

    def test_short_read_in_the_last_slab(self, capsys, monkeypatch, tmp_path):
        keys = self._write(tmp_path / "k.kvt")
        slab = 4 * math.prod(self.SHAPE[2:])
        end = 20 + 5 * slab + 100  # the file is cut off here, in the last slab, once sized
        preadv = os.preadv
        monkeypatch.setattr(tensor.os, "preadv", lambda fd, buffers, offset: preadv(
            fd, [memoryview(buffers[0])[: max(0, end - offset)]], offset))
        message = self._message(capsys, "score", "--input", keys, "--method", "manifold",
                                "--out", str(tmp_path / "o.csv"))
        assert message == f"payload length mismatch: expected {6 * slab} bytes, got {end - 20}"

    def test_compress_reports_keys_then_values_then_queries(self, capsys, tmp_path):
        bad = {"keys": self._write(tmp_path / "bad-k.kvt", nan=True),
               "values": str(tmp_path / "bad-v.kvt"),
               "queries": self._write(tmp_path / "bad-q.kvt", prefix=b"KVT2")}
        Path(bad["values"]).write_bytes(Path(self._write(tmp_path / "v.kvt")).read_bytes()[:-4])
        good = {name: self._write(tmp_path / f"{name}.kvt") for name in bad}
        expected = ["tensor contains NaN or Inf",
                    f"payload length mismatch: expected {4 * math.prod(self.SHAPE)} bytes, "
                    f"got {4 * math.prod(self.SHAPE) - 4}",
                    "bad magic b'KVT2', expected b'KVT1'"]
        for fixed, message in zip([(), ("keys",), ("keys", "values")], expected):
            files = {name: good[name] if name in fixed else bad[name] for name in bad}
            assert self._message(
                capsys, "compress", "--keys", files["keys"], "--values", files["values"],
                "--method", "obs_attention", "--obs-window", "4", "--queries", files["queries"],
                "--rho", "0.5", "--out-keys", str(tmp_path / "ok.kvt"),
                "--out-values", str(tmp_path / "ov.kvt"), "--out-mask", str(tmp_path / "m.json"),
            ) == message


class TestQueriesFlag:
    """--queries is read only for obs_attention; separation generates its own queries."""

    @pytest.mark.parametrize("argv,outputs", [
        (["score", "--input", "{keys}", "--method", "manifold", "--out", "s.csv"], ["s.csv"]),
        (["compress", "--keys", "{keys}", "--values", "{keys}", "--method", "keydiff",
          "--out-keys", "k.kvt", "--out-values", "v.kvt", "--out-mask", "m.json"],
         ["k.kvt", "v.kvt", "m.json"]),
        (["compare", "--input", "{keys}", "--methods", "manifold,l1", "--out", "c.csv"],
         ["c.csv"]),
    ])
    def test_other_methods_ignore_it(self, capsys, monkeypatch, keys_file, tmp_path,
                                     argv, outputs):
        argv = [a.replace("{keys}", str(keys_file)) for a in argv]
        runs = []
        for name, extra in (("plain", []),
                            ("queries", ["--queries", str(tmp_path / "nonexistent.kvt")])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            code, stdout, err = run_cli(capsys, *argv, *extra)
            assert code == 0, err
            runs.append((stdout, [Path(f).read_bytes() for f in outputs]))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [
        ["score", "--method", "obs_attention", "--obs-window", "2", "--out", "{tmp}/s.csv"],
        ["compare", "--methods", "manifold,obs_attention", "--out", "{tmp}/c.csv"],
    ])
    def test_obs_attention_reads_it(self, capsys, keys_file, tmp_path, argv):
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        code, _, err = run_cli(capsys, *argv, "--input", str(keys_file),
                               "--queries", str(tmp_path / "nonexistent.kvt"))
        assert code == 3
        _assert_documented_exit(code, err)

    def test_query_shape_error_names_the_file_shape(self, capsys, tmp_path):
        # the message once named the sliced (1, 2, 4, 8) query tail
        save_kvt(random_tensor(0, heads=4, seq=64, dim=8), tmp_path / "k.kvt")
        save_kvt(random_tensor(1, heads=2, seq=20, dim=8), tmp_path / "q.kvt")
        code, _, err = run_cli(
            capsys, "score", "--input", str(tmp_path / "k.kvt"), "--method", "obs_attention",
            "--obs-window", "4", "--queries", str(tmp_path / "q.kvt"),
            "--out", str(tmp_path / "s.csv"),
        )
        assert code == 2
        assert json.loads(err)["message"] == (
            "query shape (1, 2, 20, 8) incompatible with key shape (1, 4, 64, 8)")

    def test_separation_rejects_it(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "separation", "--method", "obs_attention",
            "--queries", str(tmp_path / "nonexistent.kvt"), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "--queries" in json.loads(err)["message"]


class TestScoreCommand:
    def test_csv_matches_library(self, capsys, keys_file, tmp_path):
        out = tmp_path / "s.csv"
        code, stdout, _ = run_cli(
            capsys, "score", "--input", str(keys_file), "--method", "manifold",
            "--out", str(out),
        )
        assert code == 0
        assert "score: wrote" in stdout
        rows = read_report_csv(out)
        t = load_kvt(keys_file)
        expected = manifold_score(t).data
        assert len(rows) == t.batch * t.heads * t.seq_len
        for row in rows[:8]:
            b, h, tok = int(row["batch"]), int(row["head"]), int(row["token"])
            assert float(row["score"]) == pytest.approx(expected[b, h, tok], rel=1e-12)

    def test_out_kvt(self, capsys, keys_file, tmp_path):
        out_kvt = tmp_path / "s.kvt"
        code, _, _ = run_cli(
            capsys, "score", "--input", str(keys_file), "--method", "knorm",
            "--out", str(tmp_path / "s.csv"), "--out-kvt", str(out_kvt),
        )
        assert code == 0
        scored = load_kvt(out_kvt)
        assert scored.head_dim == 1
        t = load_kvt(keys_file)
        assert scored.shape[:3] == t.shape[:3]

    def test_windowed_method(self, capsys, keys_file, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            capsys, "score", "--input", str(keys_file), "--method", "windowed",
            "--window", "4", "--out", str(out),
        )
        assert code == 0
        rows = read_report_csv(out)
        t = load_kvt(keys_file)
        expected = compute_scores(ScorerSpec("windowed", 4), t).data
        got = float(rows[5]["score"])
        assert got == pytest.approx(expected[0, 0, 5], rel=1e-12)

    def test_scores_beyond_float32_range_write_nothing(self, tmp_path):
        # |score| ~ 6e38 does not fit the --out-kvt tensor; in a subprocess,
        # so a numpy warning would reach stderr
        keys = np.full((1, 1, 8, 4), 3e38, dtype=np.float32)
        keys[0, 0, ::2] *= -1
        save_kvt(KeyTensor(keys), tmp_path / "big.kvt")
        out, out_kvt = tmp_path / "s.csv", tmp_path / "s.kvt"
        proc = subprocess.run(
            [sys.executable, "-m", "kvgeom", "score", "--input", str(tmp_path / "big.kvt"),
             "--method", "manifold", "--out", str(out), "--out-kvt", str(out_kvt)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        _assert_documented_exit(proc.returncode, proc.stderr)
        assert "float32 range" in json.loads(proc.stderr)["message"]
        assert not out.exists() and not out_kvt.exists()


class TestCompressCommand:
    def test_artifacts(self, capsys, keys_file, tmp_path):
        values = tmp_path / "values.kvt"
        save_kvt(random_tensor(1, batch=1, heads=2, seq=12, dim=4), values)
        outs = {name: tmp_path / name for name in ("k.kvt", "v.kvt", "m.json", "r.json")}
        code, stdout, _ = run_cli(
            capsys, "compress", "--keys", str(keys_file), "--values", str(values),
            "--rho", "0.5", "--out-keys", str(outs["k.kvt"]),
            "--out-values", str(outs["v.kvt"]), "--out-mask", str(outs["m.json"]),
            "--out-retained", str(outs["r.json"]),
        )
        assert code == 0
        compressed = load_kvt(outs["k.kvt"])
        assert compressed.seq_len == 6
        mask = json.loads(outs["m.json"].read_text())
        assert mask == {"max_budget": 6, "valid_counts": [[6, 6]]}
        retained = json.loads(outs["r.json"].read_text())
        assert len(retained) == 2
        assert all(len(r["indices"]) == 6 for r in retained)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                         reason="before 3.11 the caller's stack keeps call arguments alive")
    def test_peak_is_three_cache_tensors(self, capsys, tmp_path):
        # rho 0 keeps every token, so each output is as large as its input;
        # holding keys, values and both outputs at once would reach 4 tensors
        shape = (1, 8, 2048, 32)
        for seed, name in enumerate(("keys.kvt", "values.kvt")):
            save_kvt(KeyTensor(freeze(rng(seed).standard_normal(shape, dtype=np.float32))),
                     tmp_path / name)
        tracemalloc.start()
        try:
            code, _, _ = run_cli(
                capsys, "compress", "--keys", str(tmp_path / "keys.kvt"),
                "--values", str(tmp_path / "values.kvt"), "--rho", "0",
                "--out-keys", str(tmp_path / "k.kvt"), "--out-values", str(tmp_path / "v.kvt"),
                "--out-mask", str(tmp_path / "m.json"),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert load_kvt(tmp_path / "v.kvt").shape == shape
        assert peak <= 3.25 * 4 * math.prod(shape)


class TestGenCommand:
    def test_gen_and_regen_from_sidecar(self, capsys, tmp_path):
        keys1 = tmp_path / "k1.kvt"
        meta = tmp_path / "m.json"
        code, stdout, _ = run_cli(
            capsys, "gen", "--kind", "radial", "--n", "64", "--d", "8",
            "--seed", "3", "--out-keys", str(keys1), "--out-meta", str(meta),
        )
        assert code == 0
        keys2 = tmp_path / "k2.kvt"
        meta2 = tmp_path / "m2.json"
        code, _, _ = run_cli(
            capsys, "gen", "--from-sidecar", str(meta),
            "--out-keys", str(keys2), "--out-meta", str(meta2),
        )
        assert code == 0
        assert keys1.read_bytes() == keys2.read_bytes()
        assert json.loads(meta.read_text()) == json.loads(meta2.read_text())

    def test_gen_requires_kind_or_sidecar(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "gen", "--out-keys", str(tmp_path / "k"), "--out-meta", str(tmp_path / "m"),
        )
        assert code == 2
        assert "--kind" in json.loads(err)["message"]

    @pytest.mark.parametrize("kind,extra", [
        ("subspace", ()),
        ("clusters", ("--k-clusters", "2", "--n", "64")),
        ("collision", ("--magnitudes", "2,5",)),
    ])
    def test_gen_kinds(self, capsys, tmp_path, kind, extra):
        code, _, _ = run_cli(
            capsys, "gen", "--kind", kind, "--n", "64", "--d", "16", *extra,
            "--out-keys", str(tmp_path / "k.kvt"), "--out-meta", str(tmp_path / "m.json"),
        )
        assert code == 0
        meta = json.loads((tmp_path / "m.json").read_text())
        assert meta["kind"] == kind


class TestSweepCommands:
    def test_dilution(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, _ = run_cli(
            capsys, "dilution", "--k-grid", "1,4", "--n", "512", "--d", "32",
            "--seeds", "0,1", "--out", str(out),
        )
        assert code == 0
        assert "dilution: wrote" in stdout
        rows = read_report_csv(out)
        assert len(rows) == 6  # 2 grid points x 2 seeds + 2 mean rows

    def test_dilution_jobs_flag_output_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dilution", "--k-grid", "1,2", "--n", "256", "--d", "16", "--seeds", "0,1"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--jobs", "4", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ablation_jobs_flag_output_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ablation", "--n", "256", "--d", "16", "--k-clusters", "4", "--seeds", "0,1"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--jobs", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_separation_jobs_flag_output_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["separation", "--k", "2", "--d", "16", "--n-grid", "64,128", "--n-out", "2",
                "--seeds", "0,1"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        # three job threads on any host
        with mock.patch.object(tensor, "_usable_cpus", return_value=8):
            assert run_cli(capsys, *args, "--jobs", "3", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command, sweep", [("dilution", "dilution_sweep"),
                                                ("ablation", "window_ablation"),
                                                ("separation", "separation_test")])
    def test_sweep_is_passed_each_option_by_name(self, monkeypatch, command, sweep):
        # a renamed parameter or option would otherwise drop the option silently
        class Passed(Exception):
            pass

        @functools.wraps(getattr(cli, sweep))  # keeps the signature the handler reads
        def record(**kwargs):
            raise Passed(kwargs)

        monkeypatch.setattr(cli, sweep, record)
        config = parse_config([command, "--out", os.devnull])
        with pytest.raises(Passed) as passed:
            cli.run(config)
        expected = set(config.options) - {"out", "format"}
        if "method" in expected:  # the scorer flags become one spec
            expected -= {"method", *(o.key for o in cli._scorer_options())}
            expected.add("spec")
        assert set(passed.value.args[0]) == expected

    def test_ablation_default_grid(self, capsys, tmp_path):
        out = tmp_path / "a.json"
        code, stdout, _ = run_cli(
            capsys, "ablation", "--n", "256", "--d", "16", "--k-clusters", "4",
            "--seeds", "0", "--out", str(out), "--format", "json",
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["group_by"] == "window"
        windows = sorted(g["key"] for g in obj["groups"])
        assert windows == [32, 64, 128, 256]
        assert "best_window" in obj["metadata"]

    def test_separation(self, capsys, tmp_path):
        out = tmp_path / "sep.csv"
        code, stdout, _ = run_cli(
            capsys, "separation", "--k", "2", "--d", "16", "--n-grid", "64,128",
            "--n-out", "2", "--seeds", "0,1", "--out", str(out),
        )
        assert code == 0
        rows = read_report_csv(out)
        means = [r for r in rows if r["row"] == "mean"]
        assert all(float(r["success"]) == 1.0 for r in means)


    @pytest.mark.parametrize("argv, message", [
        (["dilution", "--n", "1024", "--d", "16", "--k-grid", "4,4"],
         "k_clusters grid lists 4 twice"),
        (["ablation", "--n", "256", "--d", "16", "--k-clusters", "4", "--w-grid", "64,32,64"],
         "window grid lists 64 twice"),
        (["separation", "--k", "2", "--d", "16", "--n-grid", "64,128,128", "--n-out", "2"],
         "n grid lists 128 twice"),
    ])
    def test_duplicate_grid_value_refused(self, capsys, tmp_path, argv, message):
        # each group of a duplicated value would hold both values' run rows
        out = tmp_path / "r.csv"
        code, stdout, err = run_cli(capsys, *argv, "--seeds", "0,1", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["message"] == message
        assert not out.exists()


class TestDimEstimateCommand:
    def test_per_head_and_pooled(self, capsys, tmp_path):
        path = tmp_path / "k.kvt"
        save_kvt(random_tensor(2, batch=1, heads=2, seq=64, dim=8), path)
        per_head = tmp_path / "per.csv"
        code, _, _ = run_cli(capsys, "dim-estimate", "--input", str(path),
                             "--out", str(per_head))
        assert code == 0
        assert len(read_report_csv(per_head)) == 2
        pooled = tmp_path / "pooled.csv"
        code, _, _ = run_cli(capsys, "dim-estimate", "--input", str(path),
                             "--pooled", "--out", str(pooled))
        assert code == 0
        rows = read_report_csv(pooled)
        assert len(rows) == 1 and rows[0]["row"] == "pooled"
        assert int(rows[0]["n_points"]) == 128

    def test_bad_threshold_exits_before_the_neighbor_search(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "k.kvt"
        save_kvt(random_tensor(2, batch=1, heads=2, seq=64, dim=8), path)

        def no_search(points, k):
            raise AssertionError("the O(n^2) neighbor search ran")

        monkeypatch.setattr(manifold, "_sorted_nn_dists", no_search)
        code, _, err = run_cli(capsys, "dim-estimate", "--input", str(path), "--pooled",
                               "--threshold", "2", "--out", str(tmp_path / "d.csv"))
        assert code == 2
        assert json.loads(err)["message"] == "threshold must be in (0, 1], got 2.0"


class TestBlasThreads:
    """Worker loops and CLI commands run numpy's BLAS on one thread and give the
    caller's count back; a loop off the main thread leaves the BLAS alone."""

    @pytest.fixture
    def blas(self):
        found = tensor._blas_threads()
        if found is None:
            pytest.skip("no thread-count setter in numpy's bundled BLAS")
        get_threads, set_threads = found
        callers = get_threads()
        set_threads(2)
        yield found
        set_threads(callers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_slab_runs_the_blas_on_one_thread(self, blas, workers):
        get_threads, _ = blas
        seen = []
        tensor._each_slab((5,), lambda i, _: seen.append(get_threads()), workers=workers)
        assert seen == [1] * 5
        assert get_threads() == 2

    def test_a_failing_slab_gives_the_threads_back(self, blas):
        get_threads, _ = blas
        seen = []

        def work(i, _):
            seen.append(get_threads())
            if i == 1:
                raise EstimationError("slab 1")

        with pytest.raises(EstimationError, match="slab 1"):
            tensor._each_slab((4,), work)
        assert seen and set(seen) == {1}
        assert get_threads() == 2

    def test_a_loop_off_the_main_thread_leaves_the_blas_alone(self, blas):
        get_threads, _ = blas
        seen = []
        worker = threading.Thread(target=tensor._each_slab,
                                  args=((3,), lambda i, _: seen.append(get_threads())))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert seen == [2] * 3

    def test_dimensions_do_not_depend_on_the_callers_threads(self, blas):
        # the output matrix's 3001-point cloud: not a multiple of 8, which a
        # multi-threaded OpenBLAS rounds differently
        _, set_threads = blas
        points = gen_cluster_mixture(n=3001, d=16, k_clusters=4, spread=1.0, separation=10.0,
                                     seed=0).keys.data.reshape(-1, 16)
        reports = []
        for threads in (2, 1):
            set_threads(threads)
            reports.append(np.array(astuple(manifold.estimate_dimensions(points))).tobytes())
        assert reports[0] == reports[1]

    def test_report_bytes_do_not_depend_on_the_callers_threads(self, blas, capsys, tmp_path):
        from output_matrix import _write_inputs

        # the output matrix's cloud, pooled: 300 points at d = 16, so the k-NN
        # blocks have 300 columns, not a multiple of 8, which a multi-threaded
        # OpenBLAS rounds otherwise
        _write_inputs(tmp_path)
        get_threads, set_threads = blas
        reports = []
        for threads in (2, 1):
            set_threads(threads)
            out = tmp_path / f"threads-{threads}.csv"
            code, _, _ = run_cli(capsys, "dim-estimate", "--input", str(tmp_path / "in/cloud.kvt"),
                                 "--pooled", "--out", str(out))
            assert code == 0
            assert get_threads() == threads
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_compare_bytes_do_not_depend_on_the_callers_threads(self, blas, capsys, tmp_path):
        # 2**18 scores per method: `pearson`'s dot products over them, outside any
        # worker loop, round differently on 2 BLAS threads unless the command holds 1
        keys = tmp_path / "keys.kvt"
        save_kvt(random_tensor(5, heads=2, seq=2**17, dim=4), keys)
        _, set_threads = blas
        reports = []
        for threads in (2, 1):
            set_threads(threads)
            out = tmp_path / f"threads-{threads}.csv"
            code, _, _ = run_cli(capsys, "compare", "--input", str(keys), "--out", str(out))
            assert code == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_a_failing_command_gives_the_threads_back(self, blas, capsys, tmp_path):
        # identical points: the command fails inside its run, with exit 4
        get_threads, _ = blas
        same = tmp_path / "same.kvt"
        save_kvt(KeyTensor(np.ones((1, 1, 16, 4))), same)
        code, _, _ = run_cli(capsys, "dim-estimate", "--input", str(same),
                             "--out", str(tmp_path / "d.csv"))
        assert code == 4
        assert get_threads() == 2


class TestCollisionDemoCommand:
    def test_prints_retention_lines(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, stdout, _ = run_cli(capsys, "collision-demo", "--magnitudes", "2,5,10",
                                  "--out", str(out))
        assert code == 0
        assert "manifold retained 3/3" in stdout
        assert "keydiff retained 0/3" in stdout
        rows = read_report_csv(out)
        lookup = {r["method"]: float(r["retention"]) for r in rows}
        assert lookup == {"manifold": 1.0, "keydiff": 0.0}


class TestCompareCommand:
    def test_compare_on_sidecar(self, capsys, tmp_path):
        scenario = gen_radial_failure(alpha=100.0, epsilon=0.1, n=64, d=8, seed=0)
        sidecar = tmp_path / "s.json"
        save_sidecar(scenario, sidecar)
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys, "compare", "--sidecar", str(sidecar),
            "--methods", "manifold,keydiff,knorm", "--rho", "0.5", "--out", str(out),
        )
        assert code == 0
        rows = read_report_csv(out)
        pairs = [r for r in rows if r["row"] == "pair"]
        assert len(pairs) == 3
        retentions = [r for r in rows if r["row"] == "retention"]
        assert len(retentions) == 3

    def test_compare_on_raw_tensor(self, capsys, keys_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys, "compare", "--input", str(keys_file),
            "--methods", "manifold,l1", "--out", str(out),
        )
        assert code == 0
        rows = read_report_csv(out)
        assert all(r["row"] == "pair" for r in rows)  # no needles, no retention rows

    def test_compare_draws_queries_for_a_multi_head_tensor(self, capsys, tmp_path):
        keys, out = tmp_path / "k.kvt", tmp_path / "cmp.csv"
        save_kvt(random_tensor(3, batch=2, heads=4, seq=512, dim=32), keys)
        code, _, err = run_cli(
            capsys, "compare", "--input", str(keys),
            "--methods", "manifold,obs_attention", "--obs-window", "4", "--out", str(out),
        )
        assert code == 0, err
        assert [r["row"] for r in read_report_csv(out)] == ["pair"]

    def test_compare_needs_enough_methods(self, capsys, keys_file, tmp_path):
        code, _, err = run_cli(
            capsys, "compare", "--input", str(keys_file), "--methods", "manifold",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2


class TestTtestCommand:
    def _write_scores(self, path, values):
        lines = ["# comment", "score"] + [repr(v) for v in values]
        Path(path).write_text("\n".join(lines) + "\n")

    def test_identical_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_scores(a, [1.0, 2.0, 3.0])
        self._write_scores(b, [1.0, 2.0, 3.0])
        code, stdout, _ = run_cli(capsys, "ttest", "--a", str(a), "--b", str(b))
        assert code == 0
        assert "t=0" in stdout and "p=1" in stdout

    def test_report_out(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self._write_scores(a, [2.0, 3.0, 5.0])
        self._write_scores(b, [1.0, 2.0, 3.0])
        out = tmp_path / "t.json"
        code, _, _ = run_cli(capsys, "ttest", "--a", str(a), "--b", str(b),
                             "--out", str(out), "--format", "json")
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["rows"][0]["n"] == 3

    def test_missing_column(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        a.write_text("x,y\n1,2\n")
        code, _, err = run_cli(capsys, "ttest", "--a", str(a), "--b", str(a),
                               "--col", "score")
        assert code == 2
        assert "score" in json.loads(err)["message"]


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "demo.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "kvgeom", "collision-demo", "--n", "64",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "manifold retained 3/3" in proc.stdout
        assert out.exists()

    def test_python_dash_m_error_exit_code(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "kvgeom", "dilution", "--rho", "nope", "--out", "x.csv"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["exit_code"] == 2

    def test_cli_import_leaves_scipy_openssl_and_futures_unloaded(self):
        # scipy is most of the package's import time and loads at the first `ttest`;
        # hashlib loads OpenSSL's libcrypto, at the first report hash; slab and sweep
        # workers are plain threads, so neither concurrent.futures nor its logging loads
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, kvgeom.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', 'hashlib', '_hashlib', 'concurrent', 'logging')))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_warning_precedes_json_error(self, tmp_path):
        # --alpha 1e300 overflows float32; in a subprocess, since pytest captures warnings
        proc = subprocess.run(
            [sys.executable, "-m", "kvgeom", "gen", "--kind", "radial", "--alpha", "1e300",
             "--out-keys", str(tmp_path / "k.kvt"), "--out-meta", str(tmp_path / "m.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        _assert_documented_exit(proc.returncode, proc.stderr)


class TestCsvDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dilution", "--k-grid", "1,4", "--n", "512", "--d", "32", "--seeds", "0,1"]
        assert run_cli(capsys, *args, "--out", str(a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("# tool_version=")


SEPARATION_SMALL = ["separation", "--n-grid", "64,128", "--d", "16", "--n-out", "2",
                    "--seeds", "0,1"]


def _printed_hash(path) -> str:
    lines = Path(path).read_text().splitlines()
    return next(ln.split("=", 1)[1] for ln in lines if ln.startswith("# config_hash="))


class TestReportProvenance:
    """A report's metadata and config hash change with what reaches its rows,
    and with nothing else."""

    @pytest.mark.parametrize("kind, option, values", [
        # the radial construction reads neither --k nor --sigma and plants one needle
        ("radial", "--k", ("2", "3")),
        ("radial", "--sigma", ("1.0", "2.0")),
        ("radial", "--n-out", ("2", "3")),
        ("subspace", "--alpha", ("50", "100")),
    ])
    def test_an_option_no_scenario_reads_leaves_the_report(self, capsys, tmp_path, kind,
                                                           option, values):
        reports = []
        for i, value in enumerate(values):
            out = tmp_path / f"{i}.csv"
            argv = [*SEPARATION_SMALL, "--kind", kind, option, value, "--out", str(out)]
            assert run_cli(capsys, *argv)[0] == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv", [
        ["score", "--method", "obs_attention"],
        ["compare", "--methods", "manifold,obs_attention"],
    ])
    def test_each_queries_file_has_its_own_hash(self, capsys, keys_file, tmp_path, argv):
        hashes = []
        for seed in (1, 2):
            queries, out = tmp_path / f"q{seed}.kvt", tmp_path / f"r{seed}.csv"
            save_kvt(random_tensor(seed, batch=1, heads=2, seq=4, dim=4), queries)
            code, _, err = run_cli(capsys, *argv, "--obs-window", "2", "--input", str(keys_file),
                                   "--queries", str(queries), "--out", str(out))
            assert code == 0, err
            assert f"# queries={queries}" in out.read_text().splitlines()
            hashes.append(_printed_hash(out))
        assert hashes[0] != hashes[1]


# Numbers stay within |x| <= 64 and text never spells a larger one, so no
# drawn config or sidecar can ask for a large allocation.
SMALL_NUMBERS = st.integers(-64, 64) | st.floats(-64, 64) | st.sampled_from(
    [math.nan, math.inf, -math.inf]
)
NAMES = st.sampled_from(METHODS + SCENARIO_KINDS + ("csv", "json", "uniform", "proportional"))
JSON_SCALARS = (
    st.none() | st.booleans() | SMALL_NUMBERS | NAMES
    | SMALL_NUMBERS.map(str)
    | st.lists(st.integers(-64, 64), max_size=3).map(lambda xs: ",".join(map(str, xs)))
    | st.text(alphabet="abcdefiklmnorsuw_,. -", max_size=8)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=2),
    max_leaves=6,
)
# Values of the right shape for most options, so that many drawn inputs run.
PLAUSIBLE = (
    st.integers(1, 64) | st.floats(0, 0.9) | st.booleans() | NAMES
    | st.lists(st.integers(1, 16), min_size=1, max_size=3)
)
# Config keys naming files the command writes: the test passes those as flags.
OUTPUT_KEYS = {"config", "out", "out_kvt", "out_keys", "out_values", "out_mask",
               "out_retained", "out_meta"}
# Flags that pin each command's inputs and outputs.
PINNED = {
    "score": ["--input", "{keys}", "--out", "o.csv"],
    "compress": ["--keys", "{keys}", "--values", "{keys}", "--out-keys", "k.kvt",
                 "--out-values", "v.kvt", "--out-mask", "m.json"],
    "gen": ["--out-keys", "k.kvt", "--out-meta", "m.json"],
    "dilution": ["--out", "o.csv"],
    "ablation": ["--out", "o.csv"],
    "dim-estimate": ["--input", "{keys}", "--out", "o.csv"],
    "collision-demo": [],
    "separation": ["--out", "o.csv"],
    "compare": ["--input", "{keys}", "--out", "o.csv"],
    "ttest": ["--a", "{csv}", "--b", "{csv}"],
}
# Config values that keep each command's default sizes small; drawn keys override them.
SMALL_SIZES = {"n": 48, "d": 8, "k_grid": [1, 2], "n_grid": [16, 32], "k": 2, "n_out": 2,
               "k_clusters": 2, "seeds": [0]}
SMALL_SCENARIOS = {
    "subspace": gen_subspace_scenario(n=32, d=8, k=2, sigma=1.0, n_out=2, epsilon=8.0, seed=0),
    "radial": gen_radial_failure(alpha=100.0, epsilon=0.1, n=32, d=8, seed=0),
    "clusters": gen_cluster_mixture(n=32, d=8, k_clusters=2, spread=1.0, separation=10.0,
                                    seed=0),
    "collision": gen_collision_scenario(magnitudes=(2.0, 5.0), epsilon=0.1, n=32, d=8, seed=0),
}


def _config_keys(command):
    parser = build_parser()
    subs = [a for a in parser._actions if hasattr(a, "choices") and a.choices][0].choices
    return sorted(a.dest for a in subs[command]._actions if a.dest != "help")


def _main_in(workdir, argv):
    """main(argv) run in `workdir`; (exit code, stderr)."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


def _assert_documented_exit(code, err):
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert set(payload) == {"error", "message", "exit_code"}
        assert payload["exit_code"] == code and isinstance(payload["message"], str)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz-inputs")
    save_kvt(random_tensor(3, batch=1, heads=2, seq=24, dim=4), root / "keys.kvt")
    (root / "a.csv").write_text("score\n1.0\n2.5\n4.0\n")
    save_sidecar(SMALL_SCENARIOS["radial"], root / "s.json")
    return {"keys": str(root / "keys.kvt"), "csv": str(root / "a.csv"),
            "sidecar": str(root / "s.json")}


# Text after a flag, drawn from its `cli._COMMANDS` row: a value of the row's
# type and choices, kept small (sizes, grid entries and --obs-window at most 64,
# --jobs at most 2) so that a case runs in milliseconds, or text no row takes.
ADVERSARIAL_TEXT = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1", "0", "-0.0", "", "x",
                                    "1,,x", ","])
OUTPUT_PATHS = st.sampled_from(["o.out", "", ".", "missing-dir/o.out"])


def _flag_text(o, inputs):
    listed = get_origin(o.type) is list
    kind = get_args(o.type)[0] if listed else o.type
    if o.key == "jobs":
        one = st.integers(-1, 2).map(str)
    elif o.choices:
        one = st.sampled_from(o.choices)
    elif kind is int:
        one = st.integers(-1, 64).map(str)
    elif kind is float:
        one = st.floats(-0.5, 2.0).map(repr)
    elif o.key.startswith("out"):
        one = OUTPUT_PATHS
    else:  # an input file, or a CSV column name
        one = st.sampled_from([*inputs.values(), "missing.kvt", ".", "score"])
    if listed:
        one = st.lists(one, min_size=1, max_size=3).map(",".join)
    return one | ADVERSARIAL_TEXT


class TestArbitraryInputs:
    """Any JSON config or sidecar ends in a documented exit, never a traceback."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_arbitrary_json_config(self, tmp_path_factory, fuzz_inputs, command):
        keys = [k for k in _config_keys(command) if k not in OUTPUT_KEYS]
        sizes = {k: v for k, v in SMALL_SIZES.items() if k in keys}

        @settings(max_examples=30, deadline=None)
        @given(st.dictionaries(st.sampled_from(keys), PLAUSIBLE | JSON_VALUES, max_size=3))
        def check(drawn):
            workdir = tmp_path_factory.mktemp("fuzz")
            cfg = workdir / "cfg.json"
            cfg.write_text(json.dumps({**sizes, **drawn}))
            argv = [command, "--config", str(cfg)]
            argv += [a.format(**fuzz_inputs) for a in PINNED[command]]
            _assert_documented_exit(*_main_in(workdir, argv))

        check()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_arbitrary_argv(self, tmp_path_factory, fuzz_inputs, data):
        command = data.draw(st.sampled_from(COMMANDS))
        rows = cli._COMMANDS[command].options
        argv = [command, *(a.format(**fuzz_inputs) for a in PINNED[command])]
        for o in rows:  # small sizes and a first choice, so that drawn flags override them
            if o.key in SMALL_SIZES:
                size = SMALL_SIZES[o.key]
                argv += [o.flag, ",".join(map(str, size)) if isinstance(size, list) else str(size)]
            elif o.choices and o.default is None:
                argv += [o.flag, o.choices[0]]
        for o in data.draw(st.lists(st.sampled_from(rows), max_size=4, unique_by=id)):
            argv += [o.flag] if o.type is bool else [o.flag, data.draw(_flag_text(o, fuzz_inputs))]
        _assert_documented_exit(*_main_in(tmp_path_factory.mktemp("fuzz"), argv))

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(SMALL_SCENARIOS)),
        st.none() | JSON_VALUES,
        st.dictionaries(st.sampled_from(["n", "d", "k", "sigma", "n_out", "epsilon", "seed",
                                         "strict_separation", "center_scale", "alpha",
                                         "k_clusters", "spread", "separation", "shuffle",
                                         "magnitudes"]),
                        PLAUSIBLE | JSON_VALUES, max_size=2),
        st.none() | JSON_VALUES,
    )
    def test_arbitrary_sidecar(self, tmp_path_factory, kind, kind_override, params, needles):
        base = SMALL_SCENARIOS[kind].sidecar_obj()
        obj = {
            "kind": kind if kind_override is None else kind_override,
            "params": {**base["params"], **params},
            "needles": base["needles"] if needles is None else needles,
        }
        workdir = tmp_path_factory.mktemp("fuzz")
        (workdir / "s.json").write_text(json.dumps(obj))
        argv = ["gen", "--from-sidecar", str(workdir / "s.json"), "--out-keys", "k.kvt",
                "--out-meta", "m.json"]
        _assert_documented_exit(*_main_in(workdir, argv))
