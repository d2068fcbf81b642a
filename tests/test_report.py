import json

import numpy as np
import pytest

from kvgeom import Report, config_hash, window_ablation
from kvgeom.report import TOOL_VERSION, _format_cell


def make_report(group=None):
    return Report(
        name="demo",
        columns=["row", "n", "seed", "value"],
        rows=[
            {"row": "run", "n": 2, "seed": 0, "value": 0.5},
            {"row": "run", "n": 2, "seed": 1, "value": 0.25},
            {"row": "mean", "n": 2, "seed": "", "value": 0.375},
            {"row": "run", "n": 4, "seed": 0, "value": 1.0},
            {"row": "mean", "n": 4, "seed": "", "value": 1.0},
        ],
        metadata={"seeds": [0, 1]},
        group_by=group,
    )


class TestCsv:
    def test_layout(self):
        text = make_report().to_csv_text()
        lines = text.splitlines()
        assert lines[0] == "# tool_version=0.1.0"
        assert f"# config_hash={config_hash({'seeds': [0, 1]})}" in lines
        assert "# seeds=[0, 1]" in lines
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == "row,n,seed,value"
        assert lines[header_idx + 1] == "run,2,0,0.5"

    def test_no_timestamp_and_deterministic(self):
        a = make_report().to_csv_text()
        b = make_report().to_csv_text()
        assert a == b

    def test_float_formatting_round_trips(self):
        report = Report(name="x", columns=["v"], rows=[{"v": 0.1 + 0.2}])
        line = report.to_csv_text().splitlines()[-1]
        assert float(line) == 0.1 + 0.2

    def test_write(self, tmp_path):
        path = tmp_path / "r.csv"
        make_report().write(path, "csv")
        assert path.read_text() == make_report().to_csv_text()


class TestJson:
    def test_flat_rows(self):
        obj = json.loads(make_report().to_json_text())
        assert len(obj["rows"]) == 5
        assert obj["metadata"]["tool_version"] == "0.1.0"

    def test_grouped_by_grid_key(self):
        obj = json.loads(make_report(group="n").to_json_text())
        assert obj["group_by"] == "n"
        assert [g["key"] for g in obj["groups"]] == [2, 4]
        assert len(obj["groups"][0]["rows"]) == 3
        assert len(obj["groups"][1]["rows"]) == 2


def ablation_report():
    # best_window, set after the sweep, is a function of the rest of the metadata
    return window_ablation(w_grid=[8, 64], n=64, d=8, k_clusters=2, rho=0.25, seeds=[0, 1])


class TestPrintedHash:
    """A report prints the config hash of exactly the other metadata it prints."""

    @pytest.mark.parametrize("report", [make_report, ablation_report])
    def test_csv_and_json_print_the_hash_of_their_metadata(self, report):
        report = report()
        printed = json.loads(report.to_json_text())["metadata"]
        assert printed.pop("tool_version") == TOOL_VERSION
        assert printed.pop("config_hash") == config_hash(printed)
        assert printed == json.loads(json.dumps(report.metadata))
        header = [ln for ln in report.to_csv_text().splitlines() if ln.startswith("#")]
        printed["config_hash"] = config_hash(printed)
        assert header == [f"# tool_version={TOOL_VERSION}",
                          *(f"# {k}={_format_cell(printed[k])}" for k in sorted(printed))]


class TestConfigHash:
    def test_stable_and_order_insensitive(self):
        a = config_hash({"x": 1, "y": [1, 2]})
        b = config_hash({"y": [1, 2], "x": 1})
        assert a == b and len(a) == 16

    def test_sensitive_to_values(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})

    def test_pinned_hex(self):
        # numpy scalars, arrays and tuples hash as their JSON values
        obj = {"method": "manifold", "n_grid": [64, 128], "seeds": (0, 1),
               "sigma": np.float64(0.5), "k": np.int64(3), "mask": np.array([1, 2])}
        assert config_hash(obj) == "792d0d0800c0eb93"
