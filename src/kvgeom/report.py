"""Tabular experiment reports with deterministic CSV/JSON emission.

A report prints the tool version, its metadata (what reached its rows, never
a timestamp) and the config hash of exactly that metadata, as ``# key=value``
lines atop a CSV file, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

TOOL_VERSION = "0.1.0"
# CSV rows formatted and written at a time, so a large report is never
# held as text all at once
CSV_BLOCK_ROWS = 2**14


def config_hash(obj) -> str:
    """Short stable hash of a JSON-serializable config."""
    import hashlib  # imported here: it loads OpenSSL, which only a report hash needs
    canon = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def write_json(path, obj) -> None:
    """Write `obj` to `path` as indented, key-sorted JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _format_column(values, block: int):
    """Every cell of one column as CSV text, as `_format_cell` formats it, in
    lists of `block` cells.

    A numpy column of integers spanning fewer values than it has cells (such
    as batch, head and token indices) is formatted once per value in that
    span, for the whole column, and looked up; a numpy column of floats a
    block per pass (`repr` of each float); any other column cell by cell.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    table = None
    if kind in ("i", "u") and values.size and int(values.max()) - int(values.min()) < values.size:
        # widened, so offsets from the minimum cannot wrap (int8 can span 255)
        values = values.astype(np.int64 if kind == "i" else np.uint64, copy=False)
        lo = values.min()
        table = np.array(list(map(str, range(int(lo), int(values.max()) + 1))), dtype=object)
    for s in range(0, len(values), block):
        part = values[s : s + block]
        if table is not None:
            yield table[part - lo].tolist()
        elif kind == "f":
            yield list(map(repr, part.tolist()))
        else:
            yield [_format_cell(v) for v in part]


class Columns:
    """Report rows held as one array (or list) per column, which the CSV
    writer takes whole; a report of Columns is written as CSV only."""

    def __init__(self, **columns):
        if len({len(v) for v in columns.values()}) > 1:
            raise ValueError("columns differ in length")
        self.data = columns

    def __len__(self) -> int:
        return len(next(iter(self.data.values()), ()))


@dataclass
class Report:
    """Rows of named numeric fields plus provenance metadata.

    `rows` is a list of row dicts or, for large reports, `Columns`.
    Sweep reports set `group_by` to their grid column; JSON output then nests
    rows under one group entry per grid value (CSV stays flat, one row per
    job with seed-mean rows flagged in the `row` column).
    """

    name: str
    columns: list
    rows: list | Columns = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    group_by: str | None = None

    def _column(self, name: str):
        if isinstance(self.rows, Columns):
            return self.rows.data.get(name, [""] * len(self.rows))
        return [row.get(name, "") for row in self.rows]

    def _printed_metadata(self) -> dict:
        return {**self.metadata, "config_hash": config_hash(self.metadata)}

    def _csv_blocks(self):
        """The CSV text in pieces: the header lines, then CSV_BLOCK_ROWS rows at a time."""
        lines = [f"# tool_version={TOOL_VERSION}"]
        for key, value in sorted(self._printed_metadata().items()):
            lines.append(f"# {key}={_format_cell(value)}")
        lines.append(",".join(self.columns))
        yield "\n".join(lines) + "\n"
        columns = [_format_column(self._column(c), CSV_BLOCK_ROWS) for c in self.columns]
        for cells in zip(*columns):
            lines = list(map(",".join, zip(*cells)))
            lines.append("")  # ends the last row
            yield "\n".join(lines)

    def to_csv_text(self) -> str:
        return "".join(self._csv_blocks())

    def to_json_text(self) -> str:
        obj = {
            "name": self.name,
            "metadata": {"tool_version": TOOL_VERSION, **self._printed_metadata()},
            "columns": self.columns,
        }
        if self.group_by is None:
            obj["rows"] = list(self.rows)
        else:
            keys = list(dict.fromkeys(row[self.group_by] for row in self.rows))
            obj["group_by"] = self.group_by
            obj["groups"] = [
                {"key": k, "rows": [r for r in self.rows if r[self.group_by] == k]}
                for k in keys
            ]
        return json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n"

    def write(self, path, fmt: str = "csv") -> None:
        blocks = self._csv_blocks() if fmt == "csv" else [self.to_json_text()]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(blocks)
