"""Tabular experiment reports with deterministic CSV/JSON emission.

CSV files start with ``# key=value`` provenance comment lines (tool version,
config hash, seed list -- never a timestamp) so identical configs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

TOOL_VERSION = "0.1.0"
# CSV rows formatted and written at a time, so a large report is never
# held as text all at once
CSV_BLOCK_ROWS = 2**14


def config_hash(obj) -> str:
    """Short stable hash of a JSON-serializable config."""
    canon = json.dumps(obj, sort_keys=True, default=_jsonable)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (tuple, set)):
        return list(v)
    raise TypeError(f"not JSON-serializable: {type(v)}")


def _format_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (np.floating, float)):
        return repr(float(v))
    if isinstance(v, (np.integer, int)):
        return str(int(v))
    return str(v)


def _format_column(values) -> list:
    """Every cell of one column as CSV text, as `_format_cell` formats it.

    A numpy column of integers or floats is formatted in one pass (`str` of
    each int, `repr` of each float); any other column cell by cell. Integers
    spanning fewer values than the column has cells are formatted once per
    value in that span and looked up.
    """
    kind = values.dtype.kind if isinstance(values, np.ndarray) else None
    if kind in ("i", "u"):
        if values.size and int(values.max()) - int(values.min()) < values.size:
            # widened, so the offsets from the minimum cannot wrap (an int8
            # column can span 255)
            wide = values.astype(np.int64 if kind == "i" else np.uint64, copy=False)
            lo = wide.min()
            table = np.array(list(map(str, range(int(lo), int(wide.max()) + 1))), dtype=object)
            return table[wide - lo].tolist()
        return list(map(str, values.tolist()))
    if kind == "f":
        return list(map(repr, values.astype(np.float64, copy=False).tolist()))
    return [_format_cell(v) for v in values]


class Columns:
    """Report rows held as one array (or list) per column.

    Reads as a sequence of row dicts, like the `rows` list it stands in for,
    while the CSV writer takes each column whole.
    """

    def __init__(self, **columns):
        if len({len(v) for v in columns.values()}) > 1:
            raise ValueError("columns differ in length")
        self.data = columns

    def __len__(self) -> int:
        return len(next(iter(self.data.values()), ()))

    def __getitem__(self, i: int) -> dict:
        return {name: values[i] for name, values in self.data.items()}

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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

    def _csv_blocks(self):
        """The CSV text in pieces: the header lines, then CSV_BLOCK_ROWS rows at a time."""
        lines = [f"# tool_version={TOOL_VERSION}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={_format_cell(self.metadata[key])}")
        lines.append(",".join(self.columns))
        yield "\n".join(lines) + "\n"
        columns = [self._column(c) for c in self.columns]
        for s in range(0, len(self.rows), CSV_BLOCK_ROWS):
            cells = [_format_column(values[s : s + CSV_BLOCK_ROWS]) for values in columns]
            lines = list(map(",".join, zip(*cells)))
            lines.append("")  # ends the last row
            yield "\n".join(lines)

    def to_csv_text(self) -> str:
        return "".join(self._csv_blocks())

    def to_json_text(self) -> str:
        obj = {
            "name": self.name,
            "metadata": {"tool_version": TOOL_VERSION, **self.metadata},
            "columns": self.columns,
        }
        if self.group_by is None:
            obj["rows"] = list(self.rows)
        else:
            keys = []
            for row in self.rows:
                if row[self.group_by] not in keys:
                    keys.append(row[self.group_by])
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
