"""Exception types shared across the package, and the checks on outside input.

Config files, scenario sidecars and CSV reports are read through
`parse_file`, and JSON values that must have one type go through
`json_value`, so a malformed input ends in ValidationError (exit 2 at the CLI).
"""

from __future__ import annotations

import csv
import os
import sys
from typing import get_args, get_origin


class ValidationError(ValueError):
    """Bad inputs: shapes, parameter domains, malformed files or configs."""


class EstimationError(RuntimeError):
    """A numeric procedure could not produce a finite estimate."""


# The value types a JSON input may be asked to have, with their wording in errors.
EXPECTED = {
    str: "a string",
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    list[str]: "a list of strings",
    list[int]: "a list of integers",
    list[float]: "a list of finite numbers",
}


def check_memory(need: int, what: str, held: str = "") -> None:
    """Refuse, before it is allocated, a request of `need` bytes beyond the
    machine's physical memory, where the platform reports it, with the
    message "<what> needs <N> GiB<held>, more than the <M> GiB of ..."."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValidationError(f"{what} needs {need / 2**30:.3g} GiB{held}, "
                              f"more than the {have / 2**30:.3g} GiB of physical memory")


def parse_file(path, parse, what: str):
    """`parse` applied to the UTF-8 text of `path`.

    Undecodable bytes and any parse error (ValueError, csv.Error, or nesting
    too deep to parse) become ValidationError naming `what` and the path;
    OSError passes through unchanged.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse(fh.read())
        except (ValueError, csv.Error, RecursionError) as exc:
            raise ValidationError(f"malformed {what} in {path}: {exc}") from exc


def is_json(kind, value) -> bool:
    """Whether a decoded JSON value has type `kind` (a key of EXPECTED).

    An integer is never a bool, and a number may be written as an integer
    but is never NaN or infinite (which Python's json module accepts).
    """
    if get_origin(kind) is list:
        return isinstance(value, list) and all(is_json(get_args(kind)[0], v) for v in value)
    if kind is bool:
        return isinstance(value, bool)
    if kind is float:
        # exact for any int; NaN and infinities fail it
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and not isinstance(value, bool)


def json_value(kind, value, name: str):
    """`value` as `kind` if it has that JSON type, else ValidationError naming `name`."""
    if not is_json(kind, value):
        raise ValidationError(f"{name}: expected {EXPECTED[kind]}, got {value!r}")
    if get_origin(kind) is list:
        return [get_args(kind)[0](v) for v in value]
    return kind(value)
