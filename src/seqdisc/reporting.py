"""Deterministic text output for reports and tables.

Every number leaving the package goes through the same 12-significant-digit
decimal formatting, and JSON objects are emitted with sorted keys, so runs
with identical inputs produce byte-identical files on any platform.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

SIG_DIGITS = 12
# rows rendered per %-format call by format_rows; bounds its temporary tuple
FORMAT_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Format one float with 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.{SIG_DIGITS}g}"


def round_sig(x: float) -> float:
    """Round a float to 12 significant digits of decimal precision.

    Reading the formatted value back yields exactly this float, so reports
    round-trip through their serialized form."""
    return float(fmt(x))


def jsonable(obj):
    """Recursively convert a report structure to JSON-ready values; a
    dataclass instance becomes the mapping of its fields, so a report's
    schema is the field list of its dataclass."""
    if dataclasses.is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return round_sig(float(obj))
    return obj


def dumps_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


def format_rows(a, sep: str, eol: str) -> str:
    """Every number of a 2-D array in fmt()'s format: cells joined by sep,
    rows by eol.

    One %-template per block of FORMAT_BLOCK_ROWS rows replaces a Python
    call per number; `%.12g` and fmt()'s f-string run the same conversion,
    and adding 0.0 normalizes -0.0 as fmt() does, so the bytes are fmt()'s."""
    a = np.asarray(a, dtype=np.float64)
    line = sep.join([f"%.{SIG_DIGITS}g"] * a.shape[1])
    return eol.join(
        eol.join([line] * len(block)) % tuple((block + 0.0).ravel().tolist())
        for block in np.split(a, range(FORMAT_BLOCK_ROWS, len(a), FORMAT_BLOCK_ROWS))
    )


def csv_text(header, rows) -> str:
    """Render a numeric table under a header line; every cell is a number
    formatted with the one `%.12g` spec of fmt()."""
    return "\n".join([",".join(str(h) for h in header), format_rows(rows, ",", "\n"), ""])


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
