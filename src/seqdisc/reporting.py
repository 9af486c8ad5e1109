"""Deterministic text output for reports and tables.

Every computed number leaving the package goes through the same
12-significant-digit decimal formatting, an input a report echoes is
printed exactly (see Echo), and JSON objects are emitted with sorted keys,
so runs with identical inputs produce byte-identical files on any platform.
"""

from __future__ import annotations

import functools
import json

import numpy as np

# rows format_rows renders at once; bounds its per-block arrays (a 6-column
# block of 35-byte cell slots is under 1 MB)
FORMAT_BLOCK_ROWS = 4096


def fmt(x: float) -> str:
    """Format one float with 12 significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.12g}"


def round_sig(x: float) -> float:
    """Round a float to 12 significant digits of decimal precision.

    Reading the formatted value back yields exactly this float, so reports
    round-trip through their serialized form."""
    return float(fmt(x))


class Echo(float):
    """An input value a report repeats.  jsonable() passes it through
    unrounded, so a report can be rerun from its own contents."""


def jsonable(obj):
    """Recursively convert a report structure to JSON-ready values; a
    record (a NamedTuple) becomes the mapping of its fields, not an array,
    so a report's schema is the field list of its record."""
    if hasattr(obj, "_fields"):
        return dict(zip(obj._fields, map(jsonable, obj)))
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float) and not isinstance(obj, Echo):
        return round_sig(obj)
    return obj


def dumps_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, indent=2) + "\n"


@functools.cache
def _tables():
    """format_rows's tables, built on first use: groups 0000-9999 as ASCII
    digits interleaved with 0xff, their trailing zeros, 10**0 .. 10**22, and a
    35-byte slot per exponent, trailing zeros and sign: 0xff where %g keeps a digit."""
    groups = np.full((10,) * 4 + (8,), 0xFF, np.uint8)
    groups[..., ::2] = np.moveaxis(np.indices((10,) * 4, np.uint8), 0, -1) + ord("0")
    z = (np.arange(10) == 0).astype(np.uint8)
    trailing = z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))
    pow10 = np.cumprod([1.0] + [10.0] * 22)  # every product is exact
    e, zeros, neg = np.indices((23, 13, 2)).reshape(3, -1) + [[-11], [0], [0]]
    fixed = e >= -4
    int_digits = np.where(fixed, np.maximum(e + 1, 0), 1)
    keep = np.maximum(12 - zeros, int_digits)[:, None]  # %g drops the fraction's trailing zeros
    lead = np.where(fixed & (e < 0), 1 - e, 0)[:, None]  # length of "0.000"[:lead]
    k = np.arange(12)
    # a slot: the sign, the "0.000" of values in [1e-4, 1), twelve digits
    # each followed by a point slot, "e-XX" and the comma; NULs fill what is unused
    slot = np.zeros((len(e), 35), np.uint8)
    slot[:, 0] = neg * ord("-")
    slot[:, 1:6] = (k[:5] < lead) * np.frombuffer(b"0.000", np.uint8)
    slot[:, 6:30:2] = (k < keep) * 0xFF
    slot[:, 7:30:2] = ((k == int_digits[:, None] - 1) & (k + 1 < keep)) * ord(".")
    slot[~fixed, 30:34] = [list(b"e-%02d" % -v) for v in e[~fixed]]
    slot[:, 34] = ord(",")
    tables = groups.reshape(10**4, 8).view(np.uint64).ravel(), trailing.ravel(), pow10, slot
    return tuple(table.setflags(write=False) or table for table in tables)  # shared: read-only


def _slots(x):
    """A slot of _tables() per cell of `x`, holding the cell in fmt()'s
    format and then a comma. For 0 and 1e-11 <= |x| < 1e11 the scale
    10**(11 - e) is exact, so rint(p) is correctly rounded unless p is a
    half-integer (each below 2**52 is a double), and e is right if
    rint(p) is in [1e11, 1e12): log10 misses the decade only next to a
    power of ten, where both decades round alike. The cells this arithmetic
    cannot settle, such a tie or miss and every cell outside that domain
    (nan and the infinities too), get fmt()'s text, at most 19 bytes."""
    groups, trailing, pow10, slot = _tables()
    ax = np.abs(x)
    outside = ~((ax < 1e11) & ((ax >= 1e-11) | (ax == 0.0)))
    ax = np.where(outside | (x == 0.0), 1.0, ax)  # log10 and the int casts stay finite
    e = np.clip(np.floor(np.log10(ax)).astype(np.intp), -11, 11)  # 10**(11 - e) stays exact
    p = ax * pow10[11 - e]
    m = np.rint(p)
    odd = np.flatnonzero(outside | (np.abs(p - m) == 0.5) | (m >= 1e12) | (m < 1e11))
    m[odd] = 0  # any digits in range: odd slots are overwritten below
    m = np.where(x == 0.0, 0, m).astype(np.int64)
    q0, q1, q2 = m // 10**8, m // 10**4 % 10**4, m % 10**4
    zeros = trailing[q2] + (q2 == 0) * (trailing[q1] + (q1 == 0) * trailing[q0])
    out = np.take(slot, ((e + 11) * 13 + zeros) * 2 + (x < 0), axis=0)
    for j, q in enumerate((q0, q1, q2)):
        out[:, 6:30].view(np.uint64)[:, j] &= groups[q]
    text = np.array([fmt(v) for v in x[odd].tolist()], "S34")  # NUL-padded to a slot
    out[odd, :34] = text.view(np.uint8).reshape(-1, 34)
    return out


def format_rows(a, eol: str) -> str:
    """Every number of a 2-D array in fmt()'s format: cells joined by
    commas, rows by eol, one ASCII character other than NUL. Each block of
    FORMAT_BLOCK_ROWS rows is one call of _slots, whose row-ending comma
    becomes eol; its NUL padding is deleted from the text."""
    a = np.asarray(a, dtype=np.float64)
    if not a.size:
        return eol.join([""] * len(a))
    blocks = []
    for b in np.split(a, range(FORMAT_BLOCK_ROWS, len(a), FORMAT_BLOCK_ROWS)):
        out = _slots(b.ravel())
        out.reshape(len(b), -1)[:, -1] = ord(eol)
        blocks.append(out.tobytes().translate(None, b"\0").decode())
    blocks[-1] = blocks[-1][:-1]  # the last row ends without eol
    return "".join(blocks)


def csv_text(header, rows) -> str:
    """Render a numeric table under a header line of strings; every cell is
    a number formatted with the one `%.12g` spec of fmt()."""
    return "\n".join([",".join(header), format_rows(rows, "\n"), ""])


def write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
