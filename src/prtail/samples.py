"""Every file a run writes: tables (samples, CCDFs, PageRank vectors,
KS diagnostics, compare rows) go through write_table, one printf-style
row format per file ("%r\n", "%r,%r\n", "%d %r\n", ...); edge lists
through write_id_pairs, which formats each node's id once into a
table of ASCII digits and gathers each chunk's lines from it as bytes;
and JSON records (manifests, tail fits, offsets) through write_json,
which replaces its file whole."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

# rows per formatted chunk: one format call and one write per chunk
# keep a few MB of text in memory, not the whole file
CHUNK_ROWS = 1 << 16


def write_table(path, head: str, fmt: str, *columns, convert=None) -> None:
    """Write head, then fmt % (that index's values) for each index of
    the equal-length array columns. Values are Python scalars (tolist),
    passed through convert first where it is given: %r of a float is
    its shortest round-trip repr, and %d of an int64 id stays exact.

    Each CHUNK_ROWS-row chunk is formatted by one call,
    (fmt * k) % values, with the k rows' values interleaved, and written
    at once."""
    width = len(columns)
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [column[start : start + CHUNK_ROWS].tolist() for column in columns]
            if convert is not None:
                chunk = [list(map(convert, column)) for column in chunk]
            k = len(chunk[0])
            values = [None] * (k * width)
            for i, column in enumerate(chunk):
                values[i::width] = column
            fh.write((fmt * k) % tuple(values))


# 10**1 .. 10**19: an int64's magnitude has one digit more than the
# number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _digit_table(ids: np.ndarray):
    """(digits, held): row i of the uint8 array digits holds str(ids[i])
    in ASCII, right-aligned before the row's last byte, which is left
    for a separator; the bool array held marks the bytes that str holds
    and each row's last byte. Rows are 8, 16 or 32 bytes wide, sizes
    that np.take copies as one item."""
    ids = np.asarray(ids, dtype=np.int64)
    negative = ids < 0
    # magnitudes in uint64, where -2**63 has one too
    rest = ids.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)
    length = np.searchsorted(_POWERS_OF_TEN, rest, side="right") + 1
    length += negative
    longest = int(length.max())
    width = 8
    while width <= longest:
        width *= 2
    digits = np.zeros((ids.size, width), dtype=np.uint8)
    for column in range(width - 2, width - 2 - longest, -1):
        digits[:, column] = rest % 10
        rest //= 10
    digits += ord("0")
    first = width - 1 - length
    digits[negative, first[negative]] = ord("-")
    return digits, np.arange(width) >= first[:, None]


def write_id_pairs(path, head: str, ids: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """Write head, then the line f"{ids[i]} {ids[j]}\n" for each pair
    (i, j) of the equal-length index arrays first and second.

    Each id is formatted once, into a row of _digit_table. A chunk of
    CHUNK_ROWS pairs gathers its rows, first and second interleaved, by
    one np.take of whole rows into a byte buffer; the space and the
    newline go in the rows' last bytes, and the bytes that str holds
    are written as one block."""
    digits, held = _digit_table(ids)
    width = digits.shape[1]
    item = np.dtype(f"V{width}")
    digits, held = digits.view(item).ravel(), held.view(item).ravel()
    rows = 2 * min(len(first), CHUNK_ROWS)
    index = np.empty(rows, dtype=np.int64)
    line = np.empty((rows, width), dtype=np.uint8)
    keep = np.empty((rows, width), dtype=bool)
    # one item per row, over the same memory
    line_items, keep_items = line.view(item).reshape(rows), keep.view(item).reshape(rows)
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(first), CHUNK_ROWS):
            k = 2 * min(CHUNK_ROWS, len(first) - start)
            index[0:k:2] = first[start : start + k // 2]
            index[1:k:2] = second[start : start + k // 2]
            np.take(digits, index[:k], out=line_items[:k])
            np.take(held, index[:k], out=keep_items[:k])
            line[0:k:2, -1] = ord(" ")
            line[1:k:2, -1] = ord("\n")
            fh.write(line[:k][keep[:k]])


def write_json(path, payload: dict) -> None:
    """payload as JSON with sorted keys, a two-space indent and a
    trailing newline.

    The text goes to a temporary file beside path, which then replaces
    path in one os.replace: a write that fails partway, on a full disk
    say, leaves any earlier file whole, and the temporary file is
    removed."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)
        raise


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def save_samples(path: str | Path, values: np.ndarray, source: str, seed: int, meta: dict) -> None:
    """Write one value per line after the header lines: source, seed,
    count, dtype, then the entries of meta in key order.

    Float values are written with shortest round-trip repr, so the
    same array and header always produce byte-identical files, and
    np.loadtxt(path, comments="#") reads the values back exactly.
    """
    integral = np.issubdtype(values.dtype, np.integer)
    head = f"# source: {source}\n# seed: {seed}\n# count: {values.size}\n"
    head += f"# dtype: {'int' if integral else 'float'}\n"
    head += "".join(f"# {k}: {_format_value(meta[k])}\n" for k in sorted(meta))
    write_table(path, head, "%d\n" if integral else "%r\n", values)
