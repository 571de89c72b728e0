"""Every file a run writes: tables (samples, CCDFs, PageRank vectors,
KS diagnostics, compare rows) go through write_table, one printf-style
row format per file ("%r\n", "%r,%r\n", "%d %r\n", ...); edge lists
through write_id_pairs, which formats each node's id once into a
NUL-padded bytes table and gathers each chunk's lines from it; and
JSON records (manifests, tail fits, offsets) through write_json, which
replaces its file whole."""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path

import numpy as np

# rows per formatted chunk: one format call and one write per chunk
# keep a few MB of text in memory, not the whole file
CHUNK_ROWS = 1 << 16


def write_table(path, head: str, fmt: str, *columns) -> None:
    """Write head, then fmt % (that index's values) for each index of
    the equal-length array columns. Values are Python scalars (tolist):
    %r of a float is its shortest round-trip repr, and %d of an int64
    id stays exact.

    Each CHUNK_ROWS-row chunk is formatted by one call,
    (fmt * k) % values, with the k rows' values interleaved, and written
    at once."""
    width = len(columns)
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            chunk = [column[start : start + CHUNK_ROWS].tolist() for column in columns]
            k = len(chunk[0])
            values = [None] * (k * width)
            for i, column in enumerate(chunk):
                values[i::width] = column
            fh.write((fmt * k) % tuple(values))


def write_id_pairs(path, head: str, ids: np.ndarray, first: np.ndarray, second: np.ndarray) -> None:
    """Write head, then the line f"{ids[i]} {ids[j]}\n" for each pair
    (i, j) of the equal-length index arrays first and second.

    Each id is formatted once, by numpy's cast to bytes (the digits str
    gives), into an S8, S16 or S32 table that pads it with NULs: the
    narrowest whose rows keep at least their last byte free. A chunk of
    CHUNK_ROWS pairs gathers its rows, first and second interleaved, by
    one np.take into a line buffer, puts the space or the newline in
    each row's last byte, and is written with its NULs deleted."""
    ids = np.asarray(ids, dtype=np.int64)
    # the longest id is the largest or the most negative one
    longest = max(len(str(ids.max())), len(str(ids.min())))
    width = 8
    while width <= longest:
        width *= 2
    table = ids.astype(f"S{width}")
    rows = 2 * min(len(first), CHUNK_ROWS)
    index = np.empty(rows, dtype=np.int64)
    line = np.empty(rows, dtype=table.dtype)
    # each row's last byte, over the same memory
    ends = line.view(np.uint8).reshape(rows, width)[:, -1]
    with open(path, "wb") as fh:
        fh.write(head.encode())
        for start in range(0, len(first), CHUNK_ROWS):
            k = 2 * min(CHUNK_ROWS, len(first) - start)
            index[0:k:2] = first[start : start + k // 2]
            index[1:k:2] = second[start : start + k // 2]
            np.take(table, index[:k], out=line[:k])
            ends[0:k:2] = ord(" ")
            ends[1:k:2] = ord("\n")
            fh.write(line[:k].tobytes().translate(None, b"\0"))


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
