"""Every file a run writes: tables (samples, CCDFs, edge lists,
PageRank vectors, KS diagnostics, compare rows) go through write_table,
one printf-style row format per file ("%r\n", "%r,%r\n", "%d %r\n",
...), and JSON records (manifests, tail fits, offsets) through
write_json."""

from __future__ import annotations

import json
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


def write_json(path, payload: dict) -> None:
    """payload as JSON with sorted keys, a two-space indent and a
    trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
