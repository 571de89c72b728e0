"""Text export of sample arrays with '#'-prefixed header lines."""

from __future__ import annotations

from pathlib import Path

import numpy as np


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
    with open(path, "w") as fh:
        fh.write(f"# source: {source}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(f"# count: {values.size}\n")
        fh.write(f"# dtype: {'int' if integral else 'float'}\n")
        for k in sorted(meta):
            fh.write(f"# {k}: {_format_value(meta[k])}\n")
        if integral:
            for v in values:
                fh.write(f"{int(v)}\n")
        else:
            for v in values:
                fh.write(f"{float(v)!r}\n")
