"""Text export of sample arrays: header lines and exact values; JSON records."""

import json
import os

import numpy as np
import pytest

from prtail import samples
from prtail.samples import CHUNK_ROWS, save_samples, write_json


def _header(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


def _save_samples_reference(path, values, source, seed, alpha):
    """save_samples with meta {"alpha": alpha}, one write per line."""
    integral = np.issubdtype(values.dtype, np.integer)
    with open(path, "w") as fh:
        fh.write(f"# source: {source}\n")
        fh.write(f"# seed: {seed}\n")
        fh.write(f"# count: {values.size}\n")
        fh.write(f"# dtype: {'int' if integral else 'float'}\n")
        fh.write(f"# alpha: {alpha!r}\n")
        for v in values:
            fh.write(f"{int(v)}\n" if integral else f"{float(v)!r}\n")


def test_header_lines_in_order(tmp_path):
    path = tmp_path / "r.txt"
    meta = {"pool_size": 10, "c": 0.5, "converged": False, "model": "InDegreeModel", "ks": np.float64(0.1)}
    save_samples(path, np.array([0.1, 1.0]), "r", 99, meta)
    assert _header(path) == [
        "# source: r",
        "# seed: 99",
        "# count: 2",
        "# dtype: float",
        "# c: 0.5",
        "# converged: false",
        "# ks: 0.1",
        "# model: InDegreeModel",
        "# pool_size: 10",
    ]


def test_round_trip_floats(tmp_path):
    values = np.array([0.1, 1.0, 2.5e-17, 1e300])
    path = tmp_path / "r.txt"
    save_samples(path, values, "r", 99, {"c": 0.5})
    assert path.read_text().splitlines()[5:] == ["0.1", "1.0", "2.5e-17", "1e+300"]
    assert np.array_equal(np.loadtxt(path, comments="#"), values)


def test_float_repr_survives_round_trip(tmp_path):
    # repr is shortest round-trip: reloading must reproduce bits exactly
    rng = np.random.default_rng(5)
    values = rng.random(1000) * 10.0 ** rng.integers(-10, 10, 1000)
    path = tmp_path / "v.txt"
    save_samples(path, values, "t", 0, {})
    assert np.array_equal(np.loadtxt(path, comments="#"), values)


def test_round_trip_ints(tmp_path):
    values = np.array([0, 3, 17, 2**62], dtype=np.int64)
    path = tmp_path / "n.txt"
    save_samples(path, values, "in-degree", 3, {"converged": True})
    assert _header(path)[2:] == ["# count: 4", "# dtype: int", "# converged: true"]
    back = np.loadtxt(path, comments="#", dtype=np.int64)
    assert np.array_equal(back, values)
    assert path.read_text().splitlines()[-1] == str(2**62)


def test_save_is_byte_deterministic(tmp_path):
    values = np.linspace(0.0, 1.0, 257)  # exercise non-terminating binary fractions
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_samples(p1, values, "r", 1, {"alpha": 1.1})
    save_samples(p2, values, "r", 1, {"alpha": 1.1})
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("rows", [0, 1, CHUNK_ROWS, 2 * CHUNK_ROWS + 3])
@pytest.mark.parametrize("kind", ["float", "int"])
def test_save_samples_bytes_match_reference(tmp_path, rows, kind):
    rng = np.random.default_rng(rows)
    if kind == "float":
        values = rng.random(rows) * 10.0 ** rng.integers(-300, 300, rows)
    else:
        values = rng.integers(0, 2**62, rows, dtype=np.int64)
        values[-1:] = 2**62
    save_samples(tmp_path / "new.txt", values, "r", 5, {"alpha": 1.1})
    _save_samples_reference(tmp_path / "ref.txt", values, "r", 5, 1.1)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_write_json_failing_partway_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "manifest.json"
    write_json(path, {"run": 1})
    before = path.read_bytes()

    def dump_then_fail(payload, fh, **kwargs):
        fh.write('{"run": ')
        raise OSError("no space left on purpose")

    monkeypatch.setattr(samples.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="on purpose"):
        write_json(path, {"run": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_write_json_replaces_the_file(tmp_path):
    path = tmp_path / "record.json"
    write_json(path, {"b": [1, 2.5], "a": None})
    write_json(path, {"z": True})
    assert path.read_text() == json.dumps({"z": True}, indent=2, sort_keys=True) + "\n"
    assert os.listdir(tmp_path) == ["record.json"]
