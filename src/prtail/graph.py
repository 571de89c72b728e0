"""Sparse directed graphs and PageRank power iteration.

PageRank is computed in the mean-1 scaling

    PR(i) = c * sum_{j -> i} PR(j)/d_j + (1 - c)

so values are directly comparable with the rank variable R of the
fixed-point module. Dangling nodes (out-degree 0) redistribute their
mass uniformly by default, which keeps sum(PR) = n exactly; the
"drop" policy discards it instead and the mean-1 invariant is
relaxed.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import accel
from .errors import ParameterError, ParseError

DANGLING_POLICIES = ("redistribute", "drop")
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000
_MAX_ID = np.iinfo(np.int64).max
# rows per formatted chunk of the writers: one join per chunk keeps the
# text of a few MB in memory, not the whole file
_WRITE_CHUNK = 1 << 16
_PLAIN_BYTES = bytes([9, 10, 13, *range(32, 127)])


@dataclass(frozen=True)
class DirectedGraph:
    """Edge arrays sorted by (src, dst); node ids are dense [0, n)."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    original_ids: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"graph must have at least one node, got n={self.n}")
        src = np.asarray(self.src, dtype=np.int64)
        dst = np.asarray(self.dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ParameterError("src and dst must be 1-d arrays of equal length")
        if src.size and (src.min() < 0 or src.max() >= self.n or dst.min() < 0 or dst.max() >= self.n):
            raise ParameterError("edge endpoints must lie in [0, n)")
        original = np.asarray(self.original_ids, dtype=np.int64)
        if original.shape != (self.n,):
            raise ParameterError("original_ids must map every dense id")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "original_ids", original)

    @property
    def m(self) -> int:
        """Edge count."""
        return self.src.size

    @cached_property
    def out_degree(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.n)

    @cached_property
    def in_degree(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.n)


def from_edges(src, dst, n: int | None = None, original_ids=None) -> DirectedGraph:
    """Graph from parallel endpoint arrays with dense ids."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size == 0:
        raise ParameterError("graph must have at least one edge")
    if n is None:
        n = int(max(src.max(), dst.max())) + 1
    # same permutation as np.lexsort((dst, src)) for ids in [0, n)
    order = np.argsort(src * np.int64(n) + dst, kind="stable")
    if original_ids is None:
        original_ids = np.arange(n, dtype=np.int64)
    return DirectedGraph(n=n, src=src[order], dst=dst[order], original_ids=original_ids)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique of a nonempty 1-d array: sort, keep the first of each run."""
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _plain_text(text: str) -> bool:
    """True when the text holds only tab, LF, CR and printable ASCII, with
    every CR in a CRLF: np.loadtxt splits such text into lines and tokens
    as str.splitlines and str.split do."""
    return (
        text.isascii()
        and not text.encode("ascii").translate(None, _PLAIN_BYTES)
        and text.count("\r") == text.count("\r\n")
    )


def _has_inline_comment(text: str) -> bool:
    """True when a '#' follows data on its line."""
    pos = text.find("#")
    while pos >= 0:
        if text[text.rfind("\n", 0, pos) + 1 : pos].strip():
            return True
        end = text.find("\n", pos)
        if end < 0:
            return False
        pos = text.find("#", end)
    return False


def _table_columns(text: str):
    """(src, dst) id columns read by np.loadtxt, or None wherever the
    line loop must decide: text that is not plain, an inline '#', any
    loadtxt error or warning, a shape other than (k, 2), a negative id."""
    if not _plain_text(text) or _has_inline_comment(text):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(io.StringIO(text), dtype=np.int64, comments="#", ndmin=2)
        except (ValueError, Warning):
            return None
    if table.shape[1:] != (2,) or table.size == 0 or table.min() < 0:
        return None
    return table[:, 0], table[:, 1]


def _line_columns(lines):
    """(src, dst) id columns of "src dst" lines, raising ParseError on
    the first bad line."""
    raw_src, raw_dst = [], []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise ParseError(f"expected 'src dst', got {stripped!r}", line_number=number)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {stripped!r}", line_number=number) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative node id in {stripped!r}", line_number=number)
        if u > _MAX_ID or v > _MAX_ID:
            raise ParseError(f"node id above {_MAX_ID} in {stripped!r}", line_number=number)
        raw_src.append(u)
        raw_dst.append(v)
    if not raw_src:
        raise ParameterError("edge list contains no edges")
    return np.asarray(raw_src, dtype=np.int64), np.asarray(raw_dst, dtype=np.int64)


def _graph_from_ids(raw_src, raw_dst, keep_duplicates: bool) -> DirectedGraph:
    original_ids = _sorted_unique(np.concatenate([raw_src, raw_dst]))
    src = np.searchsorted(original_ids, raw_src)
    dst = np.searchsorted(original_ids, raw_dst)
    n = original_ids.size
    if not keep_duplicates:
        keys = _sorted_unique(src * np.int64(n) + dst)
        src, dst = keys // n, keys % n
    return from_edges(src, dst, n=n, original_ids=original_ids)


def parse_edge_list(lines, keep_duplicates: bool = False) -> DirectedGraph:
    """Graph from "src dst" text; '#' lines are comments.

    Node ids may be arbitrary integers in [0, 2**63); they are remapped
    to dense [0, n) in ascending order with the mapping kept on the
    graph. Duplicate edges collapse unless keep_duplicates is set.
    `lines` is one string (split with str.splitlines) or an iterable
    of lines.
    """
    if isinstance(lines, str):
        columns = _table_columns(lines) or _line_columns(lines.splitlines())
    else:
        columns = _line_columns(lines)
    return _graph_from_ids(*columns, keep_duplicates)


def load_edge_list(path, keep_duplicates: bool = False) -> DirectedGraph:
    """parse_edge_list of a file, whose lines end at newlines only."""
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not a text file: {exc}") from None
    # StringIO, like the file, breaks lines at "\n" alone, where
    # str.splitlines would also break them at "\x0c", "\x85" and others
    columns = _table_columns(text) or _line_columns(io.StringIO(text))
    return _graph_from_ids(*columns, keep_duplicates)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Edge lines under original ids; parse_edge_list round-trips it."""
    with open(path, "w") as fh:
        fh.write(f"# directed edge list: {g.n} nodes, {g.m} edges\n")
        for start in range(0, g.m, _WRITE_CHUNK):
            src = g.original_ids[g.src[start : start + _WRITE_CHUNK]].tolist()
            dst = g.original_ids[g.dst[start : start + _WRITE_CHUNK]].tolist()
            fh.write("".join(f"{u} {v}\n" for u, v in zip(src, dst)))


@dataclass(frozen=True)
class PageRankVector:
    """Power-iteration output in the mean-1 scaling."""

    values: np.ndarray
    c: float
    iterations: int
    residual: float
    converged: bool


def check_pagerank_args(
    c: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    dangling: str = "redistribute",
) -> None:
    """Raise ParameterError unless pagerank accepts these settings."""
    if not 0 < c < 1:
        raise ParameterError(f"c must lie in (0, 1), got {c}")
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    if dangling not in DANGLING_POLICIES:
        raise ParameterError(f"dangling must be one of {DANGLING_POLICIES}, got {dangling!r}")


def pagerank(
    g: DirectedGraph,
    c: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    dangling: str = "redistribute",
) -> PageRankVector:
    """Power iteration from PR = 1; stops when the total L1 change is
    at most tol * n (tol is a per-node tolerance)."""
    check_pagerank_args(c, tol, max_iter, dangling)
    n = g.n
    out_degree = g.out_degree
    inv_out = np.zeros(n)
    linked = out_degree > 0
    inv_out[linked] = 1.0 / out_degree[linked]
    dangling_idx = np.flatnonzero(~linked)
    pr = np.ones(n)
    iterations = 0
    residual = np.inf
    converged = False
    while iterations < max_iter:
        iterations += 1
        nxt = c * accel.edge_push(g.src, g.dst, pr * inv_out, n) + (1.0 - c)
        if dangling == "redistribute" and dangling_idx.size:
            nxt += c * pr[dangling_idx].sum() / n
        residual = float(np.abs(nxt - pr).sum())
        pr = nxt
        if residual <= tol * n:
            converged = True
            break
    return PageRankVector(
        values=pr, c=c, iterations=iterations, residual=residual, converged=converged
    )


def save_pagerank(pv: PageRankVector, g: DirectedGraph, path) -> None:
    """"node value" lines under original ids, with a run-metadata header."""
    with open(path, "w") as fh:
        fh.write(f"# c: {pv.c!r}\n")
        fh.write(f"# iterations: {pv.iterations}\n")
        fh.write(f"# residual: {pv.residual!r}\n")
        fh.write(f"# converged: {'true' if pv.converged else 'false'}\n")
        for start in range(0, g.n, _WRITE_CHUNK):
            nodes = g.original_ids[start : start + _WRITE_CHUNK].tolist()
            values = pv.values[start : start + _WRITE_CHUNK].tolist()
            fh.write("".join(f"{node} {value!r}\n" for node, value in zip(nodes, values)))

