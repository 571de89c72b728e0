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
from .samples import write_id_pairs, write_table

DANGLING_POLICIES = ("redistribute", "drop")
DEFAULT_TOL = 1e-10
# power-iteration sweeps before pagerank reports non-convergence
MAX_ITER = 1000
_MAX_ID = np.iinfo(np.int64).max
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


def from_edges(src, dst, n: int, original_ids=None) -> DirectedGraph:
    """Graph on n nodes from parallel endpoint arrays of dense ids in
    [0, n)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size == 0:
        raise ParameterError("graph must have at least one edge")
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


def _plain(data: bytes) -> bool:
    """True when data holds only tab, LF, CR and printable ASCII, with
    every CR in a CRLF: np.loadtxt splits such bytes into lines and
    tokens as a text-mode file and str.split do."""
    if data.translate(None, _PLAIN_BYTES):
        return False
    # a search for CR costs a tenth of a count of CRLF
    return b"\r" not in data or data.count(b"\r") == data.count(b"\r\n")


def _has_inline_comment(data: bytes) -> bool:
    """True when a '#' follows data on its line."""
    pos = data.find(b"#")
    while pos >= 0:
        if data[data.rfind(b"\n", 0, pos) + 1 : pos].strip():
            return True
        end = data.find(b"\n", pos)
        if end < 0:
            return False
        pos = data.find(b"#", end)
    return False


def _table_columns(data: bytes):
    """(src, dst) id columns read by np.loadtxt, or None wherever the
    line loop must decide: bytes that are not plain, an inline '#', any
    loadtxt error or warning, a shape other than (k, 2), a negative id."""
    if not _plain(data) or _has_inline_comment(data):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(io.BytesIO(data), dtype=np.int64, comments="#", ndmin=2)
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
    """Graph of parsed edges, whose ids are all nonnegative."""
    bound = raw_src.size + raw_dst.size
    if max(raw_src.max(), raw_dst.max()) < bound:
        # ids below the endpoint count, as generate-gn writes them: a
        # presence table lists the distinct ones in order without a sort
        seen = np.zeros(bound, dtype=bool)
        seen[raw_src] = True
        seen[raw_dst] = True
        original_ids = np.flatnonzero(seen)
        del seen
    else:
        original_ids = _sorted_unique(np.concatenate([raw_src, raw_dst]))
    n = original_ids.size
    # n distinct nonnegative ids up to n - 1 are exactly 0..n-1, which
    # are their own dense ids: searchsorted would return them unchanged
    if original_ids[-1] == n - 1:
        src, dst = raw_src, raw_dst
    else:
        src = np.searchsorted(original_ids, raw_src)
        dst = np.searchsorted(original_ids, raw_dst)
    if keep_duplicates:
        return from_edges(src, dst, n=n, original_ids=original_ids)
    # the unique keys come sorted, so the edges are in (src, dst) order
    keys = _sorted_unique(src * np.int64(n) + dst)
    return DirectedGraph(n, keys // n, keys % n, original_ids)


def parse_edge_list(lines, keep_duplicates: bool = False) -> DirectedGraph:
    """Graph from "src dst" text; '#' lines are comments.

    Node ids may be arbitrary integers in [0, 2**63); they are remapped
    to dense [0, n) in ascending order with the mapping kept on the
    graph. Duplicate edges collapse unless keep_duplicates is set.
    `lines` is one string, whose lines end at "\n", "\r\n" or a lone
    "\r", or an iterable of lines; either goes through the line loop.
    Files go through load_edge_list, which reads plain ones with np.loadtxt.
    """
    if isinstance(lines, str):
        lines = io.StringIO(lines, newline=None)
    return _graph_from_ids(*_line_columns(lines), keep_duplicates)


def load_edge_list(path, keep_duplicates: bool = False) -> DirectedGraph:
    """parse_edge_list of a file's text, UTF-8 in any locale: lines
    end at "\n", "\r\n" or a lone "\r".

    The file is read once, as bytes, and np.loadtxt reads them when
    they pass the plainness and inline-'#' checks. Otherwise
    parse_edge_list reads the same bytes decoded as UTF-8, and a file
    that does not decode raises ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _table_columns(data)
    if columns is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not a text file: {exc}") from None
        return parse_edge_list(text, keep_duplicates)
    # the file's bytes go before the graph is built, which sets the peak
    del data
    return _graph_from_ids(*columns, keep_duplicates)


def write_edge_list(g: DirectedGraph, path) -> None:
    """Edge lines "u v" under original ids, in (src, dst) order, below
    a header line; parse_edge_list round-trips it. Each node's id is
    formatted once into a NUL-padded bytes table, and each chunk of
    lines is gathered from it (samples.write_id_pairs)."""
    head = f"# directed edge list: {g.n} nodes, {g.m} edges\n"
    write_id_pairs(path, head, g.original_ids, g.src, g.dst)


@dataclass(frozen=True)
class PageRankVector:
    """Power-iteration output in the mean-1 scaling."""

    values: np.ndarray
    c: float
    iterations: int
    residual: float
    converged: bool


def check_pagerank_args(c: float, tol: float, dangling: str) -> None:
    """Raise ParameterError unless pagerank accepts these settings."""
    if not 0 < c < 1:
        raise ParameterError(f"c must lie in (0, 1), got {c}")
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if dangling not in DANGLING_POLICIES:
        raise ParameterError(f"dangling must be one of {DANGLING_POLICIES}, got {dangling!r}")


def pagerank(
    g: DirectedGraph, c: float, tol: float = DEFAULT_TOL, dangling: str = "redistribute"
) -> PageRankVector:
    """Power iteration from PR = 1; stops when the total L1 change is
    at most tol * n (tol is a per-node tolerance), or unconverged after
    MAX_ITER sweeps."""
    check_pagerank_args(c, tol, dangling)
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
    while iterations < MAX_ITER:
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
    head = f"# c: {pv.c!r}\n# iterations: {pv.iterations}\n# residual: {pv.residual!r}\n"
    head += f"# converged: {'true' if pv.converged else 'false'}\n"
    write_table(path, head, "%d %r\n", g.original_ids, pv.values)

