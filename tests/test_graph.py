"""Edge-list ingestion and PageRank power iteration."""

import numpy as np
import pytest

from prtail import graph as graph_module
from prtail.errors import ParameterError, ParseError
from prtail.graph import (
    DirectedGraph,
    PageRankVector,
    from_edges,
    load_edge_list,
    pagerank,
    parse_edge_list,
    save_pagerank,
    write_edge_list,
)


def pagerank_dense_oracle(g, c, dangling="redistribute"):
    """Direct linear solve of the stationary equations for small graphs."""
    n = g.n
    out = g.out_degree.astype(float)
    P = np.zeros((n, n))
    for u, v in zip(g.src, g.dst):
        P[v, u] += 1.0 / out[u]
    if dangling == "redistribute":
        for u in np.flatnonzero(g.out_degree == 0):
            P[:, u] = 1.0 / n
    return np.linalg.solve(np.eye(n) - c * P, np.full(n, 1.0 - c))


def _parse_reference(lines, keep_duplicates=False):
    """parse_edge_list as one loop over lines, as it ran before np.loadtxt
    read the text, with the one intended change: an id of 2**63 or more
    raises ParseError on its line instead of OverflowError after the loop."""
    if isinstance(lines, str):
        lines = lines.splitlines()
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
        if u >= 2**63 or v >= 2**63:
            raise ParseError(f"node id above {2**63 - 1} in {stripped!r}", line_number=number)
        raw_src.append(u)
        raw_dst.append(v)
    if not raw_src:
        raise ParameterError("edge list contains no edges")
    raw_src = np.asarray(raw_src, dtype=np.int64)
    raw_dst = np.asarray(raw_dst, dtype=np.int64)
    original_ids = np.unique(np.concatenate([raw_src, raw_dst]))
    src = np.searchsorted(original_ids, raw_src)
    dst = np.searchsorted(original_ids, raw_dst)
    n = original_ids.size
    if not keep_duplicates:
        keys = np.unique(src * np.int64(n) + dst)
        src, dst = keys // n, keys % n
    order = np.lexsort((dst, src))
    return DirectedGraph(n=n, src=src[order], dst=dst[order], original_ids=original_ids)


def _write_edge_list_reference(g, path):
    """write_edge_list as one write per edge."""
    with open(path, "w") as fh:
        fh.write(f"# directed edge list: {g.n} nodes, {g.m} edges\n")
        ids = g.original_ids
        for u, v in zip(g.src, g.dst):
            fh.write(f"{ids[u]} {ids[v]}\n")


def _save_pagerank_reference(pv, g, path):
    """save_pagerank as one write per node."""
    with open(path, "w") as fh:
        fh.write(f"# c: {pv.c!r}\n")
        fh.write(f"# iterations: {pv.iterations}\n")
        fh.write(f"# residual: {pv.residual!r}\n")
        fh.write(f"# converged: {'true' if pv.converged else 'false'}\n")
        for node, value in zip(g.original_ids, pv.values):
            fh.write(f"{node} {float(value)!r}\n")


def _outcome(parse, *args, **kwargs):
    """The graph arrays parse returns, or the error it raises."""
    try:
        g = parse(*args, **kwargs)
    except (ParseError, ParameterError) as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return g.n, g.src.tolist(), g.dst.tolist(), g.original_ids.tolist()


def _random_edge_text(seed, m, header="# directed edge list\n", sep=" ", newline="\n"):
    rng = np.random.default_rng(seed)
    ids = rng.choice(2**62, size=m // 3 + 2, replace=False)
    src, dst = rng.choice(ids, m), rng.choice(ids, m)
    return header + "".join(f"{u}{sep}{v}{newline}" for u, v in zip(src.tolist(), dst.tolist()))


# loadtxt reads these; the differential test shows it reads them as the
# line loop does
PLAIN_CORPUS = [
    "1 0\n2 0\n3 0\n0 1\n",
    "0 1\r\n2 3\r\n",
    "0\t1\n2\t\t3\n",
    "+3 1\n-0 2\n007 3\n",
    "# only\n\n\n0 1\n\n# trailing comment\n",
    "  # indented comment\n0 1",
    "9223372036854775807 0\n",
    "0000000000000000000000001 2\n",
    _random_edge_text(1, 3000),
    _random_edge_text(2, 2000, header="", sep="\t", newline="\r\n"),
]

# the line loop decides these, by parsing them or by raising its error
ODD_CORPUS = [
    "0 1\r2 3\r",
    "0 1\n# c\r 3\n",
    "0\r1\n",
    "0 1\x0c2 3\n",
    "0\x0c1\n",
    "0\x0b1\n",
    "0\x851\n",
    "0\x1c1\n",
    "0\x1f1\n",
    "0\xa01\n",
    "1_0 2\n",
    "1.0 2\n",
    "1e3 2\n",
    "0x1 2\n",
    "\u0663 1\n",
    "\uff11 2\n",
    "0 1\n2 3 # inline\n",
    "0 1 #\n",
    "# comments only\n#\n",
    "",
    "\n\n  \n",
    "0 1\n9223372036854775808 2\n",
    "0 99999999999999999999\n",
    "0 1\n-1 2\n",
    "0 1\n-9223372036854775809 2\n",
    "0 1\n2\n",
    "5\n6\n",
    "0 1 2\n",
    "- 1\n",
    '"1" 2\n',
    "0 1\n2 x\n",
]


@pytest.mark.parametrize("text", PLAIN_CORPUS)
def test_loadtxt_reads_plain_text(text):
    assert graph_module._table_columns(text) is not None


@pytest.mark.parametrize("keep_duplicates", [False, True])
@pytest.mark.parametrize("text", PLAIN_CORPUS + ODD_CORPUS)
def test_parse_matches_line_loop(text, keep_duplicates):
    assert _outcome(parse_edge_list, text, keep_duplicates=keep_duplicates) == _outcome(
        _parse_reference, text, keep_duplicates=keep_duplicates
    )


@pytest.mark.parametrize("text", PLAIN_CORPUS + ODD_CORPUS)
def test_load_matches_line_loop_over_file(text, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(text.encode("utf-8"))
    with open(path) as fh:
        expected = _outcome(_parse_reference, fh)
    assert _outcome(load_edge_list, path) == expected


def test_load_undecodable_file_is_parse_error(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    with pytest.raises(ParseError):
        load_edge_list(path)


def test_parse_huge_id_names_its_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("# header\n0 1\n0 99999999999999999999\n")
    assert err.value.line_number == 3


def test_parse_iterable_of_lines_matches_text():
    text = _random_edge_text(3, 500)
    assert _outcome(parse_edge_list, text.splitlines()) == _outcome(parse_edge_list, text)


def test_parse_star_example():
    g = parse_edge_list("1 0\n2 0\n3 0\n0 1\n")
    assert g.n == 4
    assert np.array_equal(g.in_degree, [3, 1, 0, 0])
    assert np.array_equal(g.out_degree, [1, 1, 1, 1])


def test_parse_remaps_sparse_ids():
    g = parse_edge_list("# comment\n10 500\n500 9999\n\n10 9999\n")
    assert g.n == 3
    assert np.array_equal(g.original_ids, [10, 500, 9999])
    assert g.m == 3
    # dense edges sorted by (src, dst)
    assert np.array_equal(g.src, [0, 0, 1])
    assert np.array_equal(g.dst, [1, 2, 2])


def test_parse_collapses_duplicates_by_default():
    g = parse_edge_list("0 1\n0 1\n1 0\n")
    assert g.m == 2
    kept = parse_edge_list("0 1\n0 1\n1 0\n", keep_duplicates=True)
    assert kept.m == 3
    assert np.array_equal(kept.out_degree, [2, 1])


@pytest.mark.parametrize(
    "text,line",
    [
        ("0 1\n0 1 2\n", 2),
        ("0 1\nx 2\n", 2),
        ("# header\n0 1\n-1 2\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line_number == line
    assert f"line {line}" in str(err.value)


def test_parse_rejects_edgeless_input():
    with pytest.raises(ParameterError):
        parse_edge_list("# nothing but comments\n")


def test_graph_validates_endpoints():
    with pytest.raises(ParameterError):
        DirectedGraph(n=2, src=np.array([0]), dst=np.array([5]), original_ids=np.arange(2))


def test_round_trip_write_parse(tmp_path):
    g = parse_edge_list("7 3\n3 7\n7 11\n11 3\n")
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n == g.n
    assert np.array_equal(back.original_ids, g.original_ids)
    assert np.array_equal(back.src, g.src)
    assert np.array_equal(back.dst, g.dst)


def test_pagerank_two_cycle_is_exactly_one():
    g = parse_edge_list("0 1\n1 0\n")
    pv = pagerank(g, c=0.85)
    assert np.all(pv.values == 1.0)
    assert pv.converged
    assert pv.iterations == 1


def test_pagerank_three_cycle_is_one():
    g = parse_edge_list("0 1\n1 2\n2 0\n")
    pv = pagerank(g, c=0.5)
    assert np.allclose(pv.values, 1.0, atol=1e-12)
    assert pv.converged


def test_pagerank_star_against_dense_oracle():
    g = parse_edge_list("1 0\n2 0\n3 0\n0 1\n")
    pv = pagerank(g, c=0.85)
    oracle = pagerank_dense_oracle(g, 0.85)
    assert np.allclose(pv.values, oracle, atol=1e-9)
    # hub collects three full shares, leaves 2 and 3 only teleport mass
    assert pv.values[0] > pv.values[1] > pv.values[2]
    assert pv.values[2] == pv.values[3]


@pytest.mark.parametrize("dangling", ["redistribute", "drop"])
def test_pagerank_matches_dense_oracle_random_graphs(dangling):
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 4 * n))
        g = from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n=n)
        c = float(rng.uniform(0.05, 0.95))
        pv = pagerank(g, c=c, dangling=dangling)
        if dangling == "redistribute":
            oracle = pagerank_dense_oracle(g, c)
        else:
            out = g.out_degree.astype(float)
            P = np.zeros((n, n))
            for u, v in zip(g.src, g.dst):
                P[v, u] += 1.0 / out[u]
            oracle = np.linalg.solve(np.eye(n) - c * P, np.full(n, 1.0 - c))
        assert pv.converged
        assert np.allclose(pv.values, oracle, atol=1e-8)


def test_pagerank_mass_conservation_with_redistribution():
    rng = np.random.default_rng(23)
    g = from_edges(rng.integers(0, 50, 200), rng.integers(0, 50, 200), n=50)
    pv = pagerank(g, c=0.9)
    assert pv.values.sum() == pytest.approx(g.n, abs=1e-8)


def test_pagerank_floor_and_drop_mode_mass():
    g = parse_edge_list("0 1\n2 1\n")  # node 1 is dangling
    for policy in ("redistribute", "drop"):
        pv = pagerank(g, c=0.85, dangling=policy)
        assert pv.values.min() >= 1.0 - 0.85
    dropped = pagerank(g, c=0.85, dangling="drop")
    assert dropped.values.sum() < g.n


def test_pagerank_parameter_validation():
    g = parse_edge_list("0 1\n1 0\n")
    for kwargs in (dict(c=0.0), dict(c=1.0), dict(c=0.5, tol=0.0), dict(c=0.5, max_iter=0)):
        with pytest.raises(ParameterError):
            pagerank(g, **kwargs)
    with pytest.raises(ParameterError):
        pagerank(g, c=0.5, dangling="teleport")


def test_pagerank_non_convergence_reported():
    g = parse_edge_list("1 0\n2 0\n3 0\n0 1\n")
    pv = pagerank(g, c=0.99, tol=1e-15, max_iter=2)
    assert not pv.converged
    assert pv.iterations == 2
    assert pv.residual > 0.0


def test_save_pagerank_format(tmp_path):
    g = parse_edge_list("5 9\n9 5\n")
    pv = pagerank(g, c=0.85)
    path = tmp_path / "pr.txt"
    save_pagerank(pv, g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# c: 0.85"
    assert lines[3] == "# converged: true"
    assert lines[4] == "5 1.0"
    assert lines[5] == "9 1.0"


def _sparse_graph(seed, n, m):
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(2**62, size=n, replace=False))
    return from_edges(rng.integers(0, n, m), rng.integers(0, n, m), n=n, original_ids=ids)


def test_write_edge_list_bytes_match_reference(tmp_path):
    chunk = graph_module._WRITE_CHUNK
    g = _sparse_graph(4, 1000, 2 * chunk + 123)
    write_edge_list(g, tmp_path / "new.txt")
    _write_edge_list_reference(g, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_save_pagerank_bytes_match_reference(tmp_path):
    chunk = graph_module._WRITE_CHUNK
    n = chunk + 777
    g = _sparse_graph(5, n, 2 * n)
    rng = np.random.default_rng(6)
    values = rng.random(n) * 10.0 ** rng.integers(-300, 300, n)
    values[:3] = [0.15, 1.0, 5e-324]
    pv = PageRankVector(values=values, c=0.85, iterations=7, residual=1e-11, converged=False)
    save_pagerank(pv, g, tmp_path / "new.txt")
    _save_pagerank_reference(pv, g, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()
