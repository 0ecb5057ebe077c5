import io
import math

import numpy as np
import pytest

from convexa import InputError, build_graph, read_edge_flags, read_edge_tsv, write_edge_tsv
from convexa.graph import block_cliques
from convexa.synth import Kind, generate
from oracles import (
    biconnected_components,
    block_partition_oracle,
    component_labels_loop,
    connected_components,
    is_bridge,
    is_clique_oracle,
    random_corpus,
    random_graph,
)


def test_duplicate_records_merge_by_weight_sum():
    g = build_graph([("a", "b"), ("b", "a")])
    assert g.m == 1
    assert g.weights[0] == 2.0


def test_self_loops_dropped_with_count():
    g = build_graph([("a", "a")])
    assert g.m == 0
    assert g.n == 1
    assert g.self_loops_dropped == 1


def test_weighted_construction():
    g = build_graph([("a", "b", 0.5), ("b", "c", 1.5)])
    assert g.n == 3 and g.m == 2
    assert g.total_weight == 2.0


def test_nonpositive_weight_rejected_naming_record():
    with pytest.raises(InputError, match="'a'.*'b'"):
        build_graph([("a", "b", 0.0)])
    with pytest.raises(InputError):
        build_graph([("x", "y", -2.0)])


def test_isolated_nodes_included():
    g = build_graph([("a", "b")], isolated_nodes=["z"])
    assert set(g.ids) == {"a", "b", "z"}


def test_bfs_path():
    g = build_graph([("a", "b"), ("b", "c")])
    assert g.dist_matrix[g.index["a"]].tolist() == [0, 1, 2]


def test_bfs_clique():
    g = build_graph([(u, v) for u in "abcd" for v in "abcd" if u < v])
    assert g.dist_matrix[g.index["c"]].tolist() == [1, 1, 0, 1]


def test_bfs_unreachable():
    g = build_graph([("a", "b"), ("c", "d")])
    row = g.dist_matrix[g.index["a"]]
    assert row[g.index["c"]] == -1 and row[g.index["d"]] == -1


def test_components_ordering():
    g = build_graph([("a", "b"), ("b", "c")])
    assert connected_components(g) == [{"a", "b", "c"}]
    g2 = build_graph([("a", "b"), ("c", "d")])
    assert connected_components(g2) == [{"a", "b"}, {"c", "d"}]
    g3 = build_graph([], isolated_nodes="pqrst")
    comps = connected_components(g3)
    assert len(comps) == 5 and all(len(c) == 1 for c in comps)
    # ties broken by smallest member
    assert comps[0] == {"p"}


def test_biconnected_cycle_single_block():
    c4 = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    blocks = biconnected_components(c4)
    assert len(blocks) == 1 and len(blocks[0]) == 4


def test_biconnected_path_singletons():
    g = build_graph([("a", "b"), ("b", "c")])
    blocks = biconnected_components(g)
    assert sorted(len(b) for b in blocks) == [1, 1]


def test_biconnected_triangle_with_pendant():
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    blocks = sorted(biconnected_components(g), key=len)
    assert blocks[0] == frozenset({("c", "d")})
    assert blocks[1] == frozenset({("a", "b"), ("b", "c"), ("a", "c")})
    # cut vertices found by exhaustive node removal agree: only c
    for drop in "abd":
        rest = [e for e in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")] if drop not in e]
        kept_nodes = set("abcd") - {drop}
        sub = build_graph(rest, isolated_nodes=kept_nodes)
        assert len(connected_components(sub)) == 1
    sub = build_graph([("a", "b")], isolated_nodes={"a", "b", "d"})
    assert len(connected_components(sub)) == 2  # removing c disconnects


def test_is_bridge():
    path = build_graph([("a", "b"), ("b", "c")])
    assert is_bridge(path, ("a", "b"))
    c4 = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    assert not any(is_bridge(c4, c4.edge_ids(e)) for e in range(c4.m))
    paw = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert is_bridge(paw, ("c", "d"))
    with pytest.raises(InputError):
        is_bridge(paw, ("a", "d"))


def test_block_edge_counts_partition_edges():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(2, 15)), 0.3)
        blocks = biconnected_components(g)
        assert sum(len(b) for b in blocks) == g.m
        # a bridge is exactly a singleton block
        singles = {next(iter(b)) for b in blocks if len(b) == 1}
        for e in range(g.m):
            assert is_bridge(g, g.edge_ids(e)) == (g.edge_ids(e) in singles)


def test_blocks_and_clique_test_match_brute_force():
    rng = np.random.default_rng(11)
    tocs = [generate(Kind.TREE_OF_CLIQUES, {"cliques": 6, "smin": 2, "smax": 5}, seed=s)
            for s in range(5)]
    for g in random_corpus(rng, 60) + tocs:
        label = g.block_label
        assert not label.flags.writeable
        blocks = {}
        for e, b in enumerate(label.tolist()):
            blocks.setdefault(b, set()).add(e)
        # labelled 0, 1, ... with no gap, one partition of the edges
        assert sorted(blocks) == list(range(len(blocks)))
        assert set(map(frozenset, blocks.values())) == block_partition_oracle(g)
        clique = block_cliques(g.n, g.edge_idx, label)
        assert clique.tolist() == [is_clique_oracle(g, blocks[b]) for b in range(len(blocks))]
        assert g.is_tree_of_cliques == (g.connected and all(clique))
    assert all(g.is_tree_of_cliques for g in tocs)


def test_bfs_triangle_inequality_sampled():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 12, 0.3, connected=True)
    D = g.dist_matrix
    for _ in range(200):
        a, b, c = rng.choice(g.n, 3)
        assert D[a, c] <= D[a, b] + D[b, c]


def test_component_sizes_sum_to_n():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(1, 20)), 0.15)
        assert sum(len(c) for c in connected_components(g)) == g.n


def test_tsv_round_trip(tmp_path):
    g = build_graph([("a", "b", 2.5), ("b", "c")])
    p = tmp_path / "net.tsv"
    import io

    buf = io.StringIO()
    write_edge_tsv(g, buf)
    p.write_text("# comment line\n" + buf.getvalue())
    g2 = read_edge_tsv(p)
    assert g2.ids == g.ids
    assert np.array_equal(g2.edge_idx, g.edge_idx)
    assert np.array_equal(g2.weights, g.weights)


def test_tsv_bad_weight(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tb\tnotanumber\n")
    with pytest.raises(InputError):
        read_edge_tsv(p)


@pytest.mark.parametrize("line", ["a\t", "\tb", "a\t\t2"])
def test_tsv_empty_node_id_names_its_line(tmp_path, line):
    p = tmp_path / "empty.tsv"
    p.write_text(f"x\ty\n{line}\n")
    with pytest.raises(InputError) as exc:
        read_edge_tsv(p)
    assert str(exc.value) == f"{p}:2: empty node id"


def test_write_refuses_an_empty_node_id():
    buf = io.StringIO()
    with pytest.raises(InputError):
        write_edge_tsv(build_graph([("a", "b"), ("", "a")]), buf)
    assert buf.getvalue() == ""


def _flagged_lines(g, flags):
    import io

    buf = io.StringIO()
    write_edge_tsv(g, buf, flags=flags, flag_name="in_skeleton")
    return buf.getvalue().splitlines(keepends=True)


def test_edge_sets_hold_only_the_graphs_positions():
    g = build_graph([("a", "b"), ("b", "c"), ("a", "c")])
    assert g.edge_set(range(g.m)) == frozenset({0, 1, 2})
    assert g.edge_set(np.array([2, 0], np.int32)) == frozenset({0, 2})
    assert g.edge_set(()) == frozenset()
    # -1 would pick the last edge and m would raise IndexError as an index
    for bad in ({-1}, {g.m}, {1.5}, {True}, {"0"}, {(0, 1)}):
        with pytest.raises(InputError):
            g.edge_set(bad)
        with pytest.raises(InputError):
            g.subgraph_with_edges(bad)
        buf = io.StringIO()
        with pytest.raises(InputError):
            write_edge_tsv(g, buf, flags=bad)
        assert buf.getvalue() == ""


def test_flagged_tsv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    p = tmp_path / "flags.tsv"
    for g in random_corpus(rng, 30):
        flags = {e for e in range(g.m) if rng.random() < 0.5}
        lines = _flagged_lines(g, flags)
        # every other edge line written as `v u`
        for i in range(1, len(lines), 2):
            u, v, rest = lines[i].split("\t", 2)
            lines[i] = f"{v}\t{u}\t{rest}"
        p.write_text("".join(lines))
        assert read_edge_flags(g, p) == flags


@pytest.mark.parametrize("case", ["three-fields", "listed-twice", "missing-edge", "flag-not-0-or-1"])
def test_flagged_tsv_rejects_malformed_files(tmp_path, case):
    g = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    lines = _flagged_lines(g, {0, 2})  # a comment line, then one line per edge
    if case == "three-fields":
        lines[2] = "b\tc\t1\n"
    elif case == "listed-twice":
        lines.insert(3, "c\tb\t1\t0\n")
    elif case == "missing-edge":
        del lines[3]
    else:
        lines[1] = lines[1].replace("\t1\n", "\tyes\n")
    p = tmp_path / "flags.tsv"
    p.write_text("".join(lines))
    with pytest.raises(InputError) as exc:
        read_edge_flags(g, p)
    if case == "three-fields":
        assert f"{p}:3: expected 4 tab-separated fields" in str(exc.value)
    elif case == "listed-twice":
        assert f"{p}:4: " in str(exc.value) and "listed twice" in str(exc.value)
    elif case == "missing-edge":
        assert str(exc.value) == f"{p}: lists 2 of the graph's 3 edges"
    else:
        assert f"{p}:2: flag 'yes' is neither 0 nor 1" in str(exc.value)


def test_labels_match_the_loop_on_random_graphs():
    for g in random_corpus(np.random.default_rng(71), 60):
        labels = component_labels_loop(g)
        assert g.labels.tolist() == labels.tolist()
        assert g.connected == (len(set(labels.tolist())) <= 1)


def test_labels_are_each_components_smallest_index():
    g = build_graph([("d", "b"), ("c", "e"), ("e", "a")], isolated_nodes=["f"])
    # a b c d e f -> {a, c, e} = 0, {b, d} = 1, {f} = 5
    assert g.labels.tolist() == [0, 1, 0, 1, 0, 5]
    assert not g.connected
