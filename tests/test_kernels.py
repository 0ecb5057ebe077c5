"""Kernels must agree exactly with their loop references and oracles."""

import importlib
import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import convexa as cx
from convexa import _kernels
from convexa.synth import Kind, connected_er, generate
from oracles import (
    bfs_all_loop,
    brandes_loop,
    common_neighbors_loop,
    convex_hull_oracle,
    expansion_run_loop,
    hull_close_loop,
    random_corpus,
    random_gnm,
    random_graph,
)

convexity_module = importlib.import_module("convexa.convexity")


def _graphs():
    rng = np.random.default_rng(99)
    for _ in range(10):
        yield random_graph(rng, int(rng.integers(3, 25)), 0.3), rng


def test_bfs_all_backends_agree():
    # two components plus an isolated node
    split = cx.build_graph([("a", "b"), ("b", "c"), ("d", "e")], isolated_nodes=["f"])
    assert split.dist_matrix[0, 3] == -1
    for g in [split] + [g for g, _ in _graphs()]:
        indptr, indices, _ = g.csr
        a = bfs_all_loop(indptr, indices, g.n)
        b = _kernels.bfs_all(indptr, indices)
        assert b.dtype == g.dist_matrix.dtype == np.int8
        assert np.array_equal(a, b)
        assert np.array_equal(g.dist_matrix, a)


def _path(n):
    return cx.build_graph([(f"v{i - 1:03d}", f"v{i:03d}") for i in range(1, n)])


def test_dist_matrix_is_the_narrowest_type_that_holds_twice_its_distances():
    # a 10-node path's distances reach 9, a 200-node path's 199 (2 * 199 > 127)
    split = cx.build_graph([("a", "b"), ("b", "c"), ("d", "e")], isolated_nodes=["f"])
    cases = [(_path(10), np.int8), (_path(200), np.int16), (split, np.int8)]
    cases += [(g, np.int8) for g, _ in _graphs()]
    for g, dtype in cases:
        D = g.dist_matrix
        assert D.dtype == dtype
        indptr, indices, _ = g.csr
        assert np.array_equal(D, bfs_all_loop(indptr, indices, g.n))
    assert split.dist_matrix[0, 3] == -1 and split.dist_matrix[5, 5] == 0


def _assert_bfs_all_matches_loop(g, dtype=np.int8):
    indptr, indices, _ = g.csr
    D = _kernels.bfs_all(indptr, indices)
    assert D.dtype == dtype and D.shape == (g.n, g.n)
    assert np.array_equal(D, bfs_all_loop(indptr, indices, g.n))


def test_bfs_all_bit_rows_match_loop_at_their_boundaries():
    # no node and one node; an isolated node first or last (the first and
    # last reduceat segments); 7, 8 and 9 sources in a bit row (the padding
    # of the last byte) and 63, 64, 65 (of the last 64-bit word); paths of
    # 64 and 65 nodes, whose distances reach 63 and 64 (int8, then int16);
    # two components, so unreached pairs read -1
    _assert_bfs_all_matches_loop(cx.build_graph([]))
    _assert_bfs_all_matches_loop(cx.build_graph([], isolated_nodes=["a"]))
    _assert_bfs_all_matches_loop(cx.build_graph([("b", "c"), ("c", "d")], isolated_nodes=["a"]))
    _assert_bfs_all_matches_loop(cx.build_graph([("a", "b"), ("b", "c")], isolated_nodes=["z"]))
    for n in (7, 8, 9, 63, 64, 65):
        _assert_bfs_all_matches_loop(_path(n), np.int8 if n <= 64 else np.int16)
    two = cx.build_graph([("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f")])
    _assert_bfs_all_matches_loop(two)
    assert two.dist_matrix[0, 3] == -1 and two.dist_matrix[3, 5] == 2


def test_bfs_all_matches_loop_on_random_graphs():
    # 50 graphs with n from 1 to 150, sparse to dense, connected or not
    rng = np.random.default_rng(20)
    for _ in range(50):
        n = int(rng.integers(1, 151))
        _assert_bfs_all_matches_loop(random_graph(rng, n, float(rng.uniform(0.0, 8.0 / n))))


@pytest.mark.parametrize("case", ["er400", "path200", "two-components"])
def test_dist_matrix_peak_memory_is_at_most_five_bytes_per_pair(case):
    # D in its final type plus one unpacked byte mask per layer and the
    # packed bit rows: no int32 copy and no dense float32 adjacency
    if case == "er400":
        g, _ = connected_er(400, 0.02, 1)
    elif case == "path200":
        g = _path(200)
    else:
        g = cx.build_graph([(f"a{i:03d}", f"a{i + 1:03d}") for i in range(120)]
                           + [(f"b{i:03d}", f"b{i + 1:03d}") for i in range(150)])
    g.csr
    tracemalloc.start()
    try:
        D = g.dist_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert D.dtype == (np.int8 if case == "er400" else np.int16)
    assert peak <= 5 * g.n**2


def test_brandes_peak_memory_is_at_most_30_bytes_per_block_element():
    # 600 nodes and 3000 edges: 9 sources per block, whose largest layer
    # holds about 20k arcs.  A layer's arc arrays are built in place and
    # dropped after their last read; built from fresh temporaries and kept
    # to the end of the layer, they read 33 bytes per element here
    g = random_gnm(np.random.default_rng(600), 600, 3000)
    indptr, indices, edge_id = g.csr
    assert _kernels.BRANDES_BLOCK_ELEMENTS // (g.n + 2 * g.m) == 9
    tracemalloc.start()
    try:
        _kernels.brandes(indptr, indices, edge_id, g.n, g.m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * _kernels.BRANDES_BLOCK_ELEMENTS


def test_hull_close_on_int16_distances_matches_loop_per_row():
    # two 70-node rails joined at every 7th column: distances above 63, so
    # D is int16, and several geodesics between the rails; five rows, each
    # the hull of two seeds, push two nodes each, tested 5 arcs per chunk
    edges = [((0, j), (0, j + 1)) for j in range(69)] + [((1, j), (1, j + 1)) for j in range(69)]
    g = cx.build_graph(edges + [((0, j), (1, j)) for j in range(0, 70, 7)])
    D = g.dist_matrix
    assert D.dtype == np.int16
    indptr, indices, _ = g.csr
    rng = np.random.default_rng(5)
    members = np.zeros((5, g.n), dtype=bool)
    for r in range(5):
        hull_close_loop(D, members[r], rng.choice(g.n, 2, replace=False).astype(np.int32))
    rows = np.repeat(np.arange(5), 2)
    pushed = rng.choice(g.n, rows.size)
    ref = members.copy()
    for r in range(5):
        hull_close_loop(D, ref[r], pushed[rows == r].astype(np.int32))
    with mock.patch.object(_kernels, "HULL_CHUNK_ELEMENTS", 5 * g.n):
        _kernels.hull_close(D, indptr, indices, members, rows, pushed)
    assert np.array_equal(members, ref)
    assert (ref.sum(axis=1) > 3).all()


@st.composite
def connected_graphs(draw):
    """Paths and random trees (deep BFS layers), dense ER graphs (explosive
    batches) and cliques."""
    kind = draw(st.sampled_from(["path", "tree", "dense_er", "clique"]))
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = [f"v{i:03d}" for i in range(n)]
    if kind == "dense_er":
        return random_graph(rng, n, draw(st.floats(0.3, 0.8)), connected=True)
    if kind == "path":
        pairs = [(i - 1, i) for i in range(1, n)]
    elif kind == "tree":
        pairs = [(int(rng.integers(i)), i) for i in range(1, n)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    return cx.build_graph([(labels[u], labels[v]) for u, v in pairs])


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_hull_close_matches_loop_and_oracle(g, data):
    seeds = np.array(
        data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True)),
        np.int32,
    )
    members = np.zeros((1, g.n), dtype=bool)
    indptr, indices, _ = g.csr
    _kernels.hull_close(g.dist_matrix, indptr, indices, members, np.zeros_like(seeds), seeds)
    got = members[0]
    ref = hull_close_loop(g.dist_matrix, np.zeros(g.n, dtype=bool), seeds)
    assert np.array_equal(got, ref)
    if g.n <= 12:
        oracle = convex_hull_oracle(g, {g.ids[i] for i in seeds})
        assert {g.ids[i] for i in np.flatnonzero(got)} == oracle


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_hull_close_rows_match_loop_per_row(g, data):
    # several rows, each a closed set (the hull of random seeds, or empty)
    # plus its own pushed batch, closed in one call; the pairs arrive in any
    # row order, and a budget of 2 arcs per chunk makes a round test its
    # arcs in one chunk or several
    D = g.dist_matrix
    indptr, indices, _ = g.csr
    nodes = st.integers(0, g.n - 1)
    k = data.draw(st.integers(1, 5))
    members = np.zeros((k, g.n), dtype=bool)
    for r in range(k):
        seeds = data.draw(st.lists(nodes, max_size=4, unique=True))
        if seeds:
            hull_close_loop(D, members[r], np.array(seeds, np.int32))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), nodes), min_size=1, unique=True))
    rows = np.array([r for r, _ in pairs])
    pushed = np.array([v for _, v in pairs])
    before = members.copy()
    ref = members.copy()
    for r in range(k):
        batch = pushed[rows == r].astype(np.int32)
        if batch.size:
            hull_close_loop(D, ref[r], batch)
    with mock.patch.object(_kernels, "HULL_CHUNK_ELEMENTS", 2 * g.n):
        grown = _kernels.hull_close(D, indptr, indices, members, rows, pushed)
    assert np.array_equal(members, ref)
    # a row grew iff its closure holds more than its members and pushed nodes
    marked = before.copy()
    marked[rows, pushed] = True
    assert np.array_equal(grown, (ref != marked).any(axis=1))


@settings(max_examples=200, deadline=None)
@given(connected_graphs(), st.data())
def test_hull_close_nearly_full_rows_match_loop_per_row(g, data):
    # rows closed from more than n / 2 seeds are nearly full, so most arcs
    # of their pushed nodes stay inside and are not tested; one row, at any
    # position, is a single seed, whose pushed nodes' arcs mostly leave it,
    # beside a nearly full row
    D = g.dist_matrix
    indptr, indices, _ = g.csr
    nodes = st.integers(0, g.n - 1)
    k = data.draw(st.integers(2, 6))
    sparse = data.draw(st.integers(0, k - 1))
    members = np.zeros((k, g.n), dtype=bool)
    for r in range(k):
        if r == sparse:
            members[r, data.draw(nodes)] = True
        else:
            seeds = data.draw(st.lists(nodes, min_size=g.n // 2 + 1, max_size=g.n, unique=True))
            hull_close_loop(D, members[r], np.array(seeds, np.int32))
    beside = sparse - 1 if sparse else 1
    pairs = data.draw(st.lists(st.tuples(st.integers(0, k - 1), nodes), min_size=1, unique=True))
    pairs = list(dict.fromkeys(pairs + [(sparse, data.draw(nodes)), (beside, data.draw(nodes))]))
    rows = np.array([r for r, _ in pairs])
    pushed = np.array([v for _, v in pairs])
    ref = members.copy()
    for r in range(k):
        batch = pushed[rows == r].astype(np.int32)
        if batch.size:
            hull_close_loop(D, ref[r], batch)
    _kernels.hull_close(D, indptr, indices, members, rows, pushed)
    assert np.array_equal(members, ref)


def _expansion_totals_loop(g, rngs):
    return sum(np.array(expansion_run_loop(g, rng), dtype=np.int64) for rng in rngs)


def test_convexity_profile_matches_loop_reference(monkeypatch):
    g = random_gnm(np.random.default_rng(60), 60, 240)
    kernel = cx.convexity(g, runs=8, seed=5)
    monkeypatch.setattr(convexity_module, "_expansion_totals", _expansion_totals_loop)
    loop = cx.convexity(g, runs=8, seed=5)
    assert np.array_equal(kernel.profile, loop.profile)
    assert kernel.x == loop.x


def _random_gnm_pair_list(rng, n, m):
    # random_gnm as first written: index into the list of all pairs
    labels = [f"v{i:03d}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        pick = rng.choice(len(pairs), size=m, replace=False)
        g = cx.build_graph([(labels[pairs[k][0]], labels[pairs[k][1]]) for k in pick])
        if g.n == n and g.connected:
            return g


def test_random_gnm_decodes_pairs_like_the_pair_list():
    for n, m in [(2, 1), (3, 2), (5, 6), (12, 20), (30, 60), (60, 240)]:
        for seed in range(6):
            a = random_gnm(np.random.default_rng(seed), n, m)
            b = _random_gnm_pair_list(np.random.default_rng(seed), n, m)
            assert a.ids == b.ids
            assert np.array_equal(a.edge_idx, b.edge_idx)


def _assert_reach_matches_bfs_loop(indptr, indices, n, reach, dist_sum):
    # reach counts and distance sums are the row counts and sums of the
    # queue BFS's distance matrix, unreached (-1) entries left out
    D = bfs_all_loop(indptr, indices, n)
    assert reach.dtype == dist_sum.dtype == np.int64
    assert np.array_equal(reach, (D >= 0).sum(axis=1))
    assert np.array_equal(dist_sum, np.where(D >= 0, D, 0).sum(axis=1))


def _assert_brandes_matches_loop(g):
    indptr, indices, edge_id = g.csr
    node, edge, reach, dist_sum = _kernels.brandes(indptr, indices, edge_id, g.n, g.m)
    ref_node, ref_edge = brandes_loop(indptr, indices, edge_id, g.n, g.m)
    assert np.array_equal(node, ref_node)
    assert np.array_equal(edge, ref_edge)
    _assert_reach_matches_bfs_loop(indptr, indices, g.n, reach, dist_sum)


def test_brandes_kernels_match_active_backend():
    for g, _ in _graphs():
        _assert_brandes_matches_loop(g)


@st.composite
def brandes_graphs(draw):
    """Paths and random trees (deep layers, many sources per block), sparse
    random graphs (disconnected, with isolated nodes), a single node and
    edgeless graphs."""
    kind = draw(st.sampled_from(["path", "tree", "random", "single", "edgeless"]))
    n = 1 if kind == "single" else draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = [f"v{i:03d}" for i in range(n)]
    if kind == "random":
        return random_graph(rng, n, draw(st.floats(0.02, 0.5)))
    if kind == "path":
        pairs = [(i - 1, i) for i in range(1, n)]
    elif kind == "tree":
        pairs = [(int(rng.integers(i)), i) for i in range(1, n)]
    else:
        pairs = []
    return cx.build_graph([(labels[u], labels[v]) for u, v in pairs], isolated_nodes=labels)


@settings(max_examples=300, deadline=None)
@given(brandes_graphs(), st.sampled_from([1, 2, 3, None]))
def test_brandes_matches_loop_bit_for_bit(g, per_block):
    # per_block sources per block (None: the default budget), so that the
    # sources run in many blocks, one at a time, or in one block
    budget = (
        _kernels.BRANDES_BLOCK_ELEMENTS if per_block is None
        else per_block * (g.n + 2 * g.m)
    )
    with mock.patch.object(_kernels, "BRANDES_BLOCK_ELEMENTS", budget):
        _assert_brandes_matches_loop(g)


def test_brandes_matches_loop_when_path_counts_exceed_2_53():
    # 40 layers of 5 nodes, each node joined to a random non-empty subset of
    # the layer before: path counts grow to about 3**40 > 2**53, so float
    # sums round and their order shows in the bits.  Shuffled ids make the
    # CSR order differ from the queue order.
    rng = np.random.default_rng(2053)
    layers, width = 40, 5
    labels = [f"v{i:03d}" for i in rng.permutation(layers * width)]
    pairs = []
    # exact counts of the shortest paths from the first layer, as integers
    paths = np.eye(width, dtype=object)
    for d in range(1, layers):
        step = np.zeros((width, width), dtype=object)
        for v in range(width):
            prev = rng.permutation(width)[: rng.integers(1, width + 1)]
            step[prev, v] = 1
            pairs += [(labels[(d - 1) * width + p], labels[d * width + v]) for p in prev]
        paths = paths.dot(step)
    assert paths.max() > 2**53
    g = cx.build_graph(pairs)
    indptr, indices, edge_id = g.csr
    ref_node, ref_edge = brandes_loop(indptr, indices, edge_id, g.n, g.m)
    for budget in [p * (g.n + 2 * g.m) for p in (1, 2, 3)] + [_kernels.BRANDES_BLOCK_ELEMENTS]:
        with mock.patch.object(_kernels, "BRANDES_BLOCK_ELEMENTS", budget):
            node, edge, reach, dist_sum = _kernels.brandes(indptr, indices, edge_id, g.n, g.m)
        assert np.array_equal(node, ref_node)
        assert np.array_equal(edge, ref_edge)
        _assert_reach_matches_bfs_loop(indptr, indices, g.n, reach, dist_sum)


def test_brandes_reach_and_distance_sums_match_the_bfs_loop():
    # random corpus graphs, disconnected ones and isolated nodes included,
    # with the sources in one block and one at a time
    graphs = random_corpus(np.random.default_rng(74), 40)
    assert any(not g.connected for g in graphs)
    for g in graphs:
        indptr, indices, edge_id = g.csr
        for budget in (g.n + 2 * g.m, _kernels.BRANDES_BLOCK_ELEMENTS):
            with mock.patch.object(_kernels, "BRANDES_BLOCK_ELEMENTS", budget):
                run = _kernels.brandes(indptr, indices, edge_id, g.n, g.m)
            _assert_reach_matches_bfs_loop(indptr, indices, g.n, run.reach, run.dist_sum)


def _relabelled(g, rng):
    """g with its ids permuted, so that any node may take index 0."""
    name = [g.ids[i] for i in rng.permutation(g.n)]
    return cx.build_graph([(name[u], name[v]) for u, v in g.edge_idx.tolist()])


def _trees_of_cliques():
    """Connected trees of cliques: no node, one node, one edge, K5, paths,
    stars, two triangles on one node, generated ones (smin 2 to 6) as
    generated and with their ids permuted, and the skeleton and spanning
    tree of a clustered graph.  The permuted ones root the closed form's
    block-cut tree, at node 0, at other nodes: cut vertices and nodes of a
    single clique."""
    yield cx.build_graph([])
    yield cx.build_graph([], isolated_nodes=["a"])
    yield cx.build_graph([("a", "b")])
    yield generate(Kind.COMPLETE, {"n": 5})
    for n in (3, 4, 9, 40):
        yield _path(n)
        yield generate(Kind.STAR, {"n": n})
    yield cx.build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")])
    rng = np.random.default_rng(26)
    for seed in range(6):
        for smin in range(2, 7):
            params = {"cliques": 3 + 4 * seed, "smin": smin, "smax": smin + seed % 3}
            toc = generate(Kind.TREE_OF_CLIQUES, params, seed)
            yield toc
            yield _relabelled(toc, rng)
    # a clustered graph: a tree of cliques with 60 random chords
    toc = generate(Kind.TREE_OF_CLIQUES, {"cliques": 40, "smin": 3, "smax": 6}, 3)
    chords = np.random.default_rng(3).choice(toc.ids, (60, 2))
    g = cx.build_graph([toc.edge_ids(e) for e in range(toc.m)] + chords.tolist())
    assert not g.is_tree_of_cliques
    yield g.subgraph_with_edges(cx.extract_convex_skeleton(g).kept)
    yield g.subgraph_with_edges(cx.maximum_spanning_tree(g))


def test_tree_of_cliques_brandes_in_closed_form_matches_the_loops():
    for g in _trees_of_cliques():
        assert g.is_tree_of_cliques
        indptr, indices, edge_id = g.csr
        node, edge, reach, dist_sum = g.brandes
        ref_node, ref_edge = brandes_loop(indptr, indices, edge_id, g.n, g.m)
        assert node.dtype == edge.dtype == np.float64
        assert np.array_equal(node, ref_node)
        assert np.array_equal(edge, ref_edge)
        _assert_reach_matches_bfs_loop(indptr, indices, g.n, reach, dist_sum)


def test_closed_form_runs_no_bfs_on_a_tree_of_cliques_and_only_there():
    forest = cx.build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e")])
    c4 = cx.build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e")])
    with mock.patch.object(_kernels, "_brandes_block", wraps=_kernels._brandes_block) as block:
        for g in _trees_of_cliques():
            g.brandes
        assert block.call_count == 0
        for g in (forest, c4):
            assert not g.is_tree_of_cliques
            node, edge, reach, dist_sum = g.brandes
            indptr, indices, edge_id = g.csr
            ref_node, ref_edge = brandes_loop(indptr, indices, edge_id, g.n, g.m)
            assert np.array_equal(node, ref_node) and np.array_equal(edge, ref_edge)
    assert block.call_count == 2


def _neighbour_sets(g):
    adj = {i: set() for i in range(g.n)}
    for u, v in g.edge_idx.tolist():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def test_common_neighbors_matches_sets():
    for g, _ in _graphs():
        indptr, indices, _ = g.csr
        eu = g.edge_idx[:, 0].astype(np.int32)
        ev = g.edge_idx[:, 1].astype(np.int32)
        got = common_neighbors_loop(indptr, indices, eu, ev)
        active = _kernels.common_neighbors(indptr, indices, eu, ev)
        assert np.array_equal(got, active)
        assert np.array_equal(g.common_neighbors, got)
        adj = _neighbour_sets(g)
        for e in range(g.m):
            assert got[e] == len(adj[int(eu[e])] & adj[int(ev[e])])


@st.composite
def neighbourhood_graphs(draw):
    """Stars and hubs with the centre at any index, so the lower-degree
    endpoint of an edge is its first or its second node; cliques; sparse
    random graphs with isolated nodes; edgeless graphs."""
    kind = draw(st.sampled_from(["star", "hub", "clique", "random", "edgeless"]))
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = [f"v{i:03d}" for i in range(n)]
    centre = draw(st.integers(0, n - 1))
    pairs = []
    if kind == "random":
        return random_graph(rng, n, draw(st.floats(0.02, 0.5)))
    if kind in ("star", "hub"):
        pairs = [(centre, i) for i in range(n) if i != centre]
    if kind == "hub":
        pairs += [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.2]
    if kind == "clique":
        pairs = list(itertools.combinations(range(n), 2))
    return cx.build_graph([(labels[u], labels[v]) for u, v in pairs], isolated_nodes=labels)


@settings(max_examples=300, deadline=None)
@given(neighbourhood_graphs(), st.data())
def test_common_neighbors_matches_loop_and_sets(g, data):
    # every edge, plus arbitrary node pairs (edges or not)
    extra = data.draw(st.lists(st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))))
    eu = np.array(g.edge_idx[:, 0].tolist() + [u for u, _ in extra], np.int32)
    ev = np.array(g.edge_idx[:, 1].tolist() + [v for _, v in extra], np.int32)
    indptr, indices, _ = g.csr
    got = _kernels.common_neighbors(indptr, indices, eu, ev)
    assert got.dtype == np.int64
    assert np.array_equal(got, common_neighbors_loop(indptr, indices, eu, ev))
    adj = _neighbour_sets(g)
    assert got.tolist() == [len(adj[u] & adj[v]) for u, v in zip(eu.tolist(), ev.tolist())]
    assert np.array_equal(g.common_neighbors, got[: g.m])
