import itertools

import numpy as np
import pytest

from convexa import (
    BackboneKind,
    ConvexaError,
    InputError,
    backbone_graph,
    build_graph,
    edge_betweenness,
    embeddedness_scores,
    extract_convex_skeleton,
    maximum_spanning_tree,
    top_m_edge_backbone,
)
from convexa.skeleton import TieBreak
from oracles import (
    connected_components,
    edge_betweenness_oracle,
    embeddedness,
    max_spanning_tree_weight_oracle,
    maximum_spanning_tree_loop,
    random_graph,
)


def test_mst_triangle():
    g = build_graph([("a", "b", 3), ("b", "c", 2), ("a", "c", 1)])
    assert max_spanning_tree_weight_oracle(g) == 5.0
    b = maximum_spanning_tree(g)
    assert {g.edge_ids(e) for e in b.edges} == {("a", "b"), ("b", "c")}


def test_mst_tree_input_is_itself():
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d")])
    b = maximum_spanning_tree(tree)
    assert b.edges == frozenset(range(tree.m))


def test_mst_node_count_rule():
    rng = np.random.default_rng(9)
    g = random_graph(rng, 40, 0.15, connected=True, weighted=True)
    b = maximum_spanning_tree(g)
    assert len(b.edges) == g.n - 1
    sub = backbone_graph(g, b)
    assert len(connected_components(sub)) == 1  # spanning + acyclic follows


def test_mst_matches_bruteforce_small():
    rng = np.random.default_rng(13)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(3, 8)), 0.6, connected=True, weighted=True)
        b = maximum_spanning_tree(g)
        got = float(g.weights[sorted(b.edges)].sum())
        assert got == pytest.approx(max_spanning_tree_weight_oracle(g))


def _by_edge_ids(g, scores):
    """{(u_id, v_id): score} of an array in edge order."""
    assert scores.shape == (g.m,) and scores.dtype == np.float64
    return {g.edge_ids(e): float(scores[e]) for e in range(g.m)}


def test_edge_betweenness_fixtures():
    path = build_graph([("a", "b"), ("b", "c")])
    assert edge_betweenness_oracle(path) == {("a", "b"): 2.0, ("b", "c"): 2.0}
    assert _by_edge_ids(path, edge_betweenness(path)) == {("a", "b"): 2.0, ("b", "c"): 2.0}
    c4 = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    scores = edge_betweenness(c4)
    assert _by_edge_ids(c4, scores) == edge_betweenness_oracle(c4)
    assert (scores == 2.0).all()
    # the caller's array is its own, not the cached Brandes pass
    scores[:] = 0.0
    assert (edge_betweenness(c4) == 2.0).all()
    k3 = build_graph(list(itertools.combinations("abc", 2)))
    assert (edge_betweenness(k3) == 1.0).all()


def test_edge_betweenness_sums_to_pair_distances():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 15)), 0.3)
        total = sum(_by_edge_ids(g, edge_betweenness(g)).values())
        D = g.dist_matrix
        iu = np.triu_indices(g.n, 1)
        reachable = D[iu] > 0
        assert total == pytest.approx(float(D[iu][reachable].sum()), abs=1e-9)


def test_embeddedness_fixtures():
    paw = build_graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert embeddedness(paw, ("a", "b")) == 1.0
    assert embeddedness(paw, ("c", "d")) == 0.0
    two = build_graph([("x", "y")])
    assert embeddedness(two, ("x", "y")) == 0.0


def test_embeddedness_symmetric_and_relabel_invariant():
    rng = np.random.default_rng(21)
    g = random_graph(rng, 12, 0.35)
    scores = _by_edge_ids(g, embeddedness_scores(g))
    for (u, v), s in scores.items():
        assert embeddedness(g, (v, u)) == s
    # relabel nodes and compare
    mapping = {v: f"z{i:02d}" for i, v in enumerate(reversed(g.ids))}
    relabeled = build_graph(
        [(mapping[u], mapping[v]) for u, v in scores], isolated_nodes=mapping.values()
    )
    for (u, v), s in scores.items():
        assert embeddedness(relabeled, (mapping[u], mapping[v])) == s


def test_top_m_whole_graph_and_tie_rule():
    path = build_graph([("a", "b"), ("b", "c")])
    scores = edge_betweenness(path)
    assert top_m_edge_backbone(path, scores, 2).edges == frozenset({0, 1})
    b = top_m_edge_backbone(path, scores, 1)
    assert {path.edge_ids(e) for e in b.edges} == {("a", "b")}  # lex tie-break
    with pytest.raises(ConvexaError):
        top_m_edge_backbone(path, scores, 3)


def test_top_m_count_matches_skeleton_budget():
    rng = np.random.default_rng(33)
    g = random_graph(rng, 30, 0.2, connected=True, weighted=True)
    m = len(extract_convex_skeleton(g).kept)
    for scores, kind in (
        (edge_betweenness(g), BackboneKind.HIGH_BETWEENNESS),
        (embeddedness_scores(g), BackboneKind.HIGH_EMBEDDEDNESS),
    ):
        b = top_m_edge_backbone(g, scores, m, kind=kind)
        assert len(b.edges) == m


def test_top_m_random_tie_break_deterministic():
    rng = np.random.default_rng(37)
    g = random_graph(rng, 15, 0.3, connected=True)
    scores = embeddedness_scores(g)
    a = top_m_edge_backbone(g, scores, 5, tie_break=TieBreak.RANDOM, seed=4)
    b = top_m_edge_backbone(g, scores, 5, tie_break=TieBreak.RANDOM, seed=4)
    assert a.edges == b.edges


def test_mst_matches_the_nested_find_loop():
    rng = np.random.default_rng(75)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 30)), 0.3, connected=True, weighted=True)
        order = np.lexsort((g.edge_idx[:, 1], g.edge_idx[:, 0], -g.weights))
        assert maximum_spanning_tree(g).edges == maximum_spanning_tree_loop(g, order)
        seed = int(rng.integers(1000))
        perm = np.random.default_rng(seed).permutation(g.m)
        order = perm[np.argsort(-g.weights[perm], kind="stable")]
        b = maximum_spanning_tree(g, tie_break=TieBreak.RANDOM, seed=seed)
        assert b.edges == maximum_spanning_tree_loop(g, order)


def test_top_m_rejects_scores_of_the_wrong_shape():
    path = build_graph([("a", "b"), ("b", "c"), ("c", "d")])
    for scores in (
        [1.0, 2.0],
        [1.0, 2.0, 0.5, 3.0],
        [[1.0], [2.0], [0.5]],
        {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 0.5},
    ):
        with pytest.raises(InputError, match="one value per edge"):
            top_m_edge_backbone(path, scores, 2)


def test_top_m_rejects_ragged_or_non_numeric_scores():
    path = build_graph([("a", "b"), ("b", "c")])
    for scores in ([[1.0], [2.0, 3.0]], ["x", "y"]):
        with pytest.raises(InputError, match="one value per edge"):
            top_m_edge_backbone(path, scores, 1)
