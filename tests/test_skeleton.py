import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexa import (
    DisconnectedError,
    InputError,
    Objective,
    TieBreak,
    build_graph,
    convexity,
    extract_convex_skeleton,
    is_tree_of_cliques,
    remainder,
    retained_weight_fraction,
    skeleton_graph,
)
from convexa.graph import biconnected_edge_blocks
from convexa.skeleton import _LiveGraph
from convexa.synth import Kind, generate
from oracles import blocks_info, objective_after_removal, random_graph, skeleton_loop

DIAMOND = [("a", "b"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def test_tree_input_untouched():
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d")])
    sk = extract_convex_skeleton(tree)
    assert len(sk.kept) == tree.m
    assert sk.removed == ()


def test_clique_input_untouched():
    k4 = build_graph(list(itertools.combinations("abcd", 2)))
    sk = extract_convex_skeleton(k4)
    assert len(sk.kept) == 6
    assert sk.removed == ()


def test_diamond_removes_lex_smallest_cycle_edge():
    g = build_graph(DIAMOND)
    # exhaustive check of all five single-edge removals: dropping the chord
    # (b,d) yields transitivity 0, dropping any cycle edge yields 0.6
    from convexa.netstats import clustering_global

    for drop in DIAMOND:
        rest = [e for e in DIAMOND if e != drop]
        val = clustering_global(build_graph(rest))
        assert val == (0.0 if drop == ("b", "d") else 0.6)
    sk = extract_convex_skeleton(g)
    assert [edge for edge, _ in sk.removed] == [("a", "b")]
    assert len(sk.kept) == 4
    assert sk.removed[0][1] == 0.6


def test_remainder_partition():
    g = build_graph(DIAMOND, isolated_nodes=["z"])
    assert not g.connected
    with pytest.raises(DisconnectedError):
        extract_convex_skeleton(g)
    g = build_graph(DIAMOND)
    sk = extract_convex_skeleton(g)
    rem = remainder(g, sk)
    assert rem.m == 1
    assert rem.ids == g.ids
    assert len(sk.kept) + rem.m == g.m
    tree = build_graph([("a", "b"), ("b", "c")])
    assert remainder(tree, extract_convex_skeleton(tree)).m == 0


def test_remainder_rejects_foreign_skeleton():
    g = build_graph(DIAMOND)
    other = build_graph([("a", "b"), ("b", "c")])
    sk = extract_convex_skeleton(other)
    with pytest.raises(InputError):
        remainder(g, sk)


def test_retained_fractions_unweighted():
    tree = build_graph([("a", "b"), ("b", "c")])
    assert retained_weight_fraction(tree, extract_convex_skeleton(tree)) == (1.0, 1.0)
    g = build_graph(DIAMOND)
    assert retained_weight_fraction(g, extract_convex_skeleton(g)) == (0.8, 0.8)


def test_retained_fractions_weighted_chord():
    # chord carries weight 10; extraction still drops a unit cycle edge
    recs = [(u, v, 10.0 if (u, v) == ("b", "d") else 1.0) for u, v in DIAMOND]
    g = build_graph(recs)
    ef, wf = retained_weight_fraction(g, extract_convex_skeleton(g))
    assert ef == 0.8
    assert wf == pytest.approx(13.0 / 14.0)


def test_structural_invariants_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(4, 25)), 0.25, connected=True)
        sk = extract_convex_skeleton(g)
        sub = skeleton_graph(g, sk)
        assert sub.connected
        assert is_tree_of_cliques(sub)
        assert g.n - 1 <= len(sk.kept) <= g.m
        assert convexity(sub, runs=20, seed=1).x == 1.0


def test_removed_edge_always_attains_candidate_maximum():
    # replay the log: at every step the logged edge maximizes the objective
    rng = np.random.default_rng(8)
    g = random_graph(rng, 14, 0.35, connected=True)
    sk = extract_convex_skeleton(g)
    alive = np.ones(g.m, dtype=bool)
    for (u, v), logged in sk.removed:
        alive_pos = np.flatnonzero(alive)
        bridge, done = blocks_info(g.n, g.edge_idx, alive_pos)
        assert not done
        vals = objective_after_removal(
            g.n, g.edge_idx, alive_pos, Objective.GLOBAL_TRANSITIVITY
        )
        removable = np.array([int(p) not in bridge for p in alive_pos])
        best = vals[removable].max()
        assert logged == pytest.approx(best)
        pos = g.edge_pos(u, v)
        assert vals[list(alive_pos).index(pos)] == pytest.approx(best)
        alive[pos] = False


def test_determinism():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 16, 0.3, connected=True)
    a = extract_convex_skeleton(g)
    b = extract_convex_skeleton(g)
    assert a.kept == b.kept and a.removed == b.removed


def test_random_tie_break_reproducible_and_valid():
    rng = np.random.default_rng(30)
    g = random_graph(rng, 12, 0.4, connected=True)
    a = extract_convex_skeleton(g, tie_break=TieBreak.RANDOM, seed=5)
    b = extract_convex_skeleton(g, tie_break=TieBreak.RANDOM, seed=5)
    assert a.kept == b.kept
    sub = skeleton_graph(g, a)
    assert sub.connected and is_tree_of_cliques(sub)


def test_average_local_objective():
    rng = np.random.default_rng(19)
    for _ in range(10):
        g = random_graph(rng, 12, 0.35, connected=True)
        sk = extract_convex_skeleton(g, objective=Objective.AVERAGE_LOCAL)
        sub = skeleton_graph(g, sk)
        assert sub.connected and is_tree_of_cliques(sub)


def test_average_local_scores_match_recomputation():
    from convexa.netstats import clustering_avg_local

    rng = np.random.default_rng(21)
    g = random_graph(rng, 10, 0.45, connected=True)
    alive_pos = np.arange(g.m)
    vals = objective_after_removal(g.n, g.edge_idx, alive_pos, Objective.AVERAGE_LOCAL)
    for e in range(g.m):
        keep = [p for p in range(g.m) if p != e]
        direct = clustering_avg_local(g.subgraph_with_edges(keep))
        assert vals[e] == pytest.approx(direct, abs=1e-12)


@st.composite
def skeleton_graphs(draw):
    """Connected random graphs, trees of cliques with random chords, and
    trees of cliques (nothing to remove)."""
    kind = draw(st.sampled_from(["random", "chorded_toc", "toc"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return random_graph(
            rng, draw(st.integers(3, 22)), draw(st.floats(0.15, 0.7)), connected=True
        )
    params = {"cliques": draw(st.integers(1, 8)), "smin": 2, "smax": 5}
    toc = generate(Kind.TREE_OF_CLIQUES, params, seed=draw(st.integers(0, 1000)))
    records = [toc.edge_ids(e) for e in range(toc.m)]
    if kind == "chorded_toc":
        for _ in range(draw(st.integers(1, 15))):
            u, v = rng.choice(toc.ids, 2, replace=False)
            records.append((str(u), str(v)))
    return build_graph(records)


@settings(max_examples=200, deadline=None)
@given(
    skeleton_graphs(),
    st.sampled_from(list(Objective)),
    st.sampled_from(list(TieBreak)),
    st.integers(0, 1000),
)
def test_incremental_skeleton_matches_reference_loop(g, objective, tie_break, seed):
    sk = extract_convex_skeleton(g, objective, tie_break, seed=seed)
    kept, removed = skeleton_loop(g, objective, tie_break, seed=seed)
    # bit for bit: float.hex tells apart values that == would merge (0.0, -0.0)
    assert [(e, v.hex()) for e, v in sk.removed] == [(e, v.hex()) for e, v in removed]
    assert sk.kept == kept


def _spy_block_test(check):
    """Patch the block test so that `check(live, label, result)` sees each
    answer; returns the patch and the list of answers."""
    answers = []
    real = _LiveGraph._still_biconnected

    def spy(live, u, v, label):
        result = real(live, u, v, label)
        answers.append(result)
        check(live, label, result)
        return result

    return mock.patch.object(_LiveGraph, "_still_biconnected", spy), answers


@settings(max_examples=100, deadline=None)
@given(skeleton_graphs(), st.sampled_from(list(Objective)))
def test_block_test_passes_only_blocks_that_stay_biconnected(g, objective):
    def check(live, label, result):
        if result:
            edges = live.members[label]  # still holds the dead edge
            ends = live.edge_idx[edges[live.alive[edges]]]
            _, local = np.unique(ends, return_inverse=True)
            blocks = biconnected_edge_blocks(int(local.max()) + 1, local.reshape(ends.shape))
            assert len(blocks) == 1

    patch, _ = _spy_block_test(check)
    with patch:
        extract_convex_skeleton(g, objective)


@pytest.mark.parametrize("k", [4, 5, 9])
def test_block_test_fails_on_a_cycle(k):
    g = generate(Kind.CYCLE, {"n": k}, seed=0)
    for e in range(k):
        patch, answers = _spy_block_test(lambda live, label, result: None)
        live = _LiveGraph(g, Objective.GLOBAL_TRANSITIVITY)
        with patch:
            live.remove(e)
        # C_k minus one edge is a path: every edge left is a bridge
        assert answers == [False]
        assert live.bridge[live.alive].all() and not live.nonclique
