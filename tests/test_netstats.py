import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convexa import (
    ConvexaError,
    InputError,
    assortativity,
    build_graph,
    clustering_avg_local,
    clustering_global,
    correlation_matrix,
    descriptive_stats,
    embeddedness_scores,
    extract_convex_skeleton,
    kendall_tau,
    maximum_spanning_tree,
    spearman_rho,
)
from convexa import _kernels, netstats
from convexa.netstats import (
    MEASURES,
    average_ranks,
    centrality_values,
    largest_component_graph,
    mean_distance,
)
from oracles import (
    kendall_tau_pairs,
    largest_component_loop,
    mean_distance_triu,
    random_corpus,
    random_graph,
    ranks_pairwise,
)

C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
PAW = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]


def test_clustering_fixtures():
    k4 = build_graph(list(itertools.combinations("abcd", 2)))
    assert clustering_global(k4) == 1.0
    assert clustering_avg_local(k4) == 1.0
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d")])
    assert clustering_global(tree) == 0.0
    assert clustering_avg_local(tree) == 0.0
    paw = build_graph(PAW)
    assert clustering_global(paw) == pytest.approx(0.6)
    assert clustering_avg_local(paw) == pytest.approx(7.0 / 12.0)


def test_assortativity_fixtures():
    star = build_graph([("c", "l1"), ("c", "l2"), ("c", "l3")])
    assert assortativity(star) == pytest.approx(-1.0)
    k4 = build_graph(list(itertools.combinations("abcd", 2)))
    assert assortativity(k4) is None
    assert assortativity(build_graph(C4)) is None
    with pytest.raises(ConvexaError):
        assortativity(build_graph([], isolated_nodes="ab"))


def test_assortativity_range():
    rng = np.random.default_rng(3)
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(3, 20)), 0.3)
        if g.m == 0:
            continue
        r = assortativity(g)
        if r is not None:
            assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_descriptive_stats_c4():
    s = descriptive_stats(build_graph(C4), convexity_runs=20, seed=1)
    assert s.mean_distance == pytest.approx(4.0 / 3.0)
    assert s.pct_lcc == 100.0
    assert s.mean_degree == 2.0
    assert s.convexity == 0.75


def test_descriptive_stats_k4():
    s = descriptive_stats(
        build_graph(list(itertools.combinations("abcd", 2))), convexity_runs=20, seed=1
    )
    assert s.mean_degree == 3.0
    assert s.clustering == 1.0
    assert s.convexity == 1.0


def test_descriptive_stats_spanning_tree_pattern():
    # tree columns show clustering 0 and convexity 1 regardless of size
    rng = np.random.default_rng(12)
    g = random_graph(rng, 60, 0.1, connected=True, weighted=True)
    tree = g.subgraph_with_edges(sorted(maximum_spanning_tree(g)))
    s = descriptive_stats(tree, convexity_runs=20, seed=2)
    assert s.edges == g.n - 1
    assert s.pct_lcc == 100.0
    assert s.clustering == 0.0
    assert s.convexity == 1.0


def test_descriptive_stats_one_bfs_on_connected_graph():
    # a connected graph is its own LCC: convexity and mean distance share
    # one distance matrix
    g = random_graph(np.random.default_rng(5), 20, 0.3, connected=True)
    with mock.patch.object(_kernels, "bfs_all", wraps=_kernels.bfs_all) as bfs_all:
        s = descriptive_stats(g, convexity_runs=5, seed=1)
    assert bfs_all.call_count == 1
    assert s.pct_lcc == 100.0


def test_common_neighbours_counted_once_per_graph():
    g = random_graph(np.random.default_rng(6), 20, 0.3, connected=True)
    with mock.patch.object(
        _kernels, "common_neighbors", wraps=_kernels.common_neighbors
    ) as cn:
        clustering_global(g)
        clustering_avg_local(g)
        embeddedness_scores(g)
        extract_convex_skeleton(g)
    assert cn.call_count == 1


@pytest.mark.parametrize("runs", [0, -5])
@pytest.mark.parametrize("edges, isolated", [([], ""), ([], "ab"), (C4, "")],
                         ids=["empty", "edgeless", "c4"])
def test_descriptive_stats_refuses_runs_below_one(edges, isolated, runs):
    # also where the largest component is too small for any Monte Carlo
    with pytest.raises(ConvexaError, match="^runs must be positive$"):
        descriptive_stats(build_graph(edges, isolated_nodes=isolated), convexity_runs=runs, seed=1)


def test_stats_on_disconnected_uses_lcc():
    g = build_graph(C4 + [("x", "y")])
    s = descriptive_stats(g, convexity_runs=20, seed=1)
    assert s.pct_lcc == pytest.approx(100.0 * 4 / 6)
    assert s.convexity == 0.75  # computed on the LCC (the 4-cycle)
    assert s.mean_distance == pytest.approx(4.0 / 3.0)


def test_spearman_fixtures():
    x = {i: float(i) for i in range(1, 5)}
    assert spearman_rho(x, x) == 1.0
    rev = {i: -v for i, v in x.items()}
    assert spearman_rho(x, rev) == -1.0
    y = {1: 1.0, 2: 3.0, 3: 2.0, 4: 4.0}
    assert spearman_rho(x, y) == 0.8


def test_average_ranks_match_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11)
    for _ in range(200):
        size = int(rng.integers(1, 30))
        a = rng.integers(0, int(rng.integers(1, 12)), size=size) * 0.5
        assert np.array_equal(average_ranks(a), stats.rankdata(a))
    assert average_ranks(np.array([2.0, 1.0, 2.0, 3.0])).tolist() == [2.5, 1.0, 2.5, 4.0]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0]), max_size=60))
def test_ranks_match_the_pairwise_count(values):
    # few distinct values, so most draws tie heavily; no scipy needed
    average, dense, distinct, tied = ranks_pairwise(values)
    r = netstats._ranked(np.array(values, float))
    assert r.average.tolist() == average
    assert r.dense.dtype == np.int64 and r.dense.tolist() == dense
    assert (r.distinct, r.tied) == (distinct, tied)


def test_kendall_fixtures():
    x = {i: float(i) for i in range(1, 5)}
    assert kendall_tau(x, x) == 1.0
    rev = {i: -v for i, v in x.items()}
    assert kendall_tau(x, rev) == -1.0
    y = {1: 1.0, 2: 3.0, 3: 2.0, 4: 4.0}
    assert kendall_tau(x, y) == pytest.approx(2.0 / 3.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 3.0]), st.integers(0, 4)),
        min_size=2, max_size=60,
    )
)
def test_kendall_tau_matches_the_pairwise_count(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([float(p[1]) for p in pairs])
    assume(np.ptp(a) > 0 and np.ptp(b) > 0)
    # exact integer counts on both sides: the same float, not just close
    assert kendall_tau(dict(enumerate(a)), dict(enumerate(b))) == kendall_tau_pairs(a, b)


def test_correlation_errors():
    x = {1: 1.0, 2: 2.0}
    with pytest.raises(InputError):
        spearman_rho(x, {1: 1.0, 3: 2.0})
    with pytest.raises(ConvexaError):
        kendall_tau(x, {1: 5.0, 2: 5.0})
    with pytest.raises(ConvexaError):
        spearman_rho({1: 1.0}, {1: 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_rank_correlations_refuse_values_that_are_not_finite(bad):
    # a NaN compared unequal to everything, so both used to return a number
    # (0.4 and 0.333 for NaN)
    x = {"a": 1.0, "b": bad, "c": 2.0, "d": 3.0}
    y = {"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0}
    for corr in (spearman_rho, kendall_tau):
        with pytest.raises(InputError, match="not finite"):
            corr(x, y)
        with pytest.raises(InputError, match="not finite"):
            corr(y, x)


def test_correlation_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(8)
    keys = [f"k{i}" for i in range(12)]
    x = {k: float(rng.integers(0, 6)) for k in keys}
    y = {k: float(rng.integers(0, 6)) for k in keys}
    if len(set(x.values())) < 2 or len(set(y.values())) < 2:
        pytest.skip("degenerate draw")
    assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x))
    assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x))
    y3 = {k: v**3 + 2.0 for k, v in y.items()}  # strictly monotone transform
    assert spearman_rho(x, y3) == pytest.approx(spearman_rho(x, y))
    assert kendall_tau(x, y3) == pytest.approx(kendall_tau(x, y))


def test_correlation_matrix_identity_backbone():
    rng = np.random.default_rng(10)
    g = random_graph(rng, 14, 0.35, connected=True, weighted=True)
    whole = g.subgraph_with_edges(range(g.m))
    grid = correlation_matrix(centrality_values(g), centrality_values(whole))
    for i in range(4):
        rho, tau = grid[i][i]
        assert rho == 1.0
        assert tau == 1.0


def test_correlation_matrix_cells_match_the_pairwise_functions():
    # the grid ranks each vector once; every cell must still equal the
    # public pairwise functions bit for bit, or be None for a constant vector
    rng = np.random.default_rng(11)
    cycle = build_graph(C4)
    cases = [(cycle, frozenset(range(cycle.m)))]
    for _ in range(6):
        g = random_graph(rng, int(rng.integers(6, 20)), 0.3, connected=True, weighted=True)
        cases.append((g, maximum_spanning_tree(g)))
    for g, b in cases:
        rows = centrality_values(g)
        cols = centrality_values(g.subgraph_with_edges(b))
        for cells, rm in zip(correlation_matrix(rows, cols), MEASURES):
            for (rho, tau), cm in zip(cells, MEASURES):
                x, y = rows[rm], cols[cm]
                if len(set(x.values())) < 2 or len(set(y.values())) < 2:
                    assert rho is None and tau is None
                else:
                    assert rho == spearman_rho(x, y)
                    assert tau == kendall_tau(x, y)


def test_each_vector_is_ranked_once():
    # a grid ranks its 8 vectors once each, and a pairwise function its 2
    g = random_graph(np.random.default_rng(13), 12, 0.35, connected=True, weighted=True)
    rows = centrality_values(g)
    cols = centrality_values(g.subgraph_with_edges(maximum_spanning_tree(g)))
    x, y = rows[MEASURES[2]], cols[MEASURES[2]]
    for call, count in ((lambda: correlation_matrix(rows, cols), 8),
                        (lambda: spearman_rho(x, y), 2), (lambda: kendall_tau(x, y), 2)):
        with mock.patch.object(netstats, "_ranked", wraps=netstats._ranked) as ranked:
            call()
        assert ranked.call_count == count


def test_correlation_matrix_refuses_mismatched_node_sets():
    # a copy of the 4-cycle with node "a" renamed "z"
    g = build_graph(C4)
    h = build_graph([(u.replace("a", "z"), v.replace("a", "z")) for u, v in C4])
    assert h.n == g.n and set(h.ids) == {"b", "c", "d", "z"}
    with pytest.raises(InputError, match="one node set"):
        correlation_matrix(centrality_values(g), centrality_values(h))
    with pytest.raises(InputError, match="one node set"):
        correlation_matrix(centrality_values(h), centrality_values(g))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("side", ["rows", "cols"])
def test_correlation_matrix_refuses_a_value_that_is_not_finite(side, value):
    # as spearman_rho and kendall_tau do: a NaN would be ranked as a number
    g = random_graph(np.random.default_rng(12), 8, 0.4, connected=True)
    maps = {"rows": centrality_values(g), "cols": centrality_values(g)}
    maps[side][MEASURES[2]] = {**maps[side][MEASURES[2]], g.ids[0]: value}
    with pytest.raises(InputError, match="^rank correlation of a value that is not finite$"):
        correlation_matrix(maps["rows"], maps["cols"])


def test_largest_component_matches_the_loop_bit_for_bit():
    for g in random_corpus(np.random.default_rng(72), 60):
        sub, frac = largest_component_graph(g)
        (ids, edge_idx, weights), want = largest_component_loop(g)
        assert sub.ids == ids and frac == want
        assert sub.edge_idx.dtype == edge_idx.dtype and sub.edge_idx.shape == edge_idx.shape
        assert sub.edge_idx.tobytes() == edge_idx.tobytes()
        assert sub.weights.tobytes() == weights.tobytes()


def test_largest_component_tie_goes_to_the_smallest_member_id():
    g = build_graph([("b", "d"), ("d", "f"), ("a", "c"), ("c", "e")])
    sub, frac = largest_component_graph(g)
    assert sub.ids == ("a", "c", "e") and frac == 0.5
    assert [sub.edge_ids(e) for e in range(sub.m)] == [("a", "c"), ("c", "e")]


def test_mean_distance_matches_the_triangle_mean_bit_for_bit():
    # the mean over the largest component's pairs, from g's own Brandes pass
    for g in random_corpus(np.random.default_rng(73), 60):
        lcc, _ = largest_component_graph(g)
        if lcc.n >= 2:
            assert mean_distance(g) == mean_distance_triu(lcc.dist_matrix)
        else:
            assert mean_distance(g) == 0.0


def test_mean_distance_of_a_disconnected_graph_is_its_lcc_mean():
    # no -1 sentinel enters the sum: two disjoint edges, and a 3-path plus
    # an edge, where the path is the largest component
    assert mean_distance(build_graph([("a", "b"), ("c", "d")])) == 1.0
    assert mean_distance(build_graph([("a", "b"), ("b", "c"), ("x", "y")])) == 4.0 / 3.0
    assert mean_distance(build_graph([], isolated_nodes="ab")) == 0.0
