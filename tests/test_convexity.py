import contextlib
import importlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convexa import (
    DisconnectedError,
    InputError,
    build_graph,
    convex_hull,
    convexity,
    extract_convex_skeleton,
    is_convex,
    is_tree_of_cliques,
)
from convexa import _kernels
from convexa import graph as graph_module
from convexa.synth import Kind, generate
from oracles import (
    connected_components,
    convex_hull_oracle,
    expansion_run,
    expansion_run_loop,
    hull_close_loop,
    is_convex_oracle,
    random_graph,
)

convexity_module = importlib.import_module("convexa.convexity")
skeleton_module = importlib.import_module("convexa.skeleton")

PATH3 = [("a", "b"), ("b", "c")]
TRIANGLE = [("a", "b"), ("b", "c"), ("a", "c")]
C4 = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
K4 = [(u, v) for u, v in itertools.combinations("abcd", 2)]


def test_hull_forced_intermediate():
    assert convex_hull(build_graph(PATH3), {"a", "c"}) == {"a", "b", "c"}


def test_hull_edge_is_closed():
    assert convex_hull(build_graph(TRIANGLE), {"a", "b"}) == {"a", "b"}


def test_hull_c4_diagonal_pulls_everything():
    g = build_graph(C4)
    expected = convex_hull_oracle(g, {"a", "c"})
    assert expected == {"a", "b", "c", "d"}
    assert convex_hull(g, {"a", "c"}) == expected


def test_hull_preconditions():
    g = build_graph([("a", "b"), ("c", "d")])
    with pytest.raises(DisconnectedError):
        convex_hull(g, {"a"})
    with pytest.raises(InputError):
        convex_hull(build_graph(PATH3), set())
    with pytest.raises(InputError):
        convex_hull(build_graph(PATH3), {"nope"})


def test_is_convex_examples():
    assert is_convex(build_graph(TRIANGLE), {"a", "b"})
    g = build_graph(C4)
    assert not is_convex(g, {"a", "c"})
    # the geodesic a-d-c escapes {a, b, c}
    assert not is_convex(g, {"a", "b", "c"})


def test_hull_extensive_idempotent_monotone():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_graph(rng, int(rng.integers(3, 10)), 0.4, connected=True)
        ids = list(g.ids)
        k = int(rng.integers(1, g.n + 1))
        s = set(rng.choice(ids, size=k, replace=False))
        h = convex_hull(g, s)
        assert s <= h
        assert convex_hull(g, h) == h
        t = s | set(rng.choice(ids, size=1))
        assert h <= convex_hull(g, t)


def test_hull_and_is_convex_match_oracle_small_graphs():
    rng = np.random.default_rng(23)
    for _ in range(40):
        g = random_graph(rng, int(rng.integers(3, 11)), 0.35, connected=True)
        ids = list(g.ids)
        k = int(rng.integers(1, g.n + 1))
        s = set(str(x) for x in rng.choice(ids, size=k, replace=False))
        assert convex_hull(g, s) == convex_hull_oracle(g, s)
        assert is_convex(g, s) == is_convex_oracle(g, s)


def test_expansion_run_tree_grows_one_by_one():
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")])
    for seed in range(10):
        sizes = expansion_run(tree, np.random.default_rng(seed))
        assert sizes == [1, 2, 3, 4, 5]


def test_expansion_run_clique():
    g = build_graph(K4)
    for seed in range(10):
        assert expansion_run(g, np.random.default_rng(seed)) == [1, 2, 3, 4]


def test_expansion_run_c4_explodes_at_third_node():
    g = build_graph(C4)
    for seed in range(20):  # symmetry: every seed gives the same shape
        assert expansion_run(g, np.random.default_rng(seed)) == [1, 2, 4, 4]


def test_convexity_tree_exact_one():
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d")])
    assert convexity(tree, runs=50, seed=0).x == 1.0


def test_convexity_clique_exact_one():
    assert convexity(build_graph(K4), runs=50, seed=9).x == 1.0


def test_convexity_c4_exact():
    for seed in (0, 1, 12345):
        assert convexity(build_graph(C4), runs=100, seed=seed).x == 0.75


def test_convexity_reproducible():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 15, 0.3, connected=True)
    a = convexity(g, runs=30, seed=77)
    b = convexity(g, runs=30, seed=77)
    assert a.x == b.x
    assert np.array_equal(a.profile, b.profile)


def test_profile_invariants():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(4, 15)), 0.3, connected=True)
        s = convexity(g, runs=20, seed=5).profile
        n = g.n
        assert s[0] == 1 / n
        assert s[1] == 2 / n
        assert np.all(np.diff(s) >= 0)
        assert all(s[t] >= (t + 1) / n - 1e-12 for t in range(n))
        assert s[n - 1] == 1.0


def test_convexity_preconditions():
    with pytest.raises(DisconnectedError):
        convexity(build_graph([("a", "b"), ("c", "d")]), seed=0)
    from convexa import ConvexaError

    with pytest.raises(ConvexaError):
        convexity(build_graph([], isolated_nodes=["x"]), seed=0)


def test_tree_of_cliques_examples():
    tree = build_graph([("a", "b"), ("b", "c"), ("b", "d")])
    assert is_tree_of_cliques(tree)
    assert not is_tree_of_cliques(build_graph(C4))


def fig_one_middle_graph():
    # one 4-clique, four 3-cliques, eight single edges in a tree arrangement
    edges = []
    k4 = ["q0", "q1", "q2", "q3"]
    edges += list(itertools.combinations(k4, 2))
    for i, host in enumerate(k4):
        tri = [host, f"t{i}a", f"t{i}b"]
        edges += list(itertools.combinations(tri, 2))
    hosts = ["t0a", "t0b", "t1a", "t1b", "t2a", "t2b", "t3a", "t3b"]
    for i, host in enumerate(hosts):
        edges.append((host, f"leaf{i}"))
    return build_graph(edges)


def test_fig_one_middle_replica_is_fully_convex():
    g = fig_one_middle_graph()
    assert is_tree_of_cliques(g)
    assert convexity(g, runs=100, seed=3).x == 1.0


def test_tree_of_cliques_implies_every_connected_subset_convex():
    g = build_graph(
        list(itertools.combinations("abc", 2))
        + [("c", "d"), ("d", "e"), ("d", "f"), ("e", "f")]
    )
    assert is_tree_of_cliques(g)
    ids = list(g.ids)
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            s = set(combo)
            sub_edges = [
                g.edge_ids(e) for e in range(g.m) if set(g.edge_ids(e)) <= s
            ]
            sub = build_graph(sub_edges, isolated_nodes=s)
            if len(connected_components(sub)) == 1:
                assert is_convex(g, s)


@st.composite
def block_graphs(draw):
    """Random trees, cliques and trees of cliques (n >= 2)."""
    kind = draw(st.sampled_from(["tree", "clique", "toc"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "toc":
        params = {"cliques": draw(st.integers(1, 8)), "smin": 2, "smax": 6}
        return generate(Kind.TREE_OF_CLIQUES, params, seed=seed)
    n = draw(st.integers(2, 25))
    if kind == "clique":
        return generate(Kind.COMPLETE, {"n": n})
    rng = np.random.default_rng(seed)
    return build_graph([(f"v{int(rng.integers(i)):03d}", f"v{i:03d}") for i in range(1, n)])


@settings(max_examples=100, deadline=None)
@given(block_graphs(), st.integers(1, 20), st.integers(0, 2**31))
def test_tree_of_cliques_closed_form_matches_monte_carlo(g, runs, seed):
    assert is_tree_of_cliques(g)
    score = convexity(g, runs=runs, seed=seed)
    totals = np.zeros(g.n, dtype=np.int64)
    for r in range(runs):
        totals += np.array(expansion_run(g, np.random.default_rng([seed, r])), dtype=np.int64)
    assert score.x == 1.0
    assert score.profile.tobytes() == (totals / (runs * g.n)).tobytes()


def test_convexity_checks_connectivity_once_per_graph():
    g = random_graph(np.random.default_rng(4), 12, 0.4, connected=True)
    g = build_graph([g.edge_ids(e) for e in range(g.m)])  # fresh: nothing cached
    with mock.patch.object(
        graph_module, "component_labels", wraps=graph_module.component_labels
    ) as labels:
        convexity(g, runs=10, seed=0)
        convex_hull(g, g.ids[:2])
    assert labels.call_count == 1


def test_whole_graph_blocks_are_decomposed_once_per_graph():
    g = random_graph(np.random.default_rng(5), 14, 0.35, connected=True)
    g = build_graph([g.edge_ids(e) for e in range(g.m)])  # fresh: nothing cached
    real = graph_module.biconnected_edge_blocks
    whole = []

    def counting(n, edge_idx):
        # the skeleton also decomposes the pieces of a split block
        if n == g.n and np.array_equal(edge_idx, g.edge_idx):
            whole.append(n)
        return real(n, edge_idx)

    modules = [m for m in (graph_module, convexity_module, skeleton_module)
               if hasattr(m, "biconnected_edge_blocks")]
    with contextlib.ExitStack() as stack:
        for m in modules:
            stack.enter_context(mock.patch.object(m, "biconnected_edge_blocks", counting))
        sk = extract_convex_skeleton(g)
        convexity(g, runs=5, seed=0)
        is_tree_of_cliques(g)
    assert sk.removed and len(whole) == 1


@st.composite
def expansion_graphs(draw):
    """Paths, C4, cliques, dense ER graphs and trees of cliques with chords
    (n >= 2, connected)."""
    kind = draw(st.sampled_from(["path", "c4", "clique", "dense_er", "toc_chords"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "c4":
        return build_graph(C4)
    if kind == "dense_er":
        n, p = draw(st.integers(2, 16)), draw(st.floats(0.3, 0.8))
        return random_graph(rng, n, p, connected=True)
    if kind == "toc_chords":
        params = {"cliques": draw(st.integers(2, 6)), "smin": 2, "smax": 5}
        toc = generate(Kind.TREE_OF_CLIQUES, params, seed=seed)
        pairs = {toc.edge_ids(e) for e in range(toc.m)}
        for _ in range(draw(st.integers(1, 4))):
            u, v = sorted(rng.choice(list(toc.ids), 2, replace=False).tolist())
            pairs.add((u, v))
        return build_graph(sorted(pairs))
    n = draw(st.integers(2, 16))
    if kind == "clique":
        return generate(Kind.COMPLETE, {"n": n})
    return build_graph([(f"v{i - 1:03d}", f"v{i:03d}") for i in range(1, n)])


@settings(max_examples=150, deadline=None)
@given(expansion_graphs(), st.integers(1, 25), st.integers(0, 2**31),
       st.sampled_from([1, 2, 7, None]))
def test_lockstep_runs_match_loop_reference(g, runs, seed, per_block):
    # per_block runs per block (None: the default budget), so that the runs
    # split into blocks or share one
    budget = (
        convexity_module.RUN_BLOCK_ELEMENTS if per_block is None
        else per_block * (g.n + g.m)
    )
    ref = np.zeros(g.n, dtype=np.int64)
    for r in range(runs):
        ref += np.array(expansion_run_loop(g, np.random.default_rng([seed, r])), dtype=np.int64)
    with mock.patch.object(convexity_module, "RUN_BLOCK_ELEMENTS", budget):
        rngs = [np.random.default_rng([seed, r]) for r in range(runs)]
        assert np.array_equal(convexity_module._expansion_totals(g, rngs), ref)
        score = convexity(g, runs=runs, seed=seed)
        with mock.patch.object(convexity_module, "_expansion_totals", lambda g, rngs: ref):
            loop = convexity(g, runs=runs, seed=seed)
    assert score.profile.tobytes() == (ref / (runs * g.n)).tobytes()
    assert score.profile.tobytes() == loop.profile.tobytes()
    assert score.x == loop.x
    one = expansion_run(g, np.random.default_rng([seed, 0]))
    assert one == expansion_run_loop(g, np.random.default_rng([seed, 0]))


@settings(max_examples=200, deadline=None)
@given(expansion_graphs(), st.data())
def test_push_test_passes_iff_closure_adds_only_the_pushed_node(g, data):
    # rows: S = the hull of random seeds and u a node outside S with a
    # neighbour in S (a draw whose hull is the whole graph adds no row), as
    # in a lockstep step; the closure's first round is the push test, and a
    # row grows past S + u iff that test fails
    D = g.dist_matrix
    indptr, indices, _ = g.csr
    nodes = st.integers(0, g.n - 1)
    rows, pushed = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        seeds = data.draw(st.lists(nodes, min_size=1, max_size=3, unique=True))
        members = hull_close_loop(D, np.zeros(g.n, dtype=bool), np.array(seeds, np.int32))
        frontier = [
            u for u in range(g.n)
            if not members[u] and members[indices[indptr[u]:indptr[u + 1]]].any()
        ]
        if frontier:
            rows.append(members)
            pushed.append(data.draw(st.sampled_from(frontier)))
    if not rows:
        return
    block = np.array(rows)
    u = np.array(pushed, dtype=np.intp)
    grown = _kernels.hull_close(D, indptr, indices, block, np.arange(u.size), u)
    for r, (members, x) in enumerate(zip(rows, pushed)):
        before = int(members.sum())
        closed = hull_close_loop(D, members.copy(), np.array([x], np.int32))
        assert grown[r] == (int(closed.sum()) > before + 1)
        assert np.array_equal(block[r], closed)


def test_push_test_reads_a_hub_pushed_by_many_rows_in_chunks():
    # a star whose hub h is pushed by every row at once, plus z on the C4
    # h-x-z-y; a budget of 3 arcs per chunk splits the hub's arcs.
    # Every fifth row is {x, z}, whose push of h pulls in y; the others are
    # one leaf, whose push of h adds h alone
    n = 40
    g = build_graph([("h", f"l{i:02d}") for i in range(n)] + [("l00", "z"), ("l01", "z")])
    D = g.dist_matrix
    indptr, indices, _ = g.csr
    hub = g.index["h"]
    leaves = [g.index[f"l{i:02d}"] for i in range(n)]
    block = np.zeros((len(leaves), g.n), dtype=bool)
    block[np.arange(len(leaves)), leaves] = True
    block[::5] = False
    block[::5, leaves[0]] = True
    block[::5, g.index["z"]] = True
    before = block.copy()
    u = np.full(len(leaves), hub, dtype=np.intp)
    with mock.patch.object(_kernels, "HULL_CHUNK_ELEMENTS", 3 * g.n):
        grown = _kernels.hull_close(D, indptr, indices, block, np.arange(u.size), u)
        rngs = [np.random.default_rng([5, r]) for r in range(30)]
        totals = convexity_module._expansion_totals(g, rngs)
    for r, members in enumerate(before):
        closed = hull_close_loop(D, members.copy(), np.array([hub], np.int32))
        assert grown[r] == (int(closed.sum()) > 2)
        assert np.array_equal(block[r], closed)
    assert np.array_equal(np.flatnonzero(grown), np.arange(0, n, 5))
    ref = sum(
        np.array(expansion_run_loop(g, np.random.default_rng([5, r])), dtype=np.int64)
        for r in range(30)
    )
    assert np.array_equal(totals, ref)
