import itertools

import numpy as np
import pytest

from convexa import (
    ConvexaError,
    build_graph,
    betweenness,
    closeness,
    degree_centrality,
    pagerank,
    top_k,
)
from convexa.centrality import Measure, compute
from oracles import (
    betweenness_oracle,
    closeness_loop,
    pagerank_eig_oracle,
    random_corpus,
    random_graph,
)

STAR4 = [("c", "l1"), ("c", "l2"), ("c", "l3")]


def test_degree_fixtures():
    k4 = build_graph(list(itertools.combinations("abcd", 2)))
    assert all(v == 3.0 for v in degree_centrality(k4).values())
    star = build_graph(STAR4)
    vals = degree_centrality(star)
    assert vals["c"] == 3.0 and vals["l1"] == 1.0
    iso = build_graph([("a", "b")], isolated_nodes=["z"])
    assert degree_centrality(iso)["z"] == 0.0


def test_pagerank_k3_symmetry():
    k3 = build_graph(list(itertools.combinations("abc", 2)))
    vals = pagerank(k3)
    for v in vals.values():
        assert v == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_pagerank_star_matches_fixed_point():
    # exact 2-variable fixed point at damping 0.85:
    # c = 0.15/4 + 0.85*3*l ; l = 0.15/4 + 0.85*c/3
    center = 0.133125 / 0.2775
    leaf = 0.0375 + 0.85 * center / 3.0
    vals = pagerank(build_graph(STAR4))
    assert vals["c"] == pytest.approx(center, abs=1e-8)
    assert vals["l2"] == pytest.approx(leaf, abs=1e-8)
    assert vals["c"] == pytest.approx(0.4797, abs=1e-4)
    assert vals["l1"] == pytest.approx(0.1734, abs=1e-4)


def test_pagerank_sums_to_one_with_isolates():
    g = build_graph([("a", "b"), ("b", "c")], isolated_nodes=["x", "y"])
    vals = pagerank(g)
    assert sum(vals.values()) == pytest.approx(1.0, abs=1e-9)
    assert vals["x"] == vals["y"] > 0


def test_pagerank_matches_dominant_eigenvector_small():
    rng = np.random.default_rng(51)
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(3, 8)), 0.5)
        got = pagerank(g)
        want = pagerank_eig_oracle(g)
        # argmax agreement up to exact ties between symmetric nodes
        assert got[max(want, key=want.get)] == pytest.approx(
            max(got.values()), abs=1e-6
        )
        for v in g.ids:
            assert got[v] == pytest.approx(want[v], abs=1e-6)


def test_betweenness_fixtures():
    path = build_graph([("a", "b"), ("b", "c")])
    assert betweenness(path) == {"a": 0.0, "b": 1.0, "c": 0.0}
    star5 = build_graph([("c", f"l{i}") for i in range(4)])
    assert betweenness(star5)["c"] == 6.0
    k4 = build_graph(list(itertools.combinations("abcd", 2)))
    assert all(v == 0.0 for v in betweenness(k4).values())


def test_betweenness_matches_oracle():
    rng = np.random.default_rng(61)
    for _ in range(12):
        g = random_graph(rng, int(rng.integers(3, 13)), 0.3)
        got = betweenness(g)
        want = betweenness_oracle(g)
        for v in g.ids:
            assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_closeness_fixtures():
    path = build_graph([("a", "b"), ("b", "c")])
    vals = closeness(path)
    assert vals["b"] == 1.0
    assert vals["a"] == pytest.approx(2.0 / 3.0)
    k5 = build_graph(list(itertools.combinations("abcde", 2)))
    assert all(v == 1.0 for v in closeness(k5).values())
    g = build_graph([("a", "b")], isolated_nodes=["c"])
    vals = closeness(g)
    assert vals["a"] == 0.5  # reachable-set correction
    assert vals["c"] == 0.0


def test_closeness_reduces_to_classical_on_connected():
    rng = np.random.default_rng(71)
    g = random_graph(rng, 12, 0.4, connected=True)
    D = g.dist_matrix
    vals = closeness(g)
    for i, v in enumerate(g.ids):
        classical = (g.n - 1) / float(D[i].sum())
        assert vals[v] == pytest.approx(classical)


def test_measures_relabel_equivariant():
    rng = np.random.default_rng(81)
    g = random_graph(rng, 12, 0.35)
    mapping = {v: f"w{i:02d}" for i, v in enumerate(reversed(g.ids))}
    edges = [(mapping[u], mapping[v]) for u, v in (g.edge_ids(e) for e in range(g.m))]
    h = build_graph(edges, isolated_nodes=mapping.values())
    for m in Measure:
        gv = compute(g, m)
        hv = compute(h, m)
        for v in g.ids:
            assert gv[v] == pytest.approx(hv[mapping[v]], abs=1e-9)


def test_top_k_rules():
    star = build_graph(STAR4)
    deg = degree_centrality(star)
    assert top_k(deg, 1) == [("c", 3.0)]
    flat = degree_centrality(build_graph(list(itertools.combinations("abcd", 2))))
    assert [n for n, _ in top_k(flat, 2)] == ["a", "b"]  # lex tie-break
    assert len(top_k(deg, 99)) == 4  # k > n returns all
    full = top_k(deg, 4)
    assert [n for n, _ in full] == ["c", "l1", "l2", "l3"]
    with pytest.raises(ConvexaError):
        top_k(deg, 0)


def test_pagerank_matches_scipy_matvec_bit_for_bit():
    # the CSR-order bincount replaced a scipy.sparse mat-vec; the iteration
    # below is that implementation, kept as the reference
    sp = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(52)
    graphs = [random_graph(rng, int(rng.integers(2, 40)), 0.15) for _ in range(12)]
    graphs.append(build_graph([], isolated_nodes=["a", "b", "c"]))
    for g in graphs:
        n, damping = g.n, 0.85
        deg = g.degrees.astype(np.float64)
        dangling = deg == 0
        eu, ev = g.edge_idx[:, 0], g.edge_idx[:, 1]
        A = sp.csr_matrix(
            (np.ones(2 * g.m), (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
            shape=(n, n),
        )
        p = np.full(n, 1.0 / n)
        inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
        while True:
            new = (1.0 - damping) / n + damping * (A @ (p * inv_deg) + p[dangling].sum() / n)
            residual = float(np.abs(new - p).sum())
            p = new
            if residual < 1e-10:
                break
        got = pagerank(g)
        assert [got[v] for v in g.ids] == p.tolist()


def test_closeness_matches_the_loop_bit_for_bit():
    for g in random_corpus(np.random.default_rng(74), 60):
        vals = closeness(g)
        assert list(vals.items()) == list(closeness_loop(g).items())
        assert all(type(v) is float for v in vals.values())
