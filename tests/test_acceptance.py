"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import io
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

import convexa as cx
from oracles import (
    betweenness_oracle,
    convex_hull_oracle,
    is_convex_oracle,
    max_spanning_tree_weight_oracle,
    random_graph,
)


def report(criterion, ok=True):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}", flush=True)


def random_tree(rng, n):
    records = []
    labels = [f"v{i:03d}" for i in range(n)]
    for i in range(1, n):
        records.append((labels[int(rng.integers(0, i))], labels[i]))
    return cx.build_graph(records, isolated_nodes=labels)


def test_criterion_1_exact_convexity_values():
    rng = np.random.default_rng(1)
    for n in range(2, 31):
        t0 = time.perf_counter()
        assert cx.convexity(random_tree(rng, n), runs=100, seed=int(rng.integers(1 << 30))).x == 1.0
        assert time.perf_counter() - t0 < 1.0
        kn = cx.generate(cx.Kind.COMPLETE, {"n": n})
        t0 = time.perf_counter()
        assert cx.convexity(kn, runs=100, seed=int(rng.integers(1 << 30))).x == 1.0
        assert time.perf_counter() - t0 < 1.0
    c4 = cx.generate(cx.Kind.CYCLE, {"n": 4})
    for seed in (0, 7, 12345, 987654321):
        t0 = time.perf_counter()
        assert abs(cx.convexity(c4, runs=100, seed=seed).x - 0.75) <= 1e-12
        assert time.perf_counter() - t0 < 1.0
    report(1)


def test_criterion_2_convexity_separation():
    t0 = time.perf_counter()
    toc = cx.generate(cx.Kind.TREE_OF_CLIQUES, {"cliques": 50, "smin": 4, "smax": 6}, seed=3)
    assert 150 <= toc.n <= 260
    assert cx.convexity(toc, runs=100, seed=11).x >= 0.99
    for seed in range(10):
        er, _ = cx.connected_er(100, 0.1, seed=1000 + seed)
        assert cx.convexity(er, runs=100, seed=seed).x <= 0.20
    assert time.perf_counter() - t0 < 60.0
    report(2)


def test_criterion_3_skeleton_structural_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for i in range(100):
        n = int(rng.integers(4, 61))
        p = min(1.0, 3.0 / n + float(rng.random()) * 0.2)
        g = random_graph(rng, n, p, connected=True)
        sk = cx.extract_convex_skeleton(g)
        sub = cx.skeleton_graph(g, sk)
        assert sub.n == g.n and sub.connected
        assert cx.is_tree_of_cliques(sub)
        assert cx.convexity(sub, runs=100, seed=i).x == 1.0
        assert g.n - 1 <= len(sk.kept) <= g.m
    assert time.perf_counter() - t0 < 120.0
    report(3)


def test_criterion_4_table_forced_values():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 80, 0.08, connected=True, weighted=True)
    mst = cx.maximum_spanning_tree(g)
    assert len(mst) == g.n - 1
    stats = cx.descriptive_stats(g.subgraph_with_edges(mst), convexity_runs=100, seed=1)
    assert stats.edges == g.n - 1
    assert stats.pct_lcc == 100.0
    assert stats.clustering == 0.0
    assert stats.convexity == 1.0
    sk = cx.extract_convex_skeleton(g)
    m = len(sk.kept)
    for scores in (cx.edge_betweenness(g), cx.embeddedness_scores(g)):
        assert len(cx.top_m_edge_backbone(g, scores, m)) == m
    report(4)


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(17)
    # convex hull / convexity test vs all-geodesic brute force, 200-graph corpus
    for _ in range(200):
        n = int(rng.integers(3, 11))
        g = random_graph(rng, n, 0.35, connected=True)
        ids = list(g.ids)
        for _ in range(3):
            k = int(rng.integers(1, n + 1))
            s = set(str(x) for x in rng.choice(ids, size=k, replace=False))
            assert cx.convex_hull(g, s) == convex_hull_oracle(g, s)
            assert cx.is_convex(g, s) == is_convex_oracle(g, s)
    # Brandes vs path enumeration
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(3, 13)), 0.3)
        got = cx.betweenness(g)
        want = betweenness_oracle(g)
        for v in g.ids:
            assert abs(got[v] - want[v]) <= 1e-9
    # MST vs exhaustive spanning-tree maximum
    for _ in range(15):
        g = random_graph(rng, int(rng.integers(3, 9)), 0.6, connected=True, weighted=True)
        got = float(g.weights[sorted(cx.maximum_spanning_tree(g))].sum())
        assert got == pytest.approx(max_spanning_tree_weight_oracle(g), abs=1e-9)
    report(5)


def test_criterion_6_centrality_correlation_exactness():
    k3 = cx.build_graph(list(itertools.combinations("abc", 2)))
    for v in cx.pagerank(k3).values():
        assert abs(v - 1.0 / 3.0) <= 1e-12
    star = cx.build_graph([("c", "l1"), ("c", "l2"), ("c", "l3")])
    vals = cx.pagerank(star)
    # linear-system solution of the 2-variable fixed point
    center = 0.133125 / 0.2775
    leaf = 0.0375 + 0.85 * center / 3.0
    assert abs(vals["c"] - center) <= 1e-4 and abs(vals["c"] - 0.4797) <= 1e-4
    assert abs(vals["l1"] - leaf) <= 1e-4 and abs(vals["l1"] - 0.1734) <= 1e-4
    x = {i: float(i) for i in (1, 2, 3, 4)}
    y = {1: 1.0, 2: 3.0, 3: 2.0, 4: 4.0}
    assert cx.spearman_rho(x, y) == 0.8
    assert cx.kendall_tau(x, y) == pytest.approx(2.0 / 3.0, abs=1e-15)
    rng = np.random.default_rng(2)
    g = random_graph(rng, 15, 0.3, connected=True, weighted=True)
    whole = g.subgraph_with_edges(range(g.m))
    grid = cx.correlation_matrix(cx.centrality_values(g), cx.centrality_values(whole))
    for i in range(4):
        assert grid[i][i] == (1.0, 1.0)
    report(6)


def test_criterion_7_counting_scheme_conservation():
    rng = np.random.default_rng(9)
    pool = [f"a{i:03d}" for i in range(120)]
    for _ in range(1000):
        k = int(rng.integers(2, 12))
        authors = tuple(str(a) for a in rng.choice(pool, size=k, replace=False))
        rec = [cx.PaperRecord("p", authors)]
        full = cx.build_coauthorship(rec, cx.CountingScheme.FULL).total_weight
        frac = cx.build_coauthorship(rec, cx.CountingScheme.FRACTIONAL).total_weight
        part = cx.build_coauthorship(rec, cx.CountingScheme.PARTIAL).total_weight
        assert abs(full - k * (k - 1) / 2) <= 1e-9
        assert abs(frac - k / 2) <= 1e-9
        assert abs(part - (k - 1) / 2) <= 1e-9
    # distribution conservation, bin by bin
    g = random_graph(rng, 20, 0.3, connected=True, weighted=True)
    sk = cx.extract_convex_skeleton(g)
    authors = {v: {"year": int(rng.integers(1950, 2010))} for v in g.ids}
    rep = cx.distribution_report(
        g, sk, cx.AttrExpr("ABS_DIFF", "year"), authors, cx.Binning(width=5)
    )
    total = (
        sum(rep.skeleton_weight) + sum(rep.remainder_weight)
        + rep.missing_skeleton + rep.missing_remainder
    )
    assert total == pytest.approx(g.total_weight, abs=1e-9)
    whole = {}
    for e in range(g.m):
        val = cx.edge_attribute(cx.AttrExpr("ABS_DIFF", "year"), g.edge_ids(e), authors)
        whole[int(val // 5)] = whole.get(int(val // 5), 0.0) + float(g.weights[e])
    for (low, _), sw, rw in zip(rep.bins, rep.skeleton_weight, rep.remainder_weight):
        assert sw + rw == pytest.approx(whole[int(low // 5)], abs=1e-9)
    report(7)


def _clustered_graph(n_target=500, m_target=2500, seed=4):
    toc = cx.generate(
        cx.Kind.TREE_OF_CLIQUES, {"cliques": 124, "smin": 4, "smax": 6}, seed=seed
    )
    rng = np.random.default_rng(seed)
    records = [(*toc.edge_ids(e), float(toc.weights[e])) for e in range(toc.m)]
    ids = list(toc.ids)
    have = {frozenset(toc.edge_ids(e)) for e in range(toc.m)}
    while len(records) < m_target:
        u, v = rng.choice(ids, 2, replace=False)
        if frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            records.append((str(u), str(v), float(rng.integers(1, 5))))
    g = cx.build_graph(records, isolated_nodes=ids)
    assert g.connected
    return g


def test_criterion_8_desk_scale_performance(tmp_path):
    g = _clustered_graph()
    assert 400 <= g.n <= 600 and g.m == 2500
    path = tmp_path / "big.tsv"
    buf = io.StringIO()
    cx.write_edge_tsv(g, buf)
    path.write_text(buf.getvalue())
    t0 = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "convexa", "compare", "--input", str(path),
         "--runs", "100", "--seed", "1", "--output-dir", str(tmp_path / "cmp")],
        capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - t0
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "cmp" / "stats.csv").exists()
    assert len(list((tmp_path / "cmp").glob("corr_*.csv"))) == 4
    assert elapsed < 600.0
    print(f"  compare pipeline on n={g.n}, m={g.m}: {elapsed:.1f}s", flush=True)
    report(8)


def test_criterion_9_byte_identical_determinism(tmp_path):
    def run(*args):
        r = subprocess.run(
            [sys.executable, "-m", "convexa", *args], capture_output=True, text=True
        )
        assert r.returncode == 0, r.stderr

    net = tmp_path / "net.tsv"
    run("generate", "--kind", "tree_of_cliques", "--cliques", "10", "--seed", "2",
        "--output", str(net))
    papers = tmp_path / "papers.csv"
    papers.write_text("paper_id,author_id\np1,a\np1,b\np1,c\np2,b\np2,c\n")
    authors = tmp_path / "authors.csv"
    authors.write_text("author_id,year\na,1970\nb,1980\nc,1985\n")
    coauth = tmp_path / "co.tsv"
    run("buildnet", "--papers", str(papers), "--scheme", "fractional",
        "--output", str(coauth))

    cases = [
        ("generate", "--kind", "er_random", "--n", "30", "--p", "0.2", "--seed", "5"),
        ("convexity", "--input", str(net), "--runs", "50", "--seed", "3"),
        ("skeleton", "--input", str(net), "--runs", "20", "--seed", "3"),
        ("backbone", "--input", str(net), "--kind", "betweenness", "--seed", "3"),
        ("centrality", "--input", str(net)),
        ("rank", "--input", str(net), "--measure", "degree", "--top", "10"),
        ("buildnet", "--papers", str(papers), "--scheme", "partial"),
        ("distributions", "--input", str(coauth), "--authors", str(authors),
         "--expr", "ABS_DIFF(year)", "--bin-width", "5", "--seed", "3"),
        ("stats", "--input", str(net), "--runs", "20", "--seed", "3"),
    ]
    for i, case in enumerate(cases):
        outs = []
        for rep_i in range(2):
            out = tmp_path / f"case{i}_{rep_i}.out"
            run(*case, "--output", str(out))
            outs.append(out.read_bytes() + (out.parent / (out.name + ".meta.json")).read_bytes())
        assert outs[0] == outs[1], f"subcommand {case[0]} not byte-identical"
    # compare writes a directory
    for rep_i in range(2):
        run("compare", "--input", str(net), "--runs", "20", "--seed", "3",
            "--output-dir", str(tmp_path / f"cmp{rep_i}"))
    for f in sorted((tmp_path / "cmp0").iterdir()):
        assert f.read_bytes() == (tmp_path / "cmp1" / f.name).read_bytes()
    report(9)
