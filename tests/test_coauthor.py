import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from convexa import (
    MISSING,
    AttrExpr,
    Binning,
    CountingScheme,
    InputError,
    PaperRecord,
    build_coauthorship,
    build_graph,
    distribution_report,
    edge_attribute,
    extract_convex_skeleton,
)
from convexa.coauthor import filter_years, pair_weight, parse_expr
from convexa.skeleton import Objective
from oracles import distribution_report_subgraphs, random_graph


def paper(pid, authors, **attrs):
    return PaperRecord(pid, tuple(authors), attrs)


def test_fractional_three_authors():
    g = build_coauthorship([paper("p", "abc")], CountingScheme.FRACTIONAL)
    assert g.m == 3
    assert all(w == 0.5 for w in g.weights)


def test_full_counting_accumulates():
    g = build_coauthorship([paper("p1", "ab"), paper("p2", "ab")], CountingScheme.FULL)
    assert g.m == 1 and g.weights[0] == 2.0


def test_two_author_paper_all_schemes():
    for scheme, w in (
        (CountingScheme.FULL, 1.0),
        (CountingScheme.FRACTIONAL, 1.0),
        (CountingScheme.PARTIAL, 0.5),
    ):
        g = build_coauthorship([paper("p", "ab")], scheme)
        assert g.weights[0] == w


def test_single_author_contributes_node_only():
    g = build_coauthorship([paper("p", "a")], CountingScheme.FULL)
    assert g.n == 1 and g.m == 0


def test_duplicate_author_rejected_naming_paper():
    with pytest.raises(InputError, match="p7"):
        build_coauthorship([PaperRecord("p7", ("a", "a"))], CountingScheme.FULL)


@given(st.integers(min_value=2, max_value=12))
def test_per_paper_pair_weight_totals(k):
    authors = [f"a{i}" for i in range(k)]
    pairs = k * (k - 1) / 2
    for scheme, total in (
        (CountingScheme.FULL, pairs),
        (CountingScheme.FRACTIONAL, k / 2.0),
        (CountingScheme.PARTIAL, (k - 1) / 2.0),
    ):
        g = build_coauthorship([paper("p", authors)], scheme)
        assert g.total_weight == pytest.approx(total, abs=1e-9)


def test_order_independence():
    papers = [paper("p1", "abc", year=2000), paper("p2", "bcd"), paper("p3", "ab")]
    a = build_coauthorship(papers, CountingScheme.FRACTIONAL)
    b = build_coauthorship(list(reversed(papers)), CountingScheme.FRACTIONAL)
    assert a.ids == b.ids
    assert (a.edge_idx == b.edge_idx).all()
    assert (a.weights == b.weights).all()


def test_full_equals_fractional_on_two_author_corpus():
    papers = [paper(f"p{i}", pair) for i, pair in enumerate(["ab", "bc", "ab", "cd"])]
    a = build_coauthorship(papers, CountingScheme.FULL)
    b = build_coauthorship(papers, CountingScheme.FRACTIONAL)
    assert (a.weights == b.weights).all()


AUTHORS = {
    "a": {"birth_year": 1960, "gender": "F", "points": 800},
    "b": {"birth_year": 1980, "gender": "F", "points": 1000},
    "c": {"birth_year": 1975, "gender": "M"},
}


def test_edge_attribute_derivations():
    assert edge_attribute(AttrExpr("ABS_DIFF", "birth_year"), ("a", "b"), AUTHORS) == 20
    assert edge_attribute(AttrExpr("SAME", "gender"), ("a", "b"), AUTHORS) is True
    assert edge_attribute(AttrExpr("SAME", "gender"), ("a", "c"), AUTHORS) is False
    assert edge_attribute(AttrExpr("MEAN", "points"), ("a", "b"), AUTHORS) == 900
    assert edge_attribute(AttrExpr("PAIR_MIN", "birth_year"), ("b", "c"), AUTHORS) == 1975
    assert edge_attribute(AttrExpr("PAIR_MAX", "birth_year"), ("b", "c"), AUTHORS) == 1980
    assert edge_attribute(AttrExpr("MEAN", "points"), ("a", "c"), AUTHORS) is MISSING
    with pytest.raises(InputError):
        edge_attribute(AttrExpr("MEAN", "shoe_size"), ("a", "b"), AUTHORS)
    with pytest.raises(InputError):
        edge_attribute(AttrExpr("MEAN", "points"), ("a", "zz"), AUTHORS)


def test_parse_expr_forms():
    assert parse_expr("ABS_DIFF(birth_year)") == AttrExpr("ABS_DIFF", "birth_year")
    assert parse_expr(" same( gender ) ") == AttrExpr("SAME", "gender")
    with pytest.raises(InputError):
        parse_expr("FROB(x)")


def test_parse_expr_refuses_the_colon_form():
    with pytest.raises(InputError, match="cannot parse"):
        parse_expr("SAME:gender")


def _toy_graph_and_skeleton():
    # diamond plus pendant; skeleton extraction removes one cycle edge
    g = build_graph(
        [("a", "b", 2.0), ("a", "d", 1.0), ("b", "c", 1.0), ("b", "d", 3.0), ("c", "d", 1.0)]
    )
    return g, extract_convex_skeleton(g)


def test_distribution_skeleton_only():
    tree = build_graph([("a", "b"), ("b", "c")])
    sk = extract_convex_skeleton(tree)
    rep = distribution_report(
        tree, sk.kept, AttrExpr("ABS_DIFF", "birth_year"), AUTHORS, Binning(width=10)
    )
    assert sum(rep.remainder_weight) == 0.0
    assert sum(rep.skeleton_weight) == tree.total_weight


def test_distribution_refuses_a_skeleton_result():
    # the whole (kept, removed) pair is no edge set: refused, not binned
    g, sk = _toy_graph_and_skeleton()
    authors = {v: {"birth_year": 1950} for v in g.ids}
    with pytest.raises(InputError):
        distribution_report(g, sk, AttrExpr("ABS_DIFF", "birth_year"), authors, Binning(width=5))


def test_distribution_conservation_bin_by_bin():
    g, sk = _toy_graph_and_skeleton()
    authors = {v: {"birth_year": 1950 + 7 * i} for i, v in enumerate(g.ids)}
    rep = distribution_report(
        g, sk.kept, AttrExpr("ABS_DIFF", "birth_year"), authors, Binning(width=5)
    )
    total = (
        sum(rep.skeleton_weight)
        + sum(rep.remainder_weight)
        + rep.missing_skeleton
        + rep.missing_remainder
    )
    assert total == pytest.approx(g.total_weight)
    # whole-graph histogram equals per-bin skeleton + remainder sums
    whole = {}
    for e in range(g.m):
        val = edge_attribute(AttrExpr("ABS_DIFF", "birth_year"), g.edge_ids(e), authors)
        key = int(math.floor(val / 5))
        whole[key] = whole.get(key, 0.0) + float(g.weights[e])
    got = {
        int(low // 5): sw + rw
        for (low, _), sw, rw in zip(rep.bins, rep.skeleton_weight, rep.remainder_weight)
    }
    for key, w in whole.items():
        assert got[key] == pytest.approx(w)


def test_distribution_hand_computed_bins():
    g = build_graph([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 4.0)])
    sk = extract_convex_skeleton(g)  # triangle: already a clique, nothing removed
    authors = {"a": {"y": 0}, "b": {"y": 10}, "c": {"y": 25}}
    rep = distribution_report(g, sk.kept, AttrExpr("ABS_DIFF", "y"), authors, Binning(width=10))
    # |0-10|=10 -> bin 1 (w 1), |10-25|=15 -> bin 1 (w 2), |0-25|=25 -> bin 2 (w 4)
    assert rep.bins == ((10.0, 20.0), (20.0, 30.0))
    assert rep.skeleton_weight == (3.0, 4.0)
    assert rep.remainder_weight == (0.0, 0.0)


def test_distribution_missing_bin():
    g, sk = _toy_graph_and_skeleton()
    authors = {v: ({"points": 5} if v in "ab" else {}) for v in g.ids}
    rep = distribution_report(g, sk.kept, AttrExpr("MEAN", "points"), authors, Binning(width=1))
    assert rep.missing_skeleton + rep.missing_remainder > 0
    total = (
        sum(rep.skeleton_weight)
        + sum(rep.remainder_weight)
        + rep.missing_skeleton
        + rep.missing_remainder
    )
    assert total == pytest.approx(g.total_weight)


def test_distribution_matches_the_subgraph_passes_bit_for_bit():
    # one pass over g's edges sums each tag in the order of its own subgraph
    rng = np.random.default_rng(13)
    for k in range(40):
        g = random_graph(rng, int(rng.integers(2, 25)), 0.3, connected=True)
        # weights whose float sums round, so the summation order shows
        g = build_graph([(*g.edge_ids(e), float(rng.uniform(0.1, 3))) for e in range(g.m)])
        objective = (Objective.GLOBAL_TRANSITIVITY, Objective.AVERAGE_LOCAL)[k % 2]
        sk = extract_convex_skeleton(g, objective=objective)
        authors = {
            v: {"y": float(rng.uniform(1950, 2000)), "g": str(rng.integers(3))}
            if rng.random() < 0.8 else {}
            for v in g.ids
        }
        for expr, binning in (
            (AttrExpr("ABS_DIFF", "y"), Binning(width=float(rng.uniform(0.5, 9)))),
            (AttrExpr("MEAN", "y"), Binning(width=3.0, origin=1.5)),
            (AttrExpr("SAME", "g"), Binning()),
        ):
            rep = distribution_report(g, sk.kept, expr, authors, binning)
            got = (rep.bins, rep.skeleton_weight, rep.remainder_weight,
                   rep.missing_skeleton, rep.missing_remainder)
            assert got == distribution_report_subgraphs(g, sk.kept, expr, authors, binning)


def test_filter_years():
    papers = [paper("p1", "ab", year=1999), paper("p2", "bc", year=2005), paper("p3", "cd")]
    assert [p.paper_id for p in filter_years(papers, 2000, None)] == ["p2"]
    assert [p.paper_id for p in filter_years(papers, None, 2000)] == ["p1"]
    assert [p.paper_id for p in filter_years(papers)] == ["p1", "p2", "p3"]
