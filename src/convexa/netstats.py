"""Descriptive network statistics and rank correlations between centralities."""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Optional

import numpy as np

from .centrality import Measure, compute
from .convexity import convexity
from .errors import ConvexaError, InputError
from .graph import Graph


@dataclass(frozen=True)
class StatsRecord:
    nodes: int
    edges: int
    pct_lcc: float
    mean_degree: float
    mean_distance: float  # within the largest connected component
    assortativity: Optional[float]  # None when undefined (zero degree variance)
    clustering: float
    convexity: float


MEASURES = tuple(Measure)


def clustering_global(g: Graph) -> float:
    """Transitivity: 3 * triangles / connected triples (0 when no triples)."""
    if g.m == 0:
        return 0.0
    cn = g.common_neighbors
    deg = g.degrees
    triples = int((deg * (deg - 1) // 2).sum())
    return float(cn.sum()) / triples if triples else 0.0


def clustering_avg_local(g: Graph) -> float:
    """Mean local clustering over all nodes; degree-<2 nodes contribute 0."""
    if g.m == 0:
        return 0.0
    cn = g.common_neighbors
    tri = np.zeros(g.n)
    np.add.at(tri, g.edge_idx[:, 0], cn)
    np.add.at(tri, g.edge_idx[:, 1], cn)
    tri /= 2.0
    deg = g.degrees
    pairs = deg * (deg - 1) / 2.0
    local = np.where(pairs > 0, tri / np.where(pairs > 0, pairs, 1.0), 0.0)
    return float(local.mean())


def assortativity(g: Graph) -> Optional[float]:
    """Pearson correlation of endpoint degrees over both edge orientations."""
    if g.m == 0:
        raise ConvexaError("assortativity is undefined on an edgeless graph")
    deg = g.degrees
    x = np.concatenate([deg[g.edge_idx[:, 0]], deg[g.edge_idx[:, 1]]]).astype(float)
    y = np.concatenate([deg[g.edge_idx[:, 1]], deg[g.edge_idx[:, 0]]]).astype(float)
    if np.ptp(x) == 0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


def _largest_component_mask(g: Graph):
    """Bool mask of g's largest component; of equal largest components, the
    one holding the smallest node id."""
    if g.connected:
        return np.ones(g.n, dtype=bool)
    # labels are each component's smallest node index, and ids are sorted,
    # so argmax's first maximum is the tied component with the smallest id
    vals, counts = np.unique(g.labels, return_counts=True)
    return g.labels == vals[np.argmax(counts)]


def largest_component_graph(g: Graph):
    """(subgraph induced on the LCC, LCC node fraction); a connected graph
    is its own LCC.  Of equal largest components, the one holding the
    smallest node id wins."""
    if g.connected:
        return g, 1.0
    keep = _largest_component_mask(g)
    # a monotone renumbering keeps the edges lexsorted
    new_index = (np.cumsum(keep) - 1).astype(np.int32)
    sub_e = keep[g.edge_idx[:, 0]]
    sub = Graph(
        tuple(compress(g.ids, keep.tolist())),
        new_index[g.edge_idx[sub_e]],
        g.weights[sub_e],
    )
    return sub, sub.n / g.n


def mean_distance(g: Graph) -> float:
    """Mean hop distance over the node pairs of g's largest component (0.0
    when it has fewer than 2 nodes), from the exact distance sums of g's
    cached Brandes pass: no distance matrix and no separate LCC graph."""
    keep = _largest_component_mask(g)
    k = int(keep.sum())
    if k < 2:
        return 0.0
    # a member's sum covers exactly its component, so the LCC's sums count
    # each of its pairs twice; the integer total is exact
    return int(g.brandes.dist_sum[keep].sum()) / (k * (k - 1))


def descriptive_stats(g: Graph, convexity_runs: int = 100, *, seed: int) -> StatsRecord:
    # convexity runs on the LCC; mean distance reads g's own Brandes pass,
    # which `compare` shares with the correlation grid
    lcc, frac = largest_component_graph(g)
    if lcc.n >= 2:
        conv = convexity(lcc, runs=convexity_runs, seed=seed).x
    else:
        conv = 1.0
    try:
        assort = assortativity(g)
    except ConvexaError:
        assort = None
    return StatsRecord(
        nodes=g.n,
        edges=g.m,
        pct_lcc=100.0 * frac,
        mean_degree=2.0 * g.m / g.n if g.n else 0.0,
        mean_distance=mean_distance(g),
        assortativity=assort,
        clustering=clustering_global(g),
        convexity=conv,
    )


def _paired_arrays(x: dict, y: dict):
    """x and y as float arrays in one sorted key order; refuses unequal key
    sets, fewer than 2 keys, a value that is not finite and a constant
    vector."""
    if set(x) != set(y):
        raise InputError("value mappings must have identical key sets")
    if len(x) < 2:
        raise ConvexaError("need at least 2 keys for rank correlation")
    keys = sorted(x)
    a = np.array([x[k] for k in keys], float)
    b = np.array([y[k] for k in keys], float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("rank correlation of a value that is not finite")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ConvexaError("rank correlation undefined: zero rank variance")
    return a, b


def average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of `a`, each tie group given the mean of its ranks."""
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts = np.flatnonzero(np.r_[True, sorted_a[1:] != sorted_a[:-1]])
    ends = np.r_[starts[1:], a.size]
    group = np.repeat(np.arange(starts.size), ends - starts)
    ranks = np.empty(a.size)
    ranks[order] = ((starts + 1 + ends) / 2.0)[group]
    return ranks


def _distinct(a: np.ndarray) -> int:
    """Number of distinct values in `a`, counted on a sorted copy (a bare
    `np.unique` would import numpy.ma for its masked-array check)."""
    s = np.sort(a)
    return int(np.count_nonzero(s[1:] != s[:-1])) + (s.size > 0)


def spearman_rho(x: dict, y: dict) -> float:
    """Pearson correlation of average ranks (mean ranks for ties).

    Without ties the classical 1 - 6*sum(d^2)/(n(n^2-1)) form is used with
    integer arithmetic, so perfect agreement/reversal score exactly +/-1.
    """
    a, b = _paired_arrays(x, y)
    distinct = _distinct(a) == a.size and _distinct(b) == b.size
    return _rho(average_ranks(a), average_ranks(b), distinct)


def _rho(ra, rb, distinct):
    n = ra.size
    if distinct:
        d2 = int(((ra - rb).astype(np.int64) ** 2).sum())
        return 1.0 - 6.0 * d2 / (n * (n * n - 1))
    return float(np.corrcoef(ra, rb)[0, 1])


def _tied_pairs(starts):
    """Pairs inside the runs of a sorted sequence, sum of C(t, 2) over run
    lengths t; `starts` is True where a run begins."""
    t = np.diff(np.flatnonzero(np.r_[starts, True]))
    return int((t * (t - 1) // 2).sum())


def kendall_tau(x: dict, y: dict) -> float:
    """Tau-b (tie-corrected), by exact integer counts in O(n log n) time and
    O(n) memory (Knight, JASA 1966).  Sorted by (a, b), the discordant pairs
    are the strict inversions of b, counted with a Fenwick tree over b's
    dense ranks; pairs tied in a, in b and in both come from run lengths."""
    return _tau(*_paired_arrays(x, y))


def _tau(a, b):
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    new_a = np.r_[True, a[1:] != a[:-1]]
    n1 = _tied_pairs(new_a)
    n3 = _tied_pairs(new_a | np.r_[True, b[1:] != b[:-1]])
    values, rank = np.unique(b, return_inverse=True)
    sorted_b = np.sort(b)
    n2 = _tied_pairs(np.r_[True, sorted_b[1:] != sorted_b[:-1]])
    # Fenwick tree over rank + 1: tree[i] counts the ranks in (i - (i & -i), i]
    tree = [0] * (len(values) + 1)
    discordant = 0
    for seen, r in enumerate(rank.tolist()):
        i, at_most = r + 1, 0
        while i:
            at_most += tree[i]
            i &= i - 1
        discordant += seen - at_most  # earlier elements with a larger b
        i = r + 1
        while i < len(tree):
            tree[i] += 1
            i += i & -i
    n0 = len(a) * (len(a) - 1) // 2
    return (n0 - n1 - n2 + n3 - 2 * discordant) / math.sqrt((n0 - n1) * (n0 - n2))


def centrality_values(g: Graph) -> dict:
    """Measure -> {node: value} for each of the four measures."""
    return {m: compute(g, m) for m in MEASURES}


def correlation_matrix(rows: dict, cols: dict):
    """4x4 grid of (rho, tau) in `Measure` order: row i correlates measure i
    of `rows` with each measure of `cols`, two Measure -> {node: value}
    maps as `centrality_values` returns them, for the full graph and a
    backbone over its node universe.  InputError unless the two maps cover
    one node set.  A pair whose row or column measure is constant is
    (None, None).
    """
    keys = sorted(rows[MEASURES[0]])
    universe = set(keys)
    if any(set(vecs[m]) != universe for vecs in (rows, cols) for m in MEASURES):
        raise InputError("row and column centralities must cover one node set")

    # each of the 8 vectors is aligned and ranked once for the whole grid
    def ranked(vecs, m):
        a = np.array([vecs[m][k] for k in keys], float)
        return a, average_ranks(a), _distinct(a)

    col_ranks = [ranked(cols, cm) for cm in MEASURES]
    grid = []
    for rm in MEASURES:
        a, ra, da = ranked(rows, rm)
        row = []
        for b, rb, db in col_ranks:
            if da < 2 or db < 2:
                # zero rank variance: neither correlation is defined
                row.append((None, None))
            else:
                rho = _rho(ra, rb, da == len(keys) and db == len(keys))
                row.append((rho, _tau(a, b)))
        grid.append(row)
    return grid
