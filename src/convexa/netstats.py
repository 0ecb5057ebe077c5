"""Descriptive network statistics and rank correlations between centralities."""

import math
from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Optional

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
    return g.labels == np.bincount(g.labels).argmax()


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
    # refused for every graph, also one whose LCC needs no Monte Carlo
    if convexity_runs < 1:
        raise ConvexaError("runs must be positive")
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


class _Ranks(NamedTuple):
    """One vector's ranks, from one stable sort."""
    average: np.ndarray  # 1-based, each tie group given the mean of its ranks
    dense: np.ndarray  # int64 from 0, equal values equal
    distinct: int  # number of distinct values
    tied: int  # pairs of equal values, sum of C(t, 2) over tie groups


def _ranked(a: np.ndarray) -> _Ranks:
    """The ranks of `a`; refuses a value that is not finite."""
    if not np.isfinite(a).all():
        raise InputError("rank correlation of a value that is not finite")
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    new = np.ones(a.size, bool)
    new[1:] = sorted_a[1:] != sorted_a[:-1]
    starts = np.flatnonzero(new)
    t = np.diff(np.r_[starts, a.size])
    average = np.empty(a.size)
    average[order] = np.repeat((2 * starts + 1 + t) / 2.0, t)
    dense = np.empty(a.size, np.int64)
    dense[order] = np.cumsum(new) - 1
    return _Ranks(average, dense, starts.size, int((t * (t - 1) // 2).sum()))


def average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of `a`, each tie group given the mean of its ranks."""
    return _ranked(a).average


def _paired_arrays(x: dict, y: dict):
    """The ranks of x and y in one sorted key order; refuses unequal key
    sets, fewer than 2 keys, a value that is not finite and a constant
    vector."""
    if set(x) != set(y):
        raise InputError("value mappings must have identical key sets")
    if len(x) < 2:
        raise ConvexaError("need at least 2 keys for rank correlation")
    keys = sorted(x)
    a = _ranked(np.array([x[k] for k in keys], float))
    b = _ranked(np.array([y[k] for k in keys], float))
    if a.distinct < 2 or b.distinct < 2:
        raise ConvexaError("rank correlation undefined: zero rank variance")
    return a, b


def spearman_rho(x: dict, y: dict) -> float:
    """Pearson correlation of average ranks (mean ranks for ties).

    Without ties the classical 1 - 6*sum(d^2)/(n(n^2-1)) form is used with
    integer arithmetic, so perfect agreement/reversal score exactly +/-1.
    """
    return _rho(*_paired_arrays(x, y))


def _rho(a: _Ranks, b: _Ranks) -> float:
    n = a.dense.size
    if a.tied == 0 and b.tied == 0:
        # without ties the dense ranks are the average ranks less one
        d2 = int(((a.dense - b.dense) ** 2).sum())
        return 1.0 - 6.0 * d2 / (n * (n * n - 1))
    return float(np.corrcoef(a.average, b.average)[0, 1])


def kendall_tau(x: dict, y: dict) -> float:
    """Tau-b (tie-corrected), by exact integer counts in O(n log^2 n) time
    and O(n log n) memory (Knight, JASA 1966).  Sorted by (a, b), the
    discordant pairs are the strict inversions of b's dense ranks; pairs
    tied in a and in b are counted when each vector is ranked, and pairs
    tied in both from the run lengths of that order."""
    return _tau(*_paired_arrays(x, y))


def _tau(a: _Ranks, b: _Ranks) -> float:
    order = np.lexsort((b.dense, a.dense))
    da, db = a.dense[order], b.dense[order]
    # run lengths of the (a, b) pairs, which the sort puts next to each other
    t = np.diff(np.flatnonzero(np.r_[True, (da[1:] != da[:-1]) | (db[1:] != db[:-1]), True]))
    n3 = int((t * (t - 1) // 2).sum())
    n0 = da.size * (da.size - 1) // 2
    n1, n2 = a.tied, b.tied
    return (n0 - n1 - n2 + n3 - 2 * _inversions(db)) / math.sqrt((n0 - n1) * (n0 - n2))


def _inversions(rank):
    """Pairs i < j with rank[i] > rank[j], counted exactly for non-negative
    integer ranks, as a bottom-up merge sort does, with every level at once.

    Row `level` splits the positions into pairs of adjacent blocks of
    2**level.  Each row is sorted by (pair, rank, half), the left half first
    on equal ranks, so every right-half element that precedes a left-half
    element of its pair is smaller: one inversion.  The positions are padded
    to a power of two with a rank above all others, which adds none."""
    n = rank.size
    top = int(rank.max()) + 1
    width = 1 << (n - 1).bit_length()
    r = np.full(width, top, np.int64)
    r[:n] = rank
    level = np.arange((n - 1).bit_length())[:, None]
    pos = np.arange(width)
    pair = pos >> (level + 1)
    keys = ((pair * (top + 1) + r) << 1) | ((pos >> level) & 1)
    keys.sort(axis=1)
    right = keys & 1
    # the right-half elements before each position, in its own pair: the
    # pairs before it hold 2**level of them each
    before = np.cumsum(right, axis=1) - right - (pair << level)
    return int(before[right == 0].sum())


def centrality_values(g: Graph) -> dict:
    """Measure -> {node: value} for each of the four measures."""
    return {m: compute(g, m) for m in MEASURES}


def correlation_matrix(rows: dict, cols: dict):
    """4x4 grid of (rho, tau) in `Measure` order: row i correlates measure i
    of `rows` with each measure of `cols`, two Measure -> {node: value}
    maps as `centrality_values` returns them, for the full graph and a
    backbone over its node universe.  InputError unless the two maps cover
    one node set, and for a value that is not finite.  A pair whose row or
    column measure is constant is (None, None).
    """
    keys = sorted(rows[MEASURES[0]])
    universe = set(keys)
    if any(set(vecs[m]) != universe for vecs in (rows, cols) for m in MEASURES):
        raise InputError("row and column centralities must cover one node set")

    # each of the 8 vectors is aligned and ranked once for the whole grid
    row_ranks, col_ranks = (
        [_ranked(np.array([vecs[m][k] for k in keys], float)) for m in MEASURES]
        for vecs in (rows, cols)
    )
    # a constant vector has zero rank variance: neither correlation is defined
    return [
        [(_rho(a, b), _tau(a, b)) if a.distinct > 1 and b.distinct > 1 else (None, None)
         for b in col_ranks]
        for a in row_ranks
    ]
