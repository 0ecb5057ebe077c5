"""Geodesic convex hulls, convexity tests and the random-expansion measure.

The convexity score penalizes explosive growth of convex hulls while a
random node set is grown one cut-edge at a time and re-closed after each
step.  Fully convex graphs (trees of cliques) score exactly 1; random
graphs score near 0.

All runs of a score advance in lockstep, as rows of one member block, and
each step closes every row with the one hull-closure kernel,
`_kernels.hull_close`, which also serves `convex_hull`.  Its first round
tests in O(deg) distance rows whether the pushed node alone keeps its set
convex, which it does for most steps.
"""

from itertools import islice
from typing import NamedTuple

import numpy as np

from . import _kernels
from ._rng import Stream
from .errors import ConvexaError, DisconnectedError, InputError
from .graph import Graph


class ConvexityScore(NamedTuple):
    x: float
    profile: np.ndarray  # length n; s_t = average fraction of captured nodes after step t


def _require_connected(g):
    if not g.connected:
        raise DisconnectedError("operation requires a connected graph")


def _member_mask(g, node_set):
    members = np.zeros(g.n, dtype=bool)
    for v in node_set:
        if v not in g.index:
            raise InputError(f"node {v!r} not in graph")
        members[g.index[v]] = True
    return members


def convex_hull(g: Graph, node_set) -> frozenset:
    """Smallest convex superset: close under 'lies on some geodesic'."""
    _require_connected(g)
    node_set = set(node_set)
    if not node_set:
        raise InputError("convex hull of an empty node set is undefined")
    seeds = np.flatnonzero(_member_mask(g, node_set))
    members = np.zeros((1, g.n), dtype=bool)
    indptr, indices, _ = g.csr
    _kernels.hull_close(g.dist_matrix, indptr, indices, members, np.zeros_like(seeds), seeds)
    return frozenset(g.ids[i] for i in np.flatnonzero(members[0]))


def is_convex(g: Graph, node_set) -> bool:
    node_set = set(node_set)
    return convex_hull(g, node_set) == node_set


#: element budget of one block of runs: k runs advancing together hold about
#: k * (n + m) elements (member rows, cut masks, and a closure round's arcs,
#: at most 2m per row)
RUN_BLOCK_ELEMENTS = 2**20


def _expansion_block(g, rngs):
    """Sum over the runs of |S| after each step t = 0 .. n-1, run r drawing
    from rngs[r].  The runs advance in lockstep as rows of a (k, n) member
    block and a (k, m) cut-edge mask; a run whose set is full leaves the
    block and counts n from then on."""
    n = g.n
    D = g.dist_matrix
    indptr, indices, edge_id = g.csr
    eu, ev = g.edge_idx[:, 0], g.edge_idx[:, 1]
    k = len(rngs)
    totals = np.zeros(n, dtype=np.int64)
    totals[0] = k  # the hull of {start} is {start}
    start = np.array([rng.integers(n) for rng in rngs], dtype=np.intp)
    rows = np.arange(k)
    members = np.zeros((k, n), dtype=bool)
    members[rows, start] = True
    cut = np.zeros((k, g.m), dtype=bool)
    pos, owner = _kernels._arcs(indptr, start)
    cut[owner, edge_id[pos]] = True
    size = np.ones(k, dtype=np.int64)
    left = 0  # runs that left the block full
    for t in range(1, n):
        # each run takes its j-th cut edge in ascending edge order, j drawn
        # by its own generator; positions in the flat mask give row and edge
        flat = np.flatnonzero(cut)
        bounds = np.searchsorted(flat, np.arange(rows.size + 1) * g.m)
        counts = np.diff(bounds).tolist()
        j = [rng.integers(c) for rng, c in zip(rngs, counts)]
        e = flat[bounds[:-1] + j] - rows * g.m
        u = np.where(members[rows, eu[e]], ev[e], eu[e])
        grown = _kernels.hull_close(D, indptr, indices, members, rows, u)
        # a step that adds u alone flips the cut state of u's edges
        alone = np.flatnonzero(~grown)
        pos, owner = _kernels._arcs(indptr, u[alone])
        cut[alone[owner], edge_id[pos]] ^= True
        size[alone] += 1
        if grown.any():
            sub = members[grown]
            cut[grown] = sub[:, eu] ^ sub[:, ev]
            size[grown] = sub.sum(axis=1)
        totals[t] = size.sum() + left * n
        full = size == n
        if full.any():
            left += int(full.sum())
            if left == k:
                totals[t + 1:] = k * n
                break
            members, cut, size = members[~full], cut[~full], size[~full]
            rngs = [rng for rng, f in zip(rngs, full.tolist()) if not f]
            rows = np.arange(len(rngs))
    return totals


def _expansion_totals(g, rngs):
    """Sum over the runs of |S| after each step t = 0 .. n-1, one run per
    generator of the iterable `rngs`.  A run starts from a uniform node,
    then repeatedly pushes the outer end of a uniform cut edge and re-closes
    the set.  It draws `integers(n)` once, then `integers(number of cut
    edges)` per step until the set is full."""
    # blocks of at most RUN_BLOCK_ELEMENTS // (n + m) runs (at least one),
    # each taking its generators only when it starts
    k = max(1, RUN_BLOCK_ELEMENTS // (g.n + g.m))
    totals = np.zeros(g.n, dtype=np.int64)
    rngs = iter(rngs)
    while block := list(islice(rngs, k)):
        totals += _expansion_block(g, block)
    return totals


def convexity(g: Graph, runs: int = 100, *, seed: int) -> ConvexityScore:
    """Monte-Carlo convexity score, deterministic given (graph, runs, seed).

    The per-step increments are accumulated as integers so that fully
    convex graphs score exactly 1.0.  Trees of cliques skip the Monte Carlo:
    every run grows by one node per step, so the profile is s_t = (t+1)/n.
    """
    _require_connected(g)
    if g.n < 2:
        raise ConvexaError("convexity requires at least 2 nodes")
    if runs < 1:
        raise ConvexaError("runs must be positive")
    n = g.n
    if g.is_tree_of_cliques:
        # geodesics in a block graph are unique and pass through the cut
        # vertices, so every connected set is convex: each step adds one node
        totals = runs * np.arange(1, n + 1, dtype=np.int64)
    else:
        # sum over runs of |S| after step t; run r draws from Stream([seed, r]),
        # convexa's PCG64 stream, which gives default_rng([seed, r])'s draws
        totals = _expansion_totals(g, (Stream([seed, r]) for r in range(runs)))
    excess = 0  # integer numerator of sum of max(s(t)-s(t-1)-1/n, 0)
    for t in range(1, n):
        d = int(totals[t] - totals[t - 1]) - runs
        if d > 0:
            excess += d
    x = 1.0 - excess / (runs * n)
    return ConvexityScore(x=x, profile=totals / (runs * n))


def is_tree_of_cliques(g: Graph) -> bool:
    """True iff every biconnected block is a complete subgraph
    (`Graph.is_tree_of_cliques`); DisconnectedError on a disconnected
    graph."""
    _require_connected(g)
    return g.is_tree_of_cliques
