"""Geodesic convex hulls, convexity tests and the random-expansion measure.

The convexity score penalizes explosive growth of convex hulls while a
random node set is grown one cut-edge at a time and re-closed after each
step.  Fully convex graphs (trees of cliques) score exactly 1; random
graphs score near 0.

All runs of a score advance in lockstep, as rows of one member block.  A
step first tests in O(deg) distance rows whether the pushed node alone
keeps its set convex, which it does for most steps; only the rows that fail
go to the one hull-closure kernel, `_kernels.hull_close`, which also serves
`convex_hull`.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._rng import Stream
from .errors import ConvexaError, DisconnectedError, InputError
from .graph import Graph, is_clique, is_connected


@dataclass(frozen=True)
class ConvexityScore:
    x: float
    profile: np.ndarray  # length n; s_t = average fraction of captured nodes after step t


def _require_connected(g):
    if not is_connected(g):
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
    _kernels.hull_close(g.dist_matrix, g.adjacency, members, np.zeros_like(seeds), seeds)
    return frozenset(g.ids[i] for i in np.flatnonzero(members[0]))


def is_convex(g: Graph, node_set) -> bool:
    node_set = set(node_set)
    return convex_hull(g, node_set) == node_set


#: element budget of one block of runs: k runs advancing together hold about
#: k * (n + m) elements (member rows, cut masks, the pushed nodes' own
#: distance rows); the push test reads the distance rows of the pushed nodes'
#: neighbours at most RUN_BLOCK_ELEMENTS // n at a time, since many rows may
#: push the same hub
RUN_BLOCK_ELEMENTS = 2**20


def _push_grows(D, indptr, indices, members, u):
    """For each row r of the (k, n) block of convex sets `members` and a
    node u[r] outside it but adjacent to it: True iff the hull of the set
    plus u[r] holds more than u[r].

    S + u is convex iff no neighbour w of u outside S is one step closer
    than u to some member v: a u-v geodesic whose first step enters S stays
    in S, because S is convex (the geodesic-interval argument, Pelayo,
    Geodesic Convexity in Graphs, 2013).  The test compares deg(u) rows of
    D with u's own row, with no closure.
    """
    pos, owner = _kernels._arcs(indptr, u)
    w = indices[pos]
    out = ~members[owner, w]
    w, owner = w[out], owner[out]
    closer = np.where(members, D[u] - 1, -2)
    grows = np.zeros(u.size, dtype=bool)
    step = max(1, RUN_BLOCK_ELEMENTS // D.shape[0])
    for s in range(0, w.size, step):
        o = owner[s:s + step]
        hit = (D[w[s:s + step]] == closer[o]).any(axis=1)
        grows[o[hit]] = True
    return grows


def _expansion_block(g, rngs):
    """Sum over the runs of |S| after each step t = 0 .. n-1, run r drawing
    from rngs[r].  The runs advance in lockstep as rows of a (k, n) member
    block and a (k, m) cut-edge mask; a run whose set is full leaves the
    block and counts n from then on."""
    n = g.n
    D, A = g.dist_matrix, g.adjacency
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
        grows = _push_grows(D, indptr, indices, members, u)
        # a step that adds u alone flips the cut state of u's edges
        alone = np.flatnonzero(~grows)
        members[alone, u[alone]] = True
        pos, owner = _kernels._arcs(indptr, u[alone])
        cut[alone[owner], edge_id[pos]] ^= True
        size[alone] += 1
        if grows.any():
            r = rows[grows]
            _kernels.hull_close(D, A, members, r, u[r])
            sub = members[r]
            cut[r] = sub[:, eu] ^ sub[:, ev]
            size[r] = sub.sum(axis=1)
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
    generator in `rngs`.  A run starts from a uniform node, then repeatedly
    pushes the outer end of a uniform cut edge and re-closes the set.  It
    draws `integers(n)` once, then `integers(number of cut edges)` per step
    until the set is full."""
    # blocks of at most RUN_BLOCK_ELEMENTS // (n + m) runs (at least one)
    k = max(1, RUN_BLOCK_ELEMENTS // (g.n + g.m))
    totals = np.zeros(g.n, dtype=np.int64)
    for s in range(0, len(rngs), k):
        totals += _expansion_block(g, rngs[s:s + k])
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
    if is_tree_of_cliques(g):
        # geodesics in a block graph are unique and pass through the cut
        # vertices, so every connected set is convex: each step adds one node
        totals = runs * np.arange(1, n + 1, dtype=np.int64)
    else:
        # sum over runs of |S| after step t; run r draws from Stream([seed, r]),
        # convexa's PCG64 stream, which gives default_rng([seed, r])'s draws
        rngs = [Stream([seed, r]) for r in range(runs)]
        totals = _expansion_totals(g, rngs)
    excess = 0  # integer numerator of sum of max(s(t)-s(t-1)-1/n, 0)
    for t in range(1, n):
        d = int(totals[t] - totals[t - 1]) - runs
        if d > 0:
            excess += d
    x = 1.0 - excess / (runs * n)
    return ConvexityScore(x=x, profile=totals / (runs * n))


def is_tree_of_cliques(g: Graph) -> bool:
    """True iff every biconnected block is a complete subgraph."""
    _require_connected(g)
    return all(is_clique(g.edge_idx, block) for block in g.blocks)
