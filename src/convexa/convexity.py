"""Geodesic convex hulls, convexity tests and the random-expansion measure.

The convexity score penalizes explosive growth of convex hulls while a
random node set is grown one cut-edge at a time and re-closed after each
step.  Fully convex graphs (trees of cliques) score exactly 1; random
graphs score near 0.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConvexaError, DisconnectedError, InputError
from .graph import Graph, biconnected_edge_blocks, is_connected


@dataclass(frozen=True)
class ExpansionProfile:
    n: int
    s: np.ndarray  # length n; s[t] = average fraction of captured nodes after step t
    runs: int


@dataclass(frozen=True)
class ConvexityScore:
    x: float
    profile: ExpansionProfile
    seed: int


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
    members = _member_mask(g, node_set)
    seeds = np.flatnonzero(members).astype(np.int32)
    members[:] = False
    _kernels.hull_close(g.dist_matrix, g.adjacency, members, seeds)
    return frozenset(g.ids[i] for i in np.flatnonzero(members))


def is_convex(g: Graph, node_set) -> bool:
    node_set = set(node_set)
    return convex_hull(g, node_set) == node_set


def expansion_run(g: Graph, rng) -> list:
    """One expansion run; returns |S| after each step t = 0 .. n-1."""
    _require_connected(g)
    n = g.n
    D = g.dist_matrix
    A = g.adjacency
    eu = g.edge_idx[:, 0]
    ev = g.edge_idx[:, 1]
    members = np.zeros(n, dtype=bool)
    start = int(rng.integers(n))
    _kernels.hull_close(D, A, members, np.array([start], np.int32))
    sizes = [int(members.sum())]
    while len(sizes) < n:
        if members.all():
            sizes.append(n)
            continue
        cut = np.flatnonzero(members[eu] ^ members[ev])
        e = cut[int(rng.integers(len(cut)))]
        new = int(ev[e]) if members[eu[e]] else int(eu[e])
        _kernels.hull_close(D, A, members, np.array([new], np.int32))
        sizes.append(int(members.sum()))
    return sizes


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
        totals = np.zeros(n, dtype=np.int64)  # sum over runs of |S| after step t
        for r in range(runs):
            rng = np.random.default_rng([seed, r])
            totals += np.array(expansion_run(g, rng), dtype=np.int64)
    excess = 0  # integer numerator of sum of max(s(t)-s(t-1)-1/n, 0)
    for t in range(1, n):
        d = int(totals[t] - totals[t - 1]) - runs
        if d > 0:
            excess += d
    x = 1.0 - excess / (runs * n)
    profile = ExpansionProfile(n=n, s=totals / (runs * n), runs=runs)
    return ConvexityScore(x=x, profile=profile, seed=seed)


def is_tree_of_cliques(g: Graph) -> bool:
    """True iff every biconnected block is a complete subgraph."""
    _require_connected(g)
    pairs = g.edge_idx.tolist()
    for block in biconnected_edge_blocks(g.n, g.edge_idx):
        k = len({x for e in block for x in pairs[e]})
        if len(block) != k * (k - 1) // 2:
            return False
    return True
