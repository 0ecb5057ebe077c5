"""Rival backbones: maximum spanning tree, top-m betweenness / embeddedness.

A backbone is the frozenset of its edge positions in the source graph, over
the source graph's node universe (`g.subgraph_with_edges(edges)` is its
graph); the top-m variants may be disconnected (their %LCC is part of the
reported stats).
"""

import numpy as np

from ._rng import Stream
from .errors import ConvexaError, DisconnectedError, InputError
from .graph import Graph
from .kinds import BackboneKind, TieBreak


def _find(parent, x):
    """Root of x in the union-find forest `parent` (a list), halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def maximum_spanning_tree(
    g: Graph, tie_break: TieBreak = TieBreak.LEX_SMALLEST, seed: int = 0
) -> frozenset:
    """Kruskal over edges sorted by descending weight, cycle-skipping."""
    if not g.connected:
        raise DisconnectedError("spanning tree requires a connected graph")
    if tie_break is TieBreak.RANDOM:
        # random order within equal-weight groups
        perm = Stream(seed).permutation(g.m)
        order = perm[np.argsort(-g.weights[perm], kind="stable")]
    else:
        order = np.lexsort((g.edge_idx[:, 1], g.edge_idx[:, 0], -g.weights))
    parent = list(range(g.n))
    ends = g.edge_idx.tolist()
    chosen = []
    for e in order.tolist():
        u, v = ends[e]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            chosen.append(e)
            if len(chosen) == g.n - 1:
                break
    return frozenset(chosen)


def edge_betweenness(g: Graph) -> np.ndarray:
    """Exact geodesic betweenness per edge position, unordered pairs, per
    component; a copy of the cached Brandes pass's array."""
    return g.brandes.edge.copy()


def embeddedness_scores(g: Graph) -> np.ndarray:
    """Neighborhood-overlap tie strength |N(u) ∩ N(v)| / |N(u) ∪ N(v) − {u,v}|
    per edge position."""
    cn = g.common_neighbors
    deg = g.degrees
    # |N(u) ∪ N(v) − {u,v}| = deg(u) + deg(v) − 2 − cn
    denom = deg[g.edge_idx[:, 0]] + deg[g.edge_idx[:, 1]] - 2 - cn
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, cn / denom, 0.0)


def top_m_edge_backbone(
    g: Graph,
    scores: np.ndarray,
    m: int,
    tie_break: TieBreak = TieBreak.LEX_SMALLEST,
    seed: int = 0,
) -> frozenset:
    """The m highest-scoring edges, `scores` holding one value per edge
    position; ties broken lexicographically or at random."""
    if m < 1 or m > g.m:
        raise ConvexaError(f"m = {m} out of range 1 .. {g.m}")
    try:
        vals = np.asarray(scores, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        vals = None
    if vals is None or vals.shape != (g.m,):
        raise InputError(f"scores must hold one value per edge, {g.m} in all")
    if tie_break is TieBreak.RANDOM:
        jitter = Stream(seed).permutation(g.m)
        order = np.lexsort((jitter, -vals))
    else:
        order = np.lexsort((g.edge_idx[:, 1], g.edge_idx[:, 0], -vals))
    return frozenset(order[:m].tolist())
