"""Rival backbones: maximum spanning tree, top-m betweenness / embeddedness.

Backbones are edge subsets over the original node universe; the top-m
variants may be disconnected (their %LCC is part of the reported stats).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import Stream
from .errors import ConvexaError, DisconnectedError, InputError
from .graph import Graph, find, is_connected
from .skeleton import TieBreak


class BackboneKind(Enum):
    MAX_SPANNING_TREE = "mst"
    HIGH_BETWEENNESS = "betweenness"
    HIGH_EMBEDDEDNESS = "embeddedness"
    CONVEX_SKELETON = "skeleton"


@dataclass(frozen=True)
class Backbone:
    kind: BackboneKind
    edges: frozenset  # edge positions in the source graph


def maximum_spanning_tree(
    g: Graph, tie_break: TieBreak = TieBreak.LEX_SMALLEST, seed: int = 0
) -> Backbone:
    """Kruskal over edges sorted by descending weight, cycle-skipping."""
    if not is_connected(g):
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
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            chosen.append(e)
            if len(chosen) == g.n - 1:
                break
    return Backbone(BackboneKind.MAX_SPANNING_TREE, frozenset(chosen))


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
    kind: BackboneKind = BackboneKind.HIGH_BETWEENNESS,
    tie_break: TieBreak = TieBreak.LEX_SMALLEST,
    seed: int = 0,
) -> Backbone:
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
    return Backbone(kind, frozenset(int(e) for e in order[:m]))


def backbone_graph(g: Graph, b: Backbone) -> Graph:
    return g.subgraph_with_edges(b.edges)
