"""Greedy convex-skeleton extraction by clustering-maximizing edge removal.

One edge is removed per iteration: among all non-bridge edges, the one
whose hypothetical removal maximizes the chosen clustering objective
(ties broken lexicographically by default).  The loop stops as soon as
every biconnected block is a clique; a spanning tree is always reachable,
so termination is guaranteed.

The loop is incremental.  Removing (u, v) changes common-neighbour counts
only on the edges (u, w) and (v, w) with w in N(u) & N(v), and can split
only the block that held (u, v); so an iteration updates O(deg) counts,
tests that one block (re-decomposing it only when the test cannot show it
is still biconnected) and rebuilds both objective vectors with numpy
expressions over the node and edge arrays.  The values, and hence the
removal log, are bit-identical to evaluating every live graph from scratch.
"""

from typing import NamedTuple

import numpy as np

from ._rng import Stream
from .errors import ConvexaError, DisconnectedError
from .graph import Graph, biconnected_edge_blocks, block_cliques
from .kinds import Objective, TieBreak


class SkeletonResult(NamedTuple):
    kept: frozenset  # edge positions in the source graph
    removed: tuple  # ordered ((u_id, v_id), objective value after removal)


def _inv_pairs(deg):
    """1 / C(deg, 2) per node, 0 where deg < 2."""
    pairs = deg * (deg - 1) / 2.0
    return np.where(pairs > 0, 1.0 / np.where(pairs > 0, pairs, 1.0), 0.0)


class _LiveGraph:
    """The shrinking graph of the greedy loop, kept across iterations.

    Per node: degree and a {neighbour: edge position} dict.  Per edge:
    alive flag, common-neighbour count (0 once dead), block label, bridge
    flag and, for AVERAGE_LOCAL, the sum of 1 / C(deg_w, 2) over its common
    neighbours w.  A block's edges are the live edges with its label; the
    set of blocks that are not cliques is kept too.  Memory is O(n + m).
    """

    def __init__(self, g, objective):
        n, m = g.n, g.m
        self.n = n
        self.objective = objective
        self.edge_idx = g.edge_idx
        self.eu = g.edge_idx[:, 0].astype(np.int64)
        self.ev = g.edge_idx[:, 1].astype(np.int64)
        self.nbr = [{} for _ in range(n)]
        for e, (u, v) in enumerate(g.edge_idx.tolist()):
            self.nbr[u][v] = e
            self.nbr[v][u] = e
        self.alive = np.ones(m, dtype=bool)
        self.deg = g.degrees.copy()
        self.cn = g.common_neighbors.copy()
        self.w_loss = None
        if objective is Objective.AVERAGE_LOCAL:
            inv = _inv_pairs(self.deg).tolist()
            self.w_loss = np.array([self._weight_sum(e, inv) for e in range(m)], float)
        self.block = np.zeros(m, dtype=np.int64)
        self.bridge = np.zeros(m, dtype=bool)
        self.nonclique = set()
        self._next_label = 0
        self._label_blocks(np.arange(m), n, g.edge_idx, g.block_label)

    def _weight_sum(self, e, inv):
        # summed in ascending w, the order of a merge over sorted CSR rows
        a, b = self.nbr[self.eu[e]], self.nbr[self.ev[e]]
        acc = 0.0
        for w in sorted(a.keys() & b.keys()):
            acc += inv[w]
        return acc

    def _decompose(self, label):
        """Label the blocks of the live edges of the old block `label`."""
        edges = np.flatnonzero((self.block == label) & self.alive)
        # renumber the block's nodes 0..k-1: the Python decomposition is then
        # O(block), not O(n)
        ends = self.edge_idx[edges]
        seen = np.zeros(self.n, dtype=bool)
        seen[ends] = True
        k = int(seen.sum())
        local = (np.cumsum(seen) - 1)[ends]
        self._label_blocks(edges, k, local, biconnected_edge_blocks(k, local)[0])

    def _label_blocks(self, edges, n, ends, label):
        """Give each block of `edges` a fresh label: `label` numbers the
        blocks 0, 1, ... per edge, and `ends` holds the edges' end nodes
        among 0..n-1."""
        clique = block_cliques(n, ends, label)
        first = self._next_label
        self._next_label += clique.size
        self.block[edges] = first + label
        self.bridge[edges] = np.bincount(label)[label] == 1
        self.nonclique.update((first + np.flatnonzero(~clique)).tolist())

    def objective_after_removal(self):
        """Objective value after removing each edge; -inf on dead edges and
        bridges.  The expressions and their order are those of evaluating
        each live graph from scratch, so the values are bit-identical."""
        deg, cn, eu, ev = self.deg, self.cn, self.eu, self.ev
        if self.objective is Objective.GLOBAL_TRANSITIVITY:
            tri3 = int(cn.sum())  # 3 * number of triangles
            triples = int((deg * (deg - 1) // 2).sum())
            new_tri3 = tri3 - 3 * cn
            new_triples = triples - (deg[eu] - 1) - (deg[ev] - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(new_triples > 0, new_tri3 / new_triples, 0.0)
        else:
            # AVERAGE_LOCAL: mean over all nodes of 2*t_x / (d_x (d_x - 1))
            inv_pairs = _inv_pairs(deg)
            # triangles at each node; integer-valued, so exact in any order
            tri_node = (np.bincount(eu, cn, self.n) + np.bincount(ev, cn, self.n)) / 2.0
            local = tri_node * inv_pairs
            total = local.sum()
            # removing (u,v): u and v lose cn triangles and one degree; each
            # common neighbor w loses one triangle
            du, dv = deg[eu], deg[ev]
            tu = tri_node[eu] - cn
            tv = tri_node[ev] - cn
            denom_u = np.maximum((du - 1) * (du - 2) / 2.0, 1.0)
            denom_v = np.maximum((dv - 1) * (dv - 2) / 2.0, 1.0)
            new_u = np.where(du - 1 >= 2, tu / denom_u, 0.0)
            new_v = np.where(dv - 1 >= 2, tv / denom_v, 0.0)
            vals = (total - local[eu] - local[ev] - self.w_loss + new_u + new_v) / self.n
        return np.where(self.alive & ~self.bridge, vals, -np.inf)

    def remove(self, e):
        """Delete the non-bridge edge e and update every count it affects."""
        u, v = int(self.eu[e]), int(self.ev[e])
        nu, nv = self.nbr[u], self.nbr[v]
        del nu[v], nv[u]
        common = nu.keys() & nv.keys()
        self.alive[e] = False
        self.cn[e] = 0
        self.deg[u] -= 1
        self.deg[v] -= 1
        for w in common:
            self.cn[nu[w]] -= 1
            self.cn[nv[w]] -= 1
        if self.w_loss is not None:
            # sums change where v or u left the common neighbours, and where
            # u or v, whose degrees fell, is a common neighbour
            stale = {nu[w] for w in common} | {nv[w] for w in common}
            for x in (nu, nv):
                for a in x:
                    na = self.nbr[a]
                    stale.update(na[b] for b in na.keys() & x.keys() if a < b)
            inv = _inv_pairs(self.deg).tolist()
            for f in stale:
                self.w_loss[f] = self._weight_sum(f, inv)
        label = int(self.block[e])
        if self._still_biconnected(u, v, label):
            # same nodes, one edge fewer: not a clique
            self.nonclique.add(label)
        else:
            self.nonclique.discard(label)
            self._decompose(label)

    def _still_biconnected(self, u, v, label):
        """Sufficient test that block `label`, which just lost the edge
        (u, v), is still biconnected: a u-v path in it, and another that
        avoids the first one's inner nodes.  Two such paths leave no cut
        vertex, since a cut vertex of the block minus (u, v) would separate
        u from v (adding (u, v) back makes the block biconnected again)."""
        inner = self._path_inner(u, v, label, ())
        return inner is not None and self._path_inner(u, v, label, inner) is not None

    def _path_inner(self, u, v, label, blocked):
        """Inner nodes of a u-v path over the live edges of block `label`
        that avoids `blocked`, or None.  Each step grows the smaller of the
        searches from u and from v by one layer, until they meet."""
        parent = ({u: u}, {v: v})
        frontier = [[u], [v]]
        while all(frontier):
            side = int(len(frontier[1]) < len(frontier[0]))
            mine, other = parent[side], parent[1 - side]
            grown = []
            for x in frontier[side]:
                for y, e in self.nbr[x].items():
                    if y in mine or y in blocked or self.block[e] != label:
                        continue
                    mine[y] = x
                    if y in other:
                        inner = set()
                        for par in parent:  # walk back to both ends
                            w = y
                            while par[w] != w:
                                inner.add(w)
                                w = par[w]
                        return inner - {u, v}
                    grown.append(y)
            frontier[side] = grown
        return None


def extract_convex_skeleton(
    g: Graph,
    objective: Objective = Objective.GLOBAL_TRANSITIVITY,
    tie_break: TieBreak = TieBreak.LEX_SMALLEST,
    seed: int = 0,
) -> SkeletonResult:
    if not g.connected:
        raise DisconnectedError("skeleton extraction requires a connected graph")
    rng = Stream(seed) if tie_break is TieBreak.RANDOM else None
    live = _LiveGraph(g, objective)
    removed = []
    while live.nonclique:
        vals = live.objective_after_removal()
        best = vals.max()
        if rng is None:
            pos = int(np.argmax(vals))  # first max = lexicographically smallest edge
        else:
            cands = np.flatnonzero(vals == best)
            pos = int(cands[rng.integers(len(cands))])
        live.remove(pos)
        removed.append((g.edge_ids(pos), float(best)))
    return SkeletonResult(
        kept=frozenset(int(p) for p in np.flatnonzero(live.alive)),
        removed=tuple(removed),
    )


def remainder(g: Graph, kept) -> Graph:
    """Original nodes with exactly the edges not in the skeleton's edge
    positions `kept` (original weights)."""
    return g.subgraph_with_edges(set(range(g.m)) - g.edge_set(kept))


def retained_weight_fraction(g: Graph, kept):
    """(kept-edge fraction, kept-weight fraction) of the edge positions
    `kept`."""
    kept = sorted(g.edge_set(kept))
    if g.m == 0:
        raise ConvexaError("graph has no edges")
    return len(kept) / g.m, float(g.weights[kept].sum()) / g.total_weight
