"""Hot numeric kernels: BFS, common neighbours, geodesic hull closure and
Brandes accumulation.

numpy is the only backend: each primitive is one vectorised kernel, and
the straightforward loops they replaced live in the tests as references
that the kernels must match exactly (all logic is integer/boolean, and
float sums keep the loops' order).
"""

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"


def _arcs(indptr, nodes):
    """CSR positions of every arc leaving `nodes`, in order, and the index
    into `nodes` that each arc leaves."""
    cnt = indptr[nodes + 1] - indptr[nodes]
    owner = np.repeat(np.arange(nodes.size), cnt)
    offset = np.repeat(indptr[nodes] - (np.cumsum(cnt) - cnt), cnt)
    return np.arange(owner.size) + offset, owner


# ---------------------------------------------------------------------------
# BFS and common neighbours

def bfs_all(A):
    """All-pairs hop distances, int32, -1 for unreachable, from the dense 0/1
    float32 adjacency `A`.  All sources advance together, one layer per
    matrix product; float32 products run on BLAS (bool matmul does not) and
    stay exact: sums of at most n < 2**24 ones."""
    n = A.shape[0]
    D = np.full((n, n), -1, np.int32)
    frontier = np.eye(n, dtype=bool)
    visited = frontier.copy()
    d = 0
    while frontier.any():
        D[frontier] = d
        nxt = (frontier.astype(np.float32) @ A > 0) & ~visited
        visited |= nxt
        frontier = nxt
        d += 1
    return D


def common_neighbors(indptr, indices, eu, ev):
    """|N(eu[i]) & N(ev[i])| for each pair, exact int64.

    Every arc (x, w) of the lower-degree endpoint x of a pair (x, y) is
    looked up as the key y*n + w among the CSR's arc keys head*n + tail,
    which are sorted because `indices` is sorted per node.  Work is
    O(sum of min degrees * log m).
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    eu = np.asarray(eu, np.int64)
    ev = np.asarray(ev, np.int64)
    swap = deg[eu] > deg[ev]
    x = np.where(swap, ev, eu)
    y = np.where(swap, eu, ev)
    pos, owner = _arcs(indptr, x)
    keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + indices
    query = y[owner] * n + indices[pos]
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    counts = np.bincount(owner[keys[at] == query], minlength=eu.size)
    return counts.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Brandes accumulation

#: element budget of one source block: k sources cost about k * (n + 2m)
#: elements (per node its distance, slot, path count and dependency; per
#: edge its term and the DAG arc recorded for it, at most one per source;
#: and the arcs of one frontier)
BRANDES_BLOCK_ELEMENTS = 2**16


def _brandes_block(indptr, indices, edge_id, n, m, sources):
    # state of k BFS runs flattened to keys r*n + v (source row r, node v);
    # each layer holds its keys by source, then in that source's queue order,
    # and slot[key] is the key's index in its layer
    k = sources.size
    # slots, keys and arc indices fit int32: below k * (n + 2m) <= 2**16 when
    # k > 1, and one source's are the int32 CSR's own node and edge indices
    dist = np.full(k * n, -1, np.int32)
    slot = np.full(k * n, np.iinfo(np.int32).max, np.int32)
    layer = np.arange(k) * n + sources
    dist[layer] = 0
    slot[layer] = np.arange(k)
    layers, sigmas, arcs = [layer], [np.ones(k)], []
    while True:
        # expanding layer d reads each arc's far end once: the arcs back to
        # layer d - 1 are layer d's DAG arcs, the undiscovered ends layer d + 1
        d = len(layers) - 1
        row = layer // n
        pos, owner = _arcs(indptr, layer - row * n)
        child = (row * n)[owner] + indices[pos]
        seen = dist[child]
        if d:
            up = np.flatnonzero(seen == d - 1)
            edge_key = (row * m)[owner[up]] + edge_id[pos[up]]
            arcs.append((slot[child[up]], owner[up].astype(np.int32), edge_key.astype(np.int32)))
        new = np.flatnonzero(seen < 0)
        fresh = child[new]
        if not fresh.size:
            break
        # queue order is the order of first discovery: each key keeps its
        # smallest arc index, whatever order minimum.at applies the writes in
        at = np.arange(fresh.size, dtype=np.int32)
        np.minimum.at(slot, fresh, at)
        layer = fresh[slot[fresh] == at]
        slot[layer] = np.arange(layer.size)
        dist[layer] = d + 1
        # path counts are sums of parents in queue order, as in the loop
        sigmas.append(np.bincount(slot[fresh], weights=sigmas[d][owner[new]], minlength=layer.size))
        layers.append(layer)
    delta = np.zeros(k * n)
    edge = np.zeros(k * m)
    dep = np.zeros(layers[-1].size)
    for d in range(len(layers) - 1, 0, -1):
        # reversed arcs take children in descending queue order, so each
        # parent's dependency sums its terms in the loop's order
        parent, child, edge_key = (a[::-1] for a in arcs[d - 1])
        term = sigmas[d - 1][parent] * ((1.0 + dep) / sigmas[d])[child]
        edge[edge_key] = term
        delta[layers[d]] = dep
        dep = np.bincount(parent, weights=term, minlength=layers[d - 1].size)
    # the sources' own dependencies (the last `dep`) are not betweenness;
    # each of a row's n - reach unreached entries is a -1 in its dist sum
    dist = dist.reshape(k, n)
    reach = (dist >= 0).sum(axis=1)
    dist_sum = dist.sum(axis=1, dtype=np.int64) + (n - reach)
    return delta.reshape(k, n), edge.reshape(k, m), reach, dist_sum


class BrandesPass(NamedTuple):
    node: np.ndarray  # betweenness per node
    edge: np.ndarray  # betweenness per edge
    reach: np.ndarray  # per source: nodes reached, itself included, int64
    dist_sum: np.ndarray  # per source: sum of its hop distances to them, int64


def brandes(indptr, indices, edge_id, n, m):
    """Exact Brandes betweenness of every node and every edge in one pass,
    with each source's reach and exact distance sum read off its BFS.

    Unordered pairs, per component, unnormalised.  Sources run in blocks of
    k with k * (n + 2m) <= BRANDES_BLOCK_ELEMENTS (at least one), each block
    one BFS that records every layer's DAG arcs and one dependency sweep
    over them, layer by layer, so memory is O(n + m) plus a constant.  Every
    float sum, path counts (exact below 2**53) included, keeps the order of
    the one-source-at-a-time loop: the results are bit-identical to it.
    """
    node = np.zeros(n)
    edge = np.zeros(m)
    reach = np.zeros(n, np.int64)
    dist_sum = np.zeros(n, np.int64)
    if n == 0:
        return BrandesPass(node, edge, reach, dist_sum)
    k = max(1, BRANDES_BLOCK_ELEMENTS // (n + 2 * m))
    for start in range(0, n, k):
        sources = np.arange(start, min(start + k, n))
        delta, terms, reach[sources], dist_sum[sources] = _brandes_block(
            indptr, indices, edge_id, n, m, sources
        )
        # per-source terms are added in source order, as in the loop
        for r in range(sources.size):
            node += delta[r]
            edge += terms[r]
    return BrandesPass(node * 0.5, edge * 0.5, reach, dist_sum)


# ---------------------------------------------------------------------------
# geodesic hull closure

def hull_close(D, A, members, rows, nodes):
    """Close each row of the (k, n) bool block `members` (modified in place)
    under geodesic betweenness, after pushing node nodes[i] into row
    rows[i].

    Every row must be closed before its pushed nodes were added; `D` is the
    all-pairs distance matrix of a connected graph and `A` its dense 0/1
    float32 adjacency.  Each round sweeps the BFS DAGs of all pushed pairs
    together, ORs each pair's marks into its row, and pushes what a row
    gained; it stops when no row that is not yet full grows.  At most n // 4
    pairs share a sweep (at least one), so its (pairs, n) temporaries stay
    within about the size of `D` whatever the number of rows and pairs, and
    wide BLAS products pay for themselves on large graphs.

    w lies on a u-v geodesic for some member v iff w is an ancestor of a
    member in u's BFS DAG, so a sweep runs each pair's layers from its
    deepest member up to layer 1 (layer 0 is u itself, a member), marking
    the parents of marked nodes.  Members are marked from the start, so only
    the columns C that are not yet in every row of the sweep can gain a
    mark, and a layer deeper than max D[u, C] + 1 marks none of them: the
    sweep skips a chunk with no such column and starts at the shallower of
    the two layers.  Sets are nearly full when they are swept, so C is often
    a few percent of n; while |C| <= n / 2 each layer multiplies by A[:, C]
    alone, gathered once per sweep, and writes only the columns C.  The 0/1
    float32 products are exact (sums of at most n < 2**24 ones).
    """
    n = D.shape[0]
    rows = np.asarray(rows, np.intp)
    nodes = np.asarray(nodes, np.intp)
    members[rows, nodes] = True
    step = max(1, n // 4)
    order = np.argsort(rows, kind="stable")
    rows, nodes = rows[order], nodes[order]
    while rows.size:
        grown = rows[np.r_[True, rows[1:] != rows[:-1]]]  # rows are sorted
        before = members[grown]
        for s in range(0, rows.size, step):
            r = rows[s:s + step]
            on = members[r]
            cols = np.flatnonzero(~on.all(axis=0))
            if not cols.size:
                continue
            Dn = D[nodes[s:s + step]]
            Dc = Dn[:, cols]
            top = min(int(np.where(on, Dn, 0).max()), int(Dc.max()) + 1)
            if 2 * cols.size > n:
                cols, Dc = slice(None), Dn  # a wide sweep reads A with no gather
            Ac = A[:, cols]
            for d in range(top, 1, -1):
                parents = (on & (Dn == d)).astype(np.float32) @ Ac > 0
                on[:, cols] |= parents & (Dc == d - 1)
            # pairs are sorted by row: OR each row's pairs together
            ur, at = np.unique(r, return_index=True)
            members[ur] |= np.logical_or.reduceat(on, at, axis=0)
        after = members[grown]
        gained = after & ~before
        gained[after.all(axis=1)] = False
        i, nodes = np.nonzero(gained)  # sorted by row again
        rows = grown[i]
    return members
