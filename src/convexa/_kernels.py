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
    start = indptr[nodes]
    cnt = indptr[nodes + 1] - start
    # arc j of them all sits at its node's first CSR position plus j minus
    # the arcs of the nodes before its own: one repeat and one gather
    before = np.cumsum(cnt)
    before -= cnt
    start -= before
    owner = np.repeat(np.arange(nodes.size), cnt)
    pos = start[owner]
    pos += np.arange(owner.size)
    return pos, owner


# ---------------------------------------------------------------------------
# BFS and common neighbours

def bfs_all(indptr, indices):
    """All-pairs hop distances from the CSR adjacency, -1 for unreachable,
    in the narrowest of int8, int16 and int32 that holds twice the largest
    distance, so a sum of two distances never overflows.

    All sources advance together as packed bit rows: bit s of row v says
    that source s has reached v, and the rows are 64-bit words.  A layer
    ORs each node's neighbours' frontier rows (one `reduceat` over the
    CSR) and masks the visited bits; every pair not yet reached then gains
    1 in D, so a pair at distance d gains d, and the pairs still unreached
    at the end are set to -1.  D widens as soon as twice the layer count
    would pass its type's maximum.  Memory is D, one unpacked n x n byte
    mask per layer, a few bit-row arrays of n^2 / 8 bytes and the gathered
    rows of one block of word columns, max(n^2, 16m) bytes.  Nothing here
    calls BLAS.
    """
    n = indptr.size - 1
    has = np.flatnonzero(np.diff(indptr))
    starts = indptr[has]
    s = np.arange(n)
    words = -(-n // 64)
    frontier = np.zeros((n, 8 * words), np.uint8)
    frontier[s, s >> 3] = 0x80 >> (s & 7)  # np.packbits order
    frontier = frontier.view(np.uint64)
    visited = frontier.copy()
    D = np.zeros((n, n), np.int8)
    # a block of word columns gathers at most n^2 bytes of frontier rows
    # (8 bytes per arc and word), however dense the graph
    width = max(1, n * n // (8 * max(indices.size, 1)))
    layers = 0
    while has.size:
        nxt = np.zeros_like(frontier)
        for lo in range(0, words, width):
            cols = slice(lo, lo + width)
            nxt[has, cols] = np.bitwise_or.reduceat(frontier[indices, cols], starts, axis=0)
        unseen = ~visited
        nxt &= unseen
        if not nxt.any():
            break
        layers += 1
        if 2 * layers > np.iinfo(D.dtype).max:
            D = D.astype(np.int16 if D.dtype == np.int8 else np.int32)
        D += np.unpackbits(unseen.view(np.uint8), axis=1, count=n).view(np.int8)
        visited |= nxt
        frontier = nxt
    D[np.unpackbits((~visited).view(np.uint8), axis=1, count=n).view(bool)] = -1
    return D


def common_neighbors(indptr, indices, eu, ev):
    """|N(eu[i]) & N(ev[i])| for each pair, exact int64.

    Every arc (x, w) of the lower-degree endpoint x of a pair (x, y) is
    looked up as the key y*n + w among the CSR's arc keys head*n + tail,
    which are sorted because `indices` is sorted per node.  Work is
    O(sum of min degrees * log m).  The pairs go in runs whose lower
    degrees sum to at most the CSR's 2m arcs (or one pair), so memory is
    O(n + m), not that sum, which is O(n^3) on a clique.
    """
    n = indptr.size - 1
    deg = np.diff(indptr)
    eu = np.asarray(eu, np.int64)
    ev = np.asarray(ev, np.int64)
    swap = deg[eu] > deg[ev]
    x = np.where(swap, ev, eu)
    y = np.where(swap, eu, ev)
    keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + indices
    upto = np.cumsum(deg[x])  # lower-degree arcs of the pairs up to each one
    counts = np.zeros(eu.size, np.int64)
    start = 0
    while start < eu.size:
        before = upto[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(upto, before + keys.size, "right")))
        pos, owner = _arcs(indptr, x[start:stop])
        query = y[start:stop][owner] * n + indices[pos]
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        counts[start:stop] = np.bincount(owner[keys[at] == query], minlength=stop - start)
        start = stop
    return counts


# ---------------------------------------------------------------------------
# Brandes accumulation

#: element budget of one source block: k sources cost about k * (n + 2m)
#: elements (per node its distance, slot, path count and dependency; per
#: edge its term and the DAG arc recorded for it, at most one per source;
#: and the arcs of one frontier).  An element costs about 26 bytes at the
#: traced peak: 1.7 MB for 9 sources of a 600-node, 3000-edge random graph,
#: whose largest layer holds about 20k arcs at 28 bytes each
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
        # layer d - 1 are layer d's DAG arcs, the undiscovered ends layer d + 1.
        # Each arc array is built in place and dropped after its last read
        d = len(layers) - 1
        row = layer // n
        pos, owner = _arcs(indptr, layer - row * n)
        child = (row * n)[owner]
        child += indices[pos]
        seen = dist[child]
        if d:
            up = np.flatnonzero(seen == d - 1)
            edge_key = edge_id[pos[up]]
            del pos
            parent = owner[up]
            edge_key += (row * m).astype(np.int32)[parent]
            arcs.append((slot[child[up]], parent.astype(np.int32), edge_key))
        else:
            del pos
        new = np.flatnonzero(seen < 0)
        del seen
        fresh = child[new]
        del child
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
        del owner, new
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

#: element budget of one chunk of the closure's first-step test: each arc
#: tested reads two distance rows and a member row, n elements each
HULL_CHUNK_ELEMENTS = 2**16


def hull_close(D, indptr, indices, members, rows, nodes):
    """Close each row of the (k, n) bool block `members` (modified in place)
    under geodesic betweenness after marking node nodes[i] in row rows[i];
    return a bool per row, True iff the row gained a node that was not
    marked.

    Each row's members before the call must form a convex set (an empty
    row does); `D` is the all-pairs distance matrix of a connected graph
    and (indptr, indices) its CSR.  A neighbour y of u with D[y, v] <
    D[u, v] is the first step of a u-v geodesic, and a set is convex iff,
    for every pair of members, it holds the first steps from one of them
    toward the other: the rest of such a geodesic joins two members one
    step closer, so induct on the distance (the geodesic-interval argument,
    Pelayo, Geodesic Convexity in Graphs, 2013).  So each round takes every
    arc (u, y) from a node u added in the previous round (the marked nodes
    first) to a y outside u's row, and y joins the row iff D[y, v] < D[u, v]
    for some member v; the rounds stop when one adds nothing.  A pair's
    first steps from its later-added endpoint are tested in the round after
    that endpoint joined, when the other is a member, so the fixed point is
    the hull.  The n-wide tests run at most HULL_CHUNK_ELEMENTS // n arcs at
    a time, and the (row, node) pairs a round adds are deduplicated by
    sorting their keys row * n + node.
    """
    n = D.shape[0]
    rows = np.asarray(rows, np.intp)
    nodes = np.asarray(nodes, np.intp)
    members[rows, nodes] = True
    grown = np.zeros(members.shape[0], dtype=bool)
    step = max(1, HULL_CHUNK_ELEMENTS // n)
    while rows.size:
        pos, owner = _arcs(indptr, nodes)
        y = indices[pos]
        r = rows[owner]
        out = ~members[r, y]
        u, r, y = nodes[owner[out]], r[out], y[out]
        hit = np.zeros(y.size, dtype=bool)
        for s in range(0, y.size, step):
            c = slice(s, s + step)
            hit[c] = ((D[y[c]] < D[u[c]]) & members[r[c]]).any(axis=1)
        keys = r[hit] * n + y[hit]
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        rows, nodes = np.divmod(keys[first], n)
        members[rows, nodes] = True
        grown[rows] = True
    return grown
