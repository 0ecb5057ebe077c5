"""Hot numeric kernels: BFS, common neighbours, geodesic hull closure and
Brandes accumulation.

numpy is the only backend: each primitive is one vectorised kernel, and
the straightforward loops they replaced live in the tests as references
that the kernels must match exactly (all logic is integer/boolean, and
float sums keep the loops' order).
"""

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

def bfs_one(indptr, indices, n, source):
    """Hop distances from `source`, int32, -1 for unreachable; one frontier
    of arcs per layer, so O(n + m) work."""
    dist = np.full(n, -1, np.int32)
    dist[source] = 0
    frontier = np.array([source])
    d = 0
    while frontier.size:
        d += 1
        child = indices[_arcs(indptr, frontier)[0]]
        frontier = np.unique(child[dist[child] < 0])
        dist[frontier] = d
    return dist


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
#: elements (distances, path counts, dependencies, edge terms, frontier arcs)
BRANDES_BLOCK_ELEMENTS = 2**16


def _brandes_block(indptr, indices, edge_id, n, m, sources):
    # state of k BFS runs flattened to keys r*n + v (source row r, node v);
    # each layer holds its keys by source, then in that source's queue order
    k = sources.size
    rows = np.arange(k)
    dist = np.full(k * n, -1, np.int32)
    sigma = np.zeros(k * n)
    layer = rows * n + sources
    dist[layer] = 0
    sigma[layer] = 1.0
    layers = [layer]
    while True:
        w = layer % n
        pos, owner = _arcs(indptr, w)
        child = (layer - w)[owner] + indices[pos]
        fresh = child[dist[child] < 0]
        if not fresh.size:
            break
        # queue order is the order of first discovery
        keys, first = np.unique(fresh, return_index=True)
        d = len(layers)
        layer = keys[np.argsort(first)]
        dist[layer] = d
        # path counts are sums of parents in queue order, as in the loop
        on = dist[child] == d
        sigma += np.bincount(child[on], weights=sigma[layers[-1][owner[on]]], minlength=k * n)
        layers.append(layer)
    delta = np.zeros(k * n)
    edge = np.zeros(k * m)
    for d in range(len(layers) - 1, 0, -1):
        # children in descending queue order, so each dependency sums its
        # terms in the loop's order
        layer = layers[d][::-1]
        coeff = (1.0 + delta[layer]) / sigma[layer]
        pos, owner = _arcs(indptr, layer % n)
        row = (layer // n)[owner]
        parent = row * n + indices[pos]
        on = dist[parent] == d - 1
        parent, pos, owner, row = parent[on], pos[on], owner[on], row[on]
        term = sigma[parent] * coeff[owner]
        delta += np.bincount(parent, weights=term, minlength=k * n)
        edge[row * m + edge_id[pos]] = term
    # a source's own dependency is not betweenness
    delta[rows * n + sources] = 0.0
    return delta.reshape(k, n), edge.reshape(k, m)


def brandes(indptr, indices, edge_id, n, m):
    """Exact Brandes betweenness of every node and every edge in one pass.

    Unordered pairs, per component, unnormalised.  Sources run in blocks of
    k with k * (n + 2m) <= BRANDES_BLOCK_ELEMENTS (at least one), each block
    one BFS and one dependency sweep layer by layer, so memory is O(n + m)
    plus a constant.  Path counts are exact integers and every float sum
    keeps the order of the one-source-at-a-time loop: the results are
    bit-identical to it.
    """
    node = np.zeros(n)
    edge = np.zeros(m)
    if n == 0:
        return node, edge
    k = max(1, BRANDES_BLOCK_ELEMENTS // (n + 2 * m))
    for start in range(0, n, k):
        sources = np.arange(start, min(start + k, n))
        delta, terms = _brandes_block(indptr, indices, edge_id, n, m, sources)
        # per-source terms are added in source order, as in the loop
        for r in range(sources.size):
            node += delta[r]
            edge += terms[r]
    return node * 0.5, edge * 0.5


# ---------------------------------------------------------------------------
# geodesic hull closure

def _sweep(D, A, on, nodes):
    # w lies on a u-v geodesic for some member v iff w is an ancestor of a
    # member in u's BFS DAG: sweep every pair's layers from its deepest
    # member up, marking the parents of marked nodes.  `on` starts as each
    # pair's row of members (modified in place).  Layer 0 is u itself, a
    # member, so the sweep stops at layer 1.  The 0/1 float32 products are
    # exact (sums of at most n < 2**24 ones).
    Dn = D[nodes]
    for d in range(int(np.where(on, Dn, 0).max()), 1, -1):
        parents = (on & (Dn == d)).astype(np.float32) @ A > 0
        on |= parents & (Dn == d - 1)
    return on


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
    """
    n = D.shape[0]
    rows = np.asarray(rows, np.intp)
    nodes = np.asarray(nodes, np.intp)
    members[rows, nodes] = True
    step = max(1, n // 4)
    order = np.argsort(rows, kind="stable")
    rows, nodes = rows[order], nodes[order]
    while rows.size:
        grown = np.unique(rows)
        before = members[grown]
        for s in range(0, rows.size, step):
            r = rows[s:s + step]
            on = _sweep(D, A, members[r], nodes[s:s + step])
            # pairs are sorted by row: OR each row's pairs together
            ur, at = np.unique(r, return_index=True)
            members[ur] |= np.logical_or.reduceat(on, at, axis=0)
        after = members[grown]
        gained = after & ~before
        gained[after.all(axis=1)] = False
        i, nodes = np.nonzero(gained)  # sorted by row again
        rows = grown[i]
    return members
