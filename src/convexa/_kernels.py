"""Hot numeric kernels: BFS, geodesic hull closure, Brandes accumulation.

`hull_close` and `brandes` are single numpy kernels on both backends.  The
remaining loop kernels (`_*_loop`: single-source BFS, common neighbours)
run as plain Python on the numpy backend and are @njit-compiled when
numba is available and not disabled; set CONVEXA_NUMBA=0 to force the
numpy backend.  All-pairs BFS has a BLAS numpy path instead of the plain
loop.  Both backends produce identical results (all logic is
integer/boolean; float accumulation order is fixed).
"""

import os

import numpy as np

_env = os.environ.get("CONVEXA_NUMBA", "1").strip().lower()
_want_numba = _env not in ("0", "false", "no", "off")

if _want_numba:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        _want_numba = False

BACKEND = "numba" if _want_numba else "numpy"


# ---------------------------------------------------------------------------
# loop implementations (numba-compilable, also runnable as plain python)

def _bfs_one_loop(indptr, indices, n, source):
    dist = np.full(n, -1, np.int32)
    queue = np.empty(n, np.int32)
    dist[source] = 0
    queue[0] = source
    head, tail = 0, 1
    while head < tail:
        v = queue[head]
        head += 1
        dv = dist[v]
        for k in range(indptr[v], indptr[v + 1]):
            w = indices[k]
            if dist[w] < 0:
                dist[w] = dv + 1
                queue[tail] = w
                tail += 1
    return dist


def _bfs_all_loop(indptr, indices, n):
    D = np.full((n, n), -1, np.int32)
    queue = np.empty(n, np.int32)
    for s in range(n):
        dist = D[s]
        dist[s] = 0
        queue[0] = s
        head, tail = 0, 1
        while head < tail:
            v = queue[head]
            head += 1
            dv = dist[v]
            for k in range(indptr[v], indptr[v + 1]):
                w = indices[k]
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue[tail] = w
                    tail += 1
    return D


def _common_neighbors_loop(indptr, indices, eu, ev):
    # indices must be sorted within each node's slice
    m = eu.shape[0]
    out = np.zeros(m, np.int64)
    for e in range(m):
        i = indptr[eu[e]]
        iend = indptr[eu[e] + 1]
        j = indptr[ev[e]]
        jend = indptr[ev[e] + 1]
        c = 0
        while i < iend and j < jend:
            a = indices[i]
            b = indices[j]
            if a == b:
                c += 1
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        out[e] = c
    return out


# ---------------------------------------------------------------------------
# numpy-vectorized fallbacks for the kernels where plain loops would crawl

def _bfs_all_numpy(indptr, indices, n):
    # float32 products run on BLAS (bool matmul does not) and stay exact:
    # sums of at most n < 2**24 ones
    A = np.zeros((n, n), np.float32)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    A[rows, indices] = 1
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


# ---------------------------------------------------------------------------
# Brandes accumulation: one numpy kernel on both backends

#: element budget of one source block: k sources cost about k * (n + 2m)
#: elements (distances, path counts, dependencies, edge terms, frontier arcs)
BRANDES_BLOCK_ELEMENTS = 2**16


def _arcs(indptr, nodes):
    """CSR positions of every arc leaving `nodes`, in order, and the index
    into `nodes` that each arc leaves."""
    cnt = indptr[nodes + 1] - indptr[nodes]
    owner = np.repeat(np.arange(nodes.size), cnt)
    offset = np.repeat(indptr[nodes] - (np.cumsum(cnt) - cnt), cnt)
    return np.arange(owner.size) + offset, owner


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
# geodesic hull closure: one numpy/BLAS kernel on both backends

def _on_geodesics_direct(D, new, mem):
    # w lies on a geodesic between some (u in new, v in mem); a
    # (|new|, |mem|, n) tensor
    lhs = D[new][:, None, :] + D[mem][None, :, :]
    rhs = D[np.ix_(new, mem)][:, :, None]
    return (lhs == rhs).any(axis=(0, 1))


def _on_geodesics_sweep(D, A, new, members):
    # w lies on a u-v geodesic for some member v iff w is an ancestor of a
    # member in u's BFS DAG: sweep every u's layers from the deepest member
    # up, marking the parents of marked nodes.  Layer 0 is u itself, a
    # member, so the sweep stops at layer 1.  The 0/1 float32 products are
    # exact (sums of at most n < 2**24 ones).
    Dn = D[new]
    on = np.repeat(members[None, :], len(new), axis=0)
    for d in range(int(Dn[:, members].max()), 1, -1):
        parents = (on & (Dn == d)).astype(np.float32) @ A > 0
        on |= parents & (Dn == d - 1)
    return on.any(axis=0)


def hull_close(D, A, members, new_nodes):
    """Close `members` (bool, modified in place) under geodesic betweenness.

    `members` must already be closed before `new_nodes` were added; `D` is
    the all-pairs distance matrix of a connected graph and `A` its dense
    0/1 float32 adjacency.  Each round tests the pushed batch against the
    members directly when the |new| x |members| x n tensor has at most n^2
    elements, and otherwise sweeps the batch's BFS DAGs, so memory stays
    O(n^2).
    """
    n = D.shape[0]
    new = np.asarray(new_nodes, dtype=np.intp)
    members[new] = True
    while new.size and not members.all():
        mem = np.flatnonzero(members)
        if new.size * mem.size <= n:
            on = _on_geodesics_direct(D, new, mem)
        else:
            on = _on_geodesics_sweep(D, A, new, members)
        new = np.flatnonzero(on & ~members)
        members[new] = True
    return members


if _want_numba:
    bfs_one = njit(cache=True)(_bfs_one_loop)
    bfs_all = njit(cache=True)(_bfs_all_loop)
    common_neighbors = njit(cache=True)(_common_neighbors_loop)
else:
    bfs_one = _bfs_one_loop
    bfs_all = _bfs_all_numpy
    common_neighbors = _common_neighbors_loop
