"""Hot numeric kernels: BFS, geodesic hull closure, Brandes accumulation.

The loop kernels (`_*_loop`) run as plain Python on the numpy backend and
are @njit-compiled when numba is available and not disabled; set
CONVEXA_NUMBA=0 to force the numpy backend.  All-pairs BFS has a
vectorised numpy path instead of the plain loop.  `hull_close` is a single
numpy/BLAS kernel on both backends.  Both backends produce identical
results (all logic is integer/boolean; float accumulation order is fixed).
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


def _brandes_node_loop(indptr, indices, n):
    cb = np.zeros(n)
    sigma = np.zeros(n)
    dist = np.empty(n, np.int32)
    delta = np.zeros(n)
    order = np.empty(n, np.int32)
    for s in range(n):
        dist[:] = -1
        sigma[:] = 0.0
        delta[:] = 0.0
        dist[s] = 0
        sigma[s] = 1.0
        order[0] = s
        head, tail = 0, 1
        while head < tail:
            v = order[head]
            head += 1
            dv = dist[v]
            for k in range(indptr[v], indptr[v + 1]):
                w = indices[k]
                if dist[w] < 0:
                    dist[w] = dv + 1
                    order[tail] = w
                    tail += 1
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
        for i in range(tail - 1, 0, -1):
            w = order[i]
            coeff = (1.0 + delta[w]) / sigma[w]
            dw = dist[w]
            for k in range(indptr[w], indptr[w + 1]):
                v = indices[k]
                if dist[v] == dw - 1:
                    delta[v] += sigma[v] * coeff
            cb[w] += delta[w]
    return cb * 0.5  # unordered pairs


def _brandes_edge_loop(indptr, indices, edge_id, n, m):
    ce = np.zeros(m)
    sigma = np.zeros(n)
    dist = np.empty(n, np.int32)
    delta = np.zeros(n)
    order = np.empty(n, np.int32)
    for s in range(n):
        dist[:] = -1
        sigma[:] = 0.0
        delta[:] = 0.0
        dist[s] = 0
        sigma[s] = 1.0
        order[0] = s
        head, tail = 0, 1
        while head < tail:
            v = order[head]
            head += 1
            dv = dist[v]
            for k in range(indptr[v], indptr[v + 1]):
                w = indices[k]
                if dist[w] < 0:
                    dist[w] = dv + 1
                    order[tail] = w
                    tail += 1
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
        for i in range(tail - 1, 0, -1):
            w = order[i]
            coeff = (1.0 + delta[w]) / sigma[w]
            dw = dist[w]
            for k in range(indptr[w], indptr[w + 1]):
                v = indices[k]
                if dist[v] == dw - 1:
                    c = sigma[v] * coeff
                    ce[edge_id[k]] += c
                    delta[v] += c
    return ce * 0.5


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


def _local_weight_sums_loop(indptr, indices, inv_pairs, eu, ev):
    # For each edge (u,v): sum of inv_pairs[w] over common neighbors w,
    # where inv_pairs[w] = 1/C(deg_w, 2) (0 for deg < 2).
    m = eu.shape[0]
    out = np.zeros(m)
    for e in range(m):
        i = indptr[eu[e]]
        iend = indptr[eu[e] + 1]
        j = indptr[ev[e]]
        jend = indptr[ev[e] + 1]
        acc = 0.0
        while i < iend and j < jend:
            a = indices[i]
            b = indices[j]
            if a == b:
                acc += inv_pairs[a]
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1
        out[e] = acc
    return out


# ---------------------------------------------------------------------------
# numpy-vectorized fallbacks for the kernels where plain loops would crawl

def _bfs_all_numpy(indptr, indices, n):
    A = np.zeros((n, n), dtype=bool)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    A[rows, indices] = True
    D = np.full((n, n), -1, np.int32)
    frontier = np.eye(n, dtype=bool)
    visited = frontier.copy()
    d = 0
    while frontier.any():
        D[frontier] = d
        nxt = (frontier @ A) & ~visited
        visited |= nxt
        frontier = nxt
        d += 1
    return D


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
    brandes_node = njit(cache=True)(_brandes_node_loop)
    brandes_edge = njit(cache=True)(_brandes_edge_loop)
    common_neighbors = njit(cache=True)(_common_neighbors_loop)
    local_weight_sums = njit(cache=True)(_local_weight_sums_loop)
else:
    bfs_one = _bfs_one_loop
    bfs_all = _bfs_all_numpy
    brandes_node = _brandes_node_loop
    brandes_edge = _brandes_edge_loop
    common_neighbors = _common_neighbors_loop
    local_weight_sums = _local_weight_sums_loop
