"""Immutable undirected graph with BFS, component and block primitives.

Node identifiers are opaque strings mapped once to dense integer indices
in sorted-identifier order, so index order doubles as the lexicographic
tie-break order used throughout the library.  Edges are canonical
(smaller-index, larger-index) pairs; duplicate records merge by summing
weights and self-loops are dropped (counted).
"""

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import InputError

@dataclass(frozen=True)
class Graph:
    ids: tuple  # node identifiers, sorted
    edge_idx: np.ndarray  # (m, 2) int32, u < v, lexsorted
    weights: np.ndarray  # (m,) float64, all > 0
    self_loops_dropped: int = 0

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self):
        return len(self.ids)

    @property
    def m(self):
        return len(self.edge_idx)

    @cached_property
    def index(self):
        return {v: i for i, v in enumerate(self.ids)}

    @cached_property
    def edge_lookup(self):
        """(u_idx, v_idx) with u < v -> edge position."""
        return {(int(u), int(v)): e for e, (u, v) in enumerate(self.edge_idx)}

    def edge_ids(self, e):
        """Edge position -> (u_id, v_id)."""
        u, v = self.edge_idx[e]
        return self.ids[u], self.ids[v]

    def edge_pos(self, u, v):
        """Node-identifier pair -> edge position (raises on unknown edge)."""
        try:
            iu, iv = self.index[u], self.index[v]
        except KeyError as exc:
            raise InputError(f"unknown node {exc.args[0]!r}") from None
        key = (iu, iv) if iu < iv else (iv, iu)
        if key not in self.edge_lookup:
            raise InputError(f"unknown edge ({u!r}, {v!r})")
        return self.edge_lookup[key]

    @cached_property
    def degrees(self):
        return np.bincount(self.edge_idx.ravel(), minlength=self.n).astype(np.int64)

    @cached_property
    def csr(self):
        """(indptr, indices, edge_id) adjacency; indices sorted per node."""
        return build_csr(self.n, self.edge_idx)

    @cached_property
    def dist_matrix(self):
        """All-pairs hop distances, -1 for unreachable: O(n^2) memory, in the
        narrowest of int8, int16 and int32 that holds twice the largest
        distance, so a sum of two distances never overflows.  Only the
        convexity Monte Carlo and `convex_hull` read it; closeness and mean
        distance read `brandes` instead."""
        indptr, indices, _ = self.csr
        D = _kernels.bfs_all(indptr, indices)
        top = 2 * int(D.max(initial=0))
        for dtype in (np.int8, np.int16):
            if top <= np.iinfo(dtype).max:
                return D.astype(dtype)
        return D

    @cached_property
    def brandes(self):
        """`_kernels.BrandesPass` of exact node and edge betweenness and each
        node's reach and distance sum, from one Brandes pass."""
        indptr, indices, edge_id = self.csr
        return _kernels.brandes(indptr, indices, edge_id, self.n, self.m)

    @cached_property
    def common_neighbors(self):
        """Per-edge common-neighbour counts, int64, read-only (copy to update)."""
        indptr, indices, _ = self.csr
        cn = _kernels.common_neighbors(indptr, indices, *self.edge_idx.T)
        cn.flags.writeable = False
        return cn

    @cached_property
    def labels(self):
        """Per-node component label, the smallest node index of its
        component; int64, read-only."""
        labels = component_labels(self)
        labels.flags.writeable = False
        return labels

    @cached_property
    def blocks(self):
        """Biconnected blocks as tuples of edge positions (see
        `biconnected_edge_blocks`), decomposed once per graph."""
        return tuple(map(tuple, biconnected_edge_blocks(self.n, self.edge_idx)))

    @cached_property
    def connected(self):
        """True iff the graph has at most one node or one component."""
        return not self.labels.any()

    @cached_property
    def total_weight(self):
        return float(self.weights.sum())

    def subgraph_with_edges(self, edge_positions):
        """Same node universe, restricted edge set, original weights."""
        pos = np.asarray(sorted(edge_positions), dtype=np.int64)
        return Graph(self.ids, self.edge_idx[pos].copy(), self.weights[pos].copy())


def build_csr(n, edge_idx):
    m = len(edge_idx)
    if m == 0:
        return (np.zeros(n + 1, np.int64), np.empty(0, np.int32), np.empty(0, np.int32))
    heads = np.concatenate([edge_idx[:, 0], edge_idx[:, 1]])
    tails = np.concatenate([edge_idx[:, 1], edge_idx[:, 0]])
    eids = np.concatenate([np.arange(m), np.arange(m)])
    order = np.lexsort((tails, heads))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=indptr[1:])
    return indptr, tails[order].astype(np.int32), eids[order].astype(np.int32)


def build_graph(edge_records, isolated_nodes=()):
    """Build a graph from (u, v) or (u, v, weight) records.

    Self-loops are dropped and counted in `Graph.self_loops_dropped`,
    duplicate pairs merge by summing weights, and nonpositive weights are
    rejected.
    """
    nodes = set(str(x) for x in isolated_nodes)
    merged = {}
    loops = 0
    for rec in edge_records:
        if len(rec) == 3:
            u, v, w = rec
            w = float(w)
        else:
            u, v = rec
            w = 1.0
        u, v = str(u), str(v)
        if w <= 0 or not math.isfinite(w):
            raise InputError(f"nonpositive weight in edge record ({u!r}, {v!r}, {w})")
        nodes.add(u)
        nodes.add(v)
        if u == v:
            loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0.0) + w
    ids = tuple(sorted(nodes))
    index = {v: i for i, v in enumerate(ids)}
    if merged:
        pairs = np.array(
            [(index[u], index[v]) for u, v in merged], dtype=np.int32
        )
        weights = np.array(list(merged.values()), dtype=np.float64)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs, weights = pairs[order], weights[order]
    else:
        pairs = np.empty((0, 2), np.int32)
        weights = np.empty(0, np.float64)
    return Graph(ids, pairs, weights, self_loops_dropped=loops)


# ---------------------------------------------------------------------------
# traversal / decomposition

def find(parent, x):
    """Root of x in the union-find forest `parent` (a list), halving the
    path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def component_labels(g):
    """Component label per node, the smallest node index of its component:
    union-find over the edges, each union keeping the smaller root."""
    parent = list(range(g.n))
    for u, v in g.edge_idx.tolist():
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(parent, i) for i in range(g.n)], dtype=np.int64)


def biconnected_edge_blocks(n, edge_idx):
    """Blocks (biconnected components) as lists of edge positions.

    Iterative Hopcroft-Tarjan; every edge lands in exactly one block,
    bridges become singleton blocks.
    """
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edge_idx.tolist()):
        adj[u].append((v, e))
        adj[v].append((u, e))
    disc = [-1] * n
    low = [0] * n
    blocks = []
    estack = []
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent_eid, it = stack[-1]
            advanced = False
            for w, eid in it:
                if eid == parent_eid:
                    continue
                if disc[w] == -1:
                    estack.append(eid)
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(adj[w])))
                    advanced = True
                    break
                elif disc[w] < disc[v]:
                    estack.append(eid)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] >= disc[u]:
                        block = []
                        while True:
                            eid = estack.pop()
                            block.append(eid)
                            if eid == parent_eid:
                                break
                        blocks.append(block)
                    if low[v] < low[u]:
                        low[stack[-1][0]] = low[v]
    return blocks


def is_clique(edge_idx, block):
    """True iff the edges at positions `block` of `edge_idx` are every pair
    of the nodes they touch."""
    k = len(set(edge_idx[np.asarray(block)].ravel().tolist()))
    return len(block) == k * (k - 1) // 2


# ---------------------------------------------------------------------------
# edge-list TSV I/O

def open_text(path, newline=None):
    """The UTF-8 text of `path` as a file object, with `newline` as for
    open(); a byte that is not UTF-8 raises InputError naming the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _tsv_fields(path):
    """(line number, tab-separated fields) for each line of `path` that is
    neither blank nor a `#` comment."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield lineno, line.split("\t")


def read_edge_tsv(path):
    records = []
    for lineno, parts in _tsv_fields(path):
        if len(parts) == 2:
            records.append((parts[0], parts[1]))
        elif len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise InputError(f"{path}:{lineno}: bad weight {parts[2]!r}")
            records.append((parts[0], parts[1], w))
        else:
            raise InputError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
    return build_graph(records)


def format_weight(w):
    return repr(w) if w != int(w) else str(int(w))


def write_edge_tsv(g, fh, flags=None, flag_name="in_backbone"):
    """Write `u\tv\tweight` lines; with `flags` adds a 0/1 membership column.

    Raises InputError, before writing anything, for an endpoint id that
    holds a tab or a line break, or that starts with `#` (a comment line to
    `read_edge_tsv`): the file could not be read back.
    """
    for i in np.flatnonzero(g.degrees):  # the endpoints of the edges
        if any(c in g.ids[i] for c in "\t\n\r"):
            raise InputError(f"node id {g.ids[i]!r} holds a tab or a line break")
        if g.ids[i].lstrip().startswith("#"):
            raise InputError(f"node id {g.ids[i]!r} starts with '#', which marks a comment")
    if flags is not None:
        fh.write(f"# u\tv\tweight\t{flag_name}\n")
    for e in range(g.m):
        u, v = g.edge_ids(e)
        w = format_weight(float(g.weights[e]))
        if flags is None:
            fh.write(f"{u}\t{v}\t{w}\n")
        else:
            fh.write(f"{u}\t{v}\t{w}\t{1 if e in flags else 0}\n")


def read_edge_flags(g, path):
    """The edge positions of g flagged 1 in a `u\tv\tweight\tflag` file, as
    `write_edge_tsv(g, fh, flags=...)` writes it.  The file must list every
    edge of g exactly once, in either orientation, flagged 0 or 1;
    InputError otherwise."""
    seen = set()
    kept = set()
    for lineno, parts in _tsv_fields(path):
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 4 tab-separated fields")
        u, v, _, flag = parts
        if flag not in ("0", "1"):
            raise InputError(f"{path}:{lineno}: flag {flag!r} is neither 0 nor 1")
        try:
            e = g.edge_pos(u, v)
        except InputError as exc:
            raise InputError(f"{path}:{lineno}: {exc}") from None
        if e in seen:
            raise InputError(f"{path}:{lineno}: edge ({u!r}, {v!r}) is listed twice")
        seen.add(e)
        if flag == "1":
            kept.add(e)
    if len(seen) != g.m:
        raise InputError(f"{path}: lists {len(seen)} of the graph's {g.m} edges")
    return frozenset(kept)
