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
        distance, as `_kernels.bfs_all` builds them.  Only the convexity
        Monte Carlo and `convex_hull` read it; closeness and mean distance
        read `brandes` instead."""
        indptr, indices, _ = self.csr
        return _kernels.bfs_all(indptr, indices)

    @cached_property
    def brandes(self):
        """`_kernels.BrandesPass` of exact node and edge betweenness and each
        node's reach and distance sum.  A tree of cliques reads them in
        closed form off its block-cut tree (`block_tree_brandes`), which
        gives the same bits as the pass; any other graph runs one Brandes
        pass, `_kernels.brandes`."""
        if self.is_tree_of_cliques:
            return block_tree_brandes(self)
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
    def structure(self):
        """`biconnected_edge_blocks` of the graph, run once: per edge its
        block label, per node its component label, per block its top; int64,
        read-only."""
        arrays = biconnected_edge_blocks(self.n, self.edge_idx)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @property
    def labels(self):
        """Per node, the smallest node index of its component."""
        return self.structure[1]

    @property
    def block_label(self):
        """Per edge, the label of its biconnected block."""
        return self.structure[0]

    @cached_property
    def is_tree_of_cliques(self):
        """True iff the graph is connected and each block is a clique (a
        block graph)."""
        return self.connected and bool(block_cliques(self.n, self.edge_idx, self.block_label).all())

    @cached_property
    def connected(self):
        """True iff the graph has at most one node or one component."""
        return not self.labels.any()

    @cached_property
    def total_weight(self):
        return float(self.weights.sum())

    def edge_set(self, positions):
        """`positions` as a frozenset of edge positions; InputError unless
        each is an integer in 0..m-1."""
        edges = frozenset(positions)
        if edges:
            try:
                pos = np.array(list(edges))
                ok = pos.ndim == 1 and pos.dtype.kind in "iu" and 0 <= pos.min() and pos.max() < self.m
            except ValueError:  # ragged: a sequence among the positions
                ok = False
            if not ok:
                raise InputError(f"edge set does not match this graph of {self.m} edges")
        return edges

    def subgraph_with_edges(self, edge_positions):
        """Same node universe, restricted edge set, original weights."""
        pos = np.array(sorted(self.edge_set(edge_positions)), dtype=np.int64)
        return Graph(self.ids, self.edge_idx[pos], self.weights[pos])


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
    duplicate pairs merge by summing weights, and a weight that is not
    positive and finite is rejected.
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
            raise InputError(f"weight {w} of edge record ({u!r}, {v!r}) is not positive and finite")
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

def biconnected_edge_blocks(n, edge_idx):
    """A graph's components and blocks (biconnected components) from one
    depth-first search, iterative Hopcroft-Tarjan; three int64 arrays:
      - per edge, the label of its block, the blocks numbered 0, 1, ... in
        the order they close; a bridge is a block of its own;
      - per node, the root of its search: roots are tried in index order,
        so each component's smallest index;
      - per block, its top: the node it closes at, the one nearest the root.
    """
    adj = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edge_idx.tolist()):
        adj[u].append((v, e))
        adj[v].append((u, e))
    disc = [-1] * n
    low = [0] * n
    root_of = list(range(n))
    label = [0] * len(edge_idx)
    top = []
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
                    root_of[w] = root
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
                        while True:
                            eid = estack.pop()
                            label[eid] = len(top)
                            if eid == parent_eid:
                                break
                        top.append(u)
                    if low[v] < low[u]:
                        low[stack[-1][0]] = low[v]
    return (np.array(label, dtype=np.int64), np.array(root_of, dtype=np.int64),
            np.array(top, dtype=np.int64))


def block_members(n, edge_idx, label):
    """(block, node) pairs, one per node of each block, sorted by block and
    then by node: two int64 arrays.  `label` holds the block of each edge
    of `edge_idx`, whose nodes are 0..n-1."""
    # sorted and deduplicated by hand: np.unique imports numpy.ma
    keys = np.sort(label[:, None] * n + edge_idx, axis=None)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.divmod(keys[first], n)


def block_cliques(n, edge_idx, label):
    """Per block, True iff it is a clique: a block of k nodes holds
    k(k - 1)/2 edges.  Arguments as for `block_members`."""
    count = int(label.max(initial=-1)) + 1
    nodes = np.bincount(block_members(n, edge_idx, label)[0], minlength=count)
    return np.bincount(label, minlength=count) == nodes * (nodes - 1) // 2


def block_tree_brandes(g):
    """`_kernels.BrandesPass` of a connected tree of cliques in closed
    form, from its block-cut tree.

    Every geodesic of a block graph is unique and crosses each block on
    its way in one edge, entering and leaving it through cut vertices, so
    every count follows from subtree sizes (Brandes, J. Math. Sociol. 25,
    2001, counts the same pairs one source at a time).  Root the tree at
    node 0; sub[x] counts x and the nodes below it, and a block hangs
    below the node it is entered through.  For a node x of block B, h_x
    counts the nodes that reach B through x: sub[x], or n minus the rest
    of B's subtree when x is the node B hangs below.  Then
      - node v lies on the ordered pairs between different pieces of g - v,
        (n - 1)^2 minus the sum of the pieces' squared sizes;
      - edge (a, b) of B lies on the 2 h_a h_b ordered pairs that enter B
        through a and leave through b or the reverse;
      - stepping from v to its neighbour w in B brings h_w nodes one hop
        closer and takes h_v one hop further, so the distance sums follow
        from node 0's by S(w) = S(v) - h_w + h_v;
      - every node reaches all n.
    Betweenness holds half of each count, as the pass does; the counts are
    integers far below 2**53, so the floats are equal bit for bit.  The
    block-cut tree is read off the search that labelled the blocks; the
    loops over it are O(n) in Python.
    """
    n, label, top = g.n, g.block_label, g.structure[2]
    blk, node = block_members(n, g.edge_idx, label)
    # the search that labelled the blocks started at node 0, so each block
    # hangs below its top, and every other node below the one block that
    # holds it and does not close at it; a block closes before the block
    # its top hangs below, so descending labels list each node after the
    # node it hangs below
    hang = np.flatnonzero(top[blk] != node)[::-1]
    via = np.full(n, -1, np.int64)
    via[node[hang]] = blk[hang]
    below = node[hang].tolist()
    up = np.append(top, 0)[via].tolist()  # node 0, with via -1, reads the 0
    depth = [0] * n
    for x in below:
        depth[x] = depth[up[x]] + 1
    sub = [1] * n
    for x in reversed(below):
        sub[up[x]] += sub[x]
    sub = np.array(sub, np.int64)
    # h of the node a block hangs below: all but the block's subtree
    h_top = n - np.bincount(via[below], weights=sub[below], minlength=len(top)).astype(np.int64)
    # the pieces of g - v: the subtrees of the blocks below v and, unless v
    # is node 0, the rest of the graph
    pieces = np.bincount(top, weights=(n - h_top) ** 2, minlength=n) + (n - sub) ** 2
    u, w = g.edge_idx[:, 0], g.edge_idx[:, 1]
    h_u = np.where(via[u] == label, sub[u], h_top[label])
    h_w = np.where(via[w] == label, sub[w], h_top[label])
    dist_sum = [sum(depth)] * n
    for x, step in zip(below, (h_top[via[below]] - sub[below]).tolist()):
        dist_sum[x] = dist_sum[up[x]] + step
    return _kernels.BrandesPass(
        ((n - 1) ** 2 - pieces) * 0.5,
        (2 * h_u * h_w) * 0.5,
        np.full(n, n, np.int64),
        np.array(dist_sum, np.int64),
    )


# ---------------------------------------------------------------------------
# edge-list TSV I/O

def open_text(path, newline=None):
    """The UTF-8 text of `path` as a file object, with `newline` as for
    open(), less one leading byte-order mark (Excel's "CSV UTF-8" writes
    one); a byte that is not UTF-8 raises InputError naming the file and
    the byte's offset in it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return io.StringIO(text.removeprefix("\ufeff"), newline=newline)


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
        if len(parts) not in (2, 3):
            raise InputError(f"{path}:{lineno}: expected 2 or 3 tab-separated fields")
        if not (parts[0] and parts[1]):
            raise InputError(f"{path}:{lineno}: empty node id")
        try:
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad weight {parts[2]!r}")
        if not 0 < w < math.inf:  # also false for nan
            raise InputError(f"{path}:{lineno}: weight {parts[2]!r} is not a positive finite number")
        records.append((parts[0], parts[1], w))
    return build_graph(records)


def format_weight(w):
    return repr(w) if w != int(w) else str(int(w))


def write_edge_tsv(g, fh, flags=None, flag_name="in_backbone"):
    """Write `u\tv\tweight` lines; with `flags` adds a 0/1 membership column.

    Raises InputError, before writing anything, for `flags` that are not
    an edge set of g (see `Graph.edge_set`), and for an endpoint id that is
    empty, holds a tab or a line break, or starts with `#` (a comment line
    to `read_edge_tsv`): the file could not be read back.
    """
    for i in np.flatnonzero(g.degrees):  # the endpoints of the edges
        if not g.ids[i]:
            raise InputError("empty node id")
        if any(c in g.ids[i] for c in "\t\n\r"):
            raise InputError(f"node id {g.ids[i]!r} holds a tab or a line break")
        if g.ids[i].lstrip().startswith("#"):
            raise InputError(f"node id {g.ids[i]!r} starts with '#', which marks a comment")
    if flags is not None:
        flags = g.edge_set(flags)
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
