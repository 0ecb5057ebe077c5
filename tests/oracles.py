"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's algorithmic paths: shortest paths
are enumerated explicitly, spanning trees exhaustively, eigenvectors via
dense linear algebra.  The `*_loop` functions are the straightforward
implementations that faster kernels replaced, kept as references that the
kernels must match exactly.
"""

import itertools
import math
from collections import deque

import numpy as np


def adjacency(g):
    adj = {v: set() for v in g.ids}
    for e in range(g.m):
        u, v = g.edge_ids(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def all_shortest_paths(g, s, t):
    """Every geodesic from s to t as a list of node tuples (DFS over BFS DAG)."""
    adj = adjacency(g)
    dist = {s: 0}
    q = deque([s])
    while q:
        v = q.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    if t not in dist:
        return []
    paths = []

    def walk(node, acc):
        if node == s:
            paths.append(tuple(reversed(acc + [s])))
            return
        for p in adj[node]:
            if dist.get(p, -1) == dist[node] - 1:
                walk(p, acc + [node])

    walk(t, [])
    return paths


def is_convex_oracle(g, node_set):
    """Set is convex iff every node of every geodesic between members is a member."""
    nodes = sorted(node_set)
    for s, t in itertools.combinations(nodes, 2):
        for path in all_shortest_paths(g, s, t):
            if not set(path) <= node_set:
                return False
    return True


def convex_hull_oracle(g, node_set):
    """Close under 'appears on some geodesic between members' until fixpoint."""
    current = set(node_set)
    while True:
        added = set()
        for s, t in itertools.combinations(sorted(current), 2):
            for path in all_shortest_paths(g, s, t):
                added |= set(path) - current
        if not added:
            return frozenset(current)
        current |= added


def hull_close_loop(D, members, new_nodes):
    """Reference hull closure: test every (pushed node, member, w) triple.

    Closes `members` (bool, modified in place) under geodesic betweenness,
    assuming it was already closed before `new_nodes` were added.
    """
    n = D.shape[0]
    mem_list = np.empty(n, np.int32)
    k = 0
    for i in range(n):
        if members[i]:
            mem_list[k] = i
            k += 1
    stack = np.empty(n, np.int32)
    top = 0
    for j in range(new_nodes.shape[0]):
        x = new_nodes[j]
        if not members[x]:
            members[x] = True
            mem_list[k] = x
            k += 1
        stack[top] = x
        top += 1
    while top > 0:
        top -= 1
        u = stack[top]
        i = 0
        while i < k:
            v = mem_list[i]
            i += 1
            duv = D[u, v]
            for w in range(n):
                if not members[w] and D[u, w] + D[w, v] == duv:
                    members[w] = True
                    mem_list[k] = w
                    k += 1
                    stack[top] = w
                    top += 1
    return members


def expansion_run_loop(g, rng):
    """Reference expansion run, one step at a time: |S| after each step
    t = 0 .. n-1, each closure by `hull_close_loop`.  Draws `integers(n)`
    once, then `integers(number of cut edges)` per step until S is full;
    the pushed node is the outer end of that cut edge in ascending edge
    order."""
    n = g.n
    D = g.dist_matrix
    eu = g.edge_idx[:, 0]
    ev = g.edge_idx[:, 1]
    members = np.zeros(n, dtype=bool)
    start = int(rng.integers(n))
    hull_close_loop(D, members, np.array([start], np.int32))
    sizes = [int(members.sum())]
    while len(sizes) < n:
        if members.all():
            sizes.append(n)
            continue
        cut = np.flatnonzero(members[eu] ^ members[ev])
        e = cut[int(rng.integers(len(cut)))]
        new = int(ev[e]) if members[eu[e]] else int(eu[e])
        hull_close_loop(D, members, np.array([new], np.int32))
        sizes.append(int(members.sum()))
    return sizes


def brandes_loop(indptr, indices, edge_id, n, m):
    """Reference Brandes accumulation: one BFS per source, node and edge
    betweenness together (unordered pairs, per component)."""
    cb = np.zeros(n)
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
            cb[w] += delta[w]
    return cb * 0.5, ce * 0.5


def local_weight_sums_loop(indptr, indices, inv_pairs, eu, ev):
    """For each edge (u,v): sum of inv_pairs[w] over common neighbors w, in
    ascending w, where inv_pairs[w] = 1/C(deg_w, 2) (0 for deg < 2)."""
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


def blocks_info(n, edge_idx, alive_pos):
    """Bridges among alive edges and whether every block is a clique."""
    from convexa.graph import biconnected_edge_blocks

    sub = edge_idx[alive_pos]
    blocks = biconnected_edge_blocks(n, sub)
    bridge = set()
    all_cliques = True
    for blk in blocks:
        if len(blk) == 1:
            bridge.add(int(alive_pos[blk[0]]))
            continue
        nodes = set()
        for e in blk:
            nodes.add(int(sub[e, 0]))
            nodes.add(int(sub[e, 1]))
        k = len(nodes)
        if len(blk) != k * (k - 1) // 2:
            all_cliques = False
    return bridge, all_cliques


def bfs_all_loop(indptr, indices, n):
    """All-pairs hop distances by one queue BFS per source; -1 unreachable."""
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


def common_neighbors_loop(indptr, indices, eu, ev):
    """Per-pair common-neighbour counts by merging the sorted CSR rows."""
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


def objective_after_removal(n, edge_idx, alive_pos, objective):
    """Objective value of the graph after removing each alive edge,
    evaluated from scratch on the alive edges."""
    from convexa import Objective
    from convexa.graph import build_csr

    sub = edge_idx[alive_pos]
    indptr, indices, _ = build_csr(n, sub)
    deg = np.bincount(sub.ravel(), minlength=n).astype(np.int64)
    eu = sub[:, 0].astype(np.int32)
    ev = sub[:, 1].astype(np.int32)
    cn = common_neighbors_loop(indptr, indices, eu, ev)
    if objective is Objective.GLOBAL_TRANSITIVITY:
        tri3 = int(cn.sum())  # 3 * number of triangles
        triples = int((deg * (deg - 1) // 2).sum())
        new_tri3 = tri3 - 3 * cn
        new_triples = triples - (deg[eu] - 1) - (deg[ev] - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(new_triples > 0, new_tri3 / new_triples, 0.0)
        return vals
    # AVERAGE_LOCAL: mean over all nodes of 2*t_x / (d_x (d_x - 1))
    pairs = deg * (deg - 1) / 2.0
    inv_pairs = np.where(pairs > 0, 1.0 / np.where(pairs > 0, pairs, 1.0), 0.0)
    tri_node = np.zeros(n)  # triangles incident to each node
    np.add.at(tri_node, eu, cn)
    np.add.at(tri_node, ev, cn)
    tri_node /= 2.0
    local = tri_node * inv_pairs
    total = local.sum()
    # removing (u,v): u and v lose cn triangles and one degree; each common
    # neighbor w loses one triangle
    w_loss = local_weight_sums_loop(indptr, indices, inv_pairs, eu, ev)
    du, dv = deg[eu], deg[ev]
    tu = tri_node[eu] - cn
    tv = tri_node[ev] - cn
    denom_u = np.maximum((du - 1) * (du - 2) / 2.0, 1.0)
    denom_v = np.maximum((dv - 1) * (dv - 2) / 2.0, 1.0)
    new_u = np.where(du - 1 >= 2, tu / denom_u, 0.0)
    new_v = np.where(dv - 1 >= 2, tv / denom_v, 0.0)
    vals = total - local[eu] - local[ev] - w_loss + new_u + new_v
    return vals / n


def skeleton_loop(g, objective, tie_break, seed=0):
    """Reference skeleton extraction: every iteration rebuilds the CSR,
    recounts common neighbours on every alive edge and decomposes the whole
    graph into blocks.  Returns (kept edge positions, removal log)."""
    from convexa import TieBreak

    rng = np.random.default_rng(seed) if tie_break is TieBreak.RANDOM else None
    alive = np.ones(g.m, dtype=bool)
    removed = []
    while True:
        alive_pos = np.flatnonzero(alive)
        bridge, all_cliques = blocks_info(g.n, g.edge_idx, alive_pos)
        if all_cliques:
            break
        vals = objective_after_removal(g.n, g.edge_idx, alive_pos, objective)
        removable = np.array([int(p) not in bridge for p in alive_pos])
        vals = np.where(removable, vals, -np.inf)
        best = vals.max()
        if rng is None:
            pick = int(np.argmax(vals))  # first max = lexicographically smallest edge
        else:
            cands = np.flatnonzero(vals == best)
            pick = int(cands[rng.integers(len(cands))])
        pos = int(alive_pos[pick])
        alive[pos] = False
        removed.append((g.edge_ids(pos), float(best)))
    return frozenset(int(p) for p in np.flatnonzero(alive)), tuple(removed)


def betweenness_oracle(g):
    """Node betweenness by explicit geodesic enumeration (unordered pairs)."""
    score = {v: 0.0 for v in g.ids}
    for s, t in itertools.combinations(sorted(g.ids), 2):
        paths = all_shortest_paths(g, s, t)
        if not paths:
            continue
        frac = 1.0 / len(paths)
        for path in paths:
            for v in path[1:-1]:
                score[v] += frac
    return score


def edge_betweenness_oracle(g):
    score = {g.edge_ids(e): 0.0 for e in range(g.m)}
    for s, t in itertools.combinations(sorted(g.ids), 2):
        paths = all_shortest_paths(g, s, t)
        if not paths:
            continue
        frac = 1.0 / len(paths)
        for path in paths:
            for a, b in zip(path, path[1:]):
                key = (a, b) if a < b else (b, a)
                score[key] += frac
    return score


def max_spanning_tree_weight_oracle(g):
    """Maximum total weight over all spanning trees, by exhaustive search."""
    n = g.n
    best = None
    for combo in itertools.combinations(range(g.m), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in combo:
            u, v = int(g.edge_idx[e, 0]), int(g.edge_idx[e, 1])
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            w = float(g.weights[list(combo)].sum())
            if best is None or w > best:
                best = w
    return best


def pagerank_eig_oracle(g, damping=0.85):
    """Dominant eigenvector of the dense Google matrix."""
    n = g.n
    A = np.zeros((n, n))
    for e in range(g.m):
        u, v = g.edge_idx[e]
        A[u, v] = A[v, u] = 1.0
    deg = A.sum(axis=1)
    P = np.full((n, n), 1.0 / n)
    for i in range(n):
        if deg[i] > 0:
            P[i] = A[i] / deg[i]
    G = damping * P + (1.0 - damping) / n
    vals, vecs = np.linalg.eig(G.T)
    k = int(np.argmax(vals.real))
    v = np.abs(vecs[:, k].real)
    v /= v.sum()
    return {g.ids[i]: float(v[i]) for i in range(n)}


def component_labels_loop(g):
    """Union-find over the edges on a numpy parent array, each union keeping
    the smaller root: every node's label is its component's smallest index."""
    parent = np.arange(g.n)

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in g.edge_idx:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return np.array([find(i) for i in range(g.n)])


def largest_component_loop(g):
    """(LCC as (ids, edge_idx, weights), node fraction) by a node remap dict
    and one pass over the edges; ties go to the smallest member id."""
    labels = component_labels_loop(g)
    vals, counts = np.unique(labels, return_counts=True)
    best = counts.max()
    lab = min(int(v) for v, c in zip(vals, counts) if c == best)
    keep = np.flatnonzero(labels == lab)
    remap = {int(old): new for new, old in enumerate(keep)}
    sub_edges = []
    sub_w = []
    for e in range(g.m):
        u, v = int(g.edge_idx[e, 0]), int(g.edge_idx[e, 1])
        if u in remap:
            sub_edges.append((remap[u], remap[v]))
            sub_w.append(g.weights[e])
    ids = tuple(g.ids[i] for i in keep)
    edge_idx = np.array(sub_edges, np.int32) if sub_edges else np.empty((0, 2), np.int32)
    return (ids, edge_idx, np.array(sub_w, np.float64)), len(keep) / g.n


def mean_distance_triu(D):
    """Mean of the upper triangle of a distance matrix (n >= 2)."""
    iu = np.triu_indices(D.shape[0], k=1)
    return float(D[iu].mean())


def closeness_loop(g):
    """Reachable-set corrected closeness, one distance row at a time."""
    n = g.n
    D = g.dist_matrix
    values = {}
    for i in range(n):
        row = D[i]
        reach = row >= 0
        r = int(reach.sum())
        if r <= 1 or n <= 1:
            values[g.ids[i]] = 0.0
            continue
        total = int(row[reach].sum())
        values[g.ids[i]] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return values


def maximum_spanning_tree_loop(g, order):
    """Kruskal's chosen edge positions over the edge `order`, with a nested
    path-halving find and each union hanging the first root on the second."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for e in order:
        u, v = int(g.edge_idx[e, 0]), int(g.edge_idx[e, 1])
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(int(e))
            if len(chosen) == g.n - 1:
                break
    return frozenset(chosen)


def distribution_report_subgraphs(g, sk, expr, authors, binning):
    """`coauthor.distribution_report` as it was first written: one pass over
    the skeleton subgraph and one over the remainder subgraph.  Returns
    (bins, skeleton weights, remainder weights, missing skeleton, missing
    remainder)."""
    from convexa import MISSING, edge_attribute, remainder, skeleton_graph

    parts = {"sk": skeleton_graph(g, sk), "re": remainder(g, sk)}
    acc = {"sk": {}, "re": {}}
    miss = {"sk": 0.0, "re": 0.0}
    for tag, sub in parts.items():
        for e in range(sub.m):
            val = edge_attribute(expr, sub.edge_ids(e), authors)
            w = float(sub.weights[e])
            if val is MISSING:
                miss[tag] += w
            else:
                key = binning.key(val)
                acc[tag][key] = acc[tag].get(key, 0.0) + w
    keys = sorted(set(acc["sk"]) | set(acc["re"]), key=lambda k: (str(type(k)), k))
    return (
        tuple(binning.bounds(k) for k in keys),
        tuple(acc["sk"].get(k, 0.0) for k in keys),
        tuple(acc["re"].get(k, 0.0) for k in keys),
        miss["sk"],
        miss["re"],
    )


def random_graph(rng, n, p, connected=False, weighted=False):
    """Seeded random graph over zero-padded string ids (build_graph records)."""
    from convexa import build_graph

    labels = [f"v{i:03d}" for i in range(n)]
    while True:
        records = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    if weighted:
                        records.append((labels[i], labels[j], float(rng.integers(1, 10))))
                    else:
                        records.append((labels[i], labels[j]))
        g = build_graph(records, isolated_nodes=labels)
        if not connected or g.connected:
            return g


def random_gnm(rng, n, m):
    """Seeded connected uniform random graph G(n, m), redrawn until connected.

    Each draw picks m indices among the n(n-1)/2 pairs (i < j, in
    lexicographic order) and decodes them arithmetically, so no list of all
    pairs is built.
    """
    from convexa import build_graph

    labels = [f"v{i:03d}" for i in range(n)]
    i = np.arange(n, dtype=np.int64)
    first = i * (n - 1) - i * (i - 1) // 2  # index of the pair (i, i + 1)
    while True:
        pick = rng.choice(n * (n - 1) // 2, size=m, replace=False)
        u = np.searchsorted(first, pick, side="right") - 1
        v = pick - first[u] + u + 1
        g = build_graph([(labels[a], labels[b]) for a, b in zip(u.tolist(), v.tolist())])
        if g.n == n and g.connected:
            return g


def random_corpus(rng, count):
    """`count` seeded weighted graphs with n from 1 to 40, connected or not;
    every third is two disjoint copies of one graph on interleaved ids
    (`v007` and `v007b`), so its largest components tie."""
    from convexa import build_graph

    graphs = []
    for k in range(count):
        n = int(rng.integers(1, 41))
        g = random_graph(rng, n, float(rng.uniform(0.02, 0.4)), weighted=True)
        if k % 3 == 2:
            records = []
            for e in range(g.m):
                u, v = g.edge_ids(e)
                w = float(g.weights[e])
                records += [(u, v, w), (u + "b", v + "b", w)]
            g = build_graph(records, isolated_nodes=[*g.ids, *(i + "b" for i in g.ids)])
        graphs.append(g)
    return graphs


def kendall_tau_pairs(a, b):
    """Tau-b by counting every one of the n(n-1)/2 pairs: the reference for
    the O(n log n) count.  `a` and `b` are float arrays, neither constant."""
    i, j = np.triu_indices(len(a), k=1)
    da = np.sign(a[i] - a[j])
    db = np.sign(b[i] - b[j])
    prod = da * db
    concordant = int((prod > 0).sum())
    discordant = int((prod < 0).sum())
    n0 = len(i)
    tied_a = int((da == 0).sum())
    tied_b = int((db == 0).sum())
    return (concordant - discordant) / math.sqrt((n0 - tied_a) * (n0 - tied_b))


# ---------------------------------------------------------------------------
# per-node and per-edge views of the library's results, for the tests that
# read them by id

def connected_components(g):
    """Node partition from `Graph.labels`, largest component first, ties by
    smallest member id."""
    comps = {}
    for i, lab in enumerate(g.labels.tolist()):
        comps.setdefault(lab, set()).add(g.ids[i])
    return sorted(comps.values(), key=lambda c: (-len(c), min(c)))


def biconnected_components(g):
    """`Graph.blocks` as frozensets of (u_id, v_id) edges."""
    return [frozenset(g.edge_ids(e) for e in blk) for blk in g.blocks]


def is_bridge(g, edge):
    """True iff the edge (u_id, v_id), in either orientation, is a block of
    its own; InputError for an edge not in g."""
    return (g.edge_pos(*edge),) in g.blocks


def embeddedness(g, edge):
    """`embeddedness_scores` of the edge (u_id, v_id), in either orientation."""
    from convexa import embeddedness_scores

    return float(embeddedness_scores(g)[g.edge_pos(*edge)])


def expansion_run(g, rng):
    """One expansion run drawing from `rng`: |S| after each step t = 0 .. n-1."""
    import importlib

    convexity_module = importlib.import_module("convexa.convexity")
    return convexity_module._expansion_totals(g, [rng]).tolist()
