"""Deterministic synthetic graph generators for tests and demos."""

import numpy as np

from ._rng import Stream
from .errors import ConvexaError
from .graph import Graph, build_graph
from .kinds import RANDOM_KINDS, Kind


#: the parameters each kind reads; the others read only n
_PARAMS = {
    Kind.ER_RANDOM: {"n", "p"},
    Kind.TREE_OF_CLIQUES: {"cliques", "smin", "smax"},
    Kind.TRIANGULAR_LATTICE: {"rows", "cols"},
}

#: the draws `connected_er` makes before it gives up
MAX_TRIES = 1000


def _label(i, width):
    return f"n{i:0{width}d}"


def _labels(n):
    width = max(3, len(str(n - 1)))
    return [_label(i, width) for i in range(n)]


def _need(params, key, default=None):
    if key in params:
        return params[key]
    if default is not None:
        return default
    raise ConvexaError(f"generator parameter {key!r} is required")


def generate(kind: Kind, params=None, seed: int = 0) -> Graph:
    """The `kind` graph with `params` (a dict of the kind's parameters),
    `seed` seeding the random kinds.  ConvexaError for a parameter its kind
    does not read, a missing one, or a value out of range."""
    k, p = kind, params or {}
    unused = sorted(set(p) - _PARAMS.get(k, {"n"}))
    if unused:
        raise ConvexaError(f"generator {k.value} takes no parameter {', '.join(unused)}")
    if "n" in p and int(p["n"]) < 0:
        raise ConvexaError(f"n must be >= 0, got {p['n']}")
    if k is Kind.COMPLETE:
        n = int(_need(p, "n"))
        lab = _labels(n)
        return build_graph(
            [(lab[i], lab[j]) for i in range(n) for j in range(i + 1, n)],
            isolated_nodes=lab,
        )
    if k is Kind.PATH:
        n = int(_need(p, "n"))
        lab = _labels(n)
        return build_graph([(lab[i], lab[i + 1]) for i in range(n - 1)], isolated_nodes=lab)
    if k is Kind.CYCLE:
        n = int(_need(p, "n"))
        if n < 3:
            raise ConvexaError("cycle needs n >= 3")
        lab = _labels(n)
        return build_graph([(lab[i], lab[(i + 1) % n]) for i in range(n)])
    if k is Kind.STAR:
        n = int(_need(p, "n"))
        if n < 2:
            raise ConvexaError("star needs n >= 2")
        lab = _labels(n)
        return build_graph([(lab[0], lab[i]) for i in range(1, n)])
    if k is Kind.TRIANGULAR_LATTICE:
        rows = int(_need(p, "rows"))
        cols = int(_need(p, "cols"))
        if rows < 1 or cols < 1:
            raise ConvexaError("lattice needs rows, cols >= 1")
        width = max(3, len(str(rows * cols - 1)))
        lab = lambda i, j: _label(i * cols + j, width)
        edges = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    edges.append((lab(i, j), lab(i, j + 1)))
                if i + 1 < rows:
                    edges.append((lab(i, j), lab(i + 1, j)))
                if i + 1 < rows and j + 1 < cols:
                    edges.append((lab(i, j), lab(i + 1, j + 1)))
        return build_graph(edges)
    if k is Kind.ER_RANDOM:
        n = int(_need(p, "n"))
        prob = float(_need(p, "p"))
        if not 0.0 <= prob <= 1.0:
            raise ConvexaError("p must be in [0, 1]")
        rng = np.random.default_rng(seed)
        lab = _labels(n)
        iu = np.triu_indices(n, k=1)
        mask = rng.random(len(iu[0])) < prob
        edges = [(lab[i], lab[j]) for i, j in zip(iu[0][mask], iu[1][mask])]
        return build_graph(edges, isolated_nodes=lab)
    # the one kind left, TREE_OF_CLIQUES
    return _tree_of_cliques(
        int(_need(p, "cliques")),
        int(_need(p, "smin", 2)),
        int(_need(p, "smax", 5)),
        seed,
    )


def _tree_of_cliques(cliques, smin, smax, seed):
    """Grow cliques one at a time, each sharing exactly one node with an
    existing, uniformly chosen clique."""
    if cliques < 1 or smin < 2 or smax < smin:
        raise ConvexaError("need cliques >= 1 and 2 <= smin <= smax")
    rng = Stream(seed)
    clique_nodes = []  # node index lists per clique
    edges = []
    next_node = 0

    def fresh(count):
        nonlocal next_node
        out = list(range(next_node, next_node + count))
        next_node += count
        return out

    for c in range(cliques):
        size = rng.integers(smin, smax + 1)
        if c == 0:
            members = fresh(size)
        else:
            host = clique_nodes[rng.integers(len(clique_nodes))]
            shared = host[rng.integers(len(host))]
            members = [shared] + fresh(size - 1)
        clique_nodes.append(members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges.append((members[i], members[j]))
    width = max(3, len(str(next_node - 1)))
    return build_graph([(_label(u, width), _label(v, width)) for u, v in edges])


def connected_er(n, p, seed):
    """ER graph regenerated until connected; returns (graph, rejection count)."""
    for attempt in range(MAX_TRIES):
        g = generate(Kind.ER_RANDOM, {"n": n, "p": p}, seed + attempt)
        if g.connected:
            return g, attempt
    raise ConvexaError(f"no connected ER({n}, {p}) draw in {MAX_TRIES} tries")
