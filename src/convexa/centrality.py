"""Node centralities: degree, PageRank, betweenness, closeness; top-k lists.

All measures are unweighted and work per component, so they stay defined
on disconnected backbones.  PageRank follows the bidirected-edge
construction with uniform teleport; closeness uses the reachable-set
corrected form, which reduces to classical closeness on connected graphs.
Each measure is a {node id: float} dict.
"""

import numpy as np

from .errors import ConvergenceError, ConvexaError
from .graph import Graph
from .kinds import Measure


#: PageRank's damping (Brin and Page, Computer Networks 1998); an iterate's L1
#: change is at most 2 * DAMPING**k, below TOL by k = 147, so MAX_ITER never binds
DAMPING = 0.85
TOL = 1e-10
MAX_ITER = 1000


def degree_centrality(g: Graph) -> dict:
    deg = g.degrees
    return {g.ids[i]: float(deg[i]) for i in range(g.n)}


def pagerank(g: Graph) -> dict:
    """Power iteration on the bidirected graph, dangling mass spread uniformly."""
    n = g.n
    if n == 0:
        return {}
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    # A @ x as a sum over each node's neighbours in CSR order
    indptr, indices, _ = g.csr
    heads = np.repeat(np.arange(n), np.diff(indptr))
    p = np.full(n, 1.0 / n)
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    for _ in range(MAX_ITER):
        spread = p * inv_deg
        pulled = np.bincount(heads, weights=spread[indices], minlength=n)
        new = (1.0 - DAMPING) / n + DAMPING * (pulled + p[dangling].sum() / n)
        residual = float(np.abs(new - p).sum())
        p = new
        if residual < TOL:
            return {g.ids[i]: float(p[i]) for i in range(n)}
    raise ConvergenceError(f"PageRank did not converge in {MAX_ITER} steps (residual {residual:g})")


def betweenness(g: Graph) -> dict:
    """Exact Brandes betweenness, unnormalized, unordered pairs, per component."""
    vals = g.brandes.node
    return {g.ids[i]: float(vals[i]) for i in range(g.n)}


def closeness(g: Graph) -> dict:
    """Reachable-set corrected closeness: ((r-1)/(n-1)) * ((r-1)/sum of
    distances), with r the nodes reached, the node itself included.  The
    reach counts and exact distance sums come from the cached Brandes pass
    (`Graph.brandes`), which they serve only here and in
    `netstats.mean_distance`: no distance matrix, O(n + m) memory.  On a
    tree of cliques that pass is the closed form off the block-cut tree,
    whose distance sums are rerooted from one node's, with no BFS."""
    n = g.n
    r, total = g.brandes.reach, g.brandes.dist_sum
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(r > 1, ((r - 1) / (n - 1)) * ((r - 1) / total), 0.0)
    return dict(zip(g.ids, vals.tolist()))


def top_k(values: dict, k: int):
    """k highest-valued (node, value) pairs, ties by smallest identifier."""
    if k < 1:
        raise ConvexaError(f"top-k needs a positive k, got {k}")
    ranked = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


_MEASURE_FN = {
    Measure.DEGREE: degree_centrality,
    Measure.PAGERANK: pagerank,
    Measure.BETWEENNESS: betweenness,
    Measure.CLOSENESS: closeness,
}


def compute(g: Graph, measure: Measure) -> dict:
    return _MEASURE_FN[measure](g)
