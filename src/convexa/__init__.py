"""convexa: graph convexity, convex skeletons and rival backbones."""

from ._kernels import BACKEND
from .backbones import (
    BackboneKind,
    edge_betweenness,
    embeddedness_scores,
    maximum_spanning_tree,
    top_m_edge_backbone,
)
from .centrality import (
    Measure,
    betweenness,
    closeness,
    degree_centrality,
    pagerank,
    top_k,
)
from .coauthor import (
    MISSING,
    AttrExpr,
    Binning,
    CountingScheme,
    DistributionReport,
    PaperRecord,
    build_coauthorship,
    distribution_report,
    edge_attribute,
)
from .convexity import (
    ConvexityScore,
    convex_hull,
    convexity,
    is_convex,
    is_tree_of_cliques,
)
from .errors import ConvergenceError, ConvexaError, DisconnectedError, InputError
from .graph import (
    Graph,
    build_graph,
    read_edge_flags,
    read_edge_tsv,
    write_edge_tsv,
)
from .netstats import (
    StatsRecord,
    assortativity,
    centrality_values,
    clustering_avg_local,
    clustering_global,
    correlation_matrix,
    descriptive_stats,
    kendall_tau,
    spearman_rho,
)
from .skeleton import (
    Objective,
    SkeletonResult,
    TieBreak,
    extract_convex_skeleton,
    remainder,
    retained_weight_fraction,
)
from .synth import Kind, connected_er, generate

__version__ = "0.1.0"
