"""convexa: graph convexity, convex skeletons and rival backbones.

Importing the package runs none of its modules.  Each submodule but `cli`
is registered lazily (`importlib.util.LazyLoader`): it sits in
`sys.modules` and on the package, and its source is compiled and run on
its first attribute access.  The public names below resolve the same way,
through the module `__getattr__`, so a CLI run loads only the modules its
subcommand calls.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "_kernels": ("BACKEND",),
        "backbones": ("edge_betweenness", "embeddedness_scores", "maximum_spanning_tree",
                      "top_m_edge_backbone"),
        "centrality": ("betweenness", "closeness", "degree_centrality", "pagerank", "top_k"),
        "coauthor": ("MISSING", "AttrExpr", "Binning", "DistributionReport", "PaperRecord",
                     "build_coauthorship", "distribution_report", "edge_attribute"),
        "convexity": ("ConvexityScore", "convex_hull", "convexity", "is_convex",
                      "is_tree_of_cliques"),
        "errors": ("ConvergenceError", "ConvexaError", "DisconnectedError", "InputError"),
        "graph": ("Graph", "build_graph", "read_edge_flags", "read_edge_tsv", "write_edge_tsv"),
        "kinds": ("BackboneKind", "CountingScheme", "Kind", "Measure", "Objective", "TieBreak"),
        "netstats": ("StatsRecord", "assortativity", "centrality_values", "clustering_avg_local",
                     "clustering_global", "correlation_matrix", "descriptive_stats",
                     "kendall_tau", "spearman_rho"),
        "skeleton": ("SkeletonResult", "extract_convex_skeleton", "remainder",
                     "retained_weight_fraction"),
        "synth": ("connected_er", "generate"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def _register(short):
    """Register the submodule `short` lazily, following the "implementing
    lazy imports" recipe of the importlib documentation; a module whose
    name is also a public name (`convexity`) is left off the package, so
    that the name stays the function."""
    name = f"{__name__}.{short}"
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    if short not in _EXPORTS:
        globals()[short] = module


for _short in ("_kernels", "_rng", "backbones", "centrality", "coauthor", "convexity",
               "errors", "graph", "kinds", "netstats", "skeleton", "synth"):
    _register(_short)
del _short


def __getattr__(name):
    try:
        short = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(sys.modules[f"{__name__}.{short}"], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
