"""The package loads lazily: each check runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

#: every submodule that `import convexa` registers lazily
LAZY = {"_kernels", "_rng", "backbones", "centrality", "coauthor", "convexity",
        "errors", "graph", "kinds", "netstats", "skeleton", "synth"}

#: the public names of the package, by the module that exported them before
#: the enums moved to `convexa.kinds` (each still re-exports its enums)
EXPORTS = {
    "_kernels": ["BACKEND"],
    "backbones": ["BackboneKind", "edge_betweenness", "embeddedness_scores",
                  "maximum_spanning_tree", "top_m_edge_backbone"],
    "centrality": ["Measure", "betweenness", "closeness", "degree_centrality",
                   "pagerank", "top_k"],
    "coauthor": ["MISSING", "AttrExpr", "Binning", "CountingScheme", "DistributionReport",
                 "PaperRecord", "build_coauthorship", "distribution_report",
                 "edge_attribute"],
    "convexity": ["ConvexityScore", "convex_hull", "convexity", "is_convex",
                  "is_tree_of_cliques"],
    "errors": ["ConvergenceError", "ConvexaError", "DisconnectedError", "InputError"],
    "graph": ["Graph", "build_graph", "read_edge_flags", "read_edge_tsv", "write_edge_tsv"],
    "netstats": ["StatsRecord", "assortativity", "centrality_values",
                 "clustering_avg_local", "clustering_global", "correlation_matrix",
                 "descriptive_stats", "kendall_tau", "spearman_rho"],
    "skeleton": ["Objective", "SkeletonResult", "TieBreak", "extract_convex_skeleton",
                 "remainder", "retained_weight_fraction"],
    "synth": ["Kind", "connected_er", "generate"],
}


def _python(code, *args):
    """Run `code` in a fresh interpreter; returns its last stdout line as JSON."""
    r = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout.splitlines()[-1])


#: runs cli.main(argv), then prints the convexa modules whose source ran:
#: a lazily registered module that was never touched is no plain module yet
_EXECUTED = """
import json, sys, types
from convexa import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(n.split(".", 1)[1] for n, m in list(sys.modules.items())
                               if n.startswith("convexa.") and type(m) is types.ModuleType)]))
"""


@pytest.mark.parametrize("argv, executed", [
    (["convexity", "--input", "C4", "--runs", "3", "--output", "OUT"],
     {"convexity", "_rng", "_kernels"}),
    (["centrality", "--input", "C4", "--measure", "all", "--output", "OUT"],
     {"centrality", "_kernels"}),
    (["rank", "--input", "C4", "--measure", "pagerank", "--output", "OUT"],
     {"centrality"}),
    (["buildnet", "--papers", "PAPERS", "--output", "OUT"],
     {"coauthor"}),
    (["compare", "--input", "C4", "--runs", "3", "--output-dir", "OUT"],
     LAZY - {"coauthor", "synth"}),
], ids=["convexity", "centrality", "rank", "buildnet", "compare"])
def test_a_run_executes_only_the_modules_it_calls(tmp_path, argv, executed):
    # a 4-cycle is no tree of cliques, so its convexity runs the Monte Carlo
    paths = {"C4": tmp_path / "c4.tsv", "PAPERS": tmp_path / "papers.csv",
             "OUT": tmp_path / "out"}
    paths["C4"].write_text("a\tb\nb\tc\nc\td\na\td\n")
    paths["PAPERS"].write_text("paper_id,author_id\np1,a\np1,b\np2,b\np2,c\n")
    code, modules = _python(_EXECUTED, *(str(paths.get(a, a)) for a in argv))
    assert code == 0
    assert set(modules) == {"cli", "kinds", "errors", "graph"} | executed


def test_cli_import_runs_cli_and_registers_every_submodule():
    executed, registered = _python(
        "import json, sys, types, convexa.cli\n"
        "print(json.dumps([type(sys.modules['convexa.cli']) is types.ModuleType"
        " and hasattr(convexa.cli, 'main'),"
        " sorted(n[8:] for n in sys.modules if n.startswith('convexa.'))]))"
    )
    assert executed
    assert set(registered) == LAZY | {"cli"}


def test_package_import_runs_no_submodule():
    executed = _python(
        "import json, sys, types, convexa\n"
        "print(json.dumps(sorted(n for n, m in list(sys.modules.items())"
        " if n.startswith('convexa.') and type(m) is types.ModuleType)))"
    )
    assert executed == []


def test_every_public_name_is_its_module_attribute():
    same = _python(
        "import importlib, json, sys, convexa\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps({n: getattr(convexa, n) is getattr(importlib.import_module("
        "'convexa.' + m), n) for m, names in exports.items() for n in names}))"
    )
    assert same == {name: True for names in EXPORTS.values() for name in names}


def test_names_that_are_also_modules_and_moved_enums():
    checks = _python(
        "import json, sys, types, convexa\n"
        "import convexa.skeleton, convexa.synth\n"
        "print(json.dumps([\n"
        "    isinstance(convexa.convexity, types.FunctionType),\n"
        "    sys.modules['convexa.convexity'].convexity is convexa.convexity,\n"
        "    convexa.skeleton.Objective is convexa.Objective,\n"
        "    convexa.synth.RANDOM_KINDS is convexa.kinds.RANDOM_KINDS,\n"
        "    convexa.Measure.__module__ == 'convexa.kinds',\n"
        "]))"
    )
    assert checks == [True] * 5


def test_all_and_dir_list_every_public_name():
    names, listed = _python(
        "import json, convexa\n"
        "print(json.dumps([convexa.__all__, dir(convexa)]))"
    )
    public = {name for names in EXPORTS.values() for name in names}
    assert sorted(names) == sorted(public)
    assert public <= set(listed)


def test_an_unknown_name_raises_attribute_error():
    import convexa

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        convexa.nope
