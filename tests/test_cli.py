import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest

CLI = [sys.executable, "-m", "convexa"]


def run(*args, env=None, cwd=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=e, cwd=cwd
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    r = run(
        "generate", "--kind", "tree_of_cliques", "--cliques", "8",
        "--seed", "1", "--output", str(d / "toc.tsv"),
    )
    assert r.returncode == 0, r.stderr
    (d / "tree.tsv").write_text("a\tb\nb\tc\nb\td\n")
    (d / "c4.tsv").write_text("a\tb\nb\tc\nc\td\na\td\n")
    (d / "papers.csv").write_text(
        "paper_id,author_id\np1,a\np1,b\np1,c\np2,a\np2,b\np3,d\n"
    )
    (d / "paper_meta.csv").write_text("paper_id,year\np1,2001\np2,1998\np3,2010\n")
    (d / "authors.csv").write_text(
        "author_id,birth_year,gender\na,1960,F\nb,1980,F\nc,1975,M\nd,1990,M\n"
    )
    return d


def test_convexity_tree(workdir):
    out = workdir / "conv_tree.csv"
    r = run("convexity", "--input", str(workdir / "tree.tsv"), "--runs", "100",
            "--seed", "7", "--output", str(out))
    assert r.returncode == 0
    assert "X = 1" in r.stdout
    assert out.read_text().startswith("t,s_t\n0,0.25\n")
    meta = json.loads((workdir / "conv_tree.csv.meta.json").read_text())
    assert meta["config"]["x"] == 1.0
    assert meta["config"]["seed"] == 7


def test_convexity_c4(workdir):
    r = run("convexity", "--input", str(workdir / "c4.tsv"),
            "--output", str(workdir / "conv_c4.csv"))
    assert r.returncode == 0
    assert "X = 0.75" in r.stdout


def test_missing_input_exit_2(workdir):
    r = run("convexity", "--input", str(workdir / "nope.tsv"),
            "--output", str(workdir / "x.csv"))
    assert r.returncode == 2
    assert "nope.tsv" in r.stderr


def test_disconnected_skeleton_exit_3(workdir):
    p = workdir / "disc.tsv"
    p.write_text("a\tb\nc\td\n")
    r = run("skeleton", "--input", str(p), "--output", str(workdir / "y.tsv"))
    assert r.returncode == 3


def test_skeleton_outputs(workdir):
    out = workdir / "sk.tsv"
    r = run("skeleton", "--input", str(workdir / "toc.tsv"), "--tie-break", "random",
            "--seed", "1", "--output", str(out),
            "--removal-log", str(workdir / "rm.csv"))
    assert r.returncode == 0, r.stderr
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert all(l.split("\t")[3] in "01" for l in lines)
    assert (workdir / "rm.csv").read_text().startswith("step,u,v,objective")


def test_compare_tree_columns_match(workdir):
    d = workdir / "cmp_tree"
    r = run("compare", "--input", str(workdir / "tree.tsv"), "--runs", "10",
            "--seed", "2", "--backbones", "skeleton,mst",
            "--output-dir", str(d))
    assert r.returncode == 0, r.stderr
    rows = (d / "stats.csv").read_text().splitlines()
    header = rows[0].split(",")
    inet, imst = header.index("network"), header.index("mst")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[inet] == cells[imst]  # a tree is its own MST


def test_compare_correlation_diagonal(workdir):
    d = workdir / "cmp_toc"
    r = run("compare", "--input", str(workdir / "toc.tsv"), "--runs", "10",
            "--seed", "2", "--backbones", "skeleton", "--output-dir", str(d))
    assert r.returncode == 0, r.stderr
    # the skeleton of a tree of cliques is the whole graph -> unit diagonal
    for line in (d / "corr_skeleton.csv").read_text().splitlines()[1:]:
        rm, cm, rho, tau = line.split(",")
        if rm == cm:
            assert float(rho) == 1.0 and float(tau) == 1.0


def test_compare_cycle_undefined_correlations_are_na(workdir):
    # every centrality is constant on a cycle, so no rank correlation with
    # the full network is defined
    p = workdir / "c6.tsv"
    p.write_text("a\tb\nb\tc\nc\td\nd\te\ne\tf\na\tf\n")
    d = workdir / "cmp_c6"
    r = run("compare", "--input", str(p), "--runs", "5", "--output-dir", str(d))
    assert r.returncode == 0, r.stderr
    for name in ("skeleton", "mst", "betweenness", "embeddedness"):
        lines = (d / f"corr_{name}.csv").read_text().splitlines()
        assert len(lines) == 17
        assert all(line.endswith(",NA,NA") for line in lines[1:])


def test_compare_refuses_a_repeated_backbone_kind(workdir):
    # one column and one grid per kind: a kind listed twice is refused
    # before anything is written
    d = workdir / "cmp_twice"
    r = run("compare", "--input", str(workdir / "tree.tsv"), "--runs", "5",
            "--backbones", "skeleton,mst,skeleton", "--output-dir", str(d))
    assert r.returncode == 3
    assert "'skeleton' more than once" in r.stderr
    assert not d.exists()


def test_compare_failure_writes_nothing(workdir, monkeypatch, capsys):
    # every text is computed before the output directory is made
    from convexa import ConvexaError, cli, netstats

    def fail(*args, **kwargs):
        raise ConvexaError("correlation failed")

    monkeypatch.setattr(netstats, "correlation_matrix", fail)
    d = workdir / "cmp_fail"
    code = cli.main(["compare", "--input", str(workdir / "tree.tsv"), "--runs", "5",
                     "--output-dir", str(d)])
    assert code == 3
    assert capsys.readouterr().err == "error: correlation failed\n"
    assert not (d / "stats.csv").exists()
    assert not d.exists()


def test_compare_builds_each_backbone_graph_once(workdir, monkeypatch):
    # descriptive_stats and the correlation grid share one graph object per
    # backbone, and with it its cached distances
    from convexa import Graph, cli, netstats

    built = []

    def counting(g, edges):
        sub = real(g, edges)
        built.append(sub)
        return sub

    real = Graph.subgraph_with_edges
    monkeypatch.setattr(Graph, "subgraph_with_edges", counting)
    valued = mock.Mock(wraps=netstats.centrality_values)
    monkeypatch.setattr(netstats, "centrality_values", valued)
    code = cli.main(["compare", "--input", str(workdir / "toc.tsv"), "--runs", "5",
                     "--backbones", "skeleton,mst,betweenness,embeddedness",
                     "--output-dir", str(workdir / "cmp_once")])
    assert code == 0
    assert len(built) == 4
    # the full graph's centralities, then each backbone's on its one graph
    assert [id(call.args[0]) for call in valued.call_args_list[1:]] == list(map(id, built))


def _clustered_tsv(path, seed=3):
    # a tree of 12 cliques plus 40 random chords, as the criterion-8 graph
    # is built at n≈500
    import numpy as np

    import convexa as cx

    toc = cx.generate(
        cx.Kind.TREE_OF_CLIQUES, {"cliques": 12, "smin": 3, "smax": 5}, seed=seed)
    rng = np.random.default_rng(seed)
    have = {frozenset(toc.edge_ids(e)) for e in range(toc.m)}
    records = [toc.edge_ids(e) for e in range(toc.m)]
    while len(records) < toc.m + 40:
        u, v = (str(x) for x in rng.choice(toc.ids, 2, replace=False))
        if frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            records.append((u, v))
    buf = io.StringIO()
    cx.write_edge_tsv(cx.build_graph(records), buf)
    path.write_text(buf.getvalue())
    return path


def _clustered_text(seed, n, m, smin=4, smax=6):
    """Edge TSV of a tree of cliques on n nodes plus random chords up to m
    edges: each clique (smin..smax nodes, the last cut to fit) shares one
    node with a uniformly chosen earlier one; clique edges weigh 1, chords
    1..4.  Drawn from `random.Random(seed)`, whose stream is fixed across
    Python versions."""
    rng = random.Random(seed)
    groups, edges, nodes = [], {}, 0
    while nodes < n:
        size = rng.randint(smin, smax)
        if not groups:
            members = list(range(min(size, n)))
        else:
            fresh = min(size - 1, n - nodes)
            members = [rng.choice(rng.choice(groups))] + list(range(nodes, nodes + fresh))
        nodes += len(members) - (1 if groups else 0)
        groups.append(members)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                edges[tuple(sorted((a, b)))] = 1
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, 4)
    return "".join(f"v{u:04d}\tv{v:04d}\t{w}\n" for (u, v), w in edges.items())


#: sha256 of the `skeleton --removal-log` CSV of `_clustered_text(7, 502,
#: 2500)` per objective and tie-break (random with --seed 5): a rewrite of
#: the skeleton loop must keep these bytes
REMOVAL_LOG_SHA256 = {
    ("average_local", "lex"): "08600ea551e7d67ef38de100ce5c5f26d8ed75192b1c8313729085d8334c00bf",
    ("average_local", "random"): "69c77008b2edb887558c4e43e668a6e6935d1bc61c344ab8123e27d1967c2804",
    ("transitivity", "lex"): "43ffa610e2d1c72772ca00d7dddba68a47c918dd5807a2eea3675df06aef3213",
    ("transitivity", "random"): "60b03d0cb5ab004d49b6a53286ac0ce36eb98bd4f8a74f28eefd47a2046925e1",
}


@pytest.mark.parametrize("objective, tie_break", sorted(REMOVAL_LOG_SHA256))
def test_skeleton_removal_logs_are_pinned(tmp_path, objective, tie_break):
    src = tmp_path / "clustered.tsv"
    src.write_text(_clustered_text(7, 502, 2500))
    log = tmp_path / "removed.csv"
    seed = ["--seed", "5"] if tie_break == "random" else []
    r = run("skeleton", "--input", str(src), "--objective", objective, "--tie-break", tie_break,
            *seed, "--output", str(tmp_path / "sk.tsv"), "--removal-log", str(log))
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(log.read_bytes()).hexdigest() == REMOVAL_LOG_SHA256[objective, tie_break]


def _forbid_dense_distances(monkeypatch):
    # the all-pairs BFS behind the n x n distance matrix may not run
    from convexa import _kernels

    def forbidden(*args):
        raise AssertionError("dense distance matrix or adjacency built")

    monkeypatch.setattr(_kernels, "bfs_all", forbidden)


@pytest.mark.parametrize("argv", [
    ["centrality", "--measure", "all"],
    ["rank", "--measure", "closeness"],
    ["skeleton", "--tie-break", "random", "--seed", "1"],
], ids=["centrality", "rank-closeness", "skeleton"])
def test_runs_without_a_distance_matrix(workdir, monkeypatch, argv):
    # closeness and mean distance read the Brandes pass, and the skeleton is
    # a tree of cliques, whose convexity needs no Monte Carlo
    from convexa import cli

    src = _clustered_tsv(workdir / "clustered.tsv")
    _forbid_dense_distances(monkeypatch)
    out = workdir / f"nodense_{argv[0]}.out"
    assert cli.main([argv[0], "--input", str(src), *argv[1:], "--output", str(out)]) == 0
    assert out.exists()


def test_stats_of_a_tree_of_cliques_builds_no_distance_matrix(workdir, monkeypatch):
    import convexa as cx

    g = cx.read_edge_tsv(workdir / "toc.tsv")
    assert cx.is_tree_of_cliques(g)
    _forbid_dense_distances(monkeypatch)
    s = cx.descriptive_stats(g, convexity_runs=5, seed=1)
    assert s.convexity == 1.0 and s.mean_distance > 1.0


def test_compare_builds_distances_once_per_monte_carlo_graph(workdir, monkeypatch):
    # only the graphs whose convexity runs the Monte Carlo build a distance
    # matrix: the skeleton and the MST are trees of cliques
    import importlib

    from convexa import _kernels, cli

    convexity_module = importlib.import_module("convexa.convexity")
    src = _clustered_tsv(workdir / "clustered.tsv")
    bfs_all = mock.Mock(wraps=_kernels.bfs_all)
    mc = mock.Mock(wraps=convexity_module._expansion_totals)
    monkeypatch.setattr(_kernels, "bfs_all", bfs_all)
    monkeypatch.setattr(convexity_module, "_expansion_totals", mc)
    code = cli.main(["compare", "--input", str(src), "--runs", "5", "--seed", "1",
                     "--output-dir", str(workdir / "cmp_mc")])
    assert code == 0
    graphs = {id(call.args[0]) for call in mc.call_args_list}
    assert len(graphs) == mc.call_count >= 2
    assert bfs_all.call_count == mc.call_count


#: runs cli.main, then prints its exit code and which of numpy's random and
#: masked-array submodules the run imported
_IMPORT_PROBE = """
import sys
from convexa import cli
code = cli.main(sys.argv[1:])
print(code, *[m for m in ("numpy.random", "numpy.ma") if m in sys.modules])
"""


@pytest.mark.parametrize("argv", [
    ["convexity", "--runs", "5", "--output", "OUT.csv"],
    ["compare", "--runs", "5", "--output-dir", "OUT"],
    ["skeleton", "--tie-break", "random", "--output", "OUT.tsv"],
    ["backbone", "--kind", "mst", "--tie-break", "random", "--output", "OUT.tsv"],
], ids=lambda argv: argv[0])
def test_random_runs_import_neither_numpy_random_nor_numpy_ma(workdir, argv):
    # draws come from convexa's own stream; only generate uses numpy.random.
    # A 4-cycle is no tree of cliques, so its convexity runs the Monte Carlo,
    # and its four equal edges tie
    out = str(workdir / f"probe_{argv[0]}")
    argv = [a.replace("OUT", out) for a in argv]
    r = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, argv[0], "--input", str(workdir / "c4.tsv"),
         "--seed", "3", *argv[1:]],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "0"


def test_cli_import_leaves_logging_out():
    # the library is silent; the CLI prints its own warnings
    r = subprocess.run(
        [sys.executable, "-c", "import sys, convexa.cli; print('logging' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["stats", "--runs", "5"],
    ["convexity", "--runs", "5", "--seed", "1"],
    ["centrality", "--measure", "degree"],
])
def test_self_loop_records_are_dropped_with_a_warning(workdir, argv):
    tsv = workdir / "loops.tsv"
    tsv.write_text("a\tb\nb\tb\nb\tc\nc\td\na\td\nd\td\n")
    out = workdir / f"loops_{argv[0]}.csv"
    r = run(argv[0], "--input", str(tsv), *argv[1:], "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stderr == "warning: dropped 2 self-loop record(s)\n"
    assert out.exists()


def test_skeleton_failed_write_leaves_no_file(workdir):
    # the removal log and the primary output are written all or nothing
    log = workdir / "sk_fail_log.csv"
    r = run("skeleton", "--input", str(workdir / "toc.tsv"),
            "--removal-log", str(log), "--output", str(workdir / "nodir" / "out.tsv"))
    assert r.returncode == 2
    assert str(workdir / "nodir" / "out.tsv") in r.stderr
    assert ".convexa-" not in r.stderr
    assert not log.exists()
    out = workdir / "sk_fail_out.tsv"
    r = run("skeleton", "--input", str(workdir / "toc.tsv"),
            "--removal-log", str(workdir / "nodir" / "log.csv"), "--output", str(out))
    assert r.returncode == 2
    assert str(workdir / "nodir" / "log.csv") in r.stderr
    assert not out.exists()
    assert not (workdir / "sk_fail_out.tsv.meta.json").exists()
    assert not [p for p in os.listdir(workdir) if p.startswith(".convexa-")]


def test_skeleton_log_path_a_directory_keeps_existing_output(workdir):
    # the replace of the log would fail after the output's: it is refused first
    out = workdir / "sk_keep.tsv"
    meta = workdir / "sk_keep.tsv.meta.json"
    out.write_text("old output\n")
    meta.write_text("old meta\n")
    logdir = workdir / "sk_keep_logdir"
    logdir.mkdir()
    r = run("skeleton", "--input", str(workdir / "toc.tsv"),
            "--removal-log", str(logdir), "--output", str(out))
    assert r.returncode == 2
    assert str(logdir) in r.stderr
    assert out.read_text() == "old output\n"
    assert meta.read_text() == "old meta\n"
    assert not os.listdir(logdir)
    assert not [p for p in os.listdir(workdir) if p.startswith(".convexa-")]


@pytest.mark.parametrize("case", ["output", "sidecar", "dot"])
def test_skeleton_log_naming_another_output_is_refused(workdir, case):
    out = workdir / f"sk_same_{case}.tsv"
    log = {"output": str(out), "sidecar": f"{out}.meta.json", "dot": f"{workdir}/./{out.name}"}
    r = run("skeleton", "--input", str(workdir / "toc.tsv"),
            "--output", str(out), "--removal-log", log[case])
    _refused(workdir, r, out)
    assert r.stderr.endswith("names --output or its sidecar\n")


def test_convergence_failure_exits_4(workdir, monkeypatch, capsys):
    import importlib

    from convexa import ConvergenceError, Measure, cli

    centrality = importlib.import_module("convexa.centrality")

    def diverge(g):
        raise ConvergenceError("PageRank did not converge")

    monkeypatch.setitem(centrality._MEASURE_FN, Measure.PAGERANK, diverge)
    out = workdir / "rank_diverged.csv"
    code = cli.main(["rank", "--input", str(workdir / "c4.tsv"), "--measure", "pagerank",
                     "--output", str(out)])
    assert code == 4
    assert capsys.readouterr().err == "error: PageRank did not converge\n"
    assert not out.exists()
    assert not (workdir / (out.name + ".meta.json")).exists()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_outputs_get_mode_from_umask(workdir, umask):
    from convexa import cli

    out = workdir / f"conv_mode_{umask:o}.csv"
    old = os.umask(umask)
    try:
        code = cli.main(["convexity", "--input", str(workdir / "c4.tsv"), "--runs", "5",
                         "--output", str(out)])
    finally:
        os.umask(old)
    assert code == 0
    for path in (out, workdir / (out.name + ".meta.json")):
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask


def test_rank_limits_rows(workdir):
    out = workdir / "rank.csv"
    r = run("rank", "--input", str(workdir / "toc.tsv"), "--measure", "pagerank",
            "--top", "20", "--output", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,node,value"
    assert len(lines) <= 21


def test_rank_top_zero_exit_3(workdir):
    out = workdir / "rank0.csv"
    r = run("rank", "--input", str(workdir / "toc.tsv"), "--measure", "degree",
            "--top", "0", "--output", str(out))
    assert r.returncode == 3
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr
    assert not out.exists()


def test_centrality_all_measures(workdir):
    out = workdir / "cent.csv"
    r = run("centrality", "--input", str(workdir / "tree.tsv"), "--output", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "node,degree,pagerank,betweenness,closeness"
    assert len(lines) == 5


def test_centrality_quotes_ids_with_commas(workdir):
    (workdir / "comma.tsv").write_text('a,b\tc\nc\td\nd\t"q"\n')
    out = workdir / "cent_comma.csv"
    r = run("centrality", "--input", str(workdir / "comma.tsv"), "--output", str(out))
    assert r.returncode == 0, r.stderr
    text = out.read_text()
    rows = list(csv.reader(text.splitlines()))
    assert [row[0] for row in rows] == ["node", "\"q\"", "a,b", "c", "d"]
    assert all(len(row) == 5 for row in rows)
    # plain ids stay unquoted
    assert "\nc,2,0." in text and "\nd,2,0." in text


def test_buildnet_rejects_tab_in_author_id(workdir):
    papers = workdir / "papers_tab.csv"
    papers.write_text('paper_id,author_id\np1,"x\ty"\np1,z\n')
    out = workdir / "net_tab.tsv"
    r = run("buildnet", "--papers", str(papers), "--output", str(out))
    assert r.returncode == 3
    assert "tab or a line break" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_buildnet_rejects_comment_author_id(workdir):
    papers = workdir / "papers_hash.csv"
    papers.write_text("paper_id,author_id\np1,#x\np1,y\np2,y\np2,z\n")
    out = workdir / "net_hash.tsv"
    r = run("buildnet", "--papers", str(papers), "--output", str(out))
    assert r.returncode == 3
    assert "'#x'" in r.stderr and "Traceback" not in r.stderr
    assert not out.exists()


def test_a_leading_byte_order_mark_is_not_part_of_the_input(workdir):
    # Excel's "CSV UTF-8" starts the file with one
    for cmd, flag, src in (("buildnet", "--papers", "papers.csv"),
                           ("centrality", "--input", "tree.tsv")):
        bom = workdir / f"bom_{src}"
        bom.write_bytes(b"\xef\xbb\xbf" + (workdir / src).read_bytes())
        outs = []
        for path in (workdir / src, bom):
            out = workdir / f"bom_{cmd}_{path.name}.out"
            r = run(cmd, flag, str(path), "--output", str(out))
            assert r.returncode == 0, r.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def test_buildnet_fractional_toy(workdir):
    out = workdir / "net.tsv"
    r = run("buildnet", "--papers", str(workdir / "papers.csv"),
            "--paper-meta", str(workdir / "paper_meta.csv"),
            "--scheme", "fractional", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = {}
    for line in out.read_text().splitlines():
        u, v, w = line.split("\t")
        rows[(u, v)] = float(w)
    # p1 {a,b,c} fractional 0.5 each pair; p2 {a,b} adds 1.0; p3 solo
    assert rows == {("a", "b"): 1.5, ("a", "c"): 0.5, ("b", "c"): 0.5}


def test_buildnet_counts_the_isolated_authors(workdir):
    # d has only a solo paper: a node of the network, but in no edge
    import convexa as cx

    out = workdir / "net_iso.tsv"
    r = run("buildnet", "--papers", str(workdir / "papers.csv"), "--output", str(out))
    assert r.returncode == 0, r.stderr
    config = json.loads((workdir / "net_iso.tsv.meta.json").read_text())["config"]
    assert (config["nodes"], config["edges"], config["isolated"]) == (4, 3, 1)
    assert "4 nodes, 3 edges, 1 isolated" in r.stdout
    assert cx.read_edge_tsv(out).n == config["nodes"] - config["isolated"]


def test_buildnet_year_filter(workdir):
    out = workdir / "net2.tsv"
    r = run("buildnet", "--papers", str(workdir / "papers.csv"),
            "--paper-meta", str(workdir / "paper_meta.csv"),
            "--scheme", "full", "--year-min", "2000", "--output", str(out))
    assert r.returncode == 0
    rows = [l.split("\t") for l in out.read_text().splitlines()]
    assert len(rows) == 3 and all(r[2] == "1" for r in rows)  # only p1 kept


@pytest.mark.parametrize("meta", [None, b"paper_id,venue\np1,X\np2,Y\n"],
                         ids=["no-paper-meta", "meta-without-year"])
@pytest.mark.parametrize("bound", ["--year-min", "--year-max"])
def test_buildnet_year_bound_without_years_is_refused(workdir, meta, bound):
    argv = ["buildnet", "--papers", str(workdir / "papers.csv")]
    if meta is not None:
        path = workdir / "paper_meta_no_year.csv"
        path.write_bytes(meta)
        argv += ["--paper-meta", str(path)]
    out = workdir / f"net_no_years_{bound}_{meta is None}.tsv"
    r = run(*argv, bound, "2000", "--output", str(out))
    _refused(workdir, r, out)
    assert "no paper has a year" in r.stderr


def test_distributions_pipeline(workdir):
    out = workdir / "dist.csv"
    r = run("distributions", "--input", str(workdir / "net.tsv")
            if (workdir / "net.tsv").exists() else str(workdir / "tree.tsv"),
            "--authors", str(workdir / "authors.csv"),
            "--expr", "ABS_DIFF(birth_year)", "--bin-width", "10",
            "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().startswith("bin_low,bin_high,skeleton_weight,remainder_weight")


def test_distributions_binned_missing_row_fills_bin_columns(workdir):
    (workdir / "path4.tsv").write_text("a\tb\nb\tc\nc\td\n")
    authors = workdir / "authors_gap.csv"
    authors.write_text("author_id,birth_year\na,1960\nb,1980\nc,\nd,1990\n")
    out = workdir / "dist_gap.csv"
    r = run("distributions", "--input", str(workdir / "path4.tsv"),
            "--authors", str(authors), "--expr", "ABS_DIFF(birth_year)",
            "--bin-width", "10", "--output", str(out))
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["bin_low", "bin_high", "skeleton_weight", "remainder_weight"]
    assert rows[-1] == ["MISSING", "", "2", "0"]
    assert all(len(row) == 4 for row in rows)


def test_distributions_same_category(workdir):
    out = workdir / "dist_same.csv"
    r = run("distributions", "--input", str(workdir / "tree.tsv"),
            "--authors", str(workdir / "authors.csv"),
            "--expr", "SAME(gender)", "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert out.read_text().startswith("category,skeleton_weight,remainder_weight")


@pytest.mark.parametrize("expr, flags, origin", [
    ("SAME(gender)", [], None),
    ("ABS_DIFF(birth_year)", [], None),
    ("ABS_DIFF(birth_year)", ["--bin-width", "10"], 0.0),
], ids=["same", "numeric-categories", "numeric-bins"])
def test_distributions_sidecar_bin_origin_only_with_numeric_bins(workdir, expr, flags, origin):
    out = workdir / f"dist_origin_{'_'.join([expr[:4], *flags])}.csv"
    r = run("distributions", "--input", str(workdir / "tree.tsv"),
            "--authors", str(workdir / "authors.csv"), "--expr", expr, *flags,
            "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads((workdir / (out.name + ".meta.json")).read_text())["config"]["bin_origin"] == origin


def test_distributions_category_labels_are_formatted(workdir):
    # categories go through fmt like every other number: 5 and 19.5, not 5.0
    authors = workdir / "authors_half.csv"
    authors.write_text("author_id,birth_year,gender\na,1960.5,F\nb,1980,F\nc,1975,M\nd,1990,M\n")
    texts = []
    for expr in ("ABS_DIFF(birth_year)", "SAME(gender)"):
        out = workdir / f"dist_labels_{expr[:4]}.csv"
        r = run("distributions", "--input", str(workdir / "tree.tsv"), "--authors", str(authors),
                "--expr", expr, "--output", str(out))
        assert r.returncode == 0, r.stderr
        texts.append(out.read_text())
    head = "category,skeleton_weight,remainder_weight\n"
    assert texts == [head + "5,1,0\n10,1,0\n19.5,1,0\n", head + "False,2,0\nTrue,1,0\n"]


def test_distributions_of_a_skeleton_file_match_extracting_it(workdir):
    # `skeleton --output SK` then `distributions --skeleton SK` bins as
    # `distributions` extracting the same skeleton itself
    net = workdir / "diamond.tsv"
    net.write_text("a\tb\t2\na\td\nb\tc\nb\td\t3\nc\td\n")
    sk = workdir / "diamond_sk.tsv"
    skel = ["--objective", "average_local", "--tie-break", "random"]
    r = run("skeleton", "--input", str(net), "--seed", "3", *skel,
            "--output", str(sk))
    assert r.returncode == 0, r.stderr
    common = ["--input", str(net), "--authors", str(workdir / "authors.csv"),
              "--expr", "ABS_DIFF(birth_year)", "--bin-width", "10"]
    from_file, extracted = workdir / "dist_file.csv", workdir / "dist_extracted.csv"
    r = run("distributions", *common, "--skeleton", str(sk), "--output", str(from_file))
    assert r.returncode == 0, r.stderr
    r = run("distributions", *common, "--seed", "3", *skel, "--output", str(extracted))
    assert r.returncode == 0, r.stderr
    assert from_file.read_bytes() == extracted.read_bytes()
    rows = list(csv.reader(from_file.read_text().splitlines()))[1:]
    assert any(float(row[3]) for row in rows)  # the remainder is not empty


def test_distributions_rejects_skeleton_listing_an_edge_twice(workdir):
    (workdir / "path4.tsv").write_text("a\tb\nb\tc\nc\td\n")
    sk = workdir / "sk_twice.tsv"
    sk.write_text("a\tb\t1\t1\nb\ta\t1\t0\nb\tc\t1\t1\n")  # (c, d) missing
    out = workdir / "dist_twice.csv"
    r = run("distributions", "--input", str(workdir / "path4.tsv"), "--skeleton", str(sk),
            "--authors", str(workdir / "authors.csv"), "--expr", "SAME(gender)",
            "--output", str(out))
    assert r.returncode == 3 and "listed twice" in r.stderr
    assert not out.exists()


def test_generate_deterministic_bytes(workdir):
    a, b = workdir / "g1.tsv", workdir / "g2.tsv"
    for out in (a, b):
        r = run("generate", "--kind", "tree_of_cliques", "--cliques", "5",
                "--seed", "1", "--output", str(out))
        assert r.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_env_seed_override(workdir):
    out1, out2 = workdir / "e1.csv", workdir / "e2.csv"
    r = run("convexity", "--input", str(workdir / "toc.tsv"), "--runs", "5",
            "--output", str(out1), env={"CONVEXA_SEED": "123"})
    assert r.returncode == 0
    meta = json.loads((workdir / "e1.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 123
    # explicit flag beats the env var
    r = run("convexity", "--input", str(workdir / "toc.tsv"), "--runs", "5",
            "--seed", "9", "--output", str(out2), env={"CONVEXA_SEED": "123"})
    meta = json.loads((workdir / "e2.csv.meta.json").read_text())
    assert meta["config"]["seed"] == 9


def test_json_format(workdir):
    out = workdir / "conv.json"
    r = run("convexity", "--input", str(workdir / "c4.tsv"), "--format", "json",
            "--output", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["x"] == 0.75
    assert len(doc["profile"]) == 4


def test_stats_subcommand(workdir):
    out = workdir / "stats.csv"
    r = run("stats", "--input", str(workdir / "c4.tsv"), "--runs", "20",
            "--seed", "3", "--output", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert "convexity,0.75" in text
    assert "assortativity,NA" in text


def test_backbone_subcommand(workdir):
    out = workdir / "bb.tsv"
    r = run("backbone", "--input", str(workdir / "toc.tsv"), "--kind", "mst",
            "--output", str(out))
    assert r.returncode == 0
    flagged = [l for l in out.read_text().splitlines() if l.endswith("\t1")]
    meta = json.loads((workdir / "bb.tsv.meta.json").read_text())
    assert len(flagged) == meta["config"]["m"]


def _refused(workdir, r, out):
    """Exit 3, one `error:` line on stderr, and nothing written."""
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("error: ") and len(r.stderr.splitlines()) == 1
    assert not out.exists()
    assert not (workdir / (out.name + ".meta.json")).exists()


@pytest.mark.parametrize(
    "flags",
    [["--bin-width", "0"], ["--bin-width", "-5"], ["--bin-width", "nan"],
     ["--bin-width", "5", "--bin-origin", "nan"], ["--bin-width", "1e-320"]],
    ids=["width-0", "width-negative", "width-nan", "origin-nan", "width-overflows"],
)
def test_distributions_rejects_bad_bins(workdir, flags):
    out = workdir / f"dist_bad_{'_'.join(flags)}.csv"
    r = run("distributions", "--input", str(workdir / "tree.tsv"),
            "--authors", str(workdir / "authors.csv"), "--expr", "ABS_DIFF(birth_year)",
            *flags, "--output", str(out))
    _refused(workdir, r, out)


@pytest.mark.parametrize("expr, flags", [
    ("ABS_DIFF(birth_year)", ["--bin-origin", "3"]),
    ("SAME(gender)", ["--bin-origin", "2"]),
    ("SAME(gender)", ["--bin-width", "5"]),
    ("SAME(gender)", ["--bin-width", "5", "--bin-origin", "2"]),
], ids=["origin-without-width", "same-origin", "same-width", "same-width-origin"])
def test_distributions_bin_flags_that_would_be_ignored_are_refused(workdir, expr, flags):
    out = workdir / f"dist_ignored_{expr[:4]}_{'_'.join(flags)}.csv"
    r = run("distributions", "--input", str(workdir / "tree.tsv"),
            "--authors", str(workdir / "authors.csv"), "--expr", expr, *flags,
            "--output", str(out))
    _refused(workdir, r, out)
    assert "would be ignored" in r.stderr


def test_distributions_sidecar_records_the_bin_origin(workdir):
    # two runs that differ only in --bin-origin write different CSVs
    metas = []
    for origin in ("0", "2"):
        out = workdir / f"dist_origin_{origin}.csv"
        r = run("distributions", "--input", str(workdir / "tree.tsv"),
                "--authors", str(workdir / "authors.csv"), "--expr", "ABS_DIFF(birth_year)",
                "--bin-width", "10", "--bin-origin", origin, "--output", str(out))
        assert r.returncode == 0, r.stderr
        metas.append((workdir / (out.name + ".meta.json")).read_text())
    assert metas[0] != metas[1]
    assert json.loads(metas[1])["config"]["bin_origin"] == 2.0


@pytest.mark.parametrize("kind", ["mst", "skeleton"])
def test_backbone_m_without_a_budget_is_refused(workdir, kind):
    # only the top-m kinds have an edge budget
    out = workdir / f"bb_m_{kind}.tsv"
    r = run("backbone", "--input", str(workdir / "toc.tsv"), "--kind", kind,
            "--m", "3", "--output", str(out))
    _refused(workdir, r, out)


#: case -> argv of a run that extracts no skeleton but is given a flag that
#: steers extraction (SK stands for a skeleton file)
SKELETON_FLAG_IGNORED = {
    "backbone-mst": ["backbone", "--kind", "mst", "--objective", "average_local"],
    "backbone-top-m": ["backbone", "--kind", "betweenness", "--m", "3", "--objective", "transitivity"],
    "compare-mst": ["compare", "--backbones", "mst", "--objective", "average_local"],
    "compare-none": ["compare", "--backbones", "", "--tie-break", "random"],
    "distributions-objective": ["distributions", "--skeleton", "SK", "--objective", "average_local"],
    "distributions-tie-break": ["distributions", "--skeleton", "SK", "--tie-break", "lex"],
}


@pytest.mark.parametrize("case", sorted(SKELETON_FLAG_IGNORED))
def test_skeleton_flags_without_a_skeleton_are_refused(workdir, case):
    argv = list(SKELETON_FLAG_IGNORED[case])
    if argv[0] == "distributions":
        sk = workdir / "sk_given.tsv"
        r = run("skeleton", "--input", str(workdir / "toc.tsv"), "--output", str(sk))
        assert r.returncode == 0, r.stderr
        argv = [str(sk) if a == "SK" else a for a in argv]
        argv += ["--authors", str(workdir / "authors.csv"), "--expr", "SAME(gender)"]
    out = workdir / f"ignored_flag_{case}"
    target = "--output-dir" if argv[0] == "compare" else "--output"
    r = run(*argv, "--input", str(workdir / "toc.tsv"), target, str(out))
    _refused(workdir, r, out)
    assert "would be ignored" in r.stderr


@pytest.mark.parametrize("kind, objective", [
    ("mst", None), ("betweenness", "transitivity"), ("skeleton", "transitivity"),
])
def test_backbone_sidecar_records_objective_only_where_used(workdir, kind, objective):
    out = workdir / f"bb_objective_{kind}.tsv"
    r = run("backbone", "--input", str(workdir / "toc.tsv"), "--kind", kind,
            "--output", str(out))
    assert r.returncode == 0, r.stderr
    config = json.loads((workdir / (out.name + ".meta.json")).read_text())["config"]
    assert config["objective"] == objective and config["tie_break"] == "lex"


#: case -> argv of a run that draws no random numbers (IN and TREE stand for
#: input graphs, SK for the skeleton file of TREE)
UNSEEDED = {
    "skeleton": ["skeleton", "--input", "IN"],
    "skeleton-lex": ["skeleton", "--input", "IN", "--tie-break", "lex"],
    "backbone-mst": ["backbone", "--input", "IN", "--kind", "mst"],
    "backbone-mst-lex": ["backbone", "--input", "IN", "--kind", "mst", "--tie-break", "lex"],
    **{f"backbone-{kind}": ["backbone", "--input", "IN", "--kind", kind]
       for kind in ("skeleton", "betweenness", "embeddedness")},
    **{f"backbone-{kind}-m": ["backbone", "--input", "IN", "--kind", kind, "--m", "3"]
       for kind in ("betweenness", "embeddedness")},
    "distributions-skeleton": ["distributions", "--input", "TREE", "--skeleton", "SK",
                               "--authors", "AUTHORS", "--expr", "SAME(gender)"],
    "distributions-extracting": ["distributions", "--input", "TREE",
                                 "--authors", "AUTHORS", "--expr", "SAME(gender)"],
    **{f"generate-{kind}": ["generate", "--kind", kind, "--n", "5"]
       for kind in ("path", "cycle", "complete", "star")},
    "generate-triangular_lattice": ["generate", "--kind", "triangular_lattice",
                                    "--rows", "2", "--cols", "3"],
}


@pytest.mark.parametrize("case", sorted(UNSEEDED))
def test_seed_is_refused_and_null_where_nothing_is_random(workdir, case):
    sk = workdir / "sk_unseeded.tsv"
    if not sk.exists():
        r = run("skeleton", "--input", str(workdir / "tree.tsv"), "--output", str(sk))
        assert r.returncode == 0, r.stderr
    paths = {"IN": workdir / "toc.tsv", "TREE": workdir / "tree.tsv", "SK": sk,
             "AUTHORS": workdir / "authors.csv"}
    argv = [str(paths.get(a, a)) for a in UNSEEDED[case]]
    out = workdir / f"unseeded_{case}"
    r = run(*argv, "--seed", "3", "--output", str(out))
    _refused(workdir, r, out)
    assert "--seed would be ignored" in r.stderr
    # $CONVEXA_SEED is not read either, not even to check it
    r = run(*argv, "--output", str(out), env={"CONVEXA_SEED": "not-a-number"})
    assert r.returncode == 0, r.stderr
    assert json.loads((workdir / (out.name + ".meta.json")).read_text())["config"]["seed"] is None


@pytest.mark.parametrize("argv", [
    ["backbone", "--input", "IN", "--kind", "mst", "--tie-break", "random"],
    ["generate", "--kind", "er_random", "--n", "5", "--p", "0.5"],
], ids=["backbone-mst-random", "generate-er_random"])
def test_seed_is_recorded_where_it_is_drawn_from(workdir, argv):
    argv = [str(workdir / "toc.tsv") if a == "IN" else a for a in argv]
    out = workdir / f"seeded_{argv[0]}"
    r = run(*argv, "--seed", "3", "--output", str(out))
    assert r.returncode == 0, r.stderr
    assert json.loads((workdir / (out.name + ".meta.json")).read_text())["config"]["seed"] == 3


#: case -> argv of a run that draws random numbers (C4 stands for the
#: 4-cycle, whose convexity runs the Monte Carlo, OUT for the output path)
DRAWING = {
    "convexity": ["convexity", "--input", "C4", "--runs", "5", "--output", "OUT"],
    "compare": ["compare", "--input", "C4", "--runs", "5", "--output-dir", "OUT"],
    "skeleton-random": ["skeleton", "--input", "C4", "--tie-break", "random", "--output", "OUT"],
    "backbone-mst-random": ["backbone", "--input", "C4", "--kind", "mst",
                            "--tie-break", "random", "--output", "OUT"],
    "generate-er_random": ["generate", "--kind", "er_random", "--n", "5", "--p", "0.5",
                           "--output", "OUT"],
}


@pytest.mark.parametrize("case", sorted(DRAWING))
def test_negative_seed_is_refused(workdir, case):
    out = workdir / f"negative_seed_{case}"
    paths = {"C4": workdir / "c4.tsv", "OUT": out}
    argv = [str(paths.get(a, a)) for a in DRAWING[case]]
    r = run(*argv, "--seed", "-1")
    _refused(workdir, r, out)
    assert "--seed must be a non-negative integer" in r.stderr


def test_negative_env_seed_is_refused(workdir):
    out = workdir / "negative_env_seed.csv"
    r = run("convexity", "--input", str(workdir / "c4.tsv"), "--runs", "5",
            "--output", str(out), env={"CONVEXA_SEED": "-1"})
    _refused(workdir, r, out)
    assert "CONVEXA_SEED must be a non-negative integer" in r.stderr


@pytest.mark.parametrize("argv", [
    ["--kind", "star", "--n", "4", "--smin", "2", "--cliques", "9", "--p", "0.3"],
    ["--kind", "complete", "--n", "-5"],
], ids=["star-unused-params", "complete-negative-n"])
def test_generate_refuses_bad_parameters(workdir, argv):
    out = workdir / f"gen_refused_{argv[1]}.tsv"
    _refused(workdir, run("generate", *argv, "--output", str(out)), out)


#: case -> (the input it replaces, that input's bytes, extra flags)
MALFORMED = {
    "empty-papers": ("papers", b"", []),
    "empty-paper-meta": ("paper-meta", b"", []),
    "empty-authors": ("authors", b"", []),
    "papers-row-without-author": ("papers", b"paper_id,author_id\np1,a\np1\n", []),
    "papers-blank-author": ("papers", b"paper_id,author_id\np1,a\np1,\np1,b\n", []),
    "papers-blank-paper-id": ("papers", b"paper_id,author_id\np1,a\n,b\n", []),
    "year-min-not-a-number": (
        "paper-meta", b"paper_id,year\np1,2001\np2,soon\n", ["--year-min", "2000"]),
    "year-max-not-a-number": (
        "paper-meta", b"paper_id,year\np1,2001\np2,soon\n", ["--year-max", "2005"]),
    "papers-not-utf8": ("papers", b"paper_id,author_id\np1,a\np1,\xff\n", []),
    "authors-not-utf8": ("authors", b"author_id,gender\na,F\n\xe9,M\n", []),
    "edges-not-utf8": ("input", b"a\tb\nb\t\xe9\n", []),
    "edges-empty-id": ("input", b"a\tb\nb\t\n", []),
    "attribute-not-a-number": (
        "authors", b"author_id,gender\na,F\nb,F\nc,M\nd,M\n", ["--bin-width", "5"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_3(workdir, case):
    role, data, extra = MALFORMED[case]
    bad = workdir / f"malformed_{case}"
    bad.write_bytes(data)
    out = workdir / f"malformed_{case}.out"
    if role in ("papers", "paper-meta"):
        files = {"papers": workdir / "papers.csv", "paper-meta": workdir / "paper_meta.csv"}
        cmd = ["buildnet"]
    else:
        files = {"input": workdir / "tree.tsv", "authors": workdir / "authors.csv"}
        expr = "ABS_DIFF(gender)" if case == "attribute-not-a-number" else "SAME(gender)"
        cmd = ["distributions", "--expr", expr]
    files[role] = bad
    argv = [*cmd, *(a for k, p in files.items() for a in (f"--{k}", str(p)))]
    _refused(workdir, run(*argv, *extra, "--output", str(out)), out)


@pytest.mark.parametrize("role,data", [
    # keeping the later row would date p1 1999 and drop it under --year-min
    ("paper-meta", b"paper_id,year\np1,2001\np1,1999\n"),
    ("authors", b"author_id,gender\na,F\nb,F\nc,M\nd,M\na,M\n"),
], ids=["paper-meta", "authors"])
def test_attribute_id_listed_twice_names_its_line(workdir, role, data):
    bad = workdir / f"twice_{role}.csv"
    bad.write_bytes(data)
    out = workdir / f"twice_{role}.out"
    if role == "paper-meta":
        argv = ["buildnet", "--papers", str(workdir / "papers.csv"), "--year-min", "2000"]
        line, key = 3, "paper_id 'p1'"
    else:
        argv = ["distributions", "--input", str(workdir / "tree.tsv"), "--expr", "SAME(gender)"]
        line, key = 6, "author_id 'a'"
    r = run(*argv, f"--{role}", str(bad), "--output", str(out))
    _refused(workdir, r, out)
    assert r.stderr == f"error: {bad}:{line}: {key} is listed twice\n"


@pytest.mark.parametrize("weight", ["0", "-1", "nan", "inf"])
def test_edge_weight_that_is_not_positive_and_finite_names_its_line(workdir, weight):
    bad = workdir / f"weight_{weight}.tsv"
    bad.write_text(f"a\tb\t{weight}\n")
    out = workdir / f"weight_{weight}.out"
    r = run("stats", "--input", str(bad), "--output", str(out))
    _refused(workdir, r, out)
    assert r.stderr == f"error: {bad}:1: weight {weight!r} is not a positive finite number\n"


@pytest.mark.parametrize("argv", [
    ["compare", "--format", "json", "--output-dir"],
    ["centrality", "--seed", "1", "--output"],
    ["rank", "--measure", "degree", "--seed", "1", "--output"],
    ["buildnet", "--seed", "1", "--output"],
], ids=["compare-format", "centrality-seed", "rank-seed", "buildnet-seed"])
def test_flags_that_would_be_ignored_are_refused(workdir, argv):
    # these subcommands draw no random numbers, and compare writes only CSV
    src = "papers.csv" if argv[0] == "buildnet" else "c4.tsv"
    out = workdir / f"ignored_{argv[0]}"
    flag = "--papers" if argv[0] == "buildnet" else "--input"
    r = run(argv[0], flag, str(workdir / src), *argv[1:], str(out))
    assert r.returncode == 2 and "unrecognized arguments" in r.stderr
    assert not out.exists()
