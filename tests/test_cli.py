import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

CLI = [sys.executable, "-m", "convexa"]


def run(*args, env=None, cwd=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    if cwd is not None and e.get("PYTHONPATH"):
        # a relative entry, as in PYTHONPATH=src, names its directory from here
        e["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, e["PYTHONPATH"].split(os.pathsep)))
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
    first = f"{out}.meta.json" if case == "sidecar" else str(out)
    assert r.stderr == f"error: output {log[case]} would replace output {first}\n"


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


def test_papers_pair_listed_twice_names_its_line(workdir):
    # the row, not only the paper: build_coauthorship sees no lines
    bad = workdir / "twice_papers.csv"
    bad.write_text("paper_id,author_id\np1,a\np1,b\np2,a\np1,a\n")
    out = workdir / "twice_papers.out"
    r = run("buildnet", "--papers", str(bad), "--output", str(out))
    _refused(workdir, r, out)
    assert r.stderr == f"error: {bad}:5: paper 'p1' lists author 'a' twice\n"


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


# ---------------------------------------------------------------------------
# every file a run writes, and the files it may not write over

#: small fixed inputs, written into each run's own directory: a graph that
#: is no tree of cliques, so its convexity runs the Monte Carlo and its
#: skeleton removes edges, with its papers and its authors
_FILES = {
    "g.tsv": "a\tb\t2\nb\tc\nc\ta\nc\td\nd\te\ne\tf\nf\tc\nd\tf\t0.5\nf\tg\ng\th\nh\ta\n",
    "papers.csv": "paper_id,author_id\np1,a\np1,b\np1,c\np2,a\np2,b\np3,c\np3,d\np4,d\n",
    "paper_meta.csv": "paper_id,year\np1,2001\np2,1998\np3,2010\np4,2005\n",
    "authors.csv": "author_id,birth_year,gender\na,1960,F\nb,1980,F\nc,1975,M\nd,1990,M\n"
                   "e,1985,F\nf,1970,M\ng,1965,F\nh,1995,M\n",
}


def _tree_bytes(root):
    """{path relative to root: bytes, or the target of a symlink}."""
    tree = {}
    for p in Path(root).rglob("*"):
        if p.is_symlink():
            tree[str(p.relative_to(root))] = os.readlink(p)
        elif p.is_file():
            tree[str(p.relative_to(root))] = p.read_bytes()
    return tree


#: every subcommand on the inputs of `_FILES`, with relative paths, since a
#: sidecar records the path arguments
_PINNED_RUNS = {
    "convexity": ["convexity", "--input", "g.tsv", "--runs", "7", "--seed", "3",
                  "--output", "conv.csv"],
    "skeleton": ["skeleton", "--input", "g.tsv", "--tie-break", "random", "--seed", "2",
                 "--output", "sk.tsv", "--removal-log", "log.csv"],
    "backbone": ["backbone", "--input", "g.tsv", "--kind", "betweenness", "--format", "json",
                 "--output", "bb.json"],
    "compare": ["compare", "--input", "g.tsv", "--runs", "5", "--seed", "4",
                "--output-dir", "cmp"],
    "centrality": ["centrality", "--input", "g.tsv", "--output", "cent.csv"],
    "rank": ["rank", "--input", "g.tsv", "--measure", "pagerank", "--top", "5",
             "--format", "json", "--output", "rank.json"],
    "buildnet": ["buildnet", "--papers", "papers.csv", "--paper-meta", "paper_meta.csv",
                 "--year-min", "2000", "--scheme", "full", "--output", "net.tsv"],
    "distributions": ["distributions", "--input", "g.tsv", "--authors", "authors.csv",
                      "--expr", "ABS_DIFF(birth_year)", "--bin-width", "10",
                      "--output", "dist.csv"],
    "generate": ["generate", "--kind", "er_random", "--n", "12", "--p", "0.3", "--seed", "5",
                 "--output", "gen.tsv"],
    "stats": ["stats", "--input", "g.tsv", "--runs", "5", "--seed", "6", "--output", "st.csv"],
}

#: sha256 of every file each run of `_PINNED_RUNS` writes
_PINNED = {
    "convexity": {
        "conv.csv": "094b0670b79a5e5dfeb3b1108765bf64ff341ba46b1edda99766d1bb5235a816",
        "conv.csv.meta.json": "3f103bc4e29c5207b04c9ba57f3b332e02cb2b71be776b85aad12125a6209b75",
    },
    "skeleton": {
        "log.csv": "197a085558821390e0c6d4ef9bf5c0eb164a7dd512ef23c04b8748bd617ed070",
        "sk.tsv": "a6e59ec6ba4244222670cdb685e9c0b8ab1d66365ce134f065b4d9acccbea66b",
        "sk.tsv.meta.json": "78afb3fe0104ff1ecd4451eaec61d42d5a8f98270d7cee37d862f3f377a3b013",
    },
    "backbone": {
        "bb.json": "08c7e1a08dfca4b385b01541abe7e00990edc2c8c8e0c79d42c1734729c401a1",
        "bb.json.meta.json": "728a41deea50407653589733e58bf20b42de4bee1f0897350fdbbd9c3ca5c77e",
    },
    "compare": {
        "cmp/corr_betweenness.csv": "330506aaf249347c3890c6b16c4b231571fdfc8e3de90f35fe907e734e879285",
        "cmp/corr_betweenness.csv.meta.json": "343b008fe435f9072ae9085449e90afad5616eeff456fde86ea9c1cfd60befa4",
        "cmp/corr_embeddedness.csv": "a105f39c694a5a26728fd5304be8d1867e92f8532881fda4a65c6dc6c1880557",
        "cmp/corr_embeddedness.csv.meta.json": "343b008fe435f9072ae9085449e90afad5616eeff456fde86ea9c1cfd60befa4",
        "cmp/corr_mst.csv": "4f783c7721738553f2dee582d4e5cce572d985d90108a762992aacc903d9c096",
        "cmp/corr_mst.csv.meta.json": "343b008fe435f9072ae9085449e90afad5616eeff456fde86ea9c1cfd60befa4",
        "cmp/corr_skeleton.csv": "56c47a419f41c6e5e45b248ceae466b953e1fa0aba0b159948de7c6bc8710b86",
        "cmp/corr_skeleton.csv.meta.json": "343b008fe435f9072ae9085449e90afad5616eeff456fde86ea9c1cfd60befa4",
        "cmp/stats.csv": "bfc70e3dd32c68c40242db3225396a1d75f4f17358e2643cae362823f09e50ef",
        "cmp/stats.csv.meta.json": "343b008fe435f9072ae9085449e90afad5616eeff456fde86ea9c1cfd60befa4",
    },
    "centrality": {
        "cent.csv": "b9f422be93660622a4b27c77d66af508219ca7bfb5e4ec51cb170c61b04bcf67",
        "cent.csv.meta.json": "559e6813cc774f877a6e09fe523a3e8fc97feeef297501b5167dd73613a0c93a",
    },
    "rank": {
        "rank.json": "9323df330825a18353b5f7234fb25891b81379c0e794fcbbedd7e8fea51523b4",
        "rank.json.meta.json": "0f343f8a97ab80279c69a85368630294019c895113997712998a7d80399181c5",
    },
    "buildnet": {
        "net.tsv": "bfc004409057ea0257d9aea79d8581ffc98f0c6d8f36d5e69a94f24b39e81641",
        "net.tsv.meta.json": "1587ba1d0ea977ba516860745c13128ae089f19703081ce2d47c2d4fa6e563c4",
    },
    "distributions": {
        "dist.csv": "f5d75793894bc2cb3abdda242e95a6b1980af151fb2ad9244c66240d06243afb",
        "dist.csv.meta.json": "796015e0653920a404f0c08a422a6f9f750740b738595277a31d44e06c1f51c2",
    },
    "generate": {
        "gen.tsv": "138c8dc0fd0c26eb7d94c56af3e338c1b07b3baa53b59d9c8cfc6d85a7164684",
        "gen.tsv.meta.json": "6adf7f4a74823b83a23dca805dd82f165b342343e0b617d4748c6987c9f8fb29",
    },
    "stats": {
        "st.csv": "311e4927c31829c20767a29c87af41a7536a71b5e19553ff427a29dd5594e8e3",
        "st.csv.meta.json": "ff48f6a51dc8414ffff6a0c932736da96f650be92afc64276d8bf4dd1b8a78d8",
    },
}


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_every_written_file_keeps_its_bytes(tmp_path, name):
    for fname, text in _FILES.items():
        (tmp_path / fname).write_text(text)
    r = run(*_PINNED_RUNS[name], cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    written = {
        rel: hashlib.sha256(data).hexdigest()
        for rel, data in _tree_bytes(tmp_path).items() if rel not in _FILES
    }
    assert written == _PINNED[name]


@pytest.fixture(scope="module")
def refusal_inputs(tmp_path_factory):
    """`_FILES` plus a skeleton TSV of g.tsv, the graph again as
    cmp/stats.csv and as x.csv.meta.json, and link.tsv, a symlink to g.tsv."""
    d = tmp_path_factory.mktemp("refusal")
    for fname, text in _FILES.items():
        (d / fname).write_text(text)
    r = run("skeleton", "--input", "g.tsv", "--output", "sk.tsv", cwd=d)
    assert r.returncode == 0, r.stderr
    (d / "sk.tsv.meta.json").unlink()
    (d / "cmp").mkdir()
    (d / "cmp" / "stats.csv").write_text(_FILES["g.tsv"])
    (d / "x.csv.meta.json").write_text(_FILES["g.tsv"])
    (d / "link.tsv").symlink_to("g.tsv")
    return d


_DIST = ["distributions", "--input", "g.tsv", "--authors", "authors.csv", "--expr", "SAME(gender)"]


@pytest.mark.parametrize("argv, message", [
    (["convexity", "--input", "g.tsv", "--runs", "2", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["stats", "--input", "g.tsv", "--runs", "2", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["centrality", "--input", "g.tsv", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["rank", "--input", "g.tsv", "--measure", "degree", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["skeleton", "--input", "g.tsv", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["skeleton", "--input", "g.tsv", "--output", "new.tsv", "--removal-log", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    (["backbone", "--input", "g.tsv", "--kind", "mst", "--output", "g.tsv"],
     "output g.tsv would replace --input g.tsv"),
    ([*_DIST, "--output", "g.tsv"], "output g.tsv would replace --input g.tsv"),
    ([*_DIST, "--output", "authors.csv"], "output authors.csv would replace --authors authors.csv"),
    ([*_DIST, "--skeleton", "sk.tsv", "--output", "sk.tsv"],
     "output sk.tsv would replace --skeleton sk.tsv"),
    (["buildnet", "--papers", "papers.csv", "--output", "papers.csv"],
     "output papers.csv would replace --papers papers.csv"),
    (["buildnet", "--papers", "papers.csv", "--paper-meta", "paper_meta.csv",
      "--output", "paper_meta.csv"],
     "output paper_meta.csv would replace --paper-meta paper_meta.csv"),
    (["compare", "--input", "cmp/stats.csv", "--runs", "2", "--output-dir", "cmp"],
     "output cmp/stats.csv would replace --input cmp/stats.csv"),
    (["stats", "--input", "g.tsv", "--runs", "2", "--output", "./g.tsv"],
     "output ./g.tsv would replace --input g.tsv"),
    (["stats", "--input", "link.tsv", "--runs", "2", "--output", "g.tsv"],
     "output g.tsv would replace --input link.tsv"),
    (["stats", "--input", "x.csv.meta.json", "--runs", "2", "--output", "x.csv"],
     "output x.csv.meta.json would replace --input x.csv.meta.json"),
], ids=["convexity", "stats", "centrality", "rank", "skeleton", "skeleton-log", "backbone",
        "distributions", "distributions-authors", "distributions-skeleton", "buildnet-papers",
        "buildnet-paper-meta", "compare", "dot", "symlink", "sidecar"])
def test_an_output_naming_an_input_is_refused(refusal_inputs, tmp_path, argv, message):
    # each case runs in its own copy of the inputs: exit 3 with one error
    # line that names both paths, no file written and no byte changed
    before = _tree_bytes(refusal_inputs)
    for rel, data in before.items():
        (tmp_path / rel).parent.mkdir(exist_ok=True)
        if isinstance(data, str):
            (tmp_path / rel).symlink_to(data)
        else:
            (tmp_path / rel).write_bytes(data)
    r = run(*argv, cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr == f"error: {message}\n"
    assert _tree_bytes(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ["stats", "--input", "empty.tsv", "--runs", "-5", "--output", "st.csv"],
    ["compare", "--input", "empty.tsv", "--backbones", "mst", "--runs", "-5",
     "--output-dir", "cmp"],
], ids=["stats", "compare"])
def test_runs_below_one_are_refused_on_an_edgeless_graph(tmp_path, argv):
    # an empty edge list needs no Monte Carlo, yet its --runs is still checked
    (tmp_path / "empty.tsv").write_text("")
    r = run(*argv, cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert r.stderr == "error: runs must be positive\n"
    assert _tree_bytes(tmp_path) == {"empty.tsv": b""}
