"""Command-line entry point.

Every subcommand writes its primary artifact atomically and drops a JSON
metadata sidecar (`<output>.meta.json`) recording tool version, config
and seed, so runs are reproducible byte for byte.

Exit codes: 0 success, 2 I/O, 3 precondition violation, 4 numerical failure.
"""

import argparse
import csv
import errno
import io
import json
import os
import sys
import tempfile
from dataclasses import asdict, fields

from . import __version__
from .backbones import (
    BackboneKind,
    edge_betweenness,
    embeddedness_scores,
    maximum_spanning_tree,
    top_m_edge_backbone,
)
from .centrality import Measure, compute, top_k
from .coauthor import (
    Binning,
    CountingScheme,
    build_coauthorship,
    distribution_report,
    filter_years,
    parse_expr,
    read_authors_csv,
    read_papers_csv,
)
from .convexity import convexity
from .errors import ConvergenceError, ConvexaError, InputError
from .graph import format_weight, read_edge_flags, read_edge_tsv, write_edge_tsv
from .netstats import (
    StatsRecord,
    centrality_values,
    correlation_matrix,
    descriptive_stats,
)
from .skeleton import (
    Objective,
    SkeletonResult,
    TieBreak,
    extract_convex_skeleton,
    retained_weight_fraction,
    skeleton_graph,
)
from .synth import RANDOM_KINDS, Kind, generate

DEFAULT_SEED = 42


def fmt(x):
    """Deterministic number formatting for CSV cells."""
    if x is None:
        return "NA"
    if isinstance(x, float):
        return format_weight(x)
    return str(x)


def csv_text(rows):
    """CSV text, one "\n"-terminated line per row; a field is quoted only
    when it holds a comma, a double quote or a newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_files(texts):
    """Write every {path: text}, or none of them.

    A path that is a directory is refused before anything is written.  Each
    text goes to a temporary file beside its path, and the temporary files
    replace their paths only once all are written; on failure the temporary
    files and any path created here are removed again.  Only new files are
    strictly all or nothing: should a replace itself fail after others have
    succeeded, the existing paths already replaced keep their new text.
    Files get mode 0o666 & ~umask, as open() would give them, and an I/O
    error names the requested path.
    """
    for path in texts:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    mask = os.umask(0)
    os.umask(mask)
    staged = {}
    created = []
    try:
        for path, text in texts.items():
            try:
                fd, staged[path] = tempfile.mkstemp(
                    dir=os.path.dirname(os.path.abspath(path)), prefix=".convexa-"
                )
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    os.fchmod(fh.fileno(), 0o666 & ~mask)
                    fh.write(text)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
        for path, tmp in list(staged.items()):
            new = not os.path.lexists(path)
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
            del staged[path]
            if new:
                created.append(path)
    except BaseException:
        for tmp in list(staged.values()) + created:
            if os.path.lexists(tmp):
                os.unlink(tmp)
        raise


def with_meta(texts, args, config):
    """The {path: text} outputs, each followed by its `<path>.meta.json`
    sidecar recording tool version, subcommand and config."""
    meta = {
        "tool": "convexa",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": config,
    }
    meta = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    files = {}
    for path, text in texts.items():
        files[path] = text
        files[path + ".meta.json"] = meta
    return files


def emit(args, config, csv_text, to_json, extra=None):
    """Write the primary output (CSV, or with --format json the object that
    `to_json()` builds, called only then), its .meta.json sidecar and the
    `extra` {path: text} files, all or nothing."""
    if args.format == "json":
        text = json.dumps(to_json(), sort_keys=True, indent=2) + "\n"
    else:
        text = csv_text
    write_files({**with_meta({args.output: text}, args, config), **(extra or {})})


def _resolve_seed(args, used=True):
    """--seed, else $CONVEXA_SEED, else DEFAULT_SEED; a negative seed is
    refused.  A run that draws no random numbers (`used` false) gets None,
    its sidecar records a null seed, and an explicit --seed is refused."""
    if not used:
        if args.seed is not None:
            raise InputError("--seed would be ignored: this run draws no random numbers")
        return None
    source, seed = "--seed", args.seed
    if seed is None:
        source, env = "CONVEXA_SEED", os.environ.get("CONVEXA_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"CONVEXA_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise InputError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _stat_rows(records):
    """One CSV row per StatsRecord field, in field order: the field's name,
    then its value in each record."""
    return [[f.name, *(fmt(getattr(r, f.name)) for r in records)] for f in fields(StatsRecord)]


# ---------------------------------------------------------------------------
# subcommands

def _read_graph(path):
    """`read_edge_tsv(path)`, with a warning on stderr for the self-loop
    records it dropped."""
    g = read_edge_tsv(path)
    if g.self_loops_dropped:
        print(f"warning: dropped {g.self_loops_dropped} self-loop record(s)", file=sys.stderr)
    return g


def cmd_convexity(args):
    g = _read_graph(args.input)
    seed = _resolve_seed(args)
    score = convexity(g, runs=args.runs, seed=seed)
    rows = [["t", "s_t"]]
    for t, s in enumerate(score.profile):
        rows.append([t, fmt(float(s))])
    config = {"input": args.input, "runs": args.runs, "seed": seed, "x": score.x}
    emit(
        args,
        config,
        csv_text(rows),
        lambda: {
            "x": score.x,
            "runs": args.runs,
            "seed": seed,
            "profile": [float(s) for s in score.profile],
        },
    )
    print(f"convexity X = {fmt(score.x)} ({args.runs} runs, seed {seed})")
    return 0


def _skeleton_flags(args, objective, tie_break):
    """Give --objective and --tie-break their defaults where this run uses
    them (`objective`, `tie_break` true), and refuse either flag where it
    would be ignored.  An unused flag stays None: its sidecar key is null."""
    for dest, used, default in (
        ("objective", objective, Objective.GLOBAL_TRANSITIVITY.value),
        ("tie_break", tie_break, TieBreak.LEX_SMALLEST.value),
    ):
        if used and getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not used and getattr(args, dest) is not None:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} would be ignored: this run extracts no skeleton")


def _skeleton_of(g, args, seed):
    return extract_convex_skeleton(
        g,
        objective=Objective(args.objective),
        tie_break=TieBreak(args.tie_break),
        seed=seed,
    )


def cmd_skeleton(args):
    g = _read_graph(args.input)
    seed = _resolve_seed(args)
    _skeleton_flags(args, objective=True, tie_break=True)
    sk = _skeleton_of(g, args, seed)
    ef, wf = retained_weight_fraction(g, sk)
    buf = io.StringIO()
    write_edge_tsv(g, buf, flags=sk.kept, flag_name="in_skeleton")
    stats = descriptive_stats(skeleton_graph(g, sk), convexity_runs=args.runs, seed=seed)
    config = {
        "input": args.input,
        "objective": args.objective,
        "tie_break": args.tie_break,
        "seed": seed,
        "edge_fraction": ef,
        "weight_fraction": wf,
        "skeleton_stats": asdict(stats),
    }
    removal_rows = [["step", "u", "v", "objective"]]
    for i, ((u, v), val) in enumerate(sk.removed, 1):
        removal_rows.append([i, u, v, fmt(val)])
    extra = {args.removal_log: csv_text(removal_rows)} if args.removal_log else None
    emit(
        args,
        config,
        buf.getvalue(),
        lambda: {
            "kept": [list(g.edge_ids(e)) for e in sorted(sk.kept)],
            "removed": [[u, v, val] for (u, v), val in sk.removed],
            "edge_fraction": ef,
            "weight_fraction": wf,
            "skeleton_stats": asdict(stats),
        },
        extra,
    )
    print(
        f"skeleton kept {len(sk.kept)}/{g.m} edges "
        f"(edge fraction {fmt(ef)}, weight fraction {fmt(wf)})"
    )
    return 0


def _make_backbone(g, kind, args, seed, sk=None):
    """The edge positions of g's `kind` backbone.  The top-m kinds keep --m
    edges, by default as many as the convex skeleton `sk`, which is
    extracted here when it is needed and not given."""
    tie_break = TieBreak(args.tie_break)
    if kind is BackboneKind.MAX_SPANNING_TREE:
        return maximum_spanning_tree(g, tie_break=tie_break, seed=seed)
    if sk is None and (kind is BackboneKind.CONVEX_SKELETON or args.m is None):
        sk = _skeleton_of(g, args, seed)
    if kind is BackboneKind.CONVEX_SKELETON:
        return sk.kept
    m = len(sk.kept) if args.m is None else args.m
    if kind is BackboneKind.HIGH_BETWEENNESS:
        scores = edge_betweenness(g)
    else:
        scores = embeddedness_scores(g)
    return top_m_edge_backbone(g, scores, m, tie_break=tie_break, seed=seed)


def cmd_backbone(args):
    g = _read_graph(args.input)
    kind = BackboneKind(args.kind)
    mst = kind is BackboneKind.MAX_SPANNING_TREE
    if args.m is not None and (mst or kind is BackboneKind.CONVEX_SKELETON):
        raise InputError(f"--m sets the edge budget of a top-m kind; {args.kind} takes none")
    # every kind but mst is built from the skeleton, unless --m sets the budget
    _skeleton_flags(args, objective=not mst and args.m is None, tie_break=True)
    # the lex spanning tree draws no random numbers
    seed = _resolve_seed(args, used=not mst or args.tie_break == TieBreak.RANDOM.value)
    edges = _make_backbone(g, kind, args, seed)
    buf = io.StringIO()
    flag = "in_skeleton" if kind is BackboneKind.CONVEX_SKELETON else "in_backbone"
    write_edge_tsv(g, buf, flags=edges, flag_name=flag)
    config = {
        "input": args.input,
        "kind": args.kind,
        "m": len(edges),
        "objective": args.objective,
        "seed": seed,
        "tie_break": args.tie_break,
    }
    emit(
        args,
        config,
        buf.getvalue(),
        lambda: {"kind": args.kind, "edges": [list(g.edge_ids(e)) for e in sorted(edges)]},
    )
    print(f"backbone {args.kind}: {len(edges)} edges")
    return 0


def cmd_compare(args):
    g = _read_graph(args.input)
    seed = _resolve_seed(args)
    kinds = [k.strip() for k in args.backbones.split(",") if k.strip()]
    for k in kinds:
        if k not in {kind.value for kind in BackboneKind}:
            raise InputError(f"unknown backbone kind {k!r}")
    # one skeleton serves every kind but the spanning tree (the top-m kinds
    # keep as many edges as the skeleton)
    extracts = bool(set(kinds) - {BackboneKind.MAX_SPANNING_TREE.value})
    _skeleton_flags(args, objective=extracts, tie_break=bool(kinds))
    sk = _skeleton_of(g, args, seed) if extracts else None
    columns = {"network": descriptive_stats(g, convexity_runs=args.runs, seed=seed)}
    backbones = {}  # name -> its graph, one object for its stats and centralities
    for name in kinds:
        sub = g.subgraph_with_edges(_make_backbone(g, BackboneKind(name), args, seed, sk))
        backbones[name] = sub
        columns[name] = descriptive_stats(sub, convexity_runs=args.runs, seed=seed)
    rows = [["statistic", *columns], *_stat_rows(columns.values())]
    # every file's text is ready before the first write: all or nothing
    texts = {"stats.csv": csv_text(rows)}
    full = centrality_values(g) if backbones else None
    for name, sub in backbones.items():
        grid = correlation_matrix(full, centrality_values(sub))
        rows = [["row_measure", "col_measure", "rho", "tau"]]
        for rm, row in zip(Measure, grid):
            for cm, (rho, tau) in zip(Measure, row):
                rows.append([rm.value, cm.value, fmt(rho), fmt(tau)])
        texts[f"corr_{name}.csv"] = csv_text(rows)
    config = {
        "input": args.input,
        "backbones": kinds,
        "runs": args.runs,
        "seed": seed,
        "objective": args.objective,
        "tie_break": args.tie_break,
    }
    os.makedirs(args.output_dir, exist_ok=True)
    paths = {os.path.join(args.output_dir, name): text for name, text in texts.items()}
    write_files(with_meta(paths, args, config))
    print(f"compare: wrote stats.csv and {len(backbones)} correlation file(s) to {args.output_dir}")
    return 0


def cmd_centrality(args):
    g = _read_graph(args.input)
    measures = list(Measure) if args.measure == "all" else [Measure(args.measure)]
    vecs = {m: compute(g, m) for m in measures}
    rows = [["node"] + [m.value for m in measures]]
    for node in g.ids:
        rows.append([node] + [fmt(vecs[m][node]) for m in measures])
    config = {"input": args.input, "measure": args.measure}
    emit(
        args,
        config,
        csv_text(rows),
        lambda: {m.value: vecs[m] for m in measures},
    )
    return 0


def cmd_rank(args):
    g = _read_graph(args.input)
    ranked = top_k(compute(g, Measure(args.measure)), args.top)
    rows = [["rank", "node", "value"]]
    for i, (node, value) in enumerate(ranked, 1):
        rows.append([i, node, fmt(value)])
    config = {"input": args.input, "measure": args.measure, "top": args.top}
    emit(
        args,
        config,
        csv_text(rows),
        lambda: {"measure": args.measure, "ranking": [[n, v] for n, v in ranked]},
    )
    return 0


def cmd_buildnet(args):
    papers = read_papers_csv(args.papers, args.paper_meta)
    papers = filter_years(papers, args.year_min, args.year_max)
    g = build_coauthorship(papers, CountingScheme(args.scheme))
    buf = io.StringIO()
    write_edge_tsv(g, buf)
    # authors with solo papers only have no edge, so the TSV cannot hold them
    isolated = int((g.degrees == 0).sum())
    config = {
        "papers": args.papers,
        "paper_meta": args.paper_meta,
        "scheme": args.scheme,
        "year_min": args.year_min,
        "year_max": args.year_max,
        "nodes": g.n,
        "edges": g.m,
        "isolated": isolated,
    }
    emit(
        args,
        config,
        buf.getvalue(),
        lambda: {
            "nodes": list(g.ids),
            "edges": [
                [*g.edge_ids(e), float(g.weights[e])] for e in range(g.m)
            ],
        },
    )
    print(
        f"built {args.scheme}-counting network: {g.n} nodes, {g.m} edges, "
        f"{isolated} isolated (not in the edge list)"
    )
    return 0


def _skeleton_from_tsv(g, path):
    """The skeleton flagged in a `u v w flag` TSV written by `skeleton`; the
    removal log lists the other edges, with no objective values."""
    kept = read_edge_flags(g, path)
    removed = tuple((g.edge_ids(e), float("nan")) for e in range(g.m) if e not in kept)
    return SkeletonResult(kept=kept, removed=removed)


def cmd_distributions(args):
    g = _read_graph(args.input)
    # a skeleton read from a file draws no random numbers
    seed = _resolve_seed(args, used=not args.skeleton)
    expr = parse_expr(args.expr)
    # refuse a bin flag the run would ignore; without numeric bins bin_origin stays null
    numeric = args.bin_width is not None
    if args.bin_origin is not None and not numeric:
        raise InputError("--bin-origin would be ignored: it needs --bin-width")
    if numeric and expr.kind == "SAME":
        raise InputError(f"--bin-width would be ignored: {expr} bins by category")
    if numeric and args.bin_origin is None:
        args.bin_origin = 0.0
    binning = Binning(args.bin_width, args.bin_origin) if numeric else Binning()
    _skeleton_flags(args, objective=not args.skeleton, tie_break=not args.skeleton)
    if args.skeleton:
        sk = _skeleton_from_tsv(g, args.skeleton)
    else:
        sk = _skeleton_of(g, args, seed)
    authors = read_authors_csv(args.authors)
    rep = distribution_report(g, sk, expr, authors, binning)
    head = ["bin_low", "bin_high"] if numeric else ["category"]
    rows = [[*head, "skeleton_weight", "remainder_weight"]]
    for label, sw, rw in zip(rep.bins, rep.skeleton_weight, rep.remainder_weight):
        cells = [fmt(label[0]), fmt(label[1])] if numeric else [fmt(label)]
        rows.append([*cells, fmt(sw), fmt(rw)])
    if rep.missing_skeleton or rep.missing_remainder:
        label = ["MISSING", ""] if numeric else ["MISSING"]
        rows.append([*label, fmt(rep.missing_skeleton), fmt(rep.missing_remainder)])
    config = {
        "input": args.input,
        "authors": args.authors,
        "skeleton": args.skeleton,
        "expr": str(expr),
        "bin_width": args.bin_width,
        "bin_origin": args.bin_origin,
        "objective": args.objective,
        "tie_break": args.tie_break,
        "seed": seed,
    }
    emit(
        args,
        config,
        csv_text(rows),
        lambda: {
            "expr": str(expr),
            "bins": [list(b) if isinstance(b, tuple) else b for b in rep.bins],
            "skeleton_weight": list(rep.skeleton_weight),
            "remainder_weight": list(rep.remainder_weight),
            "missing": [rep.missing_skeleton, rep.missing_remainder],
        },
    )
    return 0


def cmd_generate(args):
    kind = Kind(args.kind)
    seed = _resolve_seed(args, used=kind in RANDOM_KINDS)
    params = {}
    for key in ("n", "cliques", "smin", "smax", "rows", "cols"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.p is not None:
        params["p"] = args.p
    g = generate(kind, params, 0 if seed is None else seed)
    buf = io.StringIO()
    write_edge_tsv(g, buf)
    config = {"kind": args.kind, "params": params, "seed": seed}
    emit(
        args,
        config,
        buf.getvalue(),
        lambda: {"nodes": list(g.ids), "edges": [[*g.edge_ids(e)] for e in range(g.m)]},
    )
    print(f"generated {args.kind}: {g.n} nodes, {g.m} edges")
    return 0


def cmd_stats(args):
    g = _read_graph(args.input)
    seed = _resolve_seed(args)
    s = descriptive_stats(g, convexity_runs=args.runs, seed=seed)
    rows = [["statistic", "value"], *_stat_rows([s])]
    config = {"input": args.input, "runs": args.runs, "seed": seed}
    emit(args, config, csv_text(rows), lambda: asdict(s))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, seed=True, output=True):
    """--seed where the subcommand draws random numbers; --format and
    --output where it writes one primary artifact."""
    if seed:
        p.add_argument("--seed", type=int, default=None, help="master RNG seed (default: $CONVEXA_SEED or 42)")
    if output:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", required=True, help="output file path")


def _add_skeleton_opts(p):
    """--objective and --tie-break; None marks a flag not given (see `_skeleton_flags`)."""
    p.add_argument("--objective", choices=sorted(o.value for o in Objective), default=None)
    p.add_argument("--tie-break", choices=sorted(t.value for t in TieBreak), default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="convexa", description=__doc__)
    ap.add_argument("--version", action="version", version=f"convexa {__version__}")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("convexity", help="convexity score and expansion profile")
    p.add_argument("--input", required=True)
    p.add_argument("--runs", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_convexity)

    p = sub.add_parser("skeleton", help="extract a convex skeleton")
    p.add_argument("--input", required=True)
    p.add_argument("--runs", type=int, default=100, help="convexity runs for the stats row")
    p.add_argument("--removal-log", default=None, help="optional removal-log CSV path")
    _add_skeleton_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("backbone", help="extract one backbone")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=sorted(k.value for k in BackboneKind), required=True)
    p.add_argument("--m", type=int, default=None, help="edge budget for top-m kinds (default: skeleton size)")
    _add_skeleton_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_backbone)

    p = sub.add_parser("compare", help="stats table plus correlation grids")
    p.add_argument("--input", required=True)
    p.add_argument("--backbones", default="skeleton,mst,betweenness,embeddedness")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--output-dir", required=True)
    _add_skeleton_opts(p)
    _add_common(p, output=False)
    # the top-m backbones always keep as many edges as the skeleton
    p.set_defaults(func=cmd_compare, m=None)

    p = sub.add_parser("centrality", help="centrality values for all nodes")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", choices=["all"] + sorted(m.value for m in Measure), default="all")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("rank", help="top-k nodes by one measure")
    p.add_argument("--input", required=True)
    p.add_argument("--measure", choices=sorted(m.value for m in Measure), required=True)
    p.add_argument("--top", type=int, default=20)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("buildnet", help="co-authorship network from publication records")
    p.add_argument("--papers", required=True, help="long-form CSV: paper_id,author_id")
    p.add_argument("--paper-meta", default=None, help="CSV: paper_id,year,...")
    p.add_argument("--scheme", choices=sorted(s.value for s in CountingScheme), default="fractional")
    p.add_argument("--year-min", type=int, default=None)
    p.add_argument("--year-max", type=int, default=None)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_buildnet)

    p = sub.add_parser("distributions", help="skeleton-vs-remainder attribute distributions")
    p.add_argument("--input", required=True)
    p.add_argument("--skeleton", default=None, help="skeleton TSV; extracted when omitted")
    p.add_argument("--authors", required=True, help="author attribute CSV")
    p.add_argument("--expr", required=True, help="e.g. ABS_DIFF(birth_year) or SAME(gender)")
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--bin-origin", type=float, default=None, help="needs --bin-width (default: 0)")
    _add_skeleton_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_distributions)

    p = sub.add_parser("generate", help="synthetic graph")
    p.add_argument("--kind", choices=sorted(k.value for k in Kind), required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--cliques", type=int, default=None)
    p.add_argument("--smin", type=int, default=None)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("stats", help="descriptive statistics of one network")
    p.add_argument("--input", required=True)
    p.add_argument("--runs", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        target = getattr(exc, "filename", None) or ""
        print(f"error: {exc.strerror or exc} {target}".rstrip(), file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ConvexaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
