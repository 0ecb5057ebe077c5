"""Traced in-process pass: spans around every public function of convexa.

Run by `run.py --trace 1` in a fresh interpreter:

    python3 perfbench/traced.py --workload NAME --workdir DIR --seconds S

It times `import convexa.cli`, then repeats a pair of passes through
`convexa.cli.main(argv)` for up to about S seconds: one pass untraced and
one with every public function of the program's modules wrapped.  A
wrapper is installed on every module attribute (and module-level dict
value) the function is reachable through, because `from .x import y`
creates separate bindings such as `cli.convexity` and `netstats.convexity`.  Spans (name, start,
end, parent, work) stay in memory and are written as JSON lines to
DIR/spans.jsonl at the end; the derived metrics, the artifact digests and
the exit codes go to DIR/trace_result.json.

Nothing under the program's sources changes: the spans are recorded from
the benchmark's own files, around the calls into each layer.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import types

#: modules whose public functions are wrapped
MODULES = ("cli", "graph", "_kernels", "convexity", "skeleton", "backbones",
           "centrality", "netstats", "coauthor")

#: span name -> self-time metric.  A span whose name is not listed charges
#: its self time to its nearest ancestor that is listed; `cli.main` roots
#: every pass, so `cli.self_s` is the time spent outside the named layers.
#: Metric names start with a letter, so `_kernels` spans report as `kernels.`.
SELF_TIME = {
    "_kernels.hull_close": "kernels.hull_close_s",
    "_kernels.common_neighbors": "kernels.common_neighbors_s",
    "_kernels.brandes_node": "kernels.brandes_node_s",
    "_kernels.brandes_edge": "kernels.brandes_edge_s",
    "_kernels.bfs_all": "kernels.bfs_all_s",
    "graph.biconnected_edge_blocks": "graph.blocks_s",
    "graph.read_edge_tsv": "graph.read_edge_tsv_s",
    "convexity.convexity": "convexity.self_s",
    "convexity.expansion_run": "convexity.self_s",
    "skeleton.extract_convex_skeleton": "skeleton.self_s",
    "netstats.spearman_rho": "netstats.rank_corr_s",
    "netstats.kendall_tau": "netstats.rank_corr_s",
    "netstats.descriptive_stats": "netstats.descriptive_stats_s",
    "backbones.maximum_spanning_tree": "backbones.build_s",
    "backbones.top_m_edge_backbone": "backbones.build_s",
    "backbones.embeddedness_scores": "backbones.build_s",
    "backbones.edge_betweenness": "backbones.build_s",
    "centrality.pagerank": "centrality.pagerank_s",
    "centrality.closeness": "centrality.closeness_s",
    "coauthor.build_coauthorship": "coauthor.build_coauthorship_s",
    "cli.main": "cli.self_s",
}

#: count metric -> span name whose calls it counts
CALLS = {
    "kernels.hull_close_calls": "_kernels.hull_close",
    "kernels.common_neighbors_calls": "_kernels.common_neighbors",
    "kernels.brandes_node_calls": "_kernels.brandes_node",
    "kernels.brandes_edge_calls": "_kernels.brandes_edge",
    "kernels.bfs_all_calls": "_kernels.bfs_all",
    "graph.blocks_calls": "graph.biconnected_edge_blocks",
    "centrality.compute_calls": "centrality.compute",
    "convexity.batches": "convexity.convexity",
    "cli.invocations": "cli.main",
}

#: count metric -> (span name, work its result represents)
WORK = {
    # expansion_run pads |S| with n once the hull is full; only the steps
    # taken before that call the hull closure
    "convexity.expansion_steps": ("convexity.expansion_run",
                                  lambda sizes: sum(s < len(sizes) for s in sizes[:-1])),
    "skeleton.iterations": ("skeleton.extract_convex_skeleton", lambda sk: len(sk.removed)),
}

UNITS = {
    **{name: "s" for name in SELF_TIME.values()},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in WORK},
    "cli.import_s": "s",
    "cli.child_cpu_s": "s",
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap each public function of MODULES at every binding in the
        convexa package; returns a callable that restores the originals."""
        modules = [m for n, m in sys.modules.items() if n == "convexa" or n.startswith("convexa.")]
        work_of = {span: fn for span, fn in WORK.values()}
        wrapper = {}
        for short in MODULES:
            mod = sys.modules[f"convexa.{short}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__ and id(fn) not in wrapper):
                    name = f"{short}.{attr}"
                    wrapper[id(fn)] = self.wrap(name, fn, work_of.get(name))
        undo = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapper:
                    setattr(mod, attr, wrapper[id(value)])
                    undo.append((mod.__dict__, attr, value))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrapper:
                            value[k] = wrapper[id(v)]
                            undo.append((value, k, v))

        def restore():
            for table, key, value in reversed(undo):
                table[key] = value

        return restore


def layer_metrics(spans):
    """Self times, call counts and work counts derived from one pass's spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    owner = [None] * len(spans)
    out = {name: 0.0 for name in SELF_TIME.values()}
    out.update({name: 0 for name in CALLS})
    out.update({name: 0 for name in WORK})
    calls = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        owner[i] = SELF_TIME.get(name) or (owner[parent] if parent >= 0 else "cli.self_s")
        out[owner[i]] += end - start - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if work is not None:
            for metric, (span_name, _) in WORK.items():
                if span_name == name:
                    out[metric] += work
    for metric, span_name in CALLS.items():
        out[metric] = calls.get(span_name, 0)
    return out


def run_pass(cli, workload, workdir):
    """One in-process pass; returns (wall seconds, [(exit, detail)])."""
    results = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for argv, artifacts in workload.invocations:
        for a in artifacts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(workdir, a))
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            results.append((code, ""))
        except Exception as exc:  # noqa: BLE001 -- counted as a failed invocation
            results.append((-1, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import convexa.cli  # noqa: E402  (timed: this is the cli.import_s metric)

    import_s = time.perf_counter() - t0
    import workloads  # noqa: E402  (this file's directory is on sys.path)

    workload = workloads.WORKLOADS[args.workload]
    os.chdir(args.workdir)
    passes, per_pass, untraced, traced_walls, cpu = [], [], [], [], []
    start = time.perf_counter()
    while not per_pass or elapsed * (len(per_pass) + 1) / len(per_pass) <= args.seconds:
        # alternate which pass of the pair runs first, so that warm-up and
        # drift do not bias the overhead estimate
        for with_trace in (False, True) if len(per_pass) % 2 == 0 else (True, False):
            if with_trace:
                tracer = Tracer()
                restore = tracer.install()
                try:
                    wall, results = run_pass(convexa.cli, workload, ".")
                finally:
                    restore()
                traced_walls.append(wall)
                spans = tracer.spans
            else:
                ru0 = resource.getrusage(resource.RUSAGE_SELF)
                wall, results = run_pass(convexa.cli, workload, ".")
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                cpu.append(ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime)
                untraced.append(wall)
            passes.append({"results": results, "status": workloads.artifact_status(".", workload)})
        per_pass.append((layer_metrics(spans), spans))
        elapsed = time.perf_counter() - start

    metrics = {}
    for name in per_pass[0][0]:
        values = [m[name] for m, _ in per_pass]
        metrics[name] = statistics.median(values) if UNITS[name] == "s" else values[0]
        if UNITS[name] == "count" and len(set(values)) != 1:
            raise SystemExit(f"count {name} differs between traced passes: {values}")
    metrics["cli.import_s"] = import_s
    metrics["cli.child_cpu_s"] = statistics.median(cpu)
    # Each pair's difference cancels the drift between pairs; it can still
    # read <= 0 when the wrappers cost less than the noise of one pass, so it
    # goes to the run record, not among the metrics.
    overhead_s = statistics.median(t - u for t, u in zip(traced_walls, untraced))

    with open("spans.jsonl", "w", encoding="utf-8") as fh:
        for k, (_, spans) in enumerate(per_pass):
            for i, (name, s, e, parent, work) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": name, "start": s,
                                     "end": e, "parent": parent, "work": work}) + "\n")
    with open("trace_result.json", "w", encoding="utf-8") as fh:
        json.dump({
            "metrics": metrics,
            "untraced_walls": untraced,
            "traced_walls": traced_walls,
            "overhead_s": overhead_s,
            "passes": passes,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
