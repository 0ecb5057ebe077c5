"""The three benchmark workloads: their inputs, CLI invocations and artifacts.

Every workload is a closed loop with one client: one `python -m convexa`
invocation at a time, each in a fresh interpreter, the next one started
only after the previous one has exited.

Why these three (each stresses layers the others bypass):

* compare-clustered -- the paper's headline pipeline (`compare`): skeleton
  extraction, five convexity batches with many small hull closures,
  Brandes for the betweenness backbone and the correlation grids, and the
  stats and rank-correlation tables.
* convexity-er -- the convexity layer used the opposite way: on a random
  graph hulls explode after a few steps, so there are few but huge
  closures, and the O(n^3) hull-closure tensor sets the peak memory.  No
  skeleton, no Brandes.
* coauthor-centrality -- building a co-authorship network from a papers
  CSV, then all four centralities and two rankings: Brandes, dense
  all-pairs BFS for closeness, PageRank and four interpreter start-ups.
  No skeleton, no convexity.

The sizes are smaller than the acceptance-criterion-8 graph so that a run
can take the median of several passes, yet large enough that the layers
each workload stresses carry more of a pass than the interpreter start-ups.
"""

import csv
import hashlib
import io
import os

import inputs

#: inputs are drawn from variant `seed % VARIANTS`, so that every input the
#: benchmark can produce has golden artifact digests recorded in golden.json
VARIANTS = 32

#: seed passed to every CLI invocation (the Monte-Carlo and tie-break seed)
CLI_SEED = "1"


class Workload:
    """One workload: an input generator, a pass of CLI invocations, and the
    primary artifacts each invocation must write."""

    def __init__(self, name, params, make_input, input_name, invocations, load):
        self.name = name
        self.params = params
        self._make_input = make_input
        self.input_name = input_name
        # [(argv after `convexa`, [artifact paths it must write])]
        self.invocations = invocations
        # statement run by the set-up probe to load the input (`path` is bound)
        self.load = load

    def make_input(self, seed, params=None):
        """(input text, info dict) for this seed's variant."""
        return self._make_input(seed % VARIANTS, **(params or self.params))

    def argv(self):
        return [argv for argv, _ in self.invocations]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare-clustered",
            {"n": 120, "m": 480},
            inputs.clustered_tsv,
            "graph.tsv",
            [
                (
                    ["compare", "--input", "graph.tsv", "--runs", "40",
                     "--seed", CLI_SEED, "--output-dir", "cmp"],
                    ["cmp/stats.csv", "cmp/corr_skeleton.csv", "cmp/corr_mst.csv",
                     "cmp/corr_betweenness.csv", "cmp/corr_embeddedness.csv"],
                ),
            ],
            "read_edge_tsv(path)",
        ),
        Workload(
            "convexity-er",
            {"n": 400, "m": 1600},
            inputs.connected_er_tsv,
            "graph.tsv",
            [
                (
                    ["convexity", "--input", "graph.tsv", "--runs", "30",
                     "--seed", CLI_SEED, "--output", "profile.csv"],
                    ["profile.csv"],
                ),
            ],
            "read_edge_tsv(path)",
        ),
        Workload(
            "coauthor-centrality",
            {"pool": 900, "pairs_target": 3200},
            inputs.papers_csv,
            "papers.csv",
            [
                (
                    ["buildnet", "--papers", "papers.csv", "--scheme", "fractional",
                     "--output", "net.tsv"],
                    ["net.tsv"],
                ),
                (
                    ["centrality", "--input", "net.tsv", "--measure", "all",
                     "--output", "centrality.csv"],
                    ["centrality.csv"],
                ),
                (
                    ["rank", "--input", "net.tsv", "--measure", "pagerank",
                     "--output", "rank_pagerank.csv"],
                    ["rank_pagerank.csv"],
                ),
                (
                    ["rank", "--input", "net.tsv", "--measure", "degree",
                     "--output", "rank_degree.csv"],
                    ["rank_degree.csv"],
                ),
            ],
            "read_papers_csv(path)",
        ),
    )
}

#: tiny inputs for the smoke mode: every workload once, digests checked
SMOKE_PARAMS = {
    "compare-clustered": {"n": 30, "m": 100},
    "convexity-er": {"n": 40, "m": 80},
    "coauthor-centrality": {"pool": 60, "pairs_target": 80},
}
SMOKE_SEED = 0


def check_artifact(path, text):
    """Content checks beyond the digest; returns an error string or None."""
    if path.endswith("stats.csv"):
        rows = {r[0]: r[1:] for r in csv.reader(io.StringIO(text))}
        header, conv = rows.get("statistic"), rows.get("convexity")
        if header is None or conv is None:
            return "stats.csv lacks a statistic header or a convexity row"
        for col in ("skeleton", "mst"):
            if col not in header or conv[header.index(col)] != "1":
                return f"stats.csv: convexity of the {col} column is not exactly 1"
    return None


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def artifact_status(workdir, workload):
    """{artifact path: [sha256 or None when missing, content error or None]}."""
    status = {}
    for _, artifacts in workload.invocations:
        for a in artifacts:
            try:
                with open(os.path.join(workdir, a), "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                status[a] = [None, None]
                continue
            status[a] = [sha256(data), check_artifact(a, data.decode("utf-8", "replace"))]
    return status
