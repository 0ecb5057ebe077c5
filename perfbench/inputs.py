"""Seeded input generators for the benchmark workloads.

The generators use only the standard library's `random.Random`, whose
streams are fixed across Python versions, and they import nothing from
the program or its tests: the program under test receives only the bytes
written here.  The same arguments always give the same bytes.

Sizes are held fixed (exact n and m, or an exact co-author pair count) so
that runs with different seeds do the same amount of work and differ only
in structure; that keeps the run-to-run spread of the timings small.
"""

import random


def _label(i):
    return f"v{i:04d}"


def _connected(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def clustered_tsv(seed, n, m, smin=4, smax=6):
    """Tree of cliques on exactly n nodes plus random chords up to m edges.

    Each clique (size uniform in smin..smax, the last one cut to fit n)
    shares one node with a uniformly chosen earlier clique.  Clique edges
    weigh 1, chords weigh 1..4.  Returns (tsv_text, {"n", "m", "cliques"}).
    """
    rng = random.Random(seed)
    groups = []
    edges = {}
    nodes = 0
    while nodes < n:
        size = rng.randint(smin, smax)
        if not groups:
            members = list(range(min(size, n)))
        else:
            fresh = min(size - 1, n - nodes)
            members = [rng.choice(rng.choice(groups))] + list(range(nodes, nodes + fresh))
        nodes += len(members) - (1 if groups else 0)
        groups.append(members)
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                edges[tuple(sorted((members[i], members[j])))] = 1
    if not len(edges) <= m <= n * (n - 1) // 2:
        raise ValueError(f"m = {m} out of range for the {n}-node tree of cliques")
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = rng.randint(1, 4)
    text = "".join(f"{_label(u)}\t{_label(v)}\t{w}\n" for (u, v), w in edges.items())
    return text, {"n": n, "m": m, "cliques": len(groups)}


def connected_er_tsv(seed, n, m):
    """Uniform random graph G(n, m), redrawn until connected, as an edge TSV.

    Returns (tsv_text, {"n", "m", "rejections"}), where "rejections" counts
    the disconnected draws thrown away.
    """
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for rejections in range(1000):
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges):
            text = "".join(f"{_label(u)}\t{_label(v)}\n" for u, v in edges)
            return text, {"n": n, "m": m, "rejections": rejections}
    raise ValueError(f"no connected G({n}, {m}) draw in 1000 tries")


def papers_csv(seed, pool, pairs_target, alpha=1.5, extra=1.7, max_team=12):
    """Long-form `paper_id,author_id` CSV, grown until the co-author graph
    has at least `pairs_target` distinct pairs (its edge count).

    Author activity follows a Pareto(alpha) law over a pool of authors; a
    paper has 1 + geometric(mean `extra`) distinct authors, at most
    max_team.  Returns (csv_text, {"papers", "authors", "pairs"}).
    """
    rng = random.Random(seed)
    cum = []
    acc = 0.0
    for _ in range(pool):
        acc += rng.paretovariate(alpha)
        cum.append(acc)
    authors = range(pool)
    rows = ["paper_id,author_id"]
    seen = set()
    pairs = set()
    pid = 0
    while len(pairs) < pairs_target:
        k = 1
        while k < max_team and rng.random() < extra / (extra + 1.0):
            k += 1
        team = []
        while len(team) < k:
            a = rng.choices(authors, cum_weights=cum)[0]
            if a not in team:
                team.append(a)
        for a in team:
            rows.append(f"p{pid:05d},a{a:04d}")
        seen.update(team)
        team.sort()
        pairs.update((a, b) for i, a in enumerate(team) for b in team[i + 1:])
        pid += 1
    info = {"papers": pid, "authors": len(seen), "pairs": len(pairs)}
    return "\n".join(rows) + "\n", info
