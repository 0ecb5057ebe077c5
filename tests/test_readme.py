import re
from pathlib import Path

import convexa as cx

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    """The ```python block under `## Library` in README.md."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    # a tree of cliques plus chords: connected, and no tree of cliques itself
    toc = cx.generate(cx.Kind.TREE_OF_CLIQUES, {"cliques": 6, "smin": 3, "smax": 4}, seed=2)
    ids = toc.ids
    records = [toc.edge_ids(e) for e in range(toc.m)] + [(ids[i], ids[-1 - i]) for i in range(3)]
    with open(tmp_path / "net.tsv", "w", encoding="utf-8") as fh:
        cx.write_edge_tsv(cx.build_graph(records), fh)
    monkeypatch.chdir(tmp_path)
    exec(compile(_library_example(), str(README), "exec"), {})
