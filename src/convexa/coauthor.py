"""Weighted co-authorship networks from publication records.

Each paper with k >= 2 authors adds weight to every unordered author pair:
1 under full counting, 1/(k-1) under fractional counting, 1/k under
partial counting.  Also holds the skeleton-vs-remainder attribute
distribution machinery.
"""

import csv
import math
from dataclasses import dataclass, field

from .errors import ConvexaError, InputError
from .graph import Graph, build_graph, open_text
from .kinds import CountingScheme

#: marker for attribute values that cannot be derived
MISSING = None


@dataclass(frozen=True)
class PaperRecord:
    paper_id: str
    authors: tuple  # ordered, no duplicates
    attrs: dict = field(default_factory=dict)


def pair_weight(scheme: CountingScheme, k: int) -> float:
    if scheme is CountingScheme.FULL:
        return 1.0
    if scheme is CountingScheme.FRACTIONAL:
        return 1.0 / (k - 1)
    return 1.0 / k


def build_coauthorship(papers, scheme: CountingScheme) -> Graph:
    records = []
    solo = set()
    for p in papers:
        if len(set(p.authors)) != len(p.authors):
            raise InputError(f"paper {p.paper_id!r} lists a duplicate author")
        k = len(p.authors)
        if k < 1:
            raise InputError(f"paper {p.paper_id!r} has no authors")
        if k == 1:
            solo.add(p.authors[0])
            continue
        w = pair_weight(scheme, k)
        authors = sorted(p.authors)
        for i in range(k):
            for j in range(i + 1, k):
                records.append((authors[i], authors[j], w))
    return build_graph(records, isolated_nodes=solo)


# ---------------------------------------------------------------------------
# edge attribute derivations

@dataclass(frozen=True)
class AttrExpr:
    kind: str  # MEAN | ABS_DIFF | SAME | PAIR_MIN | PAIR_MAX
    attr: str

    def __str__(self):
        return f"{self.kind}({self.attr})"


_NUMERIC_KINDS = {"MEAN", "ABS_DIFF", "PAIR_MIN", "PAIR_MAX"}


def parse_expr(text):
    """Parse 'KIND(attr)'."""
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise InputError(f"cannot parse attribute expression {text!r}")
    kind, attr = text[:-1].split("(", 1)
    kind = kind.strip().upper()
    if kind not in _NUMERIC_KINDS | {"SAME"}:
        raise InputError(f"unknown derivation {kind!r}")
    return AttrExpr(kind, attr.strip())


def edge_attribute(expr: AttrExpr, edge, authors: dict):
    """Derive a scalar/category for an edge from its endpoints' attributes.

    `authors` maps author_id -> attribute dict.  Missing inputs yield MISSING.
    """
    u, v = edge
    for x in (u, v):
        if x not in authors:
            raise InputError(f"author {x!r} not in the attribute table")
    if not any(expr.attr in attrs for attrs in authors.values()):
        raise InputError(f"unknown attribute {expr.attr!r}")
    au, av = authors[u].get(expr.attr, MISSING), authors[v].get(expr.attr, MISSING)
    if au is MISSING or av is MISSING:
        return MISSING
    if expr.kind == "SAME":
        return au == av
    if isinstance(au, str) or isinstance(av, str):
        raise InputError(f"{expr} needs numbers, got {au!r} and {av!r}")
    au, av = float(au), float(av)
    if expr.kind == "MEAN":
        return (au + av) / 2.0
    if expr.kind == "ABS_DIFF":
        return abs(au - av)
    if expr.kind == "PAIR_MIN":
        return min(au, av)
    return max(au, av)


# ---------------------------------------------------------------------------
# skeleton-vs-remainder distributions

@dataclass(frozen=True)
class Binning:
    """Fixed-width numeric bins, or category bins when width is None."""
    width: float = None
    origin: float = 0.0

    def __post_init__(self):
        if self.width is not None and not (math.isfinite(self.width) and self.width > 0):
            raise ConvexaError(f"bin width must be positive and finite, got {self.width!r}")
        if not math.isfinite(self.origin):
            raise ConvexaError(f"bin origin must be finite, got {self.origin!r}")

    def key(self, value):
        if self.width is None:
            return value
        k = (value - self.origin) / self.width
        if not math.isfinite(k):  # a width so small that the quotient overflows
            raise ConvexaError(f"value {value!r} has no bin of width {self.width!r}")
        return int(math.floor(k))

    def bounds(self, key):
        if self.width is None:
            return key
        return (self.origin + key * self.width, self.origin + (key + 1) * self.width)


@dataclass(frozen=True)
class DistributionReport:
    bins: tuple  # ordered bin labels (bounds tuple or category)
    skeleton_weight: tuple
    remainder_weight: tuple
    missing_skeleton: float
    missing_remainder: float


def distribution_report(
    g: Graph, kept, expr: AttrExpr, authors: dict, binning: Binning
) -> DistributionReport:
    """Edge weight per bin of `expr`, on the skeleton's edge positions
    `kept` and on the rest of g."""
    kept = g.edge_set(kept)
    acc = {"sk": {}, "re": {}}
    miss = {"sk": 0.0, "re": 0.0}
    # each tag sums its edges in g's order, as over its own subgraph
    for e in range(g.m):
        tag = "sk" if e in kept else "re"
        val = edge_attribute(expr, g.edge_ids(e), authors)
        w = float(g.weights[e])
        if val is MISSING:
            miss[tag] += w
        else:
            key = binning.key(val)
            acc[tag][key] = acc[tag].get(key, 0.0) + w
    keys = sorted(set(acc["sk"]) | set(acc["re"]), key=lambda k: (str(type(k)), k))
    return DistributionReport(
        bins=tuple(binning.bounds(k) for k in keys),
        skeleton_weight=tuple(acc["sk"].get(k, 0.0) for k in keys),
        remainder_weight=tuple(acc["re"].get(k, 0.0) for k in keys),
        missing_skeleton=miss["sk"],
        missing_remainder=miss["re"],
    )


# ---------------------------------------------------------------------------
# CSV ingestion

def _maybe_number(text):
    if text is None or text == "":
        return MISSING
    try:
        f = float(text)
    except ValueError:
        return text
    if not math.isfinite(f):
        return text  # "nan" and "inf" are no values to bin or compare
    return int(f) if f.is_integer() else f


def _csv_rows(path, columns):
    """The (line number, row as a dict) pairs of a CSV file.  InputError
    when its header lacks one of `columns` (an empty file has no header), a
    row holds more fields than the header, or a row leaves one of `columns`
    missing or empty (an empty id would be taken for a real one)."""
    with open_text(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not set(columns) <= set(reader.fieldnames or ()):
            raise InputError(f"{path}: need column(s) {','.join(columns)}")
        for row in reader:
            if None in row:
                raise InputError(f"{path}:{reader.line_num}: more fields than the header")
            for c in columns:
                if not row[c]:
                    raise InputError(f"{path}:{reader.line_num}: no {c}")
            yield reader.line_num, row


def read_papers_csv(links_path, meta_path=None):
    """Long-form links CSV `paper_id,author_id` plus optional metadata CSV.

    A row that repeats a (paper_id, author_id) pair is refused, naming its
    line.  The metadata CSV needs a `paper_id` column; every other column
    becomes a paper attribute (numbers parsed where possible).
    """
    authors_by_paper = {}  # paper id -> {author id: None}, both in first-seen order
    for line, row in _csv_rows(links_path, ("paper_id", "author_id")):
        pid, author = row["paper_id"], row["author_id"]
        authors = authors_by_paper.setdefault(pid, {})
        if author in authors:
            raise InputError(f"{links_path}:{line}: paper {pid!r} lists author {author!r} twice")
        authors[author] = None
    meta = _attribute_table(meta_path, "paper_id") if meta_path else {}
    return [
        PaperRecord(pid, tuple(authors), meta.get(pid, {}))
        for pid, authors in authors_by_paper.items()
    ]


def _attribute_table(path, key):
    """{id: {column: value}} of a CSV whose `key` column holds the ids,
    numbers parsed where possible; InputError for an id listed twice, whose
    later row would silently replace the first."""
    table = {}
    for line, row in _csv_rows(path, (key,)):
        ident = row.pop(key)
        if ident in table:
            raise InputError(f"{path}:{line}: {key} {ident!r} is listed twice")
        table[ident] = {k: _maybe_number(v) for k, v in row.items()}
    return table


def read_authors_csv(path):
    """Author attribute table: header row names attributes, `author_id` keys it."""
    return _attribute_table(path, "author_id")


def filter_years(papers, year_min=None, year_max=None):
    """The papers dated within the bounds; InputError for a bound when no
    paper has a year, and for a year that is not a number."""
    if year_min is None and year_max is None:
        return list(papers)
    years = [p.attrs.get("year") for p in papers]
    if all(y is None for y in years):
        raise InputError("a year bound would be ignored: no paper has a year")
    for p, y in zip(papers, years):
        if isinstance(y, str):
            raise InputError(f"paper {p.paper_id!r}: year {y!r} is not a number")
    lo = -math.inf if year_min is None else year_min
    hi = math.inf if year_max is None else year_max
    return [p for p, y in zip(papers, years) if y is not None and lo <= y <= hi]
