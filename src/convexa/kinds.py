"""The choice enums of the library and the CLI, in one light module.

The CLI builds its argument parser from these values, so this module
imports nothing but `enum`; each enum is re-exported by the module whose
functions take it.
"""

from enum import Enum


class Objective(Enum):
    GLOBAL_TRANSITIVITY = "transitivity"
    AVERAGE_LOCAL = "average_local"


class TieBreak(Enum):
    LEX_SMALLEST = "lex"
    RANDOM = "random"


class BackboneKind(Enum):
    MAX_SPANNING_TREE = "mst"
    HIGH_BETWEENNESS = "betweenness"
    HIGH_EMBEDDEDNESS = "embeddedness"
    CONVEX_SKELETON = "skeleton"


class Measure(Enum):
    DEGREE = "degree"
    PAGERANK = "pagerank"
    BETWEENNESS = "betweenness"
    CLOSENESS = "closeness"


class CountingScheme(Enum):
    FULL = "full"
    FRACTIONAL = "fractional"
    PARTIAL = "partial"


class Kind(Enum):
    ER_RANDOM = "er_random"
    TREE_OF_CLIQUES = "tree_of_cliques"
    TRIANGULAR_LATTICE = "triangular_lattice"
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    STAR = "star"


#: the synthetic kinds that draw random numbers from `generate`'s seed
RANDOM_KINDS = frozenset({Kind.ER_RANDOM, Kind.TREE_OF_CLIQUES})
