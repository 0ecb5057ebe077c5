import numpy as np
import pytest

from convexa import (
    ConvexaError,
    GeneratorSpec,
    Kind,
    connected_er,
    generate,
    is_connected,
    is_tree_of_cliques,
)


def test_complete():
    g = generate(GeneratorSpec(Kind.COMPLETE, {"n": 4}))
    assert g.n == 4 and g.m == 6


def test_path_cycle_star():
    assert generate(GeneratorSpec(Kind.PATH, {"n": 5})).m == 4
    c = generate(GeneratorSpec(Kind.CYCLE, {"n": 6}))
    assert c.m == 6 and all(d == 2 for d in c.degrees)
    s = generate(GeneratorSpec(Kind.STAR, {"n": 5}))
    assert s.m == 4 and sorted(s.degrees) == [1, 1, 1, 1, 4]


def test_triangular_lattice():
    g = generate(GeneratorSpec(Kind.TRIANGULAR_LATTICE, {"rows": 3, "cols": 4}))
    assert g.n == 12
    assert is_connected(g)
    from convexa.netstats import clustering_global

    assert clustering_global(g) > 0  # the lattice is made of triangles


def test_tree_of_cliques_property():
    for seed in range(8):
        g = generate(
            GeneratorSpec(Kind.TREE_OF_CLIQUES, {"cliques": 12, "smin": 2, "smax": 5}, seed)
        )
        assert is_connected(g)
        assert is_tree_of_cliques(g)


def test_generators_deterministic():
    spec = GeneratorSpec(Kind.ER_RANDOM, {"n": 30, "p": 0.2}, seed=77)
    a, b = generate(spec), generate(spec)
    assert a.ids == b.ids
    assert (a.edge_idx == b.edge_idx).all()


def test_er_edge_count_concentrates():
    n, p = 60, 0.15
    pairs = n * (n - 1) / 2
    mean = p * pairs
    sd = (pairs * p * (1 - p)) ** 0.5
    for seed in range(5):
        g = generate(GeneratorSpec(Kind.ER_RANDOM, {"n": n, "p": p}, seed))
        assert abs(g.m - mean) < 5 * sd


def test_connected_er_rejection_sampling():
    g, rejections = connected_er(25, 0.2, seed=3)
    assert is_connected(g)
    assert rejections >= 0


def test_invalid_params():
    with pytest.raises(ConvexaError):
        generate(GeneratorSpec(Kind.ER_RANDOM, {"n": 5, "p": 1.5}))
    with pytest.raises(ConvexaError):
        generate(GeneratorSpec(Kind.TREE_OF_CLIQUES, {"cliques": 3, "smin": 4, "smax": 2}))
    with pytest.raises(ConvexaError):
        generate(GeneratorSpec(Kind.CYCLE, {"n": 2}))
    with pytest.raises(ConvexaError):
        generate(GeneratorSpec(Kind.ER_RANDOM, {}))


@pytest.mark.parametrize("kind, params", [
    (Kind.STAR, {"n": 4, "smin": 2}),
    (Kind.STAR, {"n": 4, "cliques": 9, "p": 0.3}),
    (Kind.ER_RANDOM, {"n": 5, "p": 0.5, "rows": 2}),
    (Kind.TRIANGULAR_LATTICE, {"rows": 2, "cols": 2, "n": 4}),
    (Kind.TREE_OF_CLIQUES, {"cliques": 3, "n": 10}),
], ids=["star-smin", "star-cliques-p", "er-rows", "lattice-n", "toc-n"])
def test_unused_params_refused(kind, params):
    with pytest.raises(ConvexaError, match="takes no parameter"):
        generate(GeneratorSpec(kind, params))


@pytest.mark.parametrize("kind", [Kind.COMPLETE, Kind.PATH, Kind.ER_RANDOM])
def test_negative_n_refused(kind):
    params = {"n": -5, "p": 0.5} if kind is Kind.ER_RANDOM else {"n": -5}
    with pytest.raises(ConvexaError, match="n must be >= 0"):
        generate(GeneratorSpec(kind, params))
