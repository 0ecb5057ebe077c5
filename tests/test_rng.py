"""convexa's PCG64 stream against numpy's `default_rng`, and pinned.

`_rng.Stream(entropy)` must draw what `np.random.default_rng(entropy)`
draws, since the convexity profiles, removal logs and backbones of earlier
versions came from numpy's generator.  The pinned table holds convexa's own
first draws, so the stream stays fixed even if a future numpy changes its
`Generator` algorithms (NEP 19 does not promise that they stay the same).
"""

import numpy as np
import pytest

from convexa._rng import Stream

#: 1 (no draw), 2, the 32-bit Lemire path up to 2**32 - 1, the plain 32-bit
#: draw at 2**32, the 64-bit Lemire path above it; 3 * 2**30 and 3 * 2**61
#: reject about a quarter of the draws, so the threshold test is exercised
BOUNDS = [1, 2, 7, 1000, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63 - 1]

ENTROPIES = [0, 1, 2**32, 2**32 + 1, 2**64 + 5, [0, 0], [7, 3], [2**40, 1], [1, 2, 3, 4, 5, 6]]


@pytest.mark.parametrize("entropy", ENTROPIES + [[s, r] for s in (0, 42, 2**31 - 1) for r in range(4)])
def test_integers_match_numpy(entropy):
    ours, ref = Stream(entropy), np.random.default_rng(entropy)
    for high in BOUNDS:
        for _ in range(8):
            assert ours.integers(high) == ref.integers(high)
        for low in (0, -5, -(2**40), 3):
            top = min(low + high, 2**63)
            assert ours.integers(low, top) == ref.integers(low, top)
    # the full int64 range draws whole 64-bit outputs
    for _ in range(4):
        assert ours.integers(-(2**63), 2**63) == ref.integers(-(2**63), 2**63)


@pytest.mark.parametrize("entropy", ENTROPIES)
def test_integers_and_permutation_interleaved_match_numpy(entropy):
    """Odd runs of 32-bit draws leave a kept half that the next call, of
    either kind, must use first."""
    ours, ref = Stream(entropy), np.random.default_rng(entropy)
    for n in (0, 1, 2, 3, 5, 17, 64, 300):
        assert ours.permutation(n).tolist() == ref.permutation(n).tolist()
        assert ours.integers(n + 1) == ref.integers(n + 1)
        assert ours.integers(2**32 + n) == ref.integers(2**32 + n)  # 64-bit, keeps the half
        assert ours.integers(3) == ref.integers(3)
    p = Stream(entropy).permutation(50)
    assert p.dtype == np.int64 and sorted(p.tolist()) == list(range(50))


#: entropy -> five integers(1000), permutation(6), integers(2**32),
#: integers(2**63 - 1), all from one stream in this order
PINNED = {
    0: ([850, 636, 511, 269, 307], [4, 5, 2, 0, 3, 1], 2163061375, 6728418181561535777),
    2**32 + 7: ([870, 770, 875, 111, 258], [2, 5, 0, 1, 3, 4], 2477384446, 9157209010238212846),
    (42, 3): ([773, 219, 656, 556, 544], [4, 3, 0, 2, 5, 1], 575279410, 5734630672235580809),
}


@pytest.mark.parametrize("entropy", list(PINNED))
def test_first_draws_are_pinned(entropy):
    s = Stream(list(entropy) if isinstance(entropy, tuple) else entropy)
    got = (
        [s.integers(1000) for _ in range(5)],
        s.permutation(6).tolist(),
        s.integers(2**32),
        s.integers(2**63 - 1),
    )
    assert got == PINNED[entropy]


def test_out_of_range_bounds_are_refused():
    s = Stream(1)
    for args in [(0,), (-3,), (5, 5), (5, 3), (2**63 + 1,), (-(2**63) - 1, 0)]:
        with pytest.raises(ValueError):
            s.integers(*args)
    with pytest.raises(ValueError):
        Stream(-1)
