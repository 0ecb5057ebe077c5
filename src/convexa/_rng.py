"""convexa's random stream: PCG64 seeded as numpy's `default_rng` seeds it.

`Stream(entropy)` gives the same draws as numpy's `default_rng(entropy)`
for `integers(low, high=None)` and `permutation(n)`, without importing
`numpy.random`.  numpy's SeedSequence hashes the entropy words into a pool
of four 32-bit words and expands the pool into PCG64's 128-bit state and
increment (O'Neill, PCG, HMC-CS-2014-0905); each 64-bit output is the
XSL-RR of the advanced state.  The draws follow numpy's bounded-integer
code: Lemire's multiply-and-reject (arXiv 1805.10941) for `integers`, and
Fisher-Yates with masked rejection for `permutation`.  A 32-bit draw takes
the low half of a 64-bit output and keeps the high half for the next one.
"""

import numpy as np

M32 = 0xFFFFFFFF
M64 = (1 << 64) - 1
M128 = (1 << 128) - 1
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy):
    """The little-endian 32-bit words SeedSequence reads from an int or a
    sequence of ints."""
    if isinstance(entropy, (int, np.integer)):
        x = int(entropy)
        if x < 0:
            raise ValueError("entropy must be non-negative")
        words = [x & M32]
        while x > M32:
            x >>= 32
            words.append(x & M32)
        return words
    return [w for x in entropy for w in _words(x)]


def _seed_state(words):
    """SeedSequence's pool, then `generate_state(4, uint64)` as 8 words."""
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * 0x931E8875 & M32) & M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for s in range(4):
        for d in range(4):
            if s != d:
                pool[d] = mix(pool[d], hashmix(pool[s]))
    for w in words[4:]:
        for d in range(4):
            pool[d] = mix(pool[d], hashmix(w))
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v = (pool[i % 4] ^ h) * (h := h * 0x58F38DED & M32) & M32
        out.append(v ^ v >> 16)
    return out


class Stream:
    """PCG64 draws, identical to those of numpy's `default_rng(entropy)`."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        w = _seed_state(_words(entropy))
        state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        self._inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & M128 | 1
        self._state = ((self._inc + state) * PCG_MULT + self._inc) & M128
        self._half = None  # the kept high half of the last 32-bit draw

    def _next64(self):
        s = self._state = (self._state * PCG_MULT + self._inc) & M128
        x, rot = (s >> 64 ^ s) & M64, s >> 122
        return (x >> rot | x << (64 - rot)) & M64

    def _next32(self):
        if self._half is not None:
            x, self._half = self._half, None
            return x
        x = self._next64()
        self._half = x >> 32
        return x & M32

    def integers(self, low, high=None):
        """A uniform int in [low, high), or in [0, low) without `high`."""
        if high is None:
            low, high = 0, low
        if high <= low or low < -(1 << 63) or high > 1 << 63:
            raise ValueError(f"need -2**63 <= low < high <= 2**63, got {low}, {high}")
        rng = high - 1 - low
        if rng == 0:
            return low
        if rng == M32:
            return low + self._next32()
        if rng == M64:
            return low + self._next64()
        bits, draw = (32, self._next32) if rng < M32 else (64, self._next64)
        excl, mask = rng + 1, (1 << bits) - 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (1 << bits) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)

    def permutation(self, n):
        """A uniform permutation of range(n) as an int64 array."""
        p = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= M32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            p[i], p[j] = p[j], p[i]
        return np.array(p, dtype=np.int64)
