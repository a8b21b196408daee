"""Philox4x64-10 in pure Python: the raw words of a keyed stream, no numpy.

Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as 1, 2,
3" (SC 2011).  The 256-bit counter starts at 0 and is incremented before
each block; a block is four 64-bit words, given in order.  ``CounterRng``
keys its generator by (seed, stream), so ``philox_words(seed, stream)``
is the stream its words must follow.
"""

_MASK = (1 << 64) - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key increments


def philox_words(key0: int, key1: int):
    """Yield the raw words of the Philox4x64-10 stream keyed by (key0, key1)."""
    counter = 0
    while True:
        counter = (counter + 1) % (1 << 256)
        c = [(counter >> (64 * i)) & _MASK for i in range(4)]
        k0, k1 = key0, key1
        for _ in range(10):
            p0, p1 = _M0 * c[0], _M1 * c[2]
            c = [(p1 >> 64) ^ c[1] ^ k0, p1 & _MASK, (p0 >> 64) ^ c[3] ^ k1, p0 & _MASK]
            k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
        yield from c
