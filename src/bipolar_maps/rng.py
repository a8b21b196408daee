"""Counter-based random number generation.

All stochastic code draws from a Philox4x64-10 generator keyed by
``(seed, stream)`` (Salmon et al., SC 2011); the counter-based design makes
replica streams independent and output reproducible across platforms.
Every walk sampler reads the generator's raw 64-bit words through one
source, ``words(count)``, and decodes them with integer arithmetic, so no
draw depends on numpy's distribution code.  Exact integer draws below
arbitrary (big) bounds use rejection on those words: ``randrange`` takes
them in blocks of 4 096 and turns them into Python ints 512 at a time,
from the end of the block, as they are taken, so a stream that takes a
few words does not convert the whole block.  The samplers in
``simulate`` decode ``words`` arrays directly.

A stream whose first draw is a ``randrange`` takes the first ``_PREFIX``
words of its first block from Philox computed in pure Python, one 4-word
counter block at a time, so a small draw loads no numpy.  numpy is
imported, and the generator built, only past those words or at the first
``words`` call or read of ``rng.np``; it then draws the same first block
and hands ``randrange`` the rest of it, so the stream's words are the same
either way.  A sampler that knows it will take more than ``_PREFIX`` words
(the tableau draw, the steered simple triangulation) reads ``rng.np``
before its first word, and so skips the Python blocks.
"""

from __future__ import annotations

from operator import index

_BLOCK = 4096
_CHUNK = 512  # words of the block turned into ints at a time
_WORD = 1 << 64
_MASK = _WORD - 1
_PREFIX = 32  # words of the first block that randrange takes without numpy
# the counters of the first block's 4-word blocks: randrange takes it from
# its end, so it computes the blocks _FIRST down to _LAST + 1 in Python
_FIRST = _BLOCK // 4
_LAST = _FIRST - _PREFIX // 4

# Philox4x64-10: the round multipliers, and what the rounds add to the key
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_BUMPS = tuple((r * 0x9E3779B97F4A7C15, r * 0xBB67AE8584CAA73B) for r in range(10))


def _philox_block(k0: int, k1: int, counter: int) -> list[int]:
    """The four words of the Philox4x64-10 block at ``counter`` (< 2**64),
    in order: numpy's words 4*(counter - 1) .. 4*counter - 1 of the stream
    keyed by (k0, k1)."""
    c0, c1, c2, c3 = counter, 0, 0, 0
    for b0, b1 in _BUMPS:
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = ((p1 >> 64) ^ c1 ^ ((k0 + b0) & _MASK), p1 & _MASK,
                          (p0 >> 64) ^ c3 ^ ((k1 + b1) & _MASK), p0 & _MASK)
    return [c0, c1, c2, c3]


class CounterRng:
    """Philox generator keyed by (seed, stream) with exact integer draws."""

    def __init__(self, seed: int, stream: int = 0):
        # ints only (numpy ints included): int(1.5) would alias seed 1
        try:
            self.seed, self.stream = index(seed), index(stream)
        except TypeError:
            raise ValueError("seed and stream must be integers, got "
                             f"{seed!r} and {stream!r}") from None
        # Philox takes a 128-bit key; a value outside 64 bits would alias
        # another (seed, stream) pair
        if not (0 <= self.seed < _WORD and 0 <= self.stream < _WORD):
            raise ValueError("seed and stream must be in [0, 2**64), got "
                             f"{self.seed} and {self.stream}")
        self._buf: list[int] = []  # converted words, taken by pop()
        self._block = ()  # the numpy words not yet converted
        # the next 4-word block of the first block that randrange computes
        # in Python, counting down; at _LAST there are none left
        self._next = _FIRST
        # set here, not added on first use, so the instance keeps its
        # attributes inline and the per-draw attribute reads stay fast
        self._np = None

    @property
    def np(self):
        """The numpy Generator: one per instance, built on first use.

        If ``randrange`` has taken words of its first block in Python, the
        generator draws that block, and ``randrange`` keeps the words it
        has not taken yet."""
        if self._np is None:
            import numpy as np
            key = np.array([self.seed, self.stream], dtype=np.uint64)
            self._np = np.random.Generator(np.random.Philox(key=key))
            if self._next < _FIRST:
                self._block = self._np.bit_generator.random_raw(_BLOCK)[:4 * self._next]
            self._next = _LAST
        return self._np

    def words(self, count: int):
        """The generator's next ``count`` raw 64-bit words, as a uint64 array.

        They are the words of the generator's full-range uint64 draw, and
        they do not pass through the block that ``randrange`` holds.
        """
        return self.np.bit_generator.random_raw(count)

    def _word(self) -> int:
        if not self._buf:
            if self._next > _LAST:
                # the block's words in order, so pop() takes them from its
                # end, as it does from the numpy block
                self._buf = _philox_block(self.seed, self.stream, self._next)
                self._next -= 1
                return self._buf.pop()
            gen = self.np  # past the prefix: may hand over the first block
            block = self._block
            if not len(block):
                block = gen.bit_generator.random_raw(_BLOCK)
            # the block's tail, so pop() takes the words in the block's
            # order from its end, as it would from the whole block
            self._buf = block[-_CHUNK:].tolist()
            self._block = block[:-_CHUNK]
        return self._buf.pop()

    def randrange(self, n: int) -> int:
        """Exactly uniform integer in [0, n), for n of any size."""
        if n <= 0:
            raise ValueError("empty range")
        if n <= _WORD:
            threshold = _WORD - (_WORD % n)
            while True:
                w = self._word()
                if w < threshold:
                    return w % n
        bits = n.bit_length()
        words = (bits + 63) // 64
        mask = (1 << bits) - 1
        while True:
            raw = 0
            for _ in range(words):
                raw = (raw << 64) | self._word()
            raw &= mask
            if raw < n:
                return raw
