"""Counter-based random number generation.

All stochastic code draws from a Philox4x64-10 generator keyed by
``(seed, stream)`` (Salmon et al., SC 2011); the counter-based design makes
replica streams independent and output reproducible across platforms.
Every walk sampler reads the generator's raw 64-bit words through one
source, ``words(count)``, and decodes them with integer arithmetic, so no
walk depends on numpy's distribution code (the covariance bootstrap's
multinomial, through ``rng.np``, is the one draw that does).  Exact integer draws below arbitrary
(big) bounds use rejection on those words: ``randrange`` takes them in
blocks of 4 096 and turns them into Python ints 512 at a time, from the
end of the block, as they are taken, so a stream that takes a few words
does not convert the whole block.  The samplers in
``simulate`` decode ``words`` arrays directly.

numpy is imported, and the generator built, at the first draw (the first
``randrange`` or ``words`` call, or the first read of ``rng.np``), so code
that builds a ``CounterRng`` but never draws does not load numpy.
"""

from __future__ import annotations

from operator import index

_BLOCK = 4096
_CHUNK = 512  # words of the block turned into ints at a time
_WORD = 1 << 64


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
        # set here, not added on first use, so the instance keeps its
        # attributes inline and the per-draw attribute reads stay fast
        self._np = None

    @property
    def np(self):
        """The numpy Generator: one per instance, built on first use."""
        if self._np is None:
            import numpy as np
            key = np.array([self.seed, self.stream], dtype=np.uint64)
            self._np = np.random.Generator(np.random.Philox(key=key))
        return self._np

    def words(self, count: int):
        """The generator's next ``count`` raw 64-bit words, as a uint64 array.

        They are the words of the generator's full-range uint64 draw, and
        they do not pass through the block that ``randrange`` holds.
        """
        return self.np.bit_generator.random_raw(count)

    def _word(self) -> int:
        if not self._buf:
            block = self._block
            if not len(block):
                block = self.words(_BLOCK)
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
