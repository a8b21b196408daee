"""Counter-based random number generation.

All stochastic code draws from a Philox generator keyed by
``(seed, stream)``; the counter-based design makes replica streams
independent and output reproducible across platforms.  Exact integer draws
below arbitrary (big) bounds use rejection on raw 64-bit words, which are
buffered in blocks to keep per-draw overhead small.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096
_WORD = 1 << 64


class CounterRng:
    """Philox generator keyed by (seed, stream) with exact integer draws."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & 0xFFFFFFFFFFFFFFFF,
                        self.stream & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        self.np = np.random.Generator(np.random.Philox(key=key))
        self._buf: list[int] = []

    def _word(self) -> int:
        if not self._buf:
            self._buf = self.np.integers(0, _WORD, size=_BLOCK,
                                         dtype=np.uint64).tolist()
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
        while True:
            raw = 0
            for _ in range(words):
                raw = (raw << 64) | self._word()
            raw &= (1 << bits) - 1
            if raw < n:
                return raw
