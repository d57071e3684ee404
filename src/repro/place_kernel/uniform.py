"""Batched uniform random stream shared by every placement optimizer.

Each optimizer (the SA stitcher, the GA evolver) owns one buffer per
run; every random decision — move choice, site sampling, Metropolis
accept, tournament draw — goes through it.  Batching the draws into one
``Generator.random(block)`` call amortizes the per-draw RNG overhead,
and routing *all* randomness through a single stream is what makes a
fixed seed reproduce a run bit-for-bit on any kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["UniformBuffer"]


class UniformBuffer:
    """Uniform [0, 1) draws, batched into one RNG call per block.

    Every random decision in a placement run goes through this buffer,
    so interchangeable kernels consume the exact same stream for a given
    seed (the precondition for fast-vs-reference equivalence).
    :meth:`FastKernel.run_batch
    <repro.place_kernel.kernel.FastKernel.run_batch>` reads ``_buf`` and
    ``_i`` directly and refills from ``_rng`` exactly where :meth:`next`
    would, so a change to how this class refills must change it too.
    """

    __slots__ = ("_rng", "_block", "_buf", "_i")

    def __init__(self, rng: np.random.Generator, block: int) -> None:
        self._rng = rng
        self._block = block
        self._buf = rng.random(block).tolist()
        self._i = 0

    def next(self) -> float:
        i = self._i
        buf = self._buf
        if i >= len(buf):
            self._buf = buf = self._rng.random(self._block).tolist()
            i = 0
        self._i = i + 1
        return buf[i]

    def index(self, n: int) -> int:
        """One draw mapped to ``{0, ..., n-1}``.

        Reads the buffer itself rather than calling :meth:`next` (one
        Python frame per draw); it consumes the same draw ``next`` would.
        """
        i = self._i
        buf = self._buf
        if i >= len(buf):
            self._buf = buf = self._rng.random(self._block).tolist()
            i = 0
        self._i = i + 1
        k = int(buf[i] * n)
        return n - 1 if k >= n else k

    def skip(self, n: int) -> None:
        """Consume ``n`` draws unread, as ``n`` calls to :meth:`next` would.

        A kernel that already knows how a run of draws ends (a place
        attempt whose every probe must miss) skips them and stays in
        step with one that draws them; the refills happen at the same
        draws as ``next``'s.
        """
        i = self._i + n
        buf = self._buf
        while i > len(buf):
            i -= len(buf)
            self._buf = buf = self._rng.random(self._block).tolist()
        self._i = i
