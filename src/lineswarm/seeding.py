"""Deterministic RNG stream derivation.

All randomness in the package flows from a single 64-bit master seed.
Child streams are derived by mixing ``(seed, purpose, index)`` through
``numpy.random.SeedSequence``: the purpose string is tagged with its
CRC-32 so distinct purposes can never collide with distinct indices.
The bit generator is PCG64, whose output stream is fixed and platform
independent; identical inputs therefore reproduce identical draws on
any machine.
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1
_MAX_BLOCK = 4096


def sub_seed(seed: int, purpose: str, index: int = 0) -> np.random.SeedSequence:
    """Derive the child ``SeedSequence`` for ``(seed, purpose, index)``."""
    tag = zlib.crc32(purpose.encode("utf-8"))
    return np.random.SeedSequence([seed & _MASK64, tag, index & _MASK64])


def child_seed(seed: int, purpose: str, index: int = 0) -> int:
    """Collapse the derived stream to a single 64-bit integer seed."""
    return int(sub_seed(seed, purpose, index).generate_state(1, np.uint64)[0])


class DrawPool:
    """Uniform draws on [0, 1) from ``rng``, in blocks of 16 doubling to 4096.

    A PCG64 double takes one 64-bit word whatever the block size, so the
    draws are those of one ``rng.random(n)`` call however the blocks fall,
    and a short trial fetches few more uniforms than it uses.  The next
    draw is ``block[i]``.  A hot loop reads ``block`` and ``i`` directly,
    calls `refill` when ``i`` reaches the end of the block, and stores
    ``i`` back.  `sim2d` stores the bound `draw` method instead: calling a
    stored bound method is cheaper per draw than a ``__call__`` on the pool.
    """

    __slots__ = ("_rng", "block", "i", "_size")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.block: list[float] = []
        self.i = 0
        self._size = 16

    def refill(self) -> list[float]:
        """Fetch the next block, set ``i`` to 0 and return the block."""
        self.block = self._rng.random(self._size).tolist()
        self._size = min(2 * self._size, _MAX_BLOCK)
        self.i = 0
        return self.block

    def draw(self) -> float:
        i = self.i
        if i >= len(self.block):
            self.refill()
            i = 0
        self.i = i + 1
        return self.block[i]
