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
    A numpy reader takes the draws ahead as one array with `ahead`, then
    says with `consume` how many it read.
    """

    __slots__ = ("_rng", "block", "i", "_size", "_ahead", "_snap")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.block: list[float] = []
        self.i = 0
        self._size = 16
        self._ahead: list[np.ndarray] = []  # blocks drawn by `ahead`, not yet stored
        self._snap = None  # the generator's state before them

    def _fetch(self) -> np.ndarray:
        block = self._rng.random(self._size)
        self._size = min(2 * self._size, _MAX_BLOCK)
        return block

    def refill(self) -> list[float]:
        """Fetch the next block, set ``i`` to 0 and return the block."""
        self.block = self._fetch().tolist()
        self.i = 0
        return self.block

    def draw(self) -> float:
        i = self.i
        if i >= len(self.block):
            self.refill()
            i = 0
        self.i = i + 1
        return self.block[i]

    def ahead(self, count: int) -> np.ndarray:
        """The draws from the next one on, at least ``count`` of them: the
        rest of the block, then whole blocks drawn ahead.  Call `consume`
        before the pool is read again."""
        rest = np.array(self.block[self.i :])
        self._snap = self._rng.bit_generator.state
        blocks, total = self._ahead, rest.size
        while total < count:
            blocks.append(self._fetch())
            total += blocks[-1].size
        return np.concatenate((rest, *blocks)) if blocks else rest

    def consume(self, count: int) -> None:
        """Read ``count`` of the draws from `ahead`, leaving the pool as
        `draw` leaves it: holding the block of the last draw read, with the
        generator rewound past any block after it."""
        blocks, self._ahead = self._ahead, []
        used = count - (len(self.block) - self.i)  # read from the blocks ahead
        drawn = 0  # doubles in the blocks ahead that the pool keeps
        if used <= 0:
            self.i += count
        else:
            for k, block in enumerate(blocks):
                drawn += block.size
                if used <= block.size:
                    break
                used -= block.size
            self.block, self.i = block.tolist(), used
            blocks = blocks[k + 1 :]
        if blocks:  # give the rest back: the generator as after those doubles
            bits = self._rng.bit_generator
            bits.state = self._snap
            if hasattr(bits, "advance"):  # PCG64, one word per double
                bits.advance(drawn)
            else:
                self._rng.random(drawn)
            self._size = blocks[0].size
