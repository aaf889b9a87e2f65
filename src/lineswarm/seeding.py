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

    The pool hands out the draws of one ``rng.random(n)`` call, in order,
    however its readers split them and whatever the bit generator, and a
    short trial fetches few more uniforms than it uses.  The next draw is
    ``block[i]``.  A hot loop reads ``block`` and ``i`` directly, calls
    `refill` when ``i`` reaches the end of the block, and stores ``i``
    back.  A numpy reader takes the next draws as one array with `ahead`,
    which fetches what the pool lacks in one generator call of at least a
    block, then says with `consume` how many it read.  The pool keeps every
    draw it fetched and has not handed out, so the generator may run up to
    one pass of such a reader ahead of the pool; nothing else reads it.
    """

    __slots__ = ("_rng", "block", "i", "_size", "_array", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.block: list[float] = []
        self.i = 0
        self._size = 16
        # ``block`` as an array, and the draws fetched after it
        self._array = self._next = np.empty(0)

    def _fetch(self, count: int = 0) -> np.ndarray:
        """The next ``max(count, size)`` draws from the generator, for a
        block ``size`` that doubles with each call up to ``_MAX_BLOCK``."""
        block = self._rng.random(max(count, self._size))
        self._size = min(2 * self._size, _MAX_BLOCK)
        return block

    def refill(self) -> list[float]:
        """Take the next block, from the draws ahead before the generator,
        set ``i`` to 0 and return the block."""
        draws = self._next if self._next.size else self._fetch()
        self._array, self._next = draws[:_MAX_BLOCK], draws[_MAX_BLOCK:]
        self.block = self._array.tolist()
        self.i = 0
        return self.block

    def ahead(self, count: int) -> np.ndarray:
        """The next ``count`` draws, as one array; `consume` says how many
        were read."""
        rest = self._array[self.i :]
        short = count - rest.size - self._next.size
        if rest.size or short > 0:
            parts = [part for part in (rest, self._next) if part.size]
            if short > 0:
                parts.append(self._fetch(short))
            self._next = parts[0] if len(parts) == 1 else np.concatenate(parts)
            self.i = len(self.block)  # the block's rest now leads ``_next``
        return self._next[:count]

    def consume(self, count: int) -> None:
        """Hand out the first ``count`` draws from `ahead`."""
        self._next = self._next[count:]
