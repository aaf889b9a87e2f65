"""Exact state machine for extremal-agent dynamics on the line.

``N`` indistinguishable agents sit at real positions, kept sorted.  Each
tick only the extremal agents move, by exactly one unit:

* bilateral mode: the leftmost agent jumps ``+1`` with probability
  ``1 - epsilon`` (``-1`` otherwise) and the rightmost jumps ``-1`` with
  probability ``1 - epsilon`` (``+1`` otherwise); the two draws are
  independent within the tick, leftmost drawn first.
* unilateral modes: only the designated side moves, with the same bias
  toward the rest of the group.

Conventions where the rule alone underdetermines behaviour: a single
agent stays put; with two agents both are extremal and both move; when
several agents share an extremal position exactly one of them moves that
tick, and if *all* agents coincide one moves as the left extremist and
one as the right.  Agents are indistinguishable, so these rules fix the
multiset of positions after every tick.

`SwarmState1D.advance` is the one update: it runs many ticks in one
loop, optionally stopping once gathered, and returns the last tick's
jump directions ``(d_left, d_right)``, 0 for a side that did not move.
Each tick draws for the left end, then the right, skipping the end the
mode keeps still.

Unit jumps keep every agent's fractional part, so the state holds sorted
integer keys, ``key = N*(cell - cell_0) + rank``.  Each input ``x``
splits exactly as ``x = cell + f`` with ``f`` in ``(-1/2, 1/2]``; the
fraction table holds the sorted ``f`` of all agents and ``rank`` is the
first index of the agent's ``f`` in it, so equal keys mean equal
positions.  A move is ``+-N`` on the key, gathered is
``key[N-2] - key[1] <= N`` (``x_{N-1} - x_2 <= 1``), and every
comparison is between ints: the dynamics are exact for any finite
input.  Observers return the correctly rounded double of the exact
position, ``table[rank] + cell``.  The centroid is the exact input sum,
kept as a few non-overlapping doubles, plus the net unit moves, rounded
once by `math.fsum`: O(1) per call.  Every tick moves each moving end
one unit inward unless its draw turns it back, so the net moves follow
from ``t`` and the turn-back counts.  The state keeps three exact int
tallies of turn-back ticks, `SwarmState1D.turn_backs`: ticks on which
the left end turned back, the right end did, and both did.  The centroid
uses right minus left; the three together classify the centroid
increments without a per-tick call.  Inputs are validated to
``|x| < 2**52``, so that outputs stay doubles, and to
``N*(span + 2) < 2**62``, so that the keys can be built in int64.

The keys live in a list of sorted blocks whose concatenation is sorted,
so a move shifts one block of at most ``2*_BLOCK`` keys, not all N:

* ``N <= 2*_BLOCK``: one block for the swarm's whole life;
* otherwise each middle block holds ``_BLOCK`` to ``2*_BLOCK`` keys and
  each end block 3 to ``2*_BLOCK``, so ``x_2`` is ``first[1]`` and
  ``x_{N-1}`` is ``last[-2]`` even after a tick deletes an end key;
* a moved key goes to an end block when it fits there, else to the
  middle block found by bisecting the middle blocks' last keys; keys
  leave only the end blocks, so a middle block never shrinks;
* an end block that drops below 3 keys is merged inward and a block
  that grows past ``2*_BLOCK`` keys is split, each in O(N/_BLOCK) steps.

Two theorem-backed invariants are checked on every tick and raise
`InvariantViolationError` if ever violated:

* while the core span ``x_{N-1} - x_2`` exceeds 1, ``x_2`` never
  decreases and ``x_{N-1}`` never increases;
* in bilateral mode, once the core span drops to <= 1 it never exceeds
  1 again.  (This is false in unilateral modes, where the frozen far
  extremist is counted in the core; the check is bilateral-only.)

`SwarmState1D.gathered`, the one gathering test, is ``core_span <= 1``
after construction and after every tick in every mode; in the
unilateral modes it can fall back to False.

Without a trajectory sink, `run_until_gathered` jumps a bilateral swarm
to its gathering tick T in numpy, since until T the two ends never move
the same agent.  Take the left end's draws as +1 (inward) and -1 (turn
back), their running sum ``X_t``, the phase ``P_t = max(0, max_{u<=t}
X_u)`` and the depth ``D_t = P_t - X_t``: a walk reflected at its
running maximum.  After t ticks the left side is ``C_P``, the keys after
P inward moves alone, with its extreme agent D units further out, so
``x_2 = second(C_P)`` at every depth.  The P keys those moves pop are
the P smallest of the closure ``{key + j*N : j >= 0}``; with ``key =
N*cell + rank`` the closure runs level by level, each level's keys in
rank order, and ``second(C_P)`` is its next entry of another agent.  The
right end is the mirror image, on negated keys.  While ``x_{N-1} - x_2
> 1``, the left end's moved keys stay at most one unit above its
``x_2``, so strictly below ``x_{N-1}``, and the right end's at most one
unit below its ``x_{N-1}``, so strictly above ``x_2``: neither end sees
the other's agents.  At T both
moves read the state before the tick, so the state at T is the two
ends' moves together.  The jump checks the core-edge invariant on every
tick, as arrays, and builds the blocks once, at T.  Its memory is
O(N + T).

After gathering, `sample_total_spans` runs a bilateral swarm of one
block by table lookups.  The dynamics commute with adding one integer to
every key (a move is ``+-N`` and every test compares keys), so a swarm is
its ``x_2`` plus a shape, the sorted keys less ``x_2``.  Gathered shapes
recur: the core keys lie in ``[x_2, x_2 + N]``, which holds one key per
rank (two for the rank of ``x_2``), so the core is fixed by that rank and
by which agents are out as extremists, and at small epsilon the
extremists' excursions are short (at epsilon = 0.1, 3*10^5 ticks visit
about 160 shapes at any N from 21 to 1024).  The table maps a shape and
a tick code ``2*left_back + right_back`` to the next shape and the change
of ``x_2``, learning each pair on first use by the exact one-block tick
and the gathered-core check.  A tick that would reopen the core is never
stored: `advance` runs it, and raises.  The spans are the shapes' end
keys plus the running sum of the ``x_2`` changes, as the doubles `_at`
gives, and the tallies follow from the codes.  Near epsilon = 1/2 the
excursions grow and shapes multiply, and learning costs O(N) a pair, so
a call goes on with `advance` once its learning costs more than its
lookups save.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from operator import neg
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolationError, ValidationError
from .rw_analytics import WalkParams, circular_fraction
from .seeding import DrawPool

__all__ = [
    "BILATERAL",
    "UNILATERAL_RIGHT",
    "UNILATERAL_LEFT",
    "MODES",
    "SwarmState1D",
    "TrajectoryRow",
    "GatheringResult",
    "SweepResult",
    "WalkSample",
    "BarrierSample",
    "ChainOccupancy",
    "Metrics",
    "new_swarm",
    "run_until_gathered",
    "run_unilateral_sweep",
    "sample_total_spans",
    "metrics",
    "simulate_walk_first_passage",
    "simulate_two_barrier_hits",
    "simulate_reflected_chain",
]

BILATERAL = "bilateral"
UNILATERAL_RIGHT = "unilateral-right"
UNILATERAL_LEFT = "unilateral-left"
MODES = frozenset({BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT})

_MAX_MAGNITUDE = 2.0**52
_WALK_STEP_CAP = 1_000_000_000
# keys per block of the 1D state: a block holds at most 2*_BLOCK keys, and
# cutting keeps end blocks at >= 3 keys only while _BLOCK >= 3
_BLOCK = 512
# draws in the first numpy pass of the gathering jump, and the most in one
_JUMP_DRAWS = 2048
_JUMP_CAP = 65536
# draws in one pass of `sample_total_spans`: each pass costs a fixed
# fraction of a millisecond, and its arrays add to the process's peak memory
_TABLE_DRAWS = 16384
# keys the shape table of `sample_total_spans` may hold: its memory cap.
# Learning a transition costs about as much as copying 64 + N keys, and a
# looked-up tick saves about 16 over `advance`, so a call also goes on with
# `advance` once its learning passes _TABLE_KEYS/8 + 16 per tick run
_TABLE_KEYS = 2**19


def _cut(keys):
    """Sorted ``keys`` cut into blocks: one if at most ``2*_BLOCK``, else
    ``N // _BLOCK`` near-equal blocks of ``_BLOCK`` to ``2*_BLOCK - 1``."""
    n = len(keys)
    k = n // _BLOCK if n > 2 * _BLOCK else 1
    return [keys[i * n // k : (i + 1) * n // k] for i in range(k)]


class TrajectoryRow(NamedTuple):
    t: int
    centroid: float
    core_span: float
    total_span: float
    x_min: float
    x_max: float


class Metrics(NamedTuple):
    centroid: float
    variance: float
    core_span: float
    total_span: float


class SwarmState1D:
    """Sorted agent keys in blocks, plus tick counter and a seeded RNG stream.

    ``_blocks`` is the block list of the module docstring: one block while
    ``N <= 2*_BLOCK``, else middle blocks of ``_BLOCK`` to ``2*_BLOCK``
    keys and end blocks of 3 to ``2*_BLOCK``.  ``_tops`` holds the last key
    of each middle block, for routing a moved key.  ``_backs`` holds the
    three turn-back tallies ``(left, right, both)`` read by `turn_backs`;
    `centroid` uses ``right - left``.  They change only on a tick where an
    end turns back, so the inward-move path of `advance` never touches them.

    Mutable; confined to one execution context at a time.  All stepping
    draws come from a `DrawPool` on the PCG64 stream, so any split of the
    ticks into `advance` calls consumes the identical sequence of uniforms.
    """

    __slots__ = (
        "params",
        "mode",
        "t",
        "gathered",
        "_n",
        "_blocks",
        "_tops",
        "_table",
        "_cell0",
        "_sum",
        "_backs",
        "_failed",
        "_pool",
    )

    def __init__(
        self,
        positions: Sequence[float],
        params: WalkParams,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        x = np.array(positions, dtype=float)
        x.sort()
        n = x.size
        if not n:
            raise ValidationError("need at least one agent")
        lo, hi = float(x[0]), float(x[-1])
        # NaN sorts last, so the two ends show any non-finite input
        if not (-_MAX_MAGNITUDE < lo and hi < _MAX_MAGNITUDE and (hi - lo + 2.0) * n < 2.0**62):
            raise ValidationError("positions must satisfy |x| < 2**52 and N*(span+2) < 2**62")
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}; expected one of {sorted(MODES)}")
        xs = x.tolist()
        total = [math.fsum(xs)]  # the exact sum, as non-overlapping doubles
        while rest := math.fsum(chain(xs, map(neg, total))):
            total.append(rest)
        del xs
        # x = cell + f exactly, f in (-1/2, 1/2]; temporaries go as soon as
        # they are used, since N can be 10^5
        cells = np.rint(x)
        f = x - cells
        del x
        table = np.sort(f)
        if table[0] == -0.5:  # rint rounds half to even: move those halves a cell down
            half = f == -0.5
            cells -= half
            f += half
            table = np.sort(f)
        self._table = array("d", table.tobytes())
        keys = np.searchsorted(table, f)
        del f, table
        self._cell0 = int(cells[0])
        cells -= cells[0]
        keys += cells.astype(np.int64) * n
        del cells
        self._n = n
        self._blocks = blocks = [block.tolist() for block in _cut(keys)]
        self._tops = [block[-1] for block in blocks[1:-1]]
        self.params = params
        self.mode = mode
        self.t = 0
        self._sum = tuple(total)
        self._backs = (0, 0, 0)  # turn-back ticks: left end, right end, both
        self._pool = DrawPool(rng)
        self.gathered = n < 4 or blocks[-1][-2] - blocks[0][1] <= n
        self._failed = 0  # ticks that raised

    # -- observers ---------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return self._n

    def _at(self, key: int) -> float:
        """The correctly rounded position of ``key``: ``table[rank] + cell``."""
        cell, rank = divmod(key, self._n)
        return self._table[rank] + (cell + self._cell0)

    @property
    def invariant_checks(self) -> int:
        """Ticks that passed both invariant checks: every tick at N >= 4
        runs them, and only a tick that raised did not pass."""
        return self.t - self._failed if self._n >= 4 else 0

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(map(self._at, chain.from_iterable(self._blocks)))

    @property
    def total_span(self) -> float:
        return self._at(self._blocks[-1][-1]) - self._at(self._blocks[0][0])

    @property
    def core_span(self) -> float:
        """``x_{N-1} - x_2`` (1-indexed); defined as 0 for N <= 3."""
        if self._n < 4:
            return 0.0
        return self._at(self._blocks[-1][-2]) - self._at(self._blocks[0][1])

    @property
    def turn_backs(self) -> tuple[int, int, int]:
        """Ticks on which ``(the left end, the right end, both ends)`` turned
        back, i.e. jumped away from the group."""
        return self._backs

    def centroid(self) -> float:
        # the exact sum rounded once, so the value depends on the multiset of
        # positions only.  Each tick moves each moving end one unit inward,
        # and each turn-back moves it two units back.
        left, right, _ = self._backs
        drift = (self.mode == UNILATERAL_LEFT) - (self.mode == UNILATERAL_RIGHT)
        moves = drift * self.t + 2 * (right - left) if self._n > 1 else 0
        return math.fsum(self._sum + (moves,)) / self._n

    def fractional_parts(self) -> tuple[float, ...]:
        return tuple(sorted(circular_fraction(x) for x in self.positions))

    # -- stepping ----------------------------------------------------------

    def advance(self, ticks: int, until_gathered: bool = False) -> tuple[int, int]:
        """Run ``ticks`` ticks, stopping early once gathered if ``until_gathered``.

        Returns the last tick's ``(d_left, d_right)``, or ``(0, 0)`` when no
        tick ran.  Draws are read straight from the pool's block.  On a
        raise, the state and the pool are left as the failing tick left
        them, with ``t`` counting that tick.
        """
        if ticks < 0:
            raise ValidationError(f"ticks must be >= 0, got {ticks}")
        n = self._n  # one unit, in key steps
        if n == 1:  # nothing moves, and one agent is always gathered
            if not until_gathered:
                self.t += ticks
            return 0, 0

        first, last = self._blocks[0], self._blocks[-1]
        multi = first is not last  # else the block bookkeeping is skipped
        mode = self.mode
        move_left = mode != UNILATERAL_RIGHT
        move_right = mode != UNILATERAL_LEFT
        check_core = n >= 4
        keep = 1.0 - self.params.epsilon
        pool = self._pool
        draws, i = pool.block, pool.i
        end = len(draws)
        t, gathered = self.t, self.gathered
        # x_2 and x_{N-1} before a tick matter only while not gathered
        x2, xp = (None, None) if gathered else (first[1], last[-2])
        back = -n
        d_left = d_right = lefts = rights = both = 0
        try:
            for _ in range(ticks):
                if until_gathered and gathered:
                    break
                lo, hi = first[0], last[-1]
                if move_left:
                    if i == end:
                        draws, i = pool.refill(), 0
                        end = len(draws)
                    if draws[i] < keep:
                        d_left = n
                    else:
                        d_left = back
                        lefts += 1
                    i += 1
                if move_right:
                    if i == end:
                        draws, i = pool.refill(), 0
                        end = len(draws)
                    if draws[i] < keep:
                        d_right = back
                    else:
                        d_right = n
                        rights += 1
                        if d_left == back:
                            both += 1
                    i += 1
                    del last[-1]
                if d_left:
                    del first[0]
                    if multi:
                        self._put(lo + d_left)
                    else:
                        insort(first, lo + d_left)
                if d_right:
                    if multi:
                        self._put(hi + d_right)
                    else:
                        insort(last, hi + d_right)
                t += 1
                if multi and not (2 < len(first) <= 2 * _BLOCK and 2 < len(last) <= 2 * _BLOCK):
                    first, last = self._relayout()

                if check_core:
                    x2_after, xp_after = first[1], last[-2]
                    if not gathered and (x2_after < x2 or xp_after > xp):
                        at = self._at
                        raise InvariantViolationError(
                            f"core edge moved outward at t={t}: "
                            f"x2 {at(x2)} -> {at(x2_after)}, "
                            f"x_(N-1) {at(xp)} -> {at(xp_after)}"
                        )
                    core_after = xp_after - x2_after
                    if core_after > n and gathered and mode == BILATERAL:
                        raise InvariantViolationError(
                            f"gathered core reopened at t={t}: core span {self.core_span}"
                        )
                    gathered = core_after <= n
                    x2, xp = x2_after, xp_after
        except InvariantViolationError:
            self._failed += 1
            raise
        finally:
            pool.i = i
            self.t, self.gathered = t, gathered
            if lefts or rights:  # most one-tick calls turn back no end
                left, right, both_ends = self._backs
                self._backs = (left + lefts, right + rights, both_ends + both)
        return d_left // n, d_right // n

    def _put(self, key: int) -> None:
        """Insert a moved key into a layout of several blocks.

        The key goes to an end block when it lies within that block's
        range, else to the first middle block whose last key is >= it, or
        to the front of the last block.  A block that this bisection fills
        past ``2*_BLOCK`` keys gives its lower ``_BLOCK`` keys to a new
        middle block before it, so the end blocks stay the same lists; the
        caller has `_relayout` re-cut an overfull end block.
        """
        blocks = self._blocks
        first, last = blocks[0], blocks[-1]
        if key <= first[-1]:
            insort(first, key)
        elif key >= last[0]:
            insort(last, key)
        else:
            tops = self._tops
            j = bisect_left(tops, key) + 1
            block = blocks[j]
            insort(block, key)
            if len(block) > 2 * _BLOCK:
                lower = block[:_BLOCK]
                del block[:_BLOCK]
                blocks.insert(j, lower)
                tops.insert(j - 1, lower[-1])

    def _relayout(self) -> tuple[list[int], list[int]]:
        """Merge an end block below 3 keys inward, re-cut an end block above
        ``2*_BLOCK`` keys, and return the new end blocks."""
        blocks = self._blocks
        if len(blocks[0]) < 3:
            keys = blocks.pop(0)
            blocks[0][:0] = keys
        if len(blocks[-1]) < 3:
            keys = blocks.pop()
            blocks[-1] += keys
        if len(blocks[-1]) > 2 * _BLOCK:
            blocks[-1:] = _cut(blocks[-1])
        if len(blocks[0]) > 2 * _BLOCK:
            blocks[:1] = _cut(blocks[0])
        self._tops[:] = [block[-1] for block in blocks[1:-1]]
        return blocks[0], blocks[-1]


@dataclass(frozen=True)
class GatheringResult:
    """First tick with core span <= 1, or ``reached=False`` on timeout."""

    T: int
    reached: bool
    final_state: SwarmState1D


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a one-sided sweep toward a beacon."""

    T: int
    finished: bool
    beacon_position: float
    final_state: SwarmState1D
    crossings: int


def new_swarm(
    positions: Sequence[float],
    epsilon: float | WalkParams,
    seed: int | np.random.SeedSequence,
    mode: str = BILATERAL,
) -> SwarmState1D:
    """Build a swarm state: sorted positions, t=0, PCG64 stream from ``seed``."""
    params = epsilon if isinstance(epsilon, WalkParams) else WalkParams(epsilon)
    rng = np.random.Generator(np.random.PCG64(seed))
    return SwarmState1D(positions, params, rng, mode)


def metrics(state: SwarmState1D, reference: float | None = None) -> Metrics:
    """Centroid, variance, and spans.

    ``variance`` is the mean squared deviation from ``reference`` when
    given (the fixed-origin form whose one-tick decrease is exactly
    ``(2/N)(total_span - 1)`` in the deterministic ``epsilon = 0`` case),
    otherwise from the current centroid.
    """
    c = state.centroid()
    ref = c if reference is None else reference
    var = math.fsum((x - ref) ** 2 for x in state.positions) / state.n_agents
    return Metrics(c, var, state.core_span, state.total_span)


def _emit(state: SwarmState1D, sink: Callable[[TrajectoryRow], None]) -> None:
    sink(
        TrajectoryRow(
            state.t,
            state.centroid(),
            state.core_span,
            state.total_span,
            state._at(state._blocks[0][0]),
            state._at(state._blocks[-1][-1]),
        )
    )


class _InwardEnd:
    """One end's inward-only moves, from sorted ``keys`` with this end first.

    ``second[P]`` is ``x_2`` after P inward moves, at any depth.  The
    popped keys are the closure ``{key + j*N}`` in sorted order: first the
    ``lone`` levels below the second agent's cell, where only ``keys[0]``
    moves and ``x_2`` stays ``keys[1]``, then, from that cell on, each
    level's keys in rank order; ``who`` lists those later entries' agents
    (indices into ``keys``).  There every level holds two agents or more,
    and between an agent's entries at two levels lies an entry of each
    other agent; so the next entry is always another agent's, and ``x_2``
    at entry q is entry q+1.
    """

    __slots__ = ("n", "keys", "cells", "ranks", "lone", "who", "second")

    def __init__(self, keys: np.ndarray, n: int) -> None:
        cells = keys // n
        self.n, self.keys, self.cells, self.ranks = n, keys, cells, keys - cells * n
        self.lone = int(cells[1] - cells[0])
        self.who = self.second = np.empty(0, np.int64)

    def seconds(self, phase: np.ndarray) -> np.ndarray:
        need = int(phase[-1]) + 1  # phases never fall
        if need > self.second.size:
            self._grow(max(need, 2 * self.second.size))
        return self.second[phase]

    def _grow(self, size: int) -> None:
        """List entries anew until ``second`` covers ``size`` phases."""
        n, lone = self.n, self.lone
        if size <= lone:
            self.second = np.full(size, self.keys[1])
            return
        want = size - lone + 1
        # agent a lists levels start[a] up to top - 1; the first m agents,
        # listed up to the next one's start, give m*start[m] - sum(start[:m])
        start = np.maximum(self.cells, self.cells[1])
        total = np.cumsum(start)
        reach = np.arange(1, n + 1) * np.append(start[1:], start[-1] + want) - total
        m = int(np.searchsorted(reach, want)) + 1
        top = -(-(want + int(total[m - 1])) // m)
        counts = top - start[:m]
        who = np.repeat(np.arange(m), counts)
        first = np.cumsum(counts) - counts  # each agent's first entry
        level = np.arange(who.size) + np.repeat(start[:m] - first, counts)
        vals = level * n + self.ranks[who]
        order = np.argsort(vals, kind="stable")  # ties: equal keys, in agent order
        self.who = who[order]
        self.second = np.concatenate((np.full(lone, self.keys[1]), vals[order[1:]]))

    def moves(self, phase: int, depth: int) -> np.ndarray:
        """Each agent's inward units after ``phase`` inward moves at ``depth``."""
        lone = self.lone
        units = np.bincount(self.who[: max(phase - lone, 0)], minlength=self.n)
        units[0] += min(phase, lone)
        units[0 if phase < lone else self.who[phase - lone]] -= depth
        return units


def _jump_to_gathering(state: SwarmState1D, max_steps: int) -> None:
    """Run a bilateral swarm's ticks up to gathering or ``max_steps`` in numpy.

    Leaves the state, the pool and every tally as `SwarmState1D.advance`
    with ``until_gathered`` would; the module docstring gives the method.
    Each pass reads the pool's draws ahead, ``_JUMP_DRAWS`` at first and
    twice as many each pass after, up to ``_JUMP_CAP``, and gives back
    those past its last tick.  The state is built once, at the last tick
    run: the tick that gathers, that moves a core edge outward (raised, as
    `advance` raises), or ``max_steps``.  If that tick leaves the swarm
    apart, the caller goes on with `advance`.
    """
    n, pool = state._n, state._pool
    keys = np.fromiter(chain.from_iterable(state._blocks), np.int64, n)
    ends = _InwardEnd(keys, n), _InwardEnd(-keys[::-1], n)  # right end: negated keys
    keep = 1.0 - state.params.epsilon
    walk = np.zeros(2, np.int64)  # X of the left and right end before the next tick
    phase = np.zeros(2, np.int64)
    t = both = 0
    want = _JUMP_DRAWS
    while t < max_steps:
        src = pool.ahead(min(want, 2 * (max_steps - t)))
        want = min(2 * want, _JUMP_CAP)
        ticks = min(src.size // 2, max_steps - t)
        back = src[: 2 * ticks].reshape(ticks, 2).T >= keep  # rows: left, right
        steps = np.empty((2, ticks + 1), np.int64)
        steps[:, 0] = walk
        np.subtract(1, 2 * back, out=steps[:, 1:])
        x = np.cumsum(steps, axis=1)
        p = np.maximum.accumulate(x, axis=1)
        np.maximum(p, phase[:, None], out=p)
        # x_2 and -x_{N-1} before the pass, then after each tick
        low, high = ends[0].seconds(p[0]), ends[1].seconds(p[1])
        stop = np.flatnonzero(
            (low[1:] + high[1:] >= -n) | (low[1:] < low[:-1]) | (high[1:] < high[:-1])
        )
        ran = int(stop[0]) + 1 if stop.size else ticks
        pool.consume(2 * ran)
        both += int(np.count_nonzero(back[0, :ran] & back[1, :ran]))
        t += ran
        walk, phase = x[:, ran], p[:, ran]
        if stop.size:
            break
    x2, xp = int(low[ran - 1]), -int(high[ran - 1])  # before the last tick

    left, right = (end.moves(int(ph), int(ph - x)) for end, ph, x in zip(ends, phase, walk))
    keys += (left - right[::-1]) * n
    keys.sort()
    state._blocks = blocks = [block.tolist() for block in _cut(keys)]
    state._tops = [block[-1] for block in blocks[1:-1]]
    state.t += t
    # each end's X counts inward ticks less turn-backs
    left_backs, right_backs, both_backs = state._backs
    state._backs = (
        left_backs + (t - int(walk[0])) // 2,
        right_backs + (t - int(walk[1])) // 2,
        both_backs + both,
    )
    x2_after, xp_after = blocks[0][1], blocks[-1][-2]
    if x2_after < x2 or xp_after > xp:
        state._failed += 1
        at = state._at
        raise InvariantViolationError(
            f"core edge moved outward at t={state.t}: "
            f"x2 {at(x2)} -> {at(x2_after)}, "
            f"x_(N-1) {at(xp)} -> {at(xp_after)}"
        )
    state.gathered = xp_after - x2_after <= n


def run_until_gathered(
    state: SwarmState1D,
    max_steps: int,
    sink: Callable[[TrajectoryRow], None] | None = None,
    stride: int = 1,
) -> GatheringResult:
    """Step until ``state.gathered``, or ``max_steps`` ticks pass.

    For ``N <= 3`` the core span is 0 by definition and T = 0.  When a
    ``sink`` is given, a trajectory row is emitted at entry and every
    ``stride`` ticks thereafter (plus the final tick), by `advance` calls
    of at most ``stride`` ticks.  Without a sink, a bilateral swarm that
    is not gathered jumps to its gathering tick in numpy (the two ends as
    reflected walks, see the module docstring); the unilateral modes, and
    any tick after a jump that stopped short of gathering, use `advance`.
    Both paths leave the identical state, pool and tallies.
    """
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if sink is None:
        t0 = state.t
        if state.mode == BILATERAL and not state.gathered and max_steps:
            _jump_to_gathering(state, max_steps)
        state.advance(max_steps - (state.t - t0), until_gathered=True)
    else:
        _emit(state, sink)
        t0 = state.t
        end = t0 + max_steps
        while state.t < end and not state.gathered:
            state.advance(min(end - state.t, stride - state.t % stride), until_gathered=True)
            if state.t % stride == 0:
                _emit(state, sink)
        if state.t != t0 and state.t % stride != 0:
            _emit(state, sink)
    return GatheringResult(state.t, state.gathered, state)


class _ShapeTable:
    """Gathered one-block swarms up to translation, and their transitions.

    A shape is the sorted keys less ``x_2``, as a tuple.  Shape ``s`` owns
    the four rows ``4*s + code``, one per tick code ``2*left_back +
    right_back``: ``next[row]`` is the next shape's first row (-1 until
    learned) and ``shift[row]`` the tick's change of ``x_2``.  ``low`` and
    ``high`` hold each shape's first and last key.
    """

    __slots__ = ("n", "ids", "shapes", "next", "shift", "low", "high", "work")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.n = len(shape)
        self.ids: dict[tuple[int, ...], int] = {}
        self.shapes: list[tuple[int, ...]] = []
        self.next: list[int] = []
        self.shift: list[int] = []
        self.low: list[int] = []
        self.high: list[int] = []
        self.work = 0  # key copies spent learning
        self._add(shape)

    def _add(self, shape: tuple[int, ...]) -> int:
        row = self.ids.get(shape)
        if row is None:
            row = self.ids[shape] = len(self.next)
            self.shapes.append(shape)
            self.next += (-1, -1, -1, -1)
            self.shift += (0, 0, 0, 0)
            self.low.append(shape[0])
            self.high.append(shape[-1])
        return row

    def learn(self, row: int, ticks: int) -> int:
        """Run the tick of ``row`` on its shape and store where it leads.

        Returns the next shape's first row, or -1, storing nothing, when
        the tick would reopen the core, or when the table is full or has
        cost more than the ``ticks`` run so far saved (see `_TABLE_KEYS`).
        """
        n = self.n
        self.work += 64 + n
        if self.work > _TABLE_KEYS // 8 + 16 * ticks or len(self.shapes) * n > _TABLE_KEYS:
            return -1
        old = self.shapes[row >> 2]
        keys = list(old[1:-1])
        insort(keys, old[0] + (-n if row & 2 else n))
        insort(keys, old[-1] + (n if row & 1 else -n))
        if keys[-2] - keys[1] > n:
            return -1
        base = keys[1]
        self.next[row] = nxt = self._add(tuple([key - base for key in keys]))
        self.shift[row] = base
        return nxt


def _shape_ticks(state: SwarmState1D, spans: np.ndarray, stride: int) -> int:
    """Run ``len(spans) * stride`` ticks of a bilateral, gathered, one-block
    swarm by table lookups, filling the spans of the samples they finish.

    Draws come from the pool ahead, about ``_TABLE_DRAWS`` a pass, as tick
    codes.  A tick with no stored transition is learned; one that cannot
    be (it reopens the core, or the table is full or too costly) ends the
    call there.  Leaves the state, the pool and the tallies as `advance`
    would after the ticks run, and returns their count.
    """
    n, pool = state._n, state._pool
    block = state._blocks[0]
    x2 = block[1]
    table = _ShapeTable(tuple([key - x2 for key in block]))
    nxt, learn = table.next, table.learn
    keep = 1.0 - state.params.epsilon
    fractions = np.frombuffer(state._table)
    cell0 = state._cell0
    total = len(spans) * stride
    row = t = 0
    backs = np.zeros(3, np.int64)  # turn-back ticks: left, right, both
    while t < total:
        src = pool.ahead(min(_TABLE_DRAWS, 2 * (total - t)))
        ticks = min(src.size // 2, total - t)
        back = src[: 2 * ticks].reshape(ticks, 2) >= keep
        codes = (2 * back[:, 0] + back[:, 1]).astype(np.uint8).tobytes()
        path = array("q")  # the row of each tick run
        append = path.append
        for code in codes:
            now = row + code
            row = nxt[now]
            if row < 0:
                row = learn(now, t + len(path))
                if row < 0:
                    row = now & -4
                    break
            append(now)
        ran = len(path)
        pool.consume(2 * ran)
        if ran:
            rows = np.frombuffer(path, np.int64)
            x2s = x2 + np.cumsum(np.array(table.shift)[rows])  # x_2 after each tick
            first = (-t - 1) % stride  # the pass's first tick that ends a sample
            at = np.arange(first, ran, stride)
            if at.size:
                after = np.array(nxt)[rows[at]] >> 2
                lo = x2s[at] + np.array(table.low)[after]
                hi = x2s[at] + np.array(table.high)[after]
                j = (t + first + 1) // stride - 1
                spans[j : j + at.size] = (fractions[hi % n] + (hi // n + cell0)) - (
                    fractions[lo % n] + (lo // n + cell0)
                )
            back = back[:ran]
            backs += (*back.sum(axis=0), np.count_nonzero(back[:, 0] & back[:, 1]))
            x2 = int(x2s[-1])
            t += ran
        if ran < ticks:
            break
    block[:] = [key + x2 for key in table.shapes[row >> 2]]
    state.t += t
    state._backs = tuple(int(a + b) for a, b in zip(state._backs, backs))
    return t


def sample_total_spans(state: SwarmState1D, samples: int, stride: int) -> np.ndarray:
    """`SwarmState1D.total_span` after each of ``samples`` runs of ``stride``
    ticks, leaving the state, the pool and the tallies as that many
    ``advance(stride)`` calls would.

    A bilateral, gathered swarm of one block (4 <= N <= ``2*_BLOCK``) runs
    on the shape table of the module docstring, as far as the table takes
    it; every other state, and any tick after, runs the `advance` loop.
    """
    if samples < 0 or stride < 0:
        raise ValidationError(f"need samples >= 0 and stride >= 0, got {samples}, {stride}")
    spans = np.empty(samples)
    one_block = state._n >= 4 and len(state._blocks) == 1
    tabled = state.mode == BILATERAL and state.gathered and one_block
    ticks = _shape_ticks(state, spans, stride) if tabled and samples and stride else 0
    done, part = divmod(ticks, stride or 1)
    for i in range(done, samples):
        state.advance(stride - part)
        part = 0
        spans[i] = state.total_span
    return spans


def run_unilateral_sweep(state: SwarmState1D, max_steps: int) -> SweepResult:
    """Run a right-to-left sweep until the beacon is the rightmost agent.

    The beacon is the leftmost agent at entry; it never moves during the
    sweep (only the rightmost agent does, and the run stops the moment
    the beacon is rightmost).  On completion every other agent sits in
    ``(beacon - 1, beacon]``.  Each agent strictly above the beacon at
    entry jumps over it exactly once, and one that already sits at the
    beacon never does; the number of leftward beacon crossings is
    counted and verified against that.
    """
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if state.mode != UNILATERAL_RIGHT:
        raise ValidationError("sweep requires unilateral-right mode")
    if state.n_agents < 2:
        raise ValidationError("need at least one agent besides the beacon")
    blocks = state._blocks  # the end blocks can change between ticks
    n = state.n_agents
    beacon = blocks[0][0]
    above = sum(k > beacon for k in chain.from_iterable(blocks))
    crossings = 0
    advance = state.advance
    for _ in range(max_steps):
        hi = blocks[-1][-1]
        if hi <= beacon:
            break
        _, d = advance(1)
        if d == -1 and hi - n <= beacon:
            crossings += 1
    finished = blocks[-1][-1] <= beacon
    if finished:
        if crossings != above:
            raise InvariantViolationError(
                f"expected {above} beacon crossings, counted {crossings}"
            )
        if not all(beacon - n < k <= beacon for k in chain.from_iterable(blocks)):
            raise InvariantViolationError(
                "sweep finished with agents outside (beacon-1, beacon]"
            )
    return SweepResult(state.t, finished, state._at(beacon), state, crossings)


# -- single-walker simulators ----------------------------------------------


@dataclass(frozen=True)
class WalkSample:
    """First-passage statistics over independent walks from 0 to -1."""

    trials: int
    mean: float
    variance: float
    stderr: float
    excursion_mean: float
    excursion_stderr: float


def _absorbed_walks(
    rng: np.random.Generator, eps: float, trials: int, lower: int, upper: int | None
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Walk ``trials`` walkers from 0 in lockstep until each is absorbed.

    A walker is absorbed on hitting ``lower`` or ``upper`` (``None``: no
    upper barrier).  Returns the absorption ticks in absorption order
    (trial order within a tick), the running peaks in the same order, and
    the number absorbed at ``upper``.  Only first passage reports
    excursions, so the peaks are tracked only when ``upper`` is None and
    are None otherwise.  Each tick draws one uniform per live walker, in
    trial order.  A hard cap of 10^9 ticks aborts with a diagnostic.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if upper is None:
        dtype = np.int64
        peak = np.zeros(trials, dtype=np.int64)
        done_peak = np.empty(trials, dtype=np.int64)
    else:
        # a live walker stays inside (lower, upper), so a step lands in
        # [lower, upper]: the narrowest signed type holding both suffices
        dtype = next(
            (t for t in (np.int8, np.int16, np.int32)
             if np.iinfo(t).min <= lower and upper <= np.iinfo(t).max),
            np.int64,
        )
        peak = done_peak = None
    position = np.zeros(trials, dtype=dtype)
    done_ticks = np.empty(trials, dtype=np.int64)
    filled = hits_upper = tick = 0
    while position.size:
        tick += 1
        if tick > _WALK_STEP_CAP:
            raise RuntimeError(
                f"walk exceeded {_WALK_STEP_CAP} ticks without absorption; "
                f"epsilon={eps}, {position.size} trials still running"
            )
        up = rng.random(position.size) < eps
        position -= 1  # then +2 where the walker steps up
        position += up
        position += up
        hit = position == lower
        if upper is None:
            np.maximum(peak, position, out=peak)
        else:
            at_upper = position == upper
            n_upper = np.count_nonzero(at_upper)
            if n_upper:
                hits_upper += n_upper
                hit |= at_upper
        n_hit = np.count_nonzero(hit)
        if n_hit:
            # every live walker has taken exactly ``tick`` steps
            done_ticks[filled : filled + n_hit] = tick
            live = ~hit
            if upper is None:
                done_peak[filled : filled + n_hit] = peak[hit]
                peak = peak[live]
            filled += n_hit
            position = position[live]
    return done_ticks, done_peak, int(hits_upper)


def simulate_walk_first_passage(
    p: WalkParams, seed: int | np.random.SeedSequence, trials: int
) -> WalkSample:
    """Monte Carlo first-passage times from 0 to -1 for the biased walk.

    Also records each trial's farthest rightward excursion before the
    hit.  All trials advance in lockstep on vectorized draws; the hit is
    almost sure, but a hard cap of 10^9 ticks per trial aborts with a
    diagnostic if something is badly wrong.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    done_ticks, done_peak, _ = _absorbed_walks(rng, p.epsilon, trials, -1, None)
    steps_f = done_ticks.astype(float)
    peak_f = done_peak.astype(float)
    var = float(steps_f.var(ddof=1)) if trials > 1 else 0.0
    exc_sd = float(peak_f.std(ddof=1)) if trials > 1 else 0.0
    return WalkSample(
        trials=trials,
        mean=float(steps_f.mean()),
        variance=var,
        stderr=math.sqrt(var / trials),
        excursion_mean=float(peak_f.mean()),
        excursion_stderr=exc_sd / math.sqrt(trials),
    )


@dataclass(frozen=True)
class BarrierSample:
    """Empirical two-barrier absorption split."""

    trials: int
    p_upper: float
    stderr: float


def simulate_two_barrier_hits(
    p: WalkParams, seed: int | np.random.SeedSequence, trials: int, upper: int, lower: int
) -> BarrierSample:
    """Fraction of walks from 0 absorbed at ``upper`` before ``lower``."""
    if not lower < 0 < upper:
        raise ValidationError(f"need lower < 0 < upper, got {lower}, {upper}")
    rng = np.random.Generator(np.random.PCG64(seed))
    _, _, hits_upper = _absorbed_walks(rng, p.epsilon, trials, lower, upper)
    p_hat = hits_upper / trials
    return BarrierSample(trials, p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials))


@dataclass(frozen=True)
class ChainOccupancy:
    """Empirical occupancy of the reflected walk on {1, 2, ...}.

    ``batch_means`` holds the per-batch averages of the visited state
    over consecutive equal windows; their spread gives a standard error
    for `mean` that respects the chain's autocorrelation.
    """

    samples: int
    counts: np.ndarray  # counts[k-1] = visits to state k after burn-in
    batch_means: np.ndarray | None = None

    def frequency(self, k: int) -> float:
        if k < 1:
            raise ValidationError(f"state index must be >= 1, got {k}")
        if k > self.counts.size:
            return 0.0
        return float(self.counts[k - 1]) / self.samples

    def mean(self) -> float:
        states = np.arange(1, self.counts.size + 1)
        return float((states * self.counts).sum() / self.samples)

    def mean_stderr(self) -> float:
        if self.batch_means is None or self.batch_means.size < 2:
            raise ValidationError("no batch means recorded; need samples >= 2*batches")
        return float(self.batch_means.std(ddof=1) / math.sqrt(self.batch_means.size))


def simulate_reflected_chain(
    p: WalkParams,
    seed: int | np.random.SeedSequence,
    burn_in: int,
    samples: int,
    batches: int = 100,
) -> ChainOccupancy:
    """Occupancy of the left-reflected walk after ``burn_in`` ticks.

    The chain moves ``k -> k+1`` with probability ``epsilon`` and
    ``k -> max(1, k-1)`` otherwise, started at 1; the post-burn-in state
    is recorded at every tick.  When ``samples >= 2 * batches``, the
    visited states are also averaged over ``batches`` consecutive equal
    windows (the trailing remainder is left out of the windows).

    Draws come in blocks of 262,144.  Within a block, with ``S`` the
    running sum of the +-1 steps and ``k0`` the state carried in, the
    Lindley recursion gives every state at once:
    ``k_t = 1 + S_t - min(1 - k0, min_{j<=t} S_j)``.  Visits and window
    sums are then tallied with `np.bincount`; the window sums are integers
    that float64 holds exactly below 2**53, so the result is exactly that
    of stepping the chain one draw at a time.
    """
    if burn_in < 0 or samples < 1:
        raise ValidationError("need burn_in >= 0 and samples >= 1")
    if batches < 2:
        raise ValidationError("need batches >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = p.epsilon
    per_batch = samples // batches if samples >= 2 * batches else 0
    counts = np.zeros(1, dtype=np.int64)  # counts[k] = visits to state k
    batch_sums = np.zeros(batches)
    k = 1
    total = burn_in + samples
    block = 262_144
    for start in range(0, total, block):
        walk = np.cumsum(np.where(rng.random(min(block, total - start)) < eps, 1, -1))
        states = 1 + walk - np.minimum(np.minimum.accumulate(walk), 1 - k)
        k = int(states[-1])
        skip = max(burn_in - start, 0)  # burn-in ticks at the head of this block
        kept = states[skip:]
        visits = np.bincount(kept)
        if visits.size > counts.size:
            counts = np.pad(counts, (0, visits.size - counts.size))
        counts[: visits.size] += visits
        if per_batch:
            index = np.arange(kept.size) + (start + skip - burn_in)
            window = index < batches * per_batch
            batch_sums += np.bincount(
                index[window] // per_batch, weights=kept[window], minlength=batches
            )
    means = batch_sums / per_batch if per_batch else None
    return ChainOccupancy(samples, counts[1:], means)
