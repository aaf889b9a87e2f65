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

`run_until_gathered` jumps a bilateral swarm to its gathering tick T in
numpy, since until T the two ends never move the same agent.  Take the
left end's draws as +1 (inward) and -1 (turn back), their running sum
``X_t``, the phase ``P_t = max(0, max_{u<=t} X_u)`` and the depth ``D_t
= P_t - X_t``: a walk reflected at its running maximum.  After t ticks
the left side is ``C_P``, the keys after P inward moves alone, with its
extreme agent D units further out, so ``x_2 = second(C_P)`` at every
depth.  The P keys those moves pop are the P smallest of the closure
``{key + j*N : j >= 0}``; with ``key = N*cell + rank`` the closure runs
level by level, each level's keys in rank order, and ``second(C_P)`` is
its next entry of another agent.  The right end is the mirror image, on
negated keys.  While ``x_{N-1} - x_2 > 1``, the left end's moved keys
stay at most one unit above its ``x_2``, so strictly below ``x_{N-1}``,
and the right end's at most one unit below its ``x_{N-1}``, so strictly
above ``x_2``: neither end sees the other's agents.  At T both moves
read the state before the tick, so the state at T is the two ends' moves
together, and T is the first tick at which each end's own ``x_2`` and
``x_{N-1}`` lie within one unit (`_jump_to_gathering` shows why).  The
jump checks the core-edge invariant on every tick, as arrays, and builds
the blocks once, at T.  The same arrays give the trajectory rows before
T: ``x_2`` and ``x_{N-1}``, each extreme as its end's closure entry P
less D units, and the centroid from the turn-backs, ``(t - X_t)/2`` at
each end.  Its memory is O(N + T).

The jump runs in numpy passes over the draws ahead, and each pass needs
the two ends' closures listed as far as its phases reach.  Both are
sized from the start: the ends meet near the mean position, after about
``P = sum(|x - mean|)/2`` inward moves each, and an end's phase grows by
``1 - 2*epsilon`` a tick.  So the passes take the draws of the ticks that
P and two standard deviations of the walk need, in equal passes of at
most ``_JUMP_CAP`` draws, and the first listing covers P and four
standard deviations.  Nearly every run gathers within them, with one
listing per end; a run that does not goes on in passes of twice as many
draws and lists its ends anew, at least twice as far.

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
gives, and the tallies follow from the counts of the codes.  Near
epsilon = 1/2 the excursions grow and shapes multiply, and learning costs
O(N) a pair, so a call goes on with `advance` once its learning costs more
than its lookups save.

The lookups run four ticks at a time.  A quad memo maps a shape and four
tick codes, packed first-most-significant into a byte ``c``, to the shape
after them: ``quad[256*s + c] = 256*s'``.  A missing quad is composed from
the four single-tick transitions, learning any that are missing in tick
order, exactly as single ticks would, and then stored.  Only the first
shapes get memo entries, ``_QUAD_MEMO`` in all, and a call goes on one
tick at a time from the first pass after its quad misses pass
``_QUAD_MISSES`` plus half its hits, so a call whose quads seldom recur
pays little for them.  The loop
keeps only each quad's first shape; numpy recovers the rows of its four
ticks from it and the codes, with three gathers of the ``next`` array.
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
from .rw_analytics import WalkParams
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
    "new_swarm",
    "run_until_gathered",
    "run_unilateral_sweep",
    "sample_total_spans",
    "simulate_walk_first_passage",
    "simulate_two_barrier_hits",
    "simulate_reflected_chain",
    "exact_sum",
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
# draws the gathering jump adds to two a tick for the ticks it expects,
# and the most in one numpy pass
_JUMP_DRAWS = 32
_JUMP_CAP = 32768
# draws in one pass of `sample_total_spans`: its arrays add to the
# process's peak memory
_TABLE_DRAWS = 16384
# keys the shape table of `sample_total_spans` may hold: its memory cap.
# Learning a transition costs about as much as copying 64 + N keys, and a
# looked-up tick saves about 16 over `advance`, so a call also goes on with
# `advance` once its learning passes _TABLE_KEYS/8 + 16 per tick run
_TABLE_KEYS = 2**19
# entries of the quad memo of `sample_total_spans`: 256 for each of its
# first shapes.  A missed quad costs about its four ticks one at a time and
# a hit about a quarter of that, so a call goes on one tick at a time once
# its quad misses pass _QUAD_MISSES plus half its hits
_QUAD_MEMO = 2**16
_QUAD_MISSES = 1024
# draws in one block of `simulate_reflected_chain`: its few arrays of that
# many stay in cache
_CHAIN_BLOCK = 2**15


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


def exact_sum(xs: Sequence[float]) -> tuple[float, ...]:
    """The exact sum of the sequence ``xs`` as a few non-overlapping
    doubles, largest first.

    The first is ``math.fsum(xs)``, the correctly rounded sum, so ``fsum``
    of the tuple, alone or with more terms, rounds an exact sum once.  It
    raises where ``math.fsum(xs)`` does: `OverflowError` when a partial sum
    overflows.
    """
    total = [math.fsum(xs)]
    while rest := math.fsum(chain(xs, map(neg, total))):
        total.append(rest)
    return tuple(total)


class SwarmState1D:
    """Sorted agent keys in blocks, plus tick counter and a seeded RNG stream.

    Construction splits each sorted position into its cell and fraction
    and ranks the fractions by one argsort: the sorted fractions are the
    table, and an agent's rank is the first index of its fraction's run of
    equal values there.  Equal fractions are equal doubles (``x - rint(x)``
    is +0.0 at an integer, never -0.0), so the argsort's order among them
    changes neither the table's bytes nor any key, and it need not be
    stable.

    ``_blocks`` is the block list of the module docstring: one block while
    ``N <= 2*_BLOCK``, else middle blocks of ``_BLOCK`` to ``2*_BLOCK``
    keys and end blocks of 3 to ``2*_BLOCK``.  ``_tops`` holds the last key
    of each middle block, for routing a moved key.  ``_backs`` holds the
    three turn-back tallies ``(left, right, both)`` read by `turn_backs`;
    `centroid` uses ``right - left``.  They change only on a tick where an
    end turns back, so the inward-move path of `advance` never touches them.

    Mutable; confined to one execution context at a time.  All stepping
    draws come from a `DrawPool`, so any split of the ticks into `advance`
    calls consumes the identical sequence of uniforms.
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
        total = exact_sum(x.tolist())
        # x = cell + f exactly, f in (-1/2, 1/2]; temporaries go as soon as
        # they are used, since N can be 10^5
        cells = np.rint(x)
        f = x - cells
        del x
        order = f.argsort()
        if f[order[0]] == -0.5:  # rint rounds half to even: move those halves a cell down
            half = f == -0.5
            cells -= half
            f += half
            order = f.argsort()
        table = f[order]
        del f
        self._table = array("d", table.tobytes())
        # each agent's rank is the first index of its fraction's run in the table
        rank = np.arange(n)
        tie = table[1:] == table[:-1]
        if np.count_nonzero(tie):
            rank[1:][tie] = 0
            np.maximum.accumulate(rank, out=rank)
        keys = np.empty_like(rank)
        keys[order] = rank
        del order, rank, tie, table
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
        self._sum = total
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

    def _doubles(self, keys: np.ndarray) -> np.ndarray:
        """`_at` of each of an int64 array of keys, in the same operations."""
        n = self._n
        return np.frombuffer(self._table)[keys % n] + (keys // n + self._cell0)

    def _outward_error(
        self, t: int, x2: int, xp: int, x2_after: int, xp_after: int
    ) -> InvariantViolationError:
        """The error of a tick ``t`` that moved ``x_2`` down or ``x_{N-1}`` up."""
        at = self._at
        return InvariantViolationError(
            f"core edge moved outward at t={t}: "
            f"x2 {at(x2)} -> {at(x2_after)}, "
            f"x_(N-1) {at(xp)} -> {at(xp_after)}"
        )

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
                        raise self._outward_error(t, x2, xp, x2_after, xp_after)
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


def _emit(state: SwarmState1D, sink: Callable[[TrajectoryRow], None]) -> None:
    x1, xn = state._at(state._blocks[0][0]), state._at(state._blocks[-1][-1])
    sink(TrajectoryRow(state.t, state.centroid(), state.core_span, xn - x1, x1, xn))


class _InwardEnds:
    """Both ends' inward-only moves, from the sorted ``keys``.

    Row 0 of each array here is the left end; row 1 is the right end,
    which works on the keys' mirror image: negated, in reverse order.  An
    end's popped keys are the closure ``{key + j*N}`` of its keys in
    sorted order: level by level, each level's keys in rank order.  Below
    the second agent's cell lie ``lone`` levels where only the first agent
    moves and ``x_2`` stays the second key.  From that cell on every level
    holds two agents or more, and between an agent's entries at two levels
    lies an entry of each other agent; so the next entry is always another
    agent's, and ``x_2`` at entry q is entry q+1.  ``second[e, P]`` is end
    e's ``x_2`` after P inward moves, at any depth: entry P+1, or the
    second key while that is larger.
    """

    __slots__ = ("n", "keys", "ends", "lone", "reach", "second")

    def __init__(self, keys: np.ndarray, n: int, reach: int) -> None:
        """The first listing covers ``reach`` phases or more."""
        self.n, self.keys, self.reach = n, keys, reach
        self.ends = [keys[:2].tolist(), (-keys[:-3:-1]).tolist()]  # each end's first two keys
        self.lone = [second // n - first // n for first, second in self.ends]
        self.second = np.empty((2, 0), np.int64)

    def seconds(self, phase: np.ndarray) -> np.ndarray:
        """``second`` at each phase of a row per end; phases never fall
        along a row."""
        size = self.second.shape[1]
        need = max(phase[:, -1].tolist()) + 1
        if need > size:
            self._grow(max(need, 2 * size, self.reach))
        got = np.empty_like(phase)
        for row, listed, at in zip(got, self.second, phase):
            listed.take(at, out=row)
        return got

    def entries(self, phase: np.ndarray) -> np.ndarray:
        """The closure's entry at each phase of a row per end: the end
        agent's key at depth 0.  Up to ``lone`` it is the first key moved
        ``phase`` units, or the second key where that passes it; after,
        the ``x_2`` of one phase before (at phase 0, index -1 reads a value
        that is not picked)."""
        ends = np.array(self.ends)
        first = ends[:, :1] + phase * self.n
        np.minimum(first, ends[:, 1:], out=first)
        later = np.take_along_axis(self.second, phase - 1, axis=1)
        return np.where(phase > np.array(self.lone)[:, None], later, first)

    def _grow(self, size: int) -> None:
        """List both ends' closures anew until ``second`` covers ``size``
        phases: entries 0 to ``size``."""
        n, keys = self.n, self.keys
        self.second = None  # the old listing goes before the new one is built
        # agent a lists levels cell[a] up to top - 1.  The first m agents,
        # listed up to the next one's cell, give m*cell[m] - sum(cell[:m])
        # entries, which never falls as m grows.  N can be 10^5, so the
        # cells are summed in place, and each is read back as a difference
        # of two sums
        sums = np.empty(n, np.int64)
        tops, used = [], 2
        # floor(key / -N), taken in reverse order, is the right end's cells
        for row, step in ((keys, n), (keys[::-1], -n)):
            np.floor_divide(row, step, out=sums)
            np.cumsum(sums, out=sums)
            m = bisect_left(
                range(1, n), size + 1, key=lambda m: m * int(sums[m]) - (m + 1) * int(sums[m - 1])
            ) + 1
            tops.append([-(-(size + 1 + int(sums[m - 1])) // m)])
            used = max(used, m)
        del sums
        # agent a's entries are its key + j*N up to level top - 1, none past
        # m: each is its agent's key less N times the index of the agent's
        # first entry, plus N times its own index
        base = np.empty((2, used), np.int64)
        base[0] = keys[:used]
        np.negative(keys[: -used - 1 : -1], out=base[1])
        counts = base // n
        np.subtract(tops, counts, out=counts)
        np.maximum(counts, 0, out=counts)
        counts, base = counts.ravel(), base.ravel()
        first = np.cumsum(counts)
        first -= counts
        split = int(first[used])  # the left end's entries
        first *= n
        base -= first
        del first
        vals = np.repeat(base, counts)
        del base, counts
        vals += np.arange(0, vals.size * n, n)
        vals[:split].sort()
        vals[split:].sort()
        self.second = second = np.empty((2, size), np.int64)
        (_, left), (_, right) = self.ends  # each end's second key
        np.maximum(vals[1 : size + 1], left, out=second[0])
        np.maximum(vals[split + 1 : split + size + 1], right, out=second[1])

    def move(self, phase: list[int], depth: list[int]) -> None:
        """Move ``keys`` by each end's ``phase`` inward moves at ``depth``.

        Entry ``phase`` of an end's closure, ``v``, is the next to pop:
        each agent at or below ``v``, in that end's order, has popped its
        entries below it, ``ceil((v - key)/N)`` of them, and of the agents
        with an entry at ``v``, as many as ``phase`` reaches popped it and
        the next is the end agent, out at ``depth``.  Those agents share a
        rank, so which of them popped makes no odds to the keys.  Both ends
        read the keys before either moves them."""
        n, keys = self.n, self.keys
        v = [
            min(first + p * n, second) if p <= lone else int(listed[p - 1])
            for (first, second), p, lone, listed in zip(self.ends, phase, self.lone, self.second)
        ]
        # the agents at or below v: a head of the keys on the left, and a
        # tail on the right, where each key's mirror image is -key
        head, tail = np.searchsorted(keys, v[0], "right"), np.searchsorted(keys, -v[1])
        gaps = v[0] + n - 1 - keys[:head], v[1] + n - 1 + keys[tail:]
        moved = []
        for gap, p, out in zip(gaps, phase, depth):
            units, part = np.divmod(gap, n)
            popped = p - int(units.sum())
            if popped or out:
                at_v = np.flatnonzero(part == n - 1)  # whole units below v
                units[at_v[:popped]] += 1
                units[at_v[popped]] -= out
            units *= n
            moved.append(units)
        keys[:head] += moved[0]
        keys[tail:] -= moved[1]


def _jump_rows(state, ends, x, p, seconds, t, ticks, stride, sink) -> None:
    """Emit the rows at stride multiples among a jump pass's first ``ticks``
    ticks, from its arrays: column j of ``x``, ``p`` and ``seconds`` is the
    state ``t + j`` ticks into the jump, as `_jump_to_gathering` holds it.
    Each double is the ``table[rank] + cell`` of `_at`."""
    t += state.t
    at = np.arange(stride - t % stride, ticks + 1, stride)
    if not at.size:
        return
    n, double = state._n, state._doubles
    walk, phase = x[:, at], p[:, at]
    # each end's extreme agent: its closure entry, ``phase - walk`` units out
    extreme = ends.entries(phase) - (phase - walk) * n
    x_min, x_max = double(extreme[0]), double(-extreme[1])
    core = double(-seconds[1, at]) - double(seconds[0, at])
    # centroid moves: 2*(right - left) turn-backs, each end's being (t - X)/2
    left, right, _ = state._backs
    moves = walk[0] - walk[1] + 2 * (right - left)
    total = state._sum
    for tick, move, core_span, x1, xn in zip(
        range(t + int(at[0]), t + ticks + 1, stride),
        moves.tolist(),
        core.tolist(),
        x_min.tolist(),
        x_max.tolist(),
    ):
        sink(TrajectoryRow(tick, math.fsum(total + (move,)) / n, core_span, xn - x1, x1, xn))


def _gathering_estimate(keys: np.ndarray, n: int, eps: float) -> tuple[int, int]:
    """The phases the gathering jump lists at first and the ticks its
    passes take at first, from the sorted ``keys``.

    Below a level L the left end's closure holds ``sum(max(0, L - x))``
    entries, and above it the right end's ``sum(max(0, x - L))``: the two
    are equal at the mean position.  So the ends meet after about ``P =
    sum(|x - mean|)/2`` inward moves each.  An end's phase grows by ``1 -
    2*eps`` a tick, give or take ``s``, the standard deviation of the walk
    over ``P/(1 - 2*eps)`` ticks.  The listing covers ``P + 4*s`` phases,
    and the passes take the ticks of ``P + 2*s`` inward moves.
    """
    spread = keys - keys.sum(dtype=float) / n
    moves = float(np.abs(spread, out=spread).sum()) / (2.0 * n)
    drift = 1.0 - 2.0 * eps
    sd = math.sqrt(4.0 * eps * (1.0 - eps) * moves / drift)
    return int(moves + 4.0 * sd), int((moves + 2.0 * sd) / drift)


def _jump_to_gathering(
    state: SwarmState1D,
    max_steps: int,
    sink: Callable[[TrajectoryRow], None] | None = None,
    stride: int = 1,
) -> None:
    """Run a bilateral swarm's ticks up to gathering or ``max_steps`` in numpy.

    Leaves the state, the pool and every tally as `SwarmState1D.advance`
    with ``until_gathered`` would; the module docstring gives the method.
    Each pass reads the pool's draws ahead.  The first passes share two
    draws a tick for the ticks `_gathering_estimate` expects, plus
    ``_JUMP_DRAWS``, equally, at most ``_JUMP_CAP`` each; each pass after
    them reads twice as many as the one before, at most ``_JUMP_CAP``.
    The state is built once, at the last tick run: the tick that gathers,
    that moves a core edge outward (raised, as `advance` raises), or
    ``max_steps``.  The swarm gathers at the first tick at which each end's
    own ``x_2`` and ``x_{N-1}``, which the arrays hold, lie within one unit:
    there the new ``x_2`` is the left end's own or a key the right end
    moved, at most one unit below the right end's ``x_{N-1}`` before the
    tick; the new ``x_{N-1}`` is the mirror image; and keys the two ends
    moved lie less than one unit apart, as the core was wider than one
    unit.  So a jump that ends apart before ``max_steps`` raises.  With a
    ``sink``, each pass emits its rows at stride multiples, but not the
    last tick's, which the caller emits; a sink that raises leaves the
    state built at the end of that pass.
    """
    n, pool = state._n, state._pool
    keys = np.fromiter(chain.from_iterable(state._blocks), np.int64, n)
    state._blocks = []  # N Python ints: the passes need only ``keys``
    eps = state.params.epsilon
    keep = 1.0 - eps
    reach, ticks = _gathering_estimate(keys, n, eps)
    ends = _InwardEnds(keys, n, min(reach, max_steps))
    draws = 2 * ticks + _JUMP_DRAWS
    planned = -(-draws // _JUMP_CAP)  # passes that share them
    want = 2 * -(-draws // (2 * planned))  # draws a pass
    walk = phase = (0, 0)  # X and P of the left and right end before the next tick
    t = both = 0
    final = False  # the pass that runs the last tick
    try:
        while not final:
            src = pool.ahead(min(want, 2 * (max_steps - t)))
            planned -= 1
            if planned <= 0:
                want = min(2 * want, _JUMP_CAP)
            ticks = src.size // 2
            back = src[: 2 * ticks].reshape(ticks, 2) >= keep  # columns: left, right
            x = np.empty((ticks + 1, 2), np.int64)
            np.multiply(back, -2, out=x[1:])
            x[1:] += 1
            x[0] = walk
            np.cumsum(x, axis=0, out=x)
            x = x.T.copy()  # rows: left, right
            x[:, 0] = phase  # leads the running maximum; column 0 is read no more
            p = np.maximum.accumulate(x, axis=1)
            # x_2 and -x_{N-1} before the pass, then after each tick
            seconds = ends.seconds(p)
            low, high = seconds
            stop = low[1:] + high[1:] >= -n
            stop |= (seconds[:, 1:] < seconds[:, :-1]).any(axis=0)
            stop = np.flatnonzero(stop)
            ran = int(stop[0]) + 1 if stop.size else ticks
            pool.consume(2 * ran)
            both += int(np.count_nonzero(back[:ran, 0] & back[:ran, 1]))
            x2, xp = int(low[ran - 1]), -int(high[ran - 1])  # before the last tick
            t += ran
            final = stop.size > 0 or t == max_steps
            walk, phase = x[:, ran].tolist(), p[:, ran].tolist()
            if sink is not None:  # the last tick's row is the caller's
                _jump_rows(state, ends, x, p, seconds, t - ran, ran - final, stride, sink)
            del x, p, seconds, low, high
    finally:
        ends.move(phase, [p - x for p, x in zip(phase, walk)])
        keys.sort()
        state._blocks = blocks = [block.tolist() for block in _cut(keys)]
        state._tops = [block[-1] for block in blocks[1:-1]]
        state.t += t
        # each end's X counts inward ticks less turn-backs
        left_backs, right_backs, both_backs = state._backs
        state._backs = (
            left_backs + (t - walk[0]) // 2,
            right_backs + (t - walk[1]) // 2,
            both_backs + both,
        )
        x2_after, xp_after = blocks[0][1], blocks[-1][-2]
        state.gathered = xp_after - x2_after <= n
    if x2_after < x2 or xp_after > xp:
        state._failed += 1
        raise state._outward_error(state.t, x2, xp, x2_after, xp_after)
    if not state.gathered and t < max_steps:
        state._failed += 1
        raise InvariantViolationError(f"gathering jump ended apart at t={state.t}")


def run_until_gathered(
    state: SwarmState1D,
    max_steps: int,
    sink: Callable[[TrajectoryRow], None] | None = None,
    stride: int = 1,
) -> GatheringResult:
    """Step until ``state.gathered``, or ``max_steps`` ticks pass.

    For ``N <= 3`` the core span is 0 by definition and T = 0.  When a
    ``sink`` is given, a trajectory row is emitted at entry, at every tick
    that is a multiple of ``stride`` and at the last tick, once.  A
    bilateral swarm that is not gathered jumps to its gathering tick in
    numpy (the two ends as reflected walks, see the module docstring),
    taking its rows from the jump's arrays; the jump always ends gathered
    or at ``max_steps``.  The unilateral modes use `advance` calls of at
    most ``stride`` ticks.  Both paths leave the state, pool and tallies of
    a tick-at-a-time run, and emit its rows.
    """
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if sink is not None:
        _emit(state, sink)
    if state.gathered or not max_steps:
        return GatheringResult(state.t, state.gathered, state)
    if state.mode == BILATERAL:
        _jump_to_gathering(state, max_steps, sink, stride)
    elif sink is None:
        state.advance(max_steps, until_gathered=True)
    else:
        end = state.t + max_steps
        state.advance(min(max_steps, stride - state.t % stride), until_gathered=True)
        while state.t < end and not state.gathered:  # at a stride multiple
            _emit(state, sink)
            state.advance(min(end - state.t, stride), until_gathered=True)
    if sink is not None:
        _emit(state, sink)
    return GatheringResult(state.t, state.gathered, state)


class _ShapeTable:
    """Gathered one-block swarms up to translation, and their transitions.

    A shape is the sorted keys less ``x_2``, as a tuple.  Shape ``s`` owns
    the four rows ``4*s + code``, one per tick code ``2*left_back +
    right_back``: ``next[row]`` is the next shape's first row (-1 until
    learned) and ``shift[row]`` the tick's change of ``x_2``.  ``low`` and
    ``high`` hold each shape's first and last key.  The first shapes, while
    ``quad`` stays within ``_QUAD_MEMO`` entries, also own 256 quad entries
    ``256*s + c``, one per four tick codes packed first-most-significant:
    ``quad[256*s + c]`` is ``256*s'`` for the shape ``s'`` those four ticks
    lead to, -1 until composed.
    """

    __slots__ = ("n", "ids", "shapes", "next", "shift", "low", "high", "quad", "work")

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.n = len(shape)
        self.ids: dict[tuple[int, ...], int] = {}
        self.shapes: list[tuple[int, ...]] = []
        self.next: list[int] = []
        self.shift: list[int] = []
        self.low: list[int] = []
        self.high: list[int] = []
        self.quad: list[int] = []
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
            if len(self.quad) < _QUAD_MEMO:
                self.quad += [-1] * 256
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

    def follow(self, row: int, codes: bytes, ticks: int) -> tuple[int, array]:
        """Run the tick ``codes`` one at a time from the shape of first row
        ``row``, ``ticks`` ticks into the call, learning what is missing.

        Returns the first row of the shape reached and the row of each tick
        run.  A tick that cannot be learned ends the run before it, so
        fewer rows than ``codes`` come back.
        """
        nxt, learn = self.next, self.learn
        path = array("q")
        append = path.append
        for code in codes:
            now = row + code
            row = nxt[now]
            if row < 0:
                row = learn(now, ticks + len(path))
                if row < 0:
                    return now & -4, path
            append(now)
        return row, path


def _shape_ticks(state: SwarmState1D, spans: np.ndarray, stride: int) -> int:
    """Run ``len(spans) * stride`` ticks of a bilateral, gathered, one-block
    swarm by table lookups, filling the spans of the samples they finish.

    Draws come from the pool ahead, about ``_TABLE_DRAWS`` a pass, as tick
    codes.  A pass runs its ticks four at a time by the quad memo of the
    module docstring, and its last ``ticks % 4`` ticks one at a time, as
    it does every tick once the call's quad misses are too many.  A tick
    with no stored transition is learned; one that cannot be (it reopens
    the core, or the table is full or too costly) ends the call there.
    Leaves the state, the pool and the tallies as `advance` would after the
    ticks run, and returns their count.
    """
    pool = state._pool
    block = state._blocks[0]
    x2 = block[1]
    table = _ShapeTable(tuple([key - x2 for key in block]))
    nxt, quad = table.next, table.quad
    keep = 1.0 - state.params.epsilon
    total = len(spans) * stride
    row = t = quads = misses = 0  # quads run and missed
    built = -1  # table.work when the arrays below were built
    tally = np.zeros(4, np.int64)  # ticks run per code
    while t < total:
        src = pool.ahead(min(_TABLE_DRAWS, 2 * (total - t)))
        ticks = min(src.size // 2, total - t)
        back = (src[: 2 * ticks] >= keep).view(np.uint8)
        codes = (back[0::2] << 1) | back[1::2]
        code_bytes = codes.tobytes()
        starts = array("q")  # 256*shape before each quad run
        stopped = False
        if misses <= _QUAD_MISSES + (quads - misses) // 2:
            four = codes[: ticks - ticks % 4].reshape(-1, 4)
            packed = four[:, 0] << 6 | four[:, 1] << 4 | four[:, 2] << 2 | four[:, 3]
            append = starts.append
            q = row << 6
            for c in packed.tobytes():
                try:
                    nq = quad[q + c]
                except IndexError:  # a shape past the memo
                    nq = -1
                if nq < 0:
                    misses += 1
                    nq = q >> 6
                    for k in 6, 4, 2, 0:  # compose the quad from stored ticks
                        nq = nxt[nq + (c >> k & 3)]
                        if nq < 0:
                            break
                    if nq < 0:  # and learn what is missing, in tick order
                        i = 4 * len(starts)
                        nq, path = table.follow(q >> 6, code_bytes[i : i + 4], t + i)
                        if len(path) < 4:
                            q, stopped = nq << 6, True
                            break
                    nq <<= 6
                    if q + c < len(quad):
                        quad[q + c] = nq
                append(q)
                q = nq
            row = q >> 6
        if not stopped:  # the rest of the pass, a tick at a time
            i = 4 * len(starts)
            row, path = table.follow(row, code_bytes[i:], t + i)
        run = np.frombuffer(starts, np.int64)
        quads += run.size
        ran = 4 * run.size + len(path)
        pool.consume(2 * ran)
        if ran:
            if built != table.work:
                nexts, shift, low, high = map(np.array, (nxt, table.shift, table.low, table.high))
                built = table.work
            rows = np.empty(ran, np.int64)
            if run.size:  # each quad's rows, a tick at a time
                lead, four = rows[: 4 * run.size].reshape(-1, 4), four[: run.size]
                lead[:, 0] = (run >> 6) + four[:, 0]
                for k in 1, 2, 3:
                    lead[:, k] = nexts[lead[:, k - 1]] + four[:, k]
            rows[4 * run.size :] = np.frombuffer(path, np.int64)
            x2s = x2 + np.cumsum(shift[rows])  # x_2 after each tick
            first = (-t - 1) % stride  # the pass's first tick that ends a sample
            at = np.arange(first, ran, stride)
            if at.size:
                after = nexts[rows[at]] >> 2
                lo = x2s[at] + low[after]
                hi = x2s[at] + high[after]
                j = (t + first + 1) // stride - 1
                spans[j : j + at.size] = state._doubles(hi) - state._doubles(lo)
            tally += np.bincount(codes[:ran], minlength=4)
            x2 = int(x2s[-1])
            t += ran
        if ran < ticks:
            break
    block[:] = [key + x2 for key in table.shapes[row >> 2]]
    state.t += t
    left, right, both = state._backs
    state._backs = (left + int(tally[2] + tally[3]), right + int(tally[1] + tally[3]),
                    both + int(tally[3]))
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

    Draws come in blocks of ``_CHAIN_BLOCK`` (32,768), into buffers that
    every block reuses, in place.  Within a block, with ``S`` the
    running sum of the +-1 steps and ``k0`` the state carried in, the
    Lindley recursion gives every state at once:
    ``k_t = 1 + S_t - min(1 - k0, min_{j<=t} S_j)``.  Visits are tallied
    with `np.bincount` and window sums with `np.add.reduceat`, both in
    int64, so the result is exactly that of stepping the chain one draw at
    a time.
    """
    if burn_in < 0 or samples < 1:
        raise ValidationError("need burn_in >= 0 and samples >= 1")
    if batches < 2:
        raise ValidationError("need batches >= 2")
    rng = np.random.Generator(np.random.PCG64(seed))
    eps = p.epsilon
    per_batch = samples // batches if samples >= 2 * batches else 0
    counts = np.zeros(1, dtype=np.int64)  # counts[k] = visits to state k
    batch_sums = np.zeros(batches, dtype=np.int64)
    k = 1
    total = burn_in + samples
    block = min(_CHAIN_BLOCK, total)
    draws, up = np.empty(block), np.empty(block, bool)
    walk, low = np.empty((2, block), np.int64)
    steps = np.arange(1, block + 1)
    for start in range(0, total, block):
        size = min(block, total - start)
        if size < block:
            draws, up, walk, low, steps = draws[:size], up[:size], walk[:size], low[:size], steps[:size]
        rng.random(out=draws)
        # running sum of the +-1 steps: ups minus downs
        np.cumsum(np.less(draws, eps, out=up), out=walk)
        walk *= 2
        walk -= steps
        np.minimum(np.minimum.accumulate(walk, out=low), 1 - k, out=low)
        states = walk  # 1 + walk - low, in place
        states -= low
        states += 1
        k = int(states[-1])
        skip = max(burn_in - start, 0)  # burn-in ticks at the head of this block
        kept = states[skip:]
        visits = np.bincount(kept)
        if visits.size > counts.size:
            counts = np.pad(counts, (0, visits.size - counts.size))
        counts[: visits.size] += visits
        first = start + skip - burn_in  # sample index of kept[0]
        # kept rows inside the windows; none when per_batch is 0
        stop = min(kept.size, batches * per_batch - first)
        if stop > 0:
            # window edges at multiples of per_batch, the first clipped to kept[0]
            window = first // per_batch
            edges = np.arange(window * per_batch, first + stop, per_batch) - first
            edges[0] = 0
            batch_sums[window : window + edges.size] += np.add.reduceat(kept[:stop], edges)
    means = batch_sums / per_batch if per_batch else None
    return ChainOccupancy(samples, counts[1:], means)
