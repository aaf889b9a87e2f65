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

Positions are plain doubles validated to ``|x| < 2**52``.  Unit jumps
are then exactly representable whenever the positions live on a dyadic
lattice with headroom (multiples of ``2**-q`` staying below ``2**(52-q)``
in magnitude), in which case the multiset of fractional parts is
conserved bit for bit; fully continuous draws can pick up one-ulp
rounding at binade crossings, which nothing below depends on.  Position
comparisons are exact; no tolerances enter anywhere.

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
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
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
    """Sorted agent positions plus tick counter and a seeded RNG stream.

    Mutable; confined to one execution context at a time.  All stepping
    draws come from a `DrawPool` on the PCG64 stream, so any split of the
    ticks into `advance` calls consumes the identical sequence of uniforms.
    """

    __slots__ = (
        "params",
        "mode",
        "t",
        "gathered",
        "invariant_checks",
        "_pos",
        "_pool",
    )

    def __init__(
        self,
        positions: Sequence[float],
        params: WalkParams,
        rng: np.random.Generator,
        mode: str,
    ) -> None:
        pos = sorted(float(x) for x in positions)
        if not pos:
            raise ValidationError("need at least one agent")
        if any(not (math.isfinite(x) and abs(x) < _MAX_MAGNITUDE) for x in pos):
            raise ValidationError("positions must satisfy |x| < 2**52")
        if mode not in MODES:
            raise ValidationError(f"unknown mode {mode!r}; expected one of {sorted(MODES)}")
        self.params = params
        self.mode = mode
        self.t = 0
        self._pos = pos
        self._pool = DrawPool(rng)
        self.gathered = self.core_span <= 1.0
        self.invariant_checks = 0

    # -- observers ---------------------------------------------------------

    @property
    def n_agents(self) -> int:
        return len(self._pos)

    @property
    def positions(self) -> tuple[float, ...]:
        return tuple(self._pos)

    @property
    def total_span(self) -> float:
        return self._pos[-1] - self._pos[0]

    @property
    def core_span(self) -> float:
        """``x_{N-1} - x_2`` (1-indexed); defined as 0 for N <= 3."""
        if len(self._pos) < 4:
            return 0.0
        return self._pos[-2] - self._pos[1]

    def centroid(self) -> float:
        # fsum gives the correctly rounded sum, so the value is independent
        # of storage order and bit-stable under the exact +1/-1 moves.
        return math.fsum(self._pos) / len(self._pos)

    def fractional_parts(self) -> tuple[float, ...]:
        return tuple(sorted(circular_fraction(x) for x in self._pos))

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
        pos = self._pos
        n = len(pos)
        if n == 1:  # nothing moves, and one agent is always gathered
            if not until_gathered:
                self.t += ticks
            return 0, 0

        mode = self.mode
        move_left = mode != UNILATERAL_RIGHT
        move_right = mode != UNILATERAL_LEFT
        check_core = n >= 4
        keep = 1.0 - self.params.epsilon
        pool = self._pool
        draws, i = pool.block, pool.i
        end = len(draws)
        t, gathered, checks = self.t, self.gathered, self.invariant_checks
        d_left = d_right = 0
        try:
            for _ in range(ticks):
                if until_gathered and gathered:
                    break
                if check_core:
                    x2_before, xp_before = pos[1], pos[-2]
                lo, hi = pos[0], pos[-1]
                if move_left:
                    if i == end:
                        draws, i = pool.refill(), 0
                        end = len(draws)
                    d_left = 1 if draws[i] < keep else -1
                    i += 1
                if move_right:
                    if i == end:
                        draws, i = pool.refill(), 0
                        end = len(draws)
                    d_right = -1 if draws[i] < keep else 1
                    i += 1
                    del pos[-1]
                if d_left:
                    del pos[0]
                    insort(pos, lo + d_left)
                if d_right:
                    insort(pos, hi + d_right)
                t += 1

                if check_core:
                    if not gathered and (pos[1] < x2_before or pos[-2] > xp_before):
                        raise InvariantViolationError(
                            f"core edge moved outward at t={t}: "
                            f"x2 {x2_before} -> {pos[1]}, "
                            f"x_(N-1) {xp_before} -> {pos[-2]}"
                        )
                    core_after = pos[-2] - pos[1]
                    if core_after > 1.0 and gathered and mode == BILATERAL:
                        raise InvariantViolationError(
                            f"gathered core reopened at t={t}: core span {core_after}"
                        )
                    gathered = core_after <= 1.0
                    checks += 1
        finally:
            pool.i = i
            self.t, self.gathered, self.invariant_checks = t, gathered, checks
        return d_left, d_right


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
    var = math.fsum((x - ref) ** 2 for x in state._pos) / state.n_agents
    return Metrics(c, var, state.core_span, state.total_span)


def _emit(state: SwarmState1D, sink: Callable[[TrajectoryRow], None]) -> None:
    sink(
        TrajectoryRow(
            state.t,
            state.centroid(),
            state.core_span,
            state.total_span,
            state._pos[0],
            state._pos[-1],
        )
    )


def run_until_gathered(
    state: SwarmState1D,
    max_steps: int,
    sink: Callable[[TrajectoryRow], None] | None = None,
    stride: int = 1,
) -> GatheringResult:
    """Step until ``state.gathered``, or ``max_steps`` ticks pass.

    For ``N <= 3`` the core span is 0 by definition and T = 0.  When a
    ``sink`` is given, a trajectory row is emitted at entry and every
    ``stride`` ticks thereafter (plus the final tick).
    """
    if max_steps < 0:
        raise ValidationError(f"max_steps must be >= 0, got {max_steps}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    if sink is None:
        state.advance(max_steps, until_gathered=True)
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
    pos = state._pos
    beacon = pos[0]
    above = sum(x > beacon for x in pos)
    crossings = 0
    advance = state.advance
    for _ in range(max_steps):
        if pos[-1] <= beacon:
            break
        hi = pos[-1]
        _, d = advance(1)
        if d == -1 and hi - 1.0 <= beacon:
            crossings += 1
    finished = pos[-1] <= beacon
    if finished:
        if crossings != above:
            raise InvariantViolationError(
                f"expected {above} beacon crossings, counted {crossings}"
            )
        if not all(beacon - 1.0 < x <= beacon for x in pos):
            raise InvariantViolationError(
                "sweep finished with agents outside (beacon-1, beacon]"
            )
    return SweepResult(state.t, finished, beacon, state, crossings)


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
) -> tuple[np.ndarray, np.ndarray, int]:
    """Walk ``trials`` walkers from 0 in lockstep until each is absorbed.

    A walker is absorbed on hitting ``lower`` or ``upper`` (``None``: no
    upper barrier).  Returns the absorption ticks and the running peaks in
    absorption order (trial order within a tick) and the number absorbed
    at ``upper``.  A hard cap of 10^9 ticks aborts with a diagnostic.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    position = np.zeros(trials, dtype=np.int64)
    peak = np.zeros(trials, dtype=np.int64)
    done_ticks = np.empty(trials, dtype=np.int64)
    done_peak = np.empty(trials, dtype=np.int64)
    filled = hits_upper = tick = 0
    while position.size:
        tick += 1
        if tick > _WALK_STEP_CAP:
            raise RuntimeError(
                f"walk exceeded {_WALK_STEP_CAP} ticks without absorption; "
                f"epsilon={eps}, {position.size} trials still running"
            )
        position += np.where(rng.random(position.size) < eps, 1, -1)
        np.maximum(peak, position, out=peak)
        hit = position == lower
        if upper is not None:
            at_upper = position == upper
            hits_upper += int(at_upper.sum())
            hit |= at_upper
        if hit.any():
            # every live walker has taken exactly ``tick`` steps
            n_hit = int(hit.sum())
            done_ticks[filled : filled + n_hit] = tick
            done_peak[filled : filled + n_hit] = peak[hit]
            filled += n_hit
            position = position[~hit]
            peak = peak[~hit]
    return done_ticks, done_peak, hits_upper


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
