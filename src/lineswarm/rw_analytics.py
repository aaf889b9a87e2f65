"""Closed-form facts about unit-step random walks biased toward one side.

A walker on the integers moves one unit per tick, toward its preferred
side with probability ``1 - epsilon`` and away from it with probability
``epsilon``, where ``0 <= epsilon < 1/2``.  Writing ``alpha = 1/2 -
epsilon`` for the bias strength, the facts implemented here are:

* the walk reaches the first site on its preferred side almost surely,
  in ``1 / (1 - 2 epsilon)`` expected ticks;
* it reaches the first site on the opposite side with probability
  ``epsilon / (1 - epsilon)`` only;
* the expected farthest excursion against the bias before the first
  preferred-side visit is at most ``epsilon / (1 - 2 epsilon)``;
* the reflected walk on ``{1, 2, ...}`` (left moves from state 1 stay
  at 1) has stationary law ``pi(k) = r^(k-1) (1 - 2 eps)/(1 - eps)``
  with ``r = epsilon / (1 - epsilon)``, hence tail ``P(X >= k) =
  r^(k-1)``, mean ``(1 - eps)/(1 - 2 eps)`` in closed form, and for two
  independent copies ``P(X + Y >= k) = r^(k-2) ((k-2)(1-2 eps)/(1-eps) +
  1)``.

On top of these sit the expected-time bounds for a swarm of agents on
the line in which only the two extremal agents move (see `sim1d`): the
one-sided sweep bound and the full gathering bound driven by the
smallest circular distance between fractional parts of the initial
positions.

Everything here is a pure function of its arguments.  `finite_chain_oracle`
is deliberately implemented as a banded linear solve rather than through
any of the closed forms above, so tests can use it as an independent
cross-check.  The solve is a tridiagonal elimination without row
exchanges in plain floats, in the operation order of LAPACK's ``?gtsv``;
no exchange is ever due, as its docstring shows, so the package needs
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateConfigurationError, ValidationError

__all__ = [
    "WalkParams",
    "AbsorbingChainSolution",
    "catalan",
    "prob_hit_minus_one",
    "prob_hit_plus_one",
    "expected_steps_to_minus_one",
    "farthest_excursion_bound",
    "stationary_pi",
    "tail_prob_single",
    "tail_prob_sum",
    "markov_span_bound",
    "gathering_bound_unilateral",
    "min_fractional_distance",
    "gathering_time_bound",
    "gathering_bound_from_terms",
    "finite_chain_oracle",
    "reflected_chain_mean",
]

CATALAN_MAX_K = 35


@dataclass(frozen=True)
class WalkParams:
    """Bias parameter of the walk; ``alpha = 1/2 - epsilon`` is derived.

    ``epsilon + alpha == 0.5`` holds exactly in double precision (the
    subtraction result is within half an ulp of 0.5, so the round trip
    recovers 0.5 exactly).
    """

    epsilon: float

    def __post_init__(self) -> None:
        eps = self.epsilon
        if not (isinstance(eps, (int, float)) and math.isfinite(eps)):
            raise ValidationError(f"epsilon must be a finite number, got {eps!r}")
        if not 0.0 <= eps < 0.5:
            raise ValidationError(f"epsilon must lie in [0, 1/2), got {eps}")
        object.__setattr__(self, "epsilon", float(eps))

    @property
    def alpha(self) -> float:
        return 0.5 - self.epsilon

    @property
    def ratio(self) -> float:
        """``epsilon / (1 - epsilon)``, the geometric decay of all tails."""
        return self.epsilon / (1.0 - self.epsilon)


def catalan(k: int) -> int:
    """Exact k-th Catalan number, ``binom(2k, k) / (k + 1)``.

    Computed by the integer recurrence ``C_{k+1} = C_k * 2(2k+1) // (k+2)``
    (the division is always exact).  Limited to ``k <= 35``; beyond that
    callers are expected to switch to the closed-form ratios, so a larger
    ``k`` raises ``OverflowError``.
    """
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValidationError(f"k must be an integer, got {k!r}")
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")
    if k > CATALAN_MAX_K:
        raise OverflowError(
            f"catalan({k}) exceeds the supported range k <= {CATALAN_MAX_K}; "
            "use the closed-form tail ratios instead"
        )
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def prob_hit_minus_one(p: WalkParams) -> float:
    """Probability the walk ever reaches -1 from 0: exactly 1 for eps < 1/2."""
    return 1.0


def prob_hit_plus_one(p: WalkParams) -> float:
    """Probability the walk ever reaches +1 from 0: ``eps / (1 - eps)``."""
    return p.epsilon / (1.0 - p.epsilon)


def expected_steps_to_minus_one(p: WalkParams) -> float:
    """Expected ticks until the walk first reaches -1: ``1 / (1 - 2 eps)``."""
    return 1.0 / (1.0 - 2.0 * p.epsilon)


def farthest_excursion_bound(p: WalkParams) -> float:
    """Upper bound on the expected farthest rightward excursion before -1.

    A path first reaching -1 after ``2k+1`` ticks makes exactly ``k``
    right moves, so its maximum never exceeds ``k``; summing ``k`` against
    the first-passage law gives ``eps / (1 - 2 eps)``.
    """
    return p.epsilon / (1.0 - 2.0 * p.epsilon)


# past this n * ln(1/r), r**n lies below 2^-1075, half the smallest subnormal
_UNDERFLOW_LOG = 1075 * math.log(2.0) + 1.0
_POWER_CHUNK = 1 << 16
# the most factors `_ratio_power` multiplies, a few seconds' work: below the
# underflow cut, which passes 10^18 factors as epsilon nears 1/2, a larger
# power is refused rather than run for days
_POWER_BUDGET = 1 << 30


def _ratio_power(p: WalkParams, n: int) -> float:
    # Repeated multiplication keeps the k -> k+1 step a single multiply by a
    # factor < 1, so tails stay monotone; a log/exp round trip would not.
    # `multiply.accumulate` multiplies in order, so each chunk gives the
    # doubles of the scalar loop.
    r = p.ratio
    if n and (r == 0.0 or n * -math.log(r) > _UNDERFLOW_LOG):
        return 0.0  # r**n rounds to 0.0: no need to run n factors
    if n > _POWER_BUDGET:
        raise ValidationError(
            f"(epsilon/(1-epsilon))**{n} needs {n} factors, past the limit of "
            f"{_POWER_BUDGET}: use a smaller k or epsilon"
        )
    acc = 1.0
    while n:
        m = min(n, _POWER_CHUNK)
        run = np.full(m + 1, r)
        run[0] = acc
        np.multiply.accumulate(run, out=run)
        if (run[1:] == run[:-1]).any():  # 0.0, or a subnormal that every later factor keeps
            return 0.0
        acc = float(run[-1])
        n -= m
    return acc


def stationary_pi(p: WalkParams, k: int) -> float:
    """Stationary probability of state ``k`` of the reflected walk.

    ``pi(k) = (eps/(1-eps))^(k-1) * (1-2 eps)/(1-eps)`` on states 1, 2, ...
    For ``eps = 0`` this is the point mass at 1.
    """
    if k < 1:
        raise ValidationError(f"state index must be >= 1, got {k}")
    if p.epsilon == 0.0:
        return 1.0 if k == 1 else 0.0
    head = (1.0 - 2.0 * p.epsilon) / (1.0 - p.epsilon)
    return _ratio_power(p, k - 1) * head


def tail_prob_single(p: WalkParams, k: int) -> float:
    """``P(X >= k) = (eps/(1-eps))^(k-1)`` for the reflected walk at stationarity."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return _ratio_power(p, k - 1)


def tail_prob_sum(p: WalkParams, k: int) -> float:
    """``P(X + Y >= k)`` for two independent stationary reflected walks.

    Equals ``(eps/(1-eps))^(k-2) * ((k-2)(1-2 eps)/(1-eps) + 1)`` for
    ``k >= 2``.  Because each extremal agent's distance from the core is
    dominated by such a walk, this is an upper bound on the probability
    that the total span of the swarm is at least ``k``.
    """
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    head = (1.0 - 2.0 * p.epsilon) / (1.0 - p.epsilon)
    return _ratio_power(p, k - 2) * ((k - 2) * head + 1.0)


def markov_span_bound(p: WalkParams, k: float) -> float:
    """Crude Markov-inequality bound on ``P(total span >= k)``.

    The expected span after gathering is at most ``1 + 2 eps/(1-2 eps)``,
    so ``P(span >= k) <= 1/k + (2 eps / k) / (1 - 2 eps)``, clamped to 1.
    """
    if not k > 0:
        raise ValidationError(f"k must be positive, got {k}")
    return min(1.0, 1.0 / k + (2.0 * p.epsilon / k) / (1.0 - 2.0 * p.epsilon))


def _finite_positions(positions: Sequence[float]) -> np.ndarray:
    """``positions`` as a flat float array, every entry finite."""
    x = np.asarray(positions, dtype=float)
    if x.ndim != 1 or not np.isfinite(x).all():
        raise ValidationError("positions must be a flat sequence of finite numbers")
    return x


def gathering_bound_unilateral(positions: Sequence[float], p: WalkParams) -> float:
    """Expected ticks for a one-sided sweep to carry every agent over a beacon.

    ``positions[0]`` is the beacon; the remaining agents must lie
    strictly above it, strictly increasing.  When only the rightmost agent
    moves, every agent crosses the beacon exactly once and the sweep ends
    after an expected ``(1/(1-2 eps)) * sum(floor(x_k - x_0) + 1)`` ticks,
    leaving all agents in ``(x_0 - 1, x_0]``.
    """
    x = _finite_positions(positions)
    if x.size < 2:
        raise ValidationError("need a beacon plus at least one agent")
    if (x[1:] <= x[:-1]).any():
        raise ValidationError("positions must be strictly increasing")
    beacon, *agents = x.tolist()
    total = sum(math.floor(v - beacon) + 1 for v in agents)  # exact, in ints
    return total / (1.0 - 2.0 * p.epsilon)


def min_fractional_distance(positions: Sequence[float]) -> float:
    """Smallest circular distance between fractional parts of the positions.

    ``d = min over pairs of min(|{x_i} - {x_j}|, 1 - |{x_i} - {x_j}|)``,
    always in (0, 1/2].  Unit jumps preserve fractional parts, so ``d``
    is invariant along any trajectory.  The bound needs distinct
    fractional parts: circular distance zero makes ``d`` undefined and
    raises ``DegenerateConfigurationError``.
    """
    x = _finite_positions(positions)
    if x.size < 2:
        raise ValidationError("need at least two positions")
    # % rounds as Python's does: a tiny negative x gives 1.0, which is 0.0 on the circle
    fracs = x % 1.0
    fracs[fracs == 1.0] = 0.0
    fracs.sort()
    # the circular wrap between the largest and smallest fractional part
    best = min(float(np.diff(fracs).min()), 1.0 - float(fracs[-1] - fracs[0]))
    if best == 0.0:
        raise DegenerateConfigurationError(
            "duplicate fractional parts; the bound needs distinct fractional parts"
        )
    return best


def gathering_bound_from_terms(
    n_agents: int, s0: float, total_span0: float, d: float, p: WalkParams
) -> float:
    """Gathering-time bound from precomputed terms.

    ``(N (s0 + ceil(log2(s0/d))) + (total_span0 - s0 - 1)) / (1 - 2 eps)``;
    the ceiling term is taken as 0 when ``s0 <= d`` because the first
    half-shrink phase already lands the core below the fractional gap.
    Ratios within one part in 10^12 of a power of two are snapped down a
    phase, so inputs that sit exactly on the boundary in exact arithmetic
    are not bumped by representation noise.
    """
    if s0 <= 0:
        return 0.0
    ratio = s0 / d
    if ratio <= 1.0 + 1e-12:
        halvings = 0
    else:
        # a tiny d (a subnormal one, say) overflows s0 / d, not log2(s0) - log2(d)
        log_ratio = math.log2(ratio) if ratio < math.inf else math.log2(s0) - math.log2(d)
        halvings = math.ceil(log_ratio - 1e-12)
    steps = n_agents * (s0 + halvings) + (total_span0 - s0 - 1.0)
    return steps / (1.0 - 2.0 * p.epsilon)


def gathering_time_bound(positions: Sequence[float], p: WalkParams) -> float:
    """Expected ticks until the inner agents fit in a unit interval.

    With sorted positions, ``s0 = x_{N-1}(0) - x_2(0) - 1`` (1-indexed) and
    ``d`` the minimum circular fractional distance, repeated half-shrinks
    reach the unit interval after at most ``ceil(log2(s0/d))`` phases, giving

        (N (s0 + ceil(log2(s0/d))) + (x_N - x_1 - s0 - 1)) / (1 - 2 eps).

    Returns 0 when the core already fits (``s0 <= 0``).
    """
    x = _finite_positions(positions)
    if (x[1:] < x[:-1]).any():
        raise ValidationError("positions must be sorted non-decreasing")
    if x.size < 4:
        raise ValidationError(f"need at least 4 agents, got {x.size}")
    x1, x2, x_penult, xn = x[[0, 1, -2, -1]].tolist()
    s0 = x_penult - x2 - 1.0
    if s0 <= 0:
        return 0.0
    d = min_fractional_distance(x)  # raises on duplicate fractional parts
    return gathering_bound_from_terms(x.size, s0, xn - x1, d, p)


@dataclass(frozen=True)
class AbsorbingChainSolution:
    """Exact absorption data for the finite walk on ``{left, ..., right}``.

    Arrays are indexed by ``state - left_target`` and cover both
    absorbing boundary states.
    """

    left_target: int
    right_barrier: int
    p_left: np.ndarray
    p_right: np.ndarray
    expected_steps: np.ndarray

    def at(self, state: int) -> tuple[float, float, float]:
        """``(P(absorb left), P(absorb right), E[steps])`` from ``state``."""
        if not self.left_target <= state <= self.right_barrier:
            raise ValidationError(
                f"state {state} outside [{self.left_target}, {self.right_barrier}]"
            )
        i = state - self.left_target
        return (
            float(self.p_left[i]),
            float(self.p_right[i]),
            float(self.expected_steps[i]),
        )


def finite_chain_oracle(
    p: WalkParams, right_barrier: int, left_target: int
) -> AbsorbingChainSolution:
    """Solve the absorbing finite walk exactly, as an independent oracle.

    The walk moves ``+1`` with probability ``eps`` and ``-1`` with
    probability ``1 - eps``; both boundary states absorb.  Absorption
    probabilities and expected absorption times are obtained from the
    tridiagonal first-step equations via a banded linear solve, with no
    use of the closed forms elsewhere in this module, so the two routes
    check each other.  As the right barrier grows, the left-absorption
    probability from 0 tends to 1 and the expected time to
    ``1/(1 - 2 eps)``.

    The solve is Gaussian elimination without row exchanges, factored
    once for the three right-hand sides, with the operations of LAPACK's
    ``?gtsv`` in its order, so it gives that routine's bits.  ``?gtsv``
    exchanges rows only where a pivot is smaller in magnitude than the
    subdiagonal ``1 - eps``, which never happens: the first pivot is 1,
    and from a pivot ``d >= 1 - eps`` the factor ``(1 - eps)/d`` is at
    most 1, so the next pivot ``1 - factor * eps`` rounds to at least
    ``1 - eps``.  The pivots fall from 1 toward ``1 - eps``.
    """
    if not left_target < 0 < right_barrier:
        raise ValidationError(
            f"need left_target < 0 < right_barrier, got {left_target}, {right_barrier}"
        )
    span = right_barrier - left_target
    if span > 10_000:
        raise ValidationError(f"chain span {span} exceeds the supported 10^4")

    m = span - 1  # interior states
    eps = p.epsilon
    # rows: u_s + sup*u_{s+1} + sub*u_{s-1} = rhs for interior s
    sub, sup = -(1.0 - eps), -eps
    factors, pivots = [], [1.0]
    for _ in range(m - 1):
        factors.append(sub / pivots[-1])
        pivots.append(1.0 - factors[-1] * sup)

    def solve(rhs: list[float]) -> list[float]:
        for s, factor in enumerate(factors):
            rhs[s + 1] -= factor * rhs[s]
        rhs[-1] /= pivots[-1]
        for s in range(m - 2, -1, -1):
            rhs[s] = (rhs[s] - sup * rhs[s + 1]) / pivots[s]
        return rhs

    zeros = [0.0] * (m - 1)
    # the neighbour below the first interior state absorbs left
    p_left = np.array([1.0, *solve([1.0 - eps, *zeros]), 0.0])
    p_right = np.array([0.0, *solve([*zeros, eps]), 1.0])
    steps = np.array([0.0, *solve([1.0] * m), 0.0])
    return AbsorbingChainSolution(left_target, right_barrier, p_left, p_right, steps)


def reflected_chain_mean(p: WalkParams) -> float:
    """Mean of the reflected walk's stationary law: ``(1 - eps)/(1 - 2 eps)``.

    The closed form of ``sum k pi(k)``; 1 at ``eps = 0``, where the law
    is the point mass at 1.
    """
    return (1.0 - p.epsilon) / (1.0 - 2.0 * p.epsilon)
