"""Independent oracles and helpers that only the tests call.

Each one is a small direct computation, kept apart from the package so
that the package holds only what the CLI, the experiments or the
benchmark run: series sums to check closed forms against, the absorbing
chain in exact rational arithmetic, a half-shrink bound, the ratio power
and the smallest fractional distance by scalar loops, the fractional
parts, the variance and the keys of a 1D swarm, the bisector at one
planar hull vertex, the planar orientation in exact rational arithmetic,
the planar centroid and hull diameter by direct sums and loops, and a
one-draw-at-a-time reader of a `DrawPool`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from lineswarm.errors import DegenerateConfigurationError, ValidationError
from lineswarm.rw_analytics import _UNDERFLOW_LOG, CATALAN_MAX_K, WalkParams, catalan
from lineswarm.seeding import DrawPool
from lineswarm.sim1d import SwarmState1D
from lineswarm.sim2d import HullInfo

__all__ = [
    "Metrics",
    "absorbing_chain_exact",
    "bisector_direction",
    "centroid_fsum",
    "circular_fraction",
    "fractional_parts",
    "half_shrink_bound",
    "hit_prob_series_partial_sums",
    "hull_diameter_pairs",
    "keys_by_search",
    "metrics",
    "min_fractional_distance_sorted",
    "orientation_exact",
    "ratio_power_loop",
    "reflected_chain_mean_series",
    "take",
]


# -- walks -------------------------------------------------------------------


def half_shrink_bound(
    n_agents: int, s0: float, total_span0: float, p: WalkParams
) -> float:
    """Expected ticks to shrink the core excess ``s0`` by half.

    When the inner agents span ``1 + s0``, placing two virtual fences a
    half-excess inward decouples the two extremal sweeps; whichever side
    finishes first has cleared ``ceil(s0/2)`` per inner agent plus the
    initial end gap, giving the bound
    ``(1/(1-2 eps)) * ((N-2) ceil(s0/2) + (total_span0 - 1))``.
    """
    if n_agents < 3:
        raise ValidationError(f"need at least 3 agents, got {n_agents}")
    if not s0 > 0:
        raise ValidationError(f"s0 must be positive, got {s0}")
    if not total_span0 >= 1.0 + s0:
        raise ValidationError(
            f"total span {total_span0} cannot be smaller than 1 + s0 = {1.0 + s0}"
        )
    steps = (n_agents - 2) * math.ceil(s0 / 2.0) + (total_span0 - 1.0)
    return steps / (1.0 - 2.0 * p.epsilon)


def hit_prob_series_partial_sums(p: WalkParams, k_max: int = CATALAN_MAX_K) -> list[float]:
    """Partial sums of the first-passage series for reaching -1.

    The walk first hits -1 at tick ``2k+1`` with probability
    ``(1-eps) C_k (eps (1-eps))^k``; the partial sums increase toward 1.
    ``k_max`` is capped by the exact-Catalan range.
    """
    if not 0 <= k_max <= CATALAN_MAX_K:
        raise ValidationError(f"k_max must be in [0, {CATALAN_MAX_K}], got {k_max}")
    x = p.epsilon * (1.0 - p.epsilon)
    head = 1.0 - p.epsilon
    sums = []
    total = 0.0
    xk = 1.0
    for k in range(k_max + 1):
        total += head * catalan(k) * xk
        xk *= x
        sums.append(total)
    return sums


def ratio_power_loop(p: WalkParams, n: int) -> float:
    """``ratio**n`` by ``n`` scalar multiplies, 0.0 once a factor stalls.

    The power of `rw_analytics.stationary_pi` and the tails, one multiply
    at a time: 0.0 when the product stops changing (0.0, or a subnormal
    that every later factor keeps), and 0.0 with no loop past the same
    underflow cut.
    """
    r = p.ratio
    if r > 0.0 and n * -math.log(r) > _UNDERFLOW_LOG:
        return 0.0
    acc = 1.0
    for _ in range(n):
        nxt = acc * r
        if nxt == acc:
            return 0.0
        acc = nxt
    return acc


def reflected_chain_mean_series(p: WalkParams, tail_tol: float = 1e-15) -> float:
    """Mean of the reflected walk's stationary law by direct series summation.

    Sums ``k pi(k)`` until the remaining tail (bounded by the geometric
    tail times a linear factor) drops below ``tail_tol``; does not use
    the closed-form mean.  For ``epsilon < 1/2`` the tail bound always
    falls below ``tail_tol``, as ``ratio**k`` decays to 0, but the number
    of terms grows like ``log(1/tail_tol) / (1 - ratio)``: 12,372 at
    ``epsilon = 0.499``.
    """
    if p.epsilon == 0.0:
        return 1.0
    r = p.ratio
    head = (1.0 - 2.0 * p.epsilon) / (1.0 - p.epsilon)
    power = 1.0  # r**(k-1) by repeated multiplies, so terms match stationary_pi
    total = 0.0
    k = 1
    while True:
        total += k * (power * head)
        power *= r
        # remaining tail < (k+1) * P(X >= k+1) / (1 - ratio)
        if (k + 1) * power / (1.0 - r) < tail_tol:
            return total
        k += 1


def absorbing_chain_exact(
    eps: float, right_barrier: int, left_target: int
) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """``(p_left, p_right, expected_steps)`` of the absorbing walk, exactly.

    The chain of `rw_analytics.finite_chain_oracle` on ``{left_target, ...,
    right_barrier}``, for the double ``eps`` taken as an exact rational: the
    first-step equations of the interior states, solved by elimination in
    `Fraction` arithmetic, so no step rounds.
    """
    e = Fraction(eps)
    m = right_barrier - left_target - 1  # interior states

    def solve(rhs: list[Fraction]) -> list[Fraction]:
        # rows: u_s - e u_{s+1} - (1 - e) u_{s-1} = rhs_s
        pivots = [Fraction(1)]
        for s in range(1, m):
            factor = (1 - e) / pivots[-1]
            pivots.append(1 - factor * e)
            rhs[s] += factor * rhs[s - 1]
        rhs[-1] /= pivots[-1]
        for s in range(m - 2, -1, -1):
            rhs[s] = (rhs[s] + e * rhs[s + 1]) / pivots[s]
        return rhs

    zeros = [Fraction(0)] * (m - 1)
    return (
        [Fraction(1), *solve([1 - e, *zeros]), Fraction(0)],
        [Fraction(0), *solve([*zeros, e]), Fraction(1)],
        [Fraction(0), *solve([Fraction(1)] * m), Fraction(0)],
    )


# -- the 1D swarm ------------------------------------------------------------


def circular_fraction(x: float) -> float:
    """Fractional part of ``x`` folded onto the circle [0, 1).

    ``x % 1.0`` can round up to exactly 1.0 for tiny negative ``x``;
    fold that back to 0.0 since the two points coincide on the circle.
    """
    f = float(x) % 1.0
    return 0.0 if f == 1.0 else f


def min_fractional_distance_sorted(positions) -> float:
    """`rw_analytics.min_fractional_distance` by a Python sort of the
    scalar fractional parts: the smallest gap between neighbours, the
    wrap gap included; raises on a zero gap."""
    if len(positions) < 2:
        raise ValidationError("need at least two positions")
    fracs = sorted(circular_fraction(x) for x in positions)
    gaps = [b - a for a, b in zip(fracs, fracs[1:])]
    gaps.append(1.0 - (fracs[-1] - fracs[0]))
    best = min(gaps)
    if best == 0.0:
        raise DegenerateConfigurationError("duplicate fractional parts")
    return best


class Metrics(NamedTuple):
    centroid: float
    variance: float
    core_span: float
    total_span: float


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


class SearchedKeys(NamedTuple):
    table: bytes  # the sorted fractions, as doubles
    cell0: int
    keys: list[int]  # sorted, one per agent


def keys_by_search(positions) -> SearchedKeys:
    """The 1D state's fraction table and keys by a sort of the fractions
    and a binary search of each agent's fraction in the sorted table.

    ``x = cell + f`` with ``f`` in ``(-1/2, 1/2]``, and each agent's rank
    is the first index of its ``f`` in the table, found by
    ``searchsorted``: the reference for `SwarmState1D`'s ranks by one
    argsort.
    """
    x = np.sort(np.array(positions, dtype=float))
    cells = np.rint(x)
    f = x - cells
    table = np.sort(f)
    if table[0] == -0.5:  # rint rounds half to even: move those halves a cell down
        half = f == -0.5
        cells -= half
        f += half
        table = np.sort(f)
    keys = np.searchsorted(table, f) + (cells - cells[0]).astype(np.int64) * x.size
    return SearchedKeys(table.tobytes(), int(cells[0]), keys.tolist())


def fractional_parts(state: SwarmState1D) -> tuple[float, ...]:
    """The agents' fractional parts on the circle [0, 1), sorted."""
    return tuple(sorted(circular_fraction(x) for x in state.positions))


# -- the planar swarm --------------------------------------------------------


def bisector_direction(hull: HullInfo, vertex_index: int) -> tuple[float, float]:
    """Unit interior bisector at the given hull vertex (by original index)."""
    try:
        i = hull.vertices.index(vertex_index)
    except ValueError:
        raise ValidationError(f"index {vertex_index} is not a hull vertex") from None
    b = hull.bisectors[i]
    if b is None:
        raise DegenerateConfigurationError(
            "a single-vertex hull has no bisector direction"
        )
    return b


def orientation_exact(a, b, c) -> int:
    """Sign of the cross product (b - a) x (c - a), in `Fraction`s."""
    (ax, ay), (bx, by), (cx, cy) = (map(Fraction, p) for p in (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def centroid_fsum(points) -> tuple[float, float]:
    """``math.fsum`` of each axis over all the points, over N."""
    xs, ys = zip(*points)
    return math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)


def hull_diameter_pairs(hull: HullInfo) -> float:
    """Largest ``math.hypot`` over every pair of hull vertices, one by one."""
    coords = hull.coordinates
    best = 0.0
    for i in range(len(coords)):
        xi, yi = coords[i]
        for j in range(i + 1, len(coords)):
            best = max(best, math.hypot(coords[j][0] - xi, coords[j][1] - yi))
    return best


# -- draws -------------------------------------------------------------------


def take(pool: DrawPool, k: int) -> list[float]:
    """The next ``k`` draws of ``pool``, read one at a time as a hot loop
    reads them: ``block[i]``, with a `refill` at the end of each block."""
    out = []
    for _ in range(k):
        if pool.i >= len(pool.block):
            pool.refill()
        out.append(pool.block[pool.i])
        pool.i += 1
    return out
