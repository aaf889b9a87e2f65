"""Planar variant: convex-hull vertices jump along interior angle bisectors.

Agents are points in the plane.  Each tick, every strict vertex of the
current convex hull moves one unit along its interior angle bisector
with probability ``1 - epsilon``, or along the opposite (outward)
direction with probability ``epsilon``; all draws are independent and
all moves are applied simultaneously.  Interior points, and points on
the interior of hull edges, never move.

Conventions for degenerate hulls mirror the 1D rules: a single distinct
location stays put; two effective vertices (including fully collinear
sets) move along the segment toward or away from each other; exactly
coincident points count once for hull construction and only the
lowest-index copy moves.

Orientation tests use a floating-point filter with an exact rational
fallback (floats are exact rationals, so `fractions.Fraction` settles
every sign), making hull membership independent of evaluation order.
Before the fallback, a product with a zero difference factor, as on
points that share a coordinate, is settled by the signs of the other
product's factors.

Before the exact monotone chain runs, two numpy passes drop points that
are certified strictly inside the hull (the Akl-Toussaint heuristic).
Each pass joins, in CCW order, the points extreme along a fixed list of
directions into a ring, and drops every point strictly left of every ring
edge by a static error bound, one per edge, that covers every rounding of
the test (`_certified_out`).  That makes a pass one matmul of the edge
normals with the points and one comparison; where the bound overflows,
the pass drops nothing.  The coarse pass runs on all N points with the
eight directions of the octagon (min and max of x, y, x + y and x - y).
The fine pass runs on the coarse survivors with 32 directions, but only
when more than 40 survive: on fewer, timed against the chain alone, it
does not drop enough points to pay for its fixed numpy cost.  Dropping
is exact whatever the rounding and whether or not a ring is convex: a
point strictly left of every edge of a closed ring of input points has
winding number at least 1, so it lies strictly inside the hull, and
removing it changes neither the strict hull nor which copy of a vertex
has the lowest index.  The points live in one (N, 2) float64 array.

A trajectory row costs O(h) beyond its hull build, for h hull vertices,
not O(N).  The state keeps each axis's exact coordinate sum as a few
non-overlapping doubles (`sim1d.exact_sum`), built on the first
`SwarmState2D.centroid` call; `step2d` then adds each moved vertex's new
coordinates and takes off its old ones, exactly, so the centroid is the
exact sum rounded once, the double that ``math.fsum`` over all N
coordinates gives.  `hull_diameter` passes to ``math.hypot`` only the
vertex pairs whose squared distance, taken in numpy, is within a relative
2**-30 of the largest, which always holds the pair of the largest hypot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateConfigurationError, ValidationError
from .rw_analytics import WalkParams
from .seeding import DrawPool
from .sim1d import exact_sum

__all__ = [
    "HullInfo",
    "SwarmState2D",
    "Trajectory2DRow",
    "orientation",
    "convex_hull",
    "new_swarm2d",
    "step2d",
    "run2d",
    "hull_diameter",
]

# Shewchuk-style static filter: trust the float determinant when it
# clears this multiple of the term magnitudes, else fall back to exact.
_EPS = 2.0**-53
_CCW_ERRBOUND = (3.0 + 16.0 * _EPS) * _EPS


def orientation(a, b, c) -> int:
    """Sign of the cross product (b - a) x (c - a): +1 CCW, -1 CW, 0 collinear."""
    d1 = b[0] - a[0]
    d2 = c[1] - a[1]
    d3 = b[1] - a[1]
    d4 = c[0] - a[0]
    left = d1 * d2
    right = d3 * d4
    det = left - right
    bound = _CCW_ERRBOUND * (abs(left) + abs(right))
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return _exact_orientation(a, b, c, d1, d2, d3, d4)


def _exact_orientation(a, b, c, d1, d2, d3, d4) -> int:
    """`orientation` where the float filter cannot tell, from the float
    differences ``d1 d2 - d3 d4`` and the exact points."""
    # with gradual underflow a difference of doubles is 0.0 only when they
    # are equal, and rounding and overflow keep its sign: so a product with
    # a zero factor is exactly 0, and the other's sign is its factors'
    if not (d1 and d2):
        return -_sign(d3) * _sign(d4)
    if not (d3 and d4):
        return _sign(d1) * _sign(d2)
    det_exact = (Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1])) - (
        Fraction(b[1]) - Fraction(a[1])
    ) * (Fraction(c[0]) - Fraction(a[0]))
    if det_exact > 0:
        return 1
    if det_exact < 0:
        return -1
    return 0


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


class Trajectory2DRow(NamedTuple):
    t: int
    centroid_x: float
    centroid_y: float
    diameter: float
    hull_count: int


@dataclass(frozen=True)
class HullInfo:
    """Strict extreme points in CCW order with interior bisectors.

    ``vertices`` are indices into the original point sequence; exactly
    coincident input points are represented by their lowest index.
    ``bisectors[i]`` is the unit interior direction at ``vertices[i]``
    (for a 2-vertex hull: toward the other vertex; ``None`` for a single
    vertex, which has no defined direction).
    """

    vertices: tuple[int, ...]
    coordinates: tuple[tuple[float, float], ...]
    bisectors: tuple[tuple[float, float] | None, ...]


def _unit(dx: float, dy: float) -> tuple[float, float]:
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        raise DegenerateConfigurationError("zero-length direction has no unit vector")
    if norm == math.inf:  # a difference overflowed: dividing by it loses the direction
        raise OverflowError("coordinate differences overflow")
    return dx / norm, dy / norm


def _hull_bisectors(coords: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Unit interior bisectors of a CCW ring of two vertices or more."""
    h = len(coords)
    if h == 2:
        (ax, ay), (bx, by) = coords
        return [_unit(bx - ax, by - ay), _unit(ax - bx, ay - by)]
    out: list[tuple[float, float]] = []
    for i in range(h):
        vx, vy = coords[i]
        px, py = coords[i - 1]
        nx, ny = coords[(i + 1) % h]
        e1x, e1y = _unit(px - vx, py - vy)
        e2x, e2y = _unit(nx - vx, ny - vy)
        # sum of unit vectors toward both neighbours bisects the interior
        # angle; near a straight angle it cancels (below 2**-26 half its
        # digits are gone), and e2 - e1 turned a quarter left, inward for a
        # CCW ring, is the same direction and well conditioned there
        sx, sy = e1x + e2x, e1y + e2y
        if math.hypot(sx, sy) < 2.0**-26:
            sx, sy = e1y - e2y, e2x - e1x
        out.append(_unit(sx, sy))
    return out


def _as_points(points: Sequence) -> np.ndarray:
    """``points`` as an (N, 2) float64 array of finite coordinates, N >= 1."""
    try:
        arr = np.asarray(points)
        if arr.dtype.kind not in "biufO":
            raise TypeError(f"coordinates of dtype {arr.dtype} are not numbers")
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"points must be N pairs of numbers: {exc}") from None
    if arr.size == 0:
        raise ValidationError("need at least one point")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValidationError(f"points must be N pairs of numbers, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("coordinates must be finite")
    return arr


# Rows are directions in CCW order from -90 degrees.  Their components are
# 0, +-1 or +-2**-k, so each projection is one rounding of exact products.
_FINE_HALF_TURN = [(0, -1), (0.125, -1), (0.25, -1), (0.5, -1), (1, -1), (1, -0.5),
                   (1, -0.25), (1, -0.125), (1, 0), (1, 0.125), (1, 0.25), (1, 0.5),
                   (1, 1), (0.5, 1), (0.25, 1), (0.125, 1)]
_FINE_AXES = np.array(_FINE_HALF_TURN + [(-x, -y) for x, y in _FINE_HALF_TURN])
# every fourth: the min and max of x, y, x + y and x - y
_OCTAGON_AXES = _FINE_AXES[::4]
# the fine pass costs more than it saves on up to about 40 coarse survivors
# (timed against the chain alone on the same survivors)
_FINE_MIN = 40


# (-dy, dx) = (dx, dy) @ _TURN_LEFT, exactly: d turned a quarter left, the
# inward normal of a CCW edge
_TURN_LEFT = np.array([[0.0, 1.0], [-1.0, 0.0]])


# where coordinates are huge the threshold overflows (see below), and numpy
# must not warn about it
@np.errstate(over="ignore", invalid="ignore")
def _certified_out(pts: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Mask of the rows of ``pts`` certified strictly inside their hull.

    The ring joins the rows extreme along each row of ``axes`` in turn,
    consecutive repeats merged.  Ties go to the lowest index and coincident
    rows always tie, so a location enters the ring as one row.  A row ``p``
    is certified only if it is strictly left of every ring edge, which
    makes it interior to the hull even if the ring is not convex.

    Edge ``a -> b`` tests every row at once as ``fl(n . p) > t``: one matmul
    of the normals ``n = (-dy, dx)`` of ``d = fl(b - a)``, one comparison.
    The threshold ``t`` is ``n . a + 2**-49 S + 2**-1060`` as computed, with

        S = |dx| (Y + |a_y|) + |dy| (X + |a_x|),

    where X and Y are the largest ``|x|`` and ``|y|`` over the rows.  The
    axes include +-x and +-y, so the ring holds rows that attain them.  With
    ``u = 2**-53``, a row that passes has ``D = (b - a) x (p - a) > 0``:

    - ``n . (p - a)`` is off ``D`` by at most ``1.01 u S``, as ``d`` is
      rounded once, relatively, and ``|p - a|`` is at most ``(X + |a_x|,
      Y + |a_y|)``;
    - ``fl(n . p)``, a two-term dot with or without a fused multiply-add, is
      off by at most ``2.01 u (|dy| X + |dx| Y)``;
    - ``t`` rounds each product of ``n . a`` once and each term of ``S``
      twice, adds them up in three roundings and adds ``2**-1060`` in a
      fourth, so it falls short by at most ``4.1 u (|dy| |a_x| + |dx|
      |a_y|)``, ``5.1 u`` of ``2**-49 S`` and ``u`` of ``2**-1060``.

    That is at most ``5.2 u S`` against ``2**-49 S = 16 u S``.  Below the
    normal range, sums are exact and each of the eight products errs by at
    most ``2**-1075`` absolutely, which ``2**-1060`` covers.

    Overflow: ``S`` is formed as ``2**-51`` times the two terms of ``4 S``.
    While both are finite, ``S`` is at most ``2**1023 (1 + u)``, and no
    exact intermediate of the dot or of ``t`` exceeds ``(1 + 2**-48) S``, so
    nothing overflows.  Otherwise a term is inf or NaN (as it is when ``d``
    or four times a coordinate overflows), so is ``t``, and no comparison
    with it holds.
    """
    ext = (axes @ pts.T).argmax(axis=1).tolist()
    ring = [i for k, i in enumerate(ext) if i != ext[k - 1]]
    if len(ring) < 3:
        return np.zeros(len(pts), dtype=bool)
    r = pts[ring + ring[:1]]
    a = r[:-1]
    normal = (r[1:] - a) @ _TURN_LEFT
    # |normal| pairs |dy| with 4 (X + |a_x|) and |dx| with 4 (Y + |a_y|)
    four = np.abs(4.0 * r)
    terms = normal * a + np.abs(normal) * (four.max(axis=0) + four[:-1]) * 2.0**-51
    return (normal @ pts.T > (terms.sum(axis=1) + 2.0**-1060)[:, None]).all(axis=0)


def _monotone_chain(pts: np.ndarray, index: Sequence[int]) -> HullInfo:
    """Exact strict hull of the rows of ``pts``; row ``r`` is reported as ``index[r]``."""
    first_index: dict[tuple[float, float], int] = {}
    for i, xy in zip(index, map(tuple, pts.tolist())):
        first_index.setdefault(xy, i)
    distinct = sorted(first_index)  # lexicographic by (x, y)

    if len(distinct) == 1:
        xy = distinct[0]
        return HullInfo((first_index[xy],), (xy,), (None,))

    lower: list[tuple[float, float]] = []
    for p in distinct:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(distinct):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    ring = lower[:-1] + upper[:-1]

    verts = [first_index[xy] for xy in ring]
    return HullInfo(tuple(verts), tuple(ring), tuple(_hull_bisectors(ring)))


def convex_hull(points: Sequence) -> HullInfo:
    """Strict convex hull in CCW order.

    Duplicate coordinates collapse to their lowest index; collinear
    points interior to an edge are excluded.  Degenerate results: one
    point for an all-coincident set, the two endpoints for an
    all-collinear set.
    """
    pts = _as_points(points)
    keep = np.flatnonzero(~_certified_out(pts, _OCTAGON_AXES))
    if len(keep) > _FINE_MIN:
        keep = keep[~_certified_out(pts[keep], _FINE_AXES)]
    return _monotone_chain(pts[keep], keep.tolist())


# Squares and their sums err by under 2**-51 relatively, and `math.hypot`
# by under one ulp, so the pair of the largest hypot has a squared distance
# well inside this margin of the largest one.  That needs the largest in
# [2**-900, 2**900]: there nothing overflows, and a square that underflows
# errs by at most 2**-1074, nothing against it.
_DIAMETER_MARGIN = 1.0 - 2.0**-30


def hull_diameter(hull: HullInfo) -> float:
    """Largest pairwise distance, attained between hull vertices.

    The largest ``math.hypot`` of a vertex pair's coordinate differences,
    0.0 for one vertex.  Squared distances of all pairs are taken in numpy,
    and only the pairs within a relative 2**-30 of the largest reach
    ``hypot``; every pair does when the largest lies outside
    [2**-900, 2**900], where squares may underflow or overflow.
    """
    c = np.array(hull.coordinates)
    with np.errstate(over="ignore"):  # the range test below catches it
        dx = c[:, 0, None] - c[:, 0]
        dy = c[:, 1, None] - c[:, 1]
        d2 = dx * dx + dy * dy
    top = d2.max()
    cut = top * _DIAMETER_MARGIN if 2.0**-900 <= top <= 2.0**900 else 0.0
    pairs = d2 >= cut
    return max(map(math.hypot, dx[pairs].tolist(), dy[pairs].tolist()))


class SwarmState2D:
    """Planar point set plus tick counter and a seeded RNG stream.

    ``_sums`` holds each axis's exact coordinate sum as `exact_sum` doubles.
    It is None until the first `centroid` call builds it from the points;
    from then on `step2d` keeps it exact, so a later `centroid` is O(1).
    """

    __slots__ = ("params", "t", "_pts", "_pool", "_sums")

    def __init__(
        self,
        points: Sequence,
        params: WalkParams,
        rng: np.random.Generator,
    ) -> None:
        self.params = params
        self.t = 0
        self._pts = _as_points(points).copy()
        self._pool = DrawPool(rng)
        self._sums: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    @property
    def n_agents(self) -> int:
        return len(self._pts)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self._pts.tolist()))

    def centroid(self) -> tuple[float, float]:
        """The exact coordinate sums, each rounded once, over N."""
        if self._sums is None:
            self._sums = tuple(map(exact_sum, self._pts.T.tolist()))
        n = len(self._pts)
        return self._sums[0][0] / n, self._sums[1][0] / n


def new_swarm2d(
    points: Sequence,
    epsilon: float | WalkParams,
    seed: int | np.random.SeedSequence,
) -> SwarmState2D:
    params = epsilon if isinstance(epsilon, WalkParams) else WalkParams(epsilon)
    rng = np.random.Generator(np.random.PCG64(seed))
    return SwarmState2D(points, params, rng)


def step2d(state: SwarmState2D) -> HullInfo:
    """Advance one tick; every hull vertex jumps one unit along +-bisector.

    Returns the hull that drove the tick.  Draws are consumed in the
    hull's CCW vertex order.  A single distinct location stays put.
    """
    hull = convex_hull(state._pts)
    h = len(hull.vertices)
    if h > 1:
        pool = state._pool
        sign = np.where(pool.ahead(h)[:h] < 1.0 - state.params.epsilon, 1.0, -1.0)
        pool.consume(h)
        # hull vertices are distinct rows, and a move by +-1 times the
        # bisector is one exact product and one rounded add per coordinate
        idx = np.array(hull.vertices)
        old = state._pts[idx]
        state._pts[idx] = new = old + sign[:, None] * np.array(hull.bisectors)
        if state._sums is not None:
            terms = np.concatenate((new, -old)).T.tolist()
            try:
                state._sums = tuple(exact_sum([*s, *t]) for s, t in zip(state._sums, terms))
            except OverflowError:
                # a partial sum in this order overflowed: the next centroid
                # sums the points in index order, as it would have at build
                state._sums = None
    state.t += 1
    return hull


def run2d(
    state: SwarmState2D,
    steps: int,
    stride: int = 1,
    sink: Callable[[Trajectory2DRow], None] | None = None,
) -> list[Trajectory2DRow]:
    """Iterate `step2d`, recording (t, centroid, diameter, hull size) rows.

    A row is recorded at t=0 and every ``stride`` ticks (plus the final
    tick); rows are returned and also pushed to ``sink`` when given.
    """
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    rows: list[Trajectory2DRow] = []

    def record() -> None:
        cx, cy = state.centroid()
        hull = convex_hull(state._pts)
        row = Trajectory2DRow(state.t, cx, cy, hull_diameter(hull), len(hull.vertices))
        rows.append(row)
        if sink is not None:
            sink(row)

    record()
    for i in range(steps):
        step2d(state)
        if state.t % stride == 0 or i == steps - 1:
            record()
    return rows
