"""Hull construction, bisector geometry, and planar dynamics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineswarm import sim2d
from lineswarm.errors import DegenerateConfigurationError, ValidationError
from lineswarm.sim1d import new_swarm
from lineswarm.sim2d import (
    _FINE_AXES,
    _FINE_MIN,
    _OCTAGON_AXES,
    HullInfo,
    Trajectory2DRow,
    _certified_out,
    _monotone_chain,
    convex_hull,
    hull_diameter,
    new_swarm2d,
    orientation,
    run2d,
    step2d,
)

from oracles import bisector_direction, centroid_fsum, hull_diameter_pairs, orientation_exact

# signed zeros, the smallest subnormal and normal, and magnitudes whose
# differences overflow
EDGE_COORDINATES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e308, -1e308]

SQRT2_HALF = math.sqrt(2.0) / 2.0


def _brute_force_extremes(points):
    """Indices of strict extreme points, by exhaustive containment tests.

    A point is excluded iff it lies inside or on the boundary of a
    triangle of other points, or on the segment between two others.
    Coincident duplicates keep only the lowest index.
    """
    pts = [(float(x), float(y)) for x, y in points]
    first = {}
    for i, xy in enumerate(pts):
        first.setdefault(xy, i)
    reps = {i: xy for xy, i in first.items()}

    def on_segment(p, a, b):
        if orientation(a, b, p) != 0:
            return False
        return (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    def in_triangle(p, a, b, c):
        s1, s2, s3 = orientation(a, b, p), orientation(b, c, p), orientation(c, a, p)
        return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)

    keep = []
    others = lambda i: [xy for j, xy in reps.items() if j != i]
    for i, p in reps.items():
        rest = others(i)
        covered = any(
            on_segment(p, rest[a], rest[b])
            for a in range(len(rest))
            for b in range(a + 1, len(rest))
        )
        if not covered:
            covered = any(
                in_triangle(p, rest[a], rest[b], rest[c])
                and orientation(rest[a], rest[b], rest[c]) != 0
                for a in range(len(rest))
                for b in range(a + 1, len(rest))
                for c in range(b + 1, len(rest))
            )
        if not covered:
            keep.append(i)
    return sorted(keep)


class TestOrientation:
    def test_signs(self):
        assert orientation((0, 0), (1, 0), (0, 1)) == 1
        assert orientation((0, 0), (0, 1), (1, 0)) == -1
        assert orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_exact_fallback_on_near_degenerate(self):
        # collinear in exact arithmetic even though floats wobble
        a, b = (0.1, 0.1), (0.3, 0.3)
        c = (0.2, 0.2)
        got = orientation(a, b, c)
        from fractions import Fraction

        exact = (Fraction(0.3) - Fraction(0.1)) * (Fraction(0.2) - Fraction(0.1)) - (
            Fraction(0.3) - Fraction(0.1)
        ) * (Fraction(0.2) - Fraction(0.1))
        assert got == (0 if exact == 0 else int(math.copysign(1, exact)))

    @given(st.lists(st.one_of(st.sampled_from(EDGE_COORDINATES), st.floats(-1e308, 1e308)),
                    min_size=1, max_size=4)
           .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=6, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_sign(self, coords):
        # a few distinct values per triple, so coordinates and differences
        # are often equal or zero, next to signed zeros, subnormals and
        # differences that overflow
        a, b, c = zip(coords[::2], coords[1::2])
        assert orientation(a, b, c) == orientation_exact(a, b, c)


class TestConvexHull:
    def test_square_any_order(self):
        for order in ([(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 1), (0, 0), (0, 1), (1, 0)]):
            hull = convex_hull(order)
            assert len(hull.vertices) == 4
            assert set(hull.coordinates) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_ccw_order(self):
        hull = convex_hull([(0, 0), (2, 0), (1, 1), (1, 0.2)])
        coords = hull.coordinates
        n = len(coords)
        for i in range(n):
            assert orientation(coords[i], coords[(i + 1) % n], coords[(i + 2) % n]) == 1

    def test_edge_interior_point_excluded(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert set(hull.coordinates) == {(0, 0), (2, 0), (1, 1)}

    def test_all_identical_single_vertex(self):
        hull = convex_hull([(2.0, 3.0)] * 5)
        assert hull.vertices == (0,)
        assert hull.bisectors == (None,)

    def test_two_distinct_points(self):
        hull = convex_hull([(0, 0), (3, 4), (0, 0)])
        assert set(hull.coordinates) == {(0, 0), (3, 4)}

    def test_collinear_returns_endpoints(self):
        hull = convex_hull([(0, 0), (1, 0.5), (4, 2), (2, 1)])
        assert set(hull.coordinates) == {(0, 0), (4, 2)}

    def test_coincident_duplicates_take_lowest_index(self):
        hull = convex_hull([(5, 5), (0, 0), (5, 5), (0, 1), (9, 0)])
        assert 2 not in hull.vertices
        assert 0 in hull.vertices

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50),
                st.integers(min_value=-50, max_value=50),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_oracle(self, int_points):
        points = [(float(x), float(y)) for x, y in int_points]
        hull = convex_hull(points)
        assert sorted(hull.vertices) == _brute_force_extremes(points)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=12,
        ),
        st.permutations(range(12)),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariance_under_permutation(self, pts, perm):
        base = set(convex_hull(pts).coordinates)
        shuffled = [pts[i] for i in perm[: len(pts)] if i < len(pts)]
        if len(shuffled) == len(pts):
            assert set(convex_hull(shuffled).coordinates) == base

    # lattice coordinates keep the translation exact, so distinct points
    # cannot collapse onto each other and the hull translates verbatim
    _lattice = st.integers(min_value=-(2**17), max_value=2**17).map(
        lambda k: k * 2.0**-10
    )

    @given(
        st.lists(st.tuples(_lattice, _lattice), min_size=1, max_size=12),
        _lattice,
        _lattice,
    )
    @settings(max_examples=60, deadline=None)
    def test_invariance_under_translation(self, pts, dx, dy):
        base = set(convex_hull(pts).coordinates)
        translated = [(x + dx, y + dy) for x, y in pts]
        moved = set(convex_hull(translated).coordinates)
        assert moved == {(x + dx, y + dy) for x, y in base}

    def test_invariance_under_rotation(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-5, 5, (30, 2))
        base = convex_hull(pts)
        theta = 0.7361
        c, s = math.cos(theta), math.sin(theta)
        rotated = [(c * x - s * y, s * x + c * y) for x, y in pts]
        rot_hull = convex_hull(rotated)
        assert len(rot_hull.vertices) == len(base.vertices)
        rot_back = {
            (c * x + s * y, -s * x + c * y) for x, y in rot_hull.coordinates
        }
        for x, y in base.coordinates:
            assert any(
                math.isclose(x, rx, abs_tol=1e-9) and math.isclose(y, ry, abs_tol=1e-9)
                for rx, ry in rot_back
            )


def _merged_ring(pts, ext):
    """The rows ``ext`` of ``pts`` as ring points, consecutive repeats merged."""
    ring = [tuple(pts[i]) for i in ext]
    return [p for i, p in enumerate(ring) if p != ring[i - 1]]


def _octagon_ring(pts):
    """The ring the coarse pass joins: the octagon's extreme points, CCW."""
    x, y = pts[:, 0], pts[:, 1]
    return _merged_ring(pts, [y.argmin(), (x - y).argmax(), x.argmax(), (x + y).argmax(),
                              y.argmax(), (x - y).argmin(), x.argmin(), (x + y).argmin()])


def _pushed_out(p, a, b, k):
    """``p`` moved ``k`` ulps per coordinate to the right of the CCW edge a -> b."""
    x, y = p
    for _ in range(k):
        x = np.nextafter(x, math.inf if b[1] > a[1] else -math.inf)
        y = np.nextafter(y, math.inf if b[0] < a[0] else -math.inf)
    return [x, y]


@st.composite
def _prefilter_sets(draw):
    """20-400 points that put the prefilter's margin to work.

    Polygon and lattice sets are augmented on the octagon's ring
    (`_augment`).  A polygon has one edge from ``a`` to ``-2a``, through
    the origin, whose pushed point is its exact point ``+-2**-j * a``:
    that close to the origin the float determinant rounds at the scale of
    the edge, so only the margin keeps the point.  Exactly collinear and all-coincident
    sets come as they are.  Scales are powers of two, so scaling the
    lattice is exact.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 300))
    scale = draw(st.sampled_from([2.0**-10, 1.0, 32.0, 2.0**20]))
    kind = draw(st.sampled_from(["polygon", "lattice", "collinear", "coincident"]))
    if kind == "coincident":
        return [tuple(rng.uniform(-scale, scale, 2))] * n
    if kind == "collinear":
        ks = rng.integers(-100, 101, (n, 1))
        pts = ks * rng.integers(-5, 6, 2) + rng.integers(-50, 51, 2)
        return [tuple(p) for p in (pts * scale).tolist()]
    if kind == "polygon":
        a0 = rng.uniform(-scale, scale, 2)
        # the other corners go left of a0 -> -2 a0, so that edge is a hull edge
        others = rng.uniform(-scale, scale, (int(rng.integers(1, 6)), 2))
        others *= np.where(others @ [-a0[1], a0[0]] > 0, -1.0, 1.0)[:, None]
        corners = np.vstack([a0, -2.0 * a0, others])
        pts = np.vstack([corners, rng.dirichlet(np.ones(len(corners)), n) @ corners])
        near_origin = a0 * (2.0 ** -int(rng.integers(10, 40)) * rng.choice([-1.0, 1.0]))
    else:
        pts = rng.integers(-50, 51, (n, 2)) * scale
        a0 = near_origin = None
    return _augment(rng, pts, _octagon_ring(pts), kind, scale, a0, near_origin)


def _octagon_survivors(pts):
    return pts[~_certified_out(pts, _OCTAGON_AXES)]


def _fine_ring(pts):
    """The ring the fine pass joins: extremes of the octagon's survivors, CCW."""
    kept = _octagon_survivors(pts)
    return _merged_ring(kept, [np.argmax(kept @ u) for u in _FINE_AXES])


def _augment(rng, pts, ring, kind, scale, a0, near_origin):
    """``pts`` plus points on and just outside the edges of ``ring``.

    Copies of the ring points go at higher indices, and one point goes a
    few ulps out across each edge (one only, as a farther one would shadow
    it); on the polygon edge from ``a0`` to ``-2 * a0`` that point is
    ``near_origin``.  Lattice sets also get runs of lattice points exactly
    on the edges.
    """
    extra = [np.reshape(ring, (-1, 2))]
    for a, b in zip(map(np.array, ring), map(np.array, ring[1:] + ring[:1])):
        d = b - a
        if kind == "lattice":
            g = math.gcd(int(d[0] / scale), int(d[1] / scale))
            extra.append(np.reshape([a + k * (d / g) for k in range(1, min(g, 8))], (-1, 2)))
        on_edge = a + 0.5 * d
        if kind == "polygon" and (a == a0).all() and (b == -2.0 * a0).all():
            on_edge = near_origin
        extra.append([_pushed_out(on_edge, a, b, int(rng.integers(1, 5)))])
    return [tuple(p) for p in np.vstack([pts, *extra]).tolist()]


def _annulus(rng, n, inner):
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    radii = rng.uniform(inner, 1.0, n)
    return np.c_[radii * np.cos(angles), radii * np.sin(angles)]


@st.composite
def _fine_sets(draw):
    """Sets whose octagon leaves more than `_FINE_MIN` points, so the fine pass runs.

    A polygon set crowds points against the inside of the edges of a
    16-32-gon inscribed in a circle, some within a few ulps, plus interior
    noise.  Its edge from ``a`` to ``b = -2a`` spans 60-120 degrees of the
    circle, so both ends are extreme along some fine direction and the
    edge is on the fine ring; its pushed point is ``+-2**-j * a``, as in
    `_prefilter_sets`.  A lattice set takes the lattice points of a thin
    annulus.  Both are then augmented on the fine ring (`_augment`).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(150, 300))
    scale = draw(st.sampled_from([2.0**-10, 1.0, 2.0**20]))
    kind = draw(st.sampled_from(["polygon", "lattice"]))
    if kind == "polygon":
        span = rng.uniform(math.pi / 3, 2 * math.pi / 3)
        rest = np.sort(rng.uniform(span, 2 * math.pi, int(rng.integers(14, 31))))
        angles = np.r_[0.0, span, rest] + rng.uniform(0.0, 2 * math.pi)
        corners = np.c_[np.cos(angles), np.sin(angles)]
        # the origin goes a third of the way along the first edge, whose end
        # is then set to exactly -2 times its start
        corners -= (2.0 * corners[0] + corners[1]) / 3.0
        corners[1] = -2.0 * corners[0]
        corners *= scale
        a0, mid = corners[0], corners.mean(axis=0)
        i = rng.integers(0, len(corners), n)
        on_edges = corners[i] + rng.random((n, 1)) * (np.roll(corners, -1, axis=0)[i] - corners[i])
        inward = 1.0 - 10.0 ** -rng.uniform(2.0, 16.0, (n, 1))
        noise = mid + 0.5 * scale * _annulus(rng, n // 4, 0.0)
        pts = np.vstack([corners, mid + (on_edges - mid) * inward, noise])
        near_origin = a0 * (2.0 ** -int(rng.integers(10, 40)) * rng.choice([-1.0, 1.0]))
    else:
        pts = np.rint(60.0 * _annulus(rng, n, 0.9)) * scale
        a0 = near_origin = None
    return _augment(rng, pts, _fine_ring(pts), kind, scale, a0, near_origin)


@st.composite
def _offset_sets(draw):
    """Disk or thin-annulus sets translated by +-2**k per axis, k from 10 to 50.

    There an edge normal's projection rounds at the scale of the offset,
    not of the set, so only the bound's ``|a|`` and ``|p|`` terms keep the
    points that `_augment` pushes a few ulps out across each ring edge.  A
    disk is augmented on the octagon's ring, an annulus on the fine ring
    (at the larger offsets the grid of doubles leaves it too few distinct
    points to reach the fine pass).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["disk", "annulus"]))
    exponents = draw(st.tuples(st.integers(10, 50), st.integers(10, 50)))
    offset = np.ldexp(rng.choice([-1.0, 1.0], 2), exponents)
    if kind == "disk":
        pts = _annulus(rng, int(rng.integers(20, 300)), 0.0) + offset
        ring = _octagon_ring(pts)
    else:
        pts = _annulus(rng, int(rng.integers(150, 300)), 0.9) + offset
        ring = _fine_ring(pts)
    return _augment(rng, pts, ring, kind, 1.0, None, None)


class TestPrefilter:
    @given(_prefilter_sets())
    @settings(max_examples=200, deadline=None)
    def test_equals_unfiltered_chain(self, points):
        assert 20 <= len(points) <= 400
        assert convex_hull(points) == _monotone_chain(np.array(points), range(len(points)))

    @given(_fine_sets())
    @settings(max_examples=100, deadline=None)
    def test_fine_pass_equals_unfiltered_chain(self, points):
        assert len(_octagon_survivors(np.array(points))) > _FINE_MIN
        assert convex_hull(points) == _monotone_chain(np.array(points), range(len(points)))

    @given(_offset_sets())
    @settings(max_examples=100, deadline=None)
    def test_far_from_the_origin_equals_unfiltered_chain(self, points):
        assert convex_hull(points) == _monotone_chain(np.array(points), range(len(points)))

    @pytest.mark.parametrize(
        "inner,passes", [(0.9, 2), (0.0, 1)], ids=["thin-annulus", "uniform-disk"]
    )
    def test_fine_pass_runs_past_the_gate(self, monkeypatch, inner, passes):
        calls = []

        def spy(pts, axes):
            out = _certified_out(pts, axes)
            calls.append((len(axes), len(pts), int(out.sum())))
            return out

        monkeypatch.setattr(sim2d, "_certified_out", spy)
        pts = _annulus(np.random.default_rng(8), 400, inner)
        assert convex_hull(pts) == _monotone_chain(pts, range(len(pts)))
        assert len(calls) == passes
        if passes == 2:
            (_, n, coarse), (axes, m, fine) = calls
            assert axes == 32 and m == n - coarse > _FINE_MIN and fine > 0
        else:
            assert calls[0][1] - calls[0][2] <= _FINE_MIN

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600, 2.0**1023],
                             ids=["2**600", "2**-600", "2**1023"])
    def test_huge_and_tiny_coordinates_keep_the_hull(self, scale):
        # at 2**600 and 2**1023 each edge's bound overflows to inf and no point
        # is certified, at 2**-600 the products underflow and the bound's
        # absolute term covers them; no warning either way, and the annulus
        # takes the fine pass as well
        for base in (np.random.default_rng(1).uniform(-1, 1, (50, 2)),
                     _annulus(np.random.default_rng(8), 400, 0.9)):
            pts = base * scale
            hull = convex_hull(pts)
            assert hull.vertices == convex_hull(base).vertices
            assert hull == _monotone_chain(pts, range(len(pts)))

    @pytest.mark.parametrize(
        "points", [[(1.0,)], [(1.0, 2.0), "ab"], [(1.0, 2.0, 3.0), (0.0, 0.0)]]
    )
    @pytest.mark.parametrize("build", [convex_hull, lambda p: new_swarm2d(p, 0.1, 1)])
    def test_malformed_points_rejected(self, points, build):
        with pytest.raises(ValidationError, match="pairs of numbers"):
            build(points)


class TestBisectors:
    def test_square_corner_diagonal(self):
        hull = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        bx, by = bisector_direction(hull, 0)
        assert (bx, by) == pytest.approx((SQRT2_HALF, SQRT2_HALF))

    def test_equilateral_triangle_toward_opposite_midpoint(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        hull = convex_hull(pts)
        bx, by = bisector_direction(hull, 2)
        # interior bisector at the apex points at the opposite edge midpoint
        mx, my = 0.5, 0.0
        ax, ay = pts[2]
        ex, ey = mx - ax, my - ay
        norm = math.hypot(ex, ey)
        assert (bx, by) == pytest.approx((ex / norm, ey / norm))

    def test_obtuse_vertex_construction(self):
        hull = convex_hull([(0, 0), (4, 0), (2, 1)])
        bx, by = bisector_direction(hull, 2)
        assert (bx, by) == pytest.approx((0.0, -1.0))

    def test_two_point_hull_directions(self):
        hull = convex_hull([(0, 0), (3, 4)])
        assert bisector_direction(hull, 0) == pytest.approx((0.6, 0.8))
        assert bisector_direction(hull, 1) == pytest.approx((-0.6, -0.8))

    @pytest.mark.parametrize("exponent", [10, 20, 26, 30, 40])
    def test_vertex_ulps_off_a_straight_angle(self, exponent):
        # p sits one ulp outside the edge from (3, 1) to (-6, -2), which runs
        # through the origin; e1 + e2 cancels to (0, 0) or to rounding noise
        scale = 2.0**-exponent
        p = (math.nextafter(3.0 * scale, -math.inf), scale)
        hull = convex_hull([(3, 1), (-6, -2), (1, -4), p])
        assert hull.vertices == (1, 2, 0, 3)
        inward = (1 / math.sqrt(10), -3 / math.sqrt(10))
        assert bisector_direction(hull, 3) == pytest.approx(inward, abs=1e-12)

    @pytest.mark.parametrize("points", [[(0, 0), (1e308, 0), (-1e308, 0)],
                                        [(0, -1), (1.5e308, 0), (0, 1.5e308)]],
                             ids=["difference-overflows", "length-overflows"])
    def test_edge_longer_than_the_largest_double_raises(self, points):
        # dividing by an infinite length would give NaN or a wrong direction
        with pytest.raises(OverflowError, match="coordinate differences overflow"):
            convex_hull(points)

    def test_single_vertex_degenerate(self):
        hull = convex_hull([(1, 1), (1, 1)])
        with pytest.raises(DegenerateConfigurationError):
            bisector_direction(hull, 0)

    def test_non_vertex_rejected(self):
        hull = convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
        with pytest.raises(ValidationError):
            bisector_direction(hull, 1)

    # integer coordinates bound the smallest hull feature well above the
    # nudge length, so "strictly inside" is decidable without tolerances
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-50, max_value=50).map(float),
                st.integers(min_value=-50, max_value=50).map(float),
            ),
            min_size=3,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_unit_norm_and_interiority(self, pts):
        hull = convex_hull(pts)
        if len(hull.vertices) < 3:
            return
        coords = hull.coordinates
        n = len(coords)
        for i, vi in enumerate(hull.vertices):
            bx, by = bisector_direction(hull, vi)
            assert math.hypot(bx, by) == pytest.approx(1.0, abs=1e-12)
            # a small inward nudge lands strictly inside the hull
            px = coords[i][0] + 1e-6 * bx
            py = coords[i][1] + 1e-6 * by
            assert all(
                orientation(coords[j], coords[(j + 1) % n], (px, py)) == 1
                for j in range(n)
            )


class TestStep2D:
    def test_unit_square_eps_zero_corners_cross(self):
        s = new_swarm2d([(0, 0), (1, 0), (1, 1), (0, 1)], 0.0, 1)
        step2d(s)
        expect = {
            (SQRT2_HALF, SQRT2_HALF),
            (1 - SQRT2_HALF, SQRT2_HALF),
            (1 - SQRT2_HALF, 1 - SQRT2_HALF),
            (SQRT2_HALF, 1 - SQRT2_HALF),
        }
        for got in s.points:
            assert any(got == pytest.approx(e) for e in expect)

    def test_single_point_stays(self):
        s = new_swarm2d([(3.0, 4.0)], 0.3, 1)
        step2d(s)
        assert s.points == ((3.0, 4.0),) and s.t == 1

    def test_collinear_endpoints_approach(self):
        s = new_swarm2d([(0, 0), (2, 0), (5, 0)], 0.0, 1)
        step2d(s)
        assert s.points == ((1.0, 0.0), (2.0, 0.0), (4.0, 0.0))

    def test_interior_points_never_move(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 10, (40, 2))
        s = new_swarm2d(pts, 0.2, 9)
        for _ in range(30):
            hull = convex_hull(s.points)
            before = s.points
            step2d(s)
            after = s.points
            moved = {i for i in range(40) if after[i] != before[i]}
            assert moved <= set(hull.vertices)

    def test_displacements_unit_norm(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (25, 2))
        s = new_swarm2d(pts, 0.3, 4)
        for _ in range(30):
            before = s.points
            step2d(s)
            for (x0, y0), (x1, y1) in zip(before, s.points):
                if (x0, y0) != (x1, y1):
                    assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(1.0, abs=1e-12)

    def test_coincident_hull_point_single_mover(self):
        # two agents share a hull corner; only the lowest index jumps
        s = new_swarm2d([(0, 0), (0, 0), (4, 0), (0, 4)], 0.0, 5)
        step2d(s)
        assert s.points[1] == (0.0, 0.0)
        assert s.points[0] != (0.0, 0.0)

    def test_symmetric_square_centroid_constant(self):
        s = new_swarm2d([(0, 0), (1, 0), (1, 1), (0, 1)], 0.0, 1)
        c0 = s.centroid()
        for _ in range(10):
            step2d(s)
            cx, cy = s.centroid()
            assert cx == pytest.approx(c0[0], abs=1e-12)
            assert cy == pytest.approx(c0[1], abs=1e-12)


class TestAxisLineIsSim1D:
    """On a line parallel to an axis, sim2d is sim1d draw for draw.

    The hull of collinear points is its two ends, which move along the line
    by exactly one unit on dyadic inputs, and coincident points move one
    copy, as in 1D.  The first CCW vertex is the least point, so on the x-
    and y-axes the lower end draws first, as sim1d's left end does; on the
    negated x-axis the 1D reference runs on the negated positions.
    """

    @given(
        st.lists(st.integers(-40, 40), min_size=2, max_size=12),
        st.sampled_from([0.0, 0.1, 0.3, 0.45]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([(0, 1.0), (1, 1.0), (0, -1.0)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_same_positions_every_tick(self, eighths, eps, seed, axis):
        along, sign = axis
        line = sign * np.array(eighths) / 8.0
        pts = np.zeros((len(line), 2))
        pts[:, along] = line
        s1, s2 = new_swarm(line, eps, seed), new_swarm2d(pts, eps, seed)
        for _ in range(60):
            xy = np.array(s2.points)
            assert tuple(np.sort(xy[:, along]).tolist()) == s1.positions
            assert not xy[:, 1 - along].any()
            assert s2.centroid()[along] == s1.centroid()
            if s1.total_span == 0.0:
                break  # from here the conventions differ
            s1.advance(1)
            step2d(s2)

    def test_all_coincident_moves_in_1d_but_not_in_2d(self):
        # 1D moves one agent as the left end and one as the right; in 2D a
        # single location has no hull edge to move along
        s1 = new_swarm([0.5] * 3, 0.0, 1)
        s1.advance(1)
        assert s1.positions == (-0.5, 0.5, 1.5)
        s2 = new_swarm2d([(0.5, 0.0)] * 3, 0.0, 1)
        step2d(s2)
        assert s2.points == ((0.5, 0.0),) * 3


class TestRun2D:
    def test_rows_structure(self):
        rng = np.random.default_rng(1)
        s = new_swarm2d(rng.uniform(0, 10, (30, 2)), 0.1, 2)
        rows = run2d(s, 50, stride=10)
        ts = [r.t for r in rows]
        assert ts[0] == 0 and ts[-1] == 50
        assert ts == sorted(set(ts))
        assert all(isinstance(r, Trajectory2DRow) for r in rows)

    def test_population_gathers(self):
        rng = np.random.default_rng(7)
        s = new_swarm2d(rng.uniform(0, 15, (100, 2)), 0.1, 8)
        rows = run2d(s, 200, stride=50)
        assert rows[-1].diameter < 0.15 * rows[0].diameter

    def test_sink_receives_rows(self):
        got = []
        s = new_swarm2d([(0, 0), (5, 0), (0, 5)], 0.1, 3)
        rows = run2d(s, 5, stride=2, sink=got.append)
        assert got == rows

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 8, (20, 2))
        r1 = run2d(new_swarm2d(pts, 0.2, 99), 40)
        r2 = run2d(new_swarm2d(pts, 0.2, 99), 40)
        assert r1 == r2

    def test_diameter_helper(self):
        hull = convex_hull([(0, 0), (3, 4), (1, 0)])
        assert hull_diameter(hull) == pytest.approx(5.0)
        assert hull_diameter(convex_hull([(2, 2)])) == 0.0

    def test_gathered_centroid_diffuses(self):
        # after gathering, the cluster centre random-walks: its mean squared
        # displacement keeps growing with the horizon (slope positivity only)
        short, long_ = [], []
        for seed in range(12):
            rng = np.random.default_rng(seed)
            s = new_swarm2d(rng.uniform(0, 4, (30, 2)), 0.1, 100 + seed)
            run2d(s, 100, stride=100)  # gather
            cx0, cy0 = s.centroid()
            run2d(s, 300, stride=300)
            cx1, cy1 = s.centroid()
            short.append((cx1 - cx0) ** 2 + (cy1 - cy0) ** 2)
            run2d(s, 2700, stride=2700)
            cx2, cy2 = s.centroid()
            long_.append((cx2 - cx0) ** 2 + (cy2 - cy0) ** 2)
        assert np.mean(long_) > np.mean(short) > 0.0


# -- rows in O(h): the centroid's running sums and the candidate-pair diameter

# 2**-530 and 2**-1000 give squared distances below 2**-900 (subnormal or
# zero), 2**600 above 2**900 (inf): every pair is taken there, and only the
# near-largest ones at the other scales
_SCALES = (2.0**-1000, 2.0**-530, 2.0**-10, 1.0, 2.0**20, 2.0**600)


@st.composite
def _scaled_hulls(draw):
    """Hulls of random sets, regular polygons (near-tied diagonals), squares
    (exactly tied ones), one location and two, scaled by a power of two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("random", "polygon", "square", "one", "two")))
    n = draw(st.integers(3, 40))
    if kind == "random":
        pts = rng.uniform(-1, 1, (n, 2))
    elif kind == "polygon":
        a = rng.uniform(0, 2 * math.pi) + 2 * math.pi * np.arange(n) / n
        pts = np.column_stack((np.cos(a), np.sin(a)))
    elif kind == "square":
        pts = np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * float(rng.integers(1, 2**20))
    elif kind == "one":
        pts = np.tile(rng.uniform(-1, 1, 2), (n, 1))
    else:
        pts = rng.uniform(-1, 1, (2, 2))[rng.integers(0, 2, n)]
    hull = convex_hull(pts + rng.uniform(-4, 4, 2))
    scale = draw(st.sampled_from(_SCALES))
    coords = tuple((x * scale, y * scale) for x, y in hull.coordinates)
    return HullInfo(hull.vertices, coords, hull.bisectors)


def _mixed_sets(rng, kind, n):
    """Coincident, collinear or mixed-magnitude (near 1e-12 and 1e12) points."""
    if kind == "coincident":
        return rng.uniform(-3, 3, (3, 2))[rng.integers(0, 3, n)]
    if kind == "collinear":  # exactly: eighths along an integer direction
        return rng.integers(-24, 24, 2) / 8 + rng.integers(-40, 40, (n, 1)) / 8 * rng.integers(-3, 4, 2)
    magnitude = np.where(rng.random((n, 2)) < 0.5, 1e-12, 1e12)
    return rng.uniform(-1, 1, (n, 2)) * magnitude


class TestRowsInOrderH:
    @given(_scaled_hulls())
    @settings(max_examples=150, deadline=None)
    def test_diameter_equals_pair_loop(self, hull):
        assert hull_diameter(hull) == hull_diameter_pairs(hull)

    @pytest.mark.parametrize(
        "coords, scale",
        [
            # the largest squared distance is on the diagonal from the first
            # vertex, the largest hypot on the other one
            (
                (
                    (-1.7784300547506993, 0.3530187196691972),
                    (-0.35301871966919524, -1.7784300547506997),
                    (1.7784300547506997, -0.35301871966919535),
                    (0.3530187196691955, 1.7784300547506997),
                ),
                1.0,
            ),
            # subnormal squares: the largest is on another pair than the hypot's
            (
                (
                    (2.41075024001116, -3.2753251836850787),
                    (3.3868414203402657, -3.9304679306752592),
                    (4.311547961749978, -3.204600295686488),
                    (3.9069568536314376, -2.100846678939745),
                    (2.7321992558584833, -2.1445570635734033),
                ),
                2.0**-530,
            ),
        ],
    )
    def test_diameter_where_squares_mislead(self, coords, scale):
        scaled = tuple((x * scale, y * scale) for x, y in coords)
        hull = HullInfo(tuple(range(len(coords))), scaled, (None,) * len(coords))
        assert hull_diameter(hull) == hull_diameter_pairs(hull)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scale", _SCALES)
    def test_diameter_of_one_and_two_vertices(self, n, scale):
        coords = ((3.0 * scale, -1.0 * scale), (-1.0 * scale, 2.0 * scale))[:n]
        hull = HullInfo(tuple(range(n)), coords, (None,) * n)
        assert hull_diameter(hull) == hull_diameter_pairs(hull) == (0.0, 5.0 * scale)[n - 1]

    @given(
        st.sampled_from(("coincident", "collinear", "mixed")),
        st.integers(1, 30),
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.0, 0.1, 0.4)),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_centroid_equals_fsum_after_steps(self, kind, n, seed, eps, ticks):
        s = new_swarm2d(_mixed_sets(np.random.default_rng(seed), kind, n), eps, seed)
        assert s.centroid() == centroid_fsum(s.points)
        for _ in range(ticks):
            step2d(s)
            assert s.centroid() == centroid_fsum(s.points)

    def test_overflowing_sum_fails_at_the_row_centroid(self):
        pts = [(5e307, float(k)) for k in range(4)]
        with pytest.raises(OverflowError):
            centroid_fsum(pts)
        with pytest.raises(OverflowError):
            run2d(new_swarm2d(pts, 0.1, 1), 3)
        s = new_swarm2d(pts, 0.1, 1)
        step2d(s)
        with pytest.raises(OverflowError):
            s.centroid()

    def test_partial_sum_overflow_in_the_update_order(self):
        # in index order every partial sum is finite; added in the hull's CCW
        # order from (-5e307, 0), the new x's then the old ones', they overflow
        pts = [(-5e307, 0.0), (5e307, 0.0), (5e307, 0.25), (5e307, 0.5)]
        s = new_swarm2d(pts, 0.1, 2)
        assert s.centroid() == centroid_fsum(pts)
        step2d(s)
        assert s._sums is None
        assert s.centroid() == centroid_fsum(s.points)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
        st.integers(1, 12),
        st.integers(0, 40),
        st.sets(st.integers(0, 40)),
    )
    @settings(max_examples=30, deadline=None)
    def test_rows_do_not_depend_on_the_schedule(self, seed, steps, stride, head, calls):
        pts = np.random.default_rng(seed).uniform(0, 6, (30, 2))
        every = run2d(new_swarm2d(pts, 0.2, seed), head + steps)
        strided = run2d(new_swarm2d(pts, 0.2, seed), head + steps, stride)
        assert strided == [r for r in every if r.t % stride == 0 or r.t == head + steps]
        # a swarm first stepped ``head`` ticks with `centroid` called at the
        # ticks in ``calls``, or never, then recorded
        s = new_swarm2d(pts, 0.2, seed)
        for t in range(head):
            if t in calls:
                s.centroid()
            step2d(s)
        assert run2d(s, steps) == every[head:]
