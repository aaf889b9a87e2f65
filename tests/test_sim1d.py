"""State-machine semantics, conservation laws, and walk simulators."""

import math
from bisect import insort
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lineswarm.errors import InvariantViolationError, ValidationError
from lineswarm.seeding import DrawPool
from lineswarm.rw_analytics import (
    WalkParams,
    min_fractional_distance,
    reflected_chain_mean,
    stationary_pi,
)
from lineswarm.sim1d import (
    BILATERAL,
    UNILATERAL_LEFT,
    UNILATERAL_RIGHT,
    metrics,
    new_swarm,
    run_unilateral_sweep,
    run_until_gathered,
    simulate_reflected_chain,
    simulate_two_barrier_hits,
    simulate_walk_first_passage,
)

# positions on the 2**-20 lattice below 2**20 keep every +-1 jump exactly
# representable, so bit-level conservation claims are provable on them
lattice_positions = st.lists(
    st.integers(min_value=-(2**25), max_value=2**25).map(lambda k: k * 2.0**-20),
    min_size=1,
    max_size=12,
)

epsilons_st = st.floats(min_value=0.0, max_value=0.45)
modes_st = st.sampled_from([BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])


class TestConstruction:
    def test_sorts_positions(self):
        s = new_swarm([3.1, 0.2, 1.5], 0.1, 42)
        assert s.positions == (0.2, 1.5, 3.1)
        assert s.t == 0

    def test_single_agent_ok(self):
        s = new_swarm([0.5], 0.1, 1)
        assert s.n_agents == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            new_swarm([], 0.1, 1)
        with pytest.raises(ValidationError):
            new_swarm([0.5], 0.6, 1)
        with pytest.raises(ValidationError):
            new_swarm([2.0**53], 0.1, 1)
        with pytest.raises(ValidationError):
            new_swarm([0.5], 0.1, 1, mode="sideways")


class TestStepSemantics:
    def test_two_agents_deterministic_inward(self):
        s = new_swarm([0.3, 5.7], 0.0, 1)
        s.advance(1)
        assert s.positions == (1.3, 4.7)

    def test_hand_executed_four_agents(self):
        s = new_swarm([0.25, 0.5, 2.75, 4.9], 0.0, 1)
        assert s.advance(1) == (1, -1)
        assert s.positions == pytest.approx((0.5, 1.25, 2.75, 3.9))

    def test_single_agent_stays_put(self):
        for eps in [0.0, 0.3]:
            s = new_swarm([0.5], eps, 9)
            assert s.advance(1) == (0, 0)
            assert s.positions == (0.5,)
            assert s.t == 1

    def test_interior_agents_never_move(self):
        s = new_swarm(np.linspace(0.05, 9.31, 9), 0.3, 77)
        for _ in range(200):
            before = s.positions
            lo, hi = before[0], before[-1]
            interior_before = sorted(x for x in before if lo < x < hi)
            s.advance(1)
            after = list(s.positions)
            # every interior position reappears bit-identically
            for x in interior_before:
                after.remove(x)
            assert len(after) == len(before) - len(interior_before)

    def test_positions_stay_sorted(self):
        s = new_swarm(np.random.default_rng(0).uniform(0, 30, 12), 0.4, 5)
        for _ in range(500):
            s.advance(1)
            pos = s.positions
            assert all(a <= b for a, b in zip(pos, pos[1:]))

    def test_coincident_extremes_single_mover(self):
        # three agents share the minimum; exactly one of them moves
        s = new_swarm([0.5, 0.5, 0.5, 2.75], 0.0, 3)
        s.advance(1)
        assert s.positions == (0.5, 0.5, 1.5, 1.75)

    def test_all_coincident_two_movers(self):
        s = new_swarm([0.5, 0.5, 0.5], 0.0, 3)
        s.advance(1)
        assert sorted(s.positions) == [-0.5, 0.5, 1.5]

    @pytest.mark.parametrize("mode,after", [(BILATERAL, (-0.5, 0.5, 1.5)),
                                            (UNILATERAL_RIGHT, (-0.5, 0.5, 0.5)),
                                            (UNILATERAL_LEFT, (0.5, 0.5, 1.5))],
                             ids=[BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])
    def test_all_coincident_one_mover_per_side(self, mode, after):
        # one agent of the cluster acts as each moving extremist
        s = new_swarm([0.5, 0.5, 0.5], 0.0, 1, mode=mode)
        s.advance(1)
        assert s.positions == after

    @pytest.mark.parametrize("mode,directions", [(BILATERAL, (1, -1)),
                                                 (UNILATERAL_RIGHT, (0, -1)),
                                                 (UNILATERAL_LEFT, (1, 0))])
    def test_tick_returns_jump_directions(self, mode, directions):
        s = new_swarm([0.2, 1.4, 6.7], 0.0, 3, mode=mode)
        assert s.advance(1) == directions
        assert s.t == 1

    def test_unilateral_right_only_rightmost(self):
        s = new_swarm([0.2, 1.4, 6.7], 0.0, 3, mode=UNILATERAL_RIGHT)
        s.advance(1)
        assert s.positions == (0.2, 1.4, 5.7)

    def test_unilateral_left_only_leftmost(self):
        s = new_swarm([0.2, 1.4, 6.7], 0.0, 3, mode=UNILATERAL_LEFT)
        s.advance(1)
        assert s.positions == (1.2, 1.4, 6.7)

    @given(lattice_positions, epsilons_st, st.integers(0, 2**32), modes_st)
    @settings(max_examples=60, deadline=None)
    def test_fractional_parts_conserved(self, positions, eps, seed, mode):
        s = new_swarm(positions, eps, seed, mode=mode)
        fracs0 = s.fractional_parts()
        for _ in range(50):
            s.advance(1)
            assert s.fractional_parts() == fracs0

    @given(lattice_positions, epsilons_st, st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_bilateral_draws_left_first(self, positions, eps, seed):
        # the same seed in unilateral-left mode reproduces the bilateral
        # left mover's displacement: the left draw comes first in the tick
        if len(positions) < 2:
            positions = positions + [positions[0] + 0.5]
        s_bi = new_swarm(positions, eps, seed, mode=BILATERAL)
        s_ul = new_swarm(positions, eps, seed, mode=UNILATERAL_LEFT)
        assert s_bi.advance(1)[0] == s_ul.advance(1)[0]


class TestLemmaSeparation:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**22).map(lambda k: k * 2.0**-12),
            min_size=2,
            max_size=10,
            unique=True,
        ),
        epsilons_st,
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_exceeding_one_exceeds_one_plus_d(self, positions, eps, seed):
        fracs = [x % 1.0 for x in positions]
        if len(set(fracs)) < len(fracs):
            return  # lemma needs distinct fractional parts
        d = min_fractional_distance(positions)
        s = new_swarm(positions, eps, seed)
        for _ in range(60):
            pos = s.positions
            for i in range(len(pos)):
                for j in range(i + 1, len(pos)):
                    gap = abs(pos[i] - pos[j])
                    if gap > 1.0:
                        assert gap >= 1.0 + d - 1e-12
            s.advance(1)


class TestGathering:
    def test_hand_executed_gathering(self):
        s = new_swarm([0.25, 0.5, 2.75, 4.9], 0.0, 1)
        res = run_until_gathered(s, 100)
        assert res.reached and res.T == 3
        assert res.final_state.core_span <= 1.0

    def test_already_gathered_t_zero(self):
        s = new_swarm([0.0, 0.1, 0.2, 5.0], 0.1, 1)
        res = run_until_gathered(s, 100)
        assert res.reached and res.T == 0

    def test_small_n_core_span_zero(self):
        for positions in ([0.5], [0.5, 9.5], [0.5, 4.5, 9.1]):
            s = new_swarm(positions, 0.1, 1)
            assert s.core_span == 0.0
            assert run_until_gathered(s, 10).T == 0

    def test_max_steps_exhaustion_flagged(self):
        s = new_swarm([0.05, 1.13, 77.21, 90.4], 0.1, 1)
        res = run_until_gathered(s, 3)
        assert not res.reached
        assert res.final_state.t == 3

    @pytest.mark.parametrize(
        "max_steps, ts", [(0, [0]), (5, [0, 3, 5]), (6, [0, 3, 6])]
    )
    def test_timeout_emits_final_row_once(self, max_steps, ts):
        rows = []
        s = new_swarm([0.0, 0.5, 10.25, 20.75, 30.5], 0.1, 1)
        res = run_until_gathered(s, max_steps, sink=rows.append, stride=3)
        assert not res.reached
        assert [r.t for r in rows] == ts

    @given(lattice_positions, epsilons_st, st.integers(0, 2**32), modes_st,
           st.integers(0, 200))
    @settings(max_examples=80, deadline=None)
    def test_gathered_is_core_span_test(self, positions, eps, seed, mode, max_steps):
        # one gathering test in every mode: at construction, after every
        # tick, and as the verdict of run_until_gathered
        s = new_swarm(positions, eps, seed, mode)
        assert s.gathered == (s.core_span <= 1.0)
        for _ in range(30):
            s.advance(1)
            assert s.gathered == (s.core_span <= 1.0)
        res = run_until_gathered(s, max_steps)
        assert res.reached == s.gathered == (s.core_span <= 1.0)

    def test_trajectory_rows_strictly_increasing(self):
        rows = []
        s = new_swarm(np.random.default_rng(8).uniform(0, 40, 20), 0.1, 11)
        run_until_gathered(s, 100_000, sink=rows.append, stride=7)
        ts = [r.t for r in rows]
        assert ts == sorted(set(ts))
        assert all(r.core_span <= r.total_span for r in rows)

    @pytest.mark.parametrize("trial", range(3))
    def test_large_scale_t_below_bound(self, trial):
        from lineswarm.rw_analytics import InitialConfiguration, gathering_time_bound

        rng = np.random.default_rng(100 + trial)
        pos = np.sort(rng.uniform(0.0, 501.0, 400))
        p = WalkParams(0.1)
        bound = gathering_time_bound(InitialConfiguration(tuple(pos), p))
        res = run_until_gathered(new_swarm(pos, p, 200 + trial), 10_000_000)
        assert res.reached
        assert res.T <= bound

    def test_gathered_core_never_reopens(self):
        # keep stepping long after gathering: the built-in check must stay quiet
        rng = np.random.default_rng(4)
        s = new_swarm(rng.uniform(0, 12, 8), 0.25, 17)
        res = run_until_gathered(s, 1_000_000)
        assert res.reached
        for _ in range(50_000):
            s.advance(1)
            assert s.core_span <= 1.0

    def test_pre_gathering_core_edges_monotone(self):
        rng = np.random.default_rng(5)
        s = new_swarm(rng.uniform(0, 60, 30), 0.2, 23)
        x2, xp = s.positions[1], s.positions[-2]
        while s.core_span > 1.0:
            s.advance(1)
            pos = s.positions
            assert pos[1] >= x2 and pos[-2] <= xp
            x2, xp = pos[1], pos[-2]

    def test_gathers_from_coincident_start(self):
        # duplicate positions (and fractional parts) still gather; the
        # one-mover-per-cluster rule keeps every tick well defined
        s = new_swarm([0.0, 0.0, 3.5, 3.5, 7.0, 7.0], 0.1, 99)
        assert len(set(s.fractional_parts())) < s.n_agents
        res = run_until_gathered(s, 1_000_000)
        assert res.reached
        assert res.final_state.core_span <= 1.0
        for _ in range(5_000):
            s.advance(1)
            assert s.core_span <= 1.0

    def test_invariant_violation_raises(self):
        # force a corrupted state: widen the core behind the engine's back
        s = new_swarm([0.0, 0.1, 0.2, 0.9, 1.4], 0.1, 3)
        assert s.gathered
        s._pos[1] = -5.0
        s._pos[3] = 5.0
        s._pos.sort()
        with pytest.raises(InvariantViolationError):
            for _ in range(50):
                s.advance(1)


class TestCentroidAndVariance:
    def test_metrics_simple(self):
        s = new_swarm([-1.0, 0.0, 1.0], 0.1, 1)
        m = metrics(s)
        assert m.centroid == 0.0
        assert m.core_span == 0.0
        assert m.total_span == 2.0
        assert m.variance == pytest.approx(2.0 / 3.0)

    def test_metrics_fixed_reference(self):
        s = new_swarm([1.0, 3.0], 0.1, 1)
        assert metrics(s, reference=0.0).variance == pytest.approx(5.0)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**23).map(lambda k: k * 2.0**-20),
            min_size=2,
            max_size=10,
        ),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_deterministic_centroid_invariant_bitwise(self, positions, seed):
        s = new_swarm(positions, 0.0, seed)
        c0 = s.centroid()
        for _ in range(64):
            s.advance(1)
            assert s.centroid() == c0

    def test_variance_recurrence_while_spread(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            pos = (rng.integers(0, 2**22, n) * 2.0**-20).tolist()
            s = new_swarm(pos, 0.0, 1)
            c0 = s.centroid()
            while s.total_span > 1.0:
                var_before = metrics(s, reference=c0).variance
                span_before = s.total_span
                s.advance(1)
                var_after = metrics(s, reference=c0).variance
                expected = var_before - (2.0 / s.n_agents) * (span_before - 1.0)
                assert var_after == pytest.approx(expected, abs=1e-12)


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 25, 15)
        t1, t2 = [], []
        for sink in (t1, t2):
            s = new_swarm(pos, 0.15, 909)
            run_until_gathered(s, 100_000, sink=sink.append, stride=3)
        assert t1 == t2

    def test_state_transfers_between_contexts(self):
        # a pickled state resumes with a bit-identical trajectory
        import pickle

        s = new_swarm([0.2, 1.7, 5.1, 9.4], 0.1, 42)
        for _ in range(10):
            s.advance(1)
        clone = pickle.loads(pickle.dumps(s))
        for _ in range(50):
            s.advance(1)
            clone.advance(1)
            assert clone.positions == s.positions

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_draw_pool_blocks_match_one_call(self, seed, n):
        pool = DrawPool(np.random.Generator(np.random.PCG64(seed)))
        drawn = [pool.draw() for _ in range(n)]
        assert drawn == np.random.Generator(np.random.PCG64(seed)).random(n).tolist()

    def test_step_loop_matches_run_loop(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 25, 9)
        s1 = new_swarm(pos, 0.15, 909)
        res = run_until_gathered(s1, 100_000)
        s2 = new_swarm(pos, 0.15, 909)
        for _ in range(res.T):
            s2.advance(1)
        assert s1.positions == s2.positions


class ReferenceSwarm:
    """Per-tick reference for `SwarmState1D.advance`, which must match it bit for bit.

    The same tick body with one `DrawPool.draw` call per draw and one
    method call per tick.
    """

    def __init__(self, positions, eps, seed, mode):
        self.pos = sorted(float(x) for x in positions)
        self.keep = 1.0 - eps
        self.mode = mode
        self.draw = DrawPool(np.random.Generator(np.random.PCG64(seed))).draw
        self.t = 0
        self.gathered = len(self.pos) < 4 or self.pos[-2] - self.pos[1] <= 1.0
        self.checks = 0

    def tick(self):
        pos = self.pos
        n = len(pos)
        if n == 1:
            self.t += 1
            return 0, 0
        if n >= 4:
            x2_before, xp_before = pos[1], pos[-2]
        lo, hi = pos[0], pos[-1]
        d_left = d_right = 0
        if self.mode != UNILATERAL_RIGHT:
            d_left = 1 if self.draw() < self.keep else -1
        if self.mode != UNILATERAL_LEFT:
            d_right = -1 if self.draw() < self.keep else 1
            del pos[-1]
        if d_left:
            del pos[0]
            insort(pos, lo + d_left)
        if d_right:
            insort(pos, hi + d_right)
        self.t += 1
        if n >= 4:
            if not self.gathered and (pos[1] < x2_before or pos[-2] > xp_before):
                raise InvariantViolationError(
                    f"core edge moved outward at t={self.t}: "
                    f"x2 {x2_before} -> {pos[1]}, x_(N-1) {xp_before} -> {pos[-2]}"
                )
            core_after = pos[-2] - pos[1]
            if core_after > 1.0 and self.gathered and self.mode == BILATERAL:
                raise InvariantViolationError(
                    f"gathered core reopened at t={self.t}: core span {core_after}"
                )
            self.gathered = core_after <= 1.0
            self.checks += 1
        return d_left, d_right

    def run(self, ticks, until_gathered):
        last = (0, 0)
        for _ in range(ticks):
            if until_gathered and self.gathered:
                break
            last = self.tick()
        return last


def outcome(run):
    try:
        return "returned", run()
    except InvariantViolationError as exc:
        return "raised", str(exc)


# quarter-unit positions: spans up to 512 take hundreds of ticks to gather,
# and small draws repeat values, so coincident agents are common
spread_positions = st.lists(
    st.integers(min_value=-(2**10), max_value=2**10).map(lambda k: k * 0.25),
    min_size=1,
    max_size=8,
)


class TestAdvance:
    @given(spread_positions, epsilons_st, st.integers(0, 2**32), modes_st,
           st.integers(0, 700), st.booleans())
    @example([0.0], 0.1, 1, BILATERAL, 50, False)
    @example([0.5, 0.5, 0.5], 0.1, 2, BILATERAL, 300, False)
    @example([0.0, 0.0, 3.5, 3.5, 7.0, 7.0], 0.1, 99, BILATERAL, 400, False)
    @example([0.0, 0.0, 0.0, 0.0, 0.0], 0.3, 5, UNILATERAL_LEFT, 500, False)
    @example([-256.0, -100.0, 3.25, 50.5, 256.0], 0.2, 3, BILATERAL, 700, True)
    @settings(max_examples=150, deadline=None)
    def test_advance_matches_reference_ticks(self, positions, eps, seed, mode, ticks,
                                             until_gathered):
        # the pool refills after 16, 48, 112, 240, 496 and 1008 draws
        s = new_swarm(positions, eps, seed, mode)
        ref = ReferenceSwarm(positions, eps, seed, mode)
        assert outcome(lambda: s.advance(ticks, until_gathered)) == outcome(
            lambda: ref.run(ticks, until_gathered))
        assert s.positions == tuple(ref.pos)
        assert (s.t, s.gathered, s.invariant_checks) == (ref.t, ref.gathered, ref.checks)
        assert [s._pool.draw() for _ in range(10)] == [ref.draw() for _ in range(10)]

    def test_raise_leaves_state_as_tick_does(self):
        def forced():
            s = new_swarm([0.0, 20.0, 50.0, 90.0, 120.0], 0.1, 7)
            s.advance(20)  # a few ticks in, so the pool is mid-block
            s.gathered = True
            return s

        by_tick, by_advance = forced(), forced()
        with pytest.raises(InvariantViolationError) as tick_error:
            by_tick.advance(1)
        with pytest.raises(InvariantViolationError) as advance_error:
            by_advance.advance(5)
        assert str(advance_error.value) == str(tick_error.value)
        assert "reopened at t=21" in str(tick_error.value)
        assert by_advance.t == by_tick.t == 21
        assert by_advance.positions == by_tick.positions
        assert by_advance._pool.i == by_tick._pool.i
        assert by_advance._pool.block == by_tick._pool.block
        assert by_advance.invariant_checks == by_tick.invariant_checks

    @pytest.mark.parametrize("positions", [[0.5], [0.5, 3.0], [0.0, 1.5, 4.0, 9.0]])
    def test_negative_ticks_rejected(self, positions):
        s = new_swarm(positions, 0.1, 1)
        with pytest.raises(ValidationError):
            s.advance(-5)
        assert (s.t, s.positions, s._pool.i) == (0, tuple(positions), 0)

    @given(spread_positions, st.integers(0, 2**32), st.integers(0, 400),
           st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_gathering_rows_match_tick_loop(self, positions, seed, max_steps, stride):
        # the stride chunks of run_until_gathered emit the rows of a per-tick loop
        rows = []
        res = run_until_gathered(new_swarm(positions, 0.2, seed), max_steps,
                                 sink=rows.append, stride=stride)
        s = new_swarm(positions, 0.2, seed)
        want = [metrics_row(s)]
        for _ in range(max_steps):
            if s.gathered:
                break
            s.advance(1)
            if s.t % stride == 0:
                want.append(metrics_row(s))
        if s.t and s.t % stride:
            want.append(metrics_row(s))
        assert rows == want
        assert (res.T, res.reached) == (s.t, s.gathered)


def metrics_row(s):
    pos = s.positions
    return (s.t, s.centroid(), s.core_span, s.total_span, pos[0], pos[-1])


class TestUnilateralSweep:
    def test_deterministic_single_agent(self):
        s = new_swarm([0.0, 0.5], 0.0, 1, mode=UNILATERAL_RIGHT)
        res = run_unilateral_sweep(s, 100)
        assert res.finished and res.T == 1
        assert res.final_state.positions == (-0.5, 0.0)

    def test_deterministic_two_agents(self):
        s = new_swarm([0.0, 0.5, 1.7], 0.0, 1, mode=UNILATERAL_RIGHT)
        res = run_unilateral_sweep(s, 100)
        assert res.finished and res.T == 3
        assert res.crossings == 2

    @pytest.mark.parametrize("positions", [[0.0, 0.0, 1.5], [0.0, -0.0, 2.0]])
    def test_agent_at_beacon_never_crosses(self, positions):
        # only agents strictly above the beacon at entry have to cross it
        for seed in range(20):
            s = new_swarm(positions, 0.1, seed, mode=UNILATERAL_RIGHT)
            res = run_unilateral_sweep(s, 100_000)
            assert res.finished and res.crossings == 1
            assert all(-1.0 < x <= 0.0 for x in res.final_state.positions)

    def test_negative_max_steps_rejected(self):
        s = new_swarm([0.0, 0.5, 1.7], 0.1, 1, mode=UNILATERAL_RIGHT)
        with pytest.raises(ValidationError):
            run_unilateral_sweep(s, -1)
        assert s.t == 0

    def test_requires_unilateral_mode(self):
        with pytest.raises(ValidationError):
            run_unilateral_sweep(new_swarm([0.0, 0.5], 0.1, 1), 10)

    def test_monte_carlo_mean_matches_sweep_bound(self):
        # expected sweep time for beacon 0, agents {0.5, 1.7} is exactly 3.75
        p = WalkParams(0.1)
        times = []
        for trial in range(20_000):
            s = new_swarm([0.0, 0.5, 1.7], p, (11, trial), mode=UNILATERAL_RIGHT)
            res = run_unilateral_sweep(s, 100_000)
            assert res.finished
            assert all(-1.0 < x <= 0.0 for x in res.final_state.positions)
            times.append(res.T)
        mean = np.mean(times)
        se = np.std(times, ddof=1) / math.sqrt(len(times))
        assert abs(mean - 3.75) <= 3 * se


def scalar_chain(eps, seed, burn_in, samples, batches):
    """Reference: the reflected chain stepped one draw at a time.

    PCG64 doubles come out sequentially, so one ``random(burn_in + samples)``
    call yields the same stream as any split into blocks.
    """
    draws = np.random.Generator(np.random.PCG64(seed)).random(burn_in + samples)
    k, visited = 1, []
    for u in draws.tolist():
        k = k + 1 if u < eps else max(1, k - 1)
        visited.append(k)
    kept = visited[burn_in:]
    tally = Counter(kept)
    counts = [tally[state] for state in range(1, max(kept) + 1)]
    per_batch = samples // batches if samples >= 2 * batches else 0
    means = [sum(kept[b * per_batch : (b + 1) * per_batch]) / per_batch
             for b in range(batches)] if per_batch else None
    return counts, means


def assert_chain_matches_scalar(eps, seed, burn_in, samples, batches):
    occ = simulate_reflected_chain(WalkParams(eps), seed, burn_in, samples, batches)
    counts, means = scalar_chain(eps, seed, burn_in, samples, batches)
    assert occ.counts.tolist() == counts
    if means is None:
        assert occ.batch_means is None
    else:
        assert occ.batch_means.tolist() == means


class TestWalkSimulators:
    def test_first_passage_eps_zero(self):
        w = simulate_walk_first_passage(WalkParams(0.0), 1, 500)
        assert w.mean == 1.0 and w.variance == 0.0 and w.excursion_mean == 0.0

    @pytest.mark.parametrize("eps,expect", [(0.1, 1.25), (0.25, 2.0)])
    def test_first_passage_matches_formula(self, eps, expect):
        w = simulate_walk_first_passage(WalkParams(eps), 1234, 100_000)
        assert abs(w.mean - expect) <= 3 * w.stderr

    def test_excursion_below_bound(self):
        w = simulate_walk_first_passage(WalkParams(0.1), 99, 100_000)
        assert w.excursion_mean <= 0.125 + 3 * w.excursion_stderr

    def test_two_barrier_immediate(self):
        b = simulate_two_barrier_hits(WalkParams(0.1), 5, 50_000, 1, -1)
        assert abs(b.p_upper - 0.1) <= 3 * b.stderr + 1e-9

    def test_reflected_chain_matches_pi(self):
        p = WalkParams(0.1)
        occ = simulate_reflected_chain(p, 2024, 10_000, 200_000)
        tv = 0.5 * sum(
            abs(occ.frequency(k) - stationary_pi(p, k)) for k in range(1, 31)
        )
        assert tv < 0.01

    def test_reflected_chain_eps_zero_limit(self):
        occ = simulate_reflected_chain(WalkParams(1e-9), 7, 100, 10_000)
        assert occ.frequency(1) > 0.999

    def test_reflected_chain_mean_vs_series(self):
        # reference value from the independent series-summation oracle;
        # batch means absorb the chain's autocorrelation in the error bar
        p = WalkParams(0.3)
        occ = simulate_reflected_chain(p, 31, 10_000, 400_000)
        expect = reflected_chain_mean(p)
        assert abs(occ.mean() - expect) <= 3 * occ.mean_stderr()

    def test_reflected_chain_batch_means_consistent(self):
        occ = simulate_reflected_chain(WalkParams(0.2), 8, 1_000, 50_000)
        assert occ.batch_means is not None and occ.batch_means.size == 100
        # batch means average back to the overall mean over their window
        assert occ.batch_means.mean() == pytest.approx(occ.mean(), abs=0.02)

    @given(
        epsilons_st,
        st.integers(0, 2**32),
        st.integers(0, 2_000),
        st.integers(1, 3_000),
        st.integers(2, 60),
    )
    @settings(max_examples=60, deadline=None)
    def test_reflected_chain_equals_scalar_reference(self, eps, seed, burn_in, samples, batches):
        assert_chain_matches_scalar(eps, seed, burn_in, samples, batches)

    def test_reflected_chain_across_block_boundary(self):
        # burn-in ends inside the first 262,144-draw block; sampling crosses into the second
        assert_chain_matches_scalar(0.4, 77, 262_100, 5_003, 7)


class TestCentroidDriftLaw:
    def test_increment_frequencies(self):
        eps = 0.1
        n = 21
        rng = np.random.default_rng(55)
        s = new_swarm(rng.uniform(0.0, 1.0, n), eps, 808)
        counts = Counter()
        ticks = 100_000
        for _ in range(ticks):
            counts[sum(s.advance(1))] += 1
        p_move = eps * (1 - eps)
        for key, expect in [(2, p_move), (-2, p_move), (0, 1 - 2 * p_move)]:
            freq = counts[key] / ticks
            se = math.sqrt(expect * (1 - expect) / ticks)
            assert abs(freq - expect) <= 3 * se
