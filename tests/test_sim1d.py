"""State-machine semantics, conservation laws, and walk simulators."""

import json
import math
from bisect import insort
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lineswarm import sim1d
from lineswarm.errors import InvariantViolationError, ValidationError
from lineswarm.experiments import ExperimentSpec, uniform_start
from lineswarm.seeding import DrawPool, child_seed
from lineswarm.rw_analytics import (
    WalkParams,
    min_fractional_distance,
    stationary_pi,
)
from lineswarm.sim1d import (
    BILATERAL,
    UNILATERAL_LEFT,
    UNILATERAL_RIGHT,
    exact_sum,
    new_swarm,
    run_unilateral_sweep,
    run_until_gathered,
    simulate_reflected_chain,
    simulate_two_barrier_hits,
    simulate_walk_first_passage,
)

from oracles import (
    fractional_parts,
    keys_by_search,
    metrics,
    reflected_chain_mean_series,
    take,
)

# positions on the 2**-20 lattice below 2**20 keep every +-1 jump exactly
# representable, so bit-level conservation claims are provable on them
lattice_positions = st.lists(
    st.integers(min_value=-(2**25), max_value=2**25).map(lambda k: k * 2.0**-20),
    min_size=1,
    max_size=12,
)

# starts for the ranks: equal fractions on a quarter grid (exact +-x.5
# halves and integers among them, negative ones too), halves far out, one
# cell, arbitrary doubles, and a few thousand agents past 2*_BLOCK
rank_start_st = st.one_of(
    st.lists(
        st.one_of(
            st.integers(-40, 40).map(lambda k: k * 0.25),
            st.integers(-(2**40), 2**40).map(lambda k: k + 0.5),
            st.floats(-0.5, 0.5),
            st.floats(-1e6, 1e6),
            st.sampled_from([-0.0, -1.0, 5e-324, -5e-324, 0.49999999999999994]),
        ),
        min_size=1,
        max_size=30,
    ),
    st.builds(
        lambda n, seed, grid, offset: (
            np.random.default_rng(seed).integers(-4 * n, 4 * n, n) * grid + offset
        ).tolist(),
        st.integers(2 * sim1d._BLOCK + 1, 3000),
        st.integers(0, 2**32),
        st.sampled_from([0.25, 0.1, 2.0**-20]),
        st.sampled_from([0.0, -1000.5]),
    ),
)
epsilons_st = st.floats(min_value=0.0, max_value=0.45)
modes_st = st.sampled_from([BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@contextmanager
def patched(**values):
    """Set `sim1d` module constants inside the block."""
    saved = {name: getattr(sim1d, name) for name in values}
    for name, value in values.items():
        setattr(sim1d, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(sim1d, name, value)


def block_size(size):
    """Build and step swarms with ``sim1d._BLOCK = size`` inside the block."""
    return patched(_BLOCK=size)


def assert_layout(s):
    """The block layout of the `sim1d` docstring."""
    blocks, cap = s._blocks, 2 * sim1d._BLOCK
    keys = list(chain.from_iterable(blocks))
    assert keys == sorted(keys) and len(keys) == s.n_agents
    if s.n_agents <= cap:
        assert len(blocks) == 1
    else:
        assert 3 <= len(blocks[0]) <= cap and 3 <= len(blocks[-1]) <= cap
        assert all(sim1d._BLOCK <= len(block) <= cap for block in blocks[1:-1])
    assert s._tops == [block[-1] for block in blocks[1:-1]]


def dyadic_start(n, span, seed):
    """``n`` seeded positions on the 2**-20 grid in ``[0, span)``."""
    cells = np.random.default_rng(seed).integers(0, int(span * 2**20), n)
    return (cells * 2.0**-20).tolist()


@contextmanager
def pool_reads():
    """Record the count of each `DrawPool.ahead` call inside the block: one
    a numpy pass of the gathering jump."""
    counts, ahead = [], DrawPool.ahead

    def recorded(pool, count):
        counts.append(count)
        return ahead(pool, count)

    DrawPool.ahead = recorded
    try:
        yield counts
    finally:
        DrawPool.ahead = ahead


# at epsilon = 0.45 these three seeds gather after the first jump pass ends,
# at t = 571 from this start: the sizing's estimate falls short for them
SHORT_START = dyadic_start(12, 20.0, 9)
SHORT_SEEDS = (0, 85, 133)


def first_pass_ticks(start, eps, seed):
    """The ticks of the gathering jump's first pass from a fresh pool, and
    the gathering tick."""
    with pool_reads() as counts:
        res = run_until_gathered(new_swarm(start, eps, seed), 10**6)
    return counts[0] // 2, res.T


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
        for bad in ([math.nan], [0.5, math.inf], [-math.inf, 0.5], [0.5, math.nan, 1.0]):
            with pytest.raises(ValidationError):
                new_swarm(bad, 0.1, 1)
        with pytest.raises(ValidationError):  # the keys are built in int64
            new_swarm([-(2.0**51), 2.0**51] * 600, 0.1, 1)
        with pytest.raises(ValidationError):
            new_swarm([0.5], 0.1, 1, mode="sideways")

    @settings(max_examples=200, deadline=None)
    @given(positions=rank_start_st, block=st.sampled_from([3, sim1d._BLOCK]))
    @example(positions=[0.5, 1.5, -2.5, 3.0, -0.0], block=3)
    def test_ranks_equal_the_searched_keys(self, positions, block):
        # one argsort ranks the fractions as the reference's sort and binary
        # search of each agent's fraction do: the same table bytes, cell and keys
        want = keys_by_search(positions)
        with block_size(block):
            s = new_swarm(positions, 0.1, 1)
            assert s._blocks == sim1d._cut(want.keys)
        n = len(want.keys)
        assert s._table.tobytes() == want.table
        assert s._cell0 == want.cell0
        assert s.gathered == (n < 4 or want.keys[-2] - want.keys[1] <= n)
        # x - rint(x) is +0.0 at an integer, so equal fractions are equal
        # doubles, and no sort order among them can change the table's bytes
        table = np.frombuffer(s._table)
        assert not np.signbit(table[table == 0.0]).any()


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
        fracs0 = fractional_parts(s)
        for _ in range(50):
            s.advance(1)
            assert fractional_parts(s) == fracs0

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
        from lineswarm.rw_analytics import gathering_time_bound

        rng = np.random.default_rng(100 + trial)
        pos = np.sort(rng.uniform(0.0, 501.0, 400))
        p = WalkParams(0.1)
        bound = gathering_time_bound(pos, p)
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
        assert len(set(fractional_parts(s))) < s.n_agents
        res = run_until_gathered(s, 1_000_000)
        assert res.reached
        assert res.final_state.core_span <= 1.0
        for _ in range(5_000):
            s.advance(1)
            assert s.core_span <= 1.0

    def test_invariant_violation_raises(self):
        # force a corrupted state: widen the core behind the engine's back by
        # moving the two lowest keys 5 units down and the two highest 5 up,
        # which keeps every block sorted; one block, then two
        for start in ([0.0, 0.1, 0.2, 0.9, 1.4], [k / 2000 for k in range(1100)]):
            s = new_swarm(start, 0.1, 3)
            assert s.gathered
            first, last, n = s._blocks[0], s._blocks[-1], s.n_agents
            for i in (0, 1):
                first[i] -= 5 * n  # one unit is n key steps
                last[-1 - i] += 5 * n
            assert_layout(s)
            assert len(s._blocks) == (1 if n == 5 else 2)
            assert s.core_span > 1.0 and s.gathered
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

    @given(lattice_positions, epsilons_st, st.integers(0, 2**32), modes_st,
           st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_centroid_is_fsum_of_positions(self, positions, eps, seed, mode, ticks):
        # on the lattice every position is exact, so the O(1) centroid equals
        # the correctly rounded sum of the positions, bit for bit
        s = new_swarm(positions, eps, seed, mode)
        assert s.centroid() == math.fsum(s.positions) / s.n_agents
        s.advance(ticks)
        assert s.centroid() == math.fsum(s.positions) / s.n_agents

    @given(st.lists(st.floats(-(2.0**1000), 2.0**1000), min_size=1, max_size=30))
    def test_exact_sum_holds_the_exact_sum(self, xs):
        total = exact_sum(xs)
        assert total[0] == math.fsum(xs)
        assert sum(map(Fraction, total)) == sum(map(Fraction, xs))

    @pytest.mark.parametrize("mode", [BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])
    def test_centroid_after_many_ticks_at_ten_thousand(self, mode):
        rng = np.random.default_rng(21)
        s = new_swarm((rng.integers(0, 2**22, 10_000) * 2.0**-20).tolist(), 0.2, 5, mode)
        for _ in range(4):
            s.advance(5_000)
            assert s.centroid() == math.fsum(s.positions) / s.n_agents

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
        drawn = take(pool, n)
        assert drawn == np.random.Generator(np.random.PCG64(seed)).random(n).tolist()

    @given(st.integers(0, 2**32), st.sampled_from(BIT_GENERATORS),
           st.lists(st.tuples(st.sampled_from(["draw", "loop", "ahead"]),
                              st.integers(0, 9000), st.floats(0.0, 1.0)), max_size=8))
    # from a block's end, read to a block's end; then two passes' leftovers
    # read by the hot loop
    @example(0, np.random.PCG64, [("draw", 16, 0.0), ("ahead", 4000, 1.0), ("loop", 9, 0.0)])
    @example(0, np.random.Philox, [("ahead", 50, 0.5), ("ahead", 10, 0.0), ("loop", 9000, 0.0)])
    @settings(max_examples=100, deadline=None)
    def test_draws_read_ahead_match_draw(self, seed, bits, reads):
        # any interleaving of the pool's two readers and the one-at-a-time
        # `take` hands out the draws of one `random` call, in order; `ahead`
        # returns the draws asked for
        pool, got = DrawPool(np.random.Generator(bits(seed))), []
        for how, count, frac in reads:
            if how == "draw":
                got += take(pool, count)
            elif how == "loop":  # as `SwarmState1D.advance` reads the pool
                draws, i = pool.block, pool.i
                for _ in range(count):
                    if i == len(draws):
                        draws, i = pool.refill(), 0
                    got.append(draws[i])
                    i += 1
                pool.i = i
            else:
                src = pool.ahead(count)
                assert src.size == count
                used = int(frac * src.size)
                got += src[:used].tolist()
                pool.consume(used)
        assert got == np.random.Generator(bits(seed)).random(len(got)).tolist()

    def test_step_loop_matches_run_loop(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 25, 9)
        s1 = new_swarm(pos, 0.15, 909)
        res = run_until_gathered(s1, 100_000)
        s2 = new_swarm(pos, 0.15, 909)
        for _ in range(res.T):
            s2.advance(1)
        assert s1.positions == s2.positions


class ExactSwarm:
    """The list engine's tick on exact `Fraction` positions: the reference.

    `SwarmState1D` must match it bit for bit: its positions and spans are
    the correctly rounded doubles of these, and its centroid is the exact
    sum rounded once, over N.  One `take` of one draw per draw and one
    method call per tick, so the draws of `advance` are checked too.
    """

    def __init__(self, positions, eps, seed, mode):
        self.pos = sorted(Fraction(x) for x in positions)
        self.keep = 1.0 - eps
        self.mode = mode
        self.pool = DrawPool(np.random.Generator(np.random.PCG64(seed)))
        self.t = 0
        self.gathered = len(self.pos) < 4 or self.pos[-2] - self.pos[1] <= 1
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
            d_left = 1 if take(self.pool, 1)[0] < self.keep else -1
        if self.mode != UNILATERAL_LEFT:
            d_right = -1 if take(self.pool, 1)[0] < self.keep else 1
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
                    f"x2 {float(x2_before)} -> {float(pos[1])}, "
                    f"x_(N-1) {float(xp_before)} -> {float(pos[-2])}"
                )
            if pos[-2] - pos[1] > 1 and self.gathered and self.mode == BILATERAL:
                raise InvariantViolationError(
                    f"gathered core reopened at t={self.t}: "
                    f"core span {float(pos[-2]) - float(pos[1])}"
                )
            self.gathered = pos[-2] - pos[1] <= 1
            self.checks += 1
        return d_left, d_right

    def run(self, ticks, until_gathered):
        last = (0, 0)
        for _ in range(ticks):
            if until_gathered and self.gathered:
                break
            last = self.tick()
        return last

    def observed(self):
        xs = [float(q) for q in self.pos]
        core = xs[-2] - xs[1] if len(xs) >= 4 else 0.0
        return (tuple(xs), float(sum(self.pos)) / len(xs), core, xs[-1] - xs[0],
                self.gathered, self.t, self.checks)


def observed(s):
    return (s.positions, s.centroid(), s.core_span, s.total_span,
            s.gathered, s.t, s.invariant_checks)


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
    @staticmethod  # no instance, so the small-block run below can call it too
    @given(spread_positions, epsilons_st, st.integers(0, 2**32), modes_st,
           st.integers(0, 700), st.booleans())
    @example([0.0], 0.1, 1, BILATERAL, 50, False)
    @example([0.5, 0.5, 0.5], 0.1, 2, BILATERAL, 300, False)
    @example([0.0, 0.0, 3.5, 3.5, 7.0, 7.0], 0.1, 99, BILATERAL, 400, False)
    @example([0.0, 0.0, 0.0, 0.0, 0.0], 0.3, 5, UNILATERAL_LEFT, 500, False)
    @example([-256.0, -100.0, 3.25, 50.5, 256.0], 0.2, 3, BILATERAL, 700, True)
    @settings(max_examples=150, deadline=None)
    def test_advance_matches_reference_ticks(positions, eps, seed, mode, ticks,
                                             until_gathered):
        # the pool refills after 16, 48, 112, 240, 496 and 1008 draws
        s = new_swarm(positions, eps, seed, mode)
        ref = ExactSwarm(positions, eps, seed, mode)
        assert outcome(lambda: s.advance(ticks, until_gathered)) == outcome(
            lambda: ref.run(ticks, until_gathered))
        assert observed(s) == ref.observed()
        assert_layout(s)
        assert take(s._pool, 10) == take(ref.pool, 10)

    def test_advance_matches_reference_ticks_in_small_blocks(self):
        # at the minimum block size, N = 7 and 8 span two blocks
        with block_size(3):
            self.test_advance_matches_reference_ticks()

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
        assert by_advance.invariant_checks == by_tick.invariant_checks == 20

    @pytest.mark.parametrize("start, block", [
        ([0.0, 0.25, 0.5, 0.75, 1.0], 512),
        (dyadic_start(9, 1.0, 3), 512),
        (dyadic_start(9, 1.0, 3), 3),  # three blocks
    ])
    def test_outward_core_edge_raises_as_the_reference_does(self, start, block):
        # a gathered swarm flagged apart before each tick: the first tick that
        # moves x_2 down or x_{N-1} up raises, leaving what the exact
        # reference, forged the same way, leaves
        ref = ExactSwarm(start, 0.3, 7, BILATERAL)
        with block_size(block):
            s = new_swarm(start, 0.3, 7)
            s.advance(20)  # the pool mid-block
            ref.run(20, False)
            assert s.gathered and ref.gathered
            for _ in range(1000):
                s.gathered = ref.gathered = False
                got = outcome(lambda: s.advance(1))
                assert got == outcome(ref.tick)
                if got[0] == "raised":
                    break
            assert_layout(s)
        assert got[1].startswith(f"core edge moved outward at t={s.t}:")
        assert s.invariant_checks == s.t - 1
        assert observed(s) == ref.observed()
        assert take(s._pool, 10) == take(ref.pool, 10)

    @pytest.mark.parametrize("positions", [[0.5], [0.5, 3.0], [0.0, 1.5, 4.0, 9.0]])
    def test_negative_ticks_rejected(self, positions):
        s = new_swarm(positions, 0.1, 1)
        with pytest.raises(ValidationError):
            s.advance(-5)
        assert (s.t, s.positions, s._pool.i) == (0, tuple(positions), 0)

    @staticmethod  # no instance, so the runs below can call it too
    @given(spread_positions, st.sampled_from([0.0, 0.1, 0.2, 0.45]), st.integers(0, 2**32),
           st.integers(0, 60), st.integers(0, 3000), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_gathering_rows_match_tick_loop(positions, eps, seed, pre, max_steps, stride):
        # the jump's arrays and the stride chunks of run_until_gathered emit
        # the rows of a per-tick loop
        jumped, s = new_swarm(positions, eps, seed), new_swarm(positions, eps, seed)
        jumped.advance(pre)  # the pool mid-block
        s.advance(pre)
        rows = []
        res = run_until_gathered(jumped, max_steps, sink=rows.append, stride=stride)
        assert rows == tick_loop_rows(s, max_steps, stride)
        assert (res.T, res.reached) == (s.t, s.gathered)
        assert jump_outcome(jumped) == jump_outcome(s)

    def test_gathering_rows_match_tick_loop_in_small_blocks(self):
        # at the minimum block size, N >= 7 spans several blocks
        with block_size(3):
            self.test_gathering_rows_match_tick_loop()

    def test_gathering_rows_match_tick_loop_in_short_passes(self):
        # jump passes of 1 to 4 ticks, so that rows fall on pass boundaries
        with patched(_JUMP_DRAWS=2, _JUMP_CAP=8):
            self.test_gathering_rows_match_tick_loop()

    def test_gathering_rows_at_the_first_pass_boundary(self):
        # runs that stop just before, at and after the first jump pass's last
        # tick: its row comes from the arrays when a pass follows, and from
        # the final state only, once, when the run stops there
        for seed in SHORT_SEEDS:
            boundary, gathering = first_pass_ticks(SHORT_START, 0.45, seed)
            assert boundary + 6 < gathering
            s = new_swarm(SHORT_START, 0.45, seed)
            every = [metrics_row(s)]  # the row after each tick
            while s.t < boundary + 6:
                s.advance(1)
                every.append(metrics_row(s))
            for max_steps in range(boundary - 4, boundary + 7):
                done = every[: max_steps + 1]
                for stride in (1, 2):
                    rows = []
                    res = run_until_gathered(new_swarm(SHORT_START, 0.45, seed), max_steps,
                                             sink=rows.append, stride=stride)
                    want = done[::stride]
                    if (len(done) - 1) % stride:
                        want.append(done[-1])
                    assert rows == want
                    assert res.T == len(done) - 1


def tick_loop_rows(s, max_steps, stride):
    """The rows of `run_until_gathered` from ``s``, by ``advance(1)`` ticks."""
    t0 = s.t
    rows = [metrics_row(s)]
    for _ in range(max_steps):
        if s.gathered:
            break
        s.advance(1)
        if s.t % stride == 0:
            rows.append(metrics_row(s))
    if s.t != t0 and s.t % stride:
        rows.append(metrics_row(s))
    return rows


class TestTurnBacks:
    @given(st.lists(st.integers(-(2**10), 2**10).map(lambda k: k * 0.25),
                    min_size=2, max_size=12),
           epsilons_st, st.integers(0, 2**32), modes_st, st.integers(0, 400))
    @example([0.0, 0.0], 0.45, 3, BILATERAL, 400)
    @settings(max_examples=100, deadline=None)
    def test_counts_match_tallied_directions(self, positions, eps, seed, mode, ticks):
        by_tick = new_swarm(positions, eps, seed, mode)
        tally = [0, 0, 0]  # left end turned back, right end, both
        for _ in range(ticks):
            d_left, d_right = by_tick.advance(1)
            tally[0] += d_left == -1
            tally[1] += d_right == 1
            tally[2] += d_left == -1 and d_right == 1
        at_once = new_swarm(positions, eps, seed, mode)
        at_once.advance(ticks)
        assert at_once.turn_backs == by_tick.turn_backs == tuple(tally)
        assert at_once.positions == by_tick.positions
        assert at_once.centroid() == by_tick.centroid()
        if mode != BILATERAL:
            assert at_once.turn_backs[2] == 0


# arbitrary finite doubles, with extra weight on (-1/2, 0), where x - floor(x)
# rounds, and on small magnitudes, where ticks can gather the swarm
any_double = st.one_of(
    st.floats(min_value=-(2.0**51), max_value=2.0**51),
    st.floats(min_value=-0.5, max_value=0.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=-4.0, max_value=4.0),
)
exact_starts = st.one_of(
    st.lists(any_double, min_size=1, max_size=12),
    # coincident starts: every agent sits on one of a few doubles
    st.lists(any_double, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)),
)


class TestExactReference:
    @staticmethod  # no instance, so the small-block run below can call it too
    @given(exact_starts, epsilons_st, st.integers(0, 2**32), modes_st,
           st.lists(st.integers(0, 40), min_size=1, max_size=5), st.booleans())
    @example([-0.1, 0.3, 0.9002914679668708, 2.7, 3.3, -0.4999999999], 0.3, 0, BILATERAL,
             [40, 40, 40], False)
    @example([-0.49999999999999994, 0.5, 1.5, -2.5, 2.5], 0.2, 1, UNILATERAL_LEFT, [30], False)
    # halves that round to even cells both ways: core span exactly 1 at t = 0
    @example([0.0, 0.5, 1.5, 3.0], 0.1, 3, BILATERAL, [10], False)
    @example([-0.0, 0.0, 5e-324, -5e-324, 1.0], 0.1, 2, BILATERAL, [20], False)
    # N = 16: in blocks of the minimum size, middle blocks grow and split
    @example([1.75, -2.75, -5.5, -5.75, 3.75, 5.0, 1.25, 2.75, 0.5, 5.25, 3.75, -6.0, 4.25,
              -5.5, 2.75, -4.0], 0.2, 0, BILATERAL, [40, 40, 40], False)
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_engine(positions, eps, seed, mode, blocks, until_gathered):
        s = new_swarm(positions, eps, seed, mode)
        ref = ExactSwarm(positions, eps, seed, mode)
        assert observed(s) == ref.observed()
        for ticks in blocks:
            assert s.advance(ticks, until_gathered) == ref.run(ticks, until_gathered)
            assert observed(s) == ref.observed()
            assert_layout(s)
        assert take(s._pool, 10) == take(ref.pool, 10)

    def test_matches_exact_engine_in_small_blocks(self):
        # at the minimum block size, N = 7..12 spans two to four blocks: keys
        # route to middle blocks, which split, and end blocks merge inward
        with block_size(3):
            self.test_matches_exact_engine()

    @pytest.mark.parametrize("mode", [BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])
    def test_large_swarm_matches_exact_engine(self, mode):
        # five blocks at the real block size, through gathering and after
        start = dyadic_start(3000, 3.5, 17)
        s = new_swarm(start, 0.1, 23, mode)
        ref = ExactSwarm(start, 0.1, 23, mode)
        assert len(s._blocks) >= 5
        for _ in range(200):
            if s.gathered:
                break
            assert s.advance(250, until_gathered=True) == ref.run(250, True)
            assert observed(s) == ref.observed()
            assert_layout(s)
        assert s.gathered
        for _ in range(8):
            assert s.advance(250) == ref.run(250, False)
            assert observed(s) == ref.observed()
            assert_layout(s)

    @pytest.mark.parametrize("mode", [BILATERAL, UNILATERAL_RIGHT, UNILATERAL_LEFT])
    def test_non_dyadic_start_matches_exact(self, mode):
        # a unit jump on these doubles rounds, so a float engine that adds
        # the jumps one by one drifts from the exact positions within 150 ticks
        # on most seeds
        start = [-0.1, 0.3, 0.9002914679668708, 2.7, 3.3, -0.4999999999]
        for seed in range(50):
            s = new_swarm(start, 0.3, seed, mode)
            ref = ExactSwarm(start, 0.3, seed, mode)
            for _ in range(10):
                assert s.advance(15) == ref.run(15, False)
                assert observed(s) == ref.observed()


def jump_outcome(s):
    """Everything the gathering jump must leave as `advance` does."""
    assert_layout(s)
    # the draws that come next, over more than two whole blocks
    return (list(chain.from_iterable(s._blocks)), s.t, s.gathered, s.turn_backs,
            s.invariant_checks, take(s._pool, 9000))


# starts for the gathering jump, N = 4..40
jump_starts = st.one_of(
    # dyadic: quarter units, so coincident agents are common
    st.lists(st.integers(-(2**8), 2**8).map(lambda k: k * 0.25), min_size=4, max_size=40),
    # non-dyadic doubles
    st.lists(st.floats(-40.0, 40.0), min_size=4, max_size=40),
    # one fraction in many cells: equal ranks at different levels
    st.lists(st.integers(-40, 40).map(lambda c: c + 0.375), min_size=4, max_size=40),
    # one agent more than 2 units below (or, flipped, above) the rest
    st.tuples(st.floats(-300.0, -2.01), st.lists(st.floats(0.0, 8.0), min_size=3, max_size=39),
              st.sampled_from([1.0, -1.0]))
    .map(lambda p: [p[2] * x for x in [p[0], *p[1]]]),
)


def high_at_start(ends, phase, seconds=sim1d._InwardEnds.seconds):
    """`_InwardEnds.seconds` with the left end's x_2 one unit too high at
    phase 0."""
    got = seconds(ends, phase)
    got[0] += ends.n * (phase[0] == 0)
    return got


class TestGatheringJump:
    @staticmethod  # no instance, so the small-block run below can call it too
    @given(jump_starts, epsilons_st, st.integers(0, 2**32), st.integers(0, 60),
           st.floats(0.0, 1.5))
    @example([0.0, 0.0, 3.5, 3.5, 7.0, 7.0], 0.1, 99, 0, 1.0)
    @example([-300.0, 0.25, 0.5, 3.0, 7.75], 0.2, 3, 7, 1.5)
    @example([0.0, 0.5, 1.0, 1.5, 100.0, 100.5, 101.0, 101.5], 0.0, 1, 0, 0.5)
    @settings(max_examples=150, deadline=None)
    def test_jump_matches_advance(positions, eps, seed, pre, frac):
        # max_steps a fraction of the gathering time: timeouts, T itself and beyond
        timing = new_swarm(positions, eps, seed)
        timing.advance(pre)
        timing.advance(10**7, until_gathered=True)
        max_steps = int(frac * (timing.t - pre))
        jumped, stepped = new_swarm(positions, eps, seed), new_swarm(positions, eps, seed)
        jumped.advance(pre)  # the pool mid-block
        stepped.advance(pre)
        res = run_until_gathered(jumped, max_steps)
        stepped.advance(max_steps, until_gathered=True)
        assert (res.T, res.reached) == (stepped.t, stepped.gathered)
        assert jump_outcome(jumped) == jump_outcome(stepped)

    def test_jump_matches_advance_in_small_blocks(self):
        # at the minimum block size, N >= 7 spans several blocks
        with block_size(3):
            self.test_jump_matches_advance()

    def test_jump_matches_advance_in_short_passes(self):
        # a pass asking for 2 to 8 draws gets only those while the pool
        # holds more, so it ends mid-block and the next one starts from the
        # draws it left in the pool
        with patched(_JUMP_DRAWS=2, _JUMP_CAP=8):
            self.test_jump_matches_advance()

    def test_sweep_grid_trials(self):
        # the convergence_vs_n.json grid point N = 200, S0 = 100, first 20 trials
        for flat in range(300, 320):
            start = uniform_start(42, "convergence-init", flat, 200, 100.0)
            seed = child_seed(42, "convergence-dyn", flat)
            jumped, stepped = new_swarm(start, 0.1, seed), new_swarm(start, 0.1, seed)
            assert run_until_gathered(jumped, 10**7).reached
            stepped.advance(10**7, until_gathered=True)
            assert jump_outcome(jumped) == jump_outcome(stepped)

    def test_passes_split_inside_excursions(self):
        # max_steps around the end of the first numpy pass; at epsilon = 0.45
        # most ends are mid-excursion there, so the ticks after it read the
        # phase carried across passes.  The first starts gather after that
        # pass; the second ones may gather inside it
        starts = [(SHORT_START, seed) for seed in SHORT_SEEDS]
        starts += [(dyadic_start(40, 100.0, 9), seed) for seed in range(3)]
        for start, seed in starts:
            boundary, gathering = first_pass_ticks(start, 0.45, seed)
            assert (boundary < gathering) == (start is SHORT_START)
            for max_steps in range(boundary - 4, boundary + 7):
                jumped, stepped = new_swarm(start, 0.45, seed), new_swarm(start, 0.45, seed)
                run_until_gathered(jumped, max_steps)
                stepped.advance(max_steps, until_gathered=True)
                assert jump_outcome(jumped) == jump_outcome(stepped)

    def test_sweep_trials_take_one_pass(self):
        # the first pass is sized from the start, so the first 50 trials of
        # the N = 200 grid point of configs/convergence_vs_n.json take at
        # most 1.1 passes a trial
        config = json.loads((CONFIGS / "convergence_vs_n.json").read_text(encoding="utf-8"))
        spec = ExperimentSpec.from_dict(config)
        (eps,), (s0,) = spec.epsilons, spec.initial_spans
        first = spec.agent_counts.index(200) * spec.trials
        with pool_reads() as counts:
            for flat in range(first, first + 50):
                start = uniform_start(spec.seed, "convergence-init", flat, 200, s0)
                state = new_swarm(start, eps, child_seed(spec.seed, "convergence-dyn", flat))
                assert run_until_gathered(state, spec.max_steps).reached
        assert len(counts) <= 1.1 * 50

    def test_jump_matches_advance_on_mt19937(self):
        start = dyadic_start(30, 20.0, 4)
        jumped, stepped = (
            sim1d.SwarmState1D(start, WalkParams(0.2), np.random.Generator(np.random.MT19937(8)),
                               BILATERAL)
            for _ in range(2)
        )
        run_until_gathered(jumped, 10**6)
        stepped.advance(10**6, until_gathered=True)
        assert jump_outcome(jumped) == jump_outcome(stepped)

    @given(jump_starts, epsilons_st, st.integers(0, 2**32), st.integers(0, 60),
           st.floats(0.0, 1.5), st.integers(1, 300))
    @settings(max_examples=100, deadline=None)
    def test_sink_leaves_the_jump_outcome(self, positions, eps, seed, pre, frac, stride):
        # rows taken from the jump's arrays change nothing else it leaves
        timing = new_swarm(positions, eps, seed)
        timing.advance(pre)
        timing.advance(10**7, until_gathered=True)
        max_steps = int(frac * (timing.t - pre))
        plain, sunk = new_swarm(positions, eps, seed), new_swarm(positions, eps, seed)
        plain.advance(pre)  # the pool mid-block
        sunk.advance(pre)
        rows = []
        res = run_until_gathered(sunk, max_steps, sink=rows.append, stride=stride)
        assert (res.T, res.reached) == (run_until_gathered(plain, max_steps).T, plain.gathered)
        assert jump_outcome(sunk) == jump_outcome(plain)
        assert rows[-1] == metrics_row(sunk)

    def test_outward_core_edge_raises_at_its_tick(self, monkeypatch):
        # an x_2 reported one unit too high at phase 0 falls back on the left
        # end's first inward move: the jump raises there, with the state,
        # the pool and the tallies of that tick
        start = [0.0, 0.5, 9.0, 20.0, 30.25]
        jumped = new_swarm(start, 0.45, 14)
        jumped.advance(5)  # the pool mid-block
        monkeypatch.setattr(sim1d._InwardEnds, "seconds", high_at_start)
        with pytest.raises(InvariantViolationError, match="core edge moved outward at t=56:"):
            run_until_gathered(jumped, 10**6)
        stepped = new_swarm(start, 0.45, 14)
        stepped.advance(56)
        assert jumped.t == 56
        assert jumped.invariant_checks == jumped.t - 1
        assert (jumped.positions, jumped.turn_backs) == (stepped.positions, stepped.turn_backs)
        assert take(jumped._pool, 8) == take(stepped._pool, 8)

    def test_outward_core_edge_raises_at_its_tick_with_a_sink(self, monkeypatch):
        # the run above with a sink: the hook's x_2 is a unit high on every
        # tick before t = 56, so at a stride of 56 the one row due after
        # entry falls on the tick that raises, which emits none
        start = [0.0, 0.5, 9.0, 20.0, 30.25]
        jumped, stepped = new_swarm(start, 0.45, 14), new_swarm(start, 0.45, 14)
        jumped.advance(5)  # the pool mid-block
        stepped.advance(5)
        monkeypatch.setattr(sim1d._InwardEnds, "seconds", high_at_start)
        rows = []
        with pytest.raises(InvariantViolationError, match="core edge moved outward at t=56:"):
            run_until_gathered(jumped, 10**6, sink=rows.append, stride=56)
        assert rows == [metrics_row(stepped)]
        stepped.advance(51)
        assert jumped.t == 56
        assert jumped.invariant_checks == jumped.t - 1
        assert (jumped.positions, jumped.turn_backs) == (stepped.positions, stepped.turn_backs)
        assert take(jumped._pool, 8) == take(stepped._pool, 8)

    def test_raising_sink_leaves_the_state_of_its_pass(self):
        # the first pass ends before gathering; a sink that raises on its
        # first row after entry leaves the state built at that pass's end
        boundary, _ = first_pass_ticks(SHORT_START, 0.45, SHORT_SEEDS[0])
        jumped, stepped = (new_swarm(SHORT_START, 0.45, SHORT_SEEDS[0]) for _ in range(2))

        def sink(row):
            if row.t:
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            run_until_gathered(jumped, 10**6, sink=sink, stride=boundary // 2)
        stepped.advance(boundary)
        assert not stepped.gathered
        assert jump_outcome(jumped) == jump_outcome(stepped)

    def test_bilateral_runs_never_step_advance(self, monkeypatch):
        # the jump ends every bilateral gathering: with `advance` made to
        # raise, runs from ungathered starts, some after ticks that leave the
        # pool mid-block, gather with and without a sink
        starts = [(SHORT_START, 0.45, seed) for seed in SHORT_SEEDS]  # several passes
        starts += [(dyadic_start(n, 30.0, n), eps, 5) for n in (4, 9, 40, 1100)
                   for eps in (0.0, 0.2)]
        runs = []
        for start, eps, seed in starts:
            for pre in (0, 7):
                plain, sunk = new_swarm(start, eps, seed), new_swarm(start, eps, seed)
                plain.advance(pre)
                sunk.advance(pre)
                assert not plain.gathered
                runs.append((plain, sunk))

        def refused(state, ticks, until_gathered=False):
            raise AssertionError("advance ran in a bilateral gathering")

        monkeypatch.setattr(sim1d.SwarmState1D, "advance", refused)
        for plain, sunk in runs:
            assert run_until_gathered(plain, 10**7).reached
            rows = []
            assert run_until_gathered(sunk, 10**7, sink=rows.append, stride=5).reached
            assert rows[-1] == metrics_row(sunk)
            assert jump_outcome(sunk) == jump_outcome(plain)

    @given(st.lists(st.integers(-40, 40).map(lambda k: k * 0.25), min_size=4, max_size=12),
           st.sampled_from([0.0, 0.1, 0.3, 0.45]), st.integers(0, 2**32), st.integers(1, 400))
    @settings(max_examples=200, deadline=None)
    def test_jump_ends_gathered_or_at_max_steps(self, positions, eps, seed, max_steps):
        s = new_swarm(positions, eps, seed)
        assume(not s.gathered)
        sim1d._jump_to_gathering(s, max_steps)
        assert s.gathered or s.t == max_steps

    def test_one_end_views_gathered_iff_gathered(self):
        # one tick from every apart swarm of 4 to 7 agents on the quarter
        # grid over [0, 3], under all four draw pairs: the swarm after it is
        # gathered exactly when the left end's x_2 after its own move alone
        # and the right end's x_{N-1} after its own lie within one unit, the
        # test the gathering jump stops on.  Positions in quarter units
        unit, checked = 4, 0
        for n in (4, 5, 6, 7):
            for pos in combinations_with_replacement(range(3 * unit + 1), n):
                if pos[-2] - pos[1] <= unit:
                    continue
                for d_left, d_right in product((unit, -unit), (-unit, unit)):
                    left = sorted([pos[0] + d_left, *pos[1:]])
                    right = sorted([*pos[:-1], pos[-1] + d_right])
                    both = sorted([pos[0] + d_left, *pos[1:-1], pos[-1] + d_right])
                    assert (both[-2] - both[1] <= unit) == (right[-2] - left[1] <= unit)
                    checked += 1
        assert checked == 195_360


def spans_by_advance(state, samples, stride):
    """The scalar reference for `sample_total_spans`."""
    spans = np.empty(samples)
    for i in range(samples):
        state.advance(stride)
        spans[i] = state.total_span
    return spans


# starts for the shape table, N = 4..60; most gather within a few hundred ticks
table_starts = st.one_of(
    # dyadic: quarter units, so equal keys are common
    st.lists(st.integers(-16, 16).map(lambda k: k * 0.25), min_size=4, max_size=60),
    # non-dyadic doubles
    st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=60),
    # tied fractional parts: one fraction in a few cells, so equal ranks
    st.lists(st.integers(-3, 3).map(lambda c: c + 0.375), min_size=4, max_size=60),
)


class TestSampleTotalSpans:
    @staticmethod  # no instance, so the runs below can call it too
    @given(table_starts, epsilons_st, st.integers(0, 2**32), st.integers(0, 300),
           st.integers(0, 40), st.integers(1, 30), st.sampled_from([None, 64, 14, 2]),
           st.sampled_from([None, 2**10]))
    @example([0.0, 0.25, 0.5, 0.75], 0.0, 1, 0, 0, 5, None, None)  # 0 samples
    @example([0.0, 0.0, 0.0, 0.0, 1.0], 0.45, 5, 300, 40, 30, 2, None)
    @example([0.5, 0.5, 1.5, 1.5, 2.5, 2.5], 0.3, 8, 300, 40, 30, None, 2**10)
    # learning stops at the second tick of the quad at tick 152, after 38
    # quads, 5 of them looked up; in passes of 14 draws the same stop falls
    # on a single tick
    @example([k / 4 for k in range(20)], 0.15, 2, 300, 40, 30, None, 2**14)
    @example([k / 4 for k in range(20)], 0.15, 2, 300, 40, 30, 14, 2**14)
    @settings(max_examples=150, deadline=None)
    def test_matches_advance(positions, eps, seed, pre, samples, stride, cap, table_keys):
        # ``cap`` shortens the passes to cross them: 64 draws make passes of
        # whole quads, 14 one quad and three single ticks, 2 a single tick.
        # ``table_keys`` makes learning stop, so that a call goes on with
        # `advance` mid-sample, or mid-quad
        tabled, stepped = new_swarm(positions, eps, seed), new_swarm(positions, eps, seed)
        for s in (tabled, stepped):
            run_until_gathered(s, 10**6)
            s.advance(pre)  # the pool mid-block
        with patched(_TABLE_DRAWS=cap or sim1d._TABLE_DRAWS,
                     _TABLE_KEYS=table_keys or sim1d._TABLE_KEYS):
            got = sim1d.sample_total_spans(tabled, samples, stride)
        assert np.array_equal(got, spans_by_advance(stepped, samples, stride))
        assert jump_outcome(tabled) == jump_outcome(stepped)

    def test_matches_advance_in_small_blocks(self):
        # at the minimum block size only N <= 6 is one block, so the rest
        # runs the `advance` loop
        with block_size(3):
            self.test_matches_advance()

    @pytest.mark.parametrize("bits", BIT_GENERATORS, ids=lambda bits: bits.__name__)
    def test_numpy_readers_match_advance_on_any_bit_generator(self, bits):
        # the gathering jump and the shape table read the draws `advance`
        # reads, whatever the bit generator behind the pool
        start = [0.0, 0.3, 5.7, 9.1, 14.2, 20.9, 30.25, 41.0]
        fast, slow = (sim1d.SwarmState1D(start, WalkParams(0.2), np.random.Generator(bits(8)),
                                         BILATERAL)
                      for _ in range(2))
        assert run_until_gathered(fast, 10**6).reached
        got = sim1d.sample_total_spans(fast, 200, 3)
        slow.advance(10**6, until_gathered=True)
        assert np.array_equal(got, spans_by_advance(slow, 200, 3))
        assert jump_outcome(fast) == jump_outcome(slow)

    @pytest.mark.parametrize("n, tabled", [(1024, True), (1025, False)])
    def test_largest_one_block_swarm(self, monkeypatch, n, tabled):
        calls = []
        shape_ticks = sim1d._shape_ticks
        monkeypatch.setattr(sim1d, "_shape_ticks",
                            lambda *args: calls.append(1) or shape_ticks(*args))
        start = dyadic_start(n, 1.5, 3)
        swarms = new_swarm(start, 0.1, 12), new_swarm(start, 0.1, 12)
        for s in swarms:
            assert run_until_gathered(s, 10**6).reached
        got = sim1d.sample_total_spans(swarms[0], 300, 7)
        assert np.array_equal(got, spans_by_advance(swarms[1], 300, 7))
        assert jump_outcome(swarms[0]) == jump_outcome(swarms[1])
        assert bool(calls) == tabled

    @pytest.mark.parametrize("positions, eps, seed, table_keys", [
        ([k / 4 for k in range(20)], 0.15, 2, 2**14),
        ([0.5, 0.5, 1.5, 1.5, 2.5, 2.5], 0.3, 8, 2**10),
        (np.random.default_rng(21).uniform(0, 5, 21).tolist(), 0.45, 7, None),
    ])
    def test_quads_stop_where_single_ticks_do(self, positions, eps, seed, table_keys):
        # learning sees the same ticks in the same order with quads as
        # without (_QUAD_MISSES = -1), so its budget ends the call at the
        # same tick
        stops = []
        for misses in sim1d._QUAD_MISSES, -1:
            s = new_swarm(positions, eps, seed)
            run_until_gathered(s, 10**6)
            with patched(_QUAD_MISSES=misses, _TABLE_KEYS=table_keys or sim1d._TABLE_KEYS):
                stops.append(sim1d._shape_ticks(s, np.empty(1000), 30))
        assert stops[0] == stops[1] < 30_000

    def test_quad_memo_stays_bounded(self, monkeypatch):
        # near epsilon = 1/2 shapes multiply: 3*10^5 ticks at N = 4 learn
        # far more shapes than the memo has quads for
        tables = []

        class Table(sim1d._ShapeTable):
            __slots__ = ()

            def __init__(self, shape):
                super().__init__(shape)
                tables.append(self)

        monkeypatch.setattr(sim1d, "_ShapeTable", Table)
        start = [0.0, 0.3, 0.6, 0.9]
        tabled, stepped = new_swarm(start, 0.45, 4), new_swarm(start, 0.45, 4)
        for s in tabled, stepped:
            assert run_until_gathered(s, 10**6).reached
        got = sim1d.sample_total_spans(tabled, 30_000, 10)
        assert np.array_equal(got, spans_by_advance(stepped, 30_000, 10))
        assert jump_outcome(tabled) == jump_outcome(stepped)
        (table,) = tables
        assert len(table.quad) == sim1d._QUAD_MEMO < 256 * len(table.shapes)

    def test_reopening_core_raises_at_its_tick(self):
        # a swarm flagged gathered with its upper half moved 3 units up: its
        # next tick reopens the core, which the table never stores, so
        # `advance` runs that tick and raises, leaving the state as the
        # scalar run does
        start = [0.0, 0.25, 0.5, 1.5, 1.75, 2.0]
        swarms = new_swarm(start, 0.2, 6), new_swarm(start, 0.2, 6)
        for s in swarms:
            s.advance(37)  # the pool mid-block
            assert s.gathered
            s._blocks[0][3:] = [key + 3 * s.n_agents for key in s._blocks[0][3:]]
        tabled, stepped = swarms
        with pytest.raises(InvariantViolationError, match="gathered core reopened at t=38:"):
            sim1d.sample_total_spans(tabled, 10, 4)
        with pytest.raises(InvariantViolationError, match="gathered core reopened at t=38:"):
            spans_by_advance(stepped, 10, 4)
        assert tabled.invariant_checks == tabled.t - 1 == 37
        assert jump_outcome(tabled) == jump_outcome(stepped)

    def test_negative_counts_rejected(self):
        s = new_swarm([0.0, 0.5, 1.0, 1.5], 0.1, 1)
        with pytest.raises(ValidationError):
            sim1d.sample_total_spans(s, -1, 1)
        with pytest.raises(ValidationError):
            sim1d.sample_total_spans(s, 1, -1)


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

    def test_many_blocks_match_one_block(self):
        start = dyadic_start(2000, 3.5, 29)

        def sweep():
            s = new_swarm(start, 0.1, 31, mode=UNILATERAL_RIGHT)
            res = run_unilateral_sweep(s, 1_000_000)
            return len(s._blocks), res.T, res.finished, res.crossings, s.positions

        many = sweep()
        with block_size(2000):
            one = sweep()
        assert many[0] > 1 and one[0] == 1
        assert many[2] and many[1:] == one[1:]

    def test_requires_unilateral_mode(self):
        with pytest.raises(ValidationError):
            run_unilateral_sweep(new_swarm([0.0, 0.5], 0.1, 1), 10)

    @staticmethod
    def forged_sweep(monkeypatch, forge):
        """The deterministic sweep of `test_deterministic_two_agents`, which
        crosses the beacon at t = 2 and 3, through a wrapped `advance` that
        returns ``forge(state, d_right)`` as the right end's direction."""
        advance = sim1d.SwarmState1D.advance

        def forged(state, ticks, until_gathered=False):
            d_left, d_right = advance(state, ticks, until_gathered)
            return d_left, forge(state, d_right)

        s = new_swarm([0.0, 0.5, 1.7], 0.0, 1, mode=UNILATERAL_RIGHT)
        monkeypatch.setattr(sim1d.SwarmState1D, "advance", forged)
        return run_unilateral_sweep(s, 100)

    def test_hidden_crossing_raises(self, monkeypatch):
        def hide_first(state, d_right):
            return 0 if state.t == 2 else d_right

        with pytest.raises(InvariantViolationError, match="expected 2 beacon crossings, counted 1"):
            self.forged_sweep(monkeypatch, hide_first)

    def test_agent_left_below_the_beacon_raises(self, monkeypatch):
        def plant(state, d_right):
            first = state._blocks[0]
            if state.t == 1:  # a key two units below the beacon
                first.insert(0, first[0] - 2 * state.n_agents)
            return d_right

        with pytest.raises(InvariantViolationError, match=r"outside \(beacon-1, beacon\]"):
            self.forged_sweep(monkeypatch, plant)

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


def reference_absorbed_walks(rng, eps, trials, lower, upper):
    """Reference for `sim1d._absorbed_walks`: the plain int64 lockstep kernel,
    stepping with ``np.where`` and keeping every walker's running peak."""
    position = np.zeros(trials, dtype=np.int64)
    peak = np.zeros(trials, dtype=np.int64)
    done_ticks = np.empty(trials, dtype=np.int64)
    done_peak = np.empty(trials, dtype=np.int64)
    filled = hits_upper = tick = 0
    while position.size:
        tick += 1
        position += np.where(rng.random(position.size) < eps, 1, -1)
        np.maximum(peak, position, out=peak)
        hit = position == lower
        if upper is not None:
            at_upper = position == upper
            hits_upper += int(at_upper.sum())
            hit |= at_upper
        if hit.any():
            n_hit = int(hit.sum())
            done_ticks[filled : filled + n_hit] = tick
            done_peak[filled : filled + n_hit] = peak[hit]
            filled += n_hit
            position = position[~hit]
            peak = peak[~hit]
    return done_ticks, done_peak, hits_upper


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

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.25, 0.45])
    @pytest.mark.parametrize("lower,upper", [
        (-1, None), (-3, None), (-1, 1), (-10, 1), (-50, 1),
        (-128, 127), (-129, 2), (-200, 1), (-2, 300),
    ])
    def test_absorbed_walks_match_reference(self, eps, lower, upper):
        # int8 holds [-128, 127] but not -129 or -200; int16 holds the rest
        new_rng, ref_rng = (np.random.Generator(np.random.PCG64(41)) for _ in range(2))
        ticks, peaks, hits = sim1d._absorbed_walks(new_rng, eps, 2_000, lower, upper)
        ref_ticks, ref_peaks, ref_hits = reference_absorbed_walks(
            ref_rng, eps, 2_000, lower, upper)
        assert np.array_equal(ticks, ref_ticks)
        assert hits == ref_hits and type(hits) is int
        if upper is None:
            assert np.array_equal(peaks, ref_peaks)
        else:
            assert peaks is None
        assert new_rng.random() == ref_rng.random()  # the same draws were consumed

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
        expect = reflected_chain_mean_series(p)
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
        # burn-in ends 44 draws before the end of the first block; sampling
        # crosses into the second
        assert_chain_matches_scalar(0.4, 77, sim1d._CHAIN_BLOCK - 44, 5_003, 7)

    def test_reflected_chain_over_several_blocks(self):
        # burn-in fills the first block and a seventh of the second; the
        # samples cover 2.25 blocks more, in 13 windows of about 0.17 blocks,
        # so windows 4 and 10 straddle the ends of the second and third blocks
        block = sim1d._CHAIN_BLOCK
        assert_chain_matches_scalar(0.3, 5, block + block // 7, 2 * block + block // 4 + 1, 13)


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
