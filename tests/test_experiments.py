"""Harness behaviour: aggregation, schemas, determinism, statistics."""

import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from lineswarm import experiments
from lineswarm.errors import ValidationError
from lineswarm.experiments import (
    SPAN_COLUMNS,
    SUMMARY_COLUMNS,
    DriftStats,
    ExperimentSpec,
    ExperimentResult,
    SummaryRow,
    batch_mean_stderr,
    run_centroid_drift,
    run_convergence_sweep,
    run_experiment,
    run_span_distribution,
    run_walk_validation,
    write_results,
)


def small_sweep_spec(**overrides):
    base = dict(
        kind="convergence-vs-epsilon",
        epsilons=(0.05, 0.15),
        agent_counts=(12,),
        initial_spans=(8.0,),
        trials=10,
        seed=77,
        max_steps=1_000_000,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(kind="convergence")

    def test_rejects_single_trial(self):
        with pytest.raises(ValidationError):
            small_sweep_spec(trials=1)

    def test_rejects_small_n_for_gathering(self):
        with pytest.raises(ValidationError):
            small_sweep_spec(agent_counts=(3,))

    def test_rejects_epsilon_out_of_domain(self):
        with pytest.raises(ValidationError):
            small_sweep_spec(epsilons=(0.5,))

    def test_distribution_kinds_take_single_point(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(
                kind="span-distribution", epsilons=(0.1, 0.2),
                agent_counts=(10,), initial_spans=(2.0,),
            )

    def test_drift_needs_positive_epsilon(self):
        with pytest.raises(ValidationError):
            ExperimentSpec(
                kind="centroid-drift", epsilons=(0.0,),
                agent_counts=(10,), initial_spans=(2.0,),
            )

    def test_dict_round_trip(self):
        spec = small_sweep_spec()
        # through JSON, as the manifest stores it: tuples come back as lists
        again = ExperimentSpec.from_dict(json.loads(json.dumps(asdict(spec))))
        assert again == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError):
            ExperimentSpec.from_dict({"kind": "walk-validation", "bogus": 1})

    def test_from_dict_accepts_scalars_for_grids(self):
        spec = ExperimentSpec.from_dict(
            {"kind": "convergence-vs-N", "epsilons": 0.1, "agent_counts": 10,
             "initial_spans": 4.0, "trials": 2}
        )
        assert spec.agent_counts == (10,)


class TestBatchMeans:
    def test_iid_matches_naive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10_000)
        se = batch_mean_stderr(x, 100)
        naive = x.std(ddof=1) / math.sqrt(x.size)
        assert se == pytest.approx(naive, rel=0.35)

    def test_requires_enough_batches(self):
        with pytest.raises(ValidationError):
            batch_mean_stderr(np.arange(10.0), 1)
        with pytest.raises(ValidationError):
            batch_mean_stderr(np.arange(3.0), 4)


class TestConvergenceSweep:
    def test_sweep_aggregates_and_bounds(self):
        res = run_convergence_sweep(small_sweep_spec())
        assert len(res.summary_rows) == 2
        for row, point in zip(res.summary_rows, res.points):
            assert row.trials == 10
            assert row.stderr == pytest.approx(
                row.stddev / math.sqrt(row.trials), rel=1e-12
            )
            assert row.mean <= row.bound  # the hard mean-level comparison
            assert row.ratio == pytest.approx(row.bound / row.mean, rel=1e-12)
            assert all(point.reached)
            # expectation-level bounds held path-wise too on these seeds
            assert point.violations == 0

    def test_mean_time_increases_with_epsilon(self):
        spec = small_sweep_spec(
            epsilons=(0.05, 0.3), agent_counts=(30,), initial_spans=(30.0,), trials=12
        )
        res = run_convergence_sweep(spec)
        t_low, t_high = (row.mean for row in res.summary_rows)
        assert t_high > t_low

    def test_hyperbolic_shape_in_epsilon(self):
        # T * (1 - 2 eps) should be roughly flat across the sweep
        spec = small_sweep_spec(
            epsilons=(0.05, 0.1, 0.2, 0.3),
            agent_counts=(40,),
            initial_spans=(40.0,),
            trials=25,
            seed=5,
        )
        res = run_convergence_sweep(spec)
        scaled = [row.mean * (1.0 - 2.0 * row.epsilon) for row in res.summary_rows]
        mid = np.mean(scaled)
        assert all(abs(s - mid) / mid < 0.30 for s in scaled)

    def test_incomplete_point_has_empty_stats(self):
        spec = small_sweep_spec(epsilons=(0.3,), max_steps=5, trials=4)
        res = run_convergence_sweep(spec)
        row = res.summary_rows[0]
        assert res.points[0].incomplete
        assert row.mean is None and row.bound is None

    def test_parallel_equals_serial(self):
        serial = run_convergence_sweep(small_sweep_spec(trials=6))
        parallel = run_convergence_sweep(small_sweep_spec(trials=6, jobs=2))
        assert serial.summary_rows == parallel.summary_rows
        assert serial.points == parallel.points

    def test_pool_workers_capped(self, monkeypatch):
        # a stand-in pool that records its size and maps in-process, so no
        # real pool is started with a huge jobs value
        built = []

        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        serial = run_convergence_sweep(small_sweep_spec(trials=6))
        capped = run_convergence_sweep(small_sweep_spec(trials=6, jobs=10**6))
        assert all(w <= (os.cpu_count() or 1) for w in built)
        assert capped.summary_rows == serial.summary_rows
        assert capped.points == serial.points
        built.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        one_cpu = run_convergence_sweep(small_sweep_spec(trials=6, jobs=10**6))
        assert built == []
        assert one_cpu.points == serial.points

    def test_stderr_shrinks_like_inverse_sqrt_trials(self):
        # quadrupling trials should roughly halve the standard error
        spec_small = small_sweep_spec(epsilons=(0.1,), trials=40, seed=13)
        spec_large = small_sweep_spec(epsilons=(0.1,), trials=160, seed=13)
        se_small = run_convergence_sweep(spec_small).summary_rows[0].stderr
        se_large = run_convergence_sweep(spec_large).summary_rows[0].stderr
        assert se_small / se_large == pytest.approx(2.0, rel=0.20)


@pytest.fixture(scope="module")
def span_result():
    spec = ExperimentSpec(
        kind="span-distribution", epsilons=(0.1,), agent_counts=(20,),
        initial_spans=(3.0,), trials=2, seed=3, warmup=1000,
        samples=600_000, stride=5, batches=100,
    )
    return run_span_distribution(spec)


class TestSpanDistribution:
    @pytest.fixture
    def result(self, span_result):
        return span_result

    def test_tail_rows_structure(self, result):
        rows = result.span_rows
        assert rows[0].k == 0 and rows[0].empirical_p == 1.0
        ks = [r.k for r in rows]
        assert ks == list(range(len(rows)))
        # CCDF non-increasing, counts consistent with it
        emp = [r.empirical_p for r in rows]
        assert all(b <= a for a, b in zip(emp, emp[1:]))

    def test_bound_dominates_empirical_tail(self, result):
        for r in result.span_rows:
            if r.k >= 2:
                assert r.empirical_p <= r.bound_p + 3 * r.batch_stderr
            if r.k >= 3:
                assert r.markov_p >= r.bound_p  # crude bound is weaker from k=3

    def test_slope_matches_geometric_decay(self, result):
        assert result.slope is not None
        expected = result.slope_expected
        assert abs(result.slope - expected) <= 0.20 * abs(expected)

    def test_rejects_if_gathering_impossible(self):
        spec = ExperimentSpec(
            kind="span-distribution", epsilons=(0.1,), agent_counts=(20,),
            initial_spans=(50.0,), trials=2, seed=3, warmup=10,
            samples=100, stride=1, batches=2, max_steps=10,
        )
        with pytest.raises(RuntimeError, match="not gathered"):
            run_span_distribution(spec)

    def test_rerun_byte_identical(self, tmp_path):
        spec = ExperimentSpec(
            kind="span-distribution", epsilons=(0.15,), agent_counts=(8,),
            initial_spans=(2.0,), trials=2, seed=70, warmup=200,
            samples=10_000, stride=2, batches=50,
        )
        a = write_results(run_span_distribution(spec), "jsonl", tmp_path / "a.jsonl")
        b = write_results(run_span_distribution(spec), "jsonl", tmp_path / "b.jsonl")
        assert a.read_bytes() == b.read_bytes()


def per_tick_drift(spec):
    """Per-tick reference for `run_centroid_drift`: one ``advance(1)`` call
    per tick, each increment classified from the returned directions."""
    state, p = experiments._gather_for_sampling(spec)
    n = state.n_agents
    ticks = spec.horizon
    up = down = 0
    for _ in range(ticks):
        d_left, d_right = state.advance(1)
        s = d_left + d_right
        if s == 2:
            up += 1
        elif s == -2:
            down += 1
    zero = ticks - up - down
    eps = p.epsilon
    p_move = eps * (1.0 - eps)
    freqs = (up / ticks, zero / ticks, down / ticks)
    ses = tuple(math.sqrt(f * (1.0 - f) / ticks) for f in freqs)
    msd = (up + down) / ticks * (4.0 / n**2)
    return DriftStats(eps, n, ticks, *freqs, *ses, msd, 8.0 * p_move / n**2)


class TestCentroidDrift:
    def test_increment_law(self):
        spec = ExperimentSpec(
            kind="centroid-drift", epsilons=(0.2,), agent_counts=(11,),
            initial_spans=(2.0,), trials=2, seed=21, warmup=500, horizon=200_000,
        )
        res = run_centroid_drift(spec)
        d = res.drift
        p_move = 0.2 * 0.8
        assert abs(d.freq_plus - p_move) <= 3 * d.stderr_plus
        assert abs(d.freq_minus - p_move) <= 3 * d.stderr_minus
        assert abs(d.freq_zero - (1 - 2 * p_move)) <= 3 * d.stderr_zero
        assert d.msd_per_tick == pytest.approx(d.msd_expected, rel=0.05)
        assert len(res.summary_rows) == 4

    @pytest.mark.parametrize("eps,n,horizon,seed", [
        (0.2, 4, 30_000, 5), (0.1, 21, 50_000, 6), (0.45, 5, 20_000, 7), (0.01, 6, 20_000, 8),
    ])
    def test_equals_per_tick_reference(self, eps, n, horizon, seed):
        spec = ExperimentSpec(
            kind="centroid-drift", epsilons=(eps,), agent_counts=(n,),
            initial_spans=(2.0,), trials=2, seed=seed, warmup=300, horizon=horizon,
        )
        assert run_centroid_drift(spec).drift == per_tick_drift(spec)

    def test_inertia_scales_with_population_squared(self):
        # same epsilon and horizon: diffusion per tick falls as 1/N^2
        def msd(n, seed):
            spec = ExperimentSpec(
                kind="centroid-drift", epsilons=(0.1,), agent_counts=(n,),
                initial_spans=(2.0,), trials=2, seed=seed, warmup=200,
                horizon=400_000,
            )
            return run_centroid_drift(spec).drift.msd_per_tick

        ratio = msd(200, 31) / msd(1000, 32)
        assert ratio == pytest.approx(25.0, rel=0.30)


@pytest.fixture(scope="module")
def walk_result():
    spec = ExperimentSpec(
        kind="walk-validation", epsilons=(0.1,), trials=50_000,
        seed=11, warmup=5_000, samples=200_000,
    )
    return run_walk_validation(spec)


class TestWalkValidation:
    @pytest.fixture
    def result(self, walk_result):
        return walk_result

    def _row(self, result, kind):
        return next(r for r in result.summary_rows if r.kind == kind)

    def test_first_passage_row(self, result):
        row = self._row(result, "walk-validation:first-passage")
        assert abs(row.mean - row.bound) <= 3 * row.stderr
        assert row.bound == pytest.approx(1.25)

    def test_excursion_bounded(self, result):
        row = self._row(result, "walk-validation:excursion")
        assert row.mean <= row.bound + 3 * row.stderr

    def test_barrier_rows_match_oracle(self, result):
        for m in (10, 50):
            row = self._row(result, f"walk-validation:hit-upper:M={m}")
            assert abs(row.mean - row.bound) <= 3 * row.stderr
            # far restraining barrier: oracle close to the infinite-line value
            assert row.bound == pytest.approx(1 / 9, abs=2e-3)

    def test_chain_rows(self, result):
        tv = self._row(result, "walk-validation:chain-tv")
        assert tv.mean < 0.01
        mean_row = self._row(result, "walk-validation:chain-mean")
        assert abs(mean_row.mean - mean_row.bound) <= 3 * mean_row.stderr


class TestWriteResults:
    def test_header_only_for_empty_result(self, tmp_path):
        res = ExperimentResult(spec=small_sweep_spec())
        path = write_results(res, "csv", tmp_path / "empty.csv")
        assert path.read_text(encoding="utf-8") == ",".join(SUMMARY_COLUMNS) + "\n"

    def test_summary_round_trip(self, tmp_path):
        res = run_convergence_sweep(small_sweep_spec(trials=4))
        path = write_results(res, "csv", tmp_path / "out.csv")
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(SUMMARY_COLUMNS)
        for line, row in zip(lines[1:], res.summary_rows):
            cells = line.split(",")
            assert cells[0] == row.kind
            assert float(cells[1]) == row.epsilon
            assert int(cells[4]) == row.trials
            assert float(cells[5]) == row.mean  # 17 digits round-trip exactly
            assert float(cells[9]) == row.ratio

    def test_jsonl_mirrors_csv_fields(self, tmp_path):
        res = run_convergence_sweep(small_sweep_spec(trials=4))
        path = write_results(res, "jsonl", tmp_path / "out.jsonl")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        for line, row in zip(lines, res.summary_rows):
            obj = json.loads(line)
            assert list(obj) == list(SUMMARY_COLUMNS)
            assert obj["mean"] == row.mean
            assert obj["S0"] == row.s0

    def test_span_schema(self, tmp_path):
        spec = ExperimentSpec(
            kind="span-distribution", epsilons=(0.1,), agent_counts=(10,),
            initial_spans=(2.0,), trials=2, seed=5, warmup=200,
            samples=5_000, stride=2, batches=50,
        )
        res = run_span_distribution(spec)
        path = write_results(res, "csv", tmp_path / "span.csv")
        lines = path.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == ",".join(SPAN_COLUMNS)
        # k = 0 and 1 rows carry empty bounds; k = 1 has a markov bound
        first = lines[1].split(",")
        assert first[0] == "0" and first[3] == "" and first[4] == ""
        second = lines[2].split(",")
        assert second[3] == "" and second[4] != ""
        parsed = [json.loads(l) for l in
                  write_results(res, "jsonl", tmp_path / "span.jsonl")
                  .read_text(encoding="utf-8").strip().split("\n")]
        assert [p["k"] for p in parsed] == [r.k for r in res.span_rows]

    def test_byte_identical_reruns(self, tmp_path):
        spec = small_sweep_spec(trials=5)
        a = write_results(run_convergence_sweep(spec), "csv", tmp_path / "a.csv")
        b = write_results(run_convergence_sweep(spec), "csv", tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_unknown_format(self, tmp_path):
        res = ExperimentResult(spec=small_sweep_spec())
        with pytest.raises(ValidationError):
            write_results(res, "parquet", tmp_path / "x")

    def test_io_error_has_path_context(self, tmp_path):
        res = ExperimentResult(spec=small_sweep_spec())
        missing = tmp_path / "nope" / "deep" / "x.csv"
        with pytest.raises(OSError, match="nope"):
            write_results(res, "csv", missing)


class TestDispatch:
    def test_run_experiment_routes_by_kind(self):
        spec = ExperimentSpec(kind="walk-validation", epsilons=(0.0,), trials=100, seed=1)
        res = run_experiment(spec)
        kinds = {r.kind for r in res.summary_rows}
        assert "walk-validation:first-passage" in kinds
        # at eps=0 the chain rows are skipped (excluded domain)
        assert not any("chain" in k for k in kinds)
