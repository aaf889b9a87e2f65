"""Tests of the benchmark itself: output checks trip, spans nest, names agree.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from lineswarm import cli, experiments, sim2d  # noqa: E402
from lineswarm.experiments import ExperimentSpec, GridPointDetail  # noqa: E402
from lineswarm.sim1d import new_swarm, run_until_gathered  # noqa: E402
from lineswarm.sim2d import Trajectory2DRow  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def stationary():
    specs = workloads.Stationary.inputs(SEED)
    return specs, [experiments.run_experiment(spec) for spec in specs]


def _sweep_result(times=(10, 20), bounds=(100.0, 100.0), reached=(True, True)):
    points = [GridPointDetail(0.1, n, 100.0, times, bounds, reached, 0, False)
              for n in workloads.Sweep.agent_counts]
    return experiments.ExperimentResult(ExperimentSpec(kind="convergence-vs-N"), points=points)


def test_sweep_check_trips(monkeypatch):
    monkeypatch.setattr(workloads.Sweep, "trials", 2)
    assert workloads.Sweep.check(None, _sweep_result()) == []
    assert workloads.Sweep.check(None, _sweep_result(reached=(True, False)))
    assert workloads.Sweep.check(None, _sweep_result(times=(150, 60)))
    short = _sweep_result()
    short.points.pop()
    assert workloads.Sweep.check(None, short)


def test_stationary_check_trips(stationary):
    specs, (span, drift, walk) = stationary
    check = workloads.Stationary.check
    assert check(specs, [span, drift, walk]) == []

    rows = list(span.span_rows)
    rows[4] = dataclasses.replace(rows[4], empirical_p=0.9)
    assert check(specs, [dataclasses.replace(span, span_rows=rows), drift, walk])

    skewed = dataclasses.replace(drift.drift, freq_plus=drift.drift.freq_plus + 0.01)
    assert check(specs, [span, dataclasses.replace(drift, drift=skewed), walk])

    walk_rows = [dataclasses.replace(r, mean=0.02) if r.kind.endswith("chain-tv") else r
                 for r in walk.summary_rows]
    assert check(specs, [span, drift, dataclasses.replace(walk, summary_rows=walk_rows)])


def _gathered(positions):
    return run_until_gathered(new_swarm(positions, 0.1, 1), 10_000)


def test_wide_check_trips():
    positions = [0.0, 0.25, 1.5, 2.75, 3.0, 3.125]
    fractions = tuple(sorted(x % 1.0 for x in positions))
    inp = workloads.WideInputs(1, "", fractions)
    assert workloads.Wide.check(inp, (0, _gathered(positions))) == []
    assert workloads.Wide.check(inp, (1, _gathered(positions)))
    moved = positions[:-1] + [3.125 + 2.0**-21]
    assert workloads.Wide.check(inp, (0, _gathered(moved)))
    spread = run_until_gathered(new_swarm(positions, 0.1, 1), 0)
    assert workloads.Wide.check(inp, (0, dataclasses.replace(spread, reached=True)))


def test_planar_check_trips(monkeypatch):
    monkeypatch.setattr(workloads, "PLANAR_STEPS", 2)
    rows = [Trajectory2DRow(t, 0.0, 0.0, d, 3) for t, d in enumerate((4.0, 3.0, 2.0))]
    assert workloads.Planar.check(None, (0, rows)) == []
    assert workloads.Planar.check(None, (2, rows))
    assert workloads.Planar.check(None, (0, rows[:2]))
    grown = rows[:2] + [rows[2]._replace(diameter=4.0)]
    assert workloads.Planar.check(None, (0, grown))


class _Flaky:
    """A workload whose output file changes after the first repetition."""

    calls = 0

    @classmethod
    def run(cls, inputs, out):
        cls.calls += 1
        path = out / "result.txt"
        path.write_text("same" if cls.calls == 1 else "different")
        return workloads.Outcome(1, [path], None)

    @staticmethod
    def check(inputs, value):
        return []


class _Raising(_Flaky):
    @classmethod
    def run(cls, inputs, out):
        raise RuntimeError("boom")


def test_timing_leaves_out_the_warmup():
    reps = [{"wall_s": w, "ref_s": r, "ticks": 10, "traced": t, "warmup": i == 0}
            for i, (w, r, t) in enumerate([(9.0, 9.0, False), (2.0, 0.5, True), (4.0, 0.5, True),
                                           (1.0, 0.25, False), (3.0, 0.75, False)])]
    assert worker.timing(reps, traced=False) == {
        "wall_s": 2.0, "ticks_per_s": 5.0, "wall_ref": 4.0, "ticks_per_ref": 2.5, "ref_s": 0.5}
    assert worker.timing(reps, traced=True) == {
        "wall_s": 3.0, "ticks_per_s": 20 / 6, "wall_ref": 6.0, "ticks_per_ref": 10 / 6,
        "ref_s": 0.5}


def test_host_clock_samples_during_work():
    import signal
    import time

    with worker.HostClock() as clock:
        end = time.perf_counter() + 4 * worker.SAMPLE_PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 2
    assert 0 < clock.ref_s and clock.spent >= sum(clock.samples)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    with worker.HostClock() as idle:
        pass
    assert len(idle.samples) == 1


def test_determinism_and_raises_count_as_failures(tmp_path):
    reps = worker.run_reps(_Flaky, None, 0.0, tmp_path)
    assert len(reps) == worker.MIN_REPS
    assert reps[0]["failures"] == []
    assert all(r["failures"][0].startswith("determinism") for r in reps[1:])
    reps = worker.run_reps(_Raising, None, 0.0, tmp_path)
    assert all(r["failures"] == ["raised RuntimeError('boom')"] for r in reps)


class _Tiny:
    """A small convergence sweep through the public entry point."""

    spec = ExperimentSpec(kind="convergence-vs-N", agent_counts=(5, 8), initial_spans=(3.0,),
                          trials=3, seed=1)

    @classmethod
    def run(cls, inputs, out):
        result = experiments.run_experiment(cls.spec)
        return workloads.Outcome(sum(sum(p.times) for p in result.points), [], result)

    @staticmethod
    def check(inputs, value):
        return []


def test_traced_reps_alternate(tmp_path):
    original = experiments.run_experiment
    reps = worker.run_reps(_Tiny, None, 0.0, tmp_path, spans.Tracer())
    assert [r["traced"] for r in reps] == [False, True, True, False]
    assert [r["warmup"] for r in reps] == [True, False, False, False]
    assert [r["layers"]["sim1d.run_until_gathered.calls"] for r in reps[1:3]] == [6, 6]
    assert "layers" not in reps[0] and "layers" not in reps[3]
    assert experiments.run_experiment is original


@pytest.fixture
def tracer():
    t = spans.Tracer()
    originals = {name: getattr(sim2d, name) for name in ("step2d", "convex_hull", "orientation")}
    t.install()
    yield t
    t.restore()
    assert {name: getattr(sim2d, name) for name in originals} == originals


def test_planar_spans_nest(tracer, tmp_path, capsys):
    tracer.begin_rep(0)
    argv = ["sim2d", "--n", "40", "--side", "10", "--epsilon", "0.1", "--seed", "3",
            "--steps", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    by_id = {s[0]: s for s in tracer.spans}
    parent = {s[0]: (by_id[s[5]][1] if s[5] is not None else None) for s in tracer.spans}
    names = {s[0]: s[1] for s in tracer.spans}
    pairs = {(names[i], parent[i]) for i in names}
    assert ("cli.main", None) in pairs
    assert ("sim2d.run2d", "cli.main") in pairs
    assert ("sim2d.step2d", "sim2d.run2d") in pairs
    assert ("sim2d.convex_hull", "sim2d.step2d") in pairs
    assert ("sim2d.convex_hull", "sim2d.run2d") in pairs
    assert ("cli.sink", "sim2d.run2d") in pairs
    for sid, name, _, start, end, pid, _ in tracer.spans:
        if pid is not None:
            assert by_id[pid][3] <= start <= end <= by_id[pid][4]

    m = tracer.layer_metrics()
    assert m["sim2d.step2d.calls"] == 3
    assert m["sim2d.convex_hull.calls"] == 7  # one per step, one per recorded row
    assert m["sim2d.hull_builds_per_tick"] == 7 / 3
    assert m["sim2d.orientation.calls"] > 0
    assert m["cli.rows_written"] == 4
    assert m["cli.bytes_written"] == (tmp_path / "trajectory2d.csv").stat().st_size
    assert 0 < m["sim2d.step2d.self_s"] < m["cli.main.s"]


def test_experiment_counts(tracer, tmp_path):
    tracer.begin_rep(0)
    result = experiments.run_experiment(_Tiny.spec)
    experiments.write_results(result, "csv", tmp_path / "r.csv")
    m = tracer.layer_metrics()
    ticks = sum(sum(p.times) for p in result.points)
    assert m["sim1d.run_until_gathered.calls"] == 6
    assert m["sim1d.run_until_gathered.ticks"] == ticks == m["sim1d.invariant_checks"]
    assert m["seeding.child_seed.calls"] == 12
    assert m["rw_analytics.gathering_time_bound.calls"] == 6
    assert m["experiments.write_results.bytes"] == (tmp_path / "r.csv").stat().st_size
    assert 0 < m["experiments.self_s"] < m["experiments.run_experiment.s"]
    assert all(s[1] != "experiments.run_experiment" or s[5] is None for s in tracer.spans)


def test_names_agree_with_benchmark_json(tracer):
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in spans.PER_LAYER]
    tracer.begin_rep(0)
    assert set(tracer.layer_metrics()) | {"trace.overhead_s"} == {m[0] for m in spans.PER_LAYER}
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_ref", "ticks_per_ref", "peak_rss_mb"}
