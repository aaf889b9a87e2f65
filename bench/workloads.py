"""The benchmark's workloads: inputs from a seed, one repetition, output checks.

A workload's `run` makes one repetition through the public entry points
of `lineswarm` and returns an `Outcome`; `check` reads the outcome and
returns one message per failed check (an empty list when the output is
right).  Module attributes are looked up at call time, so the spans that
`spans.Tracer` wraps around them apply to these calls too.

Why these four:

* ``sweep`` -- hundreds of short independent gathering trials, where
  per-trial set-up and the small-N pre-gathering tick dominate.
* ``stationary`` -- one long post-gathering chain per kind plus the walk
  simulators, with almost no per-trial set-up.
* ``wide`` -- one gathering at N = 10^5 through the CLI, where the O(N)
  tick and the O(N) centroid of every trajectory row dominate.
* ``planar`` -- the only workload that touches `sim2d`; hull building
  dominates and `sim1d` is idle.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lineswarm import cli, experiments
from lineswarm.experiments import ExperimentSpec

EPSILON = 0.1

# Two-sided 3-SE tests alarm on about 0.5% of seeds; the benchmark runs on
# arbitrary seeds, so the drift-law test uses 4 SE (about 1e-4 per seed).
DRIFT_Z = 4.0
SPAN_TAIL_Z = 3.0
CHAIN_TV_MAX = 0.01

WIDE_N = 100_000
WIDE_GRID = 2**-20  # dyadic inputs keep every unit jump exact
WIDE_CELLS = int(3.5 / WIDE_GRID)
WIDE_STRIDE = 100

PLANAR_N = 2000
PLANAR_STEPS = 100


@dataclass
class Outcome:
    """What one repetition produced: swarm ticks, files written, and the
    value that `check` reads."""

    ticks: int
    files: list[Path]
    value: object


class FirstTick(BaseException):
    """Raised where simulation starts, to end a set-up probe.

    Derives from BaseException so that the CLI's error boundary, which
    catches `Exception`, lets it through.
    """


def stop_at_first_tick(workload) -> None:
    """Make the workload's simulation entry point raise `FirstTick`."""

    def stop(*args, **kwargs):
        raise FirstTick

    module, attr = workload.first_tick
    setattr(module, attr, stop)


@contextlib.contextmanager
def capture(module, attr):
    """Temporarily wrap ``module.attr`` to keep the values it returns."""
    original = getattr(module, attr)
    got: list = []

    def keep(*args, **kwargs):
        value = original(*args, **kwargs)
        got.append(value)
        return value

    setattr(module, attr, keep)
    try:
        yield got
    finally:
        setattr(module, attr, original)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def _write(result, out: Path, stem: str) -> list[Path]:
    return [
        experiments.write_results(result, fmt, out / f"{stem}.{fmt}")
        for fmt in ("csv", "jsonl")
    ]


def _run_cli(argv: list[str], attr: str):
    with capture(cli, attr) as got, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    return code, (got[0] if got else None)


def two_walk_tail(eps: float, k: int) -> float:
    """``P(X + Y >= k)`` for two stationary reflected walks, k >= 2."""
    r = eps / (1.0 - eps)
    return r ** (k - 2) * ((k - 2) * (1.0 - 2.0 * eps) / (1.0 - eps) + 1.0)


# -- sweep ---------------------------------------------------------------------


class Sweep:
    name = "sweep"
    first_tick = (experiments, "run_until_gathered")
    agent_counts = (25, 50, 100, 200)
    trials = 100

    @classmethod
    def inputs(cls, seed: int) -> ExperimentSpec:
        return ExperimentSpec(
            kind="convergence-vs-N", epsilons=(EPSILON,), agent_counts=cls.agent_counts,
            initial_spans=(100.0,), trials=cls.trials, seed=_seeds(seed, 1)[0],
            max_steps=10_000_000, jobs=1,
        )

    @staticmethod
    def run(spec: ExperimentSpec, out: Path) -> Outcome:
        result = experiments.run_experiment(spec)
        files = _write(result, out, "results")
        return Outcome(sum(sum(p.times) for p in result.points), files, result)

    @classmethod
    def check(cls, spec: ExperimentSpec, result) -> list[str]:
        points = result.points or []
        if [p.n_agents for p in points] != list(cls.agent_counts):
            return [f"sweep: grid {[p.n_agents for p in points]}"]
        fails = []
        for p in points:
            if len(p.times) != cls.trials or not all(p.reached):
                fails.append(f"sweep N={p.n_agents}: {p.reached.count(False)} trials hit max_steps")
                continue
            mean_t = math.fsum(p.times) / len(p.times)
            mean_bound = math.fsum(p.bounds) / len(p.bounds)
            if not mean_t <= mean_bound:
                fails.append(f"sweep N={p.n_agents}: mean T {mean_t} > mean bound {mean_bound}")
        return fails


# -- stationary ------------------------------------------------------------------


class Stationary:
    name = "stationary"
    first_tick = (experiments, "run_until_gathered")

    @staticmethod
    def inputs(seed: int) -> tuple[ExperimentSpec, ...]:
        s_span, s_drift, s_walk = _seeds(seed, 3)
        return (
            ExperimentSpec(
                kind="span-distribution", epsilons=(EPSILON,), agent_counts=(50,),
                initial_spans=(5.0,), trials=2, seed=s_span, warmup=2_000,
                samples=30_000, stride=10, batches=100,
            ),
            ExperimentSpec(
                kind="centroid-drift", epsilons=(EPSILON,), agent_counts=(21,),
                initial_spans=(2.0,), trials=2, seed=s_drift, warmup=1_000,
                horizon=200_000,
            ),
            ExperimentSpec(
                kind="walk-validation", epsilons=(0.1, 0.25), trials=100_000,
                seed=s_walk, warmup=10_000, samples=1_000_000,
            ),
        )

    @staticmethod
    def run(specs: tuple[ExperimentSpec, ...], out: Path) -> Outcome:
        results, files = [], []
        for spec in specs:
            result = experiments.run_experiment(spec)
            files += _write(result, out, spec.kind)
            results.append(result)
        span, drift, _ = specs
        # post-gathering ticks; the few gathering ticks are not in the results
        ticks = span.warmup + span.samples * span.stride + drift.warmup + drift.horizon
        return Outcome(ticks, files, results)

    @staticmethod
    def check(specs, results) -> list[str]:
        span, drift, walk = results
        fails = []
        eps = span.spec.epsilons[0]
        for row in span.span_rows or []:
            if row.k >= 2:
                limit = two_walk_tail(eps, row.k) + SPAN_TAIL_Z * row.batch_stderr
                if not row.empirical_p <= limit:
                    fails.append(f"span tail k={row.k}: {row.empirical_p} > {limit}")
        if not span.span_rows:
            fails.append("span tail: no rows")

        d = drift.drift
        move = d.epsilon * (1.0 - d.epsilon)
        for label, freq, expect, se in (
            ("+2/N", d.freq_plus, move, d.stderr_plus),
            ("0", d.freq_zero, 1.0 - 2.0 * move, d.stderr_zero),
            ("-2/N", d.freq_minus, move, d.stderr_minus),
        ):
            if not abs(freq - expect) <= DRIFT_Z * se:
                fails.append(f"centroid increment {label}: {freq} vs {expect} +- {DRIFT_Z * se}")

        tvs = [r for r in walk.summary_rows if r.kind == "walk-validation:chain-tv"]
        if len(tvs) != len(walk.spec.epsilons):
            fails.append(f"chain TV: {len(tvs)} rows")
        fails += [f"chain TV eps={r.epsilon}: {r.mean}" for r in tvs if not r.mean < CHAIN_TV_MAX]
        return fails


# -- wide ------------------------------------------------------------------------


@dataclass(frozen=True)
class WideInputs:
    seed: int
    text: str  # the --positions argument
    fractions: tuple[float, ...]  # sorted fractional parts of the inputs


class Wide:
    name = "wide"
    first_tick = (cli, "run_until_gathered")

    @staticmethod
    def inputs(seed: int) -> WideInputs:
        s_pos, s_dyn = _seeds(seed, 2)
        cells = np.random.default_rng(s_pos).integers(0, WIDE_CELLS, WIDE_N)
        positions = (cells * WIDE_GRID).tolist()
        fractions = tuple(sorted(x - math.floor(x) for x in positions))
        return WideInputs(s_dyn, ",".join(map(repr, positions)), fractions)

    @staticmethod
    def run(inp: WideInputs, out: Path) -> Outcome:
        code, result = _run_cli(
            ["sim1d", "--positions", inp.text, "--epsilon", str(EPSILON),
             "--seed", str(inp.seed), "--stride", str(WIDE_STRIDE), "--out", str(out)],
            "run_until_gathered",
        )
        ticks = result.T if result is not None else 0
        return Outcome(ticks, [out / "trajectory.csv"], (code, result))

    @staticmethod
    def check(inp: WideInputs, value) -> list[str]:
        code, result = value
        if code != 0 or result is None:
            return [f"wide: exit code {code}"]
        if not result.reached:
            return [f"wide: not gathered after {result.T} ticks"]
        final = result.final_state
        fails = []
        if not final.core_span <= 1.0:
            fails.append(f"wide: final core span {final.core_span}")
        if tuple(sorted(x - math.floor(x) for x in final.positions)) != inp.fractions:
            fails.append("wide: fractional parts changed")
        return fails


# -- planar ----------------------------------------------------------------------


class Planar:
    name = "planar"
    first_tick = (cli, "run2d")

    @staticmethod
    def inputs(seed: int) -> list[str]:
        return ["sim2d", "--n", str(PLANAR_N), "--side", "30", "--epsilon", str(EPSILON),
                "--seed", str(_seeds(seed, 1)[0]), "--steps", str(PLANAR_STEPS),
                "--stride", "1"]

    @staticmethod
    def run(argv: list[str], out: Path) -> Outcome:
        code, rows = _run_cli(argv + ["--out", str(out)], "run2d")
        return Outcome(PLANAR_STEPS, [out / "trajectory2d.csv"], (code, rows))

    @staticmethod
    def check(argv, value) -> list[str]:
        code, rows = value
        if code != 0 or not rows:
            return [f"planar: exit code {code}"]
        if len(rows) != PLANAR_STEPS + 1:
            return [f"planar: {len(rows)} rows"]
        if not rows[-1].diameter < rows[0].diameter:
            return [f"planar: diameter {rows[0].diameter} -> {rows[-1].diameter}"]
        return []


WORKLOADS = {w.name: w for w in (Sweep, Stationary, Wide, Planar)}
