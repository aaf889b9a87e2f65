"""Spans around `lineswarm` layer boundaries, and the per-layer metrics.

`Tracer.install` replaces module attributes with wrappers that record a
span per call: ``(id, name, tag, start, end, parent, run)``, where
``parent`` is the enclosing span and ``run`` the repetition.  Spans stay
in memory; `Tracer.layer_metrics` reduces one repetition's spans and
counters to the `PER_LAYER` metrics.

Wrap points: every function `experiments` imports from `sim1d`,
`rw_analytics` and `seeding`, plus `experiments.batch_mean_stderr`;
`cli.run_until_gathered`, `run2d`, `run_experiment` and `write_results`
(and the trajectory sink the CLI hands to the first two) and `new_swarm`,
so that state construction shows on the CLI workloads; `sim2d.step2d`,
`convex_hull`, `orientation` (counted only: it runs about 10^4 times a
tick) and `hull_diameter`; and the benchmark's own entry calls
`experiments.run_experiment`, `experiments.write_results` and `cli.main`.
A span is named after the module that defines the function, so a call
through `cli` and one through `experiments` share a name.
"""

from __future__ import annotations

import inspect
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from lineswarm import cli, experiments, rw_analytics, seeding, sim1d, sim2d

# name, unit, better; also listed under "per_layer" in BENCHMARK.json
PER_LAYER = (
    ("sim1d.run_until_gathered.calls", "count", "lower"),
    ("sim1d.run_until_gathered.ticks", "count", "lower"),
    ("sim1d.run_until_gathered.ticks_per_s", "1/s", "higher"),
    ("sim1d.run_until_gathered.p50_ms", "ms", "lower"),
    ("sim1d.run_until_gathered.p95_ms", "ms", "lower"),
    ("sim1d.post_gather.ticks", "count", "lower"),
    ("sim1d.post_gather.ticks_per_s", "1/s", "higher"),
    ("sim1d.new_swarm.s", "s", "lower"),
    ("sim1d.invariant_checks", "count", "higher"),
    ("sim1d.simulate_walk_first_passage.s", "s", "lower"),
    ("sim1d.simulate_two_barrier_hits.s", "s", "lower"),
    ("sim1d.simulate_reflected_chain.samples_per_s", "1/s", "higher"),
    ("rw_analytics.gathering_time_bound.calls", "count", "lower"),
    ("rw_analytics.gathering_time_bound.s", "s", "lower"),
    ("rw_analytics.finite_chain_oracle.s", "s", "lower"),
    ("rw_analytics.tail_bounds.s", "s", "lower"),
    ("seeding.child_seed.calls", "count", "lower"),
    ("seeding.child_seed.s", "s", "lower"),
    ("experiments.run_experiment.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.batch_mean_stderr.s", "s", "lower"),
    ("experiments.write_results.s", "s", "lower"),
    ("experiments.write_results.bytes", "B", "lower"),
    ("sim2d.step2d.calls", "count", "lower"),
    ("sim2d.step2d.self_s", "s", "lower"),
    ("sim2d.convex_hull.calls", "count", "lower"),
    ("sim2d.convex_hull.s", "s", "lower"),
    ("sim2d.convex_hull.mean_ms", "ms", "lower"),
    ("sim2d.hull_builds_per_tick", "1/tick", "lower"),
    ("sim2d.orientation.calls", "count", "lower"),
    ("sim2d.hull_vertices.mean", "count", "lower"),
    ("sim2d.hull_diameter.s", "s", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.rows_written", "count", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# the closed forms for the stationary law and the span tail
_TAIL_BOUNDS = ("rw_analytics.tail_prob_sum", "rw_analytics.markov_span_bound",
                "rw_analytics.stationary_pi")
_POST_GATHER_KINDS = ("span-distribution", "centroid-drift")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory spans and counters for the repetitions of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.states: list[tuple] = []  # (state, t when gathering returned)
        self.run = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._rep_start = 0
        self._undo: list[tuple] = []
        self._call_counts: dict[str, list[int]] = {}

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, tag=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, tag, start, end, parent, self.run))

    def wrap_callable(self, name: str, fn):
        return lambda *args, **kwargs: self.call(name, fn, args, kwargs)

    def wrap(self, module, attr: str, observe=None) -> None:
        """Record a span per call of ``module.attr``.

        ``observe(tracer, args, kwargs)`` runs before the call and returns
        ``(tag, after)``; ``after(result)`` runs on return when not None.
        """
        original = getattr(module, attr)
        name = span_name(original)

        def traced(*args, **kwargs):
            tag, after = observe(self, args, kwargs) if observe else (None, None)
            result = self.call(name, original, args, kwargs, tag)
            if after is not None:
                after(result)
            return result

        self._patch(module, attr, traced)

    def count_calls(self, module, attr: str) -> None:
        """Count calls of ``module.attr`` (positional arguments only), without spans."""
        original = getattr(module, attr)
        cell = self._call_counts[span_name(original) + ".calls"] = [0]

        def counted(*args):
            cell[0] += 1
            return original(*args)

        self._patch(module, attr, counted)

    def _patch(self, module, attr, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        for attr, obj in sorted(vars(experiments).items()):
            if inspect.isfunction(obj) and obj.__module__ in _LAYER_MODULES:
                self.wrap(experiments, attr, _OBSERVERS.get(attr))
        self.wrap(experiments, "batch_mean_stderr")
        self.wrap(experiments, "run_experiment", _experiment)
        self.wrap(experiments, "write_results", _written)
        self.wrap(cli, "run_until_gathered", _cli_gathering)
        self.wrap(cli, "run2d", _cli_run2d)
        self.wrap(cli, "run_experiment", _experiment)
        self.wrap(cli, "write_results", _written)
        self.wrap(cli, "main", _cli_main)
        self.wrap(cli, "new_swarm")
        self.wrap(sim2d, "step2d")
        self.wrap(sim2d, "convex_hull", _hull)
        self.wrap(sim2d, "hull_diameter")
        self.count_calls(sim2d, "orientation")

    def restore(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- reduction ----------------------------------------------------------------

    def begin_rep(self, run: int) -> None:
        self.run = run
        self._rep_start = len(self.spans)
        self.counts.clear()
        self.states.clear()
        for cell in self._call_counts.values():
            cell[0] = 0

    def layer_metrics(self) -> dict[str, float]:
        """The `PER_LAYER` metrics of the current repetition (trace overhead aside)."""
        spans = self.spans[self._rep_start:]
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        post_gather_own = 0.0
        gather_ms = []
        for sid, name, tag, start, end, _, _ in spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[sid]
            if tag in _POST_GATHER_KINDS:
                post_gather_own += end - start - child_time[sid]
            if name == "sim1d.run_until_gathered":
                gather_ms.append((end - start) * 1e3)

        c = self.counts + Counter({k: cell[0] for k, cell in self._call_counts.items()})
        post_ticks = sum(state.t - t_gathered for state, t_gathered in self.states)
        hulls = calls["sim2d.convex_hull"]
        steps = calls["sim2d.step2d"]
        rug = "sim1d.run_until_gathered"
        return {
            f"{rug}.calls": calls[rug],
            f"{rug}.ticks": c[f"{rug}.ticks"],
            f"{rug}.ticks_per_s": _ratio(c[f"{rug}.ticks"], own[rug]),
            f"{rug}.p50_ms": _quantile(gather_ms, 50),
            f"{rug}.p95_ms": _quantile(gather_ms, 95),
            "sim1d.post_gather.ticks": post_ticks,
            "sim1d.post_gather.ticks_per_s": _ratio(post_ticks, post_gather_own),
            "sim1d.new_swarm.s": total["sim1d.new_swarm"],
            "sim1d.invariant_checks": sum(state.invariant_checks for state, _ in self.states),
            "sim1d.simulate_walk_first_passage.s": total["sim1d.simulate_walk_first_passage"],
            "sim1d.simulate_two_barrier_hits.s": total["sim1d.simulate_two_barrier_hits"],
            "sim1d.simulate_reflected_chain.samples_per_s": _ratio(
                c["chain_steps"], total["sim1d.simulate_reflected_chain"]),
            "rw_analytics.gathering_time_bound.calls": calls["rw_analytics.gathering_time_bound"],
            "rw_analytics.gathering_time_bound.s": total["rw_analytics.gathering_time_bound"],
            "rw_analytics.finite_chain_oracle.s": total["rw_analytics.finite_chain_oracle"],
            "rw_analytics.tail_bounds.s": sum(total[n] for n in _TAIL_BOUNDS),
            "seeding.child_seed.calls": calls["seeding.child_seed"],
            "seeding.child_seed.s": total["seeding.child_seed"],
            "experiments.run_experiment.s": total["experiments.run_experiment"],
            "experiments.self_s": own["experiments.run_experiment"],
            "experiments.batch_mean_stderr.s": total["experiments.batch_mean_stderr"],
            "experiments.write_results.s": total["experiments.write_results"],
            "experiments.write_results.bytes": c["experiments.write_results.bytes"],
            "sim2d.step2d.calls": steps,
            "sim2d.step2d.self_s": own["sim2d.step2d"],
            "sim2d.convex_hull.calls": hulls,
            "sim2d.convex_hull.s": total["sim2d.convex_hull"],
            "sim2d.convex_hull.mean_ms": _ratio(total["sim2d.convex_hull"] * 1e3, hulls),
            "sim2d.hull_builds_per_tick": _ratio(hulls, steps),
            "sim2d.orientation.calls": c["sim2d.orientation.calls"],
            "sim2d.hull_vertices.mean": _ratio(c["sim2d.hull_vertices"], hulls),
            "sim2d.hull_diameter.s": total["sim2d.hull_diameter"],
            "cli.main.s": total["cli.main"],
            # the trajectory sink formats and writes rows inside the simulation call
            "cli.self_s": own["cli.main"] + total["cli.sink"],
            "cli.rows_written": calls["cli.sink"],
            "cli.bytes_written": c["cli.bytes_written"],
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- observers: what each wrap point adds to the counters ---------------------------

_LAYER_MODULES = {m.__name__ for m in (sim1d, rw_analytics, seeding)}
_CHAIN_ARGS = inspect.signature(sim1d.simulate_reflected_chain)


def _gathering(tracer, args, kwargs):
    state = args[0]
    t_start = state.t

    def after(result):
        tracer.counts["sim1d.run_until_gathered.ticks"] += result.T - t_start
        tracer.states.append((state, result.T))

    return None, after


def _chain(tracer, args, kwargs):
    bound = _CHAIN_ARGS.bind(*args, **kwargs).arguments
    tracer.counts["chain_steps"] += bound["burn_in"] + bound["samples"]
    return None, None


def _experiment(tracer, args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.kind, None


def _written(tracer, args, kwargs):
    def after(path):
        tracer.counts["experiments.write_results.bytes"] += Path(path).stat().st_size

    return None, after


def _wrap_sink(tracer, kwargs) -> None:
    if kwargs.get("sink") is not None:
        kwargs["sink"] = tracer.wrap_callable("cli.sink", kwargs["sink"])


def _cli_gathering(tracer, args, kwargs):
    _wrap_sink(tracer, kwargs)
    return _gathering(tracer, args, kwargs)


def _cli_run2d(tracer, args, kwargs):
    _wrap_sink(tracer, kwargs)
    return None, None


def _cli_main(tracer, args, kwargs):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None

    def after(code):
        if out is not None and out.is_dir():
            tracer.counts["cli.bytes_written"] += sum(
                f.stat().st_size for f in out.iterdir() if f.is_file())

    return None, after


def _hull(tracer, args, kwargs):
    def after(hull):
        tracer.counts["sim2d.hull_vertices"] += len(hull.vertices)

    return None, after


_OBSERVERS = {"run_until_gathered": _gathering, "simulate_reflected_chain": _chain}
