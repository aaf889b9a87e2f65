"""Monte Carlo experiment harness with reproducible, file-backed results.

Six experiment kinds are supported:

* ``convergence-vs-epsilon`` / ``convergence-vs-S0`` / ``convergence-vs-N``:
  gathering-time sweeps over a parameter grid.  Each trial draws ``N``
  positions i.i.d. uniform on ``[0, 1 + S0 + 2]`` (one unit of end gap per
  side), recomputes the realized inner excess and per-trial theoretical
  bound from the sample, and runs the swarm until the core gathers.
  Theorems bound expectations, so individual trials may exceed their
  bound (counted, logged); the hard comparison is mean time <= mean bound.
* ``span-distribution``: after gathering plus a warm-up, samples the
  total span at a fixed stride and reports the empirical tail
  ``P(span >= k)`` per integer ``k`` against the two-walk tail bound and
  the crude Markov bound, with batch-mean standard errors (the chain
  mixes geometrically; consecutive-batch means de-correlate the stream).
* ``centroid-drift``: after gathering, tallies the per-tick centroid
  increments ``{+2/N, 0, -2/N}`` and the mean-square displacement per
  tick.  The increments are classified exactly from the engine's
  turn-back counts (`SwarmState1D.turn_backs`), read before and after one
  `sample_total_spans` sample over the whole horizon.
* ``walk-validation``: single-walker checks of the first-passage mean,
  the farthest-excursion bound, two-barrier absorption against the exact
  finite-chain oracle, and the reflected chain against its stationary law.

Results serialize to CSV and JSON-lines with fixed schemas (UTF-8, LF,
floats at 17 significant digits), and identical specs reproduce byte-
identical files.  Trials derive independent RNG streams from
``(seed, purpose, index)``, so any execution order, including process
pools, yields the same aggregate.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .errors import ValidationError
from .rw_analytics import (
    WalkParams,
    expected_steps_to_minus_one,
    farthest_excursion_bound,
    finite_chain_oracle,
    gathering_time_bound,
    markov_span_bound,
    reflected_chain_mean,
    stationary_pi,
    tail_prob_sum,
)
from .seeding import child_seed
from .sim1d import (
    new_swarm,
    run_until_gathered,
    sample_total_spans,
    simulate_reflected_chain,
    simulate_two_barrier_hits,
    simulate_walk_first_passage,
)

log = logging.getLogger(__name__)

__all__ = [
    "KINDS",
    "CONVERGENCE_KINDS",
    "ExperimentSpec",
    "ExperimentResult",
    "SummaryRow",
    "SpanTailRow",
    "GridPointDetail",
    "DriftStats",
    "batch_mean_stderr",
    "run_convergence_sweep",
    "run_span_distribution",
    "run_centroid_drift",
    "run_walk_validation",
    "run_experiment",
    "uniform_start",
    "write_results",
    "format_cell",
    "row_writer",
    "SUMMARY_COLUMNS",
    "SPAN_COLUMNS",
]

CONVERGENCE_KINDS = (
    "convergence-vs-epsilon",
    "convergence-vs-S0",
    "convergence-vs-N",
)
KINDS = CONVERGENCE_KINDS + ("span-distribution", "centroid-drift", "walk-validation")

END_GAP = 2.0  # two unit end gaps around the nominal inner interval

SUMMARY_COLUMNS = (
    "kind",
    "epsilon",
    "N",
    "S0",
    "trials",
    "mean",
    "stddev",
    "stderr",
    "bound",
    "ratio",
)
SPAN_COLUMNS = ("k", "count", "empirical_p", "bound_p", "markov_p")

_INT_FIELDS = ("trials", "seed", "max_steps", "warmup", "samples", "stride", "batches",
               "horizon", "jobs")
_GRID_TYPES = (("epsilons", numbers.Real), ("agent_counts", numbers.Integral),
               ("initial_spans", numbers.Real))

# histogram slope fit: integer bins from k=3 up, needing enough mass
_SLOPE_FIT_KMIN = 3
_SLOPE_FIT_MIN_COUNT = 30


def _is_a(value, kind: type) -> bool:
    """``isinstance`` that does not count booleans as numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment run; everything else derives."""

    kind: str
    epsilons: tuple[float, ...] = (0.1,)
    agent_counts: tuple[int, ...] = (100,)
    initial_spans: tuple[float, ...] = (100.0,)
    trials: int = 100
    seed: int = 0
    max_steps: int = 10_000_000
    warmup: int = 1_000
    samples: int = 100_000
    stride: int = 10
    batches: int = 100
    horizon: int = 100_000
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_a(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name, kind in _GRID_TYPES:
            bad = [value for value in getattr(self, name) if not _is_a(value, kind)]
            if bad:
                raise ValidationError(f"{name} must hold {kind.__name__.lower()} numbers, "
                                      f"got {bad[0]!r}")
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        object.__setattr__(self, "agent_counts", tuple(int(n) for n in self.agent_counts))
        object.__setattr__(self, "initial_spans", tuple(float(s) for s in self.initial_spans))
        for eps in self.epsilons:
            WalkParams(eps)  # domain check
        if not self.epsilons or not self.agent_counts or not self.initial_spans:
            raise ValidationError("parameter grids must be non-empty")
        if not all(math.isfinite(s0) and s0 >= 0 for s0 in self.initial_spans):
            raise ValidationError(f"initial_spans must be finite and >= 0, got {self.initial_spans}")
        if self.trials < 2:
            raise ValidationError("need trials >= 2 so standard errors are computable")
        if self.max_steps < 1 or self.samples < 1 or self.stride < 1:
            raise ValidationError("max_steps, samples, and stride must be >= 1")
        if self.warmup < 0 or self.horizon < 1:
            raise ValidationError("need warmup >= 0 and horizon >= 1")
        if not 2 <= self.batches <= self.samples:
            raise ValidationError("need 2 <= batches <= samples")
        if self.jobs < 1:
            raise ValidationError("jobs must be >= 1")
        gathering = self.kind in CONVERGENCE_KINDS + ("span-distribution", "centroid-drift")
        if gathering and any(n < 4 for n in self.agent_counts):
            raise ValidationError("gathering experiments need N >= 4")
        if self.kind in ("span-distribution", "centroid-drift"):
            if len(self.epsilons) != 1 or len(self.agent_counts) != 1 or len(self.initial_spans) != 1:
                raise ValidationError(f"{self.kind} takes a single grid point")
        if self.kind == "centroid-drift" and self.epsilons[0] == 0.0:
            raise ValidationError(
                "centroid-drift requires epsilon > 0 (at epsilon = 0 the swarm "
                "oscillates deterministically and never settles into drift)"
            )

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
        data = dict(raw)
        for grid in ("epsilons", "agent_counts", "initial_spans"):
            if grid in data and not isinstance(data[grid], (list, tuple)):
                data[grid] = (data[grid],)
        return cls(**data)


@dataclass(frozen=True)
class SummaryRow:
    """One line of the fixed summary schema, fields in column order."""

    kind: str
    epsilon: float | None
    n_agents: int | None
    s0: float | None
    trials: int
    mean: float | None
    stddev: float | None
    stderr: float | None
    bound: float | None
    ratio: float | None


@dataclass(frozen=True)
class SpanTailRow:
    """Span tail row, fields in column order; ``batch_stderr`` is not written."""

    k: int
    count: int
    empirical_p: float
    bound_p: float | None
    markov_p: float | None
    batch_stderr: float


@dataclass(frozen=True)
class GridPointDetail:
    """Per-trial data behind one summary row of a convergence sweep."""

    epsilon: float
    n_agents: int
    s0_nominal: float
    times: tuple[int, ...]
    bounds: tuple[float, ...]
    reached: tuple[bool, ...]
    violations: int
    incomplete: bool


@dataclass(frozen=True)
class DriftStats:
    """Post-gathering centroid increment statistics."""

    epsilon: float
    n_agents: int
    ticks: int
    freq_plus: float
    freq_zero: float
    freq_minus: float
    stderr_plus: float
    stderr_zero: float
    stderr_minus: float
    msd_per_tick: float
    msd_expected: float


@dataclass
class ExperimentResult:
    """Aggregated outcome of one spec; serializable via `write_results`."""

    spec: ExperimentSpec
    summary_rows: list[SummaryRow] = field(default_factory=list)
    span_rows: list[SpanTailRow] | None = None
    points: list[GridPointDetail] | None = None
    drift: DriftStats | None = None
    slope: float | None = None
    slope_expected: float | None = None


def batch_mean_stderr(samples: np.ndarray, batches: int) -> float:
    """Standard error of the mean from consecutive batch means.

    Splits the ordered sample stream into ``batches`` equal consecutive
    batches (discarding any remainder) and returns
    ``std(batch means, ddof=1) / sqrt(batches)``.
    """
    samples = np.asarray(samples, dtype=float)
    if batches < 2 or samples.size < batches:
        raise ValidationError("need at least 2 batches and one sample per batch")
    per = samples.size // batches
    means = samples[: per * batches].reshape(batches, per).mean(axis=1)
    return float(means.std(ddof=1) / math.sqrt(batches))


def uniform_start(seed: int, purpose: str, index: int, n: int, s0: float) -> np.ndarray:
    """``n`` sorted uniforms on ``[0, 1 + s0 + END_GAP]``, seeded by ``(seed, purpose, index)``."""
    rng = np.random.default_rng(child_seed(seed, purpose, index))
    return np.sort(rng.uniform(0.0, 1.0 + s0 + END_GAP, n))


# -- convergence sweeps ------------------------------------------------------


def _convergence_trial(args: tuple) -> tuple[int, float, bool]:
    """One gathering trial; top-level so process pools can pickle it."""
    flat_index, eps, n, s0, seed, max_steps = args
    p = WalkParams(eps)
    positions = uniform_start(seed, "convergence-init", flat_index, n, s0)
    bound = gathering_time_bound(positions, p)
    state = new_swarm(positions, p, child_seed(seed, "convergence-dyn", flat_index))
    res = run_until_gathered(state, max_steps)
    return res.T, bound, res.reached


def run_convergence_sweep(spec: ExperimentSpec) -> ExperimentResult:
    """Gathering times over the (epsilon, N, S0) grid, with per-trial bounds."""
    if spec.kind not in CONVERGENCE_KINDS:
        raise ValidationError(f"not a convergence kind: {spec.kind}")
    grid = [
        (eps, n, s0)
        for eps in spec.epsilons
        for n in spec.agent_counts
        for s0 in spec.initial_spans
    ]
    tasks = []
    for point_index, (eps, n, s0) in enumerate(grid):
        for trial in range(spec.trials):
            flat = point_index * spec.trials + trial
            tasks.append((flat, eps, n, s0, spec.seed, spec.max_steps))

    # a fork pool starts all its workers at the first submit, so cap them
    workers = min(spec.jobs, os.cpu_count() or 1, len(tasks))
    # map keeps input order, so outcomes line up with tasks in both branches
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (workers * 8))
            outcomes = list(pool.map(_convergence_trial, tasks, chunksize=chunk))
    else:
        outcomes = list(map(_convergence_trial, tasks))

    rows: list[SummaryRow] = []
    points: list[GridPointDetail] = []
    for point_index, (eps, n, s0) in enumerate(grid):
        first = point_index * spec.trials
        times, bounds, reached = zip(*outcomes[first : first + spec.trials])
        done_times = np.array([t for t, r in zip(times, reached) if r], dtype=float)
        done_bounds = np.array([b for b, r in zip(bounds, reached) if r], dtype=float)
        incomplete = not all(reached)
        violations = int(sum(t > b for t, b, r in zip(times, bounds, reached) if r))
        if violations:
            log.warning(
                "%d/%d trials exceeded their per-trial bound at eps=%g N=%d S0=%g "
                "(the bound constrains the expectation, not sample paths)",
                violations, spec.trials, eps, n, s0,
            )
        if incomplete:
            log.warning(
                "grid point eps=%g N=%d S0=%g incomplete: %d/%d trials hit max_steps",
                eps, n, s0, sum(not r for r in reached), spec.trials,
            )
        if incomplete or done_times.size < 2:
            rows.append(
                SummaryRow(spec.kind, eps, n, s0, int(done_times.size),
                           None, None, None, None, None)
            )
        else:
            mean = float(done_times.mean())
            sd = float(done_times.std(ddof=1))
            mean_bound = float(done_bounds.mean())
            rows.append(
                SummaryRow(
                    spec.kind, eps, n, s0, int(done_times.size),
                    mean, sd, sd / math.sqrt(done_times.size),
                    mean_bound, mean_bound / mean if mean > 0 else None,
                )
            )
        points.append(
            GridPointDetail(eps, n, s0, times, bounds, reached, violations, incomplete)
        )
    return ExperimentResult(spec, summary_rows=rows, points=points)


# -- span distribution -------------------------------------------------------


def _gather_for_sampling(spec: ExperimentSpec):
    eps = spec.epsilons[0]
    n = spec.agent_counts[0]
    s0 = spec.initial_spans[0]
    p = WalkParams(eps)
    positions = uniform_start(spec.seed, "sampling-init", 0, n, s0)
    state = new_swarm(positions, p, child_seed(spec.seed, "sampling-dyn", 0))
    res = run_until_gathered(state, spec.max_steps)
    if not res.reached:
        raise RuntimeError(
            f"cannot sample: core not gathered within max_steps={spec.max_steps} "
            f"(eps={eps}, N={n}, S0={s0}); raise max_steps or shrink S0"
        )
    sample_total_spans(state, 1, spec.warmup)
    return state, p


def run_span_distribution(spec: ExperimentSpec) -> ExperimentResult:
    """Post-gathering total-span tail against the two theoretical bounds."""
    if spec.kind != "span-distribution":
        raise ValidationError(f"not a span-distribution spec: {spec.kind}")
    state, p = _gather_for_sampling(spec)
    spans = sample_total_spans(state, spec.samples, spec.stride)

    k_max = max(12, int(math.ceil(spans.max())))
    rows: list[SpanTailRow] = []
    for k in range(k_max + 1):
        tail = spans >= k
        count = int((tail & (spans < k + 1)).sum())
        empirical = float(tail.mean())
        se = batch_mean_stderr(tail.astype(float), spec.batches)
        bound = tail_prob_sum(p, k) if k >= 2 else None
        markov = markov_span_bound(p, k) if k >= 1 else None
        rows.append(SpanTailRow(k, count, empirical, bound, markov, se))

    fit = [(r.k, r.count) for r in rows
           if r.k >= _SLOPE_FIT_KMIN and r.count >= _SLOPE_FIT_MIN_COUNT]
    slope = None
    if len(fit) >= 3:
        ks = np.array([k for k, _ in fit], dtype=float)
        logs = np.log([c for _, c in fit])
        slope = float(np.polyfit(ks, logs, 1)[0])
    return ExperimentResult(
        spec,
        span_rows=rows,
        slope=slope,
        slope_expected=math.log(p.ratio) if p.epsilon > 0 else None,
    )


# -- centroid drift ----------------------------------------------------------


def run_centroid_drift(spec: ExperimentSpec) -> ExperimentResult:
    """Post-gathering centroid increment law and diffusion rate.

    Increments are classified exactly from the engine's turn-back counts
    over one `sample_total_spans` sample of ``horizon`` ticks, bypassing
    float rounding in the centroid itself: a tick is ``+2/N`` iff the
    right end alone turned back (both extremists jump right), ``-2/N``
    iff the left end alone did, and 0 otherwise.
    """
    if spec.kind != "centroid-drift":
        raise ValidationError(f"not a centroid-drift spec: {spec.kind}")
    state, p = _gather_for_sampling(spec)
    n = state.n_agents
    ticks = spec.horizon
    left0, right0, both0 = state.turn_backs
    sample_total_spans(state, 1, ticks)
    left, right, both = state.turn_backs
    up = right - right0 - (both - both0)
    down = left - left0 - (both - both0)
    zero = ticks - up - down

    eps = p.epsilon
    p_move = eps * (1.0 - eps)
    freqs = (up / ticks, zero / ticks, down / ticks)
    ses = tuple(math.sqrt(f * (1.0 - f) / ticks) for f in freqs)
    msd = (up + down) / ticks * (4.0 / n**2)
    drift = DriftStats(
        eps, n, ticks,
        freqs[0], freqs[1], freqs[2], ses[0], ses[1], ses[2],
        msd, 8.0 * p_move / n**2,
    )
    kind = spec.kind
    rows = [
        SummaryRow(f"{kind}:plus", eps, n, None, ticks,
                   freqs[0], None, ses[0], p_move, None),
        SummaryRow(f"{kind}:zero", eps, n, None, ticks,
                   freqs[1], None, ses[1], 1.0 - 2.0 * p_move, None),
        SummaryRow(f"{kind}:minus", eps, n, None, ticks,
                   freqs[2], None, ses[2], p_move, None),
        SummaryRow(f"{kind}:msd-per-tick", eps, n, None, ticks,
                   msd, None, None, drift.msd_expected, None),
    ]
    return ExperimentResult(spec, summary_rows=rows, drift=drift)


# -- walk validation ---------------------------------------------------------


def run_walk_validation(spec: ExperimentSpec) -> ExperimentResult:
    """Single-walker Monte Carlo against every closed form, per epsilon."""
    if spec.kind != "walk-validation":
        raise ValidationError(f"not a walk-validation spec: {spec.kind}")
    rows: list[SummaryRow] = []
    for i, eps in enumerate(spec.epsilons):
        p = WalkParams(eps)
        walk = simulate_walk_first_passage(
            p, child_seed(spec.seed, "walk-fp", i), spec.trials
        )
        expect = expected_steps_to_minus_one(p)
        rows.append(
            SummaryRow("walk-validation:first-passage", eps, None, None, spec.trials,
                       walk.mean, math.sqrt(walk.variance), walk.stderr,
                       expect, walk.mean / expect)
        )
        exc_bound = farthest_excursion_bound(p)
        rows.append(
            SummaryRow("walk-validation:excursion", eps, None, None, spec.trials,
                       walk.excursion_mean, None, walk.excursion_stderr,
                       exc_bound, None)
        )
        for m in (10, 50):
            exact = finite_chain_oracle(p, 1, -m).at(0)[1]
            sim = simulate_two_barrier_hits(
                p, child_seed(spec.seed, f"barrier-{m}", i), spec.trials, 1, -m
            )
            rows.append(
                SummaryRow(f"walk-validation:hit-upper:M={m}", eps, None, None,
                           spec.trials, sim.p_upper, None, sim.stderr, exact, None)
            )
        if eps > 0.0:
            occ = simulate_reflected_chain(
                p, child_seed(spec.seed, "chain", i), spec.warmup, spec.samples,
                batches=spec.batches,
            )
            tv = 0.5 * math.fsum(
                abs(occ.frequency(k) - stationary_pi(p, k))
                for k in range(1, max(31, occ.counts.size + 1))
            )
            rows.append(
                SummaryRow("walk-validation:chain-tv", eps, None, None,
                           spec.samples, tv, None, None, None, None)
            )
            chain_se = occ.mean_stderr() if occ.batch_means is not None else None
            rows.append(
                SummaryRow("walk-validation:chain-mean", eps, None, None,
                           spec.samples, occ.mean(), None, chain_se,
                           reflected_chain_mean(p), None)
            )
    return ExperimentResult(spec, summary_rows=rows)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch a spec to its runner."""
    if spec.kind in CONVERGENCE_KINDS:
        return run_convergence_sweep(spec)
    if spec.kind == "span-distribution":
        return run_span_distribution(spec)
    if spec.kind == "centroid-drift":
        return run_centroid_drift(spec)
    return run_walk_validation(spec)


# -- serialization -----------------------------------------------------------


def format_cell(value, fmt: str = "csv") -> str:
    """Render one table cell for ``fmt`` (``csv`` or ``jsonl``).

    None is empty (CSV) or ``null`` (JSON-lines), ints are written as
    is, floats with 17 significant digits so they round-trip exactly,
    and strings bare (CSV) or JSON-quoted (JSON-lines).
    """
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return "null" if fmt == "jsonl" else ""
    if isinstance(value, bool):
        raise TypeError("no boolean columns in the schemas")
    if isinstance(value, str) and fmt == "jsonl":
        return json.dumps(value)
    return str(value)


def row_writer(fh: TextIO, columns: Sequence[str], fmt: str = "csv") -> Callable[[Sequence], None]:
    """Start a table on the text file ``fh``; return the one-row writer.

    ``csv`` writes the header line now; ``jsonl`` writes one object per
    row, keyed by ``columns`` in order.  Each row is a sequence of cells
    in column order, rendered by `format_cell`, one LF-terminated line.
    """
    if fmt == "csv":
        fh.write(",".join(columns) + "\n")

        def write_csv(row: Sequence) -> None:
            fh.write(",".join([format_cell(cell) for cell in row]) + "\n")

        return write_csv
    if fmt == "jsonl":
        keys = [f"{json.dumps(name)}: " for name in columns]

        def write_jsonl(row: Sequence) -> None:
            cells = [key + format_cell(cell, fmt) for key, cell in zip(keys, row)]
            fh.write("{" + ", ".join(cells) + "}\n")

        return write_jsonl
    raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")


def write_results(result: ExperimentResult, fmt: str, path: str | Path) -> Path:
    """Write a result to ``path`` as ``csv`` or ``jsonl``.

    Summary kinds use the columns ``kind,epsilon,N,S0,trials,mean,stddev,
    stderr,bound,ratio``; the span distribution uses the long format
    ``k,count,empirical_p,bound_p,markov_p``.  Inapplicable fields are
    empty (CSV) or null (JSON-lines).  Floats carry 17 significant
    digits, so every value round-trips exactly; files are UTF-8 with LF
    line endings and identical bytes for identical specs and seeds.
    """
    path = Path(path)
    if result.spec.kind == "span-distribution":
        columns, rows = SPAN_COLUMNS, result.span_rows or []
    else:
        columns, rows = SUMMARY_COLUMNS, result.summary_rows
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write = row_writer(fh, columns, fmt)
            for row in rows:
                write(astuple(row)[: len(columns)])
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    return path
