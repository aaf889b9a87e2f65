"""Command-line front end: analytics queries, single runs, experiment sweeps.

Subcommands::

    lineswarm analytic <formula> --epsilon E [--k K]
    lineswarm sim1d  (--positions "a,b,c" | --uniform N S0) --epsilon E --seed S
    lineswarm sim2d  (--n N --side L | --points "x,y;x,y") --epsilon E --seed S
    lineswarm experiment --config FILE [--trials T] [--seed S] [--jobs J]

``sim1d`` and ``sim2d`` write ``trajectory.csv`` and ``trajectory2d.csv``.
An ``experiment`` run writes ``results.csv`` and ``results.jsonl`` plus
``manifest.json`` echoing the fully resolved configuration, the seed, the
package version, and wall time: the manifest alone suffices to re-execute
the run and reproduce the result files byte for byte.  All randomness
descends from the single ``--seed`` value.

Exit codes: 0 success, 1 user error (bad flags or config), 2 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ValidationError
from .experiments import (
    CONVERGENCE_KINDS,
    ExperimentSpec,
    format_cell,
    row_writer,
    run_experiment,
    uniform_start,
    write_results,
)
from .rw_analytics import (
    WalkParams,
    catalan,
    expected_steps_to_minus_one,
    farthest_excursion_bound,
    markov_span_bound,
    prob_hit_minus_one,
    prob_hit_plus_one,
    stationary_pi,
    tail_prob_single,
    tail_prob_sum,
)
from .seeding import child_seed
from .sim1d import MODES, TrajectoryRow, new_swarm, run_until_gathered
from .sim2d import Trajectory2DRow, new_swarm2d, run2d

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the user-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USER)


# -- analytic ---------------------------------------------------------------

_EPS_FORMULAS = {
    "hit-minus-one": prob_hit_minus_one,
    "hit-plus-one": prob_hit_plus_one,
    "expected-steps": expected_steps_to_minus_one,
    "excursion-bound": farthest_excursion_bound,
}
_EPS_K_FORMULAS = {
    "pi": stationary_pi,
    "tail-single": tail_prob_single,
    "tail-sum": tail_prob_sum,
}
FORMULAS = sorted(_EPS_FORMULAS) + sorted(_EPS_K_FORMULAS) + ["span-bound", "catalan"]


def _integer_k(k: float) -> int:
    if not (math.isfinite(k) and k.is_integer()):
        raise ValidationError(f"--k must be an integer for this formula, got {k}")
    return int(k)


def _cmd_analytic(args) -> int:
    name = args.formula
    if name == "catalan":
        if args.k is None:
            raise ValidationError("catalan requires --k")
        try:
            print(catalan(_integer_k(args.k)))
        except OverflowError as exc:
            raise ValidationError(str(exc)) from exc
        return EXIT_OK
    if args.epsilon is None:
        raise ValidationError(f"{name} requires --epsilon")
    p = WalkParams(args.epsilon)
    if name in _EPS_FORMULAS:
        print(format_cell(_EPS_FORMULAS[name](p)))
        return EXIT_OK
    if args.k is None:
        raise ValidationError(f"{name} requires --k")
    if name == "span-bound":
        print(format_cell(markov_span_bound(p, args.k)))
        return EXIT_OK
    print(format_cell(_EPS_K_FORMULAS[name](p, _integer_k(args.k))))
    return EXIT_OK


# -- sim1d ------------------------------------------------------------------


def _parse_positions(raw: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse positions {raw!r}: {exc}") from exc


def _check_extent(flag: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{flag} must be finite and >= 0, got {value}")


def _check_count(flag: str, value: int, minimum: int) -> None:
    # run before the trajectory file is opened, so a rejected run leaves it intact
    if value < minimum:
        raise ValidationError(f"{flag} must be >= {minimum}, got {value}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sim1d(args) -> int:
    if (args.positions is None) == (args.uniform is None):
        raise ValidationError("give exactly one of --positions or --uniform N S0")
    _check_count("--max-steps", args.max_steps, 0)
    _check_count("--stride", args.stride, 1)
    if args.positions is not None:
        positions = _parse_positions(args.positions)
    else:
        try:
            n, s0 = int(args.uniform[0]), float(args.uniform[1])
        except ValueError as exc:
            raise ValidationError(f"--uniform takes an integer N and a number S0: {exc}") from exc
        if n < 1:
            raise ValidationError(f"--uniform N must be >= 1, got {n}")
        _check_extent("--uniform S0", s0)
        positions = uniform_start(args.seed, "cli-sim1d-init", 0, n, s0)

    state = new_swarm(
        positions, args.epsilon, child_seed(args.seed, "cli-sim1d-dyn", 0), mode=args.mode
    )
    out = _out_dir(args)
    traj_path = out / "trajectory.csv"
    with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
        sink = row_writer(fh, TrajectoryRow._fields)
        result = run_until_gathered(state, args.max_steps, sink=sink, stride=args.stride)

    final = result.final_state
    status = "gathered" if result.reached else f"max-steps ({args.max_steps}) exhausted"
    print(f"T = {result.T} ({status})")
    print(f"core span = {format_cell(final.core_span)}")
    print(f"total span = {format_cell(final.total_span)}")
    print(f"trajectory: {traj_path}")
    return EXIT_OK


# -- sim2d ------------------------------------------------------------------


def _parse_points(raw: str) -> list[tuple[float, float]]:
    pts = []
    for tok in raw.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(",")
        if len(parts) != 2:
            raise ValidationError(f"bad point {tok!r}; expected 'x,y'")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValidationError(f"bad point {tok!r}: {exc}") from exc
    return pts


def _cmd_sim2d(args) -> int:
    if (args.points is None) == (args.n is None):
        raise ValidationError("give exactly one of --points or --n (with --side)")
    _check_count("--steps", args.steps, 1)
    _check_count("--stride", args.stride, 1)
    if args.points is not None:
        points = _parse_points(args.points)
    else:
        if args.n < 1:
            raise ValidationError(f"--n must be >= 1, got {args.n}")
        _check_extent("--side", args.side)
        rng = np.random.default_rng(child_seed(args.seed, "cli-sim2d-init", 0))
        points = rng.uniform(0.0, args.side, (int(args.n), 2)).tolist()

    state = new_swarm2d(points, args.epsilon, child_seed(args.seed, "cli-sim2d-dyn", 0))
    out = _out_dir(args)
    traj_path = out / "trajectory2d.csv"
    with open(traj_path, "w", encoding="utf-8", newline="\n") as fh:
        sink = row_writer(fh, Trajectory2DRow._fields)
        rows = run2d(state, args.steps, stride=args.stride, sink=sink)

    print(f"steps = {args.steps}")
    first, last = format_cell(rows[0].diameter), format_cell(rows[-1].diameter)
    print(f"diameter = {last} (initial {first})")
    print(f"hull vertices = {rows[-1].hull_count}")
    print(f"trajectory: {traj_path}")
    return EXIT_OK


# -- experiment ---------------------------------------------------------------


def _cmd_experiment(args) -> int:
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValidationError(f"config {args.config} must be a JSON object")
    if args.kind is not None:
        raw["kind"] = args.kind
    # flags override file values
    for flag in ("trials", "seed", "jobs", "max_steps"):
        value = getattr(args, flag)
        if value is not None:
            raw[flag] = value
    if "kind" not in raw:
        raise ValidationError("no experiment kind given (config file or --kind)")
    # sweeps default to machine parallelism; results are order-independent
    if "jobs" not in raw and raw["kind"] in CONVERGENCE_KINDS:
        raw["jobs"] = os.cpu_count() or 1
    spec = ExperimentSpec.from_dict(raw)

    out = _out_dir(args)
    started = time.monotonic()
    result = run_experiment(spec)
    wall = time.monotonic() - started

    csv_path = write_results(result, "csv", out / "results.csv")
    jsonl_path = write_results(result, "jsonl", out / "results.jsonl")
    manifest = {
        "spec": asdict(spec),
        "seed": spec.seed,
        "version": __version__,
        "wall_time_s": wall,
        "outputs": [csv_path.name, jsonl_path.name],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    incomplete = sum(
        1 for row in result.summary_rows if row.mean is None and row.kind == spec.kind
    )
    print(f"kind = {spec.kind}")
    print(f"rows = {len(result.span_rows or result.summary_rows)}")
    if incomplete:
        print(f"incomplete grid points = {incomplete}")
    print(f"results: {csv_path}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lineswarm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="print a closed-form value")
    p_an.add_argument("formula", choices=FORMULAS)
    p_an.add_argument("--epsilon", type=float, help="bias parameter in [0, 1/2)")
    p_an.add_argument("--k", type=float, help="state index / span threshold")
    p_an.set_defaults(func=_cmd_analytic)

    p_s1 = sub.add_parser("sim1d", help="run one line swarm until gathered")
    p_s1.add_argument("--positions", help="comma-separated initial positions")
    p_s1.add_argument(
        "--uniform", nargs=2, metavar=("N", "S0"),
        help="draw N positions uniform on [0, 1+S0+2]",
    )
    p_s1.add_argument("--epsilon", type=float, required=True)
    p_s1.add_argument("--seed", type=int, required=True)
    p_s1.add_argument("--mode", choices=sorted(MODES), default="bilateral")
    p_s1.add_argument("--max-steps", type=int, default=10_000_000)
    p_s1.add_argument("--stride", type=int, default=1)
    p_s1.add_argument("--out", default=".")
    p_s1.set_defaults(func=_cmd_sim1d)

    p_s2 = sub.add_parser("sim2d", help="run one planar swarm")
    p_s2.add_argument("--points", help="semicolon-separated x,y pairs")
    p_s2.add_argument("--n", type=int, help="number of uniform points")
    p_s2.add_argument("--side", type=float, default=30.0, help="side of the start square")
    p_s2.add_argument("--epsilon", type=float, required=True)
    p_s2.add_argument("--seed", type=int, required=True)
    p_s2.add_argument("--steps", type=int, required=True)
    p_s2.add_argument("--stride", type=int, default=1)
    p_s2.add_argument("--out", default=".")
    p_s2.set_defaults(func=_cmd_sim2d)

    p_ex = sub.add_parser("experiment", help="run an experiment spec")
    p_ex.add_argument("--config", help="JSON spec file")
    p_ex.add_argument("--kind", help="experiment kind (overrides config)")
    p_ex.add_argument("--trials", type=int)
    p_ex.add_argument("--seed", type=int)
    p_ex.add_argument(
        "--jobs", type=int,
        help="trial parallelism, at most the core count (default: all cores for sweeps, else 1)",
    )
    p_ex.add_argument("--max-steps", dest="max_steps", type=int)
    p_ex.add_argument("--out", default=".")
    p_ex.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
