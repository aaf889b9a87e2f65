"""Benchmark of lineswarm: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload {sweep,stationary,wide,planar} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh single process (`worker.py`, ``jobs=1``,
one thread per numeric library) as a closed loop: one caller runs one
warm-up repetition, then the workload's repetitions back to back for
``--seconds``, while `worker.HostClock` times a fixed pure-Python loop
every 100 ms.  Inputs come from ``--seed`` only.

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``setup_s`` -- process start to the first tick (interpreter, imports,
  input generation, state construction), median of `SETUP_PROBES` fresh
  processes;
* ``wall_ref`` -- mean wall time of one repetition, in units of the
  calibration loop's mean time during the same repetitions;
* ``ticks_per_ref`` -- swarm ticks per calibration-loop time (planar
  ticks on ``planar``, 1D ticks elsewhere);
* ``peak_rss_mb`` -- peak resident memory of the workload process.

The host's speed swings by up to 2x over minutes, which moves times in
seconds between runs far more than the program does; the calibration
loop runs on the same host in the same minutes, so a time in its units
moves only when the program does.  The same means in seconds,
``wall_s`` and ``ticks_per_s``, are on the report line.

``--trace 1`` alternates untraced and traced repetitions in one process
and prints the per-layer metrics of `spans.PER_LAYER` (medians over the
traced repetitions) with ``trace.overhead_s``, the mean traced minus
the mean untraced repetition time.

Before the last line, one JSON line reports ``failed_frac``, the
environment, `worker.host_speed` (fixed pure-Python and numpy loops)
before and after the workload, ``wall_s`` and ``ticks_per_s``, every
repetition's time and calibration-loop time, and the output digests.
The last line is ``{"correct", "attempted", "failed", "metrics"}``; an
operation is one repetition, and it fails if it raises, if a trial hits
``max_steps``, if an output check fails or if its output digests differ
from the first repetition's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import host_speed

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep", "stationary", "wide", "planar")
SETUP_PROBES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(_read(c / "level"), _read(c / "size")) for c in caches]
    llc = max(levels)[1] if levels else "unknown"
    commit = "unknown"  # an exported checkout has no .git; source_sha256 still names the code
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "llc": llc,
            "seed": seed, "git_commit": commit, "source_sha256": source.hexdigest()}


class Runner:
    """Starts worker processes, each within what is left of the deadline."""

    def __init__(self, args) -> None:
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {**os.environ, **{var: "1" for var in THREAD_VARS}}

    def worker(self, role: str) -> tuple[float, dict]:
        """Run one worker; returns its start time and its JSON result."""
        a = self.args
        cmd = [sys.executable, str(WORKER), "--workload", a.workload, "--seed", str(a.seed),
               "--seconds", str(a.seconds), "--role", role]
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker")
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{role} worker timed out") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{role} worker exited with code {proc.returncode}")
        return started, json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_s(self) -> list[float]:
        samples = []
        for _ in range(SETUP_PROBES):
            started, out = self.worker("setup")
            samples.append(out["first_tick"] - started)
        return samples


def measure(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "lineswarm" / "__init__.py").is_file():
        raise BenchError(f"no lineswarm sources under {ROOT / 'src'}")
    runner = Runner(args)
    env = environment(args.seed)
    host_before = host_speed()
    if args.trace:
        out = runner.worker("traced")[1]
        traced = [rep for rep in out["reps"] if rep["traced"]]
        layers = {name: statistics.median(rep["layers"][name] for rep in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = out["traced"]["wall_s"] - out["plain"]["wall_s"]
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in out["units"].items()}
    else:
        setups = runner.setup_s()
        out = runner.worker("plain")[1]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref": {"value": out["plain"]["wall_ref"], "unit": "ref"},
            "ticks_per_ref": {"value": out["plain"]["ticks_per_ref"], "unit": "1/ref"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    host_after = host_speed()
    reps = out["reps"]
    failed = sum(bool(rep["failures"]) for rep in reps)
    report = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "failed_frac": failed / len(reps),
        "environment": {**env, **out["versions"]},
        "host_speed": {"before": host_before, "after": host_after},
        "wall_s": {"value": out["plain"]["wall_s"], "unit": "s"},
        "ticks_per_s": {"value": out["plain"]["ticks_per_s"], "unit": "1/s"},
        "ref_s": out["plain"]["ref_s"],
        "reps_wall_s": [rep["wall_s"] for rep in reps],
        "reps_ref_s": [rep["ref_s"] for rep in reps],
        "ticks_per_rep": reps[0]["ticks"],
        "digests": reps[0].get("digests"),
        "failures": [m for rep in reps for m in rep["failures"]],
    }
    if not args.trace:
        report["setup_samples_s"] = setups
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    try:
        report, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
