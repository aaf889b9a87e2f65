"""One benchmark process: runs one workload's repetitions back to back.

    python3 bench/worker.py --workload NAME --seed N --seconds S --role ROLE

Roles:

* ``setup`` -- build the inputs, run until the simulation's first tick
  and print ``{"first_tick": <time.monotonic()>}``; the caller subtracts
  the time it started this process.
* ``plain`` -- repetitions with nothing wrapped but the capture of the
  CLI's return values that the output checks read.
* ``traced`` -- the same repetitions, half of them with `spans.Tracer`
  installed.

The first repetition is a warm-up: it is checked like the others but
left out of the times.  After it, the process starts a new repetition
while fewer than four have run or less than ``--seconds`` has passed,
times `run` alone, then checks the outputs and the sha256 of every file
written against the first repetition's.

The host's speed swings by up to 2x for seconds to minutes at a time,
and a repetition's time swings with it.  So during every repetition a
`HostClock` times the calibration unit `python_loop` every 100 ms, and
`timing` reports a run in two ways: in seconds (``wall_s``,
``ticks_per_s``: what a user waits for) and in calibration units
(``wall_ref``, ``ticks_per_ref``: what changes only when the program
does).  A pure-Python loop tracked the host's swings in all four
workloads better than numpy sorting, random gathers over 32 MB, dict
lookups or pointer chasing did; one over more data than L2 holds
tracked them better than one over a few ints; and sampling it between
the workload's own bytecodes tracked them better than timing it between
repetitions.  Both are means
over the run, which weigh fast and slow stretches by their length, where
a median jumps to whichever held longer.  The time spent sampling is
left out of every repetition time; span times include it.

Outputs go to ``bench/.work/<workload>-<role>/``, which each start
clears; a traced process also leaves its spans there in
``spans.jsonl``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import resource
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_REPS = 4
SAMPLE_PERIOD_S = 0.1


def _digests(files) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


def run_reps(workload, inputs, seconds: float, work: Path, tracer=None) -> list[dict]:
    """Closed loop of repetitions; with a tracer, every second pair is traced
    (plain, traced, traced, plain, ...) so that host-speed drift cancels out
    of the tracing overhead."""
    reps: list[dict] = []
    first_digests = None
    started = None
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        if len(reps) == 1:
            started = time.perf_counter()
        traced = tracer is not None and len(reps) % 4 in (1, 2)
        if traced:
            tracer.begin_rep(len(reps))
            tracer.install()
        clock = HostClock()
        t0 = time.perf_counter()
        try:
            with clock:
                outcome = workload.run(inputs, work)
        except Exception as exc:  # noqa: BLE001 - a raising repetition is a failed operation
            outcome = exc
            traceback.print_exc(file=sys.stderr)
        finally:
            if traced:
                tracer.restore()
        rep = {"wall_s": time.perf_counter() - t0 - clock.spent, "traced": traced,
               "warmup": not reps, "ref_s": clock.ref_s}
        if isinstance(outcome, Exception):
            rep.update(ticks=0, failures=[f"raised {outcome!r}"])
            reps.append(rep)
            continue
        failures = workload.check(inputs, outcome.value)
        digests = _digests(outcome.files)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            failures.append(f"determinism: digests differ from repetition 0: {digests}")
        rep.update(ticks=outcome.ticks, failures=failures, digests=digests)
        if traced:
            rep["layers"] = tracer.layer_metrics()
        reps.append(rep)
    return reps


@functools.cache
def _floats() -> list[float]:
    """The calibration unit's data: 150k floats, about 5 MB with their
    objects, more than the 2 MB L2 of the Xeon the benchmark was tuned on,
    so that the unit, like the workloads, slows when neighbours crowd the
    shared caches."""
    rng = random.Random(0)
    return [rng.random() for _ in range(150_000)]


def python_loop() -> None:
    """The calibration unit: one pure-Python pass over `_floats` (about 4 ms)."""
    acc = 0.0
    for x in _floats():
        acc += x * 1.0001


class HostClock:
    """Times `python_loop` every `SAMPLE_PERIOD_S` of wall time while active.

    The samples run in a SIGALRM handler, between the bytecodes of the
    workload itself, so they see the host at the same moments as the work;
    ``spent`` is the time spent in the handler, which the caller subtracts
    from the repetition's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        python_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._sample(None, None)

    @property
    def ref_s(self) -> float:
        return math.fsum(self.samples) / len(self.samples)


def host_speed() -> dict[str, float]:
    """Fixed pure-Python and numpy calibration loops, in milliseconds."""
    import numpy as np

    _floats()
    t0 = time.perf_counter()
    for _ in range(20):
        python_loop()
    t1 = time.perf_counter()
    data = np.random.default_rng(0).random(1_000_000)
    for _ in range(5):
        np.sort(data)
    t2 = time.perf_counter()
    return {"python_ms": (t1 - t0) * 1e3, "numpy_ms": (t2 - t1) * 1e3}


def timing(reps: list[dict], traced: bool) -> dict[str, float]:
    """Mean repetition time and ticks per unit of time, in seconds and in
    units of the calibration loop, over the timed repetitions that are (or
    are not) traced."""
    timed = [r for r in reps if r["traced"] == traced and not r["warmup"]]
    wall = math.fsum(r["wall_s"] for r in timed)
    ref = math.fsum(r["ref_s"] for r in timed)
    ticks = sum(r["ticks"] for r in timed)
    return {"wall_s": wall / len(timed), "ticks_per_s": ticks / wall,
            "wall_ref": wall / ref, "ticks_per_ref": ticks / wall * ref / len(timed),
            "ref_s": ref / len(timed)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "plain", "traced"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy

    import lineswarm
    import workloads

    if Path(lineswarm.__file__).resolve().parent != ROOT / "src" / "lineswarm":
        print(f"error: imported lineswarm from {lineswarm.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / "bench" / ".work" / f"{args.workload}-{args.role}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.inputs(args.seed)

    if args.role == "setup":
        workloads.stop_at_first_tick(workload)
        try:
            workload.run(inputs, work)
        except workloads.FirstTick:
            print(json.dumps({"first_tick": time.monotonic()}))
            return 0
        print("error: the workload never reached its first tick", file=sys.stderr)
        return 1

    tracer = None
    extra = {}
    if args.role == "traced":
        import spans

        tracer = spans.Tracer()
        extra["units"] = {name: unit for name, unit, _ in spans.PER_LAYER}
    reps = run_reps(workload, inputs, args.seconds, work, tracer)
    if tracer is not None:
        extra["traced"] = timing(reps, traced=True)
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "tag", "start", "end", "parent", "run"), span))) + "\n")

    print(json.dumps({
        **extra,
        "reps": reps,
        "plain": timing(reps, traced=False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "lineswarm": lineswarm.__version__},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
