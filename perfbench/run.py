"""svp benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload glr-k4 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics,
measured with no wrappers installed; solve times are given at a fixed
reference speed of the host (see ``speed.py``), and the wall times they
come from are printed beside them.  With ``--trace 1`` it reports the
per-layer metrics of a traced run (see ``tracer.py``).  Every output is
checked outside the timed region.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people and record the versions,
machine and source the result came from.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

from speed import NOMINAL_S, Speedometer, probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
WARMUP_SHRINK = 8  # the warm-up item is this many times smaller than a timed one

END_TO_END = {
    "series_s.p50": "s",
    "obs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "engine.svp_run_s": "s",
    "engine.self_s": "s",
    "engine.cost_calls_per_step": "count",
    "engine.feeds_per_step": "count",
    "engine.op_pelt_run_s": "s",
    "engine.pelt_ratio": "ratio",
    "validity.states": "count",
    "validity.feeds": "count",
    "validity.stat_reads": "count",
    "validity.tripped": "count",
    "validity.kill_ratio": "ratio",
    "validity.self_s": "s",
    "validity.us_per_feed": "us",
    "validity.segment_statistic_s": "s",
    "costs.calls": "count",
    "costs.self_s": "s",
    "costs.ns_per_call": "ns",
    "core.from_values_s": "s",
    "core.backtrack_s": "s",
    "cli.self_s": "s",
    "bench.generate_s": "s",
    "trace.overhead_ratio": "ratio",
}


def environment() -> dict:
    """Versions, machine and source identity recorded with every result."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "svp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    try:
        # A checkout that is not a repository of its own has no sha, even inside another one.
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


def setup_seconds(workload) -> float:
    """Wall time of a fresh interpreter that imports svp and builds the workload's config."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", workload.setup_code()], cwd=ROOT, env=env)
    # A wait with a timeout polls at up to 50 ms intervals, which would
    # round the sample up to the next poll; a watchdog kills a hung child
    # and the wait itself blocks until the exit.
    watchdog = threading.Timer(120.0, child.kill)
    watchdog.start()
    try:
        code = child.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, child.args)
    return elapsed


def setup_sample(workload) -> tuple:
    """(wall, reference) seconds of one set-up; probes right before and after it give the speed."""
    before = probe()
    wall = setup_seconds(workload)
    return wall, wall * statistics.fmean(NOMINAL_S / d for d in (before, probe()))


class Outcomes:
    """Items attempted and failed; a failure never stops the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problem) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


def timed_solve(workload, item):
    """Run one item; returns (seconds, raw output or None, problem or None)."""
    start = time.perf_counter()
    try:
        raw = workload.solve(item)
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc(limit=3)
    return time.perf_counter() - start, raw, None


def checked(workload, seed, item, raw, problem):
    """Boundaries and problem of one solved item; a crashing check is a failure."""
    if problem is not None:
        return None, problem
    try:
        return workload.check(seed, item, raw)
    except Exception:
        return None, traceback.format_exc(limit=3)


def warm_up(workload, seed, workdir) -> None:
    """Solve one smaller item so imports and first-call set-up happen before timing."""
    small = workload.scaled(WARMUP_SHRINK)
    (workdir / "warm-up").mkdir()
    small.solve(small.prepare(seed, workdir / "warm-up")[0])


def tail_percentile(samples):
    """(name, value) of the highest of p99.9/p99/p90 with ten samples beyond it, or None."""
    for pct in ("99.9", "99", "90"):
        if len(samples) * (100 - float(pct)) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return "series_s.p" + pct.replace(".", ""), cuts[round(float(pct) * 10) - 1]
    return None


def run_end_to_end(workload, seed, seconds, workdir, outcomes, extra) -> dict:
    start = time.perf_counter()
    items = workload.prepare(seed, workdir)
    extra["bench.generate_s"] = time.perf_counter() - start
    warm_up(workload, seed, workdir)

    # Set-up samples are taken between items, so that they see the same
    # spread of machine states as the items do.
    setups = []
    times = []
    walls = []
    factors = []
    deadline = time.perf_counter() + seconds
    for index in itertools.count():
        item = items[index % len(items)]
        with Speedometer() as speed:
            elapsed, raw, problem = timed_solve(workload, item)
        factors.append(speed.factor())
        times.append((elapsed - speed.probe_s()) * factors[-1])
        walls.append(elapsed)
        _, problem = checked(workload, seed, item, raw, problem)
        outcomes.record(problem)
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_sample(workload))
        # Start another item only if it should end within the budget.
        if time.perf_counter() + elapsed > deadline:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_sample(workload))
    extra["series_s.count"] = len(times)
    extra["series_s.samples"] = times
    extra["series_wall_s.p50"] = statistics.median(walls)
    extra["series_wall_s.samples"] = walls
    extra["host.speed_factors"] = factors
    extra["setup_s.samples"] = [ref for _, ref in setups]
    extra["setup_wall_s.samples"] = [wall for wall, _ in setups]
    extra["fail_frac"] = outcomes.failed / outcomes.attempted
    tail = tail_percentile(times)
    if tail is not None:
        extra[tail[0]] = tail[1]
    return {
        "series_s.p50": statistics.median(times),
        "obs_per_s": statistics.median(workload.obs_per_item / t for t in times),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def pelt_reference(values) -> tuple:
    """Untraced wall seconds of svp-glr and of PELT on one series, same gamma and penalty."""
    from svp.bench import make_detector
    from svp.core import TimeSeries
    from svp.costs import CostModel
    from svp.engine import op_pelt_run

    series = TimeSeries.from_values(values)
    n = len(series)
    detect = make_detector("svp-glr", n, 1)
    start = time.perf_counter()
    detect(series)
    svp_s = time.perf_counter() - start
    start = time.perf_counter()
    op_pelt_run(series, CostModel("gaussian"), 2.0 * math.log(n))
    return svp_s, time.perf_counter() - start


def run_traced(workload, seed, seconds, workdir, outcomes, extra) -> dict:
    """Rounds of an untraced, a timed and a counting pass on the first item, at least two rounds."""
    from tracer import Tracer, instrumented, layer_metrics, sampling

    start = time.perf_counter()
    items = workload.prepare(seed, workdir)
    generate_s = time.perf_counter() - start
    warm_up(workload, seed, workdir)
    item = items[0]
    deadline = time.perf_counter() + seconds
    svp_s, pelt_s = pelt_reference(workload.reference_values(item))

    modes = ("untraced", "timed", "counting")
    walls = {mode: [] for mode in modes}
    layers, counts = [], []
    while True:
        round_start = time.perf_counter()
        tracers, bounds = {}, {}
        for mode in modes:
            tracers[mode] = tracer = Tracer()
            with ExitStack() as stack:
                if mode != "untraced":
                    stack.enter_context(instrumented(tracer, counting=mode == "counting"))
                if mode == "timed":
                    stack.enter_context(sampling(tracer))
                elapsed, raw, problem = timed_solve(workload, item)
                if problem is None and mode != "untraced":
                    try:
                        workload.report(item, raw)
                    except Exception:
                        problem = traceback.format_exc(limit=3)
            bounds[mode], problem = checked(workload, seed, item, raw, problem)
            if problem is None and bounds[mode] != bounds["untraced"]:
                problem = f"{mode} boundaries {bounds[mode]} differ from untraced {bounds['untraced']}"
            if problem is None and mode == "counting" and counts and tracer.counts() != counts[0]:
                problem = f"trace counts {tracer.counts()} differ from the first pass {counts[0]}"
            outcomes.record(problem)
            walls[mode].append(elapsed)
        layers.append(layer_metrics(tracers["timed"], tracers["counting"]))
        counts.append(tracers["counting"].counts())
        now = time.perf_counter()
        if len(layers) >= 2 and now + (now - round_start) > deadline:
            break

    untraced = statistics.median(walls["untraced"])
    extra["trace.rounds"] = len(layers)
    extra["trace.counts"] = counts[0]
    extra["trace.samples"] = dict(tracers["timed"].samples)
    extra["trace.counting_ratio"] = statistics.median(walls["counting"]) / untraced
    # Counts repeat exactly (checked above), so they are reported as integers.
    metrics = {
        name: first if isinstance(first, int) else statistics.median(layer[name] for layer in layers)
        for name, first in layers[0].items()
    }
    metrics["engine.op_pelt_run_s"] = pelt_s
    metrics["engine.pelt_ratio"] = svp_s / pelt_s
    metrics["bench.generate_s"] = generate_s
    metrics["trace.overhead_ratio"] = statistics.median(walls["timed"]) / untraced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "svp" / "__init__.py").is_file():
        sys.stderr.write(f"error: no svp sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    outcomes = Outcomes()
    extra: dict = {}
    try:
        run = run_traced if args.trace else run_end_to_end
        metrics = run(workload, args.seed, args.seconds, workdir, outcomes, extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    for name, value in list(metrics.items()) + list(extra.items()):
        unit = units.get(name, "")
        print(f"{name:32s} {value} {unit}".rstrip())
    for problem in outcomes.problems:
        print("FAILED:", problem.strip().replace("\n", " | "))
    print("record:", json.dumps({
        "workload": workload.name, "params": workload.params(), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": environment(), "extra": extra,
    }, sort_keys=True))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
