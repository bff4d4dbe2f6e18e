"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload end to end and traced at small sizes and expects
no failures, the full metric sets of ``BENCHMARK.json`` and repeatable
trace counts.  Then it feeds corrupted outputs and a crashing solve
through the same loop and expects them to be counted as failures.
Exits non-zero on the first unmet expectation.
"""

from __future__ import annotations

import itertools
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import svp.bench  # noqa: E402
import svp.cli  # noqa: E402
import svp.engine  # noqa: E402
import svp.validity  # noqa: E402
from svp.core import Segmentation, TimeSeries  # noqa: E402
from svp.validity import ValidityState, ValidityTest  # noqa: E402
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, Item, pinned_problem  # noqa: E402

SEED = 3
SHRINK = {"glr-k4": 10, "rank-t3": 5, "detect-csv": 50}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


class Corrupted:
    """A workload whose solve output is altered by ``corrupt`` before the check."""

    def __init__(self, inner, corrupt) -> None:
        self.inner = inner
        self.corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def solve(self, item):
        return self.corrupt(item, self.inner.solve(item))


def merge_first_change(item, raw):
    """Move the first interior boundary to just before the second one.

    The first segment then spans a true change, so its test must fail.
    """
    first = raw[0].boundaries
    shifted = (0, first[2] - 1) + first[2:]
    return (Segmentation(shifted),) + raw[1:]


def inflate_q(item, code):
    path = item.paths["out"]
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["q"] = 1.5 * payload["q"] + 1.0
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return code


def crash_first():
    """A corruption that raises on the first item only."""
    calls = itertools.count()

    def corrupt(item, raw):
        if next(calls) == 0:
            raise RuntimeError("injected crash")
        return raw

    return corrupt


def run_loop(workload, trace: bool, workdir: Path, seconds: float = 0.5) -> tuple:
    outcomes = run.Outcomes()
    extra: dict = {}
    loop = run.run_traced if trace else run.run_end_to_end
    sub = Path(tempfile.mkdtemp(dir=workdir))
    metrics = loop(workload, SEED, seconds, sub, outcomes, extra)
    return metrics, outcomes, extra


def patched_names() -> list:
    return [
        svp.bench.svp_run, svp.cli.svp_run, svp.cli.main, svp.cli.cost,
        svp.cli.segment_statistic, svp.validity.segment_statistic,
        svp.engine.make_cost_fn, svp.engine.backtrack,
        TimeSeries.__dict__["from_values"], ValidityTest.new_state,
        ValidityState.feed, ValidityState.__dict__["is_valid"],
        ValidityState.__dict__["statistic"], signal.getsignal(signal.SIGALRM),
    ]


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END,
        "BENCHMARK.json end_to_end metrics differ from run.END_TO_END",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
        "BENCHMARK.json per_layer metrics differ from run.PER_LAYER",
    )
    expect(
        {w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
        "BENCHMARK.json names a workload that workloads.WORKLOADS lacks",
    )
    for name, workload in WORKLOADS.items():
        pinned = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))[name]["items"][0]
        item = Item(index=0, series=None)
        expect(
            pinned_problem(workload, DEFAULT_SEED, item, pinned) is None
            and pinned_problem(workload, DEFAULT_SEED, item, [[0, 1]]) is not None,
            f"{name}: the pinned record of the default seed is not enforced",
        )
    expect(run.tail_percentile([1.0] * 99) is None, "p90 needs 100 samples")
    expect(run.tail_percentile([1.0] * 100)[0] == "series_s.p90", "100 samples give p90")

    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for name, full in WORKLOADS.items():
            tiny = full.scaled(SHRINK[name])

            before = patched_names()
            metrics, outcomes, extra = run_loop(tiny, False, workdir)
            expect(patched_names() == before, f"{name}: the SIGALRM handler was not restored")
            expect(set(metrics) == set(run.END_TO_END), f"{name}: end-to-end metric set")
            expect(all(v > 0 for v in metrics.values()), f"{name}: a metric is not positive")
            expect(outcomes.failed == 0 and extra["fail_frac"] == 0, f"{name}: {outcomes.problems}")

            metrics, outcomes, extra = run_loop(tiny, True, workdir)
            expect(patched_names() == before, f"{name}: a traced name or the SIGALRM handler was not restored")
            expect(set(metrics) == set(run.PER_LAYER), f"{name}: per-layer metric set")
            expect(outcomes.failed == 0, f"{name}: traced run failed: {outcomes.problems}")
            expect(extra["trace.rounds"] >= 2, f"{name}: fewer than two traced rounds")
            expect(metrics["validity.feeds"] > 0 and metrics["costs.calls"] > 0, f"{name}: counts")
            sampled = metrics["engine.self_s"] + metrics["validity.self_s"] + metrics["costs.self_s"]
            expect(sampled > 0, f"{name}: the stack sampler charged no time to svp layers")

            corrupt = inflate_q if name == "detect-csv" else merge_first_change
            _, outcomes, extra = run_loop(Corrupted(tiny, corrupt), False, workdir)
            expect(extra["fail_frac"] > 0, f"{name}: corrupted output passed the check")

            _, outcomes, extra = run_loop(Corrupted(tiny, crash_first()), False, workdir, seconds=3.0)
            expect(0 < outcomes.failed < outcomes.attempted, f"{name}: crashes not isolated")
            print(f"selftest {name}: ok")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
