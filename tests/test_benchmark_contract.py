"""The benchmark harness in ``perfbench/`` still fits the library.

``perfbench/tracer.py`` patches library names where their callers look
them up, and ``perfbench/workloads.py`` imports library functions for its
output checks.  A refactor that moves one of those names breaks the
benchmark; these tests catch it without running the benchmark itself.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import svp.bench
import svp.cli
import svp.core
import svp.costs
import svp.engine
import svp.validity
from svp.core import TimeSeries
from svp.validity import ValidityState, ValidityTest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")

PATCHABLE = (
    svp.bench, svp.cli, svp.core, svp.costs, svp.engine, svp.validity,
    TimeSeries, ValidityTest, ValidityState,
)


def snapshot():
    return [dict(vars(owner)) for owner in PATCHABLE]


def same(before, after):
    return all(
        b.keys() == a.keys() and all(a[k] is v for k, v in b.items())
        for b, a in zip(before, after)
    )


@pytest.mark.parametrize(
    "name,factor,counted",
    [
        ("glr-k4", 20, ("engine.svp_run", "costs.closure", "validity.new_state",
                        "validity.feed", "validity.is_valid", "core.from_values",
                        "core.backtrack")),
        ("detect-csv", 1000, ("cli.main", "engine.svp_run", "costs.closure", "costs.cost",
                              "validity.segment_statistic", "validity.new_state",
                              "validity.feed", "core.from_values", "core.backtrack")),
    ],
)
def test_counting_pass_counts_and_restores(tmp_path, name, factor, counted):
    workload = workloads.WORKLOADS[name].scaled(factor)
    (item,) = workload.prepare(workloads.DEFAULT_SEED, tmp_path)[:1]
    before = snapshot()
    run = tracer.Tracer()
    with tracer.instrumented(run, counting=True):
        assert not same(before, snapshot())
        raw = workload.solve(item)
    assert same(before, snapshot())
    counts = run.counts()
    assert all(counts[key] > 0 for key in counted), counts
    assert counts["steps"] == workload.obs_per_item
    _, problem = workload.check(workloads.DEFAULT_SEED, item, raw)
    assert problem is None


def test_counting_pass_restores_names_when_the_body_raises():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with tracer.instrumented(tracer.Tracer(), counting=True):
            raise RuntimeError("stop")
    assert same(before, snapshot())
