"""Per-layer times and counts, measured from outside svp.

A traced run makes two kinds of pass over the same item.

* A timed pass wraps the entry points called a few times per item
  (``svp_run``, ``TimeSeries.from_values``, ``backtrack``,
  ``segment_statistic``, ``cli.main`` and the CLI's ``cost``) with timers,
  and samples the call stack once per millisecond of wall time.  Each
  sample goes to the layer of the innermost frame that belongs to an svp
  module, and a layer's self time is its share of the samples times the
  sampled wall time.  That runs at close to untraced speed.  Per-call
  timers cannot: the cost closure and a validity feed take a few hundred
  nanoseconds, about what a clock read costs.  Samples are counted, not
  weighted by the time since the previous one, because a signal waits
  for the interpreter's next safe point: a garbage collection or a host
  stall would otherwise be charged to whatever runs right after it.
* A counting pass wraps the same entry points and also the leaves called
  millions of times (the closure ``make_cost_fn`` returns, and
  ``ValidityTest.new_state``, ``ValidityState.feed``, ``.is_valid`` and
  ``.statistic``) with counters.

``instrumented`` swaps each name for its wrapper for the duration of a
``with`` block and puts the originals back on exit, also when the block
raises.  Names are patched where their callers look them up: the engine
calls ``make_cost_fn`` and ``backtrack`` through ``svp.engine``, the CLI
calls ``svp_run``, ``cost`` and ``segment_statistic`` through ``svp.cli``,
and ``make_detector`` closures call ``svp_run`` through ``svp.bench``.
"""

from __future__ import annotations

import signal
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import svp.bench
import svp.cli
import svp.engine
import svp.validity
from svp.core import TimeSeries
from svp.validity import ValidityState, ValidityTest

LAYER_OF_MODULE = {
    "svp.cli": "cli",
    "svp.core": "core",
    "svp.costs": "costs",
    "svp.validity": "validity",
    "svp.engine": "engine",
    "svp.bench": "bench",
}
SAMPLE_S = 0.001

# (owner, attribute, name) of the entry points both passes wrap.
ENTRY_POINTS = (
    (svp.bench, "svp_run", "engine.svp_run"),
    (svp.cli, "svp_run", "engine.svp_run"),
    (svp.cli, "main", "cli.main"),
    (svp.cli, "cost", "costs.cost"),
    (svp.cli, "segment_statistic", "validity.segment_statistic"),
    (svp.validity, "segment_statistic", "validity.segment_statistic"),
    (svp.engine, "backtrack", "core.backtrack"),
)


class Tracer:
    """What one pass recorded: entry-point seconds, call counts, stack samples."""

    def __init__(self) -> None:
        self.total = defaultdict(float)
        self.calls = Counter()
        self.samples = Counter()
        self.sampled_s = 0.0
        self.steps = 0
        self.states: list = []

    def timed(self, name: str, fn):
        clock = time.perf_counter
        total = self.total

        def wrapped(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total[name] += clock() - start

        return wrapped

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def counts(self) -> dict:
        """The deterministic part of a counting pass: calls per name, steps and trips."""
        out = {k: self.calls[k] for k in sorted(self.calls)}
        out["steps"] = self.steps
        out["tripped"] = self.tripped()
        return out

    def tripped(self) -> int:
        return sum(1 for state in self.states if state.tripped)

    def layer_s(self, layer: str) -> float:
        """Self seconds of a layer: its share of the stack samples times the sampled wall."""
        count = sum(self.samples.values())
        return self.sampled_s * self.samples[layer] / count if count else 0.0


@contextmanager
def sampling(tracer: Tracer):
    """Count, once per millisecond, which svp layer runs on top of the stack."""
    samples = tracer.samples

    def on_alarm(signum, frame):
        while frame is not None and frame.f_globals.get("__name__") not in LAYER_OF_MODULE:
            frame = frame.f_back
        samples["other" if frame is None else LAYER_OF_MODULE[frame.f_globals["__name__"]]] += 1

    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.sampled_s += time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def instrumented(tracer: Tracer, counting: bool):
    """Install timers (``counting=False``) or counters for the body of the ``with`` block."""
    wrap = tracer.counted if counting else tracer.timed
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def steps_of(run):
        def counted_steps(series, *args, **kwargs):
            tracer.steps += len(series)
            return run(series, *args, **kwargs)

        return counted_steps

    for owner, attr, name in ENTRY_POINTS:
        fn = owner.__dict__[attr]
        patch(owner, attr, wrap(name, steps_of(fn) if name == "engine.svp_run" else fn))
    patch(TimeSeries, "from_values", classmethod(wrap("core.from_values", TimeSeries.from_values.__func__)))
    if counting:
        make_cost_fn = svp.engine.make_cost_fn
        new_state = ValidityTest.new_state

        def counted_make_cost_fn(series, model):
            return wrap("costs.closure", make_cost_fn(series, model))

        def recorded_new_state(test, start):
            state = new_state(test, start)
            tracer.states.append(state)
            return state

        patch(svp.engine, "make_cost_fn", counted_make_cost_fn)
        patch(ValidityTest, "new_state", wrap("validity.new_state", recorded_new_state))
        patch(ValidityState, "feed", wrap("validity.feed", ValidityState.feed))
        patch(ValidityState, "is_valid", property(wrap("validity.is_valid", ValidityState.is_valid.fget)))
        patch(ValidityState, "statistic", property(wrap("validity.statistic", ValidityState.statistic.fget)))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(timed: Tracer, counting: Tracer) -> dict:
    """Per-layer numbers of one item, keyed by the benchmark's metric names.

    Times come from the timed pass (entry-point totals and sampled layer
    self times), counts from the counting pass.
    """
    calls, layer_s = counting.calls, timed.layer_s
    steps = max(counting.steps, 1)
    states = calls["validity.new_state"]
    feeds = calls["validity.feed"]
    tripped = counting.tripped()
    cost_calls = calls["costs.closure"] + calls["costs.cost"]
    return {
        "engine.svp_run_s": timed.total["engine.svp_run"],
        "engine.self_s": layer_s("engine"),
        "engine.cost_calls_per_step": calls["costs.closure"] / steps,
        "engine.feeds_per_step": feeds / steps,
        "validity.states": states,
        "validity.feeds": feeds,
        "validity.stat_reads": calls["validity.is_valid"] + calls["validity.statistic"],
        "validity.tripped": tripped,
        "validity.kill_ratio": tripped / states if states else 0.0,
        "validity.self_s": layer_s("validity"),
        "validity.us_per_feed": 1e6 * layer_s("validity") / feeds if feeds else 0.0,
        "validity.segment_statistic_s": timed.total["validity.segment_statistic"],
        "costs.calls": cost_calls,
        "costs.self_s": layer_s("costs"),
        "costs.ns_per_call": 1e9 * layer_s("costs") / cost_calls if cost_calls else 0.0,
        "core.from_values_s": timed.total["core.from_values"],
        "core.backtrack_s": timed.total["core.backtrack"],
        "cli.self_s": layer_s("cli"),
    }
