"""Exact segmentation solvers.

``svp_run`` minimizes (segment count, total cost) lexicographically over
all partitions whose every segment passes the validity test.  Candidate
last-change indices (starts) are grouped by their segment count, each
group a heap of starts whose DP values live only in the table.
Each step consults the group with the fewest segments first, in order
of extended cost with ties to the latest start.  The heap holds lower
bounds on the starts' extended costs: a key computed at an earlier step,
lowered by the cost layer's ``max_cost_fall``.  A consult recomputes a
cost with the scalar cost closure only when its bound reaches the top, so
a start whose bound stays above the group optimum is not costed at all.
A start's validity state is created when a scan first reaches it and
caught up only on demand, by one ``ValidityState.catch_up`` call over
the values it missed.  That call owns the rest of the validity
protocol: tracing, the stable-test stop rule and, under a sticky test,
the full-window check that settles a start the previous step did not
reach without feeding it.  The engine hands it the latest change,
``slink[t - 1]``, as a split the check may try first.  Its answer is the
segment's validity, so the engine names no validity kind, and it names a
cost kind only to cost a run-ahead's steps in one vectorized call.  With
a stable test, starts the scan finds invalid are dropped for good, so the
runner touches one small group per step, which is what makes the
incremental-GLR configuration scale near-linearly on change-free data.
Inside a long valid segment the runner runs ahead: one
``ValidityState.extend_while_valid`` call answers the steps up to the
segment's first invalid end at once.

``op_pelt_run`` is the penalized optimal-partitioning baseline; its
``prune`` flag applies the classic PELT inequality.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    INF_BIPOINT,
    ZERO_BIPOINT,
    BiPoint,
    ConfigError,
    DpTable,
    InfeasiblePartitionError,
    Segmentation,
    TimeSeries,
    backtrack,
)
from .costs import CostModel, gaussian_costs, make_cost_fn, max_cost_fall
from .validity import ValidityState, ValidityTest, is_segment_valid

StatTrace = Callable[[int, int, float], None]


@dataclass(frozen=True)
class EngineConfig:
    """Cost, validity test and minimum segment length for one solver run."""

    cost: CostModel
    test: ValidityTest
    min_seg_len: int = 1

    def __post_init__(self) -> None:
        if self.min_seg_len < 1:
            raise ConfigError("min_seg_len must be at least 1")


class SvpResult(NamedTuple):
    table: DpTable
    segmentation: Segmentation


def svp_run(
    series: TimeSeries, config: EngineConfig, stat_trace: Optional[StatTrace] = None
) -> SvpResult:
    """Solve the smallest-valid-partitioning problem exactly.

    The table satisfies r[t] = lexicographic minimum of r[s] extended by
    one valid segment (s, t] of length at least ``min_seg_len``, with
    r[0] = (0, 0); cost ties go to the latest start s.  The segmentation
    attains r[n].

    ``stat_trace(s, t, value)`` is called for every validity statistic
    the run evaluates, which supports exactness audits: every prefix a
    sticky state is fed, the final statistic of a non-sticky catch-up,
    and the full-window value with which ``ValidityState.catch_up``
    settles a sticky start the previous step did not reach.
    """
    n = len(series)
    if config.min_seg_len > n:
        raise InfeasiblePartitionError(
            f"min_seg_len {config.min_seg_len} exceeds the series length {n}"
        )
    r, slink = _run_lazy(series, config, stat_trace)
    if not r[n].is_finite:
        raise InfeasiblePartitionError(
            "no partition satisfies the validity constraint; "
            "check gamma >= 0 and min_seg_len"
        )
    table = DpTable(r=tuple(r), s=tuple(slink))
    return SvpResult(table=table, segmentation=backtrack(table))


def _run_lazy(
    series: TimeSeries, config: EngineConfig, trace: Optional[StatTrace]
) -> tuple[list[BiPoint], list[int]]:
    """Bucketed runner: consult starts grouped by segment count.

    ``groups[k]`` holds the starts ``s`` with ``r[s].k == k``: a heap of
    ``(key, -s, s)`` entries and a list of waiting starts (increasing)
    that no consult has found eligible yet; a start's DP cost is read
    from ``r``.  ``states[s]`` is the start's validity state, created the
    first time a scan reaches it and deleted when the scan kills it.
    States of unconsulted starts stay frozen until then: ``catch_up``
    replays the values they missed and says whether ``(s, t]`` is valid,
    calling ``trace`` for the statistics it evaluates, so the per-step
    work tracks the consulted starts instead of the whole candidate set.
    Under a sticky test ``catch_up`` first checks a start the previous
    step did not reach with one full-window statistic, which settles most
    doomed starts without a value fed; the latest change ``slink[t - 1]``,
    read once per step, is passed as a split that the check may try first
    (for GLR, one constant-time gain that settles most doomed starts
    before the full scan).

    Within a group, starts are tried in increasing extended cost
    ``r[s].q + C(s, t)`` (ties to the latest start) and the scan stops at
    the first valid one, which is the group optimum.  Every heap key is a
    lower bound on its start's extended cost at any later step: a consult
    moves its newly eligible waiting starts into the heap with the key
    ``r[s].q - slack`` (every cost is >= 0), and a key computed at step t
    goes back lowered by ``slack``, the cost layer's ``max_cost_fall``: 0
    for mad, the gaussian rounding bound, inf for the costs that can
    fall.  The scan keeps the keys it computes at step t in a second
    heap, ``exact``; while the smallest bound lies below the smallest
    exact key, that start is costed with the scalar closure and moves
    over, otherwise the smallest exact key's start is consulted.  So
    starts are consulted in the order a full sort of the group would
    give, and a start whose bound stays above the group optimum is never
    costed.  Starts the scan finds invalid under a stable test are
    dropped.

    Run-ahead: when the start s found at step t is the only eligible one
    in its group k and every lower group, it answers each later step up
    to the horizon, where another of those starts becomes eligible, or
    until (s, t'] turns invalid.  ``extend_while_valid`` feeds s to that
    end, the steps in between get ``r[s].q`` plus their costs (one
    ``gaussian_costs`` call, else the closure per step), ``slink`` s and
    a place among the waiting starts of group k + 1, and the loop resumes
    at the stop step, with s dropped first if a stable test failed it
    there.
    """
    n = len(series)
    test = config.test
    new_state = test.new_state
    kill = test.gamma_stable
    min_len = config.min_seg_len
    cost_fn = make_cost_fn(series, config.cost)
    slack = max_cost_fall(series, config.cost)
    vectorize = config.cost.kind == "gaussian"
    cs = series.cumsum
    css = series.cumsum_sq
    r: list[BiPoint] = [ZERO_BIPOINT]
    slink: list[int] = [0]
    groups: dict[int, tuple[list, deque[int]]] = {0: ([], deque([0]))}
    states: dict[int, ValidityState] = {}

    t = 1
    while t <= n:
        found: Optional[tuple[BiPoint, int]] = None
        split = slink[t - 1]
        # The first step at which a start other than the one found may be
        # eligible in its group or a lower one.
        horizon = n + 1
        for k in sorted(groups):
            heap, waiting = groups[k]
            while waiting and waiting[0] <= t - min_len:
                s = waiting.popleft()
                heappush(heap, (r[s].q - slack, -s, s))
            # Entries costed at step t, and consulted starts that stay in
            # the group; both go back to the heap as lower bounds.
            exact: list[tuple[float, int, int]] = []
            kept: list[tuple[float, int, int]] = []
            while heap or exact:
                if heap and (not exact or heap[0] < exact[0]):
                    _, neg_s, s = heappop(heap)
                    heappush(exact, (r[s].q + cost_fn(s, t), neg_s, s))
                    continue
                entry = heappop(exact)
                key, _, s = entry
                state = states.get(s)
                if state is None:
                    state = states[s] = new_state(s)
                if state.catch_up(series, t, trace, split):
                    found = (BiPoint(k + 1, key), s)
                    kept.append(entry)
                    break
                if kill:
                    del states[s]
                else:
                    kept.append(entry)
            for key, neg_s, s in exact + kept:
                heappush(heap, (key - slack, neg_s, s))
            if len(heap) > (found is not None):
                horizon = t
            elif waiting:
                horizon = min(horizon, waiting[0] + min_len)
            elif not heap:
                del groups[k]
            if found is not None:
                break
        if found is None:
            r.append(INF_BIPOINT)
            slink.append(0)
            t += 1
            continue
        r_t, s_t = found
        r.append(r_t)
        slink.append(s_t)
        groups.setdefault(r_t.k, ([], deque()))[1].append(t)
        t += 1
        if horizon > t:
            k = r_t.k - 1
            stop = states[s_t].extend_while_valid(series, horizon - 1, trace)
            if stop > t:
                q = r[s_t].q
                if vectorize:
                    run = (gaussian_costs(cs, css, s_t, np.arange(t, stop)) + q).tolist()
                else:
                    run = [q + cost_fn(s_t, e) for e in range(t, stop)]
                r.extend([BiPoint(k + 1, v) for v in run])
                slink.extend([s_t] * (stop - t))
                groups[k + 1][1].extend(range(t, stop))
            if stop < horizon and kill:
                # s_t is the one entry of its group's heap: no other
                # start of the group was eligible
                heap, waiting = groups[k]
                heap.pop()
                del states[s_t]
                if not waiting:
                    del groups[k]
            t = stop
    return r, slink


def segmentation_is_valid(
    series: TimeSeries, segmentation: Segmentation, test: ValidityTest
) -> bool:
    """Recheck every returned segment against the test by full rescans."""
    return all(is_segment_valid(series, a, b, test) for a, b in segmentation.segments())


def op_pelt_run(
    series: TimeSeries, cost_model: CostModel, penalty: float, prune: bool = True
) -> tuple[float, Segmentation]:
    """Penalized optimal partitioning, minimizing sum of (cost + penalty).

    With ``prune`` the classic inequality rule drops candidate starts
    that can never be optimal again; output is identical either way.
    Cost ties go to the latest start index.
    """
    n = len(series)
    cost_fn = make_cost_fn(series, cost_model)
    f = [0.0] + [math.inf] * n
    last = [0] * (n + 1)
    cands = [0]
    for t in range(1, n + 1):
        raw: list[float] = []
        best = math.inf
        best_s = 0
        for s in cands:
            c = f[s] + cost_fn(s, t)
            raw.append(c)
            if c + penalty <= best:
                best = c + penalty
                best_s = s
        f[t] = best
        last[t] = best_s
        if prune:
            cands = [s for s, c in zip(cands, raw) if c <= best]
        cands.append(t)
    bounds = [n]
    t = n
    while t > 0:
        t = last[t]
        bounds.append(t)
    return f[n], Segmentation(boundaries=tuple(reversed(bounds)))
