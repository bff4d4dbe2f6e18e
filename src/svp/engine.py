"""Exact segmentation solvers.

``svp_run`` minimizes (segment count, total cost) lexicographically over
all partitions whose every segment passes the validity test.  Candidate
last-change indices (starts) are grouped by their segment count, each
group a list of starts whose DP values live only in the table.
Each step consults the group with the fewest segments first, in order
of extended cost with ties to the latest start: one ``np.lexsort`` per
group of two or more eligible starts.  A start's validity state is
created when a scan first reaches it and caught up only on demand, by one
``ValidityState.catch_up`` call over the values it missed.  That call
owns the rest of the validity protocol: tracing, the stable-test stop
rule and, under a sticky test, the full-window check that settles a
start the previous step did not reach without feeding it.  The engine
hands it the latest change, ``slink[t - 1]``, as a split the check may
try first.  Its answer is the segment's validity, so the engine names
no validity kind.  With a stable test, starts the scan finds invalid are
dropped for good, so the runner touches one small group per step, which
is what makes the incremental-GLR configuration scale near-linearly on
change-free data.  Inside a long valid segment the runner runs ahead:
one ``ValidityState.extend_while_valid`` call answers the steps up to
the segment's first invalid end at once.

``op_pelt_run`` is the penalized optimal-partitioning baseline; its
``prune`` flag applies the classic PELT inequality.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
from .costs import CostModel, gaussian_costs, make_cost_fn
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

    ``groups[k]`` lists the starts ``s`` (increasing) with ``r[s].k == k``;
    a start's DP cost is read from ``r``.  ``states[s]`` is the start's
    validity state, created the first time a scan reaches it and deleted
    when the scan kills it.  States of unconsulted starts stay frozen
    until then: ``catch_up`` replays the values they missed and says
    whether ``(s, t]`` is valid, calling ``trace`` for the statistics it
    evaluates, so the per-step work tracks the consulted starts instead
    of the whole candidate set.  Under a sticky test ``catch_up`` first
    checks a start the previous step did not reach with one full-window
    statistic, which settles most doomed starts without a value fed; the
    latest change ``slink[t - 1]``, read once per step, is passed as a
    split that the check may try first (for GLR, one constant-time gain
    that settles most doomed starts before the full scan).
    Within a group, starts are tried in increasing extended cost
    ``r[s].q + C(s, t)`` (ties to the latest start) and the scan stops at
    the first valid one, which is the group optimum.  Starts the scan
    finds invalid under a stable test are deleted from their group right
    after that scan.  A group of two or more eligible starts is ordered
    by one ``np.lexsort`` over ``arrays[k]``, its ``(s, -s, q)`` cached
    until the group changes; its costs come from ``gaussian_costs`` for
    the gaussian cost, which rounds exactly like the scalar closure, and
    from the scalar closure otherwise.

    Run-ahead: when the start s found at step t is the only eligible one
    in its group k and every lower group, it answers each later step up
    to the horizon, where another of those starts becomes eligible, or
    until (s, t'] turns invalid.  ``extend_while_valid`` feeds s to that
    end, the steps in between get ``r[s].q`` plus their costs (one
    ``gaussian_costs`` call, else the closure per step), ``slink`` s and
    a place in group k + 1, and the loop resumes at the stop step, with s
    dropped first if a stable test failed it there.
    """
    n = len(series)
    test = config.test
    new_state = test.new_state
    kill = test.gamma_stable
    min_len = config.min_seg_len
    cost_fn = make_cost_fn(series, config.cost)
    vectorize = config.cost.kind == "gaussian"
    cs = series.cumsum
    css = series.cumsum_sq
    r: list[BiPoint] = [ZERO_BIPOINT]
    slink: list[int] = [0]
    groups: dict[int, list[int]] = {0: [0]}
    arrays: dict[int, tuple] = {}
    states: dict[int, ValidityState] = {}

    t = 1
    while t <= n:
        found: Optional[tuple[BiPoint, int]] = None
        split = slink[t - 1]
        # The first step at which a start other than the one found may be
        # eligible in its group or a lower one.
        horizon = n + 1
        for k in sorted(groups):
            starts = groups[k]
            m = len(starts) if min_len == 1 else bisect_right(starts, t - min_len)
            if m == 0:
                horizon = min(horizon, starts[0] + min_len)
                continue
            if m == 1:
                # A group of one eligible start needs no array build or sort.
                order = [0]
                q_total = [r[starts[0]].q + cost_fn(starts[0], t)]
            else:
                if k not in arrays:
                    s_arr = np.array(starts)
                    arrays[k] = (s_arr, -s_arr, np.array([r[s].q for s in starts]))
                s_arr, neg_s, q_arr = arrays[k]
                if vectorize:
                    costs = gaussian_costs(cs, css, s_arr[:m], t)
                else:
                    costs = np.array([cost_fn(s, t) for s in starts[:m]])
                q_total = costs + q_arr[:m]
                # Increasing extended cost, ties to the latest start.
                order = np.lexsort((neg_s[:m], q_total))
            dead: list[int] = []
            for i in order:
                s = starts[i]
                state = states.get(s)
                if state is None:
                    state = states[s] = new_state(s)
                if state.catch_up(series, t, trace, split):
                    found = (BiPoint(k + 1, float(q_total[i])), s)
                    break
                elif kill:
                    dead.append(i)
            if dead:
                for i in sorted(dead, reverse=True):
                    del states[starts.pop(i)]
                arrays.pop(k, None)
                if not starts:
                    del groups[k]
            if found is not None:
                other = 1 if starts[0] == found[1] else 0
                if len(starts) > other:
                    horizon = min(horizon, starts[other] + min_len)
                break
            if starts:
                horizon = min(horizon, starts[0] + min_len)
        if found is None:
            r.append(INF_BIPOINT)
            slink.append(0)
            t += 1
            continue
        r_t, s_t = found
        r.append(r_t)
        slink.append(s_t)
        groups.setdefault(r_t.k, []).append(t)
        arrays.pop(r_t.k, None)
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
                groups[k + 1].extend(range(t, stop))
            if stop < horizon and kill:
                starts = groups[k]
                starts.remove(s_t)
                del states[s_t]
                arrays.pop(k, None)
                if not starts:
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
