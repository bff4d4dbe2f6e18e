"""Exact segmentation solvers.

``svp_run`` minimizes (segment count, total cost) lexicographically over
all partitions whose every segment passes the validity test.  Candidate
last-change indices (starts) are grouped by their segment count, each
group held as parallel lists of starts, DP costs and validity states.
Each step consults the group with the fewest segments first, in order
of extended cost; for a gaussian cost and a large group that order comes
from one numpy expression.  A start's validity state is created when a
scan first reaches it and caught up only on demand, by one
``ValidityState.catch_up`` call over the values it missed.  That call
owns the rest of the validity protocol: tracing, the stable-test stop
rule and, under a sticky test, the full-window check that settles a
start the previous step did not reach without feeding it.  Its answer
is the segment's validity, so the engine names no validity kind.  With
a stable test, starts the scan finds invalid are dropped for good, so
the runner touches one small group per step, which is what makes the
incremental-GLR configuration scale near-linearly on change-free data.

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
from .validity import ValidityTest, is_segment_valid

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


# Above this many eligible starts a gaussian group scan costs and orders
# them with numpy; below it numpy's per-call overhead loses to the scalar
# closure and a Python sort (measured crossover: 48 to 64 starts).
_ARRAY_SCAN_MIN = 48


class _Group:
    """Starts with one segment count: parallel lists, increasing ``s``.

    ``state[i]`` is None until a scan first reaches start ``s[i]``.
    ``arrays`` caches ``(s, -s, q)`` as numpy arrays for the vectorized
    scan and is cleared whenever the lists change.
    """

    __slots__ = ("s", "q", "state", "arrays")

    def __init__(self, s: int, q: float) -> None:
        self.s = [s]
        self.q = [q]
        self.state: list = [None]
        self.arrays: Optional[tuple] = None

    def add(self, s: int, q: float) -> None:
        self.s.append(s)
        self.q.append(q)
        self.state.append(None)
        self.arrays = None

    def drop(self, indices: list[int]) -> None:
        for i in sorted(indices, reverse=True):
            del self.s[i], self.q[i], self.state[i]
        self.arrays = None


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

    Each group keeps parallel lists of starts ``s`` (increasing), DP
    costs ``q`` and validity states.  A start's state is created the
    first time a scan reaches it, and states of unconsulted starts stay
    frozen until then: ``catch_up`` replays the values they missed and
    says whether ``(s, t]`` is valid, calling ``trace`` for the
    statistics it evaluates, so the per-step work tracks the consulted
    starts instead of the whole candidate set.  Under a sticky test
    ``catch_up`` first checks a start the previous step did not reach
    with one full-window statistic, which settles most doomed starts
    without a value fed.  Within a group, starts are tried in increasing
    extended cost ``q + C(s, t)`` (ties to the latest start) and the scan
    stops at the first valid one, which is the group optimum.  Starts the
    scan finds invalid under a stable test are deleted from their group
    right after that scan.  For a gaussian cost and a group of more than
    ``_ARRAY_SCAN_MIN`` eligible starts, the extended costs and their
    order come from ``gaussian_costs`` over arrays cached until the
    group changes; it rounds exactly like the scalar cost closure.
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
    groups: dict[int, _Group] = {0: _Group(0, 0.0)}

    for t in range(1, n + 1):
        found: Optional[tuple[BiPoint, int]] = None
        for k in sorted(groups):
            group = groups[k]
            starts = group.s
            q = group.q
            m = len(starts) if min_len == 1 else bisect_right(starts, t - min_len)
            if m == 0:
                continue
            if m == 1:
                # On change-free data every step consults a single start;
                # skipping the list build and sort there saves about a
                # tenth of the solve time on a 200k-value series.
                order = [0]
                q_total = [q[0] + cost_fn(starts[0], t)]
            elif vectorize and m > _ARRAY_SCAN_MIN:
                if group.arrays is None:
                    s_arr = np.array(starts)
                    group.arrays = (s_arr, -s_arr, np.array(q))
                s_arr, neg_s, q_arr = group.arrays
                s_arr, neg_s, q_arr = s_arr[:m], neg_s[:m], q_arr[:m]
                q_total = gaussian_costs(cs, css, s_arr, t) + q_arr
                order = np.lexsort((neg_s, q_total)).tolist()
            else:
                q_total = [q[i] + cost_fn(starts[i], t) for i in range(m)]
                # A stable sort of the indices in decreasing order puts
                # cost ties at the latest start.
                order = sorted(range(m - 1, -1, -1), key=q_total.__getitem__)
            states = group.state
            dead: list[int] = []
            for i in order:
                state = states[i]
                if state is None:
                    state = states[i] = new_state(starts[i])
                if state.catch_up(series, t, trace):
                    found = (BiPoint(k + 1, float(q_total[i])), starts[i])
                    break
                elif kill:
                    dead.append(i)
            if dead:
                group.drop(dead)
                if not starts:
                    del groups[k]
            if found is not None:
                break
        if found is None:
            r.append(INF_BIPOINT)
            slink.append(0)
            continue
        r_t, s_t = found
        r.append(r_t)
        slink.append(s_t)
        group = groups.get(r_t.k)
        if group is None:
            groups[r_t.k] = _Group(t, r_t.q)
        else:
            group.add(t, r_t.q)
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
