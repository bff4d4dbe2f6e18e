"""Exact segmentation solvers.

``svp_run`` minimizes (segment count, total cost) lexicographically over
all partitions whose every segment passes the validity test.  Candidate
last-change indices are grouped by their segment count; each step
consults the group with the fewest segments first and catches frozen
validity states up only on demand.  With a stable test, invalid
candidates are dropped for good, so the runner touches one small group
per step, which is what makes the incremental-GLR configuration scale
near-linearly on change-free data.

``op_pelt_run`` is the penalized optimal-partitioning baseline; its
``prune`` flag applies the classic PELT inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
from .costs import CostModel, make_cost_fn
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


class Candidate:
    """A live last-change index: its DP cost and its validity state."""

    __slots__ = ("s", "q", "state", "dead")

    def __init__(self, s: int, q: float, state) -> None:
        self.s = s
        self.q = q
        self.state = state
        self.dead = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"Candidate(s={self.s}, q={self.q:g}, dead={self.dead})"


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
    the run evaluates, which supports exactness audits.
    """
    r, slink = _run_lazy(series, config, stat_trace)
    n = len(series)
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
    """Bucketed runner: consult candidates grouped by segment count.

    States of unconsulted candidates stay frozen and are replayed from
    their own buffers when their group is first needed, so the per-step
    work tracks the active group instead of the whole candidate set.
    Within a group, candidates are tried in increasing extended cost and
    the scan stops at the first valid one, which is the group optimum.
    """
    n = len(series)
    values = series.values.tolist()
    test = config.test
    sticky = test.sticky
    remove_invalid = test.gamma_stable
    min_len = config.min_seg_len
    cost_fn = make_cost_fn(series, config.cost)
    r: list[BiPoint] = [ZERO_BIPOINT]
    slink: list[int] = [0]
    buckets: dict[int, list[Candidate]] = {0: [Candidate(0, 0.0, test.new_state(0))]}

    for t in range(1, n + 1):
        found: Optional[tuple[BiPoint, int]] = None
        for k in sorted(buckets):
            blist = buckets[k]
            alive: list[Candidate] = []
            order: list[tuple[float, int, Candidate]] = []
            for c in blist:
                if c.dead:
                    continue
                alive.append(c)
                if t - c.s >= min_len:
                    order.append((c.q + cost_fn(c.s, t), -c.s, c))
            if len(alive) != len(blist):
                if alive:
                    buckets[k] = alive
                else:
                    del buckets[k]
            if not order:
                continue
            order.sort()
            for q_total, _, c in order:
                state = c.state
                while state.length < t - c.s:
                    state.feed(values[c.s + state.length])
                    if trace is not None and sticky:
                        trace(c.s, c.s + state.length, state.statistic)
                    if remove_invalid and not state.is_valid:
                        c.dead = True
                        break
                if c.dead:
                    continue
                if trace is not None and not sticky:
                    trace(c.s, t, state.statistic)
                if state.is_valid:
                    found = (BiPoint(k + 1, q_total), c.s)
                    break
                if remove_invalid:
                    c.dead = True
            if found is not None:
                break
        if found is None:
            r.append(INF_BIPOINT)
            slink.append(0)
            continue
        r_t, s_t = found
        r.append(r_t)
        slink.append(s_t)
        buckets.setdefault(r_t.k, []).append(Candidate(t, r_t.q, test.new_state(t)))
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
    if prune:
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
            cands = [s for s, c in zip(cands, raw) if c <= best]
            cands.append(t)
    else:
        for t in range(1, n + 1):
            best = math.inf
            best_s = 0
            for s in cands:
                v = f[s] + cost_fn(s, t) + penalty
                if v <= best:
                    best = v
                    best_s = s
            f[t] = best
            last[t] = best_s
            cands.append(t)
    bounds = [n]
    t = n
    while t > 0:
        t = last[t]
        bounds.append(t)
    return f[n], Segmentation(boundaries=tuple(reversed(bounds)))
