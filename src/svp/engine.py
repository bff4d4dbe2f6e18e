"""Exact segmentation solvers.

``svp_run`` minimizes (segment count, total cost) lexicographically over
all partitions whose every segment passes the validity test.  It keeps
the DP table as columns of plain numbers, which the garbage collector
does not track: ``r[t] = (rk[t], rq[t])``, the segment count and the
cost, with the links ``slink``.  It keeps three more things:

- ``groups[k]``, a heap of the eligible starts ``s`` with
  ``rk[s] == k``, as ``(key, -s, s)`` entries; a start's DP cost is read
  from ``rq``.
- ``nxt``, the first start not yet in a heap.  A start s is eligible from
  step s + ``min_seg_len`` on, so each step t first pushes every start
  from ``nxt`` up to t - ``min_seg_len`` whose ``rk[s]`` is finite, with
  the key ``rq[s] - slack``.  The pending starts are then always the
  index range ``[nxt, t)``; no queue holds them.
- ``states[s]``, the start's validity state, created the first time a
  scan reaches it and deleted when the scan kills it or a run-ahead
  settles it.

Each step consults the groups in increasing segment count and, within a
group, the starts in increasing extended cost ``rq[s] + C(s, t)`` with
ties to the latest start; the first valid start is the step's optimum.
Every heap key is a lower bound on its start's extended cost at any
later step: the first key lowers ``rq[s]`` (every cost is >= 0), and a
key computed at step t goes back lowered by ``slack``, the cost layer's
``max_cost_fall``.  A consult keeps the keys it computes at step t in a
second heap, ``exact``; while the smallest bound lies below the smallest
exact key, that start is costed with the scalar closure and moves over,
otherwise the smallest exact key's start is consulted.  So starts are
consulted in the order a full sort of the group would give, and a start
whose bound stays above the group optimum is not costed at all.

A consulted state is caught up only on demand, by one
``ValidityState.catch_up`` call over the values it missed.  That call
owns the rest of the validity protocol: tracing, the sticky stop rule
and the full-window check that settles a sticky start the previous step
did not reach without feeding it.  The engine hands it the latest
change, ``slink[t - 1]``, as a split the check may try first.  Its
answer is the segment's validity, so the engine names no validity kind,
and it names no cost kind either.  Under a sticky test, the one notion
of stability, starts the scan finds invalid are dropped for good, so the
runner touches one small group per step, which is what makes the
incremental-GLR configuration scale near-linearly on change-free data.
A group the scan leaves empty is deleted.

Run-ahead: after the scan at step t finds start s in group k, the
lowest group left, s answers each later step until (s, t'] turns invalid,
another entry of group k reaches s's key, or the horizon is reached: the
step at which the first pending start of group k or lower
(``rk[s'] <= k`` for an s' no heap holds yet) becomes eligible.  When s
is the group's one entry, one ``ValidityState.extend_while_valid`` call
feeds s to the horizon.  Otherwise the run goes in chunks of ends, 16
and then twice as many up to 64.  The cost layer's ``fixed_start_costs``
costs s over a chunk; every other entry whose heap entry
``(bound, -s')`` is at or below ``(max chunk key, -s)`` is popped and
costed over the chunk in one call of its column-of-starts form, from
``make_block_cost_fn``.  The chunk is certified up to the first end at
which some popped s' has ``(key', -s') <= (key, -s)``; the entries left
in the heap are certified by their bounds.  Only then is s fed, up to
the certified end, so s is fed exactly where the scan would have found
it, and traces match a scan's.  The rows s answers take the count
``k + 1``, ``rq[s]`` plus its costs and the link s, appended to the
columns in bulk with no object per row.  The popped entries go back at
their keys at the last filled row, lowered by ``slack``, or unchanged
when no row was filled.  Under a sticky test an untraced run also drops
every popped s' < s that ``validity.split_settled``, the array form of
the split check, settles by its gain at s in the filled rows, and frees
its state.  A cost with no array form runs ahead only when s is alone.
The loop resumes at the stop step.  If a sticky test failed s there, s
leaves its group, and an emptied group is deleted.  Under a non-sticky
test s stays, and the stop step's scan consults it again.

``op_pelt_run`` is the penalized optimal-partitioning baseline; its
``prune`` flag applies the classic PELT inequality.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from .core import (
    ConfigError,
    DpTable,
    InfeasiblePartitionError,
    Segmentation,
    TimeSeries,
    backtrack,
)
from .costs import CostModel, fixed_start_costs, make_block_cost_fn, make_cost_fn, max_cost_fall
from .validity import ValidityState, ValidityTest, is_segment_valid, split_settled

StatTrace = Callable[[int, int, float], None]

# A run-ahead that shares its group certifies chunks of ends, the first
# this long and each next one twice as long, up to the last.
_FIRST_CHUNK = 16
_LAST_CHUNK = 64


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
    attains r[n].  The table is returned as its columns ``k``, ``q`` and
    ``s``; ``table.r``, the rows as ``BiPoint``s, is built when first read.

    ``stat_trace(s, t, value)`` is called for every validity statistic
    the run evaluates, which supports exactness audits: every prefix a
    sticky state is fed, every end a run-ahead feeds, the final
    statistic of a non-sticky catch-up that feeds a value, and the
    full-window value with which ``ValidityState.catch_up`` settles a
    sticky start the previous step did not reach.  So each (s, t) is
    traced at most once.
    """
    n = len(series)
    min_len = config.min_seg_len
    if min_len > n:
        raise InfeasiblePartitionError(f"min_seg_len {min_len} exceeds the series length {n}")
    test = config.test
    new_state = test.new_state
    kill = test.sticky
    cost_fn = make_cost_fn(series, config.cost)
    block_costs = make_block_cost_fn(series, config.cost)
    slack = max_cost_fall(series, config.cost)
    rk: list[float] = [0]
    rq: list[float] = [0.0]
    slink: list[int] = [0]
    groups: dict[int, list[tuple[float, int, int]]] = {}
    states: dict[int, ValidityState] = {}
    nxt = 0

    t = 1
    while t <= n:
        while nxt <= t - min_len:
            k = rk[nxt]
            if k != math.inf:
                heappush(groups.setdefault(k, []), (rq[nxt] - slack, -nxt, nxt))
            nxt += 1
        found: Optional[tuple[int, float, int]] = None
        split = slink[t - 1]
        for k in sorted(groups):
            heap = groups[k]
            # Entries costed at step t, and consulted starts that stay in
            # the group; both go back to the heap as lower bounds.
            exact: list[tuple[float, int, int]] = []
            kept: list[tuple[float, int, int]] = []
            while heap or exact:
                if heap and (not exact or heap[0] < exact[0]):
                    _, neg_s, s = heappop(heap)
                    heappush(exact, (rq[s] + cost_fn(s, t), neg_s, s))
                    continue
                entry = heappop(exact)
                key, _, s = entry
                state = states.get(s)
                if state is None:
                    state = states[s] = new_state(s)
                if state.catch_up(series, t, stat_trace, split):
                    found = (k, key, s)
                    kept.append(entry)
                    break
                if kill:
                    del states[s]
                else:
                    kept.append(entry)
            for key, neg_s, s in exact + kept:
                heappush(heap, (key - slack, neg_s, s))
            if not heap:
                del groups[k]
            if found is not None:
                break
        if found is None:
            rk.append(math.inf)
            rq.append(math.inf)
            slink.append(0)
            t += 1
            continue
        k, q_t, s_t = found
        rk.append(k + 1)
        rq.append(q_t)
        slink.append(s_t)
        t += 1
        heap = groups[k]
        if k != min(groups) or (len(heap) > 1 and block_costs is None):
            continue
        # s_t, in the lowest group, can answer every step before the first
        # at which a pending start, one of [nxt, t), is eligible in group k
        # or a lower one, while it stays valid and no other entry of its
        # group reaches its key.
        horizon = next((s + min_len for s in range(nxt, t) if rk[s] <= k), n + 1)
        base = rq[s_t]
        state = states[s_t]
        own = (q_t - slack, -s_t, s_t)  # the scan put s_t back with this bound
        size = _FIRST_CHUNK
        dead = False
        while t < horizon:
            if len(heap) == 1:
                end, keys, popped = horizon, None, [heappop(heap)]
            else:
                end = min(t + size, horizon)
                keys = fixed_start_costs(series, config.cost, cost_fn, s_t, range(t, end), base)
                top = (max(own[0], max(keys)), -s_t, s_t)
                popped = []
                while heap and heap[0] <= top:
                    popped.append(heappop(heap))
            rivals = [entry for entry in popped if entry[2] != s_t]
            starts = [s for _, _, s in rivals]
            qs = [rq[s] for s in starts]
            certified = end
            if rivals:
                best, last = block_costs(starts, qs, range(t, end))
                certified = next(
                    (e for e, key, b in zip(range(t, end), keys, best) if b <= (key, -s_t)), end
                )
            stop = min(state.extend_while_valid(series, certified - 1, stat_trace), certified)
            if keys is None:
                keys = fixed_start_costs(series, config.cost, cost_fn, s_t, range(t, stop), base)
            rk.extend(repeat(k + 1, stop - t))
            rq.extend(keys[: stop - t])
            slink.extend(repeat(s_t, stop - t))
            # Entries go back at their keys at the last filled row, unchanged
            # when no row was filled.  Under a sticky test an untraced run
            # drops the rivals that the gain at s_t settles in those rows.
            dead = kill and stop < certified
            settled = set()
            if stop > t:
                own = (keys[stop - t - 1] - slack, -s_t, s_t)
                if rivals:
                    if stop < end:
                        last = block_costs(starts, qs, range(stop - 1, stop))[1]
                    rivals = [(key - slack, -s, s) for s, key in zip(starts, last)]
                    if kill and stat_trace is None:
                        settled = set(split_settled(series, test, starts, s_t, range(t, stop)))
            if not dead:
                rivals.append(own)
            for entry in rivals:
                if entry[2] in settled:
                    states.pop(entry[2], None)
                else:
                    heappush(heap, entry)
            t = stop
            if stop < end:
                break
            size = min(2 * size, _LAST_CHUNK)
        if dead:
            del states[s_t]
            if not heap:
                del groups[k]
    if rk[n] == math.inf:
        raise InfeasiblePartitionError(
            "no partition satisfies the validity constraint; "
            "check gamma >= 0 and min_seg_len"
        )
    table = DpTable(k=tuple(rk), q=tuple(rq), s=tuple(slink))
    return SvpResult(table=table, segmentation=backtrack(table))


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
