"""Independent reference implementations used to verify the library.

Everything here is written from the definitions with plain Python loops
and avoids the library's computational paths (cumulative sums,
incremental states, vectorized scans), so agreement is meaningful.  The
one exception is ``reference_run``, which shares the library's cost and
validity layers on purpose so that its tables can be compared bit for
bit with the engine's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from svp import INF_BIPOINT, ZERO_BIPOINT, BiPoint, DpTable, SvpResult, backtrack
from svp.costs import make_cost_fn


def naive_cost(values, a, b, kind, x=0.0):
    seg = [float(v) for v in values[a:b]]
    length = len(seg)
    assert length >= 1
    if kind == "gaussian":
        mean = sum(seg) / length
        return 0.5 * sum((v - mean) ** 2 for v in seg)
    if kind == "poisson":
        mean = sum(seg) / length
        if mean == 0.0:
            return 0.0
        return length * mean * (1.0 - math.log(mean))
    if kind == "mad":
        med = naive_median(seg)
        return sum(abs(v - med) for v in seg)
    if kind == "quantile":
        srt = sorted(seg)
        lo = max(1, math.ceil(x * length))
        hi = max(1, math.ceil((1.0 - x) * length))
        return srt[hi - 1] - srt[lo - 1]
    raise ValueError(kind)


def exact_mad(values, a, b):
    """Sum of absolute deviations from the median of values[a:b], computed
    in exact rational arithmetic and rounded to a float once."""
    seg = sorted(Fraction(float(v)) for v in values[a:b])
    half = len(seg) // 2
    med = seg[half] if len(seg) % 2 else (seg[half - 1] + seg[half]) / 2
    return float(sum(abs(v - med) for v in seg))


def naive_median(seg):
    srt = sorted(seg)
    half = len(srt) // 2
    if len(srt) % 2:
        return srt[half]
    return 0.5 * (srt[half - 1] + srt[half])


def naive_glr(values, a, b):
    """Max over interior splits of cost(a,b) - cost(a,u) - cost(u,b)."""
    if b - a < 2:
        return 0.0
    full = naive_cost(values, a, b, "gaussian")
    best = 0.0
    for u in range(a + 1, b):
        gain = full - naive_cost(values, a, u, "gaussian") - naive_cost(values, u, b, "gaussian")
        best = max(best, gain)
    return best


def naive_wilcoxon_at_split(values, u):
    """W_u over a whole window, splitting after the u-th value (1-based)."""
    total = 0.0
    for i in range(u):
        for j in range(u, len(values)):
            total += (1.0 if values[i] <= values[j] else 0.0) - 0.5
    return total


def naive_wilcoxon(values):
    size = len(values)
    if size < 2:
        return 0.0
    return max(abs(naive_wilcoxon_at_split(values, u)) for u in range(1, size))


def naive_mood_at_split(values, u):
    """Mood chi-square at a split; zero-expectation cells contribute 0."""
    size = len(values)
    med = naive_median(values)
    n1m = sum(1 for v in values[:u] if v <= med)
    n1p = u - n1m
    n2m = sum(1 for v in values[u:] if v <= med)
    n2p = (size - u) - n2m
    total_m = n1m + n2m
    total_p = n1p + n2p
    stat = 0.0
    for count, row, col in (
        (n1m, u, total_m),
        (n1p, u, total_p),
        (n2m, size - u, total_m),
        (n2p, size - u, total_p),
    ):
        expected = row * col / size
        if expected > 0.0:
            stat += (count - expected) ** 2 / expected
    return stat


def naive_mood(values):
    size = len(values)
    if size < 2:
        return 0.0
    return max(naive_mood_at_split(values, u) for u in range(1, size))


def naive_range(values):
    return max(values) - min(values) if values else 0.0


def naive_statistic(values, a, b, kind):
    seg = [float(v) for v in values[a:b]]
    if kind == "range":
        return naive_range(seg)
    if kind == "glr_gaussian_focus":
        return naive_glr(values, a, b)
    if kind == "wilcoxon":
        return naive_wilcoxon(seg)
    if kind == "mood":
        return naive_mood(seg)
    raise ValueError(kind)


def naive_sticky_statistic(values, a, b, kind):
    return max(naive_statistic(values, a, u, kind) for u in range(a + 1, b + 1))


def iter_partitions(n, min_seg_len=1):
    """All boundary tuples (0, ..., n) over 2^(n-1) subsets of cut points."""
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0,) + cuts + (n,)
            if all(b - a >= min_seg_len for a, b in zip(bounds, bounds[1:])):
                yield bounds


def brute_force_svp(values, cost_kind, test_kind, gamma, sticky, min_seg_len=1, x=0.0):
    """Exhaustive lexicographic minimum over all valid partitions.

    Returns ((k, q), boundaries) with q from the per-element costs; the
    infinite pair signals an empty feasible set.
    """
    n = len(values)
    stat = {}
    for a in range(n):
        for b in range(a + 1, n + 1):
            if sticky:
                stat[(a, b)] = naive_sticky_statistic(values, a, b, test_kind)
            else:
                stat[(a, b)] = naive_statistic(values, a, b, test_kind)
    costs = {
        (a, b): naive_cost(values, a, b, cost_kind, x)
        for a in range(n)
        for b in range(a + 1, n + 1)
    }
    best = (math.inf, math.inf)
    best_bounds = None
    for bounds in iter_partitions(n, min_seg_len):
        segs = list(zip(bounds, bounds[1:]))
        if any(stat[s] > gamma for s in segs):
            continue
        candidate = (len(segs), sum(costs[s] for s in segs))
        if candidate < best:
            best = candidate
            best_bounds = bounds
    return best, best_bounds


def brute_force_op(values, cost_kind, penalty, x=0.0):
    """Exhaustive minimum of total cost plus penalty per segment."""
    n = len(values)
    best = math.inf
    best_bounds = None
    for bounds in iter_partitions(n):
        total = sum(
            naive_cost(values, a, b, cost_kind, x) + penalty
            for a, b in zip(bounds, bounds[1:])
        )
        if total < best:
            best = total
            best_bounds = bounds
    return best, best_bounds


def reference_run(series, config):
    """Literal smallest-valid-partitioning DP, the oracle for ``svp_run``.

    Every start s with a finite r[s] keeps a validity state fed one value
    per step, and no start is ever dropped.  r[t] is the lexicographic
    minimum of (r[s].k + 1, r[s].q + C(s, t), -s) over valid s with
    t - s >= min_seg_len, so cost ties go to the latest start.
    """
    cost_fn = make_cost_fn(series, config.cost)
    values = series.values.tolist()
    r = [ZERO_BIPOINT]
    slink = [0]
    states = {0: config.test.new_state(0)}
    for t in range(1, len(values) + 1):
        best = None
        for s, state in states.items():
            state.feed(values[t - 1])
            if t - s >= config.min_seg_len and state.is_valid:
                key = (r[s].k + 1, r[s].q + cost_fn(s, t), -s)
                if best is None or key < best:
                    best = key
        if best is None:
            r.append(INF_BIPOINT)
            slink.append(0)
            continue
        r.append(BiPoint(best[0], best[1]))
        slink.append(-best[2])
        states[t] = config.test.new_state(t)
    table = DpTable(r=tuple(r), s=tuple(slink))
    return SvpResult(table=table, segmentation=backtrack(table))
