"""Segment cost functions on half-open index ranges (a, b].

Gaussian and Poisson costs are evaluated in constant time from the
precomputed cumulative statistics; the gaussian expression lives in
``gaussian_costs``, which costs arrays of segments at once, and in the
scalar closure of ``make_cost_fn`` for hot loops.  The MAD cost is the
exact sum of absolute deviations from the median, rounded once:
``mad_cost`` sorts the segment, and the closure of ``make_cost_fn``
keeps one sorted window per start and extends it value by value.  The
quantile cost sorts the segment on every call.  The Poisson domain
(nonnegative values) is checked per segment by ``poisson_cost`` and
``cost``, and once per series when ``make_cost_fn`` binds the Poisson
closure, which then skips it.  ``fixed_start_costs`` gives one start's
extended costs against a run of ends, with one ``gaussian_costs`` call
for the gaussian model and the closure per end otherwise;
``make_block_cost_fn`` binds its column-of-starts form, which only the
gaussian model has.
"""

from __future__ import annotations

import math
import sys
from bisect import insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, InvalidRangeError, TimeSeries

COST_KINDS = ("gaussian", "poisson", "mad", "quantile")
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class CostModel:
    """Cost family selector; ``x`` is the trimmed fraction for ``quantile``."""

    kind: str = "gaussian"
    x: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise DomainError(f"unknown cost kind {self.kind!r}, expected one of {COST_KINDS}")
        if not 0.0 <= self.x < 0.5:
            raise DomainError(f"quantile fraction must lie in [0, 0.5), got {self.x}")


def _check_range(series: TimeSeries, a: int, b: int) -> None:
    if not (0 <= a < b <= len(series)):
        raise InvalidRangeError(f"segment ({a}, {b}] is not a valid range for n={len(series)}")


def gaussian_costs(cs: np.ndarray, css: np.ndarray, a, b):
    """Gaussian costs of the segments (a, b] from cumulative sums.

    ``a`` and ``b`` are indices or integer arrays that broadcast; the
    result rounds exactly like the scalar closure of ``make_cost_fn``.
    """
    s = cs[b] - cs[a]
    # Cancellation can leave a tiny negative residue; the cost is >= 0.
    return np.maximum(0.5 * (css[b] - css[a] - s * s / (b - a)), 0.0)


def gaussian_rounding(length: int, sum_sq: float) -> float:
    """Rounding bound 3 (length + 2) eps sum_sq for gaussian costs and GLR values.

    Every float gaussian cost and GLR value is formed from running sums,
    taken in order, over ``length`` values whose squares sum to
    ``sum_sq``.  It differs from the same expression in exact arithmetic
    on those values by at most this bound, to first order in
    eps = 2**-52.  The method is that of Chan, Golub & LeVeque (Amer.
    Statist. 1983) and Higham (Accuracy and Stability of Numerical
    Algorithms, ch. 4).  Write u = eps / 2, m = ``length``,
    Q = ``sum_sq`` and A for the sum of |y| over the m values, so that
    A**2 <= m Q.

    - Running sums.  Each addition rounds by at most u times the partial
      sum it makes, and no partial sum exceeds A.  So the difference of
      two stored partial sums k values apart is off from the exact sum of
      those k values by at most u k A.  The same holds for squares, with
      Q for A, plus u Q for squaring.
    - A cost from the stored prefix sums (``gaussian_costs`` and the
      closure of ``make_cost_fn``) is (w - s**2 / l) / 2 for a window of
      l <= m values.  The error in s moves s**2 / l by at most
      2 |s| u A <= 2 u m Q.  The error in w, u (l + 2) Q with its
      subtraction, plus the subtraction for s, its square, the division
      and the last subtraction make (l + 7) u Q.  So the cost is off by at
      most (l + 2 m + 7) eps Q / 4 <= (3 m + 7) eps Q / 4.
    - A GLR gain from the prefix sums, C(a, b) - C(a, u) - C(u, b) (the
      naive scan and the split gain), is three such costs.  Their window
      lengths add up to at most 2 m, and the two subtractions add u Q, so
      the gain is off by at most (2 m + 5.75) eps Q.
    - A FOCuS value, st**2 / 2 tau + (sn - st)**2 / 2 (m - tau) - sn**2 / 2 m,
      comes from running window sums.  Each of its three sums spans k
      values and is off by at most u k A, which moves its term by at most
      u A times the sum's size.  That gives u A (|st| + |sn - st| + |sn|)
      <= 2 u A**2 <= eps m Q.  The squares, the divisions and the two
      additions add 2 eps Q.  So the value is off by at most
      (m + 2) eps Q.
    - A cost can fall as its segment grows only by rounding: by at most
      two costs' bounds, plus u Q for adding a DP cost (at most Q / 2) to
      each.  That is (1.5 m + 4) eps Q; see ``max_cost_fall``.

    Each bound is at most 3 (m + 2) eps Q.  Second-order terms are
    smaller by a factor of m eps, so they fit in the room that is left.
    """
    return 3.0 * (length + 2) * _EPS * sum_sq


def max_cost_fall(series: TimeSeries, model: CostModel) -> float:
    """How far a cost may fall as its segment grows: C(s, t) >= C(s, t') - fall.

    Then a key ``r[s].q + C(s, t')`` computed at an earlier step, minus
    this fall, is a lower bound on the key at any later step t.  The MAD
    closure rounds once from exact sums, and the exact cost never falls,
    so its fall is 0.  A gaussian cost falls only by rounding.  That
    rounding is ``gaussian_rounding`` at the whole series' length and sum
    of squares.  Poisson costs drop data-only terms and trimmed spreads
    can shrink, so those costs are not monotone (inf: every key of theirs
    is recomputed).
    """
    if model.kind == "mad":
        return 0.0
    if model.kind == "gaussian":
        return gaussian_rounding(len(series), float(series.cumsum_sq[-1]))
    return math.inf


def poisson_cost(series: TimeSeries, a: int, b: int) -> float:
    """Poisson negative max log-likelihood up to data-only terms.

    The zero-mean segment costs 0, the continuous limit of
    ``len * mean * (1 - log(mean))``.
    """
    _check_range(series, a, b)
    if float(np.min(series.values[a:b])) < 0.0:
        raise DomainError("poisson cost requires nonnegative segment values")
    mean = float(series.cumsum[b] - series.cumsum[a]) / (b - a)
    if mean == 0.0:
        return 0.0
    return (b - a) * mean * (1.0 - math.log(mean))


def mad_cost(series: TimeSeries, a: int, b: int) -> float:
    """Sum of absolute deviations from the segment median, rounded once.

    With h = floor(len / 2), the sum equals the sum of the h largest
    values minus the sum of the h smallest, so the median cancels and one
    ``math.fsum`` gives the correctly rounded result.
    """
    _check_range(series, a, b)
    seg = np.sort(series.values[a:b])
    h = (b - a) // 2
    # fsum may return -0.0 for an all-zero sum; the cost is +0.0 there.
    return math.fsum(np.concatenate((seg[b - a - h :], -seg[:h])).tolist()) + 0.0


def quantile_cost(series: TimeSeries, a: int, b: int, x: float) -> float:
    """Spread between the lower x and upper 1-x empirical quantiles.

    Quantiles are lower order statistics (index ceil(x * len), 1-based),
    so x = 0 gives the plain range.
    """
    _check_range(series, a, b)
    seg = np.sort(series.values[a:b])
    length = b - a
    lo = max(1, math.ceil(x * length))
    hi = max(1, math.ceil((1.0 - x) * length))
    return float(seg[hi - 1] - seg[lo - 1])


def cost(series: TimeSeries, a: int, b: int, model: CostModel) -> float:
    """Evaluate the segment cost for values with indices in (a, b]."""
    if model.kind == "gaussian":
        # half the within-segment sum of squared deviations from the mean
        _check_range(series, a, b)
        return float(gaussian_costs(series.cumsum, series.cumsum_sq, a, b))
    if model.kind == "poisson":
        return poisson_cost(series, a, b)
    if model.kind == "mad":
        return mad_cost(series, a, b)
    return quantile_cost(series, a, b, model.x)


def make_cost_fn(series: TimeSeries, model: CostModel) -> Callable[[int, int], float]:
    """Bind a cost model to a series for hot loops.

    Every closure returns values bit-identical to ``cost()``.  The
    gaussian and poisson closures work on plain Python floats pulled from
    the cumulative arrays.  The MAD closure keeps one state per start
    ``a``, created on its first call: the window's values in sorted order,
    their total and the sum of the lower half, all as integers at one
    power-of-two scale for the whole series, so the sums are exact.  A
    call extends the window to ``b`` by one insertion per new value, so a
    start called at b = a+1, a+2, ... costs O(log L) per call, not a
    sort; a call with ``b`` below the window's end rebuilds the state.
    Raises ``DomainError`` for a poisson model if any value is negative.
    """
    if model.kind == "gaussian":
        cs = series.cumsum.tolist()
        css = series.cumsum_sq.tolist()

        def gauss(a: int, b: int) -> float:
            s = cs[b] - cs[a]
            c = 0.5 * (css[b] - css[a] - s * s / (b - a))
            return c if c > 0.0 else 0.0

        return gauss
    if model.kind == "poisson":
        if float(np.min(series.values)) < 0.0:
            raise DomainError("poisson cost requires nonnegative values")
        cs = series.cumsum.tolist()

        def poisson(a: int, b: int) -> float:
            mean = (cs[b] - cs[a]) / (b - a)
            if mean == 0.0:
                return 0.0
            return (b - a) * mean * (1.0 - math.log(mean))

        return poisson
    if model.kind == "mad":
        return _mad_fn(series)
    return lambda a, b: quantile_cost(series, a, b, model.x)


def fixed_start_costs(
    series: TimeSeries, model: CostModel, cost_fn: Callable[[int, int], float],
    a: int, ends: range, q: float,
) -> list[float]:
    """The extended costs ``q + cost_fn(a, e)`` for e in ``ends``, bit for bit.

    ``cost_fn`` is the closure ``make_cost_fn`` bound for ``series`` and
    ``model``; ``q`` is the start's DP cost.  A gaussian model costs the
    whole range in one ``gaussian_costs`` call; the other kinds call the
    closure per end.  Adding ``q`` here keeps one float per end alive, not
    a cost and its sum.
    """
    if model.kind == "gaussian":
        b = np.arange(ends.start, ends.stop)
        return (gaussian_costs(series.cumsum, series.cumsum_sq, a, b) + q).tolist()
    return [q + cost_fn(a, e) for e in ends]


# Cells per array in the block forms below, so a starts x ends array and
# its temporaries stay small however many starts come in.
_BLOCK_CELLS = 1 << 12


def row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` with at most ``_BLOCK_CELLS`` cells of ``width``."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return (slice(i, i + step) for i in range(0, rows, step))


def make_block_cost_fn(series: TimeSeries, model: CostModel):
    """The column-of-starts form of ``fixed_start_costs``, or None.

    Only the gaussian model has an array form.  The returned function
    takes starts a_i, their DP costs q_i and a run of ends, and forms the
    keys q_i + C(a_i, e), bit for bit as ``q_i + cost_fn(a_i, e)``, one
    block of starts at a time.  It returns, per end, the least
    ``(key, -a)`` over the starts (ties to the latest start), and every
    start's key at the last end, in the order the starts came.
    """
    if model.kind != "gaussian":
        return None
    cs, css = series.cumsum, series.cumsum_sq

    def block_costs(
        starts: list[int], qs: list[float], ends: range
    ) -> tuple[list[tuple[float, int]], list[float]]:
        order = np.argsort(starts, kind="stable")[::-1]  # latest start first
        a = np.asarray(starts)[order]
        q = np.asarray(qs)[order]
        b = np.arange(ends.start, ends.stop)
        cols = np.arange(b.size)
        best = np.full(b.size, np.inf)
        best_start = np.zeros(b.size, dtype=np.int64)
        last = np.empty(a.size)
        for rows in row_blocks(a.size, b.size):
            keys = gaussian_costs(cs, css, a[rows, None], b) + q[rows, None]
            first = keys.argmin(axis=0)
            low = keys[first, cols]
            # an earlier block holds later starts, so it keeps its ties
            better = low < best
            best[better] = low[better]
            best_start[better] = a[rows][first[better]]
            last[order[rows]] = keys[:, -1]
        return list(zip(best.tolist(), (-best_start).tolist())), last.tolist()

    return block_costs


def _mad_fn(series: TimeSeries) -> Callable[[int, int], float]:
    # Each value is an exact integer multiple of 2**-shift, so window sums
    # are exact ints and one int / int true division, which Python rounds
    # correctly, gives the same float as the fsum in mad_cost.
    ratios = [v.as_integer_ratio() for v in series.values.tolist()]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    ints = [num << (shift - den.bit_length() + 1) for num, den in ratios]
    scale = 1 << shift
    # start -> [sorted window, total, sum of the lower floor(L/2), end]
    states: dict[int, list] = {}

    def mad(a: int, b: int) -> float:
        state = states.get(a)
        if state is None or b < state[3]:
            window = sorted(ints[a:b])
            state = states[a] = [window, sum(window), sum(window[: (b - a) // 2]), b]
        elif b > state[3]:
            window, total, low, end = state
            for x in ints[end:b]:
                length = len(window)
                h = length >> 1
                if length & 1:
                    # The lower half grows by one: the smaller of x and the
                    # old median.
                    mid = window[h]
                    low += x if x < mid else mid
                elif h and x < window[h - 1]:
                    # x displaces the largest value of the lower half.
                    low += x - window[h - 1]
                total += x
                insort(window, x)
            state[1] = total
            state[2] = low
            state[3] = b
        window = state[0]
        length = b - a
        mid = window[length >> 1] if length & 1 else 0
        return (state[1] - 2 * state[2] - mid) / scale

    return mad
