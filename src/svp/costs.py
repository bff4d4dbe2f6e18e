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
closure, which then skips it.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import DomainError, InvalidRangeError, TimeSeries

COST_KINDS = ("gaussian", "poisson", "mad", "quantile")


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


def gaussian_cost(series: TimeSeries, a: int, b: int) -> float:
    """Half the within-segment sum of squared deviations from the mean."""
    _check_range(series, a, b)
    return float(gaussian_costs(series.cumsum, series.cumsum_sq, a, b))


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
        return gaussian_cost(series, a, b)
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
