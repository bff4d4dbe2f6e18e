"""Shared domain types: time series, bi-points, segmentations, DP tables.

All types here are immutable after construction and safe to share across
concurrent readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class SvpError(Exception):
    """Base class for library errors."""


class InvalidRangeError(SvpError, ValueError):
    """Raised when a segment range (a, b] is empty or out of bounds."""


class DomainError(SvpError, ValueError):
    """Raised when data violate a cost or threshold domain requirement."""


class CorruptTableError(SvpError):
    """Raised when a DP table's backtracking links are inconsistent."""


class InfeasiblePartitionError(SvpError):
    """Raised when no partition of the series satisfies the constraints."""


class ConfigError(SvpError, ValueError):
    """Raised on invalid engine, cost or test configuration."""


class BiPoint(NamedTuple):
    """A (segment count, total cost) pair ordered lexicographically.

    Tuple comparison gives exactly the intended order: compare counts
    first, then costs.  ``k`` is an int for real solutions; the infinite
    sentinel uses ``math.inf`` in both slots and dominates everything.
    """

    k: float
    q: float

    @property
    def is_finite(self) -> bool:
        return self.k != math.inf


ZERO_BIPOINT = BiPoint(0, 0.0)
INF_BIPOINT = BiPoint(math.inf, math.inf)


@dataclass(frozen=True)
class TimeSeries:
    """Observations plus precomputed cumulative statistics.

    ``cumsum[s]`` holds the sum of the first ``s`` values (``cumsum[0] = 0``)
    so any segment sum is one subtraction; ``cumsum_sq`` does the same for
    squares.  Arrays are read-only.  ``from_values`` raises ``DomainError``
    unless every value and both cumulative sums are finite.
    """

    values: np.ndarray
    cumsum: np.ndarray
    cumsum_sq: np.ndarray

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray) -> "TimeSeries":
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise DomainError("time series must be one-dimensional")
        if arr.size < 1:
            raise DomainError("time series must contain at least one value")
        if not np.all(np.isfinite(arr)):
            raise DomainError("time series values must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            cs = np.concatenate(([0.0], np.cumsum(arr)))
            css = np.concatenate(([0.0], np.cumsum(arr * arr)))
        # A prefix sum that overflows stays infinite, so the last entries
        # decide.  Finite sums also bound every segment cost.
        if not (math.isfinite(cs[-1]) and math.isfinite(css[-1])):
            raise DomainError(
                "time series values are too large: their sum or sum of squares overflows"
            )
        for a in (arr, cs, css):
            a.setflags(write=False)
        return cls(values=arr, cumsum=cs, cumsum_sq=css)

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class Segmentation:
    """Strictly increasing boundaries 0 = b[0] < ... < b[K] = n.

    Segment ``k`` covers the half-open index range (b[k], b[k+1]].
    """

    boundaries: tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.boundaries
        if len(b) < 2 or b[0] != 0:
            raise SvpError(f"boundaries must start at 0 and cover the series: {b}")
        if any(x >= y for x, y in zip(b, b[1:])):
            raise SvpError(f"boundaries must be strictly increasing: {b}")

    @property
    def k(self) -> int:
        """Number of segments."""
        return len(self.boundaries) - 1

    @property
    def n(self) -> int:
        return self.boundaries[-1]

    @property
    def change_points(self) -> tuple[int, ...]:
        """Interior boundaries, i.e. the detected changes."""
        return self.boundaries[1:-1]

    def segments(self) -> Iterator[tuple[int, int]]:
        b = self.boundaries
        return zip(b[:-1], b[1:])


@dataclass(frozen=True)
class DpTable:
    """Per-index DP record: value ``r[t]`` and last change index ``s[t]``."""

    r: tuple[BiPoint, ...]
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.r) != len(self.s) or len(self.r) < 1:
            raise SvpError("r and s must have equal length n + 1")

    @property
    def n(self) -> int:
        return len(self.r) - 1


def backtrack(table: DpTable) -> Segmentation:
    """Recover the optimal boundaries by following last-change links.

    Requires a finite final value; raises CorruptTableError if a link
    fails to strictly decrease or the link count disagrees with the
    stored segment count.
    """
    n = table.n
    final = table.r[n]
    if not final.is_finite:
        raise InfeasiblePartitionError("no valid partition recorded for the full series")
    bounds = [n]
    t = n
    steps = 0
    while t > 0:
        s = table.s[t]
        if not (0 <= s < t):
            raise CorruptTableError(f"last-change link {t} -> {s} does not strictly decrease")
        bounds.append(s)
        t = s
        steps += 1
    if steps != final.k:
        raise CorruptTableError(
            f"backtracking took {steps} steps but the table records {final.k} segments"
        )
    return Segmentation(boundaries=tuple(reversed(bounds)))
