"""Single-change validity tests f(segment) <= gamma.

Each test comes in two forms: a standalone full-window scan (the
defining computation) and a per-start state that
``ValidityState.catch_up`` feeds one observation at a time; the state
owns the stop rule and the tracing, the engine only asks it whether a
segment is valid.  The range, GLR and Wilcoxon states update their
statistic incrementally, and it equals the full rescan at every prefix
length (the GLR one up to rounding); Mood's pooled median moves with
every value, so its state is its own scan, ``mood_scan``, over a
buffered window.  The GLR scan takes its gaussian costs from the cost
layer's ``gaussian_costs``.  ``certainly_invalid`` lets the full
scan settle a segment on its own when its value alone exceeds gamma;
under a sticky test ``catch_up`` asks it first for a state the previous
step did not reach, so a doomed start costs one scan, not a catch-up.

The sticky flag turns any test into a stable one: once a growing
segment fails, every extension of it reports invalid.  The range test
has that property natively (max - min never shrinks under extension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .core import DomainError, InvalidRangeError, TimeSeries
from .costs import gaussian_costs

@dataclass(frozen=True)
class ValidityTest:
    """Test selector plus threshold; ``sticky`` turns on the stable wrapper."""

    kind: str
    gamma: float
    sticky: bool = False

    def __post_init__(self) -> None:
        if self.kind not in VALIDITY_KINDS:
            raise DomainError(
                f"unknown validity kind {self.kind!r}, expected one of {VALIDITY_KINDS}"
            )
        if not math.isfinite(self.gamma):
            raise DomainError("gamma must be finite")

    @property
    def gamma_stable(self) -> bool:
        """True when invalid segments stay invalid under right extension."""
        return self.sticky or self.kind == "range"

    def new_state(self, start: int) -> "ValidityState":
        cls = _STATE_CLASSES[self.kind]
        return cls(self, start)


class ValidityState:
    """Incremental statistic for the growing segment starting at ``start``.

    ``feed`` advances by one observation; sticky tests evaluate at every
    step so the trip flag sees every prefix, other tests defer the
    evaluation until the statistic is read.  The empty segment carries
    the minimal statistic 0 (nothing to split).
    """

    __slots__ = ("test", "start", "length", "tripped", "_stat", "_stale")

    def __init__(self, test: ValidityTest, start: int):
        self.test = test
        self.start = start
        self.length = 0
        self.tripped = False
        self._stat = 0.0
        self._stale = False

    def feed(self, value: float) -> None:
        self.length += 1
        self._advance(value)
        if self.test.sticky:
            stat = self._evaluate()
            self._stat = stat
            self._stale = False
            if stat > self.test.gamma:
                self.tripped = True
        else:
            self._stale = True

    @property
    def statistic(self) -> float:
        if self._stale:
            self._stat = self._evaluate()
            self._stale = False
        return self._stat

    @property
    def is_valid(self) -> bool:
        if self.test.sticky:
            return not self.tripped
        return self.statistic <= self.test.gamma

    def catch_up(self, series: TimeSeries, upto: int, trace=None) -> bool:
        """Bring the state to ``(start, upto]`` and say whether it is valid.

        Feeds ``series.values[start + length : upto]``, one ``feed`` per
        value.  Under a sticky test, a state more than one value behind
        (the previous step did not reach this start) is first checked with
        one full-window statistic, ``certainly_invalid``; when that
        settles the segment, the state is marked tripped, nothing is fed
        and the statistic is traced once as ``(start, upto, value)``.
        Otherwise, when given, ``trace(start, end, statistic)`` is called
        for every statistic the test evaluates: after each value under a
        sticky test, once at the end otherwise.  Under a stable test the
        catch-up stops right after the first value that leaves the state
        invalid and returns False; that segment and every extension of it
        are invalid.
        """
        start = self.start
        test = self.test
        if test.sticky and upto - start - self.length > 1:
            value = certainly_invalid(series, start, upto, test)
            if value is not None:
                self.tripped = True
                if trace is not None:
                    trace(start, upto, value)
                return False
        stop = test.gamma_stable
        each = trace if test.sticky else None
        for value in series.values[start + self.length : upto].tolist():
            self.feed(value)
            if each is not None:
                each(start, start + self.length, self.statistic)
            if stop and not self.is_valid:
                return False
        if trace is not None and each is None:
            trace(start, upto, self.statistic)
        return self.is_valid

    def _advance(self, value: float) -> None:
        raise NotImplementedError

    def _evaluate(self) -> float:
        raise NotImplementedError


class RangeState(ValidityState):
    __slots__ = ("_lo", "_hi")

    def __init__(self, test: ValidityTest, start: int):
        super().__init__(test, start)
        self._lo = math.inf
        self._hi = -math.inf

    def _advance(self, value: float) -> None:
        if value < self._lo:
            self._lo = value
        if value > self._hi:
            self._hi = value

    def _evaluate(self) -> float:
        return self._hi - self._lo


def glr_scan_naive(series: TimeSeries, a: int, b: int) -> float:
    """Gaussian likelihood-ratio scan over all interior split points.

    The gain of a split u is C(a,b) - C(a,u) - C(u,b) with the gaussian
    cost of ``gaussian_costs``; C(a,u) for u = a+1..b is one vector whose
    last element is C(a,b).  Splits leave both sides non-empty; a segment
    too short to split scores 0, the minimal element.
    """
    if not (0 <= a < b <= len(series)):
        raise InvalidRangeError(f"segment ({a}, {b}] is not a valid range for n={len(series)}")
    if b - a < 2:
        return 0.0
    left = gaussian_costs(series.cumsum, series.cumsum_sq, a, np.arange(a + 1, b + 1))
    right = gaussian_costs(series.cumsum, series.cumsum_sq, np.arange(a + 1, b), b)
    return float(max(np.max(left[-1] - left[:-1] - right), 0.0))


class FocusState(ValidityState):
    """Functionally pruned sequential max-GLR (gaussian mean change).

    Keeps two candidate-change piece lists, one per change direction.
    Each piece is (prefix sum at its split, split offset, best one-mean
    fit of that prefix); a piece's value at the current step is its
    stored fit plus the best fit of the data after its split.  Pieces
    whose suffix means fall out of order can never attain the maximum
    again and are dropped, which keeps the lists logarithmic on average.

    The piece of the newest split has an empty suffix, so it is held as
    ``_pending`` and joins the lists only at the next value; it doubles as
    the current (prefix sum, length, fit).  The lists start with the
    anchor (0.0, 0, 0.0), which pruning compares against and never drops;
    it evaluates to exactly 0.0.
    """

    __slots__ = ("_pending", "_lo", "_hi")

    def __init__(self, test: ValidityTest, start: int):
        super().__init__(test, start)
        self._pending = (0.0, 0, 0.0)
        self._lo = []
        self._hi = []

    def _advance(self, value: float) -> None:
        piece = self._pending
        hi = self._hi
        lo = self._lo
        hi.append(piece)
        lo.append(piece)
        sn = piece[0] + value
        n = piece[1] + 1
        while len(hi) > 1:
            st1, tau1, _ = hi[-1]
            st0, tau0, _ = hi[-2]
            # argmax ordering: (sn-st1)/(n-tau1) <= (sn-st0)/(n-tau0)
            if (sn - st1) * (n - tau0) <= (sn - st0) * (n - tau1):
                hi.pop()
            else:
                break
        while len(lo) > 1:
            st1, tau1, _ = lo[-1]
            st0, tau0, _ = lo[-2]
            if (sn - st1) * (n - tau0) >= (sn - st0) * (n - tau1):
                lo.pop()
            else:
                break
        self._pending = (sn, n, sn * sn / (2.0 * n))

    def _evaluate(self) -> float:
        sn, n, m0 = self._pending
        best = 0.0
        for pieces in (self._hi, self._lo):
            for st, tau, m0p in pieces:
                diff = sn - st
                val = m0p + diff * diff / (2.0 * (n - tau)) - m0
                if val > best:
                    best = val
        return best


def _grown(buf: np.ndarray, needed: int) -> np.ndarray:
    """``buf``, or a copy of it with room for ``needed`` values (doubling)."""
    if needed <= buf.size:
        return buf
    out = np.empty(max(needed, 2 * buf.size), dtype=buf.dtype)
    out[: buf.size] = buf
    return out


class WilcoxonState(ValidityState):
    """Centered Wilcoxon scan max |W_u|, updated exactly in O(len) per push.

    Appending x adds the pairs (i, new point); each existing split u
    gains (number of left values <= x) - u/2, and the new split counts x
    against the whole previous segment.  Ties count as <=.
    """

    __slots__ = ("_vals", "_w")

    def __init__(self, test: ValidityTest, start: int):
        super().__init__(test, start)
        self._vals = np.empty(8, dtype=np.float64)
        self._w = np.empty(8, dtype=np.float64)

    def _advance(self, value: float) -> None:
        m = self.length - 1
        self._vals = vals = _grown(self._vals, m + 1)
        self._w = w = _grown(self._w, m + 1)
        if m > 0:
            counts = np.cumsum(vals[:m] <= value)
            if m > 1:
                w[: m - 1] += counts[: m - 1] - 0.5 * np.arange(1, m)
            w[m - 1] = counts[m - 1] - 0.5 * m
        vals[m] = value

    def _evaluate(self) -> float:
        if self.length < 2:
            return 0.0
        return float(np.abs(self._w[: self.length - 1]).max())


def wilcoxon_scan(window) -> float:
    """Max over splits of |W_u| on a window, computed from ranks.

    W_u counts the pairs (i <= u < j) with x_i <= x_j, less u(L-u)/2.
    Summing, over the right part, each value's count of window values <=
    it and removing the pairs inside the right part (m(m+1)/2 plus one per
    tied pair) gives every split in O(L log L) time and O(L) memory, in
    integers, so the result is the exact half-integer the incremental
    state holds.  Independent of the incremental path.
    """
    a = np.asarray(window, dtype=np.float64)
    size = a.size
    if size < 2:
        return 0.0
    order = np.argsort(a, kind="stable")
    srt = a[order]
    at_most = np.searchsorted(srt, a, side="right")
    rank = np.empty(size, dtype=np.int64)
    rank[order] = np.arange(size)
    # A stable sort keeps tied values in index order, so the values after
    # a value's sorted position within its tie block are its later ties.
    later_ties = at_most - 1 - rank
    tails = np.cumsum((at_most - later_ties)[::-1])[::-1]
    u = np.arange(1, size)
    m = size - u
    w = (tails[1:] - m * (m + 1) // 2) - 0.5 * u * m
    return float(np.abs(w).max())


def mood_scan(window) -> float:
    """Max over splits of Mood's 2x2 median chi-square on a window.

    The table at split u counts the values at most the pooled median on
    each side.  Cells with zero expected count contribute 0 (a degenerate
    column, e.g. constant data, then declares no change).
    """
    vals = np.asarray(window, dtype=np.float64)
    size = vals.size
    if size < 2:
        return 0.0
    srt = np.sort(vals)
    half = size // 2
    med = float(srt[half]) if size % 2 else 0.5 * (float(srt[half - 1]) + float(srt[half]))
    cum = np.cumsum(vals <= med)
    total_m = float(cum[-1])
    total_p = size - total_m
    u = np.arange(1, size, dtype=np.float64)
    n1m = cum[:-1].astype(np.float64)
    cells = (
        (n1m, u, total_m),
        (u - n1m, u, total_p),
        (total_m - n1m, size - u, total_m),
        ((size - u) - (total_m - n1m), size - u, total_p),
    )
    stat = None
    for count, row_total, col_total in cells:
        e = row_total * col_total / size
        safe = np.where(e > 0.0, e, 1.0)
        term = np.where(e > 0.0, (count - e) ** 2 / safe, 0.0)
        stat = term if stat is None else stat + term
    return float(stat.max())


class MoodState(ValidityState):
    """Mood median scan over a buffered window.

    The pooled median moves with every value, so no per-split count
    carries over a push; each evaluation is ``mood_scan`` on the window.
    """

    __slots__ = ("_vals",)

    def __init__(self, test: ValidityTest, start: int):
        super().__init__(test, start)
        self._vals = np.empty(8, dtype=np.float64)

    def _advance(self, value: float) -> None:
        m = self.length - 1
        self._vals = _grown(self._vals, m + 1)
        self._vals[m] = value

    def _evaluate(self) -> float:
        return mood_scan(self._vals[: self.length])


_STATE_CLASSES: dict[str, type[ValidityState]] = {
    "glr_gaussian_focus": FocusState,
    "wilcoxon": WilcoxonState,
    "mood": MoodState,
    "range": RangeState,
}
VALIDITY_KINDS = tuple(_STATE_CLASSES)


def segment_statistic(series: TimeSeries, a: int, b: int, kind: str) -> float:
    """Full-scan statistic of a fixed segment, by definition of each test."""
    if not (0 <= a < b <= len(series)):
        raise InvalidRangeError(f"segment ({a}, {b}] is not a valid range for n={len(series)}")
    if kind == "range":
        seg = series.values[a:b]
        return float(seg.max() - seg.min())
    if kind == "glr_gaussian_focus":
        return glr_scan_naive(series, a, b)
    if kind == "wilcoxon":
        return wilcoxon_scan(series.values[a:b])
    if kind == "mood":
        return mood_scan(series.values[a:b])
    raise DomainError(f"unknown validity kind {kind!r}")


# FOCuS's running sums and the naive scan's prefix-sum differences are
# both sequential sums over the window, rounded by at most (t - s) * eps
# times their largest partial sum, so each GLR value strays from the exact
# one by a small multiple of eps * (t - s) * cumsum_sq[t].  The slack is
# about 4500 eps per unit of that; where it reaches gamma's scale (large
# offsets, long windows) the certificate gives up and the state decides.
_GLR_SLACK = 1e-12


def certainly_invalid(series: TimeSeries, s: int, t: int, test: ValidityTest) -> Optional[float]:
    """The full-window statistic of (s, t] when it proves the segment invalid.

    A segment whose own statistic exceeds gamma fails the test, sticky or
    not, so a state caught up to ``t`` would report it invalid.  Returns
    that statistic (from ``segment_statistic``) when it settles the
    question, None when the state must decide.  The range, Wilcoxon and
    Mood scans give the state's float exactly; the naive GLR scan must
    clear gamma by the rounding both it and FOCuS may carry.
    """
    value = segment_statistic(series, s, t, test.kind)
    limit = test.gamma
    if test.kind == "glr_gaussian_focus":
        limit += _GLR_SLACK * (t - s) * float(series.cumsum_sq[t])
    return value if value > limit else None


def segment_sticky_statistic(series: TimeSeries, a: int, b: int, kind: str) -> float:
    """Max of the full-scan statistic over all prefixes of the segment."""
    return max(segment_statistic(series, a, u, kind) for u in range(a + 1, b + 1))


def is_segment_valid(series: TimeSeries, a: int, b: int, test: ValidityTest) -> bool:
    """Check one segment against the test by direct recomputation."""
    if test.sticky:
        return segment_sticky_statistic(series, a, b, test.kind) <= test.gamma
    return segment_statistic(series, a, b, test.kind) <= test.gamma


def wilcoxon_threshold(typical_len: float) -> float:
    """Scale threshold 1.5 * sqrt(len^3 / 12) for the Wilcoxon scan."""
    if typical_len <= 0:
        raise DomainError("typical segment length must be positive")
    return 1.5 * math.sqrt(typical_len**3 / 12.0)


def sidak_threshold(num_splits: int, alpha: float) -> float:
    """Chi-square(1) quantile after a Dunn-Sidak split-count correction."""
    if num_splits < 1:
        raise DomainError("num_splits must be at least 1")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly between 0 and 1")
    alpha_split = 1.0 - (1.0 - alpha) ** (1.0 / num_splits)
    return chi2_quantile_1df(1.0 - alpha_split)


def chi2_quantile_1df(p: float) -> float:
    """Quantile of the chi-square distribution with one degree of freedom.

    A chi-square(1) variable is the square of a standard normal one, so
    the p quantile is z**2 with z the normal (1 - p)/2 quantile.  Taking
    the lower tail keeps full relative accuracy as p approaches 1, where
    the Sidak thresholds lie.
    """
    if not 0.0 <= p < 1.0:
        raise DomainError("probability must lie in [0, 1)")
    z = NormalDist().inv_cdf(0.5 * (1.0 - p))
    return z * z
