"""Single-change validity tests f(segment) <= gamma.

Each test comes in two forms: a standalone full-window scan (the
defining computation) and a per-start state that
``ValidityState.catch_up`` feeds one observation at a time; the state
owns the stop rule and the tracing, the engine only asks it whether a
segment is valid.  The range, GLR and Wilcoxon states update their
statistic incrementally, and it equals the full rescan at every prefix
length (the GLR one up to rounding); Mood's pooled median moves with
every value, so its state is its own scan, ``mood_scan``, over a
buffered window.  Both rank kernels cost a fixed handful of numpy
calls per value: the Wilcoxon update is one exact half-integer
``cumsum``, and the Mood scan tests for a zero expected count once per
table column (only a whole column can be empty), not per element; it
keeps every per-element operation and its order, so its float is, bit
for bit, the one a per-element guard gives.  The GLR scan takes its
gaussian costs from the cost layer's ``gaussian_costs``.
``certainly_invalid`` lets the full scan settle a segment on its own
when its value alone exceeds gamma; under a sticky test ``catch_up``
asks it first for a state the previous step did not reach, so a doomed
start costs one scan, not a catch-up.
For the GLR test an untraced catch-up first tries the gain at one split
the caller names (the engine's latest change), a constant-time element
of the full scan that settles most doomed starts on its own;
``split_settled`` is the same check over many starts and ends in one
array call, with which the engine drops doomed starts during a run-ahead.
``extend_while_valid`` feeds a state forward to its first invalid end,
which is how the engine answers a long valid stretch in one call; a
sticky ``catch_up`` feeds through it too, so stable feeding has one
loop and one trace rule.  The sticky GLR state also bounds how far its
maximum can have grown since it was last evaluated, in constant time
per value, and evaluates only when that bound could exceed gamma.  Both GLR shortcuts, the full-window
check and the growth bound, take their rounding margin from the cost
layer's ``gaussian_rounding``, the one derived bound on how far a float
gaussian cost or GLR value may stray.

The sticky flag turns any test into a stable one: once a growing
segment fails, every extension of it reports invalid.  It is the one
notion of stability here.  The range test has that property natively
(max - min never shrinks under extension), so it is sticky by
definition and gets the full-window check too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .core import DomainError, TimeSeries
from .costs import _check_range, gaussian_costs, gaussian_rounding, row_blocks

@dataclass(frozen=True)
class ValidityTest:
    """Test selector plus threshold; ``sticky`` turns on the stable wrapper.

    The range test is sticky whatever ``sticky`` says: max - min never
    shrinks as a segment grows, so the wrapper changes no answer.
    """

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
        if self.kind == "range":
            object.__setattr__(self, "sticky", True)

    def new_state(self, start: int) -> "ValidityState":
        cls = _STATE_CLASSES[self.kind]
        return cls(self, start)


class ValidityState:
    """Incremental statistic for the growing segment starting at ``start``.

    ``feed`` advances by one observation; sticky tests evaluate every
    prefix that could trip, so the trip flag sees the first that does,
    other tests defer the evaluation until the statistic is read.  A kind
    may keep ``_ceiling``, a bound its statistic provably stays at or
    below (inf when it keeps none); a sticky step whose ceiling is at
    most gamma cannot trip, so it skips the evaluation and leaves the
    statistic stale until it is read.  The empty segment carries the
    minimal statistic 0 (nothing to split).
    """

    __slots__ = ("test", "start", "length", "tripped", "_stat", "_stale", "_ceiling")

    def __init__(self, test: ValidityTest, start: int):
        self.test = test
        self.start = start
        self.length = 0
        self.tripped = False
        self._stat = 0.0
        self._stale = False
        self._ceiling = math.inf

    def feed(self, value: float) -> None:
        self.length += 1
        self._advance(value)
        if self.test.sticky and self._ceiling > self.test.gamma:
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

    def catch_up(self, series: TimeSeries, upto: int, trace=None, split: int = 0) -> bool:
        """Bring the state to ``(start, upto]`` and say whether it is valid.

        A non-sticky state is fed ``series.values[start + length : upto]``,
        one ``feed`` per value, and when given, ``trace(start, upto,
        statistic)`` sees its final statistic once, if a value was fed.
        A sticky state more than one value behind (the previous step did
        not reach this start) is first checked with one full-window
        statistic, ``certainly_invalid``; when that settles the segment,
        the state is marked tripped, nothing is fed and the statistic is
        traced once as ``(start, upto, value)``.  ``split`` is a hint for
        that check, passed on only when there is no ``trace``, so traced
        runs see the full-window value.  Otherwise a sticky state is fed
        by ``extend_while_valid``, which stops right after the first value
        that trips it; that segment and every extension of it are invalid.
        """
        start = self.start
        test = self.test
        if not test.sticky:
            values = series.values[start + self.length : upto]
            for value in values.tolist():
                self.feed(value)
            if trace is not None and values.size:
                trace(start, upto, self.statistic)
            return self.is_valid
        if upto - start - self.length > 1:
            value = certainly_invalid(series, start, upto, test, split if trace is None else 0)
            if value is not None:
                self.tripped = True
                if trace is not None:
                    trace(start, upto, value)
                return False
        return self.extend_while_valid(series, upto, trace) > upto and not self.tripped

    def extend_while_valid(self, series: TimeSeries, upto: int, trace=None) -> int:
        """Feed values while the segment stays valid; return the first invalid end.

        Feeds ``series.values[start + length : upto]`` one ``feed`` per
        value and stops right after the first end e at which
        ``(start, e]`` is invalid, returning e, or returns ``upto + 1``
        when every end up to ``upto`` is valid.  When given,
        ``trace(start, e, statistic)`` sees the statistic of every end
        fed, the invalid one included.  The values are sliced in chunks
        that double in size, so a long run converts each value once and
        never holds the tail of the series as a list.
        """
        start = self.start
        values = series.values
        end = start + self.length
        size = 1
        while end < upto:
            for value in values[end : min(end + size, upto)].tolist():
                self.feed(value)
                end += 1
                if trace is not None:
                    trace(start, end, self.statistic)
                if not self.is_valid:
                    return end
            size *= 2
        return upto + 1

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


def glr_gains(series: TimeSeries, a: int, b: int) -> np.ndarray:
    """Gaussian likelihood-ratio gains of the splits u = a+1..b-1 of (a, b].

    The gain of a split u is C(a,b) - C(a,u) - C(u,b) with the gaussian
    cost of ``gaussian_costs``; C(a,u) for u = a+1..b is one vector whose
    last element is C(a,b).  Empty when the segment is too short to split.
    """
    _check_range(series, a, b)
    left = gaussian_costs(series.cumsum, series.cumsum_sq, a, np.arange(a + 1, b + 1))
    right = gaussian_costs(series.cumsum, series.cumsum_sq, np.arange(a + 1, b), b)
    return left[-1] - left[:-1] - right


def glr_scan_naive(series: TimeSeries, a: int, b: int) -> float:
    """Gaussian likelihood-ratio scan: the largest of ``glr_gains``.

    Splits leave both sides non-empty; a segment too short to split
    scores 0, the minimal element.
    """
    gains = glr_gains(series, a, b)
    return float(max(np.max(gains), 0.0)) if gains.size else 0.0


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

    Appending x to a window of length L and mean m raises the gain of
    every split by at most the window's own cost increase
    L/(L+1) * (x - m)**2 / 2, since the suffix cost cannot fall, and the
    new split gains exactly that.  So the max grows by at most this
    constant-time increment per value: ``_grow`` sums the increments
    since the statistic was last evaluated.  ``_ceiling`` is that
    statistic plus ``_grow`` plus twice ``gaussian_rounding`` on the
    window's length and its own sum of squares ``_sq``: 6 (L + 2) eps
    ``_sq``.  That covers two FOCuS values' rounding, the evaluated
    statistic's and the current one's, at most (L + 2) eps ``_sq`` each.
    It also covers the increments' own rounding.  The exact increments
    add up to a cost rise of at most ``_sq`` / 2, so their rounding is at
    most (0.75 L + 1.25) eps ``_sq``, and the ceiling's additions add
    0.5 eps ``_sq`` more.  The bound holds whichever pieces pruning kept:
    a kept piece grows by at most the increments, and a new one is worth
    at most the window's cost rise since the last evaluation.  Ward,
    Romano, Eckley & Fearnhead (2024) show that a FOCuS step need not
    evaluate every piece; this bound skips the whole evaluation where it
    cannot reach gamma.
    """

    __slots__ = ("_pending", "_lo", "_hi", "_grow", "_sq")

    def __init__(self, test: ValidityTest, start: int):
        super().__init__(test, start)
        self._pending = (0.0, 0, 0.0)
        self._lo = []
        self._hi = []
        self._grow = 0.0
        self._sq = 0.0

    def _advance(self, value: float) -> None:
        piece = self._pending
        hi = self._hi
        lo = self._lo
        hi.append(piece)
        lo.append(piece)
        sn = piece[0] + value
        n = piece[1] + 1
        grow = self._grow if self._stale else 0.0
        if n > 1:
            d = value - piece[0] / piece[1]
            grow += d * d * piece[1] / (2.0 * n)
        self._grow = grow
        self._sq = sq = self._sq + value * value
        self._ceiling = self._stat + grow + 2.0 * gaussian_rounding(n, sq)
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
    against the whole previous segment.  Ties count as <=.  That gain is
    the running sum of (value <= x) - 1/2 over the left values, one
    ``cumsum`` with no ramp of halves, added in place to the splits.  W
    holds half-integers far below 2**52, so every sum is exact in any
    order and the state equals ``wilcoxon_scan`` at every prefix.
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
            w[m - 1] = 0.0
            w[:m] += np.cumsum((vals[:m] <= value) - 0.5)
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


# 1.0, 2.0, 3.0, ... as floats, shared by every Mood scan and regrown
# (doubling) when a longer window asks for more.
_ramp = np.arange(1.0, 257.0)


def _one_to(m: int) -> np.ndarray:
    """The floats 1.0 .. m, a view of the shared ramp."""
    global _ramp
    if m > _ramp.size:
        _ramp = np.arange(1.0, max(m, 2 * _ramp.size) + 1.0)
    return _ramp[:m]


def mood_scan(window) -> float:
    """Max over splits of Mood's 2x2 median chi-square on a window.

    The table at split u counts the values at most the pooled median on
    each side; each cell adds (count - e)**2 / e with expected count
    e = row * col / size.  Cells with zero expected count contribute 0 (a
    degenerate column, e.g. constant data, then declares no change).
    The row totals u and size - u are at least 1, so e is 0 only in a
    whole column: the "> median" one when no value exceeds the median,
    or the "<= median" one when the median is -inf or NaN (middle values
    whose sum overflows, or -inf and inf).  So one scalar test per
    column stands in for a guard on every element; skipping a column is
    exact because every term is >= +0.  The per-element operations and
    their order are pinned (e, then the term, then the cells summed in
    table order), so the result is, bit for bit, the float a scan that
    guards every element returns.  The counts and the ramp's splits are
    integers held as floats, so they are exact.
    """
    vals = np.asarray(window, dtype=np.float64)
    size = vals.size
    if size < 2:
        return 0.0
    srt = np.sort(vals)
    half = size // 2
    med = float(srt[half]) if size % 2 else 0.5 * (float(srt[half - 1]) + float(srt[half]))
    cum = np.cumsum(vals <= med, dtype=np.float64)
    total_m = float(cum[-1])
    total_p = size - total_m
    u = _one_to(size - 1)
    n1m = cum[:-1]
    n2m = total_m - n1m
    # the rows of the second half are u reversed, so are their expectations
    e_m = u * total_m / size
    e_p = u * total_p / size
    cells = (
        (n1m, e_m, total_m),
        (u - n1m, e_p, total_p),
        (n2m, e_m[::-1], total_m),
        (u[::-1] - n2m, e_p[::-1], total_p),
    )
    stat = 0.0
    for count, e, col_total in cells:
        if col_total:
            term = count - e
            term *= term
            term /= e
            stat += term
    return float(stat.max())


class MoodState(ValidityState):
    """Mood median scan over a buffered window.

    The pooled median moves with every value, so no per-split count
    carries over a push; each evaluation is ``mood_scan`` on the window,
    the one Mood definition, so the state's float is the full scan's.
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
    _check_range(series, a, b)
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


def certainly_invalid(
    series: TimeSeries, s: int, t: int, test: ValidityTest, split: int = 0
) -> Optional[float]:
    """A statistic of (s, t] that proves the segment invalid, or None.

    A segment whose own statistic exceeds gamma fails the test, sticky or
    not, so a state caught up to ``t`` would report it invalid.  Returns
    that statistic (from ``segment_statistic``) when it settles the
    question, None when the state must decide.  The range, Wilcoxon and
    Mood scans give the state's float exactly.  The naive GLR scan must
    clear gamma by ``gaussian_rounding`` twice: the scan's own bound, on
    the prefix sums up to ``t``, and FOCuS's, on the window's length and
    sum of squares.  Their sum is the most the two floats can differ,
    given that FOCuS's pruning keeps a maximizing split, as it does in
    exact arithmetic.  The window's sum of squares, read from the stored
    sums, is off by a first-order amount, which moves FOCuS's bound only
    at second order.  For GLR with ``s < split < t``, the gain
    C(s,t) - C(s,split) - C(split,t) is tried first.  It is bit for bit
    the scan's element at ``split``, so when it clears the same limit it
    is returned in place of the scan's maximum, which would clear it too.
    Other kinds ignore ``split``.
    """
    limit = test.gamma
    if test.kind == "glr_gaussian_focus":
        css_t, css_s = float(series.cumsum_sq[t]), float(series.cumsum_sq[s])
        limit += gaussian_rounding(t, css_t) + gaussian_rounding(t - s, css_t - css_s)
        if s < split < t:
            costs = gaussian_costs(
                series.cumsum, series.cumsum_sq, np.array((s, s, split)), np.array((t, split, t))
            )
            gain = float(costs[0] - costs[1] - costs[2])
            if gain > limit:
                return gain
    value = segment_statistic(series, s, t, test.kind)
    return value if value > limit else None


def split_settled(
    series: TimeSeries, test: ValidityTest, starts: list[int], split: int, ends: range
) -> list[int]:
    """The starts that ``certainly_invalid``'s split branch settles at some end.

    The array form of that branch: for each start s < ``split`` and each
    end t of ``ends`` (all above ``split``), the gain of (s, t] at
    ``split`` and its limit are the floats ``certainly_invalid`` forms,
    bit for bit, in blocks of starts.  Returns, in order, the starts whose
    gain clears the limit at one end or more; each such segment, and
    under a sticky test every extension of it, is invalid.  Only the GLR
    test has this form; other kinds return no start.
    """
    if test.kind != "glr_gaussian_focus":
        return []
    cs, css = series.cumsum, series.cumsum_sq
    a = np.asarray([s for s in starts if s < split])
    t = np.arange(ends.start, ends.stop)
    right = gaussian_costs(cs, css, split, t)
    css_t = css[t]
    bound_t = gaussian_rounding(t, css_t)
    settled = []
    for rows in row_blocks(a.size, t.size):
        s = a[rows, None]
        gain = gaussian_costs(cs, css, s, t) - gaussian_costs(cs, css, s, split) - right
        limit = test.gamma + (bound_t + gaussian_rounding(t - s, css_t - css[s]))
        settled += a[rows][(gain > limit).any(axis=1)].tolist()
    return settled


def is_segment_valid(series: TimeSeries, a: int, b: int, test: ValidityTest) -> bool:
    """Check one segment against the test by direct recomputation.

    A sticky test checks the full-scan statistic at every prefix end,
    any other test the whole segment only.  Range is sticky, but max - min
    never falls as a segment grows, so its statistic at ``b`` decides and
    only that end is checked.
    """
    _check_range(series, a, b)
    ends = range(a + 1, b + 1) if test.sticky and test.kind != "range" else (b,)
    return all(segment_statistic(series, a, u, test.kind) <= test.gamma for u in ends)


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
