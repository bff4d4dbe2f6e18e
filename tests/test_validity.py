"""Tests for the validity tests, incremental states and thresholds."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svp import (
    DomainError,
    InvalidRangeError,
    TimeSeries,
    ValidityTest,
    chi2_quantile_1df,
    glr_scan_naive,
    is_segment_valid,
    mood_scan,
    segment_statistic,
    sidak_threshold,
    wilcoxon_scan,
    wilcoxon_threshold,
)
from svp import validity
from svp.validity import VALIDITY_KINDS, certainly_invalid, glr_gains

from oracles import (
    guarded_mood_scan,
    naive_glr,
    naive_mood,
    naive_mood_at_split,
    naive_statistic,
    naive_wilcoxon,
    naive_wilcoxon_at_split,
)


def feed_and_read(state, value):
    """Extend the state's segment by one value and return its statistic."""
    state.feed(value)
    return state.statistic


class TestScanExamples:
    def test_glr_step_pair(self):
        ts = TimeSeries.from_values([0.0, 0.0, 1.0, 1.0])
        assert glr_scan_naive(ts, 0, 4) == pytest.approx(0.5)

    def test_glr_constant(self):
        ts = TimeSeries.from_values([2.0] * 8)
        assert glr_scan_naive(ts, 0, 8) == 0.0

    def test_glr_single_split(self):
        ts = TimeSeries.from_values([0.0, 10.0])
        assert glr_scan_naive(ts, 0, 2) == pytest.approx(25.0)

    def test_glr_too_short_scores_zero(self):
        ts = TimeSeries.from_values([5.0, 1.0])
        assert glr_scan_naive(ts, 0, 1) == 0.0

    def test_wilcoxon_monotone_window(self):
        assert wilcoxon_scan([1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.0)

    def test_wilcoxon_tied_window(self):
        # ties count as <=, so constant data scores u*(len-u)/2
        assert wilcoxon_scan([5.0] * 4) == pytest.approx(2.0)

    def test_wilcoxon_decreasing_window(self):
        assert wilcoxon_scan([4.0, 3.0, 2.0, 1.0]) == pytest.approx(2.0)

    def test_mood_balanced_split(self):
        assert mood_scan([1.0, 1.0, 5.0, 5.0]) == pytest.approx(4.0)

    def test_mood_off_center_split_value(self):
        assert naive_mood_at_split([1.0, 1.0, 5.0, 5.0], 1) == pytest.approx(4.0 / 3.0)

    def test_invalid_ranges_raise_one_error(self):
        ts = TimeSeries.from_values([1.0, 2.0])
        for a, b in [(1, 1), (2, 1), (-1, 2), (0, 3)]:
            message = re.escape(f"segment ({a}, {b}] is not a valid range for n=2")
            checks = [lambda: glr_scan_naive(ts, a, b)]
            checks += [lambda kind=kind: segment_statistic(ts, a, b, kind) for kind in VALIDITY_KINDS]
            checks += [
                lambda sticky=sticky: is_segment_valid(ts, a, b, ValidityTest("range", 1.0, sticky))
                for sticky in (False, True)
            ]
            for check in checks:
                with pytest.raises(InvalidRangeError, match=message):
                    check()

    def test_mood_constant_window(self):
        assert mood_scan([3.0] * 6) == 0.0


class TestStateExamples:
    def test_fresh_state_is_valid(self):
        state = ValidityTest("glr_gaussian_focus", gamma=1.0, sticky=True).new_state(5)
        assert state.is_valid
        assert state.statistic == 0.0

    def test_range_single_point(self):
        state = ValidityTest("range", gamma=1.0).new_state(0)
        assert feed_and_read(state, 3.0) == 0.0

    def test_wilcoxon_tied_pair(self):
        state = ValidityTest("wilcoxon", gamma=5.0).new_state(2)
        state.feed(1.0)
        assert feed_and_read(state, 1.0) == pytest.approx(0.5)

    def test_glr_push_sequence(self):
        state = ValidityTest("glr_gaussian_focus", gamma=10.0).new_state(0)
        for v in (0.0, 0.0, 1.0):
            state.feed(v)
        assert feed_and_read(state, 1.0) == pytest.approx(0.5)

    def test_wilcoxon_push_sequence(self):
        state = ValidityTest("wilcoxon", gamma=10.0).new_state(0)
        for v in (1.0, 2.0, 3.0):
            state.feed(v)
        assert feed_and_read(state, 4.0) == pytest.approx(2.0)

    def test_mood_push_sequence(self):
        state = ValidityTest("mood", gamma=10.0).new_state(0)
        for v in (1.0, 1.0, 5.0):
            state.feed(v)
        assert feed_and_read(state, 5.0) == pytest.approx(4.0)

    def test_range_push_sequence(self):
        state = ValidityTest("range", gamma=100.0).new_state(0)
        for v in (0.0, 0.0):
            state.feed(v)
        assert feed_and_read(state, 10.0) == pytest.approx(10.0)


class TestExactness:
    """Incremental statistics equal the full rescan at every prefix."""

    @pytest.mark.parametrize(
        "kind,tol",
        [
            ("glr_gaussian_focus", 1e-9),
            ("wilcoxon", 0.0),
            ("mood", 0.0),
            ("range", 0.0),
        ],
    )
    def test_incremental_matches_definition(self, kind, tol):
        rng = np.random.default_rng(42)
        values = rng.normal(size=160)
        values[60:] += 1.5
        values[120:] -= 2.5
        state = ValidityTest(kind, gamma=1e18).new_state(0)
        ts = TimeSeries.from_values(values)
        for number, value in enumerate(values, start=1):
            got = feed_and_read(state, float(value))
            want = segment_statistic(ts, 0, number, kind)
            if tol == 0.0:
                assert got == want, f"{kind} diverges at length {number}"
            else:
                assert got == pytest.approx(want, rel=tol, abs=tol)

    @pytest.mark.parametrize("kind", ["glr_gaussian_focus", "wilcoxon", "mood", "range"])
    def test_library_scan_matches_naive_oracle(self, kind):
        rng = np.random.default_rng(43)
        for trial in range(25):
            n = int(rng.integers(2, 14))
            values = np.round(rng.normal(size=n), 2)
            if trial % 3 == 0:
                values[n // 2 :] += 2.0
            ts = TimeSeries.from_values(values)
            got = segment_statistic(ts, 0, n, kind)
            want = naive_statistic(values.tolist(), 0, n, kind)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_wilcoxon_split_values_against_triple_loop(self):
        rng = np.random.default_rng(44)
        values = rng.normal(size=17).tolist()
        assert wilcoxon_scan(values) == pytest.approx(naive_wilcoxon(values))
        for u in range(1, 17):
            direct = naive_wilcoxon_at_split(values, u)
            assert abs(direct) <= naive_wilcoxon(values)

    def test_focus_equals_naive_on_gaussian_noise(self):
        rng = np.random.default_rng(45)
        values = rng.normal(size=500)
        values[200:] += 1.0
        ts = TimeSeries.from_values(values)
        state = ValidityTest("glr_gaussian_focus", gamma=1e18).new_state(0)
        worst = 0.0
        for number, value in enumerate(values, start=1):
            got = feed_and_read(state, float(value))
            want = glr_scan_naive(ts, 0, number)
            worst = max(worst, abs(got - want))
        assert worst <= 1e-9

    def test_focus_piece_count_is_modest(self):
        # expected logarithmic growth; measured with a loose ceiling
        rng = np.random.default_rng(46)
        counts = []
        for _ in range(10):
            values = rng.normal(size=400)
            state = ValidityTest("glr_gaussian_focus", gamma=1e18).new_state(0)
            for v in values:
                state.feed(float(v))
            counts.append(len(state._hi) + len(state._lo))
        mean_count = float(np.mean(counts))
        assert mean_count <= 6.0 * math.log(400)


@st.composite
def mood_windows(draw):
    """Windows of 1 to 400 values: t3 noise, integer- or half-rounded
    ties, constant runs and two-level runs (often with no value above the
    median, so the "> median" column is empty), at offsets up to 1e12."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["t3", "integer", "half", "constant", "two-level"]))
    noise = rng.standard_t(3, size=n) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    if shape == "t3":
        values = noise
    elif shape == "integer":
        values = np.round(noise)
    elif shape == "half":
        values = np.round(2.0 * noise) / 2.0
    elif shape == "constant":
        values = np.full(n, 2.5)
    else:
        low = draw(st.integers(0, n))
        values = np.where(np.arange(n) < low, -1.0, 1.0) * draw(st.sampled_from([1.0, -1.0]))
    offset = draw(st.sampled_from([0.0, -7.5, 1e3, 1e6, -1e6, 1e12]))
    return values + offset


class TestRankKernelBits:
    """The rank kernels give the floats of their reference computations
    bit for bit, so no table, trace or decision can move."""

    @settings(max_examples=300, deadline=None)
    @given(window=mood_windows())
    def test_mood_scan_equals_guarded_scan(self, window):
        assert mood_scan(window).hex() == guarded_mood_scan(window).hex()

    @pytest.mark.parametrize(
        "window",
        [[-1e308] * 3 + [1.0], [1e308] * 4, [-math.inf, math.inf], [4.0, 4.0, 4.0]],
        ids=["median-overflows-low", "median-overflows-high", "median-nan", "constant"],
    )
    def test_mood_scan_equals_guarded_scan_when_a_column_is_empty(self, window):
        # a median of -inf or NaN leaves the "<= median" column empty
        assert mood_scan(window).hex() == guarded_mood_scan(window).hex()

    @pytest.mark.parametrize("shape", ["t3", "integer", "constant"])
    def test_wilcoxon_state_equals_scan_across_buffer_doublings(self, shape):
        # 1030 values grow the state's buffers 8 -> 16 -> ... -> 1024 -> 2048
        rng = np.random.default_rng(50)
        values = rng.standard_t(3, size=1030)
        if shape == "integer":
            values = np.round(values)
        elif shape == "constant":
            values = np.full(values.size, -3.0)
        state = ValidityTest("wilcoxon", gamma=1e18).new_state(0)
        for number, value in enumerate(values.tolist(), start=1):
            got = feed_and_read(state, value)
            assert got.hex() == wilcoxon_scan(values[:number]).hex(), number


class TestStability:
    def test_sticky_wrapper_latches(self):
        test = ValidityTest("glr_gaussian_focus", gamma=0.4, sticky=True)
        state = test.new_state(0)
        for v in (0.0, 0.0, 5.0):
            state.feed(v)
        assert state.tripped
        assert not state.is_valid
        # extensions that would look fine on their own stay invalid
        for v in (5.0,) * 20:
            state.feed(v)
        assert state.tripped and not state.is_valid

    def test_range_natively_stable(self):
        rng = np.random.default_rng(47)
        values = rng.normal(size=100)
        state = ValidityTest("range", gamma=1.0).new_state(0)
        previous = 0.0
        for v in values:
            current = feed_and_read(state, float(v))
            assert current >= previous
            previous = current

    def test_sticky_segments_grow_invalid(self):
        rng = np.random.default_rng(48)
        values = np.concatenate([rng.normal(size=30), rng.normal(4.0, 1.0, size=30)])
        ts = TimeSeries.from_values(values)
        test = ValidityTest("glr_gaussian_focus", gamma=2.0, sticky=True)
        failed_at = None
        for b in range(1, 61):
            if not is_segment_valid(ts, 0, b, test):
                failed_at = b
                break
        assert failed_at is not None
        for b in range(failed_at, 61):
            assert not is_segment_valid(ts, 0, b, test)


class TestCatchUp:
    """``catch_up`` answers validity, traces, and stops early only under a stable test."""

    SERIES = TimeSeries.from_values([0.0, 0.1, -0.1, 0.0, 5.0, 5.1, 4.9, 5.0, 0.0, 0.1])

    @pytest.mark.parametrize(
        "kind,sticky,gamma,stable",
        [
            ("glr_gaussian_focus", True, 2.0, True),
            ("range", False, 1.0, True),
            ("glr_gaussian_focus", False, 2.0, False),
            ("mood", False, 1.0, False),
        ],
    )
    def test_invalid_segment(self, kind, sticky, gamma, stable):
        start, upto = 2, len(self.SERIES)
        state = ValidityTest(kind, gamma, sticky).new_state(start)
        trace = []
        valid = state.catch_up(self.SERIES, upto, lambda s, t, v: trace.append((s, t, v)))
        assert valid == state.is_valid
        assert not valid
        if sticky:
            # 8 values behind: the full-window statistic settles it, nothing is fed
            assert state.length == 0
            assert [(s, t) for s, t, _ in trace] == [(start, upto)]
            assert trace[0][2] > gamma
        elif stable:
            assert 0 < state.length < upto - start
            assert trace == []
        else:
            assert state.length == upto - start
            assert [(s, t) for s, t, _ in trace] == [(start, upto)]

    def test_one_value_behind_is_fed_not_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(
            validity, "certainly_invalid", lambda *args: checked.append(args[1:3])
        )
        state = ValidityTest("glr_gaussian_focus", 2.0, sticky=True).new_state(0)
        for value in self.SERIES.values[:4].tolist():
            state.feed(value)
        assert state.is_valid
        trace = []
        # the next value is the jump, which a full-window check would settle
        valid = state.catch_up(self.SERIES, 5, lambda s, t, v: trace.append((s, t, v)))
        assert not valid and state.tripped
        assert state.length == 5
        assert trace == [(0, 5, state.statistic)]
        assert checked == []

    @pytest.mark.parametrize("kind", ["glr_gaussian_focus", "wilcoxon", "mood", "range"])
    def test_resumes_from_its_length(self, kind):
        state = ValidityTest(kind, 1e9, sticky=True).new_state(3)
        assert state.catch_up(self.SERIES, 6) == state.is_valid
        assert state.length == 3
        trace = []
        valid = state.catch_up(self.SERIES, 10, lambda s, t, v: trace.append((s, t, v)))
        assert valid == state.is_valid
        assert valid
        assert state.length == 7
        assert [t for _, t, _ in trace] == [7, 8, 9, 10]
        assert trace[-1][2] == state.statistic

    @pytest.mark.parametrize(
        "kind,sticky,gamma",
        [
            ("glr_gaussian_focus", True, 2.0),
            ("glr_gaussian_focus", False, 2.0),
            ("range", False, 1.0),
            ("wilcoxon", True, 4.0),
            ("mood", False, 1.0),
        ],
    )
    @pytest.mark.parametrize("start,upto", [(0, 10), (2, 10), (5, 10), (0, 3), (8, 9)])
    def test_extend_while_valid_is_catch_up_per_end(self, kind, sticky, gamma, start, upto):
        # a run-ahead traces and stops as a catch_up to each end in turn
        # would.  The engine drops a stable test's start at the end it
        # returns and consults any other start there, where a catch_up
        # adds just that end's statistic
        test = ValidityTest(kind, gamma, sticky)
        stepped, ran = test.new_state(start), test.new_state(start)
        stepped_trace, ran_trace = [], []
        expected = upto + 1
        for end in range(start + 1, upto + 1):
            if not stepped.catch_up(self.SERIES, end, lambda *r: stepped_trace.append(r)):
                expected = end
                break
        stop = ran.extend_while_valid(self.SERIES, upto, lambda *r: ran_trace.append(r))
        assert stop == expected
        assert ran.length == stepped.length == min(stop, upto) - start
        if stop <= upto and not test.gamma_stable:
            assert not ran.catch_up(self.SERIES, stop, lambda *r: ran_trace.append(r))
        assert ran_trace == stepped_trace
        assert ran.is_valid == stepped.is_valid

    def test_removed_naive_glr_kind_is_rejected(self):
        with pytest.raises(DomainError):
            ValidityTest("glr_gaussian_naive", 1.0)


@st.composite
def rounded_series(draw, min_size=2, max_size=60):
    """Normal noise with up to two shifts, optionally rounded to integers
    or halves, plus an offset of up to 1e8."""
    n = draw(st.integers(min_size, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) * draw(st.sampled_from([0.5, 1.0, 3.0]))
    for _ in range(draw(st.integers(0, 2))):
        values[int(rng.integers(0, n)) :] += rng.normal(scale=3.0)
    rounding = draw(st.sampled_from(["none", "integer", "half"]))
    if rounding == "integer":
        values = np.round(values)
    elif rounding == "half":
        values = np.round(2.0 * values) / 2.0
    offset = draw(st.sampled_from([0.0, -7.5, 1e3, 1e6, -1e6, 1e8]))
    return values + offset


@st.composite
def split_series(draw, max_size=40):
    """Short series with ties and constant runs, at offsets up to 1e12
    times their scale."""
    n = draw(st.integers(3, max_size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    shape = draw(st.sampled_from(["noise", "runs", "constant"]))
    if shape == "noise":
        values = rng.normal(size=n) * scale
    elif shape == "runs":
        values = np.repeat(rng.normal(size=n) * scale, rng.integers(1, 8, size=n))[:n]
    else:
        values = np.full(n, scale)
    if draw(st.booleans()):
        values = np.round(values)
    offset = draw(st.sampled_from([0.0, -7.5, 1e4, -1e6, 1e8, 1e12]))
    return values + offset * scale


class TestCertificate:
    """``certainly_invalid`` only settles segments a caught-up state rejects."""

    @pytest.mark.parametrize("kind", VALIDITY_KINDS)
    @settings(max_examples=150, deadline=None)
    @given(values=rounded_series(), data=st.data())
    def test_decision_equals_catch_up(self, kind, values, data):
        n = values.size
        s = data.draw(st.integers(0, n - 1))
        t = data.draw(st.integers(s + 1, n))
        ts = TimeSeries.from_values(values)
        listed = ts.values.tolist()
        plain = ValidityTest(kind, gamma=0.0).new_state(s)
        prefix_max = 0.0
        for value in listed[s:t]:
            plain.feed(value)
            prefix_max = max(prefix_max, plain.statistic)
        own = plain.statistic
        # gamma at the state's own value of (s, t] or at the largest value
        # of its prefixes (a sticky state is then just valid), one ulp
        # either side, or below them: there rounding decides the outcome
        gamma = data.draw(
            st.sampled_from(
                [own, prefix_max, math.nextafter(prefix_max, -math.inf),
                 math.nextafter(prefix_max, math.inf), own * (1.0 - 1e-9), own * 0.5]
            )
        )
        test = ValidityTest(kind, gamma=gamma, sticky=True)
        # the reference feeds every value: ``catch_up`` holds the check under test
        state = test.new_state(s)
        for x in listed[s:t]:
            state.feed(x)
        valid = state.is_valid
        value = certainly_invalid(ts, s, t, test)
        resumed = test.new_state(s)
        resumed.catch_up(ts, data.draw(st.integers(s, t)))
        assert resumed.catch_up(ts, t) == valid
        if value is not None:
            assert not valid
            assert value > gamma
            if kind != "glr_gaussian_focus":
                assert value == own
        elif kind != "glr_gaussian_focus":
            # the exact scans settle every segment whose own value exceeds gamma
            assert own <= gamma

    @settings(max_examples=300, deadline=None)
    @given(values=split_series(), data=st.data())
    def test_split_gain_is_an_element_of_the_glr_scan(self, values, data):
        n = values.size
        s = data.draw(st.integers(0, n - 3))
        t = data.draw(st.integers(s + 3, n))
        u = data.draw(st.integers(s + 1, t - 1))
        ts = TimeSeries.from_values(values)
        gains = glr_gains(ts, s, t)
        # a gamma no gain can miss returns the split gain itself
        floor = ValidityTest("glr_gaussian_focus", gamma=-1e300, sticky=True)
        gain = certainly_invalid(ts, s, t, floor, split=u)
        assert gain.hex() == float(gains[u - s - 1]).hex()
        full = glr_scan_naive(ts, s, t)
        slack = validity._GLR_SLACK * (t - s) * float(ts.cumsum_sq[t])
        # gammas whose limit (gamma plus slack) lands on or beside the gain
        # or the full value, where rounding decides whether each settles
        at_gain = gain - slack
        gamma = data.draw(
            st.sampled_from(
                [at_gain, math.nextafter(at_gain, -math.inf), math.nextafter(at_gain, math.inf),
                 full - slack, math.nextafter(full - slack, -math.inf), gain, full, 0.5 * gain, 0.0]
            )
        )
        test = ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True)
        by_split = certainly_invalid(ts, s, t, test, split=u)
        by_scan = certainly_invalid(ts, s, t, test)
        assert by_split == (gain if gain > gamma + slack else by_scan)
        if by_split is not None:
            assert by_scan is not None
        # a split outside (s, t) is not tried
        for outside in (0, s, t):
            assert certainly_invalid(ts, s, t, test, split=outside) == by_scan

    @settings(max_examples=200, deadline=None)
    @given(values=rounded_series(max_size=14))
    def test_rank_wilcoxon_scan_equals_pair_count(self, values):
        assert wilcoxon_scan(values) == naive_wilcoxon(values.tolist())

    def test_wilcoxon_scan_memory_is_linear(self):
        # a pair-matrix form would allocate about 68 MB for 2000 values
        values = np.random.default_rng(50).normal(size=2000)
        tracemalloc.start()
        try:
            wilcoxon_scan(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class _EvaluatingFocus(validity.FocusState):
    """A FOCuS state without a ceiling: a sticky feed evaluates every value."""

    __slots__ = ()

    def _advance(self, value):
        super()._advance(value)
        self._ceiling = math.inf


class TestGrowthBound:
    """A sticky FOCuS feed skips ``_evaluate`` only where the growth bound
    proves the statistic at or below gamma, so it trips at the same
    length as a state that evaluates every value."""

    @settings(max_examples=300, deadline=None)
    @given(values=split_series(max_size=120), data=st.data())
    def test_skipping_state_trips_like_an_evaluating_one(self, values, data):
        values = values.tolist()
        gamma = data.draw(st.sampled_from([0.0, 1e-6, 0.05, 0.5, 2.0, 9.0]))
        test = ValidityTest("glr_gaussian_focus", gamma, sticky=True)
        skipping, evaluating = validity.FocusState(test, 0), _EvaluatingFocus(test, 0)
        for value in values:
            skipping.feed(value)
            evaluating.feed(value)
            assert skipping.tripped == evaluating.tripped
            if skipping._stale:
                # a skipped step: the exact evaluation clears gamma
                exact = skipping._evaluate()
                assert exact <= gamma
                assert exact == evaluating.statistic
            if skipping.tripped:
                break
        assert skipping.length == evaluating.length
        # a read statistic is the exact one, skipped or not
        assert skipping.statistic == evaluating.statistic

    def test_change_free_run_skips_most_evaluations(self, monkeypatch):
        calls = []
        evaluate = validity.FocusState._evaluate

        def spy(state):
            calls.append(state.length)
            return evaluate(state)

        monkeypatch.setattr(validity.FocusState, "_evaluate", spy)
        n = 5000
        values = np.random.default_rng(60).normal(size=n).tolist()
        state = ValidityTest("glr_gaussian_focus", 2.0 * math.log(n), sticky=True).new_state(0)
        for value in values:
            state.feed(value)
        assert state.is_valid
        assert 0 < len(calls) < n // 10
        # traced, every value is read and so evaluated
        calls.clear()
        traced = ValidityTest("glr_gaussian_focus", 2.0 * math.log(n), sticky=True).new_state(0)
        for value in values:
            feed_and_read(traced, value)
        assert calls == list(range(1, n + 1))
        assert traced.statistic == state.statistic


class TestRankInvariance:
    @pytest.mark.parametrize("kind", ["wilcoxon", "mood"])
    def test_monotone_transform_invariance(self, kind):
        rng = np.random.default_rng(49)
        values = rng.normal(size=40)
        transformed = np.arctan(values) * 3.0 + 1.0
        scan = wilcoxon_scan if kind == "wilcoxon" else mood_scan
        assert scan(values) == pytest.approx(scan(transformed))


class TestThresholds:
    def test_wilcoxon_threshold_examples(self):
        assert wilcoxon_threshold(12.0) == pytest.approx(18.0)
        assert wilcoxon_threshold(250.0) == pytest.approx(1711.633, abs=1e-3)
        assert wilcoxon_threshold(1e-9) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(DomainError):
            wilcoxon_threshold(0.0)

    def test_sidak_single_split_is_chi2_99(self):
        assert sidak_threshold(1, 0.01) == pytest.approx(6.6349, abs=5e-4)

    def test_sidak_ten_splits(self):
        # alpha_split = 1 - 0.99^(1/10) ~ 0.0010045, near the 0.999 quantile
        value = sidak_threshold(10, 0.01)
        assert value == pytest.approx(10.8192, abs=1e-3)
        assert abs(value - 10.828) < 0.05

    def test_sidak_monte_carlo_cross_check(self):
        rng = np.random.default_rng(50)
        draws = rng.standard_normal((200_000, 10)) ** 2
        empirical = float(np.quantile(draws.max(axis=1), 0.99))
        assert sidak_threshold(10, 0.01) == pytest.approx(empirical, abs=0.2)

    def test_sidak_alpha_near_one_vanishes(self):
        values = [sidak_threshold(5, a) for a in (0.5, 0.9, 0.999, 1.0 - 1e-12)]
        assert all(x > y for x, y in zip(values, values[1:]))
        assert values[-1] < 1e-3

    def test_sidak_domain_errors(self):
        with pytest.raises(DomainError):
            sidak_threshold(0, 0.01)
        with pytest.raises(DomainError):
            sidak_threshold(3, 0.0)
        with pytest.raises(DomainError):
            sidak_threshold(3, 1.0)

    def test_chi2_quantile_against_tables(self):
        # published chi-square(1) quantiles
        for p, want in [(0.90, 2.70554), (0.95, 3.84146), (0.99, 6.63490), (0.999, 10.82757)]:
            assert chi2_quantile_1df(p) == pytest.approx(want, abs=2e-4)
        assert chi2_quantile_1df(0.0) == 0.0

    def test_chi2_quantile_inverts_cdf(self):
        for p in (0.01, 0.2, 0.5, 0.77, 0.99, 0.9999):
            x = chi2_quantile_1df(p)
            assert math.erf(math.sqrt(x / 2.0)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("tail", [1e-6, 1e-9, 1e-12])
    def test_chi2_quantile_keeps_relative_accuracy_near_one(self, tail):
        # Sidak thresholds sit at p close to 1; the upper tail must invert
        # to full relative precision there, not only to abs=1e-10.
        p = 1.0 - tail
        x = chi2_quantile_1df(p)
        assert math.erfc(math.sqrt(x / 2.0)) == pytest.approx(1.0 - p, rel=1e-12, abs=0.0)
