"""Tests for the segment cost functions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svp import CostModel, DomainError, InvalidRangeError, TimeSeries, cost
from svp.costs import gaussian_costs, mad_cost, make_cost_fn, poisson_cost

from oracles import exact_mad, naive_cost


def series(values):
    return TimeSeries.from_values(values)


class TestExamples:
    def test_gaussian_two_points(self):
        assert cost(series([0.0, 2.0]), 0, 2, CostModel("gaussian")) == pytest.approx(1.0)

    def test_gaussian_constant_segment(self):
        assert cost(series([3.0] * 9), 0, 9, CostModel("gaussian")) == 0.0

    def test_poisson_example(self):
        # 2 * 2 * (1 - ln 2), evaluated directly from the definition
        expected = 4.0 * (1.0 - math.log(2.0))
        assert cost(series([2.0, 2.0]), 0, 2, CostModel("poisson")) == pytest.approx(expected)
        assert expected == pytest.approx(1.2274112777602189)

    def test_poisson_zero_mean(self):
        assert cost(series([0.0, 0.0, 0.0]), 0, 3, CostModel("poisson")) == 0.0

    def test_mad_odd_median(self):
        assert cost(series([1.0, 2.0, 9.0]), 0, 3, CostModel("mad")) == pytest.approx(8.0)

    def test_quantile_zero_is_range(self):
        assert cost(series([3.0, 7.0, 1.0]), 0, 3, CostModel("quantile", x=0.0)) == pytest.approx(6.0)


class TestErrors:
    def test_invalid_range(self):
        ts = series([1.0, 2.0])
        for a, b in [(1, 1), (2, 1), (-1, 2), (0, 3)]:
            with pytest.raises(InvalidRangeError):
                cost(ts, a, b, CostModel("gaussian"))

    def test_poisson_rejects_negatives(self):
        with pytest.raises(DomainError):
            cost(series([1.0, -0.5]), 0, 2, CostModel("poisson"))

    def test_poisson_closure_rejects_negatives_when_bound(self):
        # the closure checks the domain once per series, not per call
        with pytest.raises(DomainError):
            make_cost_fn(series([1.0, 2.0, -0.5, 3.0]), CostModel("poisson"))

    def test_bad_model(self):
        with pytest.raises(DomainError):
            CostModel("huber")
        with pytest.raises(DomainError):
            CostModel("quantile", x=0.5)


class TestAgainstNaive:
    @pytest.mark.parametrize("kind", ["gaussian", "poisson", "mad", "quantile"])
    def test_all_subsegments_small(self, kind):
        rng = np.random.default_rng(10)
        values = np.abs(rng.normal(1.0, 1.0, size=60))
        ts = series(values)
        model = CostModel(kind, x=0.2 if kind == "quantile" else 0.0)
        for a in range(60):
            for b in range(a + 1, 61):
                got = cost(ts, a, b, model)
                want = naive_cost(values, a, b, kind, model.x)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "poisson"])
    def test_random_subsegments_n500(self, kind):
        rng = np.random.default_rng(11)
        values = rng.normal(size=500)
        values[250:] += 3.0
        if kind == "poisson":
            values = np.abs(values)
        ts = series(values)
        model = CostModel(kind)
        for _ in range(400):
            a = int(rng.integers(0, 500))
            b = int(rng.integers(a + 1, 501))
            assert cost(ts, a, b, model) == pytest.approx(
                naive_cost(values, a, b, kind), rel=1e-9, abs=1e-12
            )


class TestPoissonClosure:
    def test_bit_identical_to_poisson_cost(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            values = np.abs(rng.normal(1.0, 2.0, size=120))
            values[rng.integers(0, 120, size=10)] = 0.0
            ts = series(values)
            closure = make_cost_fn(ts, CostModel("poisson"))
            for a in range(0, 120, 3):
                for b in range(a + 1, 121, 2):
                    assert closure(a, b) == poisson_cost(ts, a, b)


class TestGaussianCosts:
    """``gaussian_costs`` rounds like the scalar closure, in both array shapes."""

    @staticmethod
    def runs_at_offset():
        # Constant runs at a large offset: cancellation leaves negative
        # residues, so the clamp to 0 is exercised.
        rng = np.random.default_rng(15)
        levels = np.round(rng.normal(0.0, 2.0, size=12), 1)
        values = np.repeat(levels, rng.integers(3, 15, size=12)) + 1e6
        values[rng.integers(0, values.size, size=8)] += 0.5
        return series(values)

    def test_clamp_fires(self):
        ts = self.runs_at_offset()
        cs, css = ts.cumsum, ts.cumsum_sq
        negative = 0
        for a in range(len(ts)):
            ends = np.arange(a + 1, len(ts) + 1)
            d = cs[ends] - cs[a]
            negative += int((0.5 * (css[ends] - css[a] - d * d / (ends - a)) < 0.0).sum())
        assert negative > 0

    def test_starts_against_fixed_end(self):
        ts = self.runs_at_offset()
        closure = make_cost_fn(ts, CostModel("gaussian"))
        for t in range(1, len(ts) + 1):
            starts = np.arange(t)
            got = gaussian_costs(ts.cumsum, ts.cumsum_sq, starts, t)
            assert [float(c).hex() for c in got] == [closure(a, t).hex() for a in range(t)]

    def test_fixed_start_against_ends(self):
        ts = self.runs_at_offset()
        closure = make_cost_fn(ts, CostModel("gaussian"))
        n = len(ts)
        for a in range(n):
            ends = np.arange(a + 1, n + 1)
            got = gaussian_costs(ts.cumsum, ts.cumsum_sq, a, ends)
            assert [float(c).hex() for c in got] == [closure(a, int(b)).hex() for b in ends]


@st.composite
def tied_series(draw, max_size=40):
    """Raw floats, or t3 noise kept raw or rounded to integers or halves
    (many ties), plus an offset of up to 1e8; one value or more."""
    kind = draw(st.sampled_from(["floats", "raw", "integer", "half"]))
    if kind == "floats":
        values = np.array(
            draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=max_size)), dtype=float
        )
    else:
        n = draw(st.integers(1, max_size))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_t(3, size=n) * draw(st.sampled_from([0.5, 1.0, 3.0]))
        if kind == "integer":
            values = np.round(values)
        elif kind == "half":
            values = np.round(2.0 * values) / 2.0
    return values + draw(st.sampled_from([0.0, -7.5, 1e3, 1e6, -1e8, 1e8]))


class TestExactMad:
    """``mad_cost`` is the exact sum of absolute deviations, rounded once,
    and the incremental closure returns the same bits in any call order."""

    @settings(max_examples=400, deadline=None)
    @given(values=tied_series(), data=st.data())
    def test_mad_cost_equals_exact_oracle(self, values, data):
        a = data.draw(st.integers(0, values.size - 1))
        b = data.draw(st.integers(a + 1, values.size))
        assert mad_cost(series(values), a, b).hex() == exact_mad(values, a, b).hex()

    @pytest.mark.parametrize("order", ["increasing", "random", "revisit"])
    @settings(max_examples=60, deadline=None)
    @given(values=tied_series(), data=st.data())
    def test_closure_equals_mad_cost(self, order, values, data):
        n = values.size
        ts = series(values)
        closure = make_cost_fn(ts, CostModel("mad"))
        # increasing b for each start, starts interleaved as the engine does
        calls = [(a, b) for b in range(1, n + 1) for a in range(b)]
        if order == "random":
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            calls = [calls[i] for i in rng.permutation(len(calls))]
        elif order == "revisit":
            # after the increasing pass, go back to a smaller b per start
            # and extend again in steps of one or two
            for a in range(n):
                cut = data.draw(st.integers(a + 1, n))
                step = data.draw(st.integers(1, 2))
                calls += [(a, b) for b in range(cut, n + 1, step)]
        for a, b in calls:
            assert closure(a, b).hex() == mad_cost(ts, a, b).hex(), (a, b)

    def test_closure_at_subnormal_and_large_scales(self):
        values = [5e-324, 1e150, -3.5, 2.0**-1070, 0.0, -1e150, 7.0]
        ts = series(values)
        closure = make_cost_fn(ts, CostModel("mad"))
        for b in range(1, len(values) + 1):
            for a in range(b):
                assert closure(a, b).hex() == exact_mad(values, a, b).hex()


class TestProperties:
    def test_translation_invariance(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=40)
        shifted = values + 17.25
        for kind in ("gaussian", "mad", "quantile"):
            model = CostModel(kind, x=0.1 if kind == "quantile" else 0.0)
            got = cost(series(values), 5, 35, model)
            want = cost(series(shifted), 5, 35, model)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_costs_nonnegative_and_finite(self):
        rng = np.random.default_rng(13)
        values = np.abs(rng.normal(size=50)) + 0.1
        ts = series(values)
        for kind in ("gaussian", "poisson", "mad", "quantile"):
            model = CostModel(kind, x=0.25 if kind == "quantile" else 0.0)
            for a, b in [(0, 1), (0, 50), (10, 11), (3, 27)]:
                value = cost(ts, a, b, model)
                assert math.isfinite(value)
                assert value >= 0.0
