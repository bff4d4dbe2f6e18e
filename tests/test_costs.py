"""Tests for the segment cost functions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from svp import CostModel, DomainError, InvalidRangeError, TimeSeries, cost
from svp.costs import make_cost_fn, poisson_cost

from oracles import naive_cost


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
