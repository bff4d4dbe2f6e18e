"""Tests for the shared domain types."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import svp
from svp import (
    INF_BIPOINT,
    BiPoint,
    CorruptTableError,
    CostModel,
    DomainError,
    DpTable,
    EngineConfig,
    Segmentation,
    SvpError,
    TimeSeries,
    ValidityTest,
    backtrack,
    svp_run,
)


class TestPackage:
    def test_every_export_resolves(self):
        assert [name for name in svp.__all__ if not hasattr(svp, name)] == []


class TestBiPoint:
    def test_lexicographic_order(self):
        assert BiPoint(2, 9.7) > BiPoint(2, 4.2)
        assert BiPoint(3, 0.1) > BiPoint(2, 9.7)
        assert BiPoint(1, 5.0) < BiPoint(2, 0.0)
        assert BiPoint(2, 4.2) == BiPoint(2, 4.2)

    def test_total_order_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = BiPoint(int(rng.integers(0, 4)), float(rng.normal()))
            b = BiPoint(int(rng.integers(0, 4)), float(rng.normal()))
            assert (a < b) + (a > b) + (a == b) == 1

    def test_infinite_sentinel_dominates(self):
        assert BiPoint(10**9, 1e300) < INF_BIPOINT
        assert not INF_BIPOINT.is_finite


class TestTimeSeries:
    def test_cumulative_sums_recomputable(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=64)
        ts = TimeSeries.from_values(values)
        assert ts.cumsum[0] == 0.0 and ts.cumsum_sq[0] == 0.0
        again = TimeSeries.from_values(values)
        assert np.array_equal(ts.cumsum, again.cumsum)
        assert np.array_equal(ts.cumsum_sq, again.cumsum_sq)
        for s in range(1, 65):
            assert ts.cumsum[s] == ts.cumsum[s - 1] + values[s - 1]

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(SvpError):
            TimeSeries.from_values([])
        with pytest.raises(SvpError):
            TimeSeries.from_values([1.0, math.nan])

    @pytest.mark.parametrize("values", [[1e200, -1e200, 1e200], [2e154, 1.0], [1e308, 1e308]])
    def test_rejects_overflowing_sums_without_warnings(self, values):
        # finite values whose sum or sum of squares is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                TimeSeries.from_values(values)

    def test_arrays_read_only(self):
        ts = TimeSeries.from_values([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.values[0] = 5.0


class TestSegmentation:
    def test_accessors(self):
        seg = Segmentation(boundaries=(0, 2, 4))
        assert seg.k == 2
        assert seg.n == 4
        assert seg.change_points == (2,)
        assert list(seg.segments()) == [(0, 2), (2, 4)]

    def test_rejects_bad_boundaries(self):
        with pytest.raises(SvpError):
            Segmentation(boundaries=(1, 4))
        with pytest.raises(SvpError):
            Segmentation(boundaries=(0, 3, 3, 5))
        with pytest.raises(SvpError):
            Segmentation(boundaries=(0,))


class TestBacktrack:
    def test_link_following(self):
        table = DpTable(
            r=(BiPoint(0, 0.0), BiPoint(1, 0.0), BiPoint(1, 0.0), BiPoint(2, 0.0), BiPoint(2, 0.0)),
            s=(0, 0, 0, 2, 2),
        )
        assert backtrack(table).boundaries == (0, 2, 4)

    def test_single_segment(self):
        table = DpTable(r=(BiPoint(0, 0.0), BiPoint(1, 0.0)), s=(0, 0))
        assert backtrack(table).boundaries == (0, 1)

    def test_corrupt_link_raises(self):
        table = DpTable(
            r=(BiPoint(0, 0.0), BiPoint(1, 0.0), BiPoint(2, 0.0)),
            s=(0, 0, 2),
        )
        with pytest.raises(CorruptTableError):
            backtrack(table)

    def test_count_mismatch_raises(self):
        table = DpTable(r=(BiPoint(0, 0.0), BiPoint(3, 0.0)), s=(0, 0))
        with pytest.raises(CorruptTableError):
            backtrack(table)

    def test_engine_toy_series(self):
        ts = TimeSeries.from_values([0.0, 0.0, 10.0, 10.0])
        config = EngineConfig(cost=CostModel("gaussian"), test=ValidityTest("range", gamma=1.0))
        result = svp_run(ts, config)
        assert result.segmentation.boundaries == (0, 2, 4)
        assert result.table.r[-1] == BiPoint(2, 0.0)


class TestTableConsistency:
    def test_backtracked_cost_matches_r_n(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(10, 40))
            values = rng.normal(size=n)
            values[n // 2 :] += 2.0
            ts = TimeSeries.from_values(values)
            config = EngineConfig(
                cost=CostModel("gaussian"),
                test=ValidityTest("glr_gaussian_focus", gamma=3.0, sticky=True),
            )
            table, seg = svp_run(ts, config)
            from svp import cost

            total = sum(cost(ts, a, b, config.cost) for a, b in seg.segments())
            r_n = table.r[-1]
            assert seg.k == r_n.k
            assert total == pytest.approx(r_n.q, rel=1e-9, abs=1e-12)
