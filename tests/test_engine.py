"""Tests for the solvers: the exact DP, candidate removal and the OP baseline."""

from __future__ import annotations

import gc
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from svp import (
    INF_BIPOINT,
    BiPoint,
    CostModel,
    EngineConfig,
    InfeasiblePartitionError,
    TimeSeries,
    ValidityTest,
    cost,
    is_segment_valid,
    op_pelt_run,
    segmentation_is_valid,
    svp_run,
)

from svp import engine, validity
from svp.bench import Scenario, generate
from svp.costs import gaussian_rounding, make_cost_fn, max_cost_fall
from svp.validity import VALIDITY_KINDS, certainly_invalid, sidak_threshold, wilcoxon_threshold

from oracles import brute_force_op, brute_force_svp, reference_run
from test_validity import split_series


def gaussian_config(test, **kwargs):
    return EngineConfig(cost=CostModel("gaussian"), test=test, **kwargs)


def random_series(rng, n, changes=0, jump=2.0):
    values = rng.normal(size=n)
    for c in range(changes):
        at = int((c + 1) * n / (changes + 1))
        values[at:] += jump * (1 if c % 2 == 0 else -1)
    return values


class TestSvpRunExamples:
    def test_toy_step_series(self):
        ts = TimeSeries.from_values([0.0, 0.0, 10.0, 10.0])
        result = svp_run(ts, gaussian_config(ValidityTest("range", gamma=1.0)))
        assert result.table.r[-1] == BiPoint(2, 0.0)
        assert result.segmentation.boundaries == (0, 2, 4)

    @pytest.mark.parametrize("n", [1, 2, 7, 30])
    @pytest.mark.parametrize(
        "test",
        [
            ValidityTest("range", gamma=0.0),
            ValidityTest("glr_gaussian_focus", gamma=0.0, sticky=True),
            ValidityTest("mood", gamma=0.0),
        ],
    )
    def test_constant_series_single_segment(self, n, test):
        ts = TimeSeries.from_values([4.5] * n)
        result = svp_run(ts, gaussian_config(test))
        assert result.table.r[-1] == BiPoint(1, 0.0)
        assert result.segmentation.boundaries == (0, n)

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_constant_series_wilcoxon_tie_convention(self, n):
        # ties count as <=, so a constant window scores u*(n-u)/2; the
        # single-segment answer needs gamma at least n^2/8
        ts = TimeSeries.from_values([4.5] * n)
        roomy = svp_run(ts, gaussian_config(ValidityTest("wilcoxon", gamma=n * n / 8.0)))
        assert roomy.segmentation.boundaries == (0, n)
        if n >= 7:
            tight = svp_run(ts, gaussian_config(ValidityTest("wilcoxon", gamma=1.0)))
            assert tight.segmentation.k > 1

    def test_small_gaussian_against_enumeration(self):
        # 50 seeds at the scale threshold 2 log 10, all 2^9 partitions
        rng = np.random.default_rng(123)
        gamma = 2.0 * math.log(10)
        test = ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True)
        for _ in range(50):
            values = rng.normal(size=10)
            ts = TimeSeries.from_values(values)
            result = svp_run(ts, gaussian_config(test))
            (k, q), _ = brute_force_svp(values.tolist(), "gaussian", test.kind, gamma, True)
            r_n = result.table.r[-1]
            assert r_n.k == k
            assert r_n.q == pytest.approx(q, rel=1e-9, abs=1e-12)

    def test_min_seg_len_above_n_fails_before_the_loop(self):
        ts = TimeSeries.from_values([1.0, 2.0, 3.0])
        calls = []
        config = gaussian_config(ValidityTest("range", gamma=5.0), min_seg_len=4)
        with pytest.raises(InfeasiblePartitionError, match=r"min_seg_len 4 .* length 3"):
            svp_run(ts, config, stat_trace=lambda s, t, v: calls.append(s))
        assert calls == []

    def test_infeasible_with_negative_gamma(self):
        ts = TimeSeries.from_values([1.0, 2.0])
        with pytest.raises(InfeasiblePartitionError):
            svp_run(ts, gaussian_config(ValidityTest("range", gamma=-1.0)))

    def test_min_seg_len_respected(self):
        rng = np.random.default_rng(5)
        values = random_series(rng, 24, changes=1)
        ts = TimeSeries.from_values(values)
        test = ValidityTest("glr_gaussian_focus", gamma=4.0, sticky=True)
        for min_len in (1, 2, 4):
            result = svp_run(ts, gaussian_config(test, min_seg_len=min_len))
            assert all(b - a >= min_len for a, b in result.segmentation.segments())

    def test_min_seg_len_matches_enumeration(self):
        rng = np.random.default_rng(6)
        gamma = 4.5
        test = ValidityTest("range", gamma=gamma)
        feasible = infeasible = 0
        for _ in range(12):
            values = np.round(random_series(rng, 9, changes=1), 3)
            ts = TimeSeries.from_values(values)
            (k, q), _ = brute_force_svp(
                values.tolist(), "gaussian", "range", gamma, False, min_seg_len=3
            )
            try:
                result = svp_run(ts, gaussian_config(test, min_seg_len=3))
            except InfeasiblePartitionError:
                assert k == math.inf
                infeasible += 1
                continue
            feasible += 1
            assert result.table.r[-1].k == k
            assert result.table.r[-1].q == pytest.approx(q, rel=1e-9, abs=1e-12)
        assert feasible > 0

    def test_every_returned_segment_valid(self):
        rng = np.random.default_rng(7)
        for kind, sticky, gamma in [
            ("range", False, 2.0),
            ("glr_gaussian_focus", True, 3.0),
            ("wilcoxon", True, 6.0),
            ("mood", False, 5.0),
        ]:
            values = random_series(rng, 60, changes=2)
            ts = TimeSeries.from_values(values)
            test = ValidityTest(kind, gamma=gamma, sticky=sticky)
            result = svp_run(ts, gaussian_config(test))
            assert segmentation_is_valid(ts, result.segmentation, test)

    def test_stat_trace_reports_evaluations(self):
        rng = np.random.default_rng(8)
        ts = TimeSeries.from_values(random_series(rng, 30, changes=1))
        records = []
        test = ValidityTest("glr_gaussian_focus", gamma=3.0, sticky=True)
        svp_run(ts, gaussian_config(test), stat_trace=lambda s, t, v: records.append((s, t, v)))
        assert records
        assert all(0 <= s < t <= 30 for s, t, _ in records)


class TestDpStep:
    """Rules of one DP step, read off the tables ``svp_run`` returns."""

    def test_lower_group_wins_regardless_of_cost(self):
        # four single points cost 0, but one segment of cost 0.5 is fewer
        ts = TimeSeries.from_values([0.0, 1.0, 0.0, 1.0])
        result = svp_run(ts, gaussian_config(ValidityTest("range", gamma=10.0)))
        assert result.table.r[-1] == BiPoint(1, 0.5)
        assert result.segmentation.boundaries == (0, 4)

    def test_q_minimum_within_group_skips_invalid(self):
        # at t = 6 every start s = 1..5 ends one segment; s = 2 is the
        # cheapest extension but (2, 6] is invalid, so s = 5 wins
        ts = TimeSeries.from_values([5.0, 5.0, 3.0, 4.0, 3.0, 1.0])
        test = ValidityTest("range", gamma=2.0)
        model = CostModel("mad")
        table = svp_run(ts, EngineConfig(cost=model, test=test)).table
        extended = {s: table.r[s].q + cost(ts, s, 6, model) for s in range(6) if table.r[s].k == 1}
        assert sorted(extended, key=extended.get)[:2] == [2, 5]
        assert not is_segment_valid(ts, 2, 6, test)
        assert table.r[6] == BiPoint(2, extended[5])
        assert table.s[6] == 5

    def test_tie_breaks_to_latest_start(self):
        # (0, 1] + (1, 3] and (0, 2] + (2, 3] both cost 0.0625
        ts = TimeSeries.from_values([0.0, 0.5, 1.0])
        result = svp_run(ts, gaussian_config(ValidityTest("range", gamma=0.6)))
        assert result.segmentation.boundaries == (0, 2, 3)
        assert result.table.r[-1] == BiPoint(2, 0.0625)

    def test_agrees_with_ungrouped_lex_min(self):
        # every r[t] is the plain lexicographic minimum over all valid
        # starts, with validity rechecked by full rescans
        rng = np.random.default_rng(9)
        test = ValidityTest("range", gamma=2.2)
        config = gaussian_config(test)
        for _ in range(30):
            n = int(rng.integers(4, 16))
            values = random_series(rng, n, changes=int(rng.integers(0, 2)))
            ts = TimeSeries.from_values(values)
            table = svp_run(ts, config).table
            for t in range(1, n + 1):
                best = min(
                    (table.r[s].k + 1, table.r[s].q + cost(ts, s, t, config.cost), -s)
                    for s in range(t)
                    if table.r[s].is_finite and is_segment_valid(ts, s, t, test)
                )
                assert (table.r[t].k, table.r[t].q, -table.s[t]) == best

    def test_empty_candidate_set_returns_infinite(self):
        # no start is at least two points before t = 1
        ts = TimeSeries.from_values([1.0, 2.0, 3.0])
        result = svp_run(ts, gaussian_config(ValidityTest("range", gamma=5.0), min_seg_len=2))
        assert result.table.r[1] == INF_BIPOINT
        assert result.segmentation.boundaries == (0, 3)


class TestPruneCandidates:
    def test_tripped_candidate_removed(self):
        # once a start's sticky statistic passes gamma it is never fed again
        rng = np.random.default_rng(10)
        ts = TimeSeries.from_values(random_series(rng, 60, changes=2, jump=4.0))
        test = ValidityTest("glr_gaussian_focus", gamma=3.0, sticky=True)
        records = []
        svp_run(ts, gaussian_config(test), stat_trace=lambda s, t, v: records.append((s, t, v)))
        tripped_at = {}
        for s, t, value in records:
            assert s not in tripped_at, (s, t, tripped_at.get(s))
            if value > test.gamma:
                tripped_at[s] = t
        assert tripped_at


class TestPruningDifferential:
    @pytest.mark.parametrize(
        "kind,sticky,gamma,cost_kind,min_seg_len",
        [
            ("range", False, 2.5, "gaussian", 1),
            ("range", False, 3.5, "mad", 1),
            ("glr_gaussian_focus", True, 4.0, "gaussian", 1),
            ("wilcoxon", True, 8.0, "mad", 1),
            ("glr_gaussian_focus", False, 4.0, "gaussian", 1),
            ("mood", False, 5.0, "mad", 1),
            ("glr_gaussian_focus", True, 6.0, "gaussian", 3),
            ("wilcoxon", True, 8.0, "mad", 2),
        ],
    )
    def test_maximal_pruning_matches_reference(self, kind, sticky, gamma, cost_kind, min_seg_len):
        rng = np.random.default_rng(11)
        config = EngineConfig(
            cost=CostModel(cost_kind),
            test=ValidityTest(kind, gamma=gamma, sticky=sticky),
            min_seg_len=min_seg_len,
        )
        for _ in range(12):
            n = int(rng.integers(20, 60))
            values = random_series(rng, n, changes=int(rng.integers(0, 3)))
            ts = TimeSeries.from_values(values)
            lazy = svp_run(ts, config)
            reference = reference_run(ts, config)
            assert lazy.segmentation == reference.segmentation
            assert lazy.table.r == reference.table.r
            assert lazy.table.s == reference.table.s


def constant_runs(rng, n, shortest=40, longest=160):
    """Runs of ``shortest`` to ``longest`` equal small integers.

    A constant window scores u * (n - u) / 2 under the Wilcoxon scan, so
    runs longer than sqrt(8 * gamma) must be cut, and every cut inside a
    run costs 0: many starts tie on the extended cost.
    """
    values: list[float] = []
    while len(values) < n:
        values += [float(rng.integers(0, 3))] * int(rng.integers(shortest, longest))
    return np.array(values[:n])


def table_hex(result):
    """Every r and s entry and the boundaries, floats as exact hex."""
    return (
        [(float(bp.k).hex(), float(bp.q).hex()) for bp in result.table.r],
        list(result.table.s),
        result.segmentation.boundaries,
    )


def spy_cost_calls(monkeypatch, blocks=False):
    """The (a, b) of every scalar cost-closure call the engine makes, in order.

    With ``blocks`` the list also holds every (a, b) pair that the
    closure's column-of-starts form, ``make_block_cost_fn``, costs, so a
    count of costed pairs does not depend on which form costed them.
    """
    calls = []
    make = engine.make_cost_fn
    make_block = engine.make_block_cost_fn

    def counted_make_cost_fn(series, model):
        cost_fn = make(series, model)

        def counted(a, b):
            calls.append((a, b))
            return cost_fn(a, b)

        return counted

    def counted_make_block_cost_fn(series, model):
        block_costs = make_block(series, model)
        if block_costs is None:
            return None

        def counted(starts, qs, ends):
            calls.extend((a, b) for a in starts for b in ends)
            return block_costs(starts, qs, ends)

        return counted

    monkeypatch.setattr(engine, "make_cost_fn", counted_make_cost_fn)
    if blocks:
        monkeypatch.setattr(engine, "make_block_cost_fn", counted_make_block_cost_fn)
    return calls


def spy_batch_settles(monkeypatch):
    """Every start that the array form of the split check settles, in order."""
    settled = []
    split_settled = engine.split_settled

    def spy(*args):
        starts = split_settled(*args)
        settled.extend(starts)
        return starts

    monkeypatch.setattr(engine, "split_settled", spy)
    return settled


class TestGroupScanDifferential:
    """Each step catches starts up in increasing (segment count, extended
    cost, -s), the order a full sort of every consulted group gives,
    although the group heaps cost only the starts whose lower bound is
    reached.  The tables match the reference bit for bit, exact ties
    included."""

    @pytest.mark.parametrize(
        "kind,sticky,gamma,cost_kind,min_seg_len,runs",
        [
            ("glr_gaussian_focus", True, 4.0, "gaussian", 1, None),
            ("glr_gaussian_focus", True, 4.0, "gaussian", 3, None),
            ("range", False, 5.5, "gaussian", 1, None),
            ("wilcoxon", True, 60.0, "mad", 1, None),
            ("glr_gaussian_focus", True, 4.0, "quantile", 1, None),
            ("mood", True, 9.0, "poisson", 1, (5, 30)),
            ("wilcoxon", True, 1250.0, "gaussian", 1, (40, 160)),
            ("wilcoxon", False, 1250.0, "gaussian", 2, (40, 160)),
            ("wilcoxon", True, 40.0, "gaussian", 1, (5, 30)),
        ],
    )
    def test_matches_reference(
        self, monkeypatch, kind, sticky, gamma, cost_kind, min_seg_len, runs
    ):
        caught = []
        catch_up = validity.ValidityState.catch_up

        def catch_up_spy(state, series, upto, *args):
            caught.append((upto, state.start))
            return catch_up(state, series, upto, *args)

        monkeypatch.setattr(validity.ValidityState, "catch_up", catch_up_spy)
        costed = spy_cost_calls(monkeypatch)
        rng = np.random.default_rng(17)
        config = EngineConfig(
            cost=CostModel(cost_kind),
            test=ValidityTest(kind, gamma=gamma, sticky=sticky),
            min_seg_len=min_seg_len,
        )
        tied = False  # two starts of a group costed equal at one step
        sizes = []
        for _ in range(2):
            n = int(rng.integers(250, 400))
            if runs:
                values = constant_runs(rng, n, *runs)
            else:
                values = random_series(rng, n, changes=int(rng.integers(1, 4)))
            ts = TimeSeries.from_values(values)
            caught.clear()
            costed.clear()
            lazy = svp_run(ts, config)
            assert table_hex(lazy) == table_hex(reference_run(ts, config))
            r = lazy.table.r
            cost_fn = make_cost_fn(ts, config.cost)
            steps: dict[int, list] = {}
            for t, s in caught:
                steps.setdefault(t, []).append((r[s].k, r[s].q + cost_fn(s, t), -s))
            for keys in steps.values():
                assert all(a < b for a, b in zip(keys, keys[1:])), keys
            # a run-ahead step costs its start once and catches nothing up
            keys = Counter((t, r[s].k, r[s].q + cost_fn(s, t)) for s, t in costed if t in steps)
            tied |= max(keys.values()) > 1
            per_step = Counter(t for s, t in costed)
            sizes += [per_step[t] for t in steps]
        assert 1 in sizes and max(sizes) >= 2
        if runs:
            assert tied
        if runs == (5, 30):
            assert any(2 <= m <= 48 for m in sizes)


class TestOracleProperty:
    """On short random series, ties, constant runs and large offsets
    included, ``svp_run`` gives the tables of ``oracles.reference_run``
    bit for bit, for every validity kind, sticky or not, and every cost."""

    GAMMAS = {
        "range": [0.0, 1.0, 3.0, 8.0],
        "glr_gaussian_focus": [0.0, 1.0, 4.0, 12.0, 50.0],
        "wilcoxon": [0.5, 4.0, 20.0, 100.0],
        "mood": [1.0, 4.0, 9.0],
    }

    @settings(max_examples=600, deadline=None)
    @given(values=split_series(max_size=30), data=st.data())
    def test_tables_equal_reference(self, values, data):
        kind = data.draw(st.sampled_from(VALIDITY_KINDS))
        test = ValidityTest(
            kind, gamma=data.draw(st.sampled_from(self.GAMMAS[kind])), sticky=data.draw(st.booleans())
        )
        model = CostModel(*data.draw(st.sampled_from([("gaussian",), ("mad",), ("poisson",), ("quantile", 0.2)])))
        if model.kind == "poisson":
            values = np.abs(values)
        config = EngineConfig(cost=model, test=test, min_seg_len=data.draw(st.integers(1, 3)))
        ts = TimeSeries.from_values(values)
        trace = (lambda s, t, v: None) if data.draw(st.booleans()) else None
        try:
            reference = reference_run(ts, config)
        except InfeasiblePartitionError:
            with pytest.raises(InfeasiblePartitionError):
                svp_run(ts, config, trace)
            return
        assert table_hex(svp_run(ts, config, trace)) == table_hex(reference)


class TestStaleSlack:
    """A key computed at an earlier step, lowered by the slack, bounds the
    key at every later step: the gaussian closure falls by at most the
    slack as its segment grows, the MAD closure never falls."""

    @settings(max_examples=300, deadline=None)
    @given(values=split_series(max_size=60))
    def test_costs_fall_by_at_most_the_slack(self, values):
        ts = TimeSeries.from_values(values)
        n = len(ts)
        gaussian, mad = CostModel("gaussian"), CostModel("mad")
        slack = max_cost_fall(ts, gaussian)
        assert slack == gaussian_rounding(n, float(ts.cumsum_sq[n]))
        assert max_cost_fall(ts, mad) == 0.0
        gauss_fn, mad_fn = make_cost_fn(ts, gaussian), make_cost_fn(ts, mad)
        for s in range(n):
            gauss = [gauss_fn(s, t) for t in range(s + 1, n + 1)]
            assert all(g >= peak - slack for g, peak in zip(gauss[1:], np.maximum.accumulate(gauss)))
            spread = [mad_fn(s, t) for t in range(s + 1, n + 1)]
            assert spread == sorted(spread)
            # the bound survives adding a DP cost, which is at most half
            # the sum of squares
            for q in (0.0, 0.5 * float(ts.cumsum_sq[n])):
                keys = [q + g for g in gauss]
                assert all(k >= (peak - slack) for k, peak in zip(keys[1:], np.maximum.accumulate(keys)))

    def test_non_monotone_costs_recompute_every_key(self):
        ts = TimeSeries.from_values([1.0, 2.0, 3.0])
        assert max_cost_fall(ts, CostModel("poisson")) == math.inf
        assert max_cost_fall(ts, CostModel("quantile", 0.2)) == math.inf


class TestCertificateDifferential:
    """Starts settled by a full-window statistic, or for GLR by the gain at
    the latest change, leave the tables bit-identical to the reference,
    which feeds every start every value."""

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    @pytest.mark.parametrize(
        "kind,gamma,cost_kind,n",
        [
            ("glr_gaussian_focus", 2.0 * math.log(1000), "gaussian", 1000),
            ("wilcoxon", 1.5 * math.sqrt(30.0**3 / 12.0), "mad", 120),
            ("mood", 9.0, "mad", 120),
            ("range", 6.0, "gaussian", 400),
        ],
        ids=["glr", "wilcoxon", "mood", "range"],
    )
    def test_matches_reference_on_rounded_data(
        self, monkeypatch, kind, gamma, cost_kind, n, offset
    ):
        settled = []
        scans = []
        segment_statistic = validity.segment_statistic

        def scan_spy(*args):
            scans.append(args)
            return segment_statistic(*args)

        def spy(*args):
            scans.clear()
            value = certainly_invalid(*args)
            settled.append((value is not None, bool(scans)))
            return value

        monkeypatch.setattr(validity, "segment_statistic", scan_spy)
        monkeypatch.setattr(validity, "certainly_invalid", spy)
        batch = spy_batch_settles(monkeypatch)
        base = generate(Scenario(name="up", n=n, jump=1.5, segments=4, seed=5)).values
        ts = TimeSeries.from_values(np.round(2.0 * base) / 2.0 + offset)
        config = EngineConfig(
            cost=CostModel(cost_kind), test=ValidityTest(kind, gamma=gamma, sticky=True)
        )
        assert table_hex(svp_run(ts, config)) == table_hex(reference_run(ts, config))
        # a start the split check settles in a run-ahead's batch takes no scan
        settled += [(True, False)] * len(batch)
        if kind != "glr_gaussian_focus" or offset == 0.0:
            assert any(value for value, _ in settled)
        if kind != "glr_gaussian_focus":
            assert all(scanned for _, scanned in settled)  # only GLR uses the split
        elif offset == 0.0:
            # settled without a full scan: by the gain at the latest change
            assert (True, False) in settled


class TestRunAheadDifferential:
    """Run-ahead answers long valid stretches in one feed loop, also where
    the found start shares its group and certifies chunks against it; on
    long change-free and long-segment series its tables stay bit-identical
    to the reference, which consults every start at every step."""

    @pytest.mark.parametrize("min_seg_len", [1, 5])
    @pytest.mark.parametrize(
        "kind,gamma", [("glr_gaussian_focus", 2.0 * math.log(1500)), ("range", 5.5)],
        ids=["glr", "range"],
    )
    @pytest.mark.parametrize("name,segments", [("none", 1), ("up", 3), ("updown", 8)])
    def test_matches_reference(self, monkeypatch, name, segments, kind, gamma, min_seg_len):
        # a run-ahead, and only a run-ahead, fills rows with one start's costs
        ran = []
        fixed = engine.fixed_start_costs

        def fixed_spy(series, cost, cost_fn, s, ends, base):
            ran.append(len(ends))
            return fixed(series, cost, cost_fn, s, ends, base)

        monkeypatch.setattr(engine, "fixed_start_costs", fixed_spy)
        ts = generate(Scenario(name=name, n=1500, jump=1.5, segments=segments, seed=3))
        config = gaussian_config(ValidityTest(kind, gamma=gamma), min_seg_len=min_seg_len)
        lazy = svp_run(ts, config)
        assert table_hex(lazy) == table_hex(reference_run(ts, config))
        assert max(ran) >= 100

    def test_up_k4_run_aheads_answer_most_rows(self, monkeypatch):
        # a glr-k4 series: run-aheads answer 3963 of its 4000 rows and
        # the scan consults 37 steps.  Running ahead through the first
        # segment only answered about 1010
        consulted = set()
        catch_up = validity.ValidityState.catch_up

        def catch_up_spy(state, series, upto, *args):
            consulted.add(upto)
            return catch_up(state, series, upto, *args)

        monkeypatch.setattr(validity.ValidityState, "catch_up", catch_up_spy)
        n = 4000
        ts = generate(Scenario(name="up", n=n, jump=1.5, segments=4, seed=1000))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        result = svp_run(ts, gaussian_config(test))
        assert result.segmentation.boundaries == (0, 1001, 1993, 3000, 4000)
        assert n - len(consulted) >= 0.95 * n

    @pytest.mark.parametrize("name,segments,seed", [("up", 3, 0), ("updown", 20, 2)])
    def test_pending_starts_block_the_run_ahead(self, name, segments, seed):
        # With a minimum segment length the starts of the last
        # min_seg_len - 1 steps are pending.  On these series a pending
        # start of the found start's own group becomes eligible at the next
        # step, so no run-ahead may start there.
        ts = generate(Scenario(name=name, n=400, jump=1.5, segments=segments, seed=seed))
        config = gaussian_config(ValidityTest("range", gamma=5.5), min_seg_len=12)
        assert table_hex(svp_run(ts, config)) == table_hex(reference_run(ts, config))


    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("min_seg_len", [1, 5])
    @pytest.mark.parametrize("sticky", [True, False], ids=["sticky", "plain"])
    def test_later_segments_run_ahead(self, monkeypatch, sticky, min_seg_len, traced):
        # a run-ahead answers steps that no scan consults.  Under a sticky
        # test one of at least 100 steps starts after the first change,
        # where the found start shares its group with the first segment's
        # starts.  A non-sticky test kills no start, so start 0's group
        # stays below the found start's and no run-ahead starts there
        consulted = set()
        catch_up = validity.ValidityState.catch_up

        def catch_up_spy(state, series, upto, *args):
            consulted.add(upto)
            return catch_up(state, series, upto, *args)

        monkeypatch.setattr(validity.ValidityState, "catch_up", catch_up_spy)
        scenario = Scenario(name="up", n=1500, jump=1.5, segments=3, seed=3)
        ts = generate(scenario)
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(1500), sticky=sticky)
        config = gaussian_config(test, min_seg_len=min_seg_len)
        trace = (lambda s, t, v: None) if traced else None
        assert table_hex(svp_run(ts, config, trace)) == table_hex(reference_run(ts, config))
        run = longest = 0
        for t in range(scenario.true_changes[0] + 1, len(ts) + 1):
            run = 0 if t in consulted else run + 1
            longest = max(longest, run)
        assert (longest >= 100) == sticky

    @pytest.mark.parametrize(
        "kind,gamma,sticky",
        [("glr_gaussian_focus", 4.0, True), ("range", 1.5, True)], ids=["sticky-glr", "range"]
    )
    def test_a_rival_reaching_the_key_stops_the_chunk(self, monkeypatch, kind, gamma, sticky):
        # On constant runs many starts tie on the extended cost.  When a
        # popped entry ties or beats the found start, (key', -s') <=
        # (key, -s), at an end inside a chunk, the run stops there: the
        # scan consults that end, or an earlier one where the start fails
        events = []
        fixed = engine.fixed_start_costs
        make_block = engine.make_block_cost_fn
        catch_up = validity.ValidityState.catch_up

        def fixed_spy(series, cost, cost_fn, s, ends, base):
            keys = fixed(series, cost, cost_fn, s, ends, base)
            events.append(("start", s, ends, keys))
            return keys

        def make_block_spy(series, model):
            block_costs = make_block(series, model)

            def spy(starts, qs, ends):
                best, last = block_costs(starts, qs, ends)
                events.append(("rivals", ends, best))
                return best, last

            return spy

        def catch_up_spy(state, series, upto, *args):
            events.append(("consult", upto))
            return catch_up(state, series, upto, *args)

        monkeypatch.setattr(engine, "fixed_start_costs", fixed_spy)
        monkeypatch.setattr(engine, "make_block_cost_fn", make_block_spy)
        monkeypatch.setattr(validity.ValidityState, "catch_up", catch_up_spy)
        ts = TimeSeries.from_values(constant_runs(np.random.default_rng(17), 300, 5, 30))
        config = gaussian_config(ValidityTest(kind, gamma=gamma, sticky=sticky))
        assert table_hex(svp_run(ts, config)) == table_hex(reference_run(ts, config))
        stops = []  # (end a rival reaches, next consulted step, tied)
        for i, event in enumerate(events):
            if event[0] != "rivals" or events[i - 1][:1] != ("start",) or events[i - 1][2] != event[1]:
                continue
            _, s, ends, keys = events[i - 1]
            reached = [j for j, (key, b) in enumerate(zip(keys, event[2])) if b <= (key, -s)]
            if reached and 0 < reached[0] < len(ends) - 1:
                j = reached[0]
                step = next(e[1] for e in events[i:] if e[0] == "consult")
                stops.append((ends[j], step, event[2][j][0] == keys[j]))
        assert stops and all(step <= end for end, step, _ in stops)
        assert any(step == end and tied for end, step, tied in stops)


class TestFeedCounts:
    """``stat_trace`` calls are deterministic: one per value fed to a sticky
    state, one per start a full-window statistic settles, one per consulted
    segment under a non-sticky test."""

    def test_change_free_sticky_glr_feeds_each_value_once(self):
        n = 1000
        ts = generate(Scenario(name="none", n=n, seed=5))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        calls = []
        result = svp_run(ts, gaussian_config(test), stat_trace=lambda s, t, v: calls.append(s))
        assert result.segmentation.boundaries == (0, n)
        assert len(calls) == n

    def test_change_free_sticky_glr_never_checks_a_full_window(self, monkeypatch):
        # every step reaches the one consulted start, so it is never behind
        checked = []

        def spy(series, s, t, *args):
            checked.append((s, t))
            return certainly_invalid(series, s, t, *args)

        monkeypatch.setattr(validity, "certainly_invalid", spy)
        n = 2000
        ts = generate(Scenario(name="none", n=n, seed=7))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        assert svp_run(ts, gaussian_config(test)).segmentation.boundaries == (0, n)
        assert checked == []

    @pytest.mark.parametrize("traced,evaluations", [(False, 73), (True, 2000)],
                             ids=["untraced", "traced"])
    def test_change_free_sticky_glr_evaluation_count_is_pinned(
        self, monkeypatch, traced, evaluations
    ):
        # untraced, the growth bound leaves FOCuS to evaluate only where
        # the statistic could have reached gamma; a traced run reads, and
        # so evaluates, every value
        calls = []
        evaluate = validity.FocusState._evaluate

        def spy(state):
            calls.append(state.length)
            return evaluate(state)

        monkeypatch.setattr(validity.FocusState, "_evaluate", spy)
        n = 2000
        ts = generate(Scenario(name="none", n=n, seed=7))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        trace = (lambda s, t, v: None) if traced else None
        assert svp_run(ts, gaussian_config(test), trace).segmentation.boundaries == (0, n)
        assert len(calls) == evaluations

    @pytest.mark.parametrize(
        "kind,gamma,sticky,boundaries,count",
        [
            ("glr_gaussian_focus", 2.0 * math.log(1000), True, (0, 253, 499, 747, 1000), 1771),
            ("glr_gaussian_focus", 2.0 * math.log(1000), False, (0, 253, 499, 747, 1000), 189678),
            ("range", 7.0, False, (0, 499, 747, 1000), 2021),
        ],
        ids=["sticky-glr", "glr", "range"],
    )
    def test_up_k4_count_is_pinned(self, kind, gamma, sticky, boundaries, count):
        # the sticky row was re-measured when full-window statistics began
        # to settle starts far behind (75688 before, every doomed start fed
        # value by value); the range row when range became sticky by
        # definition (1000 before, one final statistic per consult); the
        # glr row dates from before states owned the trace.  A change here
        # means the runner consults, feeds or traces different starts
        n = 1000
        ts = generate(Scenario(name="up", n=n, jump=1.5, segments=4, seed=5))
        test = ValidityTest(kind, gamma=gamma, sticky=sticky)
        calls = []
        result = svp_run(ts, gaussian_config(test), stat_trace=lambda s, t, v: calls.append(s))
        assert result.segmentation.boundaries == boundaries
        assert len(calls) == count

    def test_range_is_sticky_by_definition(self, monkeypatch):
        # max - min never shrinks as a segment grows, so the sticky flag
        # changes no answer: a range test built non-sticky feeds, traces
        # and solves as the sticky one.  Scanned as a plain stable test it
        # fed 201755 values here, against the sticky run's 1516
        feeds = []
        feed = validity.ValidityState.feed

        def feed_spy(state, value):
            feeds.append(state.start)
            feed(state, value)

        monkeypatch.setattr(validity.ValidityState, "feed", feed_spy)
        ts = generate(Scenario(name="up", n=1000, jump=1.5, segments=4, seed=5))
        runs = []
        for sticky in (False, True):
            feeds.clear()
            calls = []
            test = ValidityTest("range", gamma=7.0, sticky=sticky)
            result = svp_run(ts, gaussian_config(test), lambda *call: calls.append(call))
            runs.append((len(feeds), calls, table_hex(result)))
        assert runs[0] == runs[1]
        assert runs[1][0] == 1516

    @pytest.mark.parametrize(
        "traced,checks,scans", [(False, 755, 71), (True, 538, 538)], ids=["untraced", "traced"]
    )
    def test_up_k4_full_scan_count_is_pinned(self, monkeypatch, traced, checks, scans):
        # a check is a start that certainly_invalid is asked about or that
        # its array form settles in a run-ahead.  538 starts are checked
        # behind by certainly_invalid in a traced run, which scans every
        # one so that it traces the full-window value.  Untraced, a
        # run-ahead settles most doomed starts in batch by the gain at its
        # start (683), the gain at the latest change settles one more
        # (before run-aheads certified chunks it settled 467 of 538), and
        # 71 take the full scan
        calls, full = [], []
        segment_statistic = validity.segment_statistic

        def check_spy(*args):
            calls.append(args)
            return certainly_invalid(*args)

        def scan_spy(*args):
            full.append(args)
            return segment_statistic(*args)

        monkeypatch.setattr(validity, "certainly_invalid", check_spy)
        monkeypatch.setattr(validity, "segment_statistic", scan_spy)
        batch = spy_batch_settles(monkeypatch)
        n = 1000
        ts = generate(Scenario(name="up", n=n, jump=1.5, segments=4, seed=5))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        trace = (lambda s, t, v: None) if traced else None
        result = svp_run(ts, gaussian_config(test), stat_trace=trace)
        assert result.segmentation.boundaries == (0, 253, 499, 747, 1000)
        assert (len(calls) + len(batch), len(full)) == (checks, scans)
        assert bool(batch) != traced

    def test_up_k4_counts_do_not_grow_at_an_offset(self, monkeypatch):
        # the rounding bounds grow with the data's level, so at offset 1e4
        # an empirical margin switched the growth bound and the full-window
        # check off (7615 evaluations and 322 settles against 52 and 512);
        # the derived bound keeps both at offset 0's counts.  A settle is
        # a start certainly_invalid or its array form settles: 512 before
        # run-aheads settled doomed starts in batch
        evaluations, settles = [], []
        evaluate = validity.FocusState._evaluate

        def evaluate_spy(state):
            evaluations.append(state.length)
            return evaluate(state)

        def check_spy(*args):
            value = certainly_invalid(*args)
            settles.append(value is not None)
            return value

        monkeypatch.setattr(validity.FocusState, "_evaluate", evaluate_spy)
        monkeypatch.setattr(validity, "certainly_invalid", check_spy)
        batch = spy_batch_settles(monkeypatch)
        n = 1000
        base = generate(Scenario(name="up", n=n, jump=1.0, segments=4, seed=5)).values
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        counts = []
        for offset in (0.0, 1e4):
            evaluations.clear()
            settles.clear()
            batch.clear()
            result = svp_run(TimeSeries.from_values(base + offset), gaussian_config(test))
            counts.append((len(evaluations), sum(settles) + len(batch), result.segmentation.boundaries))
        assert counts[0] == counts[1]
        assert counts[0][:2] == (52, 687)

    def test_up_k4_cost_call_count_is_pinned(self, monkeypatch):
        # the group heaps cost a start only when its lower bound reaches the
        # top of its heap: 52051 costed (start, end) pairs on this run, 872
        # by the scalar closure in the scans and the rest by its
        # column-of-starts form in the run-aheads' chunks (6642 closure
        # calls when only the first segment ran ahead), where a full sort
        # of every consulted group costs each eligible start at every step.
        # A heap that re-costs every key fails here
        calls = spy_cost_calls(monkeypatch, blocks=True)
        n = 1000
        ts = generate(Scenario(name="up", n=n, jump=1.5, segments=4, seed=5))
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        result = svp_run(ts, gaussian_config(test))
        assert result.segmentation.boundaries == (0, 253, 499, 747, 1000)
        assert len(calls) == 52051


class TestStateLifetime:
    """A start the scan or a run-ahead kills under a sticky test, or that a
    run-ahead settles in batch, loses its validity state before the next
    step; outputs cannot show a kept dead state."""

    @pytest.mark.parametrize(
        "kind,gamma,sticky,scenario",
        [
            ("glr_gaussian_focus", 2.0 * math.log(400), True, ("up", 4, 1.5, 5)),
            ("glr_gaussian_focus", 4.0, True, ("updown", 8, 2.0, 0)),
            ("range", 7.0, False, ("up", 4, 1.5, 5)),
            ("glr_gaussian_focus", 2.0 * math.log(400), False, ("up", 4, 1.5, 5)),
        ],
        ids=["sticky-glr", "sticky-glr-batch", "range", "glr"],
    )
    def test_killed_states_are_freed(self, monkeypatch, kind, gamma, sticky, scenario):
        # the slotted states take no weakref, so a subclass counts them.  A
        # sticky catch_up feeds through extend_while_valid, so only the
        # calls made outside a catch_up are run-aheads.  A start settled in
        # batch counts as killed; on the updown series some of them had
        # been consulted, so they had a state to free
        created, killed, live = set(), set(), set()
        checked, spans, consulting = [], [], []
        base = validity._STATE_CLASSES[kind]

        class Counted(base):
            def __init__(self, test, start):
                super().__init__(test, start)
                created.add(start)
                live.add(start)

            def __del__(self):
                live.discard(self.start)

            def catch_up(self, series, upto, *args):
                if not checked or checked[-1] != upto:
                    checked.append(upto)
                    assert live == created - killed
                consulting.append(upto)
                valid = super().catch_up(series, upto, *args)
                consulting.pop()
                if not valid and self.test.sticky:
                    killed.add(self.start)
                return valid

            def extend_while_valid(self, series, upto, *args):
                if consulting:
                    return super().extend_while_valid(series, upto, *args)
                # a run-ahead answers its steps without a catch_up
                assert live == created - killed
                first = self.start + self.length + 1
                stop = super().extend_while_valid(series, upto, *args)
                spans.append(range(first, stop))
                if stop <= upto and self.test.sticky:
                    killed.add(self.start)
                return stop

        split_settled = engine.split_settled
        batch = set()

        def settled_spy(*args):
            starts = split_settled(*args)
            batch.update(starts)
            killed.update(starts)
            return starts

        monkeypatch.setitem(validity._STATE_CLASSES, kind, Counted)
        monkeypatch.setattr(engine, "split_settled", settled_spy)
        name, segments, jump, seed = scenario
        ts = generate(Scenario(name=name, n=400, jump=jump, segments=segments, seed=seed))
        test = ValidityTest(kind, gamma=gamma, sticky=sticky)
        svp_run(ts, gaussian_config(test))
        ran = [t for span in spans for t in span]
        assert sorted(checked + ran) == list(range(1, 401))
        assert bool(killed) == test.sticky
        if test.sticky:
            assert ran
        assert bool(batch) == (kind == "glr_gaussian_focus" and sticky)
        if name == "updown":
            assert batch & created


class TestTableColumns:
    """The DP table is three columns of plain numbers, which the garbage
    collector does not track, so holding a result keeps a few tracked
    objects alive, not one per row; the rows are built only when read."""

    def test_columns_hold_plain_numbers(self):
        n = 20_000
        test = ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
        svp_run(generate(Scenario(name="none", n=100, seed=2)), gaussian_config(test))
        ts = generate(Scenario(name="none", n=n, seed=2))
        gc.collect()
        before = len(gc.get_objects())
        result = svp_run(ts, gaussian_config(test))
        gc.collect()
        assert len(gc.get_objects()) - before < 1000
        table = result.table
        assert len(table.k) == len(table.q) == len(table.s) == n + 1
        # no numpy scalar leaks in from the array cost forms
        assert all(type(q) is float for q in table.q)
        assert all(type(k) is int or k == math.inf for k in table.k)
        assert table.r == tuple(map(BiPoint, table.k, table.q))


class TestRankInvariance:
    """A rank test sees only the order of the values, so a strictly
    increasing transform keeps every segment's validity and with it the
    segment count; the MAD cost only picks among equally short partitions."""

    GAMMAS = {
        "wilcoxon": [wilcoxon_threshold(x) for x in (5.0, 10.0, 20.0)],
        "mood": [3.0] + [sidak_threshold(m, 0.01) for m in (1, 10)],
    }
    TRANSFORMS = [
        lambda v: np.arctan(v) * 3.0 + 1.0,
        lambda v: np.exp(v / 4.0),
        lambda v: v**3 + v,
        lambda v: 0.5 * v + 1e6,
    ]

    @pytest.mark.parametrize("sticky", [True, False], ids=["sticky", "plain"])
    @pytest.mark.parametrize("kind", ["wilcoxon", "mood"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_segment_count_unchanged(self, kind, sticky, data):
        n = data.draw(st.integers(2, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.standard_t(3, size=n)
        for _ in range(data.draw(st.integers(0, 3))):
            values[int(rng.integers(0, n)) :] += rng.normal(scale=3.0)
        if data.draw(st.booleans()):
            values = np.round(2.0 * values) / 2.0
        transformed = data.draw(st.sampled_from(self.TRANSFORMS))(values)
        # the transform must keep the order and every distinct value distinct
        assume(np.array_equal(np.argsort(values, kind="stable"),
                              np.argsort(transformed, kind="stable")))
        assume(np.unique(transformed).size == np.unique(values).size)
        test = ValidityTest(kind, gamma=data.draw(st.sampled_from(self.GAMMAS[kind])),
                            sticky=sticky)
        config = EngineConfig(cost=CostModel("mad"), test=test)
        k = svp_run(TimeSeries.from_values(values), config).segmentation.k
        assert svp_run(TimeSeries.from_values(transformed), config).segmentation.k == k


class TestMonotonicity:
    def test_k_non_decreasing_for_stable_tests(self):
        rng = np.random.default_rng(12)
        for kind, sticky in [("range", False), ("glr_gaussian_focus", True), ("wilcoxon", True)]:
            for _ in range(6):
                values = random_series(rng, 80, changes=2)
                ts = TimeSeries.from_values(values)
                test = ValidityTest(kind, gamma=3.0 if kind != "wilcoxon" else 20.0, sticky=sticky)
                table, _ = svp_run(ts, gaussian_config(test))
                ks = [bp.k for bp in table.r]
                assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_gamma_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            values = random_series(rng, 60, changes=1)
            ts = TimeSeries.from_values(values)
            ks = []
            for gamma in (0.8, 2.0, 5.0, 12.0):
                test = ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True)
                ks.append(svp_run(ts, gaussian_config(test)).segmentation.k)
            assert all(a >= b for a, b in zip(ks, ks[1:]))


class TestOpPelt:
    def test_constant_series_one_segment(self):
        ts = TimeSeries.from_values([2.0] * 25)
        total, seg = op_pelt_run(ts, CostModel("gaussian"), penalty=1.0)
        assert seg.boundaries == (0, 25)
        assert total == pytest.approx(1.0)

    def test_step_series_finds_the_change(self):
        ts = TimeSeries.from_values([0.0] * 20 + [5.0] * 20)
        penalty = 2.0 * math.log(40)
        total, seg = op_pelt_run(ts, CostModel("gaussian"), penalty)
        assert seg.boundaries == (0, 20, 40)
        unpruned_total, unpruned_seg = op_pelt_run(ts, CostModel("gaussian"), penalty, prune=False)
        assert seg == unpruned_seg
        assert total == unpruned_total

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(5, 12))
            values = np.round(random_series(rng, n, changes=int(rng.integers(0, 2))), 3)
            ts = TimeSeries.from_values(values)
            penalty = float(rng.uniform(0.5, 4.0))
            total, seg = op_pelt_run(ts, CostModel("gaussian"), penalty)
            want_total, _ = brute_force_op(values.tolist(), "gaussian", penalty)
            assert total == pytest.approx(want_total, rel=1e-9, abs=1e-12)
            recomputed = sum(cost(ts, a, b, CostModel("gaussian")) for a, b in seg.segments())
            assert total == pytest.approx(recomputed + penalty * seg.k, rel=1e-9, abs=1e-9)

    def test_pruned_equals_unpruned_on_random_series(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            values = random_series(rng, 120, changes=int(rng.integers(0, 4)))
            ts = TimeSeries.from_values(values)
            penalty = 2.0 * math.log(120)
            pruned = op_pelt_run(ts, CostModel("gaussian"), penalty)
            unpruned = op_pelt_run(ts, CostModel("gaussian"), penalty, prune=False)
            assert pruned == unpruned

    def test_svp_never_uses_more_segments_prop2(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            n = 120
            values = random_series(rng, n, changes=int(rng.integers(0, 3)))
            ts = TimeSeries.from_values(values)
            gamma = 2.0 * math.log(n)
            test = ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=False)
            k_svp = svp_run(ts, gaussian_config(test)).segmentation.k
            k_op = op_pelt_run(ts, CostModel("gaussian"), gamma)[1].k
            assert k_svp <= k_op
