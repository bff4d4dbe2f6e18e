"""Acceptance suite: the binding exit criteria for this library.

Run with ``pytest tests/test_acceptance.py -v -s``: the verbose test
names give one pass/fail line per criterion and each test prints a
summary line with the measured quantities.  Tolerances are fixed here,
nothing is calibrated at run time.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from svp import (
    CostModel,
    EngineConfig,
    TimeSeries,
    ValidityTest,
    glr_scan_naive,
    is_segment_valid,
    op_pelt_run,
    svp_run,
)
from svp import engine, validity
from svp.bench import (
    Noise,
    Scenario,
    fit_loglog_slope,
    generate,
    make_detector,
    match_and_score,
    run_prop2_audit,
    run_runtime_study,
)

from oracles import (
    iter_partitions,
    naive_cost,
    naive_statistic,
    naive_sticky_statistic,
    reference_run,
)

# criterion 1 grid: three thresholds per test kind
GAMMA_GRID = {
    ("range", False): (0.8, 1.8, 4.0),
    ("glr_gaussian_focus", True): (0.7, 2.0, 6.0),
    ("wilcoxon", False): (0.8, 2.0, 4.5),
}


def _report(number: int, message: str) -> None:
    print(f"\n[criterion {number}] PASS: {message}")


def _mixed_series(rng, n, with_change=True, jump=2.0):
    values = rng.normal(size=n)
    if with_change:
        at = n // 2
        values[at:] += jump
    return values


def _oracle_tables(values, kind, sticky):
    n = len(values)
    stat = {}
    for a in range(n):
        for b in range(a + 1, n + 1):
            if sticky:
                stat[(a, b)] = naive_sticky_statistic(values, a, b, kind)
            else:
                stat[(a, b)] = naive_statistic(values, a, b, kind)
    return stat


def _oracle_best(n, stat_table, cost_table, gamma):
    best = (math.inf, math.inf)
    for bounds in iter_partitions(n):
        segs = list(zip(bounds, bounds[1:]))
        if any(stat_table[s] > gamma for s in segs):
            continue
        candidate = (len(segs), sum(cost_table[s] for s in segs))
        if candidate < best:
            best = candidate
    return best


C01_COSTS = (CostModel("gaussian"), CostModel("mad"), CostModel("quantile", x=0.2))


def test_c01_exactness_oracle_small_series():
    """Engine solutions equal exhaustive enumeration over all partitions."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for index in range(50):
        n = 6 + index % 7
        values = np.round(_mixed_series(rng, n, with_change=index % 2 == 0), 3)
        series = TimeSeries.from_values(values)
        listed = values.tolist()
        cost_tables = {
            model: {
                (a, b): naive_cost(listed, a, b, model.kind, model.x)
                for a in range(n)
                for b in range(a + 1, n + 1)
            }
            for model in C01_COSTS
        }
        for (kind, sticky), gammas in GAMMA_GRID.items():
            stat_table = _oracle_tables(listed, kind, sticky)
            for gamma in gammas:
                test = ValidityTest(kind, gamma=gamma, sticky=sticky)
                for model in C01_COSTS:
                    config = EngineConfig(cost=model, test=test)
                    result = svp_run(series, config)
                    want_k, want_q = _oracle_best(n, stat_table, cost_tables[model], gamma)
                    r_n = result.table.r[-1]
                    assert r_n.k == want_k, (index, kind, sticky, gamma, model)
                    assert r_n.q == pytest.approx(want_q, rel=1e-9, abs=1e-9)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"exactness oracle took {elapsed:.1f} s, budget is 60 s"
    _report(1, f"{checked} engine runs equal exhaustive enumeration ({elapsed:.1f} s)")


def test_c02_focus_equals_naive_glr_everywhere_touched():
    """Every incremental GLR value the engine evaluates matches the scan."""
    start = time.perf_counter()
    gamma = 2.0 * math.log(500)
    worst = 0.0
    total = 0
    for i in range(20):
        name = ("none", "up", "step", "updown")[i % 4]
        scenario = Scenario(name=name, n=500, jump=1.0, seed=300 + i)
        series = generate(scenario)
        records: list[tuple[int, int, float]] = []
        config = EngineConfig(
            cost=CostModel("gaussian"),
            test=ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True),
        )
        svp_run(series, config, stat_trace=lambda s, t, v: records.append((s, t, v)))
        assert records
        for s, t, value in records:
            reference = glr_scan_naive(series, s, t)
            deviation = abs(value - reference) / max(1.0, abs(reference))
            worst = max(worst, deviation)
        total += len(records)
    assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence audit took {elapsed:.1f} s, budget is 30 s"
    _report(2, f"{total} evaluations match the naive scan, worst dev {worst:.2e} ({elapsed:.1f} s)")


def test_c03_svp_never_beats_op_on_segment_count():
    """Plain-GLR solutions use at most as many segments as penalized OP."""
    audit = run_prop2_audit(instances=100, n=500, base_seed=7)
    assert audit["violations"] == 0
    ks = [(rec["k_svp"], rec["k_op"]) for rec in audit["records"]]
    assert all(a <= b for a, b in ks)
    multi = sum(1 for a, _ in ks if a > 1)
    _report(3, f"100 instances, zero violations ({multi} instances with detected changes)")


def test_c04_segment_count_non_decreasing_for_stable_tests():
    """The per-index segment count never drops for stable tests."""
    rng = np.random.default_rng(77)
    tables = 0
    for index in range(50):
        n = 6 + index % 7
        values = np.round(_mixed_series(rng, n, with_change=index % 2 == 0), 3)
        series = TimeSeries.from_values(values)
        for (kind, sticky), gammas in GAMMA_GRID.items():
            if not (sticky or kind == "range"):
                continue
            for gamma in gammas:
                for cost_kind in ("gaussian", "mad"):
                    config = EngineConfig(
                        cost=CostModel(cost_kind),
                        test=ValidityTest(kind, gamma=gamma, sticky=sticky),
                    )
                    table, _ = svp_run(series, config)
                    ks = [bp.k for bp in table.r]
                    assert all(a <= b for a, b in zip(ks, ks[1:])), (index, kind, gamma)
                    tables += 1
    for i in range(10):
        scenario = Scenario(name=("up", "updown")[i % 2], n=300, jump=1.2, seed=600 + i)
        series = generate(scenario)
        config = EngineConfig(
            cost=CostModel("gaussian"),
            test=ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(300), sticky=True),
        )
        table, _ = svp_run(series, config)
        ks = [bp.k for bp in table.r]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        tables += 1
    _report(4, f"{tables} DP tables with non-decreasing segment counts")


def test_c05_tighter_threshold_never_reduces_segment_count():
    """Shrinking gamma shrinks the feasible set, so K can only grow."""
    rng = np.random.default_rng(88)
    gamma_pairs = [(0.5, 1.0), (1.0, 3.0), (2.0, 6.0), (3.0, 9.0), (5.0, 14.0)]
    checked = 0
    for index in range(50):
        scenario = Scenario(
            name=("none", "up", "step", "updown")[index % 4], n=120, jump=1.5, seed=900 + index
        )
        series = generate(scenario)
        for low, high in gamma_pairs:
            ks = []
            for gamma in (low, high):
                config = EngineConfig(
                    cost=CostModel("gaussian"),
                    test=ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True),
                )
                ks.append(svp_run(series, config).segmentation.k)
            assert ks[0] >= ks[1], (index, low, high, ks)
            checked += 1
    _report(5, f"{checked} gamma pairs, zero monotonicity violations")


def test_c06_pruning_is_output_invariant():
    """The lazy runner's tables are bit-identical to the literal DP.

    ``svp_run`` drops invalid starts of stable tests and feeds validity
    states only on demand; ``oracles.reference_run`` feeds every start at
    every step and never drops one.
    """
    rng = np.random.default_rng(99)
    configs = [
        ("range", False, 2.5, "gaussian"),
        ("glr_gaussian_focus", True, 4.0, "gaussian"),
        ("glr_gaussian_focus", True, 4.0, "mad"),
        ("wilcoxon", True, 10.0, "gaussian"),
    ]
    for index in range(100):
        kind, sticky, gamma, cost_kind = configs[index % len(configs)]
        n = int(rng.integers(30, 201))
        values = _mixed_series(rng, n, with_change=index % 3 != 0, jump=2.5)
        series = TimeSeries.from_values(values)
        config = EngineConfig(
            cost=CostModel(cost_kind), test=ValidityTest(kind, gamma=gamma, sticky=sticky)
        )
        lazy = svp_run(series, config)
        reference = reference_run(series, config)
        assert lazy.segmentation == reference.segmentation, (index, kind)
        assert lazy.table.r == reference.table.r, (index, kind)
        assert lazy.table.s == reference.table.s, (index, kind)
    _report(6, "100 instances, lazy and reference tables bit-identical")


def _f1_and_fp_at_bic(jump: float) -> tuple[float, list[int], list[int], float]:
    start = time.perf_counter()
    n = 1000
    gamma = 2.0 * math.log(n)
    up_f1 = []
    detector = make_detector("svp-glr", n, 4)
    for rep in range(20):
        scenario = Scenario(name="up", n=n, jump=jump, seed=1 + rep)
        series = generate(scenario)
        segmentation = detector(series)
        test = ValidityTest("glr_gaussian_focus", gamma=gamma, sticky=True)
        assert all(is_segment_valid(series, a, b, test) for a, b in segmentation.segments())
        up_f1.append(match_and_score(scenario.true_changes, segmentation.change_points, 2.5).f1)
    plain = make_detector("svp-glr-plain", n, 1)
    fp_svp = []
    fp_pelt = []
    for rep in range(20):
        scenario = Scenario(name="none", n=n, seed=1 + rep)
        series = generate(scenario)
        fp_svp.append(plain(series).k - 1)
        fp_pelt.append(op_pelt_run(series, CostModel("gaussian"), gamma)[1].k - 1)
    return float(np.mean(up_f1)), fp_svp, fp_pelt, time.perf_counter() - start


def test_c07_f1_and_false_positives_at_bic_threshold():
    """Strong-jump F1 and change-free false positives at gamma = 2 log n.

    KNOWN RED: the bound asks for mean F1 of at least 0.9 from
    boundaries matched within +-2.5 observations, but the squared-error
    boundary estimate at jump 1.5 lands within that window with
    probability about 0.835 (Monte-Carlo of the argmax error, and the
    penalized baseline returns identical boundaries replicate by
    replicate), making 0.9 unreachable in expectation for any exact
    solver of this objective.  The same pipeline clears 0.9 at jump 2,
    see the companion reference test.  The false-positive clause holds
    and is asserted first.
    """
    mean_f1, fp_svp, fp_pelt, elapsed = _f1_and_fp_at_bic(jump=1.5)
    assert all(a <= b for a, b in zip(fp_svp, fp_pelt)), "false-positive clause violated"
    assert elapsed < 120.0, f"took {elapsed:.1f} s, budget is 120 s"
    print(
        f"\n[criterion 7] measured: up (jump 1.5) mean F1 {mean_f1:.3f}; none-scenario "
        f"false positives svp {np.mean(fp_svp):.2f} <= pelt {np.mean(fp_pelt):.2f} "
        f"per replicate ({elapsed:.0f} s)"
    )
    assert mean_f1 >= 0.9, (
        f"mean F1 {mean_f1:.3f} < 0.9: the +-2.5-observation matching caps the"
        " squared-error boundary estimator near 0.835 at jump 1.5"
    )
    _report(7, f"up mean F1 {mean_f1:.3f} >= 0.9 and false positives bounded by the baseline")


def test_c07_reference_point_jump_two_clears_the_bar():
    """Companion measurement: the identical pipeline at jump 2.

    Documents that the criterion's threshold is attainable just past its
    stated operating point, which locates the defect in the (jump,
    tolerance) pairing rather than in the solver.
    """
    mean_f1, fp_svp, fp_pelt, elapsed = _f1_and_fp_at_bic(jump=2.0)
    assert mean_f1 >= 0.9, f"mean F1 {mean_f1:.3f} below 0.9 at jump 2"
    assert all(a <= b for a, b in zip(fp_svp, fp_pelt))
    _report(
        7,
        f"(reference point) up mean F1 at jump 2 is {mean_f1:.3f} >= 0.9; false positives "
        f"svp {np.mean(fp_svp):.2f} <= pelt {np.mean(fp_pelt):.2f} ({elapsed:.0f} s)",
    )


def test_c08_rank_test_robust_to_heavy_tails():
    """Wilcoxon-based detection stays strong under t(2) noise, the
    gaussian-cost baseline degrades."""
    n = 1000
    true_k = 4
    svp_f1 = []
    pelt_f1 = []
    wilcoxon = make_detector("svp-wilcoxon", n, true_k)
    pelt = make_detector("pelt", n, true_k)
    for rep in range(20):
        scenario = Scenario(
            name="up", n=n, jump=2.0, noise=Noise("student_t", df=2), seed=18 + rep
        )
        series = generate(scenario)
        svp_f1.append(
            match_and_score(scenario.true_changes, wilcoxon(series).change_points, 2.5).f1
        )
        pelt_f1.append(
            match_and_score(scenario.true_changes, pelt(series).change_points, 2.5).f1
        )
    mean_svp = float(np.mean(svp_f1))
    mean_pelt = float(np.mean(pelt_f1))
    assert mean_svp >= 0.8, f"wilcoxon mean F1 {mean_svp:.3f} below 0.8"
    assert mean_pelt < mean_svp, f"pelt {mean_pelt:.3f} not below wilcoxon {mean_svp:.3f}"
    _report(8, f"wilcoxon mean F1 {mean_svp:.3f} >= 0.8, pelt degrades to {mean_pelt:.3f}")


def test_c09_runtime_scaling_exponents():
    """Incremental-GLR runs near-linearly, unpruned OP quadratically."""
    start = time.perf_counter()
    rows = run_runtime_study(
        lengths=(1000, 2000, 4000, 8000),
        methods=("svp-glr", "op-unpruned"),
        repeats=2,
        seed=99,
    )
    points = {"svp-glr": [], "op-unpruned": []}
    for row in rows:
        points[row.method].append((row.n, row.runtime_s))
    slope_svp = fit_loglog_slope(points["svp-glr"])
    slope_op = fit_loglog_slope(points["op-unpruned"])
    elapsed = time.perf_counter() - start
    assert 0.9 <= slope_svp <= 1.5, f"svp slope {slope_svp:.2f} outside [0.9, 1.5]"
    assert 1.7 <= slope_op <= 2.2, f"op slope {slope_op:.2f} outside [1.7, 2.2]"
    assert elapsed < 300.0, f"runtime study took {elapsed:.1f} s, budget is 300 s"
    _report(
        9,
        f"slopes: svp-focus {slope_svp:.2f} in [0.9, 1.5], unpruned op {slope_op:.2f} "
        f"in [1.7, 2.2] ({elapsed:.0f} s)",
    )


# Log-log slopes of svp-glr's deterministic work counts, each count plus
# one so that a count that stays 0 fits as flat, at n = 1000..8000 on the
# seed-99 series: (scalar cost-closure calls, values fed to validity
# states, full-window checks).  Measured once; the bound is each slope
# plus or minus C09_COUNT_MARGIN.  A change that moves a count's growth
# out of its band re-measures it here.
C09_COUNT_SLOPES = {
    "none": (0.00, 1.00, 0.00),
    "up": (1.01, 0.82, 0.97),
}
C09_COUNT_MARGIN = 0.2


@pytest.mark.parametrize("name", sorted(C09_COUNT_SLOPES))
def test_c09_count_scaling_exponents(monkeypatch, name):
    """The work behind c09's timing grows near-linearly, counted, not timed.

    Runs svp-glr on c09's change-free series and on ``up`` with K = 4 and
    counts what the engine does, so no timing noise enters the slopes.
    """
    counts = [0, 0, 0]
    make_cost_fn = engine.make_cost_fn
    feed = validity.ValidityState.feed
    certainly_invalid = validity.certainly_invalid

    def counted_make_cost_fn(series, model):
        cost_fn = make_cost_fn(series, model)

        def counted(a, b):
            counts[0] += 1
            return cost_fn(a, b)

        return counted

    def counted_feed(state, value):
        counts[1] += 1
        feed(state, value)

    def counted_certainly_invalid(*args):
        counts[2] += 1
        return certainly_invalid(*args)

    monkeypatch.setattr(engine, "make_cost_fn", counted_make_cost_fn)
    monkeypatch.setattr(validity.ValidityState, "feed", counted_feed)
    monkeypatch.setattr(validity, "certainly_invalid", counted_certainly_invalid)
    points = ([], [], [])
    for n in (1000, 2000, 4000, 8000):
        scenario = Scenario(name=name, n=n, seed=99)
        counts[:] = [0, 0, 0]
        make_detector("svp-glr", n, scenario.true_k)(generate(scenario))
        for column, count in zip(points, counts):
            column.append((n, count + 1))
    slopes = [fit_loglog_slope(column) for column in points]
    labels = ("closure calls", "values fed", "full-window checks")
    for label, slope, measured in zip(labels, slopes, C09_COUNT_SLOPES[name]):
        low, high = measured - C09_COUNT_MARGIN, measured + C09_COUNT_MARGIN
        assert low <= slope <= high, (
            f"{name}: {label} slope {slope:.2f} outside [{low:.2f}, {high:.2f}]"
        )
    _report(9, f"{name} count slopes " + ", ".join(
        f"{label} {slope:.2f}" for label, slope in zip(labels, slopes)
    ))


def test_c10_every_returned_segment_passes_its_test():
    """Post-hoc full-rescan validation of all returned segments."""
    rng = np.random.default_rng(1234)
    segments_checked = 0
    battery = [
        ("range", False, 2.5, "gaussian", 120),
        ("range", False, 4.0, "mad", 160),
        ("glr_gaussian_focus", True, 3.0, "gaussian", 160),
        ("glr_gaussian_focus", False, 5.0, "gaussian", 120),
        ("wilcoxon", True, 12.0, "mad", 120),
        ("wilcoxon", False, 9.0, "gaussian", 90),
        ("mood", True, 7.0, "mad", 120),
        ("mood", False, 6.0, "gaussian", 90),
    ]
    for index in range(48):
        kind, sticky, gamma, cost_kind, n = battery[index % len(battery)]
        values = _mixed_series(rng, n, with_change=index % 4 != 3, jump=2.0)
        series = TimeSeries.from_values(values)
        test = ValidityTest(kind, gamma=gamma, sticky=sticky)
        result = svp_run(series, EngineConfig(cost=CostModel(cost_kind), test=test))
        for a, b in result.segmentation.segments():
            assert is_segment_valid(series, a, b, test), (index, kind, a, b)
            if b - a <= 40:
                listed = values.tolist()
                if sticky:
                    stat = naive_sticky_statistic(listed, a, b, kind)
                else:
                    stat = naive_statistic(listed, a, b, kind)
                assert stat <= gamma + 1e-12, (index, kind, a, b, stat)
            segments_checked += 1
    for scenario, method in [
        (Scenario(name="up", n=500, jump=1.2, seed=42), "svp-glr"),
        (Scenario(name="up", n=400, jump=2.0, noise=Noise("student_t", df=2), seed=43), "svp-wilcoxon"),
    ]:
        series = generate(scenario)
        segmentation = make_detector(method, scenario.n, scenario.true_k)(series)
        if method == "svp-glr":
            test = ValidityTest(
                "glr_gaussian_focus", gamma=2.0 * math.log(scenario.n), sticky=True
            )
        else:
            from svp import wilcoxon_threshold

            test = ValidityTest(
                "wilcoxon", gamma=wilcoxon_threshold(scenario.n / scenario.true_k), sticky=True
            )
        for a, b in segmentation.segments():
            assert is_segment_valid(series, a, b, test), (method, a, b)
            segments_checked += 1
    _report(10, f"{segments_checked} returned segments re-validated by full rescans")
