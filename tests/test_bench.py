"""Tests for scenario generation, metrics and the study harness."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import svp.bench
from svp import DomainError
from svp.bench import (
    METHOD_NAMES,
    Noise,
    Scenario,
    StudyConfig,
    fit_loglog_slope,
    generate,
    make_detector,
    match_and_score,
    normals,
    run_prop2_audit,
    run_study,
    summarize,
    uniforms,
    write_json,
    write_results_csv,
    RESULT_COLUMNS,
)


class TestRandomSource:
    def test_uniforms_deterministic_and_in_range(self):
        a = uniforms(7, 64)
        b = uniforms(7, 64)
        assert np.array_equal(a, b)
        assert np.all((a > 0.0) & (a <= 1.0))
        assert not np.array_equal(uniforms(8, 64), a)

    def test_normals_roughly_standard(self):
        z = normals(1, 20000)
        assert abs(float(z.mean())) < 0.03
        assert abs(float(z.std()) - 1.0) < 0.03


class TestScenario:
    def test_defaults(self):
        assert Scenario(name="none", n=100).true_changes == ()
        assert Scenario(name="step", n=100).true_changes == (50,)
        assert Scenario(name="up", n=1000).true_changes == (250, 500, 750)
        assert Scenario(name="updown", n=100, segments=4).segment_means() == (0.0, 1.0, 0.0, 1.0)

    def test_generation_deterministic(self):
        s = Scenario(name="up", n=200, jump=0.7, seed=5)
        assert np.array_equal(generate(s).values, generate(s).values)
        other = Scenario(name="up", n=200, jump=0.7, seed=6)
        assert not np.array_equal(generate(other).values, generate(s).values)

    def test_noiseless_null_is_constant_zero(self):
        s = Scenario(name="none", n=50, jump=3.0, noise=Noise("gaussian", sigma=0.0), seed=9)
        assert np.array_equal(generate(s).values, np.zeros(50))

    def test_noiseless_step(self):
        s = Scenario(
            name="up", n=1000, jump=0.6, noise=Noise("gaussian", sigma=0.0),
            seed=3, true_changes=(500,),
        )
        values = generate(s).values
        assert np.array_equal(values[:500], np.zeros(500))
        assert np.allclose(values[500:], 0.6)

    def test_validation(self):
        with pytest.raises(DomainError):
            Scenario(name="nope", n=10)
        with pytest.raises(DomainError):
            Scenario(name="none", n=10, true_changes=(5,))
        with pytest.raises(DomainError):
            Scenario(name="step", n=10, true_changes=(12,))

    def test_student_t_median_sanity(self):
        # t(2) has no variance; only location statements are safe
        s = Scenario(name="step", n=4000, jump=4.0, noise=Noise("student_t", df=2), seed=2)
        values = generate(s).values
        assert abs(float(np.median(values[:2000]))) < 0.25
        assert abs(float(np.median(values[2000:])) - 4.0) < 0.25


class TestMatching:
    def test_within_tolerance(self):
        report = match_and_score([500], [501], 2.5)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_outside_tolerance(self):
        report = match_and_score([500], [504], 2.5)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_partial_match(self):
        report = match_and_score([100, 200], [101, 199, 350], 2.5)
        assert report.precision == pytest.approx(2.0 / 3.0)
        assert report.recall == 1.0
        assert report.f1 == pytest.approx(0.8)
        assert report.matched_pairs == ((100, 101), (200, 199))

    def test_empty_conventions(self):
        both_empty = match_and_score([], [], 2.5)
        assert (both_empty.precision, both_empty.recall, both_empty.f1) == (1.0, 1.0, 1.0)
        missed = match_and_score([10], [], 2.5)
        assert (missed.precision, missed.recall, missed.f1) == (1.0, 0.0, 0.0)
        spurious = match_and_score([], [10], 2.5)
        assert (spurious.precision, spurious.recall, spurious.f1) == (0.0, 1.0, 0.0)

    def test_one_to_one_matching(self):
        report = match_and_score([100], [99, 100, 101], 2.5)
        assert len(report.matched_pairs) == 1
        assert report.precision == pytest.approx(1.0 / 3.0)

    def test_permutation_safe(self):
        rng = np.random.default_rng(3)
        truth = sorted(rng.choice(1000, size=6, replace=False).tolist())
        detected = rng.choice(1000, size=9, replace=False).tolist()
        direct = match_and_score(truth, detected, 3.0)
        shuffled = match_and_score(truth, list(reversed(detected)), 3.0)
        assert direct == shuffled

    def test_f1_monotone_in_matches(self):
        # same list sizes, more matches never lower f1
        base = match_and_score([100, 200, 300], [100, 600, 900], 2.5)
        better = match_and_score([100, 200, 300], [100, 200, 900], 2.5)
        assert better.f1 >= base.f1

    def test_tie_goes_to_earlier_true_change(self):
        report = match_and_score([10, 14], [12], 2.5)
        assert report.matched_pairs == ((10, 12),)


class TestStudy:
    def test_small_grid_runs_and_writes(self, tmp_path):
        config = StudyConfig(
            scenarios=("none", "step"),
            methods=("pelt", "svp-glr"),
            jumps=(1.5,),
            replicates=2,
            n=120,
            base_seed=3,
        )
        rows, summary = run_study(config)
        assert len(rows) == 2 * 2 * 2
        assert summary["failures"] == []
        assert summary["reconstructed_scenarios"] == ["step"]
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        write_results_csv(rows, csv_path)
        write_json(summary, json_path)
        header = csv_path.read_text().splitlines()[0]
        assert header == ",".join(RESULT_COLUMNS)
        assert header == "scenario,method,jump,replicate,precision,recall,f1,k_detected,runtime_s"
        assert json.loads(json_path.read_text()) == summary

    def test_replicates_use_derived_seeds(self):
        config = StudyConfig(
            scenarios=("step",), methods=("svp-glr",), jumps=(2.0,), replicates=2, n=80, base_seed=11
        )
        rows_a, _ = run_study(config)
        rows_b, _ = run_study(config)
        assert [(r.replicate, r.f1, r.k_detected) for r in rows_a] == [
            (r.replicate, r.f1, r.k_detected) for r in rows_b
        ]

    def test_detector_registry_rejects_unknown(self):
        with pytest.raises(DomainError):
            make_detector("magic", 100, 1)

    def test_every_method_builds_and_runs(self, monkeypatch):
        scenario = Scenario(name="up", n=120, jump=3.0, segments=3, seed=4)
        series = generate(scenario)
        log_n = math.log(scenario.n)
        penalties = []
        real_op_pelt_run = svp.bench.op_pelt_run

        def spy(series, model, penalty, prune=True):
            penalties.append((penalty, prune))
            return real_op_pelt_run(series, model, penalty, prune=prune)

        monkeypatch.setattr(svp.bench, "op_pelt_run", spy)
        for method in METHOD_NAMES:
            segmentation = make_detector(method, scenario.n, scenario.true_k)(series)
            assert segmentation.n == scenario.n, method
            assert segmentation.change_points == scenario.true_changes, method
        assert penalties == [(2.0 * log_n, True), (1.5 * log_n, True), (2.0 * log_n, False)]

    def test_noiseless_round_trip(self):
        # wilcoxon is excluded: with the ties-count-as-<= convention a
        # constant stretch scores u*(len-u)/2 and long noiseless segments
        # are invalid at the scale threshold
        scenario = Scenario(
            name="up", n=240, jump=2.0, segments=3, noise=Noise("gaussian", sigma=0.0), seed=1
        )
        series = generate(scenario)
        for method in ("pelt", "svp-glr", "svp-glr-plain", "svp-mood"):
            detector = make_detector(method, scenario.n, scenario.true_k)
            segmentation = detector(series)
            assert segmentation.change_points == scenario.true_changes, method

    def test_low_noise_round_trip_wilcoxon(self):
        scenario = Scenario(
            name="up", n=240, jump=4.0, segments=3, noise=Noise("gaussian", sigma=0.05), seed=1
        )
        series = generate(scenario)
        detector = make_detector("svp-wilcoxon", scenario.n, scenario.true_k)
        assert detector(series).change_points == scenario.true_changes

    def test_mean_f1_monotone_in_jump(self):
        config = StudyConfig(
            scenarios=("up",),
            methods=("svp-glr",),
            jumps=(0.5, 1.0, 1.75),
            replicates=6,
            n=400,
            base_seed=17,
        )
        _, summary = run_study(config)
        means = [cell["mean_f1"] for cell in sorted(summary["cells"], key=lambda c: c["jump"])]
        assert all(a <= b for a, b in zip(means, means[1:])), means

    def test_worker_pool_matches_sequential(self):
        config = StudyConfig(
            scenarios=("step",), methods=("svp-glr",), jumps=(1.5,), replicates=3, n=80,
            base_seed=2,
        )
        seq_rows, _ = run_study(config)
        par_rows, _ = run_study(dataclasses.replace(config, workers=2))
        assert [(r.replicate, r.f1, r.k_detected) for r in seq_rows] == [
            (r.replicate, r.f1, r.k_detected) for r in par_rows
        ]

    def test_failure_marker_preserves_partial_results(self):
        # a NaN jump makes every cell of it fail to build its series, in the
        # worker process too, whatever the start method is
        for workers in (1, 2):
            config = StudyConfig(
                scenarios=("up",), methods=("svp-glr",), jumps=(1.0, math.nan),
                replicates=3, n=60, workers=workers,
            )
            rows, summary = run_study(config)
            assert [(r.jump, r.replicate) for r in rows] == [(1.0, i) for i in range(3)]
            failures = summary["failures"]
            assert [f["replicate"] for f in failures] == [0, 1, 2], workers
            assert all("values must be finite" in f["error"] for f in failures)

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"methods": ("svp-glr", "no-such-method")}, "unknown method 'no-such-method'"),
            ({"scenarios": ("none", "no-such-scenario")}, "unknown scenario 'no-such-scenario'"),
            ({"n": 10, "segments": 20}, "true_changes must be strictly increasing"),
        ],
    )
    def test_configuration_is_checked_before_any_cell(self, monkeypatch, change, message):
        def no_cell(*args):
            raise AssertionError("the study ran a cell before checking its configuration")

        monkeypatch.setattr(svp.bench, "_run_cell", no_cell)
        config = dataclasses.replace(StudyConfig(replicates=1, n=60), **change)
        with pytest.raises(DomainError, match=message):
            run_study(config)


class TestSlopeFit:
    def test_recovers_known_exponent(self):
        points = [(n, 2e-8 * n**2.0) for n in (1000, 2000, 4000, 8000)]
        assert fit_loglog_slope(points) == pytest.approx(2.0, abs=1e-9)
        points = [(n, 3e-6 * n**1.1) for n in (1000, 2000, 4000, 8000)]
        assert fit_loglog_slope(points) == pytest.approx(1.1, abs=1e-9)

    @pytest.mark.parametrize("lengths", [(200,), (200, 200)])
    def test_needs_two_distinct_lengths(self, lengths):
        points = [(n, 1e-3 * (i + 1)) for i, n in enumerate(lengths)]
        with pytest.raises(DomainError):
            fit_loglog_slope(points)


class TestProp2Audit:
    def test_small_audit_clean(self):
        audit = run_prop2_audit(instances=8, n=150, base_seed=21)
        assert audit["violations"] == 0
        assert len(audit["records"]) == 8
        assert all(rec["k_svp"] <= rec["k_op"] for rec in audit["records"])
