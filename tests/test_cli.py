"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest

import svp.bench
from svp.cli import main


def write_csv(path, values, header="value"):
    lines = ([header] if header else []) + [f"{v:.17g}" for v in values]
    path.write_text("\n".join(lines) + "\n")


def values_read(tmp_path, text, *flags):
    """The values `svp detect` reads from a CSV holding ``text``."""
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(text, encoding="utf-8")
    points = tmp_path / "points.csv"
    manifest = tmp_path / "run.json"
    code = main(["detect", "--input", str(csv_path), "--test", "range", "--gamma", "1e9",
                 "--out", str(tmp_path / "out.json"), "--points-csv", str(points),
                 "--manifest", str(manifest), *flags])
    assert code == 0
    values = [float(line.split(",")[1]) for line in points.read_text().splitlines()[1:]]
    assert json.loads(manifest.read_text())["input"]["length"] == len(values)
    return values


class TestDetect:
    def test_constant_series(self, tmp_path, capsys):
        csv_path = tmp_path / "flat.csv"
        write_csv(csv_path, [1.0] * 100)
        code = main(["detect", "--input", str(csv_path), "--test", "range", "--gamma", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["boundaries"] == [0, 100]
        assert payload["k"] == 1

    def test_toy_series_with_outputs(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        write_csv(csv_path, [0.0, 0.0, 10.0, 10.0])
        out = tmp_path / "seg.json"
        points = tmp_path / "points.csv"
        manifest = tmp_path / "run.json"
        code = main(
            [
                "detect", "--input", str(csv_path), "--test", "range", "--gamma", "1",
                "--cost", "gauss", "--out", str(out), "--points-csv", str(points),
                "--manifest", str(manifest),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["boundaries"] == [0, 2, 4]
        assert payload["q"] == pytest.approx(0.0)
        assert [seg["validity_stat"] for seg in payload["per_segment"]] == [0.0, 0.0]
        point_lines = points.read_text().splitlines()
        assert point_lines[0] == "index,value,segment_id,segment_mean,segment_median"
        assert len(point_lines) == 5
        doc = json.loads(manifest.read_text())
        assert doc["outputs"]["boundaries"] == [0, 2, 4]
        assert doc["outputs"]["r_n"] == [2, 0.0]
        assert doc["input"]["length"] == 4

    def test_gamma_rule_bic_echoed(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        write_csv(csv_path, rng.normal(size=1000))
        out = tmp_path / "o.json"
        manifest = tmp_path / "m.json"
        for rule, factor, gamma in (("bic", 2.0, 13.8155), ("bic15", 1.5, 10.3616)):
            code = main(
                [
                    "detect", "--input", str(csv_path), "--test", "glr", "--gamma-rule", rule,
                    "--out", str(out), "--manifest", str(manifest),
                ]
            )
            assert code == 0
            doc = json.loads(manifest.read_text())
            assert doc["config"]["gamma"] == pytest.approx(factor * math.log(1000))
            assert doc["config"]["gamma"] == pytest.approx(gamma, abs=1e-3)
            assert doc["config"]["gamma_rule"] == rule

    def test_manifest_replay_reproduces_boundaries(self, tmp_path):
        csv_path = tmp_path / "replay.csv"
        rng = np.random.default_rng(4)
        values = rng.normal(size=150)
        values[75:] += 3.0
        write_csv(csv_path, values)
        out1 = tmp_path / "a.json"
        manifest = tmp_path / "a.manifest.json"
        args = ["detect", "--input", str(csv_path), "--test", "glr", "--gamma-rule", "bic",
                "--out", str(out1), "--manifest", str(manifest)]
        assert main(args) == 0
        echoed = json.loads(manifest.read_text())["command"][1:]
        out2 = tmp_path / "b.json"
        replay = [arg.replace(str(out1), str(out2)) for arg in echoed]
        assert main(replay) == 0
        assert json.loads(out1.read_text())["boundaries"] == json.loads(out2.read_text())["boundaries"]

    def test_sticky_flag_spellings(self, tmp_path):
        csv_path = tmp_path / "sticky.csv"
        rng = np.random.default_rng(6)
        values = rng.normal(size=150)
        values[75:] += 6.0
        write_csv(csv_path, values)
        out1 = tmp_path / "a.json"
        manifest = tmp_path / "a.manifest.json"
        for flag, sticky in (("--sticky", True), ("--no-sticky", False)):
            assert main(["detect", "--input", str(csv_path), "--test", "glr", "--gamma-rule",
                         "bic", flag, "--out", str(out1), "--manifest", str(manifest)]) == 0
            assert json.loads(manifest.read_text())["config"]["sticky"] is sticky
        # range is sticky by definition, whatever the flag says
        args = ["detect", "--input", str(csv_path), "--test", "range", "--gamma", "7",
                "--no-sticky", "--out", str(out1), "--manifest", str(manifest)]
        assert main(args) == 0
        doc = json.loads(manifest.read_text())
        assert doc["config"]["sticky"] is True
        out2 = tmp_path / "b.json"
        assert main([arg.replace(str(out1), str(out2)) for arg in doc["command"][1:]]) == 0
        boundaries = json.loads(out1.read_text())["boundaries"]
        assert json.loads(out2.read_text())["boundaries"] == boundaries
        assert len(boundaries) > 2

    def test_column_selection_by_name(self, tmp_path, capsys):
        csv_path = tmp_path / "multi.csv"
        csv_path.write_text("id,reading\n1,5.0\n2,5.0\n3,5.0\n")
        code = main(["detect", "--input", str(csv_path), "--column", "reading",
                     "--test", "range", "--gamma", "0.5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["boundaries"] == [0, 3]

    @pytest.mark.parametrize(
        "text, flags, values",
        [
            ("1.5\n2.5\n3.5\n", (), [1.5, 2.5, 3.5]),
            ("a,b\n1,10\n2,20\n", ("--column", "1"), [10.0, 20.0]),
            ("id,2.5\n1,10\n2,20\n", ("--column", "1"), [2.5, 10.0, 20.0]),
            ("id,nan\n1,10\n2,20\n", ("--column", "1"), [10.0, 20.0]),
            ("\ufeff1.5\n2.5\n3.5\n4.5\n", (), [1.5, 2.5, 3.5, 4.5]),
            ("\ufeffvalue\n1.5\n2.5\n", ("--column", "value"), [1.5, 2.5]),
            ("value\n\x1c1.5\n2.5\x1f\n", (), [1.5, 2.5]),
        ],
        ids=["headerless", "index-over-header", "numeric-header-cell", "nan-header-cell",
             "bom-headerless", "bom-named-column", "separator-padding"],
    )
    def test_header_rule(self, tmp_path, text, flags, values):
        # row 0 is a header unless its selected cell is a number
        assert values_read(tmp_path, text, *flags) == values

    @pytest.mark.parametrize(
        "text, flags, code, message",
        [
            ("a,b\n1.0,2.0\n,3.0\n", (), 3, "empty cell in the selected column"),
            ("value\n1.0\n  \n2.0\n", (), 3, "empty cell in the selected column"),
            ("value\n1.0\noops\n2.0\n", (), 3, "non-numeric cell 'oops'"),
            ("value\n1.0\nnan\n2.0\n", (), 3, "non-finite cell 'nan'"),
            ("value\n1.0\n-inf\n2.0\n", (), 3, "non-finite cell '-inf'"),
            ("value\n1.0\n inf\noops\n", (), 3, "non-finite cell ' inf'"),
            ("a,b\n1.0,10.0\n2.0\n3.0,30.0\n", ("--column", "1"), 3,
             "row ['2.0'] lacks column 1"),
            ("a,b\n1.0,10.0\n2.0,20.0\n", ("--column", "5"), 4,
             "column index 5 is past every row"),
            ("a,b\n1.0\n2.0\n", ("--column", "1"), 3, "row ['1.0'] lacks column 1"),
            ("a,b\n1.0,10.0\n2.0,x\n3.0,30.0\n4.0\n", ("--column", "1"), 3,
             "non-numeric cell 'x'"),
            ("a,b\n1.0,10.0\n2.0\n3.0,x\n", ("--column", "1"), 3,
             "row ['2.0'] lacks column 1"),
            ("", (), 3, "holds no data rows"),
            ("\n\n", (), 3, "holds no data rows"),
            ("value\n", ("--column", "value"), 3, "selected column holds no values"),
            ("a,b\nx,y\n", (), 3, "no numeric column found"),
            ("\ufeffvalue\n\n 1.5 \n\n\t2.5\n", (), 0, ""),
        ],
        ids=["empty-cell", "blank-cell", "non-numeric", "nan", "minus-inf",
             "non-finite-before-non-numeric", "short-row", "column-past-every-row",
             "header-only-has-column", "first-faulty-row-wins", "short-row-first",
             "empty-file", "blank-lines-only", "header-only", "no-numeric-column",
             "blank-lines-bom-padded"],
    )
    def test_csv_reader_exit_codes_and_messages(self, tmp_path, capsys, text, flags, code,
                                                message):
        # the first faulty row in file order decides the message
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(text, encoding="utf-8")
        points = tmp_path / "points.csv"
        assert main(["detect", "--input", str(csv_path), "--test", "range", "--gamma", "1e9",
                     "--out", str(tmp_path / "out.json"), "--points-csv", str(points),
                     *flags]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.endswith(f"{message}\n"), err
        else:
            assert err == ""
            assert points.read_text().splitlines()[1:] == ["1,1.5,0,2,2", "2,2.5,0,2,2"]

    def test_standardize_mad_diff(self, tmp_path, capsys):
        csv_path = tmp_path / "scaled.csv"
        rng = np.random.default_rng(5)
        values = rng.normal(size=200) * 40.0
        values[100:] += 200.0
        write_csv(csv_path, values)
        code = main(["detect", "--input", str(csv_path), "--test", "glr",
                     "--gamma-rule", "bic", "--standardize", "mad-diff"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(abs(b - 100) <= 2 for b in payload["boundaries"][1:-1])

    def test_standardize_points_csv_in_input_units(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        write_csv(csv_path, [1.0, 3.0, 2.0, 10.0, 12.0, 11.0])
        out = tmp_path / "out.json"
        points = tmp_path / "points.csv"
        manifest = tmp_path / "run.json"
        code = main(["detect", "--input", str(csv_path), "--gamma", "5",
                     "--standardize", "mad-diff", "--out", str(out),
                     "--points-csv", str(points), "--manifest", str(manifest)])
        assert code == 0
        assert points.read_text().splitlines()[1:] == [
            "1,1,0,2,2", "2,3,0,2,2", "3,2,0,2,2",
            "4,10,1,11,11", "5,12,1,11,11", "6,11,1,11,11",
        ]
        # the objective's numbers stay on the standardized series
        scale = json.loads(manifest.read_text())["config"]["mad_diff_scale"]
        payload = json.loads(out.read_text())
        assert [seg["cost"] for seg in payload["per_segment"]] == [
            pytest.approx(1.0 / scale**2)
        ] * 2

    def test_exit_codes(self, tmp_path, capsys):
        assert main(["detect", "--input", str(tmp_path / "absent.csv"), "--gamma", "1"]) == 2
        # usage errors are invalid flags (4); 2 stays for unreadable input
        assert main(["detect", "--input", str(tmp_path / "absent.csv"), "--test", "nosuch"]) == 4
        assert "argument --test: invalid choice: 'nosuch'" in capsys.readouterr().err
        assert main(["simulate", "--scenario", "up", "--n", "abc", "--out", "x.csv"]) == 4
        assert "argument --n: invalid int value: 'abc'" in capsys.readouterr().err
        assert main([]) == 4
        with pytest.raises(SystemExit) as exited:
            main(["detect", "--help"])
        assert exited.value.code == 0
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n1.0\noops\n2.0\n")
        assert main(["detect", "--input", str(bad), "--gamma", "1"]) == 3
        empty_cell = tmp_path / "gap.csv"
        empty_cell.write_text("a,b\n1.0,2.0\n,3.0\n")
        assert main(["detect", "--input", str(empty_cell), "--gamma", "1"]) == 3
        infinite = tmp_path / "inf.csv"
        infinite.write_text("value\n1.0\ninf\n2.0\n")
        assert main(["detect", "--input", str(infinite), "--gamma", "1"]) == 3
        huge = tmp_path / "huge.csv"
        write_csv(huge, [1e200, -1e200, 1e200, -1e200, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # squares overflow: exit 3, no numpy warning
            assert main(["detect", "--input", str(huge), "--test", "glr", "--gamma", "1"]) == 3
        assert "overflows" in capsys.readouterr().err
        good = tmp_path / "ok.csv"
        write_csv(good, [1.0, 2.0, 3.0])
        assert main(["detect", "--input", str(good)]) == 4  # no gamma at all
        assert main(["detect", "--input", str(good), "--gamma", "1", "--gamma-rule", "bic"]) == 4
        for rule in ("nonsense", "mood", "wilcoxon:", "mood:x"):
            assert main(["detect", "--input", str(good), "--gamma-rule", rule]) == 4
            assert "gamma rule" in capsys.readouterr().err
        out = str(tmp_path / "out.json")
        single = tmp_path / "one.csv"
        write_csv(single, [2.5])
        assert main(["detect", "--input", str(single), "--gamma", "1", "--out", out]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way to the message
            assert main(["detect", "--input", str(single), "--gamma", "1",
                         "--standardize", "mad-diff", "--out", out]) == 4
        assert "needs at least 2 values" in capsys.readouterr().err
        flat = tmp_path / "flat.csv"
        write_csv(flat, [3.0] * 50)
        assert main(["detect", "--input", str(flat), "--test", "glr", "--gamma-rule", "bic",
                     "--out", out]) == 0
        for min_seg_len in ("0", "4"):
            assert main(["detect", "--input", str(good), "--gamma", "1", "--min-seg-len",
                         min_seg_len, "--out", out]) == 4
        assert main(["detect", "--input", str(good), "--gamma", "-1", "--out", out]) == 4
        negative = tmp_path / "negative.csv"
        write_csv(negative, [1.0, -2.0, 3.0])
        assert main(["detect", "--input", str(negative), "--cost", "poisson", "--gamma", "1",
                     "--out", out]) == 4
        assert "poisson cost requires nonnegative values" in capsys.readouterr().err
        columns = tmp_path / "cols.csv"
        columns.write_text("a,b\n1.0,10.0\n2.0,20.0\n3.0,30.0\n")
        for index in ("-1", "-2", "2", "7"):  # not counted from the end, nor past every row
            assert main(["detect", "--input", str(columns), "--column", index, "--test", "range",
                         "--gamma", "100", "--out", out]) == 4
            assert "column index" in capsys.readouterr().err
        assert main(["detect", "--input", str(single), "--column", "3", "--gamma", "1",
                     "--out", out]) == 4
        assert "column index 3 is past every row" in capsys.readouterr().err
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1.0,10.0\n2.0\n3.0,30.0\n")  # only some rows lack it: bad data
        assert main(["detect", "--input", str(ragged), "--column", "1", "--test", "range",
                     "--gamma", "100", "--out", out]) == 3
        assert "lacks column 1" in capsys.readouterr().err
        for typical in ("nan", "inf", "-inf"):
            assert main(["detect", "--input", str(good), "--test", "mood", "--gamma-rule",
                         "mood:0.01", f"--typical-len={typical}", "--out", out]) == 4
            assert "--typical-len must be finite" in capsys.readouterr().err
        for typical in ("0", "-5"):  # not clamped to one split
            assert main(["detect", "--input", str(good), "--test", "mood", "--gamma-rule",
                         "mood:0.01", f"--typical-len={typical}", "--out", out]) == 4
            assert f"--typical-len must be positive, got {typical}" in capsys.readouterr().err
        for study in ("f1", "prop2"):  # no series length for a gamma rule or a scenario
            for n in ("0", "-3"):
                assert main(["bench", "--study", study, "--n", n, "--replicates", "1",
                             "--out-json", out]) == 4
                assert "at least 1" in capsys.readouterr().err

    def test_gamma_rules_wilcoxon_and_mood(self, tmp_path):
        csv_path = tmp_path / "w.csv"
        rng = np.random.default_rng(6)
        write_csv(csv_path, rng.normal(size=60))
        out = tmp_path / "w.json"
        manifest = tmp_path / "w.manifest.json"
        code = main(["detect", "--input", str(csv_path), "--test", "wilcoxon",
                     "--gamma-rule", "wilcoxon:30", "--out", str(out), "--manifest", str(manifest)])
        assert code == 0
        doc = json.loads(manifest.read_text())
        assert doc["config"]["gamma"] == pytest.approx(1.5 * math.sqrt(30**3 / 12.0))
        # bare wilcoxon takes --typical-len, else the series length
        for typical, length in ((["--typical-len", "30"], 30), ([], 60)):
            code = main(["detect", "--input", str(csv_path), "--test", "wilcoxon",
                         "--gamma-rule", "wilcoxon", *typical,
                         "--out", str(out), "--manifest", str(manifest)])
            assert code == 0
            doc = json.loads(manifest.read_text())
            assert doc["config"]["gamma"] == pytest.approx(1.5 * math.sqrt(length**3 / 12.0))
            assert doc["config"]["gamma_rule"] == "wilcoxon"
        code = main(["detect", "--input", str(csv_path), "--test", "mood",
                     "--gamma-rule", "mood:0.01", "--typical-len", "30",
                     "--out", str(out), "--manifest", str(manifest)])
        assert code == 0
        doc = json.loads(manifest.read_text())
        assert doc["config"]["gamma"] > 6.0


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scenario", "none", "--n", "500", "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_noiseless_step_exact(self, tmp_path):
        out = tmp_path / "step.csv"
        truth = tmp_path / "truth.json"
        code = main(["simulate", "--scenario", "up", "--n", "10", "--jump", "0.6",
                     "--sigma", "0", "--changes", "5", "--seed", "1",
                     "--out", str(out), "--truth", str(truth)])
        assert code == 0
        values = [float(line) for line in out.read_text().splitlines()[1:]]
        assert values == [0.0] * 5 + [0.6] * 5
        doc = json.loads(truth.read_text())
        assert doc["true_changes"] == [5]
        assert doc["jump"] == 0.6

    def test_truth_records_noise_kind(self, tmp_path):
        out = tmp_path / "t2.csv"
        truth = tmp_path / "t2.json"
        code = main(["simulate", "--scenario", "step", "--n", "100", "--noise", "t2",
                     "--seed", "3", "--out", str(out), "--truth", str(truth)])
        assert code == 0
        assert json.loads(truth.read_text())["noise"] == "t2"

    def test_sigma_scales_student_t_noise(self, tmp_path):
        values = {}
        for sigma in ("1", "2"):
            out = tmp_path / f"t3-{sigma}.csv"
            truth = tmp_path / f"t3-{sigma}.json"
            assert main(["simulate", "--scenario", "none", "--n", "20", "--noise", "t3",
                         "--sigma", sigma, "--seed", "3", "--out", str(out),
                         "--truth", str(truth)]) == 0
            values[sigma] = [float(line) for line in out.read_text().splitlines()[1:]]
        assert values["2"] == [2.0 * v for v in values["1"]]
        assert json.loads(truth.read_text())["noise"] == "t3(sigma=2)"

    def test_bad_scenario_parameters(self, tmp_path):
        code = main(["simulate", "--scenario", "none", "--n", "50", "--changes", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 4

    def test_simulate_detect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        assert main(["simulate", "--scenario", "step", "--n", "80", "--jump", "2.0",
                     "--sigma", "0", "--seed", "2", "--out", str(out)]) == 0
        # noiseless statistic at the step is large; any smaller gamma recovers it
        assert main(["detect", "--input", str(out), "--test", "glr", "--gamma", "5",
                     "--cost", "gauss"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["boundaries"] == [0, 40, 80]


class TestBench:
    def test_f1_study_writes_outputs(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        code = main(["bench", "--study", "f1", "--scenarios", "step", "--methods", "svp-glr",
                     "--jumps", "2.0", "--replicates", "2", "--n", "100",
                     "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scenario,method,jump,replicate,precision,recall,f1,k_detected,runtime_s"
        assert len(lines) == 3
        summary = json.loads(json_path.read_text())
        assert summary["cells"][0]["scenario"] == "step"

    def test_methods_list_runs_pelt_beside_svp(self, tmp_path):
        csv_path = tmp_path / "rows.csv"
        code = main(["bench", "--study", "f1", "--scenarios", "none", "--methods", "svp-glr",
                     "pelt", "--jumps", "1.0", "--replicates", "1", "--n", "80",
                     "--out-csv", str(csv_path)])
        assert code == 0
        methods = {line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]}
        assert methods == {"svp-glr", "pelt"}

    def test_prop2_audit_mode(self, tmp_path):
        json_path = tmp_path / "audit.json"
        code = main(["bench", "--study", "prop2", "--replicates", "6", "--n", "100",
                     "--seed", "5", "--out-json", str(json_path)])
        assert code == 0
        audit = json.loads(json_path.read_text())
        assert audit["violations"] == 0
        assert audit["instances"] == 6

    def test_runtime_study_reports_slopes(self, tmp_path):
        json_path = tmp_path / "runtime.json"
        code = main(["bench", "--study", "runtime", "--lengths", "200", "400", "800",
                     "--repeats", "1", "--out-json", str(json_path)])
        assert code == 0
        doc = json.loads(json_path.read_text())
        assert set(doc["loglog_slopes"]) == {"svp-glr", "op-unpruned"}
        assert len(doc["rows"]) == 6

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_runtime_study_rejects_no_repeats(self, tmp_path, capsys, repeats):
        json_path = tmp_path / "runtime.json"
        code = main(["bench", "--study", "runtime", "--lengths", "50", "100",
                     "--repeats", repeats, "--out-json", str(json_path)])
        assert code == 4
        assert "repeats must be at least 1" in capsys.readouterr().err
        assert not json_path.exists()

    @pytest.mark.parametrize("replicates", ["0", "-1"])
    @pytest.mark.parametrize("study,name", [("f1", "replicates"), ("prop2", "instances")])
    def test_study_rejects_no_replicates(self, tmp_path, capsys, study, name, replicates):
        json_path = tmp_path / "summary.json"
        code = main(["bench", "--study", study, "--scenarios", "none", "--methods", "svp-glr",
                     "--replicates", replicates, "--n", "50", "--out-json", str(json_path)])
        assert code == 4
        assert f"{name} must be at least 1, got {replicates}" in capsys.readouterr().err
        assert not json_path.exists()

    def test_f1_study_rejects_no_segments(self, tmp_path, capsys, monkeypatch):
        def no_cell(*args):
            raise AssertionError("the study ran a cell before checking its segment count")

        monkeypatch.setattr(svp.bench, "_run_cell", no_cell)
        json_path = tmp_path / "summary.json"
        code = main(["bench", "--study", "f1", "--scenarios", "up", "--methods", "svp-glr",
                     "--replicates", "1", "--n", "50", "--segments", "0",
                     "--out-json", str(json_path)])
        assert code == 4
        assert "segments must be at least 1, got 0" in capsys.readouterr().err
        assert not json_path.exists()

    @pytest.mark.parametrize("lengths", [["200"], ["200", "200"]])
    def test_runtime_study_rejects_a_single_length(self, tmp_path, capsys, monkeypatch, lengths):
        def no_detector(*args):
            raise AssertionError("the study built a detector before checking its lengths")

        monkeypatch.setattr(svp.bench, "make_detector", no_detector)
        json_path = tmp_path / "runtime.json"
        code = main(["bench", "--study", "runtime", "--lengths", *lengths,
                     "--repeats", "1", "--out-json", str(json_path)])
        assert code == 4
        assert "two distinct lengths" in capsys.readouterr().err
        assert not json_path.exists()

    def test_non_integer_thread_count_is_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SVP_THREADS", "abc")
        code = main(["bench", "--study", "f1", "--scenarios", "none", "--methods", "svp-glr",
                     "--jumps", "1.0", "--replicates", "1", "--n", "50",
                     "--out-json", str(tmp_path / "summary.json")])
        assert code == 4
        assert "SVP_THREADS must be an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--jumps", "1.0", "nan"], "--jumps"),
            (["--jumps", "inf"], "--jumps"),
            (["--sigma", "nan"], "--sigma"),
            (["--sigma", "-1"], "--sigma"),
            (["--tolerance", "-1"], "--tolerance"),
            (["--tolerance", "nan"], "--tolerance"),
            (["--workers", "0"], "--workers"),
            (["--workers", "-2"], "--workers"),
            (["--methods", "nosuch"], "unknown method 'nosuch'"),
            (["--scenarios", "up", "nosuch"], "unknown scenario 'nosuch'"),
            (["--n", "10", "--segments", "20"], "true_changes must be strictly increasing"),
            (["--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["--study", "nosuch"], "argument --study: invalid choice: 'nosuch'"),
        ],
    )
    def test_bad_numeric_flags_fail_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                    flags, named):
        def no_cell(*args):
            raise AssertionError("the study ran a cell before checking its flags")

        monkeypatch.setattr(svp.bench, "_run_cell", no_cell)
        json_path = tmp_path / "summary.json"
        code = main(["bench", "--study", "f1", "--scenarios", "up", "--methods", "svp-glr",
                     "--replicates", "1", "--n", "50", *flags, "--out-json", str(json_path)])
        assert code == 4
        assert named in capsys.readouterr().err
        assert not json_path.exists()

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_is_rejected(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("SVP_THREADS", threads)
        code = main(["bench", "--study", "f1", "--scenarios", "none", "--methods", "svp-glr",
                     "--jumps", "1.0", "--replicates", "1", "--n", "50",
                     "--out-json", str(tmp_path / "summary.json")])
        assert code == 4
        assert f"SVP_THREADS must be at least 1, got {threads}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,named",
    [(["--jump", "nan"], "--jump"), (["--sigma", "inf"], "--sigma"), (["--sigma", "nan"], "--sigma")],
)
def test_simulate_rejects_non_finite_flags(tmp_path, capsys, flags, named):
    out = tmp_path / "series.csv"
    code = main(["simulate", "--scenario", "up", "--n", "50", *flags, "--out", str(out)])
    assert code == 4
    assert named in capsys.readouterr().err
    assert not out.exists()
