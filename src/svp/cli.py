"""Command-line front end: detect, simulate, bench.

Exit codes: 0 success, 2 unreadable input, 3 non-numeric or non-finite data,
4 invalid flag combination or configuration, 5 benchmark cell failure.
Every detection can emit a manifest that replays to identical output.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .bench import (
    Noise,
    Scenario,
    StudyConfig,
    fit_loglog_slope,
    generate,
    run_prop2_audit,
    run_runtime_study,
    run_study,
    write_results_csv,
    write_summary_json,
)
from .core import DomainError, SvpError, TimeSeries
from .costs import CostModel, cost
from .engine import EngineConfig, svp_run
from .validity import ValidityTest, segment_statistic, sidak_threshold, wilcoxon_threshold

EXIT_OK = 0
EXIT_UNREADABLE = 2
EXIT_BAD_DATA = 3
EXIT_BAD_FLAGS = 4
EXIT_BENCH_FAILURE = 5

_COST_ALIASES = {
    "gauss": "gaussian",
    "gaussian": "gaussian",
    "poisson": "poisson",
    "mad": "mad",
    "quantile": "quantile",
}

_TEST_ALIASES = {
    "range": "range",
    "glr": "glr_gaussian_focus",
    "wilcoxon": "wilcoxon",
    "mood": "mood",
}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_series_csv(path: str, column: Optional[str]) -> list[float]:
    """Load one numeric column; header row is detected automatically."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except OSError as exc:
        raise _CliError(EXIT_UNREADABLE, f"cannot read {path}: {exc}")
    if not rows:
        raise _CliError(EXIT_BAD_DATA, f"{path} holds no data rows")

    def parse(cell: str) -> float:
        text = cell.strip()
        if not text:
            raise _CliError(EXIT_BAD_DATA, "empty cell in the selected column")
        try:
            value = float(text)
        except ValueError:
            raise _CliError(EXIT_BAD_DATA, f"non-numeric cell {cell!r}")
        if not math.isfinite(value):
            raise _CliError(EXIT_BAD_DATA, f"non-finite cell {cell!r}")
        return value

    def is_number(cell: str) -> bool:
        try:
            return not math.isnan(float(cell.strip()))
        except ValueError:
            return False

    index: Optional[int] = None
    if column is not None:
        try:
            index = int(column)
        except ValueError:
            index = None
        if index is not None and index < 0:
            raise _CliError(EXIT_BAD_FLAGS, f"column index must be 0 or more, got {index}")
    start = 0
    header = rows[0]
    if column is not None and index is None:
        names = [cell.strip() for cell in header]
        if column not in names:
            raise _CliError(EXIT_BAD_FLAGS, f"column {column!r} not found in header {names}")
        index = names.index(column)
        start = 1
    else:
        if index is None:
            numeric = [i for i, cell in enumerate(header) if is_number(cell)]
            if numeric:
                index = numeric[0]
            else:
                start = 1
                data_row = rows[1] if len(rows) > 1 else []
                numeric = [i for i, cell in enumerate(data_row) if is_number(cell)]
                if not numeric:
                    raise _CliError(EXIT_BAD_DATA, "no numeric column found")
                index = numeric[0]
        elif not is_number(header[index] if index < len(header) else ""):
            start = 1
    values = []
    for row in rows[start:]:
        if index >= len(row):
            raise _CliError(EXIT_BAD_DATA, f"row {row!r} lacks column {index}")
        values.append(parse(row[index]))
    if not values:
        raise _CliError(EXIT_BAD_DATA, "selected column holds no values")
    return values


def _resolve_gamma(args, n: int) -> tuple[float, str]:
    typical_len = args.typical_len
    if typical_len is not None and not math.isfinite(typical_len):
        raise _CliError(EXIT_BAD_FLAGS, f"--typical-len must be finite, got {typical_len}")
    if typical_len is not None and typical_len <= 0:
        raise _CliError(EXIT_BAD_FLAGS, f"--typical-len must be positive, got {typical_len:g}")
    if (args.gamma is None) == (args.gamma_rule is None):
        raise _CliError(EXIT_BAD_FLAGS, "exactly one of --gamma / --gamma-rule is required")
    if args.gamma is not None:
        return float(args.gamma), f"explicit:{args.gamma:g}"
    rule = args.gamma_rule
    if rule == "bic":
        return 2.0 * math.log(n), "bic"
    if rule == "bic15":
        return 1.5 * math.log(n), "bic15"
    if rule.startswith("wilcoxon:"):
        try:
            typical = float(rule.split(":", 1)[1])
        except ValueError:
            raise _CliError(EXIT_BAD_FLAGS, f"bad gamma rule {rule!r}")
        return wilcoxon_threshold(typical), rule
    if rule.startswith("mood:"):
        try:
            alpha = float(rule.split(":", 1)[1])
        except ValueError:
            raise _CliError(EXIT_BAD_FLAGS, f"bad gamma rule {rule!r}")
        typical = typical_len if typical_len is not None else n
        return sidak_threshold(max(1, round(typical) - 1), alpha), rule
    raise _CliError(EXIT_BAD_FLAGS, f"unknown gamma rule {rule!r}")


def _mad_diff_scale(values: np.ndarray) -> float:
    if values.size < 2:
        raise _CliError(EXIT_BAD_FLAGS, "mad-diff standardization needs at least 2 values")
    diffs = np.abs(np.diff(values))
    scale = 1.4826 * float(np.median(diffs)) / math.sqrt(2.0)
    if not 0.0 < scale < math.inf:
        raise _CliError(
            EXIT_BAD_FLAGS, f"mad-diff standardization needs a positive finite scale, got {scale}"
        )
    return scale


def cmd_detect(args) -> int:
    wall_start = time.perf_counter()
    raw_values = _read_series_csv(args.input, args.column)
    values = np.asarray(raw_values, dtype=np.float64)
    scale = None
    if args.standardize == "mad-diff":
        scale = _mad_diff_scale(values)
        values = values / scale
    try:
        series = TimeSeries.from_values(values)
    except DomainError as exc:
        raise _CliError(EXIT_BAD_DATA, str(exc))
    n = len(series)
    gamma, gamma_rule = _resolve_gamma(args, n)
    try:
        model = CostModel(kind=_COST_ALIASES[args.cost], x=args.quantile_x)
        test = ValidityTest(kind=_TEST_ALIASES[args.test], gamma=gamma, sticky=args.sticky)
        config = EngineConfig(cost=model, test=test, min_seg_len=args.min_seg_len)
        result = svp_run(series, config)
    except SvpError as exc:
        raise _CliError(EXIT_BAD_FLAGS, str(exc))
    seg = result.segmentation
    r_n = result.table.r[-1]
    per_segment = [
        {
            "start": a,
            "end": b,
            "cost": cost(series, a, b, model),
            "validity_stat": segment_statistic(series, a, b, test.kind),
        }
        for a, b in seg.segments()
    ]
    payload = {
        "boundaries": list(seg.boundaries),
        "k": seg.k,
        "q": r_n.q,
        "per_segment": per_segment,
    }
    out_text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out_text)
    else:
        sys.stdout.write(out_text)
    if args.points_csv:
        _write_points_csv(args.points_csv, series, seg)
    manifest_path = args.manifest or (args.out + ".manifest.json" if args.out else None)
    if manifest_path:
        manifest = {
            "command": ["svp"] + args.argv,
            "config": {
                "cost": model.kind,
                "quantile_x": model.x,
                "test": test.kind,
                "sticky": test.sticky,
                "gamma": gamma,
                "gamma_rule": gamma_rule,
                "min_seg_len": args.min_seg_len,
                "standardize": args.standardize,
                "mad_diff_scale": scale,
            },
            "input": {
                "path": args.input,
                "length": n,
                "sha256": _file_digest(args.input),
            },
            "outputs": {
                "boundaries": list(seg.boundaries),
                "r_n": [r_n.k, r_n.q],
                "per_segment_costs": [s["cost"] for s in per_segment],
            },
            "versions": {
                "package": __version__,
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "wall_time_s": time.perf_counter() - wall_start,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_points_csv(path: str, series: TimeSeries, seg) -> None:
    values = series.values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,value,segment_id,segment_mean,segment_median\n")
        for sid, (a, b) in enumerate(seg.segments()):
            mean = float(values[a:b].mean())
            median = float(np.median(values[a:b]))
            for i in range(a, b):
                fh.write(f"{i + 1},{values[i]:.17g},{sid},{mean:.17g},{median:.17g}\n")


def _parse_noise(text: str, sigma: float) -> Noise:
    if text == "gaussian":
        return Noise("gaussian", sigma=sigma)
    if text.startswith("t"):
        try:
            df = int(text[1:].lstrip(":") or "2")
        except ValueError:
            raise _CliError(EXIT_BAD_FLAGS, f"bad noise spec {text!r}")
        return Noise("student_t", df=df)
    raise _CliError(EXIT_BAD_FLAGS, f"unknown noise {text!r} (use gaussian or t<df>)")


def cmd_simulate(args) -> int:
    noise = _parse_noise(args.noise, args.sigma)
    try:
        scenario = Scenario(
            name=args.scenario,
            n=args.n,
            jump=args.jump,
            segments=args.segments,
            noise=noise,
            seed=args.seed,
            true_changes=tuple(args.changes) if args.changes else None,
        )
    except SvpError as exc:
        raise _CliError(EXIT_BAD_FLAGS, str(exc))
    series = generate(scenario)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("value\n")
        for v in series.values:
            fh.write(f"{v:.17g}\n")
    if args.truth:
        truth = {
            "scenario": scenario.name,
            "n": scenario.n,
            "jump": scenario.jump,
            "seed": scenario.seed,
            "noise": scenario.noise.label(),
            "true_changes": list(scenario.true_changes),
        }
        with open(args.truth, "w", encoding="utf-8") as fh:
            json.dump(truth, fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    workers = args.workers
    if workers is None:
        text = os.environ.get("SVP_THREADS", "1") or "1"
        try:
            workers = int(text)
        except ValueError:
            raise _CliError(EXIT_BAD_FLAGS, f"SVP_THREADS must be an integer, got {text!r}")
    if args.study == "runtime":
        rows = run_runtime_study(
            lengths=tuple(args.lengths),
            methods=tuple(args.methods) if args.methods else ("svp-glr", "op-unpruned"),
            repeats=args.repeats,
            seed=args.seed,
        )
        by_method: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            by_method.setdefault(row.method, []).append((row.n, row.runtime_s))
        summary = {
            "rows": [
                {"method": r.method, "n": r.n, "runtime_s": r.runtime_s, "k_detected": r.k_detected}
                for r in rows
            ],
            "loglog_slopes": {m: fit_loglog_slope(pts) for m, pts in by_method.items()},
        }
        if args.out_json:
            write_summary_json(summary, args.out_json)
        else:
            json.dump(summary, sys.stdout, indent=2)
            sys.stdout.write("\n")
        return EXIT_OK
    if args.study == "prop2":
        audit = run_prop2_audit(instances=args.replicates, n=args.n, base_seed=args.seed)
        if args.out_json:
            write_summary_json(audit, args.out_json)
        else:
            json.dump({k: audit[k] for k in ("instances", "violations")}, sys.stdout, indent=2)
            sys.stdout.write("\n")
        return EXIT_OK if audit["violations"] == 0 else EXIT_BENCH_FAILURE
    methods = list(args.methods) if args.methods else ["svp-glr"]
    if args.baseline == "pelt" and "pelt" not in methods:
        methods.append("pelt")
    replicates = 100 if args.full else args.replicates
    jumps = tuple(args.jumps) if not args.full else tuple(np.round(np.arange(0.1, 2.01, 0.1), 2))
    config = StudyConfig(
        scenarios=tuple(args.scenarios),
        methods=tuple(methods),
        jumps=jumps,
        replicates=replicates,
        n=args.n,
        segments=args.segments,
        noise=_parse_noise(args.noise, args.sigma),
        base_seed=args.seed,
        tolerance=args.tolerance,
        workers=workers,
    )
    rows, summary = run_study(config)
    if args.out_csv:
        write_results_csv(rows, args.out_csv)
    if args.out_json:
        write_summary_json(summary, args.out_json)
    if not args.out_csv and not args.out_json:
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    if summary["failures"]:
        sys.stderr.write(f"{len(summary['failures'])} cell(s) failed; partial results kept\n")
        return EXIT_BENCH_FAILURE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svp",
        description="Change-point detection via smallest valid partitioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("detect", help="segment a CSV series")
    det.add_argument("--input", required=True, help="input CSV path")
    det.add_argument("--column", default=None, help="column name or 0-based index")
    det.add_argument("--cost", default="gauss", choices=sorted(_COST_ALIASES))
    det.add_argument("--quantile-x", type=float, default=0.0, help="trim fraction for the quantile cost")
    det.add_argument("--test", default="glr", choices=sorted(_TEST_ALIASES))
    det.add_argument("--gamma", type=float, default=None)
    det.add_argument(
        "--gamma-rule",
        default=None,
        help="bic | bic15 | wilcoxon:<len> | mood:<alpha> (instead of --gamma)",
    )
    det.add_argument("--typical-len", type=float, default=None, help="typical segment length for mood:<alpha>")
    det.add_argument("--sticky", dest="sticky", action="store_true", default=True)
    det.add_argument("--no-sticky", dest="sticky", action="store_false")
    det.add_argument("--min-seg-len", type=int, default=1)
    det.add_argument("--standardize", choices=["mad-diff"], default=None)
    det.add_argument("--out", default=None, help="output JSON path (default stdout)")
    det.add_argument("--points-csv", default=None, help="optional per-point CSV path")
    det.add_argument("--manifest", default=None, help="manifest JSON path")
    det.set_defaults(func=cmd_detect)

    sim = sub.add_parser("simulate", help="generate a scenario series")
    sim.add_argument("--scenario", required=True, choices=["none", "up", "step", "updown"])
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--jump", type=float, default=1.0)
    sim.add_argument("--segments", type=int, default=4)
    sim.add_argument("--changes", type=int, nargs="*", default=None, help="explicit change indices")
    sim.add_argument("--noise", default="gaussian", help="gaussian or t<df> (e.g. t2)")
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True, help="series CSV path")
    sim.add_argument("--truth", default=None, help="truth JSON path")
    sim.set_defaults(func=cmd_simulate)

    ben = sub.add_parser("bench", help="run simulation, runtime or audit studies")
    ben.add_argument("--study", default="f1", choices=["f1", "runtime", "prop2"])
    ben.add_argument("--scenarios", nargs="+", default=["none", "up", "step", "updown"])
    ben.add_argument("--methods", nargs="+", default=None)
    ben.add_argument("--jumps", type=float, nargs="+", default=[0.5, 1.0, 1.5])
    ben.add_argument("--replicates", type=int, default=20)
    ben.add_argument("--full", action="store_true", help="100 replicates over the full jump grid")
    ben.add_argument("--n", type=int, default=1000)
    ben.add_argument("--segments", type=int, default=4)
    ben.add_argument("--noise", default="gaussian")
    ben.add_argument("--sigma", type=float, default=1.0)
    ben.add_argument("--tolerance", type=float, default=2.5)
    ben.add_argument("--baseline", default=None, choices=["pelt"], help="add a baseline method")
    ben.add_argument("--seed", type=int, default=1)
    ben.add_argument("--lengths", type=int, nargs="+", default=[1000, 2000, 4000, 8000])
    ben.add_argument("--repeats", type=int, default=3, help="timing repeats for the runtime study")
    ben.add_argument("--workers", type=int, default=None, help="parallel cells (default SVP_THREADS)")
    ben.add_argument("--out-csv", default=None)
    ben.add_argument("--out-json", default=None)
    ben.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = argv
    try:
        return args.func(args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except SvpError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_FLAGS


if __name__ == "__main__":
    sys.exit(main())
