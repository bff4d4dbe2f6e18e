"""Scenario generation, detection metrics and the simulation studies.

Randomness comes from a counter-keyed 64-bit mixer rather than the
platform generator, so a (scenario, seed) pair regenerates bit-identical
data anywhere.  Replicate seeds are derived as base_seed + replicate
index, which keeps results independent of scheduling.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ConfigError, DomainError, Segmentation, TimeSeries
from .costs import CostModel
from .engine import EngineConfig, op_pelt_run, svp_run
from .validity import ValidityTest, sidak_threshold, wilcoxon_threshold

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform draws in (0, 1] from the counter stream of ``seed``."""
    base = _mix64((seed & _MASK) ^ 0xD1B54A32D192ED03)
    # uint64 arithmetic wraps, which is the & _MASK of the scalar mixer
    counters = np.arange(1, count + 1, dtype=np.uint64)
    z = _mix64(np.uint64(base) + counters * np.uint64(_GOLDEN))
    return ((z >> 11) + 1) * 2.0**-53


def normals(seed: int, count: int) -> np.ndarray:
    """Standard normal draws via the Box-Muller transform."""
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * math.pi) * u[1::2]
    z = np.empty(2 * pairs, dtype=np.float64)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


NOISE_KINDS = ("gaussian", "student_t")


@dataclass(frozen=True)
class Noise:
    """Noise family: gaussian(sigma) or student_t(df) scaled by sigma."""

    kind: str = "gaussian"
    sigma: float = 1.0
    df: int = 2

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise DomainError("sigma must be nonnegative")
        if self.df < 1:
            raise DomainError("student_t needs df >= 1")

    def draw(self, n: int, seed: int) -> np.ndarray:
        if self.kind == "gaussian":
            return self.sigma * normals(seed, n)
        z = normals(seed, (1 + self.df) * n)
        numer = z[:n]
        chi_sq = (z[n:].reshape(self.df, n) ** 2).sum(axis=0)
        return self.sigma * (numer / np.sqrt(chi_sq / self.df))

    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g})"
        return f"t{self.df}" if self.sigma == 1 else f"t{self.df}(sigma={self.sigma:g})"


SCENARIO_NAMES = ("none", "up", "step", "updown")
# "step" and "updown" are reconstructed pattern shapes; study metadata
# flags them so downstream readers can treat them separately.
RECONSTRUCTED_SCENARIOS = ("step", "updown")


@dataclass(frozen=True)
class Scenario:
    """A piecewise-constant mean pattern plus noise and a seed."""

    name: str
    n: int = 1000
    jump: float = 1.0
    segments: int = 4
    noise: Noise = field(default_factory=Noise)
    seed: int = 0
    true_changes: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise DomainError(f"unknown scenario {self.name!r}, expected one of {SCENARIO_NAMES}")
        if self.n < 1:
            raise DomainError("scenario length must be positive")
        if self.segments < 1:
            raise DomainError("scenario needs at least one segment")
        if self.true_changes is None:
            object.__setattr__(self, "true_changes", self._default_changes())
        else:
            object.__setattr__(self, "true_changes", tuple(int(c) for c in self.true_changes))
        changes = self.true_changes
        if self.name == "none" and changes:
            raise DomainError("the none scenario has no change points")
        if any(not 0 < c < self.n for c in changes) or any(
            a >= b for a, b in zip(changes, changes[1:])
        ):
            raise DomainError(f"true_changes must be strictly increasing inside (0, n): {changes}")

    def _default_changes(self) -> tuple[int, ...]:
        if self.name == "none":
            return ()
        if self.name == "step":
            return (self.n // 2,)
        return tuple(i * self.n // self.segments for i in range(1, self.segments))

    @property
    def true_k(self) -> int:
        return len(self.true_changes) + 1

    def segment_means(self) -> tuple[float, ...]:
        k = self.true_k
        if self.name == "none":
            return (0.0,)
        if self.name == "up" or self.name == "step":
            return tuple(i * self.jump for i in range(k))
        return tuple((i % 2) * self.jump for i in range(k))

    def mean_signal(self) -> np.ndarray:
        signal = np.empty(self.n, dtype=np.float64)
        bounds = (0,) + self.true_changes + (self.n,)
        for mean, a, b in zip(self.segment_means(), bounds, bounds[1:]):
            signal[a:b] = mean
        return signal


def generate(scenario: Scenario) -> TimeSeries:
    """Deterministic series for the scenario: mean signal plus noise."""
    noise = scenario.noise.draw(scenario.n, scenario.seed)
    return TimeSeries.from_values(scenario.mean_signal() + noise)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    matched_pairs: tuple[tuple[int, int], ...]


def match_and_score(
    true_changes: Sequence[int], detected: Sequence[int], tolerance: float = 2.5
) -> MetricsReport:
    """Greedy nearest-neighbor one-to-one matching within the tolerance.

    Distance ties go to the earlier true change.  An empty detection list
    scores precision 1 (nothing claimed); an empty truth list scores
    recall 1; f1 is 0 whenever precision + recall is 0.
    """
    truth = sorted(int(c) for c in true_changes)
    found = sorted(int(c) for c in detected)
    pairs = sorted(
        (abs(t - d), ti, di)
        for ti, t in enumerate(truth)
        for di, d in enumerate(found)
        if abs(t - d) <= tolerance
    )
    t_used = [False] * len(truth)
    d_used = [False] * len(found)
    matched: list[tuple[int, int]] = []
    for _, ti, di in pairs:
        if not t_used[ti] and not d_used[di]:
            t_used[ti] = True
            d_used[di] = True
            matched.append((truth[ti], found[di]))
    hits = len(matched)
    precision = hits / len(found) if found else 1.0
    recall = hits / len(truth) if truth else 1.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        matched_pairs=tuple(sorted(matched)),
    )


def resolve_gamma(rule: str, n: int, typical: float) -> float:
    """Gamma (or penalty) of a named rule for a series of length ``n``.

    ``bic`` is 2 log n and ``bic15`` 1.5 log n.  ``wilcoxon:<len>`` and
    ``mood:<alpha>`` scale with a typical segment length: the one given
    after ``wilcoxon:``, else ``typical``, which a bare ``wilcoxon`` uses.
    """
    if n < 1:
        raise ConfigError(f"a gamma rule needs a series length of at least 1, got {n}")
    name, colon, arg = rule.partition(":")
    if rule == "bic":
        return 2.0 * math.log(n)
    if rule == "bic15":
        return 1.5 * math.log(n)
    if rule == "wilcoxon":
        return wilcoxon_threshold(typical)
    if colon and name in ("wilcoxon", "mood"):
        try:
            value = float(arg)
        except ValueError:
            raise ConfigError(f"bad gamma rule {rule!r}")
        if name == "wilcoxon":
            return wilcoxon_threshold(value)
        return sidak_threshold(max(1, round(typical) - 1), value)
    raise ConfigError(f"unknown gamma rule {rule!r}")


# name: (cost kind, validity kind or None for penalized optimal
# partitioning, gamma or penalty rule, sticky for svp or prune for OP)
METHODS = {
    "pelt": ("gaussian", None, "bic", True),
    "pelt-bic15": ("gaussian", None, "bic15", True),
    "op-unpruned": ("gaussian", None, "bic", False),
    "svp-glr": ("gaussian", "glr_gaussian_focus", "bic", True),
    "svp-glr-bic15": ("gaussian", "glr_gaussian_focus", "bic15", True),
    "svp-glr-plain": ("gaussian", "glr_gaussian_focus", "bic", False),
    "svp-wilcoxon": ("mad", "wilcoxon", "wilcoxon", True),
    "svp-mood": ("mad", "mood", "mood:0.01", True),
}
METHOD_NAMES = tuple(METHODS)


def _method_row(method: str) -> tuple:
    """The ``METHODS`` row of a method name; ``DomainError`` for an unknown one."""
    if method not in METHODS:
        raise DomainError(f"unknown method {method!r}, expected one of {METHOD_NAMES}")
    return METHODS[method]


def make_detector(method: str, n: int, true_k: int) -> Callable[[TimeSeries], Segmentation]:
    """Bind a named method to a series length and oracle segment count.

    Rank-test thresholds use the oracle typical segment length n / K, so
    the harness resolves them from the scenario truth.
    """
    cost_kind, test_kind, rule, flag = _method_row(method)
    gamma = resolve_gamma(rule, n, n / true_k)
    model = CostModel(cost_kind)
    if test_kind is None:
        return lambda series: op_pelt_run(series, model, gamma, prune=flag)[1]
    config = EngineConfig(cost=model, test=ValidityTest(test_kind, gamma=gamma, sticky=flag))
    return lambda series: svp_run(series, config).segmentation


@dataclass(frozen=True)
class StudyConfig:
    scenarios: tuple[str, ...] = SCENARIO_NAMES
    methods: tuple[str, ...] = ("pelt", "svp-glr")
    jumps: tuple[float, ...] = (0.5, 1.0, 1.5)
    replicates: int = 20
    n: int = 1000
    segments: int = 4
    noise: Noise = field(default_factory=Noise)
    base_seed: int = 1
    tolerance: float = 2.5
    workers: int = 1


@dataclass(frozen=True)
class StudyRow:
    scenario: str
    method: str
    jump: float
    replicate: int
    precision: float
    recall: float
    f1: float
    k_detected: int
    runtime_s: float


RESULT_COLUMNS = tuple(f.name for f in fields(StudyRow))


def _run_cell(args: tuple) -> StudyRow:
    scenario_name, method, jump, replicate, cfg = args
    scenario = Scenario(
        name=scenario_name,
        n=cfg.n,
        jump=jump,
        segments=cfg.segments,
        noise=cfg.noise,
        seed=cfg.base_seed + replicate,
    )
    series = generate(scenario)
    detector = make_detector(method, cfg.n, scenario.true_k)
    start = time.perf_counter()
    segmentation = detector(series)
    elapsed = time.perf_counter() - start
    report = match_and_score(scenario.true_changes, segmentation.change_points, cfg.tolerance)
    return StudyRow(
        scenario=scenario_name,
        method=method,
        jump=jump,
        replicate=replicate,
        precision=report.precision,
        recall=report.recall,
        f1=report.f1,
        k_detected=segmentation.k,
        runtime_s=elapsed,
    )


def _guarded_cell(cell: tuple) -> StudyRow | dict:
    """The cell's row, or a failure record if it crashed: one crashed cell
    must not cost the study its other results."""
    try:
        return _run_cell(cell)
    except Exception as exc:
        scenario, method, jump, replicate, _ = cell
        return {
            "scenario": scenario,
            "method": method,
            "jump": jump,
            "replicate": replicate,
            "error": f"{type(exc).__name__}: {exc}",
        }


def run_study(config: StudyConfig) -> tuple[list[StudyRow], dict]:
    """Run the scenario grid and aggregate per-cell mean metrics.

    Returns rows plus a summary dict; crashed cells are recorded under
    summary["failures"] and the surviving rows are kept.  The
    configuration is checked before any cell runs: counts of at least 1,
    known method names, and scenarios that ``Scenario`` accepts at
    ``n`` and ``segments``.
    """
    for name in ("n", "replicates", "segments", "workers"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be at least 1, got {getattr(config, name)}")
    for method in config.methods:
        _method_row(method)
    for scenario in config.scenarios:
        Scenario(name=scenario, n=config.n, segments=config.segments, noise=config.noise)
    cells = [
        (scenario, method, jump, replicate, config)
        for scenario in config.scenarios
        for jump in config.jumps
        for method in config.methods
        for replicate in range(config.replicates)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_guarded_cell, cells))
    else:
        outcomes = [_guarded_cell(cell) for cell in cells]
    rows = [o for o in outcomes if isinstance(o, StudyRow)]
    failures = [o for o in outcomes if not isinstance(o, StudyRow)]
    return rows, summarize(rows, config, failures)


def summarize(rows: Sequence[StudyRow], config: StudyConfig, failures: Sequence[dict] = ()) -> dict:
    cells: dict[tuple, list[StudyRow]] = {}
    for row in rows:
        cells.setdefault((row.scenario, row.method, row.jump), []).append(row)
    table = []
    for (scenario, method, jump), group in sorted(cells.items()):
        table.append(
            {
                "scenario": scenario,
                "method": method,
                "jump": jump,
                "replicates": len(group),
                "mean_precision": float(np.mean([r.precision for r in group])),
                "mean_recall": float(np.mean([r.recall for r in group])),
                "mean_f1": float(np.mean([r.f1 for r in group])),
                "mean_k_detected": float(np.mean([r.k_detected for r in group])),
                "mean_runtime_s": float(np.mean([r.runtime_s for r in group])),
            }
        )
    return {
        "config": {
            "scenarios": list(config.scenarios),
            "methods": list(config.methods),
            "jumps": list(config.jumps),
            "replicates": config.replicates,
            "n": config.n,
            "segments": config.segments,
            "noise": config.noise.label(),
            "base_seed": config.base_seed,
            "tolerance": config.tolerance,
        },
        "reconstructed_scenarios": [
            s for s in config.scenarios if s in RECONSTRUCTED_SCENARIOS
        ],
        "cells": table,
        "failures": list(failures),
    }


def write_results_csv(rows: Sequence[StudyRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in rows:
            fh.write(
                f"{row.scenario},{row.method},{row.jump:g},{row.replicate},"
                f"{row.precision:.6f},{row.recall:.6f},{row.f1:.6f},"
                f"{row.k_detected},{row.runtime_s:.6f}\n"
            )


def write_json(document, path=None) -> None:
    """Write ``document`` as indented JSON to ``path``, or to stdout without one."""
    text = json.dumps(document, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


@dataclass(frozen=True)
class RuntimeRow:
    method: str
    n: int
    runtime_s: float
    k_detected: int


def run_runtime_study(
    lengths: Sequence[int] = (1000, 2000, 4000, 8000),
    methods: Sequence[str] = ("svp-glr", "op-unpruned"),
    repeats: int = 3,
    seed: int = 99,
) -> list[RuntimeRow]:
    """Time detectors on change-free gaussian data of growing length.

    Each (method, n) cell reports the best of ``repeats`` runs on the
    same series.  The repeats go round-robin: each round times every cell
    once, so a burst of load on a shared machine slows one repeat of many
    cells, not every repeat of one.  "op-unpruned" is the
    optimal-partitioning baseline with ``prune=False``, a clean quadratic
    reference.  The lengths are checked before anything is timed: the
    log-log slope fit needs two distinct ones.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    if len(set(lengths)) < 2:
        raise ConfigError("a log-log slope needs at least two distinct lengths")
    cells = []
    for n in lengths:
        series = generate(Scenario(name="none", n=n, seed=seed))
        cells += [(method, n, series, make_detector(method, n, 1)) for method in methods]
    best = [math.inf] * len(cells)
    k_detected = [0] * len(cells)
    for _ in range(repeats):
        for i, (_, _, series, detector) in enumerate(cells):
            start = time.perf_counter()
            segmentation = detector(series)
            best[i] = min(best[i], time.perf_counter() - start)
            k_detected[i] = segmentation.k
    return [
        RuntimeRow(method=method, n=n, runtime_s=runtime, k_detected=k)
        for (method, n, _, _), runtime, k in zip(cells, best, k_detected)
    ]


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(n), from two or more distinct n."""
    if len({p[0] for p in points}) < 2:
        raise DomainError("a log-log slope needs at least two distinct lengths")
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    return float(np.polyfit(xs, ys, 1)[0])


def run_prop2_audit(
    instances: int = 100,
    n: int = 500,
    base_seed: int = 7,
) -> dict:
    """Per-instance check that plain-GLR SVP never uses more segments
    than optimal partitioning at the same penalty.

    Cycles through the scenario patterns and the jumps 0, 0.75 and 1.5 to
    mix change-free and multi-change instances.
    """
    if instances < 1:
        raise ConfigError(f"instances must be at least 1, got {instances}")
    jumps = (0.0, 0.75, 1.5)
    svp_detector = make_detector("svp-glr-plain", n, 1)
    op_detector = make_detector("pelt", n, 1)
    records = []
    violations = 0
    for i in range(instances):
        scenario_name = SCENARIO_NAMES[i % len(SCENARIO_NAMES)]
        scenario = Scenario(
            name=scenario_name,
            n=n,
            jump=jumps[i % len(jumps)],
            seed=base_seed + i,
        )
        series = generate(scenario)
        k_svp = svp_detector(series).k
        k_op = op_detector(series).k
        if k_svp > k_op:
            violations += 1
        records.append(
            {"instance": i, "scenario": scenario_name, "k_svp": k_svp, "k_op": k_op}
        )
    return {"instances": instances, "violations": violations, "records": records}
