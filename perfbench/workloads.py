"""The benchmark's workloads: inputs made from a seed, the timed solve, the output check.

Each workload builds a small pool of items from ``--seed``; the timed loop
cycles through the pool.  ``solve`` is the only code inside the timed
region.  ``check`` runs afterwards and returns ``(boundaries, problem)``:
the segmentations the item produced and ``None`` when every output check
passed, or a description of the first failed check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

import svp.cli
import svp.validity
from svp.bench import Noise, Scenario, generate, make_detector
from svp.core import Segmentation, TimeSeries
from svp.costs import CostModel, cost
from svp.engine import segmentation_is_valid
from svp.validity import ValidityTest, glr_scan_naive, sidak_threshold, wilcoxon_threshold

DEFAULT_SEED = 1
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def item_seed(seed: int, index: int) -> int:
    """Scenario seed of pool item ``index`` in a run with ``seed``."""
    return 1000 * seed + index


def method_test(method: str, n: int, true_k: int) -> ValidityTest:
    """The validity test each svp method documents, rebuilt for the output check."""
    if method == "svp-glr":
        return ValidityTest("glr_gaussian_focus", gamma=2.0 * math.log(n), sticky=True)
    if method == "svp-wilcoxon":
        return ValidityTest("wilcoxon", gamma=wilcoxon_threshold(n / true_k), sticky=True)
    if method == "svp-mood":
        gamma = sidak_threshold(max(1, round(n / true_k) - 1), 0.01)
        return ValidityTest("mood", gamma=gamma, sticky=True)
    raise ValueError(f"no output check for method {method!r}")


@dataclass
class Item:
    """One input of a workload: the generated series plus the files the CLI reads and writes."""

    index: int
    series: TimeSeries
    paths: dict = field(default_factory=dict)


def load_expected(workload) -> Optional[list]:
    """Pinned boundaries of the default seed, when recorded for these parameters."""
    if not EXPECTED_PATH.is_file():
        return None
    record = json.loads(EXPECTED_PATH.read_text(encoding="utf-8")).get(workload.name)
    if record is None or record["params"] != workload.params():
        return None
    return record["items"]


def pinned_problem(workload, seed: int, item: Item, boundaries: list) -> Optional[str]:
    """On the default seed, how the boundaries differ from ``expected.json``, else None."""
    if seed != DEFAULT_SEED:
        return None
    expected = load_expected(workload)
    if expected is None or item.index >= len(expected):
        return None
    if boundaries != expected[item.index]:
        return f"boundaries {boundaries} differ from the pinned record {expected[item.index]}"
    return None


@dataclass
class Library:
    """Segment a generated series through ``make_detector``, once per method."""

    name: str
    methods: tuple
    n: int
    noise: Noise
    scenario: str = "up"
    segments: int = 4
    jump: float = 1.5
    pool: int = 8
    _detectors: list = field(default_factory=list, init=False, repr=False, compare=False)

    def params(self) -> dict:
        return {
            "methods": list(self.methods),
            "scenario": self.scenario,
            "n": self.n,
            "segments": self.segments,
            "jump": self.jump,
            "noise": self.noise.label(),
        }

    @property
    def obs_per_item(self) -> int:
        return self.n * len(self.methods)

    def scaled(self, factor: int) -> "Library":
        return replace(self, n=max(8 * self.segments, self.n // factor), pool=1)

    def setup_code(self) -> str:
        return (
            "from svp.bench import make_detector\n"
            f"for method in {self.methods!r}:\n"
            f"    make_detector(method, {self.n}, {self.segments})\n"
        )

    def prepare(self, seed: int, workdir: Path) -> list:
        items = []
        for index in range(self.pool):
            scenario = Scenario(
                name=self.scenario, n=self.n, jump=self.jump, segments=self.segments,
                noise=self.noise, seed=item_seed(seed, index),
            )
            items.append(Item(index=index, series=generate(scenario)))
        self._detectors = [make_detector(m, self.n, self.segments) for m in self.methods]
        return items

    def solve(self, item: Item):
        series = TimeSeries.from_values(item.series.values)
        return tuple(detect(series) for detect in self._detectors)

    def report(self, item: Item, raw) -> None:
        """Full-window statistic of every returned segment, as ``svp detect`` reports it."""
        for method, seg in zip(self.methods, raw):
            kind = method_test(method, self.n, self.segments).kind
            for a, b in seg.segments():
                svp.validity.segment_statistic(item.series, a, b, kind)

    def check(self, seed: int, item: Item, raw) -> tuple:
        boundaries = [list(seg.boundaries) for seg in raw]
        for method, seg in zip(self.methods, raw):
            if seg.n != self.n:
                return boundaries, f"{method}: segmentation covers {seg.n} of {self.n} points"
            test = method_test(method, self.n, self.segments)
            if not segmentation_is_valid(item.series, seg, test):
                return boundaries, f"{method}: a returned segment fails its validity test"
        return boundaries, pinned_problem(self, seed, item, boundaries)

    def reference_values(self, item: Item) -> np.ndarray:
        return item.series.values


@dataclass(frozen=True)
class DetectCsv:
    """``svp detect`` in-process on a single-column CSV of a change-free series."""

    name: str = "detect-csv"
    rows: int = 200_000
    ref_rows: int = 4000

    def params(self) -> dict:
        return {"scenario": "none", "rows": self.rows, "test": "glr", "gamma_rule": "bic"}

    @property
    def obs_per_item(self) -> int:
        return self.rows

    def scaled(self, factor: int) -> "DetectCsv":
        return replace(self, rows=max(100, self.rows // factor))

    def setup_code(self) -> str:
        return (
            "import math\n"
            "import svp.cli\n"
            "from svp.costs import CostModel\n"
            "from svp.engine import EngineConfig\n"
            "from svp.validity import ValidityTest\n"
            "svp.cli.build_parser().parse_args(\n"
            "    ['detect', '--input', 'series.csv', '--test', 'glr', '--gamma-rule', 'bic'])\n"
            "EngineConfig(cost=CostModel('gaussian'), test=ValidityTest(\n"
            f"    'glr_gaussian_focus', gamma=2.0 * math.log({self.rows}), sticky=True))\n"
        )

    def prepare(self, seed: int, workdir: Path) -> list:
        """One CSV per run: every item parses the same file."""
        series = generate(Scenario(name="none", n=self.rows, seed=item_seed(seed, 0)))
        paths = {
            "input": str(workdir / "series.csv"),
            "out": str(workdir / "detect.json"),
            "manifest": str(workdir / "detect.manifest.json"),
        }
        with open(paths["input"], "w", encoding="utf-8", newline="") as fh:
            fh.write("value\n")
            fh.writelines(f"{v:.17g}\n" for v in series.values)
        return [Item(index=0, series=series, paths=paths)]

    def solve(self, item: Item):
        p = item.paths
        return svp.cli.main([
            "detect", "--input", p["input"], "--test", "glr", "--gamma-rule", "bic",
            "--out", p["out"], "--manifest", p["manifest"],
        ])

    def report(self, item: Item, raw) -> None:
        """``svp detect`` already reports the per-segment statistic itself."""

    def check(self, seed: int, item: Item, raw) -> tuple:
        if raw != 0:
            return [], f"svp detect exited with code {raw}"
        with open(item.paths["out"], encoding="utf-8") as fh:
            payload = json.load(fh)
        with open(item.paths["manifest"], encoding="utf-8") as fh:
            manifest = json.load(fh)
        boundaries = [list(payload["boundaries"])]
        seg = Segmentation(tuple(payload["boundaries"]))
        if seg.n != self.rows:
            return boundaries, f"segmentation covers {seg.n} of {self.rows} rows"
        if manifest["outputs"]["boundaries"] != payload["boundaries"]:
            return boundaries, "manifest boundaries differ from the output file"
        gamma = 2.0 * math.log(self.rows)
        for a, b in seg.segments():
            stat = glr_scan_naive(item.series, a, b)
            if stat > gamma:
                return boundaries, f"segment ({a}, {b}] has full-window GLR {stat} > {gamma}"
        gaussian = CostModel("gaussian")
        q = sum(cost(item.series, a, b, gaussian) for a, b in seg.segments())
        if abs(payload["q"] - q) > 1e-9 * max(1.0, abs(q)):
            return boundaries, f"q = {payload['q']} but the segment costs sum to {q}"
        return boundaries, pinned_problem(self, seed, item, boundaries)

    def reference_values(self, item: Item) -> np.ndarray:
        # PELT does not prune on change-free data, so it is quadratic in n:
        # the comparison runs on a prefix.
        return item.series.values[: self.ref_rows]


WORKLOADS = {
    w.name: w
    for w in (
        # n = 4000 with K = 4 is the size ROADMAP item 2 sets its PELT target at.
        Library("glr-k4", ("svp-glr",), n=4000, noise=Noise()),
        # n = 300 fits about 18 items in a 40 s run; at n = 600 a run held
        # 5 to 7.  Item cost varies by about 25% with the heavy-tailed
        # series, so the pool is large enough that no item repeats in a run.
        Library(
            "rank-t3", ("svp-wilcoxon", "svp-mood"), n=300, noise=Noise("student_t", df=3),
            pool=24,
        ),
        DetectCsv(),
    )
}
