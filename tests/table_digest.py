"""Digest of svp_run's DP tables and statistic traces over a fixed grid.

Usage: python tests/table_digest.py <src-dir>

Imports ``svp`` from ``<src-dir>`` (the ``src`` directory of a checkout),
solves every configuration of the grid below and prints the run count, one
sha256 over each run's table ``r`` (float hex), links ``slink`` and
``stat_trace`` calls, and two more over the same runs: one over the tables
and links alone, one over the traces alone.  Two checkouts that print the
same combined digest give bit-identical tables and traces on the grid,
which is how an engine change is shown to leave the output alone; the split
digests show a change that moves the traces but leaves the tables.  Pytest
does not collect this file.

The grid: scenarios none, up, step and updown; n 120 and 400 with
max(2, n / 40) segments and jump 1.5; offsets 0, 1e4 and 1e6; raw values
and values rounded to halves; gaussian noise (seed 1) and t3 noise
(seed 2); the tests below; costs gaussian, mad and quantile (x = 0.1);
min_seg_len 1 and 4; traced and untraced runs.  That is 6912 runs.
"""

from __future__ import annotations

import hashlib
import sys
from itertools import product
from pathlib import Path

import numpy as np

# (validity kind, gamma or ``svp.bench.resolve_gamma`` rule at a typical
# length of n / K, sticky, lengths it runs at)
TESTS = (
    ("glr_gaussian_focus", "bic", True, (120, 400)),
    ("glr_gaussian_focus", "bic", False, (120,)),
    ("range", 4.0, False, (120, 400)),
    ("range", 4.0, True, (120, 400)),
    ("wilcoxon", "wilcoxon", True, (120, 400)),
    ("mood", "mood:0.01", True, (120, 400)),
    ("wilcoxon", "wilcoxon", False, (120,)),
)
SERIES = tuple(product((120, 400), ("none", "up", "step", "updown"), (("gaussian", 1), ("student_t", 2))))
RUNS = tuple(product((("gaussian", 0.0), ("mad", 0.0), ("quantile", 0.1)), (1, 4), (False, True)))


def main(src_dir: str) -> None:
    sys.path.insert(0, str(Path(src_dir).resolve()))
    from svp import (
        CostModel,
        EngineConfig,
        InfeasiblePartitionError,
        TimeSeries,
        ValidityTest,
        svp_run,
    )
    from svp.bench import Noise, Scenario, generate, resolve_gamma

    digest, tables, traces = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    count = 0
    for n, name, (noise, seed) in SERIES:
        scenario = Scenario(name, n, 1.5, max(2, n // 40), Noise(noise, df=3), seed)
        base = generate(scenario).values
        tests = []
        for kind, rule, sticky, lengths in TESTS:
            if n in lengths:
                gamma = rule if isinstance(rule, float) else resolve_gamma(rule, n, n / scenario.true_k)
                tests.append(ValidityTest(kind, gamma, sticky))
        for offset, rounded in product((0.0, 1e4, 1e6), (False, True)):
            values = np.round(2.0 * base) / 2.0 if rounded else base
            series = TimeSeries.from_values(values + offset)
            for test, ((kind, x), min_seg_len, traced) in product(tests, RUNS):
                config = EngineConfig(CostModel(kind, x), test, min_seg_len)
                calls: list[str] = []

                def trace(s, t, value):
                    calls.append(f"{s},{t},{float(value).hex()}")

                try:
                    table = svp_run(series, config, trace if traced else None).table
                    rows = [f"{float(k).hex()},{q.hex()}" for k, q in table.r]
                    rows.append(",".join(map(str, table.s)))
                except InfeasiblePartitionError:
                    rows = ["infeasible"]
                digest.update("\n".join(rows + calls + [""]).encode())
                tables.update("\n".join(rows + [""]).encode())
                traces.update("\n".join(calls + [""]).encode())
                count += 1
    print(f"runs {count}")
    print(f"sha256 {digest.hexdigest()}")
    print(f"tables sha256 {tables.hexdigest()}")
    print(f"traces sha256 {traces.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    main(sys.argv[1])
