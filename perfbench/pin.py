"""Record the boundaries every workload returns for the default seed.

    python3 perfbench/pin.py

Writes ``expected.json``, which the output check compares against on runs
with the default seed.  Rerun it only when a change is meant to alter the
segmentations; a faster solver must reproduce the pinned record as is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    record = {}
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.WORK)
    try:
        for name, workload in WORKLOADS.items():
            items = []
            for item in workload.prepare(DEFAULT_SEED, Path(workdir)):
                # seed=None skips the comparison with the record being replaced.
                boundaries, problem = workload.check(None, item, workload.solve(item))
                if problem is not None:
                    raise SystemExit(f"{name} item {item.index}: {problem}")
                items.append(boundaries)
            record[name] = {"seed": DEFAULT_SEED, "params": workload.params(), "items": items}
            print(f"{name}: {len(items)} items pinned", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    EXPECTED_PATH.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
