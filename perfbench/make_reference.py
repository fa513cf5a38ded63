"""Regenerate the reference table the correctness check compares against.

    python3 perfbench/make_reference.py

Runs one untraced repetition per workload and seed (seeds 0-9) with the
current sources and writes the generated config and every output CSV to a
fresh ``perfbench/reference.jsonl`` (one line per entry).
A run that raises or fails an invariant is not stored.  Regenerate only when
a workload definition changes, never to absorb a change in the numbers.
"""

from __future__ import annotations

import json
import sys
import time

from run import REFERENCE, ROOT, Runner
from checks import Check, read_csv
from workloads import WORKLOADS


SEEDS = range(10)


def main() -> int:
    entries = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in SEEDS:
            run_dir = ROOT / "perfbench-out" / f"reference-{name}-seed{seed}"
            run_dir.mkdir(parents=True, exist_ok=True)
            runner = Runner(workload, seed, run_dir, time.monotonic() + 600.0)
            rep = runner.repetition(traced=False)
            check = Check(run_dir / "out", runner.config, None)
            if rep["error"] or check.failed:
                print(f"{name} seed {seed}: not stored: {rep['error']} {check.failures()}")
                return 1
            files = {}
            for fname in check.expected:
                header, rows = read_csv(run_dir / "out" / fname)
                files[fname] = {"header": header, "rows": rows}
            entries.append({
                "workload": name, "seed": seed, "config": runner.config, "files": files,
            })
            print(f"{name} seed {seed}: stored ({rep['wall_s']:.1f} s)", flush=True)

    REFERENCE.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
