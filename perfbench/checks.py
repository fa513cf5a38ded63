"""Correctness check of one run's output directory.

Every data row the config asks for is attempted; a row fails when its file
or the row is missing (its product or sweep point raised), when a value is
not finite, when it deviates from the stored reference, or when it breaks
a physical invariant:

* reference: ``|value - ref| <= RTOL * max(|ref|, floor)``, where the floor
  is 0 except for the columns in ``ZERO_CROSSING``, whose floor is
  ``FLOOR`` times the largest ``|ref|`` of the column.  There a deviation
  of ``RTOL * FLOOR`` (1e-13) times that largest value is always accepted:
  values that small are round-off of terms of the column's size.  A 1e-6
  relative change is caught for every value above 1e-7 times the
  column's largest;
* covariances: ``xx pp - xp^2 >= 1/4`` (to the package's 1e-9 slack);
* fluxes: where the manifest sets ``late_time_ok``, its
  ``balance_residual`` stays within the acceptance-suite bound (the last
  row fails otherwise);
* fdr: each row's ``|hadamard - dissipation| / max(|hadamard|,
  |dissipation|)`` and the manifest's ``max_rel_deviation`` stay within the
  acceptance-suite bound.

Seeds without a stored reference get the invariant checks only.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import expected_rows

RTOL = 1e-7
FLOOR = 1e-6
ZERO_CROSSING = {"xp", "nonstationary", "I_NS", "theta", "sin_theta", "theta_k"}
ANGLES = {"theta", "theta_k"}
UNCERTAINTY_SLACK = 1e-9
# tests/test_acceptance.py, criteria 2 and 3
BALANCE_BOUND = {"constant_squeeze": 1e-3, "parametric": 1e-2}
FDR_BOUND = {"constant_squeeze": 1e-10, "parametric": 1e-6}


def read_csv(path: Path):
    """(header, rows of floats), or None when the file is missing or malformed."""
    try:
        with open(path, newline="") as handle:
            lines = list(csv.reader(handle))
        return lines[0], [[float(v) for v in row] for row in lines[1:]]
    except (OSError, IndexError, ValueError):
        return None


def _rel_err(value: float, ref: float, floor: float, angle: bool) -> float:
    diff = value - ref
    if angle:
        diff = (diff + math.pi) % (2.0 * math.pi) - math.pi
    scale = max(abs(ref), floor)
    if diff == 0.0:
        return 0.0
    return abs(diff) / scale if scale > 0.0 else math.inf


class Check:
    """Row-level verdicts for one output directory."""

    def __init__(self, out_dir: Path, config: dict, reference: dict | None):
        self.out_dir = Path(out_dir)
        self.config = config
        self.reference = reference
        self.expected = expected_rows(config)
        self.bad: dict[str, dict[int, str]] = {name: {} for name in self.expected}
        self.max_rel_err = 0.0
        self.rows = 0  # data rows read from the expected files
        self._run()

    @property
    def attempted(self) -> int:
        return sum(self.expected.values())

    @property
    def failed(self) -> int:
        return sum(len(rows) for rows in self.bad.values())

    def failures(self) -> list[str]:
        return [
            f"{name} row {i}: {why}"
            for name, rows in self.bad.items()
            for i, why in sorted(rows.items())
        ]

    def _fail(self, name: str, row: int, why: str) -> None:
        self.bad[name].setdefault(row, why)

    def _run(self) -> None:
        try:
            manifest = json.loads((self.out_dir / "run_manifest.json").read_text())
        except (OSError, ValueError):
            manifest = {}
        params = {p["file"]: p.get("params", {}) for p in manifest.get("products", [])}
        scenario = self.config["scenario"]

        for name, n_rows in self.expected.items():
            data = read_csv(self.out_dir / name)
            if data is None:
                for i in range(n_rows):
                    self._fail(name, i, "file missing or malformed")
                continue
            header, rows = data
            self.rows += len(rows)
            for i in range(len(rows), n_rows):
                self._fail(name, i, "row missing")
            rows = rows[:n_rows]
            for i, row in enumerate(rows):
                if len(row) != len(header) or not all(map(math.isfinite, row)):
                    self._fail(name, i, "wrong width or not finite")
            if self.reference is not None:
                self._compare(name, header, rows, self.reference["files"][name])
            self._invariants(name, header, rows, params.get(name, {}), scenario)

    def _compare(self, name, header, rows, ref) -> None:
        if header != ref["header"]:
            for i in range(len(rows)):
                self._fail(name, i, f"header {header} != reference {ref['header']}")
            return
        floors = [
            FLOOR * max((abs(r[j]) for r in ref["rows"]), default=0.0)
            if col in ZERO_CROSSING else 0.0
            for j, col in enumerate(header)
        ]
        for i, (row, ref_row) in enumerate(zip(rows, ref["rows"])):
            for j, (value, expected) in enumerate(zip(row, ref_row)):
                err = _rel_err(value, expected, floors[j], header[j] in ANGLES)
                self.max_rel_err = max(self.max_rel_err, err)
                if err > RTOL:
                    self._fail(
                        name, i, f"{header[j]} = {value!r}, reference {expected!r} "
                        f"(rel err {err:.2e} > {RTOL:g})"
                    )

    def _invariants(self, name, header, rows, params, scenario) -> None:
        col = {c: j for j, c in enumerate(header)}
        if {"xx", "pp", "xp"} <= col.keys():
            for i, row in enumerate(rows):
                det = row[col["xx"]] * row[col["pp"]] - row[col["xp"]] ** 2
                if not det >= 0.25 - UNCERTAINTY_SLACK:
                    self._fail(name, i, f"xx pp - xp^2 = {det!r} < 1/4")
        if name == "fluxes.csv" and params.get("late_time_ok") and rows:
            residual = params.get("balance_residual", math.inf)
            if not residual <= BALANCE_BOUND[scenario]:
                self._fail(
                    name, len(rows) - 1,
                    f"balance residual {residual:.3e} > {BALANCE_BOUND[scenario]:g}",
                )
        if name == "fdr.csv":
            bound = FDR_BOUND[scenario]
            h, d = col["hadamard_side"], col["dissipation_side"]
            for i, row in enumerate(rows):
                scale = max(abs(row[h]), abs(row[d]))
                dev = abs(row[h] - row[d]) / scale if scale > 0 else 0.0
                if not dev <= bound:
                    self._fail(name, i, f"FDR deviation {dev:.3e} > {bound:g}")
            reported = params.get("max_rel_deviation", math.inf)
            if not reported <= bound and rows:
                self._fail(name, 0, f"manifest max_rel_deviation {reported:.3e} > {bound:g}")


def load_reference(path: Path, workload: str, seed: int, config: dict) -> dict | None:
    """The stored reference for (workload, seed), or None when there is none.

    ``path`` holds one JSON object per line with the keys ``workload``,
    ``seed``, ``config`` and ``files``.  A reference generated from another
    config is stale: raise, so that a change to the workload definition
    cannot pass against old numbers.
    """
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        if entry["workload"] != workload or entry["seed"] != seed:
            continue
        if entry["config"] != config:
            raise ValueError(
                f"reference for {workload} seed {seed} was generated from another "
                "config; regenerate it with perfbench/make_reference.py"
            )
        return entry
    return None
