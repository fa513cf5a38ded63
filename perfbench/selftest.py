"""Self-test of the benchmark's correctness check and tracer.

    python3 perfbench/selftest.py

* The check passes a correct output of squeeze-products seed 0, fails
  exactly one row when any one value is perturbed by 1e-6 relative, and
  fails every row of a product whose file is missing.  In the columns
  with an absolute floor, the values checks.py exempts as round-off (at
  most 1e-7 times the column's largest) are skipped and counted.
* The tracer refuses to install when a target no longer exists, leaving
  every other target unwrapped.
* On squeeze-products the quadrature calls per time point of a traced
  repetition match the baseline in ROADMAP.md: 24 in oscillator_dynamics
  (covariances) and 15 in energy_fdr (fluxes).  That counts repeat
  exactly between traced repetitions is checked by every traced run of
  run.py.

Exits 0 when every test passes.
"""

from __future__ import annotations

import shutil
import sys
import time

from checks import ZERO_CROSSING, Check, load_reference, read_csv
from run import REFERENCE, ROOT, Runner
from tracing import TARGETS, Tracer, TraceTargetMissing
from workloads import WORKLOADS

WORKLOAD, SEED = "squeeze-products", 0
PERTURBATION = 1e-6
# share of a zero-crossing column's largest |value| below which checks.py
# does not promise to catch the perturbation
DETECTION_LIMIT = 1e-7
BASELINE = {
    "oscillator_dynamics.quad_calls_per_point": 24,
    "energy_fdr.quad_calls_per_point": 15,
}


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(f"{v:.16e}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_check(out, config, reference, scratch) -> tuple[list[str], int, int]:
    """Errors, values perturbed and values skipped below a floor."""
    errors = []
    perturbed_values = skipped = 0
    check = Check(out, config, reference)
    if check.failed:
        errors.append(f"correct output failed the check: {check.failures()[:5]}")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(out, scratch)
    for fname, n_rows in check.expected.items():
        original = (out / fname).read_bytes()
        (scratch / fname).unlink()
        failed = Check(scratch, config, reference).failed
        if failed != n_rows:
            errors.append(f"missing {fname}: {failed} rows failed, expected {n_rows}")

        header, rows = read_csv(out / fname)
        for j, column in enumerate(header):
            largest = max(abs(row[j]) for row in rows)
            limit = DETECTION_LIMIT * largest if column in ZERO_CROSSING else 0.0
            for i, row in enumerate(rows):
                if row[j] == 0.0:
                    continue
                if abs(row[j]) <= limit:
                    skipped += 1
                    continue
                perturbed = [list(r) for r in rows]
                perturbed[i][j] *= 1.0 + PERTURBATION
                write_csv(scratch / fname, header, perturbed)
                failed = Check(scratch, config, reference).failed
                perturbed_values += 1
                if failed != 1:
                    errors.append(
                        f"{fname} {column} row {i} * (1 + {PERTURBATION:g}): "
                        f"{failed} rows failed, expected 1"
                    )
        (scratch / fname).write_bytes(original)
    return errors, perturbed_values, skipped


def test_missing_target() -> list[str]:
    sys.path.insert(0, str(ROOT / "src"))
    import sqbath.cli

    original = sqbath.cli.run
    tracer = Tracer(TARGETS + (("quadrature", "sqbath.quadrature", "no_such_rule", "quad"),))
    try:
        tracer.install()
    except TraceTargetMissing:
        if sqbath.cli.run is not original:
            return ["a failed install left sqbath.cli.run wrapped"]
        return []
    tracer.uninstall()
    return ["install did not raise for a missing target"]


def test_baseline(rep) -> list[str]:
    return [
        f"{name} = {rep['layers'][name]}, ROADMAP baseline {expected}"
        for name, expected in BASELINE.items()
        if rep["layers"][name] != expected
    ]


def main() -> int:
    run_dir = ROOT / "perfbench-out" / "selftest"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(WORKLOADS[WORKLOAD], SEED, run_dir, time.monotonic() + 600.0)
    reference = load_reference(REFERENCE, WORKLOAD, SEED, runner.config)
    if reference is None:
        print(f"no stored reference for {WORKLOAD} seed {SEED}")
        return 1

    rep = runner.repetition(traced=True)
    check_errors, perturbed, skipped = test_check(
        run_dir / "out", runner.config, reference, run_dir / "mutated"
    )
    print(f"check: {perturbed} values perturbed one at a time, {skipped} below a floor skipped")
    results = {
        "check": check_errors,
        "missing trace target": test_missing_target(),
        "ROADMAP baseline": test_baseline(rep),
    }
    for name, errors in results.items():
        print(f"{'PASS' if not errors else 'FAIL'} {name}")
        for error in errors:
            print(f"  {error}")
    return 0 if not any(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
