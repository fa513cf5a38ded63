"""sqbath benchmark: seeded batch workloads run through the CLI entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing).  The seed draws the workload's physical
parameters (see ``workloads.py``); sqbath only ever sees the generated
config.  Each repetition is a fresh interpreter that loads and validates the
config and calls ``sqbath.cli.run`` or ``sqbath.cli.run_sweep``, because a
user pays the interpreter start on every CLI call.  Repetitions run one at a
time, single-threaded (BLAS thread variables set to 1), until the next one
would end more than half a repetition after ``--seconds``; every
repetition's output is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics, medians over the repetitions:

    wall_s       wall time of the run / run_sweep call, CSV and manifest
                 writing included
    cpu_s        user + system CPU time of that call
    setup_s      fresh interpreter to a validated RunConfig (imports and
                 parse_config)
    peak_rss_mb  peak resident memory of the repetition's process
    ok_frac      output rows that passed the check / rows attempted
                 (1 - fail_frac; the summary lists every failed row)

The three times are in reference-host seconds: the median over the
repetitions of each repetition's measured time divided by the host's
slowdown during its call (the CPU time by the CPU-time slowdown; the set-up
time by the slowdown during the call that follows it).  A shared
host runs a process up to twofold slower, in stretches from under a
second to many minutes, whole runs included, so measured seconds of the
same code differ between runs by more than the changes the benchmark has
to catch.  Each repetition therefore times a small fixed probe every 0.15 s
during its call and takes the mean probe time over a reference time as
the host's slowdown (``calibrate.py``); the probes' own time is taken out
of the call's.  The summary also prints the measured medians and the
slowdown, and the result file keeps every repetition's measured times and
slowdown.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``tracing.py`` (medians of the traced repetitions, in
measured seconds) and ``trace.overhead_s``, the traced minus the untraced
median wall time in reference-host seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The human-readable
summary above it, and ``perfbench-out/<workload>-seed<N>-trace<T>/result.json``
(with the environment: Python, numpy and scipy versions, BLAS, thread
settings, nproc, seed and generated config), carry the sample count, every
repetition's numbers and the failed rows.  The traced run also writes the
spans of its last traced repetition to ``spans.json`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Check, load_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
REFERENCE = HERE / "reference.jsonl"
TIME_LIMIT_S = 170.0  # the whole invocation, warm-up and checks included

# Metric names and units declared in BENCHMARK.json, by --trace value.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    trace: {m["name"]: m["unit"] for m in _DECLARED[section]}
    for trace, section in ((0, "end_to_end"), (1, "per_layer"))
}
COUNT_UNITS = {"count", "evals/call", "calls/point"}


class Runner:
    def __init__(self, workload, seed: int, run_dir: Path, deadline: float):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = deadline
        self.config = workload.make_config(seed)
        self.config_path = run_dir / "config.yaml"
        # JSON is valid YAML; sqbath reads it like any config file
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def _child(self, extra: list[str], record: Path) -> dict:
        cmd = [
            sys.executable, str(HERE / "repetition.py"),
            "--src", str(ROOT / "src"), "--record", str(record), *extra,
        ]
        started = time.monotonic()
        proc = subprocess.run(
            cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(self.deadline - started, 1.0),
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"repetition failed with exit code {proc.returncode}:\n{proc.stderr}"
            )
        data = json.loads(record.read_text())
        data["spawned"] = started
        data["process_s"] = time.monotonic() - started
        return data

    def environment(self) -> dict:
        """Untimed warm-up process that reports the software environment."""
        return self._child(["--info"], self.run_dir / "environment.json")

    def repetition(self, traced: bool) -> dict:
        out = self.run_dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        extra = [
            "--config", str(self.config_path), "--out", str(out),
            "--entry", self.workload.entry,
        ] + (["--trace"] if traced else [])
        rep = self._child(extra, self.run_dir / "repetition.json")
        rep["setup_s"] = rep.pop("config_ready") - rep["spawned"]
        rep["traced"] = traced
        return rep


def reference_median(reps: list[dict], name: str) -> float:
    """Median of a time over repetitions, in reference-host seconds."""
    clock = "cpu" if name == "cpu_s" else "wall"
    return statistics.median(r[name] / r["slowdown"][clock] for r in reps)


def output_bytes(out: Path) -> int:
    """Bytes of every file in an output directory."""
    return sum(path.stat().st_size for path in out.iterdir())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # turn SIGTERM into an exception, so that subprocess.run kills and reaps
    # the running repetition before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "sqbath" / "__init__.py").is_file():
        print(f"no sqbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / "perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, args.seed, run_dir, started + TIME_LIMIT_S)
    reference = load_reference(REFERENCE, args.workload, args.seed, runner.config)

    try:
        environment = runner.environment()
        reps, checks = [], []
        window_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = runner.repetition(traced)
            check = Check(run_dir / "out", runner.config, reference)
            if traced:
                layers = rep["layers"]
                layers["cli.rows"] = check.rows
                layers["cli.bytes_written"] = output_bytes(run_dir / "out")
                layers["cli.max_rel_err"] = check.max_rel_err if reference is not None else -1.0
                (run_dir / "spans.json").write_text(json.dumps(rep.pop("spans")))
            reps.append(rep)
            checks.append(check)
            # stop when the next repetition would end closer to the window's
            # end beyond it than before it, so runs last --seconds on average
            typical = statistics.median(r["process_s"] for r in reps)
            enough = len(reps) >= (2 if args.trace else 1)
            if enough and time.monotonic() + typical / 2 > window_start + args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = [f"repetition {i}: {r['error']}" for i, r in enumerate(reps) if r["error"]]
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    if args.trace:
        values = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
        for name, vals in values.items():
            if UNITS[1][name] in COUNT_UNITS and len(set(vals)) > 1:
                problems.append(f"count {name} differs between traced repetitions: {vals}")
        metrics = {
            name: vals[0] if UNITS[1][name] in COUNT_UNITS else statistics.median(vals)
            for name, vals in values.items()
        }
        metrics["trace.overhead_s"] = reference_median(traced, "wall_s") - reference_median(
            untraced, "wall_s"
        )
    else:
        metrics = {name: reference_median(reps, name) for name in ("wall_s", "cpu_s", "setup_s")}
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in reps)
        metrics["ok_frac"] = 1.0 - failed / attempted
    units = UNITS[args.trace]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    correct = failed == 0 and not problems

    result = {
        "workload": args.workload,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "config": runner.config,
        "environment": environment,
        "reference": reference is not None,
        "samples": len(untraced),
        "repetitions": reps,
        "attempted": attempted,
        "failed": failed,
        "failed_rows": sorted({f for c in checks for f in c.failures()}),
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print_summary(result, untraced)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def print_summary(result: dict, untraced: list[dict]) -> None:
    env = result["environment"]
    print(
        f"sqbath benchmark: {result['workload']} seed {result['seed']} "
        f"trace {result['trace']}; python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']['name']} {env['blas']['version']}, "
        f"nproc {env['nproc']}, threads {env['thread_env']}"
    )
    print(
        "check: stored reference and invariants" if result["reference"]
        else f"check: no stored reference for seed {result['seed']}: invariant checks only"
    )
    measured = {
        name: statistics.median(r[name] for r in untraced)
        for name in ("wall_s", "cpu_s", "setup_s")
    }
    slowdown = statistics.median(r["slowdown"]["wall"] for r in untraced)
    print(
        f"{len(untraced)} samples; measured medians wall_s {measured['wall_s']:.4f} s, "
        f"cpu_s {measured['cpu_s']:.4f} s, setup_s {measured['setup_s']:.4f} s; "
        f"host slowdown {slowdown:.3f}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:38s} {metric['value']:.6g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"fail_frac {result['failed']}/{result['attempted']} rows = {frac:.4g}")
    for line in result["failed_rows"] + result["problems"]:
        print(f"  FAILED {line}")


if __name__ == "__main__":
    sys.exit(main())
