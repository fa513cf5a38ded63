"""Compare the outputs of two source trees of sqbath, file by file.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--workload-seeds N] [--max-rel R]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The script runs ``configs/*.yaml`` of this checkout (``sqbath run``,
``sqbath sweep`` too for ``constant_squeeze.yaml`` and only ``sqbath
sweep``, serial and with ``--threads 2``, for ``finite_coupling.yaml``)
and the figure presets 4, 6, 7, grn3d and tan2eta, and ten small
generated configs (parametric: a smoothstep and a step ramp from
``mass_i`` 0.2 to ``mass_f`` 0.5, a constant mass 0.3, the smoothstep
ramp at zero temperature, the smoothstep ramp over t 1 to 3 instead of
0 to 2, and the smoothstep ramp swept over two gamma,
over two ``mass_f`` and over two beta with ``sqbath sweep``; a
constant squeeze at ``bath.beta: inf`` whose ``fdr_grid`` passes
through 0; and a finite-coupling sweep over the range ``oscillator.gamma``
0.03 to 0.3, 3 log-spaced steps) that reach the paths no other run does:
the cusp-head split above a mass threshold, the massive kappa,
``chi_hadamard`` on a squeeze-spectrum bath, a ramp that starts after
t = 0, the beta = inf branch of the massive measure, several responses
reading one spectrum bath, one spectrum per sweep point of a changing
ramp, one spectrum shared by baths of different beta, ``fdr`` of a
massless bath at beta = inf, w = 0 included, and the
start/stop/steps/spacing form of a sweep.
Four more generated configs must fail: a k grid that stops at 1
(refused, exit 2), ``quadrature.max_subdivisions: 10`` (exit 3), a
constant squeeze at ``bath.eta: 355`` (beta 0.3, cutoff 200, t 5-20),
whose weighted kernel overflows (exit 3), and that constant squeeze's
covariances swept over ``bath.eta: [1.0, 355.0]`` (exit 3, the eta = 1
point written and the eta = 355 point in ``sweep_failures``); for these
the two trees' exit codes and the names of the files left under
``--out`` are compared, then their stderr (the ``configuration error:``
or ``numerical error:`` line must be identical, the values of the
``diagnostics:`` JSON line are compared as manifest values are), and
then the files by content as for any run.
Every run is made once with each tree's package, in its
own Python subprocess.  ``--workload-seeds N`` adds the configs that
``perfbench/workloads.py`` of this checkout generates for seeds 0..N-1 of
each workload, run through the workload's own entry point.  For every
CSV it prints whether the two files are byte-identical and, if not, the
largest |difference| of a column divided by that column's largest
|value| in the PARENT_SRC run.  For ``run_manifest.json`` it prints how
many values are identical and each value that is not; ``wall_time_s`` is
not compared.

Exit status: 0 if every file and value is identical, 1 if any differs,
2 if a run fails in either tree (or one that must fail succeeds in both).
With ``--max-rel R`` a difference is tolerated, and the exit status is 0,
when every differing CSV column is within R times that column's largest
|value| in the PARENT_SRC run, every differing manifest or diagnostics
number is within R times the larger of 1 and its PARENT_SRC value, and a
product's ``sha256`` differs only where its CSV differs; a differing
string, count, flag or error line still fails.  The manifest's computed
numbers are ratios already scaled by their product's columns
(``balance_residual`` is |P_xi + P_gamma| / |P_gamma|), so a change of R
in the columns moves them by about R, not by R of their own, often
tiny, value.
"""

from __future__ import annotations

import argparse
import copy
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parents[1]
COMMANDS = {
    "constant_squeeze": (("run",), ("sweep",)),
    "finite_coupling": (("sweep",), ("sweep", "--threads", "2")),
}
PRESETS = ("4", "6", "7", "grn3d", "tan2eta")
SKIPPED_KEYS = ("wall_time_s",)

# a massive parametric bath with every product an unfactored run computes
MASSIVE_RAMP = {
    "scenario": "parametric",
    "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.1},
    "bath": {"beta": 1.0},
    "profile": {"mass_i": 0.2, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0, "shape": "smoothstep"},
    "k_grid": {"start": 0.05, "stop": 60.0, "points": 16, "spacing": "log"},
    "quadrature": {"cutoff": 100.0},
    "time_grid": {"start": 10.0, "stop": 20.0, "points": 2},
    "fdr_grid": {"start": -3.0, "stop": 3.0, "points": 31},
    "hadamard_grid": {"start": 10.0, "stop": 12.0, "points": 2},
    "outputs": ["covariances", "fluxes", "fdr", "hadamard_surface"],
}
# label: changes to MASSIVE_RAMP, section by section (a new section is
# added, a section set to None removed, a top-level value replaced); a
# config with a sweep section runs with ``sqbath sweep``
GENERATED = {
    "massive-smoothstep": {},
    "massive-step": {"profile": {"shape": "step"}},
    "massive-constant-mass": {"profile": {"mass_i": 0.3, "mass_f": 0.3}},
    "massive-zero-temperature": {"bath": {"beta": float("inf")}},
    "massive-late-start": {"profile": {"t_i": 1.0, "t_f": 3.0}},
    "massive-gamma-sweep": {"sweep": {"path": "oscillator.gamma", "values": [0.1, 0.05]}},
    "massive-mass-sweep": {"sweep": {"path": "profile.mass_f", "values": [0.4, 0.5]}},
    "massive-beta-sweep": {"sweep": {"path": "bath.beta", "values": [1.0, 2.0]}},
    "massless-zero-temperature-fdr": {
        "scenario": "constant_squeeze",
        "profile": None,
        "k_grid": None,
        "bath": {"beta": float("inf"), "eta": 1.0},
    },
    "finite-coupling-gamma-range": {
        "scenario": "finite_coupling",
        "profile": None,
        "k_grid": None,
        "fdr_grid": None,
        "hadamard_grid": None,
        "time_grid": {"start": 0.5, "stop": 5.0, "points": 3},
        "outputs": ["covariances", "squeeze_trajectory"],
        "sweep": {"path": "oscillator.gamma", "start": 0.03, "stop": 0.3, "steps": 3,
                  "spacing": "log"},
    },
}
# the same for runs that must fail, exit 2 and exit 3
FAILING = {
    "unresolved-k-grid": {"k_grid": {"stop": 1.0}},
    "subdivision-limit": {"quadrature": {"max_subdivisions": 10}},
    "overflowing-squeeze": {
        "scenario": "constant_squeeze",
        "profile": None,
        "k_grid": None,
        "bath": {"beta": 0.3, "eta": 355.0},
        "quadrature": {"cutoff": 200.0},
        "time_grid": {"start": 5.0, "stop": 20.0, "points": 4},
    },
}
# the constant squeeze above swept over a good and an overflowing eta
FAILING["overflowing-squeeze-sweep"] = {
    **FAILING["overflowing-squeeze"],
    "outputs": ["covariances"],
    "sweep": {"path": "bath.eta", "values": [1.0, 355.0]},
}

_ENTRY = "import sys; from sqbath.cli import main; sys.exit(main(sys.argv[1:]))"


def default_runs() -> list[tuple[str, list[str]]]:
    """(label, sqbath arguments without --out) for every compared run."""
    runs = []
    for path in sorted((REPO / "configs").glob("*.yaml")):
        for command in COMMANDS.get(path.stem, (("run",),)):
            label = "-".join([path.stem, *(word.lstrip("-") for word in command)])
            runs.append((label, [*command, "--config", str(path)]))
    runs += [(f"preset-{name}", ["run", "--figure", name]) for name in PRESETS]
    return runs


def generated_runs(config_dir: Path, generated: dict) -> list[tuple[str, list[str]]]:
    """(label, sqbath arguments) for the ``generated`` configs (GENERATED
    or FAILING), which are written to ``config_dir``."""
    runs = []
    for label, changes in generated.items():
        data = copy.deepcopy(MASSIVE_RAMP)
        for key, value in changes.items():
            if isinstance(value, dict):
                value = {**data.get(key, {}), **value}
            data[key] = value
        path = config_dir / f"{label}.yaml"
        path.write_text(yaml.safe_dump(data))
        runs.append((label, ["sweep" if "sweep" in data else "run", "--config", str(path)]))
    return runs


def workload_runs(seeds: int, config_dir: Path) -> list[tuple[str, list[str]]]:
    """(label, sqbath arguments) for seeds 0..seeds-1 of every benchmark
    workload; the generated configs are written to ``config_dir``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    runs = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in range(seeds):
            label = f"{name}-seed{seed}"
            path = config_dir / f"{label}.yaml"
            path.write_text(yaml.safe_dump(workload.make_config(seed)))
            runs.append((label, [workload.entry, "--config", str(path)]))
    return runs


def run_tree(src: Path, args: list[str], out: Path) -> subprocess.CompletedProcess:
    """Run ``sqbath`` with the package of ``src`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", _ENTRY, *args, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )


def _read_csv(path: Path):
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, [[float(v) for v in row] for row in rows]


def _gap(x: float, y: float) -> float:
    """|x - y|: 0 for equal values and for two nans, inf for one nan."""
    if x == y or (x != x and y != y):
        return 0.0
    gap = abs(x - y)
    return gap if gap == gap else math.inf


def _relative(gap: float, scale: float) -> float:
    """gap over scale (gap itself at scale 0), inf where that is nan."""
    rel = gap / scale if gap and scale else gap
    return rel if rel == rel else math.inf


def compare_csv(parent: Path, change: Path) -> tuple[float | None, str]:
    """(largest relative difference, one-line verdict) for two CSV files:
    None for byte-identical files, inf for a differing header or shape."""
    if parent.read_bytes() == change.read_bytes():
        return None, "byte-identical"
    head_a, rows_a = _read_csv(parent)
    head_b, rows_b = _read_csv(change)
    if head_a != head_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf, f"DIFFERS in header or shape ({len(rows_a)} vs {len(rows_b)} rows)"
    ratios = []
    for j, name in enumerate(head_a):
        scale = max((abs(row[j]) for row in rows_a if row[j] == row[j]), default=0.0)
        delta = max((_gap(a[j], b[j]) for a, b in zip(rows_a, rows_b)), default=0.0)
        ratios.append((_relative(delta, scale), name))
    worst, where = max(ratios)
    return worst, f"DIFFERS: max |d|/max|value| = {worst:.3e} (column {where})"


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            if key not in SKIPPED_KEYS:
                yield from _flatten(item, f"{prefix}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, value


def compare_json(
    name: str, parent, change, changed_csvs: set[str] | frozenset[str] = frozenset()
) -> tuple[float | None, list[str]]:
    """(largest relative difference, report lines) for two parsed JSON
    documents ``name``, a run manifest or the diagnostics of a failure:
    None if every value is identical, inf if a value differs that no
    tolerance covers.  A product's ``sha256`` counts as 0 where its file
    is in ``changed_csvs``, the CSVs that differ, which are judged on
    their own."""
    a, b = dict(_flatten(parent)), dict(_flatten(change))
    lines, same, worst = [], 0, None
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key, "<missing>"), b.get(key, "<missing>")
        if json.dumps(va) == json.dumps(vb):
            same += 1
            continue
        if isinstance(va, float) and isinstance(vb, float):
            rel = _relative(_gap(va, vb), max(abs(va), 1.0))
            lines.append(f"    DIFFERS {key}: {va!r} -> {vb!r} (|d|/max(1, |value|) = {rel:.3e})")
        else:
            own_file = a.get(key.removesuffix("sha256") + "file")
            rel = 0.0 if key.endswith("/sha256") and own_file in changed_csvs else math.inf
            lines.append(f"    DIFFERS {key}: {va!r} -> {vb!r}")
        worst = rel if worst is None else max(worst, rel)
    header = f"  {name}: {same} values identical, {len(lines)} differ"
    return worst, [header, *lines]


_ERROR_LINES = ("configuration error: ", "numerical error: ")
_DIAGNOSTICS = "diagnostics: "


def compare_stderr(parent: str, change: str) -> tuple[float | None, list[str]]:
    """(largest relative difference, report lines) for the stderr of two
    runs that must fail: inf if their error lines differ, else the
    comparison of the values of their ``diagnostics:`` JSON lines (an
    empty document where a run prints none)."""
    found = []
    for text in (parent, change):
        lines = text.splitlines()
        errors = [line for line in lines if line.startswith(_ERROR_LINES)]
        diagnostics = [line.removeprefix(_DIAGNOSTICS) for line in lines
                       if line.startswith(_DIAGNOSTICS)]
        found.append((errors, json.loads(diagnostics[0]) if diagnostics else {}))
    (errors_a, diagnostics_a), (errors_b, diagnostics_b) = found
    if errors_a != errors_b:
        return math.inf, ["  error line DIFFERS", f"    parent: {errors_a}",
                          f"    change: {errors_b}"]
    return compare_json("diagnostics", diagnostics_a, diagnostics_b)


def leftovers(code: int, out: Path) -> str:
    """The exit code of a run and the files it left under ``out``."""
    left = sorted(p.name for p in out.iterdir()) if out.exists() else "no --out"
    return f"exit {code}, {left}"


def compare_dirs(parent: Path, change: Path) -> tuple[float | None, list[str]]:
    """(largest relative difference, report lines) for the output
    directories of one run: None if identical, inf if a difference has no
    relative size (a missing file, a string)."""
    found, lines, changed_csvs, manifest = [], [], set(), None
    files = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    for name in files:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            found.append(math.inf)
            lines.append(f"  {name}: only in {'PARENT' if a.exists() else 'CHANGE'}")
        elif name.endswith(".csv"):
            rel, verdict = compare_csv(a, b)
            found.append(rel)
            if rel is not None:
                changed_csvs.add(name)
            lines.append(f"  {name}: {verdict}")
        elif name == "run_manifest.json":
            manifest = a, b
    if manifest is not None:
        documents = (json.loads(path.read_text()) for path in manifest)
        rel, manifest_lines = compare_json("run_manifest.json", *documents, changed_csvs)
        found.append(rel)
        lines += manifest_lines
    differing = [rel for rel in found if rel is not None]
    return (max(differing) if differing else None), lines


def report(label: str, worst: float | None, lines: list[str], max_rel: float | None) -> bool:
    """Print the verdict and report lines of one comparison; True if its
    differences are tolerated."""
    tolerated = worst is None or (max_rel is not None and worst <= max_rel)
    if worst is None:
        print(f"{label}: identical")
    else:
        within = "within" if tolerated else "NOT within"
        print(f"{label}: DIFFERS, largest {worst:.3e}, {within} --max-rel")
    print("\n".join(lines))
    return tolerated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument(
        "--workload-seeds",
        type=int,
        default=0,
        metavar="N",
        help="also compare seeds 0..N-1 of every perfbench workload",
    )
    parser.add_argument(
        "--max-rel",
        type=float,
        metavar="R",
        help="tolerate differences up to R times the parent's column maximum "
        "(CSV) or value (manifest, diagnostics); without it every file must be "
        "identical",
    )
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory(prefix="sqbath-compare-") as tmp:
        runs = (
            default_runs()
            + generated_runs(Path(tmp), GENERATED)
            + generated_runs(Path(tmp), FAILING)
            + workload_runs(args.workload_seeds, Path(tmp))
        )
        for label, sqbath_args in runs:
            outs, codes, errs, failed = [], [], [], False
            for tag, src in (("parent", args.parent_src), ("change", args.change_src)):
                out = Path(tmp) / label / tag
                done = run_tree(src.resolve(), sqbath_args, out)
                if done.returncode != 0 and label not in FAILING:
                    print(f"{label}: {tag} run exited {done.returncode}\n{done.stderr}")
                    failed = True
                outs.append(out)
                codes.append(done.returncode)
                errs.append(done.stderr)
            if label in FAILING:
                states = [leftovers(code, out) for code, out in zip(codes, outs)]
                same = states[0] == states[1]
                print(f"{label}: exit code and file names {'identical' if same else 'DIFFER'}")
                print(f"  parent: {states[0]}\n  change: {states[1]}")
                if not same:
                    status = max(status, 1)
                    continue
                if codes[0] == 0:
                    print(f"{label}: the run must fail but exited 0 in both trees")
                    status = 2
                    continue
                if not report(f"{label} stderr", *compare_stderr(*errs), args.max_rel):
                    status = max(status, 1)
                if not outs[0].exists():
                    continue
                # a failed sweep leaves its good points and its failure records
            elif failed:
                status = 2
                continue
            if not report(label, *compare_dirs(*outs), args.max_rel):
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
