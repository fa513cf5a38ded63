"""Compare the outputs of two source trees of sqbath, file by file.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--workload-seeds N]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
The script runs ``configs/*.yaml`` of this checkout (``sqbath run``,
``sqbath sweep`` too for ``constant_squeeze.yaml`` and only ``sqbath
sweep``, serial and with ``--threads 2``, for ``finite_coupling.yaml``)
and the figure presets 4, 6, 7, grn3d and tan2eta, and seven small
generated parametric configs (a smoothstep and a step ramp from
``mass_i`` 0.2 to ``mass_f`` 0.5, a constant mass 0.3, the smoothstep
ramp at zero temperature, and the smoothstep ramp swept over two gamma,
over two ``mass_f`` and over two beta with ``sqbath sweep``) that reach
the paths no other run does: the cusp-head split above a mass
threshold, the massive kappa, ``chi_hadamard`` on a squeeze-spectrum
bath, the beta = inf branch of ``coth_half_beta``, several responses
reading one spectrum bath, one spectrum per sweep point of a changing
ramp and one spectrum shared by baths of different beta.  Two more
generated configs must fail: a k grid that stops at 1 (refused, exit 2)
and ``quadrature.max_subdivisions: 10`` (exit 3); for these the two
trees' exit codes and the files left under ``--out`` are compared.
Every run is made once with each tree's package, in its own Python
subprocess.  ``--workload-seeds N`` adds the configs that
``perfbench/workloads.py`` of this checkout generates for seeds 0..N-1 of
each workload, run through the workload's own entry point.  For every
CSV it prints whether the two files are byte-identical and, if not, the
largest |difference| of a column divided by that column's largest
|value| in the PARENT_SRC run.  For ``run_manifest.json`` it prints how
many values are identical and each value that is not; ``wall_time_s`` is
not compared.

Exit status: 0 if every file and value is identical, 1 if any differs,
2 if a run fails in either tree (or one that must fail succeeds in both).
"""

from __future__ import annotations

import argparse
import copy
import csv
import importlib.util
import json
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
# added); a config with a sweep section runs with ``sqbath sweep``
GENERATED = {
    "massive-smoothstep": {},
    "massive-step": {"profile": {"shape": "step"}},
    "massive-constant-mass": {"profile": {"mass_i": 0.3, "mass_f": 0.3}},
    "massive-zero-temperature": {"bath": {"beta": float("inf")}},
    "massive-gamma-sweep": {"sweep": {"path": "oscillator.gamma", "values": [0.1, 0.05]}},
    "massive-mass-sweep": {"sweep": {"path": "profile.mass_f", "values": [0.4, 0.5]}},
    "massive-beta-sweep": {"sweep": {"path": "bath.beta", "values": [1.0, 2.0]}},
}
# the same for runs that must fail, exit 2 and exit 3
FAILING = {
    "unresolved-k-grid": {"k_grid": {"stop": 1.0}},
    "subdivision-limit": {"quadrature": {"max_subdivisions": 10}},
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
        for section, values in changes.items():
            data.setdefault(section, {}).update(values)
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


def compare_csv(parent: Path, change: Path) -> tuple[bool, str]:
    """(identical, one-line verdict) for two CSV files."""
    if parent.read_bytes() == change.read_bytes():
        return True, "byte-identical"
    head_a, rows_a = _read_csv(parent)
    head_b, rows_b = _read_csv(change)
    if head_a != head_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return False, f"DIFFERS in header or shape ({len(rows_a)} vs {len(rows_b)} rows)"
    ratios = []
    for j, name in enumerate(head_a):
        scale = max((abs(row[j]) for row in rows_a), default=0.0)
        delta = max((abs(a[j] - b[j]) for a, b in zip(rows_a, rows_b)), default=0.0)
        ratios.append((delta / scale if scale else delta, name))
    worst, where = max(ratios)
    return False, f"DIFFERS: max |d|/max|value| = {worst:.3e} (column {where})"


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


def compare_manifest(parent: Path, change: Path) -> tuple[bool, list[str]]:
    """(identical, report lines) for two run manifests."""
    a = dict(_flatten(json.loads(parent.read_text())))
    b = dict(_flatten(json.loads(change.read_text())))
    lines, same = [], 0
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key, "<missing>"), b.get(key, "<missing>")
        if json.dumps(va) == json.dumps(vb):
            same += 1
            continue
        if isinstance(va, float) and isinstance(vb, float):
            rel = abs(va - vb) / abs(va) if va else abs(vb)
            lines.append(f"    DIFFERS {key}: {va!r} -> {vb!r} (|d|/|value| = {rel:.3e})")
        else:
            lines.append(f"    DIFFERS {key}: {va!r} -> {vb!r}")
    header = f"  run_manifest.json: {same} values identical, {len(lines)} differ"
    return not lines, [header, *lines]


def leftovers(code: int, out: Path) -> str:
    """The exit code of a run and the files it left under ``out``."""
    left = sorted(p.name for p in out.iterdir()) if out.exists() else "no --out"
    return f"exit {code}, {left}"


def compare_dirs(parent: Path, change: Path) -> tuple[bool, list[str]]:
    """(identical, report lines) for the output directories of one run."""
    ok, lines = True, []
    files = sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()})
    for name in files:
        a, b = parent / name, change / name
        if not (a.exists() and b.exists()):
            ok = False
            lines.append(f"  {name}: only in {'PARENT' if a.exists() else 'CHANGE'}")
        elif name.endswith(".csv"):
            same, verdict = compare_csv(a, b)
            ok &= same
            lines.append(f"  {name}: {verdict}")
        elif name == "run_manifest.json":
            same, report = compare_manifest(a, b)
            ok &= same
            lines += report
    return ok, lines


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
            outs, codes, failed = [], [], False
            for tag, src in (("parent", args.parent_src), ("change", args.change_src)):
                out = Path(tmp) / label / tag
                done = run_tree(src.resolve(), sqbath_args, out)
                if done.returncode != 0 and label not in FAILING:
                    print(f"{label}: {tag} run exited {done.returncode}\n{done.stderr}")
                    failed = True
                outs.append(out)
                codes.append(done.returncode)
            if label in FAILING:
                states = [leftovers(code, out) for code, out in zip(codes, outs)]
                same = states[0] == states[1]
                print(f"{label}: {'identical' if same else 'DIFFERS'}")
                print(f"  parent: {states[0]}\n  change: {states[1]}")
                if not same:
                    status = max(status, 1)
                elif codes[0] == 0:
                    print(f"{label}: the run must fail but exited 0 in both trees")
                    status = 2
                continue
            if failed:
                status = 2
                continue
            same, lines = compare_dirs(*outs)
            print(f"{label}: {'identical' if same else 'DIFFERS'}")
            print("\n".join(lines))
            if not same:
                status = max(status, 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
