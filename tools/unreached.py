"""Print every function defined in ``src/sqbath`` that no compared run enters.

    python tools/unreached.py

The script makes the serial runs of ``tools/compare_outputs.py`` (the
default, generated and must-fail runs; the ``--threads 2`` sweep is left
out, since its points run in worker processes) and seed 0 of each
``perfbench/workloads.py`` workload, all in this process with the package
of this checkout, under ``sys.setprofile``.  It then lists, one
``module.qualname`` a line, every function, method, closure and lambda
compiled from ``src/sqbath`` whose code no run entered.  Comprehensions
and class bodies are not listed.

Exit status: 0 when every run exits as ``compare_outputs.py`` expects it
to (0, or nonzero for a must-fail run), 2 otherwise; the list is printed
either way.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from inspect import CO_OPTIMIZED
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
sys.path[:0] = [str(SRC), str(TOOLS)]

import compare_outputs  # noqa: E402


def defined_functions() -> dict:
    """(file, first line, qualname) -> ``module.qualname`` for every
    function of the package, found by compiling its sources."""
    found = {}
    for path in sorted((SRC / "sqbath").glob("*.py")):
        module = "sqbath" if path.stem == "__init__" else f"sqbath.{path.stem}"
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if hasattr(c, "co_code")]
            named = not code.co_name.startswith("<") or code.co_name == "<lambda>"
            if code.co_flags & CO_OPTIMIZED and named:
                key = (str(path), code.co_firstlineno, code.co_qualname)
                found[key] = f"{module}.{code.co_qualname}"
    return found


def entered_during(runs) -> tuple[set, list]:
    """(the code keys entered while ``runs`` execute, the runs whose exit
    code was not the expected one)."""
    seen, wrong = set(), []

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from sqbath.cli import main

        for label, args, out, must_fail in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*args, "--out", str(out)])
            if (code != 0) != must_fail:
                wrong.append(f"{label}: exit {code}")
    finally:
        sys.setprofile(None)
    entered = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_qualname)
        for code in seen
    }
    return entered, wrong


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sqbath-unreached-") as tmp:
        tmp = Path(tmp)
        labelled = [
            *((run, False) for run in compare_outputs.default_runs()),
            *((run, False) for run in compare_outputs.generated_runs(tmp, compare_outputs.GENERATED)),
            *((run, True) for run in compare_outputs.generated_runs(tmp, compare_outputs.FAILING)),
            *((run, False) for run in compare_outputs.workload_runs(1, tmp)),
        ]
        runs = [
            (label, args, tmp / "out" / label, must_fail)
            for (label, args), must_fail in labelled
            if "--threads" not in args
        ]
        entered, wrong = entered_during(runs)
    for line in wrong:
        print(f"unexpected {line}", file=sys.stderr)
    for key, name in sorted(defined_functions().items()):
        if key not in entered:
            print(name)
    return 2 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
