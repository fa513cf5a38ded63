"""The scripts under ``tools/`` still start against this checkout.

Each runs in a subprocess, so the ``sys.path`` entries and the
``sys.dont_write_bytecode`` setting the scripts make at import stay out of
the test session.  A rename under ``src/`` that breaks an import of either
script fails here.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_python(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=REPO, capture_output=True, text=True, timeout=120
    )


def test_audit_reference_starts():
    done = run_python("tools/audit_reference.py", "--help")
    assert done.returncode == 0, done.stderr


def test_unreached_lists_the_package_functions():
    done = run_python(
        "-c",
        "import sys; sys.path.insert(0, 'tools'); import unreached; "
        "print(*unreached.defined_functions().values(), sep='\\n')",
    )
    assert done.returncode == 0, done.stderr
    assert "sqbath.cli.run" in done.stdout.splitlines()
