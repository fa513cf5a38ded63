"""The scripts under ``tools/`` still start against this checkout, and no
module under ``src/sqbath``, ``tests/`` or ``tools/`` imports a name it
never uses.

Each script runs in a subprocess, so the ``sys.path`` entries and the
``sys.dont_write_bytecode`` setting the scripts make at import stay out of
the test session.  A rename under ``src/`` that breaks an import of either
script fails here.
"""

import ast
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


def unused_imports(path):
    """(line, name) of each name an import in ``path`` binds and no
    expression of the module reads; ``from __future__`` and an import
    marked ``# noqa: F401`` (a re-export) are exempt."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        future = getattr(node, "module", None) == "__future__"
        if future or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(REPO)}:{line}: {name}"
        for folder in ("src/sqbath", "tests", "tools")
        for path in sorted((REPO / folder).glob("*.py"))
        if path.name != "__init__.py"  # its imports are the package's exports
        for line, name in unused_imports(path)
    ]
    assert not found, "imported and never used:\n" + "\n".join(found)
