"""``tools/compare_outputs.py`` compares the stderr of two runs that must
fail: the error line must be identical, and the values of the
``diagnostics:`` JSON line are compared as manifest values are."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"

ERROR = "numerical error: fluxes at t=20: cos term at frequency 40 over [0, 100]: roundoff"
DIAGNOSTICS = {"product": "fluxes", "t": 20.0, "abserr": 1.17e-6, "interval": [0.0, 100.0]}


@pytest.fixture(scope="module")
def compare_stderr():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_stderr


def stderr(error=ERROR, **changes):
    """A failed run's stderr: the error line and its diagnostics line."""
    return f"{error}\ndiagnostics: {json.dumps({**DIAGNOSTICS, **changes})}\n"


def test_identical_stderr(compare_stderr):
    worst, lines = compare_stderr(stderr(), stderr())
    assert worst is None
    assert lines == ["  diagnostics: 5 values identical, 0 differ"]


def test_configuration_error_without_diagnostics(compare_stderr):
    text = "configuration error: k_grid: squeeze spectrum is not resolved\n"
    assert compare_stderr(text, text)[0] is None
    assert compare_stderr(text, text.replace("k_grid", "time_grid"))[0] == math.inf


def test_error_line_must_be_identical(compare_stderr):
    worst, lines = compare_stderr(stderr(), stderr(ERROR.replace("roundoff", "limit")))
    assert worst == math.inf
    assert "DIFFERS" in lines[0]
    # a change of the error's kind is a different line too
    reworded = ERROR.replace("numerical", "configuration")
    assert compare_stderr(stderr(), stderr(reworded))[0] == math.inf


def test_diagnostics_numbers_have_a_relative_size(compare_stderr):
    # a number moves by its gap over max(1, |parent value|), as in a manifest
    worst, lines = compare_stderr(stderr(), stderr(t=20.0 + 4e-12))
    assert worst == pytest.approx(2e-13, rel=1e-3)
    assert lines[0] == "  diagnostics: 4 values identical, 1 differ"
    worst, _ = compare_stderr(stderr(), stderr(interval=[0.0, 100.0 + 1e-9]))
    assert worst == pytest.approx(1e-11, rel=1e-3)


@pytest.mark.parametrize(
    "change",
    [{"product": "covariances"}, {"kind": "cos"}, {"abserr": None}],
    ids=["string", "added-key", "number-to-null"],
)
def test_diagnostics_without_a_relative_size(compare_stderr, change):
    assert compare_stderr(stderr(), stderr(**change))[0] == math.inf


def test_dropped_diagnostics_line(compare_stderr):
    assert compare_stderr(stderr(), f"{ERROR}\n")[0] == math.inf
