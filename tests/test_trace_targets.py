"""The benchmark's traced mode wraps sqbath functions by module and name.

``perfbench/tracing.py`` raises when a target no longer exists; loading it
here makes a rename that breaks the traced benchmark fail the test suite.
A tiny traced parametric run also checks that the wrapped per-node
functions are still the ones the computation calls, so a fast path that
goes round a traced function fails here instead of reporting a zero layer.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sqbath.cli import parse_config, run

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

TINY_PARAMETRIC = {
    "scenario": "parametric",
    "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.1},
    "bath": {"beta": 1.0},
    "profile": {"mass_i": 0.0, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0, "shape": "tanh"},
    "k_grid": {"start": 0.05, "stop": 60.0, "points": 8, "spacing": "log"},
    "quadrature": {"cutoff": 100.0},
    "time_grid": {"start": 10.0, "stop": 20.0, "points": 2},
    "outputs": ["covariances"],
}


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        tracer.uninstall()


def test_every_trace_target_resolves(tracer):
    assert tracer.layer_of


def test_traced_layers_see_the_per_node_calls(tracer, tmp_path, cold_memo):
    # from empty node memos, as in the benchmark's fresh interpreter: a bath
    # already cached by an earlier test would evaluate no spectrum node
    cfg = parse_config(dict(TINY_PARAMETRIC))
    cfg = dataclasses.replace(cfg, time_grid=np.array([10.0]))
    run(cfg, tmp_path)
    metrics = tracer.metrics()
    # one batched integrate_mode call solves all 8 modes
    assert metrics["parametric_mode.modes"] == 1
    assert metrics["parametric_mode.rhs_evals"] > 0
    assert metrics["bath_kernels.spectrum_calls"] > 0
    assert metrics["quadrature.calls"] > 0
    assert metrics["quadrature.evals"] > 0
    assert metrics["quadrature.errors"] == 0
