"""Seeded workload definitions.

Each workload is one sqbath config derived from a shipped config or figure
preset.  The seed draws the physical parameters (gamma, beta, eta, theta,
m_f, t_f) from narrow bands inside the ranges the shipped files use, so
that the amount of work, and with it the run time, barely moves between
seeds while the numbers themselves do.  Grid sizes are fixed.

Only the standard library is used here: run.py and checks.py never import
sqbath or numpy themselves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # "run" or "sweep": which CLI entry point executes it
    make_config: Callable[[int], dict]


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # six significant digits keep the generated configs readable
    return float(f"{rng.uniform(lo, hi):.6g}")


def squeeze_products(seed: int) -> dict:
    """configs/constant_squeeze.yaml with every product of preset grn3d and
    figure 4 added.  The last time point lies past 30/gamma, so the run
    manifest marks the energy balance as a late-time check."""
    rng = random.Random(seed)
    return {
        "scenario": "constant_squeeze",
        "oscillator": {"m": 1.0, "omega_r": 1.0, "gamma": _draw(rng, 0.1, 0.12)},
        "bath": {
            "beta": _draw(rng, 0.3, 1.0),
            "eta": _draw(rng, 0.5, 2.0),
            "theta": _draw(rng, 0.0, math.pi / 2.0),
        },
        "quadrature": {"cutoff": 1000.0},
        "initial_state": {"xx": 0.5, "pp": 0.5, "xp": 0.0},
        "time_grid": {"start": 20.0, "stop": 300.0, "points": 3},
        "fdr_grid": {"start": -10.0, "stop": 10.0, "points": 101},
        "hadamard_grid": {"start": 20.0, "stop": 40.0, "points": 2},
        "hadamard_factored": True,
        "ns_thetas": [0.0, math.pi / 6.0, math.pi / 2.0],
        "outputs": ["covariances", "fluxes", "fdr", "hadamard_surface", "ns_split"],
    }


def mass_ramp(seed: int) -> dict:
    """configs/parametric.yaml (tanh ramp from m_i = 0) on a denser k grid
    and at two late detector times, inside the shipped time range."""
    rng = random.Random(seed)
    return {
        "scenario": "parametric",
        "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": _draw(rng, 0.1, 0.11)},
        "bath": {"beta": _draw(rng, 0.8, 1.25)},
        "profile": {
            "mass_i": 0.0,
            "mass_f": _draw(rng, 0.45, 0.55),
            "t_i": 0.0,
            "t_f": _draw(rng, 1.95, 2.05),
            "shape": "tanh",
        },
        "k_grid": {"start": 0.02, "stop": 60.0, "points": 96, "spacing": "log"},
        "quadrature": {"cutoff": 1000.0},
        "time_grid": {"start": 340.0, "stop": 350.0, "points": 2},
        "fdr_grid": {"start": 0.05, "stop": 10.0, "points": 100},
        "outputs": ["covariances", "fluxes", "fdr"],
    }


def thermal_sweep(seed: int) -> dict:
    """configs/finite_coupling.yaml swept over three gamma values (one per
    shipped decade) under the exponential regulator with the cutoff off."""
    rng = random.Random(seed)
    gammas = [_draw(rng, 0.25, 0.35), _draw(rng, 0.08, 0.12), _draw(rng, 0.025, 0.035)]
    return {
        "scenario": "finite_coupling",
        "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": gammas[0]},
        "bath": {"beta": _draw(rng, 5.0, 20.0)},
        "quadrature": {"cutoff": None, "epsilon": 1e-2},
        "initial_state": {"xx": 2.0, "pp": 1.0, "xp": 0.0},
        "time_grid": {"start": 0.5, "stop": 60.0, "points": 4},
        "outputs": ["covariances", "squeeze_trajectory"],
        "sweep": {"path": "oscillator.gamma", "values": gammas},
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "squeeze-products",
            "constant squeeze, hard cutoff: quadrature does nearly all the work "
            "and the same spectral moments are requested again and again",
            "run",
            squeeze_products,
        ),
        Workload(
            "mass-ramp",
            "parametric ramp: squeeze-spectrum ODE and per-scalar spectrum "
            "interpolation carry the cost",
            "run",
            mass_ramp,
        ),
        Workload(
            "thermal-sweep",
            "finite-coupling gamma sweep under the exponential regulator: "
            "unsqueezed bath, cheap integrands, config re-parsed per point",
            "sweep",
            thermal_sweep,
        ),
    )
}


def expected_rows(config: dict) -> dict[str, int]:
    """Data rows each output file of a run of ``config`` must hold."""
    n_t = int(config["time_grid"]["points"])
    per_product = {
        "covariances": n_t,
        "fluxes": n_t,
        "squeeze_trajectory": n_t,
        "fdr": int(config.get("fdr_grid", {}).get("points", 0)),
        "hadamard_surface": int(config.get("hadamard_grid", {}).get("points", 0)) ** 2,
    }
    sweep = config.get("sweep")
    rows = {}
    if config["scenario"] == "parametric" and sweep is None:
        rows["squeeze_spectrum.csv"] = int(config["k_grid"]["points"])
    for name in config["outputs"]:
        if name == "ns_split":
            if sweep is None:
                n = n_t * len(config["ns_thetas"])
                rows["ins_vs_t.csv"] = n
                rows["ist_vs_t.csv"] = n
        elif sweep is not None:
            rows[f"sweep_{name}.csv"] = per_product[name] * len(sweep["values"])
        else:
            rows[f"{name}.csv"] = per_product[name]
    return rows
