"""
Batch front end: scenario configs, sweeps, figure-data reproduction.

Scenarios
---------
constant_squeeze   massless bath in a squeezed thermal state (fixed eta, theta)
parametric         bath squeezed by a mass ramp m_i -> m_f; the squeeze
                   spectrum is computed from the mode equation and fed to
                   the detector dynamics
finite_coupling    plain thermal bath; the oscillator acquires squeezing
                   through the finite coupling, tracked by the extracted
                   (Xi, eta, theta) trajectory

Configs are YAML (comment friendly, nested sections); every default is
materialized into the run manifest so outputs are reproducible from the
manifest alone.  CSV bodies are deterministic: re-running an identical
config reproduces them byte for byte.

Run path: ``parse_config`` checks every value and builds the parsed
objects, the ``BathSpec`` among them; ``_product_files`` takes the bath
(``_build_bath`` solves a parametric one's squeeze spectrum) and yields
the rows of each file, the bath's sampled squeeze spectrum first;
``_computed_files`` refuses a file holding a nan or +-inf.
``run`` computes every file; ``run_sweep`` maps ``_sweep_point`` over the
points, serially or in a process pool, and puts the swept value in front
of each file's rows, files and failures in the declared value order.
Only then does ``_write_run`` create the output directory and write the
CSVs and ``run_manifest.json``, so a run that fails writes nothing.

Exit codes: 0 success, 2 configuration error, 3 numerical error.  A
sweep point whose squeeze spectrum fails its resolution check is a
failed point, recorded like a numerical failure (exit 3).
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import sys
import time
from collections.abc import Hashable
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import yaml

from . import __version__
from .bath_kernels import BathSpec, SqueezeSpectrum, check_k_grid
from .energy_fdr import (
    LATE_TIME_FACTOR,
    fdr_frequencies,
    fdr_oscillator,
    flux_balance,
    power_in,
    power_out,
)
from .errors import ConfigurationError, ConvergenceError, DomainError, SqbathError
from .gaussian_state import CovarianceState, SqueezeParam, extract_squeeze
from .oscillator_dynamics import (
    OscillatorSpec,
    chi_hadamard,
    chi_hadamard_components,
    covariance_evolution,
    massive_roots,
    ns_st_split,
)
from .quadrature import QuadratureConfig

if TYPE_CHECKING:
    from .parametric_mode import MassProfile

SCENARIOS = ("constant_squeeze", "parametric", "finite_coupling")
PRODUCTS = (
    "covariances",
    "fluxes",
    "fdr",
    "hadamard_surface",
    "squeeze_trajectory",
    "ns_split",
)
FIGURES = ("4", "5", "6", "7", "grn3d", "tan2eta", "tanphi")

# every key the parser reads, by section; any other key is rejected, so a
# misspelt key cannot fall back to its default unnoticed
_GRID_KEYS = ("start", "stop", "points", "spacing")
_SECTION_KEYS = {
    "oscillator": ("m", "omega_r", "Omega", "gamma"),
    "bath": ("beta", "eta", "theta"),
    "profile": ("mass_i", "mass_f", "t_i", "t_f", "shape", "smoothstep_order"),
    "k_grid": _GRID_KEYS,
    "quadrature": ("cutoff", "epsilon", "rel_tol", "abs_tol", "max_subdivisions"),
    "initial_state": ("xx", "pp", "xp"),
    "time_grid": _GRID_KEYS,
    "fdr_grid": _GRID_KEYS,
    "hadamard_grid": _GRID_KEYS,
    "sweep": ("path", "values", "start", "stop", "steps", "spacing"),
}
_TOP_KEYS = ("scenario", "outputs", "ns_thetas", "hadamard_factored", *_SECTION_KEYS)
_SWEEP_PATHS = tuple(
    f"{name}.{key}"
    for name, keys in _SECTION_KEYS.items()
    if name != "sweep"
    for key in keys
)
_SPACINGS = ("linear", "log")

_FLOAT_FMT = "{:.16e}"  # 17 significant digits


# ---------------------------------------------------------------------------
# config parsing


def _as_float(value, where: str, finite: bool = True) -> float:
    """A config number; NaN and booleans are rejected, and so is +-inf
    unless ``finite`` is False (bath.beta = inf is zero temperature)."""
    if isinstance(value, str):
        text = value.strip().lower()  # float() reads inf, +inf and infinity
        try:
            number = math.inf if text == ".inf" else float(text)
        except ValueError:
            raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    else:
        raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    if math.isnan(number) or (finite and math.isinf(number)):
        kind = "a finite number" if finite else "a number"
        raise ConfigurationError(f"{where}: expected {kind}, got {number}")
    return number


def _as_int(value, where: str) -> int:
    """A config integer; a boolean or a number with a fractional part is
    rejected, not rounded."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")


def _as_list(value, where: str) -> list:
    """A non-empty config list; a lone value is rejected, not iterated."""
    if not isinstance(value, list) or not value:
        raise ConfigurationError(f"{where}: expected a non-empty list, got {value!r}")
    return value


def _distinct(values: list, where: str) -> list:
    """``values``, refused if one repeats; numbers are compared as parsed,
    so 0.5 and "0.5" are one value."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigurationError(f"{where}: {value!r} appears twice")
    return values


def _make(where: str, make, *args, **kwargs):
    """make(*args, **kwargs); a domain error becomes a ConfigurationError
    that names ``where``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, SqbathError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _section(data: dict, name: str) -> dict | None:
    """The mapping ``data[name]`` (None if absent), holding only known keys."""
    section = data.get(name)
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ConfigurationError(f"{name}: expected a mapping, got {section!r}")
    _reject_unknown(section, _SECTION_KEYS[name], name)
    return section


def _reject_unknown(mapping: dict, known, where: str) -> None:
    unknown = [key for key in mapping if key not in known]
    if unknown:
        raise ConfigurationError(
            f"{where}: unknown key(s) {unknown}; known: {list(known)}"
        )


def _spaced(section: dict, where: str, start: float, stop: float, n: int,
            default: str = "linear") -> np.ndarray:
    """n points from start to stop, spaced as ``section["spacing"]`` says
    (``default`` if absent): linear, or log, which needs positive ends."""
    spacing = section.get("spacing", default)
    if spacing not in _SPACINGS:
        raise ConfigurationError(
            f"{where}.spacing must be one of {_SPACINGS}, got {spacing!r}"
        )
    if spacing == "linear":
        return np.linspace(start, stop, n)
    if not (start > 0 and stop > 0):
        raise ConfigurationError(f"{where}: log spacing requires start, stop > 0")
    return np.geomspace(start, stop, n)


def _grid(data: dict, where: str, default=None, spacing="linear") -> np.ndarray:
    section = _section(data, where)
    if section is None:
        if default is not None:
            return default
        raise ConfigurationError(f"{where}: missing grid section")
    start = _as_float(section.get("start"), f"{where}.start")
    stop = _as_float(section.get("stop"), f"{where}.stop")
    points = _as_int(section.get("points", 0), f"{where}.points")
    if points < 2 or not stop > start:
        raise ConfigurationError(f"{where}: need stop > start and points >= 2")
    return _spaced(section, where, start, stop, points, spacing)


@dataclass
class RunConfig:
    """Validated run configuration with all defaults materialized."""

    scenario: str
    oscillator: OscillatorSpec
    quad: QuadratureConfig
    outputs: tuple[str, ...]
    time_grid: np.ndarray
    init: CovarianceState
    bath: BathSpec
    profile: MassProfile | None = None
    k_grid: np.ndarray | None = None
    fdr_grid: np.ndarray | None = None
    hadamard_grid: np.ndarray | None = None
    ns_thetas: tuple[float, ...] = ()
    hadamard_factored: bool = False
    sweep: dict | None = None
    frequency_convention: str = "omega_r"
    raw: dict = field(default_factory=dict)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    _reject_unknown(data, _TOP_KEYS, "config")
    scenario = data.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigurationError(
            f"scenario must be one of {SCENARIOS}, got {scenario!r}"
        )
    for name in _SECTION_KEYS:  # also the sections this run does not read
        _section(data, name)

    osc = _section(data, "oscillator") or {}
    m = _as_float(osc.get("m", 1.0), "oscillator.m")
    gamma = _as_float(osc.get("gamma", 0.1), "oscillator.gamma")
    if "Omega" in osc and "omega_r" in osc:
        raise ConfigurationError("oscillator: give either omega_r or Omega, not both")
    convention = "Omega" if "Omega" in osc else "omega_r"
    frequency = _as_float(osc.get(convention, 1.0), f"oscillator.{convention}")
    make = OscillatorSpec.from_resonance if convention == "Omega" else OscillatorSpec
    spec = _make("oscillator", make, m, frequency, gamma)

    bath_sec = _section(data, "bath") or {}
    beta = _as_float(bath_sec.get("beta", 1.0), "bath.beta", finite=False)
    eta = _as_float(bath_sec.get("eta", 0.0), "bath.eta")
    theta = _as_float(bath_sec.get("theta", 0.0), "bath.theta")
    bath = _make("bath.beta", BathSpec, beta, _make("bath.eta", SqueezeParam, eta, theta))
    if scenario != "constant_squeeze" and eta != 0.0:
        raise ConfigurationError(
            f"bath.eta is only meaningful for constant_squeeze (scenario {scenario})"
        )

    profile = None
    k_grid = None
    if scenario == "parametric":
        from .parametric_mode import MassProfile, ProfileShape

        prof = _section(data, "profile")
        if prof is None:
            raise ConfigurationError("parametric scenario requires a profile section")
        profile = _make(
            "profile",
            MassProfile,
            mass_i=_as_float(prof.get("mass_i", 0.0), "profile.mass_i"),
            mass_f=_as_float(prof.get("mass_f", 0.0), "profile.mass_f"),
            t_i=_as_float(prof.get("t_i", 0.0), "profile.t_i"),
            t_f=_as_float(prof.get("t_f", 1.0), "profile.t_f"),
            shape=_make("profile.shape", ProfileShape, prof.get("shape", MassProfile.shape)),
            smoothstep_order=_as_int(
                prof.get("smoothstep_order", MassProfile.smoothstep_order),
                "profile.smoothstep_order",
            ),
        )
        k_grid = _make("k_grid", check_k_grid, _grid(data, "k_grid", spacing="log"))
        if k_grid.size < 8:
            raise ConfigurationError(
                f"k_grid.points must be >= 8 to resolve the squeeze spectrum, "
                f"got {k_grid.size}"
            )
    elif data.get("profile") is not None:
        raise ConfigurationError(f"scenario {scenario} forbids a profile section")

    quad_sec = _section(data, "quadrature") or {}
    cutoff = quad_sec.get("cutoff", 1000.0 * spec.omega_r)
    default = QuadratureConfig()
    quad = _make(
        "quadrature",
        QuadratureConfig,
        cutoff=None if cutoff is None else _as_float(cutoff, "quadrature.cutoff"),
        epsilon=_as_float(quad_sec.get("epsilon", default.epsilon), "quadrature.epsilon"),
        rel_tol=_as_float(quad_sec.get("rel_tol", default.rel_tol), "quadrature.rel_tol"),
        abs_tol=_as_float(quad_sec.get("abs_tol", default.abs_tol), "quadrature.abs_tol"),
        max_subdivisions=_as_int(
            quad_sec.get("max_subdivisions", default.max_subdivisions),
            "quadrature.max_subdivisions",
        ),
    )

    init_sec = _section(data, "initial_state")
    if init_sec is None:
        # oscillator ground state
        init = CovarianceState(
            xx=1.0 / (2.0 * spec.m * spec.omega_r), pp=0.5 * spec.m * spec.omega_r
        )
    else:
        init = _make(
            "initial_state",
            CovarianceState,
            xx=_as_float(init_sec.get("xx"), "initial_state.xx"),
            pp=_as_float(init_sec.get("pp"), "initial_state.pp"),
            xp=_as_float(init_sec.get("xp", 0.0), "initial_state.xp"),
        )

    outputs = _as_list(data.get("outputs", ["covariances"]), "outputs")
    outputs = tuple(_distinct(outputs, "outputs"))
    for product in outputs:
        if product not in PRODUCTS:
            raise ConfigurationError(
                f"unknown output product {product!r}; known: {PRODUCTS}"
            )
        if product != "fdr":
            # every product but the closed-form FDR integrates over frequency
            quad.require_regulator(f"the {product} output")
    if profile is not None and set(outputs) - {"fdr"}:
        # the detector response in the ramped bath needs mass_f < Omega
        _make("profile.mass_f", massive_roots, spec.gamma, spec.Omega, profile.mass_f)
        # the frequency integrals run from the threshold mass_i to quad.upper()
        if not profile.mass_i < quad.upper():
            raise ConfigurationError(
                f"profile.mass_i = {profile.mass_i} must be below the upper "
                f"frequency limit {quad.upper():g} (the cutoff, or 45/epsilon)"
            )

    late = LATE_TIME_FACTOR / max(spec.gamma, 1e-3)
    time_grid = _grid(data, "time_grid", default=np.linspace(1.0, late, 40))
    fdr_grid = hadamard_grid = None
    if "fdr" in outputs:
        # mirrored, so the default grid's w and -w are exact negatives
        half = np.linspace(0.0, 10.0 * spec.omega_r, 501)
        fdr_grid = _grid(data, "fdr_grid", default=np.concatenate((-half[:0:-1], half)))
        if profile is not None:
            _make("fdr_grid", fdr_frequencies, fdr_grid, profile.mass_i)
    if "hadamard_surface" in outputs:
        hadamard_grid = _grid(data, "hadamard_grid", default=np.linspace(20.0, 40.0, 9))
    for name, grid in (("time_grid", time_grid), ("hadamard_grid", hadamard_grid)):
        if grid is not None and not grid[0] >= 0:
            raise ConfigurationError(f"{name}.start must be >= 0, got {grid[0]}")
    thetas = _as_list(data.get("ns_thetas", [bath.squeeze.theta]), "ns_thetas")
    ns_thetas = tuple(_distinct([_as_float(v, "ns_thetas") for v in thetas], "ns_thetas"))

    hadamard_factored = data.get("hadamard_factored", False)
    if not isinstance(hadamard_factored, bool):
        raise ConfigurationError(
            f"hadamard_factored must be true or false, got {hadamard_factored!r}"
        )
    if profile is not None:
        # the unit-weight S/NS split is a constant-squeeze construction; in
        # the ramped bath eta_k and theta_k come from the squeeze spectrum,
        # which these products would ignore
        if "ns_split" in outputs:
            raise ConfigurationError(
                "outputs: ns_split is not computed for the parametric scenario "
                "(it would ignore the squeeze spectrum)"
            )
        if hadamard_factored:
            raise ConfigurationError(
                "hadamard_factored: the factored Hadamard surface is not computed "
                "for the parametric scenario (it would ignore the squeeze spectrum)"
            )

    sweep = _section(data, "sweep")
    if sweep is not None:
        if sweep.get("path") not in _SWEEP_PATHS:
            raise ConfigurationError(
                f"sweep.path must name a config key, got {sweep.get('path')!r}; "
                f"known: {_SWEEP_PATHS}"
            )
        _sweep_values(sweep)

    return RunConfig(
        scenario=scenario,
        oscillator=spec,
        quad=quad,
        outputs=outputs,
        time_grid=time_grid,
        init=init,
        bath=bath,
        profile=profile,
        k_grid=k_grid,
        fdr_grid=fdr_grid,
        hadamard_grid=hadamard_grid,
        ns_thetas=ns_thetas,
        hadamard_factored=hadamard_factored,
        sweep=sweep,
        frequency_convention=convention,
        raw=copy.deepcopy(data),
    )


def _sweep_values(sweep: dict) -> list[float]:
    """The sweep points: ``values``, or a range from start/stop/steps."""
    if "values" in sweep:
        ranged = [key for key in ("start", "stop", "steps", "spacing") if key in sweep]
        if ranged:
            raise ConfigurationError(f"sweep: give values or a range, not both: {ranged}")
        values = _as_list(sweep["values"], "sweep.values")
        # each value is parsed again, and checked, by its own point
        values = [_as_float(v, "sweep.values", finite=False) for v in values]
        return _distinct(values, "sweep.values")
    start = _as_float(sweep.get("start"), "sweep.start")
    stop = _as_float(sweep.get("stop"), "sweep.stop")
    steps = _as_int(sweep.get("steps", 0), "sweep.steps")
    if steps < 2:
        raise ConfigurationError(f"sweep: steps must be >= 2 (a range), got {steps}")
    return _distinct(_spaced(sweep, "sweep", start, stop, steps).tolist(), "sweep")


# ---------------------------------------------------------------------------
# manifest-friendly resolved view of a config


# keyed by ProfileShape values
_RAMPS = {
    "tanh": "tanh acts on m^2(t), centered mid-ramp, width "
    "(t_f - t_i)/6, clipped to the constants outside",
    "smoothstep": "smoothstep polynomial of order smoothstep_order "
    "acts on m^2(t) over [t_i, t_f], constant outside",
    "step": "m^2(t) jumps from mass_i^2 to mass_f^2 at (t_i + t_f)/2, "
    "the modes matched analytically across the jump",
}


def resolved_config(cfg: RunConfig) -> dict:
    """The config as the manifest records it: the parsed objects' fields,
    plus Omega, the frequency convention and the profile's ramp text."""
    out = {
        "scenario": cfg.scenario,
        "oscillator": {
            **asdict(cfg.oscillator),
            "Omega": cfg.oscillator.Omega,
            "frequency_convention": cfg.frequency_convention,
        },
        "bath": {
            "beta": cfg.bath.beta,
            "eta": cfg.bath.squeeze.eta,
            "theta": cfg.bath.squeeze.theta,
        },
        "quadrature": asdict(cfg.quad),
        "initial_state": asdict(cfg.init),
        "time_grid": [float(t) for t in cfg.time_grid],
        "outputs": list(cfg.outputs),
        "units": "hbar = c = k_B = 1; frequencies in units of the "
        "configured oscillator frequency",
    }
    if cfg.profile is not None:
        shape = cfg.profile.shape.value
        out["profile"] = {**asdict(cfg.profile), "shape": shape, "ramp": _RAMPS[shape]}
        out["k_grid"] = [float(k) for k in cfg.k_grid]
    if cfg.fdr_grid is not None:
        out["fdr_grid"] = [float(w) for w in cfg.fdr_grid]
    if cfg.hadamard_grid is not None:
        out["hadamard_grid"] = [float(t) for t in cfg.hadamard_grid]
        out["hadamard_factored"] = cfg.hadamard_factored
    if cfg.ns_thetas:
        out["ns_thetas"] = list(cfg.ns_thetas)
    if cfg.sweep is not None:
        out["sweep"] = cfg.sweep
    return out


# ---------------------------------------------------------------------------
# products


@functools.lru_cache(maxsize=4)
def squeeze_spectrum(profile: MassProfile, k_grid: tuple) -> SqueezeSpectrum:
    """:func:`parametric_mode.squeeze_spectrum` on the k values ``k_grid``,
    solved once per (profile, k values) in a process, or in each worker of
    ``--threads N``, and kept for the 4 most recent: the products and sweep
    points of one ramp read one spectrum, and each response of them reads
    it into its own node tables.  Loads the mode solver on first use;
    ``perfbench/tracing.py`` wraps this name."""
    from .parametric_mode import squeeze_spectrum as solve

    return solve(profile, k_grid)


def _build_bath(cfg: RunConfig) -> BathSpec:
    """The bath of the products: ``cfg.bath``, or in a parametric run the
    bath of its squeeze spectrum at the temperature of ``cfg.bath``."""
    if cfg.profile is None:
        return cfg.bath
    k_grid = tuple(cfg.k_grid.tolist())
    return BathSpec(
        beta=cfg.bath.beta,
        squeeze=_at("squeeze_spectrum", {}, squeeze_spectrum, cfg.profile, k_grid),
        mass_i=cfg.profile.mass_i,
        mass_f=cfg.profile.mass_f,
    )


def _at(product: str, point: dict, fn, *args):
    """fn(*args); a numerical error gets the product and the point, if
    any, added."""
    try:
        return fn(*args)
    except (ConvergenceError, DomainError) as exc:
        where = ", ".join(f"{key} = {value:g}" for key, value in point.items())
        exc.args = (f"{product} at {where}: {exc}" if where else f"{product}: {exc}",)
        exc.diagnostics.update(product=product, **point)
        raise


def _product_files(cfg: RunConfig):
    """Yield (product, file name, header, rows, params) for every requested
    file, the sampled squeeze spectrum of a spectrum bath first.

    Each time point's covariance is computed once and feeds
    ``covariances``, ``fluxes`` (P_gamma = -(2 Gamma/m) pp) and
    ``squeeze_trajectory``.  The two-time Hadamard function is symmetric
    in t <-> t', so each unordered pair of the grid is integrated once and
    written at both (t, t') and (t', t).
    """
    bath = _build_bath(cfg)
    if isinstance(bath.squeeze, SqueezeSpectrum):
        spectrum = bath.squeeze
        header = ("k", "eta_k", "theta_k")
        rows = list(zip(spectrum.k, spectrum.eta, spectrum.theta))
        params = {"k_points": int(spectrum.k.size)}
        yield "squeeze_spectrum", "squeeze_spectrum.csv", header, rows, params
    spec, quad, times = cfg.oscillator, cfg.quad, cfg.time_grid
    covs = []
    if {"covariances", "fluxes", "squeeze_trajectory"} & set(cfg.outputs):
        covs = [
            _at("covariances", {"t": t}, covariance_evolution, spec, bath, cfg.init, t, quad)
            for t in map(float, times)
        ]
    for name in cfg.outputs:
        if name == "covariances":
            rows = [(t, cov.xx, cov.pp, cov.xp) for t, cov in zip(times, covs)]
            yield name, f"{name}.csv", ("t", "xx", "pp", "xp"), rows, {}
        elif name == "fluxes":
            p_xi = [
                _at(name, {"t": t}, power_in, spec, bath, t, quad) for t in map(float, times)
            ]
            p_gamma = [power_out(spec, bath, cov.pp) for cov in covs]
            meta = flux_balance(spec, bath, times, p_xi, p_gamma)
            rows = list(zip(times, p_xi, p_gamma))
            yield name, f"{name}.csv", ("t", "p_xi", "p_gamma"), rows, meta
        elif name == "fdr":
            report = fdr_oscillator(spec, bath, cfg.fdr_grid)
            rows = list(
                zip(report.omegas, report.hadamard_side, report.dissipation_side)
            )
            header = ("omega", "hadamard_side", "dissipation_side")
            meta = {"max_rel_deviation": report.max_rel_deviation}
            yield name, f"{name}.csv", header, rows, meta
        elif name == "hadamard_surface":
            grid = [float(t) for t in cfg.hadamard_grid]
            if cfg.hadamard_factored:
                kernel, head = chi_hadamard_components, (spec, bath, cfg.bath.squeeze.theta)
            else:
                kernel, head = chi_hadamard, (spec, bath)
            pair = {}
            for i, t in enumerate(grid):
                for j, tp in enumerate(grid[i:], start=i):
                    point = {"t": t, "t_prime": tp}
                    kv = _at(name, point, kernel, *head, t, tp, quad)
                    pair[i, j] = kv.stationary, kv.nonstationary
            rows = [
                (t, tp, *pair[min(i, j), max(i, j)])
                for i, t in enumerate(grid)
                for j, tp in enumerate(grid)
            ]
            header = ("t", "t_prime", "stationary", "nonstationary")
            yield name, f"{name}.csv", header, rows, {"factored_out": cfg.hadamard_factored}
        elif name == "squeeze_trajectory":
            rows = []
            for t, cov in zip(times, covs):
                dec = _at(name, {"t": float(t)}, extract_squeeze, cov, spec.m, spec.omega_r)
                eta, theta = dec.squeeze.eta, dec.squeeze.theta
                try:
                    sinh_sq = math.sinh(2 * eta) ** 2
                except OverflowError:  # inf, refused by _computed_files
                    sinh_sq = math.inf
                rows.append((t, dec.xi, eta, theta, sinh_sq, math.sin(theta)))
            header = ("t", "xi", "eta", "theta", "sinh_sq_2eta", "sin_theta")
            yield name, f"{name}.csv", header, rows, {}
        elif name == "ns_split":
            ins_rows, ist_rows = [], []
            for theta in cfg.ns_thetas:
                for t in times:
                    i_ns, i_st = _at(
                        name, {"t": t, "theta": theta}, ns_st_split,
                        spec, bath, theta, float(t), quad,
                    )
                    ins_rows.append((t, theta, i_ns))
                    ist_rows.append((t, theta, i_st))
            meta = {"thetas": list(cfg.ns_thetas)}
            yield name, "ins_vs_t.csv", ("t", "theta", "I_NS"), ins_rows, meta
            yield name, "ist_vs_t.csv", ("t", "theta", "I_ST"), ist_rows, meta


def _computed_files(cfg: RunConfig) -> list:
    """Every file of :func:`_product_files`, computed; a nan or +-inf in
    any raises ConvergenceError naming its product, column and row."""
    files = list(_product_files(cfg))
    for name, _, header, rows, _ in files:
        for row in rows:
            for column, value in zip(header, row):
                if not math.isfinite(value):
                    raise ConvergenceError(
                        f"{name}: {column} is {value} at {header[0]} = {row[0]:g}",
                        diagnostics={"product": name, "column": column, header[0]: row[0]},
                    )
    return files


# ---------------------------------------------------------------------------
# output plumbing


def _write_product(out: Path, name: str, fname: str, header, rows, params) -> dict:
    """Write one CSV and return its manifest entry."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FLOAT_FMT.format(float(v)) for v in row))
    body = "\n".join(lines) + "\n"
    (out / fname).write_text(body)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return {"name": name, "file": fname, "sha256": digest, "params": params}


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _strict_json(value):
    """``value`` for strict JSON: each nan and +-inf float becomes the
    string "nan", "inf" or "-inf", which :func:`_as_float` reads back."""
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else str(float(value))


def _write_run(out_dir, cfg: RunConfig, started: float, files, **extra) -> dict:
    """Create ``out_dir``, write every (product, file name, header, rows,
    params) of ``files`` and ``run_manifest.json``, and return the
    manifest; ``extra`` keys follow the manifest fields."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    products = [_write_product(out, *file) for file in files]
    resolved = resolved_config(cfg)
    manifest = _strict_json({
        "config_hash": config_hash(resolved),
        "tool_version": __version__,
        "regulator": resolved["quadrature"],
        "wall_time_s": time.perf_counter() - started,
        "products": products,
        "resolved_config": resolved,
        **extra,
    })
    text = json.dumps(manifest, indent=2, allow_nan=False, default=str)
    (out / "run_manifest.json").write_text(text + "\n")
    return manifest


def run(cfg: RunConfig, out_dir) -> dict:
    """Compute every requested file of a config, then write them and the
    manifest into ``out_dir``; a run that fails writes nothing."""
    started = time.perf_counter()
    return _write_run(out_dir, cfg, started, _computed_files(cfg))


# ---------------------------------------------------------------------------
# sweeps


def _point_config(raw: dict, path: str, value: float) -> RunConfig:
    """The config of one sweep point: ``raw`` with ``path`` set to ``value``."""
    data = copy.deepcopy(raw)
    data.pop("sweep", None)
    section, key = path.split(".")  # one of _SWEEP_PATHS
    data[section] = {**(data.get(section) or {}), key: value}
    try:
        return parse_config(data)
    except ConfigurationError as exc:
        raise ConfigurationError(f"sweep point {path} = {value}: {exc}") from exc


def _sweep_point(cfg: RunConfig):
    """(files, None) for a point that ran, (None, error) for a point that
    failed numerically."""
    try:
        return _computed_files(cfg), None
    except SqbathError as exc:
        return None, exc


def _failure_record(value, exc: SqbathError) -> dict:
    """The manifest's record of a failed sweep point: the value, the message,
    its diagnostics and a numeric partial value."""
    record = {"value": value, "error": str(exc), "diagnostics": exc.diagnostics}
    if isinstance(exc.partial_value, float):
        record["partial_value"] = float(exc.partial_value)
    return record


def run_sweep(cfg: RunConfig, out_dir, threads: int = 1) -> dict:
    """Run every sweep point and collect long-format CSVs; return the
    manifest.

    Each file of :func:`run` becomes ``sweep_<file>`` with the swept value
    in front of every row.  Every point's config is parsed before any
    point runs, so a rejected value raises :class:`ConfigurationError`
    and nothing is written.  Points are independent; numerical failures
    are recorded and the remaining points still run.  Row groups and
    failure records follow the declared value order.  ``threads`` > 1
    runs the points in min(threads, points) worker processes.
    """
    if cfg.sweep is None:
        raise ConfigurationError("config has no sweep section")
    if threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {threads}")
    started = time.perf_counter()
    path = cfg.sweep["path"]
    values = _sweep_values(cfg.sweep)
    jobs = [_point_config(cfg.raw, path, value) for value in values]
    workers = min(threads, len(jobs))
    if workers > 1:
        # imported here: the process pool's import chain (multiprocessing)
        # would otherwise be paid by every run
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_point, jobs))
    else:
        outcomes = map(_sweep_point, jobs)

    failures = []
    files: dict = {}  # file name -> (product, file name, header, rows, params by value)
    for value, (result, exc) in zip(values, outcomes):
        if exc is not None:
            failures.append(_failure_record(value, exc))
        for name, fname, header, rows, params in result or ():
            fname = f"sweep_{fname}"
            entry = files.setdefault(fname, (name, fname, (path, *header), [], {}))
            entry[3].extend((value, *row) for row in rows)
            entry[4][repr(value)] = params
    manifest = _write_run(out_dir, cfg, started, files.values(), sweep_failures=failures)
    if failures:
        raise ConvergenceError(
            f"{len(failures)} of {len(values)} sweep points failed",
            diagnostics={"failures": failures},
        )
    return manifest


# ---------------------------------------------------------------------------
# figure presets; each records which frequency normalization it uses

PI = math.pi


def figure_preset(name: str) -> dict:
    if name in ("4", "5"):
        return {
            "scenario": "constant_squeeze",
            "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.1},
            "bath": {"beta": 0.3, "eta": 1.0, "theta": 0.0},
            "quadrature": {"cutoff": 1000.0},
            "time_grid": {"start": 0.5, "stop": 200.0, "points": 80},
            "ns_thetas": [0.0, PI / 6.0, PI / 2.0],
            "outputs": ["ns_split"],
        }
    if name == "6":
        return {
            "scenario": "constant_squeeze",
            "oscillator": {"m": 1.0, "omega_r": 1.0, "gamma": 0.3},
            "bath": {"beta": 10.0, "eta": 1.0, "theta": 0.0},
            "quadrature": {"cutoff": 1000.0},
            "time_grid": {"start": 0.25, "stop": 25.0, "points": 100},
            "outputs": ["covariances"],
            "sweep": {"path": "bath.theta", "values": [0.0, PI / 6.0, PI / 2.0]},
        }
    if name == "7":
        return {
            "scenario": "constant_squeeze",
            "oscillator": {"m": 1.0, "omega_r": 1.0, "gamma": 0.3},
            "bath": {"beta": 10.0, "eta": 2.0, "theta": 0.0},
            "quadrature": {"cutoff": 1000.0},
            "time_grid": {"start": 0.25, "stop": 25.0, "points": 100},
            "outputs": ["covariances"],
            "sweep": {"path": "bath.beta", "values": [100.0, 10.0, 1.0, 0.1]},
        }
    if name == "grn3d":
        return {
            "scenario": "constant_squeeze",
            "oscillator": {"m": 1.0, "omega_r": 1.0, "gamma": 0.1},
            "bath": {"beta": "inf", "eta": 1.0, "theta": 0.0},
            "quadrature": {"cutoff": 1000.0},
            "time_grid": {"start": 1.0, "stop": 40.0, "points": 2},
            "hadamard_grid": {"start": 20.0, "stop": 40.0, "points": 9},
            "hadamard_factored": True,
            "outputs": ["hadamard_surface"],
        }
    if name in ("tan2eta", "tanphi"):
        return {
            "scenario": "finite_coupling",
            "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.3},
            "bath": {"beta": 10.0},
            "quadrature": {"cutoff": 1000.0},
            "initial_state": {"xx": 2.0, "pp": 1.0, "xp": 0.0},
            "time_grid": {"start": 0.5, "stop": 160.0, "points": 36},
            "outputs": ["squeeze_trajectory"],
            "sweep": {"path": "oscillator.gamma", "values": [0.3, 0.1, 0.03]},
        }
    raise ConfigurationError(f"unknown figure preset {name!r}; known: {FIGURES}")


# ---------------------------------------------------------------------------
# entry point


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader refusing a key repeated within one mapping, whose
    last value PyYAML would otherwise keep without a word."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # the keys of a merged mapping may be overridden
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue  # refused by super()
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"repeated key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _load_yaml(path: str) -> dict:
    try:
        with open(path, "r") as handle:
            return yaml.load(handle, Loader=_UniqueKeyLoader)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed YAML in {path}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqbath",
        description="Quantum Brownian oscillator in squeezed thermal baths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config path")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--figure", choices=FIGURES, help="built-in figure preset")
    sub.add_parser("run", parents=[common], help="execute one scenario config")
    sweep_p = sub.add_parser(
        "sweep", parents=[common], help="execute the sweep block of a config"
    )
    sweep_p.add_argument("--threads", type=int, default=1)

    args = parser.parse_args(argv)

    try:
        if args.figure and args.config:
            raise ConfigurationError("give either --config or --figure, not both")
        if args.figure:
            data = figure_preset(args.figure)
        elif args.config:
            data = _load_yaml(args.config)
        else:
            raise ConfigurationError("one of --config or --figure is required")
        cfg = parse_config(data)

        if args.command == "sweep" or (cfg.sweep is not None and args.figure):
            manifest = run_sweep(cfg, args.out, threads=getattr(args, "threads", 1))
        else:
            manifest = run(cfg, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SqbathError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        if exc.diagnostics:
            diagnostics = json.dumps(_strict_json(exc.diagnostics), allow_nan=False, default=str)
            print(f"diagnostics: {diagnostics}", file=sys.stderr)
        return 3

    products, digest = manifest["products"], manifest["config_hash"]
    print(f"wrote {len(products)} product(s); config {digest[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
