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

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bath_kernels import BathSpec, SqueezeSpectrum
from .energy_fdr import (
    LATE_TIME_FACTOR,
    fdr_oscillator,
    flux_balance,
    power_in,
    power_out,
)
from .errors import ConfigurationError, ConvergenceError, SqbathError
from .gaussian_state import CovarianceState, SqueezeParam, extract_squeeze
from .oscillator_dynamics import (
    OscillatorSpec,
    chi_hadamard,
    chi_hadamard_components,
    covariance_evolution,
    ns_st_split,
)
from .parametric_mode import MassProfile, ProfileShape, squeeze_spectrum
from .quadrature import QuadratureConfig

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


def _as_float(value, where: str) -> float:
    if isinstance(value, str):
        if value.strip().lower() in ("inf", ".inf", "+inf", "infinity"):
            return math.inf
        try:
            return float(value)
        except ValueError:
            raise ConfigurationError(f"{where}: expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigurationError(f"{where}: expected a number, got {value!r}")


def _as_int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{where}: expected an integer, got {value!r}")


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


def _spacing(section: dict, where: str, default: str = "linear") -> str:
    spacing = section.get("spacing", default)
    if spacing not in _SPACINGS:
        raise ConfigurationError(
            f"{where}.spacing must be one of {_SPACINGS}, got {spacing!r}"
        )
    return spacing


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
    if _spacing(section, where, spacing) == "log":
        if start <= 0:
            raise ConfigurationError(f"{where}: log spacing requires start > 0")
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


@dataclass
class RunConfig:
    """Validated run configuration with all defaults materialized."""

    scenario: str
    oscillator: OscillatorSpec
    quad: QuadratureConfig
    outputs: tuple[str, ...]
    time_grid: np.ndarray
    init: CovarianceState
    bath_beta: float
    bath_eta: float = 0.0
    bath_theta: float = 0.0
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

    osc = _section(data, "oscillator") or {}
    m = _as_float(osc.get("m", 1.0), "oscillator.m")
    gamma = _as_float(osc.get("gamma", 0.1), "oscillator.gamma")
    convention = "omega_r"
    try:
        if "Omega" in osc:
            if "omega_r" in osc:
                raise ConfigurationError(
                    "oscillator: give either omega_r or Omega, not both"
                )
            spec = OscillatorSpec.from_resonance(
                m, _as_float(osc["Omega"], "oscillator.Omega"), gamma
            )
            convention = "Omega"
        else:
            spec = OscillatorSpec(
                m, _as_float(osc.get("omega_r", 1.0), "oscillator.omega_r"), gamma
            )
    except SqbathError as exc:
        raise ConfigurationError(f"oscillator: {exc}") from exc

    bath = _section(data, "bath") or {}
    beta = _as_float(bath.get("beta", 1.0), "bath.beta")
    eta = _as_float(bath.get("eta", 0.0), "bath.eta")
    theta = _as_float(bath.get("theta", 0.0), "bath.theta")
    if not beta > 0:
        raise ConfigurationError(f"bath.beta must be > 0 (inf for T = 0), got {beta}")
    if not 0 <= eta < math.inf:
        raise ConfigurationError(f"bath.eta must be finite and >= 0, got {eta}")
    if not math.isfinite(theta):
        raise ConfigurationError(f"bath.theta must be finite, got {theta}")
    if scenario != "constant_squeeze" and eta != 0.0:
        raise ConfigurationError(
            f"bath.eta is only meaningful for constant_squeeze (scenario {scenario})"
        )

    profile = None
    k_grid = None
    if scenario == "parametric":
        prof = _section(data, "profile")
        if prof is None:
            raise ConfigurationError("parametric scenario requires a profile section")
        try:
            profile = MassProfile(
                mass_i=_as_float(prof.get("mass_i", 0.0), "profile.mass_i"),
                mass_f=_as_float(prof.get("mass_f", 0.0), "profile.mass_f"),
                t_i=_as_float(prof.get("t_i", 0.0), "profile.t_i"),
                t_f=_as_float(prof.get("t_f", 1.0), "profile.t_f"),
                shape=ProfileShape(prof.get("shape", "tanh")),
                smoothstep_order=_as_int(
                    prof.get("smoothstep_order", 2), "smoothstep_order"
                ),
            )
        except (ValueError, SqbathError) as exc:
            raise ConfigurationError(f"profile: {exc}") from exc
        k_grid = _grid(data, "k_grid", spacing="log")
    elif data.get("profile") is not None:
        raise ConfigurationError(f"scenario {scenario} forbids a profile section")

    quad_sec = _section(data, "quadrature") or {}
    cutoff = quad_sec.get("cutoff", 1000.0 * spec.omega_r)
    try:
        quad = QuadratureConfig(
            cutoff=None if cutoff is None else _as_float(cutoff, "quadrature.cutoff"),
            epsilon=_as_float(quad_sec.get("epsilon", 0.0), "quadrature.epsilon"),
            rel_tol=_as_float(quad_sec.get("rel_tol", 1e-8), "quadrature.rel_tol"),
            abs_tol=_as_float(quad_sec.get("abs_tol", 1e-12), "quadrature.abs_tol"),
            max_subdivisions=_as_int(
                quad_sec.get("max_subdivisions", 2000), "max_subdivisions"
            ),
        )
    except SqbathError as exc:
        raise ConfigurationError(f"quadrature: {exc}") from exc

    init_sec = _section(data, "initial_state")
    if init_sec is None:
        # oscillator ground state
        init = CovarianceState(
            xx=1.0 / (2.0 * spec.m * spec.omega_r), pp=0.5 * spec.m * spec.omega_r
        )
    else:
        try:
            init = CovarianceState(
                xx=_as_float(init_sec.get("xx"), "initial_state.xx"),
                pp=_as_float(init_sec.get("pp"), "initial_state.pp"),
                xp=_as_float(init_sec.get("xp", 0.0), "initial_state.xp"),
            )
        except SqbathError as exc:
            raise ConfigurationError(f"initial_state: {exc}") from exc

    outputs = tuple(data.get("outputs", ["covariances"]))
    for product in outputs:
        if product not in PRODUCTS:
            raise ConfigurationError(
                f"unknown output product {product!r}; known: {PRODUCTS}"
            )
        if product != "fdr":
            # every product but the closed-form FDR integrates over frequency
            quad.require_regulator(f"the {product} output")

    time_grid = _grid(
        data,
        "time_grid",
        default=np.linspace(1.0, LATE_TIME_FACTOR / max(spec.gamma, 1e-3), 40),
    )
    fdr_grid = None
    if "fdr" in outputs:
        fdr_grid = _grid(
            data,
            "fdr_grid",
            default=np.linspace(-10.0 * spec.omega_r, 10.0 * spec.omega_r, 1001),
        )
    hadamard_grid = None
    if "hadamard_surface" in outputs:
        hadamard_grid = _grid(
            data,
            "hadamard_grid",
            default=np.linspace(20.0, 40.0, 9),
        )
    ns_thetas = tuple(
        _as_float(v, "ns_thetas") for v in data.get("ns_thetas", [theta])
    )

    hadamard_factored = data.get("hadamard_factored", False)
    if not isinstance(hadamard_factored, bool):
        raise ConfigurationError(
            f"hadamard_factored must be true or false, got {hadamard_factored!r}"
        )

    sweep = _section(data, "sweep")
    if sweep is not None:
        if sweep.get("path") not in _SWEEP_PATHS:
            raise ConfigurationError(
                f"sweep.path must name a config key, got {sweep.get('path')!r}; "
                f"known: {_SWEEP_PATHS}"
            )
        values = _sweep_values(sweep)
        if len(values) == 0:
            raise ConfigurationError("sweep: empty value range")

    return RunConfig(
        scenario=scenario,
        oscillator=spec,
        quad=quad,
        outputs=outputs,
        time_grid=time_grid,
        init=init,
        bath_beta=beta,
        bath_eta=eta,
        bath_theta=theta,
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
    if "values" in sweep:
        return [_as_float(v, "sweep.values") for v in sweep["values"]]
    start = _as_float(sweep.get("start"), "sweep.start")
    stop = _as_float(sweep.get("stop"), "sweep.stop")
    steps = _as_int(sweep.get("steps", 0), "sweep.steps")
    if steps < 1:
        raise ConfigurationError("sweep: steps must be >= 1")
    if _spacing(sweep, "sweep") == "log":
        if not (start > 0 and stop > 0):
            raise ConfigurationError("sweep: log spacing requires start, stop > 0")
        return np.geomspace(start, stop, steps).tolist()
    return np.linspace(start, stop, steps).tolist()


# ---------------------------------------------------------------------------
# manifest-friendly resolved view of a config


def resolved_config(cfg: RunConfig) -> dict:
    out = {
        "scenario": cfg.scenario,
        "oscillator": {
            "m": cfg.oscillator.m,
            "omega_r": cfg.oscillator.omega_r,
            "Omega": cfg.oscillator.Omega,
            "gamma": cfg.oscillator.gamma,
            "frequency_convention": cfg.frequency_convention,
        },
        "bath": {
            "beta": cfg.bath_beta,
            "eta": cfg.bath_eta,
            "theta": cfg.bath_theta,
        },
        "quadrature": {
            "cutoff": cfg.quad.cutoff,
            "epsilon": cfg.quad.epsilon,
            "rel_tol": cfg.quad.rel_tol,
            "abs_tol": cfg.quad.abs_tol,
            "max_subdivisions": cfg.quad.max_subdivisions,
        },
        "initial_state": {"xx": cfg.init.xx, "pp": cfg.init.pp, "xp": cfg.init.xp},
        "time_grid": [float(t) for t in cfg.time_grid],
        "outputs": list(cfg.outputs),
        "units": "hbar = c = k_B = 1; frequencies in units of the "
        "configured oscillator frequency",
    }
    if cfg.profile is not None:
        out["profile"] = {
            "mass_i": cfg.profile.mass_i,
            "mass_f": cfg.profile.mass_f,
            "t_i": cfg.profile.t_i,
            "t_f": cfg.profile.t_f,
            "shape": cfg.profile.shape.value,
            "smoothstep_order": cfg.profile.smoothstep_order,
            "ramp": "tanh acts on m^2(t), centered mid-ramp, width "
            "(t_f - t_i)/6, clipped to the constants outside",
        }
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


def _build_bath(cfg: RunConfig) -> tuple[BathSpec, SqueezeSpectrum | None]:
    if cfg.scenario == "parametric":
        spectrum = squeeze_spectrum(cfg.profile, cfg.k_grid)
        bath = BathSpec(
            beta=cfg.bath_beta,
            squeeze=spectrum,
            mass_i=cfg.profile.mass_i,
            mass_f=cfg.profile.mass_f,
        )
        return bath, spectrum
    if cfg.scenario == "constant_squeeze":
        squeeze = (
            SqueezeParam(cfg.bath_eta, cfg.bath_theta) if cfg.bath_eta > 0 else None
        )
        return BathSpec(beta=cfg.bath_beta, squeeze=squeeze), None
    return BathSpec(beta=cfg.bath_beta), None


def _product_files(cfg: RunConfig, bath: BathSpec):
    """Yield (product, file stem, header, rows, params) for every requested file.

    Each time point's covariance is computed once and feeds
    ``covariances``, ``fluxes`` (P_gamma = -(2 Gamma/m) pp) and
    ``squeeze_trajectory``.  The two-time Hadamard function is symmetric
    in t <-> t', so each unordered pair of the grid is integrated once and
    written at both (t, t') and (t', t).
    """
    spec, quad, times = cfg.oscillator, cfg.quad, cfg.time_grid
    covs = []
    if {"covariances", "fluxes", "squeeze_trajectory"} & set(cfg.outputs):
        covs = [
            covariance_evolution(spec, bath, cfg.init, float(t), quad) for t in times
        ]
    for name in cfg.outputs:
        if name == "covariances":
            rows = [(t, cov.xx, cov.pp, cov.xp) for t, cov in zip(times, covs)]
            yield name, name, ("t", "xx", "pp", "xp"), rows, {}
        elif name == "fluxes":
            rows = [
                (t, power_in(spec, bath, float(t), quad), power_out(spec, bath, cov.pp))
                for t, cov in zip(times, covs)
            ]
            _, p_xi, p_gamma = zip(*rows)
            meta = flux_balance(spec, bath, times, p_xi, p_gamma)
            yield name, name, ("t", "p_xi", "p_gamma"), rows, meta
        elif name == "fdr":
            report = fdr_oscillator(spec, bath, cfg.fdr_grid)
            rows = list(
                zip(report.omegas, report.hadamard_side, report.dissipation_side)
            )
            header = ("omega", "hadamard_side", "dissipation_side")
            meta = {"max_rel_deviation": report.max_rel_deviation}
            yield name, name, header, rows, meta
        elif name == "hadamard_surface":
            grid = [float(t) for t in cfg.hadamard_grid]
            pair = {}
            for i, t in enumerate(grid):
                for j, tp in enumerate(grid[i:], start=i):
                    if cfg.hadamard_factored:
                        pair[i, j] = chi_hadamard_components(
                            spec, cfg.bath_beta, cfg.bath_theta, t, tp, quad
                        )
                    else:
                        kv = chi_hadamard(spec, bath, t, tp, quad)
                        pair[i, j] = kv.stationary, kv.nonstationary
            rows = [
                (t, tp, *pair[min(i, j), max(i, j)])
                for i, t in enumerate(grid)
                for j, tp in enumerate(grid)
            ]
            header = ("t", "t_prime", "stationary", "nonstationary")
            yield name, name, header, rows, {"factored_out": cfg.hadamard_factored}
        elif name == "squeeze_trajectory":
            rows = []
            for t, cov in zip(times, covs):
                dec = extract_squeeze(cov, spec.m, spec.omega_r)
                eta, theta = dec.squeeze.eta, dec.squeeze.theta
                rows.append(
                    (t, dec.xi, eta, theta, math.sinh(2 * eta) ** 2, math.sin(theta))
                )
            header = ("t", "xi", "eta", "theta", "sinh_sq_2eta", "sin_theta")
            yield name, name, header, rows, {}
        elif name == "ns_split":
            ins_rows, ist_rows = [], []
            for theta in cfg.ns_thetas:
                for t in times:
                    i_ns, i_st = ns_st_split(spec, cfg.bath_beta, theta, float(t), quad)
                    ins_rows.append((t, theta, i_ns))
                    ist_rows.append((t, theta, i_st))
            meta = {"thetas": list(cfg.ns_thetas)}
            yield name, "ins_vs_t", ("t", "theta", "I_NS"), ins_rows, meta
            yield name, "ist_vs_t", ("t", "theta", "I_ST"), ist_rows, meta


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


@dataclass
class RunManifest:
    config_hash: str
    tool_version: str
    regulator: dict
    wall_time_s: float
    products: list
    resolved_config: dict


def _write_manifest(out: Path, cfg: RunConfig, started: float, products, **extra):
    """Write ``run_manifest.json``; ``extra`` keys follow the manifest fields."""
    resolved = resolved_config(cfg)
    manifest = RunManifest(
        config_hash=config_hash(resolved),
        tool_version=__version__,
        regulator=resolved["quadrature"],
        wall_time_s=time.perf_counter() - started,
        products=products,
        resolved_config=resolved,
    )
    payload = {**asdict(manifest), **extra}
    (out / "run_manifest.json").write_text(
        json.dumps(payload, indent=2, default=str) + "\n"
    )
    return manifest


def run(cfg: RunConfig, out_dir) -> RunManifest:
    """Execute all requested products of a config into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    products = []

    bath, spectrum = _build_bath(cfg)
    if spectrum is not None:
        rows = zip(spectrum.k, spectrum.eta, spectrum.theta)
        params = {"k_points": int(spectrum.k.size)}
        header = ("k", "eta_k", "theta_k")
        products.append(
            _write_product(
                out, "squeeze_spectrum", "squeeze_spectrum.csv", header, rows, params
            )
        )
    for name, stem, header, rows, params in _product_files(cfg, bath):
        products.append(_write_product(out, name, f"{stem}.csv", header, rows, params))
    return _write_manifest(out, cfg, started, products)


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
    bath, _ = _build_bath(cfg)
    return list(_product_files(cfg, bath))


def run_sweep(cfg: RunConfig, out_dir, threads: int = 1) -> RunManifest:
    """Run every sweep point and collect long-format CSVs.

    Each file of :func:`run` becomes ``sweep_<file>`` with the swept value
    in front of every row.  Every point's config is parsed before any
    point runs, so a rejected value raises :class:`ConfigurationError`
    and nothing is written.  Points are independent; numerical failures
    are recorded and the remaining points still run.  Row groups follow
    the declared value order.  ``threads`` > 1 runs the points in
    min(threads, points) worker processes.
    """
    if cfg.sweep is None:
        raise ConfigurationError("config has no sweep section")
    if threads < 1:
        raise ConfigurationError(f"--threads must be >= 1, got {threads}")
    started = time.perf_counter()
    path = cfg.sweep["path"]
    values = _sweep_values(cfg.sweep)
    jobs = [_point_config(cfg.raw, path, value) for value in values]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: list = [None] * len(values)
    failures = []
    workers = min(threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_sweep_point, job): i for i, job in enumerate(jobs)}
            for future in as_completed(futures):
                i = futures[future]
                try:
                    results[i] = future.result()
                except SqbathError as exc:
                    failures.append({"value": values[i], "error": str(exc)})
    else:
        for i, job in enumerate(jobs):
            try:
                results[i] = _sweep_point(job)
            except SqbathError as exc:
                failures.append({"value": values[i], "error": str(exc)})

    files: dict = {}  # file stem -> (product, header, rows, params by value)
    for value, result in zip(values, results):
        for name, stem, header, rows, params in result or ():
            entry = files.setdefault(stem, (name, (path, *header), [], {}))
            entry[2].extend((value, *row) for row in rows)
            entry[3][repr(value)] = params
    products = [
        _write_product(out, name, f"sweep_{stem}.csv", header, rows, metas)
        for stem, (name, header, rows, metas) in files.items()
    ]
    manifest = _write_manifest(out, cfg, started, products, sweep_failures=failures)
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


def _load_yaml(path: str) -> dict:
    try:
        with open(path, "r") as handle:
            return yaml.safe_load(handle)
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

    run_p = sub.add_parser("run", help="execute one scenario config")
    run_p.add_argument("--config", help="YAML config path")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--figure", choices=FIGURES, help="built-in figure preset")

    sweep_p = sub.add_parser("sweep", help="execute the sweep block of a config")
    sweep_p.add_argument("--config", help="YAML config path")
    sweep_p.add_argument("--out", required=True, help="output directory")
    sweep_p.add_argument("--threads", type=int, default=1)
    sweep_p.add_argument("--figure", choices=FIGURES, help="built-in figure preset")

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
            if cfg.sweep is None:
                raise ConfigurationError("config has no sweep section")
            manifest = run_sweep(cfg, args.out, threads=getattr(args, "threads", 1))
        else:
            manifest = run(cfg, args.out)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SqbathError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        if getattr(exc, "diagnostics", None):
            print(f"diagnostics: {json.dumps(exc.diagnostics, default=str)}", file=sys.stderr)
        return 3

    print(f"wrote {len(manifest.products)} product(s); config {manifest.config_hash[:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
