"""Audit the stored benchmark reference against the oracles of ``tests/oracles.py``.

    PYTHONPATH=src python tools/audit_reference.py [--seeds N]

For the squeeze-products and thermal-sweep workloads, seeds 0..N-1
(default 10) of ``perfbench/reference.jsonl``, every stored value is
recomputed from the Filon-Legendre oracles (``covariance_oracle``,
``chi_oracle``) and the array oracles of the bath, and the config is run
by this checkout's engine into a temporary directory.  For each workload
and column it prints the number of rows, how many stored values and how
many engine values lie within the tolerance ``perfbench/checks.py``
applies, measured against the oracle, and the worst row of each.  A row
whose tolerance is below the oracle's own spread (how far the column
moves with the oracle's panels halved) is counted as undecided.  The
mass-ramp workload is listed, not audited: its rows rest on the squeeze
spectrum, for which there is no oracle yet.

It then prints the engine against the oracle at the points where the
engine is known to miss without an error, and setting C's covariances at
cutoffs 1e3-1e5.  It reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # nothing is written under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from oracles import (  # noqa: E402
    chi_oracle,
    covariance_oracle,
    fundamental_solutions,
    omega_coth_half_beta,
)
from sqbath import cli  # noqa: E402
from sqbath.bath_kernels import BathSpec  # noqa: E402
from sqbath.errors import ConvergenceError  # noqa: E402
from sqbath.gaussian_state import CovarianceState, SqueezeParam, extract_squeeze  # noqa: E402
from sqbath.oscillator_dynamics import (  # noqa: E402
    OscillatorSpec,
    chi_hadamard_components,
    covariance_evolution,
    effective_response,
)
from sqbath.quadrature import QuadratureConfig  # noqa: E402

AUDITED = ("squeeze-products", "thermal-sweep")
# the leading columns of each file that are coordinates, not values
KEYS = {
    "covariances.csv": 1,
    "fluxes.csv": 1,
    "fdr.csv": 1,
    "hadamard_surface.csv": 2,
    "ins_vs_t.csv": 2,
    "ist_vs_t.csv": 2,
    "squeeze_trajectory.csv": 1,
}


# ---------------------------------------------------------------------------
# oracle rows of one run config


def covariance(spec, bath, init: CovarianceState, t: float, quad, split: int = 1):
    """(xx, pp, xp, P_xi) at t: the initial state carried by the
    fundamental solutions plus the oracle's integral parts."""
    d1, d2, d1d, d2d = fundamental_solutions(effective_response(spec, bath), t)
    m = spec.m
    i_xx, i_pp, i_xp, p_xi = covariance_oracle(spec, bath, t, quad, split)
    xx = d1 * d1 * init.xx + (d2 / m) ** 2 * init.pp + 2.0 * d1 * d2 * init.xp / m + i_xx
    pp = (m * d1d) ** 2 * init.xx + d2d * d2d * init.pp + 2.0 * m * d1d * d2d * init.xp + i_pp
    xp = m * d1 * d1d * init.xx + d2 * d2d * init.pp / m + (d1 * d2d + d1d * d2) * init.xp + i_xp
    return xx, pp, xp, p_xi


def fdr_rows(spec, bath, omegas):
    """Both sides of the oscillator FDR of a massless constant-squeeze
    bath from their defining formulas, extended evenly; at w = 0 the
    dissipation side takes the hadamard side's limit."""
    aw = np.abs(omegas)
    ch2 = bath.constant_squeeze().cosh2eta
    w_coth = omega_coth_half_beta(aw, bath.beta)
    g = 1.0 / (spec.omega_r**2 - aw**2 - 2j * spec.gamma * aw)
    hadamard = (2.0 * spec.gamma / spec.m) * ch2 * np.abs(g) ** 2 * w_coth
    coth = np.divide(w_coth, aw, out=np.zeros_like(aw), where=aw > 0.0)
    dissipation = np.where(aw > 0.0, ch2 * coth * g.imag / spec.m, hadamard)
    return [list(r) for r in zip(omegas, hadamard, dissipation)]


def oracle_files(cfg, split: int) -> dict:
    """file name -> rows of every product of a single-run config, each
    panel of the oracles cut into ``split``."""
    spec, quad, bath = cfg.oscillator, cfg.quad, cli._build_bath(cfg)
    times = [float(t) for t in cfg.time_grid]
    cov = {t: covariance(spec, bath, cfg.init, t, quad, split) for t in times}
    gamma_damp = effective_response(spec, bath).gamma
    files = {}
    for name in cfg.outputs:
        if name == "covariances":
            files["covariances.csv"] = [[t, *cov[t][:3]] for t in times]
        elif name == "fluxes":
            files["fluxes.csv"] = [
                [t, cov[t][3], -(2.0 * gamma_damp / spec.m) * cov[t][1]] for t in times
            ]
        elif name == "fdr":
            omegas = cfg.fdr_grid[np.abs(cfg.fdr_grid) >= bath.mass_i * (1.0 + 1e-12)]
            files["fdr.csv"] = fdr_rows(spec, bath, omegas)
        elif name == "hadamard_surface":
            rows = []
            for t in map(float, cfg.hadamard_grid):
                for tp in map(float, cfg.hadamard_grid):
                    full, unit = chi_oracle(spec, bath, t, tp, quad, split)
                    rows.append([t, tp, *(unit if cfg.hadamard_factored else full)])
            files["hadamard_surface.csv"] = rows
        elif name == "squeeze_trajectory":
            rows = []
            for t in times:
                xx, pp, xp, _ = cov[t]
                dec = extract_squeeze(CovarianceState(xx, pp, xp), spec.m, spec.omega_r)
                eta, theta = dec.squeeze.eta, dec.squeeze.theta
                rows.append([t, dec.xi, eta, theta, math.sinh(2 * eta) ** 2, math.sin(theta)])
            files["squeeze_trajectory.csv"] = rows
        elif name == "ns_split":
            ins, ist = [], []
            for theta in cfg.ns_thetas:
                probe = BathSpec(bath.beta, SqueezeParam(0.0, theta))
                for t in times:
                    stat, nonstat = chi_oracle(spec, probe, t, t, quad, split)[1]
                    ins.append([t, theta, nonstat])
                    ist.append([t, theta, stat])
            files["ins_vs_t.csv"], files["ist_vs_t.csv"] = ins, ist
    return files


def oracle_run(config: dict, split: int = 1) -> dict:
    """file name -> rows, as ``sqbath run`` or ``sqbath sweep`` writes them."""
    sweep = config.get("sweep")
    if sweep is None:
        return oracle_files(cli.parse_config(config), split)
    section, key = sweep["path"].split(".")
    out: dict = {}
    for value in sweep["values"]:
        point = copy.deepcopy(config)
        point.pop("sweep")
        point[section][key] = value
        for name, rows in oracle_files(cli.parse_config(point), split).items():
            out.setdefault(f"sweep_{name}", []).extend([value, *r] for r in rows)
    return out


def engine_run(config: dict) -> dict:
    """file name -> rows of this checkout's engine on the config."""
    cfg = cli.parse_config(config)
    with tempfile.TemporaryDirectory() as tmp:
        (cli.run if cfg.sweep is None else cli.run_sweep)(cfg, tmp)
        return {path.name: checks.read_csv(path)[1] for path in Path(tmp).glob("*.csv")}


# ---------------------------------------------------------------------------
# the audit


def audit(workload: str, seeds: int) -> None:
    """Print the audit of one workload's stored rows, seeds 0..seeds-1."""
    lines = (ROOT / "perfbench" / "reference.jsonl").read_text().splitlines()
    entries = [
        e for e in map(json.loads, lines) if e["workload"] == workload and e["seed"] < seeds
    ]
    stats: dict = {}  # (file, column) -> Column
    for entry in entries:
        config = entry["config"]
        oracle, halved, engine = oracle_run(config), oracle_run(config, 2), engine_run(config)
        for name, ref in entry["files"].items():
            header = ref["header"]
            keys = KEYS[name.removeprefix("sweep_")] + name.startswith("sweep_")
            for j in range(keys, len(header)):
                column = stats.setdefault((name, header[j]), Column())
                column.add(entry["seed"], header[j], [row[j] for row in oracle[name]],
                           [row[j] for row in halved[name]], [row[j] for row in ref["rows"]],
                           [row[j] for row in engine[name]])
    print(f"\n{workload}: seeds 0-{seeds - 1}, within rel err {checks.RTOL:g} of the oracle "
          "(checks.py's floors); undecided: rows whose tolerance is below the oracle's "
          "own spread in the column (its move with the panels halved)")
    print(f"  {'file: column':36} {'rows':>5} {'undecided':>9} {'stored ok':>9} "
          f"{'engine ok':>9}  worst stored | worst engine")
    for (name, col), c in stats.items():
        print(f"  {name + ': ' + col:36} {c.rows:5d} {c.undecided:9d} {c.ok[0]:9d} "
              f"{c.ok[1]:9d}  {_worst(c.worst[0])} | {_worst(c.worst[1])}")


class Column:
    """The verdicts on one column of one file over the audited seeds."""

    def __init__(self):
        self.rows = self.undecided = 0
        self.ok = [0, 0]  # stored, engine
        self.worst = [(0.0, None), (0.0, None)]

    def add(self, seed, col, exact, halved, stored, engine):
        """Judge one run's column as checks.py does, against ``exact``; a row
        whose tolerance is below the oracle's spread (``exact`` against
        ``halved`` over the column) is undecided."""
        angle = col in checks.ANGLES
        floor = checks.FLOOR * max(map(abs, exact)) if col in checks.ZERO_CROSSING else 0.0
        spread = max(abs(_diff(h, want, angle)) for h, want in zip(halved, exact))
        for i, want in enumerate(exact):
            self.rows += 1
            if spread > checks.RTOL * max(abs(want), floor):
                self.undecided += 1
                continue
            for k, values in enumerate((stored, engine)):
                err = checks._rel_err(values[i], want, floor, angle)
                self.ok[k] += err <= checks.RTOL
                if err >= self.worst[k][0]:
                    self.worst[k] = (err, (seed, i, values[i], want))


def _diff(value: float, want: float, angle: bool) -> float:
    diff = value - want
    return (diff + math.pi) % (2.0 * math.pi) - math.pi if angle else diff


def _worst(worst) -> str:
    err, where = worst
    if where is None:
        return "-"
    seed, row, value, want = where
    return f"{err:.1e} (seed {seed} row {row}: {value:.9g} vs {want:.9g})"


def _state(cov: CovarianceState, spec) -> str:
    dec = extract_squeeze(cov, spec.m, spec.omega_r)
    return (f"xx {cov.xx:.9g} pp {cov.pp:.9g} xp {cov.xp:.3e} "
            f"Xi {dec.xi:.9g} eta {dec.squeeze.eta:.7g}")


def misses() -> None:
    """The engine against the oracle where it is known to miss silently."""
    spec = OscillatorSpec(m=1.0, omega_r=1.0, gamma=0.1)
    cold = BathSpec(math.inf)
    print("\nsilent misses (gamma = 0.1, beta = inf, theta = 0; unit-weight split):")
    for what, t, tp, quad in (
        ("S(55, 60), cutoff 1e3", 55.0, 60.0, QuadratureConfig(cutoff=1e3)),
        ("NS(40, 40), epsilon 1e-2", 40.0, 40.0, QuadratureConfig(epsilon=1e-2)),
        ("NS(20, 20), cutoff 1e4", 20.0, 20.0, QuadratureConfig(cutoff=1e4)),
    ):
        got = chi_hadamard_components(spec, cold, 0.0, t, tp, quad)
        (s, ns) = chi_oracle(spec, cold, t, tp, quad)[1]
        g, o = (got.stationary, s) if what.startswith("S") else (got.nonstationary, ns)
        print(f"  {what:26} engine {g:.9e}  oracle {o:.9e}  "
              f"diff {g - o:.2e} ({abs(g - o) / abs(s):.1e} of S)")
    spec = OscillatorSpec.from_resonance(1.0, 1.0, 0.1)
    init, bath, t = CovarianceState(2.0, 1.0, 0.0), BathSpec(0.3), 300.0
    print(f"\nsetting C, gamma = 0.1, beta = 0.3, t = {t:g} (engine | oracle):")
    for cutoff in (1e3, 1e4, 1e5):
        quad = QuadratureConfig(cutoff=cutoff)
        oracle = _state(CovarianceState(*covariance(spec, bath, init, t, quad)[:3]), spec)
        try:
            engine = _state(covariance_evolution(spec, bath, init, t, quad), spec)
        except ConvergenceError as exc:
            engine = f"ConvergenceError, ier {exc.diagnostics['ier']}: {str(exc).split(':')[0]}"
        print(f"  cutoff {cutoff:.0e}: {engine} | {oracle}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 (default 10)")
    args = parser.parse_args(argv)
    for workload in AUDITED:
        audit(workload, args.seeds)
    print("\nmass-ramp: not audited; its rows rest on the squeeze spectrum, "
          "which has no oracle yet (ROADMAP Direction O)")
    misses()
    return 0


if __name__ == "__main__":
    sys.exit(main())
