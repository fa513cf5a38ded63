import concurrent.futures
import copy
import csv
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import yaml

import sqbath.cli
import sqbath.parametric_mode
from sqbath.cli import config_hash, figure_preset, main, parse_config, run, run_sweep
from sqbath.errors import ConfigurationError, ConvergenceError
from sqbath.gaussian_state import CovarianceState, extract_squeeze
from sqbath.oscillator_dynamics import covariance_integral_parts
from sqbath.parametric_mode import MassProfile, squeeze_spectrum

SMALL_CONSTANT = {
    "scenario": "constant_squeeze",
    "oscillator": {"m": 1.0, "omega_r": 1.0, "gamma": 0.1},
    "bath": {"beta": 0.3, "eta": 1.0, "theta": 0.0},
    "quadrature": {"cutoff": 200.0},
    "time_grid": {"start": 5.0, "stop": 20.0, "points": 4},
    "fdr_grid": {"start": -5.0, "stop": 5.0, "points": 51},
    "outputs": ["covariances", "fdr"],
}


# a config that has every section the parser reads
EVERY_SECTION = {
    "scenario": "parametric",
    "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.1},
    "bath": {"beta": 1.0},
    "profile": {"mass_i": 0.0, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0},
    "k_grid": {"start": 0.1, "stop": 10.0, "points": 8},
    "quadrature": {"cutoff": 100.0},
    "initial_state": {"xx": 0.5, "pp": 0.5},
    "time_grid": {"start": 5.0, "stop": 20.0, "points": 2},
    "fdr_grid": {"start": 0.1, "stop": 5.0, "points": 3},
    "hadamard_grid": {"start": 5.0, "stop": 6.0, "points": 2},
    "outputs": ["covariances", "fdr", "hadamard_surface"],
    "sweep": {"path": "bath.beta", "values": [1.0, 2.0]},
}
PARAMETRIC = {key: value for key, value in EVERY_SECTION.items() if key != "sweep"}

# config_hash of the shipped configs, presets and workload configs (seed 0):
# the key and value checks must leave what they resolve to unchanged
SHIPPED_HASHES = {
    "constant_squeeze": "45c3f6d5a8de00ab",
    "parametric": "74699d1f361628e5",
    "finite_coupling": "27568f0eb9a6101b",
    "4": "194cc330bfc46417",
    "5": "194cc330bfc46417",
    "6": "20906212820e2f50",
    "7": "efd71b21b9c85c4b",
    "grn3d": "77520f6b018e8963",
    "tan2eta": "e0d1db5288a3dcd7",
    "tanphi": "e0d1db5288a3dcd7",
    "squeeze-products": "fd32b765964a1ae7",
    "mass-ramp": "73640fabe5f1b897",
    "thermal-sweep": "cda4a6d977f95e51",
}
REPO = Path(__file__).resolve().parents[1]

# +-inf is a number only for bath.beta (zero temperature); for every other
# key it once ran to NaN or inf rows, or failed after the run had started
NON_FINITE = {
    "time_grid.stop": {"time_grid": {"start": 5.0, "stop": math.inf, "points": 4}},
    "oscillator.m": {"oscillator": {"m": math.inf}},
    "oscillator.omega_r": {"oscillator": {"omega_r": math.inf}},
    "initial_state.xx": {"initial_state": {"xx": math.inf, "pp": 0.5}},
    "ns_thetas": {"ns_thetas": [math.inf], "outputs": ["ns_split"]},
    "fdr_grid.stop": {"fdr_grid": {"start": -5.0, "stop": math.inf, "points": 51}},
    "quadrature.rel_tol": {"quadrature": {"cutoff": 200.0, "rel_tol": math.inf}},
    "quadrature.cutoff": {"quadrature": {"cutoff": math.inf}},
    "quadrature.epsilon": {"quadrature": {"cutoff": 200.0, "epsilon": math.inf}},
    "bath.eta": {"bath": {"beta": 1.0, "eta": math.inf}},
    "bath.theta": {"bath": {"beta": 1.0, "eta": 0.5, "theta": math.inf}},
}

INVALID_VALUES = {
    "negative-eta": {"bath": {"beta": 1.0, "eta": -0.5}},
    "negative-beta": {"bath": {"beta": -1.0, "eta": 0.5}},
    "grid-spacing-word": {
        "time_grid": {"start": 1, "stop": 9, "points": 3, "spacing": "logarithmic"}
    },
    "factored-string": {"hadamard_factored": "false"},
    "sweep-path-misspelt": {"sweep": {"path": "bath.bta", "values": [1.0]}},
    "sweep-path-no-section": {"sweep": {"path": "gamma", "values": [0.1]}},
    "sweep-spacing-word": {
        "sweep": {"path": "bath.beta", "start": 1, "stop": 2, "steps": 2, "spacing": "log2"}
    },
    # a lone value where a list belongs is rejected, not iterated
    "ns-thetas-scalar": {"ns_thetas": 0.5, "outputs": ["ns_split"]},
    "sweep-values-scalar": {"sweep": {"path": "bath.beta", "values": 2.0}},
    "outputs-string": {"outputs": "covariances"},
    # a repeated product was computed twice and listed twice in the manifest
    "outputs-repeated": {"outputs": ["covariances", "covariances"]},
    # a fractional or boolean count is rejected, not rounded
    "points-fractional": {"time_grid": {"start": 1, "stop": 9, "points": 2.7}},
    "steps-boolean": {"sweep": {"path": "bath.beta", "start": 1, "stop": 2, "steps": True}},
    "steps-fractional": {"sweep": {"path": "bath.beta", "start": 1, "stop": 2, "steps": 2.5}},
    # a boolean number is rejected, not read as 1.0 or 0.0
    "eta-boolean": {"bath": {"beta": 1.0, "eta": True}},
    "cutoff-boolean": {"quadrature": {"cutoff": True}},
    **{f"{key}-inf": case for key, case in NON_FINITE.items()},
}

# a repeated angle or sweep point once wrote its rows twice; the message
# starts with the list's key.  Values are compared as parsed floats.
REPEATED_VALUES = {
    "ns_thetas": {"ns_thetas": [0.5, "0.5"], "outputs": ["ns_split"]},
    "sweep.values": {"sweep": {"path": "bath.theta", "values": [0.5, "0.5"]}},
    "sweep": {"sweep": {"path": "bath.theta", "start": 0.5, "stop": 0.5, "steps": 2}},
}

# sections this run does not read are checked all the same; the message
# names the bad key (or the section that is not a mapping)
UNREAD_SECTIONS = {
    "strat": {"k_grid": {"strat": 1}},
    "k_grid": {"k_grid": "nonsense"},
    "stpo": {"fdr_grid": {"stpo": 3}, "outputs": ["covariances"]},
    "x": {"hadamard_grid": {"x": 1}},
}
# values that once ran with exit 0 or failed after the run had started; the
# message starts with the key (id: (key, case))
REFUSED_KEYS = {
    # the uncoupled response has a real pole at omega_r: exit 3, ier 5
    "gamma-zero": ("oscillator.gamma", {"oscillator": {"omega_r": 1.0, "gamma": 0.0}}),
    # nan rows where the fdr grid meets omega_r, max_rel_deviation 0.0
    "gamma-zero-fdr": (
        "oscillator.gamma",
        {"oscillator": {"omega_r": 1.0, "gamma": 0.0}, "outputs": ["fdr"]},
    ),
    # values swept, the range silently dropped
    "sweep-values-and-range": (
        "sweep", {"sweep": {"path": "bath.beta", "values": [1.0, 2.0], "start": 1}}
    ),
    # start swept alone
    "sweep-one-step": (
        "sweep", {"sweep": {"path": "bath.beta", "start": 0.1, "stop": 0.3, "steps": 1}}
    ),
    # only the manifest was written
    "outputs-empty": ("outputs", {"outputs": []}),
    # two CSVs of headers only
    "ns-thetas-empty": ("ns_thetas", {"ns_thetas": [], "outputs": ["ns_split"]}),
    # cosh 2eta overflowed: an uncaught OverflowError, exit 1
    "eta-overflow": ("bath.eta", {"bath": {"beta": 0.3, "eta": 400.0}}),
}
INVALID_VALUES.update({f"{key}-repeated": case for key, case in REPEATED_VALUES.items()})
INVALID_VALUES.update({f"unread-{key}": case for key, case in UNREAD_SECTIONS.items()})

# config errors of a parametric run that once surfaced as numerical errors
# (exit 3) after the run had started writing
RUN_TIME_CONFIG_ERRORS = {
    "time_grid": {"time_grid": {"start": -1.0, "stop": 20.0, "points": 2}},
    "hadamard_grid": {"hadamard_grid": {"start": -1.0, "stop": 6.0, "points": 2}},
    "k_grid": {"k_grid": {"start": 0.0, "stop": 10.0, "points": 8, "spacing": "linear"}},
    "k_grid.points": {"k_grid": {"start": 0.1, "stop": 10.0, "points": 4}},
    "profile.mass_f": {"profile": {"mass_i": 0.0, "mass_f": 1.0, "t_i": 0.0, "t_f": 2.0}},
    # at or above the cutoff 100 the frequency integrals would be empty or reversed
    "profile.mass_i": {"profile": {"mass_i": 150.0, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0}},
    "fdr_grid": {
        "profile": {"mass_i": 0.5, "mass_f": 0.25, "t_i": 0.0, "t_f": 2.0},
        "fdr_grid": {"start": 0.1, "stop": 0.4, "points": 3},
    },
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def strict_json(text):
    """``text`` parsed as strict JSON: NaN, Infinity and -Infinity refused."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


def read_rows(path):
    """Header and rows of a product CSV, parsed with Python's float."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, [tuple(float(v) for v in row) for row in rows]


@pytest.fixture(scope="module")
def parametric_run(tmp_path_factory):
    """Exit code, config and output directory of a parametric Hadamard run."""
    data = dict(PARAMETRIC, outputs=["hadamard_surface"])
    base = tmp_path_factory.mktemp("parametric")
    cfgp = write_config(base, data)
    code = main(["run", "--config", str(cfgp), "--out", str(base / "out")])
    return code, parse_config(data), base / "out"


class TestConfigParsing:
    def test_defaults_materialized(self):
        cfg = parse_config(dict(SMALL_CONSTANT))
        assert cfg.init.xx == pytest.approx(0.5)  # oscillator ground state
        assert cfg.quad.cutoff == 200.0
        assert cfg.outputs == ("covariances", "fdr")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError):
            parse_config({"scenario": "nope"})

    def test_scenario_consistency(self):
        bad = dict(SMALL_CONSTANT)
        bad["profile"] = {"mass_i": 0.0, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0}
        with pytest.raises(ConfigurationError):
            parse_config(bad)
        bad2 = {
            "scenario": "parametric",
            "bath": {"beta": 1.0},
            "outputs": ["covariances"],
        }
        with pytest.raises(ConfigurationError):
            parse_config(bad2)  # missing profile
        bad3 = {"scenario": "finite_coupling", "bath": {"beta": 1.0, "eta": 0.5}}
        with pytest.raises(ConfigurationError):
            parse_config(bad3)  # eta only meaningful for constant squeeze

    def test_infinite_beta_accepted(self):
        data = dict(SMALL_CONSTANT)
        data["bath"] = {"beta": "inf", "eta": 0.5}
        cfg = parse_config(data)
        assert math.isinf(cfg.bath_beta)
        # a swept inf is parsed again by its point, where beta takes it
        data["sweep"] = {"path": "bath.beta", "values": [1.0, ".inf"]}
        cfg = parse_config(data)
        assert math.isinf(sqbath.cli._point_config(cfg.raw, "bath.beta", math.inf).bath_beta)

    def test_empty_sweep_rejected(self):
        data = dict(SMALL_CONSTANT)
        data["sweep"] = {"path": "bath.eta", "values": []}
        with pytest.raises(ConfigurationError):
            parse_config(data)

    def test_shipped_configs_keep_their_hash(self, workloads):
        configs = {
            name: yaml.safe_load((REPO / "configs" / f"{name}.yaml").read_text())
            for name in ("constant_squeeze", "parametric", "finite_coupling")
        }
        configs.update({name: figure_preset(name) for name in sqbath.cli.FIGURES})
        configs.update(
            {name: w.make_config(0) for name, w in workloads.WORKLOADS.items()}
        )
        hashes = {
            name: config_hash(sqbath.cli.resolved_config(parse_config(data)))[:16]
            for name, data in configs.items()
        }
        assert hashes == SHIPPED_HASHES

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "time_gird"),
            ("oscillator", "gama"),
            ("bath", "bta"),
            ("profile", "mass_ff"),
            ("k_grid", "point"),
            ("quadrature", "cutof"),
            ("initial_state", "x"),
            ("time_grid", "stpo"),
            ("fdr_grid", "spaceing"),
            ("hadamard_grid", "strat"),
            ("sweep", "vals"),
        ],
    )
    def test_misspelt_key_exit_code(self, tmp_path, capsys, section, key):
        parse_config(EVERY_SECTION)  # valid as it stands
        data = copy.deepcopy(EVERY_SECTION)
        (data if section is None else data[section])[key] = 1.0
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("case", INVALID_VALUES.values(), ids=INVALID_VALUES.keys())
    def test_invalid_value_exit_code(self, tmp_path, capsys, case):
        data = dict(SMALL_CONSTANT, **case)
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert "unknown output product 'c'" not in capsys.readouterr().err

    @pytest.mark.parametrize("key, case", REFUSED_KEYS.values(), ids=REFUSED_KEYS.keys())
    def test_refusal_names_its_key(self, tmp_path, capsys, key, case):
        cfgp = write_config(tmp_path, dict(SMALL_CONSTANT, **case))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")

    def test_repeated_yaml_key_names_key_and_line(self, tmp_path, capsys):
        # PyYAML kept the last value: this config ran at gamma = 0.1
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text(
            "scenario: constant_squeeze\n"
            "oscillator:\n"
            "  gamma: 0.3\n"
            "  gamma: 0.1\n"
            "outputs: [fdr]\n"
        )
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        err = capsys.readouterr().err
        assert "repeated key 'gamma'" in err and "line 4" in err

    def test_merged_yaml_keys_may_be_overridden(self, tmp_path):
        cfgp = tmp_path / "cfg.yaml"
        cfgp.write_text("base: &b {gamma: 0.3, m: 1.0}\nosc: {<<: *b, gamma: 0.1}\n")
        assert sqbath.cli._load_yaml(str(cfgp))["osc"] == {"gamma": 0.1, "m": 1.0}

    @pytest.mark.parametrize("key", REPEATED_VALUES)
    def test_repeated_value_names_its_list(self, key):
        message = f"^{re.escape(key)}: 0.5 appears twice$"
        with pytest.raises(ConfigurationError, match=message):
            parse_config(dict(SMALL_CONSTANT, **REPEATED_VALUES[key]))

    @pytest.mark.parametrize("key", UNREAD_SECTIONS)
    def test_unread_section_names_its_key(self, tmp_path, capsys, key):
        cfgp = write_config(tmp_path, dict(SMALL_CONSTANT, **UNREAD_SECTIONS[key]))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", NON_FINITE)
    def test_non_finite_value_names_its_key(self, key):
        message = f"^{re.escape(key)}: expected a finite number, got inf$"
        with pytest.raises(ConfigurationError, match=message):
            parse_config(dict(SMALL_CONSTANT, **NON_FINITE[key]))

    @pytest.mark.parametrize(
        "key, case", RUN_TIME_CONFIG_ERRORS.items(), ids=RUN_TIME_CONFIG_ERRORS.keys()
    )
    def test_run_time_config_error_caught_at_parse(self, tmp_path, capsys, key, case):
        cfgp = write_config(tmp_path, dict(PARAMETRIC, **case))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")

    # constant-squeeze products that a parametric config once computed,
    # with exit 0, from the bath's beta and theta alone, ignoring the profile
    @pytest.mark.parametrize(
        "key, case",
        [
            ("outputs", {"outputs": ["covariances", "ns_split"]}),
            ("hadamard_factored", {"hadamard_factored": True}),
        ],
    )
    def test_parametric_refuses_factored_products(self, tmp_path, capsys, key, case):
        cfgp = write_config(tmp_path, dict(PARAMETRIC, **case))
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err.startswith(f"configuration error: {key}")

    def test_both_frequencies_reported_once(self, tmp_path, capsys):
        data = dict(SMALL_CONSTANT, oscillator={"Omega": 1.0, "omega_r": 1.0})
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: oscillator: give either omega_r or Omega, not both\n"
        )

    @pytest.mark.parametrize("shape, words", [("smoothstep", "smoothstep"), ("step", "jumps")])
    def test_manifest_ramp_describes_the_shape(self, shape, words):
        data = dict(PARAMETRIC, profile={**PARAMETRIC["profile"], "shape": shape})
        ramp = sqbath.cli.resolved_config(parse_config(data))["profile"]["ramp"]
        assert words in ramp and "tanh" not in ramp

    def test_integral_float_count_accepted(self):
        data = dict(SMALL_CONSTANT, time_grid={"start": 5.0, "stop": 20.0, "points": 4.0})
        assert parse_config(data).time_grid.size == 4


class TestRun:
    def test_products_and_manifest(self, tmp_path):
        cfg = parse_config(dict(SMALL_CONSTANT))
        manifest = run(cfg, tmp_path)
        assert (tmp_path / "covariances.csv").exists()
        assert (tmp_path / "fdr.csv").exists()
        payload = json.loads((tmp_path / "run_manifest.json").read_text())
        assert payload == json.loads(json.dumps(manifest, default=str))
        assert payload["regulator"]["cutoff"] == 200.0
        names = {p["name"] for p in payload["products"]}
        assert names == {"covariances", "fdr"}
        # parameters fully recoverable: resolved config embedded
        assert payload["resolved_config"]["time_grid"][0] == 5.0
        import hashlib

        for product in payload["products"]:
            body = (tmp_path / product["file"]).read_bytes()
            assert hashlib.sha256(body).hexdigest() == product["sha256"]

    def test_default_fdr_grid_is_mirrored(self, tmp_path):
        # w and -w of the default grid are exact negatives, so fdr_oscillator
        # reads 501 base rows, one per |w|, and fdr.csv has equal rows at +-w
        data = {key: value for key, value in SMALL_CONSTANT.items() if key != "fdr_grid"}
        data["outputs"] = ["fdr"]
        cfg = parse_config(data)
        grid = cfg.fdr_grid
        assert grid.size == 1001 and grid[0] == -10.0 and grid[-1] == 10.0
        np.testing.assert_array_equal(grid, -grid[::-1])
        assert np.unique(np.abs(grid)).size == 501
        run(cfg, tmp_path)
        _, body = read_rows(tmp_path / "fdr.csv")
        assert [row[0] for row in body] == grid.tolist()
        for row, mirror in zip(body, reversed(body)):
            assert row[1:] == mirror[1:]

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(dict(SMALL_CONSTANT))
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("covariances.csv", "fdr.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_one_product_path(self, tmp_path, monkeypatch):
        # each time point's covariance feeds covariances, fluxes and
        # squeeze_trajectory; each unordered Hadamard pair is integrated once
        data = dict(SMALL_CONSTANT)
        data["time_grid"] = {"start": 5.0, "stop": 20.0, "points": 3}
        data["hadamard_grid"] = {"start": 5.0, "stop": 10.0, "points": 3}
        data["hadamard_factored"] = True
        data["outputs"] = [
            "covariances", "fluxes", "squeeze_trajectory", "hadamard_surface"
        ]
        calls = {"covariance_evolution": 0, "chi_hadamard_components": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            original = getattr(sqbath.cli, name)
            monkeypatch.setattr(sqbath.cli, name, counted(name, original))
        run(parse_config(data), tmp_path)
        assert calls == {"covariance_evolution": 3, "chi_hadamard_components": 6}

        _, covs = read_rows(tmp_path / "covariances.csv")
        _, fluxes = read_rows(tmp_path / "fluxes.csv")
        _, trajectory = read_rows(tmp_path / "squeeze_trajectory.csv")
        assert len(covs) == len(fluxes) == len(trajectory) == 3
        for (t, xx, pp, xp), flux, squeeze in zip(covs, fluxes, trajectory):
            # P_gamma = -(2 gamma / m) pp, bit for bit
            assert flux[0] == t and flux[2] == -(2.0 * 0.1 / 1.0) * pp
            dec = extract_squeeze(CovarianceState(xx=xx, pp=pp, xp=xp), 1.0, 1.0)
            eta, theta = dec.squeeze.eta, dec.squeeze.theta
            assert squeeze == (
                t, dec.xi, eta, theta, math.sinh(2 * eta) ** 2, math.sin(theta)
            )
        _, surface = read_rows(tmp_path / "hadamard_surface.csv")
        assert len(surface) == 9
        values = {(t, tp): rest for t, tp, *rest in surface}
        assert all(values[t, tp] == values[tp, t] for t, tp in values)

    def test_parametric_hadamard_surface(self, parametric_run):
        # chi_hadamard serves every bath; at (t, t) its total is the driven xx
        code, cfg, out = parametric_run
        assert code == 0
        bath = sqbath.cli._build_bath(cfg)
        _, rows = read_rows(out / "hadamard_surface.csv")
        diagonal = [(t, st + ns) for t, tp, st, ns in rows if t == tp]
        assert len(diagonal) == 2
        for t, total in diagonal:
            i_xx = covariance_integral_parts(cfg.oscillator, bath, t, cfg.quad)[0]
            assert abs(total - i_xx) <= 1e-14 * abs(i_xx)

    def test_unresolved_spectrum_refused_before_writing(self, tmp_path, capsys):
        # the k grid stops at 1, where the ramp's squeezing is still large
        data = dict(PARAMETRIC, outputs=["covariances"])
        data["k_grid"] = {"start": 0.1, "stop": 1.0, "points": 8}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: k_grid: squeeze spectrum is not resolved")
        assert not out.exists()

    def test_failed_run_writes_nothing(self, tmp_path, capsys):
        # the squeeze spectrum is computed, then the covariances fail; the
        # spectrum's CSV was once left behind alone
        data = dict(PARAMETRIC, outputs=["covariances"])
        data["quadrature"] = {"cutoff": 100.0, "max_subdivisions": 10}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 3
        assert "subdivision limit reached" in capsys.readouterr().err
        assert not out.exists()

    def test_squeeze_spectrum_csv(self, parametric_run):
        # written like every product: LF line ends, 17 significant digits
        _, cfg, out = parametric_run
        assert b"\r" not in (out / "squeeze_spectrum.csv").read_bytes()
        header, rows = read_rows(out / "squeeze_spectrum.csv")
        assert header == ["k", "eta_k", "theta_k"]
        spectrum = squeeze_spectrum(cfg.profile, cfg.k_grid)
        expected = np.column_stack([spectrum.k, spectrum.eta, spectrum.theta])
        np.testing.assert_array_equal(np.array(rows), expected)

    def test_header_and_precision(self, tmp_path):
        cfg = parse_config(dict(SMALL_CONSTANT))
        run(cfg, tmp_path)
        lines = (tmp_path / "covariances.csv").read_text().splitlines()
        assert lines[0] == "t,xx,pp,xp"
        first = lines[1].split(",")
        assert len(first) == 4
        assert "e" in first[0]  # scientific notation, 17 significant digits
        assert len(first[0].split("e")[0].replace("-", "").replace(".", "")) == 17

    @pytest.mark.parametrize("eta", [178.0, 200.0])
    def test_large_bath_squeeze_trajectory_is_finite(self, tmp_path, eta):
        # xx pp overflows a float from about eta = 178; Xi and eta of each
        # row match their closed forms evaluated in mpmath on the written
        # covariance (17 significant digits round-trip a float)
        data = dict(SMALL_CONSTANT, outputs=["covariances", "squeeze_trajectory"])
        data["bath"] = dict(data["bath"], eta=eta)
        data["time_grid"] = {"start": 5.0, "stop": 20.0, "points": 2}
        run(parse_config(data), tmp_path)
        _, covs = read_rows(tmp_path / "covariances.csv")
        _, rows = read_rows(tmp_path / "squeeze_trajectory.csv")
        with mpmath.workdps(50):
            for (_, xx, pp, xp), (_, xi, eta_row, *rest) in zip(covs, rows):
                assert all(map(math.isfinite, (xi, eta_row, *rest)))
                want_xi = 2 * mpmath.sqrt(mpmath.mpf(xx) * pp - mpmath.mpf(xp) ** 2)
                sinh_cos = (mpmath.mpf(pp) - xx) / want_xi  # m = omega_r = 1
                want_eta = mpmath.asinh(mpmath.hypot(sinh_cos, -2 * mpmath.mpf(xp) / want_xi)) / 2
                assert abs(xi - want_xi) <= 1e-12 * want_xi
                assert abs(eta_row - want_eta) <= 1e-12 * want_eta

    def test_overflowing_integrand_refused_as_not_finite(self, tmp_path, capsys):
        # just below the eta limit cosh 2eta nearly fills the float range
        # and the weighted kernel overflows; QUADPACK reports that as
        # roundoff, the message says what happened
        data = dict(SMALL_CONSTANT, bath=dict(SMALL_CONSTANT["bath"], eta=355.0))
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "covariances at t = 5: cos term at frequency 0 over [0, 200]: " in err
        assert "is not finite (the integrand overflowed)" in err
        assert "did not converge" not in err
        assert not out.exists()

    # an accepted initial state (xx pp = 10) whose sinh^2 2eta at t = 0
    # exceeds the float range
    HUGE_SQUEEZE = {
        "scenario": "finite_coupling",
        "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.3},
        "initial_state": {"xx": 1.0e200, "pp": 1.0e-199, "xp": 0.0},
        "outputs": ["squeeze_trajectory"],
    }

    def test_overflowing_column_refused_before_writing(self, tmp_path, capsys):
        # the t = 10 row's scaled xx pp - xp^2 cancels to exactly 0, so it is
        # refused before the t = 0 column with inf is checked
        data = dict(self.HUGE_SQUEEZE, time_grid={"start": 0.0, "stop": 10.0, "points": 2})
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "covariance determinant lost to cancellation: xx pp - xp^2 = 0 against" in err
        assert not out.exists()

    def test_cancelled_determinant_refused_before_writing(self, tmp_path, capsys):
        # at t = 4 the scaled xx pp - xp^2 is 0.53 eps of xx pp + xp^2; read
        # as a determinant it wrote Xi = 2.0e191, where the true Xi is of order 1
        # the refusal names its product and point like any other
        data = dict(self.HUGE_SQUEEZE, time_grid={"start": 4.0, "stop": 5.0, "points": 2})
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        message, diagnostics = capsys.readouterr().err.splitlines()
        assert message.startswith(
            "numerical error: squeeze_trajectory at t = 4: "
            "covariance determinant lost to cancellation"
        )
        assert strict_json(diagnostics.removeprefix("diagnostics: ")) == {
            "product": "squeeze_trajectory", "t": 4.0,
        }
        assert not out.exists()

    def test_non_finite_value_refused_before_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sqbath.cli, "power_out", lambda *args: math.nan)
        data = dict(SMALL_CONSTANT, outputs=["covariances", "fluxes"])
        out = tmp_path / "o"
        assert main(["run", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        assert "fluxes: p_gamma is nan at t = 5" in capsys.readouterr().err
        assert not out.exists()
        # in a sweep the point fails and the others are written
        data["sweep"] = {"path": "oscillator.gamma", "values": [0.1]}
        with pytest.raises(ConvergenceError):
            run_sweep(parse_config(data), out)
        failures = json.loads((out / "run_manifest.json").read_text())["sweep_failures"]
        assert failures[0]["diagnostics"] == {"product": "fluxes", "column": "p_gamma", "t": 5.0}


class TestSweep:
    def test_eta_sweep_cosh_ratio(self, tmp_path):
        data = dict(SMALL_CONSTANT)
        data["time_grid"] = {"start": 300.0, "stop": 301.0, "points": 2}
        data["outputs"] = ["covariances"]
        data["quadrature"] = {"cutoff": 1000.0}
        data["sweep"] = {"path": "bath.eta", "values": [0.0, 1.0]}
        cfg = parse_config(data)
        run_sweep(cfg, tmp_path, threads=2)  # exercises the process pool
        rows = np.loadtxt(tmp_path / "sweep_covariances.csv", delimiter=",", skiprows=1)
        xx0 = rows[rows[:, 0] == 0.0][:, 2]
        xx1 = rows[rows[:, 0] == 1.0][:, 2]
        ratio = xx1 / xx0
        assert np.all(np.abs(ratio / math.cosh(2.0) - 1.0) < 1e-3)

    def test_beta_sweep_ordering(self, tmp_path):
        data = dict(SMALL_CONSTANT)
        data["bath"] = {"beta": 1.0, "eta": 2.0, "theta": 0.0}
        data["time_grid"] = {"start": 150.0, "stop": 151.0, "points": 2}
        data["outputs"] = ["covariances"]
        data["quadrature"] = {"cutoff": 1000.0}
        data["sweep"] = {"path": "bath.beta", "values": [100.0, 10.0, 1.0, 0.1]}
        cfg = parse_config(data)
        run_sweep(cfg, tmp_path)
        rows = np.loadtxt(tmp_path / "sweep_covariances.csv", delimiter=",", skiprows=1)
        plateaus = [rows[rows[:, 0] == b][0, 2] for b in (100.0, 10.0, 1.0, 0.1)]
        assert plateaus[0] < plateaus[1] < plateaus[2] < plateaus[3]

    def test_parametric_sweep_writes_each_squeeze_spectrum(self, tmp_path):
        # each profile.mass_f point solves its own spectrum; a sweep once
        # wrote none
        data = dict(PARAMETRIC, outputs=["fdr"])
        data["sweep"] = {"path": "profile.mass_f", "values": [0.4, 0.5]}
        manifest = run_sweep(parse_config(data), tmp_path)
        assert manifest["products"][0]["file"] == "sweep_squeeze_spectrum.csv"
        header, rows = read_rows(tmp_path / "sweep_squeeze_spectrum.csv")
        assert header == ["profile.mass_f", "k", "eta_k", "theta_k"]
        cfg = parse_config(PARAMETRIC)
        for mass_f in (0.4, 0.5):
            profile = MassProfile(**{**PARAMETRIC["profile"], "mass_f": mass_f})
            spectrum = squeeze_spectrum(profile, cfg.k_grid)
            expected = np.column_stack([spectrum.k, spectrum.eta, spectrum.theta])
            group = [row[1:] for row in rows if row[0] == mass_f]
            np.testing.assert_array_equal(np.array(group), expected)

    @pytest.mark.parametrize(
        "path, values, solves",
        [
            ("oscillator.gamma", [0.1, 0.05], 1),
            ("bath.beta", [1.0, 2.0], 1),
            ("profile.mass_f", [0.4, 0.5], 2),
        ],
    )
    def test_one_solve_per_ramp(self, tmp_path, monkeypatch, cold_memo, path, values, solves):
        # points that keep the ramp read the spectrum the first point
        # solved, and each point's rows are those of a separate run of it
        solved = []
        original = sqbath.parametric_mode.squeeze_spectrum

        def counted(profile, k_grid):
            solved.append(profile)
            return original(profile, k_grid)

        monkeypatch.setattr(sqbath.parametric_mode, "squeeze_spectrum", counted)
        outputs = ["covariances", "fdr"]
        data = dict(PARAMETRIC, outputs=outputs, sweep={"path": path, "values": values})
        run_sweep(parse_config(data), tmp_path / "sweep")
        assert len(solved) == solves
        section, key = path.split(".")
        for value in values:
            cold_memo()  # as in a process of its own
            point = dict(PARAMETRIC, outputs=outputs)
            point[section] = {**PARAMETRIC[section], key: value}
            run(parse_config(point), tmp_path / repr(value))
        for name in ("squeeze_spectrum.csv", "covariances.csv", "fdr.csv"):
            header, *lines = (tmp_path / "sweep" / f"sweep_{name}").read_bytes().split(b"\n")
            groups = {}
            for line in lines[:-1]:
                value, row = line.split(b",", 1)
                groups.setdefault(float(value), []).append(row)
            assert list(groups) == values
            for value in values:
                single = (tmp_path / repr(value) / name).read_bytes()
                assert header == path.encode() + b"," + single.split(b"\n", 1)[0]
                assert b"\n".join(groups[value]) + b"\n" == single.split(b"\n", 1)[1]

    def test_ns_split_in_sweep(self, tmp_path):
        data = dict(SMALL_CONSTANT)
        data["time_grid"] = {"start": 5.0, "stop": 20.0, "points": 2}
        data["ns_thetas"] = [0.0, math.pi / 2.0]
        data["outputs"] = ["ns_split"]
        data["sweep"] = {"path": "bath.beta", "values": [0.3, 1.0, 3.0]}
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)]) == 0
        for stem, column in (("ins_vs_t", "I_NS"), ("ist_vs_t", "I_ST")):
            header, rows = read_rows(out / f"sweep_{stem}.csv")
            assert header == ["bath.beta", "t", "theta", column]
            assert len(rows) == 3 * 2 * 2  # values x thetas x times
            assert [row[0] for row in rows[::4]] == [0.3, 1.0, 3.0]
        payload = json.loads((out / "run_manifest.json").read_text())
        assert [p["file"] for p in payload["products"]] == [
            "sweep_ins_vs_t.csv", "sweep_ist_vs_t.csv"
        ]

    @pytest.mark.parametrize("threads, points, workers", [(64, 2, 2), (2, 3, 2), (1, 3, None)])
    def test_worker_pool_size(self, tmp_path, monkeypatch, threads, points, workers):
        started = []

        class RecordingPool:
            """Records the pool size and runs each job in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        data = dict(SMALL_CONSTANT, outputs=["fdr"])
        data["sweep"] = {"path": "bath.beta", "values": [0.3 * (i + 1) for i in range(points)]}
        run_sweep(parse_config(data), tmp_path, threads=threads)
        assert started == ([] if workers is None else [workers])
        rows = np.loadtxt(tmp_path / "sweep_fdr.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == points * 51

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_code(self, tmp_path, monkeypatch, threads):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never started
        data = dict(SMALL_CONSTANT, outputs=["fdr"])
        data["sweep"] = {"path": "bath.beta", "values": [0.3, 0.6]}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        args = ["sweep", "--config", str(cfgp), "--out", str(out), "--threads", threads]
        assert main(args) == 2
        assert not out.exists()

    def test_pooled_failures_in_value_order(self, tmp_path):
        # the k grid stops short of the cutoff, so every point fails once its
        # covariances start; the 400-mode spectrum solve outlasts the 8-mode
        # one, so in the pool the first point fails after the second
        data = dict(PARAMETRIC, outputs=["covariances"])
        data["k_grid"] = {"start": 0.1, "stop": 1.0, "points": 8}
        data["sweep"] = {"path": "k_grid.points", "values": [400, 8]}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        args = ["sweep", "--config", str(cfgp), "--out", str(out), "--threads", "2"]
        assert main(args) == 3
        failures = json.loads((out / "run_manifest.json").read_text())["sweep_failures"]
        assert [f["value"] for f in failures] == [400, 8]
        assert all("squeeze spectrum is not resolved" in f["error"] for f in failures)

    @staticmethod
    def failing_sweep(tmp_path, monkeypatch, threads):
        """A two-point sweep whose gamma = 0.2 point fails; its manifest."""
        original = sqbath.cli.covariance_evolution

        def failing(spec, *args):
            """Stands in for a quadrature that fails at gamma = 0.2."""
            if spec.gamma == 0.2:
                raise ConvergenceError(
                    "stand-in failure", partial_value=0.25, diagnostics={"abserr": 0.5}
                )
            return original(spec, *args)

        monkeypatch.setattr(sqbath.cli, "covariance_evolution", failing)
        data = dict(SMALL_CONSTANT)
        data["outputs"] = ["covariances"]
        data["sweep"] = {"path": "oscillator.gamma", "values": [0.1, 0.2]}
        with pytest.raises(ConvergenceError):
            run_sweep(parse_config(data), tmp_path, threads=threads)
        # the good point still produced rows
        rows = np.loadtxt(tmp_path / "sweep_covariances.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 4
        return json.loads((tmp_path / "run_manifest.json").read_text())

    # the record names the product and the time point of the failure, and
    # keeps the solver's diagnostics and partial value
    FAILURE = {
        "value": 0.2,
        "error": "covariances at t = 5: stand-in failure",
        "diagnostics": {"abserr": 0.5, "product": "covariances", "t": 5.0},
        "partial_value": 0.25,
    }

    def test_failures_recorded_and_raised(self, tmp_path, monkeypatch):
        payload = self.failing_sweep(tmp_path, monkeypatch, threads=1)
        assert payload["sweep_failures"] == [self.FAILURE]

    def test_failure_record_survives_the_worker_pool(self, tmp_path, monkeypatch):
        class PicklingPool:
            """Runs each job in-process; each outcome, a failure included,
            comes back pickled, as from a worker process."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [pickle.loads(pickle.dumps(fn(job))) for job in jobs]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
        payload = self.failing_sweep(tmp_path, monkeypatch, threads=2)
        assert payload["sweep_failures"] == [self.FAILURE]

    @pytest.mark.parametrize(
        "spacing, keys",
        [("linear", ["0.5", "1.0", "1.5"]), ("log", ["0.5", "1.0", "2.0"])],
    )
    def test_range_sweep_keys_are_plain_floats(self, tmp_path, spacing, keys):
        stop = 1.5 if spacing == "linear" else 2.0
        data = dict(SMALL_CONSTANT, outputs=["fdr"])
        data["sweep"] = {
            "path": "bath.beta", "start": 0.5, "stop": stop, "steps": 3, "spacing": spacing
        }
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(write_config(tmp_path, data)),
                     "--out", str(out)]) == 0
        text = (out / "run_manifest.json").read_text()
        assert "np.float64" not in text
        (product,) = json.loads(text)["products"]
        assert list(product["params"]) == keys
        _, rows = read_rows(out / "sweep_fdr.csv")
        assert sorted({row[0] for row in rows}) == [float(key) for key in keys]

    @pytest.mark.parametrize(
        "path, values, cause",
        [
            ("bath.beta", [1.0, -1.0], "bath.beta must be > 0"),
            ("oscillator.gamma", [0.1, 5.0], "overdamped"),
            ("time_grid.start", [5.0, -1.0], "time_grid.start must be >= 0"),
            ("bath.theta", [0.0, math.inf], "bath.theta: expected a finite number"),
            ("oscillator.gamma", [0.1, 0.0], "oscillator.gamma must be > 0"),
            ("bath.eta", [1.0, 400.0], "bath.eta: squeeze magnitude must be in [0, 355.238]"),
        ],
        ids=["negative-beta", "overdamped", "negative-time", "theta-inf", "gamma-zero",
             "eta-overflow"],
    )
    def test_rejected_value_exit_code(self, tmp_path, capsys, path, values, cause):
        # every point is parsed before any runs: nothing is written
        data = dict(SMALL_CONSTANT, outputs=["covariances"])
        data["sweep"] = {"path": path, "values": values}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{path} = {values[1]}" in err and cause in err

    def test_refused_trajectory_point_records_product_and_point(self, tmp_path):
        data = dict(TestRun.HUGE_SQUEEZE, time_grid={"start": 4.0, "stop": 5.0, "points": 2})
        data["sweep"] = {"path": "oscillator.gamma", "values": [0.3, 0.2]}
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        failures = strict_json((out / "run_manifest.json").read_text())["sweep_failures"]
        assert [f["value"] for f in failures] == [0.3, 0.2]
        for failure in failures:
            assert failure["error"].startswith("squeeze_trajectory at t = 4: ")
            assert failure["diagnostics"] == {"product": "squeeze_trajectory", "t": 4.0}

    def test_mass_i_at_the_cutoff_refused_for_every_point(self, tmp_path, capsys):
        data = dict(PARAMETRIC, outputs=["covariances"])
        data["sweep"] = {"path": "profile.mass_i", "values": [0.0, 100.0]}
        cfgp = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 2
        assert not out.exists()
        assert "profile.mass_i = 100.0 must be below" in capsys.readouterr().err

    def test_missing_sweep_section_exit_code(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, SMALL_CONSTANT)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfgp), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config has no sweep section" in capsys.readouterr().err


class TestMainEntry:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_mode_failure_prints_diagnostics(
        self, tmp_path, capsys, monkeypatch, command, cold_memo
    ):
        # from an empty spectrum cache: a ramp solved by an earlier test
        # would not run the patched mode solve
        original = MassProfile.mass_sq

        def cut(self, t):
            """m^2(t) turns NaN after t = 1: every mode solve stalls there."""
            return np.where(np.asarray(t) > 1.0, np.nan, original(self, t))

        monkeypatch.setattr(MassProfile, "mass_sq", cut)
        cfgp = write_config(tmp_path, EVERY_SECTION)
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        message, diagnostics, *_ = capsys.readouterr().err.splitlines()
        assert message.startswith("numerical error: ")
        assert diagnostics.startswith("diagnostics: {")
        payload = json.loads(diagnostics.removeprefix("diagnostics: "))
        if command == "run":
            assert payload["k"] in parse_config(EVERY_SECTION).k_grid
            assert f"mode k = {payload['k']:.6g}: step size" in message
            assert 0.99 < payload["t_reached"] <= 1.0 and payload["drift"] < 1e-8
        else:
            assert message == "numerical error: 2 of 2 sweep points failed"
            assert [f["value"] for f in payload["failures"]] == [1.0, 2.0]
            assert all(": step size" in f["error"] for f in payload["failures"])

    def test_manifests_are_strict_json(self, tmp_path, capsys):
        # a zero-temperature preset and a sweep with an overflowing point
        # write their non-finite numbers as the strings "inf" and "nan"
        assert main(["run", "--figure", "grn3d", "--out", str(tmp_path / "cold")]) == 0
        cold = strict_json((tmp_path / "cold" / "run_manifest.json").read_text())
        bath = cold["resolved_config"]["bath"]
        assert bath["beta"] == "inf"
        assert cold["config_hash"].startswith(SHIPPED_HASHES["grn3d"])
        # the written beta reads back as zero temperature
        assert parse_config({**figure_preset("grn3d"), "bath": bath}).bath_beta == math.inf
        capsys.readouterr()

        data = dict(SMALL_CONSTANT, outputs=["covariances"])
        data["sweep"] = {"path": "bath.eta", "values": [1.0, 355.0]}
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(write_config(tmp_path, data)), "--out", str(out)]) == 3
        (failure,) = strict_json((out / "run_manifest.json").read_text())["sweep_failures"]
        assert failure["value"] == 355.0
        assert failure["partial_value"] == "nan" and failure["diagnostics"]["abserr"] == "nan"
        diagnostics = capsys.readouterr().err.splitlines()[1].removeprefix("diagnostics: ")
        assert strict_json(diagnostics)["failures"] == [failure]

    @pytest.mark.parametrize(
        "product, point",
        [("covariances", {"t": 30.0}), ("hadamard_surface", {"t": 30.0, "t_prime": 30.0})],
    )
    def test_quadrature_failure_names_product_and_time(
        self, tmp_path, capsys, product, point
    ):
        # QUADPACK cannot reach rel_tol at this cutoff (ROADMAP Direction B)
        data = dict(SMALL_CONSTANT, quadrature={"cutoff": 2e4}, outputs=[product])
        data["time_grid"] = data["hadamard_grid"] = {"start": 30.0, "stop": 60.0, "points": 2}
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        message, diagnostics, *_ = capsys.readouterr().err.splitlines()
        where = ", ".join(f"{key} = {value:g}" for key, value in point.items())
        assert message.startswith(f"numerical error: {product} at {where}: cos term at ")
        payload = json.loads(diagnostics.removeprefix("diagnostics: "))
        assert payload["product"] == product and payload["interval"] == [0.0, 2e4]
        assert {key: payload[key] for key in point} == point

    def test_config_error_exit_code(self, tmp_path):
        bad = write_config(tmp_path, {"scenario": "bogus"})
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == 2
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(tmp_path / "missing.yaml"),
                    "--out",
                    str(tmp_path / "o"),
                ]
            )
            == 2
        )

    def test_run_roundtrip(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_CONSTANT)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 0
        assert (out / "run_manifest.json").exists()

    @pytest.mark.parametrize(
        "section, value",
        [
            ("sweep", {"path": "bath.beta", "start": 0, "stop": 10, "steps": 3,
                       "spacing": "log"}),
            ("sweep", {"path": "bath.beta", "start": -1, "stop": 1, "steps": 3,
                       "spacing": "log"}),
            ("sweep", {"path": "bath.beta", "start": 1, "stop": 2, "steps": "many"}),
            ("time_grid", {"start": 5.0, "stop": 20.0, "points": "many"}),
            ("quadrature", {"cutoff": 200.0, "max_subdivisions": "many"}),
            ("profile", {"mass_f": 0.5, "t_f": 2.0, "smoothstep_order": None}),
            # a NaN mass once stalled the mode solve forever
            ("profile", {"mass_f": math.nan, "t_f": 2.0}),
            ("profile", {"mass_f": 0.5, "t_f": math.inf}),
            ("oscillator", {"m": 1.0, "omega_r": 1.0, "gamma": math.nan}),
            ("quadrature", {"cutoff": 200.0, "rel_tol": "nan"}),
        ],
        ids=[
            "log-start-zero",
            "log-start-negative",
            "steps-word",
            "points-word",
            "max-subdivisions-word",
            "smoothstep-order-null",
            "mass-nan",
            "t-f-inf",
            "gamma-nan",
            "rel-tol-nan-word",
        ],
    )
    def test_malformed_number_exit_code(self, tmp_path, section, value):
        data = dict(SMALL_CONSTANT, **{section: value})
        if section == "profile":
            data.update(
                scenario="parametric",
                bath={"beta": 1.0},
                k_grid={"start": 0.1, "stop": 10.0, "points": 4},
            )
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("product", ["ns_split", "hadamard_surface"])
    def test_unregulated_bilinear_form_exit_code(self, tmp_path, product):
        data = dict(SMALL_CONSTANT)
        data["quadrature"] = {"cutoff": None}
        data["time_grid"] = {"start": 5.0, "stop": 6.0, "points": 2}
        data["hadamard_grid"] = {"start": 5.0, "stop": 6.0, "points": 2}
        data["outputs"] = [product]
        cfgp = write_config(tmp_path, data)
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2

    def test_unregulated_sweep_exit_code(self, tmp_path, capsys):
        # a config-wide error stops the sweep before any point runs
        data = dict(SMALL_CONSTANT)
        data["quadrature"] = {"cutoff": None}
        data["time_grid"] = {"start": 5.0, "stop": 6.0, "points": 2}
        data["outputs"] = ["ns_split"]
        data["sweep"] = {"path": "bath.theta", "values": [0.0, 0.5]}
        cfgp = write_config(tmp_path, data)
        assert main(["sweep", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert "regulator" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_figure_and_config_conflict(self, tmp_path):
        cfgp = write_config(tmp_path, SMALL_CONSTANT)
        code = main(
            ["run", "--config", str(cfgp), "--figure", "4", "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_run_has_no_threads_option(self, tmp_path, capsys):
        # worker processes belong to `sweep`; `run` rejects the option
        with pytest.raises(SystemExit) as exc:
            main(["run", "--figure", "grn3d", "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestFigurePresets:
    def test_all_presets_parse(self):
        for name in ("4", "5", "6", "7", "grn3d", "tan2eta", "tanphi"):
            cfg = parse_config(figure_preset(name))
            assert cfg.scenario in ("constant_squeeze", "parametric", "finite_coupling")

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            figure_preset("8")

    def test_fig4_preset_shape(self, tmp_path):
        # shrink the grid for test runtime; keep the preset parameters
        data = figure_preset("4")
        data["time_grid"] = {"start": 50.0, "stop": 150.0, "points": 3}
        cfg = parse_config(data)
        run(cfg, tmp_path)
        ins = (tmp_path / "ins_vs_t.csv").read_text().splitlines()
        assert ins[0] == "t,theta,I_NS"
        ist = np.loadtxt(tmp_path / "ist_vs_t.csv", delimiter=",", skiprows=1)
        ins_rows = np.loadtxt(tmp_path / "ins_vs_t.csv", delimiter=",", skiprows=1)
        # by t = 15/gamma every curve sits below 1% of I_ST
        late = ins_rows[:, 0] >= 150.0
        assert np.all(
            np.abs(ins_rows[late, 2]) < 1e-2 * np.abs(ist[late, 2])
        )

    def test_config_hash_stability(self):
        cfg = parse_config(dict(SMALL_CONSTANT))
        from sqbath.cli import resolved_config

        assert config_hash(resolved_config(cfg)) == config_hash(resolved_config(cfg))


def test_import_leaves_out_interpolation_and_process_pool():
    # the PCHIP coefficients are computed without scipy.interpolate, the
    # process pool is imported only by a sweep with more than one worker,
    # and of scipy only the QUADPACK extension and the DOP853 tableau file
    # are loaded, so no scipy package __init__ runs; the mode solver is
    # imported only when a parametric config is parsed
    absent = (
        "scipy",
        "scipy.integrate",
        "scipy.interpolate",
        "scipy.optimize",
        "scipy.special",
        "numpy.f2py",
        "concurrent.futures.process",
    )
    code = "\n".join([
        "import json, sys, sqbath.cli",
        f"absent = [m for m in {absent!r} if m in sys.modules]",
        "solver = ['sqbath.parametric_mode' in sys.modules]",
        f"sqbath.cli.parse_config({SMALL_CONSTANT!r})",
        "solver.append('sqbath.parametric_mode' in sys.modules)",
        f"sqbath.cli.parse_config({PARAMETRIC!r})",
        "solver.append('sqbath.parametric_mode' in sys.modules)",
        "print(json.dumps([absent, solver]))",
    ])
    paths = [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    # after import sqbath.cli, then after parsing a constant-squeeze and a
    # parametric config
    assert json.loads(out.stdout) == [[], [False, False, True]]
