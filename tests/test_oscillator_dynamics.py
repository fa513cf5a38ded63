import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    FilonRule,
    GROUND,
    chi_oracle,
    covariance_oracle,
    d2_fourier,
    double_time_oracle,
    f_aux,
    fdot_aux,
    fundamental_solutions,
)
import sqbath.cli
import sqbath.oscillator_dynamics
import sqbath.quadrature
from sqbath.bath_kernels import BathSpec, SqueezeSpectrum
from sqbath.cli import _build_bath, figure_preset, parse_config
from sqbath.energy_fdr import power_in
from sqbath.errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    UnsupportedRegimeError,
)
from sqbath.gaussian_state import CovarianceState, SqueezeParam
from sqbath.oscillator_dynamics import (
    OscillatorSpec,
    _bilinear,
    _f_factor,
    _integral,
    _node_factors,
    chi_hadamard,
    chi_hadamard_components,
    covariance_evolution,
    covariance_integral_parts,
    effective_response,
    massive_roots,
    ns_st_split,
)
from sqbath.quadrature import QuadratureConfig
from test_trace_targets import TINY_PARAMETRIC

REPO = Path(__file__).resolve().parents[1]


class TestFundamentalSolutions:
    def test_initial_conditions(self, spec):
        assert fundamental_solutions(spec, 0.0) == (1.0, 0.0, 0.0, 1.0)

    def test_sine_zero(self):
        spec = OscillatorSpec.from_resonance(1.0, 1.0, 0.1)
        d1, d2, _, _ = fundamental_solutions(spec, math.pi)
        assert abs(d2) < 1e-15
        assert abs(d1 - (-math.exp(-0.1 * math.pi))) < 1e-14

    def test_wronskian_abel_identity(self):
        spec = OscillatorSpec.from_resonance(1.0, 1.3, 0.2)
        for t in (0.0, 0.5, 3.0, 20.0):
            d1, d2, d1d, d2d = fundamental_solutions(spec, t)
            assert abs(d1 * d2d - d1d * d2 - math.exp(-2 * 0.2 * t)) < 1e-10
        d1, _, _, _ = fundamental_solutions(spec, 3.0)
        w3 = fundamental_solutions(spec, 3.0)
        assert abs(w3[0] * w3[3] - w3[2] * w3[1] - 0.3011942119122021) < 1e-12

    def test_overdamped_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            OscillatorSpec(m=1.0, omega_r=0.5, gamma=0.6)

    def test_negative_time_rejected(self, spec, bath_squeezed, quad):
        # every response factor passes through the one check of t >= 0
        products = [
            lambda: fundamental_solutions(spec, -0.1),
            lambda: covariance_integral_parts(spec, bath_squeezed, -0.1, quad),
            lambda: power_in(spec, bath_squeezed, -0.1, quad),
            lambda: chi_hadamard(spec, bath_squeezed, 1.0, -0.1, quad),
            lambda: chi_hadamard_components(spec, bath_squeezed, 0.0, -0.1, 1.0, quad),
        ]
        for product in products:
            with pytest.raises(DomainError, match="defined for t >= 0"):
                product()


class TestMassiveRoots:
    def test_massless_limit(self):
        r = massive_roots(0.1, 1.0, 0.0)
        assert (r.gamma, r.Omega) == (0.1, 1.0)
        # a massless bath keeps the spec's own pair, bit for bit
        spec = OscillatorSpec.from_resonance(1.0, 1.3, 0.2)
        resp = effective_response(spec, BathSpec(beta=1.0))
        assert (resp.gamma, resp.Omega) == (spec.gamma, spec.Omega)

    def test_small_mass_expansion(self):
        # exact root against the O(m_f^2) expansion: the decay rate comes
        # DOWN toward the threshold, Upsilon = g[1 - m^2/(2(W^2+g^2))]
        g, om = 0.1, 1.0
        for mf in (0.02, 0.05, 0.1):
            r = massive_roots(g, om, mf)
            ups = g * (1.0 - mf**2 / (2 * (om**2 + g**2)))
            varpi = om - g**2 * mf**2 / (2 * om * (om**2 + g**2))
            assert abs(r.gamma - ups) < 2.0 * g * mf**4
            assert abs(r.Omega - varpi) < 2.0 * g * mf**4

    def test_root_solves_characteristic_equation(self):
        g, om, mf = 0.2, 1.1, 0.3
        r = massive_roots(g, om, mf)
        z = complex(-r.gamma, r.Omega)
        residual = z * z + (om**2 + g**2) - 2 * g * cmath.sqrt(z * z + mf * mf)
        assert abs(residual) < 1e-12

    def test_large_mass_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            massive_roots(0.1, 1.0, 1.0)

    def test_massive_pair_wronskian(self):
        # the memory-dressed local pair obeys the Abel identity with the
        # dressed decay rate: d1 d2' - d1' d2 = e^{-2 Upsilon t}
        from sqbath.oscillator_dynamics import _fundamental

        resp = massive_roots(0.1, 1.0, 0.3)
        for t in (0.0, 0.7, 5.0, 25.0):
            d1, d2, d1d, d2d = _fundamental(resp, t)
            expected = math.exp(-2.0 * resp.gamma * t)
            assert abs(d1 * d2d - d1d * d2 - expected) < 1e-10


class TestAuxiliaryFunctions:
    def test_f_vanishes_at_zero_time(self, spec):
        for w in (0.1, 1.0, 7.3):
            assert abs(f_aux(spec, 0.0, w)) < 1e-15

    def test_late_time_modulus(self, spec):
        w = 0.7
        t = 200.0
        assert abs(abs(f_aux(spec, t, w)) - abs(d2_fourier(spec, w))) < 1e-8

    def test_brute_force_convolution(self, spec):
        # (gamma, Omega, omega, t) = (0.1, 1, 0.7, 5)
        t, w = 5.0, 0.7
        rule = FilonRule(np.linspace(0.0, t, 6))
        oracle = rule.integral(fundamental_solutions(spec, t - rule.nodes)[1], -w)
        assert abs(f_aux(spec, t, w) - oracle) < 1e-14

    def test_fdot_identity_and_finite_difference(self, spec):
        t = 5.0
        for w in (0.4, 0.7, 2.0):
            lhs = fdot_aux(spec, t, w)
            h = 1e-5
            fd = (f_aux(spec, t + h, w) - f_aux(spec, t - h, w)) / (2 * h)
            assert abs(fd - lhs) < 1e-6

    def test_g_zero_frequency_flagged(self, spec):
        # f' has no 1/w pole: at w = 0 it is -d1'(t) d2~(0)
        assert abs(fdot_aux(spec, 1.0, 0.0) + fundamental_solutions(spec, 1.0)[2] * d2_fourier(spec, 0.0)) < 1e-14


class TestD2Fourier:
    def test_static_and_resonant_values(self, spec):
        assert d2_fourier(spec, 0.0) == pytest.approx(1.0 / spec.omega_r**2)
        at_res = d2_fourier(spec, spec.omega_r)
        assert abs(at_res - 1j / (2 * spec.gamma * spec.omega_r)) < 1e-14

    def test_dissipation_identity_pointwise(self, spec):
        w = np.linspace(-30.0, 30.0, 4001)
        d = d2_fourier(spec, w)
        lhs = 2.0 * spec.gamma * w * np.abs(d) ** 2
        assert np.max(np.abs(lhs - d.imag)) < 1e-14

    def test_discrete_transform_oracle(self, spec):
        rule = FilonRule(np.linspace(0.0, 400.0, 401))
        val = rule.integral(fundamental_solutions(spec, rule.nodes)[1], 0.5)
        assert abs(val - d2_fourier(spec, 0.5)) < 1e-13  # the tail beyond 400 weighs e^-40


class TestCovarianceEvolution:
    def test_time_zero_returns_init(self, spec, quad, bath_squeezed):
        init = CovarianceState(xx=2.0, pp=1.0, xp=0.0)
        out = covariance_evolution(spec, bath_squeezed, init, 0.0, quad)
        assert out == init

    def test_unregulated_pp_rejected(self, spec, bath_thermal):
        with pytest.raises(ConfigurationError):
            covariance_evolution(spec, bath_thermal, GROUND, 1.0, QuadratureConfig())

    def test_late_time_thermal_against_stationary_oracle(self, spec, quad, bath_thermal):
        t = 30.0 / spec.gamma
        cov = covariance_evolution(spec, bath_thermal, GROUND, t, quad)
        # the stationary value: no nonstationary part, transients e^-100
        oracle = covariance_oracle(spec, bath_thermal, 100.0 / spec.gamma, quad)[0]
        assert abs(cov.xx / oracle - 1.0) < 1e-3

    def test_theta_independence_late(self, spec, quad):
        t = 30.0 / spec.gamma
        covs = [
            covariance_evolution(
                spec,
                BathSpec(beta=0.3, squeeze=SqueezeParam(1.0, theta)),
                GROUND,
                t,
                quad,
            )
            for theta in (0.0, 2.0)
        ]
        assert abs(covs[0].xx / covs[1].xx - 1.0) < 1e-3
        assert abs(covs[0].pp / covs[1].pp - 1.0) < 1e-3

    def test_temperature_monotonicity(self, spec, quad):
        t = 30.0 / spec.gamma
        xx = [
            covariance_evolution(spec, BathSpec(beta=b), GROUND, t, quad).xx
            for b in (10.0, 1.0, 0.3)
        ]
        assert xx[0] < xx[1] < xx[2]

    def test_uncertainty_bound_along_trajectory(self, spec, quad, bath_squeezed):
        init = CovarianceState(xx=2.0, pp=1.0, xp=0.0)
        for t in (0.5, 2.0, 5.0, 12.0, 40.0):
            cov = covariance_evolution(spec, bath_squeezed, init, t, quad)
            assert cov.uncertainty >= 0.25 - 1e-9

    def test_double_time_integral_oracle(self, spec):
        # epsilon = 0.1 makes the kernel resolvable on the oracle's grid
        quad = QuadratureConfig(epsilon=0.1, rel_tol=1e-10, abs_tol=1e-14)
        bath = BathSpec(beta=1.0, squeeze=SqueezeParam(0.6, 0.9))
        oracle = double_time_oracle(spec, bath, 4.0, quad.epsilon)
        got = covariance_integral_parts(spec, bath, 4.0, quad)
        for part, ref in zip(got, oracle):
            assert abs(part / ref - 1.0) < 1e-4


@pytest.mark.parametrize(
    "cutoff",
    [
        1e2,
        3e2,
        2e3,
        5e3,
        1e4,
        pytest.param(
            1e5,
            marks=pytest.mark.xfail(
                raises=ConvergenceError,
                strict=True,
                reason="the frequency-0 term ends with QUADPACK ier 4 at cutoff 1e5",
            ),
        ),
    ],
)
def test_late_covariances_follow_the_cutoff_laws(spec, cutoff):
    # setting A at t = 300, against the anchor cutoff 1e3: the pp and xx
    # integrands fall as (2 gamma m/pi) cosh 2eta / w and m^-2 w^-2 times
    # that, so pp grows as (2 gamma m/pi) cosh 2eta ln cutoff up to
    # O((omega_r/cutoff)^2), and xx(inf) - xx(cutoff) = (gamma/(pi m))
    # cosh 2eta / cutoff^2 up to O((omega_r/cutoff)^4)
    bath = BathSpec(beta=0.3, squeeze=SqueezeParam(1.0, 0.4))
    anchor = 1e3
    cov, ref = (
        covariance_evolution(spec, bath, GROUND, 300.0, QuadratureConfig(cutoff=c))
        for c in (cutoff, anchor)
    )
    rate = spec.gamma / math.pi * math.cosh(2.0)
    pp_step = 2.0 * spec.m * rate * math.log(cutoff / anchor)
    xx_step = rate / spec.m * (anchor**-2 - cutoff**-2)
    scale = spec.omega_r / min(cutoff, anchor)
    assert abs(cov.pp - ref.pp - pp_step) < scale**2
    assert abs(cov.xx - ref.xx - xx_step) < scale**4


def assert_parts_match_oracle(spec, bath, quad, times):
    """(xx, pp, xp, P_xi) at each t within rel_tol of the largest |part| of
    covariance_oracle."""
    for t in map(float, times):
        parts = covariance_integral_parts(spec, bath, t, quad)
        got = np.array([*parts, power_in(spec, bath, t, quad)])
        ref = np.array(covariance_oracle(spec, bath, t, quad))
        dev = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert dev < quad.rel_tol, f"t = {t}: (xx, pp, xp, P_xi) = {got} vs oracle {ref}"


class TestBilinearFormsOracle:
    @pytest.mark.parametrize("t", [5.0, 20.0])
    @pytest.mark.parametrize(
        "gamma, beta, eta, theta", [(0.1, 0.3, 1.0, 0.7), (0.3, 10.0, 0.5, 1.2)]
    )
    def test_covariance_and_power_match_panel_oracle(self, quad, gamma, beta, eta, theta, t):
        spec = OscillatorSpec.from_resonance(m=1.0, Omega=1.0, gamma=gamma)
        bath = BathSpec(beta=beta, squeeze=SqueezeParam(eta, theta))
        assert_parts_match_oracle(spec, bath, quad, [t])


@pytest.fixture
def quad_codes(monkeypatch, cold_memo):
    """The QUADPACK return code of every integral the test makes, from empty
    memos, so that no result enters through the ier-2 escape hatch of
    ``quadrature._check_quad_result`` unseen."""
    codes = []
    check = sqbath.quadrature._check_quad_result

    def recording(value, abserr, ier, quad, what):
        codes.append(ier)
        return check(value, abserr, ier, quad, what)

    monkeypatch.setattr(sqbath.quadrature, "_check_quad_result", recording)
    return codes


def sweep_point(raw, index):
    """The run config and bath of point ``index`` of an oscillator.gamma sweep."""
    point = {key: value for key, value in raw.items() if key != "sweep"}
    gamma = raw["sweep"]["values"][index]
    cfg = parse_config(dict(point, oscillator=dict(raw["oscillator"], gamma=gamma)))
    return cfg, _build_bath(cfg)


class TestSettingsAgainstOracle:
    """Settings B and C against covariance_oracle, every QUADPACK result at
    ier 0."""

    @pytest.mark.parametrize("mass_i", [0.0, 0.2])
    def test_parametric_ramp(self, quad_codes, mass_i):
        # the 8-knot ramp, the program's own spectrum fed to the oracle
        raw = dict(TINY_PARAMETRIC, profile=dict(TINY_PARAMETRIC["profile"], mass_i=mass_i))
        cfg = parse_config(raw)
        bath = _build_bath(cfg)
        spec, quad = cfg.oscillator, cfg.quad
        assert_parts_match_oracle(spec, bath, quad, cfg.time_grid)
        t, t_prime = map(float, cfg.time_grid)
        got = chi_hadamard(spec, bath, t, t_prime, quad)
        (stat, nonstat), unit = chi_oracle(spec, bath, t, t_prime, quad)
        assert unit is None
        assert abs(got.stationary - stat) < quad.rel_tol * abs(stat)
        assert abs(got.nonstationary - nonstat) < quad.rel_tol * abs(stat)
        assert set(quad_codes) == {0}

    @pytest.mark.parametrize("index", range(3))
    def test_finite_coupling_config(self, quad_codes, index):
        raw = sqbath.cli._load_yaml(str(REPO / "configs" / "finite_coupling.yaml"))
        cfg, bath = sweep_point(raw, index)
        assert_parts_match_oracle(cfg.oscillator, bath, cfg.quad, cfg.time_grid)
        assert set(quad_codes) == {0}

    @pytest.mark.parametrize(
        "index, t_index",
        [
            pytest.param(i, j, marks=pytest.mark.xfail(strict=True, reason=(
                "QUADPACK returns the sin term at frequency t = 60 under "
                "e^{-0.01 w} as ~0 at ier 0, so xp is 2.4e-8 off (FOUND in CHANGES.md)"
            ))) if (i, j) == (1, 3) else (i, j)
            for i in range(3) for j in range(4)
        ],
    )
    def test_thermal_sweep_regulator(self, quad_codes, workloads, index, t_index):
        # seed 0 of the thermal-sweep workload: epsilon = 1e-2, no cutoff
        cfg, bath = sweep_point(workloads.thermal_sweep(0), index)
        t = cfg.time_grid[t_index]
        assert_parts_match_oracle(cfg.oscillator, bath, cfg.quad, [t])
        assert set(quad_codes) == {0}


class TestNsStSplit:
    def test_zero_time(self, spec, quad):
        i_ns, i_st = ns_st_split(spec, BathSpec(0.3), 0.0, 0.0, quad)
        assert abs(i_ns) < 1e-10
        assert abs(i_st) < 1e-10

    def test_ratio_decays(self, spec, quad):
        i_ns, i_st = ns_st_split(spec, BathSpec(0.3), 0.0, 15.0 / spec.gamma, quad)
        assert abs(i_ns) / i_st < 1e-2

    def test_stationary_plateau_theta_independent(self, spec, quad):
        vals = []
        for theta in (0.0, math.pi / 6, math.pi / 2):
            _, i_st = ns_st_split(spec, BathSpec(0.3), theta, 12.0 / spec.gamma, quad)
            vals.append(i_st)
        assert max(vals) - min(vals) < 1e-6 * vals[0]
        _, late = ns_st_split(spec, BathSpec(0.3), 0.0, 30.0 / spec.gamma, quad)
        assert abs(late / vals[0] - 1.0) < 1e-4


def test_unregulated_split_and_two_time_forms_rejected(spec):
    # the switch-on term of f makes both log divergent at finite t
    bare = QuadratureConfig()
    with pytest.raises(ConfigurationError):
        ns_st_split(spec, BathSpec(0.3), 0.0, 5.0, bare)
    with pytest.raises(ConfigurationError):
        chi_hadamard_components(spec, BathSpec(0.3), 0.0, 5.0, 6.0, bare)


def test_factored_parts_refuse_spectrum_and_massive_baths(spec, quad):
    # the unit-weight split would ignore eta_k, theta_k and the field mass
    spectrum = SqueezeSpectrum(np.geomspace(0.1, 10.0, 8), np.full(8, 0.2))
    for bath in (
        BathSpec(0.3, squeeze=spectrum),
        BathSpec(0.3, squeeze=spectrum, mass_i=0.2, mass_f=0.5),
        BathSpec(0.3, mass_f=0.5),
    ):
        with pytest.raises(DomainError):
            chi_hadamard_components(spec, bath, 0.0, 5.0, 6.0, quad)
        with pytest.raises(DomainError):
            ns_st_split(spec, bath, 0.0, 5.0, quad)


class TestChiHadamard:
    def test_symmetry(self, spec, quad, bath_squeezed):
        a = chi_hadamard(spec, bath_squeezed, 6.0, 3.5, quad)
        b = chi_hadamard(spec, bath_squeezed, 3.5, 6.0, quad)
        assert abs(a.stationary - b.stationary) < 1e-9
        assert abs(a.nonstationary - b.nonstationary) < 1e-9

    def test_coincident_matches_covariance_integral(self, spec, quad, bath_squeezed):
        t = 7.0
        kv = chi_hadamard(spec, bath_squeezed, t, t, quad)
        i_xx, _, _ = covariance_integral_parts(spec, bath_squeezed, t, quad)
        assert abs((kv.stationary + kv.nonstationary) / i_xx - 1.0) < 1e-8

    def test_late_time_reduces_to_boosted_thermal(self, spec, quad):
        # stationary part -> cosh 2eta * thermal correlation of t - t';
        # the nonstationary remnant dies off polynomially (~sin(theta)/t)
        # and is already down at the 1e-4 level here
        tau = 1.3
        t = 35.0 / spec.gamma
        bath = BathSpec(beta=0.3, squeeze=SqueezeParam(1.0, 0.8))
        kv = chi_hadamard(spec, bath, t + tau, t, quad)
        thermal = chi_hadamard(spec, BathSpec(beta=0.3), t + tau, t, quad)
        assert abs(kv.stationary / (math.cosh(2.0) * thermal.stationary) - 1.0) < 1e-6
        assert abs(kv.nonstationary) < 1e-3 * abs(kv.stationary)
        total = kv.stationary + kv.nonstationary
        thermal_total = thermal.stationary + thermal.nonstationary
        assert abs(total / (math.cosh(2.0) * thermal_total) - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# the run-wide node memos of the bath measure, response powers and weights

MEMO_QUAD = QuadratureConfig(cutoff=200.0)


def three_products(spec, bath, t=12.0):
    """Covariances, power_in and chi_hadamard of ``bath`` at t."""
    return (
        covariance_evolution(spec, bath, GROUND, t, MEMO_QUAD),
        power_in(spec, bath, t, MEMO_QUAD),
        chi_hadamard(spec, bath, t, 0.5 * t, MEMO_QUAD),
    )


def record_nodes(monkeypatch):
    """Every node at which a quadrature call evaluates an integrand."""
    nodes = []
    original = sqbath.oscillator_dynamics.fourier_quad

    def recording(kernel, *args, **kwargs):
        def kernel_at(w):
            nodes.append(w)
            return kernel(w)

        return original(kernel_at, *args, **kwargs)

    monkeypatch.setattr(sqbath.oscillator_dynamics, "fourier_quad", recording)
    return nodes


def count_base_rows(monkeypatch):
    """Count the evaluations of every bath's base row (the measure and a
    spectrum's weights at one node); returns a one-element list."""
    calls = [0]
    original = sqbath.oscillator_dynamics._base_row

    def counted_base_row(bath, epsilon):
        row = original(bath, epsilon)

        def counted(w):
            calls[0] += 1
            return row(w)

        return counted

    monkeypatch.setattr(sqbath.oscillator_dynamics, "_base_row", counted_base_row)
    return calls


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``; returns a one-element list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestNodeMemo:
    @pytest.mark.parametrize("which", ["squeezed", "parametric"])
    def test_cold_values_equal_warm_values(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo
    ):
        bath = bath_squeezed if which == "squeezed" else bath_parametric
        cold = three_products(spec, bath)
        cold_memo()
        # other products and time points of the same bath fill the memos first
        for t in (3.0, 25.0):
            three_products(spec, bath, t)
        chi_hadamard(spec, bath, 6.0, 12.0, MEMO_QUAD)
        assert three_products(spec, bath) == cold

    def test_interleaved_baths_keep_their_solo_bits(self, bath_parametric, cold_memo):
        slow = OscillatorSpec.from_resonance(1.0, 1.0, 0.1)
        fast = OscillatorSpec.from_resonance(1.0, 1.0, 0.2)
        cases = [
            (slow, BathSpec(beta=0.3)),
            (fast, BathSpec(beta=0.3)),
            (slow, BathSpec(beta=2.0)),
            (slow, BathSpec(beta=0.3, squeeze=SqueezeParam(1.0, 0.5))),
            (slow, bath_parametric),
        ]
        solo = []
        for spec, bath in cases:
            cold_memo()
            solo.append(three_products(spec, bath))
        cold_memo()
        for i in [*range(len(cases)), *reversed(range(len(cases)))]:
            assert three_products(*cases[i]) == solo[i], i

    def test_caches_hold_at_most_maxsize(self, spec, cold_memo):
        resp = effective_response(spec, BathSpec(beta=1.0))
        size = _node_factors.cache_info().maxsize
        for i in range(size + 3):
            bath = BathSpec(beta=1.0 + 0.1 * i)
            tables = _node_factors(bath, MEMO_QUAD, resp)
            assert _node_factors(bath, MEMO_QUAD, resp) is tables
        info = _node_factors.cache_info()
        assert info.misses == size + 3  # one set per bath
        assert 0 < info.currsize <= info.maxsize

    @pytest.mark.parametrize("which", ["squeezed", "parametric"])
    def test_one_table_set_per_bath(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo
    ):
        # covariances, power_in and chi_hadamard share the response of the
        # bath, so all their parts read one table set
        bath = bath_squeezed if which == "squeezed" else bath_parametric
        three_products(spec, bath)
        assert _node_factors.cache_info().misses == 1

    def test_spectrum_set_reads_one_base_row_per_node(
        self, spec, bath_parametric, cold_memo, monkeypatch
    ):
        # the set of a spectrum bath holds the three response factors and
        # the two squeeze weights, all filled from one base row per node
        nodes = record_nodes(monkeypatch)
        evals = count_base_rows(monkeypatch)
        covariance_evolution(spec, bath_parametric, GROUND, 12.0, MEMO_QUAD)
        resp = effective_response(spec, bath_parametric)
        tables = _node_factors(bath_parametric, MEMO_QUAD, resp)
        assert _node_factors.cache_info().misses == 1
        assert 0 < evals[0] == len(set(nodes))
        assert [len(table) for table in tables] == [evals[0]] * 5

    @pytest.mark.parametrize("which", ["squeezed", "parametric"])
    def test_capped_tables_keep_the_values(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo, monkeypatch
    ):
        bath = bath_squeezed if which == "squeezed" else bath_parametric
        uncapped = three_products(spec, bath)
        cold_memo()
        monkeypatch.setattr(sqbath.oscillator_dynamics, "_MEMO_NODES", 5)
        capped = three_products(spec, bath)
        # _bilinear reduces a constant-squeeze bath to its measure
        measure_bath = bath if which == "parametric" else BathSpec(bath.beta)
        tables = _node_factors(measure_bath, MEMO_QUAD, effective_response(spec, bath))
        assert _node_factors.cache_info().misses == 1
        # a full table set stops growing; later nodes are evaluated afresh
        # on every lookup, with the same bits
        assert [len(table) for table in tables] == [5] * (5 if which == "parametric" else 3)
        assert capped == uncapped

    @pytest.mark.parametrize("which", ["constant", "parametric"])
    def test_each_node_is_evaluated_once(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo, monkeypatch
    ):
        # hardware-independent: counts the evaluations of the base row
        # (constant squeeze) or of the squeeze spectrum (parametric)
        nodes = record_nodes(monkeypatch)
        if which == "constant":
            evals = count_base_rows(monkeypatch)
            for t in (10.0, 20.0, 30.0):
                covariance_evolution(spec, bath_squeezed, GROUND, t, MEMO_QUAD)
        else:
            evals = count_calls(monkeypatch, SqueezeSpectrum, "eta_at")
            for t in (10.0, 20.0):
                covariance_evolution(spec, bath_parametric, GROUND, t, MEMO_QUAD)
                power_in(spec, bath_parametric, t, MEMO_QUAD)
        assert 0 < evals[0] <= len(set(nodes))
        assert evals[0] <= len(nodes) / 5


def count_quad_calls(monkeypatch):
    """Count the quadrature calls of the dynamics; returns a function
    that runs fn(*args) and returns (its value, the calls it made)."""
    calls = count_calls(monkeypatch, sqbath.oscillator_dynamics, "fourier_quad")

    def count(fn, *args):
        before = calls[0]
        value = fn(*args)
        return value, calls[0] - before

    return count


class TestTermMemo:
    """Each Fourier term is memoized by value for the whole run, keyed on
    its table set, coefficients, part, frequency and kind: a term that
    recurs at another squeeze angle, time, pair or product is integrated
    once, with the bits of its first integration."""

    THETAS = (0.0, math.pi / 6.0, math.pi / 2.0)
    TIMES = (5.0, 12.0, 30.0)
    BETA = 0.3

    def split(self, spec, theta):
        bath = BathSpec(self.BETA)
        return [ns_st_split(spec, bath, theta, t, MEMO_QUAD) for t in self.TIMES]

    def test_ns_split_over_thetas_keeps_cold_values(self, spec, cold_memo):
        cold = []
        for theta in self.THETAS:
            cold_memo()
            cold.append(self.split(spec, theta))
        cold_memo()
        assert [self.split(spec, theta) for theta in self.THETAS] == cold
        # and again, now served from the term memo
        assert [self.split(spec, theta) for theta in self.THETAS] == cold

    def test_stationary_part_integrated_once_per_time(self, spec, cold_memo, monkeypatch):
        count = count_quad_calls(monkeypatch)

        def stationary_only():
            # the unit-weight stationary part the split integrates; a zero
            # nonstationary weight leaves that part without terms
            resp = effective_response(spec, BathSpec(self.BETA))
            for t in self.TIMES:
                f = _f_factor(resp, t)
                _bilinear(resp, BathSpec(self.BETA), f, f, MEMO_QUAD, (1.0, 0.0))

        cold_memo()
        stationary = count(stationary_only)[1]
        cold = []
        for theta in self.THETAS:
            cold_memo()
            cold.append(count(self.split, spec, theta)[1])
        cold_memo()
        warm = [count(self.split, spec, theta)[1] for theta in self.THETAS]
        assert 0 < stationary < cold[0]
        assert warm == [cold[0], *(n - stationary for n in cold[1:])]

    def test_late_time_repeat_integrated_once(self, workloads, cold_memo, monkeypatch):
        # at t = 340 and 350 the transients d1(t), d2(t) are below
        # round-off, so one term of the two times has equal coefficients
        cfg = parse_config(workloads.WORKLOADS["mass-ramp"].make_config(0))
        spec, bath, quad = cfg.oscillator, _build_bath(cfg), cfg.quad
        count = count_quad_calls(monkeypatch)

        def point(t):
            return covariance_evolution(spec, bath, GROUND, t, quad), power_in(spec, bath, t, quad)

        cold = []
        for t in (340.0, 350.0):
            cold_memo()
            cold.append(count(point, t))
        cold_memo()
        warm = [count(point, t) for t in (340.0, 350.0)]
        assert [value for value, _ in warm] == [value for value, _ in cold]
        assert sum(n for _, n in warm) == sum(n for _, n in cold) - 1

    def test_hadamard_surface_shares_terms_across_pairs(self, cold_memo, monkeypatch):
        # the grn3d preset's surface: the stationary term at |t - t'| and
        # the nonstationary one at t + t' recur across the pairs of an
        # even grid
        cfg = parse_config(figure_preset("grn3d"))
        spec, bath, quad = cfg.oscillator, _build_bath(cfg), cfg.quad
        grid = [float(t) for t in cfg.hadamard_grid]
        pairs = [(t, s) for i, t in enumerate(grid) for s in grid[i:]]
        count = count_quad_calls(monkeypatch)

        def surface():
            return [chi_hadamard_components(spec, bath, 0.0, t, s, quad) for t, s in pairs]

        cold_values, cold_calls = [], 0
        for pair in pairs:
            cold_memo()
            value, calls = count(chi_hadamard_components, spec, bath, 0.0, *pair, quad)
            cold_values.append(value)
            cold_calls += calls
        cold_memo()
        values, calls = count(surface)
        assert values == cold_values
        assert calls < cold_calls

    @pytest.mark.parametrize("other", ["gamma", "beta"])
    def test_no_sharing_across_responses_or_baths(self, spec, other, cold_memo, monkeypatch):
        count = count_quad_calls(monkeypatch)
        if other == "gamma":
            cases = [(OscillatorSpec.from_resonance(1.0, 1.0, g), BathSpec(self.BETA))
                     for g in (0.1, 0.2)]
        else:
            cases = [(spec, BathSpec(beta)) for beta in (self.BETA, 2.0)]
        cold = []
        for case in cases:
            cold_memo()
            cold.append(count(covariance_evolution, *case[:2], GROUND, 12.0, MEMO_QUAD))
        cold_memo()
        warm = [count(covariance_evolution, *case[:2], GROUND, 12.0, MEMO_QUAD) for case in cases]
        assert warm == cold

    def test_clear_node_memos_clears_the_term_memo(self, spec, bath_squeezed, cold_memo):
        covariance_evolution(spec, bath_squeezed, GROUND, 12.0, MEMO_QUAD)
        assert _integral.cache_info().currsize > 0
        cold_memo()
        assert _integral.cache_info().currsize == 0


def test_quadrature_failure_names_the_term(spec, bath_squeezed):
    # QUADPACK cannot reach rel_tol on this cutoff (ROADMAP Direction B)
    with pytest.raises(ConvergenceError) as info:
        covariance_evolution(spec, bath_squeezed, GROUND, 30.0, QuadratureConfig(cutoff=2e4))
    exc = info.value
    kind, freq = exc.diagnostics["kind"], exc.diagnostics["freq"]
    assert kind in ("cos", "sin") and exc.diagnostics["interval"] == [0.0, 2e4]
    assert str(exc).startswith(f"{kind} term at frequency {freq:.6g} over [0, 20000]: ")
    # a zero-frequency term falls back to the plain rule and says so
    label = "plain integral (frequency 0)" if freq == 0 else "oscillatory integral"
    assert f"quadrature did not converge for {label}: " in str(exc)
    assert exc.diagnostics["abserr"] > 0 and math.isfinite(exc.partial_value)
