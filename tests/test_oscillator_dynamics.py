import cmath
import math

import numpy as np
import pytest

from oracles import d2_fourier, f_aux, fundamental_solutions
import sqbath.bath_kernels
import sqbath.oscillator_dynamics
from sqbath.bath_kernels import BathSpec, SqueezeSpectrum
from sqbath.cli import parse_config, run_sweep
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
    _f_factor,
    _node_factors,
    _part,
    chi_hadamard,
    chi_hadamard_components,
    covariance_evolution,
    covariance_integral_parts,
    effective_response,
    hadamard_coincident,
    massive_roots,
    ns_st_split,
)
from sqbath.quadrature import QuadratureConfig, omega_coth_half_beta, plain_quad

GROUND = CovarianceState(xx=0.5, pp=0.5, xp=0.0)


def fdot_aux(spec, t: float, omega):
    """Time derivative of f(t; w) in closed form (no 1/w pole):
    d2~(w)[-i w e^{-iwt} - d1'(t) + i w d2'(t)]."""
    _, _, d1_dot, d2_dot = fundamental_solutions(spec, t)
    w = np.asarray(omega, dtype=float)
    out = d2_fourier(spec, w) * (-1j * w * np.exp(-1j * w * t) - d1_dot + 1j * w * d2_dot)
    return complex(out) if np.ndim(omega) == 0 else out


def stationary_xx_oracle(spec, beta, cutoff):
    """Late-time <chi^2>: (8 pi gamma / m) int dmu 2 |d2~|^2, eta = 0."""

    def kern(w):
        return (
            omega_coth_half_beta(w, beta)
            / (8 * math.pi**2)
            * 2.0
            * np.abs(d2_fourier(spec, w)) ** 2
        )

    val, _ = plain_quad(kern, 0.0, cutoff, QuadratureConfig(rel_tol=1e-11, abs_tol=1e-14))
    return 8.0 * math.pi * spec.gamma / spec.m * val


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

    def test_negative_time_rejected(self, spec):
        with pytest.raises(DomainError):
            fundamental_solutions(spec, -0.1)


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
        s = np.linspace(0.0, t, 200_001)
        _, d2, _, _ = fundamental_solutions(spec, t - s)
        oracle = np.trapezoid(d2 * np.exp(-1j * w * s), s)
        assert abs(f_aux(spec, t, w) - oracle) < 1e-8

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
        t = np.linspace(0.0, 400.0, 2**18 + 1)
        _, d2, _, _ = fundamental_solutions(spec, t)
        val = np.trapezoid(d2 * np.exp(1j * 0.5 * t), t)
        assert abs(val - d2_fourier(spec, 0.5)) < 1e-4


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
        oracle = stationary_xx_oracle(spec, bath_thermal.beta, quad.cutoff)
        assert abs(cov.xx / oracle - 1.0) < 1e-3

    def test_cosh_boost(self, spec, quad, bath_thermal, bath_squeezed):
        t = 30.0 / spec.gamma
        xx0 = covariance_evolution(spec, bath_thermal, GROUND, t, quad).xx
        xx1 = covariance_evolution(spec, bath_squeezed, GROUND, t, quad).xx
        assert abs(xx1 / xx0 / math.cosh(2.0) - 1.0) < 1e-3

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
        # oracle: Simpson^2 over the bath Hadamard function against the
        # fundamental-solution windows; regulated by epsilon = 0.1 so the
        # kernel is resolvable on the grid.  Checks the frequency-domain
        # route at small t.
        import mpmath as mp

        beta, eps, theta, eta = 1.0, 0.1, 0.9, 0.6
        quad = QuadratureConfig(epsilon=eps, rel_tol=1e-10, abs_tol=1e-14)
        bath = BathSpec(beta=beta, squeeze=SqueezeParam(eta, theta))
        t = 4.0
        n = 1280  # Simpson needs even interval count
        s = np.linspace(0.0, t, n + 1)

        def closed(big_t, phase=0.0):
            z = mp.mpc(eps, -float(big_t))
            val = mp.e ** (-1j * mp.mpf(phase)) * (
                1 / z**2 + 2 / mp.mpf(beta) ** 2 * mp.zeta(2, 1 + z / beta)
            )
            return float(mp.re(val)) / (8 * math.pi**2)

        diffs = s[:, None] - s[None, :]
        sums = s[:, None] + s[None, :]
        uniq_d = np.unique(np.round(diffs, 12))
        uniq_s = np.unique(np.round(sums, 12))
        stat_map = {d: 2.0 * closed(abs(d)) for d in uniq_d}
        ns_map = {v: 2.0 * closed(v, theta) for v in uniq_s}
        g_stat = np.vectorize(lambda d: stat_map[round(d, 12)])(diffs)
        g_ns = np.vectorize(lambda v: ns_map[round(v, 12)])(sums)
        g_h = math.cosh(2 * eta) * g_stat - math.sinh(2 * eta) * g_ns

        wts = np.ones(n + 1)
        wts[1:-1:2], wts[2:-1:2] = 4.0, 2.0
        wts *= (s[1] - s[0]) / 3.0
        d1, d2, d1d, d2d = fundamental_solutions(spec, t - s)
        e_sq = 8 * math.pi * spec.gamma * spec.m
        w_x = wts * d2
        w_p = wts * d2d
        xx_oracle = (e_sq / spec.m**2) * (w_x @ g_h @ w_x)
        pp_oracle = e_sq * (w_p @ g_h @ w_p)
        xp_oracle = (e_sq / spec.m) * (w_x @ g_h @ w_p)

        i_xx, i_pp, i_xp = covariance_integral_parts(spec, bath, t, quad)
        assert abs(i_xx / xx_oracle - 1.0) < 1e-4
        assert abs(i_pp / pp_oracle - 1.0) < 1e-4
        assert abs(i_xp / xp_oracle - 1.0) < 1e-4


def bilinear_panel_oracle(spec, beta, eta, theta, t, cutoff):
    """(xx, pp, xp, P_xi) integral parts from their defining bilinear forms.

    Each is int dmu [cosh 2eta 2 Re(u v*) - 2 Re(sinh 2eta e^{i theta} u v)]
    with dmu = w coth(bw/2) dw / 8 pi^2 and (u, v) = (f, f), (f', f'),
    (f, f') and (f', e^{-iwt}), f and f' from f_aux and fdot_aux, times
    e^2/m^2, e^2, e^2/m and 8 pi gamma.  Summed by a 16-node
    Gauss-Legendre rule on uniform panels 0.01 wide over [0, cutoff],
    without QUADPACK.
    """
    width, chunk = 0.01, 5000
    x, wts = np.polynomial.legendre.leggauss(16)
    ch, sh = math.cosh(2 * eta), math.sinh(2 * eta) * cmath.exp(1j * theta)
    n_panels = int(round(cutoff / width))
    sums = np.zeros(4)
    for first in range(0, n_panels, chunk):
        left = width * np.arange(first, min(first + chunk, n_panels))
        w = (left[:, None] + 0.5 * width * (x + 1.0)).ravel()
        mu = np.tile(0.5 * width * wts, left.size) * w / np.tanh(0.5 * beta * w)
        mu /= 8.0 * math.pi**2
        f, fd = f_aux(spec, t, w), fdot_aux(spec, t, w)
        wave = np.exp(-1j * w * t)
        for i, (u, v) in enumerate(((f, f), (fd, fd), (f, fd), (fd, wave))):
            form = ch * 2.0 * (u * v.conj()).real - 2.0 * (sh * u * v).real
            sums[i] += mu @ form
    e_sq = 8.0 * math.pi * spec.gamma * spec.m
    return sums * np.array([e_sq / spec.m**2, e_sq, e_sq / spec.m, 8.0 * math.pi * spec.gamma])


class TestBilinearFormsOracle:
    @pytest.mark.parametrize("t", [5.0, 20.0])
    @pytest.mark.parametrize(
        "gamma, beta, eta, theta", [(0.1, 0.3, 1.0, 0.7), (0.3, 10.0, 0.5, 1.2)]
    )
    def test_covariance_and_power_match_panel_oracle(self, quad, gamma, beta, eta, theta, t):
        spec = OscillatorSpec.from_resonance(m=1.0, Omega=1.0, gamma=gamma)
        bath = BathSpec(beta=beta, squeeze=SqueezeParam(eta, theta))
        got = np.array(
            [*covariance_integral_parts(spec, bath, t, quad), power_in(spec, bath, t, quad)]
        )
        ref = bilinear_panel_oracle(spec, beta, eta, theta, t, quad.cutoff)
        dev = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        assert dev < quad.rel_tol, f"(xx, pp, xp, P_xi) = {got} vs oracle {ref}"


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
        assert abs(kv.total / i_xx - 1.0) < 1e-8

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
        assert abs(kv.total / (math.cosh(2.0) * thermal.total) - 1.0) < 1e-3


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


def count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name``; returns a one-element list."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

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
        hadamard_coincident(bath, 12.0, 6.0, MEMO_QUAD)
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
        assert info.misses == 2 * (size + 3)  # a base set and a response set per bath
        assert 0 < info.currsize <= info.maxsize

    @pytest.mark.parametrize("which", ["squeezed", "parametric"])
    def test_one_table_set_per_bath(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo
    ):
        # covariances, power_in and chi_hadamard share the response of the
        # bath, so all their parts read one response set and its base set
        bath = bath_squeezed if which == "squeezed" else bath_parametric
        three_products(spec, bath)
        assert _node_factors.cache_info().misses == 2

    def test_gamma_sweep_shares_one_measure(self, cold_memo, monkeypatch):
        # each gamma has its own response set, all read one base set
        nodes = record_nodes(monkeypatch)
        evals = count_calls(monkeypatch, sqbath.bath_kernels, "omega_coth_half_beta")
        bath = BathSpec(beta=0.3)
        for gamma in (0.3, 0.1, 0.03):
            spec = OscillatorSpec.from_resonance(1.0, 1.0, gamma)
            covariance_evolution(spec, bath, GROUND, 12.0, MEMO_QUAD)
        assert _node_factors.cache_info().misses == 1 + 3
        assert 0 < evals[0] == len(set(nodes))

    def test_gamma_sweep_shares_one_spectrum(self, bath_parametric, cold_memo, monkeypatch):
        # the responses of two gammas read one base set, so the squeeze
        # spectrum is evaluated once per distinct node, not once per gamma
        nodes = record_nodes(monkeypatch)
        evals = count_calls(monkeypatch, SqueezeSpectrum, "eta_at")
        for gamma in (0.1, 0.05):
            spec = OscillatorSpec.from_resonance(1.0, 1.0, gamma)
            covariance_evolution(spec, bath_parametric, GROUND, 12.0, MEMO_QUAD)
        assert 0 < evals[0] == len(set(nodes))
        assert _node_factors.cache_info().misses == 1 + 2

    def test_cli_gamma_sweep_shares_one_spectrum(self, tmp_path, cold_memo, monkeypatch):
        # through the CLI each point builds its own bath; the points share
        # one base set because both baths carry the one solved spectrum
        data = {
            "scenario": "parametric",
            "oscillator": {"m": 1.0, "Omega": 1.0, "gamma": 0.1},
            "bath": {"beta": 1.0},
            "profile": {"mass_i": 0.0, "mass_f": 0.5, "t_i": 0.0, "t_f": 2.0},
            "k_grid": {"start": 0.05, "stop": 60.0, "points": 8, "spacing": "log"},
            "quadrature": {"cutoff": 100.0},
            "time_grid": {"start": 10.0, "stop": 20.0, "points": 2},
            "outputs": ["covariances"],
            "sweep": {"path": "oscillator.gamma", "values": [0.1, 0.05]},
        }
        nodes = record_nodes(monkeypatch)
        evals = count_calls(monkeypatch, SqueezeSpectrum, "eta_at")
        run_sweep(parse_config(data), tmp_path)
        assert 0 < evals[0] == len(set(nodes))

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
        tables = [
            *_node_factors(measure_bath, MEMO_QUAD, effective_response(spec, bath)),
            *_node_factors(measure_bath, MEMO_QUAD, None),
        ]
        assert _node_factors.cache_info().misses == 2
        # a full table set stops growing; later nodes are evaluated afresh
        # on every lookup, with the same bits
        assert [len(table) for table in tables] == [5] * len(tables)
        assert capped == uncapped

    @pytest.mark.parametrize("which", ["constant", "parametric"])
    def test_each_node_is_evaluated_once(
        self, spec, which, bath_squeezed, bath_parametric, cold_memo, monkeypatch
    ):
        # hardware-independent: counts the underlying evaluations of the
        # measure (constant squeeze) or of the squeeze spectrum (parametric)
        nodes = record_nodes(monkeypatch)
        if which == "constant":
            evals = count_calls(monkeypatch, sqbath.bath_kernels, "omega_coth_half_beta")
            for t in (10.0, 20.0, 30.0):
                covariance_evolution(spec, bath_squeezed, GROUND, t, MEMO_QUAD)
        else:
            evals = count_calls(monkeypatch, SqueezeSpectrum, "eta_at")
            for t in (10.0, 20.0):
                covariance_evolution(spec, bath_parametric, GROUND, t, MEMO_QUAD)
                power_in(spec, bath_parametric, t, MEMO_QUAD)
        assert 0 < evals[0] <= len(set(nodes))
        assert evals[0] <= len(nodes) / 5


class TestPartMemo:
    """Each part of a bilinear form is memoized by value for the whole run:
    the stationary part of the squeeze-angle split does not depend on the
    angle, so a second angle integrates only the nonstationary part."""

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
        # and again, now served from the part memo
        assert [self.split(spec, theta) for theta in self.THETAS] == cold

    def test_stationary_part_integrated_once_per_time(self, spec, cold_memo, monkeypatch):
        calls = [0]
        original = sqbath.oscillator_dynamics.fourier_quad

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(sqbath.oscillator_dynamics, "fourier_quad", counted)

        def count(fn, *args):
            before = calls[0]
            fn(*args)
            return calls[0] - before

        def stationary_only():
            # the unit-weight stationary part the split integrates
            resp = effective_response(spec, BathSpec(self.BETA))
            for t in self.TIMES:
                f = _f_factor(resp, t)
                _part(resp, BathSpec(self.BETA), f, f, MEMO_QUAD, True, 1.0)

        cold_memo()
        stationary = count(stationary_only)
        cold = []
        for theta in self.THETAS:
            cold_memo()
            cold.append(count(self.split, spec, theta))
        cold_memo()
        warm = [count(self.split, spec, theta) for theta in self.THETAS]
        assert 0 < stationary < cold[0]
        assert warm == [cold[0], *(n - stationary for n in cold[1:])]


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
