import math

import numpy as np
import pytest

from oracles import (
    EstimationError,
    bath_fdr,
    covariance_oracle,
    d2_fourier,
    jn_falloff,
    jn_integral,
)
import sqbath.energy_fdr
from sqbath.bath_kernels import BathSpec
from sqbath.energy_fdr import fdr_oscillator, flux_balance, power_in, power_out
from sqbath.errors import ConfigurationError, DomainError
from sqbath.gaussian_state import CovarianceState, SqueezeParam
from sqbath.oscillator_dynamics import (
    OscillatorSpec,
    covariance_evolution,
    covariance_integral_parts,
    effective_response,
)
from sqbath.quadrature import QuadratureConfig


def driven_pp(spec, bath, t, quad):
    """Bath-driven <p^2(t)>, without the initial-state terms."""
    return covariance_integral_parts(spec, bath, t, quad)[1]


class TestPowerIn:
    def test_zero_at_switch_on(self, spec, quad, bath_squeezed):
        assert power_in(spec, bath_squeezed, 0.0, quad) == 0.0

    def test_requires_regulator(self, spec, bath_thermal):
        with pytest.raises(ConfigurationError):
            power_in(spec, bath_thermal, 1.0, QuadratureConfig())

    def test_thermal_late_time_matches_stationary_oracle(self, spec, quad, bath_thermal):
        t = 30.0 / spec.gamma
        p = power_in(spec, bath_thermal, t, quad)
        # the stationary value: no nonstationary part, transients e^-100
        oracle = covariance_oracle(spec, bath_thermal, 100.0 / spec.gamma, quad)[3]
        assert abs(p / oracle - 1.0) < 1e-3

    def test_cosh_factor(self, spec, quad, bath_thermal, bath_squeezed):
        t = 30.0 / spec.gamma
        p0 = power_in(spec, bath_thermal, t, quad)
        p1 = power_in(spec, bath_squeezed, t, quad)
        assert abs(p1 / p0 / math.cosh(2.0) - 1.0) < 1e-3


class TestPowerOut:
    def test_decoupled(self, bath_thermal):
        free = OscillatorSpec(m=1.0, omega_r=1.0, gamma=0.0)
        assert power_out(free, bath_thermal, 5.0) == 0.0

    def test_proportional_to_momentum_dispersion(self, spec, quad, bath_squeezed):
        pp = driven_pp(spec, bath_squeezed, 12.0, quad)
        p_out = power_out(spec, bath_squeezed, pp)
        assert abs(p_out + 2.0 * spec.gamma / spec.m * pp) < 1e-12 * abs(p_out)

    def test_massive_bath_damps_at_upsilon(self, spec, bath_parametric):
        upsilon = effective_response(spec, bath_parametric).gamma
        assert upsilon != spec.gamma
        assert power_out(spec, bath_parametric, 1.5) == -(2.0 * upsilon / spec.m) * 1.5

    def test_initial_state_contribution_decays(self, spec, quad, bath_thermal):
        init = CovarianceState(xx=2.0, pp=1.0, xp=0.0)

        def with_and_without(t):
            pp_with = covariance_evolution(spec, bath_thermal, init, t, quad).pp
            pp_without = driven_pp(spec, bath_thermal, t, quad)
            return (
                power_out(spec, bath_thermal, pp_with),
                power_out(spec, bath_thermal, pp_without),
            )

        early_with, early_without = with_and_without(1.0)
        assert abs(early_with - early_without) > 1e-3 * abs(early_without)
        late_with, late_without = with_and_without(300.0)
        assert abs(late_with - late_without) < 1e-10 * abs(late_without)


class TestEnergyBalance:
    @staticmethod
    def sampled_balance(spec, bath, times, quad):
        p_xi = np.array([power_in(spec, bath, t, quad) for t in times])
        p_gamma = np.array(
            [power_out(spec, bath, driven_pp(spec, bath, t, quad)) for t in times]
        )
        return p_xi, p_gamma, flux_balance(spec, bath, times, p_xi, p_gamma)

    def test_flux_report(self, spec, quad, bath_thermal):
        times = np.array([250.0, 275.0, 300.0])
        p_xi, p_gamma, meta = self.sampled_balance(spec, bath_thermal, times, quad)
        assert meta["balance_residual"] < 1e-3
        assert meta["late_time_ok"] is True
        assert meta["damping_rate"] == spec.gamma
        assert np.all(p_xi > 0.0)
        assert np.all(p_gamma < 0.0)

    def test_flux_report_guards(self, spec, quad, bath_thermal):
        # a grid that ends before 30/Gamma is not a late-time balance
        times = np.array([1.0, 2.0])
        _, _, meta = self.sampled_balance(spec, bath_thermal, times, quad)
        assert meta["late_time_ok"] is False
        # nor is a late grid whose P_gamma still moves by more than 1e-4
        # of its value per unit time
        late = np.array([299.0, 300.0])
        meta = flux_balance(spec, bath_thermal, late, [1.0, 1.0], [-1.0, -1.001])
        assert meta["late_time_ok"] is False
        meta = flux_balance(spec, bath_thermal, late, [1.0, 1.0], [-1.0, -1.00005])
        assert meta["late_time_ok"] is True


class TestJnFalloff:
    def test_boltzmann_suppression(self, spec):
        # raw integral at moderate time: pole piece carries e^{-n beta Re w+}
        mags = [
            abs(jn_integral(spec, 1.0, n, 20.0, subtract_pole=False))
            for n in (1, 2, 3)
        ]
        assert mags[0] > mags[1] > mags[2]
        # the algebraic tail is also (weakly) decreasing in n
        tails = [abs(jn_integral(spec, 1.0, n, 50.0)) for n in (1, 2, 3)]
        assert tails[0] > tails[1] > tails[2]

    def test_window_guard(self, spec):
        with pytest.raises(EstimationError):
            jn_falloff(spec, 1.0, 1, np.linspace(20.0, 40.0, 6))

    def test_vacuum_needs_regulator(self, spec):
        with pytest.raises(DomainError):
            jn_integral(spec, 1.0, 0, 10.0, epsilon=0.0)

    def test_pole_subtraction_removes_transient(self, spec):
        # at gamma t = 2 the raw integral is dominated by the e^{-2 gamma t}
        # response-pole residue; the subtracted one follows the t^-2 law
        raw = abs(jn_integral(spec, 1.0, 1, 20.0, subtract_pole=False))
        sub = abs(jn_integral(spec, 1.0, 1, 20.0))
        assert raw > 5.0 * sub


class TestFdrOscillator:
    def test_threshold_frequencies_dropped(self, spec):
        from sqbath.parametric_mode import MassProfile, squeeze_spectrum

        prof = MassProfile(0.2, 0.5, 0.0, 2.0)
        spect = squeeze_spectrum(prof, np.geomspace(0.02, 60.0, 32))
        bath = BathSpec(beta=1.0, squeeze=spect, mass_i=0.2, mass_f=0.5)
        grid = np.linspace(-1.0, 1.0, 201)
        rep = fdr_oscillator(spec, bath, grid)
        assert np.all(np.abs(rep.omegas) > 0.2)
        assert rep.max_rel_deviation < 1e-6

    @pytest.mark.parametrize(
        "bath_kind",
        ["thermal", "squeezed", "zero-T", "parametric", "parametric-zero-T", "near-threshold"],
    )
    def test_absolute_values_pinned_to_bath_fdr(self, bath_kind):
        # the two sides of each FDR are equal algebraically, so their
        # deviation reads round-off; this pin is the check on their values.
        # each side is the bath FDR side times the oscillator's response:
        # hadamard = 8 pi gamma m |G_R|^2 lhs, dissipation = rhs Im G_R / (kappa/4pi)
        # with G_R = (1/m)/(w_r^2 - w^2 - 2 i gamma kappa); m != 1 exposes 1/m.
        # near the threshold the dissipation side's coth is the base row's
        # kappa coth over a small kappa
        from sqbath.parametric_mode import MassProfile, squeeze_spectrum

        spec = OscillatorSpec(m=2.0, omega_r=1.2, gamma=0.15)
        grid = np.linspace(-10.0, 10.0, 1000)
        if bath_kind in ("parametric", "parametric-zero-T", "near-threshold"):
            prof = MassProfile(0.2, 0.5, 0.0, 2.0)
            spect = squeeze_spectrum(prof, np.geomspace(0.02, 60.0, 32))
            beta = math.inf if bath_kind == "parametric-zero-T" else 1.0
            bath = BathSpec(beta=beta, squeeze=spect, mass_i=0.2, mass_f=0.5)
            if bath_kind == "near-threshold":
                grid = 0.2 * (1.0 + np.array([1.5e-12, 1e-10, 1e-8, 1e-6, 1e-4]))
        else:
            bath = {
                "thermal": BathSpec(beta=0.3),
                "squeezed": BathSpec(beta=10.0, squeeze=SqueezeParam(1.0, 0.4)),
                "zero-T": BathSpec(beta=math.inf, squeeze=SqueezeParam(0.5, 0.0)),
            }[bath_kind]
        rep = fdr_oscillator(spec, bath, grid)
        if bath_kind == "near-threshold":
            assert rep.omegas.size == grid.size
        for w, had, dis in zip(rep.omegas, rep.hadamard_side, rep.dissipation_side):
            lhs, rhs = bath_fdr(float(w), bath)
            kappa = math.sqrt(w * w - bath.mass_i**2)
            g_r = (1.0 / spec.m) / complex(spec.omega_r**2 - w * w, -2.0 * spec.gamma * kappa)
            want_had = 8.0 * math.pi * spec.gamma * spec.m * abs(g_r) ** 2 * lhs
            want_dis = rhs * g_r.imag / (kappa / (4.0 * math.pi))
            assert abs(had - want_had) <= 1e-13 * abs(want_had)
            assert abs(dis - want_dis) <= 1e-13 * abs(want_dis)

    def test_massless_parametric_keeps_zero_frequency(self, spec, bath_parametric):
        assert bath_parametric.mass_i == 0.0
        grid = np.linspace(-1.0, 1.0, 201)
        rep = fdr_oscillator(spec, bath_parametric, grid)
        np.testing.assert_array_equal(rep.omegas, grid)
        i0 = int(np.flatnonzero(rep.omegas == 0.0)[0])
        had, dis = rep.hadamard_side[i0], rep.dissipation_side[i0]
        assert math.isfinite(had) and had > 0.0 and dis == had
        # limit of (2 gamma/m) cosh 2eta_kappa |G|^2 kappa coth(b kappa/2) at w = 0
        ch2 = math.cosh(2.0 * bath_parametric.squeeze.eta[0])
        limit = 4.0 * spec.gamma * ch2 / (bath_parametric.beta * spec.m * spec.omega_r**4)
        assert abs(had - limit) <= 1e-12 * limit
        assert rep.max_rel_deviation < 1e-6

    def test_one_base_row_per_distinct_frequency(self, spec, bath_squeezed, monkeypatch):
        # a frequency and its mirror read one row; the linspace grid of
        # configs/constant_squeeze.yaml is symmetric only up to round-off
        # (729 distinct |w| of 1001), a grid mirrored in bits, like the
        # default grid of a run, holds 501
        rows = [0]
        original = sqbath.energy_fdr._base_row

        def counted_base_row(bath, epsilon):
            row = original(bath, epsilon)

            def counted(w):
                rows[0] += 1
                return row(w)

            return counted

        monkeypatch.setattr(sqbath.energy_fdr, "_base_row", counted_base_row)
        shipped = np.linspace(-10.0, 10.0, 1001)
        fdr_oscillator(spec, bath_squeezed, shipped)
        assert rows[0] == 729 == np.unique(np.abs(shipped)).size
        half = np.linspace(0.0, 10.0, 501)
        rows[0] = 0
        rep = fdr_oscillator(spec, bath_squeezed, np.concatenate([-half[:0:-1], half]))
        assert rows[0] == 501
        for side in (rep.hadamard_side, rep.dissipation_side):
            np.testing.assert_array_equal(side, side[::-1])

    def test_parity(self, spec, bath_thermal):
        grid = np.linspace(-8.0, 8.0, 801)
        rep = fdr_oscillator(spec, bath_thermal, grid)
        h = rep.hadamard_side
        d = rep.dissipation_side
        assert np.max(np.abs(h - h[::-1])) < 1e-12 * np.max(np.abs(h))
        assert np.max(np.abs(d - d[::-1])) < 1e-12 * np.max(np.abs(d))
        # raw retarded transform is odd, sgn-weighted coth even
        w = np.linspace(-8.0, 8.0, 800)  # even count: omega = 0 excluded
        im = d2_fourier(spec, w).imag
        assert np.max(np.abs(im + im[::-1])) < 1e-14 * np.max(np.abs(im))
        even = np.sign(w) / np.tanh(0.5 * 0.3 * w)
        assert np.max(np.abs(even - even[::-1])) < 1e-12 * np.max(np.abs(even))


class TestNonstationaryPowerDecayClass:
    def test_polynomial_not_exponential(self, spec):
        # the oscillating remnant of P_xi decays polynomially: fitted
        # exponent in a [-3.5, -1.5] band (the covariance nonstationarity
        # has its own power-law tail, 1/t when theta != 0 at finite
        # temperature).
        # The smooth regulator matters: a hard cutoff Lambda leaves a
        # spurious cos(2 Lambda t)/t boundary remnant instead.
        quad = QuadratureConfig(epsilon=1e-3, abs_tol=1e-14)
        bath = BathSpec(beta=1.0, squeeze=SqueezeParam(1.0, 0.0))
        thermal = BathSpec(beta=1.0)
        ts = np.geomspace(40.0, 400.0, 8)
        ns = [
            abs(
                power_in(spec, bath, float(t), quad)
                - math.cosh(2.0) * power_in(spec, thermal, float(t), quad)
            )
            for t in ts
        ]
        slope, _ = np.polyfit(np.log(ts), np.log(ns), 1)
        assert -3.5 < slope < -1.5
