import math

import numpy as np
import pytest

from sqbath.errors import DomainError
from sqbath.parametric_mode import (
    MassProfile,
    ProfileShape,
    bogoliubov_from_mode,
    integrate_mode,
    squeeze_spectrum,
)


def step_beta_modulus(om_i, om_f):
    return abs(om_f - om_i) / (2.0 * math.sqrt(om_i * om_f))


class TestMassProfile:
    def test_clipping_and_monotonicity(self, tanh_profile):
        t = np.linspace(-1.0, 4.0, 400)
        msq = tanh_profile.mass_sq(t)
        assert np.all(msq[t <= 0.0] == 0.0)
        assert np.allclose(msq[t >= 2.0], 0.25, rtol=0, atol=1e-15)
        inside = msq[(t > 0) & (t < 2)]
        assert np.all(np.diff(inside) >= -1e-15)

    def test_smoothstep_shape(self):
        prof = MassProfile(0.1, 0.6, 1.0, 3.0, shape=ProfileShape.SMOOTHSTEP)
        assert prof.mass_sq(1.0) == pytest.approx(0.01)
        assert prof.mass_sq(3.0) == pytest.approx(0.36)
        assert prof.mass_sq(2.0) == pytest.approx((0.01 + 0.36) / 2)

    def test_validation(self):
        with pytest.raises(DomainError):
            MassProfile(0.0, 0.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            MassProfile(-0.1, 0.5, 0.0, 1.0)


class TestIntegrateMode:
    def test_constant_mass_closed_form(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        grid = np.linspace(0.0, 5.0, 401)
        sol = integrate_mode(1.2, prof, grid)
        om = math.hypot(1.2, 0.3)
        np.testing.assert_allclose(sol.d1, np.cos(om * grid), atol=1e-12)
        np.testing.assert_allclose(sol.d2, np.sin(om * grid) / om, atol=1e-12)
        np.testing.assert_allclose(sol.wronskian(), 1.0, atol=1e-12)

    def test_initial_conditions(self, tanh_profile):
        grid = np.linspace(0.0, 3.0, 301)
        sol = integrate_mode(0.7, tanh_profile, grid)
        assert sol.d1[0] == 1.0 and sol.d1_dot[0] == 0.0
        assert sol.d2[0] == 0.0 and sol.d2_dot[0] == 1.0

    def test_tanh_wronskian_stays_unit(self, tanh_profile):
        grid = np.linspace(0.0, 6.0, 1201)
        sol = integrate_mode(1.0, tanh_profile, grid, tol=1e-10)
        assert np.max(np.abs(sol.wronskian() - 1.0)) < 1e-9

    def test_grid_validation(self, tanh_profile):
        with pytest.raises(DomainError):
            integrate_mode(1.0, tanh_profile, np.linspace(1.0, 2.0, 10))
        with pytest.raises(DomainError):
            integrate_mode(-1.0, tanh_profile, np.linspace(0.0, 2.0, 10))


class TestBogoliubov:
    def test_constant_mass_identity(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        grid = np.linspace(0.0, 5.0, 501)
        sol = integrate_mode(1.0, prof, grid)
        for t in (0.0, 1.3, 4.9):
            pair = bogoliubov_from_mode(sol, prof.omega_i(1.0), t)
            assert abs(pair.alpha - 1.0) < 1e-10
            assert abs(pair.beta) < 1e-10

    def test_step_profile_analytic_modulus(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0, shape=ProfileShape.STEP)
        grid = np.linspace(0.0, 2.0, 801)
        for k in (0.3, 0.7, 2.0):
            sol = integrate_mode(k, prof, grid)
            om_i, om_f = prof.omega_i(k), prof.omega_f(k)
            pair = bogoliubov_from_mode(
                sol, om_i, 2.0, omega_out=om_f, reference_time=2.0
            )
            assert abs(abs(pair.beta) - step_beta_modulus(om_i, om_f)) < 1e-10
            assert pair.wronskian_defect() < 1e-12

    def test_moduli_frozen_after_process(self, tanh_profile):
        grid = np.linspace(0.0, 8.0, 1601)
        sol = integrate_mode(0.8, tanh_profile, grid, tol=1e-10)
        om_i, om_f = tanh_profile.omega_i(0.8), tanh_profile.omega_f(0.8)
        mods = [
            abs(bogoliubov_from_mode(sol, om_i, float(t), omega_out=om_f).beta)
            for t in np.linspace(2.0, 8.0, 10)
        ]
        assert max(mods) - min(mods) < 1e-8

    def test_wronskian_normalization_everywhere(self, tanh_profile):
        grid = np.linspace(0.0, 4.0, 801)
        sol = integrate_mode(1.4, tanh_profile, grid, tol=1e-10)
        om_i, om_f = tanh_profile.omega_i(1.4), tanh_profile.omega_f(1.4)
        for t in np.linspace(0.0, 4.0, 15):
            for nu in (None, om_f):
                pair = bogoliubov_from_mode(sol, om_i, float(t), omega_out=nu)
                assert pair.wronskian_defect() < 1e-8

    def test_hyperbolic_identity(self, tanh_profile):
        grid = np.linspace(0.0, 4.0, 801)
        sol = integrate_mode(0.5, tanh_profile, grid, tol=1e-10)
        pair = bogoliubov_from_mode(
            sol,
            tanh_profile.omega_i(0.5),
            2.0,
            omega_out=tanh_profile.omega_f(0.5),
            reference_time=2.0,
        )
        eta = math.asinh(abs(pair.beta))
        total = abs(pair.alpha) ** 2 + abs(pair.beta) ** 2
        assert abs(total - math.cosh(2 * eta)) < 1e-10


class TestSqueezeSpectrum:
    def test_no_process_no_squeeze(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        spect = squeeze_spectrum(prof, np.geomspace(0.1, 5.0, 8))
        assert np.max(spect.eta) < 1e-10

    def test_step_profile_spectrum(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0, shape=ProfileShape.STEP)
        k = np.geomspace(0.2, 3.0, 10)
        spect = squeeze_spectrum(prof, k)
        for kk, eta in zip(spect.k, spect.eta):
            expected = math.asinh(
                step_beta_modulus(prof.omega_i(kk), prof.omega_f(kk))
            )
            assert abs(eta - expected) < 1e-9

    def test_adiabatic_suppression_in_k(self, tanh_spectrum, tanh_profile):
        tau = tanh_profile.duration
        lo = float(tanh_spectrum.eta_at(0.1 / tau))
        hi = float(tanh_spectrum.eta_at(10.0 / tau))
        assert hi < 1e-3 * lo

    def test_adiabatic_suppression_in_duration(self, tanh_spectrum):
        slow = MassProfile(0.0, 0.5, 0.0, 20.0)
        spect_slow = squeeze_spectrum(slow, np.geomspace(0.3, 10.0, 12))
        k_fix = 1.0
        fast_eta = float(tanh_spectrum.eta_at(k_fix))
        slow_eta = float(spect_slow.eta_at(k_fix))
        assert slow_eta < fast_eta / 10.0

    def test_grid_validation(self, tanh_profile):
        with pytest.raises(DomainError):
            squeeze_spectrum(tanh_profile, [0.5])
        with pytest.raises(DomainError):
            squeeze_spectrum(tanh_profile, [0.5, 0.4])
