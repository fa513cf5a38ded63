import math

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sqbath.errors import ConvergenceError, DomainError
from sqbath.parametric_mode import (
    MassProfile,
    ModeSolution,
    ProfileShape,
    bogoliubov_from_mode,
    integrate_mode,
    squeeze_spectrum,
)


def step_beta_modulus(om_i, om_f):
    return abs(om_f - om_i) / (2.0 * math.sqrt(om_i * om_f))


def solve_ivp_mode(k, profile, grid, tol):
    """Rows (d1, d1', d2, d2') of one mode from scipy's own DOP853 driver,
    at the tolerances and maximum step ``integrate_mode`` derives from tol."""
    def rhs(t, y):
        w_sq = profile.omega_sq(k, t)
        return [y[1], -w_sq * y[0], y[3], -w_sq * y[2]]

    sol = solve_ivp(
        rhs,
        (grid[0], grid[-1]),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        t_eval=grid,
        rtol=max(tol / 50.0, 1e-13),
        atol=max(tol / 5000.0, 1e-15),
        max_step=profile.duration / 8.0,
    )
    assert sol.success
    return sol.y, sol.nfev


def one_mode(k, profile, grid, tol=1e-10):
    """The solution of a single mode from the batched solver."""
    return integrate_mode(np.array([k]), profile, [grid], tol=tol)[0]


# Bitwise equality with solve_ivp holds for the BLAS build this suite was
# checked on (see parametric_mode._stage_sums).  Each exact check is
# preceded by one at the solver tolerance, so that on another BLAS a
# rounding-level difference tells itself apart from a solver regression.
BLAS_NOTE = "agrees to the solver tolerance but not bit for bit: BLAS build?"


def assert_rows_equal(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)
    assert np.array_equal(got, want), BLAS_NOTE


ORACLE_PROFILES = {
    "tanh": MassProfile(0.0, 0.5, 0.0, 2.0),
    "smoothstep-1": MassProfile(0.1, 0.6, 0.0, 2.0, ProfileShape.SMOOTHSTEP, 1),
    "smoothstep-2": MassProfile(0.0, 0.5, 0.0, 1.5, ProfileShape.SMOOTHSTEP, 2),
    "smoothstep-3": MassProfile(0.3, 0.1, 0.0, 2.5, ProfileShape.SMOOTHSTEP, 3),
    "late-start": MassProfile(0.2, 0.7, 1.0, 3.0),
}
# wavenumbers whose modes take different numbers of step attempts, so the
# lockstep loop keeps stepping after the first modes have finished
ORACLE_KS = np.array([0.03, 0.4, 2.5, 9.0, 40.0])


@pytest.fixture(scope="module", params=sorted(ORACLE_PROFILES))
def oracle_case(request):
    """A profile, one grid per k (ending at different times) and the
    per-mode solve_ivp rows on them."""
    profile = ORACLE_PROFILES[request.param]
    grids = [
        np.linspace(0.0, profile.t_f + 0.5 * i, 40 + 17 * i) for i in range(ORACLE_KS.size)
    ]
    solved = [solve_ivp_mode(k, profile, g, 1e-9) for k, g in zip(ORACLE_KS, grids)]
    nfev = [n for _, n in solved]
    assert len(set(nfev)) == len(nfev)  # the modes finish at different attempts
    return profile, grids, [rows for rows, _ in solved]


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
        sol = one_mode(1.2, prof, grid)
        om = math.hypot(1.2, 0.3)
        np.testing.assert_allclose(sol.d1, np.cos(om * grid), atol=1e-12)
        np.testing.assert_allclose(sol.d2, np.sin(om * grid) / om, atol=1e-12)
        np.testing.assert_allclose(sol.wronskian(), 1.0, atol=1e-12)

    def test_initial_conditions(self, tanh_profile):
        grid = np.linspace(0.0, 3.0, 301)
        sol = one_mode(0.7, tanh_profile, grid)
        assert sol.d1[0] == 1.0 and sol.d1_dot[0] == 0.0
        assert sol.d2[0] == 0.0 and sol.d2_dot[0] == 1.0

    def test_tanh_wronskian_stays_unit(self, tanh_profile):
        grid = np.linspace(0.0, 6.0, 1201)
        sol = one_mode(1.0, tanh_profile, grid, tol=1e-10)
        assert np.max(np.abs(sol.wronskian() - 1.0)) < 1e-9

    def test_grid_validation(self, tanh_profile):
        with pytest.raises(DomainError):
            one_mode(1.0, tanh_profile, np.linspace(1.0, 2.0, 10))
        with pytest.raises(DomainError):
            one_mode(-1.0, tanh_profile, np.linspace(0.0, 2.0, 10))


class TestLockstepOracle:
    """The one batched solve equals scipy's per-mode DOP853 bit for bit."""

    def test_every_dense_sample(self, oracle_case):
        profile, grids, reference = oracle_case
        sols = integrate_mode(ORACLE_KS, profile, grids, tol=1e-9)
        for sol, rows in zip(sols, reference):
            for got, want in zip((sol.d1, sol.d1_dot, sol.d2, sol.d2_dot), rows):
                assert_rows_equal(got, want)

    def test_last_samples_and_end_point(self, oracle_case):
        """The trimmed grids squeeze_spectrum passes: the start and the last 4."""
        profile, grids, reference = oracle_case
        pick = [0, -4, -3, -2, -1]
        sols = integrate_mode(ORACLE_KS, profile, [g[pick] for g in grids], tol=1e-9)
        for sol, grid, rows in zip(sols, grids, reference):
            assert np.array_equal(sol.times, grid[pick])
            for got, want in zip((sol.d1, sol.d1_dot, sol.d2, sol.d2_dot), rows):
                assert_rows_equal(got, want[pick])

    def test_one_mode_call_matches_the_batch(self, oracle_case):
        profile, grids, _ = oracle_case
        batch = integrate_mode(ORACLE_KS, profile, grids, tol=1e-9)
        single = one_mode(float(ORACLE_KS[2]), profile, grids[2], tol=1e-9)
        assert isinstance(single, ModeSolution)
        assert np.array_equal(single.d2, batch[2].d2)

    @pytest.mark.parametrize("name", ["tanh", "smoothstep-3", "late-start"])
    def test_squeeze_spectrum_equals_per_mode_reference(self, name):
        profile = ORACLE_PROFILES[name]
        k_grid = np.geomspace(0.02, 60.0, 24)
        spect = squeeze_spectrum(profile, k_grid)
        etas, thetas = [], []
        for k in k_grid:
            om_max = max(profile.omega_i(k), profile.omega_f(k), 1.0 / profile.duration)
            n_pts = max(64, int(24 * om_max * profile.t_f / (2 * math.pi)))
            grid = np.linspace(0.0, profile.t_f, n_pts + 1)
            (d1, d1_dot, d2, d2_dot), _ = solve_ivp_mode(k, profile, grid, 1e-9)
            sol = ModeSolution(k, grid, d1, d2, d1_dot, d2_dot, profile)
            pair = bogoliubov_from_mode(
                sol,
                profile.omega_i(k),
                profile.t_f,
                omega_out=profile.omega_f(k),
                reference_time=profile.t_f,
            ).validate(tol=1e-8)
            etas.append(pair.eta)
            thetas.append(pair.theta)
        assert_rows_equal(spect.eta, etas)
        assert_rows_equal(spect.theta, thetas)


@dataclass(frozen=True)
class CutProfile(MassProfile):
    """A tanh ramp whose m^2(t) turns NaN after t = 1: no step can pass it."""

    def mass_sq(self, t):
        return np.where(np.asarray(t) > 1.0, np.nan, super().mass_sq(t))


class TestModeFailures:
    def test_step_size_failure_names_mode_time_and_drift(self):
        prof = CutProfile(0.0, 0.5, 0.0, 2.0)
        grid = np.linspace(0.0, 2.0, 41)
        with pytest.raises(ConvergenceError) as info:
            integrate_mode(np.array([0.5, 3.0]), prof, [grid, grid], tol=1e-9)
        exc = info.value
        assert exc.diagnostics["k"] == 0.5
        assert 0.99 < exc.diagnostics["t_reached"] <= 1.0
        assert 0.0 < exc.diagnostics["drift"] < 1e-8
        assert "mode k = 0.5" in str(exc) and "step size" in str(exc)
        partial = exc.partial_value
        assert isinstance(partial, ModeSolution) and partial.k == 0.5
        assert np.array_equal(partial.times, grid[grid <= exc.diagnostics["t_reached"]])
        assert np.max(np.abs(partial.wronskian() - 1.0)) < 1e-8

    def test_drift_failure(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0)
        with pytest.raises(ConvergenceError) as info:
            one_mode(20.0, prof, np.linspace(0.0, 20.0, 11), tol=1e-13)
        exc = info.value
        assert exc.diagnostics["drift"] > 1e-12
        assert exc.diagnostics["t_reached"] < 20.0
        assert "drift above 1.0e-12" in str(exc)


class TestBogoliubov:
    def test_constant_mass_identity(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        grid = np.linspace(0.0, 5.0, 501)
        sol = one_mode(1.0, prof, grid)
        for t in (0.0, 1.3, 4.9):
            pair = bogoliubov_from_mode(sol, prof.omega_i(1.0), t)
            assert abs(pair.alpha - 1.0) < 1e-10
            assert abs(pair.beta) < 1e-10

    def test_step_profile_analytic_modulus(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0, shape=ProfileShape.STEP)
        grid = np.linspace(0.0, 2.0, 801)
        for k in (0.3, 0.7, 2.0):
            sol = one_mode(k, prof, grid)
            om_i, om_f = prof.omega_i(k), prof.omega_f(k)
            pair = bogoliubov_from_mode(
                sol, om_i, 2.0, omega_out=om_f, reference_time=2.0
            )
            assert abs(abs(pair.beta) - step_beta_modulus(om_i, om_f)) < 1e-10
            assert pair.wronskian_defect() < 1e-12

    def test_moduli_frozen_after_process(self, tanh_profile):
        grid = np.linspace(0.0, 8.0, 1601)
        sol = one_mode(0.8, tanh_profile, grid, tol=1e-10)
        om_i, om_f = tanh_profile.omega_i(0.8), tanh_profile.omega_f(0.8)
        mods = [
            abs(bogoliubov_from_mode(sol, om_i, float(t), omega_out=om_f).beta)
            for t in np.linspace(2.0, 8.0, 10)
        ]
        assert max(mods) - min(mods) < 1e-8

    def test_wronskian_normalization_everywhere(self, tanh_profile):
        grid = np.linspace(0.0, 4.0, 801)
        sol = one_mode(1.4, tanh_profile, grid, tol=1e-10)
        om_i, om_f = tanh_profile.omega_i(1.4), tanh_profile.omega_f(1.4)
        for t in np.linspace(0.0, 4.0, 15):
            for nu in (None, om_f):
                pair = bogoliubov_from_mode(sol, om_i, float(t), omega_out=nu)
                assert pair.wronskian_defect() < 1e-8

    def test_hyperbolic_identity(self, tanh_profile):
        grid = np.linspace(0.0, 4.0, 801)
        sol = one_mode(0.5, tanh_profile, grid, tol=1e-10)
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
