import math

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from oracles import wronskian
import sqbath.parametric_mode
from sqbath.errors import ConvergenceError, DomainError
from sqbath.parametric_mode import (
    MassProfile,
    ProfileShape,
    bogoliubov_from_mode,
    integrate_mode,
    squeeze_spectrum,
)
from sqbath.parametric_mode import _lockstep_dop853, _step_control


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


def record_flush_tables(monkeypatch, queued=None):
    """Record the width of every (3 extra stages, steps) m^2(t) table the
    dense output reads, in order.  With ``queued`` set, every
    :func:`_dense_output` call is split into calls of at most ``queued``
    steps, whose rows are joined in step order."""
    widths = []
    omega_sq = MassProfile.omega_sq

    def recorded(self, k, t):
        if np.ndim(t) == 2 and np.shape(t)[0] == 3:
            widths.append(np.shape(t)[1])
        return omega_sq(self, k, t)

    build = sqbath.parametric_mode._dense_output

    def split(profile, k, t_old, h, y_old, y_new, K, step, times):
        rows = []
        for a in range(0, k.size, queued):
            b = min(a + queued, k.size)
            part = (step >= a) & (step < b)
            rows.append(build(
                profile, k[a:b], t_old[a:b], h[a:b], y_old[4 * a:4 * b],
                y_new[4 * a:4 * b], K[:, 4 * a:4 * b], step[part] - a, times[part],
            ))
        return np.concatenate(rows)

    monkeypatch.setattr(MassProfile, "omega_sq", recorded)
    if queued is not None:
        monkeypatch.setattr(sqbath.parametric_mode, "_dense_output", split)
    return widths


def scipy_first_failure(k, profile, grid, tol):
    """The first Wronskian drift failure of scipy's DOP853 driver on one
    mode, checked where ``integrate_mode`` checks it: at every accepted
    step, then at the grid samples that step's dense output gives.
    Returns the kind of failure ("step", "sample" or None), the time it
    names and the rows (d1, d1', d2, d2') sampled up to it."""
    def rhs(t, y):
        w_sq = profile.omega_sq(k, t)
        return [y[1], -w_sq * y[0], y[3], -w_sq * y[2]]

    solver = DOP853(
        rhs, 0.0, [1.0, 0.0, 0.0, 1.0], grid[-1],
        rtol=max(tol / 50.0, 1e-13), atol=max(tol / 5000.0, 1e-15),
        max_step=profile.duration / 8.0,
    )
    bound = 10.0 * max(tol, 1e-13)
    rows, lo = [solver.y.copy()], 1
    while solver.status == "running":
        solver.step()
        y = solver.y
        if abs(y[0] * y[3] - y[2] * y[1] - 1.0) > bound:
            return "step", solver.t, np.array(rows)
        hi = int(np.searchsorted(grid, solver.t, side="right"))
        if hi > lo:
            sampled = solver.dense_output()(grid[lo:hi]).T
            rows.extend(sampled)
            drift = np.abs(sampled[:, 0] * sampled[:, 3] - sampled[:, 2] * sampled[:, 1] - 1.0)
            if np.max(drift) > bound:
                return "sample", grid[hi - 1], np.array(rows)
            lo = hi
    return None, None, np.array(rows)


def one_mode(k, profile, t, tol=1e-10):
    """The row (d1, d1', d2, d2') of a single mode at t, as Python floats."""
    return integrate_mode(np.array([k]), profile, t, tol=tol)[0].tolist()


# the samples integrate_mode fits a mode's value at t from: the start and
# the last 4 of the grid end_grid gives
PICK = [0, -4, -3, -2, -1]


def end_grid(profile, k, t):
    """n + 1 evenly spaced times over [0, t], n giving at least 24 samples
    per period of the mode's fastest frequency."""
    om_max = max(profile.omega_i(k), profile.omega_f(k), 1.0 / profile.duration)
    n_pts = max(64, int(24 * om_max * t / (2 * math.pi)))
    return np.linspace(0.0, t, n_pts + 1)


def four_fits(times, rows, t):
    """The cubic through the last 4 rows (d1, d1', d2, d2') at t, as four
    separate fits, one per component."""
    return tuple(
        float(np.polynomial.polynomial.polyfit(times[-4:] - t, comp, 3)[0])
        for comp in rows[-4:].T
    )


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
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                MassProfile(0.0, bad, 0.0, 1.0)
            with pytest.raises(DomainError, match="finite"):
                MassProfile(bad, 0.5, 0.0, 1.0)
            with pytest.raises(DomainError):
                MassProfile(0.0, 0.5, 0.0, bad)


class TestIntegrateMode:
    def test_constant_mass_closed_form(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        times = np.linspace(0.0, 5.0, 401)[1:]
        rows = np.array([one_mode(1.2, prof, t) for t in times])
        om = math.hypot(1.2, 0.3)
        np.testing.assert_allclose(rows[:, 0], np.cos(om * times), atol=1e-12)
        np.testing.assert_allclose(rows[:, 2], np.sin(om * times) / om, atol=1e-12)
        np.testing.assert_allclose(wronskian(rows), 1.0, atol=1e-12)

    def test_initial_conditions(self, tanh_profile):
        grid = np.linspace(0.0, 3.0, 301)
        rows = _lockstep_dop853(tanh_profile, np.array([0.7]), [grid], 1e-10)[0]
        assert rows[0].tolist() == [1.0, 0.0, 0.0, 1.0]

    def test_tanh_wronskian_stays_unit(self, tanh_profile):
        rows = np.array([one_mode(1.0, tanh_profile, t) for t in np.linspace(0.0, 6.0, 25)[1:]])
        assert np.max(np.abs(wronskian(rows) - 1.0)) < 1e-9

    def test_grid_validation(self, tanh_profile):
        for t in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                one_mode(1.0, tanh_profile, t)
        for k in (-1.0, math.nan):
            with pytest.raises(DomainError):
                one_mode(k, tanh_profile, 2.0)


# the tableau constants, loaded from scipy's coefficient file, and the class
# attribute of scipy's DOP853 that each stands for
TABLEAU = {
    "N_STAGES": "n_stages",
    "ERROR_ESTIMATOR_ORDER": "error_estimator_order",
    "A": "A",
    "B": "B",
    "C": "C",
    "E3": "E3",
    "E5": "E5",
    "D": "D",
    "A_EXTRA": "A_EXTRA",
    "C_EXTRA": "C_EXTRA",
}


@pytest.mark.parametrize("name", TABLEAU)
def test_tableau_is_scipys(name):
    ours = getattr(sqbath.parametric_mode, name)
    theirs = getattr(DOP853, TABLEAU[name])
    assert np.shape(ours) == np.shape(theirs)
    assert np.all(ours == theirs)


class TestLockstepOracle:
    """The one batched solve equals scipy's per-mode DOP853 bit for bit."""

    def test_every_dense_sample(self, oracle_case):
        profile, grids, reference = oracle_case
        solved = _lockstep_dop853(profile, ORACLE_KS, grids, 1e-9)
        for rows, want in zip(solved, reference):
            assert_rows_equal(rows, want.T)

    @pytest.mark.parametrize("queued", [1, 3, None], ids=["1", "3", "default"])
    def test_every_dense_sample_across_flushes(self, oracle_case, queued, monkeypatch):
        """The accepted steps that hold samples are kept until the end of
        the solve, and one flush builds the interpolant of all of them
        from one m^2(t) table; split into builds of 1 or 3 steps, it gives
        the same bits: a step's interpolant does not depend on the steps
        that share its table.  Every sample keeps scipy's bits."""
        profile, grids, reference = oracle_case
        tables = record_flush_tables(monkeypatch, queued)
        solved = _lockstep_dop853(profile, ORACLE_KS, grids, 1e-9)
        held = sum(tables)
        # at least one step per mode, at most one step per sample
        assert ORACLE_KS.size < held <= sum(grid.size - 1 for grid in grids)
        if queued is None:
            assert len(tables) == 1
        else:
            assert len(tables) == -(-held // queued) and max(tables) == queued
        for rows, want in zip(solved, reference):
            assert_rows_equal(rows, want.T)

    def test_last_samples_and_end_point(self, oracle_case):
        """integrate_mode's rows are the fit at t of scipy's last 4
        samples, at the end of the ramp and after it."""
        profile = oracle_case[0]
        for t in (profile.t_f, profile.t_f + 0.7):
            got = integrate_mode(ORACLE_KS, profile, t, tol=1e-9)
            for k, row in zip(ORACLE_KS, got):
                grid = end_grid(profile, k, t)[PICK]
                want, _ = solve_ivp_mode(k, profile, grid, 1e-9)
                assert_rows_equal(row, four_fits(grid, want.T, t))

    def test_one_mode_call_matches_the_batch(self, oracle_case):
        profile = oracle_case[0]
        batch = integrate_mode(ORACLE_KS, profile, profile.t_f, tol=1e-9)
        single = integrate_mode(ORACLE_KS[2:3], profile, profile.t_f, tol=1e-9)
        assert np.array_equal(single, batch[2:3])

    @pytest.mark.parametrize("name", ["tanh", "smoothstep-3", "late-start"])
    def test_squeeze_spectrum_equals_per_mode_reference(self, name):
        profile = ORACLE_PROFILES[name]
        k_grid = np.geomspace(0.02, 60.0, 24)
        spect = squeeze_spectrum(profile, k_grid)
        etas, thetas = [], []
        for k in k_grid:
            grid = end_grid(profile, k, profile.t_f)
            rows, _ = solve_ivp_mode(k, profile, grid, 1e-9)
            pair = bogoliubov_from_mode(
                four_fits(grid, rows.T, profile.t_f),
                profile.omega_i(k),
                profile.omega_f(k),
                0.0,
            ).validate(tol=1e-8)
            etas.append(pair.eta)
            thetas.append(pair.theta)
        assert_rows_equal(spect.eta, etas)
        assert_rows_equal(spect.theta, thetas)


class TestEndPointFit:
    """integrate_mode fits the 4 components jointly: the bits of 4 fits."""

    @pytest.mark.parametrize("name", ["tanh", "smoothstep-1", "smoothstep-3"])
    def test_joint_fit_equals_four_fits(self, name):
        profile = ORACLE_PROFILES[name]
        ks = np.geomspace(0.02, 60.0, 12)
        for t in (profile.t_f, 0.37 * profile.t_f, 1.9 * profile.t_f):
            grids = [end_grid(profile, k, t)[PICK] for k in ks]
            samples = _lockstep_dop853(profile, ks, grids, 1e-9)
            rows = integrate_mode(ks, profile, t, tol=1e-9).tolist()
            for k, row, grid, sampled in zip(ks, rows, grids, samples):
                assert tuple(row) == four_fits(grid, sampled, t), (k, t)


def scalar_step_control(h_abs, err5, err3, retry):
    """scipy's DOP853 error norm and step factor, one mode at a time on
    numpy scalars, as rk.py and DOP853._estimate_error_norm compute them."""
    factor, accepted = np.empty(h_abs.size), np.empty(h_abs.size, dtype=bool)
    for j, (e5, e3) in enumerate(zip(err5, err3)):
        norm5 = np.linalg.norm(e5) ** 2
        norm3 = np.linalg.norm(e3) ** 2
        if norm5 == 0 and norm3 == 0:
            error_norm = 0.0
        else:
            error_norm = h_abs[j] * norm5 / np.sqrt((norm5 + 0.01 * norm3) * 4)
        accepted[j] = error_norm < 1
        if not accepted[j]:
            factor[j] = max(0.2, 0.9 * error_norm ** (-1 / 8))
        else:
            grow = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** (-1 / 8))
            factor[j] = min(1, grow) if retry[j] else grow
    return factor, accepted


def test_step_control_equals_the_scalar_loop():
    # the lockstep step control runs on Python floats: the same bits as
    # numpy scalars, where numpy arrays round some squares and powers
    # differently; zero, NaN and overflowing error vectors included
    rng = np.random.default_rng(7)
    m = 20000
    # error norms mostly where the factor is not clamped, so that a last
    # bit of difference in a norm shows in the factor
    h_abs = 10.0 ** rng.uniform(-1, 0, m)
    err5 = rng.standard_normal((m, 4)) * 10.0 ** rng.uniform(-4, 2, (m, 1))
    err3 = rng.standard_normal((m, 4)) * 10.0 ** rng.uniform(-4, 2, (m, 1))
    err5[:40], err3[:20] = 0.0, 0.0
    err5[40:60, 1] = np.nan
    err5[60:80, 2] = 1e160  # overflows to an infinite norm
    err5[100:120] = np.sqrt(np.finfo(float).max) / 2.0  # the largest finite norm
    err3[80:100, 0] = np.inf
    retry = rng.random(m) < 0.3
    with np.errstate(over="ignore", invalid="ignore"):
        want = scalar_step_control(h_abs, err5, err3, retry)
        got = _step_control(h_abs, np.vecdot(err5, err5), np.vecdot(err3, err3), retry)
    assert np.array_equal(got[1], want[1])
    assert np.array_equal(got[0], want[0], equal_nan=True)


@dataclass(frozen=True)
class CutProfile(MassProfile):
    """A tanh ramp whose m^2(t) turns NaN after t = 1: no step can pass it."""

    def mass_sq(self, t):
        return np.where(np.asarray(t) > 1.0, np.nan, super().mass_sq(t))


@dataclass(frozen=True)
class NanProfile(MassProfile):
    """m^2(t) is NaN from t = 0: the very first step size is NaN."""

    def mass_sq(self, t):
        return np.full(np.shape(t), np.nan)


class TestModeFailures:
    def test_nan_step_size_fails_at_the_start(self):
        prof = NanProfile(0.0, 0.5, 0.0, 2.0)
        grid = np.linspace(0.0, 2.0, 41)
        with pytest.raises(ConvergenceError) as info:
            _lockstep_dop853(prof, np.array([0.5, 3.0]), [grid, grid], 1e-9)
        exc = info.value
        assert exc.diagnostics["k"] == 0.5 and exc.diagnostics["t_reached"] == 0.0
        assert "mode k = 0.5: step size nan" in str(exc)
        assert np.array_equal(exc.partial_value, [[1.0, 0.0, 0.0, 1.0]])

    def test_step_size_failure_names_mode_time_and_drift(self):
        prof = CutProfile(0.0, 0.5, 0.0, 2.0)
        grid = np.linspace(0.0, 2.0, 41)
        with pytest.raises(ConvergenceError) as info:
            _lockstep_dop853(prof, np.array([0.5, 3.0]), [grid, grid], 1e-9)
        exc = info.value
        assert exc.diagnostics["k"] == 0.5
        assert 0.99 < exc.diagnostics["t_reached"] <= 1.0
        assert 0.0 < exc.diagnostics["drift"] < 1e-8
        assert "mode k = 0.5" in str(exc) and "step size" in str(exc)
        partial = exc.partial_value
        assert partial.shape == (np.count_nonzero(grid <= exc.diagnostics["t_reached"]), 4)
        assert np.max(np.abs(wronskian(partial) - 1.0)) < 1e-8

    def test_drift_failure(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0)
        with pytest.raises(ConvergenceError) as info:
            _lockstep_dop853(prof, np.array([20.0]), [np.linspace(0.0, 20.0, 11)], 1e-13)
        exc = info.value
        assert exc.diagnostics["drift"] > 1e-12
        assert exc.diagnostics["t_reached"] < 20.0
        assert "drift above 1.0e-12" in str(exc)


@pytest.mark.parametrize("queued", [1, 2, None], ids=["1", "2", "default"])
def test_sample_drift_failure_as_scipy_driver(queued, monkeypatch):
    # a sample between two accepted steps drifts above the bound: the error
    # names the mode, the step's last sample time and the drift there, and
    # the partial value ends with that step's samples, although only the
    # one flush, after later steps, finds it, whether that flush builds its
    # interpolants in one table or in tables of 1 or 2 steps
    prof = MassProfile(0.1, 3.0, 0.0, 1.0)
    grids = [np.linspace(0.0, 4.0, 201), np.linspace(0.0, 4.0, 31)]
    kind, t_failed, rows = scipy_first_failure(0.5, prof, grids[0], 1e-13)
    assert kind == "sample" and t_failed < 4.0
    # the other mode runs on to the end, past the failing step
    assert scipy_first_failure(0.05, prof, grids[1], 1e-13)[0] is None
    tables = record_flush_tables(monkeypatch, queued)
    with pytest.raises(ConvergenceError) as info:
        _lockstep_dop853(prof, np.array([0.5, 0.05]), grids, 1e-13)
    # one flush: one (3 extra stages, held steps) table, or the same steps
    # in tables of `queued`
    assert len(tables) == (1 if queued is None else -(-sum(tables) // queued))
    exc = info.value
    assert exc.diagnostics["k"] == 0.5 and exc.diagnostics["t_reached"] == t_failed
    assert "mode k = 0.5: drift above 1.0e-12" in str(exc)
    partial = exc.partial_value
    assert_rows_equal(partial, rows)
    # the failing sample's drift: every step and earlier sample stayed below
    assert exc.diagnostics["drift"] == np.max(np.abs(wronskian(partial) - 1.0)) > 1e-12


class TestBogoliubov:
    def test_constant_mass_identity(self):
        prof = MassProfile(0.3, 0.3, 0.0, 2.0)
        om = prof.omega_i(1.0)
        for t in (0.05, 1.3, 4.9):
            pair = bogoliubov_from_mode(one_mode(1.0, prof, t), om, om, t)
            assert abs(pair.alpha - 1.0) < 1e-10
            assert abs(pair.beta) < 1e-10

    def test_step_profile_analytic_modulus(self):
        prof = MassProfile(0.0, 0.5, 0.0, 2.0, shape=ProfileShape.STEP)
        for k in (0.3, 0.7, 2.0):
            om_i, om_f = prof.omega_i(k), prof.omega_f(k)
            pair = bogoliubov_from_mode(one_mode(k, prof, 2.0), om_i, om_f, 0.0)
            assert abs(abs(pair.beta) - step_beta_modulus(om_i, om_f)) < 1e-10
            assert pair.wronskian_defect() < 1e-12

    def test_moduli_frozen_after_process(self, tanh_profile):
        om_i, om_f = tanh_profile.omega_i(0.8), tanh_profile.omega_f(0.8)
        mods = [
            abs(bogoliubov_from_mode(one_mode(0.8, tanh_profile, t), om_i, om_f, t).beta)
            for t in np.linspace(2.0, 8.0, 10).tolist()
        ]
        assert max(mods) - min(mods) < 1e-8

    def test_wronskian_normalization_everywhere(self, tanh_profile):
        om_i, om_f = tanh_profile.omega_i(1.4), tanh_profile.omega_f(1.4)
        for t in np.linspace(0.0, 4.0, 15)[1:].tolist():
            row = one_mode(1.4, tanh_profile, t)
            for nu in (om_i, om_f):
                pair = bogoliubov_from_mode(row, om_i, nu, t)
                assert pair.wronskian_defect() < 1e-8

    def test_hyperbolic_identity(self, tanh_profile):
        pair = bogoliubov_from_mode(
            one_mode(0.5, tanh_profile, 2.0),
            tanh_profile.omega_i(0.5),
            tanh_profile.omega_f(0.5),
            0.0,
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
