"""
Parametric field modes: mode-equation integration and squeeze spectra.

Each bath mode obeys a parametric-oscillator equation
phi'' + (k^2 + m^2(t)) phi = 0 while the field mass runs from m_i to m_f
over [t_i, t_f].  The fundamental solutions d1, d2 (unit initial data,
Wronskian 1) are integrated with DOP853 (Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I*, 1993, II.10): all modes
step together in one loop, each under scipy's own step-size control, so
every mode gets the bits of its own scipy DOP853 run.  A sharp Step
profile bypasses the ODE solver entirely and is matched analytically,
serving both as an oracle and to avoid stiffness at the jump.

Bogoliubov coefficients are read off the fundamental solutions by
projecting on single-frequency modes.  Projecting on the incoming
frequency reproduces the instantaneous coefficients; projecting the
post-process solution on the outgoing frequency freezes the moduli, which
is what defines the squeeze spectrum eta(k), theta(k) handed to the bath
kernels.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from .bath_kernels import SqueezeSpectrum
from .errors import ConvergenceError, DomainError
from .gaussian_state import BogoliubovPair

__all__ = [
    "ProfileShape",
    "MassProfile",
    "ModeSolution",
    "integrate_mode",
    "bogoliubov_from_mode",
    "squeeze_spectrum",
]


class ProfileShape(enum.Enum):
    TANH = "tanh"
    SMOOTHSTEP = "smoothstep"
    STEP = "step"


@dataclass(frozen=True)
class MassProfile:
    """Monotone field-mass ramp m_i -> m_f over [t_i, t_f].

    The interpolation acts on m^2(t): the default Tanh shape is centered
    at (t_i + t_f)/2 with width (t_f - t_i)/6 and rescaled so the ramp
    meets the constants exactly at t_i and t_f; SmoothStep uses the C^n
    polynomial step of the given order; Step jumps at the midpoint and is
    handled by analytic matching, never by ODE stepping.
    """

    mass_i: float
    mass_f: float
    t_i: float
    t_f: float
    shape: ProfileShape = ProfileShape.TANH
    smoothstep_order: int = 2

    def __post_init__(self):
        if self.mass_i < 0 or self.mass_f < 0:
            raise DomainError("field masses must be nonnegative")
        if not self.t_f > self.t_i:
            raise DomainError("profile requires t_f > t_i")
        if self.t_i < 0:
            raise DomainError("profile must start at t_i >= 0")
        if self.smoothstep_order < 1:
            raise DomainError("smoothstep order must be >= 1")

    @property
    def duration(self) -> float:
        return self.t_f - self.t_i

    def _ramp(self, t):
        """Dimensionless ramp s(t) with s(t_i) = 0, s(t_f) = 1.

        The ODE right-hand side calls this once per stage with a float t,
        which then takes float arithmetic and numpy ufuncs on scalars (so
        the bits equal those of the array path) and returns a float.
        """
        scalar = isinstance(t, float)
        if scalar:
            t = float(t)
            u = min(max((t - self.t_i) / self.duration, 0.0), 1.0)
        else:
            t = np.asarray(t, dtype=float)
            u = np.clip((t - self.t_i) / self.duration, 0.0, 1.0)
        if self.shape is ProfileShape.TANH:
            # arguments run over +-3 widths; rescale to hit 0 and 1 exactly
            raw = np.tanh(6.0 * (u - 0.5))
            lim = math.tanh(3.0)
            out = (raw + lim) / (2.0 * lim)
        elif self.shape is ProfileShape.SMOOTHSTEP:
            n = self.smoothstep_order
            # general smoothstep S_n(u), C^n at both ends
            acc = 0.0
            for j in range(n + 1):
                acc = acc + math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * np.power(-u, j)
            out = np.power(u, n + 1) * acc
        else:
            # Step: jump at the midpoint
            out = np.where(t >= 0.5 * (self.t_i + self.t_f), 1.0, 0.0)
        return float(out) if scalar else out

    def mass_sq(self, t):
        """m^2(t), constant outside [t_i, t_f], monotone in between."""
        return self.mass_i**2 + (self.mass_f**2 - self.mass_i**2) * self._ramp(t)

    def omega_sq(self, k, t):
        """k^2 + m^2(t); k and t are floats or arrays of one shape."""
        return k * k + self.mass_sq(t)

    def omega_i(self, k: float) -> float:
        return math.hypot(k, self.mass_i)

    def omega_f(self, k: float) -> float:
        return math.hypot(k, self.mass_f)


@dataclass(frozen=True)
class ModeSolution:
    """Fundamental solutions of one field mode on a time grid.

    d1 and d2 carry initial data (1, 0) and (0, 1); their Wronskian
    d1 d2' - d2 d1' stays at 1 (canonical commutation); its drift is the
    error metric :func:`integrate_mode` checks.
    """

    k: float
    times: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d1_dot: np.ndarray
    d2_dot: np.ndarray
    profile: MassProfile

    def wronskian(self) -> np.ndarray:
        return self.d1 * self.d2_dot - self.d2 * self.d1_dot

    def at(self, t: float) -> tuple[float, float, float, float]:
        """Fundamental data at time t.

        Exact closed forms for constant-mass and Step profiles; otherwise
        the cubic through the 4 stored samples nearest t (the grid is
        chosen dense enough that interpolation error is below the ODE
        tolerance).  At the grid end this is still a 4-sample fit, not the
        solver's own value there: the squeeze spectrum is read at t_f, and
        its bits depend on that fit.
        """
        times = self.times
        if not times[0] <= t <= times[-1]:
            raise DomainError(f"t = {t} outside the solution grid")
        prof = self.profile
        if prof.mass_i == prof.mass_f:
            vals = _constant_mode(self.k, prof.mass_i, np.asarray([t]))
            return tuple(float(v[0]) for v in vals)
        if prof.shape is ProfileShape.STEP:
            vals = _step_mode(self.k, prof, np.asarray([t]))
            return tuple(float(v[0]) for v in vals)
        idx = int(np.searchsorted(times, t))
        width = min(4, times.size)
        lo = max(0, min(idx - width // 2, times.size - width))
        sl = slice(lo, lo + width)
        vals = []
        for comp in (self.d1, self.d2, self.d1_dot, self.d2_dot):
            poly = np.polynomial.polynomial.polyfit(
                times[sl] - t, comp[sl], width - 1
            )
            vals.append(float(poly[0]))
        return tuple(vals)


def _constant_mode(k: float, mass: float, times: np.ndarray):
    om = math.hypot(k, mass)
    if om == 0.0:
        raise DomainError("k = 0 massless mode has no oscillatory solution")
    c, s = np.cos(om * times), np.sin(om * times)
    return c, s / om, -om * s, c


def _step_mode(k: float, profile: MassProfile, times: np.ndarray):
    """Analytic matching of value and derivative across the jump."""
    om_i = profile.omega_i(k)
    om_f = profile.omega_f(k)
    t_star = 0.5 * (profile.t_i + profile.t_f)
    d1 = np.empty_like(times)
    d2 = np.empty_like(times)
    d1_dot = np.empty_like(times)
    d2_dot = np.empty_like(times)

    before = times < t_star
    tb = times[before]
    d1[before] = np.cos(om_i * tb)
    d2[before] = np.sin(om_i * tb) / om_i
    d1_dot[before] = -om_i * np.sin(om_i * tb)
    d2_dot[before] = np.cos(om_i * tb)

    after = ~before
    ta = times[after] - t_star
    c0_1, c0_2 = math.cos(om_i * t_star), math.sin(om_i * t_star) / om_i
    v0_1, v0_2 = -om_i * math.sin(om_i * t_star), math.cos(om_i * t_star)
    cos_a, sin_a = np.cos(om_f * ta), np.sin(om_f * ta)
    d1[after] = c0_1 * cos_a + (v0_1 / om_f) * sin_a
    d1_dot[after] = -c0_1 * om_f * sin_a + v0_1 * cos_a
    d2[after] = c0_2 * cos_a + (v0_2 / om_f) * sin_a
    d2_dot[after] = -c0_2 * om_f * sin_a + v0_2 * cos_a
    return d1, d2, d1_dot, d2_dot


# scipy's step-size control for its explicit Runge-Kutta methods (rk.py)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)


def _mode_rhs(profile: MassProfile, k: np.ndarray, t: np.ndarray, y: np.ndarray):
    """d/dt of the rows (d1, d1', d2, d2') of modes k at their own times t."""
    w_sq = profile.omega_sq(k, t)
    out = np.empty_like(y)
    out[:, 0] = y[:, 1]
    out[:, 1] = -w_sq * y[:, 0]
    out[:, 2] = y[:, 3]
    out[:, 3] = -w_sq * y[:, 2]
    return out


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def _stage_sums(K: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j a_j K[j] of a (stages, modes, 4) stage array, per mode.

    The (modes*4, s) transposed view of the contiguous array gives every
    mode the BLAS reduction that scipy's (4, s) view gives one mode.  The
    bit-for-bit match with scipy rests on the BLAS build reducing each row
    of both views alike (true of the OpenBLAS the test oracle was checked
    with); on another build the results still agree to rounding, which
    the Wronskian drift bound and the benchmark's reference rows check.
    """
    s, m, _ = K.shape
    return np.dot(K.reshape(s, 4 * m).T, a).reshape(m, 4)


def _initial_steps(profile, k, t_end, y0, f0, rtol, atol, max_step):
    """scipy's ``select_initial_step`` for each mode (order 7 estimator)."""
    scale = atol + np.abs(y0) * rtol
    h0 = np.empty(k.size)
    d1 = []
    for j in range(k.size):
        d0, d1_j = _rms(y0[j] / scale[j]), _rms(f0[j] / scale[j])
        h0[j] = min(1e-6 if d0 < 1e-5 or d1_j < 1e-5 else 0.01 * d0 / d1_j, t_end[j])
        d1.append(d1_j)
    f1 = _mode_rhs(profile, k, h0, y0 + h0[:, None] * f0)
    h = np.empty(k.size)
    for j in range(k.size):
        d2 = _rms((f1[j] - f0[j]) / scale[j]) / h0[j]
        if d1[j] <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0[j] * 1e-3)
        else:
            h1 = (0.01 / max(d1[j], d2)) ** -_ERROR_EXPONENT
        h[j] = min(100 * h0[j], h1, t_end[j], max_step)
    return h


def _dense_samples(profile, k, K, t_old, t_new, y_old, y_new, times):
    """scipy's DOP853 interpolant of one accepted step of mode k, at ``times``.

    ``K`` holds the step's 13 stages, the last one f(t_new, y_new).
    """
    n_stages = DOP853.n_stages
    h = t_new - t_old
    Kx = np.empty((DOP853.A_EXTRA.shape[1], 4))
    Kx[: n_stages + 1] = K
    for s, (a, c) in enumerate(zip(DOP853.A_EXTRA, DOP853.C_EXTRA), start=n_stages + 1):
        dy = _stage_sums(Kx[:s, None], a[:s]) * h
        Kx[s] = _mode_rhs(profile, np.array([k]), np.array([t_old + c * h]), y_old + dy)[0]
    F = np.empty((3 + len(DOP853.D), 4))
    delta_y = y_new - y_old
    F[0] = delta_y
    F[1] = h * Kx[0] - delta_y
    F[2] = 2 * delta_y - h * (Kx[n_stages] + Kx[0])
    F[3:] = h * np.dot(DOP853.D, Kx)
    x = ((times - t_old) / h)[:, None]
    y = np.zeros((times.size, 4))
    for i, coef in enumerate(reversed(F)):
        y += coef
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def _wronskian_drift(y: np.ndarray) -> np.ndarray:
    return np.abs(y[:, 0] * y[:, 3] - y[:, 2] * y[:, 1] - 1.0)


def _lockstep_dop853(profile, k, samples, tol):
    """Integrate modes k from t = 0 to the end of their own sample times.

    Every mode runs scipy's DOP853 driver, sampled at its own times as
    scipy's ``t_eval`` would sample it, under its own t, step size and
    accept/reject state; one loop iteration is one step attempt of every
    unfinished mode, so the right-hand side and the stage sums act on all
    of them at once.  Norms and step factors stay per-mode scalars, and
    the per-mode results are bit-identical to the separate solves (on a
    BLAS build that reduces as :func:`_stage_sums` assumes).  The
    interpolant is built only for steps that hold a sample.  The
    Wronskian drift is checked at every accepted step and every sample.
    Returns one (samples, 4) array per mode with rows (d1, d1', d2, d2').
    """
    # run the stepper well below the requested tolerance: the Wronskian
    # drift accumulates over the whole span and is the quantity under
    # contract, not the local step error
    rtol = max(tol / 50.0, 1e-13)
    atol = max(tol / 5000.0, 1e-15)
    max_step = profile.duration / 8.0
    bound = 10.0 * max(tol, 1e-13)
    A, B, C, E3, E5 = DOP853.A, DOP853.B, DOP853.C, DOP853.E3, DOP853.E5
    n_stages = DOP853.n_stages

    n = k.size
    t_end = np.array([times[-1] for times in samples])
    taken = [[] for _ in range(n)]  # per mode: arrays of sampled rows
    next_sample = np.zeros(n, dtype=int)
    drift_max = np.zeros(n)

    def fail(i, t_reached, what):
        rows = np.vstack(taken[i]) if taken[i] else np.empty((0, 4))
        times = samples[i][: rows.shape[0]]
        partial = ModeSolution(
            float(k[i]), times, rows[:, 0], rows[:, 2], rows[:, 1], rows[:, 3], profile
        )
        raise ConvergenceError(
            f"mode k = {k[i]:.6g}: {what} at t = {t_reached:.6g} of "
            f"{t_end[i]:.6g}; Wronskian drift {drift_max[i]:.3e}",
            partial_value=partial,
            diagnostics={
                "k": float(k[i]),
                "t_reached": float(t_reached),
                "drift": float(drift_max[i]),
            },
        )

    # the unfinished modes, compacted: idx maps them to their input index
    idx = np.arange(n)
    kk = k.copy()
    t = np.zeros(n)
    y = np.tile([1.0, 0.0, 0.0, 1.0], (n, 1))
    f = _mode_rhs(profile, kk, t, y)
    h_abs = _initial_steps(profile, kk, t_end, y, f, rtol, atol, max_step)
    retry = np.zeros(n, dtype=bool)
    t_next = np.array([times[0] for times in samples])

    while idx.size:
        m = idx.size
        end = t_end[idx]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        # the max_step / min_step clamp applies to the first try of a step
        clamped = np.where(h_abs > max_step, max_step, np.maximum(h_abs, min_step))
        h_abs = np.where(retry, h_abs, clamped)
        too_small = h_abs < min_step
        if too_small.any():
            j = int(np.argmax(too_small))
            fail(idx[j], t[j], f"step size {h_abs[j]:.3e} below {min_step[j]:.3e}")
        t_new = np.minimum(t + h_abs, end)
        h = t_new - t
        h_abs = np.abs(h)
        hcol = h[:, None]

        K = np.empty((n_stages + 1, m, 4))
        K[0] = f
        for s in range(1, n_stages):
            dy = _stage_sums(K[:s], A[s, :s]) * hcol
            K[s] = _mode_rhs(profile, kk, t + C[s] * h, y + dy)
        y_new = y + hcol * _stage_sums(K[:n_stages], B)
        f_new = _mode_rhs(profile, kk, t + h, y_new)
        K[n_stages] = f_new

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = _stage_sums(K, E5) / scale
        err3 = _stage_sums(K, E3) / scale
        factor = np.empty(m)
        accepted = np.empty(m, dtype=bool)
        for j in range(m):
            e5, e3 = err5[j], err3[j]
            norm5 = np.sqrt(e5.dot(e5)) ** 2
            norm3 = np.sqrt(e3.dot(e3)) ** 2
            if norm5 == 0 and norm3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs[j] * norm5 / np.sqrt((norm5 + 0.01 * norm3) * 4)
            accepted[j] = error_norm < 1
            if not accepted[j]:
                factor[j] = max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
                continue
            grow = (
                _MAX_FACTOR
                if error_norm == 0
                else min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            )
            factor[j] = min(1, grow) if retry[j] else grow
        h_abs = h_abs * factor
        retry = ~accepted
        if not accepted.any():
            continue

        drift = np.where(accepted, _wronskian_drift(y_new), 0.0)
        drift_max[idx] = np.maximum(drift_max[idx], drift)
        if (drift > bound).any():
            j = int(np.argmax(drift > bound))
            fail(idx[j], t_new[j], f"drift above {bound:.1e} (10x tolerance)")

        for j in np.flatnonzero(accepted & (t_next[idx] <= t_new)):
            i = idx[j]
            lo = next_sample[i]
            hi = int(np.searchsorted(samples[i], t_new[j], side="right"))
            rows = _dense_samples(
                profile, kk[j], K[:, j], t[j], t_new[j], y[j], y_new[j], samples[i][lo:hi]
            )
            taken[i].append(rows)
            drift_max[i] = max(drift_max[i], np.max(_wronskian_drift(rows)))
            if drift_max[i] > bound:
                fail(i, samples[i][hi - 1], f"drift above {bound:.1e} (10x tolerance)")
            next_sample[i] = hi
            t_next[i] = samples[i][hi] if hi < samples[i].size else np.inf

        t = np.where(accepted, t_new, t)
        y = np.where(accepted[:, None], y_new, y)
        f = np.where(accepted[:, None], f_new, f)
        live = ~(accepted & (t_new == end))
        if not live.all():
            idx, kk, t, y, f = idx[live], kk[live], t[live], y[live], f[live]
            h_abs, retry = h_abs[live], retry[live]

    return [np.vstack(rows) for rows in taken]


def _check_grid(grid) -> np.ndarray:
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise DomainError("time grid needs at least two points")
    if times[0] != 0.0:
        raise DomainError("time grid must start at 0 (initial conditions)")
    if np.any(np.diff(times) <= 0):
        raise DomainError("time grid must be strictly increasing")
    return times


def integrate_mode(ks, profile: MassProfile, grids, tol: float = 1e-10) -> list[ModeSolution]:
    """Integrate both fundamental solutions of every mode in ``ks``.

    ``ks`` is a 1-D array of wavenumbers and ``grids`` holds one time grid
    per mode; each grid must start at 0, where the initial data are
    imposed.  One :class:`ModeSolution` per mode comes back, in the order
    of ``ks``; the modes are stepped together in one loop.

    Every mode runs adaptive DOP853 with scipy's own step control, at
    absolute/relative tolerances derived from ``tol``; the Wronskian
    drift must stay below 10 tol at every accepted step and every grid
    sample, or a :class:`ConvergenceError` names the mode, the time
    reached and the drift.  Constant-mass and Step profiles take exact
    closed forms.
    """
    ks = np.asarray(ks, dtype=float)
    grids = [_check_grid(g) for g in grids]
    if ks.ndim != 1 or ks.size != len(grids):
        raise DomainError("need one time grid per wavenumber")
    if np.any(ks < 0):
        raise DomainError("wavenumber must be nonnegative")

    if profile.mass_i == profile.mass_f:
        parts = [_constant_mode(kv, profile.mass_i, g) for kv, g in zip(ks, grids)]
    elif profile.shape is ProfileShape.STEP:
        parts = [_step_mode(kv, profile, g) for kv, g in zip(ks, grids)]
    else:
        rows = _lockstep_dop853(profile, ks, grids, tol)
        parts = [(r[:, 0], r[:, 2], r[:, 1], r[:, 3]) for r in rows]
    return [ModeSolution(float(kv), g, *part, profile) for kv, g, part in zip(ks, grids, parts)]


def bogoliubov_from_mode(
    sol: ModeSolution,
    omega_i: float,
    t: float,
    omega_out: float | None = None,
    reference_time: float | None = None,
) -> BogoliubovPair:
    """Bogoliubov pair relating the mode evolution to single-frequency modes.

    With ``omega_out`` equal to ``omega_i`` (the default) this is the
    instantaneous decomposition

        alpha = (e^{+i w t} / 2w)[w d1 + i d1' - i w^2 d2 + w d2'],
        beta  = (e^{-i w t} / 2w)[w d1 - i d1' - i w^2 d2 - w d2'],

    whose normalization |alpha|^2 - |beta|^2 = 1 is the Wronskian.  When
    the process changes the asymptotic frequency, passing the outgoing
    frequency projects onto genuine out-modes: the moduli then freeze
    once the process has ended.  ``reference_time`` shifts the phase
    origin (the spectrum uses the process end).
    """
    if omega_i <= 0:
        raise DomainError("omega_i must be positive")
    nu = omega_i if omega_out is None else omega_out
    if nu <= 0:
        raise DomainError("omega_out must be positive")
    d1, d2, d1_dot, d2_dot = sol.at(t)
    t_ref = t if reference_time is None else t - reference_time
    norm = 2.0 * math.sqrt(omega_i * nu)
    alpha = (
        cmath.exp(1j * nu * t_ref)
        * (nu * d1 + 1j * d1_dot - 1j * omega_i * nu * d2 + omega_i * d2_dot)
        / norm
    )
    beta = (
        cmath.exp(-1j * nu * t_ref)
        * (nu * d1 - 1j * d1_dot - 1j * omega_i * nu * d2 - omega_i * d2_dot)
        / norm
    )
    return BogoliubovPair(alpha=alpha, beta=beta)


_SPECTRUM_TOL = 1e-9  # Wronskian tolerance of each mode integration
_POINTS_PER_PERIOD = 24  # samples per period of the fastest mode frequency


def squeeze_spectrum(profile: MassProfile, k_grid) -> SqueezeSpectrum:
    """Squeeze parameters eta(k), theta(k) left behind by the process.

    Integrates every mode to the end of the process and projects on
    out-modes there: eta_k = arcsinh |beta_k| and theta_k is the phase of
    -alpha_k beta_k*, referenced to the process end (the time origin the
    detector sees).  Smooth profiles suppress eta_k once k well exceeds
    the inverse ramp duration.  All modes are integrated in one lockstep
    call of :func:`integrate_mode`.  Each mode's grid has at least 24
    samples per period; only its start and its last 4 samples are passed,
    since the stepping does not depend on the samples and the fit at t_f
    reads just those 4.
    """
    k_arr = np.asarray(k_grid, dtype=float)
    if k_arr.ndim != 1 or k_arr.size < 2:
        raise DomainError("k grid needs at least two points")
    if np.any(k_arr <= 0) or np.any(np.diff(k_arr) <= 0):
        raise DomainError("k grid must be positive and strictly ascending")

    grids = []
    for k in k_arr:
        om_max = max(profile.omega_i(k), profile.omega_f(k), 1.0 / profile.duration)
        n_pts = max(64, int(_POINTS_PER_PERIOD * om_max * profile.t_f / (2 * math.pi)))
        grids.append(np.linspace(0.0, profile.t_f, n_pts + 1)[[0, -4, -3, -2, -1]])
    sols = integrate_mode(k_arr, profile, grids, tol=_SPECTRUM_TOL)
    etas = np.empty_like(k_arr)
    thetas = np.empty_like(k_arr)
    for i, (k, sol) in enumerate(zip(k_arr, sols)):
        pair = bogoliubov_from_mode(
            sol,
            profile.omega_i(k),
            profile.t_f,
            omega_out=profile.omega_f(k),
            reference_time=profile.t_f,
        ).validate(tol=1e-8)
        etas[i] = pair.eta
        thetas[i] = pair.theta
    return SqueezeSpectrum(k_arr, etas, thetas)
