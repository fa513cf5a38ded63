"""
Parametric field modes: mode-equation integration and squeeze spectra.

Each bath mode obeys a parametric-oscillator equation
phi'' + (k^2 + m^2(t)) phi = 0 while the field mass runs from m_i to m_f
over [t_i, t_f].  The fundamental solutions d1, d2 (unit initial data,
Wronskian 1) are integrated with an adaptive high-order Runge-Kutta
scheme; a sharp Step profile bypasses the ODE solver entirely and is
matched analytically, serving both as an oracle and to avoid stiffness at
the jump.

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
from scipy.integrate import solve_ivp

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

    def omega_sq(self, k: float, t):
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

        Exact closed forms for constant-mass and Step profiles; cubic
        interpolation of the stored samples otherwise (the grid is chosen
        dense enough that interpolation error is below the ODE tolerance).
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


def integrate_mode(
    k: float,
    profile: MassProfile,
    grid,
    tol: float = 1e-10,
) -> ModeSolution:
    """Integrate both fundamental solutions of mode k over the grid.

    The grid must start at 0, where the initial data are imposed.
    Adaptive DOP853 stepping with absolute/relative tolerance ``tol``;
    the Wronskian drift must stay below 10 tol or a convergence error is
    raised.  Constant-mass and Step profiles take exact closed forms.
    """
    if k < 0:
        raise DomainError("wavenumber must be nonnegative")
    times = np.asarray(grid, dtype=float)
    if times.ndim != 1 or times.size < 2:
        raise DomainError("time grid needs at least two points")
    if times[0] != 0.0:
        raise DomainError("time grid must start at 0 (initial conditions)")
    if np.any(np.diff(times) <= 0):
        raise DomainError("time grid must be strictly increasing")

    if profile.mass_i == profile.mass_f:
        d1, d2, d1_dot, d2_dot = _constant_mode(k, profile.mass_i, times)
        return ModeSolution(k, times, d1, d2, d1_dot, d2_dot, profile)
    if profile.shape is ProfileShape.STEP:
        d1, d2, d1_dot, d2_dot = _step_mode(k, profile, times)
        return ModeSolution(k, times, d1, d2, d1_dot, d2_dot, profile)

    def rhs(t, y):
        w_sq = profile.omega_sq(k, t)
        return [y[1], -w_sq * y[0], y[3], -w_sq * y[2]]

    # run the stepper well below the requested tolerance: the Wronskian
    # drift accumulates over the whole span and is the quantity under
    # contract, not the local step error
    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        t_eval=times,
        rtol=max(tol / 50.0, 1e-13),
        atol=max(tol / 5000.0, 1e-15),
        dense_output=False,
        max_step=profile.duration / 8.0,
    )
    if not sol.success:
        raise ConvergenceError(f"mode integration failed: {sol.message}")
    d1, d1_dot, d2, d2_dot = sol.y

    out = ModeSolution(k, times, d1, d2, d1_dot, d2_dot, profile)
    drift = float(np.max(np.abs(out.wronskian() - 1.0)))
    if drift > 10.0 * max(tol, 1e-13):
        raise ConvergenceError(
            f"Wronskian drift {drift:.3e} exceeds 10x tolerance {tol:.1e}",
            partial_value=out,
            diagnostics={"drift": drift},
        )
    return out


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
    the inverse ramp duration.  Mode integrations are independent and may
    be distributed by the caller; assembly is order-independent.
    """
    k_arr = np.asarray(k_grid, dtype=float)
    if k_arr.ndim != 1 or k_arr.size < 2:
        raise DomainError("k grid needs at least two points")
    if np.any(k_arr <= 0) or np.any(np.diff(k_arr) <= 0):
        raise DomainError("k grid must be positive and strictly ascending")

    etas = np.empty_like(k_arr)
    thetas = np.empty_like(k_arr)
    for i, k in enumerate(k_arr):
        om_max = max(profile.omega_i(k), profile.omega_f(k), 1.0 / profile.duration)
        n_pts = max(64, int(_POINTS_PER_PERIOD * om_max * profile.t_f / (2 * math.pi)))
        grid = np.linspace(0.0, profile.t_f, n_pts + 1)
        sol = integrate_mode(k, profile, grid, tol=_SPECTRUM_TOL)
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
