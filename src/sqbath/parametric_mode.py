"""
Parametric field modes: mode-equation integration and squeeze spectra.

Each bath mode obeys a parametric-oscillator equation
phi'' + (k^2 + m^2(t)) phi = 0 while the field mass runs from m_i to m_f
over [t_i, t_f].  :func:`integrate_mode` returns the fundamental
solutions d1, d2 (unit initial data, Wronskian 1) and their derivatives
of every mode at one time, as one row (d1, d1', d2, d2') per mode.  They
are integrated with DOP853 (Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I*, 1993, II.10): all modes step together in one
loop, each under scipy's own step-size control, so every mode gets the
bits of its own scipy DOP853 run.  The dense output (II.6) at the few
samples a mode's value is fitted from is built in one batch, for all the
accepted steps that hold samples, each step's samples with scipy's bits.
A sharp Step profile bypasses the ODE solver entirely and is matched
analytically, serving both as an oracle and to avoid stiffness at the
jump.

The Butcher tableau is scipy's ``integrate/_ivp/dop853_coefficients.py``
(it imports only numpy), loaded from its file by
:func:`quadrature.load_scipy_file`, and the constants below are built
from it exactly as ``class DOP853`` in scipy's ``_ivp/rk.py`` builds
them; importing ``scipy.integrate`` for them would cost about 0.5 s of
start-up.  The load reaches into scipy's private layout: a scipy release
that moves the file makes the import of this module (which ``sqbath.cli``
makes when it parses a parametric config) fail loudly, and the tests
compare every constant with ``scipy.integrate.DOP853``'s under ``==``.
Should the load be unwelcome, the fallback is to copy the tableau's
literals into this package.

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

from .bath_kernels import SqueezeSpectrum, check_k_grid
from .errors import ConvergenceError, DomainError
from .gaussian_state import BogoliubovPair
from .quadrature import load_scipy_file

__all__ = [
    "ProfileShape",
    "MassProfile",
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
        if not (0 <= self.mass_i < math.inf and 0 <= self.mass_f < math.inf):
            raise DomainError("field masses must be finite and nonnegative")
        if not self.t_i < self.t_f < math.inf:
            raise DomainError("profile requires finite t_f > t_i")
        if self.t_i < 0:
            raise DomainError("profile must start at t_i >= 0")
        if not self.smoothstep_order >= 1:
            raise DomainError("smoothstep order must be >= 1")

    @property
    def duration(self) -> float:
        return self.t_f - self.t_i

    def _ramp(self, t):
        """Dimensionless ramp s(t) with s(t_i) = 0, s(t_f) = 1, on an array t."""
        t = np.asarray(t, dtype=float)
        u = np.minimum(np.maximum((t - self.t_i) / self.duration, 0.0), 1.0)
        if self.shape is ProfileShape.TANH:
            # arguments run over +-3 widths; rescale to hit 0 and 1 exactly
            raw = np.tanh(6.0 * (u - 0.5))
            lim = math.tanh(3.0)
            return (raw + lim) / (2.0 * lim)
        elif self.shape is ProfileShape.SMOOTHSTEP:
            n = self.smoothstep_order
            # general smoothstep S_n(u), C^n at both ends
            acc = 0.0
            for j in range(n + 1):
                acc = acc + math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * np.power(-u, j)
            return np.power(u, n + 1) * acc
        # Step: jump at the midpoint
        return np.where(t >= 0.5 * (self.t_i + self.t_f), 1.0, 0.0)

    def mass_sq(self, t):
        """m^2(t), constant outside [t_i, t_f], monotone in between."""
        return self.mass_i**2 + (self.mass_f**2 - self.mass_i**2) * self._ramp(t)

    def omega_sq(self, k, t):
        """k^2 + m^2(t) on arrays k and t of one shape."""
        return k * k + self.mass_sq(t)

    def omega_i(self, k: float) -> float:
        return math.hypot(k, self.mass_i)

    def omega_f(self, k: float) -> float:
        return math.hypot(k, self.mass_f)


def _constant_mode(k: float, mass: float, times: np.ndarray):
    om = math.hypot(k, mass)
    if om == 0.0:
        raise DomainError("k = 0 massless mode has no oscillatory solution")
    c, s = np.cos(om * times), np.sin(om * times)
    return c, -om * s, s / om, c


def _step_mode(k: float, profile: MassProfile, times: np.ndarray):
    """Analytic matching of value and derivative across the jump, at the
    one time in ``times``."""
    t_star = 0.5 * (profile.t_i + profile.t_f)
    om_i = profile.omega_i(k)
    # before the jump the constant-mass form holds; it also refuses the
    # k = 0 massless mode, whose om_i = 0 would divide below
    if times[0] < t_star or om_i == 0.0:
        return _constant_mode(k, profile.mass_i, times)
    om_f = profile.omega_f(k)
    ta = times - t_star
    c0_1, c0_2 = math.cos(om_i * t_star), math.sin(om_i * t_star) / om_i
    v0_1, v0_2 = -om_i * math.sin(om_i * t_star), math.cos(om_i * t_star)
    cos_a, sin_a = np.cos(om_f * ta), np.sin(om_f * ta)
    return (
        c0_1 * cos_a + (v0_1 / om_f) * sin_a,
        -c0_1 * om_f * sin_a + v0_1 * cos_a,
        c0_2 * cos_a + (v0_2 / om_f) * sin_a,
        -c0_2 * om_f * sin_a + v0_2 * cos_a,
    )


# the DOP853 tableau as scipy's class DOP853 (rk.py) holds it
_coefficients = load_scipy_file("integrate._ivp.dop853_coefficients")
N_STAGES = _coefficients.N_STAGES
ERROR_ESTIMATOR_ORDER = 7
A = _coefficients.A[:N_STAGES, :N_STAGES]
B = _coefficients.B
C = _coefficients.C[:N_STAGES]
E3 = _coefficients.E3
E5 = _coefficients.E5
D = _coefficients.D
A_EXTRA = _coefficients.A[N_STAGES + 1:]
C_EXTRA = _coefficients.C[N_STAGES + 1:]

# scipy's step-size control for its explicit Runge-Kutta methods (rk.py)
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / (ERROR_ESTIMATOR_ORDER + 1)


# the rows (d1, d1', d2, d2') swapped to (d1', d1, d2', d2): their
# derivatives up to the factors of _rhs_factors
_SWAP = np.array([1, 0, 3, 2])


def _rhs_factors(w_sq: np.ndarray) -> np.ndarray:
    """Factors (1, -w_sq, 1, -w_sq) of the swapped rows, one per w_sq entry."""
    out = np.ones(w_sq.shape + (4,))
    out[..., 1::2] = -w_sq[..., None]
    return out


def _mode_rhs(profile: MassProfile, k: np.ndarray, t: np.ndarray, y: np.ndarray):
    """d/dt of the (modes, 4) rows (d1, d1', d2, d2') of modes k at times t."""
    return y[..., _SWAP] * _rhs_factors(profile.omega_sq(k, t))


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size**0.5


def _stage_sums(K: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_j a_j K[j] of a (stages, modes*4) stage array.

    The (modes*4, s) transposed view of the contiguous array gives every
    mode the BLAS reduction that scipy's (4, s) view gives one mode.  The
    bit-for-bit match with scipy rests on the BLAS build reducing each row
    of both views alike (true of the OpenBLAS the test oracle was checked
    with); on another build the results still agree to rounding, which
    the Wronskian drift bound and the benchmark's reference rows check.
    """
    return np.dot(K.T, a)


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


def _dense_output(profile, k, t_old, h, y_old, y_new, K, step, times):
    """scipy's DOP853 interpolant of n accepted steps, at ``times``.

    Step q takes mode k[q] from t_old[q] over h[q], from the flat rows
    y_old[4q:4q+4] to y_new[4q:4q+4]; columns 4q..4q+3 of the (13, 4n)
    ``K`` hold its stages, the last one f(t_new, y_new).  ``step[s]`` is
    the step that holds times[s].  The 3 extra stages read one m^2(t)
    table and share the stage sums of :func:`_stage_sums`; every sample
    gets the bits of scipy's own dense output of its step.  Returns one
    row (d1, d1', d2, d2') per time.
    """
    n = k.size
    h4 = np.repeat(h, 4)
    perm = (4 * np.arange(n)[:, None] + _SWAP).ravel()
    w_sq = profile.omega_sq(k, t_old + C_EXTRA[:, None] * h)
    factors = _rhs_factors(w_sq).reshape(C_EXTRA.size, 4 * n)
    Kx = np.empty((A_EXTRA.shape[1], 4 * n))
    Kx[: N_STAGES + 1] = K
    for s, (a, fac) in enumerate(zip(A_EXTRA, factors), start=N_STAGES + 1):
        Kx[s] = (y_old + _stage_sums(Kx[:s], a[:s]) * h4)[perm] * fac
    F = np.empty((3 + len(D), 4 * n))
    delta_y = y_new - y_old
    F[0] = delta_y
    F[1] = h4 * Kx[0] - delta_y
    F[2] = 2 * delta_y - h4 * (Kx[N_STAGES] + Kx[0])
    # one (4, 16) by (16, 4) product per step, as scipy forms it: a single
    # product over all 4n columns rounds some entries differently
    per_step = np.matmul(D, Kx.reshape(-1, n, 4).transpose(1, 0, 2))
    F[3:] = h4 * per_step.transpose(1, 0, 2).reshape(len(D), 4 * n)
    x = ((times - t_old[step]) / h[step])[:, None]
    y = np.zeros((times.size, 4))
    for i, coef in enumerate(F.reshape(len(F), n, 4)[::-1, step]):
        y += coef
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old.reshape(n, 4)[step]


def _wronskian_drift(y: np.ndarray) -> np.ndarray:
    return np.abs(y[:, 0] * y[:, 3] - y[:, 2] * y[:, 1] - 1.0)


def _step_control(h_abs, dot5, dot3, retry):
    """scipy's DOP853 error norm and step factor of every mode.

    ``dot5`` and ``dot3`` are the squared lengths of the modes' scaled
    error vectors.  Python floats carry scipy's numpy-scalar arithmetic
    bit for bit; array arithmetic would not: both ``** 2`` and the step
    exponent go through libm's pow, which rounds some values differently
    from numpy's array square and power.  (The square of a rounded
    square root of a finite float never overflows.)  Returns the step
    factors and which attempts were accepted.
    """
    factor, accepted = [], []
    for h, d5, d3, again in zip(h_abs.tolist(), dot5.tolist(), dot3.tolist(), retry.tolist()):
        norm5 = math.sqrt(d5) ** 2
        norm3 = math.sqrt(d3) ** 2
        if norm5 == 0 and norm3 == 0:
            error_norm = 0.0
        else:
            error_norm = h * norm5 / math.sqrt((norm5 + 0.01 * norm3) * 4)
        ok = error_norm < 1
        if not ok:
            # a NaN norm takes the minimum factor, as in scipy
            factor.append(max(_MIN_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT))
        else:
            grow = (
                _MAX_FACTOR
                if error_norm == 0
                else min(_MAX_FACTOR, _SAFETY * error_norm**_ERROR_EXPONENT)
            )
            factor.append(min(1, grow) if again else grow)
        accepted.append(ok)
    return np.array(factor, dtype=float), np.array(accepted)


def _lockstep_dop853(profile, k, samples, tol):
    """Integrate modes k from t = 0 to the end of their own sample times.

    Every mode runs scipy's DOP853 driver, sampled at its own times as
    scipy's ``t_eval`` would sample it, under its own t, step size and
    accept/reject state; one loop iteration is one step attempt of every
    unfinished mode, so m^2(t) at all stage times, the right-hand side and
    the stage sums act on all of them at once; error norms and step
    factors stay per-mode scalars (:func:`_step_control`).  The per-mode
    results are bit-identical to the separate solves (on a BLAS build
    that reduces as :func:`_stage_sums` assumes).  The interpolant is
    built only for steps that hold a sample after t = 0, where it returns
    the initial data: one flush builds those of all such steps at once
    (:func:`_dense_output`), at the end or before any failure is raised,
    so a failure at a sample is reported as the per-step check reported
    it, with the samples up to it.  The Wronskian drift is checked at
    every accepted step and every sample.  Returns one (samples, 4) array
    per mode with rows (d1, d1', d2, d2').  ``samples`` holds one
    increasing array of times per mode, starting at 0.
    """
    # run the stepper well below the requested tolerance: the Wronskian
    # drift accumulates over the whole span and is the quantity under
    # contract, not the local step error
    rtol = max(tol / 50.0, 1e-13)
    atol = max(tol / 5000.0, 1e-15)
    max_step = profile.duration / 8.0
    bound = 10.0 * max(tol, 1e-13)
    # a step's stage times t + c h (c = 1 for the end point, 1 * h == h),
    # known before its first stage: m^2(t) is evaluated once per attempt
    stage_c = np.append(C[1:], 1.0)[:, None]

    n = k.size
    # the state is kept flat, (modes*4,) and (stages, modes*4); the first
    # 4m entries of swap gather the swapped rows of m modes
    swap = (4 * np.arange(n)[:, None] + _SWAP).ravel()
    y0 = np.array([1.0, 0.0, 0.0, 1.0])
    t_end = np.array([times[-1] for times in samples])
    taken = [[y0[None]] for _ in range(n)]  # per mode: arrays of sampled rows
    next_sample = np.ones(n, dtype=int)
    drift_max = np.zeros(n)

    # per loop iteration, the accepted steps that hold samples: their modes,
    # the ends (lo, hi) of their samples, and their k, t, h, y, y_new and
    # stages, the arguments of _dense_output
    blocks = []

    def flush():
        if not blocks:
            return
        modes, lo, hi, *parts = (np.concatenate(part, axis=-1) for part in zip(*blocks))
        blocks.clear()  # a failure below must not flush them again
        counts = hi - lo
        rows = _dense_output(
            profile, *parts, np.repeat(np.arange(modes.size), counts),
            np.concatenate([samples[i][a:b] for i, a, b in zip(modes, lo, hi)]),
        )
        starts = np.cumsum(counts) - counts
        # each step's largest sample drift, NaN if one is NaN (as np.max)
        worst = np.maximum.reduceat(_wronskian_drift(rows), starts).tolist()
        steps = zip(modes.tolist(), hi.tolist(), np.split(rows, starts[1:]), worst)
        for i, end, step_rows, drift in steps:
            taken[i].append(step_rows)
            drift_max[i] = max(drift_max[i], drift)
            # drift_max may hold later steps already: the step's own drift
            # is checked and reported
            if drift > bound:
                fail(i, samples[i][end - 1], f"drift above {bound:.1e} (10x tolerance)", drift)

    def fail(i, t_reached, what, drift=None):
        # the held samples come first: an earlier failure among them
        # is raised instead, and the partial value holds them all
        flush()
        drift = drift_max[i] if drift is None else drift
        raise ConvergenceError(
            f"mode k = {k[i]:.6g}: {what} at t = {t_reached:.6g} of "
            f"{t_end[i]:.6g}; Wronskian drift {drift:.3e}",
            partial_value=np.vstack(taken[i]),
            diagnostics={
                "k": float(k[i]),
                "t_reached": float(t_reached),
                "drift": float(drift),
            },
        )

    # the unfinished modes, compacted: idx maps them to their input index
    idx = np.arange(n)
    kk = k.copy()
    t = np.zeros(n)
    y = np.tile(y0, (n, 1))
    f = _mode_rhs(profile, kk, t, y)
    h_abs = _initial_steps(profile, kk, t_end, y, f, rtol, atol, max_step)
    y, f = y.ravel(), f.ravel()
    retry = np.zeros(n, dtype=bool)
    t_next = np.array([times[1] for times in samples])

    while idx.size:
        m = idx.size
        end = t_end[idx]
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        # the max_step / min_step clamp applies to the first try of a step
        clamped = np.where(h_abs > max_step, max_step, np.maximum(h_abs, min_step))
        h_abs = np.where(retry, h_abs, clamped)
        # a NaN step size fails here too
        too_small = ~(h_abs >= min_step)
        if too_small.any():
            j = int(np.argmax(too_small))
            fail(idx[j], t[j], f"step size {h_abs[j]:.3e} below {min_step[j]:.3e}")
        t_new = np.minimum(t + h_abs, end)
        h = t_new - t
        h_abs = np.abs(h)
        h4 = np.repeat(h, 4)
        # k^2 + m^2 at every later stage time of the step, the end included
        factors = _rhs_factors(profile.omega_sq(kk, t + stage_c * h)).reshape(N_STAGES, 4 * m)
        perm = swap[: 4 * m]

        K = np.empty((N_STAGES + 1, 4 * m))
        K[0] = f
        for s in range(1, N_STAGES):
            y_stage = y + _stage_sums(K[:s], A[s, :s]) * h4
            np.multiply(y_stage[perm], factors[s - 1], out=K[s])
        y_new = y + h4 * _stage_sums(K[:N_STAGES], B)
        f_new = K[N_STAGES]
        np.multiply(y_new[perm], factors[-1], out=f_new)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = (_stage_sums(K, E5) / scale).reshape(m, 4)
        err3 = (_stage_sums(K, E3) / scale).reshape(m, 4)
        # np.vecdot gives each row the bits of its own e.dot(e)
        factor, accepted = _step_control(
            h_abs, np.vecdot(err5, err5), np.vecdot(err3, err3), retry
        )
        h_abs = h_abs * factor
        retry = ~accepted
        if not accepted.any():
            continue

        drift = np.where(accepted, _wronskian_drift(y_new.reshape(m, 4)), 0.0)
        drift_max[idx] = np.maximum(drift_max[idx], drift)
        if (drift > bound).any():
            j = int(np.argmax(drift > bound))
            fail(idx[j], t_new[j], f"drift above {bound:.1e} (10x tolerance)")

        sampled = np.flatnonzero(accepted & (t_next[idx] <= t_new))
        if sampled.size:
            modes = idx[sampled]
            lo = next_sample[modes]
            for i, j in zip(modes, sampled):
                hi = next_sample[i] = np.searchsorted(samples[i], t_new[j], side="right")
                t_next[i] = samples[i][hi] if hi < samples[i].size else np.inf
            cols = (4 * sampled[:, None] + np.arange(4)).ravel()
            steps = (kk[sampled], t[sampled], h[sampled], y[cols], y_new[cols], K[:, cols])
            blocks.append((modes, lo, next_sample[modes], *steps))

        t = np.where(accepted, t_new, t)
        accepted4 = np.repeat(accepted, 4)
        y = np.where(accepted4, y_new, y)
        f = np.where(accepted4, f_new, f)
        live = ~(accepted & (t_new == end))
        if not live.all():
            live4 = np.repeat(live, 4)
            idx, kk, t, h_abs, retry = idx[live], kk[live], t[live], h_abs[live], retry[live]
            y, f = y[live4], f[live4]

    flush()
    return [np.vstack(rows) for rows in taken]


_POINTS_PER_PERIOD = 24  # samples per period of a mode's fastest frequency


def integrate_mode(ks, profile: MassProfile, t: float, tol: float = 1e-10) -> np.ndarray:
    """Fundamental data of every mode in ``ks`` at the time ``t > 0``.

    Returns one row (d1, d1', d2, d2') per wavenumber, in the order of
    ``ks``: the fundamental solutions with initial data (1, 0) and (0, 1)
    at t = 0 and their time derivatives.  Constant-mass and Step profiles
    take exact closed forms.  Otherwise all modes are stepped together
    (:func:`_lockstep_dop853`), each sampled at the start and the last 4
    of n + 1 evenly spaced times over [0, t], n giving at least 24 samples
    per period of its fastest frequency; its row is the cubic through
    those 4 samples at t, one fit for the 4 components (the bits of 4
    separate fits).  That is the sample at t up to rounding, but not the
    solver's own end value: the squeeze spectrum reads these bits.  The
    Wronskian drift must stay below 10 tol at every accepted step and
    every sample, or a :class:`ConvergenceError` names the mode, the time
    reached and the drift; its partial value holds the mode's rows
    sampled up to the failure.
    """
    ks = np.asarray(ks, dtype=float)
    if ks.ndim != 1 or not np.all(ks >= 0):
        raise DomainError("wavenumbers must be a 1-d array of nonnegative values")
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")

    at = np.array([t])
    if profile.mass_i == profile.mass_f:
        return np.array([_constant_mode(k, profile.mass_i, at) for k in ks])[..., 0]
    if profile.shape is ProfileShape.STEP:
        return np.array([_step_mode(k, profile, at) for k in ks])[..., 0]
    grids = []
    for k in ks:
        om_max = max(profile.omega_i(k), profile.omega_f(k), 1.0 / profile.duration)
        n = max(64, int(_POINTS_PER_PERIOD * om_max * t / (2 * math.pi)))
        grids.append(np.linspace(0.0, t, n + 1)[[0, -4, -3, -2, -1]])
    rows = _lockstep_dop853(profile, ks, grids, tol)
    fit = np.polynomial.polynomial.polyfit
    return np.array([fit(g[1:] - t, r[1:], 3)[0] for g, r in zip(grids, rows)])


def bogoliubov_from_mode(row, omega_i: float, nu: float, t: float) -> BogoliubovPair:
    """Bogoliubov pair relating a mode's evolution to single-frequency modes.

    ``row`` holds the fundamental data (d1, d1', d2, d2') of a mode of
    incoming frequency w = ``omega_i``, as :func:`integrate_mode` returns
    them, as Python floats (``.tolist()``): the squeeze spectrum's bits
    are those of Python's complex arithmetic.  Projecting on modes of
    frequency ``nu``, with the phase origin a time ``t`` before the row's,

        alpha = (e^{+i nu t} / 2 sqrt(w nu))[nu d1 + i d1' - i w nu d2 + w d2'],
        beta  = (e^{-i nu t} / 2 sqrt(w nu))[nu d1 - i d1' - i w nu d2 - w d2'].

    With nu = w and t the row's time this is the instantaneous
    decomposition, whose normalization |alpha|^2 - |beta|^2 = 1 is the
    Wronskian.  When the process changes the asymptotic frequency, the
    outgoing nu projects onto genuine out-modes: the moduli then freeze
    once the process has ended.
    """
    if not (omega_i > 0 and nu > 0):
        raise DomainError("projection frequencies must be positive")
    d1, d1_dot, d2, d2_dot = row
    norm = 2.0 * math.sqrt(omega_i * nu)
    alpha = (
        cmath.exp(1j * nu * t)
        * (nu * d1 + 1j * d1_dot - 1j * omega_i * nu * d2 + omega_i * d2_dot)
        / norm
    )
    beta = (
        cmath.exp(-1j * nu * t)
        * (nu * d1 - 1j * d1_dot - 1j * omega_i * nu * d2 - omega_i * d2_dot)
        / norm
    )
    return BogoliubovPair(alpha=alpha, beta=beta)


_SPECTRUM_TOL = 1e-9  # Wronskian tolerance of each mode integration


def squeeze_spectrum(profile: MassProfile, k_grid) -> SqueezeSpectrum:
    """Squeeze parameters eta(k), theta(k) left behind by the process.

    Reads every mode once, at the end of the process, from one
    :func:`integrate_mode` call, and projects on out-modes there: eta_k =
    arcsinh |beta_k| and theta_k is the phase of -alpha_k beta_k*,
    referenced to the process end (the time origin the detector sees).
    Smooth profiles suppress eta_k once k well exceeds the inverse ramp
    duration.
    """
    k_arr = check_k_grid(k_grid)
    rows = integrate_mode(k_arr, profile, profile.t_f, _SPECTRUM_TOL)
    etas = np.empty_like(k_arr)
    thetas = np.empty_like(k_arr)
    for i, (k, row) in enumerate(zip(k_arr, rows.tolist())):
        pair = bogoliubov_from_mode(row, profile.omega_i(k), profile.omega_f(k), 0.0)
        pair = pair.validate(tol=1e-8)
        etas[i] = pair.eta
        thetas[i] = pair.theta
    return SqueezeSpectrum(k_arr, etas, thetas)
