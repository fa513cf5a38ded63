"""Reference formulas and independent oracles shared by the test modules.

``sqbath run`` and ``sqbath sweep`` never call these; they hold the
closed forms the package is checked against: the response functions of
the detector, the Wronskian of a field mode, the (Xi, eta, theta)
forward map and the effective temperature, the Bessel J1, the
oscillating power remnants J_n(t), the two sides of the bath-level
fluctuation-dissipation relation, the bath's coincident-point Hadamard
kernel, and
on arrays the thermal factors coth(b w/2) and w coth(b w/2), the squeeze
spectrum's lookups, the stationary weight cosh 2eta_kappa, the bath
measure and the squeeze-spectrum weights, which the base rows of
``bath_kernels._base_row`` compute one float at a time.
"""

import cmath
import math

import mpmath as mp
import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from sqbath.bath_kernels import _COTH_PATCH, _MEASURE_NORM, BathSpec, SqueezeSpectrum
from sqbath.errors import DomainError, InvalidStateError, SqbathError
from sqbath.gaussian_state import CovarianceState
from sqbath.oscillator_dynamics import _fundamental, _Response
from sqbath.quadrature import QuadratureConfig, fourier_quad


class EstimationError(SqbathError):
    """A fit window is too narrow or too noisy to estimate an exponent."""


class BelowThresholdError(DomainError):
    """A spectral quantity was requested below the field-mass threshold."""


_GREGORY = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def convolve_response(kernel_samples, source_samples, grid):
    """``int_0^t kernel(t - s) source(s) ds`` sampled on a uniform grid.

    Fourth-order Gregory end corrections on top of the raw discrete
    convolution; the first few points (fewer than six panels) fall back
    to the trapezoid rule.  A test oracle for the closed-form response
    integrals.
    """
    kern = np.asarray(kernel_samples)
    src = np.asarray(source_samples)
    grid = np.asarray(grid, dtype=float)
    if kern.shape != grid.shape or src.shape != grid.shape:
        raise DomainError("kernel, source and grid must have matching shapes")
    n = grid.size
    if n < 2:
        return np.zeros_like(src)
    steps = np.diff(grid)
    h = steps[0]
    if not np.allclose(steps, h, rtol=1e-12, atol=1e-15):
        raise DomainError("convolve_response requires a uniform grid")

    base = np.convolve(kern, src)[:n]
    out = base.astype(np.result_type(kern, src, float))
    idx = np.arange(n)
    for m, w in enumerate(_GREGORY):
        c = w - 1.0
        head = np.where(idx >= m, kern[np.minimum(np.maximum(idx - m, 0), n - 1)] * src[m], 0.0)
        tail = np.where(idx >= m, kern[m] * src[np.minimum(np.maximum(idx - m, 0), n - 1)], 0.0)
        out = out + c * (head + tail)
    out = out * h

    # short windows: plain trapezoid, exact enough at O(t^3) amplitudes
    n_head = min(6, n)
    for j in range(n_head):
        if j == 0:
            out[j] = 0.0
            continue
        prod = kern[j::-1] * src[: j + 1]
        out[j] = h * (np.sum(prod) - 0.5 * (prod[0] + prod[-1]))
    return out


def bessel_j1(x):
    """Bessel function J1 for x >= 0 (``scipy.special.j1``).

    Negative arguments are rejected rather than continued as the odd
    function.  Accepts scalars (returning a float) or arrays.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("bessel_j1 requires x >= 0")
    out = special.j1(arr)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# response functions of the detector


def fundamental_solutions(spec, t):
    """Homogeneous solutions d1, d2 and their derivatives at time t >= 0.

    d1 = e^{-gt}[cos Wt + (g/W) sin Wt], d2 = e^{-gt} sin(Wt)/W with
    W = Omega; the Wronskian d1 d2' - d1' d2 equals e^{-2 gamma t}.
    Accepts scalar or array t.  The values are those the dynamics use.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise DomainError("fundamental solutions are defined for t >= 0")
    out = _fundamental(_Response(spec.gamma, spec.Omega), t_arr)
    if np.ndim(t) == 0:
        return tuple(float(x) for x in out)
    return out


def d2_fourier(spec, omega):
    """Fourier transform d2~(w) = 1 / (w_r^2 - w^2 - 2 i gamma w).

    Satisfies 2 gamma w |d2~|^2 = Im d2~ pointwise, the identity behind
    the late-time energy balance.
    """
    w = np.asarray(omega, dtype=float)
    out = 1.0 / (spec.gamma**2 + spec.Omega**2 - w**2 - 2j * spec.gamma * w)
    return complex(out) if np.ndim(omega) == 0 else out


def f_aux(spec, t: float, omega):
    """Response integral f(t; w) = int_0^t d2(t-s) e^{-iws} ds, closed form.

    Equals d2~(w)[e^{-iwt} - d1(t) + i w d2(t)]; vanishes at t = 0 and
    tends to d2~(w) e^{-iwt} once the homogeneous solutions have decayed.
    """
    d1, d2, _, _ = fundamental_solutions(spec, t)
    w = np.asarray(omega, dtype=float)
    out = d2_fourier(spec, w) * (np.exp(-1j * w * t) - d1 + 1j * w * d2)
    return complex(out) if np.ndim(omega) == 0 else out


def wronskian(rows):
    """d1 d2' - d2 d1' of a field mode's fundamental data, rows (d1, d1',
    d2, d2') as the mode solver returns them; canonical commutation keeps
    it at 1."""
    rows = np.asarray(rows)
    return rows[..., 0] * rows[..., 3] - rows[..., 2] * rows[..., 1]


# ---------------------------------------------------------------------------
# Gaussian states


def covariance_from_decomposition(decomp, m: float, omega_r: float):
    """Forward map (Xi, eta, theta) -> covariance matrix elements.

    xx = Xi [cosh 2eta - sinh 2eta cos theta] / (2 m omega_r)
    pp = (m omega_r / 2) Xi [cosh 2eta + sinh 2eta cos theta]
    xp = -(1/2) Xi sinh 2eta sin theta
    """
    xi = decomp.xi
    ch = decomp.squeeze.cosh2eta
    sh = decomp.squeeze.sinh2eta
    th = decomp.squeeze.theta
    xx = xi * (ch - sh * math.cos(th)) / (2.0 * m * omega_r)
    pp = 0.5 * m * omega_r * xi * (ch + sh * math.cos(th))
    xp = -0.5 * xi * sh * math.sin(th)
    return CovarianceState(xx=xx, pp=pp, xp=xp)


def effective_temperature(cov, omega_r: float) -> float:
    """Nonequilibrium effective inverse temperature beta_eff.

    beta_eff = (2/omega_r) ln[(1 + sqrt(1 + 4 S)) / (2 sqrt(S))] with the
    uncertainty function S = xx pp - xp^2 - 1/4.  S -> 0+ (pure state)
    diverges and is rejected.
    """
    s = cov.uncertainty - 0.25
    if s <= 0:
        raise InvalidStateError(
            "uncertainty function S <= 0: state is pure (or invalid), "
            "beta_eff diverges"
        )
    return (2.0 / omega_r) * math.log((1.0 + math.sqrt(1.0 + 4.0 * s)) / (2.0 * math.sqrt(s)))


# ---------------------------------------------------------------------------
# late-time falloff of the oscillating power remnants

_JN_QUAD = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-14, max_subdivisions=4000)


def jn_integral(
    spec,
    beta: float,
    n: int,
    t: float,
    epsilon: float = 1e-2,
    subtract_pole: bool = True,
) -> complex:
    """Oscillating remnant J(t) = int (dw/2pi)(w/4pi) W(w) (-iw) d2~ e^{-2iwt}.

    ``n = 0`` is the vacuum piece of the coth expansion, regulated by
    e^{-epsilon w}.  ``n >= 1`` carries the summed thermal remainder
    W(w) = sum_{j>=n} e^{-j beta w} = e^{-n beta w} / (1 - e^{-beta w});
    the t^-2 (thermal) / t^-3 (vacuum) falloff classes concern the
    resummed series, a single Boltzmann term alone decays like vacuum.

    The exact integral also carries the residue of the response pole at
    w = Omega - i gamma, an e^{-2 gamma t} transient that the
    exponential-integral closed form of the late-time analysis discards.
    ``subtract_pole`` (default) removes it analytically, leaving the
    algebraically decaying part whose exponent the falloff fit targets;
    pass False for the raw integral.
    """
    if n == 0:
        if epsilon <= 0:
            raise DomainError("vacuum term requires an epsilon regulator")

        def wfac(w):
            # w^2 e^{-eps w}
            return w * w * math.exp(-epsilon * w)
    else:
        def wfac(w):
            # w^2 e^{-n b w} / (1 - e^{-b w}); series patch keeps the
            # integrable ~ w/beta endpoint NaN-free for the panel rules
            u = beta * w
            if u < 1e-6:
                return (w / beta) * math.exp(-n * u) / (1.0 - 0.5 * u + u * u / 6.0)
            return w * w * math.exp(-n * u) / (-math.expm1(-u))

    def h_re(w):
        return wfac(w) * d2_fourier(spec, w).real

    def h_im(w):
        return wfac(w) * d2_fourier(spec, w).imag

    # the envelope decays exponentially; truncate where it reaches e^-45
    scale = epsilon if n == 0 else n * beta
    upper = 45.0 / scale
    freq = 2.0 * t
    x = (
        fourier_quad(h_re, freq, "cos", 0.0, upper, _JN_QUAD)[0]
        + fourier_quad(h_im, freq, "sin", 0.0, upper, _JN_QUAD)[0]
    )
    y = (
        fourier_quad(h_im, freq, "cos", 0.0, upper, _JN_QUAD)[0]
        - fourier_quad(h_re, freq, "sin", 0.0, upper, _JN_QUAD)[0]
    )
    # J = -i (X + iY) / (8 pi^2)
    norm = 1.0 / (8.0 * math.pi**2)
    value = complex(y * norm, -x * norm)

    if subtract_pole:
        # rotating int_0^inf to the negative imaginary axis sweeps the
        # fourth quadrant, which contains the single response pole
        # w+ = Omega - i gamma with residue -1/(2 Omega); the swept term
        # is the e^{-2 gamma t} transient absent from the closed form
        w_plus = complex(spec.Omega, -spec.gamma)
        if n == 0:
            w_pole = cmath.exp(-epsilon * w_plus)
        else:
            w_pole = cmath.exp(-n * beta * w_plus) / (1.0 - cmath.exp(-beta * w_plus))
        pole = (
            w_plus * w_plus * w_pole * cmath.exp(-2j * w_plus * t)
            / (8.0 * math.pi * spec.Omega)
        )
        value -= pole
    return value


def jn_falloff(spec, beta: float, n: int, t_list, epsilon: float = 1e-2) -> float:
    """Fitted decay exponent of log|J_n(t)| against log t.

    The fit window must span at least one decade; expect roughly -2 for
    thermal terms (n >= 1) and -3 for the vacuum term (n = 0).
    """
    t_arr = np.asarray(t_list, dtype=float)
    if np.max(t_arr) < 10.0 * np.min(t_arr):
        raise EstimationError(
            "fit window too narrow: t_list must span at least one decade"
        )
    mags = np.array(
        [abs(jn_integral(spec, beta, n, t, epsilon=epsilon)) for t in t_arr]
    )
    slope, _ = np.polyfit(np.log(t_arr), np.log(mags), 1)
    return float(slope)


def bath_fdr(omega: float, bath: BathSpec) -> tuple[float, float]:
    """Both sides of the bath-level fluctuation-dissipation relation.

    lhs: stationary Hadamard transform (kappa/4pi) coth(b|w|/2) cosh 2eta_kappa,
    kappa = sqrt(w^2 - m_i^2).
    rhs: sgn(w) coth(bw/2) cosh 2eta_kappa Im G_R0 with Im G_R0 = kappa/4pi
    on the positive-frequency branch, so both sides are even in w.

    In a massive bath the retarded transform has no imaginary part at or
    below the threshold |w| <= m_i and the relation is empty; such
    frequencies are rejected.  A massless bath keeps w = 0, where both
    sides tend to (1/4pi)(2/b) cosh 2eta_0 (0 at zero temperature).

    The two sides are equal algebraically, since coth(b|w|/2) =
    sgn(w) coth(bw/2), so their difference reads round-off; it tests the
    evaluation, not the relation.
    """
    aw = abs(omega)
    if bath.mass_i > 0.0 and aw <= bath.mass_i:
        raise BelowThresholdError(
            f"|omega| = {aw} is at or below the field-mass threshold {bath.mass_i}"
        )
    kappa = math.sqrt(omega * omega - bath.mass_i * bath.mass_i)
    ch2 = float(cosh2eta_at(bath, kappa))
    if aw == 0.0:
        limit = float(omega_coth_half_beta(0.0, bath.beta)) / (4.0 * math.pi) * ch2
        return limit, limit
    coth_abs = float(coth_half_beta(aw, bath.beta))
    im_gr0 = kappa / (4.0 * math.pi)

    lhs = im_gr0 * coth_abs * ch2
    sgn = 1.0 if omega > 0 else -1.0
    coth_signed = sgn * float(coth_half_beta(omega, bath.beta))
    rhs = coth_signed * ch2 * im_gr0
    return lhs, rhs


def bath_hadamard(beta: float, eps: float, big_t: float, phase: float = 0.0) -> float:
    """(1/8 pi^2) int_0^inf w coth(bw/2) e^{-eps w} cos(w T - phase) dw.

    The Hurwitz-zeta closed form Re e^{-i phase} [1/z^2 + (2/b^2)
    zeta(2, 1 + z/b)] / 8 pi^2 with z = eps - i T.  Twice its value at
    T = t - t' is the stationary part of the Hadamard kernel of a
    massless bath at x = 0 per unit cosh 2eta; minus twice its value at
    T = t + t', phase theta, is the nonstationary part per unit
    sinh 2eta.  Their cosh/sinh 2eta sum is the kernel whose stationary
    part carries the FDR factor coth(b w/2) cosh 2eta.
    """
    z = mp.mpc(eps, -float(big_t))
    val = mp.e ** (-1j * mp.mpf(phase)) * (
        1 / z**2 + 2 / mp.mpf(beta) ** 2 * mp.zeta(2, 1 + z / beta)
    )
    return float(mp.re(val)) / (8 * math.pi**2)


# ---------------------------------------------------------------------------
# the bath on arrays


def coth_half_beta(omega, beta: float):
    """coth(beta w / 2) on an array; the zero-temperature limit beta = inf
    gives sgn(w) (1 at w = 0)."""
    omega = np.asarray(omega, dtype=float)
    if math.isinf(beta):
        return np.where(omega < 0.0, -1.0, 1.0)
    return 1.0 / np.tanh(0.5 * beta * omega)


def omega_coth_half_beta(omega, beta: float):
    """w * coth(beta w / 2) on an array, finite at w = 0.

    For beta*w below _COTH_PATCH the product is evaluated from the Laurent
    expansion w coth(beta w/2) = (2/beta)(1 + u^2/3 - u^4/45 + ...) with
    u = beta w / 2, which avoids the 0/0 of the direct form.
    """
    omega = np.asarray(omega, dtype=float)
    if math.isinf(beta):
        return omega.copy()
    u = 0.5 * beta * omega
    small = np.abs(u) < 0.5 * _COTH_PATCH
    safe = np.where(small, 1.0, u)
    series = (2.0 / beta) * (1.0 + u * u / 3.0 - np.power(u, 4) / 45.0)
    return np.where(small, series, omega / np.tanh(safe))


def _lookup(spectrum, samples, k):
    """scipy's PCHIP through (spectrum.k, samples) at the array k: held at
    the first sample below the grid, 0 above it."""
    k = np.asarray(k, dtype=float)
    inside = PchipInterpolator(spectrum.k, samples)(np.clip(k, spectrum.k[0], spectrum.k[-1]))
    return np.where(k > spectrum.k[-1], 0.0, inside)


def eta_at(spectrum, k):
    """``SqueezeSpectrum.eta_at`` on an array, negative pieces clamped to 0."""
    return np.maximum(_lookup(spectrum, spectrum.eta, k), 0.0)


def theta_at(spectrum, k):
    """``SqueezeSpectrum.theta_at`` on an array, on the unwrapped angle."""
    return _lookup(spectrum, np.unwrap(spectrum.theta), k)


def cosh2eta_at(bath: BathSpec, kappa):
    """Stationary squeeze weight cosh 2eta at wavenumber kappa: the constant
    cosh 2eta (1 for a thermal bath), or cosh 2eta(kappa) read from the
    squeeze spectrum."""
    if isinstance(bath.squeeze, SqueezeSpectrum):
        return np.cosh(2.0 * eta_at(bath.squeeze, kappa))
    return bath.constant_squeeze().cosh2eta


def _kappa(mass_i: float):
    """w -> kappa = sqrt(w^2 - m_i^2) on an array, 0 below the threshold
    (w itself for a massless bath)."""

    def kappa(w):
        w = np.asarray(w, dtype=float)
        if mass_i == 0.0:
            return w
        return np.sqrt(np.maximum(w * w - mass_i * mass_i, 0.0))

    return kappa


def bath_measure(beta: float, mass_i: float, quad: QuadratureConfig):
    """w -> (1/8 pi^2) kappa coth(b w/2) e^{-epsilon w} on an array, the
    bath measure per dw under the regulator of ``quad``: the array oracle
    of the measure in a base row of the node tables."""
    kappa = _kappa(mass_i)

    def measure(w):
        w = np.asarray(w, dtype=float)
        damping = np.exp(-quad.epsilon * w)
        if mass_i == 0.0:
            return _MEASURE_NORM * omega_coth_half_beta(w, beta) * damping
        return _MEASURE_NORM * kappa(w) * coth_half_beta(w, beta) * damping

    return measure


def spectrum_weights(spectrum, mass_i: float):
    """w -> (cosh 2eta, sinh 2eta e^{i theta}) of ``spectrum`` read at kappa,
    on an array: the array oracle of a spectrum's weights in a base row."""
    kappa = _kappa(mass_i)

    def weights(w):
        k = kappa(w)
        eta = eta_at(spectrum, k)
        return np.cosh(2.0 * eta), np.sinh(2.0 * eta) * np.exp(1j * theta_at(spectrum, k))

    return weights
