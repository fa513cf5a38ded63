"""Reference formulas and independent oracles shared by the test modules.

``sqbath run`` and ``sqbath sweep`` never call these.  Closed forms: f,
f', d2~ and the fundamental solutions of the detector, a mode's Wronskian,
the (Xi, eta, theta) map, the bath-level FDR, the massless bath's
Hadamard kernel, the late-time xx as a Matsubara sum and the late-time
vacuum pp.  On arrays: the thermal factors, a spectrum's lookups,
cosh 2eta_kappa, the bath measure and a spectrum's weights
(``bath_kernels._base_row`` computes them one float at a time).  Every
frequency integral is the one rule ``FilonRule``, which shares no code
with the package's quadrature: ``covariance_oracle``, ``chi_oracle`` and
J_n(t) are built on it; ``bath_hadamard``, ``double_time_oracle`` and
``convolve_response`` check it from outside.
"""

import cmath
import functools
import math

import mpmath as mp
import numpy as np
from scipy import special
from scipy.interpolate import PchipInterpolator

from sqbath.bath_kernels import _COTH_PATCH, _MEASURE_NORM, BathSpec, SqueezeSpectrum
from sqbath.errors import DomainError, SqbathError
from sqbath.gaussian_state import CovarianceState
from sqbath.oscillator_dynamics import _fundamental, _Response, effective_response
from sqbath.quadrature import QuadratureConfig


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


# ---------------------------------------------------------------------------
# response functions of the detector


def fundamental_solutions(spec, t):
    """Homogeneous solutions d1, d2 and their derivatives at time t >= 0.

    d1 = e^{-gt}[cos Wt + (g/W) sin Wt], d2 = e^{-gt} sin(Wt)/W with
    W = Omega; the Wronskian d1 d2' - d1' d2 equals e^{-2 gamma t}.
    Accepts scalar or array t.  The values, and the refusal of t < 0, are
    those of the dynamics.
    """
    out = _fundamental(_Response(spec.gamma, spec.Omega), t)
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


def fdot_aux(spec, t: float, omega):
    """Time derivative of f(t; w) in closed form (no 1/w pole):
    d2~(w)[-i w e^{-iwt} - d1'(t) + i w d2'(t)]."""
    _, _, d1_dot, d2_dot = fundamental_solutions(spec, t)
    w = np.asarray(omega, dtype=float)
    out = d2_fourier(spec, w) * (-1j * w * np.exp(-1j * w * t) - d1_dot + 1j * w * d2_dot)
    return complex(out) if np.ndim(omega) == 0 else out


def wronskian(rows):
    """d1 d2' - d2 d1' of a field mode's fundamental data, rows (d1, d1',
    d2, d2') as the mode solver returns them; canonical commutation keeps
    it at 1."""
    rows = np.asarray(rows)
    return rows[..., 0] * rows[..., 3] - rows[..., 2] * rows[..., 1]


# ---------------------------------------------------------------------------
# Gaussian states

# the ground state of a unit-mass, unit-frequency oscillator, the initial
# state of the late-time tests
GROUND = CovarianceState(xx=0.5, pp=0.5, xp=0.0)


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


# ---------------------------------------------------------------------------
# late-time falloff of the oscillating power remnants

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
    Integrated by the Filon-Legendre rule up to where the envelope
    reaches e^-45.

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
        scale, thermal = epsilon, math.inf
    else:
        scale, thermal = n * beta, beta
    rule = oracle_rule(0.0, 45.0 / scale, spec, thermal, scale)
    w = rule.nodes
    # w^2 e^{-eps w}, or w^2 e^{-n b w} / (1 - e^{-b w}); no node sits at w = 0
    wfac = w * w * np.exp(-scale * w)
    if n:
        wfac /= -np.expm1(-beta * w)
    value = -1j / (8.0 * math.pi**2) * complex(rule.integral(wfac * d2_fourier(spec, w), -2.0 * t))

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


@functools.lru_cache(maxsize=4)
def double_time_oracle(spec, bath: BathSpec, t: float, eps: float, n: int = 1280):
    """(xx, pp, xp) integral parts at t as e^2 int int ds ds' u(t - s) u(t - s')
    G_H(s, s'), u = d2/m or d2', G_H = 2 cosh 2eta bath_hadamard(s - s') -
    2 sinh 2eta bath_hadamard(s + s', theta) under e^{-eps w}, by Simpson's
    rule on n (even) intervals a side: no frequency integral at all."""
    sq = bath.squeeze
    s = np.linspace(0.0, t, n + 1)
    diffs, sums = np.round(s[:, None] - s[None, :], 12), np.round(s[:, None] + s[None, :], 12)
    stat = {d: bath_hadamard(bath.beta, eps, abs(d)) for d in np.unique(diffs)}
    nonstat = {v: bath_hadamard(bath.beta, eps, v, sq.theta) for v in np.unique(sums)}
    g_h = 2.0 * (sq.cosh2eta * np.vectorize(stat.get)(diffs)
                 - sq.sinh2eta * np.vectorize(nonstat.get)(sums))
    wts = (s[1] - s[0]) / 3.0 * np.r_[1.0, np.tile([4.0, 2.0], n // 2)[:-1], 1.0]  # Simpson
    _, d2, _, d2_dot = fundamental_solutions(spec, t - s)
    w_x, w_p = wts * d2 / spec.m, wts * d2_dot
    return tuple(spec.e_sq * (u @ g_h @ v) for u, v in ((w_x, w_x), (w_p, w_p), (w_x, w_p)))


def late_xx(spec, bath: BathSpec, quad: QuadratureConfig) -> float:
    """xx_inf, the late-time xx integral part of a massless constant-squeeze
    bath under a hard cutoff, in closed form without quadrature.

    Its stationary part is the Matsubara sum (Grabert, Schramm & Ingold,
    Phys. Rep. 168, 115 (1988)) with nu_n = 2 pi n/beta,

        cosh 2eta/(m beta) sum_n 1/(w_r^2 + nu_n^2 + 2 gamma |nu_n|)
      = cosh 2eta/(m beta) [1/w_r^2 + 2 (beta/2pi)^2 (psi(1+a) - psi(1+b))/(a - b)],

    a = beta (gamma + i Omega)/2pi, b = a* (DLMF 5.15.6), and at beta = inf
    cosh 2eta (pi/2 - atan(gamma/Omega))/(pi m Omega).  The cutoff Lambda
    removes the w^-3 tail above it, (gamma/pi m) cosh 2eta/Lambda^2; the
    next order is Lambda^-4.  The nonstationary part decays: at finite
    beta and theta = 0 its w = 0 endpoint terms are imaginary to all
    orders, while at beta = inf a sinh 2eta/t^2 tail remains."""
    if quad.cutoff is None or quad.epsilon:
        raise DomainError("the closed form is for a hard cutoff alone")
    g, om, m = spec.gamma, spec.Omega, spec.m
    if math.isinf(bath.beta):
        value = (0.5 * math.pi - math.atan(g / om)) / (math.pi * m * om)
    else:
        a = bath.beta * complex(g, om) / (2.0 * math.pi)
        b = a.conjugate()
        ratio = (special.digamma(1.0 + a) - special.digamma(1.0 + b)) / (a - b)
        scale = bath.beta / (2.0 * math.pi)
        value = (1.0 / spec.omega_r**2 + 2.0 * scale * scale * ratio.real) / (m * bath.beta)
    tail = g / (math.pi * m * quad.cutoff**2)
    return bath.squeeze.cosh2eta * (value - tail)


def late_pp(spec, bath: BathSpec, quad: QuadratureConfig) -> float:
    """pp_inf, the late-time stationary pp integral part of a massless
    constant-squeeze bath under a hard cutoff Lambda, in closed form
    without quadrature.  With coth(b w/2) = 1 + 2 n_B(w) it is the vacuum
    part in elementary form,

        (2 gamma m/pi) cosh 2eta int_0^Lambda w^3 dw/(w^4 + B w^2 + C)
      = (gamma m/pi) cosh 2eta [1/2 ln((Lambda^4 + B Lambda^2 + C)/C)
                                - (B/d)(atan((2 Lambda^2 + B)/d) - atan(B/d))],

    B = 4 gamma^2 - 2 w_r^2, C = w_r^4, d = sqrt(4C - B^2) = 4 gamma Omega,
    plus at finite beta the thermal part

        (4 gamma m/pi) cosh 2eta int_0^inf w^3 n_B(w) |d2~|^2 dw
      = (4 gamma m/pi) cosh 2eta Im[a^2 J(a)]/Im[a^2],

    a = gamma + i Omega, from |d2~|^2 = 1/((w^2 + a^2)(w^2 + a*^2)) and
    Binet's formula for psi (DLMF 5.9), which gives
    int_0^inf w dw/((w^2 + a^2)(e^{b w} - 1)) = J(a) = [ln z - 1/(2z) -
    psi(z)]/2, z = b a/2pi.  The thermal part's tail above Lambda,
    of order e^{-b Lambda}, is left out.  At eta = 0 it is the whole
    late pp; the nonstationary part of eta > 0 is not included."""
    if quad.cutoff is None or quad.epsilon:
        raise DomainError("the closed form is for a hard cutoff alone")
    g, m, lam_sq = spec.gamma, spec.m, quad.cutoff**2
    b, c, d = 4.0 * g * g - 2.0 * spec.omega_r**2, spec.omega_r**4, 4.0 * g * spec.Omega
    log = 0.5 * math.log((lam_sq * lam_sq + b * lam_sq + c) / c)
    angle = (b / d) * (math.atan((2.0 * lam_sq + b) / d) - math.atan(b / d))
    value = g * m / math.pi * (log - angle)
    if not math.isinf(bath.beta):
        a = complex(g, spec.Omega)
        z = bath.beta * a / (2.0 * math.pi)
        j = 0.5 * (cmath.log(z) - 0.5 / z - special.digamma(z))
        value += 4.0 * g * m / math.pi * (a * a * j).imag / (a * a).imag
    return bath.squeeze.cosh2eta * value


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
    return bath.squeeze.cosh2eta


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


# ---------------------------------------------------------------------------
# the Filon-Legendre rule and the integral oracles built on it

_X, _W = np.polynomial.legendre.leggauss(16)
# moments m_n -> node weights sum_n m_n c_n[k], c_n = (n + 1/2) w_k P_n(x_k) the
# Legendre coefficients of the interpolant through the nodes
_FROM_LEGENDRE = (np.polynomial.legendre.legvander(_X, 15) * _W[:, None] * (np.arange(16) + 0.5)).T
_TWO_I_POWERS = 2.0 * np.array([1.0, 1j, -1.0, -1j] * 4)


class FilonRule:
    """int F(w) e^{i tau w} dw from F at ``nodes``, for any tau.

    On a panel [c - r, c + r] the interpolant of F at 16 Gauss-Legendre
    nodes, sum_n c_n P_n((w - c)/r), times e^{i tau w} integrates to
    r e^{i tau c} sum_n 2 i^n c_n j_n(tau r) (DLMF 10.54.2; Filon 1928,
    Iserles & Norsett 2005); at tau = 0 it is Gauss-Legendre, exact to
    degree 31.  ``head = (a, length)`` adds a Gauss-Legendre panel in s,
    w = a + s^2, 0 < s < sqrt(length), under a sqrt cusp at a."""

    def __init__(self, breaks, head=None):
        breaks = np.asarray(breaks, dtype=float)
        self.center, self.half = 0.5 * (breaks[1:] + breaks[:-1]), 0.5 * np.diff(breaks)
        s = 0.5 * math.sqrt(head[1]) * (1.0 + _X) if head else np.empty(0)
        self._head = (head[0] + s * s, math.sqrt(head[1]) * _W * s) if head else (s, s)
        panels = self.center[:, None] + self.half[:, None] * _X
        self.nodes = np.concatenate((self._head[0], panels.ravel()))
        self._weights = {}

    def integral(self, values, tau: float = 0.0):
        if tau not in self._weights:
            moments = _TWO_I_POWERS * special.spherical_jn(np.arange(16), tau * self.half[:, None])
            phases = self.half * np.exp(1j * tau * self.center)
            head = self._head[1] * np.exp(1j * tau * self._head[0])
            panels = moments @ _FROM_LEGENDRE * phases[:, None]
            self._weights[tau] = np.concatenate((head, panels.ravel()))
        return np.asarray(values) @ self._weights[tau]


def oracle_rule(lo, hi, resp=None, beta=math.inf, decay=0.0, knots=(), tau_max=0.0, split=1):
    """The rule on [lo, hi] for an integrand of d2~ of ``resp``, coth(beta w/2),
    e^{-decay w} and pieces joined at ``knots`` (breaks).  Panels stay twice
    their width from the poles Omega -+ i gamma (gamma/2 wide within 40 gamma
    of Omega, a third of the distance beyond) and 2 pi i n/beta (below 40/beta)
    and are at most 2/decay wide; a sqrt cusp at lo > 0 gets a head in s at
    most lo, 4/tau_max and the first knot long, then panels half their
    distance to lo.  ``split`` > 1 cuts each panel into that many, to show
    how far a value moves with its panels."""
    if resp is not None and not resp.gamma > 0:
        raise DomainError("the resonance panels need a damped response")
    knots = np.asarray(knots, dtype=float)
    knots = knots[(knots > lo) & (knots < hi)]

    def width(w):
        h = hi - lo
        if resp is not None:
            d = abs(w - resp.Omega)
            h = min(h, 0.5 * resp.gamma if d < 40.0 * resp.gamma else d / 3.0)
        if w < 40.0 / beta:
            h = min(h, 2.0 * math.pi / (3.0 * beta))
        return min(h, 2.0 / decay) if decay else h

    head = None
    if lo > 0.0:
        head = (lo, min(width(lo), lo, 4.0 / tau_max if tau_max else lo, *knots[:1] - lo))
    edges = [lo + (head[1] if head else 0.0)]
    while edges[-1] < hi:
        w = edges[-1]
        edges.append(min(w + min(width(w), 0.5 * (w - lo) if lo else math.inf), hi))
    breaks = np.union1d(edges, knots)
    index = np.arange((breaks.size - 1) * split + 1) / split
    return FilonRule(np.interp(index, np.arange(breaks.size), breaks), head)


def _bath_nodes(resp, bath: BathSpec, quad: QuadratureConfig, tau_max: float, split: int):
    """(rule, nodes, measure, (cosh 2eta, sinh 2eta e^{i theta})) on the
    bath's domain [m_i, quad.upper()], a spectrum's knots as breaks."""
    quad.require_regulator("an oracle frequency integral")
    spectrum = bath.squeeze if isinstance(bath.squeeze, SqueezeSpectrum) else None
    knots = () if spectrum is None else np.hypot(spectrum.k, bath.mass_i)
    rule = oracle_rule(
        bath.mass_i, quad.upper(), resp, bath.beta, quad.epsilon, knots, tau_max, split
    )
    if spectrum is None:
        sq = bath.squeeze
        weights = sq.cosh2eta, sq.sinh2eta * cmath.exp(1j * sq.theta)
    else:
        weights = spectrum_weights(spectrum, bath.mass_i)(rule.nodes)
    return rule, rule.nodes, bath_measure(bath.beta, bath.mass_i, quad)(rule.nodes), weights


def _split(resp, t: float, w):
    """f(t; w), f'(t; w) and e^{-iwt} as (a, t, b) for a e^{-iwt} + b:
    f = d2~ e^{-iwt} + d2~ (-d1 + i w d2), f' = -i w d2~ e^{-iwt} + d2~ (-d1' + i w d2')."""
    d1, d2, d1_dot, d2_dot = fundamental_solutions(resp, t)
    g = d2_fourier(resp, w)
    f = (g, t, g * (-d1 + 1j * w * d2))
    f_dot = (-1j * w * g, t, g * (-d1_dot + 1j * w * d2_dot))
    return f, f_dot, (np.ones_like(w), t, np.zeros_like(w))


def _forms(rule, measure, weights, u, v):
    """(int dmu cosh 2eta 2 Re[u v*], -int dmu 2 Re[sinh 2eta e^{i theta} u v]) of
    split responses, each product of phase e^{-iws} at the rule's tau = -s."""
    (au, su, bu), (av, sv, bv), (cosh, sinh) = u, v, weights
    avc, bvc = av.conj(), bv.conj()
    st = ((su - sv, au * avc), (su, au * bvc), (-sv, bu * avc), (0, bu * bvc))
    ns = ((su + sv, au * av), (su, au * bv), (sv, bu * av), (0, bu * bv))
    return (2.0 * sum(rule.integral(measure * cosh * p, -s) for s, p in st).real,
            -2.0 * sum(rule.integral(measure * sinh * p, -s) for s, p in ns).real)


def covariance_oracle(spec, bath: BathSpec, t: float, quad: QuadratureConfig, split=1):
    """(xx, pp, xp, P_xi) integral parts at t > 0, any bath the program
    accepts: e^2/m^2, e^2, e^2/m and e^2/m times both parts of the bilinear
    forms of (f, f), (f', f'), (f, f') and (f', e^{-iwt})."""
    resp = effective_response(spec, bath)
    rule, w, measure, weights = _bath_nodes(resp, bath, quad, 2.0 * t, split)
    f, f_dot, wave = _split(resp, t, w)
    e2, m = spec.e_sq, spec.m
    pairs = ((f, f, e2 / m**2), (f_dot, f_dot, e2), (f, f_dot, e2 / m), (f_dot, wave, e2 / m))
    return tuple(c * sum(_forms(rule, measure, weights, u, v)) for u, v, c in pairs)


def chi_oracle(spec, bath: BathSpec, t: float, t_prime: float, quad: QuadratureConfig, split=1):
    """((stationary, nonstationary), unit) of the bath-driven G_H^(chi)(t, t'):
    e^2/m^2 times the bilinear form of f(t), f(t') as ``chi_hadamard``, and
    for a massless constant squeeze the unit-weight split at its theta, as
    ``chi_hadamard_components`` (else None)."""
    resp = effective_response(spec, bath)
    rule, w, measure, weights = _bath_nodes(resp, bath, quad, t + t_prime, split)
    u, v = _split(resp, t, w)[0], _split(resp, t_prime, w)[0]
    full = tuple(spec.e_sq / spec.m**2 * x for x in _forms(rule, measure, weights, u, v))
    if not bath.is_massless or isinstance(bath.squeeze, SqueezeSpectrum):
        return full, None
    return full, _forms(rule, measure, (1.0, cmath.exp(1j * bath.squeeze.theta)), u, v)
