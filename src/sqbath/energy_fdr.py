"""
Energy exchange between detector and bath, and the oscillator FDR.

The power fed into the detector by the bath fluctuations, P_xi, and the
power dissipated back through the damping force, P_gamma, individually
approach constants once transients have relaxed; their sum vanishes.
The balance is checked at finite late times, together with the decay
classes of the nonstationary contributions.  The covariance
nonstationarity does not die off exponentially on the relaxation time:
it keeps an endpoint tail from w = 0, where
w coth(bw/2) -> 2/b: at finite temperature
xx_NS(t) -> -(2 gamma/(pi b m w_r^4)) sinh 2eta sin theta / t, which
vanishes at theta = 0; at b = inf the tail falls as t^-2.  The
oscillating remnants in P_xi (the J integrals) fall off as t^-2 for the
thermal part and t^-3 for the vacuum part.

The fluctuation-dissipation relation of the oscillator is one formula for
every bath.  It inherits the stationary bath kernel, weighted by
cosh 2eta_kappa at the bath wavenumber kappa = sqrt(w^2 - m_i^2), through
the dressed susceptibility G(w) = 1/(w_r^2 - w^2 - 2 i gamma kappa), and
it is assembled on the positive-frequency branch and extended evenly, so
both sides are even in omega and the relation holds on symmetric grids:

    hadamard side     = (2 gamma/m) cosh 2eta_kappa |G|^2 kappa coth(b|w|/2),
    dissipation side  = sgn(w) coth(bw/2) cosh 2eta_kappa Im G(w) / m.

The late-time checks share one horizon: a balance or a stationary value
is read only past LATE_TIME_FACTOR relaxation times.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bath_kernels import _MEASURE_NORM, BathSpec, bath_mix
from .errors import DomainError, EstimationError
from .gaussian_state import CovarianceState
from .oscillator_dynamics import (
    OscillatorSpec,
    _bilinear,
    _d2_tilde,
    _fdot_factor,
    _resp,
    _wave,
    covariance_evolution,
    covariance_integral_parts,
    effective_response,
)
from .quadrature import (
    QuadratureConfig,
    bessel_j1,
    coth_half_beta,
    fourier_quad,
    omega_coth_half_beta,
    plain_quad,
)

__all__ = [
    "FluxReport",
    "FdrReport",
    "power_in",
    "power_out",
    "flux_report",
    "jn_falloff",
    "jn_integral",
    "fdr_oscillator",
    "gamma_kernel_check",
    "bessel_tail_endpoint_integral",
    "LATE_TIME_FACTOR",
]

LATE_TIME_FACTOR = 30.0  # relaxation times 1/Gamma before late-time values
_STATIONARITY_RTOL = 1e-4  # |dP_gamma/dt| / |P_gamma| at the last sample
_JN_REL_TOL, _JN_ABS_TOL = 1e-9, 1e-14
_TAIL_RANGE = 10.0  # window over which the Bessel tail must stay finite
_TAIL_DELTA = 5e-8  # final endpoint window of the contact check


@dataclass(frozen=True)
class FluxReport:
    """Sampled powers and their late-time balance.

    ``balance_residual`` is |P_xi + P_gamma| / |P_gamma| at the last
    sampled time, after a stationarity pre-check.
    """

    times: np.ndarray
    p_xi: np.ndarray
    p_gamma: np.ndarray
    balance_residual: float


@dataclass(frozen=True)
class FdrReport:
    """Both sides of the oscillator FDR on a frequency grid."""

    omegas: np.ndarray
    hadamard_side: np.ndarray
    dissipation_side: np.ndarray
    max_rel_deviation: float


def power_in(
    spec: OscillatorSpec, bath: BathSpec, t: float, quad: QuadratureConfig
) -> float:
    """Power delivered to the detector by the bath fluctuations.

    P_xi(t) = 8 pi gamma int (dw/2pi)(w/4pi) coth(bw/2) {
        cosh 2eta  2 Re[e^{+iwt} f'(t;w)]
      - sinh 2eta  2 Re[e^{-iwt} e^{i theta} f'(t;w)] }

    The stationary integrand approaches 2 w Im d2~(w), which falls off
    only like 1/w against the thermal weight, so a regulator is required.
    """
    if t < 0:
        raise DomainError("power_in requires t >= 0")
    if t == 0.0:
        return 0.0
    resp, _ = effective_response(spec, bath)
    total = sum(
        _bilinear(resp, bath_mix(bath, quad), _fdot_factor(resp, t), _wave(t), quad)
    )
    return 8.0 * math.pi * spec.gamma * total


def power_out(spec: OscillatorSpec, bath: BathSpec, pp: float) -> float:
    """Power dissipated back into the bath through the damping force.

    P_gamma = -(2 Gamma / m) <p^2> with Gamma the local damping rate of
    the detector response: gamma for a massless bath, Upsilon for the
    memory-dressed massive case (the local reduction of the nonlocal
    dissipation kernel).  ``pp`` is the momentum dispersion at the time
    of interest: ``covariance_evolution(...).pp`` includes the decay of
    the initial state, ``covariance_integral_parts(...)[1]`` is the
    bath-driven part alone.
    """
    _, gamma_damp = effective_response(spec, bath)
    return -(2.0 * gamma_damp / spec.m) * pp


def flux_report(
    spec: OscillatorSpec,
    bath: BathSpec,
    times,
    quad: QuadratureConfig,
    init: CovarianceState | None = None,
) -> FluxReport:
    """Sample P_xi and P_gamma over a time grid and check the balance.

    The balance residual is evaluated at the last grid point, which must
    lie past LATE_TIME_FACTOR relaxation times and pass a stationarity
    pre-check |dP_gamma/dt| < _STATIONARITY_RTOL |P_gamma|.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0):
        raise DomainError("times must be a strictly increasing grid")
    _, gamma_damp = effective_response(spec, bath)
    if gamma_damp > 0:
        t_min = LATE_TIME_FACTOR / gamma_damp
        if times[-1] < t_min:
            raise DomainError(
                f"late-time balance requires t >= {t_min:.3g} "
                f"(= {LATE_TIME_FACTOR}/Gamma); grid ends at {times[-1]:.3g}"
            )
    p_xi = np.array([power_in(spec, bath, t, quad) for t in times])
    if init is None:
        pps = [covariance_integral_parts(spec, bath, t, quad)[1] for t in times]
    else:
        pps = [covariance_evolution(spec, bath, init, t, quad).pp for t in times]
    p_gamma = np.array([power_out(spec, bath, pp) for pp in pps])
    rate = abs(p_gamma[-1] - p_gamma[-2]) / (times[-1] - times[-2])
    if rate > _STATIONARITY_RTOL * abs(p_gamma[-1]):
        raise DomainError(
            "stationarity pre-check failed: |dP_gamma/dt| = "
            f"{rate:.3e} exceeds {_STATIONARITY_RTOL:.1e} |P_gamma|"
        )
    residual = abs(p_xi[-1] + p_gamma[-1]) / abs(p_gamma[-1])
    return FluxReport(
        times=times, p_xi=p_xi, p_gamma=p_gamma, balance_residual=float(residual)
    )


# ---------------------------------------------------------------------------
# late-time falloff of the oscillating power remnants


def jn_integral(
    spec: OscillatorSpec,
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
    if n < 0:
        raise DomainError("n must be >= 0")
    if n >= 1 and (not beta > 0 or math.isinf(beta)):
        raise DomainError("thermal terms need finite beta > 0")
    resp = _resp(spec)

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
        return wfac(w) * _d2_tilde(resp, w).real

    def h_im(w):
        return wfac(w) * _d2_tilde(resp, w).imag

    # the envelope decays exponentially; truncate where it reaches e^-45
    scale = epsilon if n == 0 else n * beta
    upper = 45.0 / scale
    opts = dict(rel_tol=_JN_REL_TOL, abs_tol=_JN_ABS_TOL, limit=4000)
    freq = 2.0 * t
    x = (
        fourier_quad(h_re, freq, "cos", 0.0, upper, **opts)[0]
        + fourier_quad(h_im, freq, "sin", 0.0, upper, **opts)[0]
    )
    y = (
        fourier_quad(h_im, freq, "cos", 0.0, upper, **opts)[0]
        - fourier_quad(h_re, freq, "sin", 0.0, upper, **opts)[0]
    )
    # J = -i (X + iY) / (8 pi^2)
    value = complex(y * _MEASURE_NORM, -x * _MEASURE_NORM)

    if subtract_pole:
        # rotating int_0^inf to the negative imaginary axis sweeps the
        # fourth quadrant, which contains the single response pole
        # w+ = Omega - i gamma with residue -1/(2 Omega); the swept term
        # is the e^{-2 gamma t} transient absent from the closed form
        w_plus = complex(resp.Omega, -resp.gamma)
        if n == 0:
            w_pole = cmath.exp(-epsilon * w_plus)
        else:
            w_pole = cmath.exp(-n * beta * w_plus) / (1.0 - cmath.exp(-beta * w_plus))
        pole = (
            w_plus * w_plus * w_pole * cmath.exp(-2j * w_plus * t)
            / (8.0 * math.pi * resp.Omega)
        )
        value -= pole
    return value


def jn_falloff(
    spec: OscillatorSpec,
    beta: float,
    n: int,
    t_list,
    epsilon: float = 1e-2,
) -> float:
    """Fitted decay exponent of log|J_n(t)| against log t.

    The fit window must span at least one decade; expect roughly -2 for
    thermal terms (n >= 1) and -3 for the vacuum term (n = 0).
    """
    t_arr = np.asarray(t_list, dtype=float)
    if t_arr.size < 4:
        raise EstimationError("need at least 4 sample times for the fit")
    if np.any(t_arr <= 0):
        raise DomainError("sample times must be positive")
    if np.max(t_arr) < 10.0 * np.min(t_arr):
        raise EstimationError(
            "fit window too narrow: t_list must span at least one decade"
        )
    mags = np.array(
        [abs(jn_integral(spec, beta, n, t, epsilon=epsilon)) for t in t_arr]
    )
    if np.any(mags == 0.0):
        raise EstimationError("J_n vanished within quadrature accuracy")
    slope, _ = np.polyfit(np.log(t_arr), np.log(mags), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# fluctuation-dissipation relation of the oscillator


def fdr_oscillator(
    spec: OscillatorSpec, bath: BathSpec, omega_grid
) -> FdrReport:
    """Both sides of the detector FDR on a frequency grid.

    With kappa = sqrt(w^2 - m_i^2) and G(w) = 1/(w_r^2 - w^2 - 2 i gamma kappa),

        hadamard     = (2 gamma / m) cosh 2eta_kappa |G|^2 kappa coth(b|w|/2)
        dissipation  = coth(b|w|/2) cosh 2eta_kappa Im G / m

    on the positive branch, extended evenly.  Frequencies below the mass
    threshold |w| < m_i are dropped from the grid; a bath with m_i = 0
    keeps the whole grid, w = 0 included, where both sides have the
    finite limit (4 gamma / (b m)) cosh 2eta_0 / w_r^4.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise DomainError("omega grid must be a nonempty 1-d array")
    omegas = omegas[np.abs(omegas) >= bath.mass_i * (1.0 + 1e-12)]
    if omegas.size == 0:
        raise DomainError("no grid frequencies above the mass threshold")
    beta = bath.beta
    aw = np.abs(omegas)
    kappa = np.sqrt(aw * aw - bath.mass_i**2)
    ch2 = bath.cosh2eta_at(kappa)
    g = 1.0 / (spec.omega_r**2 - aw**2 - 2j * spec.gamma * kappa)
    # kappa coth(b|w|/2) = (kappa/|w|) |w| coth(b|w|/2), finite at w = 0,
    # where kappa/|w| = 1 (only a massless bath keeps w = 0)
    kappa_over_w = np.divide(kappa, aw, out=np.ones_like(aw), where=aw > 0)
    weighted = omega_coth_half_beta(aw, beta) * kappa_over_w
    hadamard = (2.0 * spec.gamma / spec.m) * ch2 * np.abs(g) ** 2 * weighted
    # at w = 0 the product coth * Im G has a finite limit equal to the
    # hadamard side (Im G = 2 gamma kappa |G|^2); patch it there
    safe = aw > 1e-12 * spec.omega_r
    coth_abs = coth_half_beta(np.where(safe, aw, 1.0), beta)
    dissipation = np.where(safe, ch2 * coth_abs * g.imag / spec.m, hadamard)

    scale = np.maximum(np.abs(dissipation), np.abs(hadamard))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0, np.abs(hadamard - dissipation) / scale, 0.0)
    return FdrReport(
        omegas=omegas,
        hadamard_side=hadamard,
        dissipation_side=dissipation,
        max_rel_deviation=float(np.max(rel)),
    )


# ---------------------------------------------------------------------------
# memory-kernel contact check


def bessel_tail_endpoint_integral(mass: float, delta: float) -> float:
    """int_0^delta (m/u) J1(m u) du, the s -> t endpoint contribution."""
    if mass < 0:
        raise DomainError("mass must be nonnegative")
    if delta <= 0:
        raise DomainError("delta must be positive")
    if mass == 0.0:
        return 0.0

    def kernel(u):
        if u == 0.0:
            return 0.5 * mass * mass
        return (mass / u) * bessel_j1(mass * u)

    val, _ = plain_quad(kernel, 0.0, delta, rel_tol=1e-10, abs_tol=1e-16)
    return val


def gamma_kernel_check(mass: float) -> float:
    """Residual of the vanishing endpoint limit of the memory kernel.

    The non-contact (Bessel tail) part of the dissipation kernel must not
    contribute to the frequency renormalization: its integral over a
    shrinking window [t - delta, t] tends to zero.  Returns
    |int_0^delta (m/u) J1(m u) du| at delta = _TAIL_DELTA, after
    confirming the full integral over [0, _TAIL_RANGE] is finite.
    """
    if mass < 0:
        raise DomainError("mass must be nonnegative")
    if mass == 0.0:
        return 0.0
    # full tail integral stays finite (closed form: m(1 - J0 - ...) bounded)
    full = bessel_tail_endpoint_integral(mass, _TAIL_RANGE)
    if not math.isfinite(full):
        raise DomainError("memory tail integral did not stay finite")
    return abs(bessel_tail_endpoint_integral(mass, _TAIL_DELTA))
