"""
Energy exchange between detector and bath, and the oscillator FDR.

The power fed into the detector by the bath fluctuations, P_xi, and the
power dissipated back through the damping force, P_gamma, individually
approach constants once transients have relaxed; their sum vanishes.
:func:`flux_balance` checks the balance at the last sampled time.  The
covariance nonstationarity does not die off exponentially on the
relaxation time: it keeps an endpoint tail from w = 0, where
w coth(bw/2) -> 2/b: at finite temperature
xx_NS(t) -> -(2 gamma/(pi b m w_r^4)) sinh 2eta sin theta / t, which
vanishes at theta = 0; at b = inf the tail falls as t^-2.

The fluctuation-dissipation relation of the oscillator is one formula for
every bath.  It inherits the stationary bath kernel, weighted by
cosh 2eta_kappa at the bath wavenumber kappa = sqrt(w^2 - m_i^2), through
the dressed susceptibility G(w) = 1/(w_r^2 - w^2 - 2 i gamma kappa), and
it is assembled on the positive-frequency branch and extended evenly, so
both sides are even in omega and the relation holds on symmetric grids:

    hadamard side     = (2 gamma/m) cosh 2eta_kappa |G|^2 kappa coth(b|w|/2),
    dissipation side  = sgn(w) coth(bw/2) cosh 2eta_kappa Im G(w) / m.

Both sides read the bath where the covariances do: the base row of
:func:`bath_kernels._base_row` at |w| holds (1/8pi^2) kappa coth(b|w|/2)
and a spectrum's cosh 2eta_kappa.  The two sides are equal
algebraically, since Im G = 2 gamma kappa |G|^2, so their deviation
reads round-off for any G; it checks the assembly, not the physics.

The late-time checks share one horizon: a balance or a stationary value
is read only past LATE_TIME_FACTOR relaxation times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath_kernels import _MEASURE_NORM, BathSpec, SqueezeSpectrum, _base_row
from .errors import DomainError
from .oscillator_dynamics import (
    OscillatorSpec,
    _bilinear,
    _fdot_factor,
    _wave,
    effective_response,
)
# fourier_quad and plain_quad stay importable here for perfbench/tracing.py
from .quadrature import QuadratureConfig, fourier_quad, plain_quad  # noqa: F401

__all__ = [
    "FdrReport",
    "power_in",
    "power_out",
    "flux_balance",
    "fdr_frequencies",
    "fdr_oscillator",
    "LATE_TIME_FACTOR",
]

LATE_TIME_FACTOR = 30.0  # relaxation times 1/Gamma before late-time values
_STATIONARITY_RTOL = 1e-4  # |dP_gamma/dt| / |P_gamma| at the last sample


@dataclass(frozen=True)
class FdrReport:
    """Both sides of the oscillator FDR on a frequency grid.

    ``max_rel_deviation`` compares two sides that are equal algebraically
    (Im G = 2 gamma kappa |G|^2), so it reads round-off for any G.
    """

    omegas: np.ndarray
    hadamard_side: np.ndarray
    dissipation_side: np.ndarray
    max_rel_deviation: float


def power_in(
    spec: OscillatorSpec, bath: BathSpec, t: float, quad: QuadratureConfig
) -> float:
    """Power delivered to the detector by the bath fluctuations.

    P_xi(t) = (e^2/m) int (dw/2pi)(w/4pi) coth(bw/2) {
        cosh 2eta  2 Re[e^{+iwt} f'(t;w)]
      - sinh 2eta  2 Re[e^{-iwt} e^{i theta} f'(t;w)] }

    with e^2/m = 8 pi gamma.  The stationary integrand approaches
    2 w Im d2~(w), which falls off only like 1/w against the thermal
    weight, so a regulator is required.
    """
    if t == 0.0:
        return 0.0
    resp, pref = effective_response(spec, bath), spec.e_sq / spec.m
    return pref * sum(_bilinear(resp, bath, _fdot_factor(resp, t), _wave(t), quad, pref=pref))


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
    return -(2.0 * effective_response(spec, bath).gamma / spec.m) * pp


def flux_balance(spec: OscillatorSpec, bath: BathSpec, times, p_xi, p_gamma) -> dict:
    """Late-time balance of the powers sampled on a time grid.

    ``balance_residual`` is |P_xi + P_gamma| / |P_gamma| at the last
    sample.  ``late_time_ok`` holds when that sample lies past
    LATE_TIME_FACTOR relaxation times and P_gamma has settled there,
    |dP_gamma/dt| <= _STATIONARITY_RTOL |P_gamma| over the last interval.
    ``damping_rate`` is the Gamma of :func:`power_out`.
    """
    gamma_damp = effective_response(spec, bath).gamma
    p_in, p_out = p_xi[-1], p_gamma[-1]
    residual = abs(p_in + p_out) / abs(p_out) if p_out else math.inf
    late = gamma_damp > 0 and times[-1] >= LATE_TIME_FACTOR / gamma_damp
    settled = len(times) >= 2 and (
        abs(p_out - p_gamma[-2]) / (times[-1] - times[-2])
        <= _STATIONARITY_RTOL * abs(p_out)
    )
    return {
        "balance_residual": residual,
        "late_time_ok": bool(late and settled),
        "damping_rate": gamma_damp,
    }


# ---------------------------------------------------------------------------
# fluctuation-dissipation relation of the oscillator


def fdr_frequencies(omega_grid, mass_i: float) -> np.ndarray:
    """The frequencies of a grid at or above the field-mass threshold m_i."""
    omegas = np.asarray(omega_grid, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise DomainError("omega grid must be a nonempty 1-d array")
    omegas = omegas[np.abs(omegas) >= mass_i * (1.0 + 1e-12)]
    if omegas.size == 0:
        raise DomainError(f"no grid frequencies above the mass threshold {mass_i}")
    return omegas


def fdr_oscillator(
    spec: OscillatorSpec, bath: BathSpec, omega_grid
) -> FdrReport:
    """Both sides of the detector FDR on a frequency grid.

    With kappa = sqrt(w^2 - m_i^2) and G(w) = 1/(w_r^2 - w^2 - 2 i gamma kappa),

        hadamard     = (2 gamma / m) cosh 2eta_kappa |G|^2 kappa coth(b|w|/2)
        dissipation  = coth(b|w|/2) cosh 2eta_kappa Im G / m

    on the positive branch, extended evenly, with kappa coth(b|w|/2) and
    cosh 2eta_kappa read from the base row of the bath at |w| (a bath
    with constant weights has one cosh 2eta) and coth(b|w|/2) the row's
    kappa coth over kappa.  Frequencies below the mass threshold
    |w| < m_i are dropped from the grid; a bath with m_i = 0 keeps the
    whole grid, w = 0 included, where both sides have the finite limit
    (4 gamma / (b m)) cosh 2eta_0 / w_r^4 and the dissipation side, whose
    coth diverges there, takes the hadamard side's value.

    Since Im G = 2 gamma kappa |G|^2 the two sides are one number written
    twice, and ``max_rel_deviation`` reads round-off for any G and any
    weight.  The values themselves are checked against the bath-level FDR
    (``bath_fdr`` in ``tests/oracles.py``) by the test suite.
    """
    omegas = fdr_frequencies(omega_grid, bath.mass_i)
    aw = np.abs(omegas)
    kappa = np.sqrt(aw * aw - bath.mass_i * bath.mass_i)
    row = _base_row(bath, 0.0)
    # one row per distinct |w|: a w and its mirror -w share it
    distinct, where = np.unique(aw, return_inverse=True)
    rows = [row(w) for w in distinct.tolist()]
    measure = np.array([r[0] for r in rows])[where]
    if isinstance(bath.squeeze, SqueezeSpectrum):
        ch2 = np.array([r[1] for r in rows])[where]
    else:
        ch2 = bath.squeeze.cosh2eta
    kappa_coth = measure / _MEASURE_NORM
    g = 1.0 / (spec.omega_r**2 - aw**2 - 2j * spec.gamma * kappa)
    hadamard = (2.0 * spec.gamma / spec.m) * ch2 * np.abs(g) ** 2 * kappa_coth
    coth = np.divide(kappa_coth, kappa, out=np.zeros_like(kappa), where=kappa > 0.0)
    dissipation = np.where(kappa > 0.0, ch2 * coth * g.imag / spec.m, hadamard)

    scale = np.maximum(np.abs(dissipation), np.abs(hadamard))
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(scale > 0, np.abs(hadamard - dissipation) / scale, 0.0)
    return FdrReport(
        omegas=omegas,
        hadamard_side=hadamard,
        dissipation_side=dissipation,
        max_rel_deviation=float(np.max(rel)),
    )
