"""
The free bath field: its squeeze spectrum, its state and its measure.

Every frequency integral of the package sees the bath through the
measure (dw/2pi)(kappa/4pi) coth(b w/2) with its regulator
(:func:`bath_measure`) and the stationary and nonstationary squeeze
weights cosh 2eta and sinh 2eta e^{i theta}: constants (:func:`bath_mix`)
or read from a squeeze spectrum (:func:`spectrum_weights`).  The
integrals of a run keep these per-node values in the tables of
:func:`oscillator_dynamics._node_factors`.  The stationary weight
cosh 2eta_kappa, which both FDRs carry, is :meth:`BathSpec.cosh2eta_at`.
The bath's own two-point function, the coincident-point Hadamard kernel,
is the plane-wave bilinear form of the response expander and lives with
it in :mod:`oscillator_dynamics`
(:func:`oscillator_dynamics.hadamard_coincident`).

Conventions: frequencies carry the initial field mass, w_i = sqrt(k^2 +
m_i^2); k integrals are performed in w_i above threshold, which removes
the Jacobian singularity at k = 0.  Fourier transforms follow
g~(w) = int dt g(t) e^{+i w t}.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResolutionError
from .gaussian_state import SqueezeParam
# fourier_quad stays importable here for perfbench/tracing.py
from .quadrature import (  # noqa: F401
    QuadratureConfig,
    coth_half_beta,
    fourier_quad,
    omega_coth_half_beta,
)

__all__ = [
    "bath_mix",
    "bath_measure",
    "spectrum_weights",
    "SqueezeSpectrum",
    "BathSpec",
]


class _Pchip:
    """Monotone cubic (PCHIP) through (x, y), held at the ends of the grid.

    The coefficients are scipy's :class:`~scipy.interpolate.PchipInterpolator`
    computed with the same numpy operations (:func:`_pchip_slopes`, then
    the cubic Hermite pieces), so they are scipy's bit for bit without
    importing ``scipy.interpolate``.  The pieces are summed in the order of
    scipy's own evaluation, c3 + c2 s + c1 s^2 + c0 s^3 with the powers of
    s built by repeated multiplication, so the values are scipy's too.  A
    call takes an array, looked up with :func:`numpy.searchsorted`; the
    float lookup of a quadrature node, the same sum on Python floats, is
    written out in :meth:`SqueezeSpectrum.eta_at` and
    :meth:`SqueezeSpectrum.theta_at`.
    """

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        slope = np.diff(y) / h
        d = _pchip_slopes(h, slope, y)
        t = (d[:-1] + d[1:] - 2 * slope) / h
        self.c = np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, k):
        x = self.x
        k = np.clip(k, x[0], x[-1])
        i = np.minimum(np.searchsorted(x, k, side="right"), x.size - 1) - 1
        s = k - x[i]
        c0, c1, c2, c3 = self.c[:, i]
        z = s * s
        return 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)


def _pchip_slopes(h, m, y):
    """The PCHIP derivatives at the knots, as scipy's
    ``PchipInterpolator._find_derivatives`` computes them: the weighted
    harmonic mean of the neighbouring secant slopes m (0 where they differ
    in sign or one is 0), and a shape-preserving one-sided estimate at the
    two ends.  Two knots give the secant slope at both."""
    if y.size == 2:
        return np.array([m[0], m[0]])
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point derivative at an end knot, clipped to keep
    the shape (scipy's ``PchipInterpolator._edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class SqueezeSpectrum:
    """Mode-dependent squeeze parameters eta(k), theta(k) on a k grid.

    Samples are interpolated with monotone cubics (PCHIP); above the last
    grid point the squeeze magnitude extrapolates to zero (high modes are
    barely excited by a finite-energy process), below the first point it
    is held at the first sample.  The angle is interpolated after phase
    unwrapping.  A float k returns a float, an array an array: an array
    goes through :class:`_Pchip`, and a float, as a quadrature node
    passes it, is looked up in ``eta_at``/``theta_at`` themselves (one
    bisect on Python floats, the same piece and sum as the array path).
    Spectra are keyed by identity: :func:`cli.squeeze_spectrum` solves a
    ramp once per process, and its products and sweep points share it.
    """

    def __init__(self, k, eta, theta=None):
        k = np.asarray(k, dtype=float)
        eta = np.asarray(eta, dtype=float)
        theta = (
            np.zeros_like(k) if theta is None else np.asarray(theta, dtype=float)
        )
        if k.ndim != 1 or k.size < 2:
            raise DomainError("spectrum needs a 1-d grid with at least 2 points")
        if k.shape != eta.shape or k.shape != theta.shape:
            raise DomainError("k, eta, theta must have matching shapes")
        if np.any(k <= 0) or np.any(np.diff(k) <= 0):
            raise DomainError("k grid must be positive and strictly ascending")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(theta))):
            raise DomainError("spectrum samples must be finite")
        if np.any(eta < 0):
            raise DomainError("eta(k) must be nonnegative")
        self.k = k
        self.eta = eta
        self.theta = theta
        self._eta_interp = _Pchip(k, eta)
        self._theta_interp = _Pchip(k, np.unwrap(theta))
        # the float lookup's knots and (c0, c1, c2, c3) pieces
        self._xs = k.tolist()
        self._eta_pieces = self._eta_interp.c.T.tolist()
        self._theta_pieces = self._theta_interp.c.T.tolist()

    def eta_at(self, k):
        if isinstance(k, float):
            # the PCHIP piece on Python floats, as _Pchip sums it: one
            # bisect over the knots below the last, k held at the first
            xs = self._xs
            if k > xs[-1]:
                return 0.0
            k = max(k, xs[0])
            i = bisect_right(xs, k, 0, len(xs) - 1) - 1
            s = k - xs[i]
            c0, c1, c2, c3 = self._eta_pieces[i]
            z = s * s
            out = 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)
            return 0.0 if out < 0.0 else out
        k = np.asarray(k, dtype=float)
        out = np.where(k > self.k[-1], 0.0, self._eta_interp(k))
        return np.maximum(out, 0.0)

    def theta_at(self, k):
        if isinstance(k, float):
            # as in eta_at, on the unwrapped angle's pieces
            xs = self._xs
            if k > xs[-1]:
                return 0.0
            k = max(k, xs[0])
            i = bisect_right(xs, k, 0, len(xs) - 1) - 1
            s = k - xs[i]
            c0, c1, c2, c3 = self._theta_pieces[i]
            z = s * s
            return 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)
        k = np.asarray(k, dtype=float)
        return np.where(k > self.k[-1], 0.0, self._theta_interp(k))

    def check_resolution(self, quad: QuadratureConfig, mass_i: float) -> None:
        """Fail if the grid would truncate significant squeezing.

        A spectrum still sizeable at its largest k is acceptable when the
        quadrature regulator suppresses all frequencies beyond the grid,
        otherwise the zero extrapolation would cut a cliff into the
        integrands.
        """
        if self.k.size < 8:
            raise ResolutionError("k_grid: squeeze spectrum grid has fewer than 8 points")
        peak = float(np.max(self.eta))
        if peak == 0.0 or self.eta[-1] <= 1e-2 * peak:
            return
        w_max = math.hypot(float(self.k[-1]), mass_i)
        if quad.cutoff is not None and quad.cutoff <= w_max:
            return
        if quad.epsilon * w_max >= 30.0:
            return
        raise ResolutionError(
            "k_grid: squeeze spectrum is not resolved: eta at the largest k is "
            f"{self.eta[-1]:.3e} (> 1% of the peak {peak:.3e}); extend the "
            "k grid (or regulate below it) so the zero extrapolation is "
            "harmless"
        )


@dataclass(frozen=True)
class BathSpec:
    """Scalar-field bath: temperature, squeeze configuration, mass profile.

    ``squeeze`` is ``None`` (plain thermal), a :class:`SqueezeParam`
    (mode-independent constant) or a :class:`SqueezeSpectrum`
    (parametric process).  ``beta = inf`` is the zero-temperature bath.
    """

    beta: float
    squeeze: SqueezeParam | SqueezeSpectrum | None = None
    mass_i: float = 0.0
    mass_f: float = 0.0

    def __post_init__(self):
        if not self.beta > 0:
            raise DomainError("inverse temperature must be positive")
        if self.mass_i < 0 or self.mass_f < 0:
            raise DomainError("field masses must be nonnegative")

    @property
    def is_massless(self) -> bool:
        return self.mass_i == 0.0 and self.mass_f == 0.0

    def constant_squeeze(self) -> SqueezeParam:
        if isinstance(self.squeeze, SqueezeSpectrum):
            raise DomainError("bath carries a squeeze spectrum, not a constant")
        return self.squeeze if self.squeeze is not None else SqueezeParam(0.0, 0.0)

    def cosh2eta_at(self, kappa):
        """Stationary squeeze weight cosh 2eta at wavenumber kappa.

        The constant cosh 2eta (1 for a thermal bath), or cosh 2eta(kappa)
        read from the squeeze spectrum.
        """
        if isinstance(self.squeeze, SqueezeSpectrum):
            return np.cosh(2.0 * self.squeeze.eta_at(kappa))
        return self.constant_squeeze().cosh2eta


# ---------------------------------------------------------------------------
# the bath as seen by every frequency integral

_MEASURE_NORM = 1.0 / (8.0 * math.pi**2)  # (dw/2pi)(w/4pi) -> w dw / 8 pi^2


def _kappa(mass_i: float) -> Callable:
    """w -> kappa = sqrt(w^2 - m_i^2), 0 below the threshold (w itself for
    a massless bath); a float w gives a float, an array an array."""
    if mass_i == 0.0:
        return lambda w: w if isinstance(w, float) else np.asarray(w, dtype=float)

    def kappa(w):
        if isinstance(w, float):
            return math.sqrt(max(w * w - mass_i * mass_i, 0.0))
        w = np.asarray(w, dtype=float)
        return np.sqrt(np.maximum(w * w - mass_i * mass_i, 0.0))

    return kappa


def bath_measure(beta: float, mass_i: float, quad: QuadratureConfig) -> Callable:
    """w -> (1/8 pi^2) kappa coth(b w/2) e^{-epsilon w}, the bath measure
    per dw under the regulator of ``quad``; a float w gives a float, an
    array an array."""
    if mass_i == 0.0:
        def measure(w):
            return _MEASURE_NORM * omega_coth_half_beta(w, beta) * quad.damping(w)
    else:
        kappa = _kappa(mass_i)

        def measure(w):
            return _MEASURE_NORM * kappa(w) * coth_half_beta(w, beta) * quad.damping(w)

    return measure


def spectrum_weights(spectrum: SqueezeSpectrum, mass_i: float) -> Callable:
    """w -> (cosh 2eta, sinh 2eta e^{i theta}) of ``spectrum`` read at kappa;
    a float w gives a (float, complex) pair, an array a pair of arrays."""
    kappa = _kappa(mass_i)

    def weights(w):
        k = kappa(w)
        eta = spectrum.eta_at(k)
        cosh = np.cosh(2.0 * eta)
        sinh = np.sinh(2.0 * eta) * np.exp(1j * spectrum.theta_at(k))
        return (float(cosh), complex(sinh)) if isinstance(w, float) else (cosh, sinh)

    return weights


def bath_mix(bath: BathSpec, quad: QuadratureConfig) -> tuple:
    """The constant squeeze weights (cosh 2eta, sinh 2eta e^{i theta}) of
    ``bath``, or (None, None) for a squeeze spectrum, which must be
    resolved under the regulator of ``quad``.  A massive bath needs a
    spectrum."""
    if isinstance(bath.squeeze, SqueezeSpectrum):
        bath.squeeze.check_resolution(quad, bath.mass_i)
        return None, None
    if not bath.is_massless:
        raise DomainError(
            "constant-squeeze dynamics is implemented for massless baths; "
            "massive baths require a parametric squeeze spectrum"
        )
    sq = bath.constant_squeeze()
    return sq.cosh2eta, sq.sinh2eta * cmath.exp(1j * sq.theta)
