"""
The free bath field: its squeeze spectrum, its state and its measure.

Every frequency integral of the package sees the bath through the
measure (dw/2pi)(kappa/4pi) coth(b w/2) with its regulator and the
stationary and nonstationary squeeze weights cosh 2eta and sinh 2eta
e^{i theta}: constants (:func:`bath_mix`) or read from a squeeze
spectrum (:meth:`SqueezeSpectrum.eta_at`, :meth:`SqueezeSpectrum.theta_at`).
The measure, its norm ``_MEASURE_NORM`` and its series patch
``_COTH_PATCH`` are defined here once: :func:`_base_row` computes the
measure and a spectrum's weights at one node in ``math`` arithmetic,
the node table set of each response
(:func:`oscillator_dynamics._node_factors`) reads it once per node, and
the oscillator FDR (:func:`energy_fdr.fdr_oscillator`) reads its rows on
the frequency grid.  Their array forms, the array lookup
of a spectrum and the bath's own two-point function, the
coincident-point Hadamard kernel of a massless constant-squeeze bath in
closed form, are oracles in ``tests/oracles.py``.

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

import numpy as np

from .errors import DomainError, ResolutionError
from .gaussian_state import SqueezeParam
# fourier_quad stays importable here for perfbench/tracing.py
from .quadrature import QuadratureConfig, fourier_quad  # noqa: F401

__all__ = [
    "bath_mix",
    "SqueezeSpectrum",
    "BathSpec",
]


def _pchip_pieces(x, y) -> list:
    """The pieces (c0, c1, c2, c3) of the monotone cubic (PCHIP) through
    (x, y), one per interval, as Python floats.

    They are scipy's :class:`~scipy.interpolate.PchipInterpolator`
    coefficients, computed with the same numpy operations
    (:func:`_pchip_slopes`, then the cubic Hermite pieces), so they are
    scipy's bit for bit without importing ``scipy.interpolate``.
    :meth:`SqueezeSpectrum.eta_at` and :meth:`SqueezeSpectrum.theta_at`
    sum a piece in the order of scipy's own evaluation, c3 + c2 s + c1 s^2
    + c0 s^3 with the powers of s built by repeated multiplication, so
    the values are scipy's too.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    d = _pchip_slopes(h, slope, y)
    t = (d[:-1] + d[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1])).T.tolist()


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


def check_k_grid(k) -> np.ndarray:
    """``k`` as a 1-d float array of at least 2 finite, positive and
    strictly ascending wavenumbers, or a :class:`DomainError`."""
    k = np.asarray(k, dtype=float)
    if k.ndim != 1 or k.size < 2:
        raise DomainError("k grid needs a 1-d array of at least 2 points")
    if not (np.all(np.isfinite(k)) and k[0] > 0 and np.all(np.diff(k) > 0)):
        raise DomainError("k grid must be finite, positive and strictly ascending")
    return k


class SqueezeSpectrum:
    """Mode-dependent squeeze parameters eta(k), theta(k) on a k grid.

    Samples are interpolated with monotone cubics (PCHIP); above the last
    grid point the squeeze magnitude extrapolates to zero (high modes are
    barely excited by a finite-energy process), below the first point it
    is held at the first sample.  The angle is interpolated after phase
    unwrapping.  ``eta_at``/``theta_at`` take the float k of a node and
    look it up with one bisect on Python floats.
    Spectra are keyed by identity: :func:`cli.squeeze_spectrum` solves a
    ramp once per process, and its products and sweep points share it.
    """

    def __init__(self, k, eta, theta=None):
        k = check_k_grid(k)
        eta = np.asarray(eta, dtype=float)
        theta = (
            np.zeros_like(k) if theta is None else np.asarray(theta, dtype=float)
        )
        if k.shape != eta.shape or k.shape != theta.shape:
            raise DomainError("k, eta, theta must have matching shapes")
        if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(theta))):
            raise DomainError("spectrum samples must be finite")
        if np.any(eta < 0):
            raise DomainError("eta(k) must be nonnegative")
        self.k = k
        self.eta = eta
        self.theta = theta
        # the lookup's knots and (c0, c1, c2, c3) pieces
        self._xs = k.tolist()
        self._eta_pieces = _pchip_pieces(k, eta)
        self._theta_pieces = _pchip_pieces(k, np.unwrap(theta))

    def eta_at(self, k: float) -> float:
        out = self._piece_at(self._eta_pieces, k)
        return 0.0 if out < 0.0 else out

    def theta_at(self, k: float) -> float:
        return self._piece_at(self._theta_pieces, k)

    def _piece_at(self, pieces: list, k: float) -> float:
        # one bisect over the knots below the last, k held at the first,
        # and the piece summed as scipy sums it
        xs = self._xs
        if k > xs[-1]:
            return 0.0
        k = max(k, xs[0])
        i = bisect_right(xs, k, 0, len(xs) - 1) - 1
        s = k - xs[i]
        c0, c1, c2, c3 = pieces[i]
        z = s * s
        return 0.0 + c3 + c2 * s + c1 * z + c0 * (z * s)

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
        if not (self.mass_i >= 0 and self.mass_f >= 0):
            raise DomainError("field masses must be nonnegative")

    @property
    def is_massless(self) -> bool:
        return self.mass_i == 0.0 and self.mass_f == 0.0

    def constant_squeeze(self) -> SqueezeParam:
        if isinstance(self.squeeze, SqueezeSpectrum):
            raise DomainError("bath carries a squeeze spectrum, not a constant")
        return self.squeeze if self.squeeze is not None else SqueezeParam(0.0, 0.0)


# ---------------------------------------------------------------------------
# the bath as seen by every frequency integral

_MEASURE_NORM = 1.0 / (8.0 * math.pi**2)  # (dw/2pi)(w/4pi) -> w dw / 8 pi^2
_COTH_PATCH = 1e-3  # a massless measure switches to its series below b w = 1e-3


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


def _base_row(bath: BathSpec, epsilon: float):
    """w -> the base row of ``bath`` under the regulator e^{-epsilon w} at
    one Python float node, in ``math``/``cmath`` alone.

    The row holds the measure (1/8 pi^2) kappa coth(b w/2) e^{-epsilon w},
    kappa = sqrt(w^2 - m_i^2), and for a squeeze spectrum cosh 2eta and
    sinh 2eta e^{i theta} read at kappa; a bath with constant weights gets
    the measure alone.  A massive measure is 0 where kappa
    is, below the threshold, and its coth is sgn w at b = inf.  A massless
    measure takes w coth(b w/2) from its series (2/b)(1 + u^2/3 - u^4/45),
    u = b w/2, below b w = _COTH_PATCH, and is w itself at b = inf.  The
    array forms are the oracles of ``tests/oracles.py``; the last bit of
    tanh, exp, cosh and sinh may differ from numpy's."""
    beta, mass_sq = bath.beta, bath.mass_i * bath.mass_i
    half_beta, two_over_beta = 0.5 * beta, 2.0 / beta
    cold, patch = math.isinf(beta), 0.5 * _COTH_PATCH
    spectrum = bath.squeeze if isinstance(bath.squeeze, SqueezeSpectrum) else None

    def row(w):
        if mass_sq:
            kappa = math.sqrt(max(w * w - mass_sq, 0.0))
            m = _MEASURE_NORM * kappa * (1.0 / math.tanh(half_beta * w)) if kappa else 0.0
        else:
            kappa, u = w, half_beta * w
            if cold:
                m = _MEASURE_NORM * w
            elif abs(u) < patch:
                m = _MEASURE_NORM * (two_over_beta * (1.0 + u * u / 3.0 - u**4 / 45.0))
            else:
                m = _MEASURE_NORM * (w / math.tanh(u))
        if epsilon:
            m *= math.exp(-epsilon * w)
        if spectrum is None:
            return (m,)
        two_eta = 2.0 * spectrum.eta_at(kappa)
        return m, math.cosh(two_eta), cmath.rect(math.sinh(two_eta), spectrum.theta_at(kappa))

    return row
