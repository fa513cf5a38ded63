"""
Numerical engine: regulated semi-infinite frequency integrals.

Every spectral integral in the package reduces to one of two shapes:

* plain      ``int K(w) dw`` over ``(a, b)`` with ``b`` possibly infinite,
* oscillatory ``int K(w) cos(c w) dw`` / ``int K(w) sin(c w) dw`` over a
  finite ``(a, b)``,

where the caller folds the thermal weight, the squeeze weights and the
exponential regulator into ``K``; the upper limit is the hard cutoff, or
the point where the exponential regulator has decayed to e^{-45}
(:meth:`QuadratureConfig.upper`).

The adaptive core is QUADPACK (through scipy): QAGS/QAGI for smooth
kernels and QAWO for the oscillatory shapes.  QAWO evaluates the
trigonometric factor by Chebyshev moments on its subintervals, so
integrands oscillating over ~1e5 cycles remain cheap.  A fixed kernel
and tolerance always reproduce the same value bit for bit.  QUADPACK
calls a kernel with one Python float per node; the per-node factors the
kernels of a run share are kept by :mod:`oscillator_dynamics`.

The module also carries the thermal factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _sciint

from .errors import ConfigurationError, ConvergenceError, DomainError

__all__ = [
    "QuadratureConfig",
    "fourier_quad",
    "plain_quad",
    "coth_half_beta",
    "omega_coth_half_beta",
]

DEFAULT_REL_TOL = 1e-8
DEFAULT_ABS_TOL = 1e-12


# ---------------------------------------------------------------------------
# configuration objects


@dataclass(frozen=True)
class QuadratureConfig:
    """Regulator and tolerance settings shared by the dynamics integrals.

    Parameters
    ----------
    cutoff:
        Hard frequency cutoff Lambda; ``None`` disables it.
    epsilon:
        Scale of the exponential regulator ``e^{-epsilon w}``; 0 disables it.
    rel_tol, abs_tol:
        Target relative/absolute accuracy of each adaptive integral.
    max_subdivisions:
        Subinterval budget handed to the adaptive routines.
    """

    cutoff: float | None = None
    epsilon: float = 0.0
    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float = DEFAULT_ABS_TOL
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.cutoff is not None and self.cutoff <= 0:
            raise DomainError("hard cutoff must be positive")
        if self.epsilon < 0:
            raise DomainError("exponential regulator scale must be >= 0")
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise DomainError("max_subdivisions unreasonably small")

    @property
    def has_regulator(self) -> bool:
        return self.cutoff is not None or self.epsilon > 0.0

    def require_regulator(self, what: str) -> None:
        """Raise unless a cutoff or an exponential regulator is active."""
        if not self.has_regulator:
            raise ConfigurationError(
                f"{what} is UV divergent: configure a hard cutoff or an "
                "exponential regulator in QuadratureConfig"
            )

    def damping(self, omega):
        """Regulator factor e^{-epsilon w} (1 when epsilon = 0).

        A float w gives a scalar, an array an array.
        """
        scalar = isinstance(omega, float)
        if not scalar:
            omega = np.asarray(omega, dtype=float)
        if self.epsilon == 0.0:
            return 1.0 if scalar else np.ones_like(omega)
        out = np.exp(-self.epsilon * omega)
        return float(out) if scalar else out

    def upper(self, b: float = math.inf) -> float:
        """Effective upper integration limit.

        The hard cutoff truncates directly.  With only an exponential
        regulator the domain is truncated where the damping factor has
        fallen to e^{-45} (~3e-20), which the oscillatory panel rules
        handle far more robustly than a formally infinite tail of zeros.
        """
        if self.cutoff is not None:
            return min(b, self.cutoff)
        if self.epsilon > 0.0:
            return min(b, 45.0 / self.epsilon)
        return b


# ---------------------------------------------------------------------------
# thermal weights

_COTH_PATCH = 1e-3  # switch to the series below beta*w = 1e-3

# The thermal factors are called once per quadrature node with a Python
# float.  A float argument takes float arithmetic and numpy ufuncs on
# scalars (np.tanh, not math.tanh, whose last bit differs on some hosts),
# so it returns bit for bit what a 0-d array would, without the array
# round trip, and as a Python float, whose arithmetic with the complex
# response factors is much cheaper than a numpy scalar's.


def coth_half_beta(omega, beta: float):
    """coth(beta w / 2); the zero-temperature limit beta = inf gives sgn(w)
    (1 at w = 0)."""
    scalar = isinstance(omega, float)
    if not scalar:
        omega = np.asarray(omega, dtype=float)
    if math.isinf(beta):
        if scalar:
            return -1.0 if omega < 0.0 else 1.0
        return np.where(omega < 0.0, -1.0, 1.0)
    out = 1.0 / np.tanh(0.5 * beta * omega)
    return float(out) if scalar else out


def omega_coth_half_beta(omega, beta: float):
    """w * coth(beta w / 2), finite at w = 0.

    For beta*w below 1e-3 the product is evaluated from the Laurent
    expansion w coth(beta w/2) = (2/beta)(1 + u^2/3 - u^4/45 + ...) with
    u = beta w / 2, which avoids the 0/0 of the direct form.
    """
    scalar = isinstance(omega, float)
    if not scalar:
        omega = np.asarray(omega, dtype=float)
    if math.isinf(beta):
        return float(omega) if scalar else omega.copy()
    u = 0.5 * beta * omega
    if scalar:
        if abs(u) < 0.5 * _COTH_PATCH:
            return float(_coth_series(u, beta))
        return float(omega / np.tanh(u))
    small = np.abs(u) < 0.5 * _COTH_PATCH
    safe = np.where(small, 1.0, u)
    return np.where(small, _coth_series(u, beta), omega / np.tanh(safe))


def _coth_series(u, beta: float):
    """(2/beta)(1 + u^2/3 - u^4/45), w coth(beta w/2) near w = 0."""
    return (2.0 / beta) * (1.0 + u * u / 3.0 - np.power(u, 4) / 45.0)


# ---------------------------------------------------------------------------
# QUADPACK wrappers

def _check_quad_result(out, epsabs, epsrel, what):
    value, abserr = out[0], out[1]
    if len(out) > 3:  # warning message present
        tolerated = max(epsabs, epsrel * abs(value))
        message = str(out[3])
        # Roundoff-limited results (C^1 kernels from monotone-cubic
        # spectra stall slightly above a 1e-8 target) still carry honest
        # error estimates; keep them unless the estimate says the value
        # has lost real accuracy.  Anything else failing the target by
        # a wide margin is a genuine nonconvergence.
        roundoff = "roundoff" in message
        limit = (
            max(1e-3 * abs(value), 1e6 * tolerated)
            if roundoff
            else 50.0 * tolerated
        )
        if abserr > limit:
            raise ConvergenceError(
                f"quadrature did not converge for {what}: {message}",
                partial_value=value,
                diagnostics={"abserr": abserr, "message": message},
            )
    return float(value), float(abserr)


def plain_quad(
    kernel,
    a: float,
    b: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    limit: int = 2000,
    what: str = "integral",
) -> tuple[float, float]:
    """Adaptive integral of a smooth kernel over (a, b), b possibly inf."""
    out = _sciint.quad(
        kernel, a, b, epsabs=abs_tol, epsrel=rel_tol, limit=limit, full_output=1
    )
    return _check_quad_result(out, abs_tol, rel_tol, what)


def fourier_quad(
    kernel,
    freq: float,
    kind: str,
    a: float,
    b: float,
    *,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    limit: int = 2000,
    head: float | None = None,
    what: str = "oscillatory integral",
) -> tuple[float, float]:
    """``int_a^b kernel(w) {cos,sin}(freq w) dw`` with panel rules, b finite
    and ``freq`` >= 0.  The cosine at ``freq = 0`` falls back to the plain
    rule.

    ``head`` marks an integrable singularity (e.g. the sqrt cusp of a
    mass-threshold measure) at the lower end: [a, head] is then handled
    by the endpoint-extrapolating plain rule with the trigonometric
    factor folded in, and the panel rule starts only at ``head``.
    """
    if kind not in ("cos", "sin"):
        raise DomainError(f"oscillation kind must be cos or sin, got {kind!r}")
    if math.isinf(b):
        raise DomainError(
            "fourier_quad needs a finite upper limit: truncate at the cutoff "
            "or where the regulator has decayed (QuadratureConfig.upper)"
        )
    if freq == 0.0 and kind == "cos":
        return plain_quad(
            kernel, a, b, rel_tol=rel_tol, abs_tol=abs_tol, limit=limit,
            what="plain integral (frequency 0)",
        )

    if head is not None and head > a:
        split = min(head, b)
        osc = np.cos if kind == "cos" else np.sin
        head_val, head_err = plain_quad(
            lambda w, _f=freq: kernel(w) * osc(_f * w),
            a,
            split,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            limit=limit,
            what=f"{what} (singular head)",
        )
        if split >= b:
            return head_val, head_err
        tail_val, tail_err = fourier_quad(
            kernel, freq, kind, split, b,
            rel_tol=rel_tol, abs_tol=abs_tol, limit=limit, what=what,
        )
        return head_val + tail_val, head_err + tail_err

    out = _sciint.quad(
        kernel, a, b, weight=kind, wvar=freq,
        epsabs=abs_tol, epsrel=rel_tol, limit=limit, maxp1=100,
        full_output=1,
    )
    return _check_quad_result(out, abs_tol, rel_tol, what)


def cusp_head(lower: float, freq: float) -> float | None:
    """Head split point for measures with a sqrt cusp at ``lower`` > 0.

    Keeps the plain-rule head short enough that at most ~10 oscillation
    periods of the trigonometric factor fall inside it.
    """
    if lower <= 0.0:
        return None
    return lower + min(2.0, 20.0 * math.pi / max(freq, 10.0 * math.pi))
