"""
Gaussian oscillator states.

The squeeze parameter, the Bogoliubov pair a field mode leaves behind,
the oscillator covariance matrix, and its inversion to (thermal factor,
squeeze parameter) used to track finite-coupling squeezing.

Conventions (hbar = 1 throughout): the squeeze parameter is written in
polar form zeta = eta e^{i theta}; a squeeze with magnitude eta amplifies
covariances by cosh 2eta, and a Bogoliubov pair (alpha, beta) carries
eta = arcsinh |beta| and theta = arg(-alpha beta*).
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import DomainError, InvalidStateError

__all__ = [
    "SqueezeParam",
    "BogoliubovPair",
    "CovarianceState",
    "StateDecomposition",
    "extract_squeeze",
]

TWO_PI = 2.0 * math.pi

_UNCERTAINTY_TOL = 1e-9
_ETA_MAX = 0.5 * math.acosh(sys.float_info.max)  # cosh 2eta overflows above it


@dataclass(frozen=True)
class SqueezeParam:
    """Polar squeeze parameter zeta = eta e^{i theta}.

    eta is the dimensionless magnitude, at most _ETA_MAX so that cosh 2eta
    is a finite float; theta is normalized into [0, 2pi).
    """

    eta: float
    theta: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= _ETA_MAX:
            raise DomainError(
                f"squeeze magnitude must be in [0, {_ETA_MAX:.6g}], where cosh 2eta "
                f"is a finite float, got {self.eta}"
            )
        if not math.isfinite(self.theta):
            raise DomainError(f"squeeze angle must be finite, got {self.theta}")
        object.__setattr__(self, "theta", self.theta % TWO_PI)

    @property
    def cosh2eta(self) -> float:
        return math.cosh(2.0 * self.eta)

    @property
    def sinh2eta(self) -> float:
        return math.sinh(2.0 * self.eta)


@dataclass(frozen=True)
class BogoliubovPair:
    """Coefficients of a Bogoliubov transformation, |alpha|^2 - |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def wronskian_defect(self) -> float:
        return abs(abs(self.alpha) ** 2 - abs(self.beta) ** 2 - 1.0)

    def validate(self, tol: float = 1e-8) -> "BogoliubovPair":
        if not self.wronskian_defect() <= tol:
            raise DomainError(
                f"|alpha|^2 - |beta|^2 = 1 violated by {self.wronskian_defect():.3e}"
            )
        return self

    @property
    def eta(self) -> float:
        """Squeeze magnitude, arcsinh |beta|."""
        return math.asinh(abs(self.beta))

    @property
    def theta(self) -> float:
        """Squeeze angle from the invariant combination arg(-alpha beta*)."""
        if abs(self.beta) == 0.0:
            return 0.0
        return cmath.phase(-self.alpha * self.beta.conjugate()) % TWO_PI


@dataclass(frozen=True)
class CovarianceState:
    """Second moments (<chi^2>, <p^2>, (1/2)<{chi,p}>) of the oscillator."""

    xx: float
    pp: float
    xp: float = 0.0

    def __post_init__(self):
        if not (self.xx >= 0 and self.pp >= 0):
            raise InvalidStateError("diagonal covariances must be nonnegative")
        if math.isnan(self.xp):
            raise InvalidStateError("the covariance xp must be a number")
        # xx pp - xp^2 overflows once the elements pass about 1e154, to nan
        # when both products do; that state passes here, and extract_squeeze
        # checks its determinant scaled, against rounding and the bound
        if self.uncertainty < 0.25 - _UNCERTAINTY_TOL:
            raise InvalidStateError(
                f"Robertson-Schrodinger bound violated: xx*pp - xp^2 = "
                f"{self.uncertainty:.12g} < 1/4"
            )

    @property
    def uncertainty(self) -> float:
        """xx*pp - xp^2, bounded below by 1/4."""
        return self.xx * self.pp - self.xp * self.xp


@dataclass(frozen=True)
class StateDecomposition:
    """Thermal factor Xi = coth(vartheta/2) >= 1 plus a squeeze parameter.

    ``theta_degenerate`` marks the eta = 0 case where the angle is
    undefined and reported as 0 so downstream trajectories stay continuous.
    """

    xi: float
    squeeze: SqueezeParam
    theta_degenerate: bool = False

    def __post_init__(self):
        if not self.xi >= 1.0 - 1e-12:
            raise DomainError(f"thermal factor must satisfy Xi >= 1, got {self.xi}")


_ETA_DEGENERACY = 1e-12


def extract_squeeze(
    cov: CovarianceState, m: float, omega_r: float
) -> StateDecomposition:
    """Invert the covariance parametrization to (Xi, eta, theta).

    Xi = 2 sqrt(xx pp - xp^2); cosh 2eta, sinh 2eta cos theta and
    sinh 2eta sin theta are read off the three elements.  At eta = 0 the
    angle is undefined; theta = 0 is returned with the degeneracy flag
    set.  The forward map xx = Xi [cosh 2eta - sinh 2eta cos theta] /
    (2 m omega_r), pp = (m omega_r / 2) Xi [cosh 2eta + sinh 2eta cos theta],
    xp = -(1/2) Xi sinh 2eta sin theta round-trips to better than 1e-8.
    A determinant xx pp - xp^2 of at most 2^-51 of xx pp + xp^2 is lost to
    rounding and refused, as is one below the uncertainty bound.
    """
    if not (m > 0 and omega_r > 0):
        raise DomainError("mass and frequency must be positive")
    # xx pp - xp^2 of the elements scaled by 2^-e, with 2^e near
    # sqrt(xx pp), cannot overflow; a power of two changes no bit of Xi
    e = (math.frexp(cov.xx)[1] + math.frexp(cov.pp)[1]) // 2
    xx, pp, xp = (math.ldexp(x, -e) for x in (cov.xx, cov.pp, cov.xp))
    det = xx * pp - xp * xp
    # each product rounds by up to 2^-53 of itself, so no bit of a
    # determinant of at most 2^-51 of their sum can be trusted
    products = xx * pp + xp * xp
    if not det > math.ldexp(products, -51):
        raise InvalidStateError(
            f"covariance determinant lost to cancellation: xx pp - xp^2 = "
            f"{det:.6g} against xx pp + xp^2 = {products:.6g}, elements "
            f"scaled by 2^{-e}"
        )
    if det < math.ldexp(0.25 - _UNCERTAINTY_TOL, -2 * e):
        raise InvalidStateError("covariance violates the uncertainty bound")
    u = 2.0 * m * omega_r * cov.xx          # Xi (cosh - sinh cos)
    v = 2.0 * cov.pp / (m * omega_r)        # Xi (cosh + sinh cos)
    w = -2.0 * cov.xp                       # Xi sinh sin
    # the uncertainty bound already guarantees Xi >= 1 - 2e-9; anything
    # below 1 here is determinant-cancellation round-off
    xi = max(math.ldexp(2.0 * math.sqrt(det), e), 1.0)
    cosh2eta = 0.5 * (u + v) / xi
    sinh_cos = 0.5 * (v - u) / xi
    sinh_sin = w / xi
    sinh2eta = math.hypot(sinh_cos, sinh_sin)
    eta = 0.5 * math.asinh(sinh2eta)
    if sinh2eta < _ETA_DEGENERACY * max(1.0, cosh2eta):
        return StateDecomposition(
            xi=xi, squeeze=SqueezeParam(eta=0.0, theta=0.0), theta_degenerate=True
        )
    theta = math.atan2(sinh_sin, sinh_cos) % TWO_PI
    return StateDecomposition(xi=xi, squeeze=SqueezeParam(eta=eta, theta=theta))
