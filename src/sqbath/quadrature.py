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

The adaptive core is QUADPACK: QAGS/QAGI for smooth kernels and QAWO
for the oscillatory shapes.  QAWO evaluates the trigonometric factor by
Chebyshev moments on its subintervals, so integrands oscillating over
~1e5 cycles remain cheap.  A fixed kernel and tolerance always reproduce
the same value bit for bit.  QUADPACK calls a kernel with one Python
float per node; the per-node factors the kernels of a run share are kept
by :mod:`oscillator_dynamics`.

QUADPACK is scipy's compiled ``scipy.integrate._quadpack``, loaded from
its file by :func:`load_scipy_file` and called with the arguments
``scipy.integrate.quad`` passes (:func:`_quad`).  Importing
``scipy.integrate`` itself would also import ``scipy.special``,
``scipy.optimize`` and ``numpy.f2py``, about 0.5 s of every run's
start-up; what remains is the extension's first call, which imports the
``scipy`` package for its ``LowLevelCallable`` check (about 15 ms).
The trade: the load reaches into scipy's private layout, so a scipy
release that moves the file makes ``import sqbath`` fail loudly
(:class:`ImportError`), and one that changes the routines' signatures
or messages fails the tests that compare :func:`plain_quad` and
:func:`fourier_quad` with ``scipy.integrate.quad`` under ``==``.  A
numpy-only quadrature engine (ROADMAP Direction B) would remove this
load altogether.

The module also carries the thermal factors.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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


def load_scipy_file(name: str):
    """The module ``scipy.<name>``, loaded from its own file.

    ``find_spec`` locates the scipy package without running its
    ``__init__``, and only the named file (a compiled extension or a
    ``.py`` file) is executed, so none of the subpackages' ``__init__``
    imports are paid.  A module already in ``sys.modules`` (say, because
    ``scipy.integrate`` was imported) is returned as it is.  Raises
    :class:`ImportError` when the installed scipy has no such file.
    """
    full = f"scipy.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    base = Path(scipy_dir, *name.split("."))
    for suffix in (*importlib.machinery.EXTENSION_SUFFIXES, ".py"):
        path = base.with_name(base.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            f"{full} not found under {base.parent}: sqbath loads this file "
            "of scipy's private layout, which this scipy version has moved"
        )
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_quadpack = load_scipy_file("integrate._quadpack")

# scipy.integrate.quad's texts for the warning codes it returns rather than
# raises (scipy 1.17.1, finite limits or b = inf), verbatim:
# _check_quad_result looks for "roundoff" in them and quotes them
_QUAD_WARNINGS = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
    "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    7: "Abnormal termination of the routine.  The estimates for result\n  "
    "and error are less reliable.  It is assumed that the requested "
    "accuracy\n  has not been achieved.",
}

_KINDS = {"cos": 1, "sin": 2}


def _quad(kernel, a, b, epsabs, epsrel, limit, kind=None, freq=0.0):
    """``scipy.integrate.quad(kernel, a, b, full_output=1, ...)`` for the
    shapes sqbath uses: no weight (QAGS, or QAGI when b = inf) or a cos/sin
    weight on a finite interval (QAWO with ``maxp1 = 100``).

    The routines get the arguments that scipy's ``_quad`` and
    ``_quad_weight`` pass, and the result is post-processed as ``quad``
    does: an empty interval gives zero, reversed limits flip the sign,
    a warning code appends its message and code 6 (invalid input) raises
    :class:`ValueError`.  Returns (value, abserr, info[, message]).
    """
    if a == b:
        return 0.0, 0.0, {}
    flip, a, b = b < a, min(a, b), max(a, b)
    if math.isinf(a):
        raise DomainError("the lower integration limit must be finite")
    if kind is not None:
        out = _quadpack._qawoe(
            kernel, a, b, freq, _KINDS[kind], (), 1, epsabs, epsrel, limit, 100, 1
        )
    elif math.isinf(b):
        out = _quadpack._qagie(kernel, a, 1, (), 1, epsabs, epsrel, limit)
    else:
        out = _quadpack._qagse(kernel, a, b, (), 1, epsabs, epsrel, limit)
    if flip:
        out = (-out[0],) + out[1:]
    ier = out[-1]
    if ier == 0:
        return out[:-1]
    if ier in _QUAD_WARNINGS:
        return out[:-1] + (_QUAD_WARNINGS[ier].format(limit=limit),)
    raise ValueError("The input is invalid." if ier == 6 else "Unknown error.")


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
    out = _quad(kernel, a, b, abs_tol, rel_tol, limit)
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

    out = _quad(kernel, a, b, abs_tol, rel_tol, limit, kind, freq)
    return _check_quad_result(out, abs_tol, rel_tol, what)


def cusp_head(lower: float, freq: float) -> float | None:
    """Head split point for measures with a sqrt cusp at ``lower`` > 0.

    Keeps the plain-rule head short enough that at most ~10 oscillation
    periods of the trigonometric factor fall inside it.
    """
    if lower <= 0.0:
        return None
    return lower + min(2.0, 20.0 * math.pi / max(freq, 10.0 * math.pi))
