"""
Numerical engine: regulated semi-infinite frequency integrals.

Every spectral integral in the package reduces to one of two shapes
over a finite ``(a, b)``:

* plain      ``int K(w) dw``,
* oscillatory ``int K(w) cos(c w) dw`` / ``int K(w) sin(c w) dw``,

where the caller folds the thermal weight, the squeeze weights and the
exponential regulator into ``K``; the upper limit is the hard cutoff, or
the point where the exponential regulator has decayed to e^{-45}
(:meth:`QuadratureConfig.upper`).

The adaptive core is QUADPACK: QAGS for smooth kernels and QAWO for
the oscillatory shapes.  QAWO evaluates the trigonometric factor by
Chebyshev moments on its subintervals, so integrands oscillating over
~1e5 cycles remain cheap.  The tolerances and the subdivision budget
live only in :class:`QuadratureConfig`, which every wrapper takes; a
fixed kernel and config always reproduce the same value bit for bit.
QUADPACK calls a kernel with one Python float per node; the per-node
factors the kernels of a run share are computed in ``math`` arithmetic
and kept by :mod:`oscillator_dynamics`.

QUADPACK is scipy's compiled ``scipy.integrate._quadpack``, loaded from
its file by :func:`load_scipy_file` and called with the arguments
``scipy.integrate.quad`` passes (:func:`_quad`); each result is judged
by QUADPACK's return code ``ier`` (:func:`_check_quad_result`).  Importing
``scipy.integrate`` itself would also import ``scipy.special``,
``scipy.optimize`` and ``numpy.f2py``, about 0.5 s of every run's
start-up; what remains is the extension's first call, which imports the
``scipy`` package for its ``LowLevelCallable`` check (about 15 ms).
The trade: the load reaches into scipy's private layout, so a scipy
release that moves the file makes ``import sqbath`` fail loudly
(:class:`ImportError`), and one that changes the routines' signatures
fails the tests that compare :func:`plain_quad` and
:func:`fourier_quad` with ``scipy.integrate.quad`` under ``==``.  A
numpy-only quadrature engine (ROADMAP Direction B) would remove this
load altogether.  The thermal measure these integrals weigh by is the
bath's, defined in :mod:`bath_kernels`.
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
]


# ---------------------------------------------------------------------------
# configuration objects


@dataclass(frozen=True)
class QuadratureConfig:
    """Regulator and tolerance settings shared by the dynamics integrals;
    the one home of the tolerances, which the QUADPACK wrappers read here.

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
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.cutoff is not None and not self.cutoff > 0:
            raise DomainError("hard cutoff must be positive")
        if not self.epsilon >= 0:
            raise DomainError("exponential regulator scale must be >= 0")
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("tolerances must be positive")
        if not self.max_subdivisions >= 10:
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

    def upper(self) -> float:
        """Effective upper integration limit (inf without a regulator).

        The hard cutoff truncates directly.  With only an exponential
        regulator the domain is truncated where the damping factor has
        fallen to e^{-45} (~3e-20), which the oscillatory panel rules
        handle far more robustly than a formally infinite tail of zeros.
        """
        if self.cutoff is not None:
            return self.cutoff
        if self.epsilon > 0.0:
            return 45.0 / self.epsilon
        return math.inf


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

# QUADPACK's return codes ier for a result it could not bring to the
# requested tolerance (Piessens et al., QUADPACK, 1983); 0 is success and
# 6, the only other code, flags invalid input
_IER = {
    1: "subdivision limit reached",
    2: "roundoff error detected",
    3: "extremely bad integrand behaviour",
    4: "no convergence: roundoff in the extrapolation table",
    5: "integral probably divergent",
    7: "abnormal termination",
}

_KINDS = {"cos": 1, "sin": 2}


def _quad(kernel, a, b, quad, kind=None, freq=0.0):
    """QUADPACK over the finite interval a < b at ``quad``'s tolerances:
    QAGS for no weight, QAWO (``maxp1 = 100``) for a cos/sin weight, called
    with the arguments ``scipy.integrate.quad(..., full_output=0)`` passes.
    Returns (value, abserr, ier)."""
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(
            f"quadrature needs finite limits a < b, got [{a}, {b}]: truncate "
            "at the cutoff or where the regulator has decayed "
            "(QuadratureConfig.upper)"
        )
    tol = (quad.abs_tol, quad.rel_tol, quad.max_subdivisions)
    if kind is None:
        return _quadpack._qagse(kernel, a, b, (), 0, *tol)
    return _quadpack._qawoe(kernel, a, b, freq, _KINDS[kind], (), 0, *tol, 100, 1)


def _check_quad_result(value, abserr, ier, quad, what):
    """(value, abserr) of a QUADPACK result judged by its return code.

    ier 0 is accepted.  Roundoff-limited results (ier 2: C^1 kernels from
    monotone-cubic spectra stall slightly above a 1e-8 target) still carry
    honest error estimates; they are kept unless the estimate says the
    value has lost real accuracy.  Any other warning code failing the
    target by a wide margin is a genuine nonconvergence.  A non-finite
    value or estimate, whatever the code, means the integrand overflowed
    and is refused as such; ier 6 (invalid input) raises
    :class:`DomainError`.
    """
    if ier != 0 and ier not in _IER:
        raise DomainError(f"QUADPACK rejected the input of {what} (ier {ier})")
    accepted = finite = math.isfinite(value) and math.isfinite(abserr)
    if accepted and ier != 0:
        tolerated = max(quad.abs_tol, quad.rel_tol * abs(value))
        if ier == 2:
            accepted = abserr <= max(1e-3 * abs(value), 1e6 * tolerated)
        else:
            accepted = abserr <= 50.0 * tolerated
    if not accepted:
        meaning = _IER.get(ier, "no warning")
        problem = (f"quadrature did not converge for {what}: ier {ier} ({meaning})"
                   if finite else f"{what} is not finite (the integrand overflowed)")
        raise ConvergenceError(
            f"{problem}, value {value:.6g}, abserr {abserr:.3g}",
            partial_value=value,
            diagnostics={"abserr": abserr, "ier": ier, "message": meaning},
        )
    return float(value), float(abserr)


def plain_quad(
    kernel, a: float, b: float, quad: QuadratureConfig, what: str = "integral"
) -> tuple[float, float]:
    """Adaptive integral of a smooth kernel over the finite (a, b), a < b,
    at ``quad``'s tolerances."""
    return _check_quad_result(*_quad(kernel, a, b, quad), quad, what)


def fourier_quad(
    kernel, freq: float, kind: str, a: float, b: float, quad: QuadratureConfig,
    head: float | None = None, what: str = "oscillatory integral",
) -> tuple[float, float]:
    """``int_a^b kernel(w) {cos,sin}(freq w) dw`` with panel rules, a < b
    finite and ``freq`` >= 0, at ``quad``'s tolerances.  The cosine at
    ``freq = 0`` falls back to the plain rule.

    ``head`` marks an integrable singularity (e.g. the sqrt cusp of a
    mass-threshold measure) at the lower end: [a, head] is then handled
    by the endpoint-extrapolating plain rule with the trigonometric
    factor folded in, and the panel rule starts only at ``head``.
    """
    if kind not in _KINDS:
        raise DomainError(f"oscillation kind must be cos or sin, got {kind!r}")
    if freq == 0.0 and kind == "cos":
        return plain_quad(kernel, a, b, quad, what="plain integral (frequency 0)")

    if head is not None and head > a:
        split = min(head, b)
        osc = np.cos if kind == "cos" else np.sin
        head_val, head_err = plain_quad(
            lambda w, _f=freq: kernel(w) * osc(_f * w), a, split, quad,
            what=f"{what} (singular head)",
        )
        if split >= b:
            return head_val, head_err
        tail_val, tail_err = fourier_quad(kernel, freq, kind, split, b, quad, what=what)
        return head_val + tail_val, head_err + tail_err

    return _check_quad_result(*_quad(kernel, a, b, quad, kind, freq), quad, what)


def cusp_head(lower: float, freq: float) -> float | None:
    """Head split point for measures with a sqrt cusp at ``lower`` > 0.

    Keeps the plain-rule head short enough that at most ~10 oscillation
    periods of the trigonometric factor fall inside it.
    """
    if lower <= 0.0:
        return None
    return lower + min(2.0, 20.0 * math.pi / max(freq, 10.0 * math.pi))
