"""
Internal dynamics of the detector oscillator.

The covariance-matrix evolution driven by squeezed-thermal or parametric
baths, the stationary / nonstationary split of the displacement
dispersion, and the two-time Hadamard function of the displacement
operator.

All spectral integrals are evaluated in closed form in the frequency
domain.  The response enters only through

    f(t; w) = d2~(w) [e^{-iwt} - d1(t) + i w d2(t)],
    d2~(w)  = 1 / (w_r^2 - w^2 - 2 i gamma w),

and every detector quantity is a bilinear form in two responses u, v of
the shape d2~(w)^n [P(w) e^{-iws} + Q(w)] with P, Q linear in w: f(t),
its derivative f'(t) and the plane wave e^{-iwt}.  The form splits into
the parts the fluctuation-dissipation argument rests on,

    stationary    =  int dmu cosh 2eta 2 Re[u v*],
    nonstationary = -int dmu 2 Re[sinh 2eta e^{i theta} u v],

with the bath measure dmu and weights of :mod:`bath_kernels`, read per
quadrature node from the one table set of each response
(:func:`_node_factors`), which builds a node's row from
:func:`bath_kernels._base_row` in ``math``/``cmath`` arithmetic on the
node as a Python float.  Under constant weights the response factors
are (re, im) float pairs and the kernels write the complex product out
in floats.
One expander multiplies out either product and groups its phases
e^{-iw tau} by |tau| into cos and sin Fourier integrals with smooth
kernels: (f, f), (f', f') and (f, f') give xx, pp and xp, (f(t), f(t'))
the two-time Hadamard function and (f', e^{-iwt}) the injected power;
every form carries at least one response.  :func:`_integral`, the one
driver, turns a term into a quadrature call, memoized on the term, so a
term that recurs at another time, pair or product of a run is
integrated once.  f, f' and d2~ as functions of w, the double
time-integral form and the bath's own Hadamard kernel in closed form
(Hurwitz zeta) live with the tests as oracles.  Fourier convention:
g~(w) = int dt g(t) e^{+iwt}.

For a massive (parametric) bath the equation of motion acquires a Bessel
memory term; for field masses small against the resonance it reduces to a
local equation with shifted decay rate Upsilon and frequency varpi, the
roots of z^2 + w_r^2 - 2 gamma sqrt(z^2 + m_f^2) = 0 continued from the
massless damped pair.  :func:`massive_roots` returns them as the same
response type as the massless (gamma, Omega), which it reproduces at
m_f = 0.  The full nonlocal convolution is out of scope.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bath_kernels import BathSpec, SqueezeSpectrum, _base_row, bath_mix
from .errors import (
    ConvergenceError,
    DomainError,
    UnsupportedRegimeError,
)
from .gaussian_state import CovarianceState
from .quadrature import QuadratureConfig, cusp_head, fourier_quad

__all__ = [
    "KernelValue",
    "OscillatorSpec",
    "massive_roots",
    "covariance_evolution",
    "covariance_integral_parts",
    "ns_st_split",
    "chi_hadamard",
    "chi_hadamard_components",
    "effective_response",
]


@dataclass(frozen=True)
class KernelValue:
    """Stationary / nonstationary split of a two-point function."""

    stationary: float
    nonstationary: float


@dataclass(frozen=True)
class OscillatorSpec:
    """Detector oscillator: mass, physical frequency, damping constant.

    gamma = e^2 / (8 pi m) encodes the field coupling e.  Only the
    underdamped regime omega_r > gamma is supported, so the resonance
    frequency Omega = sqrt(omega_r^2 - gamma^2) is real.
    """

    m: float
    omega_r: float
    gamma: float = 0.0

    def __post_init__(self):
        if not self.m > 0:
            raise DomainError("oscillator mass must be positive")
        if not self.omega_r > 0:
            raise DomainError("physical frequency must be positive")
        if not self.gamma >= 0:
            raise DomainError("damping constant must be nonnegative")
        if self.gamma >= self.omega_r:
            raise UnsupportedRegimeError(
                f"overdamped oscillator (gamma = {self.gamma} >= omega_r = "
                f"{self.omega_r}) is not supported"
            )

    @property
    def Omega(self) -> float:
        """Resonance frequency sqrt(omega_r^2 - gamma^2)."""
        return math.sqrt(self.omega_r**2 - self.gamma**2)

    @property
    def e_sq(self) -> float:
        """Squared field coupling e^2 = 8 pi gamma m."""
        return 8.0 * math.pi * self.gamma * self.m

    @classmethod
    def from_resonance(cls, m: float, Omega: float, gamma: float) -> "OscillatorSpec":
        """Build a spec from the resonance frequency instead of omega_r."""
        return cls(m=m, omega_r=math.hypot(Omega, gamma), gamma=gamma)


class _Response(NamedTuple):
    """Decay rate and oscillation frequency of the local d1, d2 pair."""

    gamma: float
    Omega: float

    @property
    def omega_sq(self) -> float:
        return self.gamma**2 + self.Omega**2


def _fundamental(resp: _Response, t):
    """d1, d2, d1', d2' at the times t, refused below t = 0."""
    g, om = resp.gamma, resp.Omega
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise DomainError("the response is defined for t >= 0")
    env = np.exp(-g * t)
    s, c = np.sin(om * t), np.cos(om * t)
    d1 = env * (c + (g / om) * s)
    d2 = env * s / om
    d1_dot = -env * (resp.omega_sq / om) * s
    d2_dot = env * (c - (g / om) * s)
    return d1, d2, d1_dot, d2_dot


def massive_roots(gamma: float, Omega: float, mass_f: float) -> _Response:
    """Local response of the detector in a bath of field mass ``mass_f``.

    Solves z^2 + (Omega^2 + gamma^2) - 2 gamma sqrt(z^2 + mass_f^2) = 0 by
    Newton iteration from the massless root -gamma + i Omega and returns
    the decay rate Upsilon = -Re z and the frequency varpi = |Im z| of the
    memory-dressed pair; at mass_f = 0 that is (gamma, Omega) itself.  The
    square-root branch is the analytic continuation that reproduces the
    massless damped pair, which fixes the sign ambiguity in the
    closed-form radical.  Requires mass_f < Omega; at or beyond the
    resonance the continuation is ambiguous.
    """
    if not Omega > 0:
        raise DomainError("Omega must be positive")
    if not gamma >= 0:
        raise DomainError("gamma must be nonnegative")
    if not mass_f >= 0:
        raise DomainError("mass_f must be nonnegative")
    if mass_f >= Omega:
        raise UnsupportedRegimeError(
            f"mass_f = {mass_f} >= Omega = {Omega}: small-mass local "
            "reduction is not valid"
        )

    omega_r_sq = Omega * Omega + gamma * gamma
    z = complex(-gamma, Omega)
    if mass_f > 0.0 and gamma > 0.0:
        msq = mass_f * mass_f
        for _ in range(60):
            s = cmath.sqrt(z * z + msq)
            f = z * z + omega_r_sq - 2.0 * gamma * s
            df = 2.0 * z - 2.0 * gamma * z / s
            step = f / df
            z = z - step
            if abs(step) < 1e-15 * max(1.0, abs(z)):
                break
        else:
            raise ConvergenceError(
                "massive-root Newton iteration did not converge",
                partial_value=z,
            )
        residual = abs(z * z + omega_r_sq - 2.0 * gamma * cmath.sqrt(z * z + msq))
        if residual > 1e-10 * omega_r_sq:
            raise ConvergenceError(
                f"massive root residual {residual:.3e} too large", partial_value=z
            )
    resp = _Response(-z.real, abs(z.imag))
    if resp.gamma < 0 or resp.Omega <= 0:
        raise UnsupportedRegimeError(
            "massive-bath root must decay (Upsilon >= 0) and oscillate "
            "(varpi > 0)"
        )
    return resp


def effective_response(spec: OscillatorSpec, bath: BathSpec) -> _Response:
    """Local response (decay rate, oscillation frequency) of the detector.

    The massless pair (gamma, Omega) for a massless bath, the
    memory-dressed (Upsilon, varpi) for a massive one.  The decay rate is
    also the damping rate Gamma of the dissipated power -2 m Gamma <chi'^2>.
    """
    return massive_roots(spec.gamma, spec.Omega, bath.mass_f)


# ---------------------------------------------------------------------------
# bilinear forms in the response


class _Factor(NamedTuple):
    """One response u(w) = d2~(w)^n [P(w) e^{-iws} + Q(w)] of a bilinear form.

    P = p[0] + p[1] w and Q = q[0] + q[1] w.
    """

    n: int
    s: float
    p: tuple
    q: tuple


def _f_factor(resp: _Response, t: float) -> _Factor:
    """f(t; w): P = 1, Q = -d1(t) + i w d2(t)."""
    d1, d2, _, _ = _fundamental(resp, t)
    return _Factor(1, float(t), (1.0, 0.0), (-float(d1), 1j * float(d2)))


def _fdot_factor(resp: _Response, t: float) -> _Factor:
    """f'(t; w): P = -i w, Q = -d1'(t) + i w d2'(t)."""
    _, _, d1_dot, d2_dot = _fundamental(resp, t)
    return _Factor(1, float(t), (0.0, -1j), (-float(d1_dot), 1j * float(d2_dot)))


def _wave(t: float) -> _Factor:
    """The plane wave e^{-iwt}."""
    return _Factor(0, float(t), (1.0, 0.0), (0.0, 0.0))


def _times(a, b, scale):
    """Coefficients of scale (a[0] + a[1] w)(b[0] + b[1] w) in powers of w."""
    return (
        scale * a[0] * b[0],
        scale * (a[0] * b[1] + a[1] * b[0]),
        scale * a[1] * b[1],
    )


_MEMO_NODES = 1 << 15  # float nodes kept per table set


class NodeTable(dict):
    """One per-node factor of the kernels, keyed by the float node w.

    ``table[w]`` is one C-level dict lookup.  A node that is not in the
    table calls ``fill(w)`` (through ``__missing__``), which computes the
    node's row of every table of its set (:func:`_node_factors`), stores
    it while the tables hold fewer than _MEMO_NODES nodes, and returns
    it; the table's own value is at ``index``.  So every lookup of a node
    returns the bits of one evaluation.
    """

    __slots__ = ("fill", "index")

    def __missing__(self, w):
        return self.fill(w)[self.index]


@functools.lru_cache(maxsize=8)
def _node_factors(bath: BathSpec, quad: QuadratureConfig, resp: _Response) -> tuple:
    """One NodeTable per factor of the integrals of ``resp`` over the
    measure of ``bath`` under the regulator of ``quad``, for the 8 most
    recent (bath, quad, resp): the measure of :func:`bath_kernels._base_row`
    times d2~, d2~^2 and |d2~|^2, then for a squeeze spectrum cosh 2eta
    and sinh 2eta e^{i theta}.  A node's first lookup in any table
    evaluates its base row and the response once and stores the row in
    all; each response reads the bath anew, so a gamma sweep evaluates a
    spectrum's weights once per gamma.

    Under constant weights the set stores each factor as a float pair
    (re, im), a real one as (x, 0.0), for the pair kernels of
    :func:`_kernel`; a squeeze spectrum's set keeps floats and complex
    numbers."""
    spectral = isinstance(bath.squeeze, SqueezeSpectrum)
    base, gamma, omega_sq = _base_row(bath, quad.epsilon), resp.gamma, resp.omega_sq
    tables = tuple(NodeTable() for _ in range(5 if spectral else 3))
    # one unpacking reads the base row and one stores the node's row:
    # this runs once per node
    if spectral:
        first, second, third, fourth, fifth = tables

        def fill(w):
            m, cosh, sinh = base(w)
            d = 1.0 / (omega_sq - w * w - 2j * gamma * w)
            row = m * d, m * (d * d), m * (d * d.conjugate()).real, cosh, sinh
            if len(first) < _MEMO_NODES:
                first[w], second[w], third[w], fourth[w], fifth[w] = row
            return row
    else:
        first, second, third = tables

        def fill(w):
            (m,) = base(w)
            d = 1.0 / (omega_sq - w * w - 2j * gamma * w)
            md, mdd = m * d, m * (d * d)
            row = (md.real, md.imag), (mdd.real, mdd.imag), (m * (d * d.conjugate()).real, 0.0)
            if len(first) < _MEMO_NODES:
                first[w], second[w], third[w] = row
            return row

    for i, table in enumerate(tables):
        table.fill, table.index = fill, i
    return tables


def _kernel(scaled, weight, coeffs, part: str):
    """w -> part of (scaled[w] (c0 + c1 w + c2 w^2)) weight[w].

    ``scaled`` holds the measure times a d2~ power and ``weight`` (or
    None) the squeeze weight, both NodeTables, so a call makes one C-level
    lookup per factor and computes only its own polynomial; the
    multiplication order is fixed, so the bits are too.  A constant
    weight is already in the coefficients, and ``scaled`` then holds
    (re, im) pairs: the kernel is CPython's complex product written out
    in floats, equal to the complex one up to the sign of an exact zero."""
    c0, c1, c2 = coeffs
    if weight is None:
        c0r, c1r, c2r = c0.real, c1.real, c2.real
        c0i, c1i, c2i = c0.imag, c1.imag, c2.imag
        if part == "real":
            def kernel(w):
                sr, si = scaled[w]
                return sr * (c0r + w * (c1r + w * c2r)) - si * (c0i + w * (c1i + w * c2i))
        else:
            def kernel(w):
                sr, si = scaled[w]
                return sr * (c0i + w * (c1i + w * c2i)) + si * (c0r + w * (c1r + w * c2r))
        return kernel
    if part == "real":
        return lambda w: (scaled[w] * (c0 + w * (c1 + w * c2)) * weight[w]).real
    return lambda w: (scaled[w] * (c0 + w * (c1 + w * c2)) * weight[w]).imag


def _fourier_terms(u: _Factor, v: _Factor, stationary: bool, weight) -> list:
    """Fourier terms (coeffs, part, freq, kind) of one part of the bilinear
    form of u and v.

    The stationary part is int dmu cosh 2eta 2 Re[u v*], the
    nonstationary part -int dmu 2 Re[sinh 2eta e^{i theta} u v].
    ``weight`` is the part's constant squeeze weight, folded into the
    coefficients, or None for the weights of a squeeze spectrum.
    The four products of P and Q carry phases e^{-iw tau}; the phases of
    one |tau| share a cos kernel Re[F p+] and a sin kernel Im[F p-], where
    F is the measure, weight and d2~ factor, p+ sums the polynomials and
    p- sums them with the sign of tau.  A kernel
    that vanishes identically is dropped: the sin kernel at tau = 0, any
    part that a real F (u v* with equal d2~ powers under the real cosh
    weight) takes from a purely real or purely imaginary polynomial, and
    every kernel of a part whose constant weight is zero (the
    nonstationary part of an unsqueezed bath).
    """
    if stationary:
        scale = 2.0
        vp = tuple(c.conjugate() for c in v.p)
        vq = tuple(c.conjugate() for c in v.q)
        vs = -v.s
    else:
        scale = -2.0
        vp, vq, vs = v.p, v.q, v.s
    if weight is not None:
        scale *= weight

    groups: dict[float, tuple] = {}
    products = ((u.s + vs, u.p, vp), (u.s, u.p, vq), (vs, u.q, vp), (0.0, u.q, vq))
    for tau, a, b in products:
        poly = _times(a, b, scale)
        if any(poly):
            sign = (tau > 0) - (tau < 0)
            plus, minus = groups.get(abs(tau), ((0.0,) * 3, (0.0,) * 3))
            groups[abs(tau)] = (
                tuple(x + y for x, y in zip(plus, poly)),
                tuple(x + sign * y for x, y in zip(minus, poly)),
            )

    real_f = stationary and u.n == v.n
    terms = []
    for freq, polys in groups.items():
        for poly, part, kind in zip(polys, ("real", "imag"), ("cos", "sin")):
            if any(getattr(c, part) for c in poly) if real_f else any(poly):
                terms.append((poly, part, freq, kind))
    return terms


def _bilinear(
    resp: _Response, bath: BathSpec, u: _Factor, v: _Factor,
    quad: QuadratureConfig, weights: tuple | None = None,
) -> tuple[float, float]:
    """(stationary, nonstationary) parts of the bilinear form of u and v.

    At least one factor carries the d2~ of ``resp``.  ``weights`` are
    constant squeeze weights (cosh 2eta, sinh 2eta e^{i theta}) for
    the measure of ``bath``; None takes the bath's own.  Both parts are
    symmetric in u and v, so the factor with more d2~ powers goes first.
    Each part adds its terms left to right, each one :func:`_integral`,
    memoized by value: a constant weight is in the coefficients and the
    bath is reduced to its measure, so the stationary part is integrated
    once for every squeeze angle.
    """
    if weights is None:
        weights = bath_mix(bath, quad)  # checks the bath
    if v.n > u.n:
        u, v = v, u
    if weights[0] is not None:  # constant squeeze: a massless bath
        bath = BathSpec(bath.beta)
    parts = []
    for stationary, weight in zip((True, False), weights):
        # the measure times d2~^n, or times |d2~|^2 for u v*
        factor = 2 if stationary and v.n else u.n + v.n - 1
        weight_table = None if weight is not None else 3 if stationary else 4
        total = 0.0
        for term in _fourier_terms(u, v, stationary, weight):
            total += _integral(bath, quad, resp, factor, weight_table, *term)
        parts.append(total)
    return tuple(parts)


@functools.lru_cache(maxsize=1 << 14)
def _integral(
    bath: BathSpec, quad: QuadratureConfig, resp: _Response, factor: int,
    weight: int | None, coeffs: tuple, part: str, freq: float, kind: str,
) -> float:
    """int kernel(w) {1, cos, sin}(freq w) dw over the domain, the kernel
    the ``part`` of F[w] (c0 + c1 w + c2 w^2) W[w] with F and W the
    tables ``factor`` and ``weight`` of the set of (bath, quad, resp), W
    1 when a constant weight is in ``coeffs``.  The only caller of the
    quadrature engine; the 16384 most recent terms are kept (the largest
    shipped run, preset 7, has 9380).

    A positive lower limit marks a mass threshold whose sqrt cusp is
    handled by a plain-rule head interval.  At finite t the responses
    fall off only like 1/w, so every bilinear form grows with the log of
    the cutoff and a regulator is required.
    """
    quad.require_regulator("the frequency integral of a response bilinear form")
    lower, upper = bath.mass_i, quad.upper()
    tables = _node_factors(bath, quad, resp)
    kernel = _kernel(tables[factor], None if weight is None else tables[weight], coeffs, part)
    try:
        return fourier_quad(
            kernel, freq, kind, lower, upper, quad, head=cusp_head(lower, freq)
        )[0]
    except ConvergenceError as exc:
        where = f"{kind} term at frequency {freq:.6g} over [{lower:.6g}, {upper:.6g}]"
        exc.args = (f"{where}: {exc}",)
        exc.diagnostics.update(freq=freq, kind=kind, interval=[lower, upper])
        raise


def covariance_integral_parts(
    spec: OscillatorSpec,
    bath: BathSpec,
    t: float,
    quad: QuadratureConfig,
) -> tuple[float, float, float]:
    """Bath-driven integral parts of (xx, pp, xp) at time t.

    The initial-condition terms are excluded; what remains is the double
    time integral of the bath Hadamard function against the fundamental
    solutions, reduced to frequency-domain Fourier integrals.
    """
    if t == 0.0:
        return 0.0, 0.0, 0.0
    resp = effective_response(spec, bath)
    f, f_dot = _f_factor(resp, t), _fdot_factor(resp, t)
    e_sq, m = spec.e_sq, spec.m
    i_xx = (e_sq / m**2) * sum(_bilinear(resp, bath, f, f, quad))
    i_pp = e_sq * sum(_bilinear(resp, bath, f_dot, f_dot, quad))
    i_xp = (e_sq / m) * sum(_bilinear(resp, bath, f, f_dot, quad))
    return i_xx, i_pp, i_xp


def covariance_evolution(
    spec: OscillatorSpec,
    bath: BathSpec,
    init: CovarianceState,
    t: float,
    quad: QuadratureConfig,
) -> CovarianceState:
    """Covariance matrix of the detector at time t.

    Homogeneous propagation of the initial second moments plus the
    bath-driven integrals, evaluated in the frequency domain.  The
    momentum dispersion is logarithmically UV divergent, so the
    quadrature config must carry a regulator; its value is quoted with
    the cutoff in mind.
    """
    if t == 0.0:
        return init
    i_xx, i_pp, i_xp = covariance_integral_parts(spec, bath, t, quad)
    resp = effective_response(spec, bath)
    m = spec.m
    d1, d2, d1_dot, d2_dot = _fundamental(resp, t)
    xx = d1 * d1 * init.xx + (d2 / m) ** 2 * init.pp + 2.0 * d1 * d2 * init.xp / m
    pp = (
        (m * d1_dot) ** 2 * init.xx
        + d2_dot * d2_dot * init.pp
        + 2.0 * m * d1_dot * d2_dot * init.xp
    )
    xp = (
        m * d1 * d1_dot * init.xx
        + d2 * d2_dot * init.pp / m
        + (d1 * d2_dot + d1_dot * d2) * init.xp
    )
    return CovarianceState(
        xx=float(xx + i_xx), pp=float(pp + i_pp), xp=float(xp + i_xp)
    )


def ns_st_split(
    spec: OscillatorSpec, bath: BathSpec, theta: float, t: float, quad: QuadratureConfig
) -> tuple[float, float]:
    """Nonstationary and stationary integrals feeding <chi^2(t)>.

    I_NS = -int (dw/2pi)(w/4pi) coth(bw/2) 2 Re[f^2(t;w) e^{i theta}],
    I_ST = +int (dw/2pi)(w/4pi) coth(bw/2) 2 |f(t;w)|^2,

    the components of :func:`chi_hadamard_components` at (t, t), under
    the same conditions on ``bath``.  The squeeze magnitude prefactors
    (sinh/cosh 2eta) are deliberately not included: the split isolates
    the temporal behavior.
    """
    kv = chi_hadamard_components(spec, bath, theta, t, t, quad)
    return kv.nonstationary, kv.stationary


def chi_hadamard_components(
    spec: OscillatorSpec,
    bath: BathSpec,
    theta: float,
    t: float,
    t_prime: float,
    quad: QuadratureConfig,
) -> KernelValue:
    """Unit-weight stationary / nonstationary parts of G_H^(chi)(t, t').

    stationary    = int dmu 2 Re[f(t) f*(t')]
    nonstationary = -int dmu 2 Re[f(t) f(t') e^{i theta}]

    with dmu = (dw/2pi)(w/4pi) coth(bw/2) at the temperature of ``bath``
    and the squeeze angle ``theta``.  The cosh/sinh 2eta weights and the
    e^2/m^2 prefactor are left to the caller, which lets figure code
    factor them out.  This unit-weight split is a constant-squeeze
    construction: a massive bath or a squeeze spectrum raises
    :class:`DomainError` (:func:`chi_hadamard` serves every bath).

    The coupling is switched on suddenly at t = 0, so f(t; w) -> -i d2(t)/w
    at large w and both components carry the switch-on term
    (1/4 pi^2) d2(t) d2(t') ln Lambda.  It depends on the regulator and
    decays as e^{-gamma(t+t')}, like the relaxation transient.
    """
    if not bath.is_massless or isinstance(bath.squeeze, SqueezeSpectrum):
        raise DomainError("the unit-weight split needs a massless constant-squeeze bath")
    resp, thermal = effective_response(spec, bath), BathSpec(bath.beta)
    u, v = _f_factor(resp, t), _f_factor(resp, t_prime)
    weights = (1.0, cmath.exp(1j * theta))
    return KernelValue(*_bilinear(resp, thermal, u, v, quad, weights))


def chi_hadamard(
    spec: OscillatorSpec,
    bath: BathSpec,
    t: float,
    t_prime: float,
    quad: QuadratureConfig,
) -> KernelValue:
    """Bath-driven part of the displacement Hadamard function G_H^(chi).

    e^2/m^2 times the bilinear form of f(t) and f(t') under the bath's
    own measure and weights, with the response of the covariances, so
    every bath is served.  The initial-condition terms (exponentially
    small past the relaxation time) are not included.  At t = t' the
    total reproduces the integral part of <chi^2(t)>; for t, t' >> 1/gamma
    the stationary part depends on t - t' only and the total approaches
    cosh 2eta times the thermal correlation.  At finite t both parts still
    carry the switch-on term (1/4 pi^2) d2(t) d2(t') ln Lambda of
    :func:`chi_hadamard_components`, scaled by the prefactor and the
    squeeze weights; it depends on the regulator and decays as
    e^{-gamma(t+t')}.
    """
    resp = effective_response(spec, bath)
    stationary, nonstationary = _bilinear(
        resp, bath, _f_factor(resp, t), _f_factor(resp, t_prime), quad
    )
    pref = spec.e_sq / spec.m**2
    return KernelValue(pref * stationary, pref * nonstationary)
