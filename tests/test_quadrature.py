import math
import types

import numpy as np
import pytest
from scipy import integrate

from oracles import (
    convolve_response,
    coth_half_beta,
    d2_fourier,
    f_aux,
    fundamental_solutions,
    omega_coth_half_beta,
)
from sqbath.errors import ConfigurationError, ConvergenceError, DomainError
from sqbath.quadrature import (
    QuadratureConfig,
    _quad,
    fourier_quad,
    plain_quad,
)

QUAD = QuadratureConfig()  # the tolerances every run uses by default


def test_exponential_integral_exact():
    # truncated where e^{-w} has decayed to e^{-45}
    upper = QuadratureConfig(epsilon=1.0).upper()
    value, err = plain_quad(lambda w: np.exp(-w), 0.0, upper, QUAD)
    assert abs(value - 1.0) < 1e-12
    assert err >= abs(value - 1.0)


def test_oscillatory_lorentzian_closed_form():
    # int_0^inf e^{-w/100} cos(50 w) dw = (1/100) / ((1/100)^2 + 2500); the
    # tail beyond 4500, where the regulator is e^{-45}, is ~1e-22
    value, err = fourier_quad(lambda w: math.exp(-0.01 * w), 50.0, "cos", 0.0, 4500.0, QUAD)
    assert abs(value - 3.999999840000006e-06) < 1e-10
    # reported estimates stay conservative against the known answer,
    # down to the double-precision floor
    assert abs(value - 3.999999840000006e-06) <= max(err, 5e-15)


def test_late_time_xx_integrand_vs_dense_trapezoid(spec):
    # the eta = 0 stationary displacement integrand against a 1e7-point grid
    beta = 1.0

    def kernel(w):
        return omega_coth_half_beta(w, beta) * 2.0 * np.abs(d2_fourier(spec, w)) ** 2

    value, _ = plain_quad(kernel, 0.0, 500.0, QuadratureConfig(rel_tol=1e-10, abs_tol=1e-14))
    w = np.linspace(0.0, 500.0, 10_000_001)
    oracle = np.trapezoid(kernel(w), w)
    assert abs(value / oracle - 1.0) < 1e-6


def test_weights_and_hard_cutoff():
    # int_0^L w e^{-2 b w} dw: Boltzmann weight e^{-2 b w}, cutoff L = 30
    b = 0.7
    value, _ = plain_quad(lambda w: w * math.exp(-2 * b * w), 0.0, 30.0, QUAD)
    a = 2 * b
    exact = (1.0 - math.exp(-a * 30.0) * (1.0 + a * 30.0)) / a**2
    assert abs(value - exact) < 1e-10

    # coth weight: w coth(bw/2) stays finite at the origin
    value2, _ = plain_quad(
        lambda w: w * math.exp(-w) * coth_half_beta(w, b),
        0.0,
        QuadratureConfig(epsilon=1.0).upper(),
        QUAD,
    )
    w = np.linspace(1e-8, 80.0, 2_000_001)
    oracle = np.trapezoid(omega_coth_half_beta(w, b) * np.exp(-w), w)
    assert abs(value2 / oracle - 1.0) < 1e-7


def test_determinism():
    def kernel(w):
        return 1.0 / (1.0 + w * w)

    first = fourier_quad(kernel, 2.0, "cos", 0.0, 1000.0, QUAD)
    for _ in range(3):
        assert fourier_quad(kernel, 2.0, "cos", 0.0, 1000.0, QUAD) == first


def test_oscillatory_needs_finite_upper_limit():
    # every caller truncates at the cutoff or the regulator's e^{-45} point
    with pytest.raises(DomainError):
        fourier_quad(lambda w: math.exp(-0.01 * w), 50.0, "cos", 0.0, math.inf, QUAD)


def test_regulator_consistency_documented_level(spec):
    # hard cutoff Lambda vs exponential eps = 1/Lambda on the log-divergent
    # pp integrand: genuinely different schemes, agree only at the ~5% level
    beta = 1.0

    def kernel(w):
        w = np.asarray(w, dtype=float)
        return w * w * omega_coth_half_beta(w, beta) * np.abs(d2_fourier(spec, w)) ** 2

    hard, _ = plain_quad(kernel, 0.0, 1000.0, QUAD)
    soft, _ = plain_quad(
        lambda w: kernel(w) * math.exp(-1e-3 * w), 0.0, QuadratureConfig(epsilon=1e-3).upper(),
        QUAD,
    )
    assert abs(hard / soft - 1.0) < 0.05


def test_coth_series_patch_continuity():
    beta = 2.0
    # series and direct branches agree where the patch hands over
    omega = 1.0001e-3 / beta
    direct = float(omega_coth_half_beta(np.array([omega]), beta)[0])
    u = 0.5 * beta * omega
    series = (2.0 / beta) * (1.0 + u * u / 3.0 - u**4 / 45.0)
    assert abs(direct / series - 1.0) < 1e-12
    assert math.isclose(float(omega_coth_half_beta(0.0, beta)), 2.0 / beta)
    assert coth_half_beta(3.0, math.inf) == 1.0


def test_coth_zero_temperature_limit_is_odd():
    # coth(b w/2) -> sgn(w) as b -> inf, the limit of any large finite b
    w = np.array([-3.0, -1e-3, 1e-3, 3.0])
    np.testing.assert_array_equal(coth_half_beta(w, math.inf), np.sign(w))
    np.testing.assert_array_equal(coth_half_beta(w, math.inf), coth_half_beta(w, 1e300))


class TestConvolveResponse:
    def test_zero_source(self):
        grid = np.linspace(0.0, 5.0, 101)
        out = convolve_response(np.sin(grid), np.zeros_like(grid), grid)
        assert np.all(out == 0.0)

    def test_linearity(self):
        grid = np.linspace(0.0, 5.0, 257)
        kern = np.exp(-0.3 * grid)
        s1 = np.cos(2.0 * grid)
        s2 = grid**2
        lhs = convolve_response(kern, 2.0 * s1 - 3.0 * s2, grid)
        rhs = 2.0 * convolve_response(kern, s1, grid) - 3.0 * convolve_response(
            kern, s2, grid
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_matches_f_aux_closed_form(self, spec):
        omega = 0.7
        grid = np.linspace(0.0, 10.0, 2**14 + 1)
        _, d2, _, _ = fundamental_solutions(spec, grid)
        conv = convolve_response(d2, np.exp(-1j * omega * grid), grid)
        for idx in (2048, 8192, 16384):
            exact = f_aux(spec, float(grid[idx]), omega)
            assert abs(conv[idx] - exact) < 1e-8

    def test_shape_mismatch(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(DomainError):
            convolve_response(np.ones(10), np.ones(11), grid)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(cutoff=-1.0)
    with pytest.raises(DomainError):
        QuadratureConfig(epsilon=-0.1)
    cfg = QuadratureConfig(cutoff=100.0, epsilon=0.01)
    assert cfg.has_regulator
    assert cfg.upper() == 100.0
    assert QuadratureConfig(epsilon=0.01).upper() == 4500.0
    with pytest.raises(ConfigurationError):
        QuadratureConfig().require_regulator("anything")


# The QUADPACK routines are loaded from scipy's extension file and called
# as scipy.integrate.quad calls them; these cases pin every result to the
# installed scipy's quad under ==, and _quad's return code to QUADPACK's.

def _lorentzian(w):
    return 1.0 / (1.0 + w * w)


def _rising(w):
    return math.sqrt(w)


TIGHT = QuadratureConfig(rel_tol=1e-15, abs_tol=1e-300)  # QUADPACK stops on roundoff
FEW = QuadratureConfig(max_subdivisions=10)

# id: (kernel, a, b, quad, _quad's ier)
PLAIN_CASES = {
    "finite": (_lorentzian, 0.0, 100.0, QUAD, 0),
    "roundoff": (_lorentzian, 0.0, 100.0, TIGHT, 2),
    "subdivision-limit": (lambda w: math.sin(50.0 * w), 0.0, 100.0, FEW, 1),
}

# id: (kernel, freq, kind, a, b, quad, head, _quad's ier when fourier_quad
# makes one QAWO call, else None)
FOURIER_CASES = {
    "cos": (_lorentzian, 3.0, "cos", 0.0, 100.0, QUAD, None, 0),
    "sin": (_lorentzian, 3.0, "sin", 0.0, 100.0, QUAD, None, 0),
    "cos-frequency-0": (_lorentzian, 0.0, "cos", 0.0, 100.0, QUAD, None, None),
    "sin-frequency-0": (_lorentzian, 0.0, "sin", 0.0, 100.0, QUAD, None, 0),
    "head": (_rising, 40.0, "cos", 0.0, 100.0, QUAD, 0.5, None),
    "head-past-b": (_rising, 40.0, "sin", 0.0, 0.3, QUAD, 0.5, None),
    "roundoff": (_lorentzian, 3.0, "cos", 0.0, 100.0, TIGHT, None, 2),
    "subdivision-limit": (_rising, 300.0, "sin", 0.0, 100.0, FEW, None, 1),
}


def _scipy_quad(kernel, a, b, quad, **weight):
    return integrate.quad(
        kernel, a, b, epsabs=quad.abs_tol, epsrel=quad.rel_tol,
        limit=quad.max_subdivisions, full_output=1, **weight,
    )


def _scipy_fourier(kernel, freq, kind, a, b, quad, head=None):
    """fourier_quad's value and error estimate from scipy.integrate.quad:
    the plain rule at frequency 0 (cos) and on the head, QAWO elsewhere."""
    if freq == 0.0 and kind == "cos":
        return _scipy_quad(kernel, a, b, quad)[:2]
    if head is not None:
        split = min(head, b)
        osc = np.cos if kind == "cos" else np.sin
        head_out = _scipy_quad(lambda w: kernel(w) * osc(freq * w), a, split, quad)
        if split >= b:
            return head_out[:2]
        tail_out = _scipy_fourier(kernel, freq, kind, split, b, quad)
        return head_out[0] + tail_out[0], head_out[1] + tail_out[1]
    return _scipy_quad(kernel, a, b, quad, weight=kind, wvar=freq, maxp1=100)[:2]


def _sqbath_result(quad_fn, *args):
    """(value, abserr, ier) of a sqbath quadrature; ier is None unless the
    result was refused with a ConvergenceError."""
    try:
        value, abserr = quad_fn(*args)
    except ConvergenceError as exc:
        return exc.partial_value, exc.diagnostics["abserr"], exc.diagnostics["ier"]
    return value, abserr, None


class TestScipyBits:
    @pytest.mark.parametrize("case", PLAIN_CASES.values(), ids=PLAIN_CASES.keys())
    def test_plain_quad_is_scipys_quad(self, case):
        kernel, a, b, quad, ier = case
        expected = _scipy_quad(kernel, a, b, quad)
        assert _quad(kernel, a, b, quad) == (*expected[:2], ier)
        value, abserr, _ = _sqbath_result(plain_quad, kernel, a, b, quad)
        assert (value, abserr) == expected[:2]

    @pytest.mark.parametrize("case", FOURIER_CASES.values(), ids=FOURIER_CASES.keys())
    def test_fourier_quad_is_scipys_quad(self, case):
        kernel, freq, kind, a, b, quad, head, ier = case
        value, abserr, _ = _sqbath_result(fourier_quad, *case[:7])
        assert (value, abserr) == _scipy_fourier(*case[:7])
        if ier is not None:
            expected = _scipy_quad(kernel, a, b, quad, weight=kind, wvar=freq, maxp1=100)
            assert _quad(kernel, a, b, quad, kind, freq) == (*expected[:2], ier)

    def test_warning_cases_reach_their_codes(self):
        # the roundoff cases (ier 2) pass the roundoff hatch; the
        # subdivision-limit cases (ier 1) are refused with their code
        for quad_fn, cases, args in (
            (plain_quad, PLAIN_CASES, lambda c: c[:4]),
            (fourier_quad, FOURIER_CASES, lambda c: c[:7]),
        ):
            roundoff, limit = cases["roundoff"], cases["subdivision-limit"]
            assert _sqbath_result(quad_fn, *args(roundoff))[2] is None
            assert _sqbath_result(quad_fn, *args(limit))[2] == 1

    def test_invalid_input_raises_like_scipy(self):
        # QUADPACK flags limit < 1 as invalid input (ier 6); QuadratureConfig
        # refuses such a budget, so a stand-in with its three fields carries it
        with pytest.raises(ValueError):
            integrate.quad(_lorentzian, 0.0, 1.0, limit=0, full_output=1)
        bad = types.SimpleNamespace(rel_tol=1e-8, abs_tol=1e-12, max_subdivisions=0)
        assert _quad(_lorentzian, 0.0, 1.0, bad)[2] == 6
        with pytest.raises(DomainError):
            plain_quad(_lorentzian, 0.0, 1.0, bad)


def test_quad_needs_finite_increasing_limits():
    limits = ((0.0, math.inf), (-math.inf, 0.0), (2.0, 2.0), (1.0, 0.0), (0.0, math.nan))
    for a, b in limits:
        with pytest.raises(DomainError):
            _quad(_lorentzian, a, b, QUAD)


def test_non_finite_results_are_refused():
    # QUADPACK reports a kernel that turns NaN as roundoff (ier 2); the NaN
    # must not pass the roundoff hatch
    def kernel(w):
        return math.nan if w > 0.5 else 1.0

    with pytest.raises(ConvergenceError) as plain:
        plain_quad(kernel, 0.0, 1.0, QUAD)
    with pytest.raises(ConvergenceError) as fourier:
        fourier_quad(kernel, 2.0, "cos", 0.0, 1.0, QUAD)
    assert _quad(kernel, 0.0, 1.0, QUAD)[2] == 2
    for exc in (plain, fourier):
        assert exc.value.diagnostics["ier"] == 2
        assert math.isnan(exc.value.partial_value)
        assert "is not finite (the integrand overflowed)" in str(exc.value)
