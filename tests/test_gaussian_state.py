import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import covariance_from_decomposition, effective_temperature
from sqbath.errors import DomainError, InvalidStateError
from sqbath.gaussian_state import (
    BogoliubovPair,
    CovarianceState,
    SqueezeParam,
    StateDecomposition,
    extract_squeeze,
)

NBAR_BOSE = 0.581976706869326424  # 1/(e - 1), occupation at beta*omega = 1


def arccoth(x: float) -> float:
    """Inverse of coth on x > 1, via (1/2) ln((x+1)/(x-1)).

    Guarded against the catastrophic cancellation at x -> 1+.
    """
    if x <= 1.0 + 1e-12:
        raise DomainError(f"arccoth requires x > 1 (got {x})")
    return 0.5 * math.log((x + 1.0) / (x - 1.0))


def bogoliubov_pair(sq: SqueezeParam) -> BogoliubovPair:
    """Pair (alpha, beta) = (cosh eta, -e^{-i theta} sinh eta) of a squeeze."""
    return BogoliubovPair(
        alpha=complex(math.cosh(sq.eta)),
        beta=-cmath.exp(-1j * sq.theta) * math.sinh(sq.eta),
    )


def squeezed_thermal_moments(
    eta: float, theta: float, nbar: float
) -> tuple[complex, float]:
    """First two mode moments of a squeezed thermal state.

    Returns ``(<a^2>, <a^dag a>)`` with
    ``<a^2> = -e^{i theta} sinh(2 eta) (nbar + 1/2)`` and
    ``<a^dag a> = cosh(2 eta) nbar + sinh^2(eta)``.
    """
    if eta < 0:
        raise DomainError("eta must be >= 0")
    if nbar < 0:
        raise DomainError("nbar must be >= 0")
    a_sq = -cmath.exp(1j * theta) * math.sinh(2.0 * eta) * (nbar + 0.5)
    adag_a = math.cosh(2.0 * eta) * nbar + math.sinh(eta) ** 2
    return a_sq, adag_a


def amplified_number(n: float, delta_sq: float) -> float:
    """Occupation after squeezing: n + 2|delta|^2 (n + 1/2).

    The second term is the stimulated piece; with n = 0 it reduces to
    spontaneous pair creation out of vacuum.
    """
    if n < 0 or delta_sq < 0:
        raise DomainError("occupation and |delta|^2 must be >= 0")
    return n + 2.0 * delta_sq * (n + 0.5)


def free_squeezed_variance(
    m: float, omega_r: float, beta: float, eta: float, theta: float, t: float
) -> float:
    """<chi^2(t)> of a free oscillator in a squeezed thermal state.

    [cosh 2eta - cos(2 omega_r t - theta) sinh 2eta] coth(beta omega_r/2)
    / (2 m omega_r); oscillates between e^{-2 eta} and e^{+2 eta} times
    the thermal value.  ``beta = inf`` gives the squeezed vacuum.
    """
    coth = 1.0 if math.isinf(beta) else 1.0 / math.tanh(0.5 * beta * omega_r)
    thermal = coth / (2.0 * m * omega_r)
    envelope = math.cosh(2 * eta) - math.cos(2 * omega_r * t - theta) * math.sinh(2 * eta)
    return envelope * thermal


def effective_temp_squeezed(beta: float, omega_r: float, eta: float) -> float:
    """Inverse temperature beta_s read out in a squeezed thermal bath.

    Solves coth(beta_s omega_r / 2) = coth(beta omega_r / 2) cosh 2eta.
    Always beta_s <= beta: the detector feels hotter.  ``beta = inf``
    (zero temperature) is allowed.

    Evaluated through the cancellation-free grouping

        beta_s = ln[(cosh 2eta cosh a + sinh a) /
                    (2 sinh^2 eta cosh a + e^{-a})] / omega_r,

    a = beta omega_r / 2, whose terms are all positive, so tiny squeeze
    magnitudes at large beta omega_r remain accurate (the naive
    arccoth(coth a cosh 2eta) loses all digits there).
    """
    if eta == 0.0:
        return beta
    c = math.cosh(2.0 * eta)
    c_minus_1 = 2.0 * math.sinh(eta) ** 2
    a = 0.5 * beta * omega_r
    if math.isinf(beta) or a > 350.0:
        # zero-temperature limit: beta_s -> ln((c+1)/(c-1)) / omega_r
        return math.log((c + 1.0) / c_minus_1) / omega_r
    num = c * math.cosh(a) + math.sinh(a)
    den = c_minus_1 * math.cosh(a) + math.exp(-a)
    return math.log(num / den) / omega_r


def two_mode_out_number(nbar_in: float, beta_sq: float) -> float:
    """Per-mode-pair out-particle number over a two-mode squeeze.

    2 (|beta_k|^2 + 1/2)(nbar_in + 1/2) - 1/2, with beta_sq = |beta_k|^2.
    """
    return 2.0 * (beta_sq + 0.5) * (nbar_in + 0.5) - 0.5


def two_mode_vacuum_amplitude(eta: float, theta: float, n: int) -> complex:
    """Amplitude of |n_{+k}, n_{-k}> in a two-mode squeezed vacuum.

    (-tanh eta e^{i theta})^n / cosh eta; the squared magnitudes form a
    geometric series summing to 1.
    """
    if n == 0:
        return complex(1.0 / math.cosh(eta))
    return (-math.tanh(eta) * cmath.exp(1j * theta)) ** n / math.cosh(eta)


class TestSqueezedThermalMoments:
    def test_unsqueezed_thermal_unchanged(self):
        a_sq, adag_a = squeezed_thermal_moments(0.0, 0.7, 0.5)
        assert a_sq == 0.0
        assert adag_a == 0.5

    def test_unit_squeeze_vacuum(self):
        a_sq, adag_a = squeezed_thermal_moments(1.0, 0.0, 0.0)
        assert abs(a_sq - (-1.8134302039235094)) < 1e-12
        assert abs(adag_a - 1.3810978455418157) < 1e-12

    def test_unit_squeeze_thermal(self):
        # nbar from the Bose factor at beta*omega = 1; theta = pi flips
        # the sign of <a^2>
        a_sq, adag_a = squeezed_thermal_moments(1.0, math.pi, NBAR_BOSE)
        assert abs(a_sq - 3.9241784803570595) < 1e-12
        assert abs(a_sq.imag) < 1e-12
        assert abs(adag_a - 3.5706081044366373) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            squeezed_thermal_moments(-0.1, 0.0, 0.0)
        with pytest.raises(DomainError):
            squeezed_thermal_moments(0.1, 0.0, -1.0)


class TestAmplifiedNumber:
    def test_examples(self):
        assert amplified_number(5.0, 0.0) == 5.0
        assert amplified_number(0.0, 1.0) == 1.0
        assert amplified_number(2.0, 0.25) == 3.25

    @given(
        n=st.floats(0.0, 50.0),
        d1=st.floats(0.0, 5.0),
        d2=st.floats(0.0, 5.0),
    )
    def test_monotone(self, n, d1, d2):
        lo, hi = sorted((d1, d2))
        assert amplified_number(n, hi) >= amplified_number(n, lo)
        assert amplified_number(n + 1.0, d1) > amplified_number(n, d1)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            amplified_number(-1.0, 0.0)


class TestFreeSqueezedVariance:
    def test_thermal_value(self):
        for t in (0.0, 0.37, 12.0):
            v = free_squeezed_variance(1.0, 1.0, 1.0, 0.0, 0.0, t)
            assert abs(v - 1.0819767068693264) < 1e-12

    def test_quadrature_minimum_and_maximum(self):
        assert abs(
            free_squeezed_variance(1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
            - 0.14642962407957776
        ) < 1e-12
        assert abs(
            free_squeezed_variance(1.0, 1.0, 1.0, 1.0, 0.0, math.pi / 2)
            - 7.994786584793697
        ) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        eta=st.floats(0.0, 4.0),
        theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
        beta=st.floats(0.05, 50.0),
        omega_r=st.floats(0.2, 5.0),
    )
    def test_extrema_ratio(self, eta, theta, beta, omega_r):
        # time extrema are e^{+-2 eta} times the thermal value
        thermal = free_squeezed_variance(1.0, omega_r, beta, 0.0, 0.0, 0.0)
        ts = (np.arange(0, 2000) * math.pi / 1000 + theta / 2) / omega_r
        vals = [
            free_squeezed_variance(1.0, omega_r, beta, eta, theta, t) for t in ts[:3]
        ]
        # closed-form extrema, no need to scan: cos = +-1
        v_min = free_squeezed_variance(1.0, omega_r, beta, eta, theta, theta / (2 * omega_r))
        v_max = free_squeezed_variance(
            1.0, omega_r, beta, eta, theta, (theta + math.pi) / (2 * omega_r)
        )
        assert abs(v_min / thermal - math.exp(-2 * eta)) < 1e-10
        assert abs(v_max / thermal - math.exp(2 * eta)) < 1e-10
        assert all(v_min - 1e-12 <= v <= v_max + 1e-12 for v in vals)

    def test_zero_temperature(self):
        v = free_squeezed_variance(1.0, 2.0, math.inf, 0.0, 0.0, 1.0)
        assert abs(v - 0.25) < 1e-14


class TestExtractSqueeze:
    def test_thermal_covariance(self):
        x = 0.8  # beta*omega_r/2
        cov = CovarianceState(
            xx=1.0 / math.tanh(x) / 2.0, pp=1.0 / math.tanh(x) / 2.0, xp=0.0
        )
        dec = extract_squeeze(cov, 1.0, 1.0)
        assert dec.theta_degenerate
        assert dec.squeeze.eta == 0.0
        assert dec.squeeze.theta == 0.0
        assert abs(dec.xi - 1.0 / math.tanh(x)) < 1e-12

    def test_worked_example(self):
        cov = CovarianceState(xx=math.cosh(1), pp=math.cosh(1), xp=-math.sinh(1))
        dec = extract_squeeze(cov, 1.0, 1.0)
        assert abs(dec.xi - 2.0) < 1e-12
        assert abs(dec.squeeze.eta - 0.5) < 1e-12
        assert abs(dec.squeeze.theta - math.pi / 2) < 1e-12

    def test_squeeze_absorbed_into_thermal_factor(self):
        # late-time diagonal form: the squeeze shows up only through
        # Xi' = Xi cosh 2eta, with eta' = 0
        xi, eta = 1.7, 0.8
        xx = xi * math.cosh(2 * eta) / 2.0
        pp = xi * math.cosh(2 * eta) / 2.0
        dec = extract_squeeze(CovarianceState(xx=xx, pp=pp), 1.0, 1.0)
        assert dec.theta_degenerate
        assert abs(dec.xi - xi * math.cosh(2 * eta)) < 1e-10

    @settings(max_examples=300, deadline=None)
    @given(
        xi=st.floats(1.0, 100.0),
        eta=st.floats(0.0, 4.0),
        theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
        m=st.floats(0.2, 5.0),
        omega_r=st.floats(0.2, 5.0),
    )
    def test_round_trip(self, xi, eta, theta, m, omega_r):
        dec = StateDecomposition(xi=xi, squeeze=SqueezeParam(eta, theta))
        cov = covariance_from_decomposition(dec, m, omega_r)
        back = extract_squeeze(cov, m, omega_r)
        assert abs(back.xi - xi) < 1e-8 * xi * math.cosh(2 * eta)
        assert abs(back.squeeze.eta - eta) < 1e-8
        if eta > 1e-6:
            delta = (back.squeeze.theta - theta) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) < 1e-6

    def test_round_trip_at_conditioning_boundary(self):
        # at eta = 5 the uncertainty determinant cancels ~cosh^2(2 eta)
        # leading digits, so float64 caps the identity near
        # eps cosh^2(10) ~ 3e-8; the analytic identity itself is exact
        dec = StateDecomposition(xi=1.3, squeeze=SqueezeParam(5.0, 2.0))
        cov = covariance_from_decomposition(dec, 1.0, 1.0)
        back = extract_squeeze(cov, 1.0, 1.0)
        bound = 100.0 * 2.3e-16 * math.cosh(10.0) ** 2
        assert abs(back.squeeze.eta - 5.0) < bound
        assert abs(back.xi - 1.3) < 1.3 * bound

    def test_invalid_state_rejected(self):
        with pytest.raises(InvalidStateError):
            CovarianceState(xx=0.1, pp=0.1, xp=0.0)


class TestEffectiveTemperature:
    def test_thermal_identity_spotchecks(self):
        # beta omega_r capped at 18: beyond, the uncertainty function
        # S ~ e^{-beta omega_r} is swallowed by float64 cancellation in
        # xx pp - 1/4 and no algorithm can recover it from covariances
        for beta in (0.01, 0.5, 3.0, 100.0):
            for omega_r in (0.1, 1.0, 10.0):
                if beta * omega_r > 18.0:
                    continue
                x = 0.5 * beta * omega_r
                c = 1.0 / math.tanh(x)
                cov = CovarianceState(
                    xx=c / (2 * omega_r), pp=omega_r * c / 2.0, xp=0.0
                )
                assert abs(effective_temperature(cov, omega_r) / beta - 1.0) < 1e-10

    def test_quarter_uncertainty(self):
        # S = 1/4: beta_eff = 2 ln(1 + sqrt(2))
        cov = CovarianceState(xx=math.sqrt(0.5), pp=math.sqrt(0.5), xp=0.0)
        assert abs(effective_temperature(cov, 1.0) - 1.7627471740390861) < 1e-12

    def test_pure_state_diverges(self):
        with pytest.raises(InvalidStateError):
            effective_temperature(CovarianceState(xx=0.5, pp=0.5, xp=0.0), 1.0)

    def test_small_uncertainty_grows(self):
        vals = []
        for s in (1e-2, 1e-4, 1e-6):
            det = 0.25 + s
            cov = CovarianceState(xx=math.sqrt(det), pp=math.sqrt(det), xp=0.0)
            vals.append(effective_temperature(cov, 1.0))
        assert vals[0] < vals[1] < vals[2]


class TestEffectiveTempSqueezed:
    def test_no_squeeze(self):
        assert effective_temp_squeezed(2.3, 1.7, 0.0) == 2.3

    def test_unit_values(self):
        assert abs(effective_temp_squeezed(1.0, 1.0, 1.0) - 0.24691034181898257) < 1e-12
        assert abs(
            effective_temp_squeezed(math.inf, 1.0, 1.0) - 0.5446829378236631
        ) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        beta=st.floats(0.05, 50.0),
        omega_r=st.floats(0.2, 5.0),
        eta=st.floats(0.0, 4.0),
    )
    def test_feels_hotter(self, beta, omega_r, eta):
        beta_s = effective_temp_squeezed(beta, omega_r, eta)
        assert beta_s <= beta + 1e-12
        # defining relation, checked where both coth factors are
        # float64-resolvable (their difference saturates past ~37)
        if 1e-6 < eta and beta * omega_r < 50.0:
            lhs = 1.0 / math.tanh(0.5 * beta_s * omega_r)
            rhs = 1.0 / math.tanh(0.5 * beta * omega_r) * math.cosh(2 * eta)
            assert abs(lhs / rhs - 1.0) < 1e-10


class TestTwoModeNumbers:
    def test_out_number_examples(self):
        assert two_mode_out_number(0.0, 0.0) == 0.0
        assert two_mode_out_number(0.0, 1.0) == 1.0
        assert two_mode_out_number(1.0, 0.5) == 2.5

    def test_vacuum_amplitudes(self):
        assert two_mode_vacuum_amplitude(0.0, 0.0, 0) == 1.0
        assert two_mode_vacuum_amplitude(0.0, 0.0, 3) == 0.0
        assert abs(
            two_mode_vacuum_amplitude(1.0, 0.0, 1) - (-0.49355434756457309)
        ) < 1e-12

    def test_normalization(self):
        total = sum(
            abs(two_mode_vacuum_amplitude(1.0, 0.4, n)) ** 2 for n in range(201)
        )
        assert abs(total - 1.0) < 1e-10

    def test_pair_number_consistency(self):
        # |amplitude|^2-weighted pair number reproduces sinh^2 eta
        eta = 0.9
        mean_n = sum(
            n * abs(two_mode_vacuum_amplitude(eta, 0.0, n)) ** 2 for n in range(400)
        )
        assert abs(mean_n - math.sinh(eta) ** 2) < 1e-10


class TestBogoliubovPair:
    @settings(max_examples=300, deadline=None)
    @given(
        eta=st.floats(0.0, 5.0),
        theta=st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    def test_squeeze_pair_identities(self, eta, theta):
        pair = bogoliubov_pair(SqueezeParam(eta, theta))
        assert pair.wronskian_defect() < 1e-8
        total = abs(pair.alpha) ** 2 + abs(pair.beta) ** 2
        assert abs(total - math.cosh(2 * eta)) < 1e-8 * math.cosh(2 * eta)
        assert abs(
            2 * abs(pair.alpha * pair.beta) - math.sinh(2 * eta)
        ) < 1e-8 * math.cosh(2 * eta)
        if eta > 1e-6:
            assert abs(pair.eta - eta) < 1e-9
            delta = (pair.theta - theta) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) < 1e-8

    def test_validation(self):
        with pytest.raises(DomainError):
            BogoliubovPair(alpha=1.5, beta=0.2).validate()


def test_arccoth_guard():
    with pytest.raises(DomainError):
        arccoth(1.0)
    assert abs(arccoth(2.0) - 0.5 * math.log(3.0)) < 1e-15


def test_squeeze_param_normalizes_angle():
    sq = SqueezeParam(0.5, -math.pi)
    assert 0.0 <= sq.theta < 2 * math.pi
    assert abs(sq.theta - math.pi) < 1e-12
    sq2 = SqueezeParam(1.0, 7.0)
    assert abs(sq2.cosh2eta**2 - sq2.sinh2eta**2 - 1.0) < 1e-12
    with pytest.raises(DomainError):
        SqueezeParam(-0.2, 0.0)
