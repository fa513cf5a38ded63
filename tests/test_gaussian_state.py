import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import covariance_from_decomposition
from sqbath.errors import DomainError, InvalidStateError
from sqbath.gaussian_state import (
    BogoliubovPair,
    CovarianceState,
    SqueezeParam,
    StateDecomposition,
    extract_squeeze,
)


def bogoliubov_pair(sq: SqueezeParam) -> BogoliubovPair:
    """Pair (alpha, beta) = (cosh eta, -e^{-i theta} sinh eta) of a squeeze."""
    return BogoliubovPair(
        alpha=complex(math.cosh(sq.eta)),
        beta=-cmath.exp(-1j * sq.theta) * math.sinh(sq.eta),
    )


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

    def test_cancelled_determinant_refused(self):
        # xx pp - xp^2 is inf - inf = nan here, so CovarianceState accepts
        # the state; scaled, its determinant is exactly 0
        with pytest.raises(InvalidStateError, match="lost to cancellation"):
            extract_squeeze(CovarianceState(1e200, 1e200, 1e200), 1.0, 1.0)
        # the same scale with a resolved determinant
        dec = extract_squeeze(CovarianceState(1e200, 1e200, 0.0), 1.0, 1.0)
        assert abs(dec.xi / 2e200 - 1.0) < 1e-15
        # xp^2 rounds to a^2 - 2 and a^2 - 8: a determinant of eps of
        # xx pp + xp^2 is refused, one of 4 eps passes
        a = 2.0**26
        with pytest.raises(InvalidStateError, match="lost to cancellation"):
            extract_squeeze(CovarianceState(a, a, a - 2.0**-26), 1.0, 1.0)
        dec = extract_squeeze(CovarianceState(a, a, a - 2.0**-24), 1.0, 1.0)
        assert dec.xi == 2.0 * math.sqrt(8.0)


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


def test_squeeze_param_normalizes_angle():
    sq = SqueezeParam(0.5, -math.pi)
    assert 0.0 <= sq.theta < 2 * math.pi
    assert abs(sq.theta - math.pi) < 1e-12
    sq2 = SqueezeParam(1.0, 7.0)
    assert abs(sq2.cosh2eta**2 - sq2.sinh2eta**2 - 1.0) < 1e-12
    with pytest.raises(DomainError):
        SqueezeParam(-0.2, 0.0)


def test_squeeze_param_keeps_cosh_finite():
    # cosh 2eta overflows past eta = 355.238: refused, not built
    with pytest.raises(DomainError, match=r"must be in \[0, 355\.238\]"):
        SqueezeParam(400.0)
    assert math.isfinite(SqueezeParam(355.0).cosh2eta)
