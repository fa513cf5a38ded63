"""The Filon-Legendre rule of ``tests/oracles.py`` against closed forms.

Every reference integral of the suite is a call of that rule, so it is
checked here on its own, without the package's quadrature engine: Gauss
exactness at tau = 0, the panel moments of w^n e^{i tau w} over six decades
of tau r, the massless bath's Hurwitz-zeta kernel and the sqrt cusp of a
massive measure.
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial import legendre
import pytest
from scipy import special

from oracles import FilonRule, bath_hadamard, omega_coth_half_beta, oracle_rule

PANEL = (2.5, 3.5)  # c = 3, r = 0.5


def test_gauss_exact_to_degree_31_at_tau_zero():
    # int P_n((w - c)/r) dw = 2r delta_n0 over the panel, exact up to n = 31;
    # P_32 is where the 16-node rule stops being exact
    a, b = PANEL
    rule = FilonRule([a, b])
    x = (rule.nodes - 0.5 * (a + b)) / (0.5 * (b - a))
    for n in range(33):
        got = rule.integral(legendre.legval(x, [0.0] * n + [1.0])).real
        error = abs(got - (b - a if n == 0 else 0.0))
        if n < 32:
            assert error <= 2e-15 * (b - a), n
        else:
            assert error > 0.1 * (b - a)


@pytest.mark.parametrize("tau_r", [1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4])
def test_panel_moments_are_exact(tau_r):
    # int_a^b w^n e^{i tau w} dw by repeated integration by parts, in 150
    # digits: the recursion loses (n/tau)^n to cancellation at small tau r
    a, b = PANEL
    rule = FilonRule([a, b])
    tau = tau_r / (0.5 * (b - a))
    with mp.workdps(150):
        ma, mb, it = mp.mpf(a), mp.mpf(b), 1j * mp.mpf(tau)
        exact = [(mp.exp(it * mb) - mp.exp(it * ma)) / it]
        for n in range(1, 16):
            ends = mb**n * mp.exp(it * mb) - ma**n * mp.exp(it * ma)
            exact.append((ends - n * exact[-1]) / it)
        exact = [complex(x) for x in exact]
    for n in range(16):
        scale = (b ** (n + 1) - a ** (n + 1)) / (n + 1)  # int |w^n e^{i tau w}|
        got = rule.integral(rule.nodes**n, tau)
        assert abs(got - exact[n]) <= 1e-14 * scale, (n, got, exact[n])


@pytest.mark.parametrize("beta", [0.3, 10.0, math.inf])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_massless_kernel_matches_hurwitz_zeta(beta, eps):
    # (1/8 pi^2) int w coth(b w/2) e^{-eps w} cos(w T - phase) dw
    rule = oracle_rule(0.0, 45.0 / eps, beta=beta, decay=eps)
    w = rule.nodes
    kernel = omega_coth_half_beta(w, beta) * np.exp(-eps * w) / (8.0 * math.pi**2)
    scale = bath_hadamard(beta, eps, 0.0)
    for big_t in (0.0, 10.0, 80.0, 115.0):
        for phase in (0.0, 0.9):
            got = (np.exp(-1j * phase) * rule.integral(kernel, big_t)).real
            exact = bath_hadamard(beta, eps, big_t, phase)
            assert abs(got - exact) <= 1e-12 * scale, (big_t, phase, got, exact)


@pytest.mark.parametrize("eps", [1e-2, 1e-1])
def test_cusp_head_matches_bessel_k1(eps):
    # int_m^inf sqrt(w^2 - m^2) e^{-p w} dw = m K_1(m p) / p, p = eps - i tau
    m = 0.2
    scale = m * special.kv(1, m * eps) / eps
    for tau in (0.0, 1.0, 20.0, 200.0, 700.0):
        rule = oracle_rule(m, 45.0 / eps, decay=eps, tau_max=tau)
        w = rule.nodes
        got = rule.integral(np.sqrt(w * w - m * m) * np.exp(-eps * w), tau)
        p = eps - 1j * tau
        exact = m * special.kv(1, m * p) / p
        assert abs(got - exact) <= 1e-12 * scale, (tau, got, exact)
