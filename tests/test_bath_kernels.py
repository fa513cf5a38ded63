import dataclasses
import math

import numpy as np
import pytest

from oracles import BelowThresholdError, bath_fdr, cosh2eta_at
from sqbath.bath_kernels import BathSpec, SqueezeSpectrum
from sqbath.errors import ConfigurationError, DomainError, ResolutionError
from sqbath.gaussian_state import (
    BogoliubovPair,
    CovarianceState,
    SqueezeParam,
    StateDecomposition,
    extract_squeeze,
)
from sqbath.oscillator_dynamics import OscillatorSpec, chi_hadamard, massive_roots
from sqbath.parametric_mode import MassProfile, ProfileShape, squeeze_spectrum
from sqbath.quadrature import QuadratureConfig


class TestHadamardMasslessCoincident:
    """What the frequency engine does for every bilinear form of a
    massless bath, checked through :func:`chi_hadamard`.  The bath's own
    Hadamard kernel is the closed form ``bath_hadamard`` of
    ``tests/oracles.py``, which the double time integrals of
    ``test_double_time_integral_oracle`` and acceptance criterion 9 hold
    the covariances to."""

    QUAD = QuadratureConfig(epsilon=1e-3)

    def test_requires_regulator(self, spec, bath_squeezed):
        with pytest.raises(ConfigurationError):
            chi_hadamard(spec, bath_squeezed, 1.0, 1.0, QuadratureConfig())

    def test_no_squeeze_kills_nonstationary(self, spec, bath_thermal):
        kv = chi_hadamard(spec, bath_thermal, 0.8, 0.3, self.QUAD)
        assert kv.nonstationary == 0.0
        assert kv.stationary != 0.0

    def test_symmetry(self, spec, bath_squeezed):
        a = chi_hadamard(spec, bath_squeezed, 1.3, 0.4, self.QUAD)
        b = chi_hadamard(spec, bath_squeezed, 0.4, 1.3, self.QUAD)
        assert abs(a.stationary - b.stationary) < 1e-10 * abs(a.stationary)
        assert abs(a.nonstationary - b.nonstationary) < 1e-10 * abs(a.nonstationary)

    def test_massive_bath_rejected(self, spec):
        # a massive bath needs a squeeze spectrum
        bath = BathSpec(beta=1.0, mass_i=0.5, mass_f=0.5)
        with pytest.raises(DomainError):
            chi_hadamard(spec, bath, 1.0, 1.0, self.QUAD)


class TestHadamardParametric:
    """The engine on squeeze-spectrum baths, through :func:`chi_hadamard`."""

    def test_zero_spectrum_reduces_to_thermal(self, spec, bath_thermal):
        k = np.geomspace(1e-3, 5e4, 64)
        spect = SqueezeSpectrum(k, np.zeros_like(k))
        quad = QuadratureConfig(epsilon=1e-3)
        massive = BathSpec(beta=0.5, squeeze=spect, mass_i=0.4, mass_f=0.4)
        assert chi_hadamard(spec, massive, 0.9, 0.2, quad).nonstationary == 0.0
        # massless: the unit weights of a zero spectrum are the thermal bath's
        zero = BathSpec(beta=bath_thermal.beta, squeeze=spect)
        kv = chi_hadamard(spec, zero, 0.9, 0.2, quad)
        thermal = chi_hadamard(spec, bath_thermal, 0.9, 0.2, quad)
        assert kv.nonstationary == 0.0
        assert abs(kv.stationary / thermal.stationary - 1.0) < 1e-12

    def test_constant_spectrum_matches_massless_path(self, spec):
        quad = QuadratureConfig(epsilon=1e-3)
        k = np.geomspace(1e-3, 5e4, 400)
        spect = SqueezeSpectrum(k, np.full_like(k, 0.4), np.full_like(k, 1.1))
        bath_p = BathSpec(beta=0.3, squeeze=spect)
        bath_c = BathSpec(beta=0.3, squeeze=SqueezeParam(0.4, 1.1))
        kv_p = chi_hadamard(spec, bath_p, 1.3, 0.6, quad)
        kv_c = chi_hadamard(spec, bath_c, 1.3, 0.6, quad)
        assert abs(kv_p.stationary / kv_c.stationary - 1.0) < 1e-7
        assert abs(kv_p.nonstationary / kv_c.nonstationary - 1.0) < 1e-7

    def test_symmetry(self, spec, bath_parametric):
        quad = QuadratureConfig(cutoff=1000.0)
        a = chi_hadamard(spec, bath_parametric, 1.4, 0.3, quad)
        b = chi_hadamard(spec, bath_parametric, 0.3, 1.4, quad)
        assert abs(a.stationary - b.stationary) < 1e-10 * abs(a.stationary)
        assert abs(a.nonstationary - b.nonstationary) < 1e-10 * abs(a.nonstationary)

    def test_resolution_error(self, spec):
        k = np.geomspace(0.1, 1.0, 16)  # truncates while eta still large
        spect = SqueezeSpectrum(k, np.full_like(k, 0.5))
        bath = BathSpec(beta=1.0, squeeze=spect)
        with pytest.raises(ResolutionError):
            chi_hadamard(spec, bath, 1.0, 1.0, QuadratureConfig(cutoff=1e5))

    def test_cutoff_at_the_grid_edge_resolves(self):
        # a spectrum still sizeable at k_max is harmless when the hard
        # cutoff stops at or below w_max = sqrt(k_max^2 + m_i^2)
        k = np.geomspace(0.1, 1.0, 16)
        spect = SqueezeSpectrum(k, np.full_like(k, 0.5))
        mass_i = 0.3
        w_max = math.hypot(float(k[-1]), mass_i)
        spect.check_resolution(QuadratureConfig(cutoff=w_max), mass_i)
        above = QuadratureConfig(cutoff=math.nextafter(w_max, math.inf))
        assert above.epsilon == 0.0
        with pytest.raises(ResolutionError):
            spect.check_resolution(above, mass_i)


class TestBathFdr:
    def test_massless_unsqueezed(self):
        bath = BathSpec(beta=2.0)
        omega = 0.7
        lhs, rhs = bath_fdr(omega, bath)
        expected = omega / (4 * math.pi) / math.tanh(omega)
        assert abs(lhs - expected) < 1e-14
        assert abs(rhs - expected) < 1e-14

    @pytest.mark.parametrize("beta", [0.5, 3.0, math.inf])
    def test_massless_zero_frequency_limit(self, beta, bath_parametric):
        # kappa coth(b|w|/2) -> 2/b at w = 0: a finite row with equal sides
        baths = (
            BathSpec(beta=beta),
            BathSpec(beta=beta, squeeze=SqueezeParam(0.8, 0.3)),
            dataclasses.replace(bath_parametric, beta=beta),
        )
        for bath in baths:
            ch2 = float(cosh2eta_at(bath, 0.0))
            limit = (2.0 / beta) / (4 * math.pi) * ch2
            lhs, rhs = bath_fdr(0.0, bath)
            assert lhs == rhs
            assert abs(lhs - limit) <= 1e-15 * limit
            # the limit continues the values nearby
            near, _ = bath_fdr(1e-5, bath)
            assert abs(near - lhs) <= 1e-6 * ch2

    def test_threshold_behavior(self, bath_parametric):
        mass_bath = BathSpec(beta=1.0, squeeze=None, mass_i=0.4, mass_f=0.4)
        with pytest.raises(BelowThresholdError):
            bath_fdr(0.4, mass_bath)
        with pytest.raises(BelowThresholdError):
            bath_fdr(-0.2, mass_bath)
        with pytest.raises(BelowThresholdError):
            bath_fdr(0.0, mass_bath)
        # both sides vanish like kappa just above threshold
        lhs1, _ = bath_fdr(0.4 * (1 + 1e-6), mass_bath)
        lhs2, _ = bath_fdr(0.4 * (1 + 4e-6), mass_bath)
        assert lhs1 < lhs2 < 1e-3

    def test_negative_frequency_parity(self, bath_parametric):
        for omega in (0.3, 1.7, 9.0):
            lp, rp = bath_fdr(omega, bath_parametric)
            lm, rm = bath_fdr(-omega, bath_parametric)
            assert abs(lp - lm) < 1e-14 * abs(lp)
            assert abs(rp - rm) < 1e-14 * abs(rp)
            assert abs(lp - rp) < 1e-12 * abs(lp)


class TestSqueezeSpectrumType:
    def test_extrapolation(self, tanh_spectrum):
        assert tanh_spectrum.eta_at(1e9) == 0.0
        assert tanh_spectrum.theta_at(1e9) == 0.0
        # below the grid: held at the first sample
        assert tanh_spectrum.eta_at(1e-9) == tanh_spectrum.eta[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            SqueezeSpectrum([1.0, 0.5], [0.1, 0.1])  # not ascending
        with pytest.raises(DomainError):
            SqueezeSpectrum([0.5, 1.0], [0.1, -0.1])  # negative eta
        with pytest.raises(DomainError):
            SqueezeSpectrum([0.5, 1.0], [0.1, math.nan])


NAN = math.nan
TANH = MassProfile(0.0, 0.5, 0.0, 2.0)
# each public value type, the squeeze spectrum solve, the massive roots and
# the squeeze extraction, given a NaN (or an infinite k knot) where a number
# is checked
NOT_A_NUMBER = {
    "oscillator-m": lambda: OscillatorSpec(m=NAN, omega_r=1.0),
    "oscillator-omega_r": lambda: OscillatorSpec(m=1.0, omega_r=NAN),
    "oscillator-gamma": lambda: OscillatorSpec(m=1.0, omega_r=1.0, gamma=NAN),
    "quadrature-cutoff": lambda: QuadratureConfig(cutoff=NAN),
    "quadrature-epsilon": lambda: QuadratureConfig(epsilon=NAN),
    "quadrature-rel_tol": lambda: QuadratureConfig(rel_tol=NAN),
    "quadrature-abs_tol": lambda: QuadratureConfig(abs_tol=NAN),
    "quadrature-max_subdivisions": lambda: QuadratureConfig(max_subdivisions=NAN),
    "bath-mass_i": lambda: BathSpec(beta=1.0, mass_i=NAN),
    "bath-mass_f": lambda: BathSpec(beta=1.0, mass_f=NAN),
    "spectrum-nan-knot": lambda: SqueezeSpectrum([0.5, 1.0, NAN], [0.1, 0.1, 0.1]),
    "spectrum-inf-knot": lambda: SqueezeSpectrum([0.5, 1.0, math.inf], [0.1, 0.1, 0.1]),
    "profile-smoothstep_order": lambda: MassProfile(
        0.0, 0.5, 0.0, 2.0, ProfileShape.SMOOTHSTEP, smoothstep_order=NAN
    ),
    "solve-nan-knot": lambda: squeeze_spectrum(TANH, [0.5, 1.0, NAN]),
    "solve-inf-knot": lambda: squeeze_spectrum(TANH, [0.5, 1.0, math.inf]),
    "squeeze-eta": lambda: SqueezeParam(NAN),
    "squeeze-theta": lambda: SqueezeParam(0.5, NAN),
    "bogoliubov-alpha": lambda: BogoliubovPair(NAN, 0.0).validate(),
    "covariance-xx-pp": lambda: CovarianceState(NAN, NAN),
    "covariance-xp": lambda: CovarianceState(1.0, 1.0, NAN),
    "decomposition-xi": lambda: StateDecomposition(NAN, SqueezeParam(0.5)),
    "extract-m": lambda: extract_squeeze(CovarianceState(0.5, 0.5), NAN, 1.0),
    "roots-gamma": lambda: massive_roots(NAN, 1.0, 0.2),
    "roots-Omega": lambda: massive_roots(0.1, NAN, 0.2),
    "roots-mass_f": lambda: massive_roots(0.1, 1.0, NAN),
}


@pytest.mark.parametrize("make", NOT_A_NUMBER.values(), ids=NOT_A_NUMBER)
def test_not_a_number_refused(make):
    with pytest.raises(DomainError):
        make()


def test_bath_spec_validation():
    with pytest.raises(DomainError):
        BathSpec(beta=0.0)
    with pytest.raises(DomainError):
        BathSpec(beta=1.0, mass_i=-0.1)
    bath = BathSpec(beta=math.inf)
    assert bath.constant_squeeze().eta == 0.0
