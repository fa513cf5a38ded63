"""The per-node callbacks agree with their array forms.

QUADPACK calls the kernels with one Python float per node.  The squeeze
spectrum's float lookup must equal scipy's PCHIP, the array lookup of
``tests/oracles.py``, exactly (``==``).  The base row of the node
tables, the bath measure and a spectrum's weights, is computed in
``math``/``cmath`` arithmetic, whose tanh, cosh and sinh may differ from
numpy's in the last bit: each row must agree with the array
oracles of ``tests/oracles.py`` within 4 ulp relative, and must not
raise where numpy gives a finite value.  The array oracles of the
thermal factors, which the rows are compared with element by element,
and the mass profile of the mode ODE, called on arrays only, must give
an argument the same bits in a batch of any size.  A constant-weight
kernel computes on float pairs, and a kernel of the real |d2~|^2 factor
on floats, and each must give the bits of the real part of the complex
product it writes out.
"""

import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from oracles import (
    bath_measure,
    coth_half_beta,
    eta_at,
    omega_coth_half_beta,
    spectrum_weights,
    theta_at,
)
from sqbath import BathSpec, QuadratureConfig, SqueezeParam
from sqbath.bath_kernels import SqueezeSpectrum, _base_row, _pchip_pieces, bath_mix
from sqbath.oscillator_dynamics import (
    _kernel,
    _node_factors,
    effective_response,
)
from sqbath.parametric_mode import MassProfile, ProfileShape


def assert_0d_equals_1d(fn, points):
    """fn on a 0-d array equals fn on a 1-d array, element by element."""
    points = [float(x) for x in points]
    for x, from_vector in zip(points, fn(np.array(points))):
        from_0d = fn(np.asarray(x))
        assert from_0d == from_vector, (x, from_0d, from_vector)


def assert_lookup_equal(lookup, oracle, spectrum, points):
    """The float lookup of ``spectrum`` is a float equal to the array
    oracle at every point."""
    points = [float(x) for x in points]
    for x, want in zip(points, oracle(spectrum, np.array(points))):
        value = lookup(x)
        assert type(value) is float, x
        assert value == want, (x, value, want)


ROW_ULPS = 4  # math's tanh, exp, cosh, sinh against numpy's, in units of eps


def assert_row_close(values, oracle):
    """Row values within ROW_ULPS eps of the array oracle, relative to
    each oracle value (an exact 0 must be 0)."""
    values, oracle = np.array(values), np.asarray(oracle)
    error = np.abs(values - oracle)
    bound = ROW_ULPS * np.finfo(float).eps * np.abs(oracle)
    worst = int(np.argmax(error - bound))
    assert np.all(error <= bound), (worst, values[worst], oracle[worst])


BETAS = (0.3, 1.0, 10.0, math.inf)
# dense sets: a last-bit difference between the paths shows on a few
# percent of the arguments only
SPREAD = np.geomspace(1e-7, 1e3, 301)


@pytest.mark.parametrize("beta", BETAS)
def test_omega_coth_half_beta(beta):
    patch = 1e-3 / beta if math.isfinite(beta) else 1e-3
    points = [0.0, 1e-9, -1e-9, 0.3 * patch, -0.3 * patch, 0.999 * patch,
              1.001 * patch, 0.7, -0.7, 42.0, 999.9, *SPREAD, *-SPREAD]
    assert_0d_equals_1d(lambda w: omega_coth_half_beta(w, beta), points)
    if math.isfinite(beta):
        assert omega_coth_half_beta(0.0, beta) == 2.0 / beta
    else:
        assert omega_coth_half_beta(-0.7, beta) == -0.7


@pytest.mark.parametrize("beta", BETAS)
def test_coth_half_beta(beta):
    points = [1e-6, -1e-6, 0.7, -0.7, 42.0, -42.0, *SPREAD, *-SPREAD]
    if math.isinf(beta):
        points.append(0.0)
    assert_0d_equals_1d(lambda w: coth_half_beta(w, beta), points)
    if math.isinf(beta):
        assert coth_half_beta(-0.7, beta) == -1.0
        assert coth_half_beta(0.0, beta) == 1.0


@pytest.fixture(scope="module")
def spectrum():
    k = np.geomspace(0.02, 60.0, 16)
    eta = 0.3 * np.exp(-k) + 1e-3 / (1.0 + k)
    theta = 2.5 * np.tanh(k) + 0.1 * k  # wraps past pi
    return SqueezeSpectrum(k, eta, np.angle(np.exp(1j * theta)))


def spectrum_points(spec):
    k = spec.k
    return [k[0], k[5], k[-1], 0.5 * (k[5] + k[6]), 0.37 * k[3] + 0.63 * k[4],
            0.5 * k[0], 1e-9, 1.5 * k[-1], 1e9]


def test_spectrum_lookup(spectrum):
    points = spectrum_points(spectrum)
    assert_lookup_equal(spectrum.eta_at, eta_at, spectrum, points)
    assert_lookup_equal(spectrum.theta_at, theta_at, spectrum, points)
    assert spectrum.eta_at(1.5 * float(spectrum.k[-1])) == 0.0
    assert spectrum.theta_at(1.5 * float(spectrum.k[-1])) == 0.0
    assert spectrum.eta_at(1e-9) == spectrum.eta[0]


@pytest.fixture(scope="module")
def dipping_spectrum():
    """eta falls to 0 at knot 6 and at the last knot, where the cubic
    pieces round to just below 0."""
    k = np.geomspace(0.02, 60.0, 16)
    eta = 0.3 * np.exp(-k / 10.0)
    eta[6] = eta[-1] = 0.0
    return SqueezeSpectrum(k, eta, np.angle(np.exp(1j * 2.5 * np.tanh(k))))


def test_spectrum_lookup_at_knots_and_ends(spectrum, dipping_spectrum):
    # at every knot the float lookup takes scipy's piece, k_max is
    # evaluated on the last piece (not zeroed as above the grid) and k
    # below the first knot is held there
    for spec in (spectrum, dipping_spectrum):
        k = spec.k
        points = [*k, np.nextafter(k[-1], 0.0), 0.5 * k[0], np.nextafter(k[0], 0.0), 0.0]
        assert_lookup_equal(spec.eta_at, eta_at, spec, points)
        assert_lookup_equal(spec.theta_at, theta_at, spec, points)
        for below in (0.5 * float(k[0]), 0.0):
            assert spec.eta_at(below) == spec.eta[0]
            assert spec.theta_at(below) == spec.theta[0]
        at_max = PchipInterpolator(k, np.unwrap(spec.theta))(k[-1])
        assert spec.theta_at(float(k[-1])) == at_max != 0.0
    k_max = float(spectrum.k[-1])
    assert spectrum.eta_at(k_max) == PchipInterpolator(spectrum.k, spectrum.eta)(k_max) > 0.0


def test_negative_eta_piece_is_clamped(dipping_spectrum):
    # the pieces around a zero sample round below 0 at a few points; the
    # lookup clamps them to 0
    k, eta = dipping_spectrum.k, dipping_spectrum.eta
    below_zero_knot = k[6] - np.linspace(0.0, 1e-3, 100001)[1:] * (k[6] - k[5])
    points = np.append(below_zero_knot, k[-1])
    raw = PchipInterpolator(k, eta)(points)
    negative = points[raw < 0.0]
    assert negative.size >= 2 and negative[-1] == k[-1]
    assert_lookup_equal(dipping_spectrum.eta_at, eta_at, dipping_spectrum, negative)
    assert [dipping_spectrum.eta_at(float(x)) for x in negative] == [0.0] * negative.size


def test_spectrum_lookup_is_scipy_pchip(spectrum):
    # the cubic pieces are summed in scipy's order, so the bits are scipy's
    k = spectrum.k
    grid = np.concatenate([k, np.geomspace(k[0], k[-1], 2001)])
    eta = PchipInterpolator(k, spectrum.eta, extrapolate=False)(grid)
    theta = PchipInterpolator(k, np.unwrap(spectrum.theta), extrapolate=False)(grid)
    assert [spectrum.eta_at(float(x)) for x in grid] == list(np.maximum(eta, 0.0))
    assert [spectrum.theta_at(float(x)) for x in grid] == list(theta)


PCHIP_SAMPLES = {
    "two-knots": [0.3, -1.2],
    "three-knots": [0.0, 1.0, 0.5],
    "monotone": list(np.cumsum(np.linspace(0.1, 2.0, 12))),
    "flats-and-turns": [0.0, 0.0, 1.0, 1.0, 0.2, -0.5, -0.5, 3.0, 2.9, 2.9, 0.0, 4.0],
    "end-overshoot": [0.0, 5.0, 5.1, 5.0, 0.0, -0.1, 2.0, 9.0],
    "decaying": list(0.3 * np.exp(-np.geomspace(0.02, 60.0, 16))),
}


@pytest.mark.parametrize("y", PCHIP_SAMPLES.values(), ids=PCHIP_SAMPLES.keys())
def test_pchip_coefficients_are_scipys(y):
    # the slopes and pieces repeat scipy's numpy operations, so the
    # coefficients agree bit for bit, the end-knot clipping included
    x = np.cumsum(np.linspace(0.05, 1.7, len(y))) ** 1.3
    ours = _pchip_pieces(x, np.array(y))
    scipys = PchipInterpolator(x, np.array(y), extrapolate=False)
    np.testing.assert_array_equal(np.array(ours).T, scipys.c)


@pytest.mark.parametrize(
    "bath, quad",
    [
        (BathSpec(beta=0.3), QuadratureConfig(cutoff=1000.0)),
        (BathSpec(beta=math.inf), QuadratureConfig(epsilon=1e-3)),
        (BathSpec(beta=10.0, squeeze=SqueezeParam(1.0, 0.4)), QuadratureConfig(cutoff=1000.0)),
        ("spectrum", QuadratureConfig(cutoff=50.0, epsilon=1e-3)),
    ],
    ids=["thermal", "zero-temperature", "squeezed", "massive-spectrum"],
)
def test_bath_mix(bath, quad, spectrum):
    if bath == "spectrum":
        bath = BathSpec(beta=1.0, squeeze=spectrum, mass_i=0.2, mass_f=0.5)
    spectral = isinstance(bath.squeeze, SqueezeSpectrum)
    assert (bath_mix(bath, quad) is None) is spectral
    row = _base_row(bath, quad.epsilon)
    lower = bath.mass_i
    points = [lower, lower + 1e-7, lower + 0.01, 0.7, 3.3, 49.0, *(lower + SPREAD)]
    points = [float(x) for x in points]
    oracles = [bath_measure(bath.beta, bath.mass_i, quad)(points)]
    if spectral:
        oracles += spectrum_weights(bath.squeeze, bath.mass_i)(points)
    # the row holds the measure as a Python float, then a squeeze
    # spectrum's weights as a float and a complex, the same bits on a
    # repeated evaluation
    first = list(zip(*(row(x) for x in points)))
    assert len(first) == (3 if spectral else 1)
    assert list(zip(*(row(x) for x in points))) == first
    for values, oracle, kind in zip(first, oracles, (float, float, complex)):
        assert {type(value) for value in values} == {kind}
        assert_row_close(values, oracle)


@pytest.mark.parametrize("epsilon", [0.0, 1e-2])
@pytest.mark.parametrize("beta", [0.3, math.inf])
@pytest.mark.parametrize("mass_i", [0.0, 0.2])
def test_base_row_edge_points(mass_i, beta, epsilon, spectrum):
    # the threshold, w = 0, both sides of the series patch at b w = 1e-3
    # and far nodes: where numpy gives a finite value the row gives it
    # within ROW_ULPS, without a ZeroDivisionError or an OverflowError
    bath = BathSpec(beta=beta, squeeze=spectrum, mass_i=mass_i, mass_f=0.5)
    quad = QuadratureConfig(cutoff=1e4, epsilon=epsilon)
    patch = 1e-3 / beta if math.isfinite(beta) else 1e-3
    points = [0.0, mass_i, float(np.nextafter(mass_i, 1.0)), 0.999 * patch, patch,
              1.001 * patch, mass_i + patch, 1.0, 1e3, 1e4, 1e6]
    with np.errstate(all="ignore"):
        oracles = [bath_measure(beta, mass_i, quad)(points),
                   *spectrum_weights(spectrum, mass_i)(points)]
    row = _base_row(bath, quad.epsilon)
    rows = [np.array(values) for values in zip(*(row(x) for x in points))]
    for values, oracle in zip(rows, oracles):
        finite = np.isfinite(oracle)
        assert_row_close(values[finite], oracle[finite])
        assert np.all(np.isfinite(values))
    # numpy's massive measure at w = 0 is 0 * coth(0), nan at finite
    # beta; the row's is 0, as everywhere below the threshold
    assert rows[0][0] == (0.0 if mass_i or math.isinf(beta) else oracles[0][0])


# (c0, c1, c2) as the response expander builds them, floats and complex
PAIR_COEFFS = {
    "all-parts": (0.3 - 1.7j, -2.1 + 0.4j, 0.05 + 1.3j),
    "c2-zero": (1.1 + 0.2j, -0.7 - 3.0j, 0.0),
    "c1-c2-zero": (-0.9 + 2.5j, 0.0, 0.0),
    "imaginary-linear": (0.0, 1.7j, 0.0),
    "real-even": (2.0, 0.0, -0.6),
    "negative-zeros": (complex(-0.0, 1.2), complex(0.8, -0.0), complex(-0.0, -0.0)),
}


@pytest.mark.parametrize("coeffs", PAIR_COEFFS.values(), ids=PAIR_COEFFS.keys())
def test_pair_kernels(coeffs, spec, quad, spectrum, cold_memo):
    # every kernel is the real part of its complex product: on the
    # coefficients c it must give the bits of .real of the product, and
    # on the rotation -i c, which the expander builds for a sin term, the
    # bits of .imag of the product on c.  A constant-weight kernel reads
    # the (re, im) pairs of tables 0 and 1; table 2, the measure times
    # |d2~|^2, holds floats in both sets and has one-product kernels; a
    # spectrum's kernels over tables 0 and 1 read its complex table 4
    bath = BathSpec(beta=0.3)
    tables = _node_factors(bath, quad, effective_response(spec, bath))
    spectral = BathSpec(beta=0.3, squeeze=spectrum, mass_f=0.5)
    spectral_tables = _node_factors(spectral, quad, effective_response(spec, spectral))
    row = _base_row(bath, quad.epsilon)
    rotated = tuple(-1j * c for c in coeffs)
    c0, c1, c2 = coeffs
    points = [float(x) for x in SPREAD]
    assert {type(m) for w in points for m in row(w)} == {float}
    assert {type(t[2][w]) for t in (tables, spectral_tables) for w in points} == {float}

    def product(scaled, weight, w):
        """The complex product on c at w."""
        value = scaled[w]
        value = (complex(*value) if type(value) is tuple else value) * (c0 + w * (c1 + w * c2))
        return value if weight is None else value * weight[w]

    kernels = [(table, None) for table in tables]
    kernels += [(spectral_tables[i], spectral_tables[j]) for i, j in ((2, 3), (0, 4), (1, 4))]
    for scaled, weight in kernels:
        on_c, on_r = _kernel(scaled, weight, coeffs), _kernel(scaled, weight, rotated)
        for w in points:
            want = product(scaled, weight, w)
            assert on_c(w) == want.real, (scaled.index, w)
            assert on_r(w) == want.imag, (scaled.index, w)


@pytest.mark.parametrize(
    "shape, order",
    [(ProfileShape.TANH, 2), (ProfileShape.SMOOTHSTEP, 1), (ProfileShape.SMOOTHSTEP, 2),
     (ProfileShape.SMOOTHSTEP, 3), (ProfileShape.STEP, 2)],
)
def test_mass_sq(shape, order):
    # the lockstep mode solve passes arrays of times only, one per live
    # mode: a time gives the same bits whichever batch it is in
    prof = MassProfile(mass_i=0.1, mass_f=0.6, t_i=1.0, t_f=3.0, shape=shape,
                       smoothstep_order=order)
    points = np.array([0.0, 0.5, 1.0, 1.0 + 1e-9, 1.3, 2.0, 2.7, 3.0 - 1e-9, 3.0, 7.5,
                       *np.linspace(0.9, 3.1, 301)])
    k = np.full_like(points, 0.3)
    batch, omega_batch = prof.mass_sq(points), prof.omega_sq(k, points)
    for i, t in enumerate(points):
        assert prof.mass_sq(np.array([t]))[0] == batch[i], t
        assert prof.omega_sq(k[i:i + 1], np.array([t]))[0] == omega_batch[i], t
    assert prof.mass_sq(np.array([0.5]))[0] == 0.1**2
    assert prof.mass_sq(np.array([7.5]))[0] == 0.6**2
    # one (stage times, modes) table per step: each row has the bits of
    # its own 1-D call
    ks = np.geomspace(0.02, 60.0, 7)
    table = points[: 13 * ks.size].reshape(13, ks.size)
    omega_table = prof.omega_sq(ks, table)
    assert omega_table.shape == table.shape
    for row, omega_row in zip(table, omega_table):
        assert np.array_equal(prof.omega_sq(ks, row), omega_row)
