import numpy as np
import pytest

from sqbath import (
    BathSpec,
    MassProfile,
    OscillatorSpec,
    QuadratureConfig,
    SqueezeParam,
)
from sqbath.cli import squeeze_spectrum as cli_squeeze_spectrum
from sqbath.oscillator_dynamics import _node_factors, _part
from sqbath.parametric_mode import squeeze_spectrum


def clear_node_memos():
    """Drop the memoized bilinear-form parts, the cached node tables and
    the solved squeeze spectra; a part served from its memo would not
    touch the node tables at all, and a spectrum served from its cache
    would not run the mode solver.  The cache is bound here, at import,
    so a tracer that wraps ``sqbath.cli.squeeze_spectrum`` leaves it
    reachable."""
    _part.cache_clear()
    _node_factors.cache_clear()
    cli_squeeze_spectrum.cache_clear()


@pytest.fixture
def cold_memo():
    """Run the test from empty node memos, as a fresh process would."""
    clear_node_memos()
    yield clear_node_memos
    clear_node_memos()


@pytest.fixture(scope="session")
def spec():
    """Workhorse oscillator: m = 1, Omega = 1, gamma = 0.1."""
    return OscillatorSpec.from_resonance(m=1.0, Omega=1.0, gamma=0.1)


@pytest.fixture(scope="session")
def quad():
    return QuadratureConfig(cutoff=1000.0)


@pytest.fixture(scope="session")
def bath_thermal():
    return BathSpec(beta=0.3)


@pytest.fixture(scope="session")
def bath_squeezed():
    return BathSpec(beta=0.3, squeeze=SqueezeParam(eta=1.0, theta=0.0))


@pytest.fixture(scope="session")
def tanh_profile():
    """Canonical ramp: massless to m_f = 0.5 over two time units."""
    return MassProfile(mass_i=0.0, mass_f=0.5, t_i=0.0, t_f=2.0)


@pytest.fixture(scope="session")
def tanh_spectrum(tanh_profile):
    return squeeze_spectrum(tanh_profile, np.geomspace(0.02, 60.0, 64))


@pytest.fixture(scope="session")
def bath_parametric(tanh_spectrum, tanh_profile):
    return BathSpec(
        beta=1.0,
        squeeze=tanh_spectrum,
        mass_i=tanh_profile.mass_i,
        mass_f=tanh_profile.mass_f,
    )
