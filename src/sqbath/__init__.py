"""
sqbath: a quantum Brownian oscillator in squeezed thermal field baths.

Covariance dynamics driven by constant-squeeze, parametrically squeezed
and plain thermal scalar-field baths; energy balance between noise input
and dissipation output; generalized fluctuation-dissipation relations;
and the finite-coupling squeezing acquired by the oscillator itself.
"""

from .bath_kernels import BathSpec, SqueezeSpectrum
from .energy_fdr import FdrReport, fdr_oscillator, flux_balance, power_in, power_out
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    InvalidStateError,
    ResolutionError,
    SqbathError,
    UnsupportedRegimeError,
)
from .gaussian_state import (
    BogoliubovPair,
    CovarianceState,
    SqueezeParam,
    StateDecomposition,
    extract_squeeze,
)
from .oscillator_dynamics import (
    KernelValue,
    OscillatorSpec,
    chi_hadamard,
    covariance_evolution,
    covariance_integral_parts,
    massive_roots,
    ns_st_split,
)
from .quadrature import QuadratureConfig

__version__ = "0.1.0"
