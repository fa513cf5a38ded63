"""
sqbath: a quantum Brownian oscillator in squeezed thermal field baths.

Covariance dynamics driven by constant-squeeze, parametrically squeezed
and plain thermal scalar-field baths; energy balance between noise input
and dissipation output; generalized fluctuation-dissipation relations;
and the finite-coupling squeezing acquired by the oscillator itself.
"""

from .bath_kernels import (
    BathSpec,
    KernelValue,
    SqueezeSpectrum,
    bath_fdr,
    coth_expansion,
    hadamard_coincident,
    load_spectrum_csv,
    retarded_massive,
    save_spectrum_csv,
)
from .energy_fdr import (
    FdrReport,
    FluxReport,
    fdr_oscillator,
    flux_report,
    gamma_kernel_check,
    jn_falloff,
    power_in,
    power_out,
)
from .errors import (
    BelowThresholdError,
    CausalityError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    EstimationError,
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
    amplified_number,
    covariance_from_decomposition,
    effective_temp_squeezed,
    effective_temperature,
    extract_squeeze,
    free_squeezed_variance,
    squeezed_thermal_moments,
    two_mode_out_number,
    two_mode_vacuum_amplitude,
)
from .oscillator_dynamics import (
    MassiveOscParams,
    OscillatorSpec,
    chi_hadamard,
    covariance_evolution,
    covariance_integral_parts,
    d2_fourier,
    f_aux,
    fdot_aux,
    fundamental_solutions,
    g_aux,
    massive_roots,
    ns_st_split,
)
from .parametric_mode import (
    MassProfile,
    ModeSolution,
    ProfileShape,
    bogoliubov_from_mode,
    integrate_mode,
    squeeze_spectrum,
)
from .quadrature import QuadratureConfig, bessel_j1

__version__ = "0.1.0"
