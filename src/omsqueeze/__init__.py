"""Balanced-homodyne noise spectra of a driven optomechanical cavity.

Forward model (closed-form spectra over frequency and a batched drive,
technical-noise stack, instrument shaping), two independent numerical
oracles, and the inverse problems used to characterize the device.
"""

from .core import (
    CoefficientSet,
    DriveCondition,
    MechanicalMode,
    OpticalMode,
    SystemParams,
    mech_susceptibility,
    quasi_static_spectrum,
    reflection_coefficient,
    spectrum_full,
    spring_and_damping,
    squeezing_cross_term,
    transfer_coefficients,
    zero_transduction_angle,
)
from .estimate import (
    EstimationError,
    FitResult,
    ThermometryCurve,
    fit_thermometry,
    infer_detuning,
)
from .instrument import (
    Scenario,
    SpectrumTrace,
    SqueezingMap,
    assemble_density_map,
    detected_components,
    lock_to_quadrature,
    quadrature_to_lock,
)
from .noise import (
    AbsorptiveNoiseModel,
    BathModel,
    DetectionChain,
    ExtraModeNoise,
    LaserNoiseModel,
    bath_occupation,
    effective_temperature,
    extra_mode_psd,
)
from .oracle import InputCorrelationMatrix, OracleError, matrix_solve_spectrum, sde_time_domain_psd

__version__ = "0.1.0"
