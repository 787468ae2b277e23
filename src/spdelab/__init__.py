"""Simulation and verification lab for exponential-integrator spectral
Galerkin schemes driven by space-time white noise with rough bounded drifts.

Only the names the command line uses are re-exported here; every other
public name is imported from its own module.
"""

from .spectral import (
    ModeVector,
    SpectralOperator,
    check_trace_condition,
    make_heat_operator,
    make_power_law_operator,
)
from .drift import HolderDriftSpec, verify_mode_holder, verify_time_holder
from .noise import NoiseLattice
from .scheme import (
    InitialData,
    SchemeConfig,
    SimulationError,
    initial_domain_check,
    simulate_path,
    write_trajectory_csv,
)
from .analysis import (
    ConvergenceReport,
    HypothesisViolation,
    RateParams,
    increment_statistic,
    rate_exponent,
    spatial_study,
    temporal_study,
    theoretical_nu,
)
from .kolmogorov import kolmogorov_suite

__version__ = "0.1.0"

__all__ = [
    "ModeVector",
    "SpectralOperator",
    "check_trace_condition",
    "make_heat_operator",
    "make_power_law_operator",
    "HolderDriftSpec",
    "verify_mode_holder",
    "verify_time_holder",
    "NoiseLattice",
    "InitialData",
    "SchemeConfig",
    "SimulationError",
    "initial_domain_check",
    "simulate_path",
    "write_trajectory_csv",
    "ConvergenceReport",
    "HypothesisViolation",
    "RateParams",
    "increment_statistic",
    "rate_exponent",
    "spatial_study",
    "temporal_study",
    "theoretical_nu",
    "kolmogorov_suite",
    "__version__",
]
