"""Spin-qubit coherence toolkit for dilute electron spin baths.

Cluster-correlation-expansion decoherence simulation for an NV-center
qubit in P1 electron spin baths, random bath generation on the diamond
lattice, coherence-time distribution statistics, maximum-likelihood bath
density estimation, and strong-coupling yield analysis versus bath
dimensionality.
"""

__version__ = "0.1.0"

from .constants import (
    CONSTANTS,
    DEFAULTS,
    CentralSpinParams,
    FieldConfig,
    P1Params,
    PhysicalConstants,
    load_parameters,
    ppm_to_number_density,
)

from .bath import BathConfiguration, BathGeometry, generate_bath
from .cce import (
    CCEConfig,
    HAHN_ECHO,
    RAMSEY,
    cce_coherence,
    ensemble_coherence,
    partition_strong_weak,
)
from .fitting import distribution_stats, fit_stretched_exponential, run_sweep
from .mle import build_library, estimate_density, likelihood_surface
from .validation import run_validation
from .yields import yield_sweep

__all__ = [
    "CONSTANTS", "DEFAULTS", "CentralSpinParams", "FieldConfig", "P1Params",
    "PhysicalConstants", "load_parameters", "ppm_to_number_density",
    "BathConfiguration", "BathGeometry", "generate_bath",
    "CCEConfig", "HAHN_ECHO", "RAMSEY", "cce_coherence",
    "ensemble_coherence", "partition_strong_weak",
    "distribution_stats", "fit_stretched_exponential", "run_sweep",
    "build_library", "estimate_density", "likelihood_surface",
    "run_validation", "yield_sweep",
    "__version__",
]
