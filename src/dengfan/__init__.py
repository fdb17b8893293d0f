"""Quantum reflection and transmission coefficients for the symmetric
barrier-type shifted Deng-Fan potential: closed-form hypergeometric solution
plus an independent ODE-integration oracle.
"""

from .hyp2f1 import (GammaPoleError, Hyp2F1Error, Hyp2F1Request, NoConvergenceError,
                     PoleAtCError, gauss_2f1, gauss_2f1_lanes, lngamma_complex)
from .model import (BarrierParams, SideCoefficients, barrier_top, compute_b,
                    potential, side_coefficients)
from .oracle import (BoundaryNotDecayedError, IntegrationConfig, OracleError,
                     OracleResult, StepTooCoarseError, default_config,
                     integrate_scatter, plane_wave_decompose)
from .reference import DEFAULT_PARAMS, TABLE1
from .scatter import (MatchCoefficients, ScatteringResult, SingularMatchingError,
                      compute_rt, match_coefficients, scan, solve_amplitudes)

__version__ = "0.1.0"

__all__ = [
    "BarrierParams",
    "SideCoefficients",
    "compute_b",
    "potential",
    "barrier_top",
    "side_coefficients",
    "Hyp2F1Request",
    "Hyp2F1Error",
    "PoleAtCError",
    "NoConvergenceError",
    "GammaPoleError",
    "gauss_2f1",
    "gauss_2f1_lanes",
    "lngamma_complex",
    "MatchCoefficients",
    "ScatteringResult",
    "SingularMatchingError",
    "match_coefficients",
    "solve_amplitudes",
    "compute_rt",
    "scan",
    "IntegrationConfig",
    "OracleResult",
    "OracleError",
    "BoundaryNotDecayedError",
    "StepTooCoarseError",
    "default_config",
    "integrate_scatter",
    "plane_wave_decompose",
    "DEFAULT_PARAMS",
    "TABLE1",
    "__version__",
]
