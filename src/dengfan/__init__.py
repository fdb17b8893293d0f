"""Quantum reflection and transmission coefficients for the symmetric
barrier-type shifted Deng-Fan potential: closed-form hypergeometric solution
plus an independent ODE-integration oracle.
"""

from .hyp2f1 import Hyp2F1Error, NoConvergenceError, PoleAtCError, gauss_2f1_lanes
from .model import BarrierParams, SideCoefficients, barrier_top, potential, side_coefficients
from .oracle import (BoundaryNotDecayedError, IntegrationConfig, OracleError,
                     OracleResult, StepTooCoarseError, default_config,
                     integrate_scatter)
from .reference import DEFAULT_PARAMS, TABLE1
from .scatter import (MatchCoefficients, ScatteringResult, compute_rt,
                      match_coefficients, scan, solve_amplitudes)

__version__ = "0.1.0"

__all__ = [
    "BarrierParams",
    "SideCoefficients",
    "potential",
    "barrier_top",
    "side_coefficients",
    "Hyp2F1Error",
    "PoleAtCError",
    "NoConvergenceError",
    "gauss_2f1_lanes",
    "MatchCoefficients",
    "ScatteringResult",
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
    "DEFAULT_PARAMS",
    "TABLE1",
    "__version__",
]
