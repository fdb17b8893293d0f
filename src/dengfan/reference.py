"""Reference data for the default barrier configuration.

DEFAULT_PARAMS is the parameter set v0 = 1.25, a = x_e = q = q_tilde = 0.8,
m = 1 (atomic units).  TABLE1 holds the published transmission/reflection
values for that configuration on the energy grid 0.005 .. 0.100 (step 0.005),
used by the ``--table1`` preset and the verify command.
"""

from __future__ import annotations

from .model import BarrierParams

DEFAULT_PARAMS = BarrierParams(v0=1.25, a=0.8, x_e=0.8, q=0.8, q_tilde=0.8, m=1.0)

# rows: (E, T, R)
TABLE1: tuple[tuple[float, float, float], ...] = (
    (0.005, 0.0992153, 0.900785),
    (0.010, 0.0559170, 0.944083),
    (0.015, 0.0411413, 0.958859),
    (0.020, 0.0337481, 0.966252),
    (0.025, 0.0293473, 0.970653),
    (0.030, 0.0264526, 0.973547),
    (0.035, 0.0244214, 0.975579),
    (0.040, 0.0229305, 0.977069),
    (0.045, 0.0217998, 0.978200),
    (0.050, 0.0209209, 0.979079),
    (0.055, 0.0202247, 0.979775),
    (0.060, 0.0196651, 0.980335),
    (0.065, 0.0192101, 0.980790),
    (0.070, 0.0188371, 0.981163),
    (0.075, 0.0185293, 0.981471),
    (0.080, 0.0182742, 0.981726),
    (0.085, 0.0180621, 0.981938),
    (0.090, 0.0178858, 0.982114),
    (0.095, 0.0177393, 0.982261),
    (0.100, 0.0176180, 0.982382),
)
