"""Barrier model: physical parameters, the potential, and per-region wave data.

The potential is a molecular exponential-type well that has been cut at the
origin and mirrored, producing a central barrier flanked by two shallow wells:

    V(x) = V0 * b * [ b / (e^{a|x|} - q)^2 - 2 / (e^{a|x|} - q) ],
    b = e^{a*x_e} - q,

with deformation q for x < 0 and q_tilde for x >= 0.  Units are atomic with
hbar = 1, so the stationary wave equation reads psi'' + 2m(E - V)psi = 0 and
the asymptotic wave number is k = sqrt(2mE).

Substituting y = q*e^{ax} (left) or y = q_tilde*e^{-ax} (right) turns each
region's wave equation into a Gauss hypergeometric equation; this module
computes every scalar entering those solutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

Side = Literal["left", "right"]
TauBranch = Literal["plus", "minus"]
SqrtBranch = Literal["plus", "minus"]

__all__ = [
    "BarrierParams",
    "SideCoefficients",
    "compute_b",
    "potential",
    "barrier_top",
    "side_coefficients",
]


@dataclass(frozen=True)
class BarrierParams:
    """Inputs defining the barrier and the incident particle.

    Attributes
    ----------
    v0 : float
        Well depth / dissociation energy, >= 0.
    a : float
        Inverse potential range, > 0.
    x_e : float
        Equilibrium distance of the underlying well, >= 0.
    q : float
        Deformation for the region x < 0, in (0, 1).
    q_tilde : float
        Deformation for the region x >= 0, in (0, 1).
    m : float
        Particle mass, > 0.
    """

    v0: float = 1.25
    a: float = 0.8
    x_e: float = 0.8
    q: float = 0.8
    q_tilde: float = 0.8
    m: float = 1.0

    def __post_init__(self) -> None:
        for name in ("v0", "a", "x_e", "q", "q_tilde", "m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.v0 < 0:
            raise ValueError(f"v0 must be >= 0, got {self.v0}")
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")
        if self.x_e < 0:
            raise ValueError(f"x_e must be >= 0, got {self.x_e}")
        if self.m <= 0:
            raise ValueError(f"m must be > 0, got {self.m}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.q_tilde < 1.0:
            raise ValueError(f"q_tilde must lie in (0, 1), got {self.q_tilde}")

@dataclass
class SideCoefficients:
    """Every scalar feeding one region's hypergeometric solution, at one
    energy or, field by field, at an array of energies.

    For the right region the chi values play the role that chi4..chi6 play
    in the left region; they are stored in the same slots.
    """

    side: Side
    E: float
    k: float
    chi1: float
    chi2: float
    chi3: float
    epsilon: float
    sigma: complex
    tau: float
    alpha: complex
    beta: complex
    gamma: complex


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def compute_b(params: BarrierParams) -> float:
    """Shape constant b = exp(a*x_e) - q.

    Both regions share this value; it is always built from q, not q_tilde,
    even for asymmetric deformations.
    """
    return math.exp(params.a * params.x_e) - params.q


def potential(x: Union[float, ArrayLike], params: BarrierParams) -> Union[float, NDArray]:
    """Evaluate the barrier potential at x (scalar or array).

    Uses deformation q for x < 0 and q_tilde for x >= 0; with q == q_tilde
    the result is an even function of x.  The denominator e^{a|x|} - q is
    bounded below by 1 - q > 0, so the expression is finite everywhere.
    """
    b = compute_b(params)
    xs = np.asarray(x, dtype=float)
    qq = np.where(xs < 0, params.q, params.q_tilde)
    # 1/(e^{a|x|} - q) = t/(1 - q t) with t = e^{-a|x|}; t underflows to 0
    # at large |x| instead of e^{a|x|} overflowing
    t = np.exp(-params.a * np.abs(xs))
    g = t / (1.0 - qq * t)
    v = params.v0 * b * (b * g - 2.0) * g
    if np.isscalar(x) or xs.ndim == 0:
        return float(v)
    return v


def barrier_top(params: BarrierParams) -> float:
    """Barrier maximum V(0)."""
    return float(potential(0.0, params))


def side_coefficients(
    E,
    params: BarrierParams,
    side: Side = "left",
    tau_branch: TauBranch = "plus",
    sqrt_branch: SqrtBranch = "plus",
) -> SideCoefficients:
    """Derive the per-region scalars for scattering energies E > 0.

    E is one energy or a 1-D array of them, and every field that depends on
    E is a numpy scalar or an array of E's shape; the two round alike.
    chi1 is recovered by negating the combination

        -chi1 = -2mE/a^2 + 2mV0 b^2/(a^2 q^2) + 4mV0 b/(a^2 q)

    (with q_tilde in place of q on the right).  epsilon = chi1 + chi2 + chi3
    collapses algebraically to -2mV0 b^2/(a^2 q^2) and is independent of E;
    it and tau are floats.  sigma = ik/a encodes the asymptotic plane wave,
    tau solves tau^2 - tau + epsilon = 0 on the requested branch, and

        alpha, beta = sigma + tau -/+ sqrt(-chi1),   gamma = 1 + 2*sigma.

    sqrt_branch flips the sign of sqrt(-chi1), exchanging alpha and beta;
    physical outputs must not depend on either branch choice.
    """
    E = np.float64(E) if np.isscalar(E) else np.array(E, dtype=float, ndmin=1, copy=None)
    if np.count_nonzero((E > 0.0) & (E < math.inf)) < E.size:
        raise ValueError(f"scattering requires finite E > 0, got {E}")
    _check_side(side)
    if tau_branch not in ("plus", "minus"):
        raise ValueError(f"tau_branch must be 'plus' or 'minus', got {tau_branch!r}")
    if sqrt_branch not in ("plus", "minus"):
        raise ValueError(f"sqrt_branch must be 'plus' or 'minus', got {sqrt_branch!r}")

    qs = params.q if side == "left" else params.q_tilde
    b = compute_b(params)
    a2 = params.a * params.a
    two_m = 2.0 * params.m

    well = two_m * params.v0 * b * b / (a2 * qs * qs)
    cross = 2.0 * two_m * params.v0 * b / (a2 * qs)
    epsilon = -well
    disc = 0.5 * math.sqrt(1.0 - 4.0 * epsilon)  # epsilon <= 0 for v0 >= 0
    tau = 0.5 + disc if tau_branch == "plus" else 0.5 - disc

    chi3 = (two_m / a2) * E
    chi1 = chi3 - (well + cross)
    chi2 = cross - (chi3 + chi3)
    k = np.sqrt(two_m * E)
    sigma = k * (1j / params.a)
    root = np.sqrt(-chi1, dtype=complex)
    if sqrt_branch == "minus":
        root = -root
    shifted = sigma + tau
    alpha = shifted - root
    beta = shifted + root
    # 1 + 2*sigma, bit for bit (sigma is imaginary, so doubling is exact)
    gamma = 1.0 + k * (2j / params.a)
    return SideCoefficients(side=side, E=E, k=k, chi1=chi1, chi2=chi2, chi3=chi3,
                            epsilon=epsilon, sigma=sigma, tau=tau, alpha=alpha,
                            beta=beta, gamma=gamma)
