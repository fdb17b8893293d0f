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
computes every quantity entering those solutions, field by field over a lane
(a 1-D array) of energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "BarrierParams",
    "SideCoefficients",
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

    The package is checked on the box v0 in [0.05, 2.5], a in [0.5, 1.6],
    x_e in [0, 1.2], m in [0.5, 1.5], 1 - q and 1 - q_tilde in [1e-3, 0.7]
    and E/v0 in [1e-6, 1e2].  Energies have an upper edge, which moves with
    q (``compute_rt``): at the defaults a 2F1 series overflows from E/V_max
    = 4.01e4 (E/v0 = 7.7e5) on, and at q = q_tilde = 0.999 one does not
    converge from E/V_max = 0.09 (E/v0 = 7.2e4) on; both lie above the box.
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
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
        # V(0) leaves the float range near a x_e = 355, and exp(a x_e) raises from 710 on
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                top = barrier_top(self)
        except OverflowError:
            top = math.inf
        if not math.isfinite(top):
            raise ValueError(f"the barrier top V(0) must be finite, got {top} "
                             f"(a = {self.a}, x_e = {self.x_e})")
        # a tiny a or deformation underflows (a q)^2 to 0 or overflows the well term
        for name, qs in (("q", self.q), ("q_tilde", self.q_tilde)):
            try:
                well = _side_terms(self, qs)[0]
            except ZeroDivisionError:
                well = math.inf
            if not math.isfinite(well):
                raise ValueError(f"the well term 2m v0 b^2/(a {name})^2 must be finite, "
                                 f"got {well} (a = {self.a}, {name} = {qs})")


@dataclass
class SideCoefficients:
    """Every scalar feeding one region's hypergeometric solution, field by
    field over a 1-D array (a lane) of energies; epsilon and tau do not
    depend on E and are floats.  For the right region the chi values play
    the role that chi4 and chi6 play in the left one, in the same slots."""

    E: NDArray
    k: NDArray
    chi1: NDArray
    chi3: NDArray
    epsilon: float
    sigma: NDArray
    tau: float
    alpha: NDArray
    beta: NDArray
    gamma: NDArray


def _compute_b(params: BarrierParams) -> float:
    """Shape constant b = exp(a*x_e) - q, shared by both regions: always
    built from q, never q_tilde."""
    return math.exp(params.a * params.x_e) - params.q


def _side_terms(params: BarrierParams, qs: float) -> tuple[float, float]:
    """The E-free terms of -chi1 on the side of deformation qs: the well
    term 2m v0 b^2/(a^2 qs^2), which is -epsilon, and 4m v0 b/(a^2 qs)."""
    b = _compute_b(params)
    a2 = params.a * params.a
    two_m = 2.0 * params.m
    return two_m * params.v0 * b * b / (a2 * qs * qs), 2.0 * two_m * params.v0 * b / (a2 * qs)


def _energies(E) -> NDArray:
    """``E``, one energy or a non-empty 1-D array of finite energies > 0, as a
    1-D array (no copy if it is one): both solvers' one energy check."""
    es = np.array(E, dtype=float, ndmin=1, copy=None)
    if es.ndim != 1 or es.size == 0:
        raise ValueError(f"E must be one energy or a non-empty 1-D array, got shape {es.shape}")
    if np.count_nonzero((es > 0.0) & (es < math.inf)) < es.size:
        raise ValueError(f"E must be > 0 and finite, got {E!r}")
    return es


def potential(x: Union[float, ArrayLike], params: BarrierParams) -> Union[float, NDArray]:
    """Evaluate the barrier potential at x (scalar or array).

    Uses deformation q for x < 0 and q_tilde for x >= 0; with q == q_tilde
    the result is an even function of x.  The denominator e^{a|x|} - q is
    bounded below by 1 - q > 0, so the expression is finite everywhere.
    """
    b = _compute_b(params)
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


def side_coefficients(E, params: BarrierParams) -> tuple[SideCoefficients, SideCoefficients]:
    """Derive the per-region scalars for scattering energies E > 0, as
    (left, right); ``right is left`` when q == q_tilde.

    E passes ``_energies``, the one energy check; one energy is a lane of
    one, so every field that depends on E is a 1-D array, and E, k, chi3,
    sigma and gamma, which do not depend on the side, are shared by both.
    chi1 is recovered by negating the combination

        -chi1 = -2mE/a^2 + 2mV0 b^2/(a^2 q^2) + 4mV0 b/(a^2 q)

    (with q_tilde in place of q on the right).  epsilon = chi1 + chi2 + chi3,
    with chi2 = 4mV0 b/(a^2 q) - 2 chi3, collapses algebraically to
    -2mV0 b^2/(a^2 q^2) and is independent of E; it and tau are floats.
    sigma = ik/a encodes the asymptotic plane wave, tau is the larger root
    of tau^2 - tau + epsilon = 0, and

        alpha, beta = sigma + tau -/+ sqrt(-chi1),   gamma = 1 + 2*sigma.

    The sign of sqrt(-chi1) is fixed: flipping it would only exchange alpha
    and beta, which 2F1 is symmetric in.
    """
    E = _energies(E)
    two_m = 2.0 * params.m
    chi3 = (two_m / (params.a * params.a)) * E
    k = np.sqrt(two_m * E)
    sigma = k * (1j / params.a)
    # 1 + 2*sigma, bit for bit (sigma is imaginary, so doubling is exact)
    gamma = 1.0 + k * (2j / params.a)
    lane = (E, k, chi3, sigma, gamma)
    left = _on_side(lane, params, params.q)
    if params.q == params.q_tilde:
        return left, left
    return left, _on_side(lane, params, params.q_tilde)


def _on_side(lane, params: BarrierParams, qs: float) -> SideCoefficients:
    """One side's ``SideCoefficients``, deformation qs, from the fields
    lane = (E, k, chi3, sigma, gamma) that the two sides share."""
    E, k, chi3, sigma, gamma = lane
    well, cross = _side_terms(params, qs)
    epsilon = -well
    tau = 0.5 + 0.5 * math.sqrt(1.0 - 4.0 * epsilon)  # epsilon <= 0 for v0 >= 0

    chi1 = chi3 - (well + cross)
    root = np.sqrt(-chi1, dtype=complex)
    shifted = sigma + tau
    alpha = shifted - root
    beta = shifted + root
    return SideCoefficients(E=E, k=k, chi1=chi1, chi3=chi3, epsilon=epsilon, sigma=sigma,
                            tau=tau, alpha=alpha, beta=beta, gamma=gamma)
