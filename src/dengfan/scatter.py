"""Amplitude matching at the barrier seam and the R/T coefficients.

In each region the wave function is a combination of hypergeometric basis
solutions; gluing them at x = 0 (continuity of psi and of dpsi/dx) fixes the
reflected and transmitted amplitudes relative to the incident one.  The
matching data is rho1 = q, rho3 = q_tilde and c1..c6, the three basis
functions at y = rho1, rho1, rho3 and their y-derivatives, from which a 2x2
linear system yields A2/A1 and A4/A1 and then R = |A2/A1|^2, T = |A4/A1|^2
(the asymptotic wave number is the same on both sides, so no flux-ratio
factor appears).

Every layer from ``side_coefficients`` to ``solve_amplitudes`` works on a
lane, a 1-D array of energies, and records a failed energy's error under
its index with its fields nan.  ``scan`` runs a grid as lanes of up to
``_CHUNK`` energies, so each of the paper's curves is one lane; the 2F1
kernels bound their own working memory whatever a lane's length.
``compute_rt`` runs a lane of one and raises its error or unwraps it.

The derivative row matches dpsi/dx, with the chain-rule factors
dy/dx = +a*y on the left and -a*y on the right, so flux is conserved
(R + T = 1).  The row as the closed form is widely printed equates dpsi/dy
instead, c4 + r*c5 - t*c6 = 0; it is singular at q == q_tilde, the paper's
own barrier, where c2 == c3 and c5 == c6 make c3*c5 - c2*c6 vanish exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hyp2f1 import gauss_2f1_lanes
from .model import BarrierParams, _energies, side_coefficients

# not API, and nothing calls it: the name benchmarks/worker.py's TRACED
# looks up; ROADMAP E removes it when it retargets the tracer
gauss_2f1 = gauss_2f1_lanes

__all__ = [
    "MatchCoefficients",
    "ScatteringResult",
    "match_coefficients",
    "solve_amplitudes",
    "compute_rt",
    "scan",
]

# the cancellation kappa = |c1 m10| / |num| past which t takes the exact
# numerator -2 sigma (on a mirrored barrier kappa = 1/(2 sqrt(T)))
_KAPPA_GATE = 100.0
# energies per batch in scan: each paper curve (fig4's are 2000) is one
# batch, so pays the lane pipeline's fixed cost once, and a longer grid
# holds one batch's per-energy arrays at a time; never changes a value
_CHUNK = 2048
# the per-energy fields of a ScatteringResult
_COLUMNS = ("E", "r_amp", "t_amp", "R", "T", "unitarity_residual")


@dataclass
class MatchCoefficients:
    """All quantities entering the x = 0 matching system, field by field
    over a lane of energies.  ``errors`` maps the index of a failed energy
    to its error; its fields there are nan.  c_r and c_{r+3} are basis
    function r's value and y-derivative at x = 0: r = 1, 2 are the left
    y^{+sigma} and y^{-sigma} functions, r = 3 the right y^{-sigma} one.
    sigma = ik/a is the left side's, for the exact transmission numerator."""

    E: np.ndarray
    rho1: float
    rho3: float
    c1: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    c5: np.ndarray
    c6: np.ndarray
    sigma: np.ndarray
    errors: dict = field(default_factory=dict, repr=False)


@dataclass
class ScatteringResult:
    """Amplitude ratios and coefficients for one energy or, field by field,
    for a lane of energies with ``errors`` as in MatchCoefficients."""

    E: float
    r_amp: complex
    t_amp: complex
    R: float
    T: float
    unitarity_residual: float
    errors: dict = field(default_factory=dict, repr=False)


# an E near the float range overflows side_coefficients: the lane's 2F1 fails quietly
@np.errstate(invalid="ignore", over="ignore")
def match_coefficients(E, params: BarrierParams) -> MatchCoefficients:
    """Assemble the matching coefficients lane-wise over the energies E
    (one energy is a lane of one).

    One ``gauss_2f1_lanes`` call gives each 2F1 factor and its derivative:
    one lane per energy (the left y^{+sigma} function's) when q == q_tilde,
    two (and the right one's) otherwise.  The left y^{-sigma} function needs
    none: for E > 0 sigma is imaginary and tau real, so its (alpha+1-gamma,
    beta+1-gamma; 2-gamma) is (conj(alpha), conj(beta); conj(gamma)) up to
    order, and c2 and c5 are the conjugates of c1 and c4.  An energy's first
    failing 2F1 factor's error is recorded, never raised.
    """
    left, right = side_coefficients(E, params)
    mirror = right is left
    rho1, rho3 = params.q, params.q_tilde

    # one row of (a, b, c) per evaluated function: the left y^{+sigma} one,
    # and the right y^{-sigma} one unless the sides mirror (sigma = ik/a on both)
    n_rows, n = 1 if mirror else 2, left.E.size
    lane = np.empty((3, n_rows, n), dtype=complex)
    lane[0, 0], lane[1, 0], lane[2, 0] = left.alpha, left.beta, left.gamma
    if not mirror:
        gr = right.gamma
        lane[0, 1], lane[1, 1], lane[2, 1] = right.alpha + 1 - gr, right.beta + 1 - gr, 2 - gr
    # per row: y, the sign of sigma in y^{+-sigma}, and tau
    rows = ((rho1, 1.0, left.tau), (rho3, -1.0, right.tau))[:n_rows]
    # lanes in row order: an energy's first failing lane is its first factor
    values, derivs, failed = gauss_2f1_lanes(
        *lane.reshape(3, -1), np.repeat([y for y, _, _ in rows], n))
    errors: dict[int, Exception] = {}
    for k in sorted(failed):
        errors.setdefault(k % n, failed[k])
    zv, zd = values.reshape(n_rows, n), derivs.reshape(n_rows, n)

    # each row's basis factor y^{+-sigma} (1-y)^tau and the coefficient
    # +-sigma/y - tau/(1-y) of its y-derivative, at y = rho
    sign_log, sign_inv, pow_1m, tau_inv = np.array(
        [f for y, sg, tau in rows
         for f in (sg * math.log(y), sg / y, (1.0 - y) ** tau, tau / (1.0 - y))]
    ).reshape(n_rows, 4, 1).transpose(1, 0, 2)
    sigma = left.sigma
    basis = np.exp(sigma * sign_log) * pow_1m
    cv = basis * zv
    cd = basis * ((sigma * sign_inv - tau_inv) * zv + zd)

    # rows 1, 2, 3: the left y^{+sigma} row, its conjugate (the left
    # y^{-sigma} row) and the right row, which is the second when the sides mirror
    c2, c5 = np.conj(cv[0]), np.conj(cd[0])
    c3, c6 = (c2, c5) if mirror else (cv[1], cd[1])
    return MatchCoefficients(left.E, rho1, rho3, cv[0], c2, c3, cd[0], c5, c6, sigma, errors)


def solve_amplitudes(mc: MatchCoefficients) -> ScatteringResult:
    """Solve the 2x2 matching system for (A2/A1, A4/A1) and form R, T
    lane-wise over the energies of ``mc``.

    The derivative row carries the chain-rule factors: +rho1 on the left
    derivatives, -rho3 on the right.  Its numerator of t, c2*b1 + c1*m10 =
    rho1*(c1*c5 - c2*c4), is the left basis pair's Wronskian over a,
    exactly -2*sigma (Abel's identity: psi'' = 2m(V - E) psi has no psi'
    term), so |det| = 2|sigma|/|t| >= 2|sigma| > 0.  Where the computed
    numerator cancels, kappa = |c1*m10| / |c2*b1 + c1*m10| > 100 (an opaque
    barrier, or E -> 0), t = -2*sigma/det; elsewhere the computed numerator
    is kept, since it shares a common rounding factor of the basis
    functions with det that cancels in the ratio.
    """
    c1, c2, c3, c4, c5, c6 = (mc.c1, mc.c2, mc.c3, mc.c4, mc.c5, mc.c6)
    # value row:      c1 + r*c2 - t*c3 = 0
    # derivative row: rho1*c4 + r*rho1*c5 + t*rho3*c6 = 0, written as
    #                 r*m10 + t*m11 = b1
    m10, m11, b1 = mc.rho1 * c5, mc.rho3 * c6, -mc.rho1 * c4
    with np.errstate(all="ignore"):
        det = c2 * m11 + c3 * m10
        r_amp = (c3 * b1 - c1 * m11) / det
        c1m10 = c1 * m10
        num = c2 * b1 + c1m10
        # kappa > _KAPPA_GATE, with kappa = |c1 m10| / |num|
        num = np.where(np.abs(c1m10) > _KAPPA_GATE * np.abs(num), -2.0 * mc.sigma, num)
        t_amp = num / det
        R = r_amp.real * r_amp.real + r_amp.imag * r_amp.imag
        T = t_amp.real * t_amp.real + t_amp.imag * t_amp.imag
        residual = np.abs(R + T - 1.0)
    return ScatteringResult(mc.E, r_amp, t_amp, R, T, residual, dict(mc.errors))


def compute_rt(E: float, params: BarrierParams) -> ScatteringResult:
    """Reflection/transmission at a single energy: the lane code ``scan``
    runs, on a lane of one, unwrapped to numpy scalars.  The energy's
    ``Hyp2F1Error`` is raised.

    The energy range has an upper edge, and it moves with q.  At the
    default parameters, E/V_max = 4e4, 1e5 and 1e6 return T within 2.2e-16
    of the 40-digit reference (about 1.5 ms each), and every E/V_max up to
    1e20 returns T within 9e-16 of 1.  From E/V_max = 5.5e34 (E/v0 = 1e36)
    on, where the side coefficients have lost their digits, some energies
    raise ``NoConvergenceError`` (a 2F1 series overflows) and some return T
    = nan; there is no asymptotic T -> 1 branch.  At q = q_tilde = 0.999,
    the other parameters at their defaults (V_max = 1.0046e6), E/V_max =
    0.089 returns T = 0.00147, while from E/V_max = 0.0895 (E = 9.0e4, E/v0
    = 7.2e4) on a 2F1 series does not converge in its 20,000 terms and the
    1-z connection formula misses its fallback gate, so
    ``NoConvergenceError``, a ``Hyp2F1Error``, is raised.  Both edges lie
    above the checked box's E/v0 <= 1e2 (``BarrierParams``).
    """
    if np.ndim(E) != 0:
        raise ValueError(f"E must be one energy, got shape {np.shape(E)}; scan takes a grid")
    res = solve_amplitudes(match_coefficients([E], params))
    if res.errors:
        raise res.errors[0]
    return ScatteringResult(*(getattr(res, name)[0] for name in _COLUMNS))


def scan(energies: Sequence[float], params: BarrierParams) -> ScatteringResult:
    """Evaluate R/T over a strictly increasing grid that passes the energy
    check ``model._energies``, in batches of ``_CHUNK`` energies (one batch
    for each of the paper's grids), as one ScatteringResult of arrays in
    grid order; every value equals ``compute_rt`` at its energy bit for bit.

    A point that fails with a ``Hyp2F1Error`` is recorded in ``errors``
    under its grid index, with its fields nan, and the scan goes on; any
    other exception propagates.
    """
    es = _energies(energies)
    if np.any(np.diff(es) <= 0):
        raise ValueError("energies must be strictly increasing")
    starts = range(0, es.size, _CHUNK)
    chunks = [solve_amplitudes(match_coefficients(es[start:start + _CHUNK], params))
              for start in starts]
    errors = {start + i: exc for start, res in zip(starts, chunks) for i, exc in res.errors.items()}
    columns = [np.concatenate([getattr(res, name) for res in chunks]) for name in _COLUMNS]
    return ScatteringResult(*columns, dict(sorted(errors.items())))
