"""Amplitude matching at the barrier seam and the R/T coefficients.

In each region the wave function is a combination of hypergeometric basis
solutions; gluing them at x = 0 (continuity of psi and of dpsi/dx) fixes the
reflected and transmitted amplitudes relative to the incident one.  The
matching data is condensed into

    rho1 = q, rho2 = 1 - q, rho3 = q_tilde, rho4 = 1 - q_tilde,
    zeta1..zeta3  (the hypergeometric factors of the three basis functions
                   at y = rho1, rho1, rho3),
    dzeta1..dzeta3  (their y-derivatives),
    c1..c6  (the assembled matching coefficients),

from which a 2x2 linear system yields A2/A1 and A4/A1 and then
R = |A2/A1|^2, T = |A4/A1|^2 (the asymptotic wave number is the same on both
sides, so no flux-ratio factor appears).

``scan`` evaluates an energy grid lane-wise, in chunks, and returns one
ScatteringResult of arrays; a failed energy's error is keyed by its grid
index, and its fields are nan.

``tau_branch`` and ``sqrt_branch`` pick the basis, one string for both
sides ("plus" or "minus"); R and T do not depend on either.

Two derivative-matching conventions are provided:

* ``corrected`` -- matches dpsi/dx including the chain-rule factors
  dy/dx = +a*y (left) and dy/dx = -a*y (right).  This is the physical
  convention: it conserves flux (R + T = 1) and is the authoritative mode.
* ``paper`` -- equates the interior-variable derivatives dpsi/dy directly,
  which reproduces the closed-form amplitude ratios in their widely printed
  form.  Kept for comparison only: it violates unitarity and is exactly
  singular for symmetric barriers (q == q_tilde), where c2 == c3 and
  c5 == c6 make its denominator c2*c6 - c3*c5 vanish identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

# gauss_2f1 stays a name of this module: benchmarks/worker.py wraps it here
from .hyp2f1 import gauss_2f1, gauss_2f1_lanes  # noqa: F401
from .model import (BarrierParams, Side, SqrtBranch, TauBranch,
                    side_coefficients)

MatchMode = Literal["corrected", "paper"]

__all__ = [
    "MatchMode",
    "MatchCoefficients",
    "ScatteringResult",
    "SingularMatchingError",
    "match_coefficients",
    "solve_amplitudes",
    "compute_rt",
    "scan",
]

_DET_FLOOR = 1e-300
# energies per batch in scan; bounds the batch's memory, never a value
_CHUNK = 256


class SingularMatchingError(Exception):
    """The matching system is numerically singular (degenerate parameters)."""


@dataclass
class MatchCoefficients:
    """All quantities entering the x = 0 matching system, at one energy or,
    field by field, at an array of energies.  ``errors`` maps the index of
    a failed energy of an array to its error; its fields there are nan.
    zeta_r and dzeta_r are the 2F1 factor of basis function r at x = 0 and
    its y-derivative, c_r and c_{r+3} the function's value and y-derivative:
    r = 1, 2 are the left y^{+sigma} and y^{-sigma} functions, r = 3 the
    right y^{-sigma} one."""

    E: float
    rho1: float
    rho2: float
    rho3: float
    rho4: float
    zeta1: complex
    zeta2: complex
    zeta3: complex
    dzeta1: complex
    dzeta2: complex
    dzeta3: complex
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    c5: complex
    c6: complex
    errors: dict = field(default_factory=dict, repr=False)


@dataclass
class ScatteringResult:
    """Amplitude ratios and coefficients for one energy or, field by field,
    for an array of energies with ``errors`` as in MatchCoefficients."""

    E: float
    r_amp: complex
    t_amp: complex
    R: float
    T: float
    unitarity_residual: float
    mode: MatchMode
    errors: dict = field(default_factory=dict, repr=False)


def _product(x, y):
    """x * y as complex scalars round it: numpy fuses a multiply-add into
    complex array products but not into scalar ones, so one energy rounds
    as it does in a batch."""
    if not np.ndim(x):
        return x * y
    out = np.empty(x.shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _one_or_batch(E, fields: dict, errors: dict) -> dict:
    """Batch-of-one unwrapping: one energy raises its error or gets scalar
    fields; an array of energies keeps its arrays."""
    if isinstance(E, np.ndarray):
        return fields
    if errors:
        raise errors[0]
    return {name: value[0] for name, value in fields.items()}


def match_coefficients(
    E,
    params: BarrierParams,
    tau_branch: TauBranch = "plus",
    sqrt_branch: SqrtBranch = "plus",
) -> MatchCoefficients:
    """Assemble the matching coefficients at energy E, or lane-wise at a 1-D
    array of energies.

    ``tau_branch`` and ``sqrt_branch`` select the basis, one choice for
    both sides; R and T do not depend on them.  One ``gauss_2f1_lanes``
    call gives each 2F1 factor and its derivative: one lane per energy
    (zeta1) when q == q_tilde, two (zeta1, zeta3) otherwise.  The left
    y^{-sigma} function needs none: for E > 0 sigma is imaginary and tau
    real, so its (alpha+1-gamma, beta+1-gamma; 2-gamma) is (conj(alpha),
    conj(beta); conj(gamma)) up to order, and zeta2, dzeta2, c2 and c5 are
    the conjugates of zeta1, dzeta1, c1 and c4.  One energy raises its
    first failing zeta's error; an array records it.
    """
    left = side_coefficients(E, params, "left", tau_branch, sqrt_branch)
    mirror = params.q == params.q_tilde
    right = left if mirror else side_coefficients(E, params, "right", tau_branch, sqrt_branch)
    rho1, rho2 = params.q, 1.0 - params.q
    rho3, rho4 = params.q_tilde, 1.0 - params.q_tilde

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
    # lanes in zeta order: an energy's first failing lane is its first zeta
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
    zv, zd, cv, cd = ((v[0], conj, conj if mirror else v[1])
                      for v in (zv, zd, cv, cd) for conj in (np.conj(v[0]),))
    fields = dict(zeta1=zv[0], zeta2=zv[1], zeta3=zv[2], dzeta1=zd[0], dzeta2=zd[1],
                  dzeta3=zd[2], c1=cv[0], c2=cv[1], c3=cv[2], c4=cd[0], c5=cd[1], c6=cd[2])
    return MatchCoefficients(E=left.E, rho1=rho1, rho2=rho2, rho3=rho3, rho4=rho4,
                             errors=errors, **_one_or_batch(left.E, fields, errors))


def solve_amplitudes(mc: MatchCoefficients, mode: MatchMode = "corrected") -> ScatteringResult:
    """Solve the 2x2 matching system for (A2/A1, A4/A1) and form R, T, at
    one energy or lane-wise over the energies of ``mc``.

    The mode fixes the derivative-matching row: ``corrected`` applies the
    chain-rule factors (+rho1 on the left derivatives, -rho3 on the right),
    ``paper`` equates the y-derivatives as printed.  A determinant below
    1e-300 in magnitude is a SingularMatchingError, raised for one energy;
    an array records it and sets the energy's fields to nan.
    """
    if mode not in ("corrected", "paper"):
        raise ValueError(f"mode must be 'corrected' or 'paper', got {mode!r}")
    E, c1, c2, c3, c4, c5, c6 = (mc.E, mc.c1, mc.c2, mc.c3, mc.c4, mc.c5, mc.c6)
    # value row:      c1 + r*c2 - t*c3 = 0
    # derivative row: corrected  rho1*c4 + r*rho1*c5 + t*rho3*c6 = 0
    #                 paper      c4 + r*c5 - t*c6 = 0
    # with the derivative row written as r*m10 + t*m11 = b1
    if mode == "corrected":
        m10, m11, b1 = mc.rho1 * c5, mc.rho3 * c6, -mc.rho1 * c4
    else:
        m10, m11, b1 = c5, -c6, -c4
    with np.errstate(all="ignore"):
        det = _product(c2, m11) + _product(c3, m10)
        r_amp = (_product(c3, b1) - _product(c1, m11)) / det
        t_amp = (_product(c2, b1) + _product(c1, m10)) / det
        R = r_amp.real * r_amp.real + r_amp.imag * r_amp.imag
        T = t_amp.real * t_amp.real + t_amp.imag * t_amp.imag
        residual = np.abs(R + T - 1.0)
    errors = dict(mc.errors)
    singular = np.ravel(np.abs(det) < _DET_FLOOR).nonzero()[0]
    for i in singular.tolist():
        errors.setdefault(i, SingularMatchingError(
            f"matching determinant {complex(np.ravel(det)[i])!r} below {_DET_FLOOR} "
            f"at E={float(np.ravel(E)[i])} (mode={mode})"))
    if errors and not isinstance(E, np.ndarray):
        raise errors[0]
    if singular.size:
        for value in (r_amp, t_amp, R, T, residual):
            value[singular] = np.nan
    return ScatteringResult(E, r_amp, t_amp, R, T, residual, mode, errors)


def compute_rt(
    E: float,
    params: BarrierParams,
    mode: MatchMode = "corrected",
    tau_branch: TauBranch = "plus",
    sqrt_branch: SqrtBranch = "plus",
) -> ScatteringResult:
    """Reflection/transmission at a single energy (assemble + solve), a
    batch of one of the lane-wise path ``scan`` takes.

    The energy range has an upper edge.  At the default parameters,
    E/V_max = 4e4 still returns T = 0.999999999999998 (about 2 ms), while
    from E/V_max = 4.01e4 on (1e5 included) a 2F1 series overflows and
    ``NoConvergenceError``, a ``Hyp2F1Error``, is raised; there is no
    asymptotic T -> 1 branch.
    """
    return solve_amplitudes(
        match_coefficients(E, params, tau_branch, sqrt_branch), mode
    )


def scan(
    energies: Sequence[float],
    params: BarrierParams,
    mode: MatchMode = "corrected",
    tau_branch: TauBranch = "plus",
    sqrt_branch: SqrtBranch = "plus",
) -> ScatteringResult:
    """Evaluate R/T over a non-empty, strictly increasing, positive energy
    grid, in batches of ``_CHUNK`` energies, as one ScatteringResult of
    arrays in grid order; every value equals ``compute_rt`` at its energy
    bit for bit.

    A point that fails with a ``Hyp2F1Error`` or ``SingularMatchingError``
    is recorded in ``errors`` under its grid index, with its fields nan,
    and the scan goes on; any other exception propagates.
    """
    es = np.array(energies, dtype=float, ndmin=1)
    if not es.size:
        raise ValueError("the energy grid is empty")
    if not np.all((es > 0.0) & (es < np.inf)):
        raise ValueError("all energies must be finite and > 0")
    if np.any(np.diff(es) <= 0):
        raise ValueError("energies must be strictly increasing")
    starts = range(0, es.size, _CHUNK)
    chunks = [solve_amplitudes(match_coefficients(
        es[start:start + _CHUNK], params, tau_branch, sqrt_branch), mode) for start in starts]
    errors = {start + i: exc for start, res in zip(starts, chunks) for i, exc in res.errors.items()}
    columns = [np.concatenate([getattr(res, name) for res in chunks])
               for name in ("E", "r_amp", "t_amp", "R", "T", "unitarity_residual")]
    return ScatteringResult(*columns, mode, dict(sorted(errors.items())))
