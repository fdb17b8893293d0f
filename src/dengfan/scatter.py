"""Amplitude matching at the barrier seam and the R/T coefficients.

In each region the wave function is a combination of hypergeometric basis
solutions; gluing them at x = 0 (continuity of psi and of dpsi/dx) fixes the
reflected and transmitted amplitudes relative to the incident one.  The
matching data is condensed into

    rho1 = q, rho2 = 1 - q, rho3 = q_tilde, rho4 = 1 - q_tilde,
    zeta1..zeta6  (hypergeometric values at rho1 / rho3),
    lambda1..lambda3  (derivative prefactors a*b/c),
    c1..c6  (the assembled matching coefficients),

from which a 2x2 linear system yields A2/A1 and A4/A1 and then
R = |A2/A1|^2, T = |A4/A1|^2 (the asymptotic wave number is the same on both
sides, so no flux-ratio factor appears).

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
from dataclasses import dataclass
from typing import Literal, Sequence, Union

from .hyp2f1 import Hyp2F1Request, gauss_2f1
from .model import (BarrierParams, Side, SqrtBranch, TauBranch,
                    side_coefficients)

MatchMode = Literal["corrected", "paper"]
BranchChoice = Union[TauBranch, tuple[TauBranch, TauBranch]]
SqrtChoice = Union[SqrtBranch, tuple[SqrtBranch, SqrtBranch]]

__all__ = [
    "MatchMode",
    "MatchCoefficients",
    "ScatteringResult",
    "ScanEntry",
    "SingularMatchingError",
    "match_coefficients",
    "solve_amplitudes",
    "compute_rt",
    "scan",
]

_DET_FLOOR = 1e-300


class SingularMatchingError(Exception):
    """The matching system is numerically singular (degenerate parameters)."""


@dataclass(frozen=True)
class MatchCoefficients:
    """All quantities entering the x = 0 matching system at one energy."""

    E: float
    rho1: float
    rho2: float
    rho3: float
    rho4: float
    zeta1: complex
    zeta2: complex
    zeta3: complex
    zeta4: complex
    zeta5: complex
    zeta6: complex
    lambda1: complex
    lambda2: complex
    lambda3: complex
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    c5: complex
    c6: complex


@dataclass(frozen=True)
class ScatteringResult:
    """Amplitude ratios and coefficients for one energy."""

    E: float
    r_amp: complex
    t_amp: complex
    R: float
    T: float
    unitarity_residual: float
    mode: MatchMode


@dataclass(frozen=True)
class ScanEntry:
    """One energy of a scan: either a result or an inline error message."""

    E: float
    result: ScatteringResult | None = None
    error: str | None = None


def _pair(choice, name: str) -> tuple[str, str]:
    if isinstance(choice, str):
        return choice, choice
    left, right = choice
    if not (isinstance(left, str) and isinstance(right, str)):
        raise ValueError(f"{name} must be a string or a (left, right) pair")
    return left, right


def match_coefficients(
    E: float,
    params: BarrierParams,
    tau_branch: BranchChoice = "plus",
    sqrt_branch: SqrtChoice = "plus",
    rel_tol: float = 1e-15,
    max_terms: int = 20000,
) -> MatchCoefficients:
    """Assemble the matching coefficients at energy E.

    ``tau_branch`` and ``sqrt_branch`` select the basis on both sides, or
    per side when given as a (left, right) pair; R and T do not depend on
    these choices.  zeta6 uses the derivative-shifted parameter set
    (alpha~+2-gamma~, beta~+2-gamma~; 3-gamma~), the shift pattern every
    derivative term follows.
    """
    tb_l, tb_r = _pair(tau_branch, "tau_branch")
    sb_l, sb_r = _pair(sqrt_branch, "sqrt_branch")
    left = side_coefficients(E, params, "left", tb_l, sb_l)
    right = side_coefficients(E, params, "right", tb_r, sb_r)

    rho1, rho2 = params.q, 1.0 - params.q
    rho3, rho4 = params.q_tilde, 1.0 - params.q_tilde

    def f(a: complex, b: complex, c: complex, z: float) -> complex:
        return gauss_2f1(Hyp2F1Request(a=a, b=b, c=c, z=z,
                                       rel_tol=rel_tol, max_terms=max_terms))

    al, bl, gl = left.alpha, left.beta, left.gamma
    ar, br, gr = right.alpha, right.beta, right.gamma

    zeta1 = f(al, bl, gl, rho1)
    zeta2 = f(al + 1 - gl, bl + 1 - gl, 2 - gl, rho1)
    zeta3 = f(ar + 1 - gr, br + 1 - gr, 2 - gr, rho3)
    zeta4 = f(al + 1, bl + 1, gl + 1, rho1)
    zeta5 = f(al + 2 - gl, bl + 2 - gl, 3 - gl, rho1)
    zeta6 = f(ar + 2 - gr, br + 2 - gr, 3 - gr, rho3)

    lambda1 = al * bl / gl
    lambda2 = (al + 1 - gl) * (bl + 1 - gl) / (2 - gl)
    lambda3 = (ar + 1 - gr) * (br + 1 - gr) / (2 - gr)

    sl, tl = left.sigma, left.tau
    sr, tr = right.sigma, right.tau
    p1s = complex(rho1) ** sl        # rho1^sigma_L
    p1ms = complex(rho1) ** (-sl)    # rho1^(-sigma_L)
    p2t = rho2 ** tl
    p3ms = complex(rho3) ** (-sr)
    p4t = rho4 ** tr

    c1 = p1s * p2t * zeta1
    c2 = p1ms * p2t * zeta2
    c3 = p3ms * p4t * zeta3
    c4 = (sl * p1s / rho1 * p2t * zeta1
          - tl * p1s * p2t / rho2 * zeta1
          + p1s * p2t * lambda1 * zeta4)
    c5 = (-sl * p1ms / rho1 * p2t * zeta2
          - tl * p1ms * p2t / rho2 * zeta2
          + p1ms * p2t * lambda2 * zeta5)
    c6 = (-sr * p3ms / rho3 * p4t * zeta3
          - tr * p3ms * p4t / rho4 * zeta3
          + p3ms * p4t * lambda3 * zeta6)

    return MatchCoefficients(
        E=E,
        rho1=rho1, rho2=rho2, rho3=rho3, rho4=rho4,
        zeta1=zeta1, zeta2=zeta2, zeta3=zeta3,
        zeta4=zeta4, zeta5=zeta5, zeta6=zeta6,
        lambda1=lambda1, lambda2=lambda2, lambda3=lambda3,
        c1=c1, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6,
    )


def solve_amplitudes(mc: MatchCoefficients, mode: MatchMode = "corrected") -> ScatteringResult:
    """Solve the 2x2 matching system for (A2/A1, A4/A1) and form R, T.

    The mode fixes the derivative-matching row: ``corrected`` applies the
    chain-rule factors (+rho1 on the left derivatives, -rho3 on the right),
    ``paper`` equates the y-derivatives as printed.  A determinant below
    1e-300 in magnitude raises SingularMatchingError.
    """
    if mode not in ("corrected", "paper"):
        raise ValueError(f"mode must be 'corrected' or 'paper', got {mode!r}")
    # value row:      c1 + r*c2 - t*c3 = 0
    # derivative row: corrected  rho1*c4 + r*rho1*c5 + t*rho3*c6 = 0
    #                 paper      c4 + r*c5 - t*c6 = 0
    m00, m01 = mc.c2, -mc.c3
    b0 = -mc.c1
    if mode == "corrected":
        m10, m11 = mc.rho1 * mc.c5, mc.rho3 * mc.c6
        b1 = -mc.rho1 * mc.c4
    else:
        m10, m11 = mc.c5, -mc.c6
        b1 = -mc.c4
    det = m00 * m11 - m01 * m10
    if abs(det) < _DET_FLOOR:
        raise SingularMatchingError(
            f"matching determinant {det!r} below {_DET_FLOOR} at E={mc.E} "
            f"(mode={mode})"
        )
    r_amp = (b0 * m11 - m01 * b1) / det
    t_amp = (m00 * b1 - b0 * m10) / det
    R = r_amp.real * r_amp.real + r_amp.imag * r_amp.imag
    T = t_amp.real * t_amp.real + t_amp.imag * t_amp.imag
    return ScatteringResult(
        E=mc.E, r_amp=r_amp, t_amp=t_amp, R=R, T=T,
        unitarity_residual=abs(R + T - 1.0), mode=mode,
    )


def compute_rt(
    E: float,
    params: BarrierParams,
    mode: MatchMode = "corrected",
    tau_branch: BranchChoice = "plus",
    sqrt_branch: SqrtChoice = "plus",
) -> ScatteringResult:
    """Reflection/transmission at a single energy (assemble + solve).

    The energy range has an upper edge.  At the default parameters,
    E/V_max = 1e4 still returns T = 0.99999999999986 (about 9 ms), while
    from about E/V_max = 5e4 on (1e5 included) a 2F1 series overflows and
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
    tau_branch: BranchChoice = "plus",
    sqrt_branch: SqrtChoice = "plus",
) -> list[ScanEntry]:
    """Evaluate R/T over a strictly increasing positive energy grid.

    Per-point failures are recorded inline (ScanEntry.error) without
    aborting the remaining energies; output order equals input order.
    """
    es = [float(E) for E in energies]
    if any(not (math.isfinite(E) and E > 0) for E in es):
        raise ValueError("all energies must be finite and > 0")
    if any(e2 <= e1 for e1, e2 in zip(es, es[1:])):
        raise ValueError("energies must be strictly increasing")
    out: list[ScanEntry] = []
    for E in es:
        try:
            out.append(ScanEntry(E=E, result=compute_rt(
                E, params, mode, tau_branch, sqrt_branch)))
        except Exception as exc:  # inline per-point error, scan continues
            out.append(ScanEntry(E=E, error=f"{type(exc).__name__}: {exc}"))
    return out
