"""Independent high-precision R/T for the barrier, written from the formulas.

Nothing here calls into ``dengfan``: the per-side scalars (sigma, tau, alpha,
beta, gamma), the six Gauss 2F1 values (``mpmath.hyp2f1``) and the
``corrected`` x = 0 matching are rebuilt in mpmath arithmetic.

With y = q e^{ax} on the left and y = q~ e^{-ax} on the right, each region's
wave equation becomes a hypergeometric equation with

    chi1 = 2mE/a^2 - 2mV0 b^2/(a^2 q^2) - 4mV0 b/(a^2 q),   b = e^{a x_e} - q,
    eps  = -2mV0 b^2/(a^2 q^2),
    sigma = i k/a,  tau = (1 + sqrt(1 - 4 eps))/2,
    alpha, beta = sigma + tau -/+ sqrt(-chi1),  gamma = 1 + 2 sigma,

(q~ in place of q on the right; b always uses q).  Continuity of psi and
dpsi/dx at x = 0, including the chain-rule factors dy/dx = +a y (left) and
-a y (right), gives a 2x2 system for r = A2/A1 and t = A4/A1, and T = |t|^2.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 40
CHECK_DIGITS = 60
# a value is accepted when the next precision agrees with it to this relative
# level; the benchmark's tolerance is 1e-6 and its digit metric reads <= 16
SELF_AGREEMENT = 1e-18
# tiny T comes out of cancelling O(1) terms, which costs about log10(1/T)/2
# digits, so precision is raised in steps of 20 digits up to this limit
MAX_DIGITS = 200


def _side(E, v0, a, x_e, q_side, q_b, m):
    b = mp.exp(a * x_e) - q_b
    a2 = a * a
    chi3 = 2 * m * E / a2
    well = 2 * m * v0 * b * b / (a2 * q_side * q_side)
    cross = 4 * m * v0 * b / (a2 * q_side)
    chi1 = chi3 - well - cross
    eps = -well
    sigma = 1j * mp.sqrt(2 * m * E) / a
    tau = (1 + mp.sqrt(1 - 4 * eps)) / 2
    root = mp.sqrt(mp.mpc(-chi1))
    return sigma, tau, sigma + tau - root, sigma + tau + root, 1 + 2 * sigma


def _transmission(E, v0, a, x_e, q, q_tilde, m):
    E, v0, a, x_e, q, qt, m = (mp.mpf(v) for v in (E, v0, a, x_e, q, q_tilde, m))
    sl, tl, al, bl, gl = _side(E, v0, a, x_e, q, q, m)
    sr, tr, ar, br, gr = _side(E, v0, a, x_e, qt, q, m)
    f = mp.hyp2f1
    z1 = f(al, bl, gl, q)
    z2 = f(al + 1 - gl, bl + 1 - gl, 2 - gl, q)
    z3 = f(ar + 1 - gr, br + 1 - gr, 2 - gr, qt)
    z4 = f(al + 1, bl + 1, gl + 1, q)
    z5 = f(al + 2 - gl, bl + 2 - gl, 3 - gl, q)
    z6 = f(ar + 2 - gr, br + 2 - gr, 3 - gr, qt)
    l1 = al * bl / gl
    l2 = (al + 1 - gl) * (bl + 1 - gl) / (2 - gl)
    l3 = (ar + 1 - gr) * (br + 1 - gr) / (2 - gr)
    # left basis y^{+-sigma} (1-y)^tau, right basis y^{-sigma} (1-y)^tau, at x = 0
    u1, u2 = mp.power(q, sl), mp.power(q, -sl)
    u3 = mp.power(qt, -sr)
    p, pt = mp.power(1 - q, tl), mp.power(1 - qt, tr)
    c1, c2, c3 = u1 * p * z1, u2 * p * z2, u3 * pt * z3
    # y-derivatives of the three basis functions
    c4 = u1 * p * (sl / q * z1 - tl / (1 - q) * z1 + l1 * z4)
    c5 = u2 * p * (-sl / q * z2 - tl / (1 - q) * z2 + l2 * z5)
    c6 = u3 * pt * (-sr / qt * z3 - tr / (1 - qt) * z3 + l3 * z6)
    # psi:    c1 + r c2 = t c3
    # dpsi:   q (c4 + r c5) = -q~ t c6      (dy/dx = +a y left, -a y right)
    m00, m01, b0 = c2, -c3, -c1
    m10, m11, b1 = q * c5, qt * c6, -q * c4
    t = (m00 * b1 - b0 * m10) / (m00 * m11 - m01 * m10)
    return abs(t) ** 2


def transmission(E: float, v0: float, a: float, x_e: float, q: float,
                 q_tilde: float, m: float) -> float:
    """T(E) in ``corrected`` matching, accurate to far below double rounding.

    Evaluated at 40 digits and checked at 60.  Where cancellation makes the
    two disagree by more than 1e-18 relative, both precisions are raised by
    20 digits until they agree; past 200 digits ArithmeticError is raised,
    so an unreliable reference is never used.
    """
    args = (E, v0, a, x_e, q, q_tilde, m)
    dps = DIGITS
    with mp.workdps(dps):
        low = _transmission(*args)
    while dps < MAX_DIGITS:
        with mp.workdps(dps + CHECK_DIGITS - DIGITS):
            high = _transmission(*args)
            if abs(low - high) <= SELF_AGREEMENT * abs(high):
                return float(low)
        dps += CHECK_DIGITS - DIGITS
        low = high
    raise ArithmeticError(f"reference did not settle within {MAX_DIGITS} digits for {args}")
