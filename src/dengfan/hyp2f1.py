"""Gauss hypergeometric function 2F1 for complex parameters, plus complex
log-gamma.

Evaluation follows the classical toolbox (see Abramowitz & Stegun ch. 15 and
DLMF ch. 15):

* direct power series  sum_n (a)_n (b)_n / ((c)_n n!) z^n  for |z| < 1,
  stopped when the term drops below ``rel_tol`` relative to the partial sum;
* the 1-z connection formula as an optional acceleration for 0.7 <= |z| < 1,
  valid when c - a - b is not an integer.  Its two terms can lose precision
  (internal term growth, outer cancellation), so the automatic path accepts
  the connection value only when a running error estimate stays within
  10 * rel_tol and falls back to the series otherwise;
* Gauss summation at z = 1 when Re(c - a - b) > 0;
* log-gamma via the Lanczos approximation (g = 7, 9 coefficients) with a
  branch-tracked reflection formula for Re(z) < 1/2.

All arithmetic is double precision; no arbitrary-precision escape hatch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

__all__ = [
    "Hyp2F1Error",
    "PoleAtCError",
    "NoConvergenceError",
    "ConnectionDegenerateError",
    "GammaPoleError",
    "Hyp2F1Request",
    "gauss_2f1",
    "gauss_2f1_series",
    "gauss_2f1_connection",
    "gauss_2f1_derivative",
    "lngamma_complex",
]

_EPS = 2.220446049250313e-16

# the automatic path trusts the connection formula only below this estimated
# relative error (or 10 * rel_tol if the caller asked for less accuracy);
# physics users of this module need ~1e-12, so 5e-14 leaves a wide margin
_CONNECTION_GATE = 5e-14


class Hyp2F1Error(Exception):
    """Base class for hypergeometric evaluation failures."""


class PoleAtCError(Hyp2F1Error):
    """c is zero or a negative integer: 2F1 has a pole in its c parameter."""


class NoConvergenceError(Hyp2F1Error):
    """The series failed to reach the requested tolerance within max_terms."""


class ConnectionDegenerateError(Hyp2F1Error):
    """c - a - b is an integer: the 1-z connection formula degenerates."""


class GammaPoleError(Hyp2F1Error):
    """log-gamma requested at a pole (zero or negative integer)."""


@dataclass(frozen=True)
class Hyp2F1Request:
    """One 2F1 evaluation: parameters a, b, c, argument z, and stopping rule."""

    a: complex
    b: complex
    c: complex
    z: complex
    rel_tol: float = 1e-15
    max_terms: int = 20000

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "z"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must have finite components, got {value!r}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def _ordered(a: complex, b: complex) -> tuple[complex, complex]:
    # canonical (a, b) order so results are bit-identical under a <-> b
    if (b.real, b.imag) < (a.real, a.imag):
        return b, a
    return a, b


# ----------------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.9189385332046727


def _lngamma_right(z: complex) -> complex:
    # Lanczos sum, valid for Re(z) >= 0.5
    w = z - 1.0
    s = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        s += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(s)


def lngamma_complex(z: complex) -> complex:
    """Principal-branch log-gamma for complex z.

    Matches the analytic continuation from the positive real axis (the
    convention of scipy.special.loggamma); exp of the result is Gamma(z).
    Raises GammaPoleError at zero and the negative integers.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must have finite components, got {z!r}")
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"log-gamma pole at z = {z}")
    if z.real >= 0.5:
        return _lngamma_right(z)
    if z.imag < 0:
        return lngamma_complex(z.conjugate()).conjugate()
    # Reflection for Re(z) < 1/2, Im(z) >= 0.  The continuous branch of
    # log sin(pi z) is carried by the linear term of
    # sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}),  |e^{2 i pi z}| <= 1.
    if z.imag == 0.0:
        log_sin = cmath.log(cmath.sin(cmath.pi * z))
    else:
        log_sin = (cmath.log(0.5j) - 1j * cmath.pi * z
                   + cmath.log(1.0 - cmath.exp(2j * cmath.pi * z)))
    return math.log(math.pi) - log_sin - lngamma_complex(1.0 - z)


def _inv_gamma_ln(z: complex) -> complex | None:
    """lngamma(z), or None when 1/Gamma(z) is exactly zero (pole of Gamma)."""
    if _is_nonpositive_integer(z):
        return None
    return lngamma_complex(z)


# ----------------------------------------------------------------------------
# power series
# ----------------------------------------------------------------------------

def _series(a: complex, b: complex, c: complex, z: complex,
            rel_tol: float, max_terms: int) -> tuple[complex, float]:
    """Sum the defining series; returns (value, peak) where peak is the
    largest |term| encountered, used for rounding-error estimates."""
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    peak = 1.0
    streak = 0
    # term ratios approach |z|, so the dropped tail is about
    # tail_factor * |last term|; fold that into the stopping rule
    az = abs(z)
    tail_factor = max(az / (1.0 - az), 1.0)
    for n in range(max_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        if not (math.isfinite(total.real) and math.isfinite(total.imag)):
            raise NoConvergenceError(
                f"2F1 series overflowed after {n + 1} terms "
                f"(a={a}, b={b}, c={c}, z={z})"
            )
        # L1 magnitudes: within sqrt(2) of |.| and immune to abs() overflow
        mag = abs(term.real) + abs(term.imag)
        if mag > peak:
            peak = mag
        # two consecutive small terms: complex parameters can produce a
        # single accidentally tiny term mid-series
        if mag * tail_factor <= rel_tol * (abs(total.real) + abs(total.imag)):
            streak += 1
            if streak >= 2:
                return total, peak
        else:
            streak = 0
    raise NoConvergenceError(
        f"2F1 series did not converge in {max_terms} terms "
        f"(a={a}, b={b}, c={c}, z={z})"
    )


def gauss_2f1_series(req: Hyp2F1Request) -> complex:
    """2F1 by direct power series; requires |z| < 1."""
    a, b = _ordered(complex(req.a), complex(req.b))
    c, z = complex(req.c), complex(req.z)
    if _is_nonpositive_integer(c):
        raise PoleAtCError(f"c = {c} is zero or a negative integer")
    if z == 0:
        return 1.0 + 0.0j
    if abs(z) >= 1.0:
        raise ValueError(f"series path requires |z| < 1, got |z| = {abs(z)}")
    value, _ = _series(a, b, c, z, req.rel_tol, req.max_terms)
    return value


# ----------------------------------------------------------------------------
# 1 - z connection
# ----------------------------------------------------------------------------

def _connection(a: complex, b: complex, c: complex, z: complex,
                rel_tol: float, max_terms: int) -> tuple[complex, float]:
    """Connection-formula value and a relative rounding-error estimate."""
    s = c - a - b
    if abs(s - round(s.real)) < 1e-6:
        raise ConnectionDegenerateError(
            f"c - a - b = {s} is (near-)integer; connection formula degenerate"
        )
    u = 1.0 - z
    f1, peak1 = _series(a, b, a + b - c + 1.0, u, rel_tol, max_terms)
    f2, peak2 = _series(c - a, c - b, s + 1.0, u, rel_tol, max_terms)

    # log-gamma loses roughly eps * |argument| absolute accuracy, which exp
    # turns into relative error; accumulate the argument magnitudes
    arg_pen = (abs(c) + abs(s) + abs(c - a) + abs(c - b) + abs(a) + abs(b)
               + abs(s * cmath.log(u)))
    ln_c = lngamma_complex(c)
    term1 = 0.0 + 0.0j
    g1 = _inv_gamma_ln(c - a)
    g2 = _inv_gamma_ln(c - b)
    if g1 is not None and g2 is not None:
        term1 = cmath.exp(ln_c + lngamma_complex(s) - g1 - g2) * f1
    term2 = 0.0 + 0.0j
    g3 = _inv_gamma_ln(a)
    g4 = _inv_gamma_ln(b)
    if g3 is not None and g4 is not None:
        term2 = cmath.exp(ln_c + lngamma_complex(-s) - g3 - g4 + s * cmath.log(u)) * f2

    value = term1 + term2
    if value == 0:
        return value, math.inf
    # rounding-error model: each term inherits the peak/|f| growth of its
    # series plus the gamma-argument penalty; outer cancellation amplifies
    # everything by (|t1| + |t2|) / |t1 + t2|
    grow1 = peak1 / max(abs(f1), 1e-300) + 2.0 + 1.2 * arg_pen
    grow2 = peak2 / max(abs(f2), 1e-300) + 2.0 + 1.2 * arg_pen
    est = (grow1 * abs(term1) + grow2 * abs(term2)) / abs(value) * _EPS
    return value, est


def gauss_2f1_connection(req: Hyp2F1Request) -> complex:
    """2F1 through the 1-z connection formula.

    Intended for 0.7 <= |z| < 1 where the direct series is slow.  Raises
    ConnectionDegenerateError when c - a - b is an integer.
    """
    a, b = _ordered(complex(req.a), complex(req.b))
    c, z = complex(req.c), complex(req.z)
    if _is_nonpositive_integer(c):
        raise PoleAtCError(f"c = {c} is zero or a negative integer")
    if z == 0:
        return 1.0 + 0.0j
    if abs(1.0 - z) >= 1.0:
        raise ValueError(f"connection path requires |1 - z| < 1, got z = {z}")
    value, _ = _connection(a, b, c, z, req.rel_tol, req.max_terms)
    return value


def _gauss_at_one(a: complex, b: complex, c: complex) -> complex:
    s = c - a - b
    if s.real <= 0:
        raise NoConvergenceError(
            f"2F1 at z = 1 diverges unless Re(c - a - b) > 0, got {s}"
        )
    g1 = _inv_gamma_ln(c - a)
    g2 = _inv_gamma_ln(c - b)
    if g1 is None or g2 is None:
        return 0.0 + 0.0j
    return cmath.exp(lngamma_complex(c) + lngamma_complex(s) - g1 - g2)


# ----------------------------------------------------------------------------
# public evaluator
# ----------------------------------------------------------------------------

def gauss_2f1(req: Hyp2F1Request) -> complex:
    """Evaluate 2F1(a, b; c; z) to the requested relative tolerance.

    Strategy: Gauss summation at z = 1; the direct series for |z| < 0.7; for
    0.7 <= |z| < 1 the 1-z connection formula when it is non-degenerate and
    its error estimate meets 10 * rel_tol, else the series.
    """
    a, b = _ordered(complex(req.a), complex(req.b))
    c, z = complex(req.c), complex(req.z)
    if _is_nonpositive_integer(c):
        raise PoleAtCError(f"c = {c} is zero or a negative integer")
    if z == 0:
        return 1.0 + 0.0j
    if z == 1:
        return _gauss_at_one(a, b, c)
    if abs(z) >= 1.0:
        raise ValueError(f"|z| must be < 1 (or z exactly 1), got z = {z}")
    if abs(z) < 0.7 or abs(1.0 - z) >= 1.0:
        value, _ = _series(a, b, c, z, req.rel_tol, req.max_terms)
        return value
    try:
        value, est = _connection(a, b, c, z, req.rel_tol, req.max_terms)
    except (ConnectionDegenerateError, OverflowError):
        # a gamma ratio beyond float range counts as a rejected attempt
        value, est = None, math.inf
    if value is not None and est <= max(10.0 * req.rel_tol, _CONNECTION_GATE):
        return value
    value, _ = _series(a, b, c, z, req.rel_tol, req.max_terms)
    return value


def gauss_2f1_derivative(a: complex, b: complex, c: complex, z: complex,
                         rel_tol: float = 1e-15,
                         max_terms: int = 20000) -> complex:
    """d/dz 2F1(a, b; c; z) = (a b / c) 2F1(a+1, b+1; c+1; z)."""
    c = complex(c)
    if _is_nonpositive_integer(c):
        raise PoleAtCError(f"c = {c} is zero or a negative integer")
    shifted = Hyp2F1Request(a=complex(a) + 1, b=complex(b) + 1, c=c + 1,
                            z=complex(z), rel_tol=rel_tol, max_terms=max_terms)
    return complex(a) * complex(b) / c * gauss_2f1(shifted)
