"""Gauss hypergeometric function 2F1 and its derivative for complex
parameters, plus complex log-gamma, evaluated lane-wise over numpy arrays.

``gauss_2f1_lanes`` takes 1-D arrays a, b, c, z, one function per lane, and
returns F = 2F1(a, b; c; z) and F' = dF/dz from one pass per lane.  Each
lane's path is decided before any summing, from the classical toolbox
(Abramowitz & Stegun ch. 15, DLMF ch. 15):

* a lane whose c is zero or a negative integer fails with PoleAtCError;
* for 0.7 <= |z| and |1-z| < 1, when c - a - b is not within 1e-6 of an
  integer, the lane tries the 1-z connection formula, differentiated term
  by term for F'.  Its two terms can lose precision (internal term growth,
  outer cancellation), so the lane keeps it only when the error estimates
  of F and F' both stay within ``_CONNECTION_GATE`` (5e-14);
* every other lane, a rejected attempt included, sums the power series
  F = sum t_n, t_n = (a)_n (b)_n / ((c)_n n!) z^n, and z F' = sum n t_n
  together in blocks of terms until two consecutive terms of both drop
  below ``_REL_TOL`` (1e-15) of their sums, within ``_MAX_TERMS`` (20,000);
* log-gamma via the Lanczos approximation (g = 7, 9 coefficients) with a
  branch-tracked reflection formula for Re(z) < 1/2.

A failing lane records its typed error and the others go on; ``gauss_2f1``
is a batch of one that raises it.  A lane's values depend on its own inputs
alone, bit for bit, whatever the batch around it.  All arithmetic is double
precision; no arbitrary-precision escape hatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hyp2F1Error",
    "PoleAtCError",
    "NoConvergenceError",
    "GammaPoleError",
    "Hyp2F1Request",
    "gauss_2f1",
    "gauss_2f1_lanes",
    "lngamma_complex",
]

_EPS = 2.220446049250313e-16

# a series stops when two consecutive terms of both its sums fall below
# _REL_TOL of them, and fails after _MAX_TERMS terms
_REL_TOL = 1e-15
_MAX_TERMS = 20000
# a lane keeps the connection formula only below this estimated relative
# error; physics users of this module need ~1e-12, so 5e-14 leaves a wide
# margin
_CONNECTION_GATE = 5e-14

# lanes x terms of one series block (128 KB per complex temporary) unless 8
# terms per lane need more; block sizes never change a value
_BLOCK_CELLS = 1 << 13


class Hyp2F1Error(Exception):
    """Base class for hypergeometric evaluation failures."""


class PoleAtCError(Hyp2F1Error):
    """c is zero or a negative integer: 2F1 has a pole in its c parameter."""


class NoConvergenceError(Hyp2F1Error):
    """The series overflowed or did not converge within _MAX_TERMS terms."""


class GammaPoleError(Hyp2F1Error):
    """log-gamma requested at a pole (zero or negative integer)."""


@dataclass(frozen=True)
class Hyp2F1Request:
    """One 2F1 evaluation: parameters a, b, c and argument z."""

    a: complex
    b: complex
    c: complex
    z: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "z"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"{name} must have finite components, got {value!r}")


def _nonpositive_integer(z: np.ndarray) -> np.ndarray:
    r = z.real
    return (z.imag == 0.0) & (r <= 0.0) & (r == np.rint(r))


# ----------------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7])
_LANCZOS_K = np.arange(1.0, len(_LANCZOS_C))
_LN_SQRT_2PI = 0.9189385332046727
_LOG_HALF_I = complex(math.log(0.5), 0.5 * math.pi)  # log(i/2)


def lngamma_complex(z):
    """Principal-branch log-gamma for complex z, elementwise over arrays.

    Matches the analytic continuation from the positive real axis (the
    convention of scipy.special.loggamma); exp of the result is Gamma(z).
    A scalar gives a complex.  Raises GammaPoleError when any z is zero or
    a negative integer.
    """
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.reshape(-1)
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValueError(f"z must have finite components, got {z!r}")
    if np.count_nonzero(_nonpositive_integer(z)):
        raise GammaPoleError(f"log-gamma pole at z = {z}")
    out = _lngamma(z)
    return out.reshape(shape) if shape else complex(out[0])


def _lngamma(z):
    """log-gamma of the 1-D array z, which holds no poles."""
    # Re(z) < 1/2 reflects to 1 - w, where w is z or, for Im(z) < 0, its
    # conjugate (and the result is conjugated back)
    left = z.real < 0.5
    flip = left & (z.imag < 0)
    w = np.conjugate(z, out=z.copy(), where=flip) if np.count_nonzero(flip) else z
    x = w - 1.0
    np.negative(w, out=x, where=left)
    # Lanczos sum for Gamma(x + 1), Re(x + 1) >= 0.5, accumulated term by term
    terms = np.empty((x.size, _LANCZOS_C.size), dtype=complex)
    terms[:, 0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_C[1:], x[:, None] + _LANCZOS_K, out=terms[:, 1:])
    t = x + (_LANCZOS_G + 0.5)
    out = (_LN_SQRT_2PI + (x + 0.5) * np.log(t) - t
           + np.log(np.add.accumulate(terms, axis=1)[:, -1]))
    if np.count_nonzero(left):
        # the continuous branch of log sin(pi w), Im(w) >= 0, is carried by
        # the linear term of sin(pi w) = (i/2) e^{-i pi w} (1 - e^{2 i pi w})
        wl = w[left]
        ipw = (1j * math.pi) * wl
        log_sin = _LOG_HALF_I - ipw + np.log(1.0 - np.exp(ipw + ipw))
        # on the real axis log(sin) itself is the accurate form
        real = wl.imag == 0.0
        if np.count_nonzero(real):
            log_sin[real] = np.log(np.sin(np.pi * wl[real]))
        out[left] = math.log(math.pi) - log_sin - out[left]
        if w is not z:
            np.conjugate(out, out=out, where=flip)
    return out


def _lngammas(*rows, den: int):
    """log-gamma of every row in one call; the rows from ``den`` on are
    denominators, +inf at a pole of Gamma (so that exp(-lngamma) = 1/Gamma
    = 0 there).  The other rows hold no poles."""
    args = np.concatenate(rows).reshape(len(rows), -1)
    pole = args[den:].imag == 0.0
    if np.count_nonzero(pole):
        pole = _nonpositive_integer(args[den:])
        args[den:][pole] = 1.0
    out = _lngamma(args.reshape(-1)).reshape(len(rows), -1)
    if np.count_nonzero(pole):
        out[den:][pole] = np.inf
    return out


# ----------------------------------------------------------------------------
# lane evaluation
# ----------------------------------------------------------------------------

def _failure(what: str, a, b, c, z, r: int) -> NoConvergenceError:
    return NoConvergenceError(f"2F1 series {what} (a={complex(a[r, 0])}, b={complex(b[r, 0])}, "
                              f"c={complex(c[r, 0])}, z={complex(z[r, 0])})")


def _series(a, b, c, z, want_peaks: bool = False):
    """Sum the defining series F = sum t_n and, in the same blocks, z F' =
    sum n t_n on every lane.  Returns (sums, peaks, errors): sums[:, 0] is F
    and sums[:, 1] is z F', errors maps a lane to its NoConvergenceError,
    and peaks, if asked for, holds the largest L1 term magnitude of each
    sum (for rounding-error estimates).  Terms are made and summed in
    blocks, each lane's in the order one scalar loop takes them; converged
    lanes drop out between blocks.
    """
    n_lanes, errors = a.size, {}
    sums, peaks = np.empty((n_lanes, 2), dtype=complex), np.empty((n_lanes, 2))
    lanes, az = np.arange(n_lanes), np.abs(z)
    # term ratios approach |z|, so the dropped tail is about
    # tail_factor * |last term| (n times that for z F', whose terms are
    # n t_n); fold that (over _REL_TOL) into the stopping rule
    tail = (np.maximum(az / (1.0 - az), 1.0) / _REL_TOL)[:, None, None]
    # the first block ends a little past where |z|^n reaches _REL_TOL, plus
    # the terms' growth phase, longer for larger |a|, |b| and |z|
    zmax = min(max(az.max(), 0.05), 0.999)
    size = 6 + int(1.1 * math.log(_REL_TOL) / math.log(zmax)
                   + min(3.0 * np.abs(np.concatenate((a, b))).max() * zmax / (1.0 - zmax),
                         _MAX_TERMS))
    # every complex product below is between whole arrays or has a real
    # factor, so numpy rounds it alike whatever the batch's shape
    a, b, c, z, bz = a[:, None], b[:, None], c[:, None], z[:, None], (b * z)[:, None]
    # both sums start from term 0: t_0 = 1 and 0 * t_0
    n, term, prev, peak = 0, 1.0, False, np.array([1.0, 0.0])
    total = peak[:, None]
    while True:
        k = np.arange(n, n + min(max(8, min(size, _BLOCK_CELLS // lanes.size)), _MAX_TERMS - n),
                      dtype=float)
        # column 0 carries the previous block's last term into the product
        t = np.empty((lanes.size, k.size + 1), dtype=complex)
        t[:, :1] = term
        # column j of t is term number w = n + j + 1
        w = k + 1.0
        np.divide((a + k) * (bz + k * z), (c + k) * w, out=t[:, 1:])
        t = np.multiply.accumulate(t, axis=1, out=t)[:, 1:]
        # the running sums go on from the previous totals, so a lane's
        # rounding never depends on where its blocks start
        s = np.empty((lanes.size, 2, k.size), dtype=complex)
        s[:, 0] = t
        np.multiply(t, w, out=s[:, 1])
        s[:, :, :1] += total
        np.add.accumulate(s, axis=2, out=s)
        # L1 magnitudes: within sqrt(2) of |.|; two consecutive terms small
        # in both sums stop a lane (complex parameters can make one term
        # accidentally tiny), and so does a non-finite sum, as an overflow
        mag = np.empty(s.shape)
        np.add(np.abs(t.real), np.abs(t.imag), out=mag[:, 0])
        np.multiply(mag[:, 0], w, out=mag[:, 1])
        small = mag * tail <= np.abs(s.real) + np.abs(s.imag)
        small = small[:, 0] & small[:, 1]
        stop = small.copy()
        stop[:, 1:] &= small[:, :-1]
        stop[:, :1] &= prev
        stop |= ~np.isfinite(s).all(axis=1)
        done = np.logical_or.reduce(stop, axis=1)
        rows = done.nonzero()[0]
        if want_peaks:
            np.maximum.accumulate(mag, axis=2, out=mag)
        if rows.size:
            cols = (stop[rows] if rows.size < lanes.size else stop).argmax(axis=1)
            got = s[rows, :, cols]
            top = (np.maximum(peak if n == 0 else peak[rows], mag[rows, :, cols])
                   if want_peaks else None)
            finite = np.isfinite(got).all(axis=1)
            for i in (~finite).nonzero()[0].tolist() if np.count_nonzero(finite) < rows.size else ():
                errors[int(lanes[rows[i]])] = _failure(
                    f"overflowed after {n + int(cols[i]) + 1} terms", a, b, c, z, int(rows[i]))
            if rows.size == n_lanes:
                return got, top, errors
            sums[lanes[rows]] = got
            if want_peaks:
                peaks[lanes[rows]] = top
            if rows.size == lanes.size:
                return sums, peaks, errors
        if want_peaks:
            peak = np.maximum(peak, mag[:, :, -1])
        n += k.size
        keep = ~done
        if n >= _MAX_TERMS:
            for r in keep.nonzero()[0].tolist():
                errors[int(lanes[r])] = _failure(
                    f"did not converge in {_MAX_TERMS} terms", a, b, c, z, r)
            return sums, peaks, errors
        term, total, prev = t[:, -1:], s[:, :, -1:], small[:, -1:]
        if rows.size:
            a, b, c, z, bz, tail, lanes, term, total, prev = (
                v[keep] for v in (a, b, c, z, bz, tail, lanes, term, total, prev))
            peak = peak[keep] if want_peaks else peak
        size = max(size, n)


def _connection(a, b, c, s, ca, cb, u, f, peak):
    """1-z connection values F and F' and the larger of their relative
    rounding-error estimates, from the series sums and peak terms f, peak
    of (F(a, b; 1-s; u), F(c-a, c-b; 1+s; u)), each with u times its
    derivative, where s = c - a - b, ca = c - a, cb = c - b and u = 1 - z."""
    m, su = a.size, s * np.log(u)
    lg = _lngammas(c, s, -s, ca, cb, a, b, den=3)
    g = np.exp(np.concatenate((lg[0] + lg[1] - lg[3] - lg[4],
                               lg[0] + lg[2] - lg[5] - lg[6] + su))).reshape(2, m, 1)
    # terms[i] = g_i (f_i, u f_i'), where g_2 holds u^s; then F = g_1 f_1 +
    # g_2 f_2 and -u F' = g_1 u f_1' + g_2 (s f_2 + u f_2')
    terms = g * f.reshape(2, m, 2)
    out = terms[0] + terms[1]
    out[:, 1] += s * terms[1, :, 0]
    # rounding-error model: a series sum is off by eps times its peak term
    # plus 2 eps of itself, each term by the gamma-argument penalty (log-gamma
    # loses about eps * |argument|, which exp makes relative); relative to
    # |F| and |u F'|, outer cancellation of the two terms amplifies it all
    pen = 2.0 + 1.2 * np.add.accumulate(np.abs(np.concatenate((c, s, ca, cb, a, b, su)))
                                        .reshape(7, m), axis=0)[-1]
    err = np.abs(g) * (peak.reshape(2, m, 2) + np.abs(f).reshape(2, m, 2) * pen[:, None])
    err[1, :, 1] += np.abs(s) * err[1, :, 0]
    est = (err[0] + err[1]) / np.abs(out)
    return out[:, 0], out[:, 1] / -u, np.maximum(est[:, 0], est[:, 1]) * _EPS


def gauss_2f1_lanes(a, b, c, z):
    """Evaluate F = 2F1(a, b; c; z) and F' = dF/dz on every lane of the 1-D
    arrays a, b, c, z.

    Returns (values, derivs, errors): errors maps a failed lane to its
    ``Hyp2F1Error``, and that lane's F and F' are nan.  Each lane takes the
    path the module docstring sets out, decided before any summing.  An
    argument outside the open unit disk, z = 1 included, raises ValueError
    for the whole batch.
    """
    a, b, c, z = (np.array(v, dtype=complex, ndmin=1, copy=None) for v in (a, b, c, z))
    # canonical (a, b) order so results are bit-identical under a <-> b
    swap = b < a
    if np.count_nonzero(swap):
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    az, u = np.abs(z), 1.0 - z
    if np.count_nonzero(az >= 1.0):
        raise ValueError(f"|z| must be < 1, got z = {z}")
    values, derivs, errors = np.empty(a.size, dtype=complex), np.empty(a.size, dtype=complex), {}
    series = np.ones(a.size, dtype=bool)
    with np.errstate(all="ignore"):
        if np.count_nonzero(c.imag == 0.0):
            pole = _nonpositive_integer(c)
            errors.update((i, PoleAtCError(f"c = {complex(c[i])} is zero or a negative integer"))
                          for i in pole.nonzero()[0].tolist())
            series &= ~pole
        s = c - a - b
        ic = (series & (az >= 0.7) & (np.abs(u) < 1.0)
              & ~(np.abs(s - np.rint(s.real)) < 1e-6)).nonzero()[0]
        if ic.size:
            # both series of every attempt in one call: F(a, b; 1-s; 1-z)
            # and F(c-a, c-b; 1+s; 1-z)
            ac, bc, cc, sc, uc = ((a, b, c, s, u) if ic.size == a.size
                                  else (a[ic], b[ic], c[ic], s[ic], u[ic]))
            ca, cb = cc - ac, cc - bc
            f, peak, failed = _series(
                *(np.concatenate(pair) for pair in ((ac, ca), (bc, cb), (1.0 - sc, 1.0 + sc),
                                                    (uc, uc))), want_peaks=True)
            value, deriv, est = _connection(ac, bc, cc, sc, ca, cb, uc, f, peak)
            ok = np.isfinite(value) & np.isfinite(deriv) & (est <= _CONNECTION_GATE)
            # a series failure inside the attempt fails the lane
            for j in sorted(failed):
                errors.setdefault(int(ic[j % ic.size]), failed[j])
                ok[j % ic.size] = series[ic[j % ic.size]] = False
            done = ic[ok]
            series[done] = False
            values[done], derivs[done] = value[ok], deriv[ok]
        idx = series.nonzero()[0]
        if idx.size:
            f, _, failed = _series(a[idx], b[idx], c[idx], z[idx])
            values[idx], derivs[idx] = f[:, 0], f[:, 1] / z[idx]
            # F' = ab/c at z = 0, where z F' says nothing
            zero = idx[z[idx] == 0]
            if zero.size:
                derivs[zero] = a[zero] * b[zero] / c[zero]
            errors.update((int(idx[j]), exc) for j, exc in failed.items())
    if errors:
        values[list(errors)] = derivs[list(errors)] = np.nan
    return values, derivs, errors


def gauss_2f1(req: Hyp2F1Request) -> complex:
    """Evaluate 2F1(a, b; c; z), one lane of ``gauss_2f1_lanes``."""
    values, _, errors = gauss_2f1_lanes(req.a, req.b, req.c, req.z)
    if errors:
        raise errors[0]
    return complex(values[0])
