"""Gauss hypergeometric function 2F1 and its derivative for complex
parameters, plus complex log-gamma, evaluated lane-wise over numpy arrays.

``gauss_2f1_lanes`` takes 1-D arrays a, b, c, z, one function per lane, and
returns F = 2F1(a, b; c; z) and F' = dF/dz, from the classical toolbox
(Abramowitz & Stegun ch. 15, DLMF ch. 15), in two stages of one series
call each:

* before either stage, a lane with a non-finite a, b, c or z fails with
  Hyp2F1Error, and a lane whose c is zero or a negative integer with
  PoleAtCError;
* the first stage: for 0.7 <= |z| and |1-z| < 1, when c - a - b is not
  within 1e-6 of an integer, the lane tries the 1-z connection formula,
  differentiated term by term for F', whose two series in 1-z are summed
  for every such lane together.  Its two terms can lose precision
  (internal term growth, outer cancellation), so the lane keeps it only
  when the error estimates of F and F' both stay within
  ``_CONNECTION_GATE`` (5e-14); a lane whose series fails there fails;
* the second stage: every other lane, a rejected attempt included, sums
  the power series F = sum t_n, t_n = (a)_n (b)_n / ((c)_n n!) z^n, and
  z F' = sum n t_n together in blocks of terms until two consecutive terms
  of both drop below ``_REL_TOL`` (1e-15) of their sums, within
  ``_MAX_TERMS`` (20,000).  Where a rejected attempt's series fails too
  (near z = 1 it needs more than ``_MAX_TERMS`` terms), the lane keeps the
  connection values if their estimate is within ``_FALLBACK_GATE`` (1e-12)
  rather than fail;
* log-gamma via the Lanczos approximation (g = 7, 9 coefficients) with a
  branch-tracked reflection formula for Re(z) < 1/2, element by element.
  The connection formula's log-gammas of a batch are one call, which from
  ``_DISTINCT_LANES`` lanes on takes s and -s once per distinct s: on the
  closed form's lanes s = 1 - 2 tau is the barrier's, so a paper curve's
  thousands of lanes hold a few.

A failing lane records its typed error and the others go on; a single
function is a batch of one lane.  A lane's values depend on its own inputs
alone, bit for bit, whatever the batch around it.  All arithmetic is double
precision; no arbitrary-precision escape hatch.  The kernels run along their
long axis: a series block of many lanes and few terms along its lanes, one
of few lanes and many terms along its terms (``_series``), and the Lanczos
sum one row of arguments per coefficient.  Their working memory is bounded
whatever the batch: series lanes are summed in groups and log-gammas taken
in slices, each within ``_BLOCK_CELLS`` cells.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["Hyp2F1Error", "PoleAtCError", "NoConvergenceError", "gauss_2f1_lanes"]

_EPS = 2.220446049250313e-16

# a series stops when two consecutive terms of both its sums fall below
# _REL_TOL of them, and fails after _MAX_TERMS terms
_REL_TOL = 1e-15
_MAX_TERMS = 20000
# a lane keeps the connection formula only below this estimated relative
# error; physics users of this module need ~1e-12, so 5e-14 leaves a wide
# margin
_CONNECTION_GATE = 5e-14
# a rejected connection attempt whose plain series fails as well keeps its
# values below this estimate: the accuracy those users need, and better
# than no value
_FALLBACK_GATE = 1e-12

# a connection batch of at least this many lanes takes the log-gammas of s
# and -s once per distinct s; on a shorter one the sort costs more than it
# saves (13 us more on a lane of two, even at about 50 lanes)
_DISTINCT_LANES = 64

# the cells (lanes x terms) of one series block, 128 KB per complex block
# array, and of the Lanczos terms of one slice of log-gamma arguments; a
# series group of _BLOCK_CELLS / _MIN_TERMS lanes starts with blocks of at
# least _MIN_TERMS terms.  Block, group and slice sizes never change a value
_BLOCK_CELLS = 1 << 13
_MIN_TERMS = 8


class _Workspace(threading.local):
    """The block arrays of ``_series``, one set per thread, grown to the
    largest block they have held and never freed.  Freed after each block,
    the 2 MB of a _BLOCK_CELLS block let glibc trim its heap (M_TRIM_THRESHOLD
    in mallopt(3)) and fault every page back in: about 10k minor faults a
    pass of the benchmark's `paper` workload and 21k-24k a `q-sweep` pass.
    Kept, their pages stay mapped; no value depends on what they held.
    A wide block (4 or more lanes a term, as a fig4 group's 1024 x 8) lies
    terms first, so numpy's loops run along the lanes and not along 8-term
    rows; a tall one (a few lanes near z = 1, thousands of terms) lies terms
    last.  Both layouts have the same logical axes."""

    def __init__(self) -> None:
        self.cells = 0  # the block size the buffers hold

    def block(self, lanes: int, terms: int, wide: bool) -> tuple[np.ndarray, ...]:
        """(t, s, ratio, mag, lhs, rhs, both, small, stop) for a block of
        ``lanes`` x ``terms`` cells: t is (lanes, terms + 1), s, mag, lhs,
        rhs and both (lanes, 2, terms), small and stop (lanes, terms), and
        ratio two (lanes, terms) halves of the memory of s.  Each lies terms
        first when ``wide``, else lanes first; contents are left over."""
        cells = lanes * terms
        if cells > self.cells:
            self.cells, self.cplx = cells, np.empty(4 * cells, dtype=complex)
            self.reals, self.flags = np.empty(6 * cells), np.empty(4 * cells, dtype=bool)
        # s in the first half of cplx, t (at most 2 x cells) in the second
        half, flags = 2 * self.cells, self.flags
        t, s, both = self.cplx[half:half + cells + lanes], self.cplx[:2 * cells], flags[:2 * cells]
        reals, masks = self.reals[:6 * cells], flags[2 * cells:4 * cells]
        if wide:
            mag, lhs, rhs = reals.reshape(3, terms, 2, lanes).transpose(0, 3, 2, 1)
            small, stop = masks.reshape(2, terms, lanes).transpose(0, 2, 1)
            return (t.reshape(terms + 1, lanes).T, s.reshape(terms, 2, lanes).T,
                    s.reshape(2, terms, lanes).transpose(0, 2, 1), mag, lhs, rhs,
                    both.reshape(terms, 2, lanes).T, small, stop)
        mag, lhs, rhs = reals.reshape(3, lanes, 2, terms)
        small, stop = masks.reshape(2, lanes, terms)
        return (t.reshape(lanes, terms + 1), s.reshape(lanes, 2, terms), s.reshape(2, lanes, terms),
                mag, lhs, rhs, both.reshape(lanes, 2, terms), small, stop)


_WORKSPACE = _Workspace()


class Hyp2F1Error(Exception):
    """Base class for hypergeometric evaluation failures."""


class PoleAtCError(Hyp2F1Error):
    """c is zero or a negative integer: 2F1 has a pole in its c parameter."""


class NoConvergenceError(Hyp2F1Error):
    """The series overflowed or did not converge within _MAX_TERMS terms."""


def _nonpositive_integer(z: np.ndarray) -> np.ndarray:
    r = z.real
    return (z.imag == 0.0) & (r <= 0.0) & (r == np.rint(r))


# ----------------------------------------------------------------------------
# log-gamma
# ----------------------------------------------------------------------------

_LANCZOS_G = 7.0
# C_0, then C_1..C_8 and the shifts k of the terms C_k / (x + k), as columns
_LANCZOS_C0 = 0.99999999999980993
_LANCZOS_C = np.array([[
    676.5203681218851, -1259.1392167224028, 771.32342877765313, -176.61502916214059,
    12.507343278686905, -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7]]).T
_LANCZOS_K = np.arange(1.0, 9.0)[:, None]
_LN_SQRT_2PI = 0.9189385332046727
_LOG_HALF_I = complex(math.log(0.5), 0.5 * math.pi)  # log(i/2)


def _lngamma(z):
    """log-gamma of the 1-D complex array z, +inf at a pole of Gamma (z real,
    zero or a negative integer) so that exp(-lngamma) = 1/Gamma = 0 there,
    in slices of _BLOCK_CELLS / 8 arguments: a slice's 8 Lanczos terms an
    argument fill at most _BLOCK_CELLS cells, and its temporaries are small
    enough that the allocator hands the same memory back from slice to
    slice.  Off the negative real axis it is the principal branch (that of
    scipy.special.loggamma); on it the imaginary part may be another
    branch's, a multiple of 2 pi away, which exp does not see."""
    step = _BLOCK_CELLS // len(_LANCZOS_C)
    if z.size <= step:
        return _lngamma_slice(z)
    out = np.empty_like(z)
    for lo in range(0, z.size, step):
        out[lo:lo + step] = _lngamma_slice(z[lo:lo + step])
    return out


# not API, and nothing calls it: the name benchmarks/worker.py's TRACED
# looks up; ROADMAP E removes it when it retargets the tracer
lngamma_complex = _lngamma


def _lngamma_slice(z):
    # a pole takes the argument 1 and then +inf
    pole = _nonpositive_integer(z)
    poles = np.count_nonzero(pole)
    if poles:
        z = np.where(pole, 1.0, z)
    # Re(z) < 1/2 reflects to 1 - w, where w is z or, for Im(z) < 0, its
    # conjugate (and the result is conjugated back)
    left = z.real < 0.5
    flip = left & (z.imag < 0)
    w = np.conjugate(z, out=z.copy(), where=flip) if np.count_nonzero(flip) else z
    x = w - 1.0
    np.negative(w, out=x, where=left)
    # Lanczos sum for Gamma(x + 1), Re(x + 1) >= 0.5, added to C_0 row by row
    terms = x + _LANCZOS_K
    np.divide(_LANCZOS_C, terms, out=terms)
    total = _LANCZOS_C0 + terms[0]
    for row in terms[1:]:
        total += row
    t = x + (_LANCZOS_G + 0.5)
    out = _LN_SQRT_2PI + (x + 0.5) * np.log(t) - t + np.log(total)
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
    if poles:
        out[pole] = np.inf
    return out


def _distinct(x):
    """The distinct bit patterns of the 1-D complex array x, as an array of
    them, and the index into it of each lane's: -0.0 and 0.0, or two NaN
    payloads, stay apart."""
    re, im = x.view(np.uint64).reshape(x.size, 2).T
    order = np.lexsort((im, re))
    re, im = re[order], im[order]
    new = np.empty(x.size, dtype=bool)
    new[0] = True
    np.not_equal(re[1:], re[:-1], out=new[1:])
    new[1:] |= im[1:] != im[:-1]
    lane = np.empty(x.size, dtype=np.intp)
    lane[order] = np.cumsum(new) - 1
    return x[order[new]], lane


# ----------------------------------------------------------------------------
# lane evaluation
# ----------------------------------------------------------------------------

def _lane_error(kind: type, what: str, a, b, c, z, i: int) -> Hyp2F1Error:
    """A ``kind`` error for lane i that names the lane's a, b, c and z."""
    return kind(f"2F1 {what} (a={complex(a[i])}, b={complex(b[i])}, "
                f"c={complex(c[i])}, z={complex(z[i])})")


def _series(a, b, c, z):
    """Sum the defining series F = sum t_n and, in the same blocks, z F' =
    sum n t_n on every lane.  Returns (sums, peaks, errors): sums[:, 0] is F
    and sums[:, 1] is z F', peaks the largest L1 term magnitude of each sum
    (for rounding-error estimates), and errors maps a failed lane to what
    went wrong.  The lanes are summed in groups of _BLOCK_CELLS / _MIN_TERMS,
    so that a block holds at most _BLOCK_CELLS cells however many lanes
    there are, and a group's first block at least _MIN_TERMS terms.  Terms
    are made and summed in blocks, each lane's in the order one scalar loop
    takes them; converged lanes drop out between blocks.  The block arrays
    live in this thread's ``_Workspace``, and nothing returned is a view of
    it.  A wide block adds its running sums a column of lanes at a time, a
    tall one along each lane's terms: the same additions.  Both take the
    term products with ``np.multiply.accumulate`` along the terms, which
    numpy runs in its scalar complex loop; row by row they would take its
    vector loop, whose fused multiply-adds round differently where the CPU
    has them.
    """
    group = _BLOCK_CELLS // _MIN_TERMS
    if a.size <= group:
        return _series_group(a, b, c, z)
    sums, peaks, errors = np.empty((a.size, 2), dtype=complex), np.empty((a.size, 2)), {}
    for lo in range(0, a.size, group):
        hi = lo + group
        sums[lo:hi], peaks[lo:hi], failed = _series_group(a[lo:hi], b[lo:hi], c[lo:hi], z[lo:hi])
        errors.update((lo + i, why) for i, why in failed.items())
    return sums, peaks, errors


def _series_group(a, b, c, z):
    """``_series`` on at most _BLOCK_CELLS / _MIN_TERMS lanes."""
    n_lanes, errors, work = a.size, {}, _WORKSPACE
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
    # both sums start from term 0: t_0 = 1 and 0 * t_0; so do the peaks
    n, term, total, prev = 0, 1.0, np.array([[1.0], [0.0]]), False
    peak = np.zeros((n_lanes, 2))
    peak[:, 0] = 1.0
    while True:
        k = np.arange(n, n + min(size, _BLOCK_CELLS // lanes.size, _MAX_TERMS - n), dtype=float)
        wide = lanes.size >= 4 * k.size  # laying out terms first pays from about here
        t, s, (num, den), mag, lhs, rhs, both, small, stop = work.block(lanes.size, k.size, wide)
        # column 0 carries the previous block's last term into the product
        t[:, :1] = term
        # column j of t is term number w = n + j + 1, t_w / t_{w-1} =
        # (a + k)(b z + k z) / ((c + k) w); its factors borrow the space of
        # the sums, which come after it
        w = k + 1.0
        np.add(a, k, out=num)
        np.multiply(k, z, out=den)
        np.add(bz, den, out=den)
        np.multiply(num, den, out=num)
        np.add(c, k, out=den)
        np.multiply(den, w, out=den)
        np.divide(num, den, out=t[:, 1:])
        t = np.multiply.accumulate(t, axis=1, out=t)[:, 1:]
        # the running sums go on from the previous totals, so a lane's
        # rounding never depends on where its blocks start
        s[:, 0] = t
        np.multiply(t, w, out=s[:, 1])
        s[:, :, :1] += total
        if wide:
            # the same additions, one whole column of lanes at a time
            col = s.T[0]
            for nxt in s.T[1:]:
                col = np.add(col, nxt, out=nxt)
        else:
            np.add.accumulate(s, axis=2, out=s)
        # L1 magnitudes: within sqrt(2) of |.|; two consecutive terms small
        # in both sums stop a lane (complex parameters can make one term
        # accidentally tiny), and so does a non-finite sum, as an overflow
        mag_f, mag_d = mag[:, 0], mag[:, 1]
        np.abs(t.real, out=mag_f)
        np.abs(t.imag, out=mag_d)
        np.add(mag_f, mag_d, out=mag_f)
        np.multiply(mag_f, w, out=mag_d)
        np.abs(s.real, out=rhs)
        np.abs(s.imag, out=lhs)
        np.add(rhs, lhs, out=rhs)
        np.multiply(mag, tail, out=lhs)
        np.less_equal(lhs, rhs, out=both)
        np.logical_and(both[:, 0], both[:, 1], out=small)
        stop[:] = small
        stop[:, 1:] &= small[:, :-1]
        stop[:, :1] &= prev
        # a sum that leaves float range never comes back, so only a block
        # whose last column is not finite holds an overflow
        if not np.isfinite(s[:, :, -1]).all():
            stop |= ~np.isfinite(s).all(axis=1)
        done = np.logical_or.reduce(stop, axis=1)
        first = stop.argmax(axis=1)
        rows = done.nonzero()[0]
        # the largest term of each lane up to where it stops, or of the
        # whole block; the mask goes into stop, which is read out, so that
        # it runs along the block's memory
        upto = True
        if rows.size:
            last = np.where(done, first, k.size)[:, None]
            upto = np.less_equal(np.arange(k.size), last, out=stop)[:, None]
        peak = np.maximum(peak, mag.max(axis=2, where=upto, initial=0.0))
        if rows.size:
            cols = first[rows]
            got = s[rows, :, cols]
            finite = np.isfinite(got).all(axis=1)
            for i in (~finite).nonzero()[0].tolist() if np.count_nonzero(finite) < rows.size else ():
                errors[int(lanes[rows[i]])] = f"overflowed after {n + int(cols[i]) + 1} terms"
            if rows.size == n_lanes:
                return got, peak, errors
            sums[lanes[rows]], peaks[lanes[rows]] = got, peak[rows]
            if rows.size == lanes.size:
                return sums, peaks, errors
        n += k.size
        keep = ~done
        if n >= _MAX_TERMS:
            for r in keep.nonzero()[0].tolist():
                errors[int(lanes[r])] = f"did not converge in {_MAX_TERMS} terms"
            return sums, peaks, errors
        # copies, as the next block overwrites the workspace
        term, total, prev = t[:, -1:], s[:, :, -1:], small[:, -1:]
        if rows.size:
            a, b, c, z, bz, tail, lanes, term, total, prev, peak = (
                v[keep] for v in (a, b, c, z, bz, tail, lanes, term, total, prev, peak))
        else:
            term, total, prev = term.copy(), total.copy(), prev.copy()
        size = max(size, n)


def _connection(a, b, c, s, u):
    """1-z connection values F and F', the larger of their relative
    rounding-error estimates, and the failures of the one ``_series`` call
    over F(a, b; 1-s; u) and F(c-a, c-b; 1+s; u) (lane j % a.size's at j),
    where s = c - a - b and u = 1 - z.  Its log-gammas are one ``_lngamma``
    call.  From ``_DISTINCT_LANES`` lanes on, those of s and -s are taken
    once per distinct bit pattern of s and indexed back to the lanes; a
    shorter batch, a lane of one included, takes every lane's.  Each value
    is the one a lane alone gets."""
    m, ca, cb = a.size, c - a, c - b
    f, peak, failed = _series(*(np.concatenate(row) for row in (
        (a, ca), (b, cb), (1.0 - s, 1.0 + s), (u, u))))
    su = s * np.log(u)
    ds, lane = (s, None) if m < _DISTINCT_LANES else _distinct(s)
    lg = _lngamma(np.concatenate((ca, cb, a, b, c, ds, -ds)))
    # rows c - a, c - b, a, b, c of every lane; s and -s of each ds
    lg, ls = lg[:5 * m].reshape(5, m), lg[5 * m:].reshape(2, ds.size)
    if lane is not None:
        ls = ls[:, lane]
    g = np.exp(np.concatenate((lg[4] + ls[0] - lg[0] - lg[1],
                               lg[4] + ls[1] - lg[2] - lg[3] + su))).reshape(2, m, 1)
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
    return out[:, 0], out[:, 1] / -u, np.maximum(est[:, 0], est[:, 1]) * _EPS, failed


def gauss_2f1_lanes(a, b, c, z):
    """Evaluate F = 2F1(a, b; c; z) and F' = dF/dz on every lane of the 1-D
    arrays a, b, c, z.

    Returns (values, derivs, errors): errors maps a failed lane to its
    ``Hyp2F1Error``, and that lane's F and F' are nan.  Each lane takes the
    path the module docstring sets out.  A finite argument outside the open
    unit disk, z = 1 included, raises ValueError for the whole batch.  The
    error of a non-finite lane (a bare ``Hyp2F1Error``) or a non-converging
    one names its a, b, c, z as given.
    """
    a, b, c, z = given = tuple(np.array(v, dtype=complex, ndmin=1, copy=None)
                               for v in (a, b, c, z))
    errors = {}
    bad = ~(np.isfinite(a) & np.isfinite(b) & np.isfinite(c) & np.isfinite(z))
    if np.count_nonzero(bad):
        errors.update((i, _lane_error(Hyp2F1Error, "parameters not finite", *given, i))
                      for i in bad.nonzero()[0].tolist())
        # placeholders F(0, 0; 1; 0) that no path takes
        a, b, c, z = (np.where(bad, fill, v) for fill, v in zip((0, 0, 1, 0), given))
    # canonical (a, b) order so results are bit-identical under a <-> b
    swap = b < a
    if np.count_nonzero(swap):
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    az, u = np.abs(z), 1.0 - z
    if np.count_nonzero(az >= 1.0):
        raise ValueError(f"|z| must be < 1, got z = {z}")
    values, derivs = np.empty(a.size, dtype=complex), np.empty(a.size, dtype=complex)
    series = ~bad
    with np.errstate(all="ignore"):
        if np.count_nonzero(c.imag == 0.0):
            pole = _nonpositive_integer(c)
            errors.update((i, PoleAtCError(f"c = {complex(c[i])} is zero or a negative integer"))
                          for i in pole.nonzero()[0].tolist())
            series &= ~pole
        s = c - a - b
        attempt = (series & (az >= 0.7) & (np.abs(u) < 1.0)
                   & ~(np.abs(s - np.rint(s.real)) < 1e-6))
        ic = attempt.nonzero()[0]
        fallback = {}  # lane -> (F, F') of a rejected connection attempt
        if ic.size:
            # first stage: the connection formula on every attempt at once
            value, deriv, est, failed = _connection(*(
                (a, b, c, s, u) if ic.size == a.size else (a[ic], b[ic], c[ic], s[ic], u[ic])))
            ok = np.isfinite(value) & np.isfinite(deriv) & (est <= _CONNECTION_GATE)
            retry = ~ok
            # a series failure inside the attempt fails the lane
            for j in sorted(failed):
                i = int(ic[j % ic.size])
                errors.setdefault(i, _lane_error(
                    NoConvergenceError, f"1-z connection series {failed[j]}", *given, i))
                ok[j % ic.size] = retry[j % ic.size] = False
            done = ic[ok]
            values[done], derivs[done] = value[ok], deriv[ok]
            # a rejected attempt sums the plain series after all, and keeps
            # the connection values within _FALLBACK_GATE if that fails too
            series[ic[~retry]] = False
            spare = retry & np.isfinite(value) & np.isfinite(deriv) & (est <= _FALLBACK_GATE)
            fallback = dict(zip(ic[spare].tolist(), zip(value[spare], deriv[spare])))
        # second stage: the plain series of every other lane and of the
        # rejected attempts, in one call
        idx = series.nonzero()[0]
        if idx.size:
            f, _, failed = _series(a[idx], b[idx], c[idx], z[idx])
            values[idx], derivs[idx] = f[:, 0], f[:, 1] / z[idx]
            # F' = ab/c at z = 0, where z F' says nothing
            zero = idx[z[idx] == 0]
            if zero.size:
                derivs[zero] = a[zero] * b[zero] / c[zero]
            for i, what in zip(idx[list(failed)].tolist(), failed.values()):
                if i in fallback:
                    values[i], derivs[i] = fallback[i]
                else:
                    errors[i] = _lane_error(NoConvergenceError, f"series {what}", *given, i)
    if errors:
        values[list(errors)] = derivs[list(errors)] = np.nan
    return values, derivs, errors

