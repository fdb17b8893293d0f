"""Independent R/T reference by direct integration of the wave equation.

psi'' = 2m(V(x) - E) psi, for a bounded V that decays at both ends, is
integrated backward from the transmitted wave psi = e^{ikx} at x = +x_max;
at -x_max, psi = A e^{ikx} + B e^{-ikx} gives T = 1/|A|^2, R = |B|^2/|A|^2.

The steps are the sixth-order Magnus maps of Blanes, Casas & Ros (BIT 40,
2000), which sample V at the Gauss points x_n + (1/2 -+ sqrt(15)/10, 1/2) h
and are exact where w = 2m(V - E) is constant, so the grid (from a pilot
sampling of V) is graded by where w varies: a step spans cfg.step / rho, with
rho^2 = f^2 (|w_top| + k_top^2) + |w'|^(2/3) and E_top the call's highest
energy: where |V| < E_top a step's error, about h^7 times derivatives of w,
falls with |V|, and f = (|V|/E_top)^(1/7) lengthens it (at most _STRETCH
times); the slope keeps steps short where V crosses E or 0.  The halves
[x_max, 0] and [0, -x_max] meet at a node at x = 0, and each jump of V that
the pilot sees gets a node by bisection: no sample falls on a node, so a
piecewise-constant w marches exactly.

det M = 1, so the flux residual |R + T - 1| only reports rounding.  The error
check is a nested pair: the call also marches the subgrid of every other node
of each segment between jumps (and its last when its count is odd), and
reports T = T_f + (T_f - T_c)/63, likewise R, and T_err = |T_f - T_c|/63.

A map is kept as D = M - I = (cosh mu - 1) I + (sinh mu / mu) Omega, with
mu^2 = -det Omega (I + D would round off its O(h) part), and pairs combine
as (I + B)(I + A) = I + (BA + A + B); cosh mu - 1 = 2 sinh^2 t and
sinh mu / mu = sinh t cosh t / t, t = mu / 2, are closed forms on every step
(sin and cos of |t| where mu^2 < 0), exact to rounding at any mu^2.
A grid's steps are built and marched ``_CHUNK`` at a time (memory does not
grow with a fine grid's step count beyond its nodes), their maps multiplied
pairwise (a tree) in blocks of ``_LANES`` energies, elementwise in the lanes:
an energy rounds as in any call with the same highest energy, and a failed
one leaves the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .model import _energies

Potential = Callable[[np.ndarray], np.ndarray]

__all__ = ["OracleError", "BoundaryNotDecayedError", "StepTooCoarseError",
           "IntegrationConfig", "OracleResult", "default_config", "integrate_scatter"]

_ERR_TOL = 1e-6     # T_err above this fails an energy
_DECAY_TOL = 1e-12  # |V| at the edges must be <= _DECAY_TOL * max(E, 1)
_STEPS = (1e-3, 0.5)  # the step scales IntegrationConfig allows
_STRETCH = 1e3   # the most a step lengthens where |V| << E_top
_PILOT = 4096    # pilot intervals per half, where the density is sampled
_CHUNK = 2048    # steps built and multiplied at once: numpy per-call cost against cache size
_LANES = 10      # energies per march; lanes x _CHUNK cells bound the map arrays
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


class OracleError(Exception):
    """Base class for oracle integration failures."""


class BoundaryNotDecayedError(OracleError):
    """|V| at the domain edge exceeds the allowed decay bound; enlarge x_max."""


class StepTooCoarseError(OracleError):
    """T_err exceeds 1e-6 or is not finite; a smaller IntegrationConfig.step refines the grid."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Integration domain [-x_max, x_max] and the grid's step scale, in
    [1e-3, 0.5]: a graded step spans a phase of about ``step`` (module
    docstring), and halving it doubles the steps and cuts T_err about 2^6
    times, to near 1e-18 at 0.005 on the paper's energies; the floor stops a
    step asking for ever more steps that add only rounding.  Above 0.5,
    T_err read up to 22 times under the error, and 0 on a one-step segment."""

    x_max: float
    step: float = 0.02

    def __post_init__(self) -> None:
        if not self.x_max > 0:
            raise ValueError(f"x_max must be > 0, got {self.x_max}")
        if not _STEPS[0] <= self.step <= _STEPS[1]:
            raise ValueError(f"step must be in [{_STEPS[0]:g}, {_STEPS[1]:g}], got {self.step}")


@dataclass(frozen=True)
class OracleResult:
    """R, T and diagnostics for one energy or, field by field, an array of
    energies, ``errors`` mapping the index of a failed one to its OracleError:
    ``T_err`` is |T_f - T_c|/63, ``flux_residual`` |R + T - 1| (rounding
    only), ``n_steps`` the fine grid's count (the coarse one's about half)."""

    R: float
    T: float
    T_err: float
    flux_residual: float
    n_steps: int
    errors: dict = field(default_factory=dict, repr=False)


def default_config(E: float | np.ndarray, potential: Potential, *,
                   x_max_seed: float = 20.0) -> IntegrationConfig:
    """One domain for the energies ``E`` (one or a 1-D array) and the
    potential, at the default step: the half-width doubles from
    ``x_max_seed`` until |V(+-x_max)| <= 1e-12 * max(E, 1) at the lowest
    energy, the tightest bound."""
    es = _energies(E)
    bound = _DECAY_TOL * max(float(es.min()), 1.0)
    x_max = float(x_max_seed)
    for _ in range(26):
        edge = float(np.max(np.abs(_eval_potential(potential, np.array([-x_max, x_max])))))
        if edge <= bound:
            break
        x_max *= 2.0
    else:
        raise BoundaryNotDecayedError(
            f"|V| still {edge:g} at x = +-{x_max:g}; potential does not decay")
    return IntegrationConfig(x_max=x_max)


def plane_wave_decompose(psi: np.ndarray, dpsi: np.ndarray, k: np.ndarray,
                         x: float) -> tuple[np.ndarray, np.ndarray]:
    """Split (psi, dpsi) at x into plane-wave amplitudes (A, B), elementwise
    over arrays: inverts psi = A e^{ikx} + B e^{-ikx}, dpsi = ik (A e^{ikx}
    - B e^{-ikx}) exactly; requires every k > 0 (k = 0 is degenerate)."""
    k = np.asarray(k, dtype=float)
    if not np.all(k > 0):
        raise ValueError(f"k must be > 0, got {k}")
    ik = 1j * k
    return ((psi + dpsi / ik) * np.exp(-ik * x) / 2.0,
            (psi - dpsi / ik) * np.exp(ik * x) / 2.0)


def _eval_potential(potential: Potential, xs: np.ndarray) -> np.ndarray:
    """The callback on the array of samples xs, in one call."""
    v = np.asarray(potential(xs), dtype=float)
    if v.shape != xs.shape:
        raise ValueError(f"the potential returned shape {v.shape} for samples {xs.shape}")
    return v


def _nodes(potential: Potential, m: float, cfg: IntegrationConfig, e_top: float):
    """The nodes, x_max through 0 to -x_max, of the fine grid for energies up
    to ``e_top`` and of its subgrid."""
    t = np.linspace(0.0, cfg.x_max, _PILOT + 1)  # the left half from V(0-) on
    v = _eval_potential(potential, np.concatenate((t, [-5e-324], -t[1:]))).reshape(2, t.size)
    # a jump changes V over 4 times as much as the intervals two away from it
    # together (a smooth V, about half); bisection brings [lo, hi] down to it
    d = np.abs(np.diff(v, axis=1))
    e = np.pad(d, ((0, 0), (2, 2)), mode="edge")
    jump = d > 4.0 * (e[:, :-4] + e[:, 4:])
    half, i = np.nonzero(jump)
    lo, hi, va, vb = t[i], t[i + 1], v[half, i], v[half, i + 1]
    for _ in range(64 if half.size else 0):  # enough from any pilot interval
        mid = 0.5 * (lo + hi)
        vm = _eval_potential(potential, np.where(half, -mid, mid))
        lo, hi = np.where(np.abs(vm - va) <= np.abs(vb - va) / 2.0, (mid, hi), (lo, mid))
    # an interval's rho^2, its wave term taken at the larger end so that a
    # peak inside it (x = 0 on tall barriers) still gets short steps
    wave = (2.0 * m) * (np.abs(v - e_top) + e_top) * np.clip(
        np.minimum(np.abs(v), e_top) / e_top, _STRETCH ** -7, 1.0) ** (2.0 / 7.0)
    slope = np.where(jump, 0.0, (2.0 * m * _PILOT / cfg.x_max) * d) ** (2.0 / 3.0)
    rho = np.sqrt(np.maximum(wave[:, :-1], wave[:, 1:]) + slope)
    cum = np.pad(np.cumsum(rho * (cfg.x_max / _PILOT), axis=1), ((0, 0), (1, 0)))
    halves = []
    for h, acc in enumerate(cum):
        count = math.ceil(acc[-1] / cfg.step)
        # a node on each jump, just past it; the segments between share the
        # steps as they share the density, at least one each
        ends = np.concatenate(([0.0], hi[half == h], [cfg.x_max]))
        c = np.interp(ends, t, acc)
        j = np.arange(ends.size)
        idx = j + np.maximum.accumulate(np.round(c / acc[-1] * count) - j).astype(int)
        nodes = np.interp(np.interp(np.arange(idx[-1] + 1), idx, c), acc, t)
        nodes[idx] = ends
        halves.append([nodes[a:b + 1] for a, b in zip(idx[:-1], idx[1:])])
    # in marching order, each segment's subgrid its every other node and last
    segs = [s[::-1] for s in halves[0][::-1]] + [-s for s in halves[1]]
    subs = [s[::2] if s.size % 2 else np.append(s[::2], s[-1]) for s in segs]
    return [np.concatenate([g[0]] + [s[1:] for s in g[1:]]) for g in (segs, subs)]


def _steps(potential: Potential, m: float, nodes: np.ndarray):
    """The steps between ``nodes`` as (v, c): V at their middle Gauss points
    and the rows (p0, p1, q, r0, r1) of Omega = [[p, q], [r, -p]],
    p = p0 + p1 w, r = r0 + r1 w, w = 2m(v - E)."""
    h = np.diff(nodes)
    v1, v, v3 = _eval_potential(potential, nodes[:-1] + np.outer(_GAUSS, h))
    a2 = (2.0 * m * math.sqrt(15.0) / 3.0) * h * (v3 - v1)
    a3 = (20.0 * m / 3.0) * h * (v3 - 2.0 * v + v1)
    h2, a22 = h * h, a2 * a2
    c = np.array([a2 * h * (h * a3 / 30.0 - 20.0) / 240.0, a2 * h * h2 / 180.0,
                  h + h2 * (h * a22 - 20.0 * a3) / 3600.0,
                  a3 / 12.0 - h * (a22 - a3 * a3 / 30.0) / 120.0,
                  h + h2 * (h * a22 + 20.0 * a3) / 3600.0])
    return v, c


def _maps(c: np.ndarray, w: np.ndarray) -> np.ndarray:
    # D = M - I, (2, 2, lanes, n), of the steps c of _steps at w (lanes, n)
    p, r = c[0] + c[1] * w, c[3] + c[4] * w
    z = p * p + c[2] * r  # mu^2
    # filled in place (np.array copies 4 rows), its rows holding t, sh, ch
    # and s on the way: chunk-sized temporaries would raise the peak
    d = np.empty((2, 2) + z.shape)
    t, sh, ch, s = d[1, 0], d[0, 0], d[0, 1], d[1, 1]
    np.sqrt(np.abs(z, out=t), out=t)
    t *= 0.5
    grow = z > 0.0
    np.sinh(t, out=sh, where=grow)
    np.sin(t, out=sh, where=~grow)
    np.cosh(t, out=ch, where=grow)
    np.cos(t, out=ch, where=~grow)
    s.fill(1.0)  # sinh mu / mu = sh ch / t, 1 at mu = 0
    np.divide(np.multiply(sh, ch, out=ch), t, out=s, where=t > 0.0)
    cm = np.multiply(sh, sh, out=sh)  # cosh mu - 1 = 2 sh^2, signed as mu^2
    np.copysign(cm, z, out=cm)
    cm *= 2.0
    sp = np.multiply(s, p, out=p)
    np.multiply(s, c[2], out=d[0, 1])
    np.multiply(s, r, out=d[1, 0])
    np.subtract(cm, sp, out=d[1, 1])
    np.add(cm, sp, out=d[0, 0])
    return d


def _march(v, c, eb: np.ndarray, m: float, state: np.ndarray):
    # one chunk of steps (v, c) of _steps applied to the (2, lanes) state at eb
    dev = _maps(c, (2.0 * m) * (v - eb))
    while dev.shape[-1] > 1:
        # I + (ba + a + b), a the earlier step of each pair, in place
        a, b = dev[..., 0:-1:2], dev[..., 1::2]
        ba = b[:, :1] * a[:1]
        ba += b[:, 1:] * a[1:]
        ba += a
        ba += b
        dev = np.concatenate((ba, dev[..., -1:]), axis=-1) if dev.shape[-1] % 2 else ba
    # state + D @ state per lane, rounded as the 2x2 matmul of one lane
    return state + (dev[:, 0, :, 0] * state[0] + dev[:, 1, :, 0] * state[1])


def integrate_scatter(E: float | np.ndarray, potential: Potential, m: float,
                      cfg: IntegrationConfig) -> OracleResult:
    """Integrate backward across [-x_max, x_max] and extract R and T.

    ``E`` is one energy or a 1-D array of energies that share ``cfg`` and a
    grid graded for the highest of them; T, R and T_err are those of the
    nested pair (module docstring).  An energy fails with
    BoundaryNotDecayedError when V has not decayed at the edges, and with
    StepTooCoarseError when T_err exceeds 1e-6, it or R is not finite, or
    |A|^2 overflows on either grid.
    One energy returns floats and raises its error; an array returns
    arrays, nan at a failed energy, and ``errors`` maps its index to its
    error.  ``potential`` must return an array of its argument's shape."""
    es = _energies(E)
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    L = cfg.x_max
    boundary = float(np.max(np.abs(_eval_potential(potential, np.array([-L, L])))))
    energies = es.tolist()
    errors: dict[int, OracleError] = {
        i: BoundaryNotDecayedError(f"|V(+-{L:g})| = {boundary:g} exceeds {_DECAY_TOL:g}"
                                   f"*max(E,1) = {b:g}; enlarge x_max")
        for i, b in enumerate(_DECAY_TOL * max(e, 1.0) for e in energies) if boundary > b}
    lanes = np.array([i for i in range(es.size) if i not in errors], dtype=int)
    R, T, T_err, flux = np.full((4, es.size), math.nan)
    nodes = _nodes(potential, m, cfg, max(energies)) if lanes.size else []
    n_steps = nodes[0].size - 1 if nodes else 0
    k = np.sqrt(2.0 * m * es[lanes])
    p0 = np.exp(1j * k * L)
    tr = []  # T and R on each grid
    # a march that overflows gives a T_err that is not finite, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for x in nodes:
            state = np.array([p0, 1j * k * p0])
            for lo in range(0, x.size - 1, _CHUNK):
                v, c = _steps(potential, m, x[lo:lo + _CHUNK + 1])
                for start in range(0, lanes.size, _LANES):
                    block = slice(start, start + _LANES)
                    state[:, block] = _march(v, c, es[lanes[block], None], m, state[:, block])
            A, B = plane_wave_decompose(*state, k, -L)  # R = |B/A|^2 holds where |A|^2 overflows
            tr += [1.0 / (A.real * A.real + A.imag * A.imag), np.abs(B / A) ** 2]
        tf, rf, tc, rc = tr or np.empty((4, 0))
        # T = 0 where |A|^2 overflows on a grid: T is below float range there
        err = np.where(np.isfinite(rf + rc) & (tf > 0.0) & (tc > 0.0),
                       np.abs(tf - tc) / 63.0, math.nan)
        ok = err <= _ERR_TOL
        i = lanes[ok]
        T[i], R[i] = (tf + (tf - tc) / 63.0)[ok], (rf + (rf - rc) / 63.0)[ok]
        T_err[i], flux[i] = err[ok], np.abs(R[i] + T[i] - 1.0)
    for i, e in zip(lanes[~ok].tolist(), err[~ok].tolist()):
        errors[i] = StepTooCoarseError(
            f"T error estimate {e:g} exceeds {_ERR_TOL:g} at E={energies[i]} "
            f"(step={cfg.step}); reduce the step (IntegrationConfig.step, "
            "--oracle-step)" + ("" if e < math.inf else ", or T is below float range"))
    if np.ndim(E) == 0:
        if errors:
            raise errors[0]
        R, T, T_err, flux = float(R[0]), float(T[0]), float(T_err[0]), float(flux[0])
    return OracleResult(R=R, T=T, T_err=T_err, flux_residual=flux, n_steps=n_steps,
                        errors=dict(sorted(errors.items())))
