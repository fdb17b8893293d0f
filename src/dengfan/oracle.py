"""Independent R/T reference by direct integration of the wave equation.

psi'' = 2m(V(x) - E) psi, for a bounded V that decays at both ends, is
integrated backward from the transmitted wave psi = e^{ikx} at x = +x_max;
at -x_max, psi = A e^{ikx} + B e^{-ikx} gives T = 1/|A|^2, R = |B|^2/|A|^2.

The steps are the sixth-order Magnus maps of Blanes, Casas & Ros (BIT 40,
2000): a step samples V at its Gauss points x_n + (1/2 -+ sqrt(15)/10, 1/2) h,
and its map M = exp(Omega) is exact where w = 2m(V - E) is constant.  The
halves [x_max, 0] and [0, -x_max] are graded: a step is about
_C0 / sqrt(|w_top| + k_top^2) long (E_top the call's highest energy, from a
pilot sampling of V), and a half takes at most half of ceil(2 x_max / step)
steps, ``IntegrationConfig.step`` being a budget that refines only a half it
caps.  No sample falls on a node, so the order holds across a jump at x = 0;
a jump elsewhere falls inside a step unless the grid happens to put a node
on it, and the march is first order there at any budget.

det M = 1, so the flux residual |R + T - 1| only reports rounding, however
coarse the step.  The error check is a nested pair: the call also marches
the every-other-node subgrid (plus the last node of an odd half), with its
own Gauss samples, and reports T = T_f + (T_f - T_c)/63, likewise R, and
T_err = |T_f - T_c|/63, the sixth-order estimate of the fine march's error.

A map is kept as D = M - I = (cosh mu - 1) I + (sinh mu / mu) Omega,
mu^2 = -det Omega (I + D would round off its O(h) part); pairs combine as
(I + B)(I + A) = I + (BA + A + B).  cosh mu - 1 and sinh mu / mu are series
in mu^2 with a term count the grid sets, exact to rounding at every energy
up to E_top, or closed forms where |mu^2| may pass 1.  Energies march in
blocks of ``_LANES``, in chunks of ``_CHUNK`` maps multiplied pairwise (a
tree), all elementwise in the lanes: an energy rounds as in any call with
the same highest energy, and a failed energy leaves the others as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Potential = Callable[[np.ndarray], np.ndarray]

__all__ = ["OracleError", "BoundaryNotDecayedError", "StepTooCoarseError",
           "IntegrationConfig", "OracleResult", "default_config",
           "integrate_scatter", "plane_wave_decompose"]

_ERR_TOL = 1e-6     # T_err above this fails an energy
_DECAY_TOL = 1e-12  # |V| at the edges must be <= _DECAY_TOL * max(E, 1)
_C0 = 0.012    # the graded step times sqrt(|w_top| + k_top^2)
_PILOT = 4096  # pilot cells per half, where the step density is sampled
_CHUNK = 2048  # steps per tree product: numpy per-call cost against cache size
_LANES = 4     # energies per march; lanes x _CHUNK cells bound the map arrays
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])


class OracleError(Exception):
    """Base class for oracle integration failures."""


class BoundaryNotDecayedError(OracleError):
    """|V| at the domain edge exceeds the allowed decay bound; enlarge x_max."""


class StepTooCoarseError(OracleError):
    """T_err exceeds 1e-6 or is not finite; the message says if a smaller step helps."""


@dataclass(frozen=True)
class IntegrationConfig:
    """Integration domain [-x_max, x_max] and step budget: the graded grid
    takes at most ceil(2 x_max / step) steps, half of them per half."""

    x_max: float
    step: float

    def __post_init__(self) -> None:
        if not self.x_max > 0:
            raise ValueError(f"x_max must be > 0, got {self.x_max}")
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.step > self.x_max / 100.0:
            raise ValueError(f"step {self.step} too large for x_max "
                             f"{self.x_max} (need step <= x_max/100)")


@dataclass(frozen=True)
class OracleResult:
    """R, T from direct integration plus integration diagnostics, for one
    energy or, field by field, for an array of energies with ``errors``
    mapping the index of a failed energy to its OracleError.  ``T_err`` is
    |T_f - T_c|/63, ``flux_residual`` |R + T - 1| (rounding only), and
    ``n_steps`` the fine grid's count (the coarse one's is about half)."""

    R: float
    T: float
    T_err: float
    flux_residual: float
    boundary_potential: float
    n_steps: int
    errors: dict = field(default_factory=dict, repr=False)


def default_config(E: float | np.ndarray, potential: Potential, m: float = 1.0,
                   x_max_seed: float = 20.0) -> IntegrationConfig:
    """One domain and step budget for the energies ``E`` (one or a 1-D array)
    and the potential: the half-width doubles from ``x_max_seed`` until
    |V(+-x_max)| <= 1e-12 * max(E, 1) at the lowest energy, the tightest
    bound; the step is min(0.002, 0.07/k) at the highest, the smallest."""
    es = np.array(E, dtype=float, ndmin=1)
    if es.ndim != 1 or es.size == 0 or not np.all((es > 0.0) & (es < np.inf)):
        raise ValueError(f"E must be > 0, got {E!r}")
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
    return IntegrationConfig(x_max=x_max,
                             step=min(2e-3, 0.07 / math.sqrt(2.0 * m * float(es.max()))))


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
    to ``e_top`` and of its subgrid (every other node of each half and its
    last when its count is odd), and whether the budget caps either half."""
    cap = math.ceil(2.0 * cfg.x_max / cfg.step) // 2
    t = np.linspace(0.0, cfg.x_max, 2 * _PILOT + 1)
    w = (2.0 * m) * (_eval_potential(potential, np.concatenate((t, -t))) - e_top)
    rho = np.sqrt(np.abs(w) + 2.0 * m * e_top).reshape(2, t.size)
    # a cell's density is its largest at ends and midpoint, so that a peak
    # inside a cell (x = 0 on tall barriers) still gets short steps
    rho = np.maximum(np.maximum(rho[:, :-2:2], rho[:, 1::2]), rho[:, 2::2])
    cum = np.pad(np.cumsum(rho * (cfg.x_max / _PILOT), axis=1), ((0, 0), (1, 0)))
    n = [min(math.ceil(acc[-1] / _C0), cap) for acc in cum]
    right, left = (np.interp(np.linspace(0.0, acc[-1], k + 1), acc, t[::2])
                   for acc, k in zip(cum, n))
    halves = [right[::-1], -left]
    sub = [x[::2] if x.size % 2 else np.append(x[::2], x[-1]) for x in halves]
    return [np.concatenate((a, b[1:])) for a, b in (halves, sub)], cap in n


def _steps(potential: Potential, m: float, nodes: np.ndarray, e_top: float):
    """The steps between ``nodes`` as (v, c, terms): V at their middle Gauss
    points, the rows (p0, p1, q, r0, r1) of Omega = [[p0 + p1 w, q],
    [r0 + r1 w, -p0 - p1 w]], w = 2m(v - E), and the series' term count for
    energies up to ``e_top`` (0: closed forms)."""
    h = np.diff(nodes)
    v1, v, v3 = _eval_potential(potential, nodes[:-1] + np.outer(_GAUSS, h))
    a2 = (2.0 * m * math.sqrt(15.0) / 3.0) * h * (v3 - v1)
    a3 = (20.0 * m / 3.0) * h * (v3 - 2.0 * v + v1)
    h2, a22 = h * h, a2 * a2
    c = np.array([a2 * h * (h * a3 / 30.0 - 20.0) / 240.0, a2 * h * h2 / 180.0,
                  h + h2 * (h * a22 - 20.0 * a3) / 3600.0,
                  a3 / 12.0 - h * (a22 - a3 * a3 / 30.0) / 120.0,
                  h + h2 * (h * a22 + 20.0 * a3) / 3600.0])
    # |mu^2| = |p^2 + q r| at most, for every w from 2m(v - e_top) to 2mv
    w = (2.0 * m) * np.maximum(np.abs(v), np.abs(v - e_top))
    a = np.abs(c)
    bound = float(np.max((a[0] + a[1] * w) ** 2 + a[2] * (a[3] + a[4] * w), initial=0.0))
    # the first omitted term below 2^-54 of the sum, which is >= 5/6 there
    terms = next((n for n in range(1, 10)
                  if bound ** n <= 2.0 ** -54 * math.factorial(2 * n + 1)), 0)
    return v, c, terms


def _maps(c: np.ndarray, terms: int, w: np.ndarray) -> np.ndarray:
    # D = M - I of the steps (c, terms) of _steps, (2, 2, lanes, n), from w
    # (lanes, n) at their middle points
    p, r = c[0] + c[1] * w, c[3] + c[4] * w
    z = p * p + c[2] * r  # mu^2
    # where it is exact, the series makes the Table-1 call about 20% faster
    if terms:  # Horner: s = sum z^n / (2n+1)!, cm = z sum z^n / (2n+2)!
        f = [1.0 / math.factorial(j) for j in range(2 * terms + 1)]
        s, cm = np.full(z.shape, f[-2]), np.full(z.shape, f[-1])
        for j in range(2 * terms - 3, 0, -2):
            s *= z
            s += f[j]
            cm *= z
            cm += f[j + 1]
        cm *= z
    else:  # sinh mu / mu = sh ch / t and cosh mu - 1 = 2 sh^2, t = mu / 2
        t = 0.5 * np.sqrt(np.abs(z))
        grow = z > 0.0
        sh = np.where(grow, np.sinh(t), np.sin(t))
        s = np.divide(sh * np.where(grow, np.cosh(t), np.cos(t)), t,
                      out=np.ones_like(t), where=t > 0.0)
        cm = 2.0 * np.copysign(sh * sh, z)
    d = np.empty((2, 2) + z.shape)  # filled in place: np.array copies 4 rows
    sp = np.multiply(s, p, out=d[1, 0])
    np.add(cm, sp, out=d[0, 0])
    np.subtract(cm, sp, out=d[1, 1])
    np.multiply(s, c[2], out=d[0, 1])
    np.multiply(s, r, out=d[1, 0])
    return d


def _march(v, c, terms, eb: np.ndarray, m: float, state: np.ndarray):
    # the steps (v, c, terms) of _steps applied to the (2, lanes) state at eb
    for lo in range(0, c.shape[1], _CHUNK):
        hi = min(lo + _CHUNK, c.shape[1])
        dev = _maps(c[:, lo:hi], terms, (2.0 * m) * (v[lo:hi] - eb))
        while dev.shape[-1] > 1:
            # I + (ba + a + b), a the earlier step of each pair, in place
            a, b = dev[..., 0:-1:2], dev[..., 1::2]
            ba = b[:, :1] * a[:1]
            ba += b[:, 1:] * a[1:]
            ba += a
            ba += b
            dev = np.concatenate((ba, dev[..., -1:]), axis=-1) if dev.shape[-1] % 2 else ba
        # state + D @ state per lane, rounded as the 2x2 matmul of one lane
        state = state + (dev[:, 0, :, 0] * state[0] + dev[:, 1, :, 0] * state[1])
    return state


def integrate_scatter(E: float | np.ndarray, potential: Potential, m: float,
                      cfg: IntegrationConfig) -> OracleResult:
    """Integrate backward across [-x_max, x_max] and extract R and T.

    ``E`` is one energy or a 1-D array of energies that share ``cfg`` and a
    grid graded for the highest of them.  Each marches on the grid and its
    every-other-node subgrid: T = T_f + (T_f - T_c)/63, likewise R, and
    T_err = |T_f - T_c|/63.  An energy fails with BoundaryNotDecayedError
    when V has not decayed at the edges, and with StepTooCoarseError when
    T_err exceeds 1e-6 or it or R is not finite.  One energy returns floats
    and raises its error; an array returns arrays, nan at a failed energy,
    and ``errors`` maps its index to its error.  ``potential`` must return
    an array of its argument's shape.
    """
    es = np.array(E, dtype=float, ndmin=1)
    if es.ndim != 1 or not np.all((es > 0.0) & (es < np.inf)):
        raise ValueError(f"E must be > 0, got {E!r}")
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
    nodes, capped = _nodes(potential, m, cfg, max(energies)) if lanes.size else ([], True)
    grids = [_steps(potential, m, x, max(energies)) for x in nodes]
    n_steps = grids[0][1].shape[1] if grids else 0
    advice = ("reduce the step budget (IntegrationConfig.step, --oracle-step)" if capped
              else "the budget does not cap this grid, so a smaller step will not refine it")
    # a march that overflows gives a T_err that is not finite, reported below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, lanes.size, _LANES):
            block = lanes[start:start + _LANES]
            k = np.sqrt(2.0 * m * es[block])
            p0 = np.exp(1j * k * L)
            tr = []
            for grid in grids:  # R = |B/A|^2 holds where |A|^2 overflows
                A, B = plane_wave_decompose(
                    *_march(*grid, es[block, None], m, np.array([p0, 1j * k * p0])), k, -L)
                tr += [1.0 / (A.real * A.real + A.imag * A.imag), np.abs(B / A) ** 2]
            tf, rf, tc, rc = tr
            err = np.where(np.isfinite(rf + rc), np.abs(tf - tc) / 63.0, math.nan)
            ok = err <= _ERR_TOL
            i = block[ok]
            T[i], R[i] = (tf + (tf - tc) / 63.0)[ok], (rf + (rf - rc) / 63.0)[ok]
            T_err[i], flux[i] = err[ok], np.abs(R[i] + T[i] - 1.0)
            for i, e in zip(block[~ok].tolist(), err[~ok].tolist()):
                errors[i] = StepTooCoarseError(f"T error estimate {e:g} exceeds {_ERR_TOL:g} "
                                               f"at E={energies[i]} (step={cfg.step}); {advice}")
    if np.ndim(E) == 0:
        if errors:
            raise errors[0]
        R, T, T_err, flux = float(R[0]), float(T[0]), float(T_err[0]), float(flux[0])
    return OracleResult(R=R, T=T, T_err=T_err, flux_residual=flux,
                        boundary_potential=boundary, n_steps=n_steps,
                        errors=dict(sorted(errors.items())))
