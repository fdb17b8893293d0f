"""Independent R/T reference by direct integration of the wave equation.

For any bounded potential that decays at both ends, the stationary equation
psi'' = 2m(V(x) - E) psi is integrated backward from x = +x_max, starting
from a pure right-moving wave psi = e^{ikx} (nothing comes in from the
right).  At x = -x_max the solution is decomposed into incident and
reflected plane waves, psi = A e^{ikx} + B e^{-ikx}, giving

    T = 1 / |A|^2,      R = |B|^2 / |A|^2.

The integrator is classical RK4 on (psi, psi'), 4th order on a graded grid
of two halves, [x_max, 0] and [0, -x_max].  The steps of a half cover equal
shares of its integral of sqrt(|w_top| + k_top^2), w_top = 2m(V - E_top),
k_top^2 = 2m E_top, E_top the call's highest energy, from a pilot sampling
of V: a step is about _C0 / sqrt(|w| + k^2) long.  ``IntegrationConfig.step``
is a budget: a half takes at most half of ceil(2 x_max / step) steps, the
count of a uniform grid of that step.  The right half ends on V(0+) and
the left half starts on V(0-), the potential at nextafter(0, +-1), so the
order holds across a jump at x = 0 (q != q_tilde in this package's
barriers) whichever side's limit V(0) itself is.
That is the only jump handled: elsewhere one costs an order unless it falls
on a node, as it does where the density, and so the grid, is uniform.

The march is a product of step maps.  w = 2m(V - E) is real, so a step is
a real 2x2 map of the complex state (psi, psi').  A map is I + O(h), so it
is kept as D = M - I and pairs combine as (I + B)(I + A) = I + (A + B + BA):
I + D itself would round off the O(h) part (about 1e-12 relative in T).

One call integrates an array of energies on one grid, whose samples of V
and step coefficients are formed once.  The energies march in blocks of
``_LANES`` lanes, and for each chunk of ``_CHUNK`` steps w and the maps
are formed with a lane axis, multiplied pairwise (a tree) and applied to
the states in order, so memory stays at lanes x chunk cells next to the
grid.  Every operation is elementwise in the lanes, so each energy rounds
exactly as it does in any call with the same highest energy.  The boundary
check |V(+-x_max)| <= _DECAY_TOL * max(E, 1), the bound ``default_config``
widens the domain to meet, and the flux residual |R + T - 1| are checked
per energy on every run; a failed energy leaves the others unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Potential = Callable[[np.ndarray], np.ndarray]

__all__ = ["OracleError", "BoundaryNotDecayedError", "StepTooCoarseError",
           "IntegrationConfig", "OracleResult", "default_config",
           "integrate_scatter", "plane_wave_decompose"]

_FLUX_TOL = 1e-6
_DECAY_TOL = 1e-12  # |V| at the edges must be <= _DECAY_TOL * max(E, 1)
_C0 = 1.6e-3   # the graded step times sqrt(|w_top| + k_top^2)
_PILOT = 4096  # pilot cells per half, where the step density is sampled
_CHUNK = 8192  # steps per tree product; amortizes numpy's per-call cost
_LANES = 4     # energies per march; lanes x _CHUNK cells bound the map arrays


class OracleError(Exception):
    """Base class for oracle integration failures."""


class BoundaryNotDecayedError(OracleError):
    """|V| at the domain edge exceeds the allowed decay bound; enlarge x_max."""


class StepTooCoarseError(OracleError):
    """Flux residual after integration exceeds 1e-6; reduce the step budget."""


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
    mapping the index of a failed energy to its OracleError.  ``n_steps``
    is the march's step count, one grid for all the energies of a call."""

    R: float
    T: float
    flux_residual: float
    boundary_potential: float
    n_steps: int
    errors: dict = field(default_factory=dict, repr=False)


def default_config(E: float | np.ndarray, potential: Potential, m: float = 1.0,
                   x_max_seed: float = 20.0) -> IntegrationConfig:
    """Pick one domain and step budget for the energies ``E`` (one energy or
    a 1-D array of them) and the potential.

    The half-width starts at ``x_max_seed`` and doubles until
    |V(+-x_max)| <= 1e-12 * max(E, 1) at the lowest energy, whose bound is
    the tightest; the step, min(0.001, 0.02/k) at the highest energy, the
    smallest, caps the graded grid at the step count of a uniform grid of
    that step.
    """
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
                             step=min(1e-3, 0.02 / math.sqrt(2.0 * m * float(es.max()))))


def plane_wave_decompose(psi: complex, dpsi: complex, k: float,
                         x: float) -> tuple[complex, complex]:
    """Split (psi, dpsi) at position x into plane-wave amplitudes (A, B).

    Inverts psi = A e^{ikx} + B e^{-ikx}, dpsi = ik (A e^{ikx} - B e^{-ikx})
    exactly; requires k > 0 (the k = 0 basis is degenerate).
    """
    if not k > 0:
        raise ValueError(f"k must be > 0, got {k}")
    ik = 1j * k
    A = (psi + dpsi / ik) * cmath.exp(-ik * x) / 2.0
    B = (psi - dpsi / ik) * cmath.exp(ik * x) / 2.0
    return A, B


def _eval_potential(potential: Potential, xs: np.ndarray) -> np.ndarray:
    """The callback on the array of samples xs, in one call."""
    v = np.asarray(potential(xs), dtype=float)
    if v.shape != xs.shape:
        raise ValueError(f"the potential returned shape {v.shape} for samples {xs.shape}")
    return v


def _grid(potential: Potential, m: float, cfg: IntegrationConfig, e_top: float):
    """The halves [x_max, 0] and [0, -x_max] of the grid for energies up to
    ``e_top``, each as (v, c): V on its nodes and midpoints in marching
    order, and the rows (h, h^2/6, h^4/24, h^3/6, h/6, h^2/2) of its steps."""
    cap = math.ceil(2.0 * cfg.x_max / cfg.step) // 2
    s = np.linspace(0.0, cfg.x_max, _PILOT + 1)
    mid = 0.5 * (s[:-1] + s[1:])
    w = (2.0 * m) * (_eval_potential(potential, np.concatenate((mid, -mid))) - e_top)
    rho = np.sqrt(np.abs(w) + 2.0 * m * e_top).reshape(2, _PILOT)
    cum = np.pad(np.cumsum(rho * (cfg.x_max / _PILOT), axis=1), ((0, 0), (1, 0)))
    halves = []
    for sign, acc in zip((1.0, -1.0), cum):
        n = math.ceil(acc[-1] / _C0) if acc[-1] < cap * _C0 else cap
        q = np.linspace(0.0, acc[-1], n + 1)
        nodes = np.interp(q[::-1], acc, s) if sign > 0 else -np.interp(q, acc, s)
        x = np.empty(2 * n + 1)
        x[0::2], x[1::2] = nodes, 0.5 * (nodes[:-1] + nodes[1:])
        # the seam's node takes the limit from its own side, V(0+) or V(0-)
        x[-1 if sign > 0 else 0] = np.nextafter(0.0, sign)
        h = np.diff(nodes)
        c = np.empty((6, n))  # one block: on six separate arrays the march ran 1.5x slower
        c[0], c[5] = h, h * h
        c[1], c[2], c[3], c[4] = c[5] / 6.0, c[5] * c[5] / 24.0, c[5] * h / 6.0, h / 6.0
        c[5] *= 0.5
        halves.append((_eval_potential(potential, x), c))
    return halves


def _rk4_maps(w: np.ndarray, c: np.ndarray) -> np.ndarray:
    # D = M - I of the RK4 steps, (2, 2, lanes, n), from w (lanes, 2n + 1) and the rows c
    w0, w1, w2 = w[..., :-2:2], w[..., 1::2], w[..., 2::2]
    h, h26, h424, h36, h6, h22 = c
    return np.array([[h26 * (w0 + 2.0 * w1) + h424 * w0 * w1, h + h36 * w1],
                     [h6 * (w0 + 4.0 * w1 + w2 + h22 * w1 * (w0 + w2)),
                      h26 * (2.0 * w1 + w2) + h424 * w1 * w2]])


def _march(halves, eb: np.ndarray, m: float, state: np.ndarray):
    # the RK4 steps of each half (v, c) of _grid, applied in order to the
    # (2, lanes) state at the energies eb (lanes, 1)
    for v, c in halves:
        for lo in range(0, c.shape[1], _CHUNK):
            hi = min(lo + _CHUNK, c.shape[1])
            dev = _rk4_maps((2.0 * m) * (v[2 * lo:2 * hi + 1] - eb), c[:, lo:hi])
            while dev.shape[-1] > 1:
                a, b = dev[..., 0:-1:2], dev[..., 1::2]
                ba = a + b + b[:, :1] * a[:1] + b[:, 1:] * a[1:]
                dev = np.concatenate((ba, dev[..., -1:]), axis=-1) if dev.shape[-1] % 2 else ba
            # state + D @ state per lane, rounded as the 2x2 matmul of one lane
            state = state + (dev[:, 0, :, 0] * state[0] + dev[:, 1, :, 0] * state[1])
    return state


def integrate_scatter(E: float | np.ndarray, potential: Potential, m: float,
                      cfg: IntegrationConfig) -> OracleResult:
    """Integrate backward across [-x_max, x_max] and extract R and T.

    The start state at +x_max is the transmitted wave psi = e^{ikx},
    psi' = ik e^{ikx}.  ``E`` is one energy or a 1-D array of energies that
    share ``cfg`` and a grid graded for the highest of them.  A lane fails
    with BoundaryNotDecayedError when the potential has not decayed at the
    edges and with StepTooCoarseError when its flux residual exceeds 1e-6
    (e.g. an unstable step for the energy).  One energy returns floats and
    raises its error; an array returns arrays of R, T and flux_residual, nan
    at a failed lane, with ``errors`` mapping each failed lane's index to
    its error.  ``potential`` must return an array of its argument's shape.
    """
    es = np.array(E, dtype=float, ndmin=1)
    if es.ndim != 1 or not np.all((es > 0.0) & (es < np.inf)):
        raise ValueError(f"E must be > 0, got {E!r}")
    if not m > 0:
        raise ValueError(f"m must be > 0, got {m}")
    L = cfg.x_max
    boundary = float(np.max(np.abs(_eval_potential(potential, np.array([-L, L])))))
    energies = es.tolist()
    errors: dict[int, OracleError] = {}
    for i, e in enumerate(energies):
        if boundary > _DECAY_TOL * max(e, 1.0):
            errors[i] = BoundaryNotDecayedError(
                f"|V(+-{L:g})| = {boundary:g} exceeds {_DECAY_TOL:g}*max(E,1) = "
                f"{_DECAY_TOL * max(e, 1.0):g}; enlarge x_max")
    lanes = [i for i in range(es.size) if i not in errors]
    R, T, flux = np.full((3, es.size), math.nan)
    halves = _grid(potential, m, cfg, max(energies)) if lanes else []
    for start in range(0, len(lanes), _LANES):
        block = lanes[start:start + _LANES]
        ks = [math.sqrt(2.0 * m * energies[i]) for i in block]
        p0 = [cmath.exp(1j * k * L) for k in ks]
        # an unstable step overflows; the flux check below reports it
        with np.errstate(over="ignore", invalid="ignore"):
            psi, dpsi = _march(halves, es[block, None], m,
                               np.array([p0, [1j * k * p for k, p in zip(ks, p0)]]))
        for j, (i, k) in enumerate(zip(block, ks)):
            A, B = plane_wave_decompose(complex(psi[j]), complex(dpsi[j]), k, -L)
            aa = A.real * A.real + A.imag * A.imag
            bb = B.real * B.real + B.imag * B.imag
            t = 1.0 / aa if aa > 0 else math.inf
            r = bb / aa if aa > 0 else math.inf
            residual = abs(r + t - 1.0)
            if residual <= _FLUX_TOL:
                R[i], T[i], flux[i] = r, t, residual
            else:
                errors[i] = StepTooCoarseError(
                    f"flux residual {residual:g} exceeds {_FLUX_TOL:g} at E={energies[i]} "
                    f"(step={cfg.step}); reduce the step budget "
                    "(IntegrationConfig.step, --oracle-step)")
    n_steps = sum(c.shape[1] for _, c in halves)
    if np.ndim(E) == 0:
        if errors:
            raise errors[0]
        return OracleResult(R=float(R[0]), T=float(T[0]), flux_residual=float(flux[0]),
                            boundary_potential=boundary, n_steps=n_steps)
    return OracleResult(R=R, T=T, flux_residual=flux, boundary_potential=boundary,
                        n_steps=n_steps, errors=dict(sorted(errors.items())))
