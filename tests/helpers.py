"""Shared test oracles: high-precision brute-force 2F1, the benchmark's
high-precision T, a step-by-step Magnus-6 march and parameter draws."""

from __future__ import annotations

import cmath
import importlib.util
import math
from pathlib import Path

import mpmath as mp
import numpy as np

from dengfan import BarrierParams
from dengfan.oracle import _nodes


def hyp2f1_bruteforce(a, b, c, z, tol="1e-18", max_terms=100_000):
    """Term-by-term 2F1 series in 40-digit arithmetic; independent of the
    package's evaluator (no transformations, no stopping heuristics)."""
    with mp.workdps(40):
        a, b, c, z = mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(z)
        tol = mp.mpf(tol)
        term = mp.mpc(1)
        total = mp.mpc(1)
        for n in range(max_terms):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            total += term
            if abs(term) <= tol * abs(total):
                break
        else:
            raise RuntimeError("brute-force series did not converge")
        return complex(total)


def load_benchmark_module(name: str):
    """``benchmarks/<name>.py`` loaded as a module, read only."""
    path = Path(__file__).parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_transmission(E: float, params: BarrierParams) -> float:
    """T(E) from the benchmark's mpmath reference (``benchmarks/reference.py``,
    which calls nothing in dengfan), accurate far below double rounding."""
    module = load_benchmark_module("reference")
    return module.transmission(E, params.v0, params.a, params.x_e, params.q,
                               params.q_tilde, params.m)


def draw_barrier_params(rng, symmetric: bool | None = None) -> BarrierParams:
    """A random physically sane parameter set (moderate deformations keep the
    hypergeometric parameter magnitudes in well-conditioned territory)."""
    q = float(rng.uniform(0.3, 0.95))
    if symmetric is None:
        symmetric = bool(rng.integers(0, 2))
    q_tilde = q if symmetric else float(rng.uniform(0.3, 0.95))
    return BarrierParams(
        v0=float(rng.uniform(0.05, 2.5)),
        a=float(rng.uniform(0.5, 1.6)),
        x_e=float(rng.uniform(0.0, 1.2)),
        q=q,
        q_tilde=q_tilde,
        m=float(rng.uniform(0.5, 1.5)),
    )


def _rt_from_state(psi, dpsi, k, x):
    # plane-wave split psi = A e^{ikx} + B e^{-ikx} at x, then T, R
    ik = 1j * k
    A = (psi + dpsi / ik) * cmath.exp(-ik * x) / 2
    B = (psi - dpsi / ik) * cmath.exp(ik * x) / 2
    return 1 / abs(A) ** 2, abs(B) ** 2 / abs(A) ** 2


def magnus_loop_rt(E, potential, m, cfg):
    """(T, R) from step-by-step sixth-order Magnus marches in Python floats
    (Blanes, Casas & Ros, three Gauss points) over the oracle's graded nodes
    for E alone and over their every-other-node subgrid (per half: for a
    potential with no jump off x = 0), extrapolated as T_f + (T_f - T_c)/63;
    the reference for the package's product of step maps.  A step adds
    (M - I) psi, M - I = 2 sinh^2(mu/2) I + sinh(mu)/mu Omega."""
    L = cfg.x_max
    k = math.sqrt(2.0 * m * E)
    g = math.sqrt(15.0) / 10.0
    rt = []
    for coarse in (False, True):
        psi = cmath.exp(1j * k * L)
        phi = 1j * k * psi
        fine = _nodes(potential, m, cfg, E)[0].tolist()
        zero = fine.index(0.0)
        for x in (fine[:zero + 1], fine[zero:]):
            if coarse:  # every other node of a half, and its last
                x = x[::2] if len(x) % 2 else x[::2] + x[-1:]
            x0, h = np.array(x[:-1]), np.diff(x)
            v = potential(np.concatenate([x0 + c * h for c in (0.5 - g, 0.5, 0.5 + g)]))
            w = (2.0 * m * (np.asarray(v, dtype=float) - E)).reshape(3, -1).T.tolist()
            for h, (w1, w2, w3) in zip(h.tolist(), w):
                a2 = math.sqrt(15.0) / 3.0 * h * (w3 - w1)
                a3 = 10.0 / 3.0 * h * (w3 - 2.0 * w2 + w1)
                p = a2 * h / 240.0 * (-20.0 + 4.0 / 3.0 * h * h * w2 + h * a3 / 30.0)
                q = h + h * h * (h * a2 * a2 - 20.0 * a3) / 3600.0
                r = (h * w2 + a3 / 12.0 - (a2 * a2 * (h - h ** 3 * w2 / 30.0)
                                           - (20.0 * h * w2 + a3) * a3 * h / 30.0) / 120.0)
                mu = cmath.sqrt(p * p + q * r)
                cm, sc = 2.0 * cmath.sinh(mu / 2.0) ** 2, (cmath.sinh(mu) / mu if mu else 1.0)
                psi, phi = (psi + (cm * psi + sc * (p * psi + q * phi)),
                            phi + (cm * phi + sc * (r * psi - p * phi)))
        rt.append(_rt_from_state(psi, phi, k, -L))
    (tf, rf), (tc, rc) = rt
    return tf + (tf - tc) / 63.0, rf + (rf - rc) / 63.0
