"""Shared test oracles: high-precision brute-force 2F1, a step-by-step RK4
march and parameter draws."""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from dengfan import BarrierParams


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
    A = (psi + dpsi / ik) * np.exp(-ik * x) / 2
    B = (psi - dpsi / ik) * np.exp(ik * x) / 2
    return float(1 / abs(A) ** 2), float(abs(B) ** 2 / abs(A) ** 2)


def rk4_loop_rt(E, potential, m, cfg):
    """(T, R) from a step-by-step RK4 march in Python floats; the reference
    for the package's product of step maps."""
    L = cfg.x_max
    k = math.sqrt(2.0 * m * E)
    n = int(math.ceil(2.0 * L / cfg.step))
    xs = np.linspace(L, -L, 2 * n + 1)
    w = (2.0 * m * (np.asarray(potential(xs), dtype=float) - E)).tolist()
    dt = -2.0 * L / n
    psi = cmath.exp(1j * k * L)
    phi = 1j * k * psi
    for i in range(n):
        w0, w1, w2 = w[2 * i], w[2 * i + 1], w[2 * i + 2]
        k1p = phi
        k1f = w0 * psi
        k2p = phi + 0.5 * dt * k1f
        k2f = w1 * (psi + 0.5 * dt * k1p)
        k3p = phi + 0.5 * dt * k2f
        k3f = w1 * (psi + 0.5 * dt * k2p)
        k4p = phi + dt * k3f
        k4f = w2 * (psi + dt * k3p)
        psi += dt * (k1p + 2.0 * (k2p + k3p) + k4p) / 6.0
        phi += dt * (k1f + 2.0 * (k2f + k3f) + k4f) / 6.0
    return _rt_from_state(psi, phi, k, -L)
