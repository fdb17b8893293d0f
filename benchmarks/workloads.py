"""Workload inputs.

Every workload is a list of CLI argument lists (one closed-loop caller runs
them in order, each call waiting for the previous one) plus the energies of
the single-call ``compute_rt`` timing and of the reference check.  The
program receives only these generated inputs.

The CLI inputs and the timed energies are the same for every seed; --seed
picks the energies checked against the reference.  The cost of a point is
heavy tailed near the failure domain: with q-sweep parameter sets drawn per
seed, or a timed sample drawn per seed, the p99 of compute_rt time moved by
25-30% of its median from seed to seed (quartile distance over ten seeds),
more than any bound the benchmark may set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# tests/helpers.draw_barrier_params draws v0, a, x_e and m from this box
BOX = {"v0": (0.05, 2.5), "a": (0.5, 1.6), "x_e": (0.0, 1.2), "m": (0.5, 1.5)}
# 1 - q is drawn log-uniform over this range, reaching much closer to q = 1
# than the test box does
ONE_MINUS_Q = (1e-3, 0.7)
# 192 sets of 25 energies rather than 48 of 100: the cost of a set is heavy
# tailed in its parameters, and the total series-term count of a pass spread
# by 16% over ten draws of 48 sets against 4% with 192
SWEEP_SETS = 192
SWEEP_POINTS = 25
SWEEP_E_OVER_V0 = (1e-6, 1e2)
# the one fixed draw of the q-sweep parameter sets
SWEEP_DESIGN_SEED = 1609
# compute_rt calls timed one by one
TIMED_CALLS = 1000
# energies of each fig3/fig4 curve checked against the 40-digit reference
FIG_CHECKS_PER_CURVE = 10

DEFAULT = {"v0": 1.25, "a": 0.8, "x_e": 0.8, "q": 0.8, "q_tilde": 0.8, "m": 1.0}


@dataclass
class Workload:
    name: str
    # CLI calls of one pass; "{dir}" stands for the pass's output directory
    # and "{cfg}" for the directory of the config files
    calls: list[list[str]]
    # JSON config files the calls read, by name
    configs: dict[str, dict] = field(default_factory=dict)
    # (output file, param dict) of each curve
    curves: list[tuple[str, dict]] = field(default_factory=list)
    # per-curve row counts the CLI must produce
    rows: list[int] = field(default_factory=list)
    # (curve index, row index) pairs checked against the reference
    checks: list[tuple[int, int]] = field(default_factory=list)
    # (curve index, row index) pairs of the timed compute_rt calls
    timed: list[tuple[int, int]] = field(default_factory=list)


def _stratified(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws uniform on [lo, hi], one in each of n equal strata, shuffled
    (a Latin-hypercube column)."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def sweep_params(rng) -> list[dict]:
    n = SWEEP_SETS
    cols = {k: _stratified(rng, n, *BOX[k]) for k in ("v0", "a", "x_e", "m")}
    lo, hi = (math.log(v) for v in ONE_MINUS_Q)
    q = 1.0 - np.exp(_stratified(rng, n, lo, hi))
    q_other = 1.0 - np.exp(_stratified(rng, n, lo, hi))
    asym = rng.permutation(n) < n // 2
    q_tilde = np.where(asym, q_other, q)
    return [{"v0": float(cols["v0"][i]), "a": float(cols["a"][i]),
             "x_e": float(cols["x_e"][i]), "q": float(q[i]),
             "q_tilde": float(q_tilde[i]), "m": float(cols["m"][i])}
            for i in range(n)]


def _spread_rows(n_rows: int, offsets) -> list[int]:
    """One row index from each of len(offsets) equal strata of n_rows rows,
    at the given offsets in [0, 1); rows repeat when there are more strata
    than rows."""
    k = len(offsets)
    return [int((i + u) * n_rows / k) for i, u in enumerate(offsets)]


def _timed(rows: list[int]) -> list[tuple[int, int]]:
    """TIMED_CALLS (curve, row) pairs at the middle of equal strata: each
    curve gets its share of the calls by row count, spread evenly over it."""
    total, out = sum(rows), []
    for c, n in enumerate(rows):
        k = round(TIMED_CALLS * sum(rows[:c + 1]) / total) - len(out)
        out += [(c, r) for r in _spread_rows(n, [0.5] * k)]
    return out


def make(name: str, seed: int) -> Workload:
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    if name == "paper":
        wl = Workload(name, calls=[
            ["scatter", "--table1", "--format", "json", "--out", "{dir}/table1.json"],
            ["scatter", "--fig3", "--format", "json", "--out", "{dir}/fig3.json"],
            ["scatter", "--fig4", "--format", "json", "--out", "{dir}/fig4"],
            ["scatter", "--table1", "--oracle", "--format", "json",
             "--out", "{dir}/table1_oracle.json"],
            ["verify"],
        ])
        wl.curves = ([("table1.json", DEFAULT), ("fig3.json", DEFAULT)]
                     + [(f"fig4_v0_{v0:g}.json", dict(DEFAULT, v0=v0))
                        for v0 in (1.15, 1.25, 1.35)]
                     + [("table1_oracle.json", DEFAULT)])
        wl.rows = [20, 200, 2000, 2000, 2000, 20]
        wl.checks = [(c, r) for c in (0, 5) for r in range(20)] + [
            (c, r) for c in range(1, 5)
            for r in _spread_rows(wl.rows[c], rng.random(FIG_CHECKS_PER_CURVE))]
    elif name == "q-sweep":
        wl = Workload(name, calls=[])
        for i, p in enumerate(sweep_params(np.random.default_rng(SWEEP_DESIGN_SEED))):
            cfg = f"set{i:03d}"
            wl.configs[cfg] = {
                "params": p, "e_min": SWEEP_E_OVER_V0[0] * p["v0"],
                "e_max": SWEEP_E_OVER_V0[1] * p["v0"], "n_points": SWEEP_POINTS,
                "log_grid": True, "output_format": "json"}
            wl.calls.append(["scatter", "--config", f"{{cfg}}/{cfg}.cfg.json",
                             "--out", f"{{dir}}/{cfg}.json"])
            wl.curves.append((f"{cfg}.json", p))
            wl.rows.append(SWEEP_POINTS)
        # one checked energy per set, so every q -> 1 set is checked
        wl.checks = [(c, int(r)) for c, r in
                     enumerate(rng.integers(SWEEP_POINTS, size=SWEEP_SETS))]
    else:
        raise KeyError(name)
    wl.timed = _timed(wl.rows)
    return wl


NAMES = ("paper", "q-sweep")
