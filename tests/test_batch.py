"""The energy-batched closed form: scan equals per-energy compute_rt bit for
bit and keys each failure by its grid index, every 2F1 path of the lane
evaluator meets the 40-digit series, a failing lane leaves its batch alone,
and chunking bounds a scan's memory."""

import tracemalloc

import numpy as np
import pytest

import dengfan.hyp2f1 as hyp2f1
import dengfan.scatter as scatter
from dengfan import (BarrierParams, DEFAULT_PARAMS, Hyp2F1Error, NoConvergenceError,
                     PoleAtCError, barrier_top, compute_rt, gauss_2f1_lanes, scan,
                     side_coefficients)

from helpers import hyp2f1_bruteforce


def _outcome(E, params, mode="corrected"):
    """(T, R) or the failure's type name, from compute_rt."""
    try:
        res = compute_rt(E, params, mode)
    except (Hyp2F1Error, scatter.SingularMatchingError) as exc:
        return type(exc).__name__
    return res.T, res.R


def _scan_outcomes(res):
    """(T, R) or the failure's type name at each energy of a scan."""
    return [type(res.errors[i]).__name__ if i in res.errors else (T, R)
            for i, (T, R) in enumerate(zip(res.T, res.R))]


def _grids():
    chunk = scatter._CHUNK
    v = barrier_top(DEFAULT_PARAMS)
    # up to E/V_max = 1e5, where the series overflows: the top energies fail
    wide = np.geomspace(1e-6 * v, 1e5 * v, chunk + 1)
    rng = np.random.default_rng(41)
    sub = np.sort(rng.choice(wide, size=97, replace=False))
    asym = BarrierParams(q=0.9, q_tilde=0.55)
    near_one = BarrierParams(q=0.99, q_tilde=0.99)
    cases = [
        ("chunk-1", DEFAULT_PARAMS, np.geomspace(1e-6 * v, 0.5 * v, chunk - 1)),
        ("chunk", DEFAULT_PARAMS, np.linspace(0.025 * v, 5 * v, chunk)),
        ("chunk+1", DEFAULT_PARAMS, wide),
        ("shuffled-sub-grid", DEFAULT_PARAMS, sub),
        ("asymmetric", asym, np.geomspace(1e-4, 50.0, 120)),
        ("q-0.99", near_one, np.geomspace(1e-4, 50.0, 120)),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, params, grid", _grids())
def test_scan_equals_compute_rt_bit_for_bit(name, params, grid):
    energies = [float(E) for E in grid]
    res = scan(energies, params)
    assert res.E.tolist() == energies
    got = _scan_outcomes(res)
    want = [_outcome(E, params) for E in energies]
    assert got == want
    if name == "chunk+1":
        assert "NoConvergenceError" in got and isinstance(got[0], tuple)


@pytest.mark.parametrize("mode", ["corrected", "paper"])
def test_scan_keys_failures_past_the_first_chunk_by_grid_index(mode):
    # corrected: the energies above E/V_max = 4e4, all past the first chunk,
    # fail with NoConvergenceError; paper: every energy of the symmetric
    # barrier is a SingularMatchingError
    v = barrier_top(DEFAULT_PARAMS)
    grid = np.geomspace(1e-3 * v, 1e5 * v, scatter._CHUNK + 44)
    res = scan(grid, DEFAULT_PARAMS, mode)
    outcomes = [_outcome(float(E), DEFAULT_PARAMS, mode) for E in grid]
    want = {i: kind for i, kind in enumerate(outcomes) if isinstance(kind, str)}
    assert {i: type(exc).__name__ for i, exc in res.errors.items()} == want
    if mode == "corrected":
        assert min(want) >= scatter._CHUNK
    assert list(res.errors) == sorted(res.errors)
    failed = np.zeros(grid.size, dtype=bool)
    failed[list(want)] = True
    assert np.array_equal(res.E, grid)
    for name in ("r_amp", "t_amp", "R", "T", "unitarity_residual"):
        column = getattr(res, name)
        assert column.shape == grid.shape
        assert np.array_equal(np.isnan(column), failed), name


def _connection_values(monkeypatch):
    """{lane key: F} of every lane ``_connection`` evaluates from now on,
    keyed by ({a, b}, c, 1 - z)."""
    seen, connection = {}, hyp2f1._connection

    def recording(a, b, c, s, ca, cb, u, f, peak):
        out = connection(a, b, c, s, ca, cb, u, f, peak)
        for lane in zip(a.tolist(), b.tolist(), c.tolist(), u.tolist(), out[0].tolist()):
            seen[frozenset(lane[:2]), lane[2], lane[3]] = lane[4]
        return out

    monkeypatch.setattr(hyp2f1, "_connection", recording)
    return seen


def _lane_errors(monkeypatch, energies_over_vmax, zs):
    """The matching step's parameter families (zeta1 and zeta2 at default
    parameters) at the given E/V_max and z, evaluated as one batch: each
    lane's path and the relative errors of F and F' against the 40-digit
    series, F' = (ab/c) F(a+1, b+1; c+1; z).  A lane took the connection
    formula when its value is the one ``_connection`` returned for it."""
    v = barrier_top(DEFAULT_PARAMS)
    lanes = []
    for E in np.asarray(energies_over_vmax) * v:
        sc = side_coefficients(float(E), DEFAULT_PARAMS)
        al, bl, gl = complex(sc.alpha), complex(sc.beta), complex(sc.gamma)
        for a, b, c in ((al, bl, gl), (al + 1 - gl, bl + 1 - gl, 2 - gl)):
            lanes += [(a, b, c, z) for z in zs]
    a, b, c, z = (np.array(col) for col in zip(*lanes))
    seen = _connection_values(monkeypatch)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors
    out = []
    for (ai, bi, ci, zi), value, deriv in zip(lanes, values, derivs):
        tried = (frozenset((ai, bi)), ci, 1.0 - zi)
        if abs(zi) < 0.7:
            path = "series |z| < 0.7"
            assert tried not in seen
        elif value == seen[tried]:
            path = "connection accepted"
        else:
            path = "connection rejected -> series"
        ref = hyp2f1_bruteforce(ai, bi, ci, zi)
        dref = ai * bi / ci * hyp2f1_bruteforce(ai + 1, bi + 1, ci + 1, zi)
        out.append((path, abs(value - ref) / abs(ref), abs(deriv - dref) / abs(dref)))
    return out


def test_lane_paths_against_bruteforce(monkeypatch):
    # at z = 0.8 on fig3 energies the connection is accepted below
    # E/V_max = 3.3 and rejected above; z = 0.45 takes the series.  The
    # accepted lanes between E/V_max = 1 and 3.3 are the next test's.
    lanes = _lane_errors(monkeypatch, np.concatenate([np.linspace(0.05, 0.9, 5),
                                                      np.linspace(3.6, 5.0, 5)]), (0.8, 0.45))
    for path, err, derr in lanes:
        assert err <= 1e-13, path
        assert derr <= 1e-13, path
    assert {path for path, _, _ in lanes} == {
        "series |z| < 0.7", "connection accepted", "connection rejected -> series"}


@pytest.mark.xfail(strict=True, reason=(
    "the connection's rounding-error estimate runs low here: accepted values "
    "are off by up to 1.2e-13 (CHANGES.md, FOUND: hyp2f1.py _connection)"))
def test_accepted_connection_between_1_and_3_3_vmax(monkeypatch):
    lanes = _lane_errors(monkeypatch, np.linspace(1.0, 3.2, 12), (0.8,))
    accepted = [max(err, derr) for path, err, derr in lanes if path == "connection accepted"]
    assert accepted
    assert max(accepted) <= 1e-13


def test_failing_lane_leaves_batch_unchanged(monkeypatch):
    # BarrierParams(a=20) at E = 0.05 overflows a gamma ratio of the
    # connection and then the series: its lanes fail, the others must not
    # move.  Beside them: a pole in c, a degenerate c - a - b = 1 at
    # |z| >= 0.7 (never handed to the connection formula) and |z| < 0.7.
    def family_lanes(E, params):
        sc = side_coefficients(E, params)
        al, bl, gl = sc.alpha, sc.beta, sc.gamma
        a = [al, al + 1 - gl, al + 1, al + 2 - gl]
        b = [bl, bl + 1 - gl, bl + 1, bl + 2 - gl]
        c = [gl, 2 - gl, gl + 1, 3 - gl]
        return a, b, c, [params.q] * 4

    good = [family_lanes(E, DEFAULT_PARAMS) for E in (0.005, 0.05, 0.3, 1.0)]
    bad = family_lanes(0.05, BarrierParams(a=20.0))
    pole, degenerate = ([0.5], [1.5], [-2.0], [0.8]), ([1.0], [1.0], [3.0], [0.85])
    small_z = good[1][:3] + ([0.45] * 4,)
    batch = good[:2] + [bad, pole] + good[2:] + [degenerate, small_z]
    a, b, c, z = (np.concatenate([np.array(lane[i], dtype=complex) for lane in batch])
                  for i in range(4))
    seen = _connection_values(monkeypatch)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    # the 20 lanes at z = q = 0.8 try the connection formula, and no other
    assert len(seen) == 20 and (frozenset((1.0, 1.0)), 3.0, 1.0 - 0.85) not in seen
    assert isinstance(errors[12], PoleAtCError)
    failed_lanes = set(errors) - {12}
    assert failed_lanes and failed_lanes <= set(range(8, 12))
    assert all(isinstance(errors[i], NoConvergenceError) for i in failed_lanes)
    assert np.isnan(values[sorted(errors)]).all() and np.isnan(derivs[sorted(errors)]).all()
    for i in range(a.size):
        alone, alone_deriv, alone_errors = gauss_2f1_lanes(a[i:i + 1], b[i:i + 1], c[i:i + 1],
                                                           z[i:i + 1])
        assert np.array_equal(values[i:i + 1], alone, equal_nan=True), i
        assert np.array_equal(derivs[i:i + 1], alone_deriv, equal_nan=True), i
        assert [str(exc) for exc in alone_errors.values()] == (
            [str(errors[i])] if i in errors else []), i


def test_scan_memory_is_bounded_by_chunking():
    # measured 3.7 MB peak at _CHUNK = 256 energies on this grid against
    # 22.8 MB for one unchunked batch; the bound catches a lost chunking
    v = barrier_top(DEFAULT_PARAMS)
    grid = [float(E) for E in np.geomspace(1e-6 * v, 0.5 * v, 2000)]
    scan(grid[:4], DEFAULT_PARAMS)
    tracemalloc.start()
    try:
        res = scan(grid, DEFAULT_PARAMS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not res.errors
    assert peak < 6 * 2**20
