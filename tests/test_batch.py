"""The energy-batched closed form: scan equals per-energy compute_rt bit for
bit, joins its batches and keys each failure by its grid index, every 2F1
path of the lane evaluator meets the 40-digit series, a failing lane leaves
its batch alone, neither the series' block size, layout or lane groups nor
a second thread changes a value, and the kernels bound a scan's memory and
keep it mapped from scan to scan."""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dengfan.hyp2f1 as hyp2f1
import dengfan.scatter as scatter
from dengfan import (BarrierParams, DEFAULT_PARAMS, Hyp2F1Error, NoConvergenceError,
                     PoleAtCError, barrier_top, compute_rt, gauss_2f1_lanes,
                     match_coefficients, scan, side_coefficients, solve_amplitudes)

from helpers import hyp2f1_bruteforce
from test_manifest import MANIFEST, _grid

SRC = Path(__file__).resolve().parents[1] / "src"

# q = q_tilde = 0.999, the other parameters at their defaults: from E/V_max
# = 0.0895 on a 2F1 series does not converge in its 20,000 terms, nor does
# the connection formula meet _FALLBACK_GATE
EDGE = BarrierParams(q=0.999, q_tilde=0.999)


def _outcome(E, params):
    """(T, R) or the failure's type name, from compute_rt."""
    try:
        res = compute_rt(E, params)
    except Hyp2F1Error as exc:
        return type(exc).__name__
    return res.T, res.R


def _scan_outcomes(res):
    """(T, R) or the failure's type name at each energy of a scan."""
    return [type(res.errors[i]).__name__ if i in res.errors else (T, R)
            for i, (T, R) in enumerate(zip(res.T, res.R))]


def _group_energies():
    """Energies of one scan batch at q = 0.8 whose two connection series
    fill exactly one series group (512 at the default block size); a grid of
    one energy more crosses into a second group."""
    return hyp2f1._BLOCK_CELLS // hyp2f1._MIN_TERMS // 2


def _grids():
    chunk = _group_energies()
    v, v_edge = barrier_top(DEFAULT_PARAMS), barrier_top(EDGE)
    wide = np.geomspace(1e-6 * v, 1e5 * v, chunk + 1)
    rng = np.random.default_rng(41)
    sub = np.sort(rng.choice(wide, size=97, replace=False))
    asym = BarrierParams(q=0.9, q_tilde=0.55)
    near_one = BarrierParams(q=0.99, q_tilde=0.99)
    cases = [
        ("chunk-1", DEFAULT_PARAMS, np.geomspace(1e-6 * v, 0.5 * v, chunk - 1)),
        ("chunk", DEFAULT_PARAMS, np.linspace(0.025 * v, 5 * v, chunk)),
        # up to E/V_max = 1, past the edge: the top energies fail
        ("chunk+1", EDGE, np.geomspace(1e-6 * v_edge, v_edge, chunk + 1)),
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


def test_scan_keys_failures_past_the_first_chunk_by_grid_index():
    # the energies past EDGE's edge, all past index 512, fail with
    # NoConvergenceError: a plain series does not converge, the second
    # series of each energy in the second series group
    chunk = _group_energies()
    v = barrier_top(EDGE)
    grid = np.geomspace(1e-3 * v, 0.12 * v, chunk + 44)
    res = scan(grid, EDGE)
    outcomes = [_outcome(float(E), EDGE) for E in grid]
    want = {i: kind for i, kind in enumerate(outcomes) if isinstance(kind, str)}
    assert {i: type(exc).__name__ for i, exc in res.errors.items()} == want
    assert set(want.values()) == {"NoConvergenceError"}
    assert min(want) >= chunk
    assert list(res.errors) == sorted(res.errors)
    failed = np.zeros(grid.size, dtype=bool)
    failed[list(want)] = True
    assert np.array_equal(res.E, grid)
    for name in ("r_amp", "t_amp", "R", "T", "unitarity_residual"):
        column = getattr(res, name)
        assert column.shape == grid.shape
        assert np.array_equal(np.isnan(column), failed), name


def test_scan_joins_its_batches_in_grid_order():
    # one batch and 44 energies, whose last 64 fail (past EDGE's edge): 20
    # in the first batch, 44 in the second
    chunk = scatter._CHUNK
    v = barrier_top(EDGE)
    grid = np.concatenate([np.geomspace(1e-6 * v, 1e-3 * v, chunk - 20),
                           np.geomspace(0.1 * v, 0.3 * v, 64)])
    res = scan(grid, EDGE)
    parts = [solve_amplitudes(match_coefficients(grid[lo:lo + chunk], EDGE))
             for lo in (0, chunk)]
    for name in ("E", "r_amp", "t_amp", "R", "T", "unitarity_residual"):
        want = np.concatenate([getattr(part, name) for part in parts])
        assert getattr(res, name).tobytes() == want.tobytes(), name
    want = sorted((lo + i, str(exc)) for lo, part in zip((0, chunk), parts)
                  for i, exc in part.errors.items())
    assert [(i, str(exc)) for i, exc in res.errors.items()] == want
    assert list(res.errors) == list(range(chunk - 20, chunk + 44))


def _connection_values(monkeypatch):
    """{lane key: F} of every lane ``_connection`` evaluates from now on,
    keyed by ({a, b}, c, 1 - z)."""
    seen, connection = {}, hyp2f1._connection

    def recording(a, b, c, s, u, pen):
        out = connection(a, b, c, s, u, pen)
        for lane in zip(a.tolist(), b.tolist(), c.tolist(), u.tolist(), out[0].tolist()):
            seen[frozenset(lane[:2]), lane[2], lane[3]] = lane[4]
        return out

    monkeypatch.setattr(hyp2f1, "_connection", recording)
    return seen


def _lane_errors(monkeypatch, energies_over_vmax, zs):
    """The matching step's parameter families (zeta1 and zeta2 at default
    parameters) at the given E/V_max and z, evaluated as one batch: each
    lane's path and the relative errors of F and F' against the 40-digit
    series, F' = (ab/c) F(a+1, b+1; c+1; z).  A lane at |z| >= 0.7 skipped
    the connection formula when ``_connection`` never saw it, and took it
    when its value is the one ``_connection`` returned for it."""
    v = barrier_top(DEFAULT_PARAMS)
    sc, _ = side_coefficients(np.asarray(energies_over_vmax) * v, DEFAULT_PARAMS)
    lanes = []
    for al, bl, gl in zip(sc.alpha.tolist(), sc.beta.tolist(), sc.gamma.tolist()):
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
        elif tried not in seen:
            path = "connection skipped -> series"
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
    # E/V_max = 1.42, rejected up to 2 and skipped above, where its
    # estimate's floor passes half the gate; z = 0.45 takes the series.
    # The accepted lanes between E/V_max = 1 and 1.42 are the next test's.
    lanes = _lane_errors(monkeypatch, np.concatenate([np.linspace(0.05, 0.9, 5), [1.6, 1.9],
                                                      np.linspace(3.6, 5.0, 5)]), (0.8, 0.45))
    for path, err, derr in lanes:
        assert err <= 1e-13, path
        assert derr <= 1e-13, path
    assert {path for path, _, _ in lanes} == {
        "series |z| < 0.7", "connection accepted", "connection rejected -> series",
        "connection skipped -> series"}


@pytest.mark.xfail(strict=True, reason=(
    "the connection's rounding-error estimate runs low here: accepted values "
    "are off by up to 1.2e-13 (CHANGES.md, FOUND: hyp2f1.py _connection)"))
def test_accepted_connection_between_1_and_3_3_vmax(monkeypatch):
    lanes = _lane_errors(monkeypatch, np.linspace(1.0, 3.2, 12), (0.8,))
    accepted = [max(err, derr) for path, err, derr in lanes if path == "connection accepted"]
    assert accepted
    assert max(accepted) <= 1e-13


def test_attempted_lanes_meet_both_skip_conditions(monkeypatch):
    # over fig3, fig4 and the 192 q-sweep sets, every lane that makes the
    # connection attempt before its plain series has an estimate floor
    # eps * pen within the gate, and within half of it where |z| <= 0.85.
    # Without errors, a plain series that fails is followed by the late
    # attempt of its failed lanes, which the recorder leaves out
    seen, late, series, connection = [], [False], hyp2f1._series, hyp2f1._connection

    def recording_series(*args):
        out = series(*args)
        late[0] |= bool(out[2])
        return out

    def recording(a, b, c, s, u, pen):
        assert pen.tobytes() == hyp2f1._penalty(a, b, c, s, u).tobytes()
        if not late[0]:
            seen.append((pen * hyp2f1._EPS, np.abs(1.0 - u)))
        out = connection(a, b, c, s, u, pen)
        late[0] = False
        return out

    monkeypatch.setattr(hyp2f1, "_series", recording_series)
    monkeypatch.setattr(hyp2f1, "_connection", recording)
    curves = json.loads(MANIFEST.read_text())["scan"]
    names = [name for name in curves if name.startswith(("paper/fig", "q-sweep/"))]
    assert len(names) == 4 + 192
    for name in names:
        assert not scan(_grid(curves[name]), BarrierParams(**curves[name]["params"])).errors
    floor, az = (np.concatenate(col) for col in zip(*seen))
    assert floor.size > 10_000
    assert floor.max() <= hyp2f1._CONNECTION_GATE
    assert floor[az <= 0.85].max() <= hyp2f1._CONNECTION_GATE / 2


def test_skipped_lane_is_its_plain_series_bit_for_bit(monkeypatch):
    # floors past half the gate at z = 0.8 (E/V_max = 3) and past the gate
    # (10 and 1e5), and past the gate at z = 0.9 (q = 0.9, E/V_max = 100):
    # no lane makes the attempt, and each is the plain series' sums
    v, wide = barrier_top(DEFAULT_PARAMS), BarrierParams(q=0.9, q_tilde=0.9)
    lanes = [lane for r in (3.0, 10.0, 1e5) for lane in _path_lanes(r * v, DEFAULT_PARAMS)]
    lanes += _path_lanes(100.0 * barrier_top(wide), wide)
    a, b, c, z = (np.array(col, dtype=complex) for col in zip(*lanes))
    seen = _connection_values(monkeypatch)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors and not seen
    # gauss_2f1_lanes sums each lane in its canonical (a, b) order
    swap = b < a
    sums, _, failed = hyp2f1._series(np.where(swap, b, a), np.where(swap, a, b), c, z)
    assert not failed
    assert values.tobytes() == sums[:, 0].tobytes()
    assert derivs.tobytes() == (sums[:, 1] / z).tobytes()


def test_skipped_lane_whose_series_fails_keeps_the_fallback(monkeypatch):
    # at q = 0.9985 (E/V_max = 1e-3 and 1e-2) the floor is past the gate,
    # so the lanes skip the attempt; their plain series run out of terms,
    # and only then do they make it and keep its values (within
    # _FALLBACK_GATE)
    near = BarrierParams(q=0.9985, q_tilde=0.9985)
    lanes = [lane for r in (1e-3, 1e-2) for lane in _path_lanes(r * barrier_top(near), near)]
    a, b, c, z = (np.array(col, dtype=complex) for col in zip(*lanes))
    calls, series, connection = [], hyp2f1._series, hyp2f1._connection

    def recording_series(*args):
        out = series(*args)
        calls.append(("series", args[0].size, len(out[2])))
        return out

    def recording(*args):
        out = connection(*args)
        calls.append(("connection", args[0].size, out))
        return out

    monkeypatch.setattr(hyp2f1, "_series", recording_series)
    monkeypatch.setattr(hyp2f1, "_connection", recording)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors
    # the plain series of all 4 lanes fail; then the attempt's two series
    assert calls[:2] == [("series", 4, 4), ("series", 8, 0)]
    (kind, size, (value, deriv, est, failed)), = calls[2:]
    assert (kind, size, failed) == ("connection", 4, {})
    assert (est <= hyp2f1._FALLBACK_GATE).all() and (est > hyp2f1._CONNECTION_GATE).all()
    assert values.tobytes() == value.tobytes() and derivs.tobytes() == deriv.tobytes()


def test_failing_lane_leaves_batch_unchanged(monkeypatch):
    # BarrierParams(a=20) at E = 0.05 overflows the series and then a
    # gamma ratio of the connection: its lanes fail, the others must not
    # move.  Beside them: a pole in c, a degenerate c - a - b = 1 at
    # |z| >= 0.7 (never handed to the connection formula) and |z| < 0.7.
    def family_lanes(E, params):
        sc, _ = side_coefficients(E, params)
        al, bl, gl = sc.alpha[0], sc.beta[0], sc.gamma[0]
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
    # the 20 lanes at z = q = 0.8 try the connection formula (the a = 20
    # lanes after their series failed), and no other
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


def test_mixed_barrier_batch_equals_lanes_alone(monkeypatch):
    # lanes of four barriers, shuffled into one batch as match_coefficients
    # lays out one barrier's: the left y^{+sigma} row of each, and the right
    # row of the asymmetric one too.  The batch's connection takes s and -s
    # of each distinct s once, and a lane alone its own; no lane may move
    rng = np.random.default_rng(25)
    lanes = []
    for params in (DEFAULT_PARAMS, replace(DEFAULT_PARAMS, v0=1.35),
                   BarrierParams(q=0.9, q_tilde=0.75), BarrierParams(q=0.55, q_tilde=0.55)):
        E = np.geomspace(1e-4, 3.0, 20) * barrier_top(params)
        left, right = side_coefficients(E, params)
        lanes += zip(left.alpha, left.beta, left.gamma, [params.q] * E.size)
        if right is not left:
            gr = right.gamma
            lanes += zip(right.alpha + 1 - gr, right.beta + 1 - gr, 2 - gr,
                         [params.q_tilde] * E.size)
    a, b, c, z = (np.array(col, dtype=complex) for col in zip(*rng.permutation(lanes)))
    calls, connection = [], hyp2f1._connection

    def recording(a, b, c, s, *args):
        calls.append(s.copy())
        return connection(a, b, c, s, *args)

    monkeypatch.setattr(hyp2f1, "_connection", recording)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors and a.size == 100
    # 78 of the 80 lanes at z >= 0.7 try the connection, with 4 rows' s
    # among them; the other 2 skip it
    (s,) = calls
    assert s.size == 78 >= hyp2f1._DISTINCT_LANES and len({x.tobytes() for x in s}) >= 4
    for i in range(a.size):
        alone = gauss_2f1_lanes(a[i:i + 1], b[i:i + 1], c[i:i + 1], z[i:i + 1])
        assert alone[0].tobytes() == values[i:i + 1].tobytes(), i
        assert alone[1].tobytes() == derivs[i:i + 1].tobytes(), i
    assert len(calls) == 1 + 78


def test_scan_memory_is_bounded_by_chunking():
    # this grid is one batch: measured 2.6 MB peak in a fresh process (1.7
    # MB once the series workspace has grown), against 1.6 MB in batches
    # of 256 energies and 8.0 MB for one batch whose series blocks and
    # Lanczos sum grow with its lanes; the bound catches a lost bound in a
    # kernel
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


# two scans of one fig4 curve after a first, in an interpreter of their own:
# the allocator's thresholds, which decide whether freed memory goes back to
# the system, then depend on nothing that ran before
_REPEATED_SCANS = """
import resource
from dataclasses import replace
import numpy as np
from dengfan import DEFAULT_PARAMS, barrier_top, scan
params = replace(DEFAULT_PARAMS, v0=1.25)
v = barrier_top(params)
grid = np.geomspace(1e-6 * v, 0.5 * v, 2000)
scan(grid, params)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    scan(grid, params)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_repeated_scans_do_not_fault_pages_back_in():
    # one scan's working memory peaks at 1.7 MB, so two scans that each hand
    # all of it back to the system at their end fault in at most about 870
    # pages; more means arrays mapped and unmapped within a scan.  Measured
    # over the two scans (numpy's default loops / its baseline loops): 272 /
    # 702 now; 1,264 / 1,264 in batches of 256 energies, each trimmed away
    # in turn; 1,499 / 1,524 with the log-gammas unsliced, whose 1.8 MB
    # Lanczos block is mapped and unmapped at every scan.  A process whose
    # allocator has raised its thresholds, as the benchmark's has, reads
    # 0-36 faults a whole `paper` pass
    pytest.importorskip("resource")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REPEATED_SCANS], capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=pythonpath))
    assert int(proc.stdout) <= 1024


def _path_lanes(E, params, z=None):
    """The matching step's two left parameter families at E, at z = q unless
    given."""
    sc, _ = side_coefficients(np.array([E]), params)
    al, bl, gl = sc.alpha[0], sc.beta[0], sc.gamma[0]
    z = params.q if z is None else z
    return [(al, bl, gl, z), (al + 1 - gl, bl + 1 - gl, 2 - gl, z)]


def _every_series_path():
    """One batch over every way a lane is summed: accepted (E/V_max = 0.05
    to 1) and rejected (1.6) connection attempts at q = 0.8, and a skipped
    one (3); |z| = 0.45; q = 0.9985, where a skipped attempt's series fails
    after 20,000 terms and the lane then keeps the attempt's values (E/V_max
    = 1e-3 and 1e-2); two lanes that overflow (a = 20) and one that runs
    out of terms."""
    v = barrier_top(DEFAULT_PARAMS)
    near = BarrierParams(q=0.9985, q_tilde=0.9985)
    lanes = (sum((_path_lanes(r * v, DEFAULT_PARAMS) for r in (0.05, 0.1, 0.5, 1.0)), [])
             + _path_lanes(1.6 * v, DEFAULT_PARAMS) + _path_lanes(3.0 * v, DEFAULT_PARAMS)
             + _path_lanes(0.5 * v, DEFAULT_PARAMS, 0.45)
             + _path_lanes(1e-3 * barrier_top(near), near)
             + _path_lanes(1e-2 * barrier_top(near), near)
             + _path_lanes(0.05, BarrierParams(a=20.0)) + [(1, 1, 2, 0.999)])
    return tuple(np.array(col, dtype=complex) for col in zip(*lanes))


def _bits(out):
    """Values, derivatives and typed error messages of gauss_2f1_lanes, bit
    for bit."""
    values, derivs, errors = out
    return (values.tobytes(), derivs.tobytes(),
            sorted((i, type(exc).__name__, str(exc)) for i, exc in errors.items()))


def _block_layouts(monkeypatch):
    """(lanes, terms, wide) of every series block from now on."""
    seen, block = [], hyp2f1._Workspace.block

    def recording(self, lanes, terms, wide):
        seen.append((lanes, terms, wide))
        return block(self, lanes, terms, wide)

    monkeypatch.setattr(hyp2f1._Workspace, "block", recording)
    return seen


# the first series block of the four-fold batch below at each block size.
# The first call holds only the 80 series lanes of its 40 connection
# attempts: at 64 cells they go in groups of 8, whose first blocks of 8
# terms lie lanes first; in one group they lie terms first (wide) in blocks
# of 19 terms and, at the switch of 4 lanes a term, of 20; from 25 terms on
# they lie lanes first, and from 3,600 cells on they take the 45 terms of
# the group's first block size
_FIRST_BLOCKS = {64: (8, 8, False), 1520: (80, 19, True), 1600: (80, 20, True),
                 2048: (80, 25, False), 2116: (80, 26, False), 8192: (80, 45, False),
                 8464: (80, 45, False), 65536: (80, 45, False)}


@pytest.mark.parametrize("cells", [64, 1520, 1600, 2048, 2116, 8192, 8464, 65536])
def test_block_size_never_changes_a_value(monkeypatch, cells):
    # a lane's terms and sums go on from the previous block's, whichever
    # layout either block has, and each call reuses the series workspace at
    # another block shape
    batch = tuple(np.tile(col, 4) for col in _every_series_path())
    want = _bits(gauss_2f1_lanes(*batch))
    assert [i % 21 for i, _, _ in want[2]] == [18, 19, 20] * 4
    layouts = _block_layouts(monkeypatch)
    monkeypatch.setattr(hyp2f1, "_BLOCK_CELLS", cells)
    assert _bits(gauss_2f1_lanes(*batch)) == want
    assert layouts[0] == _FIRST_BLOCKS[cells]
    assert all(wide == (lanes >= 4 * terms) for lanes, terms, wide in layouts)


def test_series_blocks_stay_within_block_cells(monkeypatch):
    # one fig4 batch of 2048 energies hands _series 4096 lanes; in a thread
    # of its own the workspace starts empty and grows to its largest block
    params = replace(DEFAULT_PARAMS, v0=1.25)
    v = barrier_top(params)
    layouts, cells = _block_layouts(monkeypatch), []

    def run():
        scan(np.geomspace(1e-6 * v, 0.5 * v, scatter._CHUNK), params)
        cells.append(hyp2f1._WORKSPACE.cells)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert layouts[0] == (hyp2f1._BLOCK_CELLS // hyp2f1._MIN_TERMS, 8, True)
    assert all(lanes * terms <= hyp2f1._BLOCK_CELLS for lanes, terms, _ in layouts)
    assert cells and cells[0] <= hyp2f1._BLOCK_CELLS


def _fig4_batch():
    """512 lanes of the fig4 v0 = 1.25 curve's first energies, each a 1-z
    connection attempt at u = 0.2 that is kept; 24 lanes above E/V_max =
    1.4, whose attempts the first two make and have rejected and the other
    22 skip; an a = 20 lane that overflows (E = 0.05) and a pole in c."""
    params = replace(DEFAULT_PARAMS, v0=1.25)
    v = barrier_top(params)
    sc, _ = side_coefficients(np.concatenate([np.geomspace(1e-6 * v, 0.5 * v, 2000)[:512],
                                              np.geomspace(1.5 * v, 100.0 * v, 24)]), params)
    bad, _ = side_coefficients(np.array([0.05]), BarrierParams(a=20.0))
    a, b, c = (np.concatenate([getattr(sc, name), getattr(bad, name), [x]])
               for name, x in (("alpha", 0.5), ("beta", 1.5), ("gamma", -2.0)))
    return a, b, c, np.full(a.size, params.q, dtype=complex)


def test_wide_blocks_equal_lanes_alone(monkeypatch):
    batch = _fig4_batch()
    calls, series = [], hyp2f1._series

    def recording(*args):
        calls.append(tuple(v.copy() for v in args))
        return series(*args)

    monkeypatch.setattr(hyp2f1, "_series", recording)
    layouts = _block_layouts(monkeypatch)
    values, derivs, errors = gauss_2f1_lanes(*batch)
    # both connection series of the 514 attempts, then the plain series of
    # the 24 lanes above E/V_max = 1.4 and of the overflowing lane, whose
    # connection series come last, after its plain series failed.  The
    # first call sums a group of 1024 lanes, whose blocks lie terms first,
    # and then one of the other 4
    assert [args[0].size for args in calls] == [1028, 25, 2]
    assert layouts == [(1024, 8, True)] * 3 + [(512, 16, True), (4, 46, False),
                                                (25, 327, False), (2, 4096, False)]
    assert isinstance(errors[537], PoleAtCError)
    assert isinstance(errors[536], NoConvergenceError) and len(errors) == 2
    for i in range(batch[0].size):
        alone = gauss_2f1_lanes(*(col[i:i + 1] for col in batch))
        assert alone[0].tobytes() == values[i:i + 1].tobytes(), i
        assert alone[1].tobytes() == derivs[i:i + 1].tobytes(), i
        assert [str(exc) for exc in alone[2].values()] == (
            [str(errors[i])] if i in errors else []), i
    # the series sums and peaks of every lane of both calls, among them the
    # peaks the connection estimate reads; the overflow is an error, as in
    # gauss_2f1_lanes, not a warning
    del layouts[:]
    for args in calls:
        with np.errstate(all="ignore"):
            sums, peaks, failed = series(*args)
            alone = [series(*(v[i:i + 1] for v in args)) for i in range(args[0].size)]
        for i, one in enumerate(alone):
            assert [*one[2].values()] == ([failed[i]] if i in failed else []), i
            if i not in failed:
                assert one[0].tobytes() == sums[i:i + 1].tobytes(), i
                assert one[1].tobytes() == peaks[i:i + 1].tobytes(), i
    assert layouts[:4] == [(1024, 8, True)] * 3 + [(512, 16, True)]


def _scan_bits(res):
    return (res.T.tobytes(), res.R.tobytes(),
            [(i, str(exc)) for i, exc in res.errors.items()])


def test_scan_in_two_threads_equals_serial():
    # each thread has its own series workspace; were it shared, one
    # thread's blocks would overwrite the other's terms and sums
    v = barrier_top(replace(DEFAULT_PARAMS, v0=1.25))
    jobs = [(np.geomspace(1e-4, 50.0, 100), BarrierParams(q=0.995, q_tilde=0.7)),
            (np.geomspace(1e-6 * v, 0.5 * v, 500), replace(DEFAULT_PARAMS, v0=1.25))]
    want = [_scan_bits(scan(*job)) for job in jobs]
    got = [[], []]

    def run(j):
        for _ in range(4):
            got[j].append(_scan_bits(scan(*jobs[j])))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [[want[0]] * 4, [want[1]] * 4]
