import functools
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

import dengfan.oracle as oracle
from dengfan import (BarrierParams, BoundaryNotDecayedError, DEFAULT_PARAMS,
                     IntegrationConfig, StepTooCoarseError, TABLE1, compute_rt,
                     default_config, integrate_scatter, plane_wave_decompose,
                     potential, scan)
from dengfan.oracle import _CHUNK, _GAUSS, _LANES, _nodes

from helpers import magnus_loop_rt, reference_transmission

TABLE1_ENERGIES = [E for E, _, _ in TABLE1]

# closed-form transmission for the sharp rectangular barrier
# (v0=2, width 1, E=1, m=1): 1/(1 + sinh^2 sqrt(2))
T_RECT = 0.21077109396613054


def barrier(x):
    return potential(x, DEFAULT_PARAMS)


def rect_barrier(x):
    # mean value inside a 2e-9 window at the jumps keeps fixed-step samples
    # consistent; the induced shift of T is O(1e-9)
    x = np.abs(np.asarray(x, dtype=float))
    return np.where(x < 0.5 - 1e-9, 2.0, np.where(x > 0.5 + 1e-9, 0.0, 1.0))


# ---------------------------------------------------------------------------
# plane-wave decomposition
# ---------------------------------------------------------------------------

def test_decompose_pure_right_mover():
    k, x = np.array([0.7, 2.5]), -3.2
    psi = np.exp(1j * k * x)
    A, B = plane_wave_decompose(psi, 1j * k * psi, k, x)
    assert np.all(np.abs(A - 1.0) <= 1e-14)
    assert np.all(np.abs(B) <= 1e-14)


def test_decompose_cosine():
    k, x = np.array([1.3, 0.2]), 0.4
    A, B = plane_wave_decompose(np.cos(k * x) + 0j, -k * np.sin(k * x) + 0j, k, x)
    assert np.all(np.abs(A - 0.5) <= 1e-14)
    assert np.all(np.abs(B - 0.5) <= 1e-14)


def test_decompose_round_trip():
    # 1000 states in one call, each inverted as exactly as alone
    rng = np.random.default_rng(41)
    A, B = rng.normal(size=(2, 1000)) + 1j * rng.normal(size=(2, 1000))
    k = rng.uniform(0.05, 5.0, 1000)
    x = float(rng.uniform(-30.0, 30.0))
    ep, em = np.exp(1j * k * x), np.exp(-1j * k * x)
    A2, B2 = plane_wave_decompose(A * ep + B * em, 1j * k * (A * ep - B * em), k, x)
    scale = np.maximum(np.maximum(np.abs(A), np.abs(B)), 1.0)
    assert np.all(np.abs(A2 - A) <= 1e-12 * scale)
    assert np.all(np.abs(B2 - B) <= 1e-12 * scale)
    one = plane_wave_decompose((A * ep + B * em)[:1], (1j * k * (A * ep - B * em))[:1], k[:1], x)
    assert (one[0][0], one[1][0]) == (A2[0], B2[0])


def test_decompose_rejects_zero_k():
    with pytest.raises(ValueError):
        plane_wave_decompose(np.array([1.0 + 0j]), np.array([0.0j]), np.array([0.0]), 0.0)
    with pytest.raises(ValueError):
        plane_wave_decompose(np.ones(2, complex), np.zeros(2, complex), np.array([1.0, 0.0]), 0.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# "rk4" in the test names and case ids below is a stale label, left for a
# change that only renames tests (ROADMAP F); every case runs the Magnus-6 pair.

@pytest.mark.parametrize("tol", [pytest.param(1e-9, id="rk4-1e-09")])
def test_free_propagation(tol):
    cfg = IntegrationConfig(x_max=10.0, step=0.01)
    res = integrate_scatter(1.0, lambda x: np.zeros_like(np.asarray(x, float)),
                            1.0, cfg)
    assert res.T == pytest.approx(1.0, abs=tol)
    assert res.R <= tol


def test_rectangular_barrier_rk4():
    # the pilot finds the jumps at +-0.5 (at x_max = 2 it samples the
    # window, which makes two jumps 2e-9 apart on each side) and bisection
    # puts a node on each, in both grids: the maps are exact for
    # piecewise-constant w, at any step (the window's two halves shift T by
    # O(1e-18)), from the coarsest to the finest
    edges = [0.5 - 1e-9, 0.5 + 1e-9]
    for step, n_steps in ((0.5, 10), (0.02, 106), (1e-3, 2008)):
        cfg = IntegrationConfig(x_max=2.0, step=step)
        res = integrate_scatter(1.0, rect_barrier, 1.0, cfg)
        assert res.n_steps == n_steps
        assert abs(res.T - T_RECT) <= 1e-12
        assert abs(res.R - (1.0 - T_RECT)) <= 1e-12
        for x in _nodes(rect_barrier, 1.0, cfg, 1.0):
            for edge in edges:
                assert np.count_nonzero(np.abs(np.abs(x) - edge) <= 1e-15) == 2


def test_matches_analytic_at_default_config():
    for E in (0.005, 0.05, 0.1):
        cfg = default_config(E, barrier, x_max_seed=50.0)
        res = integrate_scatter(E, barrier, 1.0, cfg)
        ana = compute_rt(E, DEFAULT_PARAMS)
        assert abs(res.T - ana.T) <= 1e-6
        assert res.flux_residual <= 1e-6


def test_rk4_richardson_order():
    # sixth order: halving the step halves every graded step and cuts
    # T_err, |T_f - T_c| / 63, by about 2^6 (62.7 measured from 0.04 to
    # 0.02; below that T_err nears rounding)
    cfg = default_config(0.5, barrier, x_max_seed=50.0)
    errs = [integrate_scatter(0.5, barrier, 1.0, replace(cfg, step=step)).T_err
            for step in (0.04, 0.02)]
    assert 48.0 <= errs[0] / errs[1] <= 80.0


def test_halving_the_step_refines_the_grid():
    # on the Table-1 energies and the CLI's domain, step 0.04 takes 702
    # steps with T_err 2.8e-13 at most, and 0.02 takes 1,402 with 4.4e-15:
    # each half's count is ceil(its density integral / step)
    cfg = default_config(np.array(TABLE1_ENERGIES), barrier, x_max_seed=50.0)
    coarse, fine = (integrate_scatter(np.array(TABLE1_ENERGIES), barrier, 1.0,
                                      replace(cfg, step=step)) for step in (0.04, 0.02))
    assert coarse.errors == {} and fine.errors == {}
    assert abs(fine.n_steps - 2 * coarse.n_steps) <= 2
    assert coarse.T_err.max() >= 32.0 * fine.T_err.max()


def test_flux_residual_reports_rounding():
    # det M = 1: R + T = 1 to rounding however coarse the step, so T_err is
    # the error check (4.0e-7 at E = 10 and the coarsest step, 0.5)
    res = integrate_scatter(10.0, barrier, 1.0, IntegrationConfig(x_max=50.0, step=0.5))
    assert res.flux_residual <= 1e-14
    assert res.T_err >= 1e-7


# ---------------------------------------------------------------------------
# the graded grid, split at x = 0
# ---------------------------------------------------------------------------

def _oracle_rel_errors(params, energies):
    # relative T error of one oracle call against the closed form, on the
    # domain and step the CLI picks, and the call's step count
    pot = lambda x: potential(x, params)
    cfg = default_config(np.array(energies), pot,
                         x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(np.array(energies), pot, params.m, cfg)
    assert res.errors == {}
    return np.abs(res.T - scan(energies, params).T) / res.T, res.n_steps


def test_table1_energies_on_the_graded_grid():
    # 1,402 steps (and 701 coarse ones) and 2.8e-14
    errors, n_steps = _oracle_rel_errors(DEFAULT_PARAMS, TABLE1_ENERGIES)
    assert n_steps <= 3_000
    assert errors.max() <= 1e-13


@pytest.mark.parametrize("q, q_tilde", [(0.9, 0.55), (0.55, 0.9)])
def test_asymmetric_barrier_and_its_mirror(q, q_tilde):
    # V jumps at x = 0; a march that used V(0+) on the first step of x < 0
    # was first order and missed T by about 7e-3 on either barrier
    errors, _ = _oracle_rel_errors(BarrierParams(q=q, q_tilde=q_tilde), TABLE1_ENERGIES)
    assert errors.max() <= 1e-10


def test_tall_barrier():
    # V_max is about 1e4 over a core 0.19 wide; the uniform grid missed by 2.5e-7
    errors, _ = _oracle_rel_errors(BarrierParams(q=0.99, q_tilde=0.99), [0.05])
    assert errors.max() <= 1e-9


@pytest.mark.parametrize("q, q_tilde", [(0.999, 0.999), (0.99, 0.5)])
def test_tall_barrier_against_reference(q, q_tilde):
    # V_max is about 1e6 at q = 0.999, and V jumps from about 1e4 to -0.42
    # at x = 0 for (0.99, 0.5); T is 1.9e-17 and 1.1e-6.  The reference, not
    # compute_rt, because the closed form's tiny-T numerator is what this
    # oracle checks there
    params = BarrierParams(q=q, q_tilde=q_tilde)
    pot = lambda x: potential(x, params)
    cfg = default_config(0.05, pot, x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(np.array([0.05]), pot, params.m, cfg)
    assert res.errors == {}
    assert res.T[0] == pytest.approx(reference_transmission(0.05, params), rel=1e-10, abs=0)


@pytest.mark.parametrize("E", [300.0, 450.0, 600.0])
def test_high_energies_against_reference(E):
    # E/V_max 12.6 to 25.1, one energy per call.  RK4 dissipated the free
    # wave and missed by 1.1e-7 to 1.5e-7 in up to 173,206 steps; a Magnus
    # map is exact on constant w, so the steps lengthen where V is small,
    # and 15,486 to 19,818 steps read 2e-14 at most
    cfg = default_config(E, barrier, x_max_seed=50.0)
    res = integrate_scatter(E, barrier, 1.0, cfg)
    assert res.n_steps <= 20_000
    assert abs(res.T - reference_transmission(E, DEFAULT_PARAMS)) <= 1e-12


@pytest.mark.parametrize("E", [3e3, 3e4])
def test_tall_barrier_at_high_energy_against_reference(E):
    # q = q~ = 0.999 (V_max about 1e6) at E/V_max 3e-3 and 3e-2, one energy
    # per call: grading by the free wave put nearly every step into the
    # tails, and T missed by 5.5e-11 and 1.1e-11 relative
    params = BarrierParams(q=0.999, q_tilde=0.999)
    pot = lambda x: potential(x, params)
    cfg = default_config(E, pot, x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(E, pot, params.m, cfg)
    assert res.T == pytest.approx(reference_transmission(E, params), rel=1e-12, abs=0)


# T_err = |T_f - T_c| / 63 estimates the fine march's error, so it bounds the
# extrapolated T's: measured, the error is at most 0.09 T_err where steps
# set it.  On the grids below T_err (down to 1e-18 relative) falls below
# rounding and the closed form's own error (up to 4e-14 relative), hence the
# floor; the cases read at most 0.29 of the bound
_SLACK, _ROUNDING = 1.0, 1e-13
# name: (params, energies, x_max seed; None for the CLI's, max(40/a, 10 x_e))
_T_ERR_CASES = {
    "table1": (DEFAULT_PARAMS, TABLE1_ENERGIES, None),
    "jump-0.9-0.55": (BarrierParams(q=0.9, q_tilde=0.55), TABLE1_ENERGIES, None),
    "jump-0.55-0.9": (BarrierParams(q=0.55, q_tilde=0.9), TABLE1_ENERGIES, None),
    "tall-0.99": (BarrierParams(q=0.99, q_tilde=0.99), [0.05], None),
    "tall-0.999": (BarrierParams(q=0.999, q_tilde=0.999), [0.05], None),
    "tall-jump-0.99-0.5": (BarrierParams(q=0.99, q_tilde=0.5), [0.05], None),
    "lone-0.005": (DEFAULT_PARAMS, [0.005], 50.0),
    "lone-0.05": (DEFAULT_PARAMS, [0.05], 50.0),
    "lone-0.1": (DEFAULT_PARAMS, [0.1], 50.0),
    "high-300": (DEFAULT_PARAMS, [300.0], 50.0),
    "high-450": (DEFAULT_PARAMS, [450.0], 50.0),
    "high-600": (DEFAULT_PARAMS, [600.0], 50.0),
    "tall-0.999-3e3": (BarrierParams(q=0.999, q_tilde=0.999), [3e3], None),
    "tall-0.999-3e4": (BarrierParams(q=0.999, q_tilde=0.999), [3e4], None),
}


@pytest.mark.parametrize("case", list(_T_ERR_CASES))
def test_t_err_bounds_the_error(case):
    params, energies, seed = _T_ERR_CASES[case]
    pot = lambda x: potential(x, params)
    cfg = default_config(np.array(energies), pot,
                         x_max_seed=seed or max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(np.array(energies), pot, params.m, cfg)
    assert res.errors == {}
    # scan is within about 1e-14 on the Table-1 grids; the mpmath reference
    # for the lone energies, where the closed form is what is checked
    ref = (scan(energies, params).T if len(energies) > 1 else
           np.array([reference_transmission(energies[0], params)]))
    assert np.all(np.abs(res.T - ref) <= _SLACK * res.T_err + _ROUNDING * ref)


@pytest.mark.parametrize("q_tilde", [0.55, 0.9])
def test_halves_meet_at_x_zero(q_tilde):
    # both grids have a node at x = 0, and V is sampled at Gauss points
    # inside the steps: the right half sees only x > 0 and the left half
    # only x < 0, so each takes its own side's limit of V at a jump there
    params = BarrierParams(q=0.9, q_tilde=q_tilde)
    pot = lambda x: potential(x, params)
    fine, coarse = _nodes(pot, 1.0, IntegrationConfig(x_max=50.0), 0.1)
    for x in (fine, coarse):
        h = np.diff(x)
        samples = x[:-1] + np.outer(_GAUSS, h)
        assert np.all(h < 0.0) and (x[0], x[-1]) == (50.0, -50.0)
        assert np.count_nonzero(x == 0.0) == 1
        right = x[:-1] > 0.0  # the steps of the right half
        assert np.all(samples[:, right] > 0.0) and np.all(samples[:, ~right] < 0.0)
    # the subgrid: every other node of each half, and the half's last
    zero = int(np.flatnonzero(fine == 0.0)[0])
    sub = [x[::2].tolist() + ([] if x.size % 2 else [x[-1]])
           for x in (fine[:zero + 1], fine[zero:])]
    assert coarse.tolist() == sub[0] + sub[1][1:]


@pytest.mark.parametrize("q, q_tilde, E", [(0.9, 0.55, 0.3), (0.99, 0.5, 0.05),
                                           (0.8, 0.7, 0.05)])
def test_mirrored_barrier_transmits_alike(q, q_tilde, E):
    # T is the same from either side.  V(-x) takes its left branch at x = 0;
    # no sample falls there, so each half sees only its own side (a march
    # that used V(0) for both sides missed by 7.5e-4, 1.1e-3 and 3.9e-4)
    params = BarrierParams(q=q, q_tilde=q_tilde)
    pot = lambda x: potential(x, params)
    cfg = default_config(E, pot, x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    T = integrate_scatter(E, pot, params.m, cfg).T
    mirrored = integrate_scatter(E, lambda x: pot(-x), params.m, cfg).T
    assert mirrored == pytest.approx(T, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the march as a product of step maps
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / abs(b)


@functools.cache
def _config_with_steps(n, top=5.0, x_max=64.0):
    # the step at which the grid for energies up to ``top`` takes n steps per
    # half, 2n in all (the barrier is symmetric), by bisection: a half's
    # count is ceil(its density integral / step), so a range of steps gives
    # n (about 0.0046 for n = 4 * _CHUNK, where the default takes 1,882)
    lo, hi = IntegrationConfig(x_max=x_max, step=1e-3), IntegrationConfig(x_max=x_max, step=0.5)
    for _ in range(60):
        cfg = replace(lo, step=math.sqrt(lo.step * hi.step))
        count = _nodes(barrier, 1.0, cfg, top)[0].size - 1
        if count == 2 * n:
            return cfg
        lo, hi = (cfg, hi) if count > 2 * n else (lo, cfg)
    raise AssertionError(f"no step gives {2 * n} steps")


@pytest.mark.parametrize("E", list(TABLE1_ENERGIES) + [0.3, 0.9, 3.0])
def test_rk4_product_matches_sequential_loop(E):
    cfg = default_config(E, barrier, x_max_seed=50.0)
    res = integrate_scatter(E, barrier, 1.0, cfg)
    T, R = magnus_loop_rt(E, barrier, 1.0, cfg)
    assert _rel(res.T, T) <= 1e-13
    assert _rel(res.R, R) <= 1e-13


# grids of about four chunks per half: the fine march takes 2n steps, eight
# chunks and -2, 0 or +2 steps, and the coarse one 8192 or 8194
@pytest.mark.parametrize("n", [4 * _CHUNK - 1, 4 * _CHUNK, 4 * _CHUNK + 1])
def test_rk4_product_around_chunk_size(n):
    cfg = _config_with_steps(n)
    res = integrate_scatter(5.0, barrier, 1.0, cfg)
    assert res.n_steps == 2 * n
    T, R = magnus_loop_rt(5.0, barrier, 1.0, cfg)
    assert _rel(res.T, T) <= 1e-13
    assert _rel(res.R, R) <= 1e-13


@pytest.mark.parametrize("lo, hi, terms", [
    (-1e-4, 1e-4, 4), (-1.0, 1.0, 9),                      # series
    (-1.0, 1.0, 0), (-1e8, -1.0, 0), (1.0, 700.0 ** 2, 0),  # closed forms
])
def test_step_functions_exact_to_rounding(lo, hi, terms):
    # cosh mu - 1 and sinh mu / mu at mu^2 = z, within 4 eps of what rounding
    # z alone costs, eps (|f| + |z f'(z)|): read off D for Omega = [[0, 1], [z, 0]]
    # (terms 0: every step a long one, which takes the closed forms)
    z = np.random.default_rng(7).uniform(lo, hi, 100)
    c = np.zeros((5, z.size))
    c[2], c[3] = 1.0, z
    with np.errstate(over="ignore"):  # sinh and cosh of the branch not taken
        d = oracle._maps(c, terms or 1, np.full(z.size, terms == 0), np.zeros((1, z.size)))
    with mp.workdps(40):
        for zi, cm, s in zip(z.tolist(), d[0, 0, 0].tolist(), d[0, 1, 0].tolist()):
            mu = mp.sqrt(mp.mpf(zi))
            f, g = mp.re(mp.cosh(mu) - 1), mp.re(mp.sinh(mu) / mu)
            assert abs(cm - f) <= 4 * 2.0 ** -53 * (abs(f) + abs(mp.re(mu * mp.sinh(mu))) / 2)
            assert abs(s - g) <= 4 * 2.0 ** -53 * (abs(g) + abs(mp.re(mp.cosh(mu) - g)) / 2)


def test_step_too_coarse_raises():
    # graded nodes resolve E = 0.005 with T_err 8.8e-7 at step 0.3 (72
    # steps); at 0.5 (44 steps) T_err is 2.7e-5
    res = integrate_scatter(0.005, barrier, 1.0, IntegrationConfig(x_max=50.0, step=0.3))
    assert res.T_err <= 1e-6
    cfg = IntegrationConfig(x_max=50.0, step=0.5)
    with pytest.raises(StepTooCoarseError):
        integrate_scatter(0.005, barrier, 1.0, cfg)


def test_unstable_step_raises_cleanly():
    # the coarsest step leaves E = 0.001 unresolved (40 steps, T_err
    # 3.3e-4): it must surface as StepTooCoarseError, not an arithmetic
    # exception, and say that a smaller step refines the grid
    cfg = IntegrationConfig(x_max=50.0, step=0.5)
    advice = r"reduce the step \(IntegrationConfig\.step, --oracle-step\)$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooCoarseError, match=advice):
            integrate_scatter(0.001, barrier, 1.0, cfg)


@pytest.mark.parametrize("step", [pytest.param(0.45, id="rk4")])
def test_overflowing_march_raises_cleanly(step):
    # under a barrier 1e5 times the default one the decaying wave, marched
    # backward, grows past float range (T < 1e-308; 1e4 times reads T =
    # 1.1e-199): the overflow is reported as StepTooCoarseError, with no
    # numpy RuntimeWarning
    cfg = IntegrationConfig(x_max=200.0, step=step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooCoarseError,
                           match="^T error estimate nan .*, or T is below float range$"):
            integrate_scatter(50.0, lambda x: 1e5 * barrier(x), 1.0, cfg)


def test_boundary_not_decayed_raises():
    flat = lambda x: np.full_like(np.asarray(x, float), 0.5)
    cfg = IntegrationConfig(x_max=20.0, step=0.01)
    bound = r"^\|V\(\+-20\)\| = 0\.5 exceeds 1e-12\*max\(E,1\) = 1e-12; enlarge x_max$"
    with pytest.raises(BoundaryNotDecayedError, match=bound):
        integrate_scatter(1.0, flat, 1.0, cfg)


def test_default_config_doubles_until_decay():
    slow = lambda x: np.exp(-np.abs(np.asarray(x, float)) / 20.0)
    cfg = default_config(1.0, slow, x_max_seed=20.0)
    # 20 * 2^5 is the first width with |V| <= 1e-12; the step is the default
    assert cfg == IntegrationConfig(x_max=640.0, step=0.02)


def test_default_config_for_energies():
    # one config for them all: the lowest energy's decay bound, the
    # tightest, sets the domain; the grid, graded for the highest energy
    # when it is marched, takes the default step
    slow = lambda x: np.exp(-np.abs(np.asarray(x, float)) / 20.0)
    assert default_config(1e6, slow).x_max == 320.0
    cfg = default_config(np.array([4.0, 0.5, 1e6]), slow)
    assert cfg == IntegrationConfig(x_max=640.0, step=0.02)
    for bad in ([], [0.5, 0.0], [0.5, math.inf], [[0.5]]):
        with pytest.raises(ValueError):
            default_config(np.array(bad), slow)


def test_default_config_gives_up_on_nondecaying_potential():
    flat = lambda x: np.full_like(np.asarray(x, float), 0.5)
    with pytest.raises(BoundaryNotDecayedError):
        default_config(1.0, flat)


def test_default_config_leaves_decayed_edges():
    cfg = default_config(0.05, barrier, x_max_seed=50.0)
    assert 0.0 < np.max(np.abs(barrier(np.array([-cfg.x_max, cfg.x_max])))) <= 1e-12


@pytest.mark.parametrize("bad", [
    dict(x_max=0.0, step=0.001),
    dict(x_max=10.0, step=0.0),
    dict(x_max=10.0, step=9.9e-4),   # below the floor, 1e-3
    dict(x_max=10.0, step=0.51),     # above the ceiling, 0.5
    dict(x_max=10.0, step=math.nan),
    dict(x_max=10.0, step=math.inf),
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        IntegrationConfig(**bad)


def test_step_below_the_floor_rejected_when_built():
    # the floor, 1e-3, bounds a grid at 20 times the default's steps; a step
    # below it is refused when the config is built, before any potential is
    # sampled or grid allocated
    assert IntegrationConfig(x_max=50.0, step=1e-3).step == 1e-3
    with pytest.raises(ValueError, match=r"^step must be in \[0\.001, 0\.5\], got 0\.0005$"):
        IntegrationConfig(x_max=50.0, step=5e-4)
    with pytest.raises(ValueError):
        replace(IntegrationConfig(x_max=50.0), step=1e-9)


def test_nonpositive_energy_rejected():
    cfg = IntegrationConfig(x_max=10.0, step=0.01)
    with pytest.raises(ValueError):
        integrate_scatter(0.0, barrier, 1.0, cfg)
    with pytest.raises(ValueError):
        integrate_scatter(1.0, barrier, 0.0, cfg)


@pytest.mark.parametrize("wrong", [lambda x: 0.0, lambda x: np.zeros((np.size(x), 1))],
                         ids=["scalar", "column"])
def test_potential_of_wrong_shape_rejected(wrong):
    # the potential is called once on the array of samples and must return
    # an array of the same shape
    cfg = IntegrationConfig(x_max=10.0, step=0.01)
    with pytest.raises(ValueError, match="shape"):
        integrate_scatter(0.05, wrong, 1.0, cfg)
    with pytest.raises(ValueError, match="shape"):
        default_config(0.05, wrong)


# ---------------------------------------------------------------------------
# energy lanes: one call for an array of energies sharing a config
# ---------------------------------------------------------------------------

def _assert_lanes_equal_scalar_calls(res, energies, pot, cfg, failed=()):
    # the grid is graded for the call's highest energy, so each lane is
    # compared with a call of its energy and that one, which shares the grid
    top = max(energies)
    for i, E in enumerate(energies):
        if i in failed:
            assert math.isnan(res.T[i]) and math.isnan(res.R[i])
            continue
        pair = integrate_scatter(np.array([E, top]), pot, 1.0, cfg)
        assert pair.n_steps == res.n_steps
        assert (res.T[i], res.R[i], res.T_err[i], res.flux_residual[i]) == (
            pair.T[0], pair.R[0], pair.T_err[0], pair.flux_residual[0])
        if E == top:
            one = integrate_scatter(E, pot, 1.0, cfg)
            assert type(one.T) is float and type(one.T_err) is float
            assert (res.T[i], res.R[i], res.T_err[i], res.flux_residual[i]) == (
                one.T, one.R, one.T_err, one.flux_residual)


# lane counts around a block of 4, the size these cases set
@pytest.mark.parametrize("n", [4 * _CHUNK - 1, 4 * _CHUNK + 5], ids=lambda n: f"{n}-rk4")
@pytest.mark.parametrize("count", [3, 4, 5])
def test_batch_equals_scalar_calls_bit_for_bit(n, count, monkeypatch):
    monkeypatch.setattr(oracle, "_LANES", 4)
    cfg = _config_with_steps(n)
    energies = np.linspace(0.02, 5.0, count).tolist()
    res = integrate_scatter(np.array(energies), barrier, 1.0, cfg)
    assert res.errors == {} and res.n_steps == 2 * n
    _assert_lanes_equal_scalar_calls(res, energies, barrier, cfg)


@pytest.mark.parametrize("step", [pytest.param(0.5, id="rk4")])
def test_coarse_lanes_fail_alone(step):
    # on a grid graded for E = 0.1, the coarsest step resolves E >= 0.005
    # (T_err at most 5.8e-7) but not E = 0.001 or E = 0.0003, with no numpy
    # RuntimeWarning
    cfg = IntegrationConfig(x_max=50.0, step=step)
    energies = [0.05, 0.02, 0.001, 0.005, 0.0003, 0.1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_scatter(np.array(energies), barrier, 1.0, cfg)
    assert sorted(res.errors) == [2, 4]
    assert all(isinstance(exc, StepTooCoarseError) for exc in res.errors.values())
    assert "at E=0.001 " in str(res.errors[2])
    _assert_lanes_equal_scalar_calls(res, energies, barrier, cfg, failed=(2, 4))
    with pytest.raises(StepTooCoarseError):
        integrate_scatter(0.001, barrier, 1.0, cfg)


def test_boundary_check_per_lane():
    # |V(+-35)| = 1.9e-12 lies between the bounds 1e-12 * max(E, 1) of
    # E = 1.5 and E = 3: E >= 2 passes only
    edge = abs(float(barrier(np.array([35.0]))[0]))
    assert 1.5e-12 < edge < 3e-12
    cfg = IntegrationConfig(x_max=35.0, step=0.01)
    energies = [0.5, 3.0, 1.5, 4.0]
    res = integrate_scatter(np.array(energies), barrier, 1.0, cfg)
    assert sorted(res.errors) == [0, 2]
    assert all(isinstance(exc, BoundaryNotDecayedError) for exc in res.errors.values())
    assert f"|V(+-35)| = {edge:g} exceeds" in str(res.errors[0])
    _assert_lanes_equal_scalar_calls(res, energies, barrier, cfg, failed=(0, 2))
    with pytest.raises(BoundaryNotDecayedError):
        integrate_scatter(0.5, barrier, 1.0, cfg)


def test_batch_rejects_bad_energies():
    cfg = IntegrationConfig(x_max=10.0, step=0.01)
    for bad in ([0.1, 0.0], [0.1, math.inf], [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            integrate_scatter(np.array(bad), barrier, 1.0, cfg)


def _peak_bytes(E, cfg):
    tracemalloc.start()
    try:
        integrate_scatter(E, barrier, 1.0, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_is_bounded_by_lane_blocks():
    # 0.64 MB for the highest Table-1 energy alone (1.7 MB on a process's
    # first call) and 1.34 MB for the 20 energies, which share its grid, in
    # blocks of _LANES (10); 2.47 MB when all 20 lanes march at once
    cfg = default_config(0.05, barrier, x_max_seed=50.0)
    one = _peak_bytes(max(TABLE1_ENERGIES), cfg)
    batch = _peak_bytes(np.array(TABLE1_ENERGIES), cfg)
    assert batch <= one + 1_000_000
