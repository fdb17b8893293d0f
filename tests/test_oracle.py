import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dengfan import (BarrierParams, BoundaryNotDecayedError, DEFAULT_PARAMS,
                     IntegrationConfig, StepTooCoarseError, TABLE1, compute_rt,
                     default_config, integrate_scatter, plane_wave_decompose,
                     potential, scan)
from dengfan.oracle import _CHUNK, _LANES, _grid

from helpers import reference_transmission, rk4_loop_rt

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
    k, x = 0.7, -3.2
    psi = cmath.exp(1j * k * x)
    A, B = plane_wave_decompose(psi, 1j * k * psi, k, x)
    assert A == pytest.approx(1.0, abs=1e-14)
    assert abs(B) <= 1e-14


def test_decompose_cosine():
    k, x = 1.3, 0.4
    A, B = plane_wave_decompose(cmath.cos(k * x), -k * cmath.sin(k * x), k, x)
    assert A == pytest.approx(0.5, abs=1e-14)
    assert B == pytest.approx(0.5, abs=1e-14)


def test_decompose_round_trip():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        A = complex(rng.normal(), rng.normal())
        B = complex(rng.normal(), rng.normal())
        k = float(rng.uniform(0.05, 5.0))
        x = float(rng.uniform(-30.0, 30.0))
        ep, em = cmath.exp(1j * k * x), cmath.exp(-1j * k * x)
        psi = A * ep + B * em
        dpsi = 1j * k * (A * ep - B * em)
        A2, B2 = plane_wave_decompose(psi, dpsi, k, x)
        scale = max(abs(A), abs(B), 1.0)
        assert abs(A2 - A) <= 1e-12 * scale
        assert abs(B2 - B) <= 1e-12 * scale


def test_decompose_rejects_zero_k():
    with pytest.raises(ValueError):
        plane_wave_decompose(1.0 + 0j, 0.0j, 0.0, 0.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

# the "rk4" in a case id names the integrator the case runs

@pytest.mark.parametrize("tol", [pytest.param(1e-9, id="rk4-1e-09")])
def test_free_propagation(tol):
    cfg = IntegrationConfig(x_max=10.0, step=0.01)
    res = integrate_scatter(1.0, lambda x: np.zeros_like(np.asarray(x, float)),
                            1.0, cfg)
    assert res.T == pytest.approx(1.0, abs=tol)
    assert res.R <= tol
    assert res.boundary_potential == 0.0


def test_rectangular_barrier_rk4():
    cfg = IntegrationConfig(x_max=2.0, step=2.0**-10)
    res = integrate_scatter(1.0, rect_barrier, 1.0, cfg)
    assert abs(res.T - T_RECT) <= 1e-6
    assert abs(res.R - (1.0 - T_RECT)) <= 1e-6


def test_matches_analytic_at_default_config():
    for E in (0.005, 0.05, 0.1):
        cfg = default_config(E, barrier, m=1.0, x_max_seed=50.0)
        res = integrate_scatter(E, barrier, 1.0, cfg)
        ana = compute_rt(E, DEFAULT_PARAMS)
        assert abs(res.T - ana.T) <= 1e-6
        assert res.flux_residual <= 1e-6


def test_rk4_flux_residual_order():
    # coarse steps where truncation dominates roundoff: halving the step
    # should cut the residual by at least 2^4
    residuals = []
    for h in (0.05, 0.025, 0.0125):
        cfg = IntegrationConfig(x_max=50.0, step=h)
        residuals.append(integrate_scatter(0.05, barrier, 1.0, cfg).flux_residual)
    assert residuals[0] / residuals[1] >= 8.0
    assert residuals[1] / residuals[2] >= 8.0


def test_rk4_richardson_order():
    Ts = {}
    for h in (0.04, 0.02, 0.01):
        cfg = IntegrationConfig(x_max=50.0, step=h)
        Ts[h] = integrate_scatter(0.05, barrier, 1.0, cfg).T
    ratio = (Ts[0.04] - Ts[0.02]) / (Ts[0.02] - Ts[0.01])
    assert 10.0 <= ratio <= 24.0


# ---------------------------------------------------------------------------
# the graded grid, split at x = 0
# ---------------------------------------------------------------------------

def _oracle_rel_errors(params, energies):
    # relative T error of one oracle call against the closed form, on the
    # domain and step the CLI picks, and the call's step count
    pot = lambda x: potential(x, params)
    cfg = default_config(np.array(energies), pot, params.m,
                         x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(np.array(energies), pot, params.m, cfg)
    assert res.errors == {}
    return np.abs(res.T - scan(energies, params).T) / res.T, res.n_steps


@pytest.mark.parametrize("E", [0.005, 0.1, 3.0, 100.0])
def test_steps_within_budget(E):
    # at most ceil(2 x_max / step) steps, the uniform grid's count
    cfg = default_config(E, barrier, m=1.0, x_max_seed=50.0)
    res = integrate_scatter(E, barrier, 1.0, cfg)
    assert 0 < res.n_steps <= math.ceil(2.0 * cfg.x_max / cfg.step)


def test_table1_energies_on_the_graded_grid():
    # 43,528 steps and 8.1e-12; the uniform grid took 100,000 for 3.5e-11
    errors, n_steps = _oracle_rel_errors(DEFAULT_PARAMS, TABLE1_ENERGIES)
    assert n_steps <= 45_000
    assert errors.max() <= 1e-11


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
    cfg = default_config(0.05, pot, params.m,
                         x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    res = integrate_scatter(np.array([0.05]), pot, params.m, cfg)
    assert res.errors == {}
    assert res.T[0] == pytest.approx(reference_transmission(0.05, params), rel=1e-10, abs=0)


@pytest.mark.parametrize("q_tilde", [0.55, 0.9])
def test_halves_meet_at_x_zero(q_tilde):
    # the right half ends on the right limit V(0+), which is V(0) on these
    # barriers; the left half starts on the left limit V(0-), which equals
    # it when the sides mirror
    params = BarrierParams(q=0.9, q_tilde=q_tilde)
    pot = lambda x: potential(x, params)
    (vr, cr), (vl, cl) = _grid(pot, 1.0, IntegrationConfig(x_max=50.0, step=1e-3), 0.1)
    assert vr[-1] == potential(np.nextafter(0.0, 1.0), params) == potential(0.0, params)
    assert vl[0] == potential(np.nextafter(0.0, -1.0), params)
    assert (vl[0] == vr[-1]) == (q_tilde == params.q)
    for c in (cr, cl):
        assert np.all(c[0] < 0.0) and math.isclose(c[0].sum(), -50.0, rel_tol=1e-13)


@pytest.mark.parametrize("q, q_tilde, E", [(0.9, 0.55, 0.3), (0.99, 0.5, 0.05),
                                           (0.8, 0.7, 0.05)])
def test_mirrored_barrier_transmits_alike(q, q_tilde, E):
    # T is the same from either side.  V(-x) takes its left branch at x = 0,
    # so a right half ending on V(0) instead of V(0+) was first order there
    # and missed the unmirrored T by 7.5e-4, 1.1e-3 and 3.9e-4
    params = BarrierParams(q=q, q_tilde=q_tilde)
    pot = lambda x: potential(x, params)
    cfg = default_config(E, pot, params.m, x_max_seed=max(40.0 / params.a, 10.0 * params.x_e))
    T = integrate_scatter(E, pot, params.m, cfg).T
    mirrored = integrate_scatter(E, lambda x: pot(-x), params.m, cfg).T
    assert mirrored == pytest.approx(T, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# the march as a product of step maps
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / abs(b)


def _config_with_steps(n, x_max=64.0):
    # a step just above x_max / n, so that ceil(2 x_max / step) == 2n: a
    # budget of n steps per half, which binds at the energies below
    cfg = IntegrationConfig(x_max=x_max, step=x_max / n * (1.0 + 1e-12))
    assert math.ceil(2.0 * x_max / cfg.step) == 2 * n
    return cfg


@pytest.mark.parametrize("E", list(TABLE1_ENERGIES) + [0.3, 0.9, 3.0])
def test_rk4_product_matches_sequential_loop(E):
    cfg = default_config(E, barrier, m=1.0, x_max_seed=50.0)
    res = integrate_scatter(E, barrier, 1.0, cfg)
    T, R = rk4_loop_rt(E, barrier, 1.0, cfg)
    assert _rel(res.T, T) <= 1e-13
    assert _rel(res.R, R) <= 1e-13


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_rk4_product_around_chunk_size(n):
    cfg = _config_with_steps(n)
    res = integrate_scatter(0.05, barrier, 1.0, cfg)
    assert res.n_steps == 2 * n
    T, R = rk4_loop_rt(0.05, barrier, 1.0, cfg)
    assert _rel(res.T, T) <= 1e-13
    assert _rel(res.R, R) <= 1e-13


def test_step_too_coarse_raises():
    # graded nodes resolve E = 0.05 within 1e-6 at a budget of 250 steps per
    # half (step 0.2); 125 per half do not
    cfg = IntegrationConfig(x_max=50.0, step=0.4)
    with pytest.raises(StepTooCoarseError):
        integrate_scatter(0.05, barrier, 1.0, cfg)


def test_unstable_step_raises_cleanly():
    # k*h = 4.5: the explicit march blows up; must surface as
    # StepTooCoarseError, not an arithmetic exception
    cfg = IntegrationConfig(x_max=50.0, step=0.45)
    with pytest.raises(StepTooCoarseError):
        integrate_scatter(50.0, barrier, 1.0, cfg)


@pytest.mark.parametrize("step", [pytest.param(0.45, id="rk4")])
def test_overflowing_march_raises_cleanly(step):
    # 889 unstable steps grow the state past float range: the overflow is
    # reported as StepTooCoarseError, with no numpy RuntimeWarning
    cfg = IntegrationConfig(x_max=200.0, step=step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepTooCoarseError):
            integrate_scatter(50.0, barrier, 1.0, cfg)


def test_boundary_not_decayed_raises():
    flat = lambda x: np.full_like(np.asarray(x, float), 0.5)
    cfg = IntegrationConfig(x_max=20.0, step=0.01)
    with pytest.raises(BoundaryNotDecayedError):
        integrate_scatter(1.0, flat, 1.0, cfg)


def test_default_config_doubles_until_decay():
    slow = lambda x: np.exp(-np.abs(np.asarray(x, float)) / 20.0)
    cfg = default_config(1.0, slow, m=1.0, x_max_seed=20.0)
    assert cfg.x_max == 640.0  # 20 * 2^5 is the first width with |V| <= 1e-12
    assert cfg.step == min(1e-3, 0.02 / math.sqrt(2.0))


def test_default_config_for_energies():
    # one config for them all: the lowest energy's decay bound, the
    # tightest, sets the domain, and the highest energy's step, the
    # smallest, the budget
    slow = lambda x: np.exp(-np.abs(np.asarray(x, float)) / 20.0)
    assert default_config(1e6, slow, m=1.0).x_max == 320.0
    cfg = default_config(np.array([4.0, 0.5, 1e6]), slow, m=1.0)
    assert cfg == IntegrationConfig(x_max=640.0, step=0.02 / math.sqrt(2e6))
    for bad in ([], [0.5, 0.0], [0.5, math.inf], [[0.5]]):
        with pytest.raises(ValueError):
            default_config(np.array(bad), slow)


def test_default_config_gives_up_on_nondecaying_potential():
    flat = lambda x: np.full_like(np.asarray(x, float), 0.5)
    with pytest.raises(BoundaryNotDecayedError):
        default_config(1.0, flat, m=1.0)


def test_result_reports_boundary_potential():
    cfg = default_config(0.05, barrier, m=1.0, x_max_seed=50.0)
    res = integrate_scatter(0.05, barrier, 1.0, cfg)
    assert 0.0 < res.boundary_potential <= 1e-12


@pytest.mark.parametrize("bad", [
    dict(x_max=0.0, step=0.001),
    dict(x_max=10.0, step=0.0),
    dict(x_max=10.0, step=0.2),      # step > x_max/100
])
def test_config_validation(bad):
    with pytest.raises(ValueError):
        IntegrationConfig(**bad)


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
        assert (res.T[i], res.R[i], res.flux_residual[i]) == (
            pair.T[0], pair.R[0], pair.flux_residual[0])
        if E == top:
            one = integrate_scatter(E, pot, 1.0, cfg)
            assert type(one.T) is float
            assert (res.T[i], res.R[i], res.flux_residual[i]) == (
                one.T, one.R, one.flux_residual)


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK + 5], ids=lambda n: f"{n}-rk4")
@pytest.mark.parametrize("count", [_LANES - 1, _LANES, _LANES + 1])
def test_batch_equals_scalar_calls_bit_for_bit(n, count):
    cfg = _config_with_steps(n)
    energies = np.linspace(0.02, 0.6, count).tolist()
    res = integrate_scatter(np.array(energies), barrier, 1.0, cfg)
    assert res.errors == {}
    _assert_lanes_equal_scalar_calls(res, energies, barrier, cfg)


@pytest.mark.parametrize("step", [pytest.param(0.02, id="rk4")])
def test_coarse_lanes_fail_alone(step):
    # a step of 0.02 resolves E <= 2 but not E = 10; E = 20000 (k h = 4)
    # overflows, with no numpy RuntimeWarning
    cfg = IntegrationConfig(x_max=50.0, step=step)
    energies = [0.05, 0.1, 10.0, 0.5, 20000.0, 2.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = integrate_scatter(np.array(energies), barrier, 1.0, cfg)
    assert sorted(res.errors) == [2, 4]
    assert all(isinstance(exc, StepTooCoarseError) for exc in res.errors.values())
    assert "at E=10.0 " in str(res.errors[2])
    _assert_lanes_equal_scalar_calls(res, energies, barrier, cfg, failed=(2, 4))
    with pytest.raises(StepTooCoarseError):
        integrate_scatter(10.0, barrier, 1.0, cfg)


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
    assert res.boundary_potential == edge
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
    # 5.0 MB for the highest Table-1 energy alone and 5.4 MB for the 20
    # energies, which share its grid, in blocks of _LANES; 15.9 MB when all
    # 20 lanes march at once
    cfg = default_config(0.05, barrier, m=1.0, x_max_seed=50.0)
    one = _peak_bytes(max(TABLE1_ENERGIES), cfg)
    batch = _peak_bytes(np.array(TABLE1_ENERGIES), cfg)
    assert batch <= one + 1_000_000
