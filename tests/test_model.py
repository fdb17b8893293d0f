import math

import numpy as np
import pytest

from dengfan import (BarrierParams, DEFAULT_PARAMS, barrier_top, compute_b,
                     potential, side_coefficients)

from helpers import draw_barrier_params

# frozen with 40-digit arithmetic: e^0.64 - 0.8, e^0.64 - 0.5
B_TABLE = 1.0964808793049514
B_Q_HALF = 1.3964808793049514
# V(0) for the default parameter set
VMAX_TABLE = 23.864936467480586


def test_compute_b_default_params():
    assert compute_b(DEFAULT_PARAMS) == pytest.approx(B_TABLE, abs=1e-15)


def test_compute_b_uses_q_not_q_tilde():
    p = BarrierParams(q=0.5, q_tilde=0.8)
    assert compute_b(p) == pytest.approx(B_Q_HALF, abs=1e-15)


def test_compute_b_zero_xe_limit():
    # b = 1 - q exactly when x_e = 0; the q -> 0 limit of the formula is 1
    p = BarrierParams(a=1.0, x_e=0.0, q=1e-12, q_tilde=1e-12)
    assert compute_b(p) == 1.0 - 1e-12


def test_potential_vanishes_at_infinity():
    for x in (-600.0, 600.0):
        assert abs(potential(x, DEFAULT_PARAMS)) < 1e-200


def test_potential_even_for_symmetric_deformation():
    xs = np.linspace(0.01, 12.0, 57)
    v_plus = potential(xs, DEFAULT_PARAMS)
    v_minus = potential(-xs, DEFAULT_PARAMS)
    np.testing.assert_allclose(v_plus, v_minus, rtol=0, atol=1e-14)


def test_barrier_top_value():
    assert barrier_top(DEFAULT_PARAMS) == pytest.approx(VMAX_TABLE, rel=1e-12)


def test_well_depth_is_minus_v0():
    # at |x| = x_e the denominator equals b, so V = v0*(1 - 2) = -v0
    for p in (DEFAULT_PARAMS, BarrierParams(v0=0.7, a=1.3, x_e=0.9, q=0.55, q_tilde=0.55)):
        assert potential(p.x_e, p) == pytest.approx(-p.v0, rel=1e-12)


def test_potential_array_and_scalar_agree():
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    v = potential(xs, DEFAULT_PARAMS)
    assert isinstance(v, np.ndarray)
    for x, vx in zip(xs, v):
        assert potential(float(x), DEFAULT_PARAMS) == vx


def test_potential_monotone_beyond_well_minimum():
    # beyond |x| = x_e the potential rises monotonically toward 0 from below
    for p in (DEFAULT_PARAMS, BarrierParams(v0=1.15), BarrierParams(v0=1.35)):
        xs = np.linspace(p.x_e, p.x_e + 30.0 / p.a, 400)
        v = potential(xs, p)
        assert np.all(np.diff(v) > 0)
        assert np.all(v <= 0)


def test_barrier_top_is_peak_on_grid():
    assert compute_b(DEFAULT_PARAMS) == pytest.approx(B_TABLE, abs=1e-15)
    v_max = barrier_top(DEFAULT_PARAMS)
    assert v_max == pytest.approx(VMAX_TABLE, rel=1e-12)
    # x = 0 is the maximum on a grid spanning several potential ranges
    p = DEFAULT_PARAMS
    span = max(20.0 / p.a, 4.0 * p.x_e)
    v = potential(np.linspace(-span, span, 4001), p)
    assert np.max(v) <= v_max * (1.0 + 1e-12)


def test_side_coefficients_frozen_values():
    # E = 0.02, default parameters, left region (40-digit reference values)
    sc = side_coefficients(0.02, DEFAULT_PARAMS, "left")
    assert sc.chi3 == pytest.approx(0.0625, abs=1e-15)
    assert sc.chi1 == pytest.approx(-17.983396762507821, rel=1e-13)
    assert sc.chi2 == pytest.approx(10.582821086962416, rel=1e-13)
    assert sc.epsilon == pytest.approx(-7.338075675545406, rel=1e-13)
    assert sc.sigma == pytest.approx(0.25j, abs=1e-15)
    assert sc.k == pytest.approx(0.2, abs=1e-15)


def test_epsilon_is_energy_independent():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = draw_barrier_params(rng)
        for side, qs in (("left", p.q), ("right", p.q_tilde)):
            b = compute_b(p)
            closed = -2.0 * p.m * p.v0 * b * b / (p.a**2 * qs**2)
            for E in (1e-4, 0.02, 1.0, 50.0):
                sc = side_coefficients(E, p, side)
                assert sc.epsilon == pytest.approx(closed, rel=1e-12)


def test_tau_solves_its_quadratic_on_both_branches():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = draw_barrier_params(rng)
        for branch in ("plus", "minus"):
            sc = side_coefficients(0.37, p, "left", tau_branch=branch)
            resid = sc.tau**2 - sc.tau + sc.epsilon
            assert abs(resid) <= 1e-12 * max(1.0, abs(sc.epsilon))


def test_tau_branch_values():
    # epsilon = 0 (v0 = 0) gives the roots 1 and 0
    p = BarrierParams(v0=0.0)
    assert side_coefficients(0.1, p, tau_branch="plus").tau == 1.0
    assert side_coefficients(0.1, p, tau_branch="minus").tau == 0.0
    # barrier parameters give epsilon < 0, so the plus root exceeds 1
    assert side_coefficients(0.1, DEFAULT_PARAMS).tau > 1.0


def test_gamma_equals_one_plus_two_sigma_exactly():
    sc = side_coefficients(0.7, DEFAULT_PARAMS)
    assert sc.gamma - 1.0 == 2.0 * sc.sigma


def test_alpha_beta_sum_and_product():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = draw_barrier_params(rng)
        sc = side_coefficients(0.9, p, "right")
        st = sc.sigma + sc.tau
        assert sc.alpha + sc.beta == pytest.approx(2 * st, rel=1e-12)
        assert sc.alpha * sc.beta == pytest.approx(st * st + sc.chi1, rel=1e-12)


def test_sqrt_branch_swaps_alpha_beta():
    plus = side_coefficients(0.25, DEFAULT_PARAMS, sqrt_branch="plus")
    minus = side_coefficients(0.25, DEFAULT_PARAMS, sqrt_branch="minus")
    assert plus.alpha == minus.beta
    assert plus.beta == minus.alpha


def test_sides_identical_for_symmetric_barrier():
    left = side_coefficients(0.05, DEFAULT_PARAMS, "left")
    right = side_coefficients(0.05, DEFAULT_PARAMS, "right")
    for field in ("chi1", "chi2", "chi3", "epsilon", "sigma", "tau",
                  "alpha", "beta", "gamma", "k"):
        assert getattr(left, field) == getattr(right, field)


def test_deformation_per_side():
    # q_tilde shapes the region x >= 0 only
    p, other = BarrierParams(q=0.8, q_tilde=0.6), BarrierParams(q=0.8, q_tilde=0.3)
    xs = np.linspace(0.25, 5.0, 20)
    assert np.array_equal(potential(-xs, p), potential(-xs, other))
    assert not np.any(potential(xs, p) == potential(xs, other))
    assert side_coefficients(0.05, p, "left").tau == side_coefficients(0.05, other, "left").tau
    assert side_coefficients(0.05, p, "right").tau != side_coefficients(0.05, other, "right").tau


@pytest.mark.parametrize("bad", [
    dict(v0=-0.1),
    dict(a=0.0),
    dict(a=-1.0),
    dict(x_e=-0.5),
    dict(m=0.0),
    dict(q=0.0),
    dict(q=1.0),
    dict(q=1.4),
    dict(q_tilde=0.0),
    dict(q_tilde=1.0),
    dict(v0=math.nan),
    dict(a=math.inf),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        BarrierParams(**bad)


@pytest.mark.parametrize("E", [0.0, -0.1, math.nan])
def test_nonpositive_energy_rejected(E):
    with pytest.raises(ValueError):
        side_coefficients(E, DEFAULT_PARAMS)


def test_bad_side_and_branch_rejected():
    with pytest.raises(ValueError):
        side_coefficients(0.1, DEFAULT_PARAMS, side="middle")
    with pytest.raises(ValueError):
        side_coefficients(0.1, DEFAULT_PARAMS, tau_branch="best")
    with pytest.raises(ValueError):
        side_coefficients(0.1, DEFAULT_PARAMS, sqrt_branch="pm")
