import math

import numpy as np
import pytest

from dengfan import BarrierParams, DEFAULT_PARAMS, barrier_top, potential, side_coefficients
from dengfan.model import _compute_b

from helpers import draw_barrier_params

# frozen with 40-digit arithmetic: e^0.64 - 0.8, e^0.64 - 0.5
B_TABLE = 1.0964808793049514
B_Q_HALF = 1.3964808793049514
# V(0) for the default parameter set
VMAX_TABLE = 23.864936467480586


def test_compute_b_default_params():
    assert _compute_b(DEFAULT_PARAMS) == pytest.approx(B_TABLE, abs=1e-15)


def test_compute_b_uses_q_not_q_tilde():
    p = BarrierParams(q=0.5, q_tilde=0.8)
    assert _compute_b(p) == pytest.approx(B_Q_HALF, abs=1e-15)


def test_compute_b_zero_xe_limit():
    # b = 1 - q exactly when x_e = 0; the q -> 0 limit of the formula is 1
    p = BarrierParams(a=1.0, x_e=0.0, q=1e-12, q_tilde=1e-12)
    assert _compute_b(p) == 1.0 - 1e-12


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
    assert _compute_b(DEFAULT_PARAMS) == pytest.approx(B_TABLE, abs=1e-15)
    v_max = barrier_top(DEFAULT_PARAMS)
    assert v_max == pytest.approx(VMAX_TABLE, rel=1e-12)
    # x = 0 is the maximum on a grid spanning several potential ranges
    p = DEFAULT_PARAMS
    span = max(20.0 / p.a, 4.0 * p.x_e)
    v = potential(np.linspace(-span, span, 4001), p)
    assert np.max(v) <= v_max * (1.0 + 1e-12)


def test_side_coefficients_frozen_values():
    # E = 0.02, default parameters, left region (40-digit reference values)
    sc, _ = side_coefficients(0.02, DEFAULT_PARAMS)
    assert sc.chi3 == pytest.approx(0.0625, abs=1e-15)
    assert sc.chi1 == pytest.approx(-17.983396762507821, rel=1e-13)
    assert sc.epsilon == pytest.approx(-7.338075675545406, rel=1e-13)
    # epsilon = chi1 + chi2 + chi3
    assert sc.epsilon - sc.chi1 - sc.chi3 == pytest.approx(10.582821086962416, rel=1e-13)
    assert sc.sigma == pytest.approx(0.25j, abs=1e-15)
    assert sc.k == pytest.approx(0.2, abs=1e-15)


def test_epsilon_is_energy_independent():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = draw_barrier_params(rng)
        b = _compute_b(p)
        for E in (1e-4, 0.02, 1.0, 50.0):
            for sc, qs in zip(side_coefficients(E, p), (p.q, p.q_tilde)):
                closed = -2.0 * p.m * p.v0 * b * b / (p.a**2 * qs**2)
                assert sc.epsilon == pytest.approx(closed, rel=1e-12)


def test_tau_solves_its_quadratic():
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = draw_barrier_params(rng)
        for sc in side_coefficients(0.37, p):
            resid = sc.tau**2 - sc.tau + sc.epsilon
            assert abs(resid) <= 1e-12 * max(1.0, abs(sc.epsilon))


def test_tau_branch_values():
    # tau is the larger root: epsilon = 0 (v0 = 0) gives the roots 1 and 0
    assert side_coefficients(0.1, BarrierParams(v0=0.0))[0].tau == 1.0
    # barrier parameters give epsilon < 0, so the larger root exceeds 1
    assert side_coefficients(0.1, DEFAULT_PARAMS)[0].tau > 1.0


def test_gamma_equals_one_plus_two_sigma_exactly():
    sc, _ = side_coefficients(0.7, DEFAULT_PARAMS)
    assert sc.gamma - 1.0 == 2.0 * sc.sigma


def test_alpha_beta_sum_and_product():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = draw_barrier_params(rng)
        _, sc = side_coefficients(0.9, p)
        st = sc.sigma + sc.tau
        assert sc.alpha + sc.beta == pytest.approx(2 * st, rel=1e-12)
        assert sc.alpha * sc.beta == pytest.approx(st * st + sc.chi1, rel=1e-12)


@pytest.mark.parametrize("q, q_tilde", [
    (0.8, 0.8), (0.9, 0.55), (0.55, 0.9), (0.999, 0.999), (0.8, math.nextafter(0.8, 0.0)),
], ids=["mirror", "asymmetric", "swapped", "opaque-mirror", "one-ulp-apart"])
def test_right_is_left_exactly_when_q_equals_q_tilde(q, q_tilde):
    # the sides share every field that does not depend on the deformation;
    # tau, chi1, alpha and beta are the right side's own when q != q_tilde
    p = BarrierParams(q=q, q_tilde=q_tilde)
    left, right = side_coefficients(np.geomspace(1e-3, 5.0, 4), p)
    assert (right is left) == (q == q_tilde)
    for field in ("E", "k", "chi3", "sigma", "gamma"):
        assert getattr(right, field) is getattr(left, field)
    if q != q_tilde:
        assert right.tau != left.tau
        assert not np.any(right.chi1 == left.chi1)


def test_deformation_per_side():
    # q_tilde shapes the region x >= 0 only
    p, other = BarrierParams(q=0.8, q_tilde=0.6), BarrierParams(q=0.8, q_tilde=0.3)
    xs = np.linspace(0.25, 5.0, 20)
    assert np.array_equal(potential(-xs, p), potential(-xs, other))
    assert not np.any(potential(xs, p) == potential(xs, other))
    assert side_coefficients(0.05, p)[0].tau == side_coefficients(0.05, other)[0].tau
    assert side_coefficients(0.05, p)[1].tau != side_coefficients(0.05, other)[1].tau


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
    # exp(a x_e) overflows, and at a = 400 V(0) does
    dict(a=800.0, x_e=1.0),
    dict(a=400.0, x_e=1.0),
    # (a q)^2 underflows to 0, and at 1e-160 the well term overflows
    dict(q=1e-200, q_tilde=1e-200),
    dict(q_tilde=1e-160),
    # a boolean is not a number, though it is an int
    dict(v0=True),
    dict(a=True),
    dict(x_e=True),
    dict(q=True),
    dict(q_tilde=True),
    dict(m=True),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        BarrierParams(**bad)


@pytest.mark.parametrize("E", [0.0, -0.1, math.nan])
def test_nonpositive_energy_rejected(E):
    with pytest.raises(ValueError):
        side_coefficients(E, DEFAULT_PARAMS)
