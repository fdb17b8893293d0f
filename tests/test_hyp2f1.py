import cmath
import math

import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

from dengfan import (ConnectionDegenerateError, GammaPoleError, Hyp2F1Request,
                     DEFAULT_PARAMS, NoConvergenceError, PoleAtCError,
                     gauss_2f1, gauss_2f1_connection, gauss_2f1_lanes,
                     gauss_2f1_series, lngamma_complex, side_coefficients)

from helpers import hyp2f1_bruteforce

# closed-form references (40-digit arithmetic)
LN2_TIMES_2 = 1.3862943611198906      # -ln(1-z)/z at z = 0.5
INV_0p49 = 2.0408163265306123         # 0.7^-2
DERIV_AT_HALF = 1.2274112777602188    # d/dz[-ln(1-z)/z] at z = 0.5
LNGAMMA_HALF = 0.5723649429247001     # ln sqrt(pi)
LNGAMMA_1_PLUS_I = -0.6509231993018563 - 0.3016403204675332j


def f21(a, b, c, z, **kw):
    return gauss_2f1(Hyp2F1Request(a=a, b=b, c=c, z=z, **kw))


def df21(a, b, c, z):
    """dF/dz as ``gauss_2f1_lanes`` returns it beside F, for one lane."""
    _, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    if errors:
        raise errors[0]
    return complex(derivs[0])


def _draw_abc(rng, c_floor=0.3):
    a = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
    b = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
    while True:
        c = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
        if abs(c - round(c.real)) >= c_floor or c.real > 0.5:
            return a, b, c


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_value_at_origin_is_one():
    assert f21(0.3 + 2j, -1.7, 0.4 - 1j, 0.0) == 1.0 + 0.0j


def test_log_closed_form():
    assert f21(1, 1, 2, 0.5) == pytest.approx(LN2_TIMES_2, rel=1e-14)


def test_binomial_closed_form():
    # F(a, b; b; z) = (1 - z)^(-a)
    assert f21(2, 5, 5, 0.3) == pytest.approx(INV_0p49, rel=1e-14)
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.5, 3), rng.uniform(-2, 2))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        expect = (1 - z) ** (-a)
        assert f21(a, b, b, z) == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_symmetry_bit_identical():
    rng = np.random.default_rng(6)
    for z in (0.3, 0.8):  # series and connection paths
        for _ in range(50):
            a, b, c = _draw_abc(rng)
            assert f21(a, b, c, z) == f21(b, a, c, z)


def test_pfaff_transformation():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = _draw_abc(rng)
        # radius below 0.5 keeps |z/(z-1)| bounded away from 1
        r = rng.uniform(0.05, 0.45)
        phi = rng.uniform(0, 2 * math.pi)
        z = complex(r * math.cos(phi), r * math.sin(phi))
        lhs = f21(a, b, c, z)
        rhs = (1 - z) ** (-a) * f21(a, c - b, c, z / (z - 1))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_euler_transformation():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a, b, c = _draw_abc(rng)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        lhs = f21(a, b, c, z)
        rhs = (1 - z) ** (c - a - b) * f21(c - a, c - b, c, z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_contiguous_relation():
    # c(1-z)F(a,b;c;z) - cF(a-1,b;c;z) + (c-b)zF(a,b;c+1;z) = 0
    rng = np.random.default_rng(9)
    for _ in range(100):
        a, b, c = _draw_abc(rng)
        z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4))
        f0 = f21(a, b, c, z)
        resid = (c * (1 - z) * f0 - c * f21(a - 1, b, c, z)
                 + (c - b) * z * f21(a, b, c + 1, z))
        assert abs(resid) <= 1e-10 * max(1.0, abs(c * f0))


# ---------------------------------------------------------------------------
# series vs connection
# ---------------------------------------------------------------------------

def test_paths_agree_on_production_parameters():
    # every hypergeometric parameter set the matching step uses, across the
    # reference energy grid; both paths are well conditioned here
    rel_tol = 2e-15
    for E in np.arange(0.005, 0.1001, 0.005):
        sc = side_coefficients(float(E), DEFAULT_PARAMS)
        al, be, ga = sc.alpha, sc.beta, sc.gamma
        families = [
            (al, be, ga),
            (al + 1 - ga, be + 1 - ga, 2 - ga),
            (al + 2 - ga, be + 2 - ga, 3 - ga),
            (al + 1, be + 1, ga + 1),
        ]
        for a, b, c in families:
            req = Hyp2F1Request(a=a, b=b, c=c, z=0.8, rel_tol=rel_tol)
            ser = gauss_2f1_series(req)
            conn = gauss_2f1_connection(req)
            assert abs(ser - conn) <= 10 * rel_tol * abs(ser)


def test_paths_agree_on_random_draws():
    # rel_tol sits above the double-precision rounding floor both paths
    # carry on adversarial draws (term growth at |z| near 1)
    rng = np.random.default_rng(10)
    rel_tol = 3e-13
    checked = 0
    while checked < 60:
        a, b, c = _draw_abc(rng)
        z = rng.uniform(0.7, 0.95)
        req = Hyp2F1Request(a=a, b=b, c=c, z=z, rel_tol=rel_tol)
        try:
            conn = gauss_2f1_connection(req)
        except ConnectionDegenerateError:
            continue
        ser = gauss_2f1_series(req)
        assert abs(ser - conn) <= 10 * rel_tol * max(abs(ser), 1e-30)
        checked += 1


def test_connection_fallback_matches_series():
    # degenerate c - a - b: the automatic path must fall back to the series
    req = Hyp2F1Request(a=1.0, b=1.0, c=3.0, z=0.8)
    with pytest.raises(ConnectionDegenerateError):
        gauss_2f1_connection(req)
    assert gauss_2f1(req) == gauss_2f1_series(req)


def test_against_bruteforce_reference():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a, b, c = _draw_abc(rng)
        z = rng.uniform(0.1, 0.9)
        got = f21(a, b, c, z)
        ref = hyp2f1_bruteforce(a, b, c, z)
        assert got == pytest.approx(ref, rel=5e-13)


# ---------------------------------------------------------------------------
# derivative, returned beside F by the same pass
# ---------------------------------------------------------------------------

def test_derivative_at_origin():
    a, b, c = 0.7 + 0.2j, -1.1, 2.3 - 0.4j
    assert df21(a, b, c, 0.0) == pytest.approx(a * b / c, rel=1e-14)


def test_derivative_log_case():
    assert df21(1, 1, 2, 0.5) == pytest.approx(DERIV_AT_HALF, rel=1e-13)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(21)
    h = 1e-6
    for _ in range(40):
        a, b, c = _draw_abc(rng)
        z = complex(rng.uniform(-0.45, 0.45), rng.uniform(-0.3, 0.3))
        fd = (f21(a, b, c, z + h) - f21(a, b, c, z - h)) / (2 * h)
        assert abs(df21(a, b, c, z) - fd) <= 1e-8


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

def test_lngamma_frozen_values():
    assert lngamma_complex(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lngamma_complex(0.5) == pytest.approx(LNGAMMA_HALF, rel=1e-14)
    assert lngamma_complex(1 + 1j) == pytest.approx(LNGAMMA_1_PLUS_I, abs=1e-14)


def test_lngamma_matches_scipy_branch():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 300:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if z.real < 0.5 and abs(z.imag) < 0.05:
            continue  # hugging the branch cut
        assert abs(lngamma_complex(z) - complex(scipy_loggamma(z))) <= 1e-12
        checked += 1


def test_lngamma_recurrence():
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(z.imag) < 0.05:
            continue
        ratio = cmath.exp(lngamma_complex(z + 1) - lngamma_complex(z))
        assert ratio == pytest.approx(z, rel=1e-12)


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0])
def test_lngamma_poles(z):
    with pytest.raises(GammaPoleError):
        lngamma_complex(z)


# ---------------------------------------------------------------------------
# errors / validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.0, -2.0, -13.0])
def test_pole_at_c(c):
    with pytest.raises(PoleAtCError):
        f21(0.5, 1.5, c, 0.3)
    with pytest.raises(PoleAtCError):
        df21(0.5, 1.5, c, 0.3)


def test_no_convergence_when_terms_exhausted():
    with pytest.raises(NoConvergenceError):
        gauss_2f1_series(Hyp2F1Request(a=1, b=1, c=2, z=0.999, max_terms=50))
    # the automatic path hits the same wall once the degenerate connection
    # falls back to the series
    with pytest.raises(NoConvergenceError):
        f21(1, 1, 2, 0.999, max_terms=50)


@pytest.mark.parametrize("z", [1.5, -1.0, 2j, 1.0])
def test_argument_outside_unit_disk_rejected(z):
    with pytest.raises(ValueError):
        f21(1, 1, 2.5, z)


def test_request_validation():
    with pytest.raises(ValueError):
        Hyp2F1Request(a=math.nan, b=1, c=2, z=0.1)
    with pytest.raises(ValueError):
        Hyp2F1Request(a=1, b=complex(1, math.inf), c=2, z=0.1)
    with pytest.raises(ValueError):
        Hyp2F1Request(a=1, b=1, c=2, z=0.1, rel_tol=0.0)
    with pytest.raises(ValueError):
        Hyp2F1Request(a=1, b=1, c=2, z=0.1, max_terms=0)


def test_polynomial_termination():
    # negative-integer a truncates the series; exact polynomial expected
    z = 0.37
    got = f21(-3, 2, 1.5, z)
    # sum_{n=0}^{3} (-3)_n (2)_n / ((1.5)_n n!) z^n
    expect = (1 - 3 * 2 / 1.5 * z + 3 * (2 * 3) / (1.5 * 2.5) * z**2 / 1
              - 1 * (2 * 3 * 4) / (1.5 * 2.5 * 3.5) * z**3)
    assert got == pytest.approx(expect, rel=1e-13)
