import cmath
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.special import loggamma as scipy_loggamma

import dengfan.hyp2f1 as hyp2f1
from dengfan import (DEFAULT_PARAMS, Hyp2F1Error, NoConvergenceError, PoleAtCError,
                     barrier_top, gauss_2f1_lanes, scan, side_coefficients)

from helpers import hyp2f1_bruteforce

# closed-form references (40-digit arithmetic)
LN2_TIMES_2 = 1.3862943611198906      # -ln(1-z)/z at z = 0.5
INV_0p49 = 2.0408163265306123         # 0.7^-2
DERIV_AT_HALF = 1.2274112777602188    # d/dz[-ln(1-z)/z] at z = 0.5
LNGAMMA_HALF = 0.5723649429247001     # ln sqrt(pi)
LNGAMMA_1_PLUS_I = -0.6509231993018563 - 0.3016403204675332j


def one_lane(a, b, c, z):
    """(F, dF/dz) of a batch of one lane of ``gauss_2f1_lanes``, whose error
    is raised."""
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    if errors:
        raise errors[0]
    return complex(values[0]), complex(derivs[0])


def f21(a, b, c, z):
    return one_lane(a, b, c, z)[0]


def df21(a, b, c, z):
    return one_lane(a, b, c, z)[1]


def lngamma(z):
    """``_lngamma``, the closed form's log-gamma, of one complex z."""
    return complex(hyp2f1._lngamma(np.array([z], dtype=complex))[0])


def branch_turns(got, want):
    """The turns of 2 pi by which the imaginary parts of the log-gammas
    ``got`` differ from ``want``, once their real parts and their imaginary
    parts mod 2 pi are checked to agree."""
    diff = np.asarray(got) - want
    turns = np.rint(diff.imag / (2 * np.pi))
    assert np.abs(diff.real).max() <= 1e-12
    assert np.abs(diff.imag - 2 * np.pi * turns).max() <= 1e-12
    return turns


def connection_calls(monkeypatch):
    """The lanes (a, b, c) handed to ``_connection`` from now on, one list
    per call."""
    calls, connection = [], hyp2f1._connection

    def recording(a, b, c, *args):
        calls.append(list(zip(a.tolist(), b.tolist(), c.tolist())))
        return connection(a, b, c, *args)

    monkeypatch.setattr(hyp2f1, "_connection", recording)
    return calls


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
# the path rule against the 40-digit series
# ---------------------------------------------------------------------------

def test_paths_agree_on_production_parameters(monkeypatch):
    # every hypergeometric parameter set the matching step uses, across the
    # reference energy grid; both paths are well conditioned here, and the
    # connection formula is tried on each
    rel_tol = 2e-15
    calls = connection_calls(monkeypatch)
    sc, _ = side_coefficients(np.arange(0.005, 0.1001, 0.005), DEFAULT_PARAMS)
    for al, be, ga in zip(sc.alpha, sc.beta, sc.gamma):
        families = [
            (al, be, ga),
            (al + 1 - ga, be + 1 - ga, 2 - ga),
            (al + 2 - ga, be + 2 - ga, 3 - ga),
            (al + 1, be + 1, ga + 1),
        ]
        for a, b, c in families:
            ref = hyp2f1_bruteforce(a, b, c, 0.8)
            assert abs(f21(a, b, c, 0.8) - ref) <= 10 * rel_tol * abs(ref)
    assert len(calls) == 4 * 20


def test_paths_agree_on_random_draws():
    # rel_tol sits above the double-precision rounding floor either path
    # carries on adversarial draws (term growth at |z| near 1)
    rng = np.random.default_rng(10)
    rel_tol = 3e-13
    for _ in range(60):
        a, b, c = _draw_abc(rng)
        z = rng.uniform(0.7, 0.95)
        ref = hyp2f1_bruteforce(a, b, c, z)
        assert abs(f21(a, b, c, z) - ref) <= 10 * rel_tol * max(abs(ref), 1e-30)


def test_connection_fallback_matches_series(monkeypatch):
    # degenerate c - a - b = 1: the lane takes the series without trying the
    # connection formula; F(1, 1; 3; z) = 2 ((1-z) log(1-z) + z) / z^2
    calls = connection_calls(monkeypatch)
    z = 0.8
    expect = 2.0 * ((1.0 - z) * math.log(1.0 - z) + z) / z**2
    assert f21(1.0, 1.0, 3.0, z) == pytest.approx(expect, rel=1e-14)
    assert calls == []


def test_against_bruteforce_reference(monkeypatch):
    rng = np.random.default_rng(20)
    for _ in range(20):
        a, b, c = _draw_abc(rng)
        z = rng.uniform(0.1, 0.9)
        got = f21(a, b, c, z)
        ref = hyp2f1_bruteforce(a, b, c, z)
        assert got == pytest.approx(ref, rel=5e-13)
    # c - b = -1 exactly: the connection's 1/Gamma(c - b) is a pole of
    # _lngamma, +inf, so that term is 0.  F and F' come out 1.9e-15 and
    # 1.7e-15 off
    calls = connection_calls(monkeypatch)
    a, b, c, z = 0.25, 2.5, 1.5, 0.85
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors and calls
    ref = hyp2f1_bruteforce(a, b, c, z)
    dref = a * b / c * hyp2f1_bruteforce(a + 1, b + 1, c + 1, z)
    assert abs(values[0] - ref) <= 1e-13 * abs(ref)
    assert abs(derivs[0] - dref) <= 1e-13 * abs(dref)


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
    assert lngamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert lngamma(0.5) == pytest.approx(LNGAMMA_HALF, rel=1e-14)
    assert lngamma(1 + 1j) == pytest.approx(LNGAMMA_1_PLUS_I, abs=1e-14)


def test_lngamma_matches_scipy_branch():
    rng = np.random.default_rng(22)
    checked = 0
    while checked < 300:
        z = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        if z.real < 0.5 and abs(z.imag) < 0.05:
            continue  # hugging the branch cut
        assert abs(lngamma(z) - complex(scipy_loggamma(z))) <= 1e-12
        checked += 1
    # on the negative real axis, either side of it (Im z = 0 or -0), scipy
    # takes the limit from above or below and _lngamma another branch: the
    # real parts agree, and the imaginary parts mod 2 pi
    axis = np.array([-0.3, -1.5, -2.5, -5.509])
    for z in (axis + 0j, np.conjugate(axis + 0j)):
        branch_turns(hyp2f1._lngamma(z), scipy_loggamma(z))


def test_lngamma_recurrence():
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
        if abs(z.imag) < 0.05:
            continue
        ratio = cmath.exp(lngamma(z + 1) - lngamma(z))
        assert ratio == pytest.approx(z, rel=1e-12)


def test_lngamma_fig4_chunk_equals_one_argument_calls(monkeypatch):
    # one fig4 chunk's log-gammas in one call, summed row by row: c - a,
    # c - b, a, b and c of each of its 256 connection attempts, s and -s of
    # each distinct s (by bit pattern)
    calls, lngamma, connection, ss = [], hyp2f1._lngamma, hyp2f1._connection, []

    def recording(z):
        calls.append(z.copy())
        return lngamma(z)

    def recording_s(a, b, c, s, *args):
        ss.append(s.copy())
        return connection(a, b, c, s, *args)

    monkeypatch.setattr(hyp2f1, "_lngamma", recording)
    monkeypatch.setattr(hyp2f1, "_connection", recording_s)
    params = replace(DEFAULT_PARAMS, v0=1.25)
    v = barrier_top(params)
    scan(np.geomspace(1e-6 * v, 0.5 * v, 2000)[:256], params)
    (z,), (s,) = calls, ss
    distinct = {x.tobytes() for x in s}
    assert s.size == 256 and len(distinct) < 256
    assert z.size == 5 * 256 + 2 * len(distinct)
    assert {x.tobytes() for x in z[5 * 256:]} == distinct | {x.tobytes() for x in -s}
    out = lngamma(z)
    assert out.tobytes() == np.concatenate([lngamma(z[i:i + 1]) for i in range(z.size)]).tobytes()
    # the row of s = c - a - b lies on the negative real axis, where scipy
    # takes another branch: there the imaginary parts differ by 6 pi
    turns = branch_turns(out, scipy_loggamma(z))
    assert not turns[z.imag != 0].any() and turns.any()


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
    # c - a - b = 0 sends the lane to the series, whose terms z^n / (n + 1)
    # at z = 0.999 need about 40,000 terms to meet the stopping rule
    _, _, errors = gauss_2f1_lanes(1, 1, 2, 0.999)
    assert isinstance(errors[0], NoConvergenceError)
    assert "did not converge in 20000 terms" in str(errors[0])
    with pytest.raises(NoConvergenceError):
        f21(1, 1, 2, 0.999)


# a q -> 1 lane whose 1-z connection estimate (6.6e-14, its floor 5.8e-14)
# misses the gate, so that it skips the attempt until its series at z =
# 0.99873, which needs about 33,000 terms, has failed
NEAR_ONE_LANE = (1.0047843945774284 + 0.00700419825355425j,
                 1.0047843945774284 + 68.64407222877412j,
                 1 + 68.65107642702768j, 0.9987341064168742)


def test_rejected_connection_kept_when_series_fails_too(monkeypatch):
    a, b, c, z = NEAR_ONE_LANE
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert not errors
    with mp.workdps(30):
        want = complex(mp.hyp2f1(a, b, c, z))
        want_deriv = complex(mp.diff(lambda t: mp.hyp2f1(a, b, c, t), z))
    assert abs(values[0] - want) <= 1e-12 * abs(want)
    assert abs(derivs[0] - want_deriv) <= 1e-12 * abs(want_deriv)
    # without the looser gate the lane fails as the series does
    monkeypatch.setattr(hyp2f1, "_FALLBACK_GATE", hyp2f1._CONNECTION_GATE)
    _, _, errors = gauss_2f1_lanes(a, b, c, z)
    assert "series did not converge in 20000 terms" in str(errors[0])


def test_series_failure_beside_a_connection_attempt_fails_alone():
    # lane 0 tries the 1-z connection formula; lane 1 (c - a - b = 0) takes
    # the series from the start, summed in the same call as the attempt's
    # two series, and runs out of terms
    sc, _ = side_coefficients(0.05, DEFAULT_PARAMS)
    a, b, c = sc.alpha[0], sc.beta[0], sc.gamma[0]
    values, derivs, errors = gauss_2f1_lanes([a, 1], [b, 1], [c, 2], [0.8, 0.999])
    assert list(errors) == [1] and isinstance(errors[1], NoConvergenceError)
    assert "series did not converge in 20000 terms" in str(errors[1])
    alone, alone_deriv, _ = gauss_2f1_lanes(a, b, c, 0.8)
    assert (values[0], derivs[0]) == (alone[0], alone_deriv[0])


def test_non_finite_lane_fails_alone():
    # a nan or inf parameter fails its own lane with a typed error that names
    # the lane, and no RuntimeWarning escapes (Tier-1 makes it an error)
    _, _, errors = gauss_2f1_lanes(1, 1, 2, math.nan)
    assert list(errors) == [0] and type(errors[0]) is Hyp2F1Error
    assert "z=(nan+0j)" in str(errors[0])
    a = np.array([0.5, math.nan, 0.5, 1.5, 0.5])
    c = np.array([2.5, 2.5, complex(2.5, math.inf), 2.5, 2.5])
    z = np.array([0.3, 0.3, 0.3, 0.8, math.inf])
    b = np.full(5, 1.5)
    values, derivs, errors = gauss_2f1_lanes(a, b, c, z)
    assert sorted(errors) == [1, 2, 4]
    assert all(type(exc) is Hyp2F1Error and "not finite" in str(exc) for exc in errors.values())
    assert "a=(nan+0j)" in str(errors[1]) and "z=(inf+0j)" in str(errors[4])
    assert np.isnan(values[[1, 2, 4]]).all() and np.isnan(derivs[[1, 2, 4]]).all()
    for i in (0, 3):
        alone = gauss_2f1_lanes(a[i], b[i], c[i], z[i])
        assert (values[i], derivs[i]) == (alone[0][0], alone[1][0])


def test_failed_connection_attempt_names_the_lane():
    # the lane's series fails, and then the attempt's series F(c-a, c-b;
    # 1+s; 1-z) overflows, whose error the lane keeps: it names the
    # requested lane, not that internal series (c = 1 - s, z = 1 - z)
    _, _, errors = gauss_2f1_lanes([2384.953221128557 + 0.125j], [-10777.136615123705 + 0.125j],
                                   [1 + 0.25j], [0.8])
    assert isinstance(errors[0], NoConvergenceError)
    message = str(errors[0])
    assert "a=(2384.953221128557+0.125j), b=(-10777.136615123705+0.125j)" in message
    assert "c=(1+0.25j), z=(0.8+0j)" in message


@pytest.mark.parametrize("z", [1.5, -1.0, 2j, 1.0])
def test_argument_outside_unit_disk_rejected(z):
    with pytest.raises(ValueError):
        f21(1, 1, 2.5, z)


def test_polynomial_termination():
    # negative-integer a truncates the series; exact polynomial expected
    z = 0.37
    got = f21(-3, 2, 1.5, z)
    # sum_{n=0}^{3} (-3)_n (2)_n / ((1.5)_n n!) z^n
    expect = (1 - 3 * 2 / 1.5 * z + 3 * (2 * 3) / (1.5 * 2.5) * z**2 / 1
              - 1 * (2 * 3 * 4) / (1.5 * 2.5 * 3.5) * z**3)
    assert got == pytest.approx(expect, rel=1e-13)
