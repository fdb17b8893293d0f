import math

import numpy as np
import pytest

import dengfan.scatter as scatter
from dengfan import (BarrierParams, DEFAULT_PARAMS, Hyp2F1Error, NoConvergenceError,
                     TABLE1, barrier_top, compute_rt, match_coefficients, scan,
                     side_coefficients, solve_amplitudes)

from helpers import draw_barrier_params, hyp2f1_bruteforce, reference_transmission

# corrected-matching values at the table edges (40-digit reference run)
T_AT_0p005 = 0.0992153077497754
R_AT_0p005 = 0.9007846922502246


def test_rho_values_for_default_params():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    assert (mc.rho1, mc.rho3) == (0.8, 0.8)
    mc = match_coefficients(0.05, BarrierParams(q=0.9, q_tilde=0.55))
    assert (mc.rho1, mc.rho3) == (0.9, 0.55)


def test_symmetric_barrier_collapses_right_onto_left():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    assert mc.c3 == mc.c2
    assert mc.c6 == mc.c5


# parameter sets for the 2F1 factors, symmetric and asymmetric
_BASES = [DEFAULT_PARAMS, BarrierParams(q=0.9, q_tilde=0.55)]


def _families(E, params):
    """Per basis function r = 1..3 at one energy (a lane of one): the 2F1
    parameters (a, b, c) and y, the basis factor y^{s sigma} (1-y)^tau and
    the coefficient s sigma/y - tau/(1-y) of its y-derivative, where s is
    the sign of sigma = ik/a in the function."""
    left, right = side_coefficients(E, params)
    al, bl, gl = left.alpha[0], left.beta[0], left.gamma[0]
    ar, br, gr = right.alpha[0], right.beta[0], right.gamma[0]
    sigma = 1j * math.sqrt(2.0 * params.m * E) / params.a
    out = {}
    for r, (a, b, c, y, s, tau) in {
            1: (al, bl, gl, params.q, 1.0, left.tau),
            2: (al + 1 - gl, bl + 1 - gl, 2 - gl, params.q, -1.0, left.tau),
            3: (ar + 1 - gr, br + 1 - gr, 2 - gr, params.q_tilde, -1.0, right.tau)}.items():
        basis = complex(y) ** (s * sigma) * (1.0 - y) ** tau
        out[r] = (a, b, c, y, basis, s * sigma / y - tau / (1.0 - y))
    return out


def test_zetas_against_bruteforce_series():
    # c1..c3 at E = 0.05: the basis factor times the 40-digit term-by-term
    # summation of the function's 2F1 factor
    for params in _BASES:
        mc = match_coefficients(0.05, params)
        for r, (a, b, c, y, basis, _) in _families(0.05, params).items():
            ref = basis * hyp2f1_bruteforce(a, b, c, y)
            assert abs(getattr(mc, f"c{r}")[0] - ref) <= 1e-13 * abs(ref), r


def test_lambda_prefactors():
    # c4..c6, the y-derivatives of c1..c3: the basis factor times
    # coef*F + F', with F' = (a b / c) F(a+1, b+1; c+1; y) (DLMF 15.5.1)
    for params in _BASES:
        mc = match_coefficients(0.05, params)
        for r, (a, b, c, y, basis, coef) in _families(0.05, params).items():
            terms = (coef * hyp2f1_bruteforce(a, b, c, y),
                     a * b / c * hyp2f1_bruteforce(a + 1, b + 1, c + 1, y))
            ref, scale = basis * sum(terms), abs(basis) * sum(map(abs, terms))
            assert abs(getattr(mc, f"c{r + 3}")[0] - ref) <= 1e-13 * scale, r


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, BarrierParams(q=0.9, q_tilde=0.55)],
                         ids=["symmetric", "asymmetric"])
def test_left_minus_sigma_row_is_the_conjugate(params):
    energies = np.geomspace(1e-3, 5.0, 9)
    for E in (energies, 0.05):
        mc = match_coefficients(E, params)
        for name, of in (("c2", "c1"), ("c5", "c4")):
            assert np.array_equal(getattr(mc, name), np.conj(getattr(mc, of))), name


def test_one_lane_per_energy_and_evaluated_side(monkeypatch):
    # one gauss_2f1_lanes call per match: n lanes for n energies when the
    # sides mirror (q == q_tilde), 2n when they do not
    sizes = []
    lanes = scatter.gauss_2f1_lanes

    def counting(a, *args, **kwargs):
        sizes.append(np.size(a))
        return lanes(a, *args, **kwargs)

    monkeypatch.setattr(scatter, "gauss_2f1_lanes", counting)
    energies = np.geomspace(1e-3, 5.0, 7)
    for params in _BASES:
        mirror = params.q == params.q_tilde
        for E, n in ((energies, 7), (0.05, 1)):
            sizes.clear()
            match_coefficients(E, params)
            assert sizes == [n if mirror else 2 * n]


def test_corrected_mode_reference_point():
    res = compute_rt(0.005, DEFAULT_PARAMS)
    assert res.T == pytest.approx(T_AT_0p005, abs=1e-12)
    assert res.R == pytest.approx(R_AT_0p005, abs=1e-12)
    assert res.unitarity_residual <= 1e-12


# opaque barriers (q -> 1) and the E -> 0 edge, where the computed numerator
# of t cancels; T runs from 1.9e-17 to 1.1e-6
@pytest.mark.parametrize("q, q_tilde, E", [
    (0.99, 0.99, 0.05), (0.999, 0.999, 0.05), (0.999, 0.999, 0.5),
    (0.99, 0.5, 0.05), (0.8, 0.8, 1e-12), (0.9, 0.55, 1e-12),
])
def test_tiny_transmission_against_reference(q, q_tilde, E):
    params = BarrierParams(q=q, q_tilde=q_tilde)
    T = float(compute_rt(E, params).T)
    assert T == pytest.approx(reference_transmission(E, params), rel=1e-12, abs=0)


# q -> 1 energies where a 2F1 lane's connection estimate misses its gate and
# its series runs out of terms: the connection values are kept (T from 0.995
# down to 2e-70)
@pytest.mark.parametrize("params, E", [
    (BarrierParams(v0=2.3845673699043797, a=0.5360454862660171, x_e=0.0349431808690953,
                   q=0.9987341064168742, q_tilde=0.9987341064168742, m=0.7099020094002861),
     238.45673699043797),
    (BarrierParams(v0=2.121331511221271, a=1.590953937249249, x_e=1.1536542403992116,
                   q=0.9984800358107725, q_tilde=0.9975344792952551, m=1.4626023020800538),
     212.13315112212712),
])
def test_near_one_connection_fallback_against_reference(params, E):
    T = float(compute_rt(E, params).T)
    assert T == pytest.approx(reference_transmission(E, params), rel=1e-11, abs=0)


def test_printed_derivative_row_singular_for_symmetric_barrier():
    # the derivative row as the closed form is widely printed equates
    # dpsi/dy, c4 + r*c5 - t*c6 = 0; with the value row its determinant is
    # c3*c5 - c2*c6, and q == q_tilde makes c3 == c2 and c6 == c5
    mc = match_coefficients([E for E, _, _ in TABLE1], DEFAULT_PARAMS)
    assert not mc.errors
    assert np.all(mc.c3 * mc.c5 - mc.c2 * mc.c6 == 0)


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, BarrierParams(q=0.9, q_tilde=0.55),
                                    BarrierParams(q=0.999, q_tilde=0.999)],
                         ids=["default", "asymmetric", "q-0.999"])
def test_matching_determinant_is_bounded_below(params):
    # |det| = 2|sigma|/|t| >= 2|sigma| (the Wronskian of the left basis
    # pair), so the dpsi/dx system is never singular at E > 0; the first
    # energy is the smallest positive double
    energies = np.append(5e-324, np.geomspace(1e-6, 100.0, 60))
    mc = match_coefficients(energies, params)
    assert not mc.errors
    det = mc.c2 * mc.rho3 * mc.c6 + mc.c3 * mc.rho1 * mc.c5
    assert np.all(np.abs(det) >= 2.0 * np.abs(mc.sigma) * (1.0 - 1e-9))
    assert abs(det[0]) > 1e-3


def test_asymmetric_barrier_conserves_flux_in_corrected_mode():
    rng = np.random.default_rng(31)
    for _ in range(15):
        p = draw_barrier_params(rng, symmetric=False)
        E = float(rng.uniform(0.01, 3.0))
        res = compute_rt(E, p)
        assert res.unitarity_residual <= 1e-9


def test_free_particle_transmits_fully():
    p = BarrierParams(v0=0.0)
    res = compute_rt(0.05, p)
    assert res.T == pytest.approx(1.0, abs=1e-12)
    assert res.R <= 1e-12


def test_transmission_grows_as_barrier_shrinks():
    # T -> 1 monotonically once v0 is small enough
    previous = 0.0
    for v0 in (1.25, 0.6, 0.3, 0.15, 0.05, 0.01):
        res = compute_rt(0.05, BarrierParams(v0=v0))
        assert res.T > previous
        previous = res.T
    assert previous > 0.99


def test_unitarity_over_energy_sweep():
    v_max = barrier_top(DEFAULT_PARAMS)
    for E in np.geomspace(1e-3 * v_max, 5 * v_max, 25):
        res = compute_rt(float(E), DEFAULT_PARAMS)
        assert res.unitarity_residual <= 1e-9
        assert 0.0 <= res.R <= 1.0
        assert 0.0 <= res.T <= 1.0


def test_left_right_swap_for_symmetric_barrier():
    p = BarrierParams(q=0.7, q_tilde=0.7)
    swapped = BarrierParams(q=0.7, q_tilde=0.7)  # swap is the identity here
    a = compute_rt(0.3, p)
    b = compute_rt(0.3, swapped)
    assert a.R == b.R and a.T == b.T


def test_scan_matches_pointwise_solve():
    energies = [0.01, 0.05, 0.25]
    res = scan(energies, DEFAULT_PARAMS)
    assert res.E.tolist() == energies
    assert not res.errors
    for i, E in enumerate(energies):
        direct = compute_rt(E, DEFAULT_PARAMS)
        assert res.T[i] == direct.T
        assert res.R[i] == direct.R
        assert res.t_amp[i] == direct.t_amp


def test_scan_single_point():
    res = scan([0.05], DEFAULT_PARAMS)
    assert res.T.shape == (1,)
    assert res.T[0] == compute_rt(0.05, DEFAULT_PARAMS).T


def test_one_energy_is_a_lane_of_one():
    # a scalar E gives lanes of one in every layer; compute_rt unwraps lane 0
    sc, _ = side_coefficients(0.05, DEFAULT_PARAMS)
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    res = solve_amplitudes(mc)
    for value in (sc.E, sc.k, sc.sigma, sc.alpha, sc.beta, sc.gamma, mc.E, mc.c1,
                  mc.c3, mc.c4, mc.c6, res.E, res.r_amp, res.t_amp, res.R, res.T):
        assert isinstance(value, np.ndarray) and value.shape == (1,)
    one = compute_rt(0.05, DEFAULT_PARAMS)
    assert np.ndim(one.T) == 0 and not one.errors
    assert (one.E, one.r_amp, one.t_amp, one.R, one.T, one.unitarity_residual) == (
        res.E[0], res.r_amp[0], res.t_amp[0], res.R[0], res.T[0], res.unitarity_residual[0])


def test_energy_past_float_range_fails_alone():
    # E = 1e308 overflows chi3 and k: its 2F1 parameters are not finite, so
    # the energy fails with a typed error and no RuntimeWarning escapes
    with pytest.raises(Hyp2F1Error, match="not finite"):
        compute_rt(1e308, DEFAULT_PARAMS)
    for params in (DEFAULT_PARAMS, BarrierParams(q=0.9, q_tilde=0.55)):
        res = scan([0.05, 1e308], params)
        assert list(res.errors) == [1] and "not finite" in str(res.errors[1])
        alone = compute_rt(0.05, params)
        assert (res.T[0], res.R[0], res.t_amp[0]) == (alone.T, alone.R, alone.t_amp)
        assert np.isnan(res.T[1])


def test_scan_records_errors_inline():
    # past E/V_max = 4.01e4 a 2F1 series overflows
    v = barrier_top(DEFAULT_PARAMS)
    res = scan([1e5 * v, 2e5 * v], DEFAULT_PARAMS)
    assert sorted(res.errors) == [0, 1]
    assert all(isinstance(exc, NoConvergenceError) for exc in res.errors.values())
    for name in ("r_amp", "t_amp", "R", "T", "unitarity_residual"):
        assert np.isnan(getattr(res, name)).all(), name


# the fifth grid is empty, and the last two are not 1-D
@pytest.mark.parametrize("grid", [[0.05, 0.05], [0.1, 0.05], [0.0, 0.1], [-1.0, 0.1], [],
                                  [[0.01], [0.02]], [[0.01, 0.02]]])
def test_scan_rejects_bad_grids(grid):
    # a grid that is not 1-D is named so, not left to numpy's broadcasting
    with pytest.raises(ValueError, match="1-D" if np.ndim(grid) > 1 else None):
        scan(grid, DEFAULT_PARAMS)


@pytest.mark.parametrize("layer", [side_coefficients, match_coefficients],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("grid", [[[0.01], [0.02]], [[0.01, 0.02]], []],
                         ids=["column", "row", "empty"])
def test_lane_layers_reject_bad_grids(layer, grid):
    # a lane is one energy or a non-empty 1-D array, checked where scan's
    # grid is: not left to numpy's broadcasting or returned as a 2-D record
    with pytest.raises(ValueError, match="1-D"):
        layer(grid, DEFAULT_PARAMS)


@pytest.mark.parametrize("E", [[0.05], np.array([0.02, 0.01])], ids=["list", "unsorted"])
def test_compute_rt_takes_one_energy(E):
    # a grid goes to scan, which checks it
    with pytest.raises(ValueError, match="one energy"):
        compute_rt(E, DEFAULT_PARAMS)


def test_amplitudes_reconstruct_rt():
    res = compute_rt(0.07, DEFAULT_PARAMS)
    assert abs(res.r_amp) ** 2 == pytest.approx(res.R, rel=1e-14)
    assert abs(res.t_amp) ** 2 == pytest.approx(res.T, rel=1e-14)


@pytest.mark.parametrize("E", [0.05, 1.0, 50.0])
def test_connection_overflow_raises_typed_error(E):
    # a = 20 drives a gamma ratio of the 1-z connection past float range;
    # the attempt is rejected and the series fails with a typed error
    with pytest.raises(Hyp2F1Error):
        compute_rt(E, BarrierParams(a=20.0))
