import math

import numpy as np
import pytest

import dengfan.scatter as scatter
from dengfan import (BarrierParams, DEFAULT_PARAMS, Hyp2F1Error,
                     SingularMatchingError, barrier_top, compute_rt,
                     match_coefficients, scan, side_coefficients,
                     solve_amplitudes)

from helpers import draw_barrier_params, hyp2f1_bruteforce

# corrected-matching values at the table edges (40-digit reference run)
T_AT_0p005 = 0.0992153077497754
R_AT_0p005 = 0.9007846922502246


def test_rho_values_for_default_params():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    assert (mc.rho1, mc.rho3) == (0.8, 0.8)
    assert mc.rho2 == 1.0 - 0.8 == pytest.approx(0.2, abs=1e-15)
    assert mc.rho4 == 1.0 - 0.8
    assert all(0.0 < r < 1.0 for r in (mc.rho1, mc.rho2, mc.rho3, mc.rho4))


def test_symmetric_barrier_collapses_right_onto_left():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    assert mc.zeta3 == mc.zeta2
    assert mc.dzeta3 == mc.dzeta2
    assert mc.c3 == mc.c2
    assert mc.c6 == mc.c5


# parameter sets and branches for the 2F1 factors, symmetric and asymmetric
_BASES = [(DEFAULT_PARAMS, "plus", "plus"), (DEFAULT_PARAMS, "minus", "minus"),
          (BarrierParams(q=0.9, q_tilde=0.55), "plus", "minus")]


def _families(E, params, tau_branch, sqrt_branch):
    """(a, b, c, y) of zeta1..zeta3 from the side coefficients."""
    left = side_coefficients(E, params, "left", tau_branch, sqrt_branch)
    right = side_coefficients(E, params, "right", tau_branch, sqrt_branch)
    al, bl, gl = left.alpha, left.beta, left.gamma
    ar, br, gr = right.alpha, right.beta, right.gamma
    return {1: (al, bl, gl, params.q),
            2: (al + 1 - gl, bl + 1 - gl, 2 - gl, params.q),
            3: (ar + 1 - gr, br + 1 - gr, 2 - gr, params.q_tilde)}


def test_zetas_against_bruteforce_series():
    # every zeta at E = 0.05 versus the 40-digit term-by-term summation
    for params, tau_branch, sqrt_branch in _BASES:
        mc = match_coefficients(0.05, params, tau_branch, sqrt_branch)
        for r, (a, b, c, z) in _families(0.05, params, tau_branch, sqrt_branch).items():
            ref = hyp2f1_bruteforce(a, b, c, z)
            assert abs(getattr(mc, f"zeta{r}") - ref) <= 1e-13 * abs(ref), r


def test_lambda_prefactors():
    # dzeta_r = dF/dy = (a b / c) F(a+1, b+1; c+1; y), DLMF 15.5.1
    for params, tau_branch, sqrt_branch in _BASES:
        mc = match_coefficients(0.05, params, tau_branch, sqrt_branch)
        for r, (a, b, c, z) in _families(0.05, params, tau_branch, sqrt_branch).items():
            ref = a * b / c * hyp2f1_bruteforce(a + 1, b + 1, c + 1, z)
            assert abs(getattr(mc, f"dzeta{r}") - ref) <= 1e-13 * abs(ref), r


@pytest.mark.parametrize("params", [DEFAULT_PARAMS, BarrierParams(q=0.9, q_tilde=0.55)],
                         ids=["symmetric", "asymmetric"])
@pytest.mark.parametrize("tau_branch", ["plus", "minus"])
@pytest.mark.parametrize("sqrt_branch", ["plus", "minus"])
def test_left_minus_sigma_row_is_the_conjugate(params, tau_branch, sqrt_branch):
    energies = np.geomspace(1e-3, 5.0, 9)
    for E in (energies, 0.05):
        mc = match_coefficients(E, params, tau_branch, sqrt_branch)
        for name, of in (("zeta2", "zeta1"), ("dzeta2", "dzeta1"), ("c2", "c1"), ("c5", "c4")):
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
    for params, tau_branch, sqrt_branch in _BASES:
        mirror = params.q == params.q_tilde
        for E, n in ((energies, 7), (0.05, 1)):
            sizes.clear()
            match_coefficients(E, params, tau_branch, sqrt_branch)
            assert sizes == [n if mirror else 2 * n]


def test_corrected_mode_reference_point():
    res = compute_rt(0.005, DEFAULT_PARAMS)
    assert res.T == pytest.approx(T_AT_0p005, abs=1e-12)
    assert res.R == pytest.approx(R_AT_0p005, abs=1e-12)
    assert res.unitarity_residual <= 1e-12
    assert res.mode == "corrected"


def test_paper_mode_singular_for_symmetric_barrier():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    with pytest.raises(SingularMatchingError):
        solve_amplitudes(mc, mode="paper")


def test_paper_mode_breaks_unitarity_on_asymmetric_barrier():
    p = BarrierParams(q=0.8, q_tilde=0.6)
    paper = compute_rt(0.5, p, mode="paper")
    corrected = compute_rt(0.5, p, mode="corrected")
    assert paper.unitarity_residual > 0.5
    assert corrected.unitarity_residual <= 1e-12


def test_asymmetric_barrier_conserves_flux_in_corrected_mode():
    rng = np.random.default_rng(31)
    for _ in range(15):
        p = draw_barrier_params(rng, symmetric=False)
        E = float(rng.uniform(0.01, 3.0))
        res = compute_rt(E, p)
        assert res.unitarity_residual <= 1e-9


def test_tau_branch_invariance():
    base = compute_rt(0.05, DEFAULT_PARAMS, tau_branch="plus")
    flip = compute_rt(0.05, DEFAULT_PARAMS, tau_branch="minus")
    assert abs(base.R - flip.R) <= 1e-10
    assert abs(base.T - flip.T) <= 1e-10


def test_sqrt_branch_invariance():
    base = compute_rt(0.05, DEFAULT_PARAMS, sqrt_branch="plus")
    flip = compute_rt(0.05, DEFAULT_PARAMS, sqrt_branch="minus")
    assert abs(base.R - flip.R) <= 1e-10
    assert abs(base.T - flip.T) <= 1e-10


@pytest.mark.parametrize("branches", [dict(tau_branch=("plus", "minus")),
                                      dict(sqrt_branch=("plus", "minus"))])
def test_basis_choice_is_one_string_for_both_sides(branches):
    with pytest.raises(ValueError, match="must be 'plus' or 'minus'"):
        compute_rt(0.05, DEFAULT_PARAMS, **branches)


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
    assert res.mode == "corrected"
    for i, E in enumerate(energies):
        direct = compute_rt(E, DEFAULT_PARAMS)
        assert res.T[i] == direct.T
        assert res.R[i] == direct.R
        assert res.t_amp[i] == direct.t_amp


def test_scan_single_point():
    res = scan([0.05], DEFAULT_PARAMS)
    assert res.T.shape == (1,)
    assert res.T[0] == compute_rt(0.05, DEFAULT_PARAMS).T


def test_scan_records_errors_inline():
    res = scan([0.01, 0.05], DEFAULT_PARAMS, mode="paper")
    assert sorted(res.errors) == [0, 1]
    assert all(isinstance(exc, SingularMatchingError) for exc in res.errors.values())
    for name in ("r_amp", "t_amp", "R", "T", "unitarity_residual"):
        assert np.isnan(getattr(res, name)).all(), name


# the last grid is empty
@pytest.mark.parametrize("grid", [[0.05, 0.05], [0.1, 0.05], [0.0, 0.1], [-1.0, 0.1], []])
def test_scan_rejects_bad_grids(grid):
    with pytest.raises(ValueError):
        scan(grid, DEFAULT_PARAMS)


def test_solve_rejects_unknown_mode():
    mc = match_coefficients(0.05, DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        solve_amplitudes(mc, mode="literal")


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
