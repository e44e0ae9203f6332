import numpy as np
import pytest

from ramanpulse import (CosineSeriesPulse, EmitterParams, ValidationError,
                        ghz, sin2_pulse)
from ramanpulse import bounds, depletion, optimize
from ramanpulse.optimize import (OptimizationConfig, desk_config, full_config,
                                 objective, optimize_duration, optimize_shape)


def test_objective_equals_worst_case_fidelity(siv_params):
    pl = sin2_pulse(0.44)
    prof = depletion.analytic_profile(siv_params, pl)
    res = bounds.compute_bounds(siv_params, prof)
    assert objective(siv_params, pl) == pytest.approx(res.F_worst, rel=1e-9)


def test_objective_zero_decoherence_is_squared_bound(perfect_params):
    pl = sin2_pulse(1.0)
    prof = depletion.analytic_profile(perfect_params, pl)
    assert objective(perfect_params, pl) == pytest.approx(
        bounds.e_max(prof) ** 2, rel=1e-9)


def test_objective_scale_invariant(siv_params):
    pl = CosineSeriesPulse(0.44, (0.3, -0.05))
    scaled = CosineSeriesPulse(0.44, (3.0, -0.5))
    assert objective(siv_params, pl) == pytest.approx(
        objective(siv_params, scaled), rel=1e-12)


def test_duration_optimum_benchmark(siv_params):
    res = optimize_duration(siv_params)
    assert 0.40 < res.pulse.T < 0.47
    assert res.F_worst == pytest.approx(0.95, abs=5e-3)
    assert res.E_max == pytest.approx(0.988, abs=1.5e-3)


def test_duration_worst_case_decreases_with_Gamma2(siv_params):
    vals = []
    for frac in (0.5, 1.0, 2.0):
        p = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                          gamma_tilde=siv_params.gamma_tilde,
                          Gamma1=siv_params.Gamma1,
                          Gamma2=frac * siv_params.Gamma2)
        vals.append(optimize_duration(p).F_worst)
    assert vals[0] > vals[1] > vals[2]


def test_duration_shrinks_with_decoherence(siv_params):
    slow = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                         gamma_tilde=siv_params.gamma_tilde,
                         Gamma1=0.2 * siv_params.Gamma1,
                         Gamma2=0.2 * siv_params.Gamma2)
    fast = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                         gamma_tilde=siv_params.gamma_tilde,
                         Gamma1=5 * siv_params.Gamma1,
                         Gamma2=5 * siv_params.Gamma2)
    T_slow = optimize_duration(slow).pulse.T
    T_mid = optimize_duration(siv_params).pulse.T
    T_fast = optimize_duration(fast, T_lo=0.03, T_hi=2.0).pulse.T
    assert T_slow > T_mid > T_fast


def test_duration_log_and_linear_agree(siv_params):
    lin = optimize_duration(siv_params, spacing="linear")
    log = optimize_duration(siv_params, spacing="log")
    # both stage-two passes should land on the same flat optimum
    assert abs(lin.pulse.T - log.pulse.T) < 2e-3
    assert lin.F_worst == pytest.approx(log.F_worst, abs=1e-6)


def test_duration_needs_window():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    with pytest.raises(ValidationError):
        optimize_duration(p)
    res = optimize_duration(p, T_lo=0.1, T_hi=2.0)
    assert res.pulse.T == pytest.approx(2.0, abs=0.02)  # no memory penalty
    with pytest.raises(ValidationError):
        optimize_duration(p, T_lo=1.0, T_hi=0.5)
    with pytest.raises(ValidationError, match="shape ratio"):
        optimize_duration(p, ratios=(np.nan,), T_lo=0.1, T_hi=2.0)


def test_shape_nesting_improves(siv_params):
    # the one-term family sits inside the two-term grid (zero is a node)
    cfg1 = OptimizationConfig(L=1, T_samples=80, refine=False)
    cfg2 = OptimizationConfig(L=2, T_samples=80, ratio_samples=21,
                              refine=False)
    r1 = optimize_shape(siv_params, cfg1)
    r2 = optimize_shape(siv_params, cfg2)
    assert r2.objective_value >= r1.objective_value - 1e-12


def test_constrained_curvature_zero(siv_params):
    res = optimize_shape(siv_params, desk_config(2, constrained=True))
    assert abs(res.pulse.d2f(0.0)) < 1e-10
    assert abs(res.pulse.d2f(res.pulse.T)) < 1e-10


def test_shape_deterministic(siv_params):
    cfg = OptimizationConfig(L=2, T_samples=40, ratio_samples=21, refine=True)
    r1 = optimize_shape(siv_params, cfg)
    r2 = optimize_shape(siv_params, cfg)
    assert r1.pulse == r2.pulse
    assert r1.objective_value == r2.objective_value
    assert r1.provenance == r2.provenance


def test_reported_bound_reproducible(table_row_unconstrained, siv_params):
    res = table_row_unconstrained
    prof = depletion.analytic_profile(siv_params, res.pulse)
    assert bounds.e_max(prof) == pytest.approx(res.E_max, abs=1e-9)
    # quadrature route agrees on the bound
    grid = np.linspace(0.0, res.pulse.T, 51)
    num = depletion.integrated_depletion_numeric(siv_params,
                                                 res.pulse.envelope(), grid)
    assert bounds.e_max(num) == pytest.approx(res.E_max, rel=1e-6)


def test_budget_yields_partial_result(siv_params):
    cfg = OptimizationConfig(L=2, T_samples=50, ratio_samples=21,
                             refine=False, max_candidates=200)
    res = optimize_shape(siv_params, cfg)
    assert res.provenance["partial"]
    assert res.provenance["evaluations"] <= 200


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizationConfig(L=0)
    with pytest.raises(ValidationError):
        OptimizationConfig(T_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        OptimizationConfig(ratio_range=(-2.0, 1.0))
    with pytest.raises(ValidationError):
        full_config(4)


@pytest.mark.parametrize("T_range", [(0.5, 0.3), (0.3, 0.3), (0.1, np.inf),
                                     (np.nan, 1.0)])
def test_config_rejects_bad_T_range(T_range):
    with pytest.raises(ValidationError):
        OptimizationConfig(T_range=T_range)


def test_shape_higher_order_rows(siv_params):
    # published optima for the richer families; the coarse grid needs its
    # refinement pass to resolve them
    r2c = optimize_shape(siv_params, desk_config(2, constrained=True))
    assert r2c.E_max == pytest.approx(0.987, abs=1.5e-3)
    assert r2c.pulse.T == pytest.approx(0.38, abs=0.04)
    expected = (1.5, -0.38, 0.16, -0.09)
    assert np.allclose(r2c.pulse.coeffs, expected, atol=0.05)

    r3 = optimize_shape(siv_params, desk_config(3))
    assert r3.E_max == pytest.approx(0.988, abs=1.5e-3)
    assert r3.pulse.T == pytest.approx(0.34, abs=0.04)
    assert np.allclose(r3.pulse.coeffs, (1.46, -0.30, 0.17), atol=0.05)


def test_desk_matches_full_reasonably(siv_params):
    # the coarse grid plus refinement should land near the full-grid optimum
    full = optimize_shape(siv_params, full_config(2, refine=False))
    desk = optimize_shape(siv_params, desk_config(2, refine=True))
    assert desk.F_worst >= full.F_worst - 5e-4


# Grid optima (duration, normalized coefficients, objective) on the
# published and desk grids, without refinement. The search is exhaustive
# and deterministic, so a change here is a change of the scan's arithmetic
# or of its tie order.
PINNED_OPTIMA = {
    ("full", 1, False): (0.4404668865930009, (1.23026236353055,),
                         0.9489052181143238),
    ("full", 1, True): (0.5041501270152089,
                        (1.3466695073983816, -0.3366673768495954),
                        0.9435990798232025),
    ("full", 2, False): (0.4404668865930009,
                         (1.2801350127405615, -0.07680810076443362),
                         0.949212921108067),
    ("full", 2, True): (0.37678364617079296,
                        (1.5021389553907154, -0.37553473884767885,
                         0.16523528509297883, -0.0929448478648006),
                        0.9511861571735352),
    ("desk", 3, False): (0.3507904868147897,
                         (1.440608441831517, -0.28812168836630336,
                          0.1728730130197822),
                         0.955102180318449),
    ("desk", 3, True): (0.3507904868147897,
                        (1.5376551479467162, -0.38441378698667905,
                         0.18451861775360612, -0.10379172248640343,
                         0.061506205917868706, -0.04271264299851994),
                        0.9469954424695629),
}


@pytest.mark.parametrize("grid,L,constrained", sorted(PINNED_OPTIMA))
def test_grid_optimum_pinned(siv_params, grid, L, constrained):
    factory = full_config if grid == "full" else desk_config
    res = optimize_shape(siv_params, factory(L, constrained=constrained,
                                             refine=False))
    T, coeffs, obj = PINNED_OPTIMA[grid, L, constrained]
    assert res.pulse.T == T
    assert res.pulse.coeffs == coeffs
    assert res.objective_value == pytest.approx(obj, rel=1e-12)
