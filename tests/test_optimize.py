import itertools
import tracemalloc

import numpy as np
import pytest

from ramanpulse import (CosineSeriesPulse, EmitterParams, ValidationError,
                        ghz, sin2_pulse)
from ramanpulse import bounds, depletion, optimize
from ramanpulse.optimize import (OptimizationConfig, desk_config, full_config,
                                 objective, optimize_duration, optimize_shape)
from ramanpulse.pulse import series_norm_sq, slaved_series


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


def test_duration_needs_window():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    with pytest.raises(ValidationError):
        optimize_duration(p)
    res = optimize_duration(p, T_lo=0.1, T_hi=2.0)
    assert res.pulse.T == pytest.approx(2.0, abs=0.02)  # no memory penalty
    with pytest.raises(ValidationError):
        optimize_duration(p, T_lo=1.0, T_hi=0.5)


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
    num = depletion.integrated_depletion_numeric(siv_params, res.pulse, grid)
    assert bounds.e_max(num) == pytest.approx(res.E_max, rel=1e-6)


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizationConfig(L=0)
    with pytest.raises(ValidationError):
        OptimizationConfig(T_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        full_config(4)


def test_config_refuses_candidate_arrays_above_the_limit():
    # only constructed: desk L=6 would build 11 GB of candidate arrays before
    # its first block, desk L=5 constrained about 0.85 GB
    with pytest.raises(ValidationError, match="GiB"):
        desk_config(6)
    with pytest.raises(ValidationError, match="GiB"):
        OptimizationConfig(L=4, ratio_samples=201)
    assert desk_config(5, constrained=True).L == 5
    assert full_config(3, constrained=True).L == 3
    # the refinement box has 21 points per ratio axis: 43 GB at L=7
    with pytest.raises(ValidationError, match="GiB"):
        OptimizationConfig(L=7, ratio_samples=11)
    assert not OptimizationConfig(L=7, ratio_samples=11, refine=False).refine


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
    ("full", 3, False): (0.344942025959689,
                         (1.4631658561574354, -0.292633171231487,
                          0.16094824417731804),
                         0.9555019273233809),
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


def _reference_scan(p, axes, constrained):
    """Every grid point scored alone: series_g on the 1001-point time grid.

    Returns the merits in grid order (durations, then ratios) and the points.
    """
    tau = np.linspace(0.0, 1.0, depletion.N_SEARCH_GRID)
    shapes = list(itertools.product(*axes[1:]))
    merits, points = [], []
    for T in axes[0]:
        for ratios in shapes:
            free = (1.0, *ratios)
            v = tuple(slaved_series(free)) if constrained else free
            G = depletion.series_g(p, CosineSeriesPulse(T, v))[0](tau * T)[3]
            merits.append(optimize._merit(p, T, G.max() / series_norm_sq(T, v)))
            points.append((T, ratios))
    return np.array(merits), points


# (Gamma1, Gamma2) in rad/ns, order L, constrained, duration window, block
# size (BLOCK_BYTES) in rows of 1001 samples. The narrow windows put near-ties
# next to the optimum. Block size None: optimize_duration's sweep,
# DURATION_SAMPLES durations in one first-level group of the unpatched size,
# so the seeds prune in-group. The comments give the durations per group of
# the bound levels that see a survivor (G(T), 8 and 63 samples); at L = 3
# the chunks of series rows (8 durations, then 1) cut the first-level group.
SCAN_CASES = [
    ((ghz(0.01), ghz(0.01)), 3, False, (0.28, 0.345), 7),  # pole; 8+1, 8+1, 5+3+1
    ((ghz(0.03), ghz(0.01)), 1, False, (0.32, 0.37), 20),  # 7, 7, 7
    ((ghz(0.01), ghz(0.05)), 2, False, (0.15, 1.2), 40),   # 9, 6, 1
    ((5e-324, 0.0), 2, True, (1.0, 1.3), 40),              # subnormal; 9, 9, 9
    ((ghz(0.01), ghz(0.01)), 1, False, (0.2, 0.7), None),  # 200, 200, 114
    ((ghz(0.01), ghz(0.01)), 3, False, (0.1, 0.5), 1),     # 1 x 9, 1 x 9, 1 x 8
]


@pytest.mark.parametrize("rates,L,constrained,window,rows", SCAN_CASES)
def test_blocked_pruned_scan_matches_reference(monkeypatch, rates, L, constrained,
                                               window, rows):
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Gamma1=rates[0], Gamma2=rates[1])
    rng = np.random.default_rng(L + 10 * (rows or 0))
    size = 9 if L > 1 else 7
    if rows is None:
        size = optimize.DURATION_SAMPLES
    else:
        monkeypatch.setattr(optimize, "BLOCK_BYTES",
                            rows * 8 * depletion.N_SEARCH_GRID)
    axes = [np.sort(rng.uniform(*window, size=size))]
    axes += [np.sort(rng.uniform(-0.4, 0.4, size=5 - i)) for i in range(L - 1)]
    built, g_rows = [], depletion.g_rows  # the durations of each row build

    def counting_rows(p, T, order):
        built.append(T)
        return g_rows(p, T, order)

    monkeypatch.setattr(depletion, "g_rows", counting_rows)
    best, _ = optimize._search(p, axes, constrained, 0)
    assert np.array_equal(np.concatenate(built), axes[0])  # each once, in order
    merits, points = _reference_scan(p, axes, constrained)
    assert best.evaluations == len(points)
    assert best.objective == pytest.approx(merits.max(), rel=1e-12)
    top = np.sort(merits)[-2:]
    if top[0] < top[1] * (1 - 1e-10):  # a unique maximum
        T, ratios = points[int(np.argmax(merits))]
        assert (best.T, best.ratios) == (T, ratios)
    if L == 3:
        assert best.pruned > 0


@pytest.mark.parametrize("rates,constrained", [
    ((ghz(0.01), ghz(0.01)), False), ((ghz(0.03), ghz(0.01)), True),
    ((5e-324, 0.0), False), ((5e-324, 0.0), True)])
def test_every_level_bounds_the_exact_merit(rates, constrained):
    # G on a subset of the samples is at most G_max, so every level's merit
    # bound holds each point's exact score from above, and each level's bound
    # holds the next one's, both up to PRUNE_MARGIN; on all the samples the
    # bound is the exact score
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Gamma1=rates[0], Gamma2=rates[1])
    rng = np.random.default_rng(5 + constrained)
    T = np.sort(rng.uniform(0.03, 8.0, size=12))
    free = np.column_stack([np.ones(300), rng.uniform(-1.0, 1.0, size=(300, 2))])
    V = slaved_series(free) if constrained else free
    ncoef = V.shape[1]
    norm = series_norm_sq(1.0, V)
    VV = (V[:, :, None] * V[:, None, :]).reshape(len(V), -1)
    X = depletion.g_matrix(p, T, ncoef)
    exact = optimize._merit(p, T, (VV @ X).max(axis=2) / (T[:, None] * norm))
    VVt = optimize._products(V)
    assert VVt.flags.c_contiguous and np.array_equal(VVt, VV.T)
    # the scan's last level: the sample-major bound on every sample is the
    # candidate-major exact merit
    np.testing.assert_allclose(optimize._bound(p, T, X, VVt, norm), exact,
                               rtol=1e-15, atol=0)
    below = exact
    for cols in reversed(optimize._levels()):
        bound = optimize._bound(p, T, depletion.g_matrix(p, T, ncoef, cols), VVt, norm)
        assert np.all(bound >= below * (1.0 - optimize.PRUNE_MARGIN))
        below = bound
    assert [len(c) for c in optimize._levels()] == [1, 8, 63]


def test_duration_scan_builds_full_samples_where_a_candidate_survives(siv_params):
    # all 200 durations sit in one block; the coarse bound, seeded with the
    # full score of its best point, leaves a few for the 1001-sample X
    res = optimize_duration(siv_params)
    grid = res.provenance["trace"][0]
    assert grid["evaluations"] == optimize.DURATION_SAMPLES
    assert type(grid["full_durations"]) is int and type(grid["pruned"]) is int
    assert 1 <= grid["full_durations"] <= 5
    Ts = np.linspace(*optimize.default_T_range(siv_params),
                     optimize.DURATION_SAMPLES)
    merits, points = _reference_scan(siv_params, [Ts], False)
    i = int(np.argmax(merits))
    assert grid["T"] == points[i][0]
    assert grid["objective"] == pytest.approx(merits[i], rel=1e-12)


def test_scan_memory_stays_in_blocks(siv_params):
    # one L=3 duration on the published 201 x 201 ratio grid: the score
    # block of all 40401 candidates would take 323 MB
    axis = np.linspace(-1.0, 1.0, 201)
    tracemalloc.start()
    try:
        optimize._search(siv_params, [np.array([0.345]), axis, axis], False, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_row_chunks_keep_the_scan_in_blocks(siv_params):
    # constrained L = 3 (ncoef 6) on 500 durations and 9 candidates: one
    # first-level group holds every duration, and the series rows and their
    # build dominate; built for all durations at once they peak near 18 MB
    axis = np.linspace(-1.0, 1.0, 3)
    Ts = np.linspace(*optimize.default_T_range(siv_params), 500)
    tracemalloc.start()
    try:
        optimize._search(siv_params, [Ts, axis, axis], True, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * optimize.BLOCK_BYTES


def test_duration_scan_builds_its_rows_once(monkeypatch, siv_params):
    # each of optimize_duration's two scans (grid and refinement box) builds
    # the series rows of its 200 durations in one _harmonic_coefficients call,
    # and every bound level, seed and exact score reads them
    calls, scans = [], []
    harmonic, scan = depletion._harmonic_coefficients, optimize._scan

    def counting_harmonic(*args):
        calls.append(args[0])
        return harmonic(*args)

    def counting_scan(*args):
        start = len(calls)
        scan(*args)
        scans.append(len(calls) - start)

    monkeypatch.setattr(depletion, "_harmonic_coefficients", counting_harmonic)
    monkeypatch.setattr(optimize, "_scan", counting_scan)
    optimize_duration(siv_params)
    assert scans == [1, 1]
