import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from hypothesis import given, settings, strategies as st

from ramanpulse import (CosineSeriesPulse, DomainError, EmitterParams,
                        Envelope, NumericError, ValidationError,
                        cooperativity, ghz, sin2_pulse)
from ramanpulse import depletion, bounds
from ramanpulse.trajectory import max_efficiency
from ramanpulse.depletion import (analytic_profile, depletion_rate,
                                  family_integrals, h_integral,
                                  integrated_depletion_analytic,
                                  integrated_depletion_numeric,
                                  phase_evolution, u_integral)


def _const_envelope(value, T=1.0):
    zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))[()]
    const = lambda t: np.full_like(np.asarray(t, dtype=float), value)[()]
    return Envelope(T=T, f=const, df=zero, d2f=zero)


def test_flat_envelope_perfect_emitter():
    # no decoherence and a flat envelope: the rate reduces to f^2
    p = EmitterParams(g=2.0, kappa=5.0)
    env = _const_envelope(0.7)
    d = depletion_rate(p, env, 0.3)
    assert d == pytest.approx(0.49, rel=1e-12)


def test_flat_envelope_cooperativity_limit():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    env = _const_envelope(1.0)
    d = depletion_rate(p, env, 0.5)
    C = cooperativity(p)
    assert d == pytest.approx(1.0 + 1.0 / (2 * C), rel=1e-12)


def test_rate_vanishes_off_support():
    p = EmitterParams(g=2.0, kappa=5.0, gamma_tilde=0.3)
    pl = sin2_pulse(0.5)
    assert depletion_rate(p, pl.envelope(), 0.7) == 0.0
    assert depletion_rate(p, pl.envelope(), -0.1) == 0.0


def test_rate_domain_errors():
    env = _const_envelope(1.0)
    with pytest.raises(DomainError):
        depletion_rate(SimpleNamespace(g=0.0, kappa=1.0, kappa_tilde=0.0,
                                       gamma_tilde=0.0, Gamma1=0.0, Gamma2=0.0),
                       env, 0.1)


def test_helper_integrals_start_at_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = rng.uniform(-30, 30)
        g = rng.uniform(-5, 5)
        assert h_integral(w, 0.0, g) == pytest.approx(0.0, abs=1e-14)
        assert u_integral(w, 0.0, g) == pytest.approx(0.0, abs=1e-14)


def test_helper_integrals_against_quadrature():
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = rng.uniform(-20, 20)
        g = rng.choice([0.0, rng.uniform(-3, 3)])
        t = rng.uniform(0.1, 2.0)
        h_ref, _ = quad(lambda x: math.exp(g * x) * math.cos(w * x), 0, t)
        u_ref, _ = quad(lambda x: math.exp(g * x) * math.sin(w * x), 0, t)
        assert h_integral(w, t, g) == pytest.approx(h_ref, abs=1e-10)
        assert u_integral(w, t, g) == pytest.approx(u_ref, abs=1e-10)


def test_diagonal_family_closed_form():
    # int_0^t f_m^2 = 3t/2 + sin(2 w t)/(4 w) - 2 sin(w t)/w at zero rate gap
    T, m = 0.9, 2
    w = 2 * math.pi * m / T
    ts = np.linspace(0.05, T, 7)
    fam = family_integrals(T, 0.0, m, ts)
    expected = 1.5 * ts + np.sin(2 * w * ts) / (4 * w) - 2 * np.sin(w * ts) / w
    assert np.max(np.abs(fam.I1[:, m - 1, m - 1] - expected)) < 1e-12


def test_analytic_matches_quadrature_randomized():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(25):
        rates = 2 * math.pi * 10 ** rng.uniform(-2.0, 0.5, size=3)
        p = EmitterParams(g=ghz(rng.uniform(2, 10)),
                          kappa=ghz(rng.uniform(5, 60)),
                          kappa_tilde=ghz(rng.choice([0.0, rng.uniform(0, 10)])),
                          gamma_tilde=rates[0], Gamma1=rates[1], Gamma2=rates[2])
        L = int(rng.integers(1, 4))
        coeffs = np.concatenate([[1.0], rng.uniform(-1, 1, size=L - 1)])
        pl = CosineSeriesPulse(float(rng.uniform(0.1, 1.5)),
                               tuple(coeffs)).normalize()
        ts = np.array([0.3, 0.7, 1.0]) * pl.T
        ana = integrated_depletion_analytic(p, pl, ts)
        num = integrated_depletion_numeric(p, pl.envelope(), ts, refine_max=False)
        dev = float(np.max(np.abs(ana - num.G) / np.maximum(np.abs(num.G), 1e-12)))
        worst = max(worst, dev)
    assert worst < 1e-6


def test_rate_is_derivative_of_analytic_G(siv_params):
    pl = sin2_pulse(0.44)
    t = 0.19
    h = 1e-6
    dG = (integrated_depletion_analytic(siv_params, pl, t + h)
          - integrated_depletion_analytic(siv_params, pl, t - h)) / (2 * h)
    assert dG == pytest.approx(depletion_rate(siv_params, pl.envelope(), t),
                               rel=1e-7)


def test_detuning_independence(siv_params):
    pl = sin2_pulse(0.44)
    ts = np.linspace(0, 0.44, 9)
    detuned = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                            gamma_tilde=siv_params.gamma_tilde,
                            Gamma1=siv_params.Gamma1, Gamma2=siv_params.Gamma2,
                            Delta=ghz(3.0))
    d0 = depletion_rate(siv_params, pl.envelope(), ts)
    d1 = depletion_rate(detuned, pl.envelope(), ts)
    assert np.array_equal(d0, d1)
    g0 = integrated_depletion_analytic(siv_params, pl, ts)
    g1 = integrated_depletion_analytic(detuned, pl, ts)
    assert np.array_equal(g0, g1)


def test_time_unit_invariance():
    p = EmitterParams(g=3.0, kappa=11.0, gamma_tilde=0.7, Gamma1=0.2, Gamma2=0.05)
    s = 4.0
    ps = EmitterParams(g=3.0 * s, kappa=11.0 * s, gamma_tilde=0.7 * s,
                       Gamma1=0.2 * s, Gamma2=0.05 * s)
    pl = CosineSeriesPulse(0.8, (1.0, -0.3)).normalize()
    pls = CosineSeriesPulse(0.8 / s, tuple(c * math.sqrt(s) for c in pl.coeffs))
    ts = np.linspace(0.05, 0.8, 7)
    G1 = integrated_depletion_analytic(p, pl, ts)
    G2 = integrated_depletion_analytic(ps, pls, ts / s)
    assert np.max(np.abs(G1 - G2)) < 1e-12


def test_weighted_end_value_decreases_toward_cooperativity_limit(perfect_params):
    C = cooperativity(perfect_params)
    limit = 1.0 + 1.0 / (2 * C)
    values = []
    for T in (0.5, 1.0, 2.0, 5.0, 12.0):
        pl = sin2_pulse(T)
        G_T = float(integrated_depletion_analytic(perfect_params, pl, T))
        values.append(G_T)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(limit, rel=2e-3)
    assert all(v > limit for v in values)


def test_profile_invariants(siv_params):
    pl = sin2_pulse(0.2)
    grid = np.linspace(0.0, 0.2, 41)
    prof = analytic_profile(siv_params, pl, grid=grid)
    assert prof.G[0] == 0.0
    assert prof.G_max >= prof.G[-1]
    # G non-decreasing across intervals where d stays nonnegative
    positive = (prof.d[:-1] >= 0) & (prof.d[1:] >= 0)
    assert np.all(np.diff(prof.G)[positive] >= -1e-12)
    # the maximum of G sits inside the pulse for short durations
    assert prof.argmax_t < 0.2
    assert prof.G_max > prof.G[-1] + 1e-4


def test_numeric_profile_refined_max(siv_params):
    pl = sin2_pulse(0.2)
    grid = np.linspace(0.0, 0.2, 21)
    num = integrated_depletion_numeric(siv_params, pl.envelope(), grid)
    ana = analytic_profile(siv_params, pl, grid=grid)
    assert num.G_max == pytest.approx(ana.G_max, rel=1e-8)
    assert num.argmax_t == pytest.approx(ana.argmax_t, abs=1e-4)


def test_numeric_grid_validation(siv_params):
    pl = sin2_pulse(0.2)
    with pytest.raises(ValidationError):
        integrated_depletion_numeric(siv_params, pl.envelope(),
                                     np.array([0.1, 0.05]))
    with pytest.raises(ValidationError):
        integrated_depletion_numeric(siv_params, pl.envelope(),
                                     np.array([0.1, 0.3]))


def test_analytic_chirped_matches_quadrature():
    # detuned, with unequal ground-state rates: a linear chirp only shifts two
    # weights of d, so the closed form covers it exactly
    p = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(1.0),
                      gamma_tilde=ghz(0.1), Gamma1=ghz(0.02), Gamma2=ghz(0.005),
                      Delta=ghz(1.0))
    for coeffs, chirp in (((1.0,), -7.0), ((1.0, 0.2), 2.5),
                          ((1.0, -0.1, 0.05), 100.0)):
        pl = CosineSeriesPulse(0.5, coeffs, chirp=chirp).normalize()
        ts = np.linspace(0.0, pl.T, 21)[1:]
        ana = integrated_depletion_analytic(p, pl, ts)
        num = integrated_depletion_numeric(p, pl.envelope(), ts,
                                           refine_max=False).G
        assert np.max(np.abs(ana - num) / np.abs(num)) < 1e-10


def test_phase_zero_on_resonance(siv_params):
    pl = sin2_pulse(0.44).envelope()
    grid = np.linspace(0, 0.44, 33)
    phi = phase_evolution(siv_params, pl, E=0.9, t_grid=grid)
    assert np.max(np.abs(phi)) < 1e-10


def test_phase_zero_at_zero_efficiency():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    grid = np.linspace(0, 0.44, 17)
    phi = phase_evolution(p, sin2_pulse(0.44).envelope(), E=0.0, t_grid=grid)
    assert np.all(phi == 0.0)


def test_phase_domain_error(siv_params):
    pl = sin2_pulse(0.44).envelope()
    with pytest.raises(DomainError):
        phase_evolution(siv_params, pl, E=1.5, t_grid=np.linspace(0, 0.44, 9))


def test_phase_on_grid_ending_before_pulse_end():
    # the phase is integrated only up to the last requested time, so a grid
    # that stops before 1 - E^2 G reaches zero still gets a phase
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    env = sin2_pulse(0.44).envelope()
    grid = np.linspace(0, 0.44, 45)
    full = phase_evolution(p, env, E=0.9, t_grid=grid)
    head = phase_evolution(p, env, E=0.9, t_grid=grid[:20])
    assert np.max(np.abs(head - full[:20])) < 1e-9
    # at E = 1.5, E^2 G(t) passes 1 at t = 0.18 ns
    early = phase_evolution(p, env, E=1.5, t_grid=grid[:16])
    assert np.all(np.isfinite(early)) and early[-1] > 0.0
    with pytest.raises((DomainError, NumericError)):
        phase_evolution(p, env, E=1.5, t_grid=grid)


def test_chirp_raises_integrated_depletion(siv_params):
    # extra positive depletion from a linear chirp, with the closed-form
    # partial-integration identity as the oracle
    pl = sin2_pulse(0.44)
    c = 0.5 * siv_params.kappa
    chirped = CosineSeriesPulse(0.44, pl.coeffs, chirp=c)
    ts = np.array([0.15, 0.3, 0.44])
    G0 = integrated_depletion_analytic(siv_params, pl, ts)
    G1 = integrated_depletion_numeric(siv_params, chirped.envelope(), ts,
                                      refine_max=False).G
    gamma = siv_params.Gamma1 - siv_params.Gamma2
    expected = []
    for t in ts:
        decay_int, _ = quad(lambda x: math.exp(gamma * x) * pl.f(x) ** 2, 0, t)
        boundary = math.exp(gamma * t) * pl.f(t) ** 2
        extra = (c ** 2 / (siv_params.kappa * siv_params.g ** 2)) * (
            (siv_params.gamma_tilde - siv_params.Gamma1) * decay_int + boundary)
        expected.append(extra)
    assert np.max(np.abs((G1 - G0) - np.array(expected))) < 1e-8


def test_phase_above_bound_detuned_domain_error():
    # 1 - E^2 G reaches zero inside the grid: the solver's floor event stops
    # the integration with DomainError instead of stalling into NumericError
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    env = sin2_pulse(0.44).envelope()
    with pytest.raises(DomainError):
        phase_evolution(p, env, E=1.5, t_grid=np.linspace(0, 0.44, 45))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=st.floats(2.0, 10.0), kappa=st.floats(5.0, 60.0),
       gamma_tilde=st.floats(0.01, 1.0), gamma1_frac=st.floats(0.0, 1.0),
       Gamma2=st.floats(0.0, 0.5), Delta=st.floats(-2.0, 2.0),
       T=st.floats(0.1, 1.5),
       ratios=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=2),
       chirp=st.floats(-100.0, 100.0), frac=st.floats(0.05, 1.0))
def test_chirp_adds_depletion(g, kappa, gamma_tilde, gamma1_frac, Gamma2,
                              Delta, T, ratios, chirp, frac):
    # for gamma_tilde >= Gamma1 a chirp only adds depletion, by the
    # partial-integration identity of test_chirp_raises_integrated_depletion
    p = EmitterParams(g=ghz(g), kappa=ghz(kappa), gamma_tilde=ghz(gamma_tilde),
                      Gamma1=gamma1_frac * ghz(gamma_tilde), Gamma2=ghz(Gamma2),
                      Delta=ghz(Delta))
    real = CosineSeriesPulse(T, (1.0, *ratios)).normalize()
    chirped = CosineSeriesPulse(T, real.coeffs, chirp=chirp)
    t = frac * T
    G0 = float(integrated_depletion_analytic(p, real, t))
    G1 = float(integrated_depletion_analytic(p, chirped, t))
    gamma = p.Gamma1 - p.Gamma2
    decay_int, _ = quad(lambda x: math.exp(gamma * x) * real.f(x) ** 2, 0, t,
                        epsabs=1e-13, epsrel=1e-12)
    extra = (chirp ** 2 / (p.kappa * p.g ** 2)) * (
        (p.gamma_tilde - p.Gamma1) * decay_int
        + math.exp(gamma * t) * real.f(t) ** 2)
    # rounding allowances only matter for chirps near zero
    assert G1 - G0 >= -1e-13 * abs(G0)
    assert abs((G1 - G0) - extra) <= 1e-9 * max(1.0, extra)
    assert max_efficiency(p, chirped) <= max_efficiency(p, real) * (1 + 1e-12)


def test_chirp_lowers_efficiency_bound(siv_params):
    # Gamma1 < gamma_tilde here, so any linear chirp must cost efficiency
    pl = sin2_pulse(0.44)
    E0 = bounds.e_max(analytic_profile(siv_params, pl))
    for c in (-siv_params.kappa, 0.5 * siv_params.kappa):
        chirped = CosineSeriesPulse(0.44, pl.coeffs, chirp=c)
        prof = integrated_depletion_numeric(siv_params, chirped.envelope(),
                                            np.linspace(0, 0.44, 11))
        assert bounds.e_max(prof) < E0


def test_profile_csv(tmp_path, siv_params):
    pl = sin2_pulse(0.44)
    prof = analytic_profile(siv_params, pl, grid=np.linspace(0, 0.44, 5))
    prof.phi = np.zeros_like(prof.grid)
    path = tmp_path / "profile.csv"
    prof.to_csv(path, gamma2=siv_params.Gamma2, header="test")
    lines = path.read_text().splitlines()
    assert lines[1] == "t_ns,d_per_ns,G,G_weighted,phi_rad"
    assert len(lines) == 7


@settings(max_examples=60, deadline=None, derandomize=True)
@given(g=st.floats(2.0, 10.0), kappa=st.floats(5.0, 60.0),
       kappa_tilde=st.floats(0.1, 10.0), gamma_tilde=st.floats(0.01, 1.0),
       Gamma1=st.floats(0.0, 0.5), dGamma=st.floats(0.01, 0.5),
       swap=st.booleans(), Delta=st.floats(-2.0, 2.0), T=st.floats(0.1, 1.5),
       ratios=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=3),
       chirp=st.floats(-20.0, 20.0), frac=st.floats(0.4, 1.0))
def test_harmonic_sum_matches_g_matrix_and_quadrature(
        g, kappa, kappa_tilde, gamma_tilde, Gamma1, dGamma, swap, Delta, T,
        ratios, chirp, frac):
    # G(t) = sum_k A_k h_k(t) + B_k u_k(t) with the coefficients contracted
    # once per pulse: the same numbers as v . X(t) . v, and as quadrature of d
    rates = (Gamma1 + dGamma, Gamma1) if swap else (Gamma1, Gamma1 + dGamma)
    p = EmitterParams(g=ghz(g), kappa=ghz(kappa), kappa_tilde=ghz(kappa_tilde),
                      gamma_tilde=ghz(gamma_tilde), Gamma1=ghz(rates[0]),
                      Gamma2=ghz(rates[1]), Delta=ghz(Delta))
    pl = CosineSeriesPulse(T, (1.0, *ratios), chirp=chirp).normalize()
    ts = np.array([0.5 * frac, frac]) * T
    G = integrated_depletion_analytic(p, pl, ts)
    v = np.asarray(pl.coeffs)
    X = depletion.g_matrix(p, pl.T, pl.order, ts, pl.chirp)
    contracted = np.einsum("tnm,n,m->t", X, v, v)
    assert np.all(np.abs(G - contracted) <= 1e-13 * np.abs(contracted))
    num = integrated_depletion_numeric(p, pl.envelope(), ts, refine_max=False).G
    assert np.all(np.abs(G - num) <= 1e-10 * np.abs(num))


def test_numeric_search_nodes_merge_with_output_nodes(siv_params, monkeypatch):
    # i T/100 and 10 i T/1000 differ by an ulp: the search grid must reuse
    # the output node instead of adding a zero-width quad segment
    pl = CosineSeriesPulse(1.3, (1.0, 0.1)).normalize()
    grid = np.linspace(0.0, pl.T, 101)
    calls = []
    plain_quad = depletion.quad

    def counting_quad(fun, a, b, **kw):
        calls.append((a, b))
        return plain_quad(fun, a, b, **kw)

    monkeypatch.setattr(depletion, "quad", counting_quad)
    prof = integrated_depletion_numeric(siv_params, pl, grid)
    # the pass over the nodes is one chain of segments; golden section follows
    chain = 1
    while chain < len(calls) and calls[chain][0] == calls[chain - 1][1]:
        chain += 1
    assert chain == 1000
    exact = analytic_profile(siv_params, pl, grid)
    assert np.allclose(prof.G, exact.G, rtol=1e-10, atol=0.0)
    assert prof.G_max == pytest.approx(exact.G_max, rel=1e-10)
