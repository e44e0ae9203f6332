import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from hypothesis import example, given, settings, strategies as st

from ramanpulse import (CosineSeriesPulse, DomainError, EmitterParams,
                        Envelope, NumericError, ValidationError,
                        cooperativity, ghz, sin2_pulse)
from ramanpulse import checks, depletion
from ramanpulse.cli import DECOHERENCE_SETS
from ramanpulse.trajectory import ClosedFormSolution, max_efficiency
from ramanpulse.pulse import _harmonic_coefficients, slaved_series
from ramanpulse.depletion import (analytic_profile, depletion_rate,
                                  integrated_depletion_analytic,
                                  integrated_depletion_numeric,
                                  phase_evolution)


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
    assert depletion_rate(p, pl, 0.7) == 0.0
    assert depletion_rate(p, pl, -0.1) == 0.0


def test_rate_domain_errors():
    env = _const_envelope(1.0)
    with pytest.raises(DomainError):
        depletion_rate(SimpleNamespace(g=0.0, kappa=1.0, kappa_tilde=0.0,
                                       gamma_tilde=0.0, Gamma1=0.0, Gamma2=0.0),
                       env, 0.1)


def _series_integrals(Gamma, T, C, t):
    """G and d = G' of sum_k C_k h_k + C_(K + k) u_k, one row per row of C."""
    K = C.shape[-1] // 2
    Gamma, G_rows, P_sum, d_rows, A_sum = depletion._series_rows(Gamma, T, C)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tab = depletion._sine_table(K)(t / T)
    G = depletion._g_on_table(Gamma, T, t / T, G_rows @ tab, P_sum[:, None])
    return G, np.exp(Gamma * t) * (A_sum[:, None] + d_rows @ tab)


def _helper_integrals(Gamma, T, K, t):
    """h_k(t) and u_k(t) at w_k = 2 pi k / T, k < K, from unit rows."""
    G, _ = _series_integrals(Gamma, T, np.eye(2 * K), t)
    return G[:K], G[K:]


def test_helper_integrals_start_at_zero():
    rng = np.random.default_rng(2)
    for _ in range(10):
        T = rng.uniform(0.2, 3.0)
        g = rng.uniform(-5, 5)
        h, u = _helper_integrals(g, T, 5, 0.0)
        assert np.all(h == 0.0) and np.all(u == 0.0)


def test_subnormal_rate_difference_is_the_equal_rate_limit():
    # Gamma1 - Gamma2 = -5e-324: 1/Gamma overflows, so h_0 is t itself
    assert _helper_integrals(-5e-324, 1.0, 1, 0.5)[0][0] == 0.5
    p = EmitterParams(g=ghz(2), kappa=ghz(5), gamma_tilde=ghz(1), Gamma2=5e-324)
    pl = sin2_pulse(1.0)
    equal = EmitterParams(g=ghz(2), kappa=ghz(5), gamma_tilde=ghz(1))
    assert integrated_depletion_analytic(p, pl, 1.0) == pytest.approx(
        integrated_depletion_analytic(equal, pl, 1.0), rel=1e-15)


def test_helper_integrals_against_quadrature():
    # h_k, u_k and their derivatives e^(g t) cos(w_k t), e^(g t) sin(w_k t),
    # at the pole k = 0 too, with and without a rate gap
    rng = np.random.default_rng(9)
    K = 4
    for _ in range(10):
        T = rng.uniform(0.3, 3.0)
        g = rng.choice([0.0, rng.uniform(-3, 3)])
        t = rng.uniform(0.1, 2.0)
        G, d = _series_integrals(g, T, np.eye(2 * K), t)
        for k in range(K):
            w = 2 * math.pi * k / T
            h_ref, _ = quad(lambda x: math.exp(g * x) * math.cos(w * x), 0, t)
            u_ref, _ = quad(lambda x: math.exp(g * x) * math.sin(w * x), 0, t)
            assert G[k, 0] == pytest.approx(h_ref, abs=1e-10)
            assert G[K + k, 0] == pytest.approx(u_ref, abs=1e-10)
            assert d[k, 0] == pytest.approx(math.exp(g * t) * math.cos(w * t),
                                            abs=1e-12)
            assert d[K + k, 0] == pytest.approx(
                math.exp(g * t) * math.sin(w * t), abs=1e-12)


def test_diagonal_family_closed_form():
    # int_0^t f_m^2 = 3t/2 + sin(2 w t)/(4 w) - 2 sin(w t)/w at zero rate gap
    T, m = 0.9, 2
    w = 2 * math.pi * m / T
    ts = np.linspace(0.05, T, 7)
    # unit weight on I1 alone: C spells I1 in the helper integrals h_k, u_k
    C = _harmonic_coefficients(T, m, (1.0, 0.0, 0.0, 0.0, 0.0))
    I1 = _series_integrals(0.0, T, C[m - 1, m - 1][None], ts)[0][0]
    expected = 1.5 * ts + np.sin(2 * w * ts) / (4 * w) - 2 * np.sin(w * ts) / w
    assert np.max(np.abs(I1 - expected)) < 1e-12


def test_rate_is_derivative_of_analytic_G(siv_params):
    pl = sin2_pulse(0.44)
    t = 0.19
    h = 1e-6
    dG = (integrated_depletion_analytic(siv_params, pl, t + h)
          - integrated_depletion_analytic(siv_params, pl, t - h)) / (2 * h)
    assert dG == pytest.approx(depletion_rate(siv_params, pl, t),
                               rel=1e-7)


def test_detuning_independence(siv_params):
    pl = sin2_pulse(0.44)
    ts = np.linspace(0, 0.44, 9)
    detuned = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                            gamma_tilde=siv_params.gamma_tilde,
                            Gamma1=siv_params.Gamma1, Gamma2=siv_params.Gamma2,
                            Delta=ghz(3.0))
    d0 = depletion_rate(siv_params, pl, ts)
    d1 = depletion_rate(detuned, pl, ts)
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
    prof = analytic_profile(siv_params, pl)
    jet, d = depletion.series_g(siv_params, pl)
    G, d = jet(grid)[3], d(grid)
    assert G[0] == 0.0
    assert prof.G_max >= G[-1]
    # G non-decreasing across intervals where d stays nonnegative
    positive = (d[:-1] >= 0) & (d[1:] >= 0)
    assert np.all(np.diff(G)[positive] >= -1e-12)
    # the maximum of G sits inside the pulse for short durations
    assert prof.argmax_t < 0.2
    assert prof.G_max > G[-1] + 1e-4


def test_profile_is_shared_and_read_only(siv_params):
    # an equal (params, pulse) returns the cached profile, which its users
    # cannot change
    prof = analytic_profile(siv_params, sin2_pulse(0.3))
    assert analytic_profile(dataclasses.replace(siv_params), sin2_pulse(0.3)) is prof
    for x in (prof.grid, prof.G):
        with pytest.raises(ValueError):
            x[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.G_max = 1.0
    with pytest.raises(ValidationError):
        analytic_profile(siv_params, [0.3, [1.0]])


def test_numeric_profile_refined_max(siv_params):
    # both routes put G_max at a falling zero of d = G'; each pulse has two
    for T in (0.2, 0.44):
        pl = sin2_pulse(T)
        grid = np.linspace(0.0, T, 21)
        num = integrated_depletion_numeric(siv_params, pl, grid)
        ana = analytic_profile(siv_params, pl)
        assert num.G_max == pytest.approx(ana.G_max, rel=1e-13, abs=0.0)
        assert abs(num.argmax_t - ana.argmax_t) <= 1e-12 * T
        d = depletion_rate(siv_params, pl,
                           np.linspace(0.0, T, depletion.N_SEARCH_GRID))
        assert np.count_nonzero((d[:-1] > 0) & (d[1:] <= 0)) == 2
        for prof in (num, ana):
            assert (abs(depletion_rate(siv_params, pl, prof.argmax_t))
                    <= 1e-12 * np.max(np.abs(d)))


def test_maximum_search_covers_the_whole_pulse(siv_params):
    # an output grid that stops at T/2 changes the samples, not G_max: the
    # search runs over [0, T], its end included
    for T in (0.2, 0.44, 5.0):
        pl = sin2_pulse(T)
        full = integrated_depletion_numeric(siv_params, pl, np.linspace(0.0, T, 21))
        half = integrated_depletion_numeric(siv_params, pl,
                                            np.linspace(0.0, T / 2, 11))
        assert full.argmax_t > T / 2
        assert half.G_max == pytest.approx(full.G_max, rel=1e-14, abs=0.0)
        assert half.argmax_t == pytest.approx(full.argmax_t, rel=1e-14)
    # d > 0 throughout: G grows to the end, where its maximum sits
    flat = _const_envelope(1.0, T=0.5)
    full, half = (integrated_depletion_numeric(siv_params, flat,
                                               np.linspace(0.0, end, 11))
                  for end in (0.5, 0.25))
    assert full.argmax_t == half.argmax_t == 0.5
    assert half.G_max == pytest.approx(full.G_max, rel=1e-14, abs=0.0)
    assert half.G_max > 1.5 * half.G[-1]


def test_maximum_search_takes_sign_noise_at_the_end(siv_params):
    # a constrained L = 2 pulse whose d is rounding noise, 1e-17 of max |d|,
    # over its last steps: the array call that samples d and the scalar call at
    # the same node round it to opposite signs
    pl = CosineSeriesPulse(10.024794570135297,
                           (0.30289567006111495, -0.07572391751527874,
                            -0.003028956700611152, 0.001703788144093773))
    grid = np.linspace(0.0, pl.T, 11)
    ana = analytic_profile(siv_params, pl)
    num = integrated_depletion_numeric(siv_params, pl, grid)
    assert ana.G_max >= integrated_depletion_analytic(
        siv_params, pl, np.linspace(0.0, pl.T, depletion.N_SEARCH_GRID)).max()
    assert num.G_max == pytest.approx(ana.G_max, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("T,V", [
    (np.array(0.5), [[1.0]]),                       # T not 1-d
    (np.array([0.5, 0.6]), [[1.0]]),                # one row for two durations
    (np.array([0.5]), [1.0]),                       # V not 2-d
    (np.array([0.5]), np.ones((1, 0))),             # no coefficients
    (np.array([0.0]), [[1.0]]),
    (np.array([-0.5]), [[1.0]]),
    (np.array([np.inf]), [[1.0]]),
    (np.array([0.5]), [[np.nan]]),
])
def test_g_max_rejects_bad_input(siv_params, T, V):
    with pytest.raises(ValidationError):
        depletion.g_max(siv_params, T, V)


def test_falling_zeros_take_sign_noise_at_the_step_end():
    # the samples put falling zeros in (1, 2), (3, 4) and (5, 6); evaluated
    # again, d rounds to the other sign at 2 and at 3, so those ends are the
    # zeros, and the clean step is refined to the zero of d = 5.5 - t
    def d(t, r):
        return np.array([{2.0: 1e-17, 3.0: -1e-17, 4.0: -1.0}.get(x, 5.5 - x)
                         for x in t])

    ts = np.arange(7.0)[None]
    ds = np.array([[5.5, 4.5, -1.0, 1.0, -1.0, 0.5, -0.5]])
    r, zeros = depletion._falling_zeros(d, ts, ds)
    assert r.tolist() == [0, 0, 0]
    assert zeros.tolist() == [2.0, 3.0, 5.5]


def test_numeric_grid_validation(siv_params):
    pl = sin2_pulse(0.2)
    with pytest.raises(ValidationError):
        integrated_depletion_numeric(siv_params, pl,
                                     np.array([0.1, 0.05]))
    with pytest.raises(ValidationError):
        integrated_depletion_numeric(siv_params, pl,
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
        num = integrated_depletion_numeric(p, pl, ts,
                                           refine_max=False).G
        assert np.max(np.abs(ana - num) / np.abs(num)) < 1e-10


def test_phase_zero_on_resonance(siv_params):
    pl = sin2_pulse(0.44)
    grid = np.linspace(0, 0.44, 33)
    phi = phase_evolution(siv_params, pl, E=0.9, t_grid=grid)
    assert np.max(np.abs(phi)) < 1e-10


def test_cumulative_of_a_zero_rate_is_exact_zeros():
    # a rate 0 at every node of the first pass integrates to exact zeros,
    # with no series built or sampled
    nodes = []
    integral = depletion._cumulative(lambda t: nodes.append(t.size) or 0.0 * t,
                                     0.3, 0.05, 1.0, 1e-14)
    assert nodes == [65]
    t = np.linspace(-0.5, 1.5, 41)
    assert integral(t).shape == t.shape
    assert np.all(integral(t) == 0.0) and not np.signbit(integral(t)).any()
    assert integral(0.7) == 0.0 and np.shape(integral(0.7)) == ()
    # one nonzero node is a series
    bump = depletion._cumulative(lambda t: np.exp(-((t - 0.3) / 0.05) ** 2),
                                 0.3, 0.05, 1.0, 1e-14)
    assert bump(1.0) == pytest.approx(0.05 * math.sqrt(math.pi), rel=1e-12)


def test_g_and_max_is_the_one_entry_of_a_series(siv_params):
    # the jet is series_g's with the chirp as theta'; on [0, T] the profile is
    # analytic_profile's, bit for bit, on a shorter window a search of it
    pl = CosineSeriesPulse(0.44, (1.0, -0.06), chirp=1.5).normalize()
    jet, prof = depletion.g_and_max(siv_params, pl, pl.T)
    ref = analytic_profile(siv_params, pl)
    assert (prof.G_max, prof.argmax_t) == (ref.G_max, ref.argmax_t)
    assert np.array_equal(prof.G, ref.G) and np.array_equal(prof.grid, ref.grid)
    t = np.linspace(0.0, pl.T, 31)
    *series, dth, d2th = jet(t)
    for got, want in zip(series, depletion.series_g(siv_params, pl)[0](t)):
        assert np.array_equal(got, want)
    assert (dth, d2th) == (pl.chirp, 0.0)
    _, head = depletion.g_and_max(siv_params, pl, 0.1)
    assert head.grid[-1] == 0.1 and head.G_max == pytest.approx(
        integrated_depletion_analytic(siv_params, pl, 0.1), rel=1e-14)


def test_phase_zero_at_zero_efficiency():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    grid = np.linspace(0, 0.44, 17)
    phi = phase_evolution(p, sin2_pulse(0.44), E=0.0, t_grid=grid)
    assert np.all(phi == 0.0)


def test_phase_domain_error(siv_params):
    pl = sin2_pulse(0.44)
    with pytest.raises(DomainError):
        phase_evolution(siv_params, pl, E=1.5, t_grid=np.linspace(0, 0.44, 9))


def test_phase_on_grid_ending_before_pulse_end():
    # the phase pass covers only [0, last requested time], with the maximum
    # of G searched there, so a grid that stops before 1 - E^2 G reaches zero
    # still gets a phase
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    env = sin2_pulse(0.44)
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
    G1 = integrated_depletion_numeric(siv_params, chirped, ts,
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
    # 1 - E^2 G reaches zero inside the grid: the maximum search finds it and
    # raises DomainError before any phase work
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Delta=ghz(1.0))
    env = sin2_pulse(0.44)
    with pytest.raises(DomainError):
        phase_evolution(p, env, E=1.5, t_grid=np.linspace(0, 0.44, 45))


def _phase_rate(p, env, E, t):
    """phidot = E^2 exp((Gamma1 - Gamma2) t) N / (g^2 (1 - E^2 G)), written out,
    with G by quadrature."""
    f, df, d2f = (float(v) for v in env.evaluate(t))
    dth, d2th = float(env.dtheta(t)), float(env.d2theta(t))
    G = integrated_depletion_numeric(p, env, [t], refine_max=False).G[0]
    x, k, g2, D = 1.0 + p.kappa_tilde / p.kappa, p.kappa, p.g ** 2, p.Delta
    num = ((x * (D + dth) + d2th / k) * f * df + (D + 2.0 * dth) / k * df ** 2
           - dth / k * f * d2f
           + (k * x * x * (D + dth) / 4.0 + x * d2th / 2.0
              + (D * dth ** 2 - g2 * dth + dth ** 3) / k) * f ** 2)
    return E * E * math.exp((p.Gamma1 - p.Gamma2) * t) * num / (g2 * (1.0 - E * E * G))


def _phase_params(Delta):
    return EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(1.0),
                         gamma_tilde=ghz(0.1), Gamma1=ghz(0.02), Gamma2=ghz(0.005),
                         Delta=Delta)


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("Delta, chirp", [(ghz(1.0), 0.0), (0.0, 2.5), (ghz(-0.5), -3.0)],
                         ids=["detuned", "chirped", "detuned and chirped"])
def test_phase_matches_quadrature(Delta, chirp, L):
    p = _phase_params(Delta)
    pl = CosineSeriesPulse(0.45, (1.0, -0.1, 0.05)[:L], chirp=chirp).normalize()
    ts = np.array([0.3, 0.6, 1.0]) * pl.T
    for s in (0.5, 0.9, 0.99):
        E = s * max_efficiency(p, pl)
        ref = np.cumsum([quad(lambda t: _phase_rate(p, pl, E, t), a, b, epsabs=1e-12,
                              epsrel=1e-11, limit=200)[0]
                         for a, b in zip(np.r_[0.0, ts[:-1]], ts)])
        assert np.max(np.abs(phase_evolution(p, pl, E, ts) - ref)) < 1e-10, s


def test_phase_near_the_pole_matches_quadrature():
    # at 1 - E^2 G_max = 2e-8, 1 / r^2 peaks at 5e7 at the depletion maximum
    p = _phase_params(ghz(1.0))
    pl = sin2_pulse(0.44)
    prof = analytic_profile(p, pl)
    E = (1.0 - 1e-8) / math.sqrt(prof.G_max)
    ref = quad(lambda t: _phase_rate(p, pl, E, t), 0.0, pl.T, points=[prof.argmax_t],
               epsabs=0.0, epsrel=1e-10, limit=200)[0]
    phi = phase_evolution(p, pl, E, [0.0, pl.T])[-1]
    assert abs(phi - ref) <= 1e-8 * abs(ref)


def test_synthesis_at_the_pole_is_quick():
    # at E = (1 - 1e-10) E_max a result, or a NumericError, within 0.1 s
    p = _phase_params(ghz(1.0))
    pl = sin2_pulse(0.44)
    E = (1.0 - 1e-10) * max_efficiency(p, pl)
    start = time.perf_counter()
    try:
        phi = ClosedFormSolution(p, pl, E).phi(pl.T)
        assert np.isfinite(phi) and phi > 0.0
    except NumericError:
        pass
    assert time.perf_counter() - start < 0.1


def test_phase_of_finite_difference_envelope_matches_series():
    # noisy f' and f'': the chop stops at their noise floor, not at NumericError
    p = _phase_params(ghz(1.0))
    pl = sin2_pulse(0.44)
    env = Envelope(pl.T, f=pl.f, theta=pl.theta)
    E = 0.9 * max_efficiency(p, pl)
    grid = np.linspace(0.0, pl.T, 45)
    assert np.max(np.abs(phase_evolution(p, env, E, grid)
                         - phase_evolution(p, pl, E, grid))) < 1e-8
    assert np.max(np.abs(ClosedFormSolution(p, env, E).phi(grid)
                         - ClosedFormSolution(p, pl, E).phi(grid))) < 1e-8


# derandomize=True does not pin the examples: Hypothesis 6.155 mixes in
# literals mined from the loaded src modules, and no settings profile stops it.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=st.floats(2.0, 10.0), kappa=st.floats(5.0, 60.0),
       gamma_tilde=st.floats(0.01, 1.0), gamma1_frac=st.floats(0.0, 1.0),
       Gamma2=st.floats(0.0, 0.5), Delta=st.floats(-2.0, 2.0),
       T=st.floats(0.1, 1.5),
       ratios=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=2),
       chirp=st.floats(-100.0, 100.0), frac=st.floats(0.05, 1.0))
# a subnormal Gamma2: Gamma1 - Gamma2 is the equal-rate limit
@example(g=6.0, kappa=30.0, gamma_tilde=0.1, gamma1_frac=0.0, Gamma2=5e-324,
         Delta=1.0, T=0.44, ratios=[], chirp=10.0, frac=1.0)
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


# derandomize=True does not pin the examples: Hypothesis 6.155 mixes in
# literals mined from the loaded src modules, and no settings profile stops it.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=st.floats(2.0, 10.0), kappa=st.floats(5.0, 60.0),
       kappa_tilde=st.floats(0.0, 10.0), gamma_tilde=st.floats(0.01, 1.0),
       Gamma1=st.floats(0.0, 0.5), Gamma2=st.floats(0.0, 0.5),
       Delta=st.floats(-2.0, 2.0), T=st.floats(0.1, 1.5),
       ratios=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=2),
       chirp=st.floats(-20.0, 20.0), s=st.floats(0.1, 10.0))
def test_e_max_invariant_under_time_rescaling(g, kappa, kappa_tilde, gamma_tilde,
                                              Gamma1, Gamma2, Delta, T, ratios,
                                              chirp, s):
    # every rate times s and T / s describe the same physics on a faster clock
    p = EmitterParams(g=ghz(g), kappa=ghz(kappa), kappa_tilde=ghz(kappa_tilde),
                      gamma_tilde=ghz(gamma_tilde), Gamma1=ghz(Gamma1),
                      Gamma2=ghz(Gamma2), Delta=ghz(Delta))
    fast = EmitterParams(**{f.name: s * getattr(p, f.name)
                            for f in dataclasses.fields(p)})
    pl = CosineSeriesPulse(T, (1.0, *ratios), chirp=chirp).normalize()
    scaled = CosineSeriesPulse(T / s, pl.coeffs, chirp=s * chirp).normalize()
    assert max_efficiency(fast, scaled) == pytest.approx(
        max_efficiency(p, pl), rel=1e-12, abs=0.0)


def test_chirp_lowers_efficiency_bound(siv_params):
    # Gamma1 < gamma_tilde here, so every linear chirp of C6 costs efficiency
    records = checks.c6_phase_properties(siv_params, sin2_pulse(0.44))
    assert [r for r in records if not r.passed] == []
    assert sum(r.name.startswith("C6 E_max at chirp") for r in records) == 6


# derandomize=True does not pin the examples: Hypothesis 6.155 mixes in
# literals mined from the loaded src modules, and no settings profile stops it.
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
    # X of the unchirped pulse, on the SEARCH_TAU columns nearest to ts
    cols = np.rint(ts / pl.T * (depletion.N_SEARCH_GRID - 1)).astype(int)
    X = depletion.g_matrix(p, pl.T, pl.order, cols)
    contracted = np.outer(v, v).ravel() @ X
    unchirped = integrated_depletion_analytic(
        p, CosineSeriesPulse(pl.T, pl.coeffs), depletion.SEARCH_TAU[cols] * pl.T)
    assert np.all(np.abs(unchirped - contracted) <= 1e-13 * np.abs(contracted))
    num = integrated_depletion_numeric(p, pl, ts, refine_max=False).G
    assert np.all(np.abs(G - num) <= 1e-10 * np.abs(num))
    tt = np.linspace(0.0, T, 201)
    d = depletion_rate(p, pl, tt)
    assert (np.max(np.abs(depletion.series_g(p, pl)[1](tt) - d))
            <= 1e-12 * np.max(np.abs(d)))


def test_numeric_quadrature_once_per_interval_and_falling_zero(siv_params,
                                                              monkeypatch):
    # one quad call per output interval, plus one per falling zero of d,
    # which splits the interval it lies in
    pl = CosineSeriesPulse(1.3, (1.0, 0.1)).normalize()
    grid = np.linspace(0.0, pl.T, 101)
    calls = []
    plain_quad = depletion.quad

    def counting_quad(fun, a, b, **kw):
        calls.append((a, b))
        return plain_quad(fun, a, b, **kw)

    monkeypatch.setattr(depletion, "quad", counting_quad)
    prof = integrated_depletion_numeric(siv_params, pl, grid)
    d = depletion_rate(siv_params, pl,
                       np.linspace(0.0, pl.T, depletion.N_SEARCH_GRID))
    falling = np.count_nonzero((d[:-1] > 0) & (d[1:] <= 0))
    assert falling == 2
    assert len(calls) == grid.size - 1 + falling
    exact = analytic_profile(siv_params, pl)
    assert np.allclose(prof.G, integrated_depletion_analytic(siv_params, pl, grid),
                       rtol=1e-10, atol=0.0)
    assert prof.G_max == pytest.approx(exact.G_max, rel=1e-10)


def test_generic_envelope_bound_drive_and_phase_make_no_quadrature_call(
        siv_params, monkeypatch):
    # a generic envelope's G is one Chebyshev series, read by the bound, the
    # drive and the phase; quadrature of d is left to the oracle
    pl = sin2_pulse(0.44)
    env = Envelope(T=pl.T, f=pl.f, df=pl.df, d2f=pl.d2f)
    finite_diff = Envelope(T=pl.T, f=pl.f)
    calls = []
    plain_quad = depletion.quad

    def counting_quad(fun, a, b, **kw):
        calls.append((a, b))
        return plain_quad(fun, a, b, **kw)

    monkeypatch.setattr(depletion, "quad", counting_quad)
    E_max = max_efficiency(siv_params, env)
    cf = ClosedFormSolution(siv_params, env, 0.9 * E_max)
    phase_evolution(siv_params, env, 0.9 * E_max, np.linspace(0.0, pl.T, 21))
    E_max_fd = max_efficiency(siv_params, finite_diff)
    assert calls == []
    assert E_max == pytest.approx(max_efficiency(siv_params, pl), rel=1e-12)
    assert cf.E_max == E_max
    oracle = integrated_depletion_numeric(siv_params, finite_diff, [pl.T])
    assert E_max_fd == pytest.approx(1.0 / math.sqrt(oracle.G_max), rel=1e-9)


def test_g_max_batch_matches_one_row_calls_and_quadrature(siv_params):
    # one g_max call per batch; each row against a one-row call and against
    # the quadrature route, and chirped pulses through analytic_profile
    unequal = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(1.0),
                            gamma_tilde=ghz(0.1), Gamma1=ghz(0.02),
                            Gamma2=ghz(0.005), Delta=ghz(1.0))
    subnormal = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                              Gamma1=5e-324)
    perfect = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    desk_l3_constrained = (1.5376551479467162, -0.38441378698667905,
                           0.18451861775360612, -0.10379172248640343,
                           0.061506205917868706, -0.04271264299851994)
    sin2_T = np.array([0.2, 0.3, 0.44, 300.0])  # the last is flat at T
    batches = [
        (perfect, sin2_T, np.sqrt(2.0 / (3.0 * sin2_T))[:, None]),
        (siv_params, np.array([0.3507904868147897, 0.5, 0.25]),
         np.vstack([desk_l3_constrained, slaved_series(
             [[1.0, -0.2, 0.1], [1.0, 0.3, -0.05]])])),
        (subnormal, np.array([1.1, 1.3]),
         slaved_series([[1.0, 0.2], [1.0, -0.3]])),
    ]
    chirped = [
        (2.5, np.array([0.3, 0.5, 0.8]),
         np.array([[1.0, 0.2], [1.0, -0.1], [0.5, 0.05]])),
        (-40.0, np.array([0.4, 0.6]), np.array([[1.0], [0.7]])),
    ]

    def against_quadrature(p, pl, G_max, argmax_t, G_end):
        assert G_end == pytest.approx(
            integrated_depletion_analytic(p, pl, pl.T), rel=1e-15, abs=0.0)
        num = integrated_depletion_numeric(p, pl, [pl.T])
        assert G_max == pytest.approx(num.G_max, rel=1e-13, abs=0.0)
        assert abs(argmax_t - num.argmax_t) <= 1e-12 * pl.T

    for p, T, V in batches:
        G_max, argmax_t, G_end = depletion.g_max(p, T, V)
        assert G_max.shape == argmax_t.shape == G_end.shape == T.shape
        for j, (Tj, v) in enumerate(zip(T, V)):
            one = [x[0] for x in depletion.g_max(p, [Tj], [v])]
            assert G_max[j] == pytest.approx(one[0], rel=1e-15, abs=0.0)
            assert abs(argmax_t[j] - one[1]) <= 1e-12 * Tj
            against_quadrature(p, CosineSeriesPulse(Tj, tuple(v)), G_max[j],
                               argmax_t[j], G_end[j])
    for chirp, T, V in chirped:
        for Tj, v in zip(T, V):
            pl = CosineSeriesPulse(Tj, tuple(v), chirp)
            prof = analytic_profile(unequal, pl)
            against_quadrature(unequal, pl, prof.G_max, prof.argmax_t, prof.G[-1])
    d = depletion_rate(perfect, sin2_pulse(0.44),
                       np.linspace(0.0, 0.44, depletion.N_SEARCH_GRID))
    assert np.count_nonzero((d[:-1] > 0) & (d[1:] <= 0)) == 2
    G_max, argmax_t, G_end = depletion.g_max(
        perfect, sin2_T[-1:], np.sqrt(2.0 / (3.0 * sin2_T[-1:]))[:, None])
    assert argmax_t[0] == sin2_T[-1] and G_max[0] == G_end[0]


def test_g_max_does_not_depend_on_its_pass_size(monkeypatch, siv_params):
    # figures' bound curves: 160 sin^2 pulses per decoherence set; (0, 0) has
    # Gamma = 0, and most rows have two falling zeros of d. Each g_max call
    # builds its rows once and refines every row's zeros in one run, so the
    # pass size only sets which rows share a sample array
    T = np.geomspace(0.04, 12.0, 160)
    V = np.sqrt(2.0 / (3.0 * T))[:, None]
    built, refined = [], []
    pulse_rows, refine = depletion._pulse_rows, depletion._refine_zeros

    def counting_rows(*args):
        built.append(args[1])
        return pulse_rows(*args)

    def counting_refine(d, r, *args):
        refined.append(r)
        return refine(d, r, *args)

    monkeypatch.setattr(depletion, "_pulse_rows", counting_rows)
    monkeypatch.setattr(depletion, "_refine_zeros", counting_refine)
    for frac1, frac2 in DECOHERENCE_SETS:
        p = dataclasses.replace(siv_params, Gamma1=frac1 * siv_params.gamma_tilde,
                                Gamma2=frac2 * siv_params.gamma_tilde)
        runs = []
        for rows in (1, 7, 16, 200):
            monkeypatch.setattr(depletion, "G_MAX_ROWS", rows)
            built.clear()
            refined.clear()
            runs.append(depletion.g_max(p, T, V))
            assert len(built) == len(refined) == 1 and built[0].size == T.size
            assert np.bincount(refined[0]).max() == 2
        for run in runs[1:]:
            assert all(np.array_equal(x, y) for x, y in zip(run, runs[0]))
        # a one-row search takes other kernels for its grid products (a
        # matrix-vector product) and for a lone zero's sums, so its maximum
        # can differ in the last bits; G(T) is the same
        G_max, argmax_t, G_end = runs[0]
        one = [analytic_profile(p, CosineSeriesPulse(Tj, (v,)))
               for Tj, v in zip(T, V[:, 0])]
        assert np.array_equal(G_end, [prof.G[-1] for prof in one])
        assert np.allclose(G_max, [prof.G_max for prof in one], rtol=1e-15, atol=0.0)
        assert np.all(np.abs(argmax_t - [prof.argmax_t for prof in one]) <= 1e-14 * T)
