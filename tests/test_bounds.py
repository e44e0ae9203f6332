import math

import numpy as np
import pytest

from ramanpulse import (DomainError, EmitterParams, ValidationError,
                        cooperativity, ghz, sin2_pulse)
from ramanpulse import bounds, checks
from ramanpulse.depletion import DepletionProfile, analytic_profile


def _profile(G_max, G_end, T=1.0):
    grid = np.array([0.0, T])
    return DepletionProfile(grid=grid, G=np.array([0.0, G_end]), G_max=G_max,
                            argmax_t=T / 2)


def test_e_max_unit_integral():
    assert bounds.e_max(_profile(1.0, 1.0)) == 1.0
    assert bounds.e_max(_profile(4.0, 2.0)) == 0.5


def test_e_max_domain_error():
    with pytest.raises(DomainError):
        bounds.e_max(_profile(0.0, 0.0))


def test_e_max_benchmark(siv_params):
    prof = analytic_profile(siv_params, sin2_pulse(0.44))
    assert bounds.e_max(prof) == pytest.approx(0.988, abs=1e-3)


def test_e_max_slow_pulse_limit(perfect_params):
    # the benchmark emitter less the ground-state rates, which C2 zeroes anyway
    assert all(r.passed for r in checks.c2_slow_pulse_asymptote(perfect_params))


def test_simplified_bound_ordering(siv_params):
    short = analytic_profile(siv_params, sin2_pulse(0.2))
    assert bounds.simplified_bound(short) > bounds.e_max(short)
    long = analytic_profile(siv_params, sin2_pulse(5.0))
    assert bounds.simplified_bound(long) == pytest.approx(
        bounds.e_max(long), rel=1e-6)


def test_fidelity_limits():
    assert bounds.fidelity(0.9, 0.5, 1.0, 0.0) == pytest.approx(math.exp(-0.5))
    assert bounds.fidelity(0.9, 0.5, 1.0, 1.0) == pytest.approx(
        0.81 * math.exp(-0.5))


def test_fidelity_benchmark_value():
    val = bounds.fidelity(0.988, ghz(0.01), 0.44, 1.0)
    assert val == pytest.approx(0.9495, abs=2e-4)


def test_fidelity_validation():
    with pytest.raises(ValidationError):
        bounds.fidelity(0.9, 0.0, 1.0, 1.5)
    with pytest.raises(ValidationError):
        bounds.fidelity(-0.1, 0.0, 1.0, 0.5)


def test_fidelity_monotone_in_E():
    es = np.linspace(0, 1, 21)
    vals = [bounds.fidelity(e, 0.1, 1.0, 0.7) for e in es]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_fidelity_between_worst_and_free_decay():
    E, g2, T = 0.9, 0.2, 0.8
    worst = bounds.fidelity(E, g2, T, 1.0)
    top = math.exp(-g2 * T)
    for a in np.linspace(0, 1, 11):
        val = bounds.fidelity(E, g2, T, a)
        assert worst - 1e-12 <= val <= top + 1e-12


def test_avg_fidelity_limits():
    assert bounds.avg_fidelity(1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert bounds.avg_fidelity(0.0, 0.0, 1.0) == pytest.approx(1.0 / 3.0)


def test_avg_fidelity_matches_monte_carlo():
    rng = np.random.default_rng(123)
    E, g2, T = 0.913, ghz(0.01), 0.44
    samples = rng.random(100_000)
    mc = float(np.mean([(E * a + 1 - a) ** 2 for a in samples])) * math.exp(-g2 * T)
    assert abs(mc - bounds.avg_fidelity(E, g2, T)) < 1e-3


def test_slow_pulse_bound_values():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    assert bounds.slow_pulse_bound(p) == pytest.approx(48.0 / 49.0, rel=1e-12)
    lossy = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(3e4),
                          gamma_tilde=ghz(0.1))
    assert bounds.slow_pulse_bound(lossy) < 1e-3
    strong = EmitterParams(g=ghz(600), kappa=ghz(30), gamma_tilde=ghz(0.001))
    assert bounds.slow_pulse_bound(strong) == pytest.approx(1.0, abs=1e-5)


def test_slow_pulse_bound_is_the_cooperativity_form():
    # kappa/k * 4 g^2 / (4 g^2 + gamma_tilde k) is kappa/k * 2C/(1+2C), and it
    # stays defined at gamma_tilde = 0, where C is not
    rng = np.random.default_rng(3)
    for g, kappa, kappa_tilde, gamma_tilde in 10.0 ** rng.uniform(-3, 3, (500, 4)):
        p = EmitterParams(g=g, kappa=kappa, kappa_tilde=kappa_tilde,
                          gamma_tilde=gamma_tilde)
        C = cooperativity(p)
        want = kappa / (kappa + kappa_tilde) * 2.0 * C / (1.0 + 2.0 * C)
        assert abs(bounds.slow_pulse_bound(p) - want) <= 1e-14 * want
    lossless = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(3))
    assert bounds.slow_pulse_bound(lossless) == pytest.approx(30 / 33, rel=1e-15)


def test_worst_case_approaches_slow_bound_from_below(perfect_params):
    # with a perfect memory the worst-case fidelity climbs toward the
    # flat-pulse limit as the pulse stretches, never crossing it
    limit = bounds.slow_pulse_bound(perfect_params)
    prev = 0.0
    for T in (0.5, 1.0, 2.0, 5.0, 10.0):
        prof = analytic_profile(perfect_params, sin2_pulse(T))
        res = bounds.compute_bounds(perfect_params, prof)
        assert prev < res.F_worst < limit
        prev = res.F_worst


def test_compute_bounds_consistency(siv_params):
    prof = analytic_profile(siv_params, sin2_pulse(0.44))
    res = bounds.compute_bounds(siv_params, prof)
    assert res.F_worst == pytest.approx(
        res.E_max ** 2 * math.exp(-siv_params.Gamma2 * 0.44), rel=1e-12)
    assert res.F_worst <= res.F_avg <= 1.0
    assert res.E_max <= bounds.simplified_bound(prof) + 1e-12
    assert res.G_max == prof.G_max
