import math

import numpy as np
import pytest

from ramanpulse import (EmitterParams, Envelope, InitialState, ModelError,
                        RawRates, ValidationError, emitter_from_raw, ghz,
                        sin2_pulse)
from ramanpulse import bounds, verify
from ramanpulse.trajectory import (ClosedFormSolution, closed_form_trajectory,
                                   max_efficiency)
from ramanpulse.verify import (compare, integrate_nonhermitian,
                               lindblad_simulate)


@pytest.fixture(scope="module")
def synthesis(siv_params):
    pl = sin2_pulse(0.44)
    E = 0.99 * max_efficiency(siv_params, pl)
    grid = np.linspace(0.0, 0.44, 201)
    init = InitialState(0.6, 0.8)
    traj = closed_form_trajectory(siv_params, pl, E, init, grid)
    cf = ClosedFormSolution(siv_params, pl, E)
    return siv_params, pl, E, grid, init, traj, cf


def test_ode_reproduces_closed_form(synthesis):
    p, pl, E, grid, init, traj, cf = synthesis
    ode = integrate_nonhermitian(p, cf.Omega, init, grid)
    rep = compare(traj, ode)
    assert rep.passed
    assert max(rep.max_dev.values()) < 1e-8
    expected = E * math.exp(-p.Gamma2 * 0.44 / 2)
    assert abs(ode.lam[-1] / init.alpha0 - expected) / expected < 1e-6


def test_ode_norm_monotone(synthesis):
    p, pl, E, grid, init, traj, cf = synthesis
    ode = integrate_nonhermitian(p, cf.Omega, init, grid)
    norm = ode.norm()
    assert np.all(np.diff(norm) <= 1e-12)
    assert norm[0] == pytest.approx(1.0, abs=1e-12)
    assert all(v < 1e-7 for v in ode.err_est.values())


def test_ode_free_decay(siv_params):
    grid = np.linspace(0.0, 0.5, 51)
    sol = integrate_nonhermitian(siv_params, lambda t: 0.0,
                                 InitialState(1.0, 0.0), grid)
    assert np.max(np.abs(sol.zeta)) == 0.0
    assert np.max(np.abs(sol.eta)) == 0.0
    assert np.max(np.abs(sol.lam)) == 0.0
    assert np.max(np.abs(sol.alpha - np.exp(-siv_params.Gamma1 * grid / 2))) < 1e-10


def test_compare_flags_perturbed_drive(synthesis):
    p, pl, E, grid, init, traj, cf = synthesis
    ode = integrate_nonhermitian(p, lambda t: 1.01 * cf.Omega(t), init, grid)
    rep = compare(traj, ode)
    assert not rep.passed
    assert max(rep.max_dev.values()) > 1e-4


def test_compare_grid_mismatch(synthesis):
    p, pl, E, grid, init, traj, cf = synthesis
    ode = integrate_nonhermitian(p, cf.Omega, init, grid[:-1])
    with pytest.raises(ValidationError):
        compare(traj, ode)


def test_detuned_phase_matches_ode_oracle(siv_params):
    # phi(t) from the phase integral against the argument of the integrated
    # ground-state amplitude
    p = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                      gamma_tilde=siv_params.gamma_tilde,
                      Gamma1=siv_params.Gamma1, Gamma2=siv_params.Gamma2,
                      Delta=ghz(1.0))
    pl = sin2_pulse(0.44)
    E = 0.99 * max_efficiency(p, pl)
    grid = np.linspace(0.0, 0.44, 101)
    cf = ClosedFormSolution(p, pl, E)
    ode = integrate_nonhermitian(p, cf.Omega, InitialState(1.0, 0.0), grid)
    phi_ode = np.unwrap(np.angle(ode.alpha[1:]))
    from ramanpulse.depletion import phase_evolution
    phi = phase_evolution(p, pl, E, grid[1:])
    assert np.max(np.abs(phi_ode - phi)) < 1e-6


def test_lindblad_exact_without_decoherence():
    # no dissipation beyond the matched capture channel: the master equation
    # stays pure and must land exactly on the closed-form fidelity
    raw = RawRates()
    p = EmitterParams(g=ghz(6), kappa=ghz(30))
    pl = sin2_pulse(0.44)
    E = 0.99 * max_efficiency(p, pl)
    cf = ClosedFormSolution(p, pl, E)
    for a0sq in (1.0, 0.5):
        init = InitialState(math.sqrt(a0sq), math.sqrt(1 - a0sq))
        res = lindblad_simulate(raw, p, pl, cf.Omega, init)
        expected = (E * a0sq + 1 - a0sq) ** 2
        assert res.fidelity == pytest.approx(expected, abs=1e-9)
        assert res.marker_max < 1e-8
        assert res.trace_drift < 1e-9


def test_lindblad_single_excitation_closure(perfect_params):
    # excitation number cannot grow without upward ground-state transitions,
    # so truncation-stressed states stay empty
    raw = RawRates(gamma=ghz(0.1))
    pl = sin2_pulse(0.44)
    E = 0.999 * max_efficiency(perfect_params, pl)
    cf = ClosedFormSolution(perfect_params, pl, E)
    res = lindblad_simulate(raw, perfect_params, pl, cf.Omega,
                            InitialState(1.0, 0.0))
    assert res.marker_max < 1e-8
    closed = E ** 2
    assert res.fidelity >= closed - 1e-4


def _null_envelope(T):
    # g_v = 0: the virtual mode never couples, so nothing is captured
    zeros = lambda t: np.zeros_like(np.asarray(t, dtype=float))[()]
    return Envelope(T=T, f=zeros, df=zeros, d2f=zeros)


def test_lindblad_free_qubit_decay():
    # no drive and no envelope coupling: only ground-state decoherence acts,
    # with |1> dephasing-only so p0 decays as exp(-Gamma2 T)
    raw = RawRates(gamma_ph_1=ghz(0.007), gamma_0to1=ghz(0.01))
    p = emitter_from_raw(raw, g=ghz(6), kappa=ghz(30))
    T = 0.44
    a0sq = 0.3
    init = InitialState(math.sqrt(a0sq), math.sqrt(1 - a0sq))
    res = lindblad_simulate(raw, p, _null_envelope(T), lambda t: 0.0, init)
    expected = (1 - a0sq) ** 2 * math.exp(-p.Gamma2 * T)
    assert res.fidelity == pytest.approx(expected, abs=1e-9)


def test_lindblad_wrong_mode_photon_scores_zero():
    # with g_v = 0 every emitted photon leaves in a mode orthogonal to the
    # target; the capture jump returns emitter and cavity to |0;0c;0v>, but
    # that branch holds a photon and must not count as the target's vacuum
    raw = RawRates()
    p = EmitterParams(g=ghz(6), kappa=ghz(30))
    init = InitialState(0.6, 0.8)
    res = lindblad_simulate(raw, p, _null_envelope(0.44), lambda t: ghz(1),
                            init)
    assert res.fidelity == pytest.approx(abs(init.beta0) ** 4, abs=1e-9)
    assert res.fidelity_coherent == pytest.approx(res.fidelity, abs=1e-12)


def test_lindblad_coherent_branch_matches_formula(siv_raw, siv_params,
                                                  optimal_sin2):
    # the no-jump branch of the master equation is the closed-form fidelity
    T = optimal_sin2.T
    E = 0.99 * max_efficiency(siv_params, optimal_sin2)
    cf = ClosedFormSolution(siv_params, optimal_sin2, E)
    for a0sq in (0.0, 0.5, 1.0):
        init = InitialState(math.sqrt(a0sq), math.sqrt(1 - a0sq))
        res = lindblad_simulate(siv_raw, siv_params, optimal_sin2, cf.Omega,
                                init)
        formula = bounds.fidelity(E, siv_params.Gamma2, T, a0sq)
        assert res.fidelity_coherent == pytest.approx(formula, abs=1e-9)


def test_lindblad_agreement_at_gentle_rates():
    # a tenth of the benchmark decoherence keeps jump recycling below the
    # 1e-3 level, and the bound is respected
    raw = RawRates(gamma=ghz(0.01), gamma_1to0=ghz(0.001),
                   gamma_0to1=ghz(0.001))
    p = emitter_from_raw(raw, g=ghz(6), kappa=ghz(30))
    pl = sin2_pulse(0.44)
    E_max = max_efficiency(p, pl)
    E = 0.99 * E_max
    cf = ClosedFormSolution(p, pl, E)
    for a0sq in (1.0, 0.0):
        init = InitialState(math.sqrt(a0sq), math.sqrt(1 - a0sq))
        res = lindblad_simulate(raw, p, pl, cf.Omega, init)
        formula = bounds.fidelity(E, p.Gamma2, 0.44, a0sq)
        assert abs(res.fidelity - formula) < 1e-3
        assert res.fidelity <= bounds.fidelity(E_max, p.Gamma2, 0.44, a0sq) + 1e-3


def test_lindblad_density_matrix_diagnostics(siv_raw, siv_params):
    pl = sin2_pulse(0.44)
    E = 0.99 * max_efficiency(siv_params, pl)
    cf = ClosedFormSolution(siv_params, pl, E)
    res = lindblad_simulate(siv_raw, siv_params, pl, cf.Omega,
                            InitialState(1.0, 0.0))
    assert res.trace_drift < 1e-6
    assert res.herm_dev < 1e-10
    assert res.rho.min_eigenvalue() > -1e-8
    assert res.rho.trace() == pytest.approx(1.0, abs=1e-6)
    # captured photon dominates the final state
    assert res.rho.population("0;0c;1v") > 0.9


def test_lindblad_forbidden_tolerance(siv_raw, siv_params):
    pl = sin2_pulse(0.44)
    E = 0.99 * max_efficiency(siv_params, pl)
    cf = ClosedFormSolution(siv_params, pl, E)
    with pytest.raises(ModelError):
        lindblad_simulate(siv_raw, siv_params, pl, cf.Omega,
                          InitialState(1.0, 0.0), forbidden_tol=1e-9)


def test_lindblad_rejects_inconsistent_rates(siv_params):
    raw = RawRates(gamma=ghz(0.2))  # gamma_tilde mismatch
    pl = sin2_pulse(0.44)
    with pytest.raises(ValidationError):
        lindblad_simulate(raw, siv_params, pl, lambda t: 0.0,
                          InitialState(1.0, 0.0))


def test_static_dissipators_drop_zero_operators():
    ops = verify._static_dissipators(
        RawRates(gamma=ghz(0.1), gamma_1to0=ghz(0.01), gamma_0to1=ghz(0.01)))
    assert len(ops) == 3
    assert all(np.any(op != 0.0) for op in ops)
    ops = verify._static_dissipators(RawRates(gamma=ghz(0.1), xi=math.pi / 4))
    assert len(ops) == 2
    assert all(np.any(op != 0.0) for op in ops)


def test_precomputed_generator_matches_direct_assembly(siv_raw):
    # K = -i H - (1/2)(M_static + L0^dag L0), assembled term by term here
    p = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(0.2),
                      gamma_tilde=ghz(0.1), Delta=ghz(0.7))
    static_L = verify._static_dissipators(siv_raw)
    M_static = sum(L.conj().T @ L for L in static_L)
    parts = verify._k_parts(p, static_L)
    dag = lambda op: op.conj().T  # noqa: E731
    c_dag_a = dag(verify.OP_C) @ verify.OP_A
    sqrt_kappa = math.sqrt(p.kappa)
    rng = np.random.default_rng(3)
    for _ in range(20):
        om, gv = rng.normal(scale=[30.0, 30.0, 300.0, 300.0]).view(complex)
        H = (p.Delta * verify._P_E + p.g * (verify._OP_CAV + dag(verify._OP_CAV))
             + om * verify._OP_DRIVE + np.conj(om) * dag(verify._OP_DRIVE)
             + 0.5j * sqrt_kappa * (np.conj(gv) * c_dag_a - gv * dag(c_dag_a)))
        L0 = np.conj(gv) * verify.OP_A + sqrt_kappa * verify.OP_C
        direct = -1j * H - 0.5 * (M_static + dag(L0) @ L0)
        K = verify._k_matrix(parts, complex(om), complex(gv))
        assert np.max(np.abs(K - direct)) <= 1e-14 * np.max(np.abs(direct))
