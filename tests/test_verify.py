import math

import numpy as np
import pytest

from scipy import sparse
from scipy.integrate import DOP853, solve_ivp

from ramanpulse import (CosineSeriesPulse, EmitterParams, Envelope,
                        InitialState, ModelError, NumericError, RawRates,
                        ValidationError, emitter_from_raw, ghz, sin2_pulse)
from ramanpulse import bounds, depletion, verify
from ramanpulse.trajectory import (ClosedFormSolution, closed_form_trajectory,
                                   max_efficiency, virtual_coupling)
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
    assert abs(ode.fidelity(init) - traj.fidelity(init)) < 1e-8


def test_ode_norm_monotone(synthesis):
    p, pl, E, grid, init, traj, cf = synthesis
    ode = integrate_nonhermitian(p, cf.Omega, init, grid)
    norm = ode.norm()
    assert np.all(np.diff(norm) <= 1e-12)
    assert norm[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("pl", [
    pytest.param(sin2_pulse(0.44), id="sin2"),
    pytest.param(CosineSeriesPulse(0.5, (1.0, 0.1), chirp=2.5).normalize(), id="chirped"),
    pytest.param(CosineSeriesPulse(0.344942025959689, (1, -0.2, 0.11)).normalize(),
                 id="L3")])
def test_ode_matches_a_tighter_reference(siv_params, pl):
    # the oracle's own error: scipy's DOP853 on the same equations at
    # rtol 1e-13, atol 1e-15, from the state itself rather than a unit solve
    p = siv_params
    cf = ClosedFormSolution(p, pl, 0.99 * max_efficiency(p, pl))
    grid = np.linspace(0.0, pl.T, 401)
    init = InitialState(0.6, 0.8j)

    def rhs(t, y):
        om = complex(cf.Omega(t))
        a, b, z, e, m = y
        return [-0.5 * p.Gamma1 * a + om.conjugate() * z, -0.5 * p.Gamma2 * b,
                (-1j * p.Delta - 0.5 * p.gamma_tilde) * z - p.g * e - om * a,
                -0.5 * (p.Gamma2 + p.kappa + p.kappa_tilde) * e + p.g * z,
                -p.Gamma2 * m.real + p.kappa * abs(e) ** 2]

    ref = solve_ivp(rhs, (0.0, pl.T), np.array([init.alpha0, init.beta0, 0, 0, 0],
                                                dtype=complex),
                    method="DOP853", rtol=1e-13, atol=1e-15, t_eval=grid)
    assert ref.success
    a, b, z, e, m = ref.y
    ode = integrate_nonhermitian(p, cf.Omega, init, grid)
    for got, want in ((ode.alpha, a), (ode.beta, b), (ode.zeta, z), (ode.eta, e),
                      (ode.lam, np.sqrt(np.maximum(m.real, 0.0)))):
        assert np.max(np.abs(got - want)) <= 1e-9


_BAD_GRIDS = {"0-d": np.array(0.2), "2-d": np.zeros((2, 2)),
              "unsorted": [0.0, 0.3, 0.2, 0.44], "NaN": [0.0, np.nan, 0.44],
              "inf": [0.0, 0.2, np.inf], "text": ["a", "b"]}


@pytest.mark.parametrize("fn, grid", [
    *(pytest.param(fn, grid, id=f"{fn} {key}")
      for fn in ("ode", "closed", "quad", "phase")
      for key, grid in _BAD_GRIDS.items()),
    pytest.param("ode", [], id="ode empty"),
    pytest.param("ode", [0.2], id="ode one point"),
    pytest.param("ode", [0.0, 0.2, 0.2, 0.44], id="ode repeated time"),
    pytest.param("quad", [], id="quad empty")])
def test_bad_time_grid_is_a_validation_error(synthesis, fn, grid):
    # one grid check (1-d, finite, sorted) in front of every sampler, plus
    # each one's own rule: two increasing times for the ODE, one for quad
    p, pl, E, _, init, _, cf = synthesis
    run = {"ode": lambda: integrate_nonhermitian(p, cf.Omega, init, grid),
           "closed": lambda: closed_form_trajectory(p, pl, E, init, grid),
           "quad": lambda: depletion.integrated_depletion_numeric(p, pl, grid),
           "phase": lambda: depletion.phase_evolution(p, pl, E, grid)}[fn]
    with pytest.raises(ValidationError):
        run()


def test_ode_free_decay(siv_params):
    grid = np.linspace(0.0, 0.5, 51)
    sol = integrate_nonhermitian(siv_params, lambda t: 0.0,
                                 InitialState(1.0, 0.0), grid)
    assert np.max(np.abs(sol.zeta)) == 0.0
    assert np.max(np.abs(sol.eta)) == 0.0
    assert np.max(np.abs(sol.lam)) == 0.0
    assert np.max(np.abs(sol.alpha - np.exp(-siv_params.Gamma1 * grid / 2))) < 1e-10


@pytest.mark.parametrize("nan_from", [0.0, 0.2])
def test_nan_drive_is_a_numeric_error(synthesis, siv_raw, nan_from):
    # a NaN error estimate rejects the step until it falls below the float
    # spacing; a NaN at the start fails the first step
    p, pl, E, grid, init, _, cf = synthesis
    drive = lambda t: np.where(t < nan_from, cf.Omega(t), np.nan)  # noqa: E731
    with pytest.raises(NumericError):
        integrate_nonhermitian(p, drive, init, grid)
    with pytest.raises(NumericError):
        lindblad_simulate(siv_raw, p, pl, drive, init)


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


def test_generic_envelope_matches_the_series_through_both_oracles(siv_raw,
                                                                  siv_params):
    # the series pulse's own callables as a generic Envelope: G and the
    # phase come from Chebyshev series and int |v|^2 from quadrature, yet the
    # trajectory and the master equation read the series' values, at the
    # series' number of right-hand-side evaluations
    pl = CosineSeriesPulse(0.44, (1.0, -0.06), chirp=2.5).normalize()
    generic = Envelope(T=pl.T, f=pl.f, df=pl.df, d2f=pl.d2f, theta=pl.theta,
                       dtheta=pl.dtheta, d2theta=pl.d2theta)
    E = 0.99 * max_efficiency(siv_params, pl)
    init, grid = InitialState(1.0), np.linspace(0.0, pl.T, 201)
    runs = []
    for env in (pl, generic):
        cf = ClosedFormSolution(siv_params, env, E)
        runs.append((cf.trajectory(init, grid),
                     lindblad_simulate(siv_raw, siv_params, env, cf.Omega, init)))
    (traj, lind), (traj_g, lind_g) = runs
    assert max(traj_g.max_dev(traj).values()) <= 1e-12
    assert lind_g.fidelity == pytest.approx(lind.fidelity, abs=1e-12)
    assert lind_g.fidelity_coherent == pytest.approx(lind.fidelity_coherent,
                                                     abs=1e-12)
    assert abs(lind_g.nfev - lind.nfev) <= 0.01 * lind.nfev


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
    assert np.trace(res.rho.matrix).real == pytest.approx(1.0, abs=1e-6)
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


_EVERY_RATE = RawRates(gamma=ghz(0.1), xi=0.7, gamma_ph_e=ghz(0.03),
                       gamma_ph_1=ghz(0.02), gamma_1to0=ghz(0.01),
                       gamma_0to1=ghz(0.01), kappa_tilde=ghz(0.2))


@pytest.mark.parametrize("raw, jumps", [(None, 3), (_EVERY_RATE, 7), (RawRates(), 0)],
                         ids=["siv_raw", "every_rate", "no_static_jump"])
def test_precomputed_generator_matches_direct_assembly(siv_raw, raw, jumps):
    # the right-hand side assembled term by term here: K rho + rho K^dag with
    # K = -i H - (1/2)(M_static + L0^dag L0) and the static jumps on both
    # density blocks, L0 rho L0^dag on the total, and K psi on the no-jump
    # vectors
    raw = siv_raw if raw is None else raw
    p = EmitterParams(g=ghz(6), kappa=ghz(30), kappa_tilde=ghz(0.2),
                      gamma_tilde=ghz(0.1), Delta=ghz(0.7))
    static_L = verify._static_dissipators(raw)
    assert len(static_L) == jumps
    M_static = sum(L.conj().T @ L for L in static_L)
    S = verify._generator(raw, p)
    assert S.shape == (6 * 888, 888)
    dag = lambda op: op.conj().T  # noqa: E731
    c_dag_a = dag(verify.OP_C) @ verify.OP_A
    sqrt_kappa = math.sqrt(p.kappa)
    rng = np.random.default_rng(3)
    for _ in range(20):
        om, gv = rng.normal(scale=[30.0, 30.0, 300.0, 300.0]).view(complex)
        # three inputs of two blocks each, and two vectors
        rho = rng.normal(size=(3, 2, 12, 12, 2)).view(complex)[..., 0]
        rho = rho + rho.conj().swapaxes(-1, -2)
        psi = rng.normal(size=(12, 2, 2)).view(complex)[..., 0]
        H = (p.Delta * verify._P_E + p.g * (verify._OP_CAV + dag(verify._OP_CAV))
             + om * verify._OP_DRIVE + np.conj(om) * dag(verify._OP_DRIVE)
             + 0.5j * sqrt_kappa * (np.conj(gv) * c_dag_a - gv * dag(c_dag_a)))
        L0 = np.conj(gv) * verify.OP_A + sqrt_kappa * verify.OP_C
        K = -1j * H - 0.5 * (M_static + dag(L0) @ L0)
        direct = K @ rho + rho @ dag(K)
        direct[:, verify._TOTAL] += L0 @ rho[:, verify._TOTAL] @ dag(L0)
        for L in static_L:
            direct += L @ rho @ dag(L)
        w = np.array([1.0, om, np.conj(om), gv, np.conj(gv), abs(gv) ** 2])
        y = np.concatenate([np.moveaxis(rho, 0, -1).reshape(-1), psi.reshape(-1)])
        product = w @ (S @ y).reshape(w.size, -1)
        got = np.moveaxis(product[:verify._N_RHO].reshape(2, 12, 12, 3), -1, 0)
        assert np.max(np.abs(got - direct)) <= 1e-14 * np.max(np.abs(direct))
        got = product[verify._N_RHO:].reshape(12, 2)
        assert np.max(np.abs(got - K @ psi)) <= 1e-14 * np.max(np.abs(K @ psi))


def _attempts(calls):
    """Start, end and acceptance of each attempted step, from the drive
    samples of one _dop853 run (the first, at t = 0, is left out)."""
    c1 = verify.DOP853.C[1]
    starts = np.array([(t[0] - c1 * t[10]) / (1.0 - c1) for t in calls[1:]])
    ends = np.array([t[10] for t in calls[1:]])
    # an attempt from the same start as the one after it was rejected
    accepted = np.append(np.diff(starts) > 1e-12 * ends[-1], True)
    return starts, ends, accepted


def _weights(p, env, Omega):
    """The six weights of the Liouvillian's row blocks, as lindblad_simulate
    forms them."""
    def weights(t):
        om = np.broadcast_to(np.asarray(Omega(t), dtype=complex), t.shape)
        gv = virtual_coupling(env, t, kappa=p.kappa)
        return np.stack([np.ones_like(om), om, om.conj(), gv, gv.conj(),
                         abs(gv) ** 2], axis=1)
    return weights


def _rho0(init):
    """|psi0><psi0| with psi0 = alpha0 |1;0c;0v> + beta0 |0;0c;0v>, and the
    target alpha0 |0;0c;1v> + beta0 |0;0c;0v>."""
    i1, i0, i_tgt = (verify._flat_index(m, 0, nv)
                     for m, nv in (("1", 0), ("0", 0), ("0", 1)))
    psi0, psi_tgt = np.zeros((2, 12), dtype=complex)
    psi0[[i1, i0]] = psi_tgt[[i_tgt, i0]] = init.alpha0, init.beta0
    return np.outer(psi0, psi0.conj()), psi_tgt


def _parts(p_raw, p):
    """Each weight's operator on one input's two density blocks and on one
    no-jump vector, read off the channel's operator S."""
    S = verify._generator(p_raw, p)
    size = S.shape[1]
    rho, psi = np.arange(0, verify._N_RHO, 3), verify._N_RHO + np.arange(0, 24, 2)
    return [(S_k[rho][:, rho], S_k[psi][:, psi])
            for S_k in (S[k * size:(k + 1) * size] for k in range(6))]


def _one_state(p_raw, p, init):
    """One state in the channel's layout: the weight-k operators on its two
    density blocks and its no-jump vector, and its start."""
    S = sparse.vstack([sparse.block_diag(part) for part in _parts(p_raw, p)],
                      format="csr")
    rho0, psi_tgt = _rho0(init)
    psi0 = np.zeros(12, dtype=complex)
    psi0[[verify._flat_index("1", 0, 0), verify._flat_index("0", 0, 0)]] = (
        init.alpha0, init.beta0)
    return S, np.concatenate([np.tile(rho0.reshape(-1), 2), psi0]), psi_tgt


def _three_blocks(p_raw, p):
    """The weight-k operators on a state held as three density blocks: the
    channel's two and the no-jump branch, K rho + rho K^dag."""
    parts, eye = _parts(p_raw, p), sparse.identity(12)
    # rho K^dag at weight k: K^dag's weight-k part is the conjugate of K's
    # part at the conjugate weight
    conj = (0, 2, 1, 4, 3, 5)
    return sparse.vstack([
        sparse.block_diag((L, sparse.kron(K, eye)
                           + sparse.kron(eye, parts[conj[k]][1].conj())))
        for k, (L, K) in enumerate(parts)], format="csr")


@pytest.mark.parametrize("Delta_GHz, chirp", [(0.0, 0.0), (1.0, 0.0), (0.0, 2.5)],
                         ids=["resonant", "detuned", "chirped"])
def test_step_loop_matches_scipy_dop853(siv_raw, Delta_GHz, chirp):
    # both oracles against solve_ivp at the same tolerances, with scalar drive
    # samples and scipy's dense output at the output times
    p = emitter_from_raw(siv_raw, g=ghz(6), kappa=ghz(30), Delta=ghz(Delta_GHz))
    pl = CosineSeriesPulse(0.44, (1.0, -0.06), chirp=chirp).normalize()
    cf = ClosedFormSolution(p, pl, 0.99 * max_efficiency(p, pl))
    init = InitialState(0.6, 0.8j)
    res = lindblad_simulate(siv_raw, p, pl, cf.Omega, init)

    S, y0, psi_tgt = _one_state(siv_raw, p, init)

    def rhs(t, y):
        om = complex(cf.Omega(t))
        gv = complex(virtual_coupling(pl, t, kappa=p.kappa))
        w = np.array([1.0, om, np.conj(om), gv, np.conj(gv), abs(gv) ** 2])
        return w @ (S @ y).reshape(w.size, -1)

    ref = solve_ivp(rhs, (0.0, pl.T), y0, method="DOP853",
                    t_eval=np.linspace(0.0, pl.T, 41), rtol=1e-8, atol=1e-11,
                    max_step=pl.T / 64.0)
    assert ref.success
    rho, psi = ref.y[:288, -1].reshape(2, 12, 12), ref.y[288:, -1]
    F = np.real(psi_tgt.conj() @ rho[verify._IN_MODE] @ psi_tgt)
    assert abs(res.fidelity - F) <= 1e-10
    assert abs(res.fidelity_coherent - abs(psi_tgt.conj() @ psi) ** 2) <= 1e-10

    def amp_rhs(t, y):
        a, b, z, e, m = y
        om = complex(cf.Omega(t))
        return [-0.5 * p.Gamma1 * a + np.conj(om) * z, -0.5 * p.Gamma2 * b,
                (-1j * p.Delta - 0.5 * p.gamma_tilde) * z - p.g * e - om * a,
                -0.5 * (p.Gamma2 + p.kappa + p.kappa_tilde) * e + p.g * z,
                -p.Gamma2 * m.real + p.kappa * abs(e) ** 2]

    grid = np.linspace(0.0, pl.T, 101)
    ode = integrate_nonhermitian(p, cf.Omega, init, grid)
    y0 = np.array([init.alpha0, init.beta0, 0.0, 0.0, 0.0], dtype=complex)
    ref = solve_ivp(amp_rhs, (0.0, pl.T), y0, method="DOP853", t_eval=grid,
                    rtol=1e-10, atol=1e-12)
    assert ref.success
    a, b, z, e, m = ref.y
    for got, want in ((ode.alpha, a), (ode.beta, b), (ode.zeta, z), (ode.eta, e),
                      (abs(ode.lam) ** 2, m.real)):
        assert np.max(np.abs(got - want)) <= 1e-9


def test_drive_sampled_once_per_attempted_step(monkeypatch, siv_raw, siv_params,
                                               optimal_sin2):
    T = optimal_sin2.T
    cf = ClosedFormSolution(siv_params, optimal_sin2,
                            0.99 * max_efficiency(siv_params, optimal_sin2))
    calls, gv_calls = [], []
    real_gv = verify.virtual_coupling
    monkeypatch.setattr(verify, "virtual_coupling", lambda env, t, kappa:
                        gv_calls.append(t) or real_gv(env, t, kappa=kappa))
    init = InitialState(math.sqrt(0.5), math.sqrt(0.5))
    res = lindblad_simulate(siv_raw, siv_params, optimal_sin2,
                            lambda t: calls.append(t) or cf.Omega(t), init)
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 for t in calls)
    # one sample at t = 0, then one per attempted step over its 11 new stage
    # times (the 11th is its end) and the 3 of the dense output
    assert np.array_equal(calls[0], [0.0])
    assert all(t.size == 14 and 0.0 < t[0] and t[10] <= T for t in calls[1:])
    assert len(gv_calls) == len(calls)
    starts, ends, accepted = _attempts(calls)
    # each attempt makes 12 right-hand-side evaluations, and each accepted
    # step holding checkpoints before T 3 more; the last step ends at T
    inner = np.linspace(0.0, T, 41)[1:-1]
    holding = sum(np.any((inner > s) & (inner <= e))
                  for s, e in zip(starts[accepted], ends[accepted]))
    assert res.nfev == 1 + 12 * (len(calls) - 1) + 3 * holding
    assert ends[-1] == T

    # the same drive on this one state alone: Hairer's first guess is too
    # long and is rejected twice. An attempt from the same start as the one
    # before retries a rejected step: it is shorter, and the step after it
    # is no longer
    S, y0, _ = _one_state(siv_raw, siv_params, init)
    weights = _weights(siv_params, optimal_sin2, cf.Omega)
    calls[:] = []
    verify._dop853(lambda t: calls.append(t) or weights(t),
                   lambda w, y: w @ (S @ y).reshape(w.size, -1), y0,
                   np.linspace(0.0, T, 41), T / 64.0, 1e-8, 1e-11)
    starts, ends, accepted = _attempts(calls)
    steps = ends - starts
    retried = np.flatnonzero(~accepted)
    assert retried.size >= 1
    for i in retried:
        assert steps[i + 1] <= steps[i]
        assert steps[i + 2] <= steps[i + 1] * (1 + 1e-9)


_CHANNEL_STATES = (InitialState(0.0, 1.0), InitialState(1.0, 0.0),
                   InitialState(0.6, 0.8j),
                   InitialState(0.8 * np.exp(0.3j), 0.6 * np.exp(-2.1j)))


@pytest.fixture(scope="module")
def channel_drive(siv_params, optimal_sin2):
    E = 0.99 * max_efficiency(siv_params, optimal_sin2)
    return optimal_sin2, ClosedFormSolution(siv_params, optimal_sin2, E)


def test_channel_matches_one_state_solves(siv_raw, siv_params, channel_drive):
    # every state read from the one channel solve against a solve of that
    # state alone, on the same stepper and tolerances
    pl, cf = channel_drive
    T = pl.T
    weights = _weights(siv_params, pl, cf.Omega)
    markers = list(verify._MARKER_INDICES)
    for init in _CHANNEL_STATES:
        res = lindblad_simulate(siv_raw, siv_params, pl, cf.Omega, init)
        S, y0, psi_tgt = _one_state(siv_raw, siv_params, init)
        states, _ = verify._dop853(weights,
                                   lambda w, y: w @ (S @ y).reshape(w.size, -1), y0,
                                   np.linspace(0.0, T, 41), T / 64.0, 1e-8, 1e-11)
        rho = states[:, :288].reshape(-1, 2, 12, 12)
        total = rho[:, verify._TOTAL]
        diag = np.einsum("kii->ki", total).real
        marker = np.max(diag[:, markers].sum(axis=1))
        drift = np.max(np.abs(diag.sum(axis=1) - 1.0))
        F = np.real(psi_tgt.conj() @ rho[-1, verify._IN_MODE] @ psi_tgt)
        F_coherent = abs(psi_tgt.conj() @ states[-1, 288:]) ** 2
        assert abs(res.fidelity - F) <= 1e-12
        assert abs(res.fidelity_coherent - F_coherent) <= 1e-12
        assert abs(res.marker_max - marker) <= 1e-12
        assert abs(res.trace_drift - drift) <= 1e-12
        assert np.max(np.abs(res.rho.matrix - total[-1])) <= 1e-12


def test_states_of_one_drive_share_one_solve(monkeypatch, siv_raw, siv_params,
                                             optimal_sin2):
    E = 0.99 * max_efficiency(siv_params, optimal_sin2)
    counts = {"_dop853": 0}
    for name in counts:
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real, name=name:
                            counts.__setitem__(name, counts[name] + 1) or real(*a))
    runs = []
    for _ in range(2):
        cf = ClosedFormSolution(siv_params, optimal_sin2, E)
        runs.append([lindblad_simulate(siv_raw, siv_params, optimal_sin2, cf.Omega,
                                       InitialState(math.sqrt(a), math.sqrt(1 - a)))
                     for a in (0.0, 0.5, 1.0)])
        # three states on one bound Omega: one solve; a new
        # ClosedFormSolution solves again
        assert counts == {"_dop853": len(runs)}
    assert all(r.nfev == runs[0][0].nfev for r in runs[0])
    # the same numbers in the opposite order, from a fresh solve
    cf = ClosedFormSolution(siv_params, optimal_sin2, E)
    backwards = [lindblad_simulate(siv_raw, siv_params, optimal_sin2, cf.Omega,
                                   InitialState(math.sqrt(a), math.sqrt(1 - a)))
                 for a in (1.0, 0.5, 0.0)][::-1]
    assert counts["_dop853"] == 3
    for first, again, other in zip(runs[0], runs[1], backwards):
        for r in (again, other):
            assert (r.fidelity, r.fidelity_coherent, r.marker_max, r.trace_drift,
                    r.herm_dev, r.nfev) == (first.fidelity, first.fidelity_coherent,
                                            first.marker_max, first.trace_drift,
                                            first.herm_dev, first.nfev)
            assert np.array_equal(r.rho.matrix, first.rho.matrix)


def test_drives_on_one_emitter_build_one_operator(siv_raw, siv_params, optimal_sin2,
                                                  perfect_params):
    # the channel's operator depends on the emitter alone: two drives on one
    # emitter build it once, another emitter builds its own
    verify._generator.cache_clear()
    init = InitialState(0.6, 0.8)
    for p_raw, p, builds in ((siv_raw, siv_params, 1), (siv_raw, siv_params, 1),
                             (RawRates(gamma=ghz(0.1)), perfect_params, 2)):
        cf = ClosedFormSolution(p, optimal_sin2, 0.99 * max_efficiency(p, optimal_sin2))
        lindblad_simulate(p_raw, p, optimal_sin2, cf.Omega, init)
        assert verify._generator.cache_info().misses == builds


# the L=3 optimum of the full-grid search
_L3 = (0.344942025959689, (1.0, -0.2, 0.11))


@pytest.mark.parametrize("pl", [None, CosineSeriesPulse(*_L3).normalize(),
                                CosineSeriesPulse(*_L3, chirp=2.5).normalize()],
                         ids=["L1", "L3", "chirped L3"])
def test_coherent_fidelity_matches_three_block_reference(siv_raw, siv_params,
                                                         optimal_sin2, pl):
    # fidelity_coherent read from the no-jump vectors against the no-jump
    # density block of a one-state solve in three blocks at tighter
    # tolerances and steps, on C5's states
    pl = optimal_sin2 if pl is None else pl
    T = pl.T
    cf = ClosedFormSolution(siv_params, pl, 0.99 * max_efficiency(siv_params, pl))
    S = _three_blocks(siv_raw, siv_params)
    weights = _weights(siv_params, pl, cf.Omega)
    for a0sq in (0.0, 0.5, 1.0):
        init = InitialState(math.sqrt(a0sq), math.sqrt(1 - a0sq))
        res = lindblad_simulate(siv_raw, siv_params, pl, cf.Omega, init)
        rho0, psi_tgt = _rho0(init)
        states, _ = verify._dop853(weights,
                                   lambda w, y: w @ (S @ y).reshape(w.size, -1),
                                   np.tile(rho0.reshape(-1), 3), np.array([0.0, T]),
                                   T / 256.0, 1e-12, 1e-15)
        no_jump = states[-1].reshape(3, 12, 12)[2]
        assert abs(res.fidelity_coherent
                   - np.real(psi_tgt.conj() @ no_jump @ psi_tgt)) <= 1e-10


def test_failed_solve_is_not_kept(monkeypatch, siv_raw, synthesis):
    p, pl, E, grid, init, _, cf = synthesis
    drive = lambda t: np.where(t < 0.2, cf.Omega(t), np.nan)  # noqa: E731
    calls = []
    real = verify._dop853
    monkeypatch.setattr(verify, "_dop853", lambda *a: calls.append(1) or real(*a))
    for _ in range(2):
        with pytest.raises(NumericError):
            lindblad_simulate(siv_raw, p, pl, drive, init)
        with pytest.raises(NumericError):
            integrate_nonhermitian(p, drive, init, grid)
    # each call solved again: one channel solve, and the tight amplitude pass
    assert len(calls) == 4


def test_each_oracle_keeps_one_solve(monkeypatch, siv_raw, synthesis):
    # one cached entry per oracle: a second drive evicts the first, so the
    # first drive solves again on its third call
    p, pl, E, grid, init, _, _ = synthesis
    first, second = (ClosedFormSolution(p, pl, E).Omega for _ in range(2))
    calls = []
    real = verify._dop853
    monkeypatch.setattr(verify, "_dop853", lambda *a: calls.append(1) or real(*a))
    for oracle in (lambda drive: lindblad_simulate(siv_raw, p, pl, drive, init),
                   lambda drive: integrate_nonhermitian(p, drive, init, grid)):
        for drive, solves in ((first, 1), (first, 0), (second, 1), (first, 1)):
            del calls[:]
            oracle(drive)
            assert len(calls) == solves


def test_amplitudes_scale_one_unit_solve(monkeypatch, synthesis):
    p, pl, E, grid, _, _, cf = synthesis
    calls = []
    real = verify._dop853
    monkeypatch.setattr(verify, "_dop853", lambda *a: calls.append(1) or real(*a))
    runs = [integrate_nonhermitian(p, cf.Omega, init, grid) for init in _CHANNEL_STATES]
    assert len(calls) == 1  # one unit solve serves every state
    # another grid is another solve
    half = integrate_nonhermitian(p, cf.Omega, _CHANNEL_STATES[2], grid[::2])
    assert len(calls) == 2 and half.alpha.shape == grid[::2].shape
    monkeypatch.setattr(verify, "_dop853", real)
    for init, ode in zip(_CHANNEL_STATES, runs):
        # a direct solve of this state, as the oracle solved before one unit
        # solve served every state
        y0 = np.array([init.alpha0, init.beta0, 0, 0, 0], dtype=complex)
        y, _ = verify._dop853(lambda t: verify._sample(cf.Omega, t),
                              lambda om, y: np.array([
                                  -0.5 * p.Gamma1 * y[0] + np.conj(om) * y[2],
                                  -0.5 * p.Gamma2 * y[1],
                                  (-1j * p.Delta - 0.5 * p.gamma_tilde) * y[2]
                                  - p.g * y[3] - om * y[0],
                                  -0.5 * (p.Gamma2 + p.kappa + p.kappa_tilde) * y[3]
                                  + p.g * y[2],
                                  -p.Gamma2 * y[4].real + p.kappa * abs(y[3]) ** 2]),
                              y0, grid, np.inf, 1e-10, 1e-12)
        a, b, z, e, m = y.T
        phase = init.alpha0 / abs(init.alpha0) if init.alpha0 != 0 else 1.0
        for got, want in ((ode.alpha, a), (ode.beta, b), (ode.zeta, z), (ode.eta, e),
                          (ode.lam, phase * np.sqrt(np.maximum(m.real, 0.0)))):
            assert np.max(np.abs(got - want)) <= 1e-9
        assert ode.nfev == runs[0].nfev
    dark = runs[0]
    for amp in (dark.alpha, dark.zeta, dark.eta, dark.lam):
        assert np.all(amp == 0.0)


def test_bloch_average_reads_the_formula(siv_raw, siv_params, channel_drive):
    # the Pauli-eigenstate means of the channel against the closed-form
    # Bloch average: exact on the no-jump branch, the total under the bound
    pl, cf = channel_drive
    F, F_coherent = verify.lindblad_bloch_average(siv_raw, siv_params, pl, cf.Omega)
    T, G2 = pl.T, siv_params.Gamma2
    assert abs(F_coherent - bounds.avg_fidelity(cf.E, G2, T)) <= 1e-9
    assert F >= F_coherent - 1e-8
    assert F <= bounds.avg_fidelity(cf.E_max, G2, T) + 1e-3
    means = [np.mean([getattr(lindblad_simulate(siv_raw, siv_params, pl, cf.Omega, s),
                              name) for s in verify.PAULI_STATES])
             for name in ("fidelity", "fidelity_coherent")]
    assert means == [F, F_coherent]


def test_dense_output_between_steps():
    # interior times are read from the dense output and leave the steps as
    # they are: two times 1e-15 apart, several inside one step, and the end
    # state is the one of a run without interior times
    calls = []
    weights = lambda t: calls.append(t) or np.ones(t.size)  # noqa: E731
    rhs = lambda w, y: -w * y  # noqa: E731
    y0 = np.array([1.0, 0.5j])
    times = np.array([0.0, 0.3, 1.0, 1.0 + 1e-15, 1.2, 1.21, 1.22, 1.23, 2.0])
    plain, n_plain = verify._dop853(weights, rhs, y0, times[[0, -1]], 0.5, 1e-10, 1e-12)
    plain_calls, calls[:] = calls[:], []
    dense, n_dense = verify._dop853(weights, rhs, y0, times, 0.5, 1e-10, 1e-12)
    assert len(calls) == len(plain_calls)
    assert all(np.array_equal(a, b) for a, b in zip(calls, plain_calls))
    assert np.max(np.abs(dense - np.exp(-times)[:, None] * y0)) < 1e-10
    assert calls[-1][10] == times[-1]
    assert np.array_equal(dense[-1], plain[-1])
    # three extra stages per step holding interior times, fewer such steps
    # than interior times
    assert (n_dense - n_plain) % 3 == 0
    assert 0 < (n_dense - n_plain) // 3 < times.size - 2


def test_dense_output_is_one_product_of_scipys_interpolant():
    # one DOP853 step of scipy on a complex linear ODE: its dense output is
    # the start plus the basis times the interpolant's rows on the 16 stages
    A = np.array([[-1.0 + 2.0j, 0.5], [-0.3j, -0.2 + 0.1j]])
    solver = DOP853(lambda t, y: A @ y, 0.0, np.array([1.0, 0.5j]), 2.0,
                    rtol=1e-8, atol=1e-10)
    solver.step()
    dense = solver.dense_output()
    h = solver.t - solver.t_old
    x = np.linspace(0.0, 1.0, 9)
    got = solver.y_old + (verify._basis(x) @ (h * verify._DENSE)) @ solver.K_extended
    want = dense(solver.t_old + x * h).T
    assert 0.0 < h < 2.0 and verify._DENSE.shape == (7, 16)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
