import math

import numpy as np
import pytest

from ramanpulse import (CosineSeriesPulse, DomainError, EmitterParams,
                        InitialState, PoleError, ValidationError, ghz,
                        sin2_pulse)
from ramanpulse import Envelope, depletion
from ramanpulse.trajectory import (ClosedFormSolution, closed_form_trajectory,
                                   max_efficiency, virtual_coupling)


@pytest.fixture(scope="module")
def setup(siv_params):
    pl = sin2_pulse(0.44)
    E_max = max_efficiency(siv_params, pl)
    grid = np.linspace(0.0, 0.44, 201)
    return siv_params, pl, E_max, grid


def test_initial_state_validation():
    InitialState(alpha0=0.6, beta0=0.8)
    with pytest.raises(ValidationError):
        InitialState(alpha0=1.0, beta0=0.5)


def test_photon_amplitude_end_value(setup):
    p, pl, E_max, grid = setup
    E = 0.9 * E_max
    init = InitialState(alpha0=0.6 + 0.0j, beta0=0.8)
    traj = closed_form_trajectory(p, pl, E, init, grid)
    expected = 0.6 * E * math.exp(-p.Gamma2 * 0.44 / 2)
    assert traj.lam[-1] == pytest.approx(expected, rel=1e-12)


def test_idle_qubit_stays_put():
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1))
    pl = sin2_pulse(0.44)
    grid = np.linspace(0, 0.44, 41)
    traj = closed_form_trajectory(p, pl, 0.9, InitialState(0.0, 1.0), grid)
    assert np.max(np.abs(traj.beta - 1.0)) < 1e-12
    assert traj.drive_irrelevant
    assert np.all(traj.Omega == 0.0)


def test_zero_efficiency_trajectory(setup):
    p, pl, _, grid = setup
    init = InitialState(1.0, 0.0)
    traj = closed_form_trajectory(p, pl, 0.0, init, grid)
    assert np.all(traj.eta == 0.0)
    assert np.all(traj.lam == 0.0)
    assert np.all(traj.zeta == 0.0)
    assert np.max(np.abs(traj.alpha - np.exp(-p.Gamma1 * grid / 2))) < 1e-12
    assert np.all(traj.Omega == 0.0)


def test_drive_independent_of_initial_state(setup):
    p, pl, E_max, grid = setup
    E = 0.99 * E_max
    t1 = closed_form_trajectory(p, pl, E, InitialState(1.0, 0.0), grid)
    t2 = closed_form_trajectory(p, pl, E, InitialState(0.6j, 0.8), grid)
    assert np.array_equal(t1.Omega, t2.Omega)


def test_drive_real_on_resonance(setup):
    p, pl, E_max, grid = setup
    om = ClosedFormSolution(p, pl, 0.99 * E_max).Omega(grid)
    assert np.max(np.abs(om.imag)) < 1e-10


def test_initial_phase_rides_on_photon(setup):
    p, pl, E_max, grid = setup
    a0 = 0.6 * np.exp(1j * 1.1)
    init = InitialState(a0, math.sqrt(1 - 0.36))
    traj = closed_form_trajectory(p, pl, 0.9 * E_max, init, grid)
    assert np.angle(traj.lam[-1]) == pytest.approx(1.1, abs=1e-12)


def test_drive_grows_toward_the_bound(setup):
    p, pl, E_max, grid = setup
    peaks = [np.max(np.abs(ClosedFormSolution(p, pl, s * E_max).Omega(grid)))
             for s in (0.9, 0.99, 0.999)]
    assert peaks[0] < peaks[1] < peaks[2]


def test_pole_error_at_the_bound(setup):
    p, pl, E_max, _ = setup
    prof = depletion.analytic_profile(p, pl)
    grid = np.array([0.0, prof.argmax_t, 0.44])
    with pytest.raises(PoleError):
        ClosedFormSolution(p, pl, E_max).Omega(grid)


def test_drive_invalid_at_the_bound_off_grid(setup):
    # r^2 is checked at the depletion maximum, not only on the sampled grid
    p, pl, E_max, _ = setup
    prof = depletion.analytic_profile(p, pl)
    grid = np.linspace(0.0, 0.44, 801)
    assert np.min(np.abs(grid - prof.argmax_t)) > 0.0
    with pytest.raises(PoleError):
        closed_form_trajectory(p, pl, E_max, InitialState(1.0), grid)
    with pytest.raises(PoleError):
        ClosedFormSolution(p, pl, E_max).Omega(grid)


@pytest.mark.parametrize("Delta", [0.0, ghz(1.0)])
def test_pole_error_at_the_bound_on_and_off_resonance(siv_params, Delta):
    # one behaviour at E = E_max: PoleError before the phase ODE runs
    p = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                      gamma_tilde=siv_params.gamma_tilde, Gamma1=siv_params.Gamma1,
                      Gamma2=siv_params.Gamma2, Delta=Delta)
    pl = sin2_pulse(0.44)
    E_max = max_efficiency(p, pl)
    with pytest.raises(PoleError, match="at or above the bound"):
        ClosedFormSolution(p, pl, E_max)
    with pytest.raises(PoleError):
        closed_form_trajectory(p, pl, E_max, InitialState(0.6, 0.8),
                               np.linspace(0.0, 0.44, 41))


def test_efficiency_above_bound_rejected(setup):
    p, pl, E_max, grid = setup
    with pytest.raises(DomainError):
        closed_form_trajectory(p, pl, 1.0001 * E_max, InitialState(1.0), grid)


def test_unnormalized_envelope_rejected(setup):
    p, _, _, grid = setup
    with pytest.raises(ValidationError):
        ClosedFormSolution(p, CosineSeriesPulse(0.44, (1.0,)), 0.5)


def test_mode_matching_identity(setup):
    p, pl, E_max, grid = setup
    traj = closed_form_trajectory(p, pl, 0.95 * E_max, InitialState(1.0), grid)
    inner = grid[1:]
    gv_direct = virtual_coupling(pl, inner)
    # g_v = -sqrt(kappa) eta* / lam* (Kiilerich & Molmer, PRL 123, 123604 (2019))
    gv_matched = -math.sqrt(p.kappa) * np.conj(traj.eta[1:]) / np.conj(traj.lam[1:])
    assert np.max(np.abs(gv_direct - gv_matched)) < 1e-10


def test_no_jump_condition(setup):
    p, pl, E_max, grid = setup
    traj = closed_form_trajectory(p, pl, 0.95 * E_max, InitialState(0.8, 0.6),
                                  grid)
    gv = virtual_coupling(pl, grid[1:])
    residual = np.conj(gv) * traj.lam[1:] + math.sqrt(p.kappa) * traj.eta[1:]
    assert np.max(np.abs(residual)) < 1e-10


def test_virtual_coupling_early_time_scaling():
    pl = sin2_pulse(0.44)
    t = 1e-4 * 0.44
    gv = virtual_coupling(pl, t)
    assert gv.real < 0 and gv.imag == 0.0
    assert abs(gv) * math.sqrt(t) == pytest.approx(math.sqrt(5.0), rel=1e-4)
    assert virtual_coupling(pl, 0.0) == 0.0
    assert virtual_coupling(pl, 0.44) == pytest.approx(0.0, abs=1e-12)


def test_virtual_coupling_clamp():
    pl = sin2_pulse(0.44)
    kappa = ghz(30)
    t_tiny = 1e-9
    raw = abs(virtual_coupling(pl, t_tiny))
    clamped = abs(virtual_coupling(pl, t_tiny, kappa=kappa))
    assert raw > 1e3 * math.sqrt(kappa)
    assert clamped == pytest.approx(1e3 * math.sqrt(kappa), rel=1e-12)


def test_error_probability_accounting(setup):
    p, pl, E_max, grid = setup
    init = InitialState(0.6, 0.8)
    traj = closed_form_trajectory(p, pl, 0.99 * E_max, init, grid)
    assert np.all(traj.p_e >= -1e-12)
    assert np.all(np.diff(traj.p_e) >= -1e-12)
    assert traj.p_e[-1] <= 1.0 - traj.fidelity(init) + 1e-12


def test_trajectory_csv(tmp_path, setup):
    p, pl, E_max, _ = setup
    grid = np.linspace(0, 0.44, 5)
    traj = closed_form_trajectory(p, pl, 0.9 * E_max, InitialState(1.0), grid)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, header="check")
    lines = path.read_text().splitlines()
    assert lines[0] == "# check"
    assert lines[1].startswith("t_ns,re_alpha,im_alpha")
    assert len(lines) == 7


def test_zero_efficiency_chirped_G_matches_quadrature(siv_params):
    # G is closed-form for a chirped series, and phi is exactly zero at E = 0
    pl = CosineSeriesPulse(0.5, (1.0, 0.1), chirp=2.5).normalize()
    grid = np.linspace(0.0, pl.T, 401)
    cf = ClosedFormSolution(siv_params, pl, 0.0)
    quad_G = depletion.integrated_depletion_numeric(
        siv_params, pl, grid, refine_max=False).G
    assert np.max(np.abs(np.asarray(cf.G(grid)) - quad_G)) < 1e-10
    assert np.all(np.asarray(cf.phi(grid)) == 0.0)


@pytest.mark.parametrize("Delta, chirp", [(0.0, 0.0), (1.0, 2.5)])
def test_scalar_drive_matches_array_drive(siv_params, Delta, chirp):
    p = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                      gamma_tilde=siv_params.gamma_tilde, Gamma1=siv_params.Gamma1,
                      Gamma2=siv_params.Gamma2, Delta=ghz(Delta))
    pl = CosineSeriesPulse(0.345, (1.0, -0.2, 0.11), chirp=chirp).normalize()
    cf = ClosedFormSolution(p, pl, 0.9 * max_efficiency(p, pl))
    grid = np.linspace(0.0, pl.T, 41)
    drive = cf.Omega(grid)
    scalar = np.array([cf.Omega(float(t)) for t in grid])
    assert np.allclose(scalar, drive, rtol=1e-14, atol=1e-14 * np.max(np.abs(drive)))


def test_series_and_generic_envelope_give_the_same_drive(siv_params):
    # the generic envelope has neither the one-pass evaluation nor the exact
    # norm: G, phi and int |v|^2 come from quadrature and the phase ODE
    p = EmitterParams(g=siv_params.g, kappa=siv_params.kappa,
                      gamma_tilde=siv_params.gamma_tilde, Gamma1=siv_params.Gamma1,
                      Gamma2=siv_params.Gamma2, Delta=ghz(0.5))
    pl = CosineSeriesPulse(0.44, (1.0, -0.06), chirp=1.5).normalize()
    generic = Envelope(T=pl.T, f=pl.f, df=pl.df, d2f=pl.d2f, theta=pl.theta,
                       dtheta=pl.dtheta, d2theta=pl.d2theta)
    E = 0.9 * max_efficiency(p, pl)
    grid = np.linspace(0.0, pl.T, 81)
    series_drive = ClosedFormSolution(p, pl, E).Omega(grid)
    generic_drive = ClosedFormSolution(p, generic, E).Omega(grid)
    assert np.max(np.abs(generic_drive - series_drive)) <= 1e-9 * np.max(
        np.abs(series_drive))
