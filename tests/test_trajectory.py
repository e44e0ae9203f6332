import inspect
import math

import numpy as np
import pytest
from scipy.integrate import DOP853

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
    # one behaviour at E = E_max: PoleError before the phase is computed
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


def _drive_case(p, kind):
    pl = CosineSeriesPulse(0.345, (1.0, -0.2, 0.11),
                           chirp=2.5 if kind == "chirped" else 0.0).normalize()
    if kind == "detuned":
        p = EmitterParams(g=p.g, kappa=p.kappa, gamma_tilde=p.gamma_tilde,
                          Gamma1=p.Gamma1, Gamma2=p.Gamma2, Delta=ghz(1.0))
    env = Envelope(T=pl.T, f=pl.f, df=pl.df, d2f=pl.d2f) if kind == "envelope" else pl
    return p, env, ClosedFormSolution(p, env, 0.9 * max_efficiency(p, pl))


@pytest.mark.parametrize("kind", ["resonant", "detuned", "chirped", "envelope"])
def test_scalar_calls_match_grid_calls(siv_params, kind):
    # one code path: a scalar t gives the grid's value, also outside [0, T]
    p, env, cf = _drive_case(siv_params, kind)
    ts = np.r_[-0.05, np.linspace(0.0, env.T, 31), env.T + 0.05]
    calls = {"Omega": cf.Omega,
             "g_v": lambda t: virtual_coupling(env, t),
             "g_v clamped": lambda t: virtual_coupling(env, t, kappa=p.kappa)}
    for name, fun in calls.items():
        grid = np.asarray(fun(ts))
        scalar = np.array([fun(t) for t in ts])
        assert grid.shape == ts.shape and np.ndim(fun(ts[5])) == 0, name
        assert np.max(np.abs(scalar - grid)) <= 1e-13 * np.max(np.abs(grid)), name


def _amplitude_route_drive(p, env, cf, t):
    """-num / alpha of the amplitude equations at t, built the long way:
    eta, eta' and eta'' from the envelope, the phase and E, then zeta, zeta',
    the numerator num and alpha."""
    f, df, d2f = (np.asarray(x) for x in env.evaluate(t))
    dth, d2th = np.asarray(env.dtheta(t)), np.asarray(env.d2theta(t))
    ph = np.exp(1j * np.asarray(env.theta(t)))
    v, dv = ph * f, ph * (df + 1j * dth * f)
    d2v = ph * (d2f + 2j * dth * df + 1j * d2th * f - dth ** 2 * f)
    scale = cf.E * np.exp(-0.5 * p.Gamma2 * t) / math.sqrt(p.kappa)
    eta = scale * v
    deta = scale * (dv - 0.5 * p.Gamma2 * v)
    d2eta = scale * (d2v - p.Gamma2 * dv + 0.25 * p.Gamma2 ** 2 * v)
    a = (p.Gamma2 + p.kappa + p.kappa_tilde) / (2.0 * p.g)
    zeta, dzeta = a * eta + deta / p.g, a * deta + d2eta / p.g
    num = (0.5 * p.gamma_tilde + 1j * p.Delta) * zeta + p.g * eta + dzeta
    alpha = (np.exp(1j * np.asarray(cf.phi(t)) - 0.5 * p.Gamma1 * t)
             * np.sqrt(1.0 - cf.E ** 2 * np.asarray(cf.G(t))))
    return -num / alpha


@pytest.mark.parametrize("kind", ["resonant", "detuned", "chirped", "envelope"])
def test_drive_formula_matches_the_amplitude_route(siv_params, kind):
    # Omega's formula in f, f', f'' is -num / alpha of zeta and eta, on a grid
    # and at scalar times; trajectory() reads the same drive
    p, env, cf = _drive_case(siv_params, kind)
    grid = np.linspace(0.0, env.T, 41)
    want = _amplitude_route_drive(p, env, cf, grid)
    tol = 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(cf.Omega(grid) - want)) <= tol
    for t in (0.0, 0.3 * env.T, 0.77 * env.T, env.T):
        assert abs(cf.Omega(t) - _amplitude_route_drive(p, env, cf, t)) <= tol
    assert np.array_equal(cf.trajectory(InitialState(1.0), grid).Omega,
                          cf.Omega(grid))


def test_drive_is_zero_or_a_pole_where_alpha_vanishes(setup):
    # r = 0 at the middle time: with a finite numerator there the drive is a
    # pole, with a zero one it is zero, and elsewhere it is Omega's
    p, pl, E_max, _ = setup
    cf = ClosedFormSolution(p, pl, 0.9 * E_max)
    t = np.array([0.1, 0.2, 0.3])
    _, f, df, d2f, dth, d2th, theta, r = cf._pass(t)
    keep = np.array([1.0, 0.0, 1.0])
    with pytest.raises(PoleError, match="alpha"):
        cf._drive(t, f, df, d2f, dth, d2th, theta, r * keep)
    om = cf._drive(t, f * keep, df * keep, d2f * keep, dth, d2th, theta, r * keep)
    assert om[1] == 0.0 and np.array_equal(om[[0, 2]], cf.Omega(t)[[0, 2]])


def _count_sine_tables(monkeypatch) -> list:
    """The order K of every sine table built from now on, in call order."""
    from ramanpulse import pulse
    builds, plain = [], pulse._sine_table

    def counted(K):
        table = plain(K)

        def build(tau):
            builds.append(K)
            return table(tau)
        return build

    monkeypatch.setattr(pulse, "_sine_table", counted)
    return builds


def test_scalar_drive_sample_builds_one_sine_table(monkeypatch, siv_params):
    # Omega reads f, f', f'' and G, and g_v reads f and the norm, from one
    # sine table each
    _, pl, cf = _drive_case(siv_params, "resonant")
    builds = _count_sine_tables(monkeypatch)
    cf.Omega(0.1)
    assert builds == [7]
    virtual_coupling(pl, 0.1, kappa=siv_params.kappa)
    assert builds == [7, 7]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, [0.1, math.nan]])
@pytest.mark.parametrize("call", ["Omega", "g_v", "g_v clamped"])
def test_non_finite_time_is_rejected(siv_params, t, call):
    _, pl, cf = _drive_case(siv_params, "resonant")
    fun = {"Omega": cf.Omega, "g_v": lambda t: virtual_coupling(pl, t),
           "g_v clamped": lambda t: virtual_coupling(pl, t, siv_params.kappa)}[call]
    with pytest.raises(ValidationError, match="finite"):
        fun(t)


def test_series_and_generic_envelope_give_the_same_drive(siv_params):
    # the generic envelope has neither the one-pass evaluation nor the exact
    # norm: G and phi come from Chebyshev series, int |v|^2 from quadrature
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


# Omega of sin2_pulse(0.44) at 0.9 E_max on 9 uniform times, for the series
# and for the generic Envelope of its callables, recorded when a resonant
# series skipped its phase and a resonant Envelope integrated a zero rate
_RESONANT_DRIVE = np.array([
    -0.43108077324722943, -3.2322857683437034, -6.198943698571456,
    -8.350347492983571, -8.862139250092037, -6.0017936375973076,
    -0.474938070358599, 1.8530732221939314, -0.9764319385631499])


@pytest.mark.parametrize("kind", ["series", "envelope"])
def test_resonant_phase_is_exactly_zero(siv_params, kind):
    # a real envelope on resonance has a zero phase rate: phi is exact zeros
    # and the drive is real, as before the phase was read from its rate
    pl = sin2_pulse(0.44)
    env = pl if kind == "series" else Envelope(T=pl.T, f=pl.f, df=pl.df,
                                               d2f=pl.d2f)
    cf = ClosedFormSolution(siv_params, env, 0.9 * max_efficiency(siv_params, pl))
    grid = np.linspace(0.0, pl.T, 9)
    assert np.all(cf.phi(grid) == 0.0) and cf.phi(0.2) == 0.0
    om = cf.Omega(grid)
    assert np.all(om.imag == 0.0)
    # the drive's numerator w0 f + w1 f' + w2 f'' cancels to about 1/29 of its
    # terms at 0.75 T, so each sample's rounding scales with its terms; the
    # recorded values lie within a fifth of this of a 40-digit evaluation
    terms = np.array([w * d(grid) for w, d in zip(cf._num_weights, (pl.f, pl.df, pl.d2f))])
    tol = 8 * np.finfo(float).eps * np.abs(terms).sum(0) / np.abs(terms.sum(0))
    assert np.all(np.abs(om.real / _RESONANT_DRIVE - 1.0) <= tol)


def test_chirped_drive_sample_costs_little_more_than_resonant(monkeypatch):
    # counted work, not wall clock: on the 14 stage times of a DOP853 step a
    # chirped Omega builds one sine table, as the resonant drive does, and
    # evaluates the phase series once, with at most 128 nodes
    p = EmitterParams(g=ghz(6), kappa=ghz(30), gamma_tilde=ghz(0.1),
                      Gamma1=ghz(0.01), Gamma2=ghz(0.005))
    resonant = CosineSeriesPulse(0.5, (1.0, 0.1)).normalize()
    chirped = CosineSeriesPulse(resonant.T, resonant.coeffs, chirp=2.0)
    t = 0.2 + 0.01 * np.concatenate([DOP853.C[1:], DOP853.C_EXTRA])
    builds = _count_sine_tables(monkeypatch)
    for pl in (resonant, chirped):
        cf = ClosedFormSolution(p, pl, 0.99 * max_efficiency(p, pl))
        phase, calls = cf.phi, []
        cf.phi = lambda t, phase=phase: calls.append(np.shape(t)) or phase(t)
        builds.clear()
        cf.Omega(t)
        assert builds == [5] and calls == [(14,)]
    nodes = inspect.getclosurevars(phase).nonlocals["nodes"]
    assert nodes.size <= 128
