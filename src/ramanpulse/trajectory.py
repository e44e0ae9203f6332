"""Closed-form no-jump trajectory and drive synthesis for a target envelope.

Given the emitter parameters, a normalized envelope, and a target
efficiency E below the bound, every amplitude of the single-excitation
ansatz follows in closed form, and the drive Rabi frequency that realizes
the emission is obtained by reverse solution. The drive is independent of
the initial qubit state; the phase of the initial |1> amplitude is carried
by the photon amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds, depletion
from .errors import PoleError, ValidationError, finite
from .model import EmitterParams
from .pulse import CosineSeriesPulse, as_envelope, write_csv


@dataclass(frozen=True)
class InitialState:
    """Qubit amplitudes at t = 0; must be normalized."""

    alpha0: complex
    beta0: complex = 0.0

    def __post_init__(self):
        norm = (abs(finite(self.alpha0, "alpha0", complex)) ** 2
                + abs(finite(self.beta0, "beta0", complex)) ** 2)
        if abs(norm - 1.0) > 1e-9:
            raise ValidationError(
                f"initial state must be normalized, got |a|^2+|b|^2 = {norm!r}")


@dataclass
class Trajectory:
    """Amplitudes, drive, and error probability sampled on a grid."""

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    lam: np.ndarray
    Omega: np.ndarray
    E: float
    p_e: np.ndarray
    drive_irrelevant: bool = False

    def fidelity(self, init: InitialState) -> float:
        """Overlap with the target flying-qubit state at the end of the grid."""
        amp = (np.conj(init.alpha0) * self.lam[-1]
               + np.conj(init.beta0) * self.beta[-1])
        return float(abs(amp) ** 2)

    def to_csv(self, path: str | Path, header: str = ""):
        names = ("alpha", "beta", "zeta", "eta", "lambda", "Omega")
        arrays = (self.alpha, self.beta, self.zeta, self.eta, self.lam, self.Omega)
        cols = (["t_ns"] + [f"{part}_{name}" for name in names
                            for part in ("re", "im")] + ["p_e"])
        parts = [part for arr in arrays for part in (arr.real, arr.imag)]
        write_csv(path, cols, np.column_stack([self.grid, *parts, self.p_e]),
                  header)


def max_efficiency(p: EmitterParams, env) -> float:
    """Efficiency bound for this envelope, via the fastest valid route."""
    if isinstance(env, CosineSeriesPulse):
        profile = depletion.analytic_profile(p, env)
    else:
        # the maximum search covers [0, T] whatever the grid
        e = as_envelope(env)
        profile = depletion.integrated_depletion_numeric(p, e, [e.T])
    return bounds.e_max(profile)


class ClosedFormSolution:
    """Continuum closed-form solution for fixed (params, envelope, E).

    Exposes the amplitudes with the initial |1> amplitude divided out, plus
    the drive Omega(t); those are what the verification integrators need.
    For a series pulse G(t) is exact and, with no phase source (resonant
    cavity, zero chirp), so is the phase, which makes the synthesized drive
    itself exact.

    The drive diverges where r^2 = 1 - E^2 G(t) vanishes. The minimum of
    r^2 is 1 - (E / E_max)^2, at the depletion maximum; the constructor
    raises PoleError when it is below R2_FLOOR, before the phase ODE runs,
    on resonance or not.
    """

    def __init__(self, p: EmitterParams, env, E: float):
        self.p = p
        self.env = as_envelope(env)
        if finite(E, "efficiency E") < 0:
            raise ValidationError("efficiency E must be >= 0")
        norm = float(self.env.cumulative_norm(self.env.T))
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(
                f"envelope must be normalized, int |v|^2 = {norm:.8g}")
        self.E = float(E)
        self.E_max = max_efficiency(p, env)
        if 1.0 - (self.E / self.E_max) ** 2 < depletion.R2_FLOOR:
            raise PoleError(
                f"target efficiency {E:.6g} is at or above the bound "
                f"{self.E_max:.6g}: the ground state empties at the depletion "
                "maximum, where the drive diverges; lower E below E_max")
        self._setup_g_phi()

    # -- G(t) and phi(t): exact for a series, else one ODE pass -------------

    def _setup_g_phi(self):
        p, env, T = self.p, self.env, self.env.T
        series = isinstance(env, CosineSeriesPulse)
        if series:
            self.G = depletion.series_g(p, env)[0]
            if self.E == 0.0 or (p.Delta == 0.0 and env.chirp == 0.0):
                # no phase source; the phase grows as E^2
                self.phi = lambda t: np.zeros_like(np.asarray(t, dtype=float))[()]
                return
        dense = depletion.solve_g_phi(p, env, self.E, T)
        if not series:
            self.G = lambda t: dense(np.clip(t, 0.0, T))[0][()]
        self.phi = lambda t: dense(np.clip(t, 0.0, T))[1][()]

    # -- amplitudes with alpha0 divided out ----------------------------------

    def r2(self, t):
        return np.maximum(1.0 - self.E ** 2 * self.G(t), 0.0)[()]

    def _v(self, t):
        """v, v' and v'' at t from one evaluation of the envelope."""
        env = self.env
        f, df, d2f = env.evaluate(t)
        ph = np.exp(1j * env.theta(t))
        dth, d2th = env.dtheta(t), env.d2theta(t)
        return (ph * f, ph * (df + 1j * dth * f),
                ph * (d2f + 2j * dth * df + 1j * d2th * f - dth ** 2 * f))

    def _eta_jet(self, t):
        """eta, eta' and eta''."""
        p = self.p
        v, dv, d2v = self._v(t)
        scale = (self.E * np.exp(-0.5 * p.Gamma2 * np.asarray(t, dtype=float))
                 / math.sqrt(p.kappa))
        return (scale * v, scale * (dv - 0.5 * p.Gamma2 * v),
                scale * (d2v - p.Gamma2 * dv + 0.25 * p.Gamma2 ** 2 * v))

    def _zeta_jet(self, t):
        """eta, zeta and zeta'."""
        p = self.p
        eta, deta, d2eta = self._eta_jet(t)
        a = (p.Gamma2 + p.kappa + p.kappa_tilde) / (2.0 * p.g)
        return eta, a * eta + deta / p.g, a * deta + d2eta / p.g

    def eta(self, t):
        return self._eta_jet(t)[0][()]

    def lam(self, t):
        p = self.p
        decay = np.exp(-0.5 * p.Gamma2 * np.asarray(t, dtype=float))
        cum = np.sqrt(np.maximum(np.asarray(self.env.cumulative_norm(t)), 0.0))
        return (self.E * decay * cum)[()]

    def zeta(self, t):
        return self._zeta_jet(t)[1][()]

    def alpha(self, t):
        p = self.p
        t_arr = np.asarray(t, dtype=float)
        r = np.sqrt(self.r2(t))
        return (np.exp(1j * self.phi(t) - 0.5 * p.Gamma1 * t_arr) * r)[()]

    def Omega(self, t):
        """Drive Rabi frequency; diverges where the ground state empties."""
        p = self.p
        eta, zeta, dzeta = self._zeta_jet(t)
        num = (0.5 * p.gamma_tilde + 1j * p.Delta) * zeta + p.g * eta + dzeta
        alpha = self.alpha(t)
        tiny = np.abs(alpha) < 1e-14
        if np.any(tiny & (np.abs(num) > 1e-12)):
            raise PoleError(
                "drive diverges: alpha(t) vanished with a finite numerator; "
                "lower the target efficiency below E_max")
        safe = np.where(tiny, 1.0, alpha)
        return (np.where(tiny, 0.0, -num / safe))[()]


def closed_form_trajectory(p: EmitterParams, env, E: float,
                           init: InitialState, grid) -> Trajectory:
    """Sample the closed-form solution for a given initial qubit state.

    The drive is synthesized when the initial |1> amplitude is nonzero;
    for alpha0 = 0 no emission occurs, and the drive is zeroed and flagged
    as irrelevant.
    """
    grid = np.asarray(grid, dtype=float)
    cf = ClosedFormSolution(p, env, E)
    a0, b0 = complex(init.alpha0), complex(init.beta0)
    beta = b0 * np.exp(-0.5 * p.Gamma2 * grid)
    eta = a0 * np.asarray(cf.eta(grid))
    lam = a0 * np.asarray(cf.lam(grid))
    zeta = a0 * np.asarray(cf.zeta(grid))
    alpha = a0 * np.asarray(cf.alpha(grid))

    drive_irrelevant = a0 == 0.0
    Omega = np.zeros_like(grid, dtype=complex)
    if not drive_irrelevant:
        Omega = np.asarray(cf.Omega(grid), dtype=complex)

    norm = (np.abs(alpha) ** 2 + np.abs(beta) ** 2 + np.abs(zeta) ** 2
            + np.abs(eta) ** 2 + np.abs(lam) ** 2)
    p_e = 1.0 - norm
    return Trajectory(grid=grid, alpha=alpha, beta=beta, zeta=zeta, eta=eta,
                      lam=lam, Omega=Omega, E=cf.E, p_e=p_e,
                      drive_irrelevant=drive_irrelevant)


def drive_omega(p: EmitterParams, env, E: float, grid) -> np.ndarray:
    """Synthesized drive samples; raises PoleError too close to the bound."""
    grid = np.asarray(grid, dtype=float)
    return np.asarray(ClosedFormSolution(p, env, E).Omega(grid), dtype=complex)


def virtual_coupling(env, t, kappa: float | None = None):
    """Time-dependent coupling g_v(t) = -v*(t) / sqrt(int_0^t |v|^2).

    Returns 0 at t = 0 where the expression is 0/0. When kappa is given the
    magnitude is clamped to 1e3 sqrt(kappa) wherever the accumulated norm is
    below 1e-12; only the master-equation oracle consumes the clamped
    values, and the virtual mode is essentially unoccupied there.
    """
    env = as_envelope(env)
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    cum = np.atleast_1d(np.asarray(env.cumulative_norm(t_arr), dtype=float))
    pos = cum > 0.0
    out = np.where(pos, -np.conj(env.v(t_arr)) / np.sqrt(np.where(pos, cum, 1.0)), 0.0)
    if kappa is not None:
        cap = 1e3 * math.sqrt(kappa)
        mag = np.abs(out)
        clamp = pos & (cum < 1e-12) & (mag > cap)
        out = np.where(clamp, out * (cap / np.where(clamp, mag, 1.0)), out)
    return out[0] if np.ndim(t) == 0 else out

