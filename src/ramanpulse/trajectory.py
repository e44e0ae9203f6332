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
from .errors import PoleError, ValidationError, finite, time_grid
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
class Amplitudes:
    """The five amplitudes of the single-excitation ansatz on a time grid."""

    grid: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    zeta: np.ndarray
    eta: np.ndarray
    lam: np.ndarray

    def amplitudes(self) -> dict:
        """The amplitude arrays by name, in the order of the CSV columns."""
        return {"alpha": self.alpha, "beta": self.beta, "zeta": self.zeta,
                "eta": self.eta, "lambda": self.lam}

    def norm(self) -> np.ndarray:
        return sum(np.abs(amp) ** 2 for amp in self.amplitudes().values())

    def max_dev(self, other: "Amplitudes") -> dict:
        """Largest deviation from other, per amplitude name."""
        theirs = other.amplitudes()
        return {name: float(np.max(np.abs(amp - theirs[name])))
                for name, amp in self.amplitudes().items()}

    def fidelity(self, init: InitialState) -> float:
        """Overlap with the target flying-qubit state at the end of the grid."""
        amp = (np.conj(init.alpha0) * self.lam[-1]
               + np.conj(init.beta0) * self.beta[-1])
        return float(abs(amp) ** 2)


@dataclass
class Trajectory(Amplitudes):
    """Closed-form amplitudes and drive sampled on a grid."""

    Omega: np.ndarray
    E: float
    drive_irrelevant: bool = False

    @property
    def p_e(self) -> np.ndarray:
        """Probability of an error (a jump) by each grid time."""
        return 1.0 - self.norm()

    def to_csv(self, path: str | Path, header: str = ""):
        arrays = {**self.amplitudes(), "Omega": self.Omega}
        cols = (["t_ns"] + [f"{part}_{name}" for name in arrays
                            for part in ("re", "im")] + ["p_e"])
        parts = [part for arr in arrays.values() for part in (arr.real, arr.imag)]
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

    trajectory(init, grid) samples every amplitude and the drive for one
    initial qubit state; Omega(t) is the drive alone, which the verification
    integrators call. Both read one jet of the amplitudes with the initial
    |1> amplitude divided out. For a series pulse G(t) is exact and, with no
    phase source (resonant cavity, zero chirp), so is the phase, which makes
    the synthesized drive itself exact.

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

    def _jet(self, t):
        """eta, zeta, alpha and the drive numerator at t, from one envelope
        pass: v, v' and v'' give eta, eta' and eta'', and those zeta and zeta'."""
        p, env = self.p, self.env
        t_arr = np.asarray(t, dtype=float)
        f, df, d2f = env.evaluate(t)
        ph = np.exp(1j * env.theta(t))
        dth, d2th = env.dtheta(t), env.d2theta(t)
        v, dv = ph * f, ph * (df + 1j * dth * f)
        d2v = ph * (d2f + 2j * dth * df + 1j * d2th * f - dth ** 2 * f)
        scale = self.E * np.exp(-0.5 * p.Gamma2 * t_arr) / math.sqrt(p.kappa)
        eta = scale * v
        deta = scale * (dv - 0.5 * p.Gamma2 * v)
        d2eta = scale * (d2v - p.Gamma2 * dv + 0.25 * p.Gamma2 ** 2 * v)
        a = (p.Gamma2 + p.kappa + p.kappa_tilde) / (2.0 * p.g)
        zeta, dzeta = a * eta + deta / p.g, a * deta + d2eta / p.g
        num = (0.5 * p.gamma_tilde + 1j * p.Delta) * zeta + p.g * eta + dzeta
        r = np.sqrt(np.maximum(1.0 - self.E ** 2 * self.G(t), 0.0))
        alpha = np.exp(1j * self.phi(t) - 0.5 * p.Gamma1 * t_arr) * r
        return eta, zeta, alpha, num

    def Omega(self, t):
        """Drive Rabi frequency; diverges where the ground state empties."""
        return _drive(*self._jet(t)[2:])[()]

    def trajectory(self, init: InitialState, grid) -> Trajectory:
        """Sample the solution for a given initial qubit state.

        The drive is synthesized when the initial |1> amplitude is nonzero;
        for alpha0 = 0 no emission occurs, and the drive is zeroed and
        flagged as irrelevant.
        """
        grid = time_grid(grid, "grid")
        p = self.p
        a0, b0 = complex(init.alpha0), complex(init.beta0)
        eta, zeta, alpha, num = self._jet(grid)
        decay = np.exp(-0.5 * p.Gamma2 * grid)
        cum = np.sqrt(np.maximum(np.asarray(self.env.cumulative_norm(grid)), 0.0))

        drive_irrelevant = a0 == 0.0
        Omega = (np.zeros_like(grid, dtype=complex) if drive_irrelevant
                 else _drive(alpha, num))
        return Trajectory(grid=grid, alpha=a0 * alpha, beta=b0 * decay,
                          zeta=a0 * zeta, eta=a0 * eta,
                          lam=a0 * (self.E * decay * cum), Omega=Omega, E=self.E,
                          drive_irrelevant=drive_irrelevant)


def _drive(alpha, num):
    """Omega = -num / alpha; PoleError where alpha vanishes and num does not."""
    tiny = np.abs(alpha) < 1e-14
    if np.any(tiny & (np.abs(num) > 1e-12)):
        raise PoleError(
            "drive diverges: alpha(t) vanished with a finite numerator; "
            "lower the target efficiency below E_max")
    return np.where(tiny, 0.0, -num / np.where(tiny, 1.0, alpha))


def closed_form_trajectory(p: EmitterParams, env, E: float,
                           init: InitialState, grid) -> Trajectory:
    """ClosedFormSolution(p, env, E) sampled on grid for init."""
    return ClosedFormSolution(p, env, E).trajectory(init, grid)


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

