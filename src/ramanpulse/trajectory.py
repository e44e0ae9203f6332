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
from .errors import PoleError, ValidationError, finite, finite_times, time_grid
from .model import EmitterParams
from .pulse import as_envelope, write_csv


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
    """Efficiency bound 1 / sqrt(G_max) for this envelope, from the profile
    of depletion.g_and_max on [0, T] (a series: analytic_profile's)."""
    return bounds.e_max(depletion.g_and_max(p, env, as_envelope(env).T)[1])


class ClosedFormSolution:
    """Continuum closed-form solution for fixed (params, envelope, E).

    trajectory(init, grid) samples every amplitude and the drive for one
    initial qubit state; Omega(t) is the drive alone, which the verification
    integrators call one t at a time. Both read one jet of the amplitudes
    with the initial |1> amplitude divided out (one path for scalars and
    grids). The jet of the envelope and G, and the bound, come from one
    depletion.g_and_max call: for a series pulse one pass of the exact
    depletion.series_g and analytic_profile's maximum, for any other
    envelope G as one Chebyshev series. The phase is depletion.drive_phase;
    it is exactly zero where its rate vanishes (a real envelope on
    resonance, or E = 0), which makes a resonant series drive exact too.

    The drive diverges where r^2 = 1 - E^2 G(t) vanishes. The minimum of
    r^2 is 1 - (E / E_max)^2, at the depletion maximum; the constructor
    raises PoleError when it is below R2_FLOOR, before the phase pass runs,
    on resonance or not.
    """

    def __init__(self, p: EmitterParams, env, E: float):
        self.p = p
        self.env = env = as_envelope(env)
        if finite(E, "efficiency E") < 0:
            raise ValidationError("efficiency E must be >= 0")
        norm = float(env.cumulative_norm(env.T))
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(
                f"envelope must be normalized, int |v|^2 = {norm:.8g}")
        self.E = float(E)
        # _envelope: t -> f, f', f'', G, theta', theta''
        jet, prof = depletion.g_and_max(p, env, env.T)
        self._envelope, self.G = jet, lambda t: jet(t)[3]
        self.E_max = bounds.e_max(prof)
        if 1.0 - (self.E / self.E_max) ** 2 < depletion.R2_FLOOR:
            raise PoleError(
                f"target efficiency {E:.6g} is at or above the bound "
                f"{self.E_max:.6g}: the ground state empties at the depletion "
                "maximum, where the drive diverges; lower E below E_max")
        self.phi = depletion.drive_phase(p, env, self.E, env.T, prof.G_max,
                                         prof.argmax_t, self.G)

    # -- amplitudes with alpha0 divided out ----------------------------------

    def _jet(self, t):
        """eta, zeta, alpha and the drive numerator at t, from one envelope
        pass: v, v' and v'' give eta, eta' and eta'', and those zeta and zeta'.
        t is finite; a scalar stays on numpy scalars."""
        p, env = self.p, self.env
        t = finite_times(t)
        f, df, d2f, G, dth, d2th = self._envelope(t)
        ph = np.exp(1j * env.theta(t))
        # a complex python number goes left of a numpy float: see pulse._pass
        v, dv = ph * f, ph * (1j * dth * f + df)
        d2v = ph * (2j * dth * df + d2f + 1j * d2th * f - dth ** 2 * f)
        scale = self.E * np.exp(-0.5 * p.Gamma2 * t) / math.sqrt(p.kappa)
        eta = scale * v
        deta = scale * (dv - 0.5 * p.Gamma2 * v)
        d2eta = scale * (d2v - p.Gamma2 * dv + 0.25 * p.Gamma2 ** 2 * v)
        a = (p.Gamma2 + p.kappa + p.kappa_tilde) / (2.0 * p.g)
        zeta, dzeta = a * eta + deta / p.g, a * deta + d2eta / p.g
        num = (0.5 * p.gamma_tilde + 1j * p.Delta) * zeta + p.g * eta + dzeta
        r2 = 1.0 - self.E ** 2 * G
        r = np.sqrt(r2 * (r2 > 0.0))  # r2 clipped at 0
        alpha = np.exp(1j * self.phi(t) - 0.5 * p.Gamma1 * t) * r
        return eta, zeta, alpha, num

    def Omega(self, t):
        """Drive Rabi frequency; diverges where the ground state empties."""
        return _drive(*self._jet(t)[2:])

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
                          lam=a0 * (self.E * decay * cum), Omega=Omega,
                          drive_irrelevant=drive_irrelevant)


def _drive(alpha, num):
    """-num / alpha, 0 where alpha vanishes; PoleError where num does not."""
    tiny = abs(alpha) < 1e-14
    if np.count_nonzero(tiny & (abs(num) > 1e-12)):
        raise PoleError(
            "drive diverges: alpha(t) vanished with a finite numerator; "
            "lower the target efficiency below E_max")
    return -num * (abs(alpha) >= 1e-14) / (alpha + tiny)


def closed_form_trajectory(p: EmitterParams, env, E: float,
                           init: InitialState, grid) -> Trajectory:
    """ClosedFormSolution(p, env, E) sampled on grid for init."""
    return ClosedFormSolution(p, env, E).trajectory(init, grid)


def virtual_coupling(env, t, kappa: float | None = None):
    """Time-dependent coupling g_v(t) = -v*(t) / sqrt(int_0^t |v|^2).

    Returns 0 at t = 0 where the expression is 0/0. When kappa is given the
    magnitude is clamped to 1e3 sqrt(kappa) wherever the accumulated norm is
    below 1e-12; only the master-equation oracle consumes the clamped
    values, and the virtual mode is essentially unoccupied there. t is finite.
    """
    v, cum = as_envelope(env).v_and_norm(finite_times(t))
    pos = cum > 0.0  # products with booleans select, as in pulse._pass
    out = -np.conj(v) * pos / np.sqrt(cum + (cum <= 0.0))
    if kappa is not None:
        mag = abs(out) / (1e3 * math.sqrt(kappa))
        out = out / ((mag - 1.0) * (pos & (cum < 1e-12) & (mag > 1.0)) + 1.0)
    return out

