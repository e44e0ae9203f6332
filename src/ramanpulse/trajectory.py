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
    """Efficiency bound 1 / sqrt(G_max) for this envelope, from its profile
    on [0, T]: a series pulse's analytic_profile, with no G sampler built,
    and depletion.g_and_max's for any other envelope."""
    env = as_envelope(env)
    if isinstance(env, CosineSeriesPulse):
        return bounds.e_max(depletion.analytic_profile(p, env))
    return bounds.e_max(depletion.g_and_max(p, env, env.T)[1])


class ClosedFormSolution:
    """Continuum closed-form solution for fixed (params, envelope, E).

    trajectory(init, grid) samples every amplitude and the drive for one
    initial qubit state; Omega(t) is the drive alone, which the verification
    integrators call on each step's stage times. Both read one envelope pass
    (_pass), and both take the drive from one formula (_drive). The jet of
    the envelope and G, and the bound, come from one depletion.g_and_max
    call: for a series pulse one pass of the exact depletion.series_g and
    analytic_profile's maximum, for any other envelope G as one Chebyshev
    series. The phase is depletion.drive_phase; it is exactly zero where its
    rate vanishes (a real envelope on resonance, or E = 0), which makes a
    resonant series drive exact too.

    The drive is -num / alpha of the no-jump amplitude equations, with
    num = (gamma_tilde / 2 + i Delta) zeta + g eta + zeta'. The photon
    amplitude is eta = (E / sqrt(kappa)) exp(-Gamma2 t / 2) v and
    g zeta = a eta + eta' with a = (Gamma2 + kappa + kappa_tilde) / 2, so
    num is linear in v, v' and v'', and with v = exp(i theta) f,

        Omega = -(E / sqrt(kappa)) exp(i (theta - phi) + (Gamma1 - Gamma2) t / 2)
                (k0 f + k1 f' + k2 f'') / r,

    where k0 and k1 follow from the emitter and theta', theta'' alone, and
    k2 = 1 / g. No eta, zeta or their derivatives are built for the drive.

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
        # num's weights of v, v' and v'' over (E / sqrt(kappa)) exp(-Gamma2 t / 2)
        a = 0.5 * (p.Gamma2 + p.kappa + p.kappa_tilde)
        c = 0.5 * p.gamma_tilde + 1j * p.Delta
        self._num_weights = ((c * a / p.g + p.g) - 0.5 * p.Gamma2 * (c + a) / p.g
                             + 0.25 * p.Gamma2 ** 2 / p.g,
                             (c + a - p.Gamma2) / p.g, 1.0 / p.g)

    def _pass(self, t):
        """t and one envelope pass at t: f, f', f'', theta', theta'', theta and
        r. t is finite; a scalar stays on numpy scalars."""
        t = finite_times(t)
        f, df, d2f, G, dth, d2th = self._envelope(t)
        r2 = 1.0 - self.E ** 2 * G
        return (t, f, df, d2f, dth, d2th, self.env.theta(t),
                np.sqrt(r2 * (r2 > 0.0)))  # r2 clipped at 0

    def _drive(self, t, f, df, d2f, dth, d2th, theta, r):
        """The drive formula on one envelope pass (_pass): 0 where
        |alpha| = exp(-Gamma1 t / 2) r is below 1e-14, PoleError where |num| is
        above 1e-12 there. The exponential is split between num and |alpha|,
        so neither overflows where the other underflows."""
        w0, w1, w2 = self._num_weights
        # v = e^(i theta) f: v' and v'' in f, f' and f''
        k0 = w0 + w1 * 1j * dth + w2 * (1j * d2th - dth * dth)
        k1 = w1 + w2 * 2j * dth
        # num here is -num exp(-i phi), of num's magnitude; led by the real
        # f'' term, a real drive keeps +0, not -0, as its imaginary part
        num = (self.E / math.sqrt(self.p.kappa)
               * np.exp(1j * (theta - self.phi(t)) - 0.5 * self.p.Gamma2 * t)
               * (-w2 * d2f - k1 * df - k0 * f))
        alpha = np.exp(-0.5 * self.p.Gamma1 * t) * r  # |alpha|
        tiny = alpha < 1e-14
        if np.count_nonzero(tiny):
            if np.count_nonzero(tiny & (abs(num) > 1e-12)):
                raise PoleError(
                    "drive diverges: alpha(t) vanished with a finite numerator; "
                    "lower the target efficiency below E_max")
            num, alpha = num * ~tiny, alpha + tiny
        return num / alpha

    def Omega(self, t):
        """Drive Rabi frequency at t, by the drive formula of the class on one
        envelope pass; diverges where the ground state empties."""
        return self._drive(*self._pass(t))

    def trajectory(self, init: InitialState, grid) -> Trajectory:
        """Sample the solution for a given initial qubit state.

        The drive is synthesized when the initial |1> amplitude is nonzero;
        for alpha0 = 0 no emission occurs, and the drive is zeroed and
        flagged as irrelevant. Amplitudes and drive read one envelope pass.
        """
        grid = time_grid(grid, "grid")
        p = self.p
        a0, b0 = complex(init.alpha0), complex(init.beta0)
        jet = self._pass(grid)
        _, f, df, _, dth, _, theta, r = jet
        ph = np.exp(1j * theta)
        # a complex python number goes left of a numpy float: see pulse._pass
        v, dv = ph * f, ph * (1j * dth * f + df)
        decay = np.exp(-0.5 * p.Gamma2 * grid)
        scale = self.E * decay / math.sqrt(p.kappa)
        eta = scale * v
        deta = scale * (dv - 0.5 * p.Gamma2 * v)
        zeta = (p.Gamma2 + p.kappa + p.kappa_tilde) / (2.0 * p.g) * eta + deta / p.g
        alpha = np.exp(1j * self.phi(grid) - 0.5 * p.Gamma1 * grid) * r
        cum = np.sqrt(np.maximum(np.asarray(self.env.cumulative_norm(grid)), 0.0))

        drive_irrelevant = a0 == 0.0
        Omega = (np.zeros_like(grid, dtype=complex) if drive_irrelevant
                 else self._drive(*jet))
        return Trajectory(grid=grid, alpha=a0 * alpha, beta=b0 * decay,
                          zeta=a0 * zeta, eta=a0 * eta,
                          lam=a0 * (self.E * decay * cum), Omega=Omega,
                          drive_irrelevant=drive_irrelevant)


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

