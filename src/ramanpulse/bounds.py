"""Efficiency bound and the fidelity expressions built on it.

The matter-to-photon conversion efficiency of any physical drive satisfies
E < E_max = 1 / sqrt(max_t G(t)). Worst-case, state-dependent, and
Bloch-averaged transfer fidelities follow from E together with the |0>
decoherence over the pulse; a simpler (weaker) bound uses G(T) instead of
the running maximum, and the flat-pulse limit reduces to the cooperativity
expression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .depletion import DepletionProfile
from .errors import DomainError, ValidationError
from .model import EmitterParams


@dataclass(frozen=True)
class BoundResult:
    E_max: float
    G_max: float
    argmax_t: float
    F_worst: float
    F_avg: float
    F_simplified: float


def e_max(profile: DepletionProfile) -> float:
    """Efficiency bound 1 / sqrt(G_max).

    The bound is strict: a physical drive stays finite only for E < E_max,
    since the ground-state amplitude touches zero at equality.
    """
    if profile.G_max <= 0:
        raise DomainError("efficiency bound needs G_max > 0")
    return 1.0 / math.sqrt(profile.G_max)


def simplified_bound(profile: DepletionProfile) -> float:
    """Weaker end-point bound 1 / sqrt(G(T)); equals e_max when the maximum sits at T."""
    g_end = float(profile.G[-1])
    if g_end <= 0:
        raise DomainError("simplified bound needs G(T) > 0")
    return 1.0 / math.sqrt(g_end)


def fidelity(E: float, Gamma2: float, T: float, alpha0_sq: float) -> float:
    """Coherent-branch transfer fidelity for conversion efficiency E.

    F = exp(-Gamma2 T) (E |alpha0|^2 + 1 - |alpha0|^2)^2 is the fidelity of
    the no-jump branch, exact for the amplitude equations. The full master
    equation adds branches recycled through emitter jumps, so this is a
    lower bound on its fidelity. Passing E = E_max turns this into the
    fidelity bound. E may exceed one: the renormalized amplitude ratio does
    so when |0> decoheres faster than the excited state, and the expression
    stays the exact no-jump value.
    """
    if not 0.0 <= alpha0_sq <= 1.0:
        raise ValidationError("|alpha0|^2 must lie in [0, 1]")
    if E < 0.0:
        raise ValidationError("efficiency E must be >= 0")
    if T < 0.0:
        raise ValidationError("duration T must be >= 0")
    return math.exp(-Gamma2 * T) * (E * alpha0_sq + 1.0 - alpha0_sq) ** 2


def avg_fidelity(E: float, Gamma2: float, T: float) -> float:
    """Fidelity averaged over initial qubit states uniform on the Bloch sphere.

    The uniform measure makes |alpha0|^2 uniform on [0, 1], which averages
    the quadratic fidelity to (E^2 + E + 1) / 3 before the |0> decay factor.
    """
    if E < 0.0:
        raise ValidationError("efficiency E must be >= 0")
    return (E * E + E + 1.0) / (3.0 * math.exp(Gamma2 * T))


def slow_pulse_bound(p: EmitterParams) -> float:
    """Flat-pulse, perfect-memory limit of E^2: kappa/(kappa+kappa_tilde) * 2C/(1+2C),
    written with no division by C, so it holds at gamma_tilde = 0 as well."""
    k, four_g2 = p.kappa + p.kappa_tilde, 4.0 * p.g ** 2
    return p.kappa / k * four_g2 / (four_g2 + p.gamma_tilde * k)


def compute_bounds(p: EmitterParams, profile: DepletionProfile) -> BoundResult:
    """All bound figures for one envelope profile."""
    T = float(profile.grid[-1])
    Em = e_max(profile)
    Es = simplified_bound(profile)
    return BoundResult(
        E_max=Em,
        G_max=profile.G_max,
        argmax_t=profile.argmax_t,
        F_worst=fidelity(Em, p.Gamma2, T, 1.0),
        F_avg=avg_fidelity(Em, p.Gamma2, T),
        F_simplified=fidelity(Es, p.Gamma2, T, 1.0),
    )
