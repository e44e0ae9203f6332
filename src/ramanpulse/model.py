"""Emitter and cavity parameters, rate combination, parameter files.

Unit convention: every rate and angular frequency is in rad/ns, every time
in ns. Parameter files quote plain GHz numbers; a value x stands for the
angular frequency 2*pi*x rad/ns, which keeps typical cavity-QED numbers
between one and a few hundred.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DomainError, ValidationError, finite

TWO_PI = 2.0 * math.pi


def ghz(value: float) -> float:
    """Angular frequency in rad/ns for a plain GHz figure."""
    return TWO_PI * float(value)


@dataclass(frozen=True)
class RawRates:
    """Microscopic dissipator rates before combination.

    gamma is the total excited-state decay, split between the two ground
    states by the branching angle xi. gamma_ph_e and gamma_ph_1 are pure
    dephasing rates of |e> and |1> with the phase of |0> as reference.
    gamma_1to0 and gamma_0to1 are incoherent ground-state transitions,
    kappa_tilde collects unwanted cavity losses.
    """

    gamma: float = 0.0
    xi: float = 0.0
    gamma_ph_e: float = 0.0
    gamma_ph_1: float = 0.0
    gamma_1to0: float = 0.0
    gamma_0to1: float = 0.0
    kappa_tilde: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            finite(getattr(self, field.name), field.name)
        for name in ("gamma", "gamma_ph_e", "gamma_ph_1", "gamma_1to0",
                     "gamma_0to1", "kappa_tilde"):
            if getattr(self, name) < 0:
                raise ValidationError(f"rate {name} must be >= 0")
        if not 0.0 <= self.xi <= math.pi / 2:
            raise ValidationError("branching angle xi must lie in [0, pi/2]")


@dataclass(frozen=True)
class CombinedRates:
    gamma_tilde: float
    Gamma1: float
    Gamma2: float


def combine_rates(raw: RawRates) -> CombinedRates:
    """Collapse the individual dissipators into the three effective rates.

    The coherent no-jump dynamics only feels sums of L_i^dag L_i, so the
    excited-state decay and dephasing add up, as do the two loss channels
    of |1>; |0> is only depleted by the upward ground-state transition.
    """
    return CombinedRates(
        gamma_tilde=raw.gamma + raw.gamma_ph_e,
        Gamma1=raw.gamma_1to0 + raw.gamma_ph_1,
        Gamma2=raw.gamma_0to1,
    )


@dataclass(frozen=True)
class EmitterParams:
    """Effective parameters of the driven three-level emitter in a cavity.

    g: single-photon coupling, kappa: out-coupling rate into the collected
    mode, kappa_tilde: residual cavity loss, gamma_tilde / Gamma1 / Gamma2:
    combined decoherence of |e>, |1>, |0>, Delta: drive-cavity detuning.
    All in rad/ns.
    """

    g: float
    kappa: float
    kappa_tilde: float = 0.0
    gamma_tilde: float = 0.0
    Gamma1: float = 0.0
    Gamma2: float = 0.0
    Delta: float = 0.0

    def __post_init__(self):
        for field in fields(self):
            finite(getattr(self, field.name), field.name)
        if self.g <= 0:
            raise ValidationError("coupling g must be > 0")
        if self.kappa <= 0:
            raise ValidationError("out-coupling kappa must be > 0")
        for name in ("kappa_tilde", "gamma_tilde", "Gamma1", "Gamma2"):
            if getattr(self, name) < 0:
                raise ValidationError(f"rate {name} must be >= 0")


def emitter_from_raw(raw: RawRates, g: float, kappa: float, Delta: float = 0.0,
                     Gamma2_override: float | None = None) -> EmitterParams:
    """Build effective parameters from microscopic rates.

    Gamma2_override replaces the combined |0> rate when the physical system
    has additional |0> decoherence not captured by the listed dissipators.
    """
    comb = combine_rates(raw)
    Gamma2 = comb.Gamma2 if Gamma2_override is None else float(Gamma2_override)
    return EmitterParams(g=g, kappa=kappa, kappa_tilde=raw.kappa_tilde,
                         gamma_tilde=comb.gamma_tilde, Gamma1=comb.Gamma1,
                         Gamma2=Gamma2, Delta=Delta)


def cooperativity(p: EmitterParams) -> float:
    """Generalized cooperativity C = 2 g^2 / (gamma_tilde (kappa + kappa_tilde))."""
    den = p.gamma_tilde * (p.kappa + p.kappa_tilde)
    if den <= 0:
        raise DomainError("cooperativity undefined: gamma_tilde * (kappa + kappa_tilde) = 0")
    return 2.0 * p.g ** 2 / den


_PARAM_KEYS = {
    "g_GHz", "kappa_GHz", "kappa_tilde_GHz", "gamma_GHz", "gamma_ph_e_GHz",
    "gamma_ph_1_GHz", "gamma_1to0_GHz", "gamma_0to1_GHz", "Delta_GHz",
    "xi_rad", "Gamma2_GHz",
}


def params_from_dict(data: dict) -> tuple[EmitterParams, RawRates]:
    """Parameters from a key-value mapping in GHz notation.

    Required keys: g_GHz, kappa_GHz. Decoherence keys default to zero.
    The optional Gamma2_GHz overrides the combined |0> decoherence rate.
    """
    if not isinstance(data, dict):
        raise ValidationError(f"parameters must be a JSON object, got {data!r}")
    unknown = set(data) - _PARAM_KEYS
    if unknown:
        raise ValidationError(f"unknown parameter keys: {sorted(unknown)}")
    for key in ("g_GHz", "kappa_GHz"):
        if key not in data:
            raise ValidationError(f"missing required parameter {key}")
    for key, value in data.items():
        finite(value, f"parameter {key}")
    raw = RawRates(
        gamma=ghz(data.get("gamma_GHz", 0.0)),
        xi=float(data.get("xi_rad", 0.0)),
        gamma_ph_e=ghz(data.get("gamma_ph_e_GHz", 0.0)),
        gamma_ph_1=ghz(data.get("gamma_ph_1_GHz", 0.0)),
        gamma_1to0=ghz(data.get("gamma_1to0_GHz", 0.0)),
        gamma_0to1=ghz(data.get("gamma_0to1_GHz", 0.0)),
        kappa_tilde=ghz(data.get("kappa_tilde_GHz", 0.0)),
    )
    override = data.get("Gamma2_GHz")
    p = emitter_from_raw(
        raw,
        g=ghz(data["g_GHz"]),
        kappa=ghz(data["kappa_GHz"]),
        Delta=ghz(data.get("Delta_GHz", 0.0)),
        Gamma2_override=None if override is None else ghz(override),
    )
    return p, raw


def read_json_object(path: str | Path, what: str = "parameter file") -> dict:
    """Read a JSON file that must hold an object; ValidationError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed {what} {path}: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{what} {path} must hold a JSON object")
    return data


def load_params(path: str | Path) -> tuple[EmitterParams, RawRates]:
    """Read a JSON parameter file, see params_from_dict for the schema."""
    return params_from_dict(read_json_object(path))
