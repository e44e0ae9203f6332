"""Gate-level replay of the time-bin and entanglement emission circuits.

States live in an amplitude map over product basis labels: a matter level
in {0, 1, e, a}, an optional ancilla qubit, and one occupation bit per
photon time bin. The EMIT gate is the stimulated Raman emission acting as
an isometry-plus-loss on the matter |1> level: amplitude E goes to |0>
with a photon in the chosen bin, the rest of that branch's weight is lost.
Sub-normalized states therefore track the overall success amplitude.

The half-pi rotation between |0> and the ancillary level |a> uses the
square-root-of-NOT convention, so applying it twice gives a clean
population swap; this is what the emission circuits need for their
storage and retrieval steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LayoutError, ProtocolError, ValidationError, finite
from .pulse import write_json

_SQRT_NOT = {
    ("0", "0"): 0.5 * (1 + 1j), ("a", "0"): 0.5 * (1 - 1j),
    ("0", "a"): 0.5 * (1 - 1j), ("a", "a"): 0.5 * (1 + 1j),
}

GATES = ("X", "CnNOT", "SWAP", "HALFPI_0a")


@dataclass
class ProtocolState:
    """Amplitude map over (matter, ancilla, bins) basis labels."""

    amps: dict
    n_bins: int
    has_ancilla: bool

    def norm(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amps.values()))

    def amplitude(self, matter: str, ancilla: str | None, bins) -> complex:
        return self.amps.get((matter, ancilla, tuple(bins)), 0.0 + 0.0j)

    def pruned(self) -> "ProtocolState":
        amps = {k: v for k, v in self.amps.items() if abs(v) > 1e-15}
        return ProtocolState(amps, self.n_bins, self.has_ancilla)

    def to_jsonable(self) -> dict:
        out = {}
        for (m, anc, bins), amp in sorted(self.amps.items()):
            label = f"m={m}"
            if self.has_ancilla:
                label += f",n={anc}"
            label += ",bins=" + "".join(str(b) for b in bins)
            out[label] = [amp.real, amp.imag]
        return out


def _new_state(amps: dict, template: ProtocolState) -> ProtocolState:
    return ProtocolState(amps, template.n_bins, template.has_ancilla).pruned()


def apply_gate(state: ProtocolState, gate: str) -> ProtocolState:
    """Exact unitary action of one gate on the amplitude map.

    X swaps the matter levels 0 and 1. CnNOT flips the matter qubit when
    the ancilla is |1>. SWAP exchanges ancilla and matter qubit values.
    HALFPI_0a is the half-pi rotation inside the {|0>, |a>} subspace.
    """
    if gate not in GATES:
        raise ValidationError(f"unknown gate {gate!r}; choose from {GATES}")
    if gate in ("CnNOT", "SWAP") and not state.has_ancilla:
        raise LayoutError(f"{gate} needs an ancilla qubit in the register")
    flip = {"0": "1", "1": "0"}
    out: dict = {}

    def add(key, amp):
        out[key] = out.get(key, 0.0 + 0.0j) + amp

    for (m, anc, bins), amp in state.amps.items():
        if gate == "X":
            add((flip.get(m, m), anc, bins), amp)
        elif gate == "CnNOT":
            m_new = flip.get(m, m) if anc == "1" else m
            add((m_new, anc, bins), amp)
        elif gate == "SWAP":
            if m in ("0", "1"):
                add((anc, m, bins), amp)
            else:
                add((m, anc, bins), amp)
        else:  # HALFPI_0a
            if m in ("0", "a"):
                for m_new in ("0", "a"):
                    add((m_new, anc, bins), _SQRT_NOT[(m_new, m)] * amp)
            else:
                add((m, anc, bins), amp)
    return _new_state(out, state)


def emit(state: ProtocolState, bin_index: int, efficiency: float = 1.0) -> ProtocolState:
    """Stimulated Raman emission of the |1> amplitude into a fresh time bin.

    |1> goes to |0> with a photon added in the bin and weight `efficiency`;
    the squared weight deficit on that branch is lost. Other matter levels
    are untouched. The bin must be empty across every branch.
    """
    if not 0 <= bin_index < state.n_bins:
        raise ProtocolError(f"bin {bin_index} outside the register")
    if not 0.0 <= efficiency <= 1.0:
        raise ValidationError("efficiency must lie in [0, 1]")
    for (m, anc, bins), amp in state.amps.items():
        if bins[bin_index] == 1 and abs(amp) > 0:
            raise ProtocolError(f"bin {bin_index} already occupied")
    out: dict = {}
    for (m, anc, bins), amp in state.amps.items():
        if m == "1":
            new_bins = tuple(1 if i == bin_index else b
                             for i, b in enumerate(bins))
            key = ("0", anc, new_bins)
            out[key] = out.get(key, 0.0 + 0.0j) + efficiency * amp
        else:
            key = (m, anc, bins)
            out[key] = out.get(key, 0.0 + 0.0j) + amp
    return _new_state(out, state)


# Sequences reconstructed from the reported output states: the storage
# transfer between |0> and |a> is a pair of half-pi pulses, and replacing
# the SWAP by a second CnNOT (or dropping the mid-circuit X) keeps the
# register entangled with the photon instead of releasing it.
_SEQUENCES = {
    "timebin_a": (True, [("gate", "CnNOT"), ("emit", 0), ("gate", "SWAP"),
                         ("gate", "X"), ("emit", 1)]),
    "entangle_a": (True, [("gate", "CnNOT"), ("emit", 0), ("gate", "CnNOT"),
                          ("gate", "X"), ("emit", 1)]),
    "timebin_b": (False, [("gate", "HALFPI_0a"), ("gate", "HALFPI_0a"),
                          ("emit", 0), ("gate", "X"), ("gate", "HALFPI_0a"),
                          ("gate", "HALFPI_0a"), ("gate", "X"), ("emit", 1)]),
    "entangle_b": (False, [("gate", "HALFPI_0a"), ("gate", "HALFPI_0a"),
                           ("emit", 0), ("gate", "HALFPI_0a"),
                           ("gate", "HALFPI_0a"), ("gate", "X"), ("emit", 1)]),
}

PROTOCOLS = tuple(_SEQUENCES)


def _target_state(which: str, alpha0: complex, beta0: complex,
                  has_ancilla: bool) -> ProtocolState:
    if which == "timebin_a":
        amps = {("0", "0", (1, 0)): alpha0, ("0", "0", (0, 1)): beta0}
    elif which == "entangle_a":
        amps = {("0", "1", (1, 0)): alpha0, ("0", "0", (0, 1)): beta0}
    elif which == "timebin_b":
        amps = {("0", None, (1, 0)): alpha0, ("0", None, (0, 1)): beta0}
    else:  # entangle_b
        amps = {("a", None, (1, 0)): alpha0, ("0", None, (0, 1)): beta0}
    return ProtocolState(amps, 2, has_ancilla)


@dataclass
class ProtocolResult:
    which: str
    state: ProtocolState
    target: ProtocolState
    fidelity: float
    norm: float


def run_protocol(which: str, alpha0: complex, beta0: complex,
                 efficiency: float = 1.0) -> ProtocolResult:
    """Compose one of the four emission circuits and score the output.

    In the ancilla-qubit variants the input superposition sits on the
    ancilla with the matter qubit in |0>; in the single-ancillary-state
    variants it sits on the matter qubit directly. The fidelity is the
    squared overlap with the ideal (unit-efficiency) output.
    """
    if which not in _SEQUENCES:
        raise ValidationError(f"unknown protocol {which!r}; choose from {PROTOCOLS}")
    alpha0, beta0 = finite(alpha0, "alpha0", complex), finite(beta0, "beta0", complex)
    norm = abs(alpha0) ** 2 + abs(beta0) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise ValidationError("initial amplitudes must be normalized")

    has_ancilla, ops = _SEQUENCES[which]
    if has_ancilla:
        state = ProtocolState({("0", "1", (0, 0)): alpha0,
                               ("0", "0", (0, 0)): beta0}, 2, True)
    else:
        state = ProtocolState({("1", None, (0, 0)): alpha0,
                               ("0", None, (0, 0)): beta0}, 2, False)
    for kind, arg in ops:
        if kind == "gate":
            state = apply_gate(state, arg)
        else:
            state = emit(state, arg, efficiency)

    target = _target_state(which, alpha0, beta0, has_ancilla)
    overlap = sum(np.conj(t_amp) * state.amps.get(key, 0.0)
                  for key, t_amp in target.amps.items())
    return ProtocolResult(which=which, state=state, target=target,
                          fidelity=float(abs(overlap) ** 2), norm=state.norm())


def write_result(result: ProtocolResult, path: str | Path):
    data = {
        "protocol": result.which,
        "amplitudes": result.state.to_jsonable(),
        "target": result.target.to_jsonable(),
        "fidelity": result.fidelity,
        "norm": result.norm,
    }
    write_json(path, data)
