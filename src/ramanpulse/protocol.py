"""Gate-level replay of the time-bin and entanglement emission circuits.

A state is one complex array over the register axes (matter, ancilla, bin 0,
bin 1, ...): the matter level in the order 0, 1, a, e; the ancilla qubit, a
single slot when the register has none; one occupation bit per photon time
bin. Gates are index moves on that array. After every step any amplitude
with |amp| <= 1e-15 is set to 0.

EMIT, the stimulated Raman emission, is one slice move: the matter |1>
amplitude goes to |0> with a photon in the chosen bin, scaled by the
efficiency E, and the rest of that branch's weight is lost. Sub-normalized
states therefore track the overall success amplitude.

The half-pi rotation between |0> and the ancillary level |a> uses the
square-root-of-NOT convention, so applying it twice gives a clean
population swap; this is what the emission circuits need for their
storage and retrieval steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import LayoutError, ProtocolError, ValidationError
from .pulse import write_json
from .trajectory import InitialState

_MATTER = "01ae"
_SQRT_NOT = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])  # rows 0, a

GATES = ("X", "CnNOT", "SWAP", "HALFPI_0a")


@dataclass
class ProtocolState:
    """Amplitudes over the register axes (matter, ancilla, bin 0, ...)."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        self.amps = np.where(np.abs(amps) > 1e-15, amps, 0.0)

    @classmethod
    def from_labels(cls, labels: dict) -> "ProtocolState":
        """The register holding amp at each (matter, ancilla or None, bins) label."""
        has_ancilla = any(anc is not None for _, anc, _ in labels)
        n_bins = len(next(iter(labels))[2])
        amps = np.zeros((4, 1 + has_ancilla) + (2,) * n_bins, dtype=complex)
        for (m, anc, bins), amp in labels.items():
            amps[(_MATTER.index(m), int(anc or 0), *bins)] = amp
        return cls(amps)

    @property
    def has_ancilla(self) -> bool:
        return self.amps.shape[1] == 2

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def amplitude(self, matter: str, ancilla: str | None, bins) -> complex:
        return complex(self.amps[(_MATTER.index(matter), int(ancilla or 0), *bins)])

    def to_jsonable(self) -> dict:
        out = {}
        for m, anc, *bins in zip(*np.nonzero(self.amps)):
            label = f"m={_MATTER[m]}" + (f",n={anc}" if self.has_ancilla else "")
            amp = complex(self.amps[(m, anc, *bins)])
            out[label + ",bins=" + "".join(map(str, bins))] = [amp.real, amp.imag]
        return out


def apply_gate(state: ProtocolState, gate: str) -> ProtocolState:
    """Exact unitary action of one gate on the register.

    X swaps the matter levels 0 and 1. CnNOT flips the matter qubit when
    the ancilla is |1>. SWAP exchanges ancilla and matter qubit values.
    HALFPI_0a is the half-pi rotation inside the {|0>, |a>} subspace.
    """
    if gate not in GATES:
        raise ValidationError(f"unknown gate {gate!r}; choose from {GATES}")
    if gate in ("CnNOT", "SWAP") and not state.has_ancilla:
        raise LayoutError(f"{gate} needs an ancilla qubit in the register")
    a, out = state.amps, state.amps.copy()
    if gate == "X":
        out[:2] = a[1::-1]
    elif gate == "CnNOT":
        out[:2, 1] = a[1::-1, 1]
    elif gate == "SWAP":
        out[:2] = a[:2].swapaxes(0, 1)
    else:  # HALFPI_0a
        out[[0, 2]] = np.tensordot(_SQRT_NOT, a[[0, 2]], 1)
    return ProtocolState(out)


def emit(state: ProtocolState, bin_index: int, efficiency: float = 1.0) -> ProtocolState:
    """Stimulated Raman emission of the |1> amplitude into a fresh time bin.

    |1> goes to |0> with a photon added in the bin and weight `efficiency`;
    the squared weight deficit on that branch is lost. Other matter levels
    are untouched. The bin must be empty across every branch.
    """
    if not 0 <= bin_index < state.amps.ndim - 2:
        raise ProtocolError(f"bin {bin_index} outside the register")
    if not 0.0 <= efficiency <= 1.0:
        raise ValidationError("efficiency must lie in [0, 1]")
    a = np.moveaxis(state.amps, 2 + bin_index, 0)  # axes: bin, matter, ancilla, ...
    if np.any(a[1]):
        raise ProtocolError(f"bin {bin_index} already occupied")
    out = a.copy()
    out[1, 0], out[0, 1] = efficiency * a[0, 1], 0.0
    return ProtocolState(np.moveaxis(out, 0, 2 + bin_index))


# Gates by name, each EMIT by its bin. Sequences reconstructed from the reported
# output states: the storage transfer between |0> and |a> is a pair of half-pi
# pulses, and replacing the SWAP by a second CnNOT (or dropping the mid-circuit
# X) keeps the register entangled with the photon instead of releasing it.
_SEQUENCES = {
    "timebin_a": ("CnNOT", 0, "SWAP", "X", 1),
    "entangle_a": ("CnNOT", 0, "CnNOT", "X", 1),
    "timebin_b": ("HALFPI_0a", "HALFPI_0a", 0, "X", "HALFPI_0a", "HALFPI_0a", "X", 1),
    "entangle_b": ("HALFPI_0a", "HALFPI_0a", 0, "HALFPI_0a", "HALFPI_0a", "X", 1),
}

PROTOCOLS = tuple(_SEQUENCES)

# The (matter, ancilla, bins) labels of the alpha0 and beta0 branches: at
# the input, by whether the register has an ancilla; in the ideal output.
_INPUTS = {True: (("0", "1", (0, 0)), ("0", "0", (0, 0))),
           False: (("1", None, (0, 0)), ("0", None, (0, 0)))}
_TARGETS = {
    "timebin_a": (("0", "0", (1, 0)), ("0", "0", (0, 1))),
    "entangle_a": (("0", "1", (1, 0)), ("0", "0", (0, 1))),
    "timebin_b": (("0", None, (1, 0)), ("0", None, (0, 1))),
    "entangle_b": (("a", None, (1, 0)), ("0", None, (0, 1))),
}


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
    InitialState(alpha0, beta0)  # finite and normalized
    qubit = (complex(alpha0), complex(beta0))
    target = ProtocolState.from_labels(dict(zip(_TARGETS[which], qubit)))
    state = ProtocolState.from_labels(dict(zip(_INPUTS[target.has_ancilla], qubit)))
    for op in _SEQUENCES[which]:
        state = apply_gate(state, op) if isinstance(op, str) else emit(state, op, efficiency)
    overlap = np.vdot(target.amps, state.amps)
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
