import json
import math

import numpy as np
import pytest

from ramanpulse import (LayoutError, ProtocolError, ValidationError)
from ramanpulse.protocol import (PROTOCOLS, ProtocolState, apply_gate, emit,
                                 run_protocol, write_result)

A0, B0 = 0.6, 0.8


def _qubit(alpha, beta, ancilla=False):
    if ancilla:
        amps = {("0", "1", (0, 0)): alpha, ("0", "0", (0, 0)): beta}
    else:
        amps = {("1", None, (0, 0)): alpha, ("0", None, (0, 0)): beta}
    return ProtocolState.from_labels(amps)


def test_x_gate():
    s = apply_gate(_qubit(A0, B0), "X")
    assert s.amplitude("0", None, (0, 0)) == A0
    assert s.amplitude("1", None, (0, 0)) == B0


def test_cnnot_control():
    s = apply_gate(_qubit(A0, B0, ancilla=True), "CnNOT")
    assert s.amplitude("1", "1", (0, 0)) == A0
    assert s.amplitude("0", "0", (0, 0)) == B0


def test_swap_involution():
    s0 = apply_gate(_qubit(A0, B0, ancilla=True), "CnNOT")
    s1 = apply_gate(apply_gate(s0, "SWAP"), "SWAP")
    assert s1.amps == pytest.approx(s0.amps)


def test_halfpi_squares_to_transfer():
    s = _qubit(A0, B0)
    s2 = apply_gate(apply_gate(s, "HALFPI_0a"), "HALFPI_0a")
    assert s2.amplitude("a", None, (0, 0)) == pytest.approx(B0)
    assert s2.amplitude("1", None, (0, 0)) == pytest.approx(A0)
    assert s2.norm() == pytest.approx(1.0, abs=1e-12)
    s4 = apply_gate(apply_gate(s2, "HALFPI_0a"), "HALFPI_0a")
    assert s4.amplitude("0", None, (0, 0)) == pytest.approx(B0)


def test_gate_layout_errors():
    with pytest.raises(LayoutError):
        apply_gate(_qubit(A0, B0), "CnNOT")
    with pytest.raises(ValidationError):
        apply_gate(_qubit(A0, B0), "HADAMARD")


def test_emit_entangles_with_photon_number():
    # first emission of the ancilla-qubit circuit
    s = apply_gate(_qubit(A0, B0, ancilla=True), "CnNOT")
    s = emit(s, 0, 1.0)
    assert s.amplitude("0", "1", (1, 0)) == pytest.approx(A0)
    assert s.amplitude("0", "0", (0, 0)) == pytest.approx(B0)
    assert s.norm() == pytest.approx(1.0, abs=1e-12)


def test_emit_with_loss():
    E = 0.9
    s = emit(_qubit(A0, B0), 0, E)
    assert s.amplitude("0", None, (1, 0)) == pytest.approx(E * A0)
    assert s.norm() == pytest.approx(1.0 - (1 - E ** 2) * A0 ** 2, abs=1e-12)


def test_emit_occupied_bin():
    s = emit(_qubit(A0, B0), 0, 1.0)
    s = apply_gate(s, "X")
    with pytest.raises(ProtocolError):
        emit(s, 0, 1.0)
    with pytest.raises(ProtocolError):
        emit(s, 5, 1.0)


def test_emit_validates_efficiency():
    with pytest.raises(ValidationError):
        emit(_qubit(A0, B0), 0, 1.4)


@pytest.mark.parametrize("which", PROTOCOLS)
def test_protocols_reach_targets_exactly(which):
    res = run_protocol(which, A0, B0, efficiency=1.0)
    assert res.fidelity == pytest.approx(1.0, abs=1e-12)
    assert res.norm == pytest.approx(1.0, abs=1e-12)
    # the whole output register equals the target register
    assert res.state.amps.shape == res.target.amps.shape
    assert np.max(np.abs(res.state.amps - res.target.amps)) <= 1e-12
    assert np.count_nonzero(res.state.amps) == np.count_nonzero(res.target.amps)


def test_timebin_targets_use_disjoint_bins():
    res = run_protocol("timebin_a", A0, B0)
    bins = [tuple(idx[2:]) for idx in np.argwhere(res.state.amps).tolist()]
    assert sorted(bins) == [(0, 1), (1, 0)]


def test_entangle_b_structure():
    res = run_protocol("entangle_b", A0, B0)
    assert res.state.amplitude("a", None, (1, 0)) == pytest.approx(A0)
    assert res.state.amplitude("0", None, (0, 1)) == pytest.approx(B0)


def test_entangle_a_structure():
    res = run_protocol("entangle_a", A0, B0)
    assert res.state.amplitude("0", "1", (1, 0)) == pytest.approx(A0)
    assert res.state.amplitude("0", "0", (0, 1)) == pytest.approx(B0)


def test_protocols_with_complex_amplitudes():
    a = 0.6 * np.exp(0.7j)
    b = 0.8 * np.exp(-0.2j)
    for which in PROTOCOLS:
        res = run_protocol(which, a, b)
        assert res.fidelity == pytest.approx(1.0, abs=1e-12)


def test_lossy_protocol_fidelity():
    # each branch emits exactly once, so the overlap carries one factor of E
    E = 0.93
    for which in PROTOCOLS:
        res = run_protocol(which, A0, B0, efficiency=E)
        assert res.fidelity == pytest.approx(E ** 2, abs=1e-12)
        assert res.norm == pytest.approx(E ** 2, abs=1e-12)
        assert np.max(np.abs(res.state.amps - E * res.target.amps)) <= 1e-15


def test_run_protocol_validation():
    with pytest.raises(ValidationError):
        run_protocol("timebin_c", A0, B0)
    with pytest.raises(ValidationError):
        run_protocol("timebin_a", 1.0, 1.0)
    # NaN and inf would pass the norm check, which is False for NaN
    for a0, b0 in ((math.nan, 0.0), (0.0, complex(math.nan, 1.0)),
                   (math.inf, 0.0), (0.6, complex(0.8, -math.inf))):
        with pytest.raises(ValidationError):
            run_protocol("timebin_a", a0, b0)


def test_write_result(tmp_path):
    res = run_protocol("timebin_b", A0, B0, efficiency=0.95)
    path = tmp_path / "protocol.json"
    write_result(res, path)
    data = json.loads(path.read_text())
    assert data["protocol"] == "timebin_b"
    assert data["fidelity"] == pytest.approx(0.95 ** 2)
    assert any(k.startswith("m=0,bins=10") for k in data["amplitudes"])
