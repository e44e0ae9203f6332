"""Independent oracles for the closed-form solution.

Two checks of increasing physical completeness: forward integration of the
non-Hermitian amplitude equations driven by a synthesized Rabi frequency,
and a full master-equation simulation in the truncated twelve-dimensional
space of a three-level emitter, a single-photon cavity mode, and the
single-photon virtual mode that absorbs the target pulse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ModelError, NumericError, ValidationError, time_grid
from .model import EmitterParams, RawRates, combine_rates
from .pulse import as_envelope
from .trajectory import Amplitudes, InitialState, virtual_coupling


@dataclass
class OdeSolution(Amplitudes):
    """Amplitudes from forward integration of the no-jump equations."""

    err_est: dict
    nfev: int


def integrate_nonhermitian(p: EmitterParams, Omega, init: InitialState,
                           grid) -> OdeSolution:
    """Integrate the amplitude equations for a given drive.

    The photon amplitude obeys an equation that is singular at its zero
    start, so its squared magnitude is integrated instead (an equivalent
    regular form) and the phase is attached afterwards from the convention
    that the initial |1> phase rides on the photon. DOP853 runs at rtol
    1e-10, atol 1e-12; err_est holds each amplitude's largest difference
    from a second pass at tolerances 100 times looser. Omega is the drive,
    a callable of t; grid must hold at least two strictly increasing times.
    """
    grid = time_grid(grid, "grid")
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must hold two or more strictly increasing times")
    g, kappa = p.g, p.kappa
    half_eta_rate = 0.5 * (p.Gamma2 + p.kappa + p.kappa_tilde)

    def rhs(t, y):
        a, b, z, e, m = y
        om = Omega(t)
        da = -0.5 * p.Gamma1 * a + np.conj(om) * z
        db = -0.5 * p.Gamma2 * b
        dz = (-1j * p.Delta - 0.5 * p.gamma_tilde) * z - g * e - om * a
        de = -half_eta_rate * e + g * z
        dm = -p.Gamma2 * m.real + kappa * abs(e) ** 2
        return [da, db, dz, de, dm]

    y0 = np.array([init.alpha0, init.beta0, 0.0, 0.0, 0.0], dtype=complex)
    phase = init.alpha0 / abs(init.alpha0) if init.alpha0 != 0 else 1.0

    def solve(rt, at):
        sol = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="DOP853",
                        t_eval=grid, rtol=rt, atol=at)
        if not sol.success:
            raise NumericError(
                f"amplitude integration failed at t = {sol.t[-1]:.6g}: {sol.message}")
        a, b, z, e, m = sol.y
        return OdeSolution(grid=grid, alpha=a, beta=b, zeta=z, eta=e,
                           lam=phase * np.sqrt(np.maximum(m.real, 0.0)),
                           err_est={}, nfev=sol.nfev)

    out = solve(1e-10, 1e-12)
    out.err_est = out.max_dev(solve(1e-8, 1e-10))
    if np.any(out.norm() > 1.0 + 1e-9):
        raise NumericError("integrated state norm exceeded one beyond tolerance")
    return out


@dataclass
class CompareReport:
    max_dev: dict
    passed: bool


def compare(closed: Amplitudes, ode: Amplitudes) -> CompareReport:
    """Per-amplitude maximum deviation between the two solutions.

    passed: every amplitude agrees to 1e-6.
    """
    if closed.grid.shape != ode.grid.shape or not np.allclose(
            closed.grid, ode.grid, rtol=0.0, atol=0.0):
        raise ValidationError("trajectories must share one time grid")
    devs = closed.max_dev(ode)
    passed = all(v <= 1e-6 for v in devs.values())
    return CompareReport(max_dev=devs, passed=passed)


# ---------------------------------------------------------------------------
# Master-equation oracle
# ---------------------------------------------------------------------------

# Basis order: matter {|1>, |0>, |e>} x cavity {0, 1} x virtual {0, 1}
_MATTER_INDEX = {"1": 0, "0": 1, "e": 2}
_DIM = 12

BASIS_LABELS = tuple(
    f"{m};{nc}c;{nv}v"
    for m in ("1", "0", "e") for nc in (0, 1) for nv in (0, 1)
)


def _mat(bra: str, ket: str) -> np.ndarray:
    out = np.zeros((3, 3), dtype=complex)
    out[_MATTER_INDEX[bra], _MATTER_INDEX[ket]] = 1.0
    return out


def _kron3(m, c, v) -> np.ndarray:
    return np.kron(np.kron(m, c), v)


_I2 = np.eye(2, dtype=complex)
_I3 = np.eye(3, dtype=complex)
_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

OP_C = _kron3(_I3, _LOWER, _I2)       # cavity annihilation
OP_A = _kron3(_I3, _I2, _LOWER)       # virtual-mode annihilation
_OP_DRIVE = _kron3(_mat("e", "1"), _I2, _I2)
_OP_CAV = _kron3(_mat("0", "e"), _LOWER.conj().T, _I2)   # g c^dag |0><e|
_P_E = _kron3(_mat("e", "e"), _I2, _I2)


def _flat_index(m: str, nc: int, nv: int) -> int:
    return (_MATTER_INDEX[m] * 2 + nc) * 2 + nv


# States whose coherent couplings (g or the cascaded capture term) would
# create a second quantum in one bosonic mode; population here measures
# stress on the single-photon truncation.
_MARKER_INDICES = tuple(
    _flat_index(m, nc, nv)
    for m in ("1", "0", "e") for nc in (0, 1) for nv in (0, 1)
    if (m == "e" and nc == 1) or (nc == 1 and nv == 1)
)


@dataclass
class DensityMatrix:
    """12 x 12 state of emitter, cavity mode, and virtual mode."""

    matrix: np.ndarray

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0])

    def population(self, label: str) -> float:
        i = BASIS_LABELS.index(label)
        return float(self.matrix[i, i].real)


@dataclass
class LindbladResult:
    """Final state and checks of one master-equation run.

    rho and the trace, Hermiticity and marker diagnostics describe the full
    (total) state. fidelity is scored on the branch with no photon outside
    the target mode; fidelity_coherent is the no-jump branch alone, so
    fidelity - fidelity_coherent is the part recycled through emitter and
    cavity jumps.
    """

    rho: DensityMatrix
    fidelity: float
    fidelity_coherent: float
    trace_drift: float
    herm_dev: float
    marker_max: float
    nfev: int


def _static_dissipators(raw: RawRates) -> list[np.ndarray]:
    """Emitter and cavity jump operators; zero-weight ones are left out."""
    decay = math.sqrt(raw.gamma)
    weighted = (
        (decay * math.cos(raw.xi), _kron3(_mat("1", "e"), _I2, _I2)),
        (decay * math.sin(raw.xi), _kron3(_mat("0", "e"), _I2, _I2)),
        (math.sqrt(raw.gamma_ph_1), _kron3(_mat("1", "1"), _I2, _I2)),
        (math.sqrt(raw.gamma_ph_e), _P_E),
        (math.sqrt(raw.gamma_0to1), _kron3(_mat("1", "0"), _I2, _I2)),
        (math.sqrt(raw.gamma_1to0), _kron3(_mat("0", "1"), _I2, _I2)),
        (math.sqrt(raw.kappa_tilde), OP_C),
    )
    return [w * op for w, op in weighted if w > 0]


def _k_parts(p: EmitterParams, static_L) -> tuple:
    """Constant parts of K(t) = -i H(t) - (1/2) sum_k L_k^dag L_k.

    With the capture operator L0 = sqrt(kappa) c + conj(g_v) a and the
    cascaded term (i sqrt(kappa) / 2)(conj(g_v) c^dag a - g_v a^dag c) of H,
    the conj(g_v) c^dag a terms cancel, and

        K = K0 - i Omega D - i Omega* D^dag - sqrt(kappa) g_v a^dag c
            - (1/2) |g_v|^2 a^dag a.

    Returns (K0, -i D, -i D^dag, -sqrt(kappa) a^dag c, -(1/2) a^dag a).
    """
    H_static = p.Delta * _P_E + p.g * (_OP_CAV + _OP_CAV.conj().T)
    M = sum((L.conj().T @ L for L in static_L), start=p.kappa * OP_C.conj().T @ OP_C)
    return (-1j * H_static - 0.5 * M, -1j * _OP_DRIVE, -1j * _OP_DRIVE.conj().T,
            -math.sqrt(p.kappa) * OP_A.conj().T @ OP_C,
            -0.5 * OP_A.conj().T @ OP_A)


def _k_matrix(parts, om: complex, gv: complex) -> np.ndarray:
    """K(t) at drive om and virtual coupling gv, from _k_parts."""
    K0, K_om, K_om_conj, K_gv, K_gv2 = parts
    return (K0 + om * K_om + np.conj(om) * K_om_conj + gv * K_gv
            + abs(gv) ** 2 * K_gv2)


# Blocks of the stacked state evolved by lindblad_simulate. Every block
# shares the coherent and anti-commutator terms; the capture jump feeds only
# _TOTAL, the emitter and cavity jumps feed the blocks before _NO_JUMP.
_N_BLOCKS = 3
_TOTAL, _IN_MODE, _NO_JUMP = range(_N_BLOCKS)


def lindblad_simulate(p_raw: RawRates, p: EmitterParams, env, Omega,
                      init: InitialState,
                      forbidden_tol: float | None = None) -> LindbladResult:
    """Evolve the full master equation and score against the target state.

    The coherent part carries the drive, the cavity coupling, and the
    cascaded interaction with the virtual mode whose coupling g_v(t) tracks
    the requested envelope (clamped near t = 0 where it diverges). The
    incoherent part carries the capture dissipator plus every microscopic
    dissipator of the emitter and cavity. DOP853 runs at rtol 1e-8, atol
    1e-11. Trace and Hermiticity are monitored at 41 checkpoints;
    population in truncation-stressed states beyond forbidden_tol raises
    a ModelError. The default tolerance is strict (1e-8) only when no
    upward ground-state transition feeds multi-excitation states, which
    otherwise appear at physical rates.

    The capture operator L0 = sqrt(kappa) c + conj(g_v) a is the field that
    passes the virtual cavity, so an L0 jump leaves a photon in a waveguide
    mode orthogonal to the target mode. Such a branch is orthogonal to the
    target alpha0 |0;0c;1v> + beta0 |0;0c;0v> even though its emitter and
    cavity end in |0;0c;0v>. Three states are therefore evolved together:
    the total state (which rho and the diagnostics describe), the branch
    with no photon outside the target mode (every jump but L0; fidelity is
    scored on it), and the no-jump branch (fidelity_coherent).
    """
    comb = combine_rates(p_raw)
    for name, mine, theirs in (("gamma_tilde", comb.gamma_tilde, p.gamma_tilde),
                               ("Gamma1", comb.Gamma1, p.Gamma1),
                               ("kappa_tilde", p_raw.kappa_tilde, p.kappa_tilde)):
        if abs(mine - theirs) > 1e-9 * max(1.0, abs(theirs)):
            raise ValidationError(
                f"raw rates and effective parameters disagree on {name}")

    env = as_envelope(env)
    T = env.T
    sqrt_kappa = math.sqrt(p.kappa)

    if forbidden_tol is None:
        forbidden_tol = 1e-8 if p_raw.gamma_0to1 == 0.0 else 0.05

    static_L = _static_dissipators(p_raw)
    parts = _k_parts(p, static_L)
    # sum_k L_k rho L_k^dag as one matrix acting on the row-major flattened rho
    jump_static_T = sum((np.kron(L, L.conj()) for L in static_L),
                        start=np.zeros((_DIM ** 2, _DIM ** 2), dtype=complex)).T

    def rhs(t, y):
        rho = y.reshape(_N_BLOCKS, _DIM, _DIM)
        gv = complex(virtual_coupling(env, float(t), kappa=p.kappa))
        K = _k_matrix(parts, complex(Omega(t)), gv)
        L0 = np.conj(gv) * OP_A + sqrt_kappa * OP_C
        drho = K @ rho + rho @ K.conj().T
        drho[_TOTAL] += L0 @ rho[_TOTAL] @ L0.conj().T
        drho[:_NO_JUMP] += (rho[:_NO_JUMP].reshape(_NO_JUMP, -1)
                            @ jump_static_T).reshape(_NO_JUMP, _DIM, _DIM)
        return drho.reshape(-1)

    psi0 = np.zeros(_DIM, dtype=complex)
    psi0[_flat_index("1", 0, 0)] = init.alpha0
    psi0[_flat_index("0", 0, 0)] = init.beta0
    rho0 = np.outer(psi0, psi0.conj())

    checkpoints = np.linspace(0.0, T, 41)
    sol = solve_ivp(rhs, (0.0, T), np.tile(rho0.reshape(-1), _N_BLOCKS),
                    method="DOP853", t_eval=checkpoints, rtol=1e-8, atol=1e-11,
                    max_step=T / 64.0)
    if not sol.success:
        raise NumericError(f"master-equation integration failed: {sol.message}")
    states = sol.y.T.reshape(-1, _N_BLOCKS, _DIM, _DIM)

    trace_drift = 0.0
    herm_dev = 0.0
    marker_max = 0.0
    for rho_k in states[:, _TOTAL]:
        trace_drift = max(trace_drift, abs(np.trace(rho_k).real - 1.0))
        herm_dev = max(herm_dev, float(np.max(np.abs(rho_k - rho_k.conj().T))))
        marker = float(sum(rho_k[i, i].real for i in _MARKER_INDICES))
        marker_max = max(marker_max, marker)
    if trace_drift > 1e-6:
        raise NumericError(f"trace drifted by {trace_drift:.3e} (> 1e-6)")
    if herm_dev > 1e-10:
        raise NumericError(f"state lost Hermiticity by {herm_dev:.3e}")
    if marker_max > forbidden_tol:
        raise ModelError(
            f"population {marker_max:.3e} in truncation-stressed states exceeds "
            f"{forbidden_tol:.1e}; the single-photon truncation is not trustworthy")

    final = states[-1]
    dm = DensityMatrix(matrix=final[_TOTAL])
    if dm.min_eigenvalue() < -1e-8:
        raise NumericError(
            f"final state has eigenvalue {dm.min_eigenvalue():.3e} below -1e-8")

    psi_tgt = np.zeros(_DIM, dtype=complex)
    psi_tgt[_flat_index("0", 0, 1)] = init.alpha0
    psi_tgt[_flat_index("0", 0, 0)] = init.beta0
    fid, fid_coherent = (float(np.real(psi_tgt.conj() @ final[k] @ psi_tgt))
                         for k in (_IN_MODE, _NO_JUMP))

    return LindbladResult(rho=dm, fidelity=fid, fidelity_coherent=fid_coherent,
                          trace_drift=trace_drift, herm_dev=herm_dev,
                          marker_max=marker_max, nfev=sol.nfev)
