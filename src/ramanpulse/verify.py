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
from functools import lru_cache

import numpy as np
from scipy import sparse
from scipy.integrate import DOP853

from .errors import ModelError, NumericError, ValidationError, time_grid
from .model import EmitterParams, RawRates, combine_rates
from .pulse import as_envelope
from .trajectory import Amplitudes, InitialState, virtual_coupling


@dataclass
class OdeSolution(Amplitudes):
    """Amplitudes from forward integration of the no-jump equations."""

    nfev: int


def integrate_nonhermitian(p: EmitterParams, Omega, init: InitialState,
                           grid) -> OdeSolution:
    """Integrate the amplitude equations for a given drive.

    The no-jump amplitudes are linear in the initial state: alpha, zeta and
    eta scale with alpha0, beta with beta0. So one unit solve from
    (alpha, beta) = (1, 1) serves every state, and a state's amplitudes are
    that solve scaled. The photon amplitude obeys an equation that is
    singular at its zero start, so its squared magnitude m is integrated
    instead (an equivalent regular form); m scales with |alpha0|^2, and
    lambda = alpha0 sqrt(m) puts the initial |1> phase on the photon. The
    solve runs on the stepper of lindblad_simulate (_dop853, error norm on
    the real view of the state) at rtol 1e-10, atol 1e-12, and reads the
    grid from DOP853's dense output. It is the only pass: no error estimate
    is computed. The norm check is made per state.

    The unit solve is cached for the next call with an equal (p, Omega,
    grid) (lru_cache, one entry), whose nfev it reports too; a bound
    ClosedFormSolution.Omega equals only the same instance's. A solve that
    raises is not cached and evicts nothing. Omega must be a hashable pure
    function of t (functions, lambdas, bound methods and partials hash),
    called on a 1-d array of times (a scalar return is broadcast). grid
    must hold at least two strictly increasing times.
    """
    grid = time_grid(grid, "grid")
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise ValidationError("grid must hold two or more strictly increasing times")
    y, nfev = _unit_amplitudes(p, Omega, grid.tobytes())
    a0, b0 = complex(init.alpha0), complex(init.beta0)
    a, b, z, e, m = y.T
    out = OdeSolution(grid=grid, alpha=a0 * a, beta=b0 * b, zeta=a0 * z, eta=a0 * e,
                      lam=a0 * np.sqrt(np.maximum(m.real, 0.0)), nfev=nfev)
    if np.any(out.norm() > 1.0 + 1e-9):
        raise NumericError("integrated state norm exceeded one beyond tolerance")
    return out


@lru_cache(maxsize=1)
def _unit_amplitudes(p: EmitterParams, Omega, grid: bytes):
    """The unit solve on grid (its float bytes) and its nfev.

    The right-hand side works on python complex numbers (the state's
    tolist(), the drive samples as a list): on 5 entries they cost less than
    numpy's scalars or arrays, for the same bits.
    """
    grid = np.frombuffer(grid)
    g, kappa, G2 = p.g, p.kappa, p.Gamma2
    half_G1, half_G2 = 0.5 * p.Gamma1, 0.5 * G2
    zeta_rate = -1j * p.Delta - 0.5 * p.gamma_tilde
    half_eta_rate = 0.5 * (G2 + kappa + p.kappa_tilde)

    def rhs(om, y):
        a, b, z, e, m = y.tolist()
        return np.array([-half_G1 * a + om.conjugate() * z, -half_G2 * b,
                         zeta_rate * z - g * e - om * a,
                         -half_eta_rate * e + g * z, -G2 * m.real + kappa * abs(e) ** 2])

    return _dop853(lambda t: _sample(Omega, t).tolist(), rhs,
                   np.array([1.0, 1.0, 0.0, 0.0, 0.0], dtype=complex), grid,
                   np.inf, 1e-10, 1e-12)


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
    the target mode; fidelity_coherent on the no-jump branch alone, a pure
    state evolved as a vector, so fidelity - fidelity_coherent is the part
    recycled through emitter and cavity jumps.
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


_ERR = np.stack([DOP853.E5, DOP853.E3])
# stage times as fractions of a step: its 11 (the last is its end), the dense output's 3
_NODES = np.concatenate([DOP853.C[1:], DOP853.C_EXTRA])


def _dense_rows():
    """The rows, over h, of scipy's Dop853DenseOutput terms F_0..F_6 on a
    step's 16 stages k: F_0 = y_new - y = h B k, F_1 = h k_0 - F_0,
    F_2 = 2 F_0 - h (k_12 + k_0), F_3..F_6 = h D k. The step's 7th-order
    interpolant is y(t + x h) = y + (_basis(x) @ (h * _DENSE)) @ k."""
    n_st = DOP853.n_stages
    dy = np.zeros(n_st + 4)
    dy[:n_st] = DOP853.B
    k0, k_end = np.eye(n_st + 4)[[0, n_st]]
    return np.vstack([dy, k0 - dy, 2.0 * dy - k_end - k0, DOP853.D])


_DENSE = _dense_rows()
# powers of a and of x in each term of the interpolant's basis
_A_POWERS, _X_POWERS = np.array([0, 1, 1, 2, 2, 3, 3.0]), np.array([1, 0, 1, 0, 1, 0, 1.0])


def _basis(x):
    """The interpolant's basis at the fractions x of a step, a row per x:
    [x, a, a x, a^2, a^2 x, a^3, a^3 x] with a = x (1 - x), the terms of
    scipy's Horner loop over F_0..F_6."""
    x = x[:, None]
    return (x * (1.0 - x)) ** _A_POWERS * x ** _X_POWERS


def _sample(Omega, t):  # the drive on a 1-d array of times; a scalar return is broadcast
    out = np.empty(t.shape, dtype=complex)
    out[...] = Omega(t)
    return out


def _dop853(weights, rhs, y0, times, max_step, rtol, atol):
    """States of dy/dt = rhs(w(t), y) at the given times, and the nfev.

    scipy's DOP853 step, error norm (on the real view of y) and step
    control, with steps clipped only at times[-1]; every earlier time is
    read from the 7th-order dense output (scipy's Dop853DenseOutput as one
    product, y + (_basis(x) @ (h * _DENSE)) @ k), whose 3 extra stages run
    only on accepted steps that hold such times. All weights of the stages,
    the step, the error estimate and the interpolant are real, so each sum
    runs on the real views of k and y: a complex y costs two real entries,
    not a complex product. The first step is Hairer's guess
    0.01 |y0| / |f0|, cut by rejections where it is too long. weights(t)
    returns one w(t) per time of a 1-d array (an array or a list); it is
    called at times[0], then once per attempted step on its 14 stage times.
    y0 is a 1-d complex array.
    """
    n_st = DOP853.n_stages
    k = np.empty((n_st + 4, y0.size), dtype=complex)
    kr = k.view(float)
    k[0] = rhs(weights(times[:1])[0], y0)
    scale = atol + rtol * abs(y0.view(float))
    d0, d1 = (np.linalg.norm(v.view(float) / scale) / math.sqrt(scale.size)
              for v in (y0, k[0]))
    h_abs = 0.01 * d0 / d1 if min(d0, d1) > 1e-5 else 1e-6
    out = np.empty((times.size, y0.size), dtype=complex)
    out[0] = y = y0
    t, nfev, i, cap = times[0], 1, 1, 10.0
    while t < times[-1]:
        h_abs = min(h_abs, max_step)
        if not h_abs >= 10 * np.spacing(t):  # NaN too
            raise NumericError(f"DOP853 step fell below float spacing at t = {t:.6g}")
        t_new = min(t + h_abs, times[-1])
        h = t_new - t
        W = weights(t + h * _NODES)
        hA, yr = h * DOP853.A, y.view(float)
        for s in range(1, n_st):
            k[s] = rhs(W[s - 1], (yr + hA[s, :s] @ kr[:s]).view(complex))
        y_new = (yr + (h * DOP853.B) @ kr[:n_st]).view(complex)
        k[n_st] = rhs(W[n_st - 2], y_new)
        nfev += n_st
        scale = atol + rtol * np.maximum(abs(yr), abs(y_new.view(float)))
        e5, e3 = np.sum((_ERR @ kr[:n_st + 1] / scale) ** 2, axis=1)
        err = h * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size) if e5 + e3 else 0.0
        factor = 0.9 * err ** -0.125 if err else 10.0
        if not err < 1.0:  # retry shorter (NaN too); the step after grows no longer
            h_abs, cap = h * max(0.2, factor), 1.0
            continue
        h_abs, cap = h * min(cap, factor), 10.0
        j = np.searchsorted(times[:-1], t_new, side="right")
        if j > i:
            for s, a in enumerate(h * DOP853.A_EXTRA, start=n_st + 1):
                k[s] = rhs(W[s - 2], (yr + a[:s] @ kr[:s]).view(complex))
            nfev += 3
            x = (times[i:j] - t) / h
            out[i:j] = (yr + (_basis(x) @ (h * _DENSE)) @ kr).view(complex)
            i = j
        k[0] = k[n_st]
        y, t = y_new, t_new
    out[-1] = y
    return out, nfev


def lindblad_simulate(p_raw: RawRates, p: EmitterParams, env, Omega,
                      init: InitialState,
                      forbidden_tol: float | None = None) -> LindbladResult:
    """Evolve the full master equation and score against the target state.

    The coherent part carries the drive, the cavity coupling, and the
    cascaded interaction with the virtual mode whose coupling g_v(t) tracks
    the requested envelope (clamped near t = 0 where it diverges). The
    incoherent part carries the capture dissipator plus every microscopic
    dissipator of the emitter and cavity. Trace and Hermiticity are
    monitored at 41 checkpoints; population in truncation-stressed states
    beyond forbidden_tol raises a ModelError. The default tolerance is
    strict (1e-8) only when no upward ground-state transition feeds
    multi-excitation states, which otherwise appear at physical rates.

    The capture operator L0 = sqrt(kappa) c + conj(g_v) a is the field that
    passes the virtual cavity, so an L0 jump leaves a photon in a waveguide
    mode orthogonal to the target mode. Such a branch is orthogonal to the
    target alpha0 |0;0c;1v> + beta0 |0;0c;0v> even though its emitter and
    cavity end in |0;0c;0v>. Two density blocks are therefore evolved
    together: the total state (which rho and the diagnostics describe) and
    the branch with no photon outside the target mode (every jump but L0;
    fidelity is scored on it). The no-jump branch is pure, psi psi^dag with
    d(psi)/dt = K(t) psi, and is evolved as state vectors alongside them;
    fidelity_coherent is |<target|psi(T)>|^2.

    One drive defines one channel Phi, linear in the initial state and
    Hermiticity-preserving on both blocks. The initial state a |1> + b |0>
    (times |0c;0v>) is |a|^2 E11 + a b* E10 + (a b* E10)^dag + |b|^2 E00 on
    E11 = |1><1|, E10 = |1><0| and E00 = |0><0|, so one solve of these three
    inputs (_channel) gives every state at every checkpoint as
    |a|^2 Phi(E11) + a b* Phi(E10) + (a b* Phi(E10))^dag + |b|^2 Phi(E00),
    and its no-jump vector as a psi_1 + b psi_0 from the same solve of the
    vectors psi_1 and psi_0 that start at |1> and |0>. The trace,
    Hermiticity, marker and eigenvalue checks and both fidelities are made
    per state. The solve is cached for the next call with an equal
    (p_raw, p, env, Omega) (lru_cache, one entry), whose nfev it reports
    too; a bound ClosedFormSolution.Omega equals only the same instance's.
    A solve that raises is not cached and evicts nothing. The operator of
    the solve, one sparse matrix for both density blocks and the vectors,
    is built once per emitter (_generator). The rate-consistency
    check runs on every call. Omega must be a hashable pure function of t
    (functions, lambdas, bound methods and partials hash): it is called on
    a 1-d array of times, at t = 0 and once per attempted step on its stage
    times (a scalar return is broadcast). nfev counts right-hand-side
    evaluations.
    """
    comb = combine_rates(p_raw)
    for name, mine, theirs in (("gamma_tilde", comb.gamma_tilde, p.gamma_tilde),
                               ("Gamma1", comb.Gamma1, p.Gamma1),
                               ("kappa_tilde", p_raw.kappa_tilde, p.kappa_tilde)):
        if abs(mine - theirs) > 1e-9 * max(1.0, abs(theirs)):
            raise ValidationError(
                f"raw rates and effective parameters disagree on {name}")

    env = as_envelope(env)
    if forbidden_tol is None:
        forbidden_tol = 1e-8 if p_raw.gamma_0to1 == 0.0 else 0.05

    (E11, E10, E00), (psi_1, psi_0), nfev = _channel(p_raw, p, env, Omega)
    a, b = complex(init.alpha0), complex(init.beta0)
    coherence = a * b.conjugate() * E10
    states = (abs(a) ** 2 * E11 + coherence + coherence.conj().swapaxes(-1, -2)
              + abs(b) ** 2 * E00)

    total = states[:, _TOTAL]
    trace_drift = float(np.max(np.abs(np.trace(total, axis1=1, axis2=2).real - 1.0)))
    herm_dev = float(np.max(np.abs(total - total.conj().transpose(0, 2, 1))))
    marker_max = float(np.max(sum(total[:, i, i].real for i in _MARKER_INDICES)))
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
    psi_tgt[_flat_index("0", 0, 1)] = a
    psi_tgt[_flat_index("0", 0, 0)] = b
    fid = float(np.real(psi_tgt.conj() @ final[_IN_MODE] @ psi_tgt))
    fid_coherent = float(abs(psi_tgt.conj() @ (a * psi_1 + b * psi_0)) ** 2)

    return LindbladResult(rho=dm, fidelity=fid, fidelity_coherent=fid_coherent,
                          trace_drift=trace_drift, herm_dev=herm_dev,
                          marker_max=marker_max, nfev=nfev)


# Density blocks of each input evolved by _channel: the total state and the
# branch with no photon outside the target mode. Both share the coherent,
# anti-commutator and static-jump terms of _generator; the capture jump feeds
# only _TOTAL. The no-jump branch is pure and rides along as the vectors psi.
_N_BLOCKS = 2
_TOTAL, _IN_MODE = range(_N_BLOCKS)
# (row, column) of the channel's basis inputs E11, E10 and E00
_BASIS = tuple((_flat_index(m, 0, 0), _flat_index(n, 0, 0))
               for m, n in (("1", "1"), ("1", "0"), ("0", "0")))
# entries of the three inputs' density blocks, ahead of the 12 x 2 psi
_N_RHO = _N_BLOCKS * _DIM ** 2 * len(_BASIS)


@lru_cache(maxsize=1)
def _generator(p_raw: RawRates, p: EmitterParams) -> sparse.csr_matrix:
    """The operator S of _channel's right-hand side w(t) @ (S @ y).

    Row block k is the part at weight k of (1, Omega, Omega*, g_v, g_v*,
    |g_v|^2) on the whole 888-entry state, built from the no-jump operator
    K(t) = -i H(t) - (1/2) sum_k L_k^dag L_k. With the capture operator
    L0 = sqrt(kappa) c + conj(g_v) a and the cascaded term
    (i sqrt(kappa) / 2)(conj(g_v) c^dag a - g_v a^dag c) of H, the
    conj(g_v) c^dag a terms cancel, and

        K = K0 - i Omega D - i Omega* D^dag - sqrt(kappa) g_v a^dag c
            - (1/2) |g_v|^2 a^dag a,

    K0 = -i H_static - (1/2)(kappa c^dag c + sum of the static L^dag L).
    Both density blocks of each input get K rho + rho K^dag and the static
    jumps L rho L^dag, and _TOTAL also L0 rho L0^dag: on the row-major rho
    with the three inputs innermost, X rho Y is kron(X, Y^T, I_3). The
    no-jump pair gets K psi, kron(K_k, I_2). S depends on the emitter alone
    and is cached for an equal (p_raw, p) (lru_cache, one entry).
    """
    static_L = _static_dissipators(p_raw)
    dag = lambda op: op.conj().T  # noqa: E731
    H_static = p.Delta * _P_E + p.g * (_OP_CAV + dag(_OP_CAV))
    M = sum((dag(L) @ L for L in static_L), start=p.kappa * dag(OP_C) @ OP_C)
    # K's parts at the six weights
    K = (-1j * H_static - 0.5 * M, -1j * _OP_DRIVE, -1j * dag(_OP_DRIVE),
         -math.sqrt(p.kappa) * dag(OP_A) @ OP_C, np.zeros((_DIM, _DIM)),
         -0.5 * dag(OP_A) @ OP_A)
    eye, A, C = np.eye(_DIM, dtype=complex), OP_A, math.sqrt(p.kappa) * OP_C
    every, total = range(_N_BLOCKS), (_TOTAL,)
    # (weight, X, Y, blocks) of each term X rho Y
    terms = ((0, K[0], eye, every), (0, eye, dag(K[0]), every), (0, C, dag(C), total),
             *((0, L, dag(L), every) for L in static_L),
             (1, K[1], eye, every), (1, eye, dag(K[2]), every),
             (2, K[2], eye, every), (2, eye, dag(K[1]), every),
             (3, K[3], eye, every), (3, C, dag(A), total),
             (4, eye, dag(K[3]), every), (4, A, dag(C), total),
             (5, K[5], eye, every), (5, eye, dag(K[5]), every), (5, A, dag(A), total))
    # (weight, operator, first row and column) of each part: K psi, then X rho Y
    parts = [(k, sparse.kron(K_k, np.eye(2), format="coo"), _N_RHO) for k, K_k in enumerate(K)]
    for k, X, Y, blocks in terms:
        sup = sparse.kron(sparse.kron(X, Y.T, format="coo"), np.eye(3), format="coo")
        parts += [(k, sup, b * _N_RHO // _N_BLOCKS) for b in blocks]
    size = _N_RHO + 2 * _DIM
    rows, cols, vals = zip(*((op.row + k * size + at, op.col + at, op.data)
                             for k, op, at in parts))
    # duplicate entries are summed
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(K) * size, size))


@lru_cache(maxsize=1)
def _channel(p_raw: RawRates, p: EmitterParams, env, Omega):
    """Phi(E11), Phi(E10) and Phi(E00) at the 41 checkpoints, each of shape
    (41, blocks, 12, 12); the no-jump vectors psi_1 and psi_0 at T; the nfev.

    The three density inputs, laid out as (blocks, 12, 12, 3), and the two
    vectors from |1;0c;0v> and |0;0c;0v>, laid out as (12, 2), evolve side
    by side as one 888-vector: the right-hand side is w(t) @ (S @ y) on the
    sparse operator S, which _generator assembles in this layout. _dop853
    runs at rtol 1e-8, atol 1e-11 and max_step T/64; the checkpoints before
    T come from its dense output and keep trace and Hermiticity exact to
    rounding: each stage of E11 and E00 is the Liouvillian of a Hermitian
    state, so Hermitian and traceless on the total block (E10's is
    traceless), and the interpolant sums stages with real coefficients.
    """
    T = env.T

    def weights(t):
        om, gv = _sample(Omega, t), virtual_coupling(env, t, kappa=p.kappa)
        return np.stack([np.ones_like(om), om, om.conj(), gv, gv.conj(),
                         abs(gv) ** 2], axis=1)

    n_in = len(_BASIS)
    rho0 = np.zeros((_N_BLOCKS, _DIM, _DIM, n_in), dtype=complex)
    for c, (i, j) in enumerate(_BASIS):
        rho0[:, i, j, c] = 1.0
    psi0 = np.zeros((_DIM, 2), dtype=complex)
    psi0[[_flat_index("1", 0, 0), _flat_index("0", 0, 0)], [0, 1]] = 1.0
    S = _generator(p_raw, p)
    states, nfev = _dop853(weights, lambda w, y: w @ (S @ y).reshape(w.size, -1),
                           np.concatenate([rho0.reshape(-1), psi0.reshape(-1)]),
                           np.linspace(0.0, T, 41), T / 64.0, 1e-8, 1e-11)
    rho = states[:, :_N_RHO].reshape(-1, _N_BLOCKS, _DIM, _DIM, n_in)
    return np.moveaxis(rho, -1, 0), states[-1, _N_RHO:].reshape(_DIM, 2).T, nfev


# The six Pauli eigenstates: a 2-design, so the mean over them of a fidelity
# of degree (2, 2) in (alpha0, beta0) is its exact Bloch-sphere average.
_H = math.sqrt(0.5)
PAULI_STATES = tuple(InitialState(a, b) for a, b in (
    (1.0, 0.0), (0.0, 1.0), (_H, _H), (_H, -_H), (_H, 1j * _H), (_H, -1j * _H)))


def lindblad_bloch_average(p_raw: RawRates, p: EmitterParams, env,
                           Omega) -> tuple:
    """Bloch-sphere averages of fidelity and fidelity_coherent: the means
    over PAULI_STATES, each read by lindblad_simulate from the one channel
    solve of this drive."""
    runs = [lindblad_simulate(p_raw, p, env, Omega, init) for init in PAULI_STATES]
    return (float(np.mean([r.fidelity for r in runs])),
            float(np.mean([r.fidelity_coherent for r in runs])))
