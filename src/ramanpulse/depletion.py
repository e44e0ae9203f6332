"""Depletion rate d(t), its integral G(t), and the drive phase phi(t).

Reverse-solving the no-jump amplitude equations for a prescribed envelope
v = exp(i theta) f turns the ground-state dynamics into

    r rdot = -(1/2) E^2 d(t),      r^2(t) = 1 - E^2 G(t),

with a depletion rate d(t) that is a closed-form expression in f, theta,
their first two derivatives, and the system rates. d is independent of the
detuning and of the target efficiency E. G(t) = int_0^t d is available on
two routes: adaptive quadrature of d for arbitrary envelopes, and an exact
sum over harmonics for the cosine series, whose linear chirp only shifts
two of the five weights of d. The running maximum of G
sets the efficiency bound, so it is located with a grid scan plus
golden-section refinement. The drive phase phi(t) is integrated together
with G in one ODE pass, solve_g_phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import DomainError, NumericError, ValidationError
from .model import EmitterParams
from .pulse import CosineSeriesPulse, as_envelope, write_csv

TWO_PI = 2.0 * math.pi

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# r^2 = 1 - E^2 G below this counts as an emptied ground state: the drive
# diverges there and the phase integration cannot proceed.
R2_FLOOR = 1e-10


@dataclass
class DepletionProfile:
    """Sampled depletion data on a time grid.

    G_max is the maximum of G over t >= 0 (d vanishes beyond the pulse, so
    the search domain [0, T] is exhaustive), refined beyond the grid.
    """

    grid: np.ndarray
    d: np.ndarray
    G: np.ndarray
    G_max: float
    argmax_t: float
    phi: np.ndarray | None = None

    def to_csv(self, path: str | Path, gamma2: float = 0.0, header: str = ""):
        """Columns t_ns, d_per_ns, G, G_weighted, phi_rad.

        G_weighted = exp(gamma2 * t) G(t); both the bare and the weighted
        integral are written since either can be the quantity of interest.
        """
        phi = self.phi if self.phi is not None else np.zeros_like(self.grid)
        write_csv(path, ("t_ns", "d_per_ns", "G", "G_weighted", "phi_rad"),
                  ((t, d, g, math.exp(gamma2 * t) * g, q)
                   for t, d, g, q in zip(self.grid, self.d, self.G, phi)),
                  header)


def _rate_weights(p: EmitterParams, dth=0.0, d2th=0.0):
    """Prefactors of the five quadratic envelope terms in d(t).

    dth and d2th are the first two derivatives of the envelope phase,
    scalars or arrays; only the f^2 and f f' weights depend on them.
    """
    if p.g <= 0:
        raise DomainError("depletion rate undefined for g = 0")
    if p.kappa <= 0:
        raise DomainError("depletion rate undefined for kappa = 0")
    x = 1.0 + p.kappa_tilde / p.kappa
    gp = p.gamma_tilde - p.Gamma2
    g2 = p.g ** 2
    w_ff = (x + gp * p.kappa * x * x / (4.0 * g2)
            + (gp * dth ** 2 + 2.0 * d2th * dth) / (g2 * p.kappa))
    w_dfdf = x / g2 + gp / (p.kappa * g2)
    w_fdf = (2.0 / p.kappa + p.kappa * x * x / (2.0 * g2) + gp * x / g2
             + 2.0 * dth ** 2 / (p.kappa * g2))
    w_fddf = x / g2
    w_dfddf = 2.0 / (p.kappa * g2)
    return w_ff, w_fdf, w_dfdf, w_fddf, w_dfddf


def depletion_rate(p: EmitterParams, env, t):
    """d(t) for an arbitrary envelope, including the phase terms.

    Vanishes wherever f and its derivatives vanish; grows as
    exp((Gamma1 - Gamma2) t) when the two ground-state rates differ.
    """
    env = as_envelope(env)
    t = np.asarray(t, dtype=float)
    f, df, d2f = (np.asarray(x) for x in env.evaluate(t))
    return _rate(p, t, f, df, d2f, np.asarray(env.dtheta(t)),
                 np.asarray(env.d2theta(t)))[()]


def _rate(p: EmitterParams, t, f, df, d2f, dth, d2th):
    """d(t) from the envelope amplitude and phase derivatives at t."""
    w_ff, w_fdf, w_dfdf, w_fddf, w_dfddf = _rate_weights(p, dth, d2th)
    base = (w_ff * f ** 2 + w_fddf * f * d2f + w_dfddf * df * d2f
            + w_fdf * f * df + w_dfdf * df ** 2)
    return np.exp((p.Gamma1 - p.Gamma2) * t) * base


# ---------------------------------------------------------------------------
# Exact integrals for the cosine series
#
# With f = sum_n v_n f_n, f_n = 1 - cos(w_n t), w_n = 2 pi n / T, every term
# of G(t) reduces to combinations of
#     h_k(t) = int_0^t e^(Gamma tau) cos(w_k tau) dtau
#     u_k(t) = int_0^t e^(Gamma tau) sin(w_k tau) dtau
# h is even and u odd in the frequency index; h_0 is the plain exponential
# integral. The five families below were re-derived from the product-to-sum
# identities and are cross-checked against quadrature in the test suite.
# Each family is a fixed linear combination of the rows h_k, u_k, so a pulse
# contracts the combinations with its weights and coefficients once, and
# G(t) = sum_k A_k h_k(t) + B_k u_k(t) costs one row of h and u per time.
# ---------------------------------------------------------------------------


def _helper_integrals(omega, t, Gamma: float):
    """h + i u at every frequency of the 1-d array omega and every time t.

    h + i u = int_0^t e^(z tau) dtau = expm1(z t) / z with z = Gamma + i omega,
    and t itself at z = 0. Complex, of shape omega.shape + t.shape.
    """
    z = Gamma + 1j * np.asarray(omega, dtype=float)
    t = np.asarray(t, dtype=float)
    z = z.reshape(z.shape + (1,) * t.ndim)
    pole = z == 0.0
    return np.where(pole, t, np.expm1(z * t) / np.where(pole, 1.0, z))


def h_integral(omega: float, t, Gamma: float):
    """h(omega, t) = int_0^t exp(Gamma tau) cos(omega tau) dtau."""
    return _helper_integrals([omega], t, Gamma)[0].real[()]


def u_integral(omega: float, t, Gamma: float):
    """u(omega, t) = int_0^t exp(Gamma tau) sin(omega tau) dtau."""
    return _helper_integrals([omega], t, Gamma)[0].imag[()]


@dataclass
class AnalyticGTerms:
    """Per-(n, m) closed-form integrals for a series of given order.

    I1..I5 hold int_0^t e^(Gamma tau) X dtau for X = f_n f_m, f_n f'_m,
    f'_n f'_m, f_n f''_m, f'_n f''_m with shape (nt, order, order); H and U
    hold the helper integrals indexed by frequency multiple, shape
    (2 order + 1, nt).
    """

    T: float
    Gamma: float
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray
    I4: np.ndarray
    I5: np.ndarray
    H: np.ndarray
    U: np.ndarray


def _harmonic_coefficients(T: float, order: int, weights) -> np.ndarray:
    """The weighted sum of the five families on the helper integrals.

    For the weights (w1..w5) of I1..I5 returns C of shape
    (order, order, 2K), K = 2 order + 1, with
    sum_f w_f I_f(t)[n, m] = sum_k C[n, m, k] h_k(t) + C[n, m, K + k] u_k(t).
    By the product-to-sum identities
        I1 = h_0 - h_n - h_m + (h_|m-n| + h_(m+n)) / 2
        I2 = w_m (u_m - u_(m+n) / 2 - sgn(m - n) u_|m-n| / 2)
        I3 = w_n w_m (h_|m-n| - h_(m+n)) / 2
        I4 = w_m^2 (2 h_m - h_|m-n| - h_(m+n)) / 2
        I5 = w_n w_m^2 (u_(m+n) - sgn(m - n) u_|m-n|) / 2
    (u is odd in the frequency, h even), collected per helper integral.
    """
    w1, w2, w3, w4, w5 = weights
    K = 2 * order + 1
    n, m = np.indices((order, order)) + 1
    wn, wm = TWO_PI * n / T, TWO_PI * m / T
    dk, sk = np.abs(m - n), m + n
    a, b, c = np.full(n.shape, w1), 0.5 * w3 * wn * wm, 0.5 * w4 * wm * wm
    du, su = 0.5 * w2 * wm, 0.5 * w5 * wn * wm * wm
    columns = (0 * n, n, m, dk, sk, K + m, K + sk, K + dk)
    values = (a, -a, 2.0 * c - a, 0.5 * a + b - c, 0.5 * a - b - c,
              2.0 * du, su - du, -np.sign(m - n) * (du + su))
    rows = 2 * K * np.arange(order * order).reshape(order, order)
    C = np.bincount((rows + np.stack(columns)).ravel(),
                    np.stack(values).ravel(),
                    order * order * 2 * K)
    return C.reshape(order, order, 2 * K)


def _helper_rows(T: float, Gamma: float, order: int, t) -> np.ndarray:
    """h_0..h_2L stacked over u_0..u_2L at the 1-d times t: (2 (2L + 1), nt)."""
    hu = _helper_integrals(TWO_PI * np.arange(2 * order + 1) / T,
                           np.atleast_1d(t), Gamma)
    return np.concatenate([hu.real, hu.imag])


def family_integrals(T: float, Gamma: float, order: int, t) -> AnalyticGTerms:
    """Evaluate the five integral families on a time array."""
    HU = _helper_rows(T, Gamma, order, t)
    C = np.stack([_harmonic_coefficients(T, order, unit) for unit in np.eye(5)])
    fams = np.moveaxis(C @ HU, -1, 1)
    H, U = np.split(HU, 2)
    return AnalyticGTerms(T, Gamma, *fams, H=H, U=U)


def g_matrix(p: EmitterParams, T: float, order: int, t,
             chirp: float = 0.0) -> np.ndarray:
    """Quadratic form X with G(t) = v . X(t) . v for a series pulse.

    Shape (nt, order, order). The pulse coefficients enter bilinearly, so
    grid optimizers can reuse one X per duration for every candidate. A
    linear chirp theta = chirp * t only shifts two of the five weights.
    """
    C = _harmonic_coefficients(T, order, _rate_weights(p, chirp))
    HU = _helper_rows(T, p.Gamma1 - p.Gamma2, order, t)
    return (HU.T @ C.reshape(order * order, -1).T).reshape(-1, order, order)


def series_g(p: EmitterParams, pulse: CosineSeriesPulse):
    """G(t) of one series pulse as the callable sum_k A_k h_k(t) + B_k u_k(t).

    The weights, the family coefficients and v x v are contracted here,
    once, into the 2 (2L + 1) coefficients (A, B); each call then costs one
    row of helper integrals. t is clipped to [0, T]: d vanishes beyond the
    support, so G stays constant there.
    """
    if not isinstance(pulse, CosineSeriesPulse):
        raise ValidationError("analytic G needs a CosineSeriesPulse")
    v = np.asarray(pulse.coeffs)
    C = _harmonic_coefficients(pulse.T, pulse.order, _rate_weights(p, pulse.chirp))
    A, B = np.split(np.einsum("n,nmk,m->k", v, C, v), 2)
    coeffs = A - 1j * B  # A h + B u = Re[(A - i B)(h + i u)]
    omega = TWO_PI * np.arange(A.size) / pulse.T
    gamma = p.Gamma1 - p.Gamma2

    def G(t):
        tt = np.clip(np.asarray(t, dtype=float), 0.0, pulse.T)
        hu = _helper_integrals(omega, tt.ravel(), gamma)
        return (coeffs @ hu).real.reshape(tt.shape)[()]

    return G


def integrated_depletion_analytic(p: EmitterParams, pulse: CosineSeriesPulse, t):
    """G(t) by the exact per-harmonic route, chirped or not."""
    return series_g(p, pulse)(t)


def _golden_max(fun, lo: float, hi: float, tol: float):
    """Golden-section maximizer on [lo, hi] for a unimodal bracket."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    mid = 0.5 * (a + b)
    return mid, fun(mid)


def _refine_max(ts, vals, g_from):
    """Golden-section refinement of the maximum of G sampled on grid ts.

    g_from(j, s) evaluates G(s) for s in the bracket starting at ts[j].
    """
    i = int(np.argmax(vals))
    j = max(i - 1, 0)
    t_ref, v_ref = _golden_max(lambda s: g_from(j, s), ts[j],
                               ts[min(i + 1, ts.size - 1)], tol=1e-6 * ts[-1])
    if v_ref >= vals[i]:
        return float(v_ref), float(t_ref)
    return float(vals[i]), float(ts[i])


def analytic_profile(p: EmitterParams, pulse: CosineSeriesPulse,
                     grid=None, n_search: int = 1001) -> DepletionProfile:
    """DepletionProfile through the closed-form route (any series pulse)."""
    if grid is None:
        grid = np.linspace(0.0, pulse.T, n_search)
    grid = np.asarray(grid, dtype=float)
    G_of = series_g(p, pulse)
    G = np.atleast_1d(G_of(grid))
    d = np.atleast_1d(depletion_rate(p, pulse.envelope(), grid))
    ts = np.linspace(0.0, pulse.T, n_search)
    gmax, targ = _refine_max(ts, G_of(ts), lambda j, s: float(G_of(s)))
    gmax = max(gmax, float(G.max()))
    return DepletionProfile(grid=grid, d=d, G=G, G_max=gmax, argmax_t=targ)


def integrated_depletion_numeric(p: EmitterParams, env, t_grid,
                                 refine_max: bool = True,
                                 n_search: int = 1001) -> DepletionProfile:
    """G by adaptive quadrature of d; works for any envelope, chirped or not.

    Integrates interval by interval, each to an estimated absolute error of
    1e-9 (scaled up when G itself is large), in one pass over the supplied
    grid merged with the maximum search's internal uniform grid. The search
    refines the grid maximum by golden section; disable it with
    refine_max=False when only samples of G are needed.
    """
    env = as_envelope(env)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("t_grid must be a one-dimensional array")
    if np.any(np.diff(grid) < 0):
        raise ValidationError("t_grid must be sorted")
    if grid[0] < 0 or grid[-1] > env.T * (1 + 1e-12):
        raise ValidationError("t_grid must lie within [0, T]")

    def d_fun(t):
        return float(depletion_rate(p, env, t))

    def segment(a, b):
        if b <= a:
            return 0.0
        val, err = quad(d_fun, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)
        if err > max(1e-9, 1e-9 * abs(val)):
            raise NumericError(
                f"quadrature of d(t) did not converge on [{a:.6g}, {b:.6g}]: "
                f"estimated error {err:.3e}")
        return val

    ts = np.linspace(0.0, env.T, n_search) if refine_max else np.empty(0)
    if ts.size:
        # a search node within 1e-9 T of an output node (such as i T/100
        # and 10 i T/1000, an ulp apart) is that node: one quad call per time
        right = np.clip(np.searchsorted(grid, ts), 0, grid.size - 1)
        left = np.maximum(right - 1, 0)
        near = np.where(np.abs(grid[left] - ts) < np.abs(grid[right] - ts),
                        grid[left], grid[right])
        ts = np.where(np.abs(near - ts) <= 1e-9 * env.T, near, ts)
    nodes = np.union1d(grid, ts)
    G_nodes = np.cumsum([segment(a, b)
                         for a, b in zip(np.r_[0.0, nodes[:-1]], nodes)])
    G = G_nodes[np.searchsorted(nodes, grid)]
    d_samples = np.atleast_1d(depletion_rate(p, env, grid))

    if refine_max:
        Gs = G_nodes[np.searchsorted(nodes, ts)]
        gmax, targ = _refine_max(ts, Gs, lambda j, s: Gs[j] + segment(ts[j], s))
        gmax = max(gmax, float(G.max()))
    else:
        i = int(np.argmax(G))
        gmax, targ = float(G[i]), float(grid[i])
    return DepletionProfile(grid=grid, d=d_samples, G=G, G_max=float(gmax),
                            argmax_t=float(targ))


def solve_g_phi(p: EmitterParams, env, E: float, t_end: float):
    """Integrate G(t) and the drive phase phi(t) together over [0, t_end].

    phi solves phidot = E^2 exp((Gamma1-Gamma2) t) Phi(t) / (g^2 r^2) with
    r^2 = 1 - E^2 G(t), while Gdot = d(t). One DOP853 pass (rtol 1e-11,
    atol 1e-13); returns the dense solution, whose value at t is the pair
    (G(t), phi(t)). phi is identically zero at E = 0. A terminal event stops
    the pass with DomainError where r^2 falls to R2_FLOOR.
    """
    env = as_envelope(env)
    x = 1.0 + p.kappa_tilde / p.kappa
    g2 = p.g ** 2
    gamma = p.Gamma1 - p.Gamma2
    Delta = p.Delta

    def rhs(t, y):
        r2 = 1.0 - E * E * y[0]
        if r2 <= 0.0:
            raise DomainError(
                "r^2 = 1 - E^2 G(t) reached zero: requested efficiency exceeds "
                "the bound for this envelope")
        f, df, d2f = (float(x) for x in env.evaluate(t))
        dth = float(env.dtheta(t))
        d2th = float(env.d2theta(t))
        phi_num = (
            (x * (Delta + dth) + d2th / p.kappa) * f * df
            + (Delta + 2.0 * dth) / p.kappa * df ** 2
            - dth / p.kappa * f * d2f
            + (p.kappa * x * x * (Delta + dth) / 4.0 + x * d2th / 2.0
               + (Delta * dth ** 2 - g2 * dth + dth ** 3) / p.kappa) * f ** 2
        )
        dphi = E * E * math.exp(gamma * t) * phi_num / (g2 * r2)
        return [float(_rate(p, t, f, df, d2f, dth, d2th)), dphi]

    def emptied(t, y):
        return 1.0 - E * E * y[0] - R2_FLOOR

    emptied.terminal = True
    emptied.direction = -1.0
    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0], method="DOP853",
                    rtol=1e-11, atol=1e-13, dense_output=True, events=emptied)
    if sol.status == 1:
        raise DomainError(
            f"r^2 = 1 - E^2 G(t) fell to {R2_FLOOR:g} at t = "
            f"{sol.t_events[0][0]:.6g} ns: requested efficiency is at or above "
            "the bound for this envelope")
    if not sol.success:
        raise NumericError(f"phase integration failed: {sol.message}")
    return sol.sol


def phase_evolution(p: EmitterParams, env, E: float, t_grid) -> np.ndarray:
    """Drive phase phi(t) accumulated by the ground-state amplitude.

    Samples solve_g_phi, integrated up to the last grid point, on t_grid.
    Identically zero for a resonant cavity and a constant envelope phase,
    and proportional to E^2, so it vanishes in the weak-extraction limit.
    """
    env = as_envelope(env)
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or np.any(np.diff(grid) < 0):
        raise ValidationError("t_grid must be a sorted one-dimensional array")
    if E < 0:
        raise ValidationError("efficiency E must be >= 0")
    if E == 0.0 or grid.size == 0 or grid[-1] == 0.0:
        return np.zeros_like(grid)
    return solve_g_phi(p, env, E, grid[-1])(grid)[1]
