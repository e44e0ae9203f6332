"""Depletion rate d(t), its integral G(t), and the drive phase phi(t).

Reverse-solving the no-jump amplitude equations for a prescribed envelope
v = exp(i theta) f turns the ground-state dynamics into

    r rdot = -(1/2) E^2 d(t),      r^2(t) = 1 - E^2 G(t),

with a depletion rate d(t) that is a closed-form expression in f, theta,
their first two derivatives, and the system rates. d is independent of the
detuning and of the target efficiency E. G(t) = int_0^t d is available on
two routes: adaptive quadrature of d for arbitrary envelopes, and for the
cosine series exact real rows on one table of sines (_series_rows), which
give G, d and a grid scan's quadratic form X; a linear chirp only shifts
two of the five weights of d. The maximum of G sets the efficiency bound;
as G' = d, it sits at the end T or where d falls through zero. g_max finds
it for a block of series pulses at once: one shared grid, then every
falling zero of d refined together (_falling_zeros, which the quadrature
route uses too). The drive phase phi(t) is integrated together with G in
one ODE pass, solve_g_phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.integrate import quad, solve_ivp

from .errors import DomainError, NumericError, ValidationError, time_grid
from .model import EmitterParams
from .pulse import TWO_PI, CosineSeriesPulse, _harmonic_coefficients, as_envelope

# r^2 = 1 - E^2 G below this counts as an emptied ground state: the drive
# diverges there and the phase integration cannot proceed.
R2_FLOOR = 1e-10

# uniform samples of G over [0, T] in every search for its maximum
N_SEARCH_GRID = 1001
# durations per pass of g_max: each array of samples stays at 125 kB, so a
# long sweep takes no more memory than a short one
G_MAX_ROWS = 16


@dataclass
class DepletionProfile:
    """Sampled depletion data on a time grid.

    G_max is the maximum of G over t >= 0, reached at argmax_t: the largest
    G at the grid (the search grid on the exact route), at T and at the
    falling zeros of d, whatever the grid.
    """

    grid: np.ndarray
    d: np.ndarray
    G: np.ndarray
    G_max: float
    argmax_t: float


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
# ---------------------------------------------------------------------------


def _series_rows(Gamma: float, T, C):
    """Rows on _sine_table of G = sum_k C_k h_k + C_(K + k) u_k and of d = G'.

    C, as from pulse._harmonic_coefficients, has shape T.shape + (rows, 2K).
    With z = Gamma + i w_k, h_k + i u_k = expm1(z t) / z, and on t = tau T,
    where w_k t = 2 pi k tau does not depend on T,
        e^(z t) = e^(Gamma t) (1 - 2 sin^2(pi k tau) + i sin(2 pi k tau)).
    So with P - i Q = (A - i B) / z for A = C[..., :K], B = C[..., K:],
        G = expm1(Gamma t) sum P + e^(Gamma t) [-2 P, Q, c] . table,
        d = e^(Gamma t) (sum A + [-2 A, B, 0] . table),
    where c = A_0 T carries h_0 = t at the pole z = 0. A subnormal Gamma
    counts as zero: 1/z overflows there, and the two agree to double
    precision. Returns that Gamma, then the rows and sum of G and of d.
    """
    if abs(Gamma) < np.finfo(float).tiny:
        Gamma = 0.0
    T = np.asarray(T, dtype=float)
    K = C.shape[-1] // 2
    A, B = C[..., :K], C[..., K:]
    z = Gamma + 1j * TWO_PI * np.arange(K) / T[..., None, None]
    pole = z == 0.0
    r = np.where(pole, 0.0, 1.0 / np.where(pole, 1.0, z))
    P = A * r.real + B * r.imag
    Q = B * r.real - A * r.imag
    c = np.where(pole[..., :1], A[..., :1] * T[..., None, None], 0.0)
    return (Gamma, np.concatenate([-2.0 * P, Q, c], axis=-1), P.sum(axis=-1),
            np.concatenate([-2.0 * A, B, 0.0 * c], axis=-1), A.sum(axis=-1))


def _sine_table(K: int):
    """tau -> rows sin^2(pi k tau), sin(2 pi k tau), k < K, and tau (1-d)."""
    angles = np.multiply.outer((np.pi, TWO_PI), np.arange(K))[..., None]

    def table(tau):
        s = np.sin(angles * tau)
        s[0] *= s[0]
        return np.concatenate([s.reshape(2 * K, -1), tau[None]])
    return table


def _g_on_table(Gamma: float, T, tau, rows, P_sum, tab):
    """G = expm1(Gamma t) P_sum + e^(Gamma t) rows . tab, tab the table at tau."""
    G = rows @ tab
    if Gamma != 0.0:
        Gt = Gamma * T * tau
        G *= np.exp(Gt)
        G += np.expm1(Gt) * P_sum[..., None]
    return G


def g_matrix(p: EmitterParams, T, order: int, tau,
             chirp: float = 0.0) -> np.ndarray:
    """Quadratic form X with G(t) = v . X(t) . v at the times t = tau T.

    T is one duration or a 1-d array of them; the shape is
    T.shape + (nt, order, order). The pulse coefficients enter bilinearly,
    so a grid scan reuses one X per duration for every candidate, and one
    call builds X for a block of durations. A linear chirp theta = chirp * t
    only shifts two of the five weights. Each pair (n, m) is one row of
    _series_rows applied to the sine table of tau, which every duration
    shares, so a duration costs one exp and one expm1 row.
    """
    T = np.asarray(T, dtype=float)
    tau = np.asarray(tau, dtype=float)
    C = _harmonic_coefficients(T, order, _rate_weights(p, chirp)).reshape(
        T.shape + (order * order, -1))
    Gamma, rows, P_sum, _, _ = _series_rows(p.Gamma1 - p.Gamma2, T, C)
    X = _g_on_table(Gamma, T[..., None, None], tau, rows, P_sum,
                    _sine_table(2 * order + 1)(tau))
    return np.moveaxis(X.reshape(T.shape + (order, order, -1)), -1, -3)


def _pulse_rows(p: EmitterParams, T, V, chirp: float):
    """_series_rows of one G row and one d row per pulse: T is one duration
    or a 1-d array, V one row of v per duration, contracted with v x v."""
    T, V = np.asarray(T, dtype=float), np.asarray(V, dtype=float)
    L = V.shape[-1]
    C = _harmonic_coefficients(T, L, _rate_weights(p, chirp))
    vv = (V[..., :, None] * V[..., None, :]).reshape(T.shape + (1, L * L))
    return _series_rows(p.Gamma1 - p.Gamma2, T,
                        vv @ C.reshape(T.shape + (L * L, -1)))


def series_g(p: EmitterParams, pulse: CosineSeriesPulse):
    """G(t) and d(t) = G'(t) of one series pulse, as two callables.

    One row of _series_rows each for G and d, so a call costs one sine
    table and one exponential per time. d vanishes outside (0, T), and G
    stays constant beyond the support.
    """
    if not isinstance(pulse, CosineSeriesPulse):
        raise ValidationError("analytic G needs a CosineSeriesPulse")
    T = pulse.T
    Gamma, G_rows, P_sum, d_rows, A_sum = _pulse_rows(p, T, pulse.coeffs,
                                                      pulse.chirp)
    table = _sine_table(2 * pulse.order + 1)

    def G(t):
        tt = np.clip(np.asarray(t, dtype=float), 0.0, T)
        tau = tt.ravel() / T
        return _g_on_table(Gamma, T, tau, G_rows, P_sum,
                           table(tau)).reshape(tt.shape)[()]

    def d(t):
        tt = np.asarray(t, dtype=float)
        flat = tt.ravel()
        val = np.exp(Gamma * flat) * (A_sum + d_rows @ table(flat / T))
        inside = (tt > 0.0) & (tt < T)  # f = f' = 0 at both ends
        return np.where(inside, val.reshape(tt.shape), 0.0)[()]

    return G, d


def integrated_depletion_analytic(p: EmitterParams, pulse: CosineSeriesPulse, t):
    """G(t) by the exact per-harmonic route, chirped or not."""
    return series_g(p, pulse)[0](t)


def _falling_zeros(d, ts, ds):
    """Rows r and times of the zeros where d falls through zero, all at once.

    ds samples d at the times ts, a row per pulse; d(t, r) is d of rows r at
    times t. Each step ds[r, i] > 0 >= ds[r, i + 1] brackets one; where d at
    an end rounds to the other sign than its sample did, that end is the
    zero. The rest are refined together by Chandrupatla's method (Adv. Eng.
    Softw. 28, 145 (1997)) to a bracket of 4 eps t or a d of 4 eps max|ds|,
    in at most 100 passes; a nan in d ends its bracket.
    """
    r, i = np.nonzero((ds[:, :-1] > 0.0) & (ds[:, 1:] <= 0.0))
    a, b = ts[r, i], ts[r, i + 1]
    fa, fb = d(np.concatenate([a, b]), np.concatenate([r, r])).reshape(2, -1)
    zeros = np.where(fb >= 0.0, b, a)
    k = np.flatnonzero((fa > 0.0) & (fb < 0.0))
    # x1: the newest point, x2: the other end of its bracket, x3: the point
    # the newest replaced; t places the next point between x1 and x2
    x1, f1, x2, f2 = a[k], fa[k], b[k], fb[k]
    t, eps = f1 / (f1 - f2), 4.0 * np.finfo(float).eps  # a secant step first
    tol, ftol = eps * b[k], eps * np.abs(ds).max(axis=1)[r[k]]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not k.size:
                break
            x = x1 + t * (x2 - x1)
            f = d(x, r[k])
            same = (f > 0.0) == (f1 > 0.0)
            x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
            x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
            x1, f1 = x, f
            near = np.abs(f1) < np.abs(f2)
            zeros[k] = np.where(near, x1, x2)
            tl = 0.5 * tol / np.abs(x2 - x1)
            go = (tl <= 0.5) & (np.where(near, np.abs(f1), np.abs(f2)) > ftol)
            k, x1, f1, x2, f2, x3, f3, tol, ftol, tl = (
                y[go] for y in (k, x1, f1, x2, f2, x3, f3, tol, ftol, tl))
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(iqi, f1 / (f1 - f2) * f3 / (f3 - f2)
                         - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1)
                         * f2 / (f2 - f3), 0.5)
            t = np.minimum(np.maximum(t, tl), 1.0 - tl)
    return r, zeros


def _max_search(p: EmitterParams, T, V, chirp: float):
    """g_max's search: its grid t, G and d there, then G_max and argmax_t."""
    T = np.asarray(T, dtype=float)
    Gamma, *rows = _pulse_rows(p, T, V, chirp)
    G_rows, P_sum, d_rows, A_sum = (x[:, 0] for x in rows)
    table = _sine_table(G_rows.shape[-1] // 2)
    tau = np.linspace(0.0, 1.0, N_SEARCH_GRID)
    tab, t = table(tau), np.multiply.outer(T, tau)
    G = _g_on_table(Gamma, T[:, None], tau, G_rows, P_sum, tab)
    d = np.exp(Gamma * t) * (d_rows @ tab + A_sum[:, None])

    def at(rows, total, shift):  # G or d of the rows r at the times t
        return lambda t, r: (np.exp(Gamma * t) * np.einsum(
            "ij,ji->i", rows[r], table(t / T[r])) + shift(Gamma * t) * total[r])

    r, zeros = _falling_zeros(at(d_rows, A_sum, np.exp), t, d)
    slot = np.arange(r.size) - np.searchsorted(r, r)
    G_z, t_z = np.full((2, T.size, slot.max(initial=-1) + 1), -np.inf)
    G_z[r, slot], t_z[r, slot] = at(G_rows, P_sum, np.expm1)(zeros, r), zeros
    G_all, t_all = np.hstack([G, G_z]), np.hstack([t, t_z])
    i = (np.arange(T.size), np.argmax(G_all, axis=1))
    return t, G, d, G_all[i], t_all[i]


def g_max(p: EmitterParams, T, V, chirp: float = 0.0):
    """G_max, argmax_t and G(T) of one series pulse per duration, as arrays.

    T is a 1-d array of durations, V one row of coefficients v each. G and d
    are sampled at t = tau T, N_SEARCH_GRID uniform tau on one sine table
    for all rows; the falling zeros of d = G' are refined together and G is
    evaluated once at each. G_max is the largest G on the grid and there.
    The durations go in passes of G_MAX_ROWS.
    """
    T, V, out = np.asarray(T, dtype=float), np.asarray(V, dtype=float), []
    if T.ndim != 1 or V.ndim != 2 or len(V) != T.size or V.shape[1] < 1:
        raise ValidationError("g_max needs 1-d T and one row of V per duration")
    if not (np.all(T > 0) and np.isfinite(T).all() and np.isfinite(V).all()):
        raise ValidationError("g_max needs finite durations T > 0 and finite V")
    for i in range(0, T.size, G_MAX_ROWS):
        _, G, _, G_max, argmax_t = _max_search(
            p, T[i:i + G_MAX_ROWS], V[i:i + G_MAX_ROWS], chirp)
        out.append((G_max, argmax_t, G[:, -1]))
    return tuple(np.concatenate(x) for x in zip(*out))


def analytic_profile(p: EmitterParams, pulse: CosineSeriesPulse,
                     grid=None) -> DepletionProfile:
    """DepletionProfile of a series pulse from a one-row g_max search; G and d
    are sampled on the grid, by default the search grid."""
    if not isinstance(pulse, CosineSeriesPulse):
        raise ValidationError("analytic G needs a CosineSeriesPulse")
    t, G, d, G_max, argmax_t = _max_search(p, [pulse.T], [pulse.coeffs],
                                           pulse.chirp)
    if grid is None:  # d = 0 at both ends, as f = f' = 0 there
        grid, G, d = t[0], G[0], np.where((t[0] > 0) & (t[0] < pulse.T), d[0], 0)
    else:
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        G, d = (f(grid) for f in series_g(p, pulse))
    return DepletionProfile(grid=grid, d=d, G=G, G_max=float(G_max[0]),
                            argmax_t=float(argmax_t[0]))


def integrated_depletion_numeric(p: EmitterParams, env, t_grid,
                                 refine_max: bool = True) -> DepletionProfile:
    """G by adaptive quadrature of d; works for any envelope, chirped or not.

    Integrates interval by interval, each to an estimated absolute error of
    1e-9 (scaled up when G itself is large), in one pass over the supplied
    grid merged with the end T and the falling zeros of d, where G has its
    interior maxima. refine_max=False skips the zeros and takes G_max from
    the grid samples, when only samples of G are needed.
    """
    env = as_envelope(env)
    grid = time_grid(t_grid)
    if grid.size < 1:
        raise ValidationError("t_grid must not be empty")
    if grid[0] < 0 or grid[-1] > env.T * (1 + 1e-12):
        raise ValidationError("t_grid must lie within [0, T]")

    d = partial(depletion_rate, p, env)

    def segment(a, b):
        if b <= a:
            return 0.0
        val, err = quad(d, a, b, epsabs=1e-12, epsrel=1e-10, limit=200)
        if err > max(1e-9, 1e-9 * abs(val)):
            raise NumericError(
                f"quadrature of d(t) did not converge on [{a:.6g}, {b:.6g}]: "
                f"estimated error {err:.3e}")
        return val

    times = grid
    if refine_max:
        ts = np.linspace(0.0, env.T, N_SEARCH_GRID)[None]
        times = np.concatenate([grid, [env.T],
                                _falling_zeros(lambda t, r: d(t), ts, d(ts))[1]])
    nodes = np.unique(times)
    G_nodes = np.cumsum([segment(a, b)
                         for a, b in zip(np.r_[0.0, nodes[:-1]], nodes)])
    G = G_nodes[np.searchsorted(nodes, times)]
    i = int(np.argmax(G))
    return DepletionProfile(grid=grid, d=np.atleast_1d(d(grid)),
                            G=G[:grid.size], G_max=float(G[i]),
                            argmax_t=float(times[i]))


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
    grid = time_grid(t_grid)
    if E < 0:
        raise ValidationError("efficiency E must be >= 0")
    if E == 0.0 or grid.size == 0 or grid[-1] == 0.0:
        return np.zeros_like(grid)
    return solve_g_phi(p, env, E, grid[-1])(grid)[1]
