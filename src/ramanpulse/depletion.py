"""Depletion rate d(t), its integral G(t), and the drive phase phi(t).

Reverse-solving the no-jump amplitude equations for a prescribed envelope
v = exp(i theta) f turns the ground-state dynamics into

    r rdot = -(1/2) E^2 d(t),      r^2(t) = 1 - E^2 G(t),

with a depletion rate d(t) that is a closed-form expression in f, theta,
their first two derivatives, and the system rates. d is independent of the
detuning and of the target efficiency E. G(t) = int_0^t d has one sampler
per envelope: for the cosine series exact real rows (pulse._series_rows) on
the envelope's table of sines, which give G and d (series_g) and a grid
scan's quadratic form X (g_matrix: the rows of a duration, g_rows, read on
any samples by g_on_rows), a linear chirp shifting only two of the five
weights of d; for any other envelope one Chebyshev series (_cumulative),
read by its bound, drive and phase. Quadrature of d is only the oracle.
The maximum of G sets the efficiency bound; as G' = d, it sits at the end
T or where d falls through zero. g_max finds it for a block of series
pulses at once (analytic_profile: one pulse): the rows of every pulse, one
shared grid in passes of G_MAX_ROWS pulses, then the falling zeros of d of
all pulses refined in one run (_refine_zeros); g_and_max is the one entry
of any single envelope. The drive phase phi(t) is one Chebyshev series with
its nodes on the 1/r^2 spike at the depletion maximum (drive_phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.fft import dct
from scipy.integrate import quad

from .errors import DomainError, NumericError, ValidationError, time_grid
from .model import EmitterParams
from .pulse import (CosineSeriesPulse, _harmonic_coefficients, _series_rows,
                    _sine_table, as_envelope)

# r^2 = 1 - E^2 G below this counts as an emptied ground state: the drive
# diverges there, and neither the drive nor its phase is computed.
R2_FLOOR = 1e-10

# uniform samples of G over [0, T] in every search for its maximum
N_SEARCH_GRID = 1001
SEARCH_TAU = np.linspace(0.0, 1.0, N_SEARCH_GRID)
SEARCH_TAU.setflags(write=False)
# durations per pass of g_max over the search grid: each array of samples
# stays at 125 kB, so a long sweep takes no more memory than a short one
G_MAX_ROWS = 16


@dataclass(frozen=True)
class DepletionProfile:
    """G sampled on a time grid, and its maximum.

    G_max is the maximum of G over t >= 0 (g_and_max: over [0, t_end]) at
    argmax_t: the largest G at the grid (the search grid, save on the
    quadrature route), at the end and at the falling zeros of d.
    """

    grid: np.ndarray
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


def _phase_weights(p: EmitterParams, dth=0.0, d2th=0.0):
    """_rate_weights' five prefactors for the phase numerator N instead, in
    phidot = E^2 exp((Gamma1 - Gamma2) t) N(t) / r^2(t), with no f' f'' term."""
    x, k, g2, D = 1.0 + p.kappa_tilde / p.kappa, p.kappa, p.g ** 2, p.Delta + dth
    w_ff = (k * x * x * D / 4.0 + x * d2th / 2.0
            + (p.Delta * dth ** 2 - g2 * dth + dth ** 3) / k) / g2
    return w_ff, (x * D + d2th / k) / g2, (D + dth) / (k * g2), -dth / (k * g2), 0.0


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


def _rate(p: EmitterParams, t, f, df, d2f, dth, d2th, weights=_rate_weights):
    """d(t) (or e^((Gamma1-Gamma2) t) N with _phase_weights) from f, theta at t."""
    w_ff, w_fdf, w_dfdf, w_fddf, w_dfddf = weights(p, dth, d2th)
    base = (w_ff * f ** 2 + w_fddf * f * d2f + w_dfddf * df * d2f
            + w_fdf * f * df + w_dfdf * df ** 2)
    return np.exp((p.Gamma1 - p.Gamma2) * t) * base


# ---------------------------------------------------------------------------
# Exact integrals for the cosine series
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _search_table(K: int):
    """_sine_table(K) of SEARCH_TAU, built once per order; read-only."""
    tab = _sine_table(K)(SEARCH_TAU)
    tab.setflags(write=False)
    return tab


def _g_on_table(Gamma: float, T, tau, G, P):
    """expm1(Gamma t) P + e^(Gamma t) G at t = tau T, G = rows . table(tau)."""
    if Gamma != 0.0:
        Gt = Gamma * T * tau
        G *= np.exp(Gt)
        G += np.expm1(Gt) * P
    return G


def g_rows(p: EmitterParams, T, order: int):
    """g_matrix's part that depends only on the durations T: the Gamma of
    _series_rows, then per duration the rows of G on _sine_table, one per
    pair (n, m) of v x v, and their sums P. g_on_rows reads X from them on
    any samples of the search grid."""
    T = np.asarray(T, dtype=float)
    C = _harmonic_coefficients(T, order, _rate_weights(p)).reshape(
        T.shape + (order * order, -1))
    return _series_rows(p.Gamma1 - p.Gamma2, T, C)[:3]


def g_on_rows(Gamma: float, T, rows, P_sum, columns=slice(None)) -> np.ndarray:
    """g_matrix at the durations T from their g_rows: the rows times the
    search grid's sine table at SEARCH_TAU[columns], then one exp and one
    expm1 row per duration (_g_on_table)."""
    T = np.asarray(T, dtype=float)
    return _g_on_table(Gamma, T[..., None, None], SEARCH_TAU[columns],
                       rows @ _search_table(rows.shape[-1] // 2)[:, columns],
                       P_sum[..., None])


def g_matrix(p: EmitterParams, T, order: int, columns=slice(None)) -> np.ndarray:
    """Quadratic form X with G(t) = (v x v) . X(t) at t = SEARCH_TAU[columns] T.

    T is one duration or a 1-d array of them; columns (indices or a slice,
    by default all) picks samples of the grid, the same up to rounding as in
    the whole grid's X. The shape is T.shape + (order * order, samples): a
    row per pair (n, m) of the flattened outer product v x v. The pulse
    coefficients enter bilinearly, so a grid scan reuses one X per duration
    for every candidate, and one call builds X for a block of durations.
    X is g_on_rows of g_rows: a scan that reads several sample sets of a
    duration builds its rows once (g_rows) and reads each set (g_on_rows).
    """
    Gamma, rows, P_sum = g_rows(p, T, order)
    return g_on_rows(Gamma, T, rows, P_sum, columns)


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
    """The one sampler of a series pulse's G: t -> (f, f', f'', G), and t -> d.

    All are rows on the pulse's sine table (pulse._pass; G and d one row of
    _series_rows each), so a call costs one table, one matmul and one
    exponential. d = G' vanishes outside (0, T), G is constant beyond T.
    """
    if not isinstance(pulse, CosineSeriesPulse):
        raise ValidationError("analytic G needs a CosineSeriesPulse")
    T = pulse.T
    Gamma, G_rows, P_sum, d_rows, A_sum = _pulse_rows(p, T, pulse.coeffs,
                                                      pulse.chirp)
    G_rows, d_rows = (np.vstack([pulse._rows[0][:3], x]) for x in (G_rows, d_rows))

    def jet(t):
        _, tau, f, df, d2f, G = pulse._pass(t, G_rows)
        return f, df, d2f, _g_on_table(Gamma, T, tau, G, P_sum[0])

    def d(t):  # f = f' = 0 at both ends
        t, *_, d = pulse._pass(t, d_rows)
        return np.where((t > 0.0) & (t < T), np.exp(Gamma * t) * (A_sum[0] + d),
                        0.0)[()]

    return jet, d


def integrated_depletion_analytic(p: EmitterParams, pulse: CosineSeriesPulse, t):
    """G(t) by the exact per-harmonic route, chirped or not."""
    return series_g(p, pulse)[0](t)[3]


def _falling_zeros(d, ts, ds):
    """Rows r and times of the zeros where d falls through zero, all at once:
    _brackets of the samples ds of d at the times ts (a row per pulse), each
    refined by _refine_zeros; d(t, r) is d of rows r at times t."""
    r, a, b = _brackets(ts, ds)
    return r, _refine_zeros(d, r, a, b, np.abs(ds).max(axis=1)[r])


def _brackets(ts, ds):
    """Rows r and ends a < b of the steps where ds[r, i] > 0 >= ds[r, i + 1]."""
    r, i = np.nonzero((ds[:, :-1] > 0.0) & (ds[:, 1:] <= 0.0))
    return r, ts[r, i], ts[r, i + 1]


def _refine_zeros(d, r, a, b, scale):
    """The zero of d(., r) in each bracket [a, b] where d falls, all at once.

    Where d at an end rounds to the other sign than its sample did, that end
    is the zero. The rest are refined together by Chandrupatla's method (Adv.
    Eng. Softw. 28, 145 (1997)) to a bracket of 4 eps t or a d of 4 eps
    scale (max |d| of the bracket's row), in at most 100 passes; a nan in d
    ends its bracket.
    """
    fa, fb = d(np.concatenate([a, b]), np.concatenate([r, r])).reshape(2, -1)
    zeros = np.where(fb >= 0.0, b, a)
    k = np.flatnonzero((fa > 0.0) & (fb < 0.0))
    # x1: the newest point, x2: the other end of its bracket, x3: the point
    # the newest replaced; t places the next point between x1 and x2
    x1, f1, x2, f2 = a[k], fa[k], b[k], fb[k]
    t, eps = f1 / (f1 - f2), 4.0 * np.finfo(float).eps  # a secant step first
    tol, ftol = eps * b[k], eps * scale[k]
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
    return zeros


def _max_search(p: EmitterParams, T, V, chirp: float):
    """g_max's search: per row G_max, argmax_t and G(T), then the grid t and
    G of the last pass (all of a one-row search).

    G and d go through the search grid in passes of G_MAX_ROWS rows; a pass
    keeps its rows' grid maximum, G(T), max |d| and the brackets of d's
    falling zeros. Then every bracket is refined in one _refine_zeros run
    and G evaluated once at every zero. Of equal values the grid's wins,
    then the zeros in time order.
    """
    T = np.asarray(T, dtype=float)
    Gamma, *rows = _pulse_rows(p, T, V, chirp)
    G_rows, P_sum, d_rows, A_sum = (x[:, 0] for x in rows)
    K = G_rows.shape[-1] // 2
    table, tab = _sine_table(K), _search_table(K)
    (top, t_top, G_end, d_max), brackets = np.empty((4, T.size)), []
    for i in range(0, T.size, G_MAX_ROWS):
        s = slice(i, i + G_MAX_ROWS)
        t = np.multiply.outer(T[s], SEARCH_TAU)
        G = _g_on_table(Gamma, T[s, None], SEARCH_TAU, G_rows[s] @ tab,
                        P_sum[s, None])
        d = np.exp(Gamma * t) * (d_rows[s] @ tab + A_sum[s, None])
        j = (np.arange(t.shape[0]), np.argmax(G, axis=1))
        top[s], t_top[s], G_end[s] = G[j], t[j], G[:, -1]
        d_max[s] = np.abs(d).max(axis=1)
        r, a, b = _brackets(t, d)
        brackets.append((r + i, a, b))
    r, a, b = (np.concatenate(x) for x in zip(*brackets))

    def at(rows, t, r):  # the rows r times the table at the times t
        return np.einsum("ij,ji->i", rows[r], table(t / T[r]))

    zeros = _refine_zeros(lambda t, r: np.exp(Gamma * t) * at(d_rows, t, r)
                          + np.exp(Gamma * t) * A_sum[r], r, a, b, d_max[r])
    slot = np.arange(r.size) - np.searchsorted(r, r) + 1
    G_c, t_c = np.full((2, T.size, slot.max(initial=0) + 1), -np.inf)
    G_c[:, 0], t_c[:, 0] = top, t_top
    G_c[r, slot] = _g_on_table(Gamma, 1.0, zeros, at(G_rows, zeros, r), P_sum[r])
    t_c[r, slot] = zeros
    i = (np.arange(T.size), np.argmax(G_c, axis=1))
    return G_c[i], t_c[i], G_end, t, G


def g_max(p: EmitterParams, T, V):
    """G_max, argmax_t and G(T) of one series pulse per duration, as arrays.

    T is a 1-d array of durations, V one row of coefficients v each. G and d
    are sampled at t = tau T, N_SEARCH_GRID uniform tau on one sine table
    for all rows, in passes of G_MAX_ROWS rows, so a long sweep holds no
    more samples than a short one. The falling zeros of d = G' of all rows
    are refined in one run and G evaluated once at each. G_max is the
    largest G on the grid and there.
    """
    T, V = np.asarray(T, dtype=float), np.asarray(V, dtype=float)
    if T.ndim != 1 or V.ndim != 2 or len(V) != T.size or V.shape[1] < 1:
        raise ValidationError("g_max needs 1-d T and one row of V per duration")
    if not (np.all(T > 0) and np.isfinite(T).all() and np.isfinite(V).all()):
        raise ValidationError("g_max needs finite durations T > 0 and finite V")
    return _max_search(p, T, V, 0.0)[:3]


def analytic_profile(p: EmitterParams, pulse: CosineSeriesPulse) -> DepletionProfile:
    """DepletionProfile of a series pulse, chirped or not, from a one-row
    g_max search: G on its grid, G_max and argmax_t. The profile is cached
    for the next call with an equal (p, pulse) (lru_cache, one entry), so a
    bound and a synthesis of one pulse search it once; its arrays are
    read-only."""
    if not isinstance(pulse, CosineSeriesPulse):
        raise ValidationError("analytic G needs a CosineSeriesPulse")
    return _series_profile(p, pulse)


@lru_cache(maxsize=1)
def _series_profile(p: EmitterParams, pulse: CosineSeriesPulse) -> DepletionProfile:
    G_max, argmax_t, _, t, G = _max_search(p, [pulse.T], [pulse.coeffs],
                                           pulse.chirp)
    for x in (t, G):
        x.setflags(write=False)
    return DepletionProfile(grid=t[0], G=G[0], G_max=float(G_max[0]),
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
    return DepletionProfile(grid=grid, G=G[:grid.size], G_max=float(G[i]),
                            argmax_t=float(times[i]))


def _cumulative(rate, t_star: float, w: float, t_end: float, tol: float):
    """t -> int_0^t rate on [0, t_end], t clipped: a Chebyshev series in u with
    t = t* + w sinh(u), for a spike of width ~w at t* (Elliott & Johnston, J.
    Comput. Appl. Math. 203, 103 (2007)), chopped (Aurentz & Trefethen, ACM
    TOMS 43, 33 (2017)) also at the noise floor of, say, finite differences;
    sampled by barycentric rows (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)).
    A rate 0 at every node of the first pass integrates to exact zeros."""
    u0, u1 = math.asinh(-t_star / w), math.asinh((t_end - t_star) / w)
    uc, ur = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
    n, tail = 64, np.inf
    while True:
        u = uc + ur * np.cos(np.pi * np.arange(n + 1) / n)
        r = rate(t_star + w * np.sinh(u))
        if not r.any():  # the nodes nest, so only the first pass gets here
            return lambda t: np.zeros(np.shape(t))[()]
        c = dct(r * np.cosh(u), type=1) / n
        c[[0, -1]] /= 2.0
        big, last = np.abs(c).max(), np.abs(c[-8:]).max()
        if last <= tol * big or tail / 4.0 < last <= 1e-8 * big:
            break
        if n >= 4096:
            raise NumericError(f"Chebyshev series unresolved with {n} intervals: "
                               f"last coefficients at {last / big:.3e} of the largest")
        n, tail = 2 * n, last
    keep = np.flatnonzero(np.abs(c) > tol * big).max(initial=0) + 1
    c = np.polynomial.chebyshev.chebint(c[:keep], scl=w * ur, lbnd=-1)
    theta = (np.arange(c.size) + 0.5) * np.pi / c.size  # values there: DCT-III
    nodes, values = uc + ur * np.cos(theta), 0.5 * (dct(c, type=3) + c[0])
    weights = np.sin(theta) * (-1.0) ** np.arange(c.size)

    def integral(t):
        u = np.minimum(np.maximum(np.arcsinh((t - t_star) / w), u0), u1)
        q = weights / (u[..., None] - nodes + 1e-200)  # a node hit reads its value
        return q @ values / q.sum(axis=-1)
    return integral


def drive_phase(p: EmitterParams, env, E: float, t_end: float, G_max: float,
                t_star: float, G):
    """t -> phi(t) on [0, t_end]: phidot = E^2 e^(Gamma t) N / r^2 spikes at
    t_star, where r^2 = 1 - E^2 G (G a sampler) is r2_min = 1 - E^2 G_max, so
    _cumulative with w = t_end sqrt(r2_min) and tol max(1e-14, 10 eps / r2_min),
    r^2's conditioning; exact zeros where the rate vanishes (E = 0, or N = 0:
    a real envelope on resonance). DomainError first where r2_min < R2_FLOOR."""
    if (r2_min := 1.0 - E * E * G_max) < R2_FLOOR:
        raise DomainError(f"r^2 = 1 - E^2 G falls to {r2_min:.3g} at t = {t_star:.6g}"
                          " ns: the efficiency is at or above the envelope's bound")

    def rate(t):
        N = _rate(p, t, *env.evaluate(t), env.dtheta(t), env.d2theta(t),
                  _phase_weights)
        return E * E * N / (1.0 - E * E * G(t))
    return _cumulative(rate, t_star, t_end * math.sqrt(r2_min), t_end,
                       max(1e-14, 10.0 * np.finfo(float).eps / r2_min))


def g_and_max(p: EmitterParams, env, t_end: float):
    """The one depletion entry of any envelope on [0, t_end]: its jet t -> (f,
    f', f'', G, theta', theta'') and the DepletionProfile of G. A series has
    series_g's exact G and, at t_end = T, analytic_profile's profile; other
    envelopes G as one _cumulative pass over d, near linear. Otherwise G_max is
    the largest G at N_SEARCH_GRID uniform times and the falling zeros of d."""
    d = partial(depletion_rate, p, env)
    if isinstance(env, CosineSeriesPulse):
        series = series_g(p, env)[0]
        jet = lambda t: (*series(t), env.chirp, 0.0)  # noqa: E731
        if t_end == env.T:
            return jet, analytic_profile(p, env)
        G = lambda t: series(t)[3]  # noqa: E731
    else:
        G = _cumulative(d, t_end / 2, t_end, t_end, 1e-14)
        jet = lambda t: (*env.evaluate(t), G(t), env.dtheta(t),  # noqa: E731
                         env.d2theta(t))
    ts = SEARCH_TAU * t_end
    times = np.r_[ts, _falling_zeros(lambda t, r: d(t), ts[None], d(ts)[None])[1]]
    G_t = G(times)
    i = int(np.argmax(G_t))
    return jet, DepletionProfile(grid=ts, G=G_t[:ts.size], G_max=float(G_t[i]),
                                 argmax_t=float(times[i]))


def phase_evolution(p: EmitterParams, env, E: float, t_grid) -> np.ndarray:
    """Drive phase phi(t) accumulated by the ground-state amplitude: drive_phase
    up to the last grid time, on the G and its maximum of g_and_max there.
    Exactly zero where its rate vanishes: a real envelope on resonance, E = 0."""
    env, grid = as_envelope(env), time_grid(t_grid)
    if E < 0:
        raise ValidationError("efficiency E must be >= 0")
    if grid.size == 0 or grid[-1] <= 0.0:
        return np.zeros_like(grid)
    jet, prof = g_and_max(p, env, grid[-1])
    return drive_phase(p, env, E, grid[-1], prof.G_max, prof.argmax_t,
                       lambda t: jet(t)[3])(grid)
