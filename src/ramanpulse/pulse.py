"""Photon envelopes v(t) = exp(i theta(t)) f(t) on a finite support [0, T].

The workhorse family is the cosine series

    f(t) = sum_n v_n [1 - cos(2 pi n t / T)],

which is real and symmetric and vanishes together with its first derivative
at both ends of the support. Coefficients carry units of ns^(-1/2) so that
the normalized amplitude obeys int_0^T f(t)^2 dt = 1.

Closed forms of a series at t = tau T (f, f', f'', the norm, and G and d in
depletion) are rows on _sine_table of tau: a sample is one table, one matmul.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from .errors import ValidationError, finite
from .model import read_json_object

TWO_PI = 2.0 * math.pi

NORM_SWITCH = 4.0  # w_L t below which cumulative_norm sums its power series


def _harmonic_coefficients(T, order: int, weights) -> np.ndarray:
    """A weighted sum of the five integral families of f_n = 1 - cos(w_n t).

    I1..I5 integrate e^(Gamma s) times f_n f_m, f_n f_m', f_n' f_m',
    f_n f_m'' and f_n' f_m'' from 0 to t. With w_k = 2 pi k / T they reduce
    to the helper integrals h_k and u_k of e^(Gamma s) cos(w_k s) and
    e^(Gamma s) sin(w_k s). For the weights (w1..w5) of I1..I5 returns C
    of shape T.shape + (order, order, 2K), K = 2 order + 1, with
    sum_f w_f I_f(t)[n, m] = sum_k C[n, m, k] h_k(t) + C[n, m, K + k] u_k(t);
    T is one duration or an array of them. C does not depend on Gamma.
    By the product-to-sum identities
        I1 = h_0 - h_n - h_m + (h_|m-n| + h_(m+n)) / 2
        I2 = w_m (u_m - u_(m+n) / 2 - sgn(m - n) u_|m-n| / 2)
        I3 = w_n w_m (h_|m-n| - h_(m+n)) / 2
        I4 = w_m^2 (2 h_m - h_|m-n| - h_(m+n)) / 2
        I5 = w_n w_m^2 (u_(m+n) - sgn(m - n) u_|m-n|) / 2
    (u is odd in the frequency, h even), collected per h_k and u_k.
    """
    w1, w2, w3, w4, w5 = weights
    K = 2 * order + 1
    T = np.asarray(T, dtype=float)
    n, m, sign, columns = _harmonic_layout(order)
    wn, wm = n / T[..., None, None], m / T[..., None, None]
    a, b, c = np.full(wn.shape, w1), 0.5 * w3 * wn * wm, 0.5 * w4 * wm * wm
    du, su = 0.5 * w2 * wm, 0.5 * w5 * wn * wm * wm
    values = (a, -a, 2.0 * c - a, 0.5 * a + b - c, 0.5 * a - b - c,
              2.0 * du, su - du, sign * (du + su))
    size = order * order * 2 * K
    C = np.bincount(
        (columns + size * np.arange(T.size).reshape(T.shape + (1, 1, 1))).ravel(),
        np.stack(values, axis=-3).ravel(), T.size * size)
    return C.reshape(T.shape + (order, order, 2 * K))


@lru_cache(maxsize=None)
def _harmonic_layout(order: int):
    """_harmonic_coefficients' T-independent part, once per order, read-only:
    2 pi n and 2 pi m per pair, -sgn(m - n), and its eight columns in C."""
    K = 2 * order + 1
    n, m = np.indices((order, order)) + 1
    dk, sk = np.abs(m - n), m + n
    columns = (2 * K * np.arange(order * order).reshape(order, order)
               + np.stack((0 * n, n, m, dk, sk, K + m, K + sk, K + dk)))
    layout = (TWO_PI * n, TWO_PI * m, -np.sign(m - n), columns)
    for x in layout:
        x.setflags(write=False)
    return layout


def _series_rows(Gamma: float, T, C):
    """Rows on _sine_table of G = sum_k C_k h_k + C_(K + k) u_k and of d = G'.

    C, as from _harmonic_coefficients, has shape T.shape + (rows, 2K).
    With z = Gamma + i w_k, h_k + i u_k = expm1(z t) / z, and on t = tau T,
    where w_k t = 2 pi k tau does not depend on T,
        e^(z t) = e^(Gamma t) (1 - 2 sin^2(pi k tau) + i sin(2 pi k tau)).
    So with P - i Q = (A - i B) / z for A = C[..., :K], B = C[..., K:],
        G = expm1(Gamma t) sum P + e^(Gamma t) [-2 P, Q, c] . table,
        d = e^(Gamma t) (sum A + [-2 A, B, 0] . table),
    where c = A_0 T carries h_0 = t at the pole z = 0 (also the closed norm's
    rule). A subnormal Gamma counts as zero: 1/z overflows there, and the
    two agree to double precision. Returns that Gamma, then the rows and sum
    of G and of d.
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


@lru_cache(maxsize=None)
def _sine_table(K: int):
    """tau -> rows sin^2(pi k tau), sin(2 pi k tau) (k < K) and tau, shaped as tau."""
    angles = np.append(np.multiply.outer((np.pi, TWO_PI), np.arange(K)), 0.0)

    def table(tau):
        s = np.sin(np.multiply.outer(angles, tau))
        s[:K] *= s[:K]
        s[-1] = tau
        return s
    return table


@dataclass(frozen=True)
class CosineSeriesPulse:
    """Cosine-series envelope with an optional linear phase chirp.

    theta(t) = chirp * t; a zero chirp gives a real pulse. Derivatives are
    analytic. The pulse is itself an envelope, with every method of
    Envelope: f, f', f'' and the exact cumulative norm are rows on
    _sine_table, the norm's weights from _harmonic_coefficients.
    """

    T: float
    coeffs: tuple
    chirp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "T", finite(self.T, "pulse duration T"))
        object.__setattr__(self, "chirp", finite(self.chirp, "pulse chirp"))
        if self.T <= 0:
            raise ValidationError("pulse duration T must be > 0")
        coeffs = tuple(finite(c, "series coefficient") for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValidationError("need at least one series coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @cached_property
    def _rows(self):
        """Rows on _sine_table(2L + 1) of f, f', f'' - f''(0) and the closed
        norm; f''(0); the powers j and terms b_j of the norm's power series.

        With w_n = 2 pi n / T, s_n = sin^2(pi n tau): f = sum 2 v_n s_n,
        f' = sum v_n w_n sin(2 pi n tau), f'' = sum v_n w_n^2 (1 - 2 s_n),
        norm = c_0 t + sum_k c_k sin(2 pi k tau) / w_k (the G row of
        _series_rows at zero rate gap for the builder's I1, with v x v)
        = t y^2 sum_j b_j y^j, y = (w_L t)^2, by
        1 - cos x = -sum_j (-x^2)^j / (2 j)! to 18 terms (2e-22 sum |v_n| left
        at NORM_SWITCH), each term of f summed in exact integers.
        """
        L, v, T = self.order, np.asarray(self.coeffs), self.T
        K = 2 * L + 1
        w = TWO_PI * np.arange(1, L + 1) / T
        c = np.einsum("n,nmk,m->k", v, _harmonic_coefficients(
            T, L, (1.0, 0.0, 0.0, 0.0, 0.0)), v)
        rows, n = np.zeros((4, 2 * K + 1)), np.arange(1, L + 1)
        rows[0, n], rows[1, K + n] = 2.0 * v, v * w
        rows[2, n] = -2.0 * v * w ** 2
        rows[3] = _series_rows(0.0, T, c[None])[1][0]
        j = np.arange(1, 19)
        ratios = [x.as_integer_ratio() for x in self.coeffs]
        den = max(q for _, q in ratios)  # powers of two: v_n = num_n / den
        num = [p * (den // q) for p, q in ratios]
        a = np.array([sum(m * n ** (2 * i) for n, m in enumerate(num, start=1))
                      / (-den * (-L * L) ** i * math.factorial(2 * i))
                      for i in range(1, j.size + 1)])
        return rows, v @ w ** 2, j - 1, np.convolve(a, a)[:j.size] / (2 * j + 3)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def _pass(self, t, rows):
        """t, tau = clip(t, 0, T) / T, f, f', f'' (zeros outside [0, T]) and
        the other rows of rows . table(tau), rows led by those of _rows.
        Booleans select by products, as a numpy call costs more than a
        scalar's arithmetic; a numpy float goes left of a boolean, and a
        python complex left of a numpy float, where products stay cheap."""
        t = np.asarray(t, dtype=float)[()]
        inside = (t >= 0.0) & (t <= self.T)
        tau = t / self.T * inside + (t > self.T)
        tab = _sine_table(2 * self.order + 1)(tau)
        f, df, d2f, *rest = (rows @ tab.reshape(len(tab), -1)).reshape(len(rows), *t.shape)
        return t, tau, f * inside, df * inside, (d2f + self._rows[1]) * inside, *rest

    def _eval(self, t):
        """f, f' and f'' at t in one pass over the sine table, zeros outside
        [0, T]; f in the half-angle form 2 sin^2(x / 2), stable at small t."""
        return self._pass(t, self._rows[0])[2:5]

    def f(self, t):
        return self._eval(t)[0]

    def df(self, t):
        return self._eval(t)[1]

    def d2f(self, t):
        return self._eval(t)[2]

    def evaluate(self, t):
        """Amplitude and its first two derivatives at t (zeros outside [0, T])."""
        return self._eval(t)

    def theta(self, t):
        return self.chirp * np.asarray(t, dtype=float)[()]

    def dtheta(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.chirp)[()]

    def d2theta(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))[()]

    def v(self, t):
        """Complex envelope exp(i theta) f."""
        return np.exp(1j * np.asarray(self.theta(t))) * np.asarray(self.f(t))

    def v_and_norm(self, t):
        """v(t) and int_0^t |v|^2 (see cumulative_norm) from one table pass."""
        powers, series = self._rows[2:]
        t, tau, f, _, _, closed = self._pass(t, self._rows[0])
        y = (TWO_PI * self.order * tau) ** 2
        return (np.exp(1j * self.chirp * t) * f,
                self.T * tau * y * y * (y[..., None] ** powers @ series)
                * (y < NORM_SWITCH ** 2) + closed * (y >= NORM_SWITCH ** 2))

    def norm_sq(self) -> float:
        """int_0^T f^2 dt, exact for the series."""
        return float(series_norm_sq(self.T, self.coeffs))

    def normalize(self) -> "CosineSeriesPulse":
        """Rescale all coefficients by one positive factor to unit norm."""
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValidationError("cannot normalize an all-zero pulse")
        scale = 1.0 / math.sqrt(n2)
        return CosineSeriesPulse(self.T, tuple(scale * c for c in self.coeffs),
                                 self.chirp)

    def cumulative_norm(self, t):
        """int_0^t f(tau)^2 dtau, exact; constant for t beyond T.

        By product-to-sum identities the integral is c_0 t plus a sum of
        c_k sin(w_k t) / w_k, k = 1..2L, a row on the sine table. It cancels
        for small t, where the integral scales as t^5 (t^9 when f''(0) = 0)
        against terms of size t: it is off by up to 6e-9 at w_L t = 1 and
        1e-12 at NORM_SWITCH, below which the power series takes over.
        """
        return self.v_and_norm(t)[1]

    def to_dict(self) -> dict:
        theta = {"type": "none"} if self.chirp == 0.0 else \
            {"type": "linear", "c_rad_per_ns": self.chirp}
        return {"T_ns": self.T, "coeffs": list(self.coeffs), "theta": theta}

    @classmethod
    def from_dict(cls, data: dict) -> "CosineSeriesPulse":
        """The pulse of to_dict's schema; ValidationError on any other data."""
        theta = data.get("theta", {}) if isinstance(data, dict) else None
        if not (isinstance(theta, dict) and isinstance(data.get("coeffs", []), list)):
            raise ValidationError("pulse must be an object with a list coeffs and "
                                  f"an object theta, got {data!r}")
        try:
            kind = theta.get("type", "none")
            if kind == "none":
                chirp = 0.0
            elif kind == "linear":
                chirp = finite(theta["c_rad_per_ns"], "pulse c_rad_per_ns")
            else:
                raise ValidationError(f"unknown theta type {kind!r}")
            return cls(finite(data["T_ns"], "pulse T_ns"), tuple(data["coeffs"]),
                       chirp)
        except KeyError as exc:
            raise ValidationError(f"pulse dict missing key {exc}") from exc


class Envelope:
    """Generic envelope: callables for f, theta, and their derivatives.

    Derivative callables that are not supplied are replaced by central
    finite differences of step T * 1e-6 (first) and T * 1e-4 (second, near
    eps^(1/4) T, where truncation and roundoff balance); all take arrays.
    """

    def __init__(self, T, f, theta=None, df=None, d2f=None, dtheta=None,
                 d2theta=None):
        self.T = finite(T, "envelope support T")
        if self.T <= 0:
            raise ValidationError("envelope support T must be > 0")
        h, h2 = self.T * 1e-6, self.T * 1e-4
        self.f = f
        self.df = df if df is not None else self._fd1(f, h)
        self.d2f = d2f if d2f is not None else self._fd2(f, h2)
        if theta is None:
            self.theta = lambda t: np.zeros_like(np.asarray(t, dtype=float))[()]
            self.dtheta = self.theta
            self.d2theta = self.theta
        else:
            self.theta = theta
            self.dtheta = dtheta if dtheta is not None else self._fd1(theta, h)
            self.d2theta = d2theta if d2theta is not None else self._fd2(theta, h2)

    @staticmethod
    def _fd1(fun, h):
        def deriv(t):
            t = np.asarray(t, dtype=float)
            return ((fun(t + h) - fun(t - h)) / (2.0 * h))[()]
        return deriv

    @staticmethod
    def _fd2(fun, h):
        def deriv(t):
            t = np.asarray(t, dtype=float)
            return ((fun(t + h) - 2.0 * fun(t) + fun(t - h)) / (h * h))[()]
        return deriv

    def evaluate(self, t):
        """f, f' and f'' at t."""
        return self.f(t), self.df(t), self.d2f(t)

    def v(self, t):
        """Complex envelope exp(i theta) f."""
        return np.exp(1j * np.asarray(self.theta(t))) * np.asarray(self.f(t))

    def v_and_norm(self, t):
        """v(t) and int_0^t |v|^2."""
        return self.v(t), self.cumulative_norm(t)

    def cumulative_norm(self, t):
        """int_0^t |v|^2 dtau by quadrature, for each t."""
        from scipy.integrate import quad
        return np.vectorize(lambda hi: quad(
            lambda x: float(self.f(x)) ** 2, 0.0, min(max(hi, 0.0), self.T),
            limit=200)[0], otypes=[float])(t)[()]


def as_envelope(env):
    """An Envelope or a CosineSeriesPulse, unchanged: both are envelopes."""
    if isinstance(env, (Envelope, CosineSeriesPulse)):
        return env
    raise ValidationError(f"expected Envelope or CosineSeriesPulse, got {type(env)!r}")


def sin2_pulse(T: float) -> CosineSeriesPulse:
    """Normalized single-term pulse, f(t) = v1 (1 - cos(2 pi t / T)).

    Normalization fixes v1 = sqrt(2 / (3 T)); the duration is the only
    free parameter of this shape.
    """
    if T <= 0:
        raise ValidationError("pulse duration T must be > 0")
    return CosineSeriesPulse(T, (math.sqrt(2.0 / (3.0 * T)),))


def constrained_series(odd_coeffs, T: float, chirp: float = 0.0) -> CosineSeriesPulse:
    """Series with even coefficients slaved to keep f''(0) = f''(T) = 0.

    Given the odd coefficients (v1, v3, v5, ...), inserts
    v_{2k} = -((2k-1)/(2k))^2 v_{2k-1}, which cancels the curvature of each
    consecutive pair at the endpoints and so guarantees a smooth drive
    activation. Returns the unnormalized pulse.
    """
    odd = [float(c) for c in odd_coeffs]
    if not odd:
        raise ValidationError("need at least one odd coefficient")
    return CosineSeriesPulse(T, tuple(slaved_series(odd).tolist()), chirp)


def slaved_series(odd):
    """(v1, v2, v3, v4, ...) from the odd coefficients, along the last axis.

    Each v_{2k} = -((2k-1)/(2k))^2 v_{2k-1}; a (ncand, n) array of odd
    coefficients gives the (ncand, 2n) coefficient matrix.
    """
    odd = np.asarray(odd, dtype=float)
    k = np.arange(1, odd.shape[-1] + 1)
    pairs = np.stack([odd, -((2 * k - 1) / (2 * k)) ** 2 * odd], axis=-1)
    return pairs.reshape(*odd.shape[:-1], -1)


def series_norm_sq(T, coeffs):
    """int_0^T f^2 dt = T (sum v)^2 + T sum v^2 / 2, along the last axis."""
    v = np.asarray(coeffs)
    return T * (v.sum(axis=-1) ** 2 + 0.5 * (v ** 2).sum(axis=-1))


def write_csv(path: str | Path, columns, rows, header: str = ""):
    """Write a CSV file: a "# header" line if given, the column names, rows.

    Numbers are formatted as %.12g; strings are written as given.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(["%s" if isinstance(x, str) else "%.12g" for x in row])
                     % tuple(row) + "\n")


def write_json(path: str | Path, payload):
    """Write payload as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def write_samples(env, path: str | Path, n: int = 501, header: str = ""):
    """Sample an envelope to CSV with columns t_ns, f, theta."""
    env = as_envelope(env)
    ts = np.linspace(0.0, env.T, n)
    write_csv(path, ("t_ns", "f", "theta"),
              zip(ts, np.asarray(env.f(ts)), np.asarray(env.theta(ts))), header)


def save_pulse(pulse: CosineSeriesPulse, path: str | Path):
    write_json(path, pulse.to_dict())


def load_pulse(path: str | Path) -> CosineSeriesPulse:
    return CosineSeriesPulse.from_dict(read_json_object(path, "pulse file"))
