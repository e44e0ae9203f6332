"""Photon envelopes v(t) = exp(i theta(t)) f(t) on a finite support [0, T].

The workhorse family is the cosine series

    f(t) = sum_n v_n [1 - cos(2 pi n t / T)],

which is real and symmetric and vanishes together with its first derivative
at both ends of the support. Coefficients carry units of ns^(-1/2) so that
the normalized amplitude obeys int_0^T f(t)^2 dt = 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, finite

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CosineSeriesPulse:
    """Cosine-series envelope with an optional linear phase chirp.

    theta(t) = chirp * t; a zero chirp gives a real pulse. Derivatives are
    analytic, no finite differencing is involved for this family.
    """

    T: float
    coeffs: tuple
    chirp: float = 0.0

    def __post_init__(self):
        finite(self.T, "pulse duration T")
        finite(self.chirp, "pulse chirp")
        if self.T <= 0:
            raise ValidationError("pulse duration T must be > 0")
        coeffs = tuple(finite(c, "series coefficient") for c in self.coeffs)
        if len(coeffs) < 1:
            raise ValidationError("need at least one series coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        # per-pulse constants, not dataclass fields: the harmonic frequencies
        # w_k = 2 pi k / T, k = 1..2L; the weights v_n, v_n w_n and v_n w_n^2
        # of f, f' and f'' (see _eval); and c_0, c_k / w_k of int_0^t f^2,
        # from f_n f_m = 1 - cos w_n t - cos w_m t
        #                + (cos w_|n-m| t + cos w_(n+m) t) / 2
        L = len(coeffs)
        v = np.asarray(coeffs)
        w = TWO_PI * np.arange(1, 2 * L + 1) / self.T
        vw = v * w[:L]
        n = np.arange(1, L + 1)
        pair = 0.5 * np.outer(v, v).ravel()
        c = (np.bincount(np.abs(n[:, None] - n).ravel(), pair, 2 * L + 1)
             + np.bincount((n[:, None] + n).ravel(), pair, 2 * L + 1))
        c[0] += v.sum() ** 2
        c[1:L + 1] -= 2.0 * v * v.sum()
        object.__setattr__(self, "_w", w)
        object.__setattr__(self, "_jet_weights", (v, vw, vw * w[:L]))
        object.__setattr__(self, "_norm_weights", (c[0], c[1:] / w))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def _eval(self, t):
        """f, f' and f'' at t in one pass over the harmonics.

        Zeros outside [0, T]. The derivatives of 1 - cos(w t) are w sin(w t)
        and w^2 cos(w t); f itself uses the half-angle identity
        1 - cos x = 2 sin^2(x / 2), stable for small w t.
        """
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= self.T)
        wt = np.multiply.outer(np.where(inside, t, 0.0), self._w[:self.order])
        half = np.sin(0.5 * wt)
        v, vw, vw2 = self._jet_weights
        f, df, d2f = np.where(inside, (2.0 * (half * half) @ v, np.sin(wt) @ vw,
                                       np.cos(wt) @ vw2), 0.0)
        return f[()], df[()], d2f[()]

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

    def norm_sq(self) -> float:
        """int_0^T f^2 dt, exact for the series."""
        v = np.asarray(self.coeffs)
        return float(self.T * (v.sum() ** 2 + 0.5 * (v ** 2).sum()))

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

        The product-to-sum identities turn f^2 into a sum over the
        harmonics k = 0..2L, so the integral is c_0 t plus a sum of
        c_k sin(w_k t) / w_k. That closed form loses all significant digits
        for w_max t << 1 (the integral scales as t^5 against terms of size
        t), so a power series in t takes over there.
        """
        t = np.asarray(t, dtype=float)
        tt = np.clip(t, 0.0, self.T)
        c0, weights = self._norm_weights
        total = c0 * tt + np.sin(np.multiply.outer(tt, self._w)) @ weights

        ws = self._w[:self.order]
        small = tt * ws[-1] < 0.05
        if np.any(small):
            v = np.asarray(self.coeffs)
            a = float(np.sum(v * ws ** 2)) / 2.0
            b = -float(np.sum(v * ws ** 4)) / 24.0
            c = float(np.sum(v * ws ** 6)) / 720.0
            t5 = tt ** 5
            series = (a * a / 5.0) * t5 + (2.0 * a * b / 7.0) * t5 * tt * tt \
                + ((b * b + 2.0 * a * c) / 9.0) * t5 * tt ** 4
            total = np.where(small, series, total)
        return total[()]

    def envelope(self) -> "Envelope":
        return Envelope(T=self.T, f=self.f, df=self.df, d2f=self.d2f,
                        theta=self.theta, dtheta=self.dtheta,
                        d2theta=self.d2theta, _cumnorm=self.cumulative_norm,
                        _evaluate=self._eval)

    def to_dict(self) -> dict:
        theta = {"type": "none"} if self.chirp == 0.0 else \
            {"type": "linear", "c_rad_per_ns": self.chirp}
        return {"T_ns": self.T, "coeffs": list(self.coeffs), "theta": theta}

    @classmethod
    def from_dict(cls, data: dict) -> "CosineSeriesPulse":
        try:
            theta = data.get("theta", {"type": "none"})
            kind = theta.get("type", "none")
            if kind == "none":
                chirp = 0.0
            elif kind == "linear":
                chirp = float(theta["c_rad_per_ns"])
            else:
                raise ValidationError(f"unknown theta type {kind!r}")
            return cls(float(data["T_ns"]), tuple(data["coeffs"]), chirp)
        except KeyError as exc:
            raise ValidationError(f"pulse dict missing key {exc}") from exc


class Envelope:
    """Generic envelope: callables for f, theta, and their derivatives.

    Derivative callables that are not supplied are replaced by central
    finite differences with step h = T * 1e-6. All callables must accept
    numpy arrays.
    """

    def __init__(self, T, f, theta=None, df=None, d2f=None, dtheta=None,
                 d2theta=None, fd_step=None, _cumnorm=None, _evaluate=None):
        self.T = finite(T, "envelope support T")
        if self.T <= 0:
            raise ValidationError("envelope support T must be > 0")
        h = fd_step if fd_step is not None else self.T * 1e-6
        self.f = f
        self.df = df if df is not None else self._fd1(f, h)
        self.d2f = d2f if d2f is not None else self._fd2(f, h)
        if theta is None:
            self.theta = lambda t: np.zeros_like(np.asarray(t, dtype=float))[()]
            self.dtheta = self.theta
            self.d2theta = self.theta
        else:
            self.theta = theta
            self.dtheta = dtheta if dtheta is not None else self._fd1(theta, h)
            self.d2theta = d2theta if d2theta is not None else self._fd2(theta, h)
        self._cumnorm = _cumnorm
        self._evaluate = _evaluate

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
        """f, f' and f'' at t; one pass for a series, else three calls."""
        if self._evaluate is not None:
            return self._evaluate(t)
        return self.f(t), self.df(t), self.d2f(t)

    def v(self, t):
        """Complex envelope exp(i theta) f."""
        return np.exp(1j * np.asarray(self.theta(t))) * np.asarray(self.f(t))

    def cumulative_norm(self, t):
        """int_0^t |v|^2 dtau; quadrature fallback for generic envelopes."""
        if self._cumnorm is not None:
            return self._cumnorm(t)
        from scipy.integrate import quad
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        for i, ti in enumerate(t_arr):
            hi = min(max(ti, 0.0), self.T)
            val, _ = quad(lambda x: float(self.f(x)) ** 2, 0.0, hi, limit=200)
            out[i] = val
        return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def as_envelope(env) -> Envelope:
    """Accept either an Envelope or a CosineSeriesPulse."""
    if isinstance(env, Envelope):
        return env
    if isinstance(env, CosineSeriesPulse):
        return env.envelope()
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
    coeffs = []
    for k, v_odd in enumerate(odd, start=1):
        ratio = ((2 * k - 1) / (2 * k)) ** 2
        coeffs.extend([v_odd, -ratio * v_odd])
    return CosineSeriesPulse(T, tuple(coeffs), chirp)


def write_csv(path: str | Path, columns, rows, header: str = ""):
    """Write a CSV file: a "# header" line if given, the column names, rows.

    Numbers are formatted as %.12g; strings are written as given.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else f"{x:.12g}"
                              for x in row) + "\n")


def write_samples(env, path: str | Path, n: int = 501, header: str = ""):
    """Sample an envelope to CSV with columns t_ns, f, theta."""
    env = as_envelope(env)
    ts = np.linspace(0.0, env.T, n)
    write_csv(path, ("t_ns", "f", "theta"),
              zip(ts, np.asarray(env.f(ts)), np.asarray(env.theta(ts))), header)


def save_pulse(pulse: CosineSeriesPulse, path: str | Path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pulse.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_pulse(path: str | Path) -> CosineSeriesPulse:
    with open(path, "r", encoding="utf-8") as fh:
        return CosineSeriesPulse.from_dict(json.load(fh))
