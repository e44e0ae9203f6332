"""Grid optimization of pulse duration and shape.

The figure of merit is the worst-case transfer fidelity at the efficiency
bound, 1 / (exp(Gamma2 T) max_t G(t)). Because G is a quadratic form in
the series coefficients with duration-dependent matrix, a full duration by
ratio grid evaluates as batched linear algebra: one integral matrix per
duration serves every candidate coefficient vector. The search itself is
deterministic; ties resolve toward the smaller duration, then the
lexicographically smaller ratio vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds, depletion
from .errors import ValidationError, finite
from .model import EmitterParams
from .pulse import CosineSeriesPulse, series_norm_sq, slaved_series

REFINE_SAMPLES = 21   # points per axis of the shape search's refinement box
DURATION_SAMPLES = 200  # durations per stage of optimize_duration

# Bytes of the largest array one step of the grid scan builds: the scores of
# a block of candidates at a block of durations, or the integral matrices X.
BLOCK_BYTES = 8 * 2 ** 20
# Bytes of the scan's arrays of every candidate (ratios, coefficients v, v x v)
CANDIDATE_BYTES = 2 ** 30
# Every COARSE-th time sample, and the last, bound each candidate's G_max
# from below; a candidate is dropped when the merit bound this gives falls
# below the incumbent by more than PRUNE_MARGIN (relative), so rounding in
# the products cannot drop the optimum.
COARSE = 16
PRUNE_MARGIN = 1e-12


@dataclass(frozen=True)
class OptimizationConfig:
    """Grid specification for the shape search.

    L counts the free shape parameters (the duration plus L - 1 coefficient
    ratios). In constrained mode the free coefficients are the odd ones and
    the even ones are slaved to keep the drive activation smooth. A grid
    whose candidate arrays would exceed CANDIDATE_BYTES is refused.
    """

    L: int = 1
    constrained: bool = False
    T_range: tuple | None = None
    T_samples: int = 500
    ratio_samples: int = 201
    refine: bool = True

    def __post_init__(self):
        if self.L < 1:
            raise ValidationError("series order L must be >= 1")
        if self.T_samples < 2 or self.ratio_samples < 2:
            raise ValidationError("need at least 2 samples per grid axis")
        ncoef = 2 * self.L if self.constrained else self.L
        axis = max(self.ratio_samples, REFINE_SAMPLES * self.refine)  # refine box too
        size = 8 * axis ** (self.L - 1) * (self.L + ncoef + ncoef ** 2)
        if size > CANDIDATE_BYTES:
            raise ValidationError(
                f"the grid's candidate arrays would take {size / 2 ** 30:.3g} GiB,"
                f" above {CANDIDATE_BYTES / 2 ** 30:g} GiB")
        if self.T_range is not None:
            ends = [finite(x, "T_range end") for x in self.T_range]
            if len(ends) != 2 or not 0.0 < ends[0] < ends[1]:
                raise ValidationError("T_range must be (lo, hi) with 0 < lo < hi")


def full_config(L: int, constrained: bool = False, **kw) -> OptimizationConfig:
    """The published grid: 500 durations, 201 ratio points per free ratio."""
    if L > 3:
        raise ValidationError("the full grid is only tabulated up to L = 3")
    return OptimizationConfig(L=L, constrained=constrained, T_samples=500,
                              ratio_samples=201, **kw)


def desk_config(L: int, constrained: bool = False, **kw) -> OptimizationConfig:
    """Coarser grids that finish interactively; refinement recovers accuracy."""
    samples = {1: (500, 201), 2: (200, 61), 3: (50, 51)}
    t_n, r_n = samples.get(L, (50, 31))
    return OptimizationConfig(L=L, constrained=constrained, T_samples=t_n,
                              ratio_samples=r_n, **kw)


@dataclass
class OptimizationResult:
    pulse: CosineSeriesPulse
    E_max: float
    F_worst: float
    F_avg: float
    objective_value: float
    provenance: dict = field(default_factory=dict)


def default_T_range(p: EmitterParams) -> tuple:
    """Duration window between the coupling timescale and the memory time."""
    lo = max(1.0 / p.g, 1.0 / p.kappa)
    if p.Gamma1 <= 0 or p.Gamma2 <= 0:
        raise ValidationError(
            "default duration range needs Gamma1, Gamma2 > 0; pass T_range")
    hi = min(1.0 / p.Gamma1, 1.0 / p.Gamma2)
    if hi <= lo:
        raise ValidationError("decoherence too fast: no duration window")
    return lo, hi


def _merit(p: EmitterParams, T, G_max):
    """1 / (exp(Gamma2 T) G_max): the worst-case fidelity at the bound.

    T is one duration, or a 1-d array of them with one row of G_max each.
    """
    if np.ndim(T):
        decay = np.array([math.exp(p.Gamma2 * t) for t in T])
        return 1.0 / (decay[:, None] * G_max)
    return 1.0 / (math.exp(p.Gamma2 * T) * G_max)


def objective(p: EmitterParams, pulse: CosineSeriesPulse) -> float:
    """1 / (exp(Gamma2 T) max_t G(t)) for the normalized pulse.

    Equals the worst-case fidelity at the efficiency bound. Invariant under
    rescaling of the coefficients since normalization happens here.
    """
    pn = pulse.normalize()
    return _merit(p, pn.T, depletion.analytic_profile(p, pn).G_max)


@dataclass
class _Best:
    """Running best of a search, and the grid points it considered.

    evaluations counts every grid point considered; pruned counts those
    dropped by their bound without a full score; full_durations those
    durations whose full-resolution X was built to score survivors.
    """

    objective: float = -math.inf
    T: float | None = None
    ratios: tuple = ()
    coeffs: tuple = ()
    evaluations: int = 0
    pruned: int = 0
    full_durations: int = 0

    def stage(self, name: str) -> dict:
        return {"stage": name, "T": self.T, "ratios": list(self.ratios),
                "objective": self.objective, "evaluations": self.evaluations,
                "pruned": self.pruned, "full_durations": self.full_durations}


def _scan(p: EmitterParams, axes, constrained: bool, best: _Best):
    """Score the grid axes[0] (durations) x axes[1] x ... (ratios).

    One integral matrix X per duration serves every candidate: G = v.X.v
    is the product of X with the outer products v x v. The grid goes in
    blocks of at most BLOCK_BYTES: many durations per block when the
    candidates are few, candidate chunks at one duration when they are
    many. Per block, X on the coarse samples alone bounds every merit from
    above; the point with the best bound is scored in full (the seed), and
    points bounded below max(incumbent, seed) are dropped. Full X is then
    built only for the durations that keep a candidate, and the survivors
    are scored in grid order. Only a strictly better survivor (never the
    seed) replaces the incumbent, so ties keep the earlier one.
    """
    mesh = np.meshgrid(np.ones(1), *axes[1:], indexing="ij")
    free = np.stack([m.ravel() for m in mesh], axis=1)  # (1, ratios...)
    V = slaved_series(free) if constrained else free
    ncand, ncoef = V.shape
    VV = (V[:, :, None] * V[:, None, :]).reshape(ncand, -1)
    norm = series_norm_sq(1.0, V)  # times T: the series norm at duration T
    Ts = np.asarray(axes[0], dtype=float)
    n = depletion.N_SEARCH_GRID
    coarse = np.r_[0:n - 1:COARSE, n - 1]
    row = 8 * n  # bytes of one duration's samples
    chunk = max(1, min(ncand, BLOCK_BYTES // row))
    per_block = max(1, BLOCK_BYTES // (row * max(ncoef * ncoef, ncand)))

    def merits(Tb, X, k):  # of candidates k (indices or a slice) at each of Tb
        return _merit(p, Tb, (VV[k] @ X).max(axis=2) / (Tb[:, None] * norm[k]))

    for j in range(0, Ts.size, per_block):
        Tb = Ts[j:j + per_block]
        Xc = depletion.g_matrix(p, Tb, ncoef, coarse)
        bound = np.hstack([merits(Tb, Xc, slice(c, c + chunk))
                           for c in range(0, ncand, chunk)])
        best.evaluations += bound.size
        best.pruned += bound.size
        alive = bound >= best.objective * (1.0 - PRUNE_MARGIN)  # a NaN is not
        if alive.any():  # the seed: the best bound, scored in full
            t, k = np.unravel_index(np.nanargmax(bound), bound.shape)
            Tt = Tb[t:t + 1]
            seed = merits(Tt, depletion.g_matrix(p, Tt, ncoef), [k])[0, 0]
            alive &= bound >= max(best.objective, seed) * (1.0 - PRUNE_MARGIN)
        live = np.flatnonzero(alive.any(axis=1))  # durations keeping a point
        if live.size == 0:
            continue
        Ta, X = Tb[live], depletion.g_matrix(p, Tb[live], ncoef)
        best.full_durations += live.size
        for c in range(0, ncand, chunk):
            keep = c + np.flatnonzero(alive[live, c:c + chunk].any(axis=0))
            best.pruned -= live.size * keep.size
            if keep.size == 0:
                continue
            merit = merits(Ta, X, keep)
            t, k = np.unravel_index(np.argmax(merit), merit.shape)
            if merit[t, k] > best.objective:
                i = keep[k]
                best.objective, best.T = float(merit[t, k]), float(Ta[t])
                best.ratios, best.coeffs = tuple(free[i, 1:]), tuple(V[i])


def _search(p: EmitterParams, axes, constrained: bool, refine_samples: int):
    """Grid scan, then (refine_samples > 0) a rescan of the local box.

    The box spans the grid neighbours of the optimum on each axis with
    refine_samples points; an axis with a single value stays fixed. Returns
    the running best and the trace of both stages.
    """
    best = _Best()
    _scan(p, axes, constrained, best)
    trace = [best.stage("grid")]
    if refine_samples:
        box = []
        for axis, x in zip(axes, (best.T,) + best.ratios):
            i = int(np.argmin(np.abs(axis - x)))
            box.append(axis if len(axis) == 1 else np.linspace(
                axis[max(i - 1, 0)], axis[min(i + 1, len(axis) - 1)], refine_samples))
        _scan(p, box, constrained, best)
        trace.append(best.stage("refine"))
    return best, trace


def _result(p: EmitterParams, cfg: OptimizationConfig, best: _Best,
            trace: list) -> OptimizationResult:
    pulse = CosineSeriesPulse(best.T, best.coeffs).normalize()
    profile = depletion.analytic_profile(p, pulse)
    res = bounds.compute_bounds(p, profile)
    provenance = {
        "config": {
            "L": cfg.L, "constrained": cfg.constrained,
            "T_samples": cfg.T_samples, "ratio_samples": cfg.ratio_samples,
            "T_range": list(cfg.T_range) if cfg.T_range else None,
            "refine": cfg.refine,
        },
        "trace": trace,
        "evaluations": best.evaluations,
    }
    return OptimizationResult(pulse=pulse, E_max=res.E_max, F_worst=res.F_worst,
                              F_avg=res.F_avg,
                              objective_value=_merit(p, pulse.T, profile.G_max),
                              provenance=provenance)


def optimize_shape(p: EmitterParams, cfg: OptimizationConfig) -> OptimizationResult:
    """Exhaustive grid search over duration and coefficient ratios.

    Ratios run over [-1, 1] with the endpoints and zero on the grid
    exactly, so each search space nests inside the next order and the
    best objective can only improve with L. An optional refinement pass
    rescans a local box between the grid neighbors of the optimum.
    """
    T_range = cfg.T_range if cfg.T_range is not None else default_T_range(p)
    ratio_axis = np.linspace(-1.0, 1.0, cfg.ratio_samples)
    if cfg.ratio_samples % 2 == 1:
        ratio_axis[cfg.ratio_samples // 2] = 0.0  # exact zero for nesting
    axes = [np.linspace(*T_range, cfg.T_samples)] + [ratio_axis] * (cfg.L - 1)
    best, trace = _search(p, axes, cfg.constrained,
                          REFINE_SAMPLES if cfg.refine else 0)
    return _result(p, cfg, best, trace)


def optimize_duration(p: EmitterParams, T_lo: float | None = None,
                      T_hi: float | None = None) -> OptimizationResult:
    """Two-stage duration optimization of the single-term pulse.

    Stage one scans DURATION_SAMPLES durations across [T_lo, T_hi], by
    default the window between the coupling timescale and the memory time;
    stage two rescans as many points between the grid neighbors of the
    stage-one optimum, which keeps grid artifacts below one fine step even
    for slow decoherence.
    """
    if T_lo is None or T_hi is None:
        d_lo, d_hi = default_T_range(p)
        T_lo = d_lo if T_lo is None else T_lo
        T_hi = d_hi if T_hi is None else T_hi
    cfg = OptimizationConfig(T_range=(T_lo, T_hi), T_samples=DURATION_SAMPLES)
    best, trace = _search(p, [np.linspace(T_lo, T_hi, DURATION_SAMPLES)], False,
                          DURATION_SAMPLES)
    return _result(p, cfg, best, trace)
