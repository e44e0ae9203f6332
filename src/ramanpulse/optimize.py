"""Grid optimization of pulse duration and shape.

The figure of merit is the worst-case transfer fidelity at the efficiency
bound, 1 / (exp(Gamma2 T) max_t G(t)). Because G is a quadratic form in
the series coefficients with duration-dependent matrix, a full duration by
ratio grid evaluates as batched linear algebra: one integral matrix per
duration serves every candidate coefficient vector. Few grid points are
scored in full: G on a subset of the time samples bounds max_t G from
below, so its merit bounds the point's merit from above. The scan prunes
in nested levels (G(T) alone, then 8 and 63 of the 1001 samples), and the
last level, the full grid where a point survives, gives exact merits.
Every bound, seed and exact merit comes from one product (_bound) on
matrices read from the series rows of each duration, built once per scan.
The search itself is deterministic; ties resolve toward the smaller
duration, then the lexicographically smaller ratio vector.
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

# Bytes of the largest array one step of the grid scan builds: at each level,
# the products of a chunk of candidates at a group of durations on that
# level's samples, their integral matrices X, or a chunk's copied v x v. Each
# level sizes its groups and chunks from its own sample count.
BLOCK_BYTES = 2 ** 19
# The scan builds each duration's series rows once (depletion.g_rows), in
# chunks of durations: 8 ncoef^2 (4 ncoef + 3) bytes of rows per duration,
# and about ROW_BUILD times that while they are built. A chunk holds as
# many whole first-level groups as fit in BLOCK_BYTES, or, where one group
# does not fit, as many of its durations as do.
ROW_BUILD = 6
# Bytes of the scan's arrays of every candidate (ratios, coefficients v,
# v x v and the series norm)
CANDIDATE_BYTES = 2 ** 30
# Strides of the bound levels over the N_SEARCH_GRID time samples: each
# level reads every COARSE[i]-th sample after t = 0 (G(0) = 0) and the last,
# so G(T) alone, then 8 and 63 samples, before the full grid. The maximum on
# a subset of samples bounds G_max from below, so each level's merit bound
# is at least the next one's; a point is dropped when its bound falls below
# the incumbent by more than PRUNE_MARGIN (relative), so rounding in the
# products cannot drop the optimum.
COARSE = (1000, 128, 16)
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
        size = 8 * axis ** (self.L - 1) * (self.L + ncoef + ncoef ** 2 + 1)
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
    """Duration window between the coupling timescale and the memory time.

    The memory time is the shorter of 1/Gamma1 and 1/Gamma2 over the rates
    that are positive; with both zero there is none.
    """
    lo = max(1.0 / p.g, 1.0 / p.kappa)
    rates = [r for r in (p.Gamma1, p.Gamma2) if r > 0]
    if not rates:
        raise ValidationError("Gamma1 = Gamma2 = 0: no memory time bounds the "
                              "default duration range; pass T_range")
    hi = min(1.0 / r for r in rates)
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


def _levels():
    """The sample indices of each bound level of COARSE, coarsest first."""
    n = depletion.N_SEARCH_GRID
    return [np.r_[s:n - 1:s, n - 1] for s in COARSE]


def _products(V):
    """v x v of every row of V, sample-major: (ncoef * ncoef, ncand), C order.

    Built in place through out=, with no contiguous copy of V.T.
    """
    ncand, ncoef = V.shape
    VVt = np.empty((ncoef, ncoef, ncand))
    np.multiply(V.T[:, None], V.T[None], out=VVt)
    return VVt.reshape(ncoef * ncoef, ncand)


def _bound(p: EmitterParams, T, X, VVt, norm):
    """Merit bound of candidates (columns of VVt) at each duration of T.

    X holds some of the time samples, (durations, ncoef^2, samples). The
    product runs sample-major, (durations, samples, candidates), so the max
    over the samples is an elementwise max of contiguous rows.
    """
    G = (X.swapaxes(1, 2) @ VVt).max(axis=1)
    return _merit(p, T, G / (T[:, None] * norm))


def _scan(p: EmitterParams, axes, constrained: bool, best: _Best):
    """Score the grid axes[0] (durations) x axes[1] x ... (ratios).

    One integral matrix X per duration serves every candidate: G = v.X.v
    is the product of X with the outer products v x v. Every point is
    scored one way, by _bound (sample-major, on slices of the (ncoef^2,
    candidates) products or on a copy of the alive columns), in a cascade
    of levels: the samples of COARSE (G(T) alone, then 8 and 63) bound
    each point's merit from above, and the last level, the full 1001-sample
    grid, gives its exact merit. The series rows of each duration are
    built once (depletion.g_rows), in chunks of durations that keep them
    and their build within BLOCK_BYTES; every level and seed reads its X
    from them (g_on_rows). A chunk goes in groups of durations sized by
    the first level; within a group, each level bounds only the points
    still alive after the level before and reads X only at the durations
    that keep one. At each level the point with the best bound is scored
    in full, _bound on its one column (a seed), and points bounded below
    max(incumbent, seeds) are dropped. Every level sizes its duration
    groups and candidate chunks from its own sample count, so no array of
    one step exceeds about BLOCK_BYTES. The last level's seed is the
    group's first maximum in (duration, ratio index) order; it replaces
    the incumbent only when strictly better, so ties keep the earlier one.
    """
    mesh = np.meshgrid(np.ones(1), *axes[1:], indexing="ij")
    free = np.stack([m.ravel() for m in mesh], axis=1)  # (1, ratios...)
    V = slaved_series(free) if constrained else free
    ncand, ncoef = V.shape
    VVt = _products(V)
    norm = series_norm_sq(1.0, V)  # times T: the series norm at duration T
    Ts = np.asarray(axes[0], dtype=float)
    full = slice(None)  # the last level: every sample, with no copy of the table
    levels = _levels() + [full]

    def group(samples):  # durations per step: their X, or all candidates' products
        return max(1, BLOCK_BYTES // (8 * samples * max(ncoef * ncoef, ncand)))

    def chunk(samples, copied):  # candidates per step: products, copied v x v
        return max(1, BLOCK_BYTES // (8 * max(samples, ncoef * ncoef if copied else 1)))

    def matrix(D, cols=full):  # X at durations D, from the chunk's rows
        return depletion.g_on_rows(Gamma, Ts[D], rows[D - start],
                                   P_sum[D - start], cols)

    def bound(cols, D, alive):  # the level's bound on the alive points
        size = depletion.N_SEARCH_GRID if cols is full else cols.size
        per, out = group(size), np.full(alive.shape, -np.inf)
        for g in range(0, D.size, per):
            part = slice(g, g + per)
            Tg = Ts[D[part]]
            X = matrix(D[part], cols)
            keep = np.flatnonzero(alive[part].any(axis=0))
            if cols is full:  # the last level scores these points in full
                best.full_durations += Tg.size
                best.pruned -= Tg.size * keep.size
            whole = keep.size == ncand  # then slices of VVt, with no copy
            step = chunk(size, not whole)
            for c in range(0, keep.size, step):
                k = slice(c, c + step) if whole else keep[c:c + step]
                vvt = VVt[:, k] if whole else np.take(VVt, k, axis=1)
                out[part, k] = _bound(p, Tg, X, vvt, norm[k])
        return np.where(alive, out, -np.inf)

    # durations per chunk of rows: whole first-level groups where one fits
    per = group(levels[0].size)
    fit = max(1, BLOCK_BYTES // (8 * ROW_BUILD * ncoef * ncoef * (4 * ncoef + 3)))
    span = fit // per * per or fit
    for start in range(0, Ts.size, span):
        stop = min(start + span, Ts.size)
        Gamma, rows, P_sum = depletion.g_rows(p, Ts[start:stop], ncoef)
        for j in range(start, stop, per):
            D = np.arange(j, min(j + per, stop))
            alive = np.ones((D.size, ncand), dtype=bool)
            best.evaluations += alive.size
            best.pruned += alive.size
            floor = best.objective  # max(incumbent, seeds)
            for cols in levels:
                b = bound(cols, D, alive)
                alive &= b >= floor * (1.0 - PRUNE_MARGIN)  # a NaN is not
                if not alive.any():
                    break
                t, k = np.unravel_index(np.nanargmax(b), b.shape)  # the seed
                if cols is full:  # exact merits: the seed is the group's best
                    if b[t, k] > best.objective:
                        best.objective, best.T = float(b[t, k]), float(Ts[D[t]])
                        best.ratios, best.coeffs = tuple(free[k, 1:]), tuple(V[k])
                    break
                Dt = D[t:t + 1]
                floor = max(floor, _bound(p, Ts[Dt], matrix(Dt), VVt[:, [k]],
                                          norm[[k]])[0, 0])
                alive &= b >= floor * (1.0 - PRUNE_MARGIN)
                live = alive.any(axis=1)  # durations keeping a point
                D, alive = D[live], alive[live]


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
