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
from .errors import ValidationError
from .model import EmitterParams
from .pulse import CosineSeriesPulse


@dataclass(frozen=True)
class OptimizationConfig:
    """Grid specification for the shape search.

    L counts the free shape parameters (the duration plus L - 1 coefficient
    ratios). In constrained mode the free coefficients are the odd ones and
    the even ones are slaved to keep the drive activation smooth.
    """

    L: int = 1
    constrained: bool = False
    T_range: tuple | None = None
    T_samples: int = 500
    ratio_range: tuple = (-1.0, 1.0)
    ratio_samples: int = 201
    refine: bool = True
    refine_samples: int = 21
    n_search_grid: int = 1001
    max_candidates: int | None = None

    def __post_init__(self):
        if self.L < 1:
            raise ValidationError("series order L must be >= 1")
        if self.T_samples < 2 or self.ratio_samples < 2:
            raise ValidationError("need at least 2 samples per grid axis")
        if self.T_range is not None and self.T_range[0] <= 0:
            raise ValidationError("durations must be positive")
        if not -1.0 <= self.ratio_range[0] < self.ratio_range[1] <= 1.0:
            raise ValidationError("ratio_range must be an interval inside [-1, 1]")


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


def _candidate_matrix(ratio_axes, constrained: bool) -> np.ndarray:
    """All coefficient vectors of the grid, lexicographic in the ratios."""
    if ratio_axes:
        mesh = np.meshgrid(*ratio_axes, indexing="ij")
        ratios = np.stack([m.reshape(-1) for m in mesh], axis=1)
    else:
        ratios = np.zeros((1, 0))
    ncand = ratios.shape[0]
    if not constrained:
        return np.hstack([np.ones((ncand, 1)), ratios])
    n_odd = 1 + ratios.shape[1]
    V = np.empty((ncand, 2 * n_odd))
    odd = np.hstack([np.ones((ncand, 1)), ratios])
    for k in range(1, n_odd + 1):
        slave = ((2 * k - 1) / (2 * k)) ** 2
        V[:, 2 * k - 2] = odd[:, k - 1]
        V[:, 2 * k - 1] = -slave * odd[:, k - 1]
    return V


def objective(p: EmitterParams, pulse: CosineSeriesPulse) -> float:
    """1 / (exp(Gamma2 T) max_t G(t)) for the normalized pulse.

    Equals the worst-case fidelity at the efficiency bound. Invariant under
    rescaling of the coefficients since normalization happens here.
    """
    pn = pulse.normalize()
    profile = depletion.analytic_profile(p, pn)
    return 1.0 / (math.exp(p.Gamma2 * pn.T) * profile.G_max)


def _scan(p: EmitterParams, T_values, ratio_axes, constrained: bool,
          n_grid: int, max_candidates: int | None, state: dict):
    """Batched grid scan; updates the running best in `state`."""
    V = _candidate_matrix(ratio_axes, constrained)
    ncand, ncoef = V.shape
    sums = V.sum(axis=1)
    squares = (V ** 2).sum(axis=1)
    tau = np.linspace(0.0, 1.0, n_grid)
    path = None  # every duration has the same shapes: one contraction path
    for T in T_values:
        if (max_candidates is not None
                and state["evaluations"] + ncand > max_candidates):
            state["partial"] = True
            return
        X = depletion.g_matrix(p, T, ncoef, tau * T)
        if path is None:
            path = np.einsum_path("tnm,cn,cm->ct", X, V, V, optimize=True)[0]
        raw_G = np.einsum("tnm,cn,cm->ct", X, V, V, optimize=path)
        norms = T * (sums ** 2 + 0.5 * squares)
        gmax = raw_G.max(axis=1) / norms
        obj = 1.0 / (np.exp(p.Gamma2 * T) * gmax)
        state["evaluations"] += ncand
        i = int(np.argmax(obj))
        if obj[i] > state["best_obj"]:
            state["best_obj"] = float(obj[i])
            state["best_T"] = float(T)
            state["best_coeffs"] = tuple(V[i])
            state["best_ratios"] = tuple(
                ax_val for ax_val in (V[i][1:1 + len(ratio_axes)]
                                      if not constrained else
                                      V[i][2:2 * len(ratio_axes) + 1:2]))


def _bracket(values: np.ndarray, x: float) -> tuple:
    """Neighbors of x within a sorted axis, for the local refinement box."""
    i = int(np.argmin(np.abs(values - x)))
    lo = values[max(i - 1, 0)]
    hi = values[min(i + 1, len(values) - 1)]
    if lo == hi:
        pad = 0.5 * abs(lo) if lo != 0 else 0.5
        lo, hi = lo - pad, hi + pad
    return float(lo), float(hi)


def optimize_shape(p: EmitterParams, cfg: OptimizationConfig) -> OptimizationResult:
    """Exhaustive grid search over duration and coefficient ratios.

    Ratios run over cfg.ratio_range with the endpoints and zero on the
    grid exactly, so each search space nests inside the next order and the
    best objective can only improve with L. An optional refinement pass
    rescans a local box between the grid neighbors of the optimum.
    """
    T_range = cfg.T_range if cfg.T_range is not None else default_T_range(p)
    T_values = np.linspace(T_range[0], T_range[1], cfg.T_samples)
    n_ratios = cfg.L - 1
    ratio_axis = np.linspace(cfg.ratio_range[0], cfg.ratio_range[1],
                             cfg.ratio_samples)
    if cfg.ratio_samples % 2 == 1 and cfg.ratio_range == (-1.0, 1.0):
        ratio_axis[cfg.ratio_samples // 2] = 0.0  # exact zero for nesting
    ratio_axes = [ratio_axis] * n_ratios

    state = {"best_obj": -np.inf, "best_T": None, "best_coeffs": None,
             "best_ratios": (), "evaluations": 0, "partial": False}
    _scan(p, T_values, ratio_axes, cfg.constrained, cfg.n_search_grid,
          cfg.max_candidates, state)
    if state["best_T"] is None:
        raise ValidationError("candidate budget too small for a single duration")
    trace = [{"stage": "grid", "T": state["best_T"],
              "ratios": list(state["best_ratios"]),
              "objective": state["best_obj"],
              "evaluations": state["evaluations"]}]

    if cfg.refine and not state["partial"]:
        t_lo, t_hi = _bracket(T_values, state["best_T"])
        T_fine = np.linspace(t_lo, t_hi, cfg.refine_samples)
        fine_axes = []
        for r in state["best_ratios"]:
            r_lo, r_hi = _bracket(ratio_axis, r)
            fine_axes.append(np.linspace(r_lo, r_hi, cfg.refine_samples))
        _scan(p, T_fine, fine_axes, cfg.constrained, cfg.n_search_grid,
              cfg.max_candidates, state)
        trace.append({"stage": "refine", "T": state["best_T"],
                      "ratios": list(state["best_ratios"]),
                      "objective": state["best_obj"],
                      "evaluations": state["evaluations"]})

    best = CosineSeriesPulse(state["best_T"], state["best_coeffs"]).normalize()
    return _finalize(p, best, cfg, trace, state)


def _finalize(p, best_pulse, cfg, trace, state) -> OptimizationResult:
    profile = depletion.analytic_profile(p, best_pulse)
    res = bounds.compute_bounds(p, profile)
    obj = 1.0 / (math.exp(p.Gamma2 * best_pulse.T) * profile.G_max)
    provenance = {
        "config": {
            "L": cfg.L, "constrained": cfg.constrained,
            "T_samples": cfg.T_samples, "ratio_samples": cfg.ratio_samples,
            "T_range": list(cfg.T_range) if cfg.T_range else None,
            "refine": cfg.refine,
        },
        "trace": trace,
        "evaluations": state["evaluations"],
        "partial": state["partial"],
    }
    return OptimizationResult(pulse=best_pulse, E_max=res.E_max,
                              F_worst=res.F_worst, F_avg=res.F_avg,
                              objective_value=obj, provenance=provenance)


def optimize_duration(p: EmitterParams, ratios=(), constrained: bool = False,
                      T_lo: float | None = None, T_hi: float | None = None,
                      samples: int = 200, spacing: str = "linear",
                      refine: bool = True) -> OptimizationResult:
    """Two-stage duration optimization at a fixed shape.

    Stage one scans `samples` durations across the window between the
    coupling timescale and the memory time; stage two rescans the same
    number of points between the grid neighbors of the stage-one optimum,
    which keeps grid artifacts below one fine step even for slow
    decoherence. The default shape is the single-term pulse.
    """
    if T_lo is None or T_hi is None:
        d_lo, d_hi = default_T_range(p)
        T_lo = d_lo if T_lo is None else T_lo
        T_hi = d_hi if T_hi is None else T_hi
    if T_lo <= 0 or T_hi <= T_lo:
        raise ValidationError("need 0 < T_lo < T_hi")
    if spacing == "linear":
        stage1 = np.linspace(T_lo, T_hi, samples)
    elif spacing == "log":
        stage1 = np.geomspace(T_lo, T_hi, samples)
    else:
        raise ValidationError("spacing must be 'linear' or 'log'")

    ratio_axes = [np.array([r]) for r in ratios]
    cfg = OptimizationConfig(L=1 + len(ratios), constrained=constrained,
                             T_range=(T_lo, T_hi), T_samples=samples,
                             refine=refine)
    state = {"best_obj": -np.inf, "best_T": None, "best_coeffs": None,
             "best_ratios": (), "evaluations": 0, "partial": False}
    _scan(p, stage1, ratio_axes, constrained, cfg.n_search_grid, None, state)
    trace = [{"stage": "coarse", "T": state["best_T"],
              "objective": state["best_obj"]}]
    if refine:
        i = int(np.argmin(np.abs(stage1 - state["best_T"])))
        lo = stage1[max(i - 1, 0)]
        hi = stage1[min(i + 1, samples - 1)]
        stage2 = np.linspace(lo, hi, samples)
        _scan(p, stage2, ratio_axes, constrained, cfg.n_search_grid, None, state)
        trace.append({"stage": "fine", "T": state["best_T"],
                      "objective": state["best_obj"]})
    best = CosineSeriesPulse(state["best_T"], state["best_coeffs"]).normalize()
    return _finalize(p, best, cfg, trace, state)
