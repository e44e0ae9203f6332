"""Command-line interface: bound sweeps, optimization, synthesis, verification.

Subcommands write CSV files for curves and JSON for scalar results. Every
CSV starts with provenance comment lines (package version and the exact
parameter values), and reruns with identical inputs produce byte-identical
files. Exit codes: 0 success, 1 validation error, 2 numeric error,
3 failed self-check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, checks, depletion, optimize, protocol, verify
from .errors import NumericError, RamanPulseError, ValidationError, finite
from .model import EmitterParams, RawRates, params_from_dict, read_json_object
from .pulse import (CosineSeriesPulse, load_pulse, sin2_pulse, write_csv,
                    write_json, write_samples)
from .trajectory import ClosedFormSolution, InitialState, max_efficiency

# Cavity-QED numbers typical of solid-state defect emitters in a one-sided
# cavity, with equal ground-state decoherence at a tenth of the optical
# linewidth. Override with --params.
DEFAULT_PARAMS = {
    "g_GHz": 6.0,
    "kappa_GHz": 30.0,
    "gamma_GHz": 0.1,
    "gamma_1to0_GHz": 0.01,
    "gamma_0to1_GHz": 0.01,
}

# (Gamma1, Gamma2) as fractions of gamma_tilde for the bound sweeps
DECOHERENCE_SETS = ((0.0, 0.0), (0.01, 0.005), (0.0, 0.1), (0.1, 0.0),
                    (0.2, 0.0), (0.1, 0.1))


def _load_params(args) -> tuple[EmitterParams, RawRates, dict]:
    if getattr(args, "params", None):
        data = read_json_object(args.params, "parameter file")
    else:
        data = dict(DEFAULT_PARAMS)
    p, raw = params_from_dict(data)
    return p, raw, data


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(data: dict, extra: str = "") -> str:
    pieces = [f"ramanpulse {__version__}"]
    pieces.append("params " + json.dumps(data, sort_keys=True))
    if extra:
        pieces.append(extra)
    return "; ".join(pieces)


def _check_samples(n: int, flag: str = "--samples"):
    if n < 2:
        raise ValidationError(f"{flag} must be at least 2, got {n}")


def _check_s(s: float, flag: str = "--s"):
    if not 0.0 <= s < 1.0:  # NaN fails too; s >= 1 always meets the pole
        raise ValidationError(f"{flag} must be finite with 0 <= s < 1, got {s}")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def _bound_curves(p: EmitterParams, data: dict, out: Path, T_values):
    """One CSV of bound curves per decoherence set, and their optima."""
    out.mkdir(parents=True, exist_ok=True)
    summary = {}
    for frac1, frac2 in DECOHERENCE_SETS:
        ps = dataclasses.replace(p, Gamma1=frac1 * p.gamma_tilde,
                                 Gamma2=frac2 * p.gamma_tilde)
        # one g_max search over the sin^2 pulses (v1 as in sin2_pulse) of all
        # durations; per row the fidelities of E_max = 1/sqrt(G_max), of the
        # simplified bound 1/sqrt(G(T)) (d = 0 at T) and of the slow-pulse bound
        G_max, _, G_end = depletion.g_max(
            ps, T_values, np.sqrt(2.0 / (3.0 * T_values))[:, None])
        e_slow = math.sqrt(max(bounds.slow_pulse_bound(ps), 0.0))
        rows = []
        for T, Gm, Ge in zip(T_values.tolist(), G_max.tolist(), G_end.tolist()):
            es = (1.0 / math.sqrt(Gm), 1.0 / math.sqrt(Ge), e_slow)
            rows.append((T, *(bounds.fidelity(e, ps.Gamma2, T, 1.0) for e in es),
                         *(bounds.avg_fidelity(e, ps.Gamma2, T) for e in es)))
        arr = np.array(rows)
        i_worst = int(np.argmax(arr[:, 1]))
        i_avg = int(np.argmax(arr[:, 4]))
        name = f"bound_G1_{frac1:g}_G2_{frac2:g}.csv"
        write_csv(out / name,
                  ("T_ns", "F_worst_exact", "F_worst_simplified", "F_worst_slow",
                   "F_avg_exact", "F_avg_simplified", "F_avg_slow",
                   "f_worst_peak", "f_avg_peak"),
                  ((*row, int(k == i_worst), int(k == i_avg))
                   for k, row in enumerate(rows)),
                  _provenance(data, f"(Gamma1,Gamma2)/gamma_tilde=({frac1:g},{frac2:g})"))
        print(f"wrote {out / name}")
        summary[f"({frac1:g},{frac2:g})"] = {
            "T_opt_worst_ns": float(arr[i_worst, 0]),
            "F_worst_at_opt": float(arr[i_worst, 1]),
            "T_opt_avg_ns": float(arr[i_avg, 0]),
            "F_avg_at_opt": float(arr[i_avg, 4]),
        }
    write_json(out / "bound_summary.json", summary)
    print(f"wrote {out / 'bound_summary.json'}")


def _depletion_curves(p: EmitterParams, data: dict, out: Path):
    """One CSV per decoherence set of G and d of a few sin^2 pulses (series_g)."""
    out.mkdir(parents=True, exist_ok=True)
    for frac1, frac2 in DECOHERENCE_SETS:
        ps = dataclasses.replace(p, Gamma1=frac1 * p.gamma_tilde,
                                 Gamma2=frac2 * p.gamma_tilde)
        name = out / f"depletion_G1_{frac1:g}_G2_{frac2:g}.csv"
        rows = []
        for T in (0.1, 0.25, 0.44, 1.0, 3.0):
            jet, d = depletion.series_g(ps, sin2_pulse(T))
            grid = np.linspace(0.0, T, 121)
            rows += [(T, t, d_val, g_val, math.exp(ps.Gamma2 * t) * g_val)
                     for t, d_val, g_val in zip(grid, d(grid), jet(grid)[3])]
        write_csv(name, ("T_ns", "t_ns", "d_per_ns", "G", "G_weighted"), rows,
                  _provenance(data, f"(Gamma1,Gamma2)/gamma_tilde=({frac1:g},{frac2:g})"))
        print(f"wrote {name}")


def cmd_bound(args) -> int:
    if not (math.isfinite(args.T_min) and math.isfinite(args.T_max)
            and 0.0 < args.T_min < args.T_max):
        raise ValidationError(
            "--T-min and --T-max must be finite with 0 < T-min < T-max, got "
            f"{args.T_min:g} and {args.T_max:g}")
    _check_samples(args.T_samples, "--T-samples")
    p, raw, data = _load_params(args)
    _bound_curves(p, data, _out_dir(args),
                  np.geomspace(args.T_min, args.T_max, args.T_samples))
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    _check_samples(args.samples)
    _check_s(args.s)
    p, raw, data = _load_params(args)
    optimize.default_T_range(p)  # no window: refused before any file is written
    out = _out_dir(args)
    factory = optimize.full_config if args.grid == "full" else optimize.desk_config
    cfg = factory(args.L, constrained=args.constrained, refine=args.refine)
    result = optimize.optimize_shape(p, cfg)
    tag = f"L{args.L}_{'con' if args.constrained else 'unc'}"

    payload = {
        "pulse": result.pulse.to_dict(),
        "E_max": result.E_max,
        "F_worst": result.F_worst,
        "F_avg": result.F_avg,
        "objective": result.objective_value,
        "provenance": result.provenance,
    }
    write_json(out / f"optimize_{tag}.json", payload)
    print(f"wrote {out / f'optimize_{tag}.json'}")
    write_samples(result.pulse, out / f"optimize_{tag}_envelope.csv",
                  header=_provenance(data, f"optimal envelope {tag}"))
    print(f"wrote {out / f'optimize_{tag}_envelope.csv'}")

    E = args.s * result.E_max
    grid = np.linspace(0.0, result.pulse.T, args.samples)
    om = ClosedFormSolution(p, result.pulse, E).Omega(grid)
    drive_path = out / f"optimize_{tag}_drive.csv"
    write_csv(drive_path, ("t_ns", "re_Omega", "im_Omega", "abs_Omega"),
              ((t, o.real, o.imag, abs(o)) for t, o in zip(grid, om)),
              _provenance(data, f"drive at E={E:.8g} (s={args.s:g})"))
    print(f"wrote {drive_path}")
    print(f"optimum {tag}: T={result.pulse.T:.4f} ns, E_max={result.E_max:.4f}, "
          f"F_worst={result.F_worst:.4f}")
    return 0


# ---------------------------------------------------------------------------
# trajectory
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise ValidationError(f"cannot parse complex number {text!r}") from exc


def _pulse_from_args(args) -> CosineSeriesPulse:
    if args.pulse:
        return load_pulse(args.pulse)
    return sin2_pulse(args.pulse_T)


def cmd_trajectory(args) -> int:
    _check_samples(args.samples)
    _check_s(args.s)
    p, raw, data = _load_params(args)
    pl = _pulse_from_args(args).normalize()
    init = InitialState(_parse_complex(args.alpha0), _parse_complex(args.beta0))
    out = _out_dir(args)
    E_max = max_efficiency(p, pl)
    E = args.s * E_max
    grid = np.linspace(0.0, pl.T, args.samples)
    traj = ClosedFormSolution(p, pl, E).trajectory(init, grid)
    traj.to_csv(out / "trajectory.csv",
                header=_provenance(data, f"E={E:.8g} alpha0={args.alpha0} beta0={args.beta0}"))
    print(f"wrote {out / 'trajectory.csv'}")
    synthesis = {
        "params": data,
        "pulse": pl.to_dict(),
        "efficiency_fraction": args.s,
        "efficiency": E,
        "E_max": E_max,
        "alpha0": [init.alpha0.real, init.alpha0.imag],
        "beta0": [init.beta0.real, init.beta0.imag],
    }
    write_json(out / "synthesis.json", synthesis)
    print(f"wrote {out / 'synthesis.json'}")
    print(f"F(closed form) = {traj.fidelity(init):.6f}, p_e(T) = {traj.p_e[-1]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _complex_pair(value, name: str) -> complex:
    """A complex number stored as a [re, im] list of two numbers."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in value)):
        raise ValidationError(
            f"synthesis {name} must be a [re, im] pair of numbers, got {value!r}")
    return complex(*value)


def cmd_verify(args) -> int:
    _check_samples(args.samples)
    syn = read_json_object(args.synthesis, "synthesis file")
    missing = [key for key in ("params", "pulse", "efficiency", "alpha0", "beta0")
               if key not in syn]
    if missing:
        raise ValidationError(
            f"synthesis file {args.synthesis} lacks {', '.join(missing)}")
    p, raw = params_from_dict(syn["params"])
    pl = CosineSeriesPulse.from_dict(syn["pulse"]).normalize()
    E = finite(syn["efficiency"], "synthesis efficiency")
    init = InitialState(_complex_pair(syn["alpha0"], "alpha0"),
                        _complex_pair(syn["beta0"], "beta0"))
    out = _out_dir(args)

    grid = np.linspace(0.0, pl.T, args.samples)
    cf = ClosedFormSolution(p, pl, E)
    traj = cf.trajectory(init, grid)
    ode = verify.integrate_nonhermitian(p, cf.Omega, init, grid)
    rep = verify.compare(traj, ode)

    report = {
        "F_closed": traj.fidelity(init),
        "F_ode": ode.fidelity(init),
        "p_e": float(traj.p_e[-1]),
        "max_amp_dev": rep.max_dev,
        "amplitudes_match": rep.passed,
    }
    if not args.skip_lindblad:
        lres = verify.lindblad_simulate(raw, p, pl, cf.Omega, init)
        report["F_lindblad"] = lres.fidelity
        report["F_lindblad_coherent"] = lres.fidelity_coherent
        report["lindblad_trace_drift"] = lres.trace_drift
        report["lindblad_marker_max"] = lres.marker_max
        (report["F_lindblad_bloch_avg"],
         report["F_lindblad_coherent_bloch_avg"]) = verify.lindblad_bloch_average(
            raw, p, pl, cf.Omega)
    write_json(out / "verify_report.json", report)
    print(f"wrote {out / 'verify_report.json'}")
    print(json.dumps(report, indent=2, sort_keys=True, default=float))
    return 0


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    res = protocol.run_protocol(args.which, _parse_complex(args.alpha0),
                                _parse_complex(args.beta0), args.E)
    out = _out_dir(args)
    protocol.write_result(res, out / f"protocol_{args.which}.json")
    print(f"wrote {out / f'protocol_{args.which}.json'}")
    print(f"{args.which}: fidelity vs ideal target = {res.fidelity:.12f}, "
          f"norm = {res.norm:.12f}")
    return 0


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def cmd_figures(args) -> int:
    s_list = [finite(x, "--s-list entry") for x in args.s_list.split(",")]
    for s in s_list:
        _check_s(s, "--s-list")
    p, raw, data = _load_params(args)
    T_lo = optimize.default_T_range(p)[0]  # no window: refused before any file
    out = _out_dir(args)

    # bound curves per decoherence set
    _bound_curves(p, data, out / "bounds", np.geomspace(0.04, 12.0, 160))

    _depletion_curves(p, data, out / "depletion")

    # optimal duration versus ground-state decoherence
    dur_path = out / "optimal_duration.csv"
    rows = []
    for sweep, pattern in (("Gamma1", (1, 0)), ("Gamma2", (0, 1)),
                           ("both", (1, 1))):
        for frac in np.geomspace(0.01, 0.5, 9):
            ps = dataclasses.replace(p, Gamma1=frac * pattern[0] * p.gamma_tilde,
                                     Gamma2=frac * pattern[1] * p.gamma_tilde)
            rate = max(ps.Gamma1, ps.Gamma2)  # 0 for an emitter with gamma_tilde = 0
            T_hi = min(20.0, 1.0 / rate) if rate > 0 else 20.0
            if not T_lo < T_hi:
                print(f"skipped {sweep} sweep point Gamma1 = {ps.Gamma1:.6g}, Gamma2 = "
                      f"{ps.Gamma2:.6g} rad/ns: no duration window, the memory time "
                      f"{T_hi:.6g} ns (at most 20) is not above the coupling time "
                      f"{T_lo:.6g} ns", file=sys.stderr)
                continue
            res = optimize.optimize_duration(ps, T_lo=T_lo, T_hi=T_hi)
            rows.append((sweep, ps.Gamma1, ps.Gamma2, res.pulse.T, res.F_worst,
                         res.E_max))
    write_csv(dur_path, ("sweep", "Gamma1_rad_ns", "Gamma2_rad_ns", "T_opt_ns",
                         "F_worst", "E_max"), rows,
              _provenance(data, "duration optimization per decoherence"))
    print(f"wrote {dur_path}")

    # shape optimization table and optimal envelopes / drives
    factory = optimize.full_config if args.grid == "full" else optimize.desk_config
    table = []
    best = None  # the unconstrained L=1 optimum, for the drive below
    shapes_dir = out / "shapes"
    shapes_dir.mkdir(parents=True, exist_ok=True)
    for L in (1, 2, 3):
        for constrained in (False, True):
            cfg = factory(L, constrained=constrained, refine=False)
            res = optimize.optimize_shape(p, cfg)
            if (L, constrained) == (1, False):
                best = res
            tag = f"L{L}_{'con' if constrained else 'unc'}"
            table.append({
                "L": L, "constrained": constrained,
                "E_max": res.E_max, "T_ns": res.pulse.T,
                "coeffs": list(res.pulse.coeffs),
                "F_worst": res.F_worst, "F_avg": res.F_avg,
            })
            write_samples(res.pulse, shapes_dir / f"envelope_{tag}.csv",
                          header=_provenance(data, f"optimal envelope {tag}"))
            print(f"wrote {shapes_dir / f'envelope_{tag}.csv'}")
    write_json(out / "optimized_pulses.json", {"rows": table})
    print(f"wrote {out / 'optimized_pulses.json'}")

    # drive for the single-term optimum at several efficiency fractions
    drive_path = out / "drive_vs_efficiency.csv"
    grid = np.linspace(0.0, best.pulse.T, 241)
    rows = []
    for s in s_list:
        traj = ClosedFormSolution(p, best.pulse, s * best.E_max).trajectory(
            InitialState(1.0), grid)
        rows += [(f"{s:g}", t, o.real, o.imag, abs(o), abs(a))
                 for t, o, a in zip(grid, traj.Omega, traj.alpha)]
    write_csv(drive_path, ("s", "t_ns", "re_Omega", "im_Omega", "abs_Omega",
                           "abs_alpha"), rows,
              _provenance(data, "drive for the optimal single-term pulse"))
    print(f"wrote {drive_path}")

    if args.check:
        return run_checks(p, raw, skip_lindblad=args.skip_lindblad)
    return 0


# ---------------------------------------------------------------------------
# self-checks: the acceptance criteria of ramanpulse.checks
# ---------------------------------------------------------------------------

def run_checks(p: EmitterParams, raw: RawRates, skip_lindblad: bool = False) -> int:
    records = checks.run(p, raw, skip_lindblad)
    for record in records:
        print(f"CHECK {record}")
    failed = [record.name for record in records if not record.passed]
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}")
        return 3
    print("all checks passed")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramanpulse",
        description="Fidelity bounds and pulse synthesis for cavity-assisted "
                    "Raman emission of flying qubits")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--params", help="JSON parameter file (GHz notation)")
        sp.add_argument("--out", default="out", help="output directory")

    sp = sub.add_parser("bound", help="fidelity bounds versus pulse duration")
    common(sp)
    sp.add_argument("--T-min", type=float, default=0.04)
    sp.add_argument("--T-max", type=float, default=12.0)
    sp.add_argument("--T-samples", type=int, default=200)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("optimize", help="grid-optimize the photon envelope")
    common(sp)
    sp.add_argument("--L", type=int, default=1)
    sp.add_argument("--constrained", action="store_true",
                    help="enforce a smooth drive activation, f''(0) = 0")
    sp.add_argument("--grid", choices=("full", "desk"), default="desk")
    sp.add_argument("--no-refine", dest="refine", action="store_false")
    sp.add_argument("--s", type=float, default=0.99,
                    help="target efficiency as a fraction of the bound")
    sp.add_argument("--samples", type=int, default=401)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("trajectory", help="closed-form amplitudes and drive")
    common(sp)
    sp.add_argument("--pulse", help="pulse JSON file")
    sp.add_argument("--pulse-T", type=float, default=0.44,
                    help="duration of the default single-term pulse")
    sp.add_argument("--s", type=float, default=0.99)
    sp.add_argument("--alpha0", default="0.7071067811865476")
    sp.add_argument("--beta0", default="0.7071067811865476")
    sp.add_argument("--samples", type=int, default=801)
    sp.set_defaults(func=cmd_trajectory)

    sp = sub.add_parser("verify", help="check a synthesis against the oracles")
    sp.add_argument("--synthesis", required=True,
                    help="synthesis JSON written by the trajectory subcommand")
    sp.add_argument("--out", default="out")
    sp.add_argument("--samples", type=int, default=401)
    sp.add_argument("--skip-lindblad", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("protocol", help="replay an emission circuit")
    sp.add_argument("--which", required=True, choices=protocol.PROTOCOLS)
    sp.add_argument("--alpha0", default="0.6")
    sp.add_argument("--beta0", default="0.8")
    sp.add_argument("--E", type=float, default=1.0)
    sp.add_argument("--out", default="out")
    sp.set_defaults(func=cmd_protocol)

    sp = sub.add_parser("figures", help="regenerate every CSV data set")
    common(sp)
    sp.add_argument("--grid", choices=("full", "desk"), default="desk")
    sp.add_argument("--s-list", default="0.9,0.99,0.999")
    sp.add_argument("--check", action="store_true",
                    help="run the self-checks and exit nonzero on failure")
    sp.add_argument("--skip-lindblad", action="store_true")
    sp.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except RamanPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
