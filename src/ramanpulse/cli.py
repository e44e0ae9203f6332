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
from .errors import (DomainError, NumericError, RamanPulseError,
                     ValidationError, finite)
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
        rows = []
        # one g_max search over the sin^2 pulses (v1 as in sin2_pulse) of all
        # durations; the bounds read G at the end T, where d = 0
        for T, G_max, argmax_t, G_end in zip(T_values, *depletion.g_max(
                ps, T_values, np.sqrt(2.0 / (3.0 * T_values))[:, None])):
            profile = depletion.DepletionProfile(
                grid=np.array([T]), d=np.zeros(1), G=np.array([G_end]),
                G_max=float(G_max), argmax_t=float(argmax_t))
            res = bounds.compute_bounds(ps, profile)
            e_sim = bounds.simplified_bound(profile)
            e_slow = math.sqrt(max(res.E2_slow, 0.0))
            rows.append((
                float(T), res.F_worst, res.F_simplified,
                bounds.fidelity(e_slow, ps.Gamma2, float(T), 1.0),
                res.F_avg,
                bounds.avg_fidelity(e_sim, ps.Gamma2, float(T)),
                bounds.avg_fidelity(e_slow, ps.Gamma2, float(T)),
            ))
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
    p, raw, data = _load_params(args)
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
    p, raw, data = _load_params(args)
    out = _out_dir(args)
    pl = _pulse_from_args(args).normalize()
    init = InitialState(_parse_complex(args.alpha0), _parse_complex(args.beta0))
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
    E = float(syn["efficiency"])
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
    write_json(out / "verify_report.json", report)
    print(f"wrote {out / 'verify_report.json'}")
    print(json.dumps(report, indent=2, sort_keys=True, default=float))
    return 0


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------

def cmd_protocol(args) -> int:
    out = _out_dir(args)
    res = protocol.run_protocol(args.which, _parse_complex(args.alpha0),
                                _parse_complex(args.beta0), args.E)
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
    p, raw, data = _load_params(args)
    out = _out_dir(args)

    # bound curves per decoherence set
    _bound_curves(p, data, out / "bounds", np.geomspace(0.04, 12.0, 160))

    # integrated depletion curves for a few durations
    dep_dir = out / "depletion"
    dep_dir.mkdir(parents=True, exist_ok=True)
    for frac1, frac2 in DECOHERENCE_SETS:
        ps = dataclasses.replace(p, Gamma1=frac1 * p.gamma_tilde,
                                 Gamma2=frac2 * p.gamma_tilde)
        name = dep_dir / f"depletion_G1_{frac1:g}_G2_{frac2:g}.csv"
        rows = []
        for T in (0.1, 0.25, 0.44, 1.0, 3.0):
            profile = depletion.analytic_profile(
                ps, sin2_pulse(T), grid=np.linspace(0.0, T, 121))
            rows += [(T, t, d, g_val, math.exp(ps.Gamma2 * t) * g_val)
                     for t, d, g_val in zip(profile.grid, profile.d, profile.G)]
        write_csv(name, ("T_ns", "t_ns", "d_per_ns", "G", "G_weighted"), rows,
                  _provenance(data, f"(Gamma1,Gamma2)/gamma_tilde=({frac1:g},{frac2:g})"))
        print(f"wrote {name}")

    # optimal duration versus ground-state decoherence
    dur_path = out / "optimal_duration.csv"
    rows = []
    for sweep, pattern in (("Gamma1", (1, 0)), ("Gamma2", (0, 1)),
                           ("both", (1, 1))):
        for frac in np.geomspace(0.01, 0.5, 9):
            ps = dataclasses.replace(p, Gamma1=frac * pattern[0] * p.gamma_tilde,
                                     Gamma2=frac * pattern[1] * p.gamma_tilde)
            try:
                res = optimize.optimize_duration(
                    ps, T_lo=max(1.0 / p.g, 1.0 / p.kappa),
                    T_hi=min(20.0, 1.0 / max(ps.Gamma1, ps.Gamma2)))
            except ValidationError:
                continue
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
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except RamanPulseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
