"""Command-line interface: bound sweeps, optimization, synthesis, verification.

Subcommands write CSV files for curves and JSON for scalar results. Every
CSV starts with provenance comment lines (package version and the exact
parameter values), and reruns with identical inputs produce byte-identical
files. Exit codes: 0 success, 1 validation error, 2 numeric error,
3 failed self-check.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, depletion, optimize, protocol, verify
from .errors import (DomainError, NumericError, PoleError, RamanPulseError,
                     ValidationError)
from .model import (EmitterParams, RawRates, ghz, params_from_dict,
                    read_json_object)
from .pulse import (CosineSeriesPulse, load_pulse, sin2_pulse, write_csv,
                    write_samples)
from .trajectory import (ClosedFormSolution, InitialState,
                         closed_form_trajectory, drive_omega, max_efficiency)

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


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"wrote {path}")


def _set_params(p: EmitterParams, frac1: float, frac2: float) -> EmitterParams:
    return EmitterParams(g=p.g, kappa=p.kappa, kappa_tilde=p.kappa_tilde,
                         gamma_tilde=p.gamma_tilde,
                         Gamma1=frac1 * p.gamma_tilde,
                         Gamma2=frac2 * p.gamma_tilde, Delta=p.Delta)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    p, raw, data = _load_params(args)
    out = _out_dir(args)
    T_values = np.geomspace(args.T_min, args.T_max, args.T_samples)
    summary = {}
    for frac1, frac2 in DECOHERENCE_SETS:
        ps = _set_params(p, frac1, frac2)
        rows = []
        for T in T_values:
            pl = sin2_pulse(float(T))
            profile = depletion.analytic_profile(p=ps, pulse=pl)
            res = bounds.compute_bounds(ps, profile)
            e_sim = bounds.simplified_bound(profile)
            e_slow = math.sqrt(max(res.E2_slow, 0.0))
            rows.append((
                float(T), res.F_worst,
                bounds.fidelity(e_sim, ps.Gamma2, float(T), 1.0),
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
    _write_json(out / "bound_summary.json", summary)
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
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
    _write_json(out / f"optimize_{tag}.json", payload)
    write_samples(result.pulse, out / f"optimize_{tag}_envelope.csv",
                  header=_provenance(data, f"optimal envelope {tag}"))
    print(f"wrote {out / f'optimize_{tag}_envelope.csv'}")

    E = args.s * result.E_max
    grid = np.linspace(0.0, result.pulse.T, args.samples)
    om = drive_omega(p, result.pulse, E, grid)
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
    p, raw, data = _load_params(args)
    out = _out_dir(args)
    pl = _pulse_from_args(args).normalize()
    init = InitialState(_parse_complex(args.alpha0), _parse_complex(args.beta0))
    E_max = max_efficiency(p, pl)
    E = args.s * E_max
    grid = np.linspace(0.0, pl.T, args.samples)
    traj = closed_form_trajectory(p, pl, E, init, grid)
    if not (traj.drive_valid or traj.drive_irrelevant):
        raise PoleError(
            f"no finite drive at E = {args.s:g} E_max: the ground state "
            "empties at the depletion maximum; use --s below 1")
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
    _write_json(out / "synthesis.json", synthesis)
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
    syn = read_json_object(args.synthesis, "synthesis file")
    missing = [key for key in ("params", "pulse", "efficiency", "alpha0", "beta0")
               if key not in syn]
    if missing:
        raise ValidationError(
            f"synthesis file {args.synthesis} lacks {', '.join(missing)}")
    p, raw = params_from_dict(syn["params"])
    pl = CosineSeriesPulse.from_dict(syn["pulse"]).normalize()
    E = float(syn["efficiency"])
    a0 = _complex_pair(syn["alpha0"], "alpha0")
    b0 = _complex_pair(syn["beta0"], "beta0")
    init = InitialState(a0, b0)
    out = _out_dir(args)

    grid = np.linspace(0.0, pl.T, args.samples)
    traj = closed_form_trajectory(p, pl, E, init, grid)
    cf = ClosedFormSolution(p, pl, E)
    ode = verify.integrate_nonhermitian(p, cf.Omega, init, grid)
    rep = verify.compare(traj, ode)
    F_closed = traj.fidelity(init)
    F_ode = float(abs(np.conj(a0) * ode.lam[-1] + np.conj(b0) * ode.beta[-1]) ** 2)

    report = {
        "F_closed": F_closed,
        "F_ode": F_ode,
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
    _write_json(out / "verify_report.json", report)
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
    p, raw, data = _load_params(args)
    out = _out_dir(args)

    # bound curves per decoherence set
    bound_args = argparse.Namespace(params=args.params, out=str(out / "bounds"),
                                    T_min=0.04, T_max=12.0, T_samples=160)
    cmd_bound(bound_args)

    # integrated depletion curves for a few durations
    dep_dir = out / "depletion"
    dep_dir.mkdir(parents=True, exist_ok=True)
    for frac1, frac2 in DECOHERENCE_SETS:
        ps = _set_params(p, frac1, frac2)
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
            ps = _set_params(p, frac * pattern[0], frac * pattern[1])
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
    shapes_dir = out / "shapes"
    shapes_dir.mkdir(parents=True, exist_ok=True)
    for L in (1, 2, 3):
        for constrained in (False, True):
            cfg = factory(L, constrained=constrained, refine=False)
            res = optimize.optimize_shape(p, cfg)
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
    _write_json(out / "optimized_pulses.json", {"rows": table})

    # drive for the single-term optimum at several efficiency fractions
    best = optimize.optimize_shape(p, factory(1, refine=False))
    drive_path = out / "drive_vs_efficiency.csv"
    grid = np.linspace(0.0, best.pulse.T, 241)
    rows = []
    for s in (float(x) for x in args.s_list.split(",")):
        cf = ClosedFormSolution(p, best.pulse, s * best.E_max)
        om = np.asarray(cf.Omega(grid))
        al = np.abs(np.asarray(cf.alpha(grid)))
        rows += [(f"{s:g}", t, o.real, o.imag, abs(o), a)
                 for t, o, a in zip(grid, om, al)]
    write_csv(drive_path, ("s", "t_ns", "re_Omega", "im_Omega", "abs_Omega",
                           "abs_alpha"), rows,
              _provenance(data, "drive for the optimal single-term pulse"))
    print(f"wrote {drive_path}")

    if args.check:
        return run_checks(p, raw, skip_lindblad=args.skip_lindblad)
    return 0


# ---------------------------------------------------------------------------
# self-checks (the acceptance suite in tests/ is the canonical gate)
# ---------------------------------------------------------------------------

def run_checks(p: EmitterParams, raw: RawRates, skip_lindblad: bool = False) -> int:
    failures = []

    def check(name, ok, detail=""):
        print(f"CHECK {name}: {'PASS' if ok else 'FAIL'} {detail}")
        if not ok:
            failures.append(name)

    r1 = optimize.optimize_shape(p, optimize.full_config(1, refine=False))
    check("table-row L=1 unconstrained",
          abs(r1.E_max - 0.988) <= 1e-3
          and abs(r1.pulse.T - 0.44) <= 0.035
          and abs(r1.pulse.coeffs[0] - 1.23) <= 0.01,
          f"(E_max={r1.E_max:.4f} T={r1.pulse.T:.4f} v1={r1.pulse.coeffs[0]:.4f})")

    p0 = EmitterParams(g=p.g, kappa=p.kappa, kappa_tilde=p.kappa_tilde,
                       gamma_tilde=p.gamma_tilde)
    slow = bounds.slow_pulse_bound(p0)
    prof = depletion.analytic_profile(p0, sin2_pulse(12.0))
    e2 = bounds.e_max(prof) ** 2
    check("slow-pulse asymptote", abs(e2 - slow) / slow <= 0.02,
          f"(E^2={e2:.5f} vs {slow:.5f})")

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        rates = 2 * math.pi * 10 ** rng.uniform(-2.0, 0.5, size=3)
        pr = EmitterParams(g=ghz(rng.uniform(2, 10)), kappa=ghz(rng.uniform(5, 60)),
                           gamma_tilde=rates[0], Gamma1=rates[1], Gamma2=rates[2])
        L = int(rng.integers(1, 4))
        coeffs = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, size=L - 1)])
        pl = CosineSeriesPulse(float(rng.uniform(0.1, 1.5)), tuple(coeffs)).normalize()
        ts = np.array([0.3, 0.7, 1.0]) * pl.T
        ana = depletion.integrated_depletion_analytic(pr, pl, ts)
        num = depletion.integrated_depletion_numeric(pr, pl.envelope(), ts,
                                                     refine_max=False)
        worst = max(worst, float(np.max(np.abs(ana - num.G)
                                        / np.maximum(np.abs(num.G), 1e-12))))
    check("analytic vs quadrature G", worst <= 1e-6, f"(worst rel dev {worst:.2e})")

    pl = r1.pulse
    E = 0.99 * r1.E_max
    init = InitialState(alpha0=math.sqrt(0.5), beta0=math.sqrt(0.5))
    grid = np.linspace(0.0, pl.T, 201)
    traj = closed_form_trajectory(p, pl, E, init, grid)
    cf = ClosedFormSolution(p, pl, E)
    ode = verify.integrate_nonhermitian(p, cf.Omega, init, grid)
    rep = verify.compare(traj, ode)
    check("synthesis closure", rep.passed,
          f"(max dev {max(rep.max_dev.values()):.2e})")

    phi = depletion.phase_evolution(p, pl.envelope(), E, grid)
    check("resonant phase", float(np.max(np.abs(phi))) <= 1e-10,
          f"(max |phi| {np.max(np.abs(phi)):.2e})")

    rng = np.random.default_rng(11)
    a = rng.random(100_000)
    mc = float(np.mean([bounds.fidelity(0.9, p.Gamma2, pl.T, x) for x in a]))
    check("Bloch average", abs(mc - bounds.avg_fidelity(0.9, p.Gamma2, pl.T)) <= 1e-3,
          f"(MC dev {abs(mc - bounds.avg_fidelity(0.9, p.Gamma2, pl.T)):.2e})")

    ok = True
    for which in protocol.PROTOCOLS:
        res = protocol.run_protocol(which, 0.6, 0.8, 1.0)
        ok = ok and abs(res.fidelity - 1.0) <= 1e-12
    check("protocol exactness", ok)

    if not skip_lindblad:
        lres = verify.lindblad_simulate(raw, p, pl, cf.Omega,
                                        InitialState(1.0, 0.0))
        formula = bounds.fidelity(E, p.Gamma2, pl.T, 1.0)
        dev = abs(lres.fidelity_coherent - formula)
        check("lindblad coherent-branch formula agreement (1e-3)", dev <= 1e-3,
              f"(dev {dev:.2e})")
        excess = lres.fidelity - bounds.fidelity(r1.E_max, p.Gamma2, pl.T, 1.0)
        check("lindblad total within bound (1e-3)", excess <= 1e-3,
              f"(excess {excess:+.2e}, recycled "
              f"{lres.fidelity - lres.fidelity_coherent:+.2e})")

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}")
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
