import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ramanpulse import ValidationError, bounds, checks, cli, depletion, optimize
from ramanpulse.cli import DECOHERENCE_SETS, DEFAULT_PARAMS, main, run_checks
from ramanpulse.model import params_from_dict
from ramanpulse.pulse import sin2_pulse
from ramanpulse.trajectory import ClosedFormSolution, max_efficiency


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_trajectory_then_verify(tmp_path):
    out = tmp_path / "run"
    rc = main(["trajectory", "--out", str(out), "--alpha0", "0.6",
               "--beta0", "0.8", "--samples", "101"])
    assert rc == 0
    assert (out / "trajectory.csv").exists()
    syn = out / "synthesis.json"
    data = json.loads(syn.read_text())
    assert data["efficiency"] < data["E_max"]

    rc = main(["verify", "--synthesis", str(syn), "--out", str(out),
               "--samples", "101", "--skip-lindblad"])
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["amplitudes_match"]
    assert abs(report["F_closed"] - report["F_ode"]) < 1e-6


def test_verify_reports_lindblad_branches(tmp_path):
    out = tmp_path / "run"
    assert main(["trajectory", "--out", str(out), "--samples", "101"]) == 0
    rc = main(["verify", "--synthesis", str(out / "synthesis.json"),
               "--out", str(out), "--samples", "101"])
    assert rc == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert abs(report["F_lindblad_coherent"] - report["F_closed"]) < 1e-6
    assert report["F_lindblad"] >= report["F_lindblad_coherent"] - 1e-8
    # the Bloch averages of the same channel: the no-jump branch is the
    # closed-form average fidelity
    syn = json.loads((out / "synthesis.json").read_text())
    p = params_from_dict(syn["params"])[0]
    T = syn["pulse"]["T_ns"]
    assert abs(report["F_lindblad_coherent_bloch_avg"]
               - bounds.avg_fidelity(syn["efficiency"], p.Gamma2, T)) < 1e-9
    assert (report["F_lindblad_bloch_avg"]
            >= report["F_lindblad_coherent_bloch_avg"] - 1e-8)


def test_protocol_subcommand(tmp_path):
    rc = main(["protocol", "--which", "entangle_b", "--alpha0", "0.6",
               "--beta0", "0.8", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "protocol_entangle_b.json").read_text())
    assert data["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_optimize_subcommand(tmp_path):
    rc = main(["optimize", "--L", "1", "--grid", "full", "--no-refine",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "optimize_L1_unc.json").read_text())
    assert data["E_max"] == pytest.approx(0.988, abs=1e-3)
    assert abs(data["pulse"]["T_ns"] - 0.44) < 0.035
    assert (tmp_path / "optimize_L1_unc_envelope.csv").exists()
    assert (tmp_path / "optimize_L1_unc_drive.csv").exists()


def test_bound_subcommand_deterministic(tmp_path):
    args = ["bound", "--out", str(tmp_path), "--T-min", "0.1", "--T-max",
            "2.0", "--T-samples", "12"]
    assert main(args) == 0
    name = "bound_G1_0.1_G2_0.1.csv"
    first = (tmp_path / name).read_bytes()
    assert main(args) == 0
    assert (tmp_path / name).read_bytes() == first
    header = first.decode().splitlines()
    assert header[0].startswith("# ramanpulse")
    assert header[1].startswith("T_ns,F_worst_exact,F_worst_simplified")
    summary = json.loads((tmp_path / "bound_summary.json").read_text())
    assert "(0.1,0.1)" in summary
    # every row holds the figures of bounds for the sin^2 pulse of its T
    p, _ = params_from_dict(DEFAULT_PARAMS)
    ps = dataclasses.replace(p, Gamma1=0.1 * p.gamma_tilde,
                             Gamma2=0.1 * p.gamma_tilde)
    e_slow = math.sqrt(bounds.slow_pulse_bound(ps))
    lines = header[2:]
    assert len(lines) == 12
    for T, line in zip(np.geomspace(0.1, 2.0, 12), lines):
        prof = depletion.analytic_profile(ps, sin2_pulse(T))
        res = bounds.compute_bounds(ps, prof)
        e_sim = bounds.simplified_bound(prof)
        want = (T, res.F_worst, res.F_simplified,
                bounds.fidelity(e_slow, ps.Gamma2, T, 1.0), res.F_avg,
                bounds.avg_fidelity(e_sim, ps.Gamma2, T),
                bounds.avg_fidelity(e_slow, ps.Gamma2, T))
        got = [float(x) for x in line.split(",")[:7]]
        assert got == pytest.approx(want, rel=1e-11, abs=0.0), T


def test_lossless_emitter_is_optimized(tmp_path, recwarn):
    # gamma_tilde = 0 leaves the cooperativity undefined; neither the
    # slow-pulse bound nor the figures' duration sweep divides by it or by a
    # zero decoherence rate
    data = {"g_GHz": 6, "kappa_GHz": 30, "gamma_1to0_GHz": 0.01,
            "gamma_0to1_GHz": 0.01}
    p = params_from_dict(data)[0]
    assert p.gamma_tilde == 0.0
    for res in (optimize.optimize_shape(p, optimize.desk_config(1)),
                optimize.optimize_duration(p)):
        assert 0.99 < res.E_max < 1.0
    params = tmp_path / "lossless.json"
    params.write_text(json.dumps(data))
    for command in (["optimize", "--L", "2"], ["figures", "--grid", "desk"]):
        assert main([*command, "--params", str(params), "--out",
                     str(tmp_path / command[0])]) == 0
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    rows = (tmp_path / "figures" / "optimal_duration.csv").read_text().splitlines()
    assert len(rows) == 2 + 27  # every sweep point, on the 20 ns window


def test_emitter_without_upward_rate_is_optimized(tmp_path):
    # gamma_0to1 = 0 makes Gamma2 = 0: the duration window ends at the memory
    # time of |1> alone. With both rates positive it is the shorter of the
    # two, and with both zero there is no memory time to end it
    data = {"g_GHz": 6, "kappa_GHz": 30, "gamma_GHz": 0.1, "gamma_1to0_GHz": 0.01,
            "gamma_0to1_GHz": 0}
    p = params_from_dict(data)[0]
    assert p.Gamma2 == 0.0 < p.Gamma1
    lo, hi = optimize.default_T_range(p)
    assert (lo, hi) == (1.0 / p.g, 1.0 / p.Gamma1)
    both = dataclasses.replace(p, Gamma2=0.5 * p.Gamma1)
    assert optimize.default_T_range(both) == (lo, min(1.0 / p.Gamma1, 1.0 / both.Gamma2))
    with pytest.raises(ValidationError, match="no memory time"):
        optimize.default_T_range(dataclasses.replace(p, Gamma1=0.0))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(data))
    assert main(["optimize", "--params", str(params), "--out", str(tmp_path)]) == 0
    T = json.loads((tmp_path / "optimize_L1_unc.json").read_text())["pulse"]["T_ns"]
    assert lo < T < hi
    params.write_text(json.dumps({**data, "gamma_1to0_GHz": 0}))
    assert main(["optimize", "--params", str(params), "--out", str(tmp_path)]) == 1


def test_c6_runs_below_a_low_bound():
    # at C = 0.033 the L=1 optimum's E_max is 0.339, below C6's E = 0.9 on
    # the paper's emitter: the phase check runs at 0.95 E_max and names it
    p = params_from_dict({"g_GHz": 1, "kappa_GHz": 30, "gamma_GHz": 1,
                          "gamma_1to0_GHz": 0.01, "gamma_0to1_GHz": 0.01})[0]
    best = checks.l1_optimum(p)
    assert best.E_max == pytest.approx(0.339, abs=1e-3)
    phase = checks.c6_phase_properties(p, best.pulse)[0]
    assert phase.name == f"C6 max |phi| at E = {0.95 * best.E_max:.6g}"
    assert phase.passed


def test_bad_params_exit_code(tmp_path):
    bad = tmp_path / "params.json"
    bad.write_text(json.dumps({"g_GHz": 6}))
    rc = main(["bound", "--params", str(bad), "--out", str(tmp_path)])
    assert rc == 1


def test_unnormalized_protocol_exit_code(tmp_path):
    rc = main(["protocol", "--which", "timebin_a", "--alpha0", "1.0",
               "--beta0", "1.0", "--out", str(tmp_path)])
    assert rc == 1


def test_figures_subcommand(tmp_path):
    rc = main(["figures", "--out", str(tmp_path), "--grid", "desk"])
    assert rc == 0
    assert (tmp_path / "bounds" / "bound_G1_0_G2_0.csv").exists()
    assert (tmp_path / "depletion" / "depletion_G1_0.1_G2_0.1.csv").exists()
    assert (tmp_path / "optimal_duration.csv").exists()
    table = json.loads((tmp_path / "optimized_pulses.json").read_text())
    assert len(table["rows"]) == 6
    row = next(r for r in table["rows"] if r["L"] == 1 and not r["constrained"])
    assert row["E_max"] == pytest.approx(0.988, abs=1e-3)
    assert (tmp_path / "drive_vs_efficiency.csv").exists()
    assert (tmp_path / "shapes" / "envelope_L3_con.csv").exists()


def test_figures_bound_curves_one_g_max_call_per_set(tmp_path, monkeypatch):
    # every duration of a bound curve comes from one g_max call per
    # decoherence set, none from a one-pulse analytic_profile, and its row
    # from the scalar fidelities, with no profile or compute_bounds per duration
    calls = {"g_max": 0, "analytic_profile in _bound_curves": 0,
             "DepletionProfile in _bound_curves": 0,
             "compute_bounds in _bound_curves": 0}
    inside = []

    def counted(name, fun, only_inside=False):
        def wrapper(*args, **kwargs):
            if inside or not only_inside:
                calls[name] += 1
            return fun(*args, **kwargs)
        return wrapper

    def bound_curves(*args, **kwargs):
        inside.append(True)
        try:
            return plain_curves(*args, **kwargs)
        finally:
            inside.pop()

    plain_curves = cli._bound_curves
    monkeypatch.setattr(cli, "_bound_curves", bound_curves)
    monkeypatch.setattr(depletion, "g_max", counted("g_max", depletion.g_max))
    monkeypatch.setattr(depletion, "analytic_profile", counted(
        "analytic_profile in _bound_curves", depletion.analytic_profile, True))
    monkeypatch.setattr(depletion, "DepletionProfile", counted(
        "DepletionProfile in _bound_curves", depletion.DepletionProfile, True))
    monkeypatch.setattr(bounds, "compute_bounds", counted(
        "compute_bounds in _bound_curves", bounds.compute_bounds, True))
    assert main(["figures", "--out", str(tmp_path), "--grid", "desk"]) == 0
    assert len(DECOHERENCE_SETS) == 6
    assert calls == {"g_max": 6, "analytic_profile in _bound_curves": 0,
                     "DepletionProfile in _bound_curves": 0,
                     "compute_bounds in _bound_curves": 0}


def test_figures_depletion_curves_sample_series_g_only(tmp_path, monkeypatch):
    # each depletion curve is one series_g sampler, with no maximum search
    calls = {"series_g": 0, "analytic_profile": 0}
    inside = []

    def counted(name, fun):
        def wrapper(*args, **kwargs):
            calls[name] += bool(inside)
            return fun(*args, **kwargs)
        return wrapper

    def depletion_curves(*args, **kwargs):
        inside.append(True)
        try:
            return plain_curves(*args, **kwargs)
        finally:
            inside.pop()

    plain_curves = cli._depletion_curves
    monkeypatch.setattr(cli, "_depletion_curves", depletion_curves)
    for name in calls:
        monkeypatch.setattr(depletion, name, counted(name, getattr(depletion, name)))
    assert main(["figures", "--out", str(tmp_path), "--grid", "desk"]) == 0
    assert calls == {"series_g": 6 * 5, "analytic_profile": 0}


def test_verify_and_c4_synthesize_once(tmp_path, monkeypatch, siv_params):
    # the closed-form trajectory and the drive fed to the oracles come from
    # one ClosedFormSolution
    out = tmp_path / "run"
    assert main(["trajectory", "--out", str(out), "--samples", "101"]) == 0
    calls = []
    plain_init = ClosedFormSolution.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(ClosedFormSolution, "__init__", counted)
    assert main(["verify", "--synthesis", str(out / "synthesis.json"),
                 "--out", str(out), "--samples", "101", "--skip-lindblad"]) == 0
    assert len(calls) == 1
    records = checks.c4_synthesis_closure(siv_params, sin2_pulse(0.44))
    assert all(record.passed for record in records)
    assert len(calls) == 2


def test_one_depletion_search_per_pulse(tmp_path, monkeypatch):
    # the bound and the synthesis of one pulse share one cached profile:
    # trajectory's max_efficiency and ClosedFormSolution, and optimize's
    # result and its drive, search its depletion maximum once
    calls = []
    search = depletion._max_search

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(depletion, "_max_search", counted)
    depletion._series_profile.cache_clear()
    assert main(["trajectory", "--out", str(tmp_path / "t"), "--samples", "101"]) == 0
    assert len(calls) == 1
    assert main(["optimize", "--L", "1", "--out", str(tmp_path / "o"),
                 "--samples", "101"]) == 0
    assert len(calls) == 2


def test_one_series_jet_per_synthesis(tmp_path, monkeypatch, siv_params):
    # the bound reads the series pulse's profile alone; a trajectory run
    # builds the series jet once, for its synthesis
    calls = []
    plain = depletion.series_g
    monkeypatch.setattr(depletion, "series_g",
                        lambda *args: calls.append(args) or plain(*args))
    max_efficiency(siv_params, sin2_pulse(0.44))
    assert calls == []
    assert main(["trajectory", "--out", str(tmp_path), "--samples", "101"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("s_list", ["0.9,1.2", "0.9,-0.5"])
def test_figures_checks_every_efficiency_fraction_first(tmp_path, capsys, s_list):
    # an entry outside [0, 1) fails before any data file is written, and the
    # message names the flag
    out = tmp_path / "out"
    assert main(["figures", "--grid", "desk", "--s-list", s_list,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --s-list ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["figures", "optimize"])
def test_no_ground_state_decay_fails_before_writing(tmp_path, capsys, command):
    # with Gamma1 = Gamma2 = 0 no memory time ends the shape search's window:
    # the command exits 1 before any file is written, and the reason names
    # the physics, not an argument the command line does not have
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"g_GHz": 6, "kappa_GHz": 30}))
    out = tmp_path / "out"
    assert main([command, "--params", str(params), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Gamma1 = Gamma2 = 0: ") and "Traceback" not in err
    assert "T_range" not in err
    assert not out.exists()


def test_figures_names_skipped_duration_points(tmp_path, capsys):
    # g 1, kappa 30, gamma 10 GHz: on the fastest four points of each sweep
    # the memory time ends before the coupling time; each skipped point gets
    # one stderr line, and the data file holds every other point
    data = {"g_GHz": 1, "kappa_GHz": 30, "gamma_GHz": 10, "gamma_1to0_GHz": 0.01,
            "gamma_0to1_GHz": 0.01}
    params = tmp_path / "params.json"
    params.write_text(json.dumps(data))
    assert main(["figures", "--grid", "desk", "--params", str(params),
                 "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 12
    assert all("no duration window" in line for line in err)
    skipped = {tuple(re.fullmatch(r"skipped (\w+) sweep point Gamma1 = (\S+), "
                                  r"Gamma2 = (\S+) rad/ns: .*", line).groups())
               for line in err}
    rows = (tmp_path / "optimal_duration.csv").read_text().splitlines()[2:]
    kept = {(sweep, f"{float(g1):.6g}", f"{float(g2):.6g}")
            for sweep, g1, g2, *_ in (row.split(",") for row in rows)}
    p = params_from_dict(data)[0]
    T_lo = max(1.0 / p.g, 1.0 / p.kappa)
    every = {}
    for sweep, (u, v) in (("Gamma1", (1, 0)), ("Gamma2", (0, 1)), ("both", (1, 1))):
        for frac in np.geomspace(0.01, 0.5, 9):
            G1, G2 = frac * u * p.gamma_tilde, frac * v * p.gamma_tilde
            every[(sweep, f"{G1:.6g}", f"{G2:.6g}")] = 1.0 / max(G1, G2) <= T_lo
    assert skipped == {point for point, short in every.items() if short}
    assert kept == {point for point, short in every.items() if not short}
    assert len(kept) == 15


def test_no_duration_window_names_both_times(tmp_path, capsys):
    # memory time 1/Gamma1 = 0.080 ns under the coupling time 1/g = 0.159 ns:
    # the refusal names both, so the user sees which rate to change
    data = {"g_GHz": 1, "kappa_GHz": 30, "gamma_GHz": 10, "gamma_1to0_GHz": 2,
            "gamma_0to1_GHz": 2}
    params = tmp_path / "params.json"
    params.write_text(json.dumps(data))
    assert main(["optimize", "--params", str(params), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    p = params_from_dict(data)[0]
    memory, coupling = 1.0 / max(p.Gamma1, p.Gamma2), max(1.0 / p.g, 1.0 / p.kappa)
    assert round(memory, 3) == 0.080 and round(coupling, 3) == 0.159
    assert err.startswith("error: decoherence too fast: no duration window")
    assert f"memory time {memory:.6g} ns" in err and f"coupling time {coupling:.6g} ns" in err


@pytest.mark.parametrize("text", ["{not json", "5"])
def test_unreadable_params_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "params.json"
    bad.write_text(text)
    rc = main(["bound", "--params", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_verify_incomplete_synthesis_exit_code(tmp_path, capsys):
    syn = tmp_path / "synthesis.json"
    syn.write_text(json.dumps({"params": {"g_GHz": 6, "kappa_GHz": 30}}))
    rc = main(["verify", "--synthesis", str(syn), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "efficiency" in err and "pulse" in err


@pytest.mark.parametrize("text", [
    pytest.param('{"g_GHz": "six", "kappa_GHz": 30}', id="text"),
    pytest.param('{"g_GHz": null, "kappa_GHz": 30}', id="null"),
    pytest.param('{"g_GHz": 6, "kappa_GHz": Infinity}', id="infinity"),
])
def test_non_finite_params_exit_code(tmp_path, capsys, text):
    bad = tmp_path / "params.json"
    bad.write_text(text)
    out = tmp_path / "out"
    rc = main(["trajectory", "--params", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


def test_trajectory_at_the_bound_exit_code(tmp_path, capsys):
    # the 801-point grid misses the depletion maximum, where the drive diverges
    rc = main(["trajectory", "--s", "1.0", "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("value", ["x", [1, 2, 3], None],
                         ids=["text", "three_numbers", "null"])
def test_verify_malformed_amplitude_exit_code(tmp_path, capsys, value):
    out = tmp_path / "run"
    assert main(["trajectory", "--out", str(out), "--samples", "101"]) == 0
    syn = out / "synthesis.json"
    data = json.loads(syn.read_text())
    data["alpha0"] = value
    syn.write_text(json.dumps(data))
    capsys.readouterr()
    rc = main(["verify", "--synthesis", str(syn), "--out", str(out),
               "--samples", "101", "--skip-lindblad"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha0" in err
    assert "Traceback" not in err


def test_default_params_are_the_acceptance_emitter(siv_params, siv_raw):
    # so the acceptance suite covers what figures --check runs by default
    assert params_from_dict(dict(DEFAULT_PARAMS)) == (siv_params, siv_raw)


def test_check_lines_and_exit_codes(monkeypatch, capsys):
    # figures --check prints every record of checks.run, exits 3 on a failure
    p, raw = params_from_dict(dict(DEFAULT_PARAMS))
    passing = checks.Check("fake pass", 0.5, "<=", 1.0)
    failing = checks.Check("fake fail", 2.0, "<", 1.0)
    monkeypatch.setattr(checks, "run", lambda p, raw, skip_lindblad: [passing])
    assert run_checks(p, raw) == 0
    monkeypatch.setattr(checks, "run",
                        lambda p, raw, skip_lindblad: [passing, failing])
    assert run_checks(p, raw) == 3
    assert capsys.readouterr().out.splitlines() == [
        "CHECK fake pass: PASS value=0.5 <= limit=1",
        "all checks passed",
        "CHECK fake pass: PASS value=0.5 <= limit=1",
        "CHECK fake fail: FAIL value=2 < limit=1",
        "1 check(s) failed: fake fail",
    ]


GOOD_SYNTHESIS = {"params": DEFAULT_PARAMS, "pulse": sin2_pulse(0.44).to_dict(),
                  "efficiency": 0.5, "alpha0": [1.0, 0.0], "beta0": [0.0, 0.0]}


@pytest.mark.parametrize("command,text", [
    ("trajectory", '{"T_ns": 0.5, "coeffs": 5.0}'),
    ("trajectory", '{"T_ns": 0.5, "coeffs": [1.0], "theta": "linear"}'),
    ("trajectory", "[1, 2]"),
    ("trajectory", '{"T_ns": 0.5, "coe'),
    ("trajectory", None),  # no such file
    ("verify", json.dumps({**GOOD_SYNTHESIS, "efficiency": "abc"})),
    ("verify", json.dumps({**GOOD_SYNTHESIS, "efficiency": None})),
    ("verify", json.dumps({**GOOD_SYNTHESIS, "pulse": [1, 2]})),
    ("verify", json.dumps({**GOOD_SYNTHESIS, "params": 5})),
], ids=["coeffs_number", "theta_text", "list", "truncated", "missing",
        "efficiency_text", "efficiency_null", "pulse_list", "params_number"])
def test_malformed_pulse_or_synthesis_file_exit_code(tmp_path, capsys, command,
                                                     text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    flag = "--pulse" if command == "trajectory" else "--synthesis"
    out = tmp_path / "out"
    assert main([command, flag, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not (out / "trajectory.csv").exists()


@pytest.fixture(scope="module")
def synthesis(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthesis")
    assert main(["trajectory", "--out", str(out), "--samples", "101"]) == 0
    return str(out / "synthesis.json")


@pytest.mark.parametrize("argv", [
    ["bound", "--T-min", "0"],
    ["bound", "--T-samples", "0"],
    ["bound", "--T-min", "2", "--T-max", "1"],
    ["bound", "--T-max", "inf"],
    ["trajectory", "--samples", "0"],
    ["trajectory", "--samples", "1"],
    ["verify", "--synthesis", "SYNTHESIS", "--samples", "0"],
    ["verify", "--synthesis", "SYNTHESIS", "--samples", "1"],
    ["optimize", "--samples", "0"],
    ["optimize", "--s", "nan"],
    ["optimize", "--s", "1"],
    ["trajectory", "--s", "nan"],
    ["trajectory", "--s", "-0.5"],
    ["trajectory", "--pulse-T", "nan"],
    ["trajectory", "--alpha0", "nan"],
    ["protocol", "--which", "timebin_a", "--alpha0", "nan", "--beta0", "0"],
    ["figures", "--s-list", "0.9,x"],
    ["figures", "--s-list", "0.9,nan"],
], ids=" ".join)
def test_bad_numbers_exit_code(tmp_path, capsys, synthesis, argv):
    # rejected before any work: no output directory, no traceback
    out = tmp_path / "out"
    argv = [synthesis if a == "SYNTHESIS" else a for a in argv]
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()
