import json

import pytest

from ramanpulse import checks, cli, depletion
from ramanpulse.cli import DECOHERENCE_SETS, DEFAULT_PARAMS, main, run_checks
from ramanpulse.model import params_from_dict
from ramanpulse.pulse import sin2_pulse
from ramanpulse.trajectory import ClosedFormSolution


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
    # decoherence set, none from a one-pulse analytic_profile
    calls = {"g_max": 0, "analytic_profile in _bound_curves": 0}
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
    assert main(["figures", "--out", str(tmp_path), "--grid", "desk"]) == 0
    assert len(DECOHERENCE_SETS) == 6
    assert calls == {"g_max": 6, "analytic_profile in _bound_curves": 0}


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
