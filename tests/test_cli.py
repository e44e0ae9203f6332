import json

import pytest

from ramanpulse.cli import main


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
