"""Tests of the benchmark itself: its checks reject perturbed results, and a
shortened run of every workload completes with zero failed jobs.

    python3 -m pytest -q bench/test_bench.py     (about two minutes)
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def lib():
    return run.import_program()


def _setup(lib, name, tmp_path, seed=3):
    wl = workloads.WORKLOADS[name]
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps(workloads.PARAMS), encoding="utf-8")
    p, raw = lib.model.load_params(params_file)
    return wl, wl.inputs(lib, p, raw, seed, tmp_path)


def test_design_check_rejects_perturbed_optimum(lib, tmp_path):
    wl, inp = _setup(lib, "design", tmp_path)
    [(label, job)] = wl.round(inp)
    out = job()
    assert wl.check(inp, label, out, wl.reference(out)) == []
    assert wl.check_once(inp, out) == []
    r1 = out["L1_unc"]
    off_e = dataclasses.replace(r1, E_max=r1.E_max + 2e-3)
    assert wl.check(inp, label, {**out, "L1_unc": off_e}, None)
    off_f = dataclasses.replace(out["L3_near"], F_worst=out["L3_near"].F_worst - 2e-3)
    assert wl.check(inp, label, {**out, "L3_near": off_f}, None)
    assert wl.check(inp, label, out, {**out, "L1_unc": off_e})


def test_figures_check_rejects_one_changed_byte(lib, tmp_path):
    wl, inp = _setup(lib, "figures", tmp_path)
    [(label, job)] = wl.round(inp)
    out = job()
    ref = wl.reference(out)
    assert wl.check(inp, label, out, ref) == []
    path = out["dir"] / "optimal_duration.csv"
    data = bytearray(path.read_bytes())
    i = data.rindex(b"9")
    data[i:i + 1] = b"8"
    path.write_bytes(bytes(data))
    assert wl.check(inp, label, out, ref)
    # a depletion sample off by 2e-3 breaks the trapezoid check
    dep = out["dir"] / "depletion" / "depletion_G1_0_G2_0.csv"
    lines = dep.read_text(encoding="utf-8").splitlines(keepends=True)
    cols = lines[60].split(",")
    cols[3] = repr(float(cols[3]) + 2e-3)
    lines[60] = ",".join(cols)
    dep.write_text("".join(lines), encoding="utf-8")
    assert any("trapezoid" in m for m in wl.check(inp, label, out, None))
    wl.cleanup(out)


def test_verify_check_rejects_perturbed_fidelity(lib, tmp_path):
    wl, inp = _setup(lib, "verify", tmp_path)
    label, job = wl.round(inp)[0]
    out = job()
    assert wl.check(inp, label, out, None) == []
    case = out[1]
    lres = case["lindblad"]
    off = dataclasses.replace(lres, fidelity_coherent=lres.fidelity_coherent + 2e-3)
    assert wl.check(inp, label, [out[0], {**case, "lindblad": off}, out[2]], None)
    ode = case["ode"]
    off_ode = dataclasses.replace(ode, beta=ode.beta * (1 + 2e-3))
    assert wl.check(inp, label, [out[0], {**case, "ode": off_ode}, out[2]], None)


def test_chirped_check_rejects_perturbed_result(lib, tmp_path):
    wl, inp = _setup(lib, "chirped", tmp_path)
    [(label, job)] = wl.round(inp)
    out = job()
    assert wl.check(inp, label, out, out) == []
    assert wl.check(inp, label, {**out, "G_T_ode": out["G_T_ode"] + 2e-3}, None)
    assert wl.check(inp, label, {**out, "E": out["E"] + 2e-3}, None)


def test_seed_fixes_inputs(lib, tmp_path):
    _, a = _setup(lib, "design", tmp_path, seed=5)
    _, b = _setup(lib, "design", tmp_path, seed=5)
    _, c = _setup(lib, "design", tmp_path, seed=6)
    assert a.bands == b.bands and a.spots == b.spots
    assert a.spots != c.spots
    _, x = _setup(lib, "chirped", tmp_path, seed=5)
    _, y = _setup(lib, "chirped", tmp_path, seed=5)
    assert x.pulse == y.pulse and x.init == y.init
    assert np.isclose(x.pulse.norm_sq(), 1.0)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortened_run_has_no_failed_job(workload):
    res = _run(workload, 0)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = _run("verify", 1)
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["trajectory.Omega.calls"]["value"] > 0
