"""The four workloads: inputs from a seed, the jobs of one round, the checks.

Each workload exposes

    inputs(lib, p, raw, seed, workdir) -> inputs made from the seed
    round(inputs)                      -> [(label, job)], one round of jobs
    check(inputs, label, out, ref)     -> problems found in one job's output;
                                          ref is the warm-up output of the
                                          same label, or None
    check_once(inputs, out)            -> problems found by the slower checks,
                                          run once per run on the warm-up

Every check compares with a value computed here, apart from the program, or
with a property the method must have; none compares with stored output.
`lib` is the imported program (a namespace of its modules).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The paper's benchmark emitter, GHz notation (x means 2 pi x rad/ns).
PARAMS = {"g_GHz": 6.0, "kappa_GHz": 30.0, "gamma_GHz": 0.1,
          "gamma_1to0_GHz": 0.01, "gamma_0to1_GHz": 0.01}

N_DURATIONS = 500      # published duration axis
N_RATIOS = 201         # published ratio axis
BAND = 4               # durations per L=3 band
L3_OPT_INDEX = 10      # duration index of the full-grid L=3 optimum (0.345 ns)
FAR_BAND_START = (250, N_DURATIONS - BAND)  # far bands start in this range
N_SPOT = 6             # seeded spot checks per search
E_FRACTION = 0.99      # target efficiency as a fraction of E_max
ALPHA0_SQ = (0.0, 0.5, 1.0)
SAMPLES = 401          # time grid of the synthesis and the ODE oracle

# Published full-grid optima (duration in ns, unnormalized coefficients).
OPTIMAL_ENVELOPES = {
    1: (0.4404668865930009, (1.0,)),
    2: (0.4404668865930009, (1.0, -0.06)),
    3: (0.344942025959689, (1.0, -0.2, 0.11)),
}


def formula_fidelity(E: float, Gamma2: float, T: float, alpha0_sq: float) -> float:
    """exp(-Gamma2 T) (E |alpha0|^2 + 1 - |alpha0|^2)^2, the paper's no-jump fidelity."""
    return math.exp(-Gamma2 * T) * (E * alpha0_sq + 1.0 - alpha0_sq) ** 2


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _seeded_state(lib, rng, alpha0_sq: float):
    phase_a, phase_b = rng.uniform(0.0, 2.0 * math.pi, size=2)
    return lib.trajectory.InitialState(
        math.sqrt(alpha0_sq) * complex(math.cos(phase_a), math.sin(phase_a)),
        math.sqrt(1.0 - alpha0_sq) * complex(math.cos(phase_b), math.sin(phase_b)))


def _ode_fidelity(init, ode) -> float:
    amp = np.conj(init.alpha0) * ode.lam[-1] + np.conj(init.beta0) * ode.beta[-1]
    return float(abs(amp) ** 2)


def _check_closure(problems, tag, rep, init, ode, E, Gamma2, T):
    worst = max(rep.max_dev.values())
    if not worst <= 1e-6:
        problems.append(f"{tag}: closed form vs ODE oracle deviates by {worst:.3e} > 1e-6")
    a2 = abs(init.alpha0) ** 2
    f_ode = _ode_fidelity(init, ode)
    f_ref = formula_fidelity(E, Gamma2, T, a2)
    if not abs(f_ode - f_ref) <= 1e-6:
        problems.append(f"{tag}: ODE fidelity {f_ode:.9f} vs formula {f_ref:.9f} (> 1e-6)")


class Workload:
    """Defaults shared by the workloads."""

    name = ""

    def reference(self, out):
        """What later jobs of the same label are compared with."""
        return out

    def check_once(self, inp, out):
        return []

    def counters(self, out) -> dict:
        return {}

    def cleanup(self, out):
        pass


# ---------------------------------------------------------------------------
# design: full-resolution shape search
# ---------------------------------------------------------------------------

@dataclass
class DesignInputs:
    lib: object
    p: object
    T_axis: np.ndarray
    bands: dict          # name -> first duration index
    spots: dict          # search tag -> list of (T index, ratio indices)


class Design(Workload):
    name = "design"

    def inputs(self, lib, p, raw, seed, workdir):
        rng = np.random.default_rng(seed)
        # the published window: from the coupling time to the memory time
        lo = max(1.0 / p.g, 1.0 / p.kappa)
        hi = min(1.0 / p.Gamma1, 1.0 / p.Gamma2)
        T_axis = np.linspace(lo, hi, N_DURATIONS)
        bands = {
            "near": int(rng.integers(L3_OPT_INDEX - BAND + 1, L3_OPT_INDEX + 1)),
            "far": int(rng.integers(*FAR_BAND_START, endpoint=True)),
        }
        spots = {}
        for L in (1, 2):
            for con in (False, True):
                spots[self._tag(L, con)] = [
                    (int(rng.integers(N_DURATIONS)),
                     tuple(int(i) for i in rng.integers(N_RATIOS, size=L - 1)))
                    for _ in range(N_SPOT)]
        for band, start in bands.items():
            spots[f"L3_{band}"] = [
                (start + int(rng.integers(BAND)),
                 tuple(int(i) for i in rng.integers(N_RATIOS, size=2)))
                for _ in range(N_SPOT)]
        return DesignInputs(lib=lib, p=p, T_axis=T_axis, bands=bands, spots=spots)

    @staticmethod
    def _tag(L, constrained):
        return f"L{L}_{'con' if constrained else 'unc'}"

    @staticmethod
    def _band_range(inp, band):
        start = inp.bands[band]
        return float(inp.T_axis[start]), float(inp.T_axis[start + BAND - 1])

    def _band_config(self, inp, L, band):
        return inp.lib.optimize.OptimizationConfig(
            L=L, T_range=self._band_range(inp, band), T_samples=BAND,
            ratio_samples=N_RATIOS, refine=False)

    def round(self, inp):
        return [("search", lambda: self.job(inp))]

    def job(self, inp):
        opt = inp.lib.optimize
        out = {}
        for L in (1, 2):
            for con in (False, True):
                out[self._tag(L, con)] = opt.optimize_shape(
                    inp.p, opt.full_config(L, constrained=con, refine=False))
        for band in inp.bands:
            out[f"L3_{band}"] = opt.optimize_shape(inp.p, self._band_config(inp, 3, band))
        return out

    @staticmethod
    def grid_objective(res) -> float:
        """Best objective on the scanned grid (max over the 1001-point G samples)."""
        return res.provenance["trace"][0]["objective"]

    def check(self, inp, label, out, ref):
        problems = []
        p = inp.p
        r1 = out["L1_unc"]
        if not (abs(r1.E_max - 0.988) <= 1e-3 and abs(r1.pulse.T - 0.44) <= 0.035
                and abs(r1.pulse.coeffs[0] - 1.23) <= 0.01):
            problems.append(
                f"L=1 optimum E_max={r1.E_max:.5f} T={r1.pulse.T:.4f} "
                f"v1={r1.pulse.coeffs[0]:.4f} is off the paper's table row "
                "(0.988 +- 1e-3, 0.44 +- 0.035 ns, 1.23 +- 0.01)")
        for con in ("unc", "con"):
            lo, hi = out[f"L1_{con}"], out[f"L2_{con}"]
            if self.grid_objective(hi) < self.grid_objective(lo) * (1 - 1e-12):
                problems.append(f"{con}: best objective drops from L=1 to L=2")
        for tag, res in out.items():
            F_ref = math.exp(-p.Gamma2 * res.pulse.T) * res.E_max ** 2
            if not _rel(res.F_worst, F_ref) <= 1e-12:
                problems.append(f"{tag}: F_worst {res.F_worst!r} != exp(-Gamma2 T) "
                                f"E_max^2 = {F_ref!r}")
        if ref is not None:
            for tag, res in out.items():
                old = ref[tag]
                if (res.pulse.T != old.pulse.T or res.pulse.coeffs != old.pulse.coeffs
                        or res.E_max != old.E_max):
                    problems.append(f"{tag}: optimum differs from the warm-up job's")
        return problems

    def check_once(self, inp, out):
        lib, p = inp.lib, inp.p
        problems = []
        # nesting on the bands: L=1 and L=2 on the same durations
        for band in inp.bands:
            l3 = self.grid_objective(out[f"L3_{band}"])
            l2 = self.grid_objective(lib.optimize.optimize_shape(
                p, self._band_config(inp, 2, band)))
            l1 = self.grid_objective(lib.optimize.optimize_shape(
                p, self._band_config(inp, 1, band)))
            if not (l1 <= l2 * (1 + 1e-12) and l2 <= l3 * (1 + 1e-12)):
                problems.append(f"{band} band: best objective not monotone in L "
                                f"({l1!r}, {l2!r}, {l3!r})")
        # the quadrature route agrees with the optimum's analytic G_max
        best = out["L3_near"]
        num = lib.depletion.integrated_depletion_numeric(
            p, best.pulse, np.linspace(0.0, best.pulse.T, 101))
        G_max = best.E_max ** -2
        if not _rel(num.G_max, G_max) <= 1e-6:
            problems.append(f"L3 optimum: analytic G_max {G_max!r} vs quadrature "
                            f"{num.G_max!r}")
        # seeded grid points score no higher than the grid optimum
        ratio_axis = np.linspace(-1.0, 1.0, N_RATIOS)
        ratio_axis[N_RATIOS // 2] = 0.0
        for tag, points in inp.spots.items():
            best_obj = self.grid_objective(out[tag])
            for t_idx, r_idx in points:
                T = float(inp.T_axis[t_idx])
                if tag.startswith("L3"):
                    band = tag[3:]
                    T = float(np.linspace(*self._band_range(inp, band), BAND)
                              [t_idx - inp.bands[band]])
                ratios = [1.0] + [float(ratio_axis[i]) for i in r_idx]
                if tag.endswith("con"):
                    pulse = lib.pulse.constrained_series(ratios, T)
                else:
                    pulse = lib.pulse.CosineSeriesPulse(T, tuple(ratios))
                obj = lib.optimize.objective(p, pulse)
                if obj > best_obj * (1 + 1e-12):
                    problems.append(f"{tag}: grid point T={T:.6g} ratios={ratios} "
                                    f"scores {obj!r} > optimum {best_obj!r}")
        return problems


# ---------------------------------------------------------------------------
# figures: `ramanpulse figures --grid desk` through cli.main
# ---------------------------------------------------------------------------

# (Gamma1, Gamma2) / gamma_tilde of the bound and depletion curves, and their file stems
DECOHERENCE_SETS = ((0, 0), (0.01, 0.005), (0, 0.1), (0.1, 0), (0.2, 0), (0.1, 0.1))
STEMS = [f"G1_{f1:g}_G2_{f2:g}" for f1, f2 in DECOHERENCE_SETS]
FIGURE_FILES = tuple(
    [f"bounds/bound_{stem}.csv" for stem in STEMS]
    + ["bounds/bound_summary.json"]
    + [f"depletion/depletion_{stem}.csv" for stem in STEMS]
    + ["optimal_duration.csv", "optimized_pulses.json", "drive_vs_efficiency.csv"]
    + [f"shapes/envelope_L{L}_{c}.csv" for L in (1, 2, 3) for c in ("unc", "con")])


@dataclass
class FiguresInputs:
    lib: object
    params_file: Path
    workdir: Path
    s_list: str


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


class Figures(Workload):
    name = "figures"

    def inputs(self, lib, p, raw, seed, workdir):
        rng = np.random.default_rng(seed)
        fractions = np.sort(rng.uniform(0.9, 0.999, size=3))
        return FiguresInputs(lib=lib, params_file=workdir / "params.json",
                             workdir=workdir,
                             s_list=",".join(f"{s:.4f}" for s in fractions))

    def round(self, inp):
        return [("figures", lambda: self.job(inp))]

    def job(self, inp):
        out = Path(tempfile.mkdtemp(prefix="figures-", dir=inp.workdir))
        argv = ["figures", "--grid", "desk", "--params", str(inp.params_file),
                "--s-list", inp.s_list, "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = inp.lib.cli.main(argv)
        return {"dir": out, "exit": code}

    @staticmethod
    def digests(out) -> dict:
        return {name: hashlib.sha256((out["dir"] / name).read_bytes()).hexdigest()
                for name in FIGURE_FILES if (out["dir"] / name).is_file()}

    @staticmethod
    def bytes_written(out) -> int:
        return sum(f.stat().st_size for f in out["dir"].rglob("*") if f.is_file())

    def check(self, inp, label, out, ref):
        problems = []
        d = out["dir"]
        if out["exit"] != 0:
            problems.append(f"figures exited with {out['exit']}")
        missing = [n for n in FIGURE_FILES if not (d / n).is_file()]
        if missing:
            return problems + [f"missing files: {missing}"]
        if ref is not None and ref["digests"] != self.digests(out):
            changed = [n for n, h in self.digests(out).items() if ref["digests"][n] != h]
            problems.append(f"files differ from the warm-up job's: {changed}")

        gamma_tilde = 2 * math.pi * PARAMS["gamma_GHz"]
        for (_, frac2), stem in zip(DECOHERENCE_SETS, STEMS):
            problems += self._check_depletion(d / f"depletion/depletion_{stem}.csv",
                                              frac2 * gamma_tilde)
            header, rows = _read_csv(d / f"bounds/bound_{stem}.csv")
            exact = header.index("F_worst_exact")
            simple = header.index("F_worst_simplified")
            bad = [r[0] for r in rows if float(r[simple]) < float(r[exact])]
            if bad:
                problems.append(f"{stem}: F_worst_simplified < F_worst_exact "
                                f"at T = {bad[:3]}")
            if stem == "G1_0_G2_0":
                # slow-pulse limit 2C/(1+2C) with C = 2 g^2 / (gamma_tilde (kappa + kappa_tilde))
                g = 2 * math.pi * PARAMS["g_GHz"]
                kappa = 2 * math.pi * PARAMS["kappa_GHz"]
                C = 2 * g * g / (gamma_tilde * kappa)
                slow = 2 * C / (1 + 2 * C)
                last = rows[-1]
                if abs(float(last[0]) - 12.0) > 1e-9:
                    problems.append(f"{stem} ends at T = {last[0]}, not 12 ns")
                E2 = float(last[exact])   # F_worst = E_max^2 without Gamma2
                if not _rel(E2, slow) <= 0.02:
                    problems.append(f"E_max^2 = {E2:.5f} at T = 12 ns is not within 2% "
                                    f"of the slow-pulse limit {slow:.5f}")
        return problems

    @staticmethod
    def _check_depletion(path: Path, Gamma2: float):
        problems = []
        header, rows = _read_csv(path)
        data = np.array(rows, dtype=float)
        for T in np.unique(data[:, 0]):
            blk = data[data[:, 0] == T]
            t, dd, G, Gw = blk[:, 1], blk[:, 2], blk[:, 3], blk[:, 4]
            h = t[1] - t[0]
            # trapezoid with the Euler-Maclaurin end correction -h^2/12 (d'(t) - d'(0)),
            # d' by central differences; what is left is of order h^4 max|d'''|
            trap = np.concatenate([[0.0], np.cumsum(0.5 * h * (dd[1:] + dd[:-1]))])
            dp = np.gradient(dd, h, edge_order=2)
            trap -= h * h / 12.0 * (dp - dp[0])
            tol = h * np.abs(np.diff(dd, 3)).max() / 4.0 + 1e-9
            err = float(np.max(np.abs(trap - G)))
            if not err <= tol:
                problems.append(f"{path.name} T={T:g}: trapezoid of d_per_ns misses G by "
                                f"{err:.3e} > {tol:.3e}")
            dev = float(np.max(np.abs(Gw - np.exp(Gamma2 * t) * G)
                               / np.maximum(np.abs(Gw), 1e-12)))
            if not dev <= 1e-10:
                problems.append(f"{path.name} T={T:g}: G_weighted != exp(Gamma2 t) G "
                                f"(rel dev {dev:.2e})")
        return problems

    def reference(self, out):
        return {"digests": self.digests(out)}

    def counters(self, out):
        return {"cli.bytes_written": self.bytes_written(out)}

    def cleanup(self, out):
        shutil.rmtree(out["dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# verify: synthesis and both oracles on the optimal envelopes
# ---------------------------------------------------------------------------

@dataclass
class VerifyInputs:
    lib: object
    p: object
    raw: object
    envelopes: dict      # label -> (pulse, E, E_max, [initial states])


class Verify(Workload):
    name = "verify"

    def inputs(self, lib, p, raw, seed, workdir):
        rng = np.random.default_rng(seed)
        envelopes = {}
        for L, (T, coeffs) in OPTIMAL_ENVELOPES.items():
            pulse = lib.pulse.CosineSeriesPulse(T, coeffs).normalize()
            E_max = lib.trajectory.max_efficiency(p, pulse)
            envelopes[f"L{L}"] = (pulse, E_FRACTION * E_max, E_max,
                                  [_seeded_state(lib, rng, a2) for a2 in ALPHA0_SQ])
        return VerifyInputs(lib=lib, p=p, raw=raw, envelopes=envelopes)

    def round(self, inp):
        # one job per envelope, C5's three states each: jobs of one round
        # differ in cost by L, so their median is the same job in every run
        return [(label, lambda label=label: self.job(inp, label))
                for label in inp.envelopes]

    def job(self, inp, label):
        lib, p = inp.lib, inp.p
        pulse, E, _, states = inp.envelopes[label]
        grid = np.linspace(0.0, pulse.T, SAMPLES)
        cf = lib.trajectory.ClosedFormSolution(p, pulse, E)
        out = []
        for init in states:
            traj = lib.trajectory.closed_form_trajectory(p, pulse, E, init, grid)
            ode = lib.verify.integrate_nonhermitian(p, cf.Omega, init, grid)
            rep = lib.verify.compare(traj, ode)
            lres = lib.verify.lindblad_simulate(inp.raw, p, pulse, cf.Omega, init)
            out.append({"rep": rep, "ode": ode, "lindblad": lres})
        return out

    def check(self, inp, label, out, ref):
        p = inp.p
        pulse, E, E_max, states = inp.envelopes[label]
        problems = []
        for init, res in zip(states, out):
            a2 = abs(init.alpha0) ** 2
            tag = f"{label} |alpha0|^2={a2:.3g}"
            _check_closure(problems, tag, res["rep"], init, res["ode"], E, p.Gamma2,
                           pulse.T)
            lres = res["lindblad"]
            f_formula = formula_fidelity(E, p.Gamma2, pulse.T, a2)
            if not abs(lres.fidelity_coherent - f_formula) <= 1e-3:
                problems.append(f"{tag}: Lindblad coherent branch "
                                f"{lres.fidelity_coherent:.6f} vs formula {f_formula:.6f} "
                                "(> 1e-3)")
            excess = lres.fidelity - formula_fidelity(E_max, p.Gamma2, pulse.T, a2)
            if not excess <= 1e-3:
                problems.append(f"{tag}: Lindblad total exceeds the bound by {excess:.3e}")
            recycled = lres.fidelity - lres.fidelity_coherent
            if not recycled >= -1e-8:
                problems.append(f"{tag}: recycled part {recycled:.3e} < -1e-8")
        return problems


# ---------------------------------------------------------------------------
# chirped: synthesis and the ODE oracle for chirped envelopes
# ---------------------------------------------------------------------------

@dataclass
class ChirpedInputs:
    lib: object
    p: object
    pulse: object
    init: object


class Chirped(Workload):
    name = "chirped"

    def inputs(self, lib, p, raw, seed, workdir):
        rng = np.random.default_rng(seed)
        T = float(rng.uniform(0.4, 0.6))
        ratio = float(rng.uniform(-0.2, 0.2))
        chirp = float(rng.uniform(1.0, 4.0)) * float(rng.choice((-1.0, 1.0)))
        pulse = lib.pulse.CosineSeriesPulse(T, (1.0, ratio), chirp).normalize()
        return ChirpedInputs(lib=lib, p=p, pulse=pulse,
                             init=_seeded_state(lib, rng, 0.5))

    def round(self, inp):
        return [("chirped", lambda: self.job(inp))]

    def job(self, inp):
        lib, p, pulse, init = inp.lib, inp.p, inp.pulse, inp.init
        E_max = lib.trajectory.max_efficiency(p, pulse)
        E = E_FRACTION * E_max
        grid = np.linspace(0.0, pulse.T, SAMPLES)
        cf = lib.trajectory.ClosedFormSolution(p, pulse, E)
        traj = lib.trajectory.closed_form_trajectory(p, pulse, E, init, grid)
        ode = lib.verify.integrate_nonhermitian(p, cf.Omega, init, grid)
        rep = lib.verify.compare(traj, ode)
        return {"E_max": E_max, "E": E, "G_T_ode": float(cf.G(pulse.T)),
                "rep": rep, "ode": ode}

    def check(self, inp, label, out, ref):
        p, pulse = inp.p, inp.pulse
        problems = []
        _check_closure(problems, label, out["rep"], inp.init, out["ode"], out["E"],
                       p.Gamma2, pulse.T)
        G_quad = float(inp.lib.depletion.integrated_depletion_numeric(
            p, pulse, np.array([pulse.T]), refine_max=False).G[-1])
        if not abs(G_quad - out["G_T_ode"]) <= 1e-8:
            problems.append(f"G(T): quadrature {G_quad!r} vs phase ODE "
                            f"{out['G_T_ode']!r} (> 1e-8)")
        if ref is not None and (out["E_max"] != ref["E_max"]
                                or out["G_T_ode"] != ref["G_T_ode"]):
            problems.append("E_max or G(T) differs from the warm-up job's")
        return problems


WORKLOADS = {w.name: w for w in (Design(), Figures(), Verify(), Chirped())}
