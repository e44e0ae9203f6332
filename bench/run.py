"""Benchmark of the ramanpulse library: one workload, one process, closed loop.

Run from the repository root:

    python3 bench/run.py --workload design --seed 1 --seconds 10 --trace 0

The library is imported from ./src of the checkout, never from an installed
copy. One job runs at a time. After the set-up (import, parameter loading,
input generation and one untimed warm-up job) the run repeats whole rounds
of the workload's jobs until --seconds have passed, checks every output,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run (see bench/README.md). The result, and for a
traced run every span, is also written under bench/results/.
"""

import os

# Set before numpy loads. One thread per numeric library: a single job on one
# core repeats more tightly on a shared two-core machine. No transparent huge
# pages for numpy arrays: whether the kernel finds them varies from run to
# run, and with them the peak resident set of a run.
ENVIRONMENT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "NUMPY_MADVISE_HUGEPAGE": "0"}
os.environ.update(ENVIRONMENT)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
MODULES = ("bounds", "cli", "depletion", "model", "optimize", "pulse",
           "trajectory", "verify")
SETUP_REPEATS = 3


def import_program():
    """Import ramanpulse from the checkout's src directory."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("ramanpulse")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import ramanpulse from {src}: {exc}")
    if Path(package.__file__).resolve().parent != (src / "ramanpulse").resolve():
        raise SystemExit(f"bench: ramanpulse resolved to {package.__file__}, "
                         f"not to {src}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"ramanpulse.{m}") for m in MODULES})


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    lib = import_program()
    import_s = time.perf_counter() - t_start

    import workloads  # after the program, which it drives
    from tracing import Tracer

    wl = workloads.WORKLOADS[workload]
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS))
    try:
        params_file = workdir / "params.json"
        params_file.write_text(json.dumps(workloads.PARAMS), encoding="utf-8")

        # parameter loading and input generation, median of a few repeats
        prep = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            p, raw = lib.model.load_params(params_file)
            inputs = wl.inputs(lib, p, raw, seed, workdir)
            prep.append(time.perf_counter() - t0)

        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()

        jobs = wl.round(inputs)
        label0, job0 = jobs[0]
        t0 = time.perf_counter()
        warm = job0()
        warmup_s = time.perf_counter() - t0
        setup_s = import_s + statistics.median(prep) + warmup_s

        problems = wl.check(inputs, label0, warm, None) + wl.check_once(inputs, warm)
        refs = {label0: wl.reference(warm)}
        wl.cleanup(warm)
        correct = not problems
        for msg in problems:
            print(f"bench: warm-up {label0}: {msg}", file=sys.stderr)

        wall, cpu = [], []
        attempted = failed = 0
        t_run = time.perf_counter()
        while attempted == 0 or time.perf_counter() - t_run < seconds:
            for label, job in jobs:
                if tracer is not None:
                    tracer.open_job(attempted)
                attempted += 1
                c0, w0 = time.process_time(), time.perf_counter()
                try:
                    out = job()
                except Exception:  # a failed job is counted, the run goes on
                    if tracer is not None:
                        tracer.close_job()
                    failed += 1
                    print(f"bench: job {label} raised:\n{traceback.format_exc()}",
                          file=sys.stderr)
                    continue
                wall.append(time.perf_counter() - w0)
                cpu.append(time.process_time() - c0)
                if tracer is not None:
                    for name, value in wl.counters(out).items():
                        tracer.add(name, value)
                    tracer.close_job()
                job_problems = wl.check(inputs, label, out, refs.get(label))
                wl.cleanup(out)
                if job_problems:
                    failed += 1
                    correct = False
                    for msg in job_problems:
                        print(f"bench: job {label}: {msg}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        done = len(wall)
        layer = tracer.layer_metrics(done)
        layer["trace.job_s.p50"] = (statistics.median(wall) if wall else 0.0, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "job_s.p50": {"value": statistics.median(wall) if wall else 0.0, "unit": "s"},
            "core_s.p50": {"value": statistics.median(cpu) if cpu else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload, seed=seed, seconds=seconds, trace=trace,
                  environment=ENVIRONMENT, import_s=import_s, prep_s=prep,
                  warmup_s=warmup_s, job_wall_s=wall, job_cpu_s=cpu,
                  peak_rss_mb=peak_rss_mb)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()),
                                                    encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "figures", "verify", "chirped"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
