"""Spans and counters at the layer boundaries of ramanpulse.

The benchmark wraps the public functions and methods where each layer is
entered, in every module namespace that binds them (a name imported with
`from .x import y` is a second binding of the same function), so no call
escapes the wrapper. A span records its job, its own id, its parent's id,
its name, and its start and end on `time.perf_counter`. Hot functions whose
own span would cost more than it tells get a call counter instead.

Spans and counts are recorded only while a job is open; the set-up and the
checks run through the same wrappers without recording.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _evaluations(result):
    return result.provenance["evaluations"]


def _nfev(result):
    return result.nfev


# (module, function, span name, counter fed from the result, its getter)
FUNCTION_SPANS = (
    ("optimize", "optimize_shape", "optimize.optimize_shape",
     "optimize.candidates", _evaluations),
    ("optimize", "optimize_duration", "optimize.optimize_duration",
     "optimize.candidates", _evaluations),
    ("depletion", "g_matrix", "depletion.g_matrix", None, None),
    ("depletion", "analytic_profile", "depletion.analytic_profile", None, None),
    ("depletion", "integrated_depletion_analytic",
     "depletion.integrated_depletion_analytic", None, None),
    ("depletion", "integrated_depletion_numeric",
     "depletion.integrated_depletion_numeric", None, None),
    ("bounds", "compute_bounds", "bounds.compute_bounds", None, None),
    ("trajectory", "max_efficiency", "trajectory.max_efficiency", None, None),
    ("trajectory", "closed_form_trajectory", "trajectory.closed_form_trajectory",
     None, None),
    ("verify", "integrate_nonhermitian", "verify.integrate_nonhermitian",
     "verify.integrate_nonhermitian.nfev", _nfev),
    ("verify", "lindblad_simulate", "verify.lindblad_simulate",
     "verify.lindblad_simulate.nfev", _nfev),
    ("verify", "compare", "verify.compare", None, None),
    ("cli", "main", "cli.main", None, None),
)
# (module, class, method, span name)
METHOD_SPANS = (
    ("trajectory", "ClosedFormSolution", "__init__", "trajectory.ClosedFormSolution"),
    ("trajectory", "ClosedFormSolution", "Omega", "trajectory.Omega"),
)
# (module, class or None, function or method, counter)
CALL_COUNTERS = (
    ("depletion", None, "depletion_rate", "depletion.depletion_rate.calls"),
    ("pulse", "CosineSeriesPulse", "_eval", "pulse.eval.calls"),
    ("pulse", "CosineSeriesPulse", "f", "pulse.f.calls"),
    ("pulse", "CosineSeriesPulse", "df", "pulse.df.calls"),
    ("pulse", "CosineSeriesPulse", "d2f", "pulse.d2f.calls"),
    ("pulse", "CosineSeriesPulse", "cumulative_norm", "pulse.cumulative_norm.calls"),
)

# spans reported as self time (".s") and as call counts (".calls")
SELF_TIMES = ("optimize.optimize_shape", "optimize.optimize_duration",
              "depletion.g_matrix", "depletion.analytic_profile",
              "depletion.integrated_depletion_numeric", "bounds.compute_bounds",
              "trajectory.max_efficiency", "trajectory.ClosedFormSolution",
              "trajectory.Omega", "trajectory.closed_form_trajectory",
              "verify.integrate_nonhermitian", "verify.lindblad_simulate",
              "verify.compare", "cli.main")
SPAN_CALLS = ("depletion.g_matrix", "depletion.analytic_profile",
              "depletion.integrated_depletion_analytic",
              "depletion.integrated_depletion_numeric", "bounds.compute_bounds",
              "trajectory.max_efficiency", "trajectory.ClosedFormSolution",
              "trajectory.Omega")
COUNTERS = tuple(c for *_, c in CALL_COUNTERS) + (
    "verify.integrate_nonhermitian.nfev", "verify.lindblad_simulate.nfev",
    "optimize.candidates", "cli.bytes_written")


class Tracer:
    """In-memory spans and counters, one job at a time."""

    def __init__(self):
        self.spans = []          # (job, id, parent, name, start, end)
        self.counts = Counter()
        self.job = None          # None: not recording
        self._stack = []

    def open_job(self, job: int):
        self.job = job
        self._stack = []

    def close_job(self):
        self.job = None

    def add(self, counter: str, value):
        if self.job is not None:
            self.counts[counter] += value

    def span(self, name, fn, counter=None, getter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (self.job, sid, parent, name, start, end)
            if counter is not None:
                self.counts[counter] += getter(out)
            return out
        return wrapper

    def counted(self, counter, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is not None:
                self.counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        """Wrap every layer entry point of the imported ramanpulse package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ramanpulse" or n.startswith("ramanpulse."))]

        def module(name):
            return sys.modules[f"ramanpulse.{name}"]

        for mod, fname, name, counter, getter in FUNCTION_SPANS:
            orig = getattr(module(mod), fname)
            _rebind(modules, orig, self.span(name, orig, counter, getter))
        for mod, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(module(mod), cls_name)
            setattr(cls, meth, self.span(name, cls.__dict__[meth]))
        for mod, cls_name, fname, counter in CALL_COUNTERS:
            if cls_name is None:
                orig = getattr(module(mod), fname)
                _rebind(modules, orig, self.counted(counter, orig))
            else:
                cls = getattr(module(mod), cls_name)
                setattr(cls, fname, self.counted(counter, cls.__dict__[fname]))

    def layer_metrics(self, n_jobs: int) -> dict:
        """Per-job self times, call counts and counters: {name: (value, unit)}."""
        self_time = defaultdict(float)
        inclusive = defaultdict(float)
        calls = Counter()
        for _job, _sid, parent, name, start, end in self.spans:
            dur = end - start
            self_time[name] += dur
            inclusive[name] += dur
            calls[name] += 1
            if parent >= 0:
                self_time[self.spans[parent][3]] -= dur
        n = max(n_jobs, 1)
        out = {f"{name}.s": (self_time[name] / n, "s") for name in SELF_TIMES}
        out.update({f"{name}.calls": (calls[name] / n, "count") for name in SPAN_CALLS})
        out.update({c: (self.counts[c] / n,
                        "bytes" if c == "cli.bytes_written" else "count")
                    for c in COUNTERS})
        opt_s = inclusive["optimize.optimize_shape"] + inclusive["optimize.optimize_duration"]
        out["optimize.candidates_per_s"] = (
            self.counts["optimize.candidates"] / opt_s if opt_s > 0 else 0.0, "1/s")
        return out

    def dump(self) -> dict:
        return {"fields": ["job", "id", "parent", "name", "start", "end"],
                "spans": self.spans, "counts": dict(self.counts)}


def _rebind(modules, orig, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapper)
