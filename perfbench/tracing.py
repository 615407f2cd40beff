"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each function in ``TARGETS`` with a wrapper
in every driftlab module namespace that binds it (``planner`` imports
``step_with_events`` by name, ``cli`` imports ``simulate_plan`` by name, and
so on) and restores the originals on exit.  Meanwhile each call appends a
span (name, start, end, parent, work counts) to an in-memory list;
``layer_metrics`` turns the spans into self times, call counts and work
counts per round.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict


def _ticks(config, before, after):
    return round((after.rtc_time - before.rtc_time) / config.tick_period)


def _simulate_plan_counts(args, result):
    before = args.get("state")
    start = 0.0 if before is None else before.rtc_time
    config = args["config"]
    return {"bursts": len(args["plan"].bursts),
            "ticks": round((result.state.rtc_time - start) / config.tick_period)}


# (span name, module, attribute, work counts from (bound arguments, result))
TARGETS = [
    ("config.load_scenario", "driftlab.config", "load_scenario", None),
    ("cli.main", "driftlab.cli", "main", None),
    ("lamb.solve_dispersion", "driftlab.lamb", "solve_dispersion", None),
    ("chain.induced_signal", "driftlab.chain", "ChainContext.induced_signal", None),
    ("signals.superpose", "driftlab.signals", "superpose", None),
    ("planner.calibrate_phase_map", "driftlab.planner", "calibrate_phase_map", None),
    ("planner.plan_backward", "driftlab.planner", "plan_backward", None),
    ("planner.plan_forward", "driftlab.planner", "plan_forward", None),
    ("planner.simulate_plan", "driftlab.planner", "simulate_plan",
     _simulate_plan_counts),
    ("rtc.apply_phase_advance_with_events", "driftlab.rtc",
     "apply_phase_advance_with_events", None),
    ("rtc.with_injection", "driftlab.rtc", "with_injection", None),
    ("rtc.step_with_events", "driftlab.rtc", "step_with_events", None),
    ("rtc.run_uniform_train", "driftlab.rtc", "run_uniform_train",
     lambda a, r: {"ticks": _ticks(a["config"], a["state"], r.state)}),
    ("rtc.step", "driftlab.rtc", "step",
     lambda a, r: {"ticks": _ticks(a["config"], a["state"], r)}),
    ("fingerprint.build_template_bank", "driftlab.fingerprint",
     "build_template_bank", None),
    ("fingerprint.synthesize", "driftlab.fingerprint", "synthesize", None),
    ("fingerprint.scale", "driftlab.fingerprint", "scale", None),
    ("fingerprint.denoise", "driftlab.fingerprint", "denoise", None),
    ("fingerprint.classify", "driftlab.fingerprint", "classify", None),
    ("wavelet.dwt", "driftlab._wavelet", "dwt", None),
    ("wavelet.idwt", "driftlab._wavelet", "idwt", None),
    ("wavelet.denoise", "driftlab._wavelet", "denoise", None),
]


def _lookup(module_name, attr):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def _patched(replacements):
    """Bind each ``original -> wrapper`` pair in every driftlab namespace
    (modules, and the class that owns a method) for the ``with`` body."""
    undo = []
    try:
        owners = [m for n, m in list(sys.modules.items())
                  if n == "driftlab" or n.startswith("driftlab.")]
        for owner, name, wrapper in replacements:
            original = vars(owner)[name]
            targets = [owner] if isinstance(owner, type) else owners
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        undo.append((target, key, original))
        yield
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, counts]
        self._stack = []

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = count(bound.arguments, result)
            return result

        return wrapper

    def installed(self):
        replacements = []
        for name, module, attr, count in TARGETS:
            if module not in sys.modules:
                continue          # a workload that never imports it
            owner, key = _lookup(module, attr)
            replacements.append((owner, key, self._wrap(name, vars(owner)[key], count)))
        return _patched(replacements)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "counts": counts}) + "\n")

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round means of every span-derived per-layer metric."""
        total = defaultdict(float)
        children = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        for name, start, end, parent, counts in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                children[self.spans[parent][0]] += end - start
            for key, value in (counts or {}).items():
                work[f"{name}.{key}"] += value

        def self_s(name):
            return total[name] - children[name]

        m = {}
        for name in ("fingerprint.build_template_bank", "fingerprint.synthesize",
                     "fingerprint.scale", "fingerprint.denoise", "wavelet.dwt",
                     "wavelet.idwt", "lamb.solve_dispersion",
                     "planner.calibrate_phase_map", "config.load_scenario",
                     "planner.simulate_plan", "rtc.apply_phase_advance_with_events",
                     "rtc.with_injection", "rtc.step_with_events",
                     "rtc.run_uniform_train", "rtc.step"):
            m[f"{name}.s"] = total[name]
        for name in ("fingerprint.synthesize", "fingerprint.denoise",
                     "lamb.solve_dispersion", "chain.induced_signal",
                     "signals.superpose", "rtc.apply_phase_advance_with_events",
                     "rtc.with_injection", "rtc.step_with_events"):
            m[f"{name}.calls"] = calls[name]
        # fingerprint.denoise's only traced child is _wavelet.denoise, so
        # its self time is the band-pass filter.
        m["fingerprint.bandpass_s"] = self_s("fingerprint.denoise")
        m["wavelet.denoise.self_s"] = self_s("wavelet.denoise")
        m["fingerprint.classify.self_s"] = self_s("fingerprint.classify")
        m["cli.main.self_s"] = self_s("cli.main")
        m["planner.plan.s"] = total["planner.plan_backward"] + total["planner.plan_forward"]
        for key in ("planner.simulate_plan.bursts", "planner.simulate_plan.ticks",
                    "rtc.run_uniform_train.ticks", "rtc.step.ticks"):
            m[key] = work[key]
        m = {k: v / rounds for k, v in m.items()}
        for name in ("rtc.run_uniform_train", "rtc.step"):
            ticks = m[f"{name}.ticks"]
            m[f"{name}.us_per_tick"] = 1e6 * m[f"{name}.s"] / ticks if ticks else 0.0
        return m


@contextlib.contextmanager
def step_peak_alloc(peaks: list):
    """Record the tracemalloc peak of every rtc.step call, in MB."""
    owner, key = _lookup("driftlab.rtc", "step")
    step = vars(owner)[key]

    @functools.wraps(step)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return step(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    with _patched([(owner, key, wrapper)]):
        yield


def import_times(python: str, src: str, samples: int = 3) -> dict:
    """Cumulative import time of driftlab and of scipy.signal within it, in
    seconds, from ``python -X importtime`` in fresh interpreters (medians)."""
    seen = defaultdict(list)
    code = f"import sys; sys.path.insert(0, {src!r}); import driftlab"
    for _ in range(samples):
        proc = subprocess.run([python, "-X", "importtime", "-c", code],
                              capture_output=True, text=True, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:"):
                try:
                    found[parts[2].strip()] = int(parts[1]) * 1e-6
                except ValueError:
                    continue      # the header line
        for module in ("driftlab", "scipy.signal"):
            seen[module].append(found.get(module, 0.0))
    return {"import.driftlab_s": statistics.median(seen["driftlab"]),
            "import.scipy_signal_s": statistics.median(seen["scipy.signal"])}
