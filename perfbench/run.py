"""driftlab benchmark: one workload per process, one caller in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload {fingerprint,attack} \\
        --seed N --seconds S --trace {0,1}

The program is imported from ``src/`` of the checkout the command runs in.
Every input is derived from ``--seed``.  A round issues the workload's fixed
list of operations back to back; whole rounds repeat until their timed total
is as near ``--seconds`` as they can bring it (at least one round), and every
output of every round is checked outside the timed region.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
Result and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fingerprint", "attack")
SETUP_SAMPLES = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process that only sets up, for setup_s.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workload(args, workdir):
    """Import driftlab from the checkout and build the workload's operations."""
    sys.path.insert(0, SRC)
    import workloads    # imports no numpy; driftlab comes first in setup()

    ops = workloads.setup(args.workload, args.seed, ROOT, workdir)
    module = sys.modules["driftlab"].__file__
    if os.path.commonpath([module, SRC]) != SRC:
        raise SystemExit(f"driftlab was imported from {module}, not {SRC}")
    return ops


def setup_seconds(args, workdir) -> float:
    """Median time from starting a fresh interpreter until its workload's
    first operation is ready, over SETUP_SAMPLES child processes."""
    samples = []
    for i in range(SETUP_SAMPLES):
        child_dir = os.path.join(workdir, f"setup-{i}")
        os.mkdir(child_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only",
               "--workdir", child_dir]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line != b"ready\n":
            raise SystemExit(f"setup child exited {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    def record(self, op, output, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"{op.name}: raised\n{error}", file=sys.stderr)
            return
        problem = op.check(output)
        if problem is None:
            return
        if op.known_fault is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {op.known_fault}: {problem}", file=sys.stderr)
        else:
            self.wrong.append(f"{op.name}: {problem}")
            print(f"WRONG {op.name}: {problem}", file=sys.stderr)


def run_round(ops, tally, tracer=None) -> float:
    """Issue every operation once, back to back; return the timed seconds.
    Outputs are checked after the clock stops, with no tracer installed."""
    results = []
    installed = tracer.installed() if tracer is not None else contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        for op in ops:
            try:
                results.append((op.run(), None))
            except Exception:      # counted as a failed operation
                results.append((None, traceback.format_exc()))
        elapsed = time.perf_counter() - start
    for op, (output, error) in zip(ops, results):
        tally.record(op, output, error)
    return elapsed


def rounds(ops, tally, seconds) -> list[float]:
    """Whole rounds whose timed total comes nearest to ``seconds``: one more
    round is run while a round of the median length so far would bring the
    total nearer to it."""
    times = []
    while not times or sum(times) + statistics.median(times) / 2.0 < seconds:
        times.append(run_round(ops, tally))
    return times


def measure(args, workdir) -> tuple[Tally, dict, list]:
    if args.trace:
        return measure_traced(args, workdir)
    setup_s = setup_seconds(args, workdir)
    ops = load_workload(args, workdir)
    tally = Tally()
    times = rounds(ops, tally, args.seconds)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The mean, not the median, of the round times: this host's speed drifts
    # over tens of seconds rather than spiking, so every round measured
    # narrows run_s (README, "Noise").
    metrics = {"setup_s": setup_s, "run_s": statistics.fmean(times),
               "peak_rss_mb": peak_kib / 1024.0}
    return tally, metrics, times


def measure_traced(args, workdir) -> tuple[Tally, dict, list]:
    """Half the time untraced, half traced: the difference of the two
    mean round times is the tracing overhead."""
    import tracing

    ops = load_workload(args, workdir)
    tally = Tally()
    tracer = tracing.Tracer()
    plain, traced = [], []
    # Alternate so both halves see the same machine conditions.
    while sum(plain) < args.seconds / 2.0 or sum(traced) < args.seconds / 2.0:
        if sum(plain) <= sum(traced):
            plain.append(run_round(ops, tally))
        else:
            traced.append(run_round(ops, tally, tracer))
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.run_s"] = statistics.fmean(traced)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.fmean(plain)
    peaks = []
    if metrics["rtc.step.ticks"]:
        # One more round, with tracemalloc on inside rtc.step only.
        with tracing.step_peak_alloc(peaks):
            run_round(ops, tally)
    metrics["rtc.step.peak_alloc_mb"] = max(peaks, default=0.0)
    metrics.update(tracing.import_times(sys.executable, SRC))
    tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return tally, metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "driftlab", "__init__.py")):
        print(f"no driftlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        load_workload(args, args.workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        tally, values, times = measure(args, workdir)
    finally:
        shutil.rmtree(workdir)
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=times), fh, indent=1)
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed, "
          f"{len(tally.wrong)} wrong")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
