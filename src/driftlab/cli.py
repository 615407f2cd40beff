"""Scenario runner: one subcommand per pipeline, CSV/JSON-lines out.

Exit codes: 0 success, 1 output pipe closed by its reader, 2 configuration
or input validation failure, 3 infeasible plan, 4 numeric failure.  Given
the same config file and seed, every subcommand writes byte-identical output
on every run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .config import ConfigError, Scenario, load_scenario
from .effects import (
    DeflationStallError,
    SubnormalShiftError,
    bp_error,
    damping_attenuation,
    rtc_drift_to_bp,
    synth_output_freq,
)
from .fingerprint import (
    capture_length,
    classify,
    load_trace_bin,
    load_trace_csv,
    synthesize,
)
from .lamb import NoRootError, dispersion_residual, solve_dispersion
from .planner import (
    CalibrationError,
    FreezeRiskError,
    InfeasiblePlanError,
    calibrate_phase_map,
    export_plan_jsonl,
    forward_offsets,
    plan_backward,
    plan_forward,
    simulate_plan,
    stall_gap,
)
from .rtc import PlanError, initial_state

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
# Most points one --sweep may ask for, refused before anything is allocated.
SWEEP_STEPS_MAX = 100_000
# Most tick rows ``simulate`` may write, refused before the header: about 46
# days at a 1 s tick, or 65 minutes at the 32-bit mode's 0.98 ms.  ``plan``
# and ``simulate`` refuse a plan of more bursts before their first line.
SIMULATE_ROWS_MAX = 4_000_000


class _Output:
    """Deterministic text sink: stdout, or a file that changes only on success.

    A regular (or new) ``--out`` file is written through a temporary file
    beside it, which replaces it when the subcommand returns and is removed
    when it raises, so a refusal leaves an existing file as it was.  Every
    subcommand returns EXIT_OK or raises.  Devices and pipes are written
    directly.
    """

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self._fh = self._tmp = None
        if self.path is None or self.path == "-":
            return sys.stdout
        target = os.path.realpath(self.path)
        if os.path.exists(target) and not os.path.isfile(target):
            self._fh = open(self.path, "w", newline="", encoding="utf-8")
            return self._fh
        head, tail = os.path.split(target)
        self._target = target
        self._tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            self._fh = open(self._tmp, "w", newline="", encoding="utf-8")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.path) from None
        return self._fh

    def __exit__(self, exc_type, exc, tb):
        if self._fh is not None:
            self._fh.close()
        if self._tmp is not None:
            try:
                if exc_type is None:
                    os.replace(self._tmp, self._target)
            finally:
                if os.path.exists(self._tmp):
                    os.unlink(self._tmp)
        return False


def _csv_writer(fh):
    return csv.writer(fh, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")


def _fmt(value) -> str:
    # A NumPy float is a float, but its own repr names its type.
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _tick_rows(first: int, wall_times, rtc_times) -> str:
    """``simulate``'s CSV rows for consecutive ticks numbered from ``first``.
    No field holds a comma or a quote, so these are the lines ``csv.writer``
    would write."""
    ticks = zip(range(first, first + len(wall_times)), wall_times.tolist(),
                rtc_times.tolist(), (rtc_times - wall_times).tolist())
    return "".join(f"{i},{w!r},{r!r},{d!r}\n" for i, w, r, d in ticks)


def _parse_sweep(text: str):
    """key=start:stop:steps -> (key, inclusive linspace as Python floats)."""
    try:
        key, spec = text.split("=", 1)
        start_s, stop_s, steps_s = spec.split(":")
        start, stop, steps = float(start_s), float(stop_s), int(steps_s)
    except ValueError:
        raise ConfigError(
            [f"--sweep: expected key=start:stop:steps, got {text!r}"]
        ) from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(
            [f"--sweep: start and stop must be finite, got {start}:{stop}"]
        )
    if not 1 <= steps <= SWEEP_STEPS_MAX:
        raise ConfigError(
            [f"--sweep: steps must be in [1, {SWEEP_STEPS_MAX}], got {steps}"]
        )
    if not math.isfinite(stop - start):
        raise ConfigError([f"--sweep {key}: the span {stop!r} - {start!r} is "
                           "not finite"])
    # Every point then lies between start and stop, so it is finite too.
    values = np.linspace(start, stop, steps).tolist() if steps > 1 else [start]
    return key, values


def _cmd_dispersion(scenario: Scenario, sweep, fh) -> int:
    writer = _csv_writer(fh)
    writer.writerow(
        ["medium", "thickness_mm", "freq_hz", "c_s_m_per_s", "k_a_rad_per_m",
         "residual"]
    )
    freq = scenario.rtc.nominal_freq
    thickness_mm = scenario.medium.thickness * 1e3
    # The thickness goes through millimetres and back, as the swept ones do.
    medium = replace(scenario.medium, thickness=thickness_mm * 1e-3)
    if sweep is None:
        points = [(thickness_mm, medium, freq)]
    elif sweep[0] == "freq_hz":
        points = [(thickness_mm, medium, v) for v in sweep[1]]
    else:
        # Lazily, so a bad thickness is refused only when it is reached.
        points = ((v, replace(medium, thickness=v * 1e-3), freq) for v in sweep[1])
    for d_mm, medium, f in points:
        mode = solve_dispersion(medium, f)
        residual = dispersion_residual(medium, mode.omega, mode.k_a)
        writer.writerow(
            [medium.name, _fmt(d_mm), _fmt(f), _fmt(mode.c_s),
             _fmt(mode.k_a), _fmt(residual)]
        )
    return EXIT_OK


def _cmd_calibrate(scenario: Scenario, sweep, fh) -> int:
    context = scenario.context()
    z = scenario.transducer.position
    phase_map = calibrate_phase_map(context, z, scenario.phase_grid)
    writer = _csv_writer(fh)
    writer.writerow(["z_m", "phi_rad", "beta1_rad"])
    for i in range(scenario.phase_grid):
        phi = i * phase_map.grid_resolution
        writer.writerow([_fmt(z), _fmt(phi), _fmt(phase_map.beta1_at(z, phi))])
    return EXIT_OK


def _build_plan(scenario: Scenario):
    if scenario.goal is None:
        raise ConfigError(["$.goal: required for plan/simulate"])
    context = scenario.context()
    amplitude = context.injected_amplitude()
    if scenario.goal.direction == "backward":
        # A stall needs the opposing injection to hold the superposed
        # amplitude |A - a| at or below the trigger threshold.
        rtc = scenario.rtc
        if abs(rtc.nominal_amplitude - amplitude) > rtc.trigger_threshold:
            raise InfeasiblePlanError(
                f"injected amplitude {amplitude!r} V cannot stall a "
                f"{rtc.nominal_amplitude!r} V oscillation: |A - a| exceeds the "
                f"{rtc.trigger_threshold!r} V trigger threshold",
                constraint="|nominal_amplitude - amplitude| <= trigger_threshold",
            )
        return plan_backward(
            scenario.goal,
            scenario.attack.burst_duration,
            amplitude=amplitude,
            frequency=scenario.rtc.nominal_freq,
        )
    return plan_forward(
        scenario.goal,
        scenario.attack.t1,
        scenario.attack.phase_step,
        amplitude=amplitude,
        frequency=scenario.rtc.nominal_freq,
    )


def _refuse_plan(scenario: Scenario, plan) -> None:
    """Refuse, before any output, a plan of more bursts than ``plan`` may
    write lines, then a forward plan with a burst that would not lead, or a
    backward plan whose longest wait for an edge, from the last before a
    stall to the first after it, reaches the freeze timeout."""
    if plan.bursts.count > SIMULATE_ROWS_MAX:
        raise ConfigError([
            f"$.goal: the plan has {plan.bursts.count:.6g} bursts, above the "
            f"cap of {SIMULATE_ROWS_MAX} bursts"
        ])
    timeout = scenario.rtc.freeze_timeout
    if scenario.goal.direction == "forward":
        forward_offsets(plan, scenario.rtc)
    elif timeout is not None:
        gap = stall_gap(plan, scenario.rtc, max(scenario.goal.window, plan.span))
        if gap >= timeout:
            raise FreezeRiskError(
                f"a stall leaves {gap!r} s between two edges, which reaches the "
                f"freeze timeout ({timeout!r} s)"
            )


def _cmd_plan(scenario: Scenario, sweep, fh) -> int:
    plan = _build_plan(scenario)
    _refuse_plan(scenario, plan)
    export_plan_jsonl(plan, fh)
    return EXIT_OK


def _cmd_simulate(scenario: Scenario, sweep, fh) -> int:
    plan = _build_plan(scenario)
    until = max(scenario.goal.window, plan.span)
    tick_period = scenario.rtc.tick_period
    rows = until / tick_period + 1.0
    if not rows <= SIMULATE_ROWS_MAX:
        raise ConfigError([
            f"$.goal.window_a_s: a {until!r} s run at a {tick_period!r} s tick "
            f"period is about {rows:.6g} rows, above the cap of "
            f"{SIMULATE_ROWS_MAX} rows"
        ])
    _refuse_plan(scenario, plan)
    writer = _csv_writer(fh)
    writer.writerow(["tick_index", "wall_time_s", "rtc_time_s", "drift_s"])
    written = 0

    def write_ticks(wall_times, rtc_times):
        nonlocal written
        fh.write(_tick_rows(written, wall_times, rtc_times))
        written += len(wall_times)

    run = simulate_plan(plan, scenario.rtc, initial_state(scenario.rtc),
                        until=until, sink=write_ticks)
    writer.writerow(
        ["end", _fmt(run.state.wall_time), _fmt(run.state.rtc_time),
         _fmt(run.drift)]
    )
    return EXIT_OK


def _cmd_classify(scenario: Scenario, sweep, fh) -> int:
    if scenario.capture is None or scenario.capture_source is None:
        raise ConfigError(["$.fingerprint: capture settings and trace required"])
    source = scenario.capture_source
    if "profile" in source:
        wanted = source["profile"]
        matches = [p for p in scenario.library if p.label == wanted]
        if not matches:
            raise ConfigError(
                [f"$.fingerprint.trace.profile: unknown label {wanted!r}"]
            )
        trace = synthesize(matches[0], scenario.capture, seed=scenario.seed)
    else:
        path = source["file"]
        loader = load_trace_bin if str(path).endswith(".bin") else load_trace_csv
        n = capture_length(scenario.capture)
        trace = loader(path, n)
        if trace.sample_rate != scenario.capture.sample_rate:
            raise ConfigError([
                f"$.fingerprint.sample_rate_hz: {scenario.capture.sample_rate} Hz, "
                f"but {path} is sampled at {trace.sample_rate} Hz"
            ])
        if len(trace) != n:
            raise ConfigError([
                f"$.fingerprint.duration_s: {scenario.capture.duration} s is "
                f"{n} samples, but {path} holds {len(trace)}"
            ])
    label, confidences = classify(
        trace, scenario.library, scenario.capture,
        threshold=scenario.confidence_threshold,
    )
    writer = _csv_writer(fh)
    writer.writerow(["label", "confidence", "selected"])
    for name in sorted(confidences):
        writer.writerow([name, _fmt(confidences[name]), str(name == label).lower()])
    writer.writerow(["unknown" if label is None else label, "", "result"])
    return EXIT_OK


def _cmd_bp(scenario: Scenario, sweep, fh) -> int:
    if scenario.bp is None:
        raise ConfigError(["$.bp: section required for the bp subcommand"])
    base = scenario.bp
    if scenario.bp_drift_rate is not None:
        base = rtc_drift_to_bp(scenario.bp_drift_rate, base, scenario.bp_tick_freq)
    if sweep is None:
        cases = [base]
    else:
        key, values = sweep
        try:
            if key == "freq_shift_hz":
                cases = [replace(base, freq_shift=v) for v in values]
            else:
                cases = [rtc_drift_to_bp(v, base, scenario.bp_tick_freq)
                         for v in values]
        except SubnormalShiftError as exc:
            raise ConfigError([f"--sweep {key}: {exc}"]) from None
    # Every row is computed before the header, so a refusal writes nothing.
    rows = []
    for s in cases:
        try:
            delta_s, delta_d, new_rate = bp_error(s)
        except DeflationStallError:
            rows.append([_fmt(s.freq_shift), "", "", "", "", "", "stall"])
            continue
        rows.append(
            [_fmt(s.freq_shift), _fmt(delta_s), _fmt(delta_d), _fmt(new_rate),
             _fmt(s.systolic + delta_s), _fmt(s.diastolic + delta_d), "ok"]
        )
    writer = _csv_writer(fh)
    writer.writerow(
        ["freq_shift_hz", "delta_systolic_mmhg", "delta_diastolic_mmhg",
         "new_rate_mmhg_per_s", "reported_systolic_mmhg",
         "reported_diastolic_mmhg", "status"]
    )
    writer.writerows(rows)
    return EXIT_OK


def _cmd_counter(scenario: Scenario, sweep, fh) -> int:
    damping = scenario.damping
    if damping is not None and sweep is None:
        top = 4.0 * damping.omega_n
        if math.isinf(top):
            raise OverflowError(
                f"$.damping: the omega_rad_s sweep runs to 4 * omega_n = "
                f"4 * {damping.omega_n!r} rad/s, which overflows"
            )
        sweep = ("omega_rad_s", np.linspace(0.0, top, 81).tolist())
    synth = scenario.clock_synth
    if synth is not None:
        output = float(synth_output_freq(synth))
        if math.isinf(output):
            raise OverflowError(f"$.clock_synth: the output frequency {synth.pll_mult!r} * "
                                f"{synth.ref_freq!r} / {synth.multisynth_div!r} Hz overflows")
    writer = _csv_writer(fh)
    writer.writerow(["section", "x", "value"])
    if damping is not None:
        for omega in sweep[1]:
            writer.writerow(
                ["h_of_omega", _fmt(omega),
                 _fmt(damping_attenuation(damping, omega))]
            )
    if synth is not None:
        writer.writerow(["synth_output_hz", "", _fmt(output)])
    return EXIT_OK


# Subcommand -> (handler, help text, the keys ``--sweep`` may name).
COMMANDS = {
    "dispersion": (_cmd_dispersion, "sweep the plate dispersion solution, emit CSV",
                   ("freq_hz", "thickness_mm")),
    "calibrate": (_cmd_calibrate, "recover the excitation-phase map, emit CSV", ()),
    "plan": (_cmd_plan, "generate an attack plan, emit JSON lines", ()),
    "simulate": (_cmd_simulate,
                 "run a plan through the clock emulator, emit drift CSV", ()),
    "classify": (_cmd_classify,
                 "run the fingerprint pipeline, emit confidences CSV", ()),
    "bp": (_cmd_bp, "blood-pressure error table for timing shifts, emit CSV",
           ("freq_shift_hz", "drift_rate")),
    "counter": (_cmd_counter,
                "countermeasure curves (damping, synthesizer), emit CSV",
                ("omega_rad_s",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it:
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Deterministic simulator of acoustic timing-drift attacks "
                    "on RTC circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        # A command with no sweep keys refuses --sweep by name, in ``run``.
        p.add_argument("--sweep", default=None, metavar="KEY=START:STOP:STEPS",
                       help=f"sweep {' or '.join(keys)} over an inclusive range"
                       if keys else argparse.SUPPRESS)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    handler, _, keys = COMMANDS[args.command]
    sweep = None
    if args.sweep:
        if not keys:
            raise ConfigError([f"--sweep: {args.command} takes no sweep, "
                               f"got {args.sweep!r}"])
        sweep = _parse_sweep(args.sweep)
        if sweep[0] not in keys:
            raise ConfigError([f"--sweep: {args.command} sweeps "
                               f"{' or '.join(keys)}, got {sweep[0]!r}"])
    with _Output(args.out) as fh:
        return handler(scenario, sweep, fh)


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        for line in exc.diagnostics:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasiblePlanError, FreezeRiskError, PlanError) as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoRootError, CalibrationError, DeflationStallError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ArithmeticError as exc:  # an overflow or a division by zero in a model
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # The reader stopped early, which is no bad input.  Standard output
        # goes to the null device, so the flush at exit cannot raise again.
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            stdout = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
