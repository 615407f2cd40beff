"""Scenario runner: one subcommand per pipeline, CSV/JSON-lines out.

Exit codes: 0 success, 2 configuration or input validation failure,
3 infeasible plan, 4 numeric failure.  Given the same config file and seed,
every subcommand writes byte-identical output on every run.
"""

from __future__ import annotations

import argparse
import csv
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
from .lamb import NoRootError, dispersion_residual, load_media, solve_dispersion
from .planner import (
    CalibrationError,
    FreezeRiskError,
    InfeasiblePlanError,
    calibrate_phase_map,
    export_plan_jsonl,
    plan_backward,
    plan_forward,
    simulate_plan,
)
from .rtc import PlanError, initial_state

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
# Most points one --sweep may ask for, refused before anything is allocated.
SWEEP_STEPS_MAX = 100_000


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
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_sweep(text: str):
    """key=start:stop:steps -> (key, inclusive linspace)."""
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
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    return key, values


def _cmd_dispersion(scenario: Scenario, sweep, fh) -> int:
    writer = _csv_writer(fh)
    writer.writerow(
        ["medium", "thickness_mm", "freq_hz", "c_s_m_per_s", "k_a_rad_per_m",
         "residual"]
    )
    freq = scenario.rtc.nominal_freq
    thickness_mm = scenario.medium.thickness * 1e3
    if sweep is None:
        points = [(thickness_mm, freq)]
    else:
        key, values = sweep
        if key == "freq_hz":
            points = [(thickness_mm, v) for v in values]
        elif key == "thickness_mm":
            points = [(v, freq) for v in values]
        else:
            raise ConfigError(
                [f"--sweep: dispersion sweeps freq_hz or thickness_mm, got {key!r}"]
            )
    for d_mm, f in points:
        media = load_media(
            thickness=d_mm * 1e-3,
            attenuation_ratio=scenario.medium.attenuation_ratio,
        )
        medium = media[scenario.medium.name]
        mode = solve_dispersion(medium, f)
        residual = dispersion_residual(medium, mode.omega, mode.k_a)
        writer.writerow(
            [medium.name, _fmt(float(d_mm)), _fmt(float(f)), _fmt(mode.c_s),
             _fmt(mode.k_a), _fmt(residual)]
        )
    return EXIT_OK


def _cmd_calibrate(scenario: Scenario, fh) -> int:
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
            scenario.rtc.freeze_timeout,
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


def _cmd_plan(scenario: Scenario, fh) -> int:
    plan = _build_plan(scenario)
    export_plan_jsonl(plan, fh)
    return EXIT_OK


def _cmd_simulate(scenario: Scenario, fh) -> int:
    plan = _build_plan(scenario)
    state = initial_state(scenario.rtc)
    until = max(scenario.goal.window, plan.span)
    run = simulate_plan(plan, scenario.rtc, state, until=until)
    writer = _csv_writer(fh)
    writer.writerow(["tick_index", "wall_time_s", "rtc_time_s", "drift_s"])
    for i, tick in enumerate(run.ticks):
        writer.writerow(
            [i, _fmt(tick.time), _fmt(tick.rtc_time),
             _fmt(tick.rtc_time - tick.time)]
        )
    writer.writerow(
        ["end", _fmt(run.state.wall_time), _fmt(run.state.rtc_time),
         _fmt(run.drift)]
    )
    return EXIT_OK


def _cmd_classify(scenario: Scenario, fh) -> int:
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
        trace = loader(path)
        if trace.sample_rate != scenario.capture.sample_rate:
            raise ConfigError([
                f"$.fingerprint.sample_rate_hz: {scenario.capture.sample_rate} Hz, "
                f"but {path} is sampled at {trace.sample_rate} Hz"
            ])
        n = capture_length(scenario.capture)
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
                cases = [replace(base, freq_shift=float(v)) for v in values]
            elif key == "drift_rate":
                cases = [
                    rtc_drift_to_bp(float(v), base, scenario.bp_tick_freq)
                    for v in values
                ]
            else:
                raise ConfigError(
                    [f"--sweep: bp sweeps freq_shift_hz or drift_rate, got {key!r}"]
                )
        except SubnormalShiftError as exc:
            raise ConfigError([f"--sweep {key}: {exc}"]) from None
    writer = _csv_writer(fh)
    writer.writerow(
        ["freq_shift_hz", "delta_systolic_mmhg", "delta_diastolic_mmhg",
         "new_rate_mmhg_per_s", "reported_systolic_mmhg",
         "reported_diastolic_mmhg", "status"]
    )
    for s in cases:
        try:
            delta_s, delta_d, new_rate = bp_error(s)
        except DeflationStallError:
            writer.writerow([_fmt(s.freq_shift), "", "", "", "", "", "stall"])
            continue
        writer.writerow(
            [_fmt(s.freq_shift), _fmt(delta_s), _fmt(delta_d), _fmt(new_rate),
             _fmt(s.systolic + delta_s), _fmt(s.diastolic + delta_d), "ok"]
        )
    return EXIT_OK


def _cmd_counter(scenario: Scenario, sweep, fh) -> int:
    writer = _csv_writer(fh)
    writer.writerow(["section", "x", "value"])
    damping = scenario.damping
    if damping is not None:
        if sweep is None:
            omegas = np.linspace(0.0, 4.0 * damping.omega_n, 81)
        else:
            key, values = sweep
            if key != "omega_rad_s":
                raise ConfigError(
                    [f"--sweep: counter sweeps omega_rad_s, got {key!r}"]
                )
            omegas = values
        for omega in omegas:
            writer.writerow(
                ["h_of_omega", _fmt(float(omega)),
                 _fmt(damping_attenuation(damping, float(omega)))]
            )
    if scenario.clock_synth is not None:
        writer.writerow(
            ["synth_output_hz", "", _fmt(float(synth_output_freq(scenario.clock_synth)))]
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlab",
        description="Deterministic simulator of acoustic timing-drift attacks "
                    "on RTC circuits",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("dispersion", "sweep the plate dispersion solution, emit CSV"),
        ("calibrate", "recover the excitation-phase map, emit CSV"),
        ("plan", "generate an attack plan, emit JSON lines"),
        ("simulate", "run a plan through the clock emulator, emit drift CSV"),
        ("classify", "run the fingerprint pipeline, emit confidences CSV"),
        ("bp", "blood-pressure error table for timing shifts, emit CSV"),
        ("counter", "countermeasure curves (damping, synthesizer), emit CSV"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--sweep", default=None, metavar="KEY=START:STOP:STEPS",
                       help="sweep one quantity over an inclusive range")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    scenario = load_scenario(args.config)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    sweep = _parse_sweep(args.sweep) if args.sweep else None
    with _Output(args.out) as fh:
        if args.command == "dispersion":
            return _cmd_dispersion(scenario, sweep, fh)
        if args.command == "calibrate":
            return _cmd_calibrate(scenario, fh)
        if args.command == "plan":
            return _cmd_plan(scenario, fh)
        if args.command == "simulate":
            return _cmd_simulate(scenario, fh)
        if args.command == "classify":
            return _cmd_classify(scenario, fh)
        if args.command == "bp":
            return _cmd_bp(scenario, sweep, fh)
        if args.command == "counter":
            return _cmd_counter(scenario, sweep, fh)
        raise AssertionError(f"unhandled command {args.command}")


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
    except (ValueError, KeyError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
