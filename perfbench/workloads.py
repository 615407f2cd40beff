"""The benchmark's two workloads, each a fixed list of operations.

``setup(name, seed, root, workdir)`` imports driftlab, derives every input
from ``seed`` and returns the operations in the order one round issues them.
Each operation has a ``run`` callable, the timed call into driftlab, and a
``check`` that judges its output against ``oracles`` or a law of the
method; ``check`` returns None when the output is right, else a reason.

An operation with ``known_fault`` set is one that a named fault in the
program makes fail on every run, whatever the seed: its failed check counts
as a failed operation, not as a wrong output.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
TWO_PI = 2.0 * math.pi

F_OSC = 32768.0                       # Hz, the RTC crystal of every scenario
AMPLITUDE = 0.08                      # V, oscillation amplitude
THRESHOLD = 0.04                      # V, edge-trigger threshold
RELOAD = {"calendar": 32768, "thirtytwo_bit": 32}
PHASE_STEP = 11.0 * math.pi / 12.0    # rad, forward phase step per burst
T1 = 2e-5                             # s, forward burst length
STALL_BURST = 0.5                     # s, backward burst length

# Injected amplitude of BASE_CONFIG's transducer on these media: 0.027 V,
# 0.024 V, 0.020 V, 0.18 V and 0.28 V.  A stall needs |0.08 - a| <= 0.04,
# which none meets, yet plan_backward never checks it, so simulate exits 0
# with drift 0.0 against the -6 s goal.  A refusal with exit code 3 that
# names the amplitude constraint passes the check.
AMPLITUDE_FAULT = "backward stall amplitude outside |0.08 - a| <= 0.04"
STALL_INFEASIBLE_MEDIA = frozenset(
    {"aluminum", "stainless steel", "quartz glass", "hard rubber plastic",
     "polyethylene"}
)

# rtc._consume_crossings adds tick_period once per tick; 32 / 32000 s is not
# a binary64 number, so after 600 s rtc_time reads 599.9999999927238.
FLOAT_TICK_FAULT = "rtc_time summed tick by tick drifts from ticks * tick_period"


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    known_fault: Optional[str] = None


def setup(name: str, seed: int, root: str, workdir: str) -> list[Op]:
    if name == "fingerprint":
        return _fingerprint(seed, root, workdir)
    return _attack(seed, root, workdir) + _horizon(seed)


# --- fingerprint -------------------------------------------------------------

SAMPLE_RATE = 6e6          # Hz   criterion-9 capture settings
CAPTURE_S = 0.1            # s    (600k samples)
SNR_DB = 15.0
BANDWIDTH = 2e5            # Hz
NOISE_CAPTURES = 2


def _fingerprint(seed, root, workdir):
    from driftlab import fingerprint
    from driftlab.signals import SampledTrace

    import numpy as np

    library = fingerprint.load_profile_library()
    labels = {p.label for p in library}
    cfg = fingerprint.CaptureConfig(sample_rate=SAMPLE_RATE, duration=CAPTURE_S,
                                    snr_db=SNR_DB, bandwidth=BANDWIDTH)
    n = int(round(SAMPLE_RATE * CAPTURE_S))
    rng = np.random.default_rng(seed)
    capture_seeds = [int(s) for s in rng.integers(0, 2**32, size=len(library))]
    noise = [SampledTrace(SAMPLE_RATE, rng.normal(size=n))
             for _ in range(NOISE_CAPTURES)]
    held = {}

    def build_bank():
        held["bank"] = fingerprint.build_template_bank(library, cfg)
        return held["bank"]

    def check_bank(bank):
        if set(bank) != labels:
            return f"bank labels {sorted(bank)} != library"
        bins = BANDWIDTH * CAPTURE_S + 1.0   # rfft bins inside one band
        for label, spectrum in bank.items():
            if abs(len(spectrum) - bins) > 1.0:
                return f"{label}: {len(spectrum)} bins, expected {bins:.0f} +- 1"
            if not (np.all(np.isfinite(spectrum)) and np.all(spectrum >= 0.0)):
                return f"{label}: spectrum magnitudes not finite and >= 0"
        return None

    def classify_profile(profile, capture_seed):
        def run():
            trace = fingerprint.synthesize(profile, cfg, seed=capture_seed)
            return fingerprint.classify(trace, library, cfg, bank=held["bank"])
        return run

    def classify_noise(trace):
        return lambda: fingerprint.classify(trace, library, cfg, bank=held["bank"])

    def expect(wanted):
        def check(result):
            label, confidences = result
            if set(confidences) != labels:
                return "confidences do not cover the library"
            bad = {k: v for k, v in confidences.items() if not 0.0 <= v <= 1.0}
            if bad:
                return f"confidences outside [0, 1]: {bad}"
            if label != wanted:
                return f"labelled {label!r}, expected {wanted!r}"
            return None
        return check

    ops = [Op("build_template_bank", build_bank, check_bank)]
    for profile, capture_seed in zip(library, capture_seeds):
        ops.append(Op(f"classify[{profile.label}]",
                      classify_profile(profile, capture_seed),
                      expect(profile.label)))
    for i, trace in enumerate(noise):
        ops.append(Op(f"classify[noise-{i}]", classify_noise(trace), expect(None)))
    return ops


# --- attack ------------------------------------------------------------------

SWEEP_POINTS = 24
CALIBRATION_PROBES = (0.0, 1.7, 3.9)   # rad, the probes of criterion 8


def _read_media(root):
    path = os.path.join(root, "src", "driftlab", "data", "media.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            (row["name"].strip(), float(row["c_l_m_per_s"]),
             float(row["c_t_m_per_s"]))
            for row in csv.DictReader(fh)
        ]


def _derive(base, **sections):
    """Copy ``base`` and overwrite the given keys of its sections."""
    cfg = copy.deepcopy(base)
    for key, value in sections.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    return cfg


def _attack(seed, root, workdir):
    from driftlab import cli

    with open(os.path.join(HERE, "scenarios", "base.json"), encoding="utf-8") as fh:
        base = _derive(
            json.load(fh),
            attack={"burst_duration_s": STALL_BURST, "single_duration_t1_s": T1,
                    "phase_step_rad": PHASE_STEP},
        )
    half_thickness = 0.5e-3 * base["medium"]["thickness_mm"]
    rng = random.Random(seed)

    def write(label, cfg):
        path = os.path.join(workdir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def command(*argv):
        def run():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            return rc, err.getvalue()
        return run

    def ok(result):
        rc, err = result
        return None if rc == 0 else f"exit {rc}: {err.strip()}"

    def check_dispersion(out, c_l, c_t, lo, hi):
        def check(result):
            problem = ok(result)
            if problem:
                return problem
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != SWEEP_POINTS:
                return f"{len(rows)} rows, expected {SWEEP_POINTS}"
            for i, row in enumerate(rows):
                f = float(row["freq_hz"])
                want_f = lo + i * (hi - lo) / (SWEEP_POINTS - 1)
                if abs(f - want_f) > 1e-9 * want_f:
                    return f"row {i}: freq {f!r}, expected {want_f!r}"
                c_s = float(row["c_s_m_per_s"])
                if not 0.0 < c_s < c_t:
                    return f"{f} Hz: c_s {c_s} not in (0, c_t = {c_t})"
                ref = oracles.scan_dispersion_root(f, c_l, c_t, half_thickness)
                if abs(c_s - ref) > 1e-9 * ref:
                    return f"{f} Hz: c_s {c_s!r}, dense scan gives {ref!r}"
            return None
        return check

    def check_calibration(out, scenario_path):
        truth = {}

        def check(result):
            problem = ok(result)
            if problem:
                return problem
            with open(out, newline="", encoding="utf-8") as fh:
                rows = [(float(r["phi_rad"]), float(r["beta1_rad"]))
                        for r in csv.DictReader(fh)]
            if not truth:
                # The chain's forward model is the ground truth the
                # calibration sweep must recover (criterion 8).
                from driftlab.config import load_scenario
                scenario = load_scenario(scenario_path)
                ctx = scenario.context()
                z = scenario.transducer.position
                truth.update({p: ctx.induced_signal(p, z).phase
                              for p in CALIBRATION_PROBES})
            for probe, want in truth.items():
                phi, beta1 = min(rows, key=lambda r: oracles.circular_distance(r[0], probe))
                # Shifting the excitation phase shifts the induced phase
                # by the same amount.
                err = oracles.circular_distance(beta1 + (probe - phi), want)
                if err >= 0.05:
                    return f"probe {probe} rad: recovered phase off by {err:.4f} rad"
            return None
        return check

    def check_simulate(out, mode, expected_drift, slack, accept_refusal=False):
        tick = RELOAD[mode] / F_OSC

        def check(result):
            rc, err = result
            if accept_refusal and rc == 3 and "amplitude" in err:
                return None
            problem = ok(result)
            if problem:
                return problem
            problem, drift = oracles.check_tick_table(out, tick)
            if problem:
                return problem
            if abs(drift - expected_drift) > slack:
                return (f"drift {drift!r} s, expected {expected_drift!r} "
                        f"+- {slack:.6g} s")
            return None
        return check

    def simulate_op(label, cfg, expected, slack, known_fault=None):
        path = write(label, cfg)
        out = os.path.join(workdir, f"{label}.csv")
        return Op(f"simulate[{label}]",
                  command("simulate", "--config", path, "--out", out),
                  check_simulate(out, cfg["rtc"]["mode"], expected, slack,
                                 accept_refusal=known_fault is not None),
                  known_fault)

    def rtc_section(mode):
        return {"mode": mode, "divider_reload": RELOAD[mode]}

    ops = []
    for medium, c_l, c_t in _read_media(root):
        slug = medium.replace(" ", "-")
        cal_path = write(f"{slug}-calibrate", _derive(
            base, medium={"name": medium}, rtc=rtc_section("calendar"),
            circuit_phase_offset_rad=rng.uniform(0.0, TWO_PI)))
        lo = rng.uniform(19500.0, 20500.0)
        hi = lo + 40000.0
        out = os.path.join(workdir, f"{slug}-dispersion.csv")
        ops.append(Op(
            f"dispersion[{medium}]",
            command("dispersion", "--config", cal_path, "--out", out,
                    "--sweep", f"freq_hz={lo!r}:{hi!r}:{SWEEP_POINTS}"),
            check_dispersion(out, c_l, c_t, lo, hi)))
        out = os.path.join(workdir, f"{slug}-calibrate.csv")
        ops.append(Op(f"calibrate[{medium}]",
                      command("calibrate", "--config", cal_path, "--out", out),
                      check_calibration(out, cal_path)))
        # Fixed inputs: the goal of BASE_CONFIG, a 6 s stall in 30 s.
        window, goal = 30.0, 6.0
        ops.append(simulate_op(
            f"{slug}-backward",
            _derive(base, medium={"name": medium}, rtc=rtc_section("calendar"),
                    goal={"direction": "backward", "window_a_s": window,
                          "drift_b_s": goal}),
            -goal, oracles.backward_slack(goal, STALL_BURST, 1.0, F_OSC),
            AMPLITUDE_FAULT if medium in STALL_INFEASIBLE_MEDIA else None))

    # Forward closed-form trains: 1 s in 30 s is 71,494 bursts.
    for mode in ("calendar", "thirtytwo_bit"):
        window = 30.0 + rng.uniform(-0.25, 0.25)
        ops.append(simulate_op(
            f"forward-{mode}",
            _derive(base, rtc=rtc_section(mode),
                    goal={"direction": "forward", "window_a_s": window,
                          "drift_b_s": 1.0}),
            oracles.forward_drift(1.0 * F_OSC, PHASE_STEP, F_OSC),
            RELOAD[mode] / F_OSC))
    # A forward plan below FAST_PATH_THRESHOLD (2,000 bursts): 0.02 s is
    # 1,430 bursts, run burst by burst.  32-bit ticks resolve it.
    window = 30.0 + rng.uniform(-0.25, 0.25)
    ops.append(simulate_op(
        "forward-per-burst",
        _derive(base, rtc=rtc_section("thirtytwo_bit"),
                goal={"direction": "forward", "window_a_s": window,
                      "drift_b_s": 0.02}),
        oracles.forward_drift(0.02 * F_OSC, PHASE_STEP, F_OSC),
        RELOAD["thirtytwo_bit"] / F_OSC))
    # One hour back over one day: 7,200 stall bursts through the loop.
    window = 86400.0 + rng.randrange(600)
    ops.append(simulate_op(
        "backward-day",
        _derive(base, rtc=rtc_section("calendar"),
                goal={"direction": "backward", "window_a_s": window,
                      "drift_b_s": 3600.0}),
        -3600.0, oracles.backward_slack(3600.0, STALL_BURST, 1.0, F_OSC)))
    return ops


# --- attack: long horizons ----------------------------------------------------
# The second half of an attack round: rtc stepping and attack plans over long
# horizons through the library, without per-tick output.

STALL_AMPLITUDE = 0.1     # V, opposing injection: |0.08 - 0.1| < 0.04 stalls
DAY = 86400.0


def _horizon(seed):
    from driftlab import planner, rtc

    rng = random.Random(seed)

    def config(mode, freq=F_OSC, reload=None):
        return rtc.RtcConfig(
            nominal_freq=freq, nominal_amplitude=AMPLITUDE,
            trigger_threshold=THRESHOLD,
            divider_reload=RELOAD[mode] if reload is None else reload, mode=mode)

    def free_run(label, mode, until, phase, freq=F_OSC, reload=None,
                 known_fault=None):
        cfg = config(mode, freq, reload)
        reload = RELOAD[mode] if reload is None else reload

        def run():
            return rtc.step(rtc.initial_state(cfg, phase), cfg, until)

        def check(state):
            n = oracles.free_run_crossings(freq, until, phase, AMPLITUDE, THRESHOLD)
            ticks, rest = divmod(n, reload)
            if state.wall_time != until:
                return f"wall_time {state.wall_time!r} != {until!r}"
            if state.counter != reload - rest:
                return (f"divider at {state.counter} after {n} crossings, "
                        f"expected {reload - rest}")
            want = ticks * (reload / freq)
            if abs(state.rtc_time - want) > math.ulp(want):
                return f"rtc_time {state.rtc_time!r} after {ticks} ticks, expected {want!r}"
            return None

        return Op(f"step[{label}]", run, check, known_fault)

    def backward(cfg, window, goal, burst, phase):
        plan = planner.plan_backward(
            planner.DriftGoal(window=window, drift=goal, direction="backward"),
            burst, amplitude=STALL_AMPLITUDE, frequency=F_OSC, osc_phase=phase)
        return planner.simulate_plan(plan, cfg, rtc.initial_state(cfg, phase),
                                     until=max(window, plan.span),
                                     collect_ticks=False)

    def check_backward(run, goal, burst, mode):
        slack = oracles.backward_slack(goal, burst, RELOAD[mode] / F_OSC, F_OSC)
        if abs(run.drift + goal) > slack:
            return f"drift {run.drift!r} s, expected {-goal} +- {slack:.6g} s"
        if run.ticks:
            return f"{len(run.ticks)} tick events returned with collect_ticks=False"
        return None

    def attack_then_hold():
        cfg = config("calendar")
        phase = rng.uniform(0.0, TWO_PI)
        window, goal = 600.0, 60.0
        # A hold of whole seconds spans whole ticks, so drift is unchanged.
        hold = 2.0 * DAY + rng.randrange(3600)

        def run():
            attacked = backward(cfg, window, goal, STALL_BURST, phase)
            held = rtc.step(attacked.state, cfg, attacked.state.wall_time + hold)
            return attacked, held

        def check(result):
            attacked, held = result
            problem = check_backward(attacked, goal, STALL_BURST, "calendar")
            if problem:
                return problem
            before = attacked.state.rtc_time - attacked.state.wall_time
            after = held.rtc_time - held.wall_time
            if abs(after - before) > math.ulp(held.wall_time):
                return f"drift moved from {before!r} to {after!r} while holding"
            return None

        return Op("attack-then-hold", run, check)

    def long_backward():
        cfg = config("thirtytwo_bit")
        phase = rng.uniform(0.0, TWO_PI)
        window, goal, burst = 600.0, 300.0, 0.25     # 1,200 bursts
        return Op(
            "simulate_plan[backward-32bit]",
            lambda: backward(cfg, window, goal, burst, phase),
            lambda run: check_backward(run, goal, burst, "thirtytwo_bit"))

    return [
        free_run("calendar-3d", "calendar",
                 3.0 * DAY + rng.uniform(0.0, 3600.0), rng.uniform(0.0, TWO_PI)),
        free_run("32bit-5min", "thirtytwo_bit",
                 300.0 + rng.uniform(0.0, 10.0), rng.uniform(0.0, TWO_PI)),
        # Fixed inputs: the fault shows whatever the seed.
        free_run("1ms-tick-10min", "thirtytwo_bit", 600.0, 0.0,
                 freq=32000.0, reload=32, known_fault=FLOAT_TICK_FAULT),
        attack_then_hold(),
        long_backward(),
    ]
