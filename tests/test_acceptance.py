"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they execute)."""

import json
import math
import time

import numpy as np
import pytest

from driftlab.chain import TransducerSpec, build_context
from driftlab.cli import main
from driftlab.crystal import CrystalSpec, steady_state_stress
from driftlab.effects import (
    BpScenario,
    ClockSynthConfig,
    DampingSpec,
    DeflationStallError,
    bp_error,
    damping_attenuation,
    synth_output_freq,
)
from driftlab.fingerprint import (
    CaptureConfig,
    build_template_bank,
    classify,
    load_profile_library,
    synthesize,
)
from driftlab.lamb import dispersion_residual, load_media, solve_dispersion
from driftlab.planner import DriftGoal, calibrate_phase_map, plan_backward, simulate_plan
from driftlab.rtc import (
    InjectionBurst,
    RtcConfig,
    apply_phase_advance,
    initial_state,
    measure_drift,
    run_uniform_train,
    step,
    step_with_events,
    with_injection,
)
from driftlab.signals import TWO_PI, Sinusoid, render, superpose, wrap_phase

from oracles import count_upward_crossings
from test_cli import BASE_CONFIG

F = 32768.0


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _total_crossings(cfg, before, after):
    ticks = round((after.rtc_time - before.rtc_time) / cfg.tick_period)
    return ticks * cfg.divider_reload + (before.counter - after.counter)


def test_criterion_01_superposition_oracle():
    rng = np.random.default_rng(20240801)
    n_pairs = 10_000
    t0 = time.perf_counter()
    amps = rng.uniform(1e-6, 10.0, size=(n_pairs, 2))
    phases = rng.uniform(0.0, TWO_PI, size=(n_pairs, 2))
    t = np.arange(128) / (64.0 * F)  # two carrier periods at 64x
    arg = TWO_PI * F * t
    worst = 0.0
    for start in range(0, n_pairs, 500):
        a = amps[start : start + 500]
        p = phases[start : start + 500]
        direct = a[:, :1] * np.sin(arg + p[:, :1]) + a[:, 1:] * np.sin(
            arg + p[:, 1:]
        )
        summed = np.array(
            [
                superpose(
                    Sinusoid(a[i, 0], F, p[i, 0]), Sinusoid(a[i, 1], F, p[i, 1])
                ).phasor()
                for i in range(len(a))
            ]
        )
        rendered = np.abs(summed)[:, None] * np.sin(
            arg + np.angle(summed)[:, None]
        )
        err = np.max(np.abs(rendered - direct), axis=1) / a.sum(axis=1)
        worst = max(worst, float(err.max()))
    # spot-check a slice through the public render() path as well
    for i in rng.integers(0, n_pairs, size=50):
        f = Sinusoid(amps[i, 0], F, phases[i, 0])
        g = Sinusoid(amps[i, 1], F, phases[i, 1])
        lhs = render(superpose(f, g), 64 * F, 2.0 / F).samples
        rhs = render(f, 64 * F, 2.0 / F).samples + render(g, 64 * F, 2.0 / F).samples
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / (f.amplitude + g.amplitude)))
    elapsed = time.perf_counter() - t0
    _report(
        1, "superposition-oracle",
        worst < 1e-9 and elapsed < 10.0,
        f"max relative error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_stall_reproduction():
    cfg = RtcConfig(divider_reload=1)
    st = initial_state(cfg)
    st = step(st, cfg, 0.123)  # run a while first
    rtc_before = st.rtc_time
    opposing = Sinusoid(0.041, F, wrap_phase(st.osc_phase + math.pi))
    st = with_injection(st, cfg, opposing)
    st = step(st, cfg, st.wall_time + 0.5)
    halted = st.rtc_time == rtc_before
    st = with_injection(st, cfg, None)
    burst_end = st.wall_time
    st, events = step_with_events(st, cfg, burst_end + 2.0 / F)
    resumed = bool(events) and events[0].time <= burst_end + 1.0 / F
    _report(
        2, "stall-reproduction",
        halted and resumed,
        f"rtc frozen for burst: {halted}, first edge within one cycle: {resumed}",
    )


def test_criterion_03_amplitude_checkpoint():
    osc = Sinusoid(80.0, F, 0.56)
    inj = Sinusoid(5.0, F, wrap_phase(0.56 + math.pi))
    peak = superpose(osc, inj).amplitude
    _report(
        3, "93.8%-amplitude-checkpoint",
        abs(peak - 75.0) < 1e-6,
        f"superposed peak {peak!r}, ratio {peak / 80.0:.4f}",
    )


def test_criterion_04_forward_drift_accounting():
    t0 = time.perf_counter()
    # (a) exact accounting for k = 10^4 bursts through the per-burst engine
    cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
    k, delta, period, dur = 10_000, math.pi / 2, 5e-5, 1.6e-5
    st = initial_state(cfg)
    st0 = st
    for i in range(k):
        sig = Sinusoid(0.005, F, wrap_phase((i + 1) * delta))
        st = apply_phase_advance(st, cfg, InjectionBurst(i * period, dur, sig))
    window = k * period + 0.0103
    st = step(st, cfg, window)
    attacked = _total_crossings(cfg, st0, st)
    free = step(initial_state(cfg), cfg, window)
    free_n = _total_crossings(cfg, initial_state(cfg), free)
    exact_large = attacked - free_n == k * delta / TWO_PI == 2500

    # (b) k = 100 against the 64x-sampled oracle
    k2 = 100
    res = run_uniform_train(
        initial_state(cfg), cfg, count=k2, period=2e-5, duration=1.5e-5,
        delta=delta, start=0.0,
    )
    t_end = k2 * 2e-5 + 4.07e-4
    st2 = step(res.state, cfg, t_end)
    engine_n = _total_crossings(cfg, initial_state(cfg), st2)
    rate = 64.0 * F
    ts = np.arange(int(round(t_end * rate)) + 1) / rate
    burst_idx = np.minimum((ts // 2e-5).astype(int), k2 - 1)
    elapsed_in = ts - burst_idx * 2e-5
    tau = cfg.convergence_time_constant
    gap = np.where(
        (elapsed_in >= 1.5e-5) | (elapsed_in >= 5 * tau),
        0.0,
        delta * np.exp(-elapsed_in / tau),
    )
    phase = (burst_idx + 1) * delta - gap
    phase = np.where(ts >= k2 * 2e-5, k2 * delta, phase)
    v = cfg.nominal_amplitude * np.sin(TWO_PI * F * ts + phase)
    oracle_n = count_upward_crossings(v, cfg.trigger_threshold)
    free2 = step(initial_state(cfg), cfg, t_end)
    free2_n = _total_crossings(cfg, initial_state(cfg), free2)
    exact_small = engine_n - free2_n == round(k2 * delta / TWO_PI)
    oracle_ok = abs(engine_n - oracle_n) <= 1

    # (c) 30 s attack at 10 us cadence, delta = 11 pi / 12, event level
    cal = RtcConfig(convergence_time_constant=1.8e-6)
    k3, delta3 = 3_000_000, 11.0 * math.pi / 12.0
    res3 = run_uniform_train(
        initial_state(cal), cal, count=k3, period=1e-5, duration=9e-6,
        delta=delta3, start=0.0,
    )
    st3 = step(res3.state, cal, 30.0 + 1e-3)
    drift = measure_drift(st3)
    doubled = drift >= 30.0

    # (d) the same attack at 1/1000 scale against the sampled oracle
    k4 = 3000
    res4 = run_uniform_train(
        initial_state(cal), cal, count=k4, period=1e-5, duration=9e-6,
        delta=delta3, start=0.0,
    )
    t4 = k4 * 1e-5 + 5.03e-4
    st4 = step(res4.state, cal, t4)
    engine4 = _total_crossings(cal, initial_state(cal), st4)
    ts4 = np.arange(int(round(t4 * rate)) + 1) / rate
    bi = np.minimum((ts4 // 1e-5).astype(int), k4 - 1)
    el = ts4 - bi * 1e-5
    gap4 = np.where(
        (el >= 9e-6) | (el >= 5 * cal.convergence_time_constant),
        0.0,
        delta3 * np.exp(-el / cal.convergence_time_constant),
    )
    ph4 = np.where(ts4 >= k4 * 1e-5, k4 * delta3, (bi + 1) * delta3 - gap4)
    v4 = cal.nominal_amplitude * np.sin(TWO_PI * F * ts4 + ph4)
    oracle4 = count_upward_crossings(v4, cal.trigger_threshold)
    scaled_ok = abs(engine4 - oracle4) <= 2

    elapsed = time.perf_counter() - t0
    _report(
        4, "forward-drift-accounting",
        exact_large and exact_small and oracle_ok and doubled and scaled_ok
        and elapsed < 60.0,
        f"k=1e4 extra cycles {attacked - free_n} (exact 2500: {exact_large}); "
        f"k=100 engine-vs-oracle |{engine_n}-{oracle_n}|; "
        f"30s drift +{drift:.2f}s; 1/1000 oracle |{engine4}-{oracle4}|; "
        f"{elapsed:.1f}s",
    )


def test_criterion_05_backward_round_trip():
    cfg = RtcConfig()
    goal = DriftGoal(window=30.0, drift=6.0, direction="backward")
    plan = plan_backward(goal, 0.5, amplitude=0.05, frequency=F)
    run = simulate_plan(plan, cfg, until=30.0)
    ok = abs(run.drift - (-6.0)) <= cfg.tick_period
    _report(
        5, "backward-plan-round-trip",
        ok,
        f"measured drift {run.drift:+.3f}s, tick {cfg.tick_period}s",
    )


def test_criterion_06_dispersion_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    all_subsonic = True
    for d_mm in (5, 10, 15, 20):
        media = load_media(thickness=d_mm * 1e-3)
        for medium in media.values():
            mode = solve_dispersion(medium, F)
            worst = max(worst, dispersion_residual(medium, mode.omega, mode.k_a))
            all_subsonic &= mode.c_s < medium.c_t
    elapsed = time.perf_counter() - t0
    _report(
        6, "dispersion-residuals",
        worst < 1e-9 and all_subsonic and elapsed < 5.0,
        f"28 roots, worst residual {worst:.2e}, subsonic {all_subsonic}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_07_crystal_ode_oracle():
    from oracles import ode_steady_state_stress

    worst_amp = 0.0
    worst_phase = 0.0
    for damping in (0.05, 0.1, 0.2, 0.5):
        for omega in (0.3, 0.8, 1.0, 1.3, 2.5):
            spec = CrystalSpec(
                tip_mass=1.0, damping=damping, stiffness=1.0, width=1.0,
                thickness=1.0, piezo_constant=1e-12, volts_per_displacement=1.0,
            )
            closed = steady_state_stress(spec, Sinusoid(1.0, omega / TWO_PI, 0.2))
            amp, phase = ode_steady_state_stress(
                1.0, damping, 1.0, 1.0, 1.0, 1.0, omega, 0.2
            )
            worst_amp = max(worst_amp, abs(closed.amplitude - amp) / amp)
            d = wrap_phase(closed.phase - phase)
            worst_phase = max(worst_phase, min(d, TWO_PI - d))
    ok = worst_amp < 1e-3 and worst_phase < 1e-3
    _report(
        7, "crystal-ode-oracle",
        ok,
        f"20-point grid, worst amp err {worst_amp:.2e}, "
        f"worst phase err {worst_phase:.2e} rad",
    )


def test_criterion_08_calibration_recovery():
    from dataclasses import replace

    medium = load_media(thickness=5e-3)["acrylic glass"]
    base = build_context(
        medium, CrystalSpec(), RtcConfig(),
        TransducerSpec(position=0.055, drive_amplitude=20.0),
    )
    rng = np.random.default_rng(77)
    z = 0.055
    hits = 0
    worst = 0.0
    for offset in rng.uniform(0.0, TWO_PI, size=100):
        ctx = replace(base, circuit_phase_offset=float(offset))
        phase_map = calibrate_phase_map(ctx, z, 64)
        err = 0.0
        for probe in (0.0, 1.7, 3.9):
            truth = ctx.induced_signal(probe, z).phase
            got = phase_map.beta1_at(z, probe)
            d = wrap_phase(got - truth)
            err = max(err, min(d, TWO_PI - d))
        worst = max(worst, err)
        hits += err < 0.05
    _report(
        8, "calibration-recovery",
        hits >= 99,
        f"{hits}/100 trials within 0.05 rad, worst error {worst:.4f} rad",
    )


def test_criterion_09_fingerprint_closed_loop():
    library = load_profile_library()

    def sweep(snr, seeds):
        cfg = CaptureConfig(sample_rate=6e6, duration=0.1, snr_db=snr,
                            bandwidth=2e5)
        bank = sweep.banks.get(id(library))
        if bank is None:
            bank = build_template_bank(library, cfg)
            sweep.banks[id(library)] = bank
        hits = total = 0
        for seed in seeds:
            for i, profile in enumerate(library):
                trace = synthesize(profile, cfg, seed=seed + i)
                label, _ = classify(trace, library, cfg, bank=bank)
                hits += label == profile.label
                total += 1
        return hits / total

    sweep.banks = {}
    accuracy_15 = sweep(15.0, seeds=(100, 300))
    ladder = [sweep(snr, seeds=(100,)) for snr in (21.0, 16.0, 11.0, 6.0)]
    monotone = all(a >= b for a, b in zip(ladder, ladder[1:]))

    cfg = CaptureConfig(sample_rate=6e6, duration=0.1, snr_db=15.0,
                        bandwidth=2e5)
    bank = sweep.banks[id(library)]
    rng = np.random.default_rng(5)
    false_accepts = 0
    from driftlab.signals import SampledTrace

    for _ in range(5):
        noise = SampledTrace(6e6, rng.normal(size=600_000))
        label, _ = classify(noise, library, cfg, bank=bank)
        false_accepts += label is not None
    _report(
        9, "fingerprint-closed-loop",
        accuracy_15 >= 0.95 and false_accepts == 0 and monotone,
        f"accuracy@15dB {accuracy_15:.0%}, ladder 21->6dB "
        f"{[f'{a:.0%}' for a in ladder]}, false accepts {false_accepts}",
    )


def test_criterion_10_effects_formulas():
    rng = np.random.default_rng(11)
    laws_hold = True
    for _ in range(1000):
        p0 = rng.uniform(150.0, 250.0)
        s = rng.uniform(90.0, 140.0)
        d = rng.uniform(50.0, 85.0)
        df = rng.uniform(-300.0, 900.0)
        scenario = BpScenario(
            initial_pressure=p0, systolic=s, diastolic=d,
            deflation_rate=3.0, pressure_per_cycle=3.0 / 1024.0,
            freq_shift=df,
        )
        try:
            ds, dd, _ = bp_error(scenario)
        except DeflationStallError:
            laws_hold &= 3.0 + (3.0 / 1024.0) * df <= 0.0
            continue
        if df > 0:
            laws_hold &= ds > 0 and dd > 0
        elif df < 0:
            laws_hold &= ds < 0 and dd < 0
        else:
            laws_hold &= ds == dd == 0.0
        if df != 0.0:
            laws_hold &= abs(ds / dd - (p0 - s) / (p0 - d)) < 1e-9
    synth = synth_output_freq(ClockSynthConfig(ref_freq=25e6, pll_mult=36.0,
                                               multisynth_div=27465.82))
    synth_ok = abs(synth - 32768.0) < 1e-3
    h = damping_attenuation(DampingSpec(omega_n=2.0e5, zeta=0.5), 2.0e5)
    h_ok = h == 1.0
    _report(
        10, "effects-formulas",
        laws_hold and synth_ok and h_ok,
        f"1000 scenarios, synth {synth:.6f} Hz, H(wn, 0.5) = {h}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(BASE_CONFIG))
    identical = True
    detail = []
    for command in ("dispersion", "calibrate", "plan", "simulate", "classify",
                    "bp", "counter"):
        out1 = tmp_path / f"{command}-1.out"
        out2 = tmp_path / f"{command}-2.out"
        rc1 = main([command, "--config", str(cfg_path), "--out", str(out1)])
        rc2 = main([command, "--config", str(cfg_path), "--out", str(out2)])
        same = rc1 == rc2 == 0 and out1.read_bytes() == out2.read_bytes()
        identical &= same
        detail.append(f"{command}:{'=' if same else '!'}")
    _report(11, "cli-determinism", identical, " ".join(detail))
