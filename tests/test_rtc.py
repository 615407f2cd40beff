import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from driftlab.planner import BurstTrain
from driftlab.rtc import (
    InjectionBurst,
    PlanError,
    RtcConfig,
    RtcState,
    apply_phase_advance,
    apply_phase_advance_with_events,
    initial_state,
    measure_drift,
    run_uniform_train,
    step,
    step_with_events,
    with_injection,
)
from driftlab.signals import TWO_PI, Sinusoid, wrap_phase

from oracles import count_upward_crossings, crossing_times

F = 32768.0
CAL = RtcConfig()  # calendar mode: 0.08 V amplitude, 0.04 V threshold


def _opposing(amplitude, phase=0.0):
    return Sinusoid(amplitude, F, wrap_phase(phase + math.pi))


class TestConfig:
    def test_defaults(self):
        assert CAL.trigger_threshold == pytest.approx(0.04)
        assert CAL.divider_reload == 32768
        assert CAL.tick_period == 1.0

    def test_32bit_defaults(self):
        cfg = RtcConfig(mode="thirtytwo_bit")
        assert cfg.divider_reload == 32
        assert cfg.tick_period == pytest.approx(32 / F)

    def test_divider_is_16_bit(self):
        with pytest.raises(ValueError):
            RtcConfig(divider_reload=65536)

    def test_threshold_must_sit_inside_swing(self):
        with pytest.raises(ValueError):
            RtcConfig(trigger_threshold=0.08)


class TestStep:
    def test_nominal_one_second(self):
        st, events = step_with_events(initial_state(CAL), CAL, 1.0)
        assert st.rtc_time == 1.0
        assert len(events) == 1
        assert st.counter == CAL.divider_reload

    def test_nominal_ten_seconds(self):
        st = step(initial_state(CAL), CAL, 10.0)
        assert st.rtc_time == 10.0
        assert measure_drift(st) == 0.0

    def test_requires_future_time(self):
        with pytest.raises(ValueError):
            step(initial_state(CAL), CAL, 0.0)

    def test_opposing_injection_stalls_exactly(self):
        st = initial_state(CAL)
        st, _ = with_injection(st, CAL, _opposing(0.041))
        st = step(st, CAL, 0.5)
        assert st.rtc_time == 0.0
        assert measure_drift(st) == -0.5

    def test_threshold_boundary_amplitude_stalls(self):
        # injected amplitude exactly nominal - threshold: peak touches the
        # trigger level without crossing it
        st = initial_state(CAL)
        st, _ = with_injection(st, CAL, _opposing(0.04))
        st = step(st, CAL, 0.25)
        assert st.rtc_time == 0.0

    def test_resumes_within_one_cycle(self):
        cfg = RtcConfig(divider_reload=1)
        st = initial_state(cfg)
        st, _ = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.5)
        assert st.rtc_time == 0.0
        st, _ = with_injection(st, cfg, None)
        st, events = step_with_events(st, cfg, 0.5 + 1.0 / F)
        assert len(events) >= 1
        assert events[0].time <= 0.5 + 1.0 / F

    def test_small_opposing_injection_leaves_timing_alone(self):
        st = initial_state(CAL)
        st, _ = with_injection(st, CAL, _opposing(0.005))
        st = step(st, CAL, 1.0)
        assert st.rtc_time == 1.0
        assert measure_drift(st) == 0.0

    def test_stall_measured_after_ten_seconds(self):
        st = initial_state(CAL)
        st, _ = with_injection(st, CAL, _opposing(0.041))
        st = step(st, CAL, 10.0)
        assert measure_drift(st) == -10.0

    def test_rtc_time_never_decreases(self):
        st = initial_state(CAL)
        last = st.rtc_time
        st, _ = with_injection(st, CAL, _opposing(0.06))
        for t in np.linspace(0.05, 2.0, 17):
            st = step(st, CAL, float(t))
            assert st.rtc_time >= last
            last = st.rtc_time

    def test_fresh_state_drift_zero(self):
        assert measure_drift(initial_state(CAL)) == 0.0


class TestLongHorizon:
    # With phase 0 and a threshold of half the amplitude, one upward crossing
    # falls 1/12 of a cycle into each oscillator cycle, so a free run to
    # f * T = N + 100.25 cycles (N whole) crosses exactly N + 101 times.
    DAYS_30 = 30 * 86400.0

    @pytest.mark.parametrize("mode", ["calendar", "thirtytwo_bit"])
    def test_thirty_day_free_run_exact(self, mode):
        cfg = RtcConfig(mode=mode)
        until = self.DAYS_30 + 100.25 / F
        st = step(initial_state(cfg), cfg, until)
        crossings = int(F) * 30 * 86400 + 101
        ticks, rest = divmod(crossings, cfg.divider_reload)
        assert st.wall_time == until
        assert st.counter == cfg.divider_reload - rest
        assert st.rtc_time == ticks * cfg.tick_period
        assert not st.frozen

    def test_inexact_tick_period_does_not_drift(self):
        # 32 / 32000 s is not a binary64 number; 600 s hold 600,000 ticks.
        cfg = RtcConfig(nominal_freq=32000.0, divider_reload=32,
                        mode="thirtytwo_bit")
        st = step(initial_state(cfg), cfg, 600.0)
        want = 600_000 * cfg.tick_period
        assert st.counter == cfg.divider_reload
        assert abs(st.rtc_time - want) <= math.ulp(want)

    def test_step_memory_independent_of_tick_count(self):
        cfg = RtcConfig(mode="thirtytwo_bit")
        st = initial_state(cfg)
        tracemalloc.start()
        try:
            end = step(st, cfg, 600.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert end.rtc_time == 600.0
        assert peak < 2**20


class TestFreeze:
    def test_quiet_period_latches_freeze(self):
        cfg = RtcConfig(freeze_timeout=0.1)
        st = initial_state(cfg)
        st, _ = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.25)
        assert st.frozen

    def test_frozen_stays_after_injection_clears(self):
        cfg = RtcConfig(freeze_timeout=0.1, divider_reload=1)
        st = initial_state(cfg)
        st, _ = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.25)
        st, _ = with_injection(st, cfg, None)
        st = step(st, cfg, 5.0)
        assert st.frozen
        assert st.rtc_time == 0.0

    def test_short_quiet_does_not_freeze(self):
        cfg = RtcConfig(freeze_timeout=0.1)
        st = initial_state(cfg)
        st, _ = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.05)
        assert not st.frozen
        st, _ = with_injection(st, cfg, None)
        st = step(st, cfg, 1.1)
        assert not st.frozen
        assert st.rtc_time > 0.0


class TestPhaseAdvance:
    def test_aligned_burst_is_a_hold(self):
        st = initial_state(CAL)
        burst = InjectionBurst(0.001, 2e-5, Sinusoid(0.005, F, st.osc_phase))
        out = apply_phase_advance(st, CAL, burst)
        assert out.osc_phase == st.osc_phase
        assert out.wall_time == pytest.approx(burst.end)

    def test_full_convergence_snaps_to_injected_phase(self):
        st = initial_state(CAL)
        delta = math.pi / 3
        burst = InjectionBurst(1e-4, 1.6e-5, Sinusoid(0.005, F, delta))
        out = apply_phase_advance(st, CAL, burst)
        assert out.osc_phase == delta  # exact snap

    def test_partial_convergence_retains_residual(self):
        st = initial_state(CAL)
        delta = math.pi / 2
        tau = CAL.convergence_time_constant
        burst = InjectionBurst(0.0, 2 * tau, Sinusoid(0.005, F, delta))
        out = apply_phase_advance(st, CAL, burst)
        expected = delta - delta * math.exp(-2.0)
        assert out.osc_phase == pytest.approx(expected, abs=1e-12)

    def test_rejects_backward_offsets(self):
        st = initial_state(CAL)
        burst = InjectionBurst(0.0, 1e-5, Sinusoid(0.005, F, 3 * math.pi / 2))
        with pytest.raises(PlanError):
            apply_phase_advance(st, CAL, burst)

    def test_rejects_frequency_mismatch(self):
        st = initial_state(CAL)
        burst = InjectionBurst(0.0, 1e-5, Sinusoid(0.005, F + 1, 0.5))
        with pytest.raises(PlanError):
            apply_phase_advance(st, CAL, burst)

    def test_edge_advances_by_delta_fraction(self):
        # After a converged burst the next trigger edge arrives delta/(2*pi)
        # of a cycle earlier than the free-running schedule.
        cfg = RtcConfig(divider_reload=1)
        delta = math.pi / 2
        st = initial_state(cfg)
        start = 10.25 / F  # mid-cycle, away from edges
        burst = InjectionBurst(start, 1.6e-5, Sinusoid(0.005, F, delta))
        out, events = apply_phase_advance_with_events(st, cfg, burst)
        out, more = step_with_events(out, cfg, out.wall_time + 2.0 / F)
        theta = math.asin(cfg.trigger_threshold / cfg.nominal_amplitude)
        free_edges = [(theta + TWO_PI * n) / (TWO_PI * F) for n in range(9, 14)]
        attacked_next = more[0].time
        shifted = [t - delta / TWO_PI / F for t in free_edges]
        assert min(abs(attacked_next - t) for t in shifted) < 1e-12

    def test_tick_inside_relaxation_solves_phase_path(self):
        # With reload 1 every crossing is a tick.  The burst starts one time
        # constant before a free-running crossing, so the dragged crossing
        # falls while the offset is still relaxing toward delta.
        cfg = RtcConfig(divider_reload=1)
        tau = cfg.convergence_time_constant
        delta = math.pi / 2
        target = math.asin(0.5) + TWO_PI * 3
        t0 = target / (TWO_PI * F) - tau
        burst = InjectionBurst(t0, 1.6e-5, Sinusoid(0.005, F, delta))
        _, events = apply_phase_advance_with_events(initial_state(cfg), cfg, burst)

        def path(t):
            return TWO_PI * F * t + delta * (1.0 - math.exp(-(t - t0) / tau)) - target

        want = brentq(path, t0, t0 + 5 * tau, xtol=1e-18)
        assert len(events) == 4
        assert events[-1].time == pytest.approx(want, abs=1e-12)

    def test_k_bursts_gain_k_quarters(self):
        # k consecutive full-convergence bursts of pi/2 add k/4 extra cycles.
        cfg = RtcConfig(divider_reload=1)
        k = 24
        delta = math.pi / 2
        st = initial_state(cfg)
        period, dur = 5e-4, 1.6e-5
        for i in range(k):
            sig = Sinusoid(0.005, F, wrap_phase((i + 1) * delta))
            st = apply_phase_advance(st, cfg, InjectionBurst(i * period, dur, sig))
        window = k * period + 0.01
        st = step(st, cfg, window)
        attacked_ticks = round(st.rtc_time / cfg.tick_period)
        free = step(initial_state(cfg), cfg, window)
        free_ticks = round(free.rtc_time / cfg.tick_period)
        assert attacked_ticks - free_ticks == k // 4

    def test_uniform_train_matches_burst_loop(self):
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        k, delta, period, dur = 200, 11 * math.pi / 12, 1e-4, 1.6e-5
        st_loop = initial_state(cfg)
        for i in range(k):
            sig = Sinusoid(0.005, F, wrap_phase((i + 1) * delta))
            st_loop = apply_phase_advance(
                st_loop, cfg, InjectionBurst(i * period, dur, sig)
            )
        result = run_uniform_train(
            initial_state(cfg), cfg, count=k, period=period, duration=dur,
            delta=delta, start=0.0,
        )
        st_fast = result.state
        assert st_fast.rtc_time == st_loop.rtc_time
        assert st_fast.counter == st_loop.counter
        assert st_fast.osc_phase == pytest.approx(st_loop.osc_phase, abs=1e-9)
        assert result.phase_advanced == pytest.approx(k * delta, rel=1e-12)

    def test_train_requires_full_convergence(self):
        with pytest.raises(PlanError):
            run_uniform_train(
                initial_state(CAL), CAL, count=10, period=1e-4,
                duration=1e-6, delta=0.5,
            )


def _train_bursts(state, count, period, duration, delta, start):
    """The bursts of a uniform train led by ``state``'s phase, as a plan
    builds them."""
    return BurstTrain(start=start, period=period, duration=duration, count=count,
                      amplitude=0.005, frequency=F,
                      phase0=state.osc_phase + delta, phase_step=delta)


def _phase_gap(a, b):
    """Distance of two phases on the circle."""
    return abs(wrap_phase(a - b + math.pi) - math.pi)


def _burst_loop(state, cfg, bursts):
    for burst in bursts:
        state = apply_phase_advance(state, cfg, burst)
    return state


def _stalled(cfg, free_until, quiet):
    """A clock run free to ``free_until``, then stalled for ``quiet`` seconds
    after its last edge, with the stalling injection switched off again."""
    state = step(initial_state(cfg), cfg, free_until)
    state, _ = with_injection(state, cfg, _opposing(0.041, state.osc_phase))
    state = step(state, cfg, state.last_edge_time + quiet)
    state, _ = with_injection(state, cfg, None)
    return state


class TestOneCrossingKernel:
    """Every transition counts crossings, checks the freeze watchdog and sets
    the last edge the same way, so the closed-form train and the per-burst
    loop agree on any start state."""

    def test_train_latches_the_watchdog_like_the_loop(self):
        # Stalled 2 us short of a 1 ms timeout: the first crossing after the
        # injection clears is overdue, and the clock freezes there.
        cfg = RtcConfig(freeze_timeout=1e-3)
        state = _stalled(cfg, 4.5 / F, 1e-3 - 2e-6)
        assert not state.frozen
        train = dict(count=3, period=1e-4, duration=1.6e-5, delta=math.pi / 2,
                     start=state.wall_time)
        loop = _burst_loop(state, cfg, _train_bursts(state, **train))
        result = run_uniform_train(state, cfg, **train)
        assert loop.frozen and result.state.frozen
        assert result.state.counter == loop.counter == state.counter
        assert result.state.rtc_time == loop.rtc_time
        assert result.crossings == 0
        # The bursts after the latch still drag the phase, 3 pi/2 in all.
        assert _phase_gap(loop.osc_phase, state.osc_phase + 1.5 * math.pi) < 1e-12
        assert _phase_gap(result.state.osc_phase, loop.osc_phase) < 1e-12

    def test_last_edge_is_the_bursts_last_crossing(self):
        # With reload 1 every crossing is a tick, so the last tick is the
        # last crossing; it falls 23 us before the burst ends.
        cfg = RtcConfig(freeze_timeout=1e-3, divider_reload=1)
        burst = InjectionBurst(1e-4, 4e-5, Sinusoid(0.005, F, math.pi / 2))
        state, events = apply_phase_advance_with_events(initial_state(cfg), cfg, burst)
        assert state.last_edge_time == events[-1].time < burst.end - 2e-5
        # 1.009 ms of quiet after that crossing is past the timeout.
        state, _ = with_injection(state, cfg, _opposing(0.041, state.osc_phase))
        assert step(state, cfg, events[-1].time + 1.009e-3).frozen

    def test_train_on_a_frozen_clock_counts_nothing(self):
        cfg = RtcConfig(freeze_timeout=1e-3)
        state = _stalled(cfg, 4.5 / F, 2e-3)
        assert state.frozen
        train = dict(count=4, period=1e-4, duration=1.6e-5, delta=1.0,
                     start=state.wall_time + 1e-4)
        result = run_uniform_train(state, cfg, collect_ticks=True, **train)
        loop = _burst_loop(state, cfg, _train_bursts(state, **train))
        assert result.state == replace(loop, osc_phase=result.state.osc_phase)
        assert loop == replace(state, wall_time=loop.wall_time, osc_phase=loop.osc_phase)
        assert _phase_gap(result.state.osc_phase, state.osc_phase + 4.0) < 1e-12
        assert _phase_gap(loop.osc_phase, state.osc_phase + 4.0) < 1e-12
        assert (result.crossings, result.ticks, result.phase_advanced) == (0, [], 4.0)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["fresh", "stalled", "overdue", "frozen"]),
        reload=st.sampled_from([1, 3, 32, 32768]),
        timeout=st.sampled_from([1e-3, 2.5e-3]),
        free_until=st.floats(1e-6, 5e-4),
        quiet=st.floats(0.0, 0.98),
        late=st.floats(0.01, 0.99),
        count=st.integers(1, 40),
        delta=st.floats(0.05, 3.0),
        duration=st.floats(1.5e-5, 6e-5),
        pause=st.one_of(st.just(0.0), st.floats(0.0, 2e-4)),
        lead=st.sampled_from([0.0, 3.7e-6, 1e-4]),
    )
    def test_train_matches_the_burst_loop_from_any_start(
            self, kind, reload, timeout, free_until, quiet, late, count, delta,
            duration, pause, lead):
        cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
        # A free run's last edge is less than a cycle behind its wall time.
        if kind == "fresh":
            state = step(initial_state(cfg), cfg, free_until)
        elif kind == "stalled":
            state = _stalled(cfg, free_until, (1.0 + quiet * (timeout * F - 2.0)) / F)
        elif kind == "overdue":     # the next crossing may come past the timeout
            state = _stalled(cfg, free_until, timeout - late / F)
        else:   # last_edge_time + timeout alone can round to just below it
            state = _stalled(cfg, free_until, timeout * (1.0 + quiet) + 1e-9)
        assert state.frozen == (kind == "frozen")
        train = dict(count=count, period=duration + pause, duration=duration,
                     delta=delta, start=state.wall_time + lead)
        bursts = _train_bursts(state, **train)
        loop = _burst_loop(state, cfg, bursts)
        fast = run_uniform_train(state, cfg, **{**train, "period": bursts.period}).state
        assert fast.wall_time == loop.wall_time
        assert fast.rtc_time == loop.rtc_time
        assert fast.counter == loop.counter
        assert fast.frozen == loop.frozen
        assert abs(fast.last_edge_time - loop.last_edge_time) <= 1e-12
        assert _phase_gap(fast.osc_phase, loop.osc_phase) <= 1e-12


class SampledOracle:
    """64x-oversampled replica of a segment schedule.

    Segments are (t_start, t_end, fn) with fn(t_array) -> volts; crossings
    and tick times are read off the samples.
    """

    def __init__(self, config, t_end, oversample=64):
        self.config = config
        self.rate = oversample * config.nominal_freq
        n = int(round(t_end * self.rate)) + 1
        self.t = np.arange(n) / self.rate
        self.v = np.zeros(n)

    def fill(self, t0, t1, fn):
        mask = (self.t >= t0) & (self.t < t1)
        self.v[mask] = fn(self.t[mask])

    def tick_times(self, reload):
        times = crossing_times(self.v, self.t, self.config.trigger_threshold)
        return times[reload - 1 :: reload]

    def crossings(self):
        return count_upward_crossings(self.v, self.config.trigger_threshold)


def _free(amp, phase):
    return lambda t: amp * np.sin(TWO_PI * F * t + phase)


def _summed(amp1, phase1, amp2, phase2):
    return lambda t: (
        amp1 * np.sin(TWO_PI * F * t + phase1)
        + amp2 * np.sin(TWO_PI * F * t + phase2)
    )


def _relaxing(amp, beta1, delta, tau, t0):
    def fn(t):
        elapsed = t - t0
        gap = np.where(elapsed >= 5 * tau, 0.0, delta * np.exp(-elapsed / tau))
        return amp * np.sin(TWO_PI * F * t + beta1 - gap)

    return fn


class TestOracleEquivalence:
    def test_tick_times_within_one_sample(self):
        # 50 ms scenario: free run, a stall stretch, a convergence burst.
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        amp, thr = cfg.nominal_amplitude, cfg.trigger_threshold
        tau = cfg.convergence_time_constant
        delta = math.pi / 3
        inj = Sinusoid(0.05, F, math.pi)  # opposes phase 0
        t_end = 0.05
        burst = InjectionBurst(0.030, 1.6e-5, Sinusoid(0.005, F, delta))

        st = initial_state(cfg)
        events = []
        st, ev = step_with_events(st, cfg, 0.010)
        events += ev
        st, ev = with_injection(st, cfg, inj)
        events += ev
        st, ev = step_with_events(st, cfg, 0.020)
        events += ev
        st, ev = with_injection(st, cfg, None)
        events += ev
        st, ev = step_with_events(st, cfg, 0.030)
        events += ev
        st, ev = apply_phase_advance_with_events(st, cfg, burst)
        events += ev
        st, ev = step_with_events(st, cfg, t_end)
        events += ev

        oracle = SampledOracle(cfg, t_end)
        oracle.fill(0.0, 0.010, _free(amp, 0.0))
        oracle.fill(0.010, 0.020, _summed(amp, 0.0, 0.05, math.pi))
        oracle.fill(0.020, 0.030, _free(amp, 0.0))
        oracle.fill(0.030, burst.end, _relaxing(amp, delta, delta, tau, 0.030))
        oracle.fill(burst.end, t_end + 1.0, _free(amp, delta))

        oracle_ticks = oracle.tick_times(cfg.divider_reload)
        engine_ticks = [e.time for e in events]
        assert len(engine_ticks) == len(oracle_ticks)
        sample = 1.0 / oracle.rate
        for te, to in zip(engine_ticks, oracle_ticks):
            assert abs(te - to) <= sample

    def test_forward_train_crossing_count_matches_oracle(self):
        # 100 bursts at 20 us cadence; count crossings over the full window.
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        amp = cfg.nominal_amplitude
        tau = cfg.convergence_time_constant
        k, delta, period, dur = 100, math.pi / 2, 2e-5, 1.5e-5
        t_end = k * period + 5e-4

        result = run_uniform_train(
            initial_state(cfg), cfg, count=k, period=period, duration=dur,
            delta=delta, start=0.0,
        )
        st = step(result.state, cfg, t_end)
        engine_total = result.crossings + round(
            (st.rtc_time - result.state.rtc_time) * F
        ) + (result.state.counter - st.counter)

        oracle = SampledOracle(cfg, t_end)
        for i in range(k):
            t0 = i * period
            beta1 = wrap_phase((i + 1) * delta)
            oracle.fill(t0, t0 + dur, _relaxing(amp, (i + 1) * delta, delta, tau, t0))
            oracle.fill(t0 + dur, t0 + period, _free(amp, (i + 1) * delta))
        oracle.fill(k * period, t_end + 1, _free(amp, k * delta))
        assert abs(engine_total - oracle.crossings()) <= 1

        # extra counted cycles versus a free run: exactly k * delta / 2 pi
        free = step(initial_state(cfg), cfg, t_end)
        free_total = round(free.rtc_time * F) + (
            initial_state(cfg).counter - free.counter
        )
        assert engine_total - free_total == round(k * delta / TWO_PI)


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        def run():
            st = initial_state(CAL)
            st, _ = with_injection(st, CAL, _opposing(0.041))
            st = step(st, CAL, 0.37)
            st, _ = with_injection(st, CAL, None)
            burst = InjectionBurst(0.5, 1.7e-5, Sinusoid(0.004, F, 1.1))
            st = apply_phase_advance(st, CAL, burst)
            return step(st, CAL, 2.0)

        a, b = run(), run()
        assert a == b
