import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from driftlab import rtc
from driftlab.planner import BurstTrain
from driftlab.rtc import (
    InjectionBurst,
    PlanError,
    RtcConfig,
    RtcState,
    TickEvent,
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

from oracles import burst_crossing_time, count_upward_crossings, crossing_times
from oracles import bursts as listed_bursts

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
        st = with_injection(st, CAL, _opposing(0.041))
        st = step(st, CAL, 0.5)
        assert st.rtc_time == 0.0
        assert measure_drift(st) == -0.5

    def test_threshold_boundary_amplitude_stalls(self):
        # injected amplitude exactly nominal - threshold: peak touches the
        # trigger level without crossing it
        st = initial_state(CAL)
        st = with_injection(st, CAL, _opposing(0.04))
        st = step(st, CAL, 0.25)
        assert st.rtc_time == 0.0

    def test_resumes_within_one_cycle(self):
        cfg = RtcConfig(divider_reload=1)
        st = initial_state(cfg)
        st = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.5)
        assert st.rtc_time == 0.0
        st = with_injection(st, cfg, None)
        st, events = step_with_events(st, cfg, 0.5 + 1.0 / F)
        assert len(events) >= 1
        assert events[0].time <= 0.5 + 1.0 / F

    def test_small_opposing_injection_leaves_timing_alone(self):
        st = initial_state(CAL)
        st = with_injection(st, CAL, _opposing(0.005))
        st = step(st, CAL, 1.0)
        assert st.rtc_time == 1.0
        assert measure_drift(st) == 0.0

    def test_stall_measured_after_ten_seconds(self):
        st = initial_state(CAL)
        st = with_injection(st, CAL, _opposing(0.041))
        st = step(st, CAL, 10.0)
        assert measure_drift(st) == -10.0

    def test_rtc_time_never_decreases(self):
        st = initial_state(CAL)
        last = st.rtc_time
        st = with_injection(st, CAL, _opposing(0.06))
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

    # Past 2**53 crossings (about 2.75e11 s) a float64 count rounds.  These
    # are the end states of the kernel that counted on Python ints: at phase
    # 0.3 the count rounds onto a whole number of ticks and one crossing.
    @pytest.mark.parametrize("until", [2.7e11, 2.8e11, 1e12, 1e14])
    @pytest.mark.parametrize("mode", ["calendar", "thirtytwo_bit"])
    def test_counts_stay_exact_past_2_53_crossings(self, mode, until):
        cfg = RtcConfig(mode=mode)
        st = step(initial_state(cfg, 0.3), cfg, until)
        assert (st.counter, st.rtc_time, st.last_edge_time, st.frozen) == (
            cfg.divider_reload - 1, until, until, False)

    def test_counts_past_2_63_refused(self):
        with pytest.raises(ValueError, match=r"pass 2\*\*63 about 2\.81e\+14 s"):
            step(initial_state(CAL, 0.3), CAL, 1e20)

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
        st = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.25)
        assert st.frozen

    def test_frozen_stays_after_injection_clears(self):
        cfg = RtcConfig(freeze_timeout=0.1, divider_reload=1)
        st = initial_state(cfg)
        st = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.25)
        st = with_injection(st, cfg, None)
        st = step(st, cfg, 5.0)
        assert st.frozen
        assert st.rtc_time == 0.0

    def test_timeout_must_exceed_one_cycle(self):
        # A stretch checks the watchdog at its first crossing only.
        for timeout in (3e-5, 1.0 / F):
            with pytest.raises(ValueError, match="one oscillator period"):
                RtcConfig(freeze_timeout=timeout)
        RtcConfig(freeze_timeout=math.nextafter(1.0 / F, 1.0))

    # A 3e-5 s timeout, now refused, ended one step to 1 s running and two
    # steps frozen at 0.0.  One ulp over a cycle, the cut at 0.5 s froze the
    # clock as well: the free cycle across it measured a little over 1/f.
    @pytest.mark.parametrize("timeout", [math.nextafter(1.0 / F, 1.0), 1.5 / F, 2.0 / F,
                                         1e-3, 0.1])
    @pytest.mark.parametrize("cut", [1e-6, 0.5, 0.5 + 0.25 / F, 1.0 - 1e-9])
    def test_a_step_cut_in_two_ends_as_one_step(self, timeout, cut):
        cfg = RtcConfig(freeze_timeout=timeout, divider_reload=1)
        one = step(initial_state(cfg), cfg, 1.0)
        two = step(step(initial_state(cfg), cfg, cut), cfg, 1.0)
        assert one == two and not one.frozen and one.rtc_time == 1.0

    def test_short_quiet_does_not_freeze(self):
        cfg = RtcConfig(freeze_timeout=0.1)
        st = initial_state(cfg)
        st = with_injection(st, cfg, _opposing(0.041))
        st = step(st, cfg, 0.05)
        assert not st.frozen
        st = with_injection(st, cfg, None)
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

    def test_train_runs_bursts_too_short_to_converge(self):
        # 1 us bursts leave g = exp(-1/3) of each offset, so a step of 0.5
        # rad drives the offsets toward 0.5 / (1 - g) = 1.76 rad.
        cfg = RtcConfig(divider_reload=1)
        train = dict(count=10, period=1e-4, duration=1e-6, delta=0.5, start=0.0)
        result = run_uniform_train(initial_state(cfg), cfg, **train)
        loop = _burst_loop(initial_state(cfg), cfg,
                           _train_bursts(initial_state(cfg), **train))
        g = math.exp(-1.0 / 3.0)
        limit = 0.5 / (1.0 - g)
        want = 10 * 0.5 + (0.5 - limit) * (1.0 - g ** 10)
        assert result.phase_advanced == pytest.approx(want, rel=1e-12)
        assert (result.state.counter, result.state.rtc_time) == (loop.counter, loop.rtc_time)
        assert _phase_gap(result.state.osc_phase, loop.osc_phase) < 1e-12
        # A step of 0.9 rad drives them toward 3.17 rad, past pi at burst 13.
        long = {**train, "delta": 0.9, "count": 13}
        run_uniform_train(initial_state(cfg), cfg, **long)
        with pytest.raises(PlanError, match=r"^burst 13 meets .* L = 3\.17"):
            run_uniform_train(initial_state(cfg), cfg, **{**long, "count": 20})


def _train_bursts(state, count, period, duration, delta, start):
    """A uniform ``BurstTrain`` led by ``state``'s phase, as a plan builds
    it."""
    return BurstTrain(start=start, period=period, duration=duration, count=count,
                      amplitude=0.005, frequency=F,
                      phase0=state.osc_phase + delta, phase_step=delta)


def _phase_gap(a, b):
    """Distance of two phases on the circle."""
    return abs(wrap_phase(a - b + math.pi) - math.pi)


def _burst_loop(state, cfg, train):
    for burst in listed_bursts(train):
        state = apply_phase_advance(state, cfg, burst)
    return state


def _stalled(cfg, free_until, quiet):
    """A clock run free to ``free_until``, then stalled for ``quiet`` seconds
    after its last edge, with the stalling injection switched off again."""
    state = step(initial_state(cfg), cfg, free_until)
    state = with_injection(state, cfg, _opposing(0.041, state.osc_phase))
    state = step(state, cfg, state.last_edge_time + quiet)
    state = with_injection(state, cfg, None)
    return state


def _start(kind, cfg, free_until, quiet, late):
    """A fresh, stalled, overdue, frozen or weak clock for the kernel
    properties; a weak one oscillates at or below the trigger threshold."""
    timeout = cfg.freeze_timeout
    # A free run's last edge is less than a cycle behind its wall time.
    if kind == "fresh":
        state = step(initial_state(cfg), cfg, free_until)
    elif kind == "stalled":
        state = _stalled(cfg, free_until, (1.0 + quiet * (timeout * F - 2.0)) / F)
    elif kind == "overdue":     # the next crossing may come past the timeout
        state = _stalled(cfg, free_until, timeout - late / F)
    elif kind == "weak":
        state = replace(step(initial_state(cfg), cfg, free_until),
                        osc_amplitude=cfg.trigger_threshold * (1.0 - quiet))
    else:   # last_edge_time + timeout alone can round to just below it
        state = _stalled(cfg, free_until, timeout * (1.0 + quiet) + 1e-9)
    assert state.frozen == (kind == "frozen")
    return state


# The start states and trains the kernel properties draw.
KERNEL_CASES = dict(
    kind=st.sampled_from(["fresh", "stalled", "overdue", "frozen", "weak"]),
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


def _through_sink(transition, *args):
    """The state ``transition(*args, sink=sink)`` returns and the ticks its
    sink received, each batch no longer than one chunk."""
    received = []

    def sink(wall_times, rtc_times):
        assert 0 < len(wall_times) == len(rtc_times) <= rtc.TICK_CHUNK
        received.extend(zip(wall_times.tolist(), rtc_times.tolist()))

    return transition(*args, sink=sink), [TickEvent(*tick) for tick in received]


def _bits(ticks):
    return [(t.time.hex(), t.rtc_time.hex()) for t in ticks]


def _scalar_ticks(state, cfg, count):
    """The first ``count`` ticks of a free run from ``state``, each from the
    scalar crossing-time formula."""
    if count == 0:      # a weak clock has no crossing level to solve for
        return []
    freq, phase = cfg.nominal_freq, state.osc_phase
    theta = math.asin(cfg.trigger_threshold / state.osc_amplitude)
    n = math.floor(freq * state.wall_time + (phase - theta) / TWO_PI) + state.counter
    return [TickEvent((theta - phase + TWO_PI * (n + i * cfg.divider_reload)) / (TWO_PI * freq),
                      state.rtc_time + (i + 1) * cfg.tick_period)
            for i in range(count)]


def _reference_train_ticks(state, cfg, count, period, duration, delta):
    """The ticks of a uniform train that starts at ``state``'s wall time,
    each crossing's burst found by scalar division and the crossing placed
    by the scalar inverter, one call per tick."""
    freq, tau = cfg.nominal_freq, cfg.convergence_time_constant
    theta = math.asin(cfg.trigger_threshold / state.osc_amplitude)
    beta2, start = state.osc_phase, state.wall_time
    t_end = start + (count - 1) * period + duration
    n0 = math.floor(freq * start + (beta2 - theta) / TWO_PI)
    n1 = math.floor(freq * t_end + (beta2 + count * delta - theta) / TWO_PI)
    phase0 = TWO_PI * freq * start + beta2
    burst_gain = TWO_PI * freq * period + delta
    ticks = []
    for k, n in enumerate(range(n0 + state.counter, n1 + 1, cfg.divider_reload)):
        i = math.floor((theta + TWO_PI * n - phase0) / burst_gain)
        i = min(max(i, 0), count - 1)
        time = burst_crossing_time(n, theta, freq, beta2 + i * delta, delta, tau,
                                   start + i * period, duration)
        ticks.append(TickEvent(time, state.rtc_time + (k + 1) * cfg.tick_period))
    return ticks


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
        state = with_injection(state, cfg, _opposing(0.041, state.osc_phase))
        assert step(state, cfg, events[-1].time + 1.009e-3).frozen

    def test_train_on_a_frozen_clock_counts_nothing(self):
        cfg = RtcConfig(freeze_timeout=1e-3)
        state = _stalled(cfg, 4.5 / F, 2e-3)
        assert state.frozen
        train = dict(count=4, period=1e-4, duration=1.6e-5, delta=1.0,
                     start=state.wall_time + 1e-4)
        ticks = []
        result = run_uniform_train(state, cfg, sink=rtc.tick_collector(ticks), **train)
        loop = _burst_loop(state, cfg, _train_bursts(state, **train))
        assert result.state == replace(loop, osc_phase=result.state.osc_phase)
        assert loop == replace(state, wall_time=loop.wall_time, osc_phase=loop.osc_phase)
        assert _phase_gap(result.state.osc_phase, state.osc_phase + 4.0) < 1e-12
        assert _phase_gap(loop.osc_phase, state.osc_phase + 4.0) < 1e-12
        assert (result.crossings, ticks, result.phase_advanced) == (0, [], 4.0)

    @settings(max_examples=300, deadline=None)
    @given(**KERNEL_CASES)
    def test_train_matches_the_burst_loop_from_any_start(
            self, kind, reload, timeout, free_until, quiet, late, count, delta,
            duration, pause, lead):
        cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
        state = _start(kind, cfg, free_until, quiet, late)
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

    # With reload 1 a stretch of up to 0.3 s holds up to 9,830 ticks, more
    # than two chunks.
    @settings(max_examples=150, deadline=None)
    @given(**KERNEL_CASES, stretch=st.floats(1e-6, 0.3))
    def test_sinks_receive_the_listed_ticks_from_any_start(
            self, kind, reload, timeout, free_until, quiet, late, count, delta,
            duration, pause, lead, stretch):
        cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
        state = _start(kind, cfg, free_until, quiet, late)
        train = dict(count=count, period=duration + pause, duration=duration,
                     delta=delta, start=state.wall_time + lead)
        bursts = _train_bursts(state, **train)
        until = state.wall_time + stretch

        got, ticks = _through_sink(step, state, cfg, until)
        want, listed = step_with_events(state, cfg, until)
        assert got == want == step(state, cfg, until) and _bits(ticks) == _bits(listed)
        assert _bits(listed) == _bits(_scalar_ticks(state, cfg, len(listed)))

        # A switch's jump edge is one crossing at the switching time, so a
        # tick there is the divider's next.
        signal, first = bursts.signal, listed_bursts(bursts)[0]
        for before, after in ((state, signal), (with_injection(state, cfg, signal), None)):
            got, ticks = _through_sink(with_injection, before, cfg, after)
            assert got == with_injection(before, cfg, after)
            ticked = got.rtc_time != before.rtc_time
            assert _bits(ticks) == _bits([TickEvent(
                before.wall_time, before.rtc_time + cfg.tick_period)] * ticked)

        got, ticks = _through_sink(apply_phase_advance, state, cfg, first)
        want, listed = apply_phase_advance_with_events(state, cfg, first)
        assert got == want == apply_phase_advance(state, cfg, first)
        assert _bits(ticks) == _bits(listed)

        train["period"] = bursts.period
        got, ticks = _through_sink(
            lambda state, cfg, sink: run_uniform_train(state, cfg, sink=sink, **train),
            state, cfg)
        listed = []
        want = run_uniform_train(state, cfg, sink=rtc.tick_collector(listed), **train)
        assert got == want and _bits(ticks) == _bits(listed)

    def test_long_stretch_streams_in_chunks(self):
        # 0.3 s at reload 1 is 9,600 ticks: two whole chunks and a short one.
        # 1 / 32000 s is not a binary64 number, so every tick's RTC time is
        # rounded.
        cfg = RtcConfig(nominal_freq=32000.0, divider_reload=1)
        state = step(initial_state(cfg, 1.0), cfg, 1e3 + 1e-4)
        sizes = []
        end = step(state, cfg, state.wall_time + 0.3,
                   sink=lambda wall, rtc_times: sizes.append(len(wall)))
        assert sizes == [rtc.TICK_CHUNK, rtc.TICK_CHUNK, 9600 - 2 * rtc.TICK_CHUNK]
        want, listed = step_with_events(state, cfg, end.wall_time)
        assert want == end and len(listed) == 9600
        assert _bits(listed) == _bits(_scalar_ticks(state, cfg, 9600))

    @pytest.mark.parametrize("n0", [0, 2**31 + 5, 2**45 + 3, 2**53 - 2**16])
    @pytest.mark.parametrize("reload", [1, 32, 32768])
    def test_closed_form_chunks_match_per_tick_times(self, n0, reload):
        # One chunk from the float64 closed form, against the scalar formula
        # once per crossing on Python ints, for crossing numbers up to 2**53.
        cfg = RtcConfig(nominal_freq=32000.0, divider_reload=reload)
        theta = math.asin(0.5)
        count = (rtc.TICK_CHUNK - 1) * reload + 1
        state = RtcState(counter=1, rtc_time=12345.0)

        def time_of(n):
            return rtc._crossing_time(n, 32000.0, theta - 1.25)

        _, ticks = _through_sink(
            lambda sink: rtc._cross(state, cfg, np.array([count]), np.array([-np.inf]),
                                    lambda j, m: time_of(n0 + m), sink)[0])
        want = [TickEvent(time_of(n0 + 1 + k * reload),
                          12345.0 + (k + 1) * cfg.tick_period)
                for k in range(rtc.TICK_CHUNK)]
        assert len(ticks) == rtc.TICK_CHUNK
        assert _bits(ticks) == _bits(want)

    @pytest.mark.parametrize("cfg, train", [
        # perfbench attack's forward plan: 1,430 bursts of 2e-5 s in 30 s.
        (RtcConfig(mode="thirtytwo_bit"),
         dict(count=1430, period=2e-5 + (30.0 - 2e-5 * 1430) / 1429,
              duration=2e-5, delta=11 * math.pi / 12)),
        # Every crossing a tick, and about three of them in each burst's
        # 5 tau relaxation stretch.
        (RtcConfig(divider_reload=1, convergence_time_constant=2e-5),
         dict(count=50, period=3e-4, duration=1e-4, delta=2.0)),
    ], ids=["attack-forward", "relaxing"])
    def test_train_ticks_match_the_scalar_inverter(self, cfg, train):
        state = step(initial_state(cfg, 0.4), cfg, 3.3e-4)
        got = []
        run_uniform_train(state, cfg, sink=rtc.tick_collector(got), **train)
        want = _reference_train_ticks(state, cfg, **train)
        settle = 5.0 * cfg.convergence_time_constant
        relaxing = sum((t.time - state.wall_time) % train["period"] < settle
                       for t in want)
        assert relaxing > 0 and len(want) > 400
        assert _bits(got) == _bits(want)

    def test_train_refuses_fewer_than_one_burst(self):
        for count in (0, -3):
            with pytest.raises(PlanError, match="at least one burst"):
                run_uniform_train(initial_state(CAL), CAL, count=count,
                                  period=1e-4, duration=2e-5, delta=1.0)

    def test_bursts_refused_while_an_injection_is_on(self):
        # A 0.05 V opposing injection stalls the 0.08 V clock; a burst on top
        # of it would count the bare oscillation's crossings.
        state = with_injection(initial_state(CAL), CAL, _opposing(0.05))
        state = step(state, CAL, 0.01)
        assert state.counter == CAL.divider_reload
        burst = InjectionBurst(0.01, 2e-3, Sinusoid(0.005, F, 1.0))
        with pytest.raises(PlanError, match="sustained injection"):
            apply_phase_advance(state, CAL, burst)
        with pytest.raises(PlanError, match="sustained injection"):
            run_uniform_train(state, CAL, count=3, period=1e-4, duration=2e-5,
                              delta=1.0)


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
        st = with_injection(st, cfg, inj, sink=rtc.tick_collector(events))
        st, ev = step_with_events(st, cfg, 0.020)
        events += ev
        st = with_injection(st, cfg, None, sink=rtc.tick_collector(events))
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
            st = with_injection(st, CAL, _opposing(0.041))
            st = step(st, CAL, 0.37)
            st = with_injection(st, CAL, None)
            burst = InjectionBurst(0.5, 1.7e-5, Sinusoid(0.004, F, 1.1))
            st = apply_phase_advance(st, CAL, burst)
            return step(st, CAL, 2.0)

        a, b = run(), run()
        assert a == b
