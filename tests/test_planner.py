import io
import math
import re
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from driftlab import rtc
from driftlab.chain import TransducerSpec, build_context
from driftlab.crystal import CrystalSpec
from driftlab.lamb import load_media
from driftlab import planner
from driftlab.planner import (
    AttackPlan,
    BurstTrain,
    CalibrationError,
    DriftGoal,
    InfeasiblePlanError,
    PhaseMap,
    calibrate_phase_map,
    export_plan_jsonl,
    forward_offsets,
    plan_backward,
    plan_forward,
    simulate_plan,
    stall_gap,
)
from driftlab.rtc import (
    PlanError,
    RtcConfig,
    initial_state,
    step,
    with_injection,
)
from driftlab.signals import TWO_PI, Sinusoid, wrap_phase

from oracles import (bursts, load_plan_jsonl, per_burst_jsonl, plan_loop,
                     stall_train_crossings)
from test_rtc import _opposing, _phase_gap, _start

F = 32768.0


def _backward_goal(a=30.0, b=6.0):
    return DriftGoal(window=a, drift=b, direction="backward")


def _forward_goal(a, cycles):
    return DriftGoal(window=a, drift=cycles, direction="forward")


class TestDriftGoal:
    def test_backward_requires_room(self):
        with pytest.raises(InfeasiblePlanError):
            DriftGoal(window=5.0, drift=6.0, direction="backward")

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DriftGoal(window=0.0, drift=1.0, direction="forward")


class TestPlanBackward:
    def test_nominal_twelve_bursts(self):
        plan = plan_backward(_backward_goal(), 0.5, amplitude=0.05)
        assert plan.bursts.count == 12
        assert plan.bursts.period == pytest.approx(0.5 + 24.0 / 11.0)
        assert len(plan.bursts) == 12
        assert plan.bursts.signal.phase == pytest.approx(math.pi)

    def test_single_burst_degenerate(self):
        # ceil(0.4 / 0.5) is one burst, which leaves no pause to spread.
        plan = plan_backward(_backward_goal(30.0, 0.4), 0.5, amplitude=0.05)
        assert plan.bursts.count == math.ceil(0.4 / 0.5) == 1
        assert plan.span == 0.5

    @settings(max_examples=25, deadline=None)
    @given(t=st.floats(min_value=1e-3, max_value=2.0))
    def test_every_stall_gap_spans_its_burst(self, t):
        # No edge falls inside a stall, so a burst that reaches the freeze
        # timeout leaves a gap that reaches it: the stall gap check, the one
        # freeze refusal (cli._refuse_plan), refuses every such plan.
        plan = plan_backward(_backward_goal(), t, amplitude=0.1)
        assert stall_gap(plan, RtcConfig(), 30.0) >= t

    def test_bursts_sorted_disjoint(self):
        plan = plan_backward(_backward_goal(), 0.5, amplitude=0.05)
        listed = bursts(plan.bursts)
        for first, second in zip(listed, listed[1:]):
            assert second.start >= first.end

    @given(
        a=st.floats(min_value=5.0, max_value=100.0),
        frac=st.floats(min_value=0.05, max_value=0.9),
        t=st.floats(min_value=0.05, max_value=2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_mass_balance_and_span(self, a, frac, t):
        b = a * frac
        try:
            plan = plan_backward(_backward_goal(a, b), t, amplitude=0.05)
        except InfeasiblePlanError:
            # rounding the burst count up can overflow a tight window
            assert math.ceil(b / t) * t > a
            return
        total_on = plan.bursts.count * plan.bursts.duration
        assert total_on >= b - 1e-9
        assert plan.span <= a + t + 1e-9

    def test_round_trip_drift_within_one_tick(self):
        cfg = RtcConfig()
        plan = plan_backward(_backward_goal(30.0, 6.0), 0.5, amplitude=0.05)
        run = simulate_plan(plan, cfg, until=30.0)
        assert abs(run.drift - (-6.0)) <= cfg.tick_period


class TestPlanForward:
    def test_eq_counts(self):
        plan = plan_forward(_forward_goal(1.0, 12.0), 1e-5, math.pi / 2,
                            amplitude=0.005)
        assert plan.bursts.count == 48
        assert plan.bursts.period == pytest.approx(1e-5 + (1.0 - 48e-5) / 47.0)

    def test_ceiling_boundary(self):
        # exact-integer ratio: 2*pi*0.5 / (pi/2) == 2, ceiling stays at 2
        plan = plan_forward(_forward_goal(1.0, 0.5), 1e-5, math.pi / 2,
                            amplitude=0.005)
        assert plan.bursts.count == 2
        # just below pi the ratio for one cycle sits barely above 2
        plan = plan_forward(_forward_goal(1.0, 1.0), 1e-5, math.pi - 1e-9,
                            amplitude=0.005)
        assert plan.bursts.count == 3

    def test_infeasible_names_constraint(self):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_forward(_forward_goal(1e-4, 12.0), 1e-5, math.pi / 2,
                         amplitude=0.005)
        assert "window > burst_count * t1" in exc.value.constraint

    def test_phase_steps_by_delta(self):
        plan = plan_forward(_forward_goal(1.0, 2.0), 1e-5, 1.0, amplitude=0.005)
        phases = [b.signal.phase for b in bursts(plan.bursts)[:4]]
        for i, phase in enumerate(phases):
            assert phase == pytest.approx(wrap_phase((i + 1) * 1.0), abs=1e-12)

    @given(
        a=st.floats(min_value=0.5, max_value=10.0),
        cycles=st.floats(min_value=0.5, max_value=50.0),
        delta=st.floats(min_value=0.05, max_value=math.pi - 0.01),
    )
    @settings(max_examples=100, deadline=None)
    def test_feasible_plans_meet_goal(self, a, cycles, delta):
        t1 = 1e-5
        k = math.ceil(TWO_PI * cycles / delta)
        if a <= k * t1:
            with pytest.raises(InfeasiblePlanError):
                plan_forward(_forward_goal(a, cycles), t1, delta, amplitude=0.005)
            return
        plan = plan_forward(_forward_goal(a, cycles), t1, delta, amplitude=0.005)
        assert plan.bursts.period >= t1
        assert plan.bursts.count * plan.bursts.phase_step / TWO_PI >= cycles

    def test_round_trip_exact_cycles(self):
        # 48 bursts of pi/2: 12 whole extra cycles, an exact crossing count.
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        plan = plan_forward(_forward_goal(1.0, 12.0), 1.6e-5, math.pi / 2,
                            amplitude=0.005)
        run = simulate_plan(plan, cfg, until=1.0, collect_ticks=False)
        free = simulate_free(cfg, 1.0)
        assert run.crossings_counted - free == 12

    def test_fast_path_agrees_with_loop(self, monkeypatch):
        # Forward trains of every length run as one closed-form train; the
        # per-burst loop over the same bursts is the reference.
        trains = []

        def spy(*args):
            trains.append(args[3])
            return real(*args)

        real = planner._advance
        monkeypatch.setattr(planner, "_advance", spy)
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        for window, cycles, k in ((1.0, 12.0, 48), (2.0, 600.0, 2400)):
            trains.clear()
            plan = plan_forward(_forward_goal(window, cycles), 1.6e-5,
                                math.pi / 2, amplitude=0.005)
            assert plan.bursts.count == k
            fast = simulate_plan(plan, cfg, until=window)
            quiet = simulate_plan(plan, cfg, until=window, collect_ticks=False)
            assert quiet.state == fast.state and quiet.ticks == []
            slow = plan_loop(plan, cfg, until=window)
            assert trains == [k, k]
            streamed = []
            sunk = simulate_plan(plan, cfg, until=window, sink=lambda wall, rtc:
                                 streamed.extend(zip(wall.tolist(), rtc.tolist())))
            assert sunk.state == fast.state and sunk.ticks == []
            assert streamed == [tuple(t) for t in fast.ticks]
            assert fast.crossings_counted == slow.crossings_counted
            assert fast.state.rtc_time == slow.state.rtc_time
            assert len(fast.ticks) == len(slow.ticks) > 0
            assert [t.rtc_time for t in fast.ticks] == [
                (i + 1) * cfg.tick_period for i in range(len(fast.ticks))
            ]
            for a, b in zip(fast.ticks, slow.ticks):
                assert a.rtc_time == b.rtc_time
                assert abs(a.time - b.time) <= 1e-12

    def test_plain_list_refused(self):
        plan = plan_forward(_forward_goal(1.0, 1.0), 1e-5, math.pi / 2,
                            amplitude=0.005)
        with pytest.raises(TypeError, match="BurstTrain, not a list"):
            simulate_plan(replace(plan, bursts=bursts(plan.bursts)), RtcConfig())

    def test_hundred_thousand_short_bursts(self):
        # 1e-5 s bursts, under five time constants; the loop takes about
        # 70 us a burst, 7 s for these.
        cfg = RtcConfig(mode="thirtytwo_bit")
        plan = plan_forward(_forward_goal(100.0, 25_000.0), 1e-5, math.pi / 2,
                            amplitude=0.005)
        assert plan.bursts.count == 100_000
        began = time.perf_counter()
        run = simulate_plan(plan, cfg, collect_ticks=False)
        assert time.perf_counter() - began < 0.1
        # The offsets grow from pi/2 toward L = (pi/2) / (1 - g), where each
        # burst drags a whole step, so the plan falls short of its 25,000
        # cycles by (L - pi/2) / 2 pi, 0.009 of a cycle.
        g = math.exp(-1e-5 / cfg.convergence_time_constant)
        shortfall = math.pi / 2 / (1.0 - g) - math.pi / 2
        assert _phase_gap(run.state.osc_phase, -shortfall) < 1e-9
        assert run.crossings_counted - simulate_free(cfg, plan.span) in (24_999, 25_000)
        assert run.phase_prediction_error == pytest.approx(shortfall, rel=1e-9)

    def test_offset_past_pi_refused(self):
        # 2 us bursts leave g = exp(-2/3) of each offset, so the default step
        # of 11 pi / 12 drives the offsets toward 5.9 rad: the second burst
        # already meets 4.36 rad.  The per-burst loop ran it as a stall.
        cfg = RtcConfig(mode="thirtytwo_bit")
        plan = plan_forward(_forward_goal(1.0, 100.0), 2e-6, 11 * math.pi / 12,
                            amplitude=0.005)
        named = r"^burst 1 meets a phase offset of 4\.358.* L = 5\.918"
        with pytest.raises(PlanError, match=named):
            forward_offsets(plan, cfg)
        with pytest.raises(PlanError, match=named):
            simulate_plan(plan, cfg)
        with pytest.raises(PlanError, match=r"^burst 1 meets"):
            plan_loop(plan, cfg)


class TestSimulateSink:
    @staticmethod
    def _peak(window):
        """The tracemalloc peak of a 12-burst backward plan simulated over
        ``window`` seconds in calendar mode, ticks discarded."""
        cfg = RtcConfig()
        plan = plan_backward(_backward_goal(window, 6.0), 0.5, amplitude=0.1)
        tracemalloc.start()
        try:
            run = simulate_plan(plan, cfg, until=window,
                                sink=lambda wall, rtc: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return run, peak

    def test_peak_does_not_grow_with_the_horizon(self):
        hour, hour_peak = self._peak(3600.0)
        day, day_peak = self._peak(86400.0)
        assert (hour.state.rtc_time, day.state.rtc_time) == (3594.0, 86394.0)
        assert day.ticks == hour.ticks == []
        # The margin is about the arrays of one chunk (the day's stretches
        # fill whole chunks, the hour's do not); the day's 86,394 ticks as a
        # list would take about 10 MB.
        assert abs(day_peak - hour_peak) < 256 * 1024, (hour_peak, day_peak)


def _stall_plan(start, count, period, duration, amplitude, phase0):
    train = BurstTrain(start=start, period=period, duration=duration, count=count,
                       amplitude=amplitude, frequency=F, phase0=phase0)
    return AttackPlan(train)


def _kernel_and_loop(plan, cfg, state, until):
    """``simulate_plan`` and the per-burst loop oracle on ``plan``, each with
    the ticks its sink received, and the burst counts the stall kernel was
    called with."""
    calls = []

    def spy(*args):
        calls.append(args[3])
        return real(*args)

    def run(simulate):
        ticks = []

        def sink(wall_times, rtc_times):
            assert 0 < len(wall_times) == len(rtc_times) <= rtc.TICK_CHUNK
            ticks.extend(zip(wall_times.tolist(), rtc_times.tolist()))

        return simulate(plan, cfg, state, until=until, sink=sink), ticks

    real = planner._stall_train
    with mock.patch.object(planner, "_stall_train", spy):
        kernel = run(simulate_plan)
        loop = run(plan_loop)
    return kernel, loop, calls


def _same_bits(a, b):
    return [(x.hex(), y.hex()) for x, y in a] == [(x.hex(), y.hex()) for x, y in b]


class TestStallTrain:
    """A backward train runs as one closed-form stall train, held to the
    per-burst loop over the same bursts."""

    # reload 1 makes every crossing a tick; 2,500 bursts span ten blocks.
    @pytest.mark.parametrize("reload", [1, 3, 32768])
    @pytest.mark.parametrize("amplitude", [0.1, 0.17, 0.19])
    def test_blocks_of_bursts_match_the_loop(self, reload, amplitude):
        cfg = RtcConfig(divider_reload=reload, freeze_timeout=2e-3)
        plan = plan_backward(_backward_goal(0.3, 0.1), 4e-5, amplitude=amplitude,
                             osc_phase=1.1)
        assert plan.bursts.count == 2500
        (kernel, got), (loop, want), calls = _kernel_and_loop(
            plan, cfg, initial_state(cfg, 1.1), 0.31)
        assert calls == [2500]
        assert kernel == loop and _same_bits(got, want)
        assert len(got) > 1000 or reload == 32768

    # Starts: a free run, a clock held by an injection that is still on, one
    # whose next crossing may come past the timeout, a frozen one and one
    # oscillating at or below the threshold.  |A - a| = swing * threshold,
    # so a swing above 1 lets the stall count crossings; the timeout lies
    # within a few cycles of the burst length, about the largest gap.
    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["fresh", "held", "overdue", "frozen", "weak"]),
           reload=st.one_of(st.integers(1, 8), st.integers(1, 65535)),
           free_until=st.floats(1e-6, 5e-4),
           quiet=st.floats(0.0, 0.98),
           late=st.floats(0.01, 0.99),
           count=st.integers(1, 40),
           duration=st.floats(1e-4, 1e-3),
           pause=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
           lead=st.sampled_from([0.0, 3.7e-6, 1e-4]),
           swing=st.floats(0.2, 1.8),
           above=st.booleans(),
           offset=st.one_of(st.just(0.0), st.floats(-1e-12, 3.0)),
           slack=st.floats(-1.0, 3.0),
           tail=st.one_of(st.none(), st.floats(0.0, 2e-3)))
    def test_kernel_matches_the_loop_from_any_start(
            self, kind, reload, free_until, quiet, late, count, duration, pause,
            lead, swing, above, offset, slack, tail):
        timeout = max(duration + slack / F, 2.5 / F)
        cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
        if kind == "held":
            state = step(initial_state(cfg), cfg, free_until)
            state = with_injection(state, cfg, _opposing(0.041, state.osc_phase))
            state = step(state, cfg, state.last_edge_time
                         + (1.0 + quiet * (timeout * F - 2.0)) / F)
        else:
            state = _start(kind, cfg, free_until, quiet, late)
        amp, thr = cfg.nominal_amplitude, cfg.trigger_threshold
        amplitude = amp + swing * thr if above else amp - swing * thr
        start = state.wall_time + lead
        plan = _stall_plan(start, count, duration + pause, duration, amplitude,
                           state.osc_phase + math.pi + offset)
        until = None if tail is None else start + count * (duration + pause) + tail
        (kernel, got), (loop, want), calls = _kernel_and_loop(plan, cfg, state, until)
        assert calls == [count]
        assert _same_bits(got, want)
        k, w = kernel.state, loop.state
        assert (k.counter, k.frozen, k.injection) == (w.counter, w.frozen, w.injection)
        assert [k.rtc_time.hex(), k.last_edge_time.hex(), k.wall_time.hex()] == [
            w.rtc_time.hex(), w.last_edge_time.hex(), w.wall_time.hex()]
        assert k == w
        assert kernel.phase_prediction_error == loop.phase_prediction_error

    def test_thirty_days_back_one_day(self):
        # 172,800 bursts of 0.5 s; the loop takes about 48 us a burst.
        cfg = RtcConfig(mode="thirtytwo_bit")
        goal = DriftGoal(window=30 * 86400.0, drift=86400.0, direction="backward")
        plan = plan_backward(goal, 0.5, amplitude=0.1)
        assert plan.bursts.count == 172_800
        run = simulate_plan(plan, cfg, collect_ticks=False)
        train = plan.bursts
        starts = train.start + np.arange(train.count) * train.period
        crossings = stall_train_crossings(F, cfg.nominal_amplitude, cfg.trigger_threshold,
                                          0.0, starts, train.duration, 0.1)
        ticks, rest = divmod(crossings - cfg.divider_reload, cfg.divider_reload)
        assert run.state.counter == cfg.divider_reload - rest
        assert run.state.rtc_time == (ticks + 1) * cfg.tick_period
        assert run.state.wall_time == plan.span and not run.state.frozen
        # One day of stalls, less the cycles the edges at burst ends regain.
        assert -86400.0 < run.drift < -86400.0 + 3.0

    def test_largest_gap_decides_the_freeze(self):
        # BASE_CONFIG's goal: 12 stalls of 0.5 s.  The gap from the last
        # crossing before a stall to the first after it is at most two
        # cycles longer than the stall.
        cfg = RtcConfig()
        plan = plan_backward(_backward_goal(), 0.5, amplitude=0.1)
        gap = stall_gap(plan, cfg, 30.0)
        assert 0.5 < gap < 0.5 + 2.0 / F
        for timeout, frozen in ((gap, True), (math.nextafter(gap, 1.0), False)):
            run = simulate_plan(plan, replace(cfg, freeze_timeout=timeout), until=30.0)
            assert run.state.frozen == frozen
        with pytest.raises(ValueError, match="stall bursts"):
            stall_gap(plan_forward(_forward_goal(1.0, 12.0), 1e-5, 1.0,
                                   amplitude=0.005), cfg)


def _forward_plan(start, count, period, duration, step, phase0):
    train = BurstTrain(start=start, period=period, duration=duration, count=count,
                       amplitude=0.005, frequency=F, phase0=phase0, phase_step=step)
    return AttackPlan(train)


def _offsets(first, step, count, duration, tau):
    """Every offset a forward train's bursts meet, by the recurrence
    d_{i+1} = g d_i + step with g = exp(-duration / tau), or 0 from 5 tau."""
    g = 0.0 if duration >= 5.0 * tau else math.exp(-duration / tau)
    offsets = [first]
    for _ in range(count - 1):
        offsets.append(g * offsets[-1] + step)
    return offsets


def _run(simulate, plan, cfg, state, until):
    """The run, or the burst its ``PlanError`` names, and the ticks."""
    ticks = []

    def sink(wall_times, rtc_times):
        ticks.extend(zip(wall_times.tolist(), rtc_times.tolist()))

    try:
        return simulate(plan, cfg, state, until=until, sink=sink), ticks
    except PlanError as exc:
        return int(re.match(r"burst (\d+) ", str(exc))[1]), ticks


def _close(run, ticks, want, want_ticks):
    """Equal counts and freeze state; times and phases within 1e-12."""
    k, w = run.state, want.state
    assert (k.counter, k.rtc_time, k.frozen) == (w.counter, w.rtc_time, w.frozen)
    assert abs(k.last_edge_time - w.last_edge_time) <= 1e-12
    assert abs(k.wall_time - w.wall_time) <= 1e-12
    assert _phase_gap(k.osc_phase, w.osc_phase) <= 1e-12
    assert [r for _, r in ticks] == [r for _, r in want_ticks]
    assert all(abs(a - b) <= 1e-12 for (a, _), (b, _) in zip(ticks, want_ticks))


# Forward trains for the kernel properties: bursts on both sides of five
# time constants (15 us), a step in (0, pi), and a first burst that meets
# either the step or an offset of its own.
FORWARD_CASES = dict(
    kind=st.sampled_from(["fresh", "stalled", "overdue", "frozen", "weak"]),
    reload=st.sampled_from([1, 3, 32, 32768]),
    timeout=st.sampled_from([1e-3, 2.5e-3]),
    free_until=st.floats(1e-6, 5e-4),
    quiet=st.floats(0.0, 0.98),
    late=st.floats(0.01, 0.99),
    count=st.integers(1, 40),
    step=st.floats(1e-3, math.pi - 1e-3),
    first=st.one_of(st.none(), st.floats(1e-3, math.pi - 1e-3)),
    duration=st.one_of(st.floats(1e-7, 1.5e-5), st.floats(1.5e-5, 6e-5)),
    pause=st.one_of(st.just(0.0), st.floats(0.0, 2e-4)),
    lead=st.sampled_from([0.0, 3.7e-6, 1e-4]),
)


def _forward_case(kind, reload, timeout, free_until, quiet, late, count, step,
                  first, duration, pause, lead):
    """A start state and a forward plan from it; every offset its bursts meet
    lies at least 1e-9 from the bounds (1e-12, pi - 1e-12) of a lead."""
    cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
    state = _start(kind, cfg, free_until, quiet, late)
    first = step if first is None else first
    offsets = _offsets(first, step, count, duration, cfg.convergence_time_constant)
    assume(all(abs(d - bound) > 1e-9 for d in offsets
               for bound in (1e-12, math.pi - 1e-12)))
    plan = _forward_plan(state.wall_time + lead, count, duration + pause, duration,
                         step, state.osc_phase + first)
    return cfg, state, plan


class TestForwardTrain:
    """Every forward train runs as one closed-form train, held to the
    per-burst loop oracle over the same bursts."""

    @settings(max_examples=300, deadline=None)
    @given(**FORWARD_CASES, tail=st.one_of(st.none(), st.floats(0.0, 2e-3)))
    def test_kernel_matches_the_loop_from_any_start(self, tail, **case):
        cfg, state, plan = _forward_case(**case)
        until = None if tail is None else plan.span + plan.bursts.start + tail
        kernel, ticks = _run(simulate_plan, plan, cfg, state, until)
        loop, want = _run(plan_loop, plan, cfg, state, until)
        if isinstance(loop, int) or isinstance(kernel, int):
            assert kernel == loop       # the same burst is refused
            return
        _close(kernel, ticks, loop, want)
        assert kernel.phase_prediction_error == pytest.approx(
            loop.phase_prediction_error, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(**FORWARD_CASES, cut=st.floats(0.0, 1.0))
    def test_a_train_cut_in_two_runs_as_one(self, cut, **case):
        # The second part starts from the first's end state, so its first
        # burst meets whatever offset the first part left: off the step
        # whenever the bursts do not converge.
        assume(case["count"] >= 2)
        cfg, state, plan = _forward_case(**case)
        whole, ticks = _run(simulate_plan, plan, cfg, state, None)
        assume(not isinstance(whole, int))
        train, j = plan.bursts, 1 + int(cut * (case["count"] - 2))
        head = _forward_plan(train.start, j, train.period, train.duration,
                             train.phase_step, train.signal.phase)
        tail = _forward_plan(train.start + j * train.period, train.count - j,
                             train.period, train.duration, train.phase_step,
                             train.signal.phase + j * train.phase_step)
        first, split = _run(simulate_plan, head, cfg, state, None)
        second, more = _run(simulate_plan, tail, cfg, first.state, None)
        _close(second, split + more, whole, ticks)


class TestBurstTrain:
    @settings(max_examples=200, deadline=None)
    @given(
        start=st.floats(0.0, 100.0),
        duration=st.floats(1e-7, 1.0),
        pause=st.one_of(st.just(0.0), st.floats(0.0, 1e-12)),
        count=st.integers(2, 300),
    )
    def test_no_burst_starts_before_the_previous_end(self, start, duration,
                                                     pause, count):
        train = BurstTrain(start=start, period=duration + pause, duration=duration,
                           count=count, amplitude=0.005, frequency=F, phase0=0.0)
        assert train.period >= duration + pause
        listed = bursts(train)
        assert all(b.start >= a.end for a, b in zip(listed, listed[1:]))

    def test_pause_below_an_ulp_matches_the_loop(self):
        # A pause below an ulp of t1, and t1 under five time constants: the
        # per-burst loop refused this plan, a burst starting one ulp before
        # the previous one ended, until the train widened its period.
        t1 = 1.1253403564761672e-05
        window = 0.00022506807129523345
        plan = plan_forward(_forward_goal(window, 5.0), t1, math.pi / 2,
                            amplitude=0.005)
        k = math.ceil(TWO_PI * 5.0 / (math.pi / 2))
        assert plan.bursts.count == k
        assert 0.0 < (window - k * t1) / (k - 1) < math.ulp(t1)
        cfg = RtcConfig(mode="thirtytwo_bit")
        run = simulate_plan(plan, cfg, until=window)
        loop = plan_loop(plan, cfg, until=window)
        assert run.state.wall_time == loop.state.wall_time == plan.span
        assert (run.state.counter, run.state.rtc_time) == (loop.state.counter,
                                                            loop.state.rtc_time)
        assert _phase_gap(run.state.osc_phase, loop.state.osc_phase) < 1e-12


def simulate_free(cfg, until):
    st = initial_state(cfg)
    end = step(st, cfg, until)
    ticks = round((end.rtc_time - st.rtc_time) / cfg.tick_period)
    return ticks * cfg.divider_reload + (st.counter - end.counter)


class TestPlanExport:
    def test_jsonl_round_trip(self, tmp_path):
        plan = plan_backward(_backward_goal(), 0.5, amplitude=0.05)
        path = tmp_path / "plan.jsonl"
        with open(path, "w") as fh:
            export_plan_jsonl(plan, fh)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 12
        with open(path) as fh:
            loaded_bursts = load_plan_jsonl(fh, frequency=F)
        for orig, loaded in zip(bursts(plan.bursts), loaded_bursts):
            assert loaded.start == orig.start
            assert loaded.duration == orig.duration
            assert loaded.signal == orig.signal

    # Counts on both sides of one and two 4,096-line chunks; steps of 0, and
    # steps either way that wrap; first phases on either side of 0 and of
    # 2 pi; periods a few ulps above the duration, which the train widens.
    # No shrinking: the reference writer takes about 0.1 s for 8,193 lines,
    # and shrinking through hundreds of such examples takes minutes.
    @settings(max_examples=60, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    @given(
        count=st.one_of(st.sampled_from([1, 4095, 4096, 4097, 8193]),
                        st.integers(1, 40)),
        start=st.floats(1e-9, 1e5),
        duration=st.floats(1e-7, 1.0),
        gap=st.one_of(st.integers(0, 4), st.floats(0.0, 10.0)),
        phase0=st.one_of(
            st.sampled_from([0.0, 5e-324, -5e-324, -1e-15, TWO_PI - 1e-15,
                             math.nextafter(TWO_PI, 0.0), TWO_PI, TWO_PI + 1e-15]),
            st.floats(-1e-9, 1e-9), st.floats(TWO_PI - 1e-9, TWO_PI + 1e-9)),
        phase_step=st.one_of(st.just(0.0),
                             st.floats(1e-3, math.pi, exclude_max=True),
                             st.floats(-math.pi, -1e-3)),
        amplitude=st.floats(0.0, 1.0),
    )
    def test_writer_matches_the_per_burst_reference(self, count, start, duration,
                                                    gap, phase0, phase_step,
                                                    amplitude):
        # An integer gap is that many ulps of the duration; a float one, a
        # pause of that many durations.
        period = (duration + gap * math.ulp(duration) if isinstance(gap, int)
                  else duration * (1.0 + gap))
        plan = AttackPlan(BurstTrain(start=start, period=period, duration=duration,
                                     count=count, amplitude=amplitude, frequency=F,
                                     phase0=phase0, phase_step=phase_step))
        got, want = io.StringIO(), io.StringIO()
        export_plan_jsonl(plan, got)
        per_burst_jsonl(plan, want)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().count("\n") == count

    def test_integer_fields_print_as_floats(self):
        plan = AttackPlan(BurstTrain(start=0, period=2, duration=1, count=2,
                                     amplitude=1, frequency=F, phase0=0))
        fh = io.StringIO()
        export_plan_jsonl(plan, fh)
        assert fh.getvalue() == (
            '{"amplitude_v": 1.0, "duration_s": 1.0, "phase_rad": 0.0, "start_s": 0.0}\n'
            '{"amplitude_v": 1.0, "duration_s": 1.0, "phase_rad": 0.0, "start_s": 2.0}\n')


TRAIN = dict(start=0.0, period=1.0, duration=0.5, count=3, amplitude=0.005,
             frequency=F, phase0=0.0, phase_step=0.0)


class TestBurstTrainRefusals:
    @pytest.mark.parametrize("name", ["start", "period", "duration", "amplitude",
                                      "frequency", "phase0", "phase_step"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            BurstTrain(**{**TRAIN, name: value})

    @pytest.mark.parametrize("amplitude", [-1e-300, -1.0])
    def test_negative_amplitude(self, amplitude):
        with pytest.raises(ValueError, match="^amplitude must be >= 0"):
            BurstTrain(**{**TRAIN, "amplitude": amplitude})

    @pytest.mark.parametrize("frequency", [0.0, -0.0, -32768.0])
    def test_frequency_not_above_zero(self, frequency):
        with pytest.raises(ValueError, match="^frequency must be > 0"):
            BurstTrain(**{**TRAIN, "frequency": frequency})

    @pytest.mark.parametrize("change", [
        dict(start=1e308, period=1e308),
        dict(period=1e308, duration=1e308, count=2),
        dict(start=1.7e308, duration=1e308, count=1),
        # |start| + duration overflows, so the widened period is inf.
        dict(start=-1.7e308, duration=1.7e308, count=1),
    ])
    def test_last_end_overflows(self, change):
        with pytest.raises(ValueError, match=r"^the last of \d bursts overflows: it ends "
                           r"at (inf|nan) s with its phase at 0\.0 rad$"):
            BurstTrain(**{**TRAIN, **change})

    def test_last_phase_overflows(self):
        with pytest.raises(ValueError, match=r"^the last of 3 bursts overflows: it ends "
                           r"at 2\.5 s with its phase at inf rad$"):
            BurstTrain(**{**TRAIN, "phase_step": 1e308})
        BurstTrain(**{**TRAIN, "phase_step": 1e308, "count": 1})

    def test_fields_become_floats(self):
        train = BurstTrain(**{**TRAIN, "start": 1, "period": np.float64(2.0),
                              "duration": 1, "phase_step": 0})
        values = (train.start, train.period, train.duration, train.phase_step,
                  train.signal.amplitude, train.signal.frequency, train.signal.phase)
        assert all(type(v) is float for v in values)


@pytest.fixture(scope="module")
def chain_context():
    medium = load_media(thickness=5e-3)["acrylic glass"]
    return build_context(
        medium,
        CrystalSpec(),
        RtcConfig(),
        TransducerSpec(position=0.055, drive_amplitude=20.0),
        circuit_phase_offset=0.9,
    )


class TestCalibration:
    def test_recovers_chain_phase(self, chain_context):
        z = chain_context.transducer.position
        phase_map = calibrate_phase_map(chain_context, z, 64)
        for phi in (0.0, 1.0, 2.5, 5.0):
            truth = chain_context.induced_signal(phi, z).phase
            got = phase_map.beta1_at(z, phi)
            err = abs(wrap_phase(got - truth + math.pi) - math.pi)
            assert err < 0.05

    def test_shift_property_exact(self, chain_context):
        z = chain_context.transducer.position
        phase_map = calibrate_phase_map(chain_context, z, 64)
        base = phase_map.beta1_at(z, 0.3)
        for shift in (0.1, 1.7, 4.0):
            assert phase_map.beta1_at(z, 0.3 + shift) == pytest.approx(
                wrap_phase(base + shift), abs=1e-12
            )

    def test_map_entries_span_grid(self, chain_context):
        z = chain_context.transducer.position
        phase_map = calibrate_phase_map(chain_context, z, 16)
        grid_step = phase_map.grid_resolution
        assert grid_step == pytest.approx(TWO_PI / 16)
        betas = [phase_map.beta1_at(z, i * grid_step) for i in range(16)]
        assert all(0.0 <= b < TWO_PI for b in betas)
        # 16 distinct grid values, one grid step apart around the circle
        assert len(set(betas)) == 16
        for a, b in zip(betas, betas[1:] + betas[:1]):
            assert wrap_phase(b - a) == pytest.approx(grid_step, abs=1e-12)

    def test_anchor_phase_range_checked(self):
        with pytest.raises(ValueError):
            PhaseMap(grid_resolution=TWO_PI / 16, anchors={0.05: (0.0, TWO_PI)})

    def test_two_distances_differ_by_path_phase(self, chain_context):
        mode = chain_context.mode
        z1, z2 = 0.05, 0.08
        map1 = calibrate_phase_map(chain_context, z1, 64)
        map2 = calibrate_phase_map(chain_context, z2, 64)
        got = wrap_phase(map2.beta1_at(z2, 1.0) - map1.beta1_at(z1, 1.0))
        dz = z2 - z1
        expected = wrap_phase(-(mode.omega * dz / mode.c_s + mode.k_a * dz))
        err = abs(wrap_phase(got - expected + math.pi) - math.pi)
        assert err < 0.01

    def test_finer_grid_not_worse(self, chain_context):
        z = chain_context.transducer.position
        errs = {}
        for grid in (8, 256):
            phase_map = calibrate_phase_map(chain_context, z, grid)
            truth = chain_context.induced_signal(1.0, z).phase
            got = phase_map.beta1_at(z, 1.0)
            errs[grid] = abs(wrap_phase(got - truth + math.pi) - math.pi)
        assert errs[256] <= errs[8] + 1e-12
        assert errs[8] < TWO_PI / 8

    def test_flat_sweep_fails_calibration(self, chain_context):
        class Dead:
            def oscillator(self):
                return chain_context.oscillator()

            def induced_signal(self, phi, z):
                return Sinusoid(0.0, F, 0.0)

        with pytest.raises(CalibrationError):
            calibrate_phase_map(Dead(), 0.05, 16)

    def test_grid_floor(self, chain_context):
        with pytest.raises(ValueError):
            calibrate_phase_map(chain_context, 0.05, 4)
