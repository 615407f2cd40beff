import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab.chain import TransducerSpec, build_context
from driftlab.crystal import CrystalSpec
from driftlab.lamb import load_media
from driftlab import planner
from driftlab.planner import (
    BurstTrain,
    CalibrationError,
    DriftGoal,
    FreezeRiskError,
    InfeasiblePlanError,
    PhaseMap,
    calibrate_phase_map,
    export_plan_jsonl,
    load_plan_jsonl,
    plan_backward,
    plan_forward,
    simulate_plan,
)
from driftlab.rtc import RtcConfig, initial_state, run_uniform_train, step
from driftlab.signals import TWO_PI, Sinusoid, wrap_phase

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
        assert plan.burst_count_k == 12
        assert plan.pause_t2 == pytest.approx(24.0 / 11.0)
        assert len(plan.bursts) == 12
        assert plan.bursts[0].signal.phase == pytest.approx(math.pi)

    def test_single_burst_degenerate(self):
        plan = plan_backward(_backward_goal(30.0, 0.4), 0.5, amplitude=0.05)
        assert plan.burst_count_k == 1
        assert plan.pause_t2 == 0.0

    def test_freeze_risk_rejected(self):
        with pytest.raises(FreezeRiskError):
            plan_backward(_backward_goal(), 0.5, freeze_timeout=0.4, amplitude=0.05)

    def test_bursts_sorted_disjoint(self):
        plan = plan_backward(_backward_goal(), 0.5, amplitude=0.05)
        for first, second in zip(plan.bursts, plan.bursts[1:]):
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
        total_on = plan.burst_count_k * plan.single_duration_t1
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
        assert plan.burst_count_k == 48
        assert plan.pause_t2 == pytest.approx((1.0 - 48e-5) / 47.0)

    def test_ceiling_boundary(self):
        # exact-integer ratio: 2*pi*0.5 / (pi/2) == 2, ceiling stays at 2
        plan = plan_forward(_forward_goal(1.0, 0.5), 1e-5, math.pi / 2,
                            amplitude=0.005)
        assert plan.burst_count_k == 2
        # just below pi the ratio for one cycle sits barely above 2
        plan = plan_forward(_forward_goal(1.0, 1.0), 1e-5, math.pi - 1e-9,
                            amplitude=0.005)
        assert plan.burst_count_k == 3

    def test_infeasible_names_constraint(self):
        with pytest.raises(InfeasiblePlanError) as exc:
            plan_forward(_forward_goal(1e-4, 12.0), 1e-5, math.pi / 2,
                         amplitude=0.005)
        assert "window > burst_count * t1" in exc.value.constraint

    def test_phase_steps_by_delta(self):
        plan = plan_forward(_forward_goal(1.0, 2.0), 1e-5, 1.0, amplitude=0.005)
        phases = [b.signal.phase for b in plan.bursts[:4]]
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
        assert plan.pause_t2 >= 0.0
        assert plan.burst_count_k * plan.phase_step_delta / TWO_PI >= cycles

    def test_round_trip_exact_cycles(self):
        # 48 bursts of pi/2: 12 whole extra cycles, an exact crossing count.
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        plan = plan_forward(_forward_goal(1.0, 12.0), 1.6e-5, math.pi / 2,
                            amplitude=0.005)
        run = simulate_plan(plan, cfg, until=1.0, collect_ticks=False)
        free = simulate_free(cfg, 1.0)
        assert run.crossings_counted - free == 12

    def test_fast_path_agrees_with_loop(self, monkeypatch):
        # Uniform forward trains of every length take the closed form; the
        # per-burst loop over the same bursts is the reference.
        trains = []

        def spy(*args, **kwargs):
            trains.append(kwargs["count"])
            return run_uniform_train(*args, **kwargs)

        monkeypatch.setattr(planner, "run_uniform_train", spy)
        cfg = RtcConfig(divider_reload=32, mode="thirtytwo_bit")
        for window, cycles, k in ((1.0, 12.0, 48), (2.0, 600.0, 2400)):
            trains.clear()
            plan = plan_forward(_forward_goal(window, cycles), 1.6e-5,
                                math.pi / 2, amplitude=0.005)
            assert plan.burst_count_k == k
            fast = simulate_plan(plan, cfg, until=window)
            quiet = simulate_plan(plan, cfg, until=window, collect_ticks=False)
            assert quiet.state == fast.state and quiet.ticks == []
            # a plain burst list without a phase step runs burst by burst
            loop_plan = replace(plan, bursts=list(plan.bursts),
                                phase_step_delta=None)
            slow = simulate_plan(loop_plan, cfg, until=window)
            assert trains == [k, k]
            assert fast.crossings_counted == slow.crossings_counted
            assert fast.state.rtc_time == slow.state.rtc_time
            assert len(fast.ticks) == len(slow.ticks) > 0
            assert [t.rtc_time for t in fast.ticks] == [
                (i + 1) * cfg.tick_period for i in range(len(fast.ticks))
            ]
            for a, b in zip(fast.ticks, slow.ticks):
                assert a.rtc_time == b.rtc_time
                assert abs(a.time - b.time) <= 1e-12


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
        ends = [b.end for b in train[:-1]]
        assert all(b.start >= end for b, end in zip(train[1:], ends))

    def test_pause_below_an_ulp_runs_burst_by_burst(self):
        # A pause below an ulp of t1, and t1 under five time constants: the
        # per-burst loop refused this plan, a burst starting one ulp before
        # the previous one ended.
        t1 = 1.1253403564761672e-05
        window = 0.00022506807129523345
        plan = plan_forward(_forward_goal(window, 5.0), t1, math.pi / 2,
                            amplitude=0.005)
        assert 0.0 < plan.pause_t2 < math.ulp(t1)
        cfg = RtcConfig(mode="thirtytwo_bit")
        run = simulate_plan(plan, cfg, until=window)
        assert run.state.wall_time == plan.span


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
            bursts = load_plan_jsonl(fh, frequency=F)
        for orig, loaded in zip(plan.bursts, bursts):
            assert loaded.start == orig.start
            assert loaded.duration == orig.duration
            assert loaded.signal == orig.signal


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
