"""The crossing ledger ``rtc._cross`` against a walk crossing by crossing, and
the engine's transitions against themselves cut at interior times."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from driftlab import rtc
from driftlab.rtc import InjectionBurst, RtcConfig, RtcState, initial_state, run_uniform_train
from driftlab.signals import Sinusoid, wrap_phase

from oracles import bursts as listed_bursts, ledger
from test_rtc import F, _bits, _phase_gap, _through_sink, _train_bursts

# Every time in a drawn run is a whole number of cycles of the 32,768 Hz
# clock, where drawn a few ulps late, so the watchdog meets gaps of exactly
# k cycles, gaps an ulp or so over one cycle, and timeouts on k cycles, a
# 1,024th of a cycle either side, or one ulp over one cycle.
CYCLE = 1.0 / F

SEGMENTS = st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 1), st.integers(1, 4)),
    st.tuples(st.just("stretch"), st.one_of(st.integers(0, 3), st.integers(0, 60)),
              st.integers(1, 4)),
    st.tuples(st.just("stretch"), st.integers(4000, 8500), st.integers(1, 4)),
    st.tuples(st.just("quiet"), st.just(0), st.integers(1, 40)),
)


@st.composite
def ledger_runs(draw):
    """A start state, a config and a run of segments: crossing m of segment
    j at ``t0[j] + m * dt[j]``, a quiet segment ending ``dt[j]`` after the
    last."""
    reload = draw(st.one_of(st.just(1), st.integers(1, 40), st.integers(1, 65535)))
    k = draw(st.one_of(st.integers(2, 6), st.integers(2, 60)))
    on_k = st.sampled_from([k - 2**-10, k, k + 2**-10]).map(lambda cycles: cycles * CYCLE)
    timeout = draw(st.one_of(st.none(), st.none(), st.just(math.nextafter(CYCLE, math.inf)),
                             on_k, on_k))
    state = RtcState(counter=draw(st.one_of(st.integers(1, min(reload, 3)),
                                            st.integers(1, reload))),
                     rtc_time=draw(st.integers(0, 2**30)) * CYCLE,
                     last_edge_time=draw(st.integers(0, 40)) * CYCLE,
                     frozen=draw(st.integers(0, 7)) == 0)
    t = state.last_edge_time + draw(st.integers(0, 10)) * CYCLE
    n, quiet, t0, dt = [], [], [], []
    for kind, count, cycles in draw(st.lists(SEGMENTS, min_size=1, max_size=8)):
        t += draw(st.sampled_from([0, 0, 1, 4])) * math.ulp(t)
        step = cycles * CYCLE
        n.append(count)
        quiet.append(t + step if kind == "quiet" else -math.inf)
        t0.append(t)
        dt.append(step)
        t += step * (1 if kind == "quiet" else count + 1)
    config = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
    return (state, config, np.array(n, np.int64), np.array(quiet),
            np.array(t0), np.array(dt), t)


@settings(max_examples=100, deadline=None)
@given(run=ledger_runs())
def test_ledger_matches_the_crossing_walk(run):
    state, config, n, quiet, t0, dt, end = run

    def time_of(j, m):
        return t0[j] + m * dt[j]

    sizes = []

    def sink(wall_times, rtc_times):
        sizes.append(len(wall_times))
        sink.ticks += [(w.hex(), r.hex()) for w, r in zip(wall_times.tolist(),
                                                          rtc_times.tolist())]
    sink.ticks = []

    got, gap = rtc._cross(state, config, n, quiet, time_of, sink, wall_time=end)
    want, ticks, largest = ledger(state, config, n, quiet, time_of, wall_time=end)
    assert repr(got) == repr(want)
    assert gap.hex() == largest.hex()
    assert sink.ticks == [(w.hex(), r.hex()) for w, r in ticks]
    full, rest = divmod(len(ticks), rtc.TICK_CHUNK)
    assert sizes == [rtc.TICK_CHUNK] * full + ([rest] if rest else [])


def _cut_times(start, end, fractions):
    """Interior times of ``(start, end)``, increasing, at the drawn fractions."""
    times = sorted({start + f * (end - start) for f in fractions})
    return [t for t in times if start < t < end]


FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)


class EngineCuts(RuleBasedStateMachine):
    """The engine at 32,768 Hz, where every tick period reload / 2**15 is
    dyadic and RTC sums are exact.  Each rule runs once whole and once cut:
    a step, or the stretch before an injection switch or a burst, at drawn
    interior times, which must give every bit of the state and ticks again;
    a train burst by burst, held to the train/loop tolerances.  The machine
    goes on from the whole run's state."""

    @initialize(reload=st.one_of(st.integers(1, 64), st.integers(1, 65535)),
                timeout=st.one_of(
                    st.none(), st.just(math.nextafter(1.0 / F, math.inf)), st.just(2.0 / F),
                    st.floats(math.nextafter(1.0 / F, math.inf), 5e-3)),
                phase=st.floats(0.0, 6.28))
    def start(self, reload, timeout, phase):
        self.cfg = RtcConfig(divider_reload=reload, freeze_timeout=timeout)
        self.state = initial_state(self.cfg, phase)

    def _cut_step(self, until, fractions):
        """The state after one step to ``until``, which the step cut at the
        drawn fractions must give again, ticks included."""
        whole, ticks = _through_sink(rtc.step, self.state, self.cfg, until)
        cut, cut_ticks = self.state, []
        for t in _cut_times(self.state.wall_time, until, fractions) + [until]:
            cut, more = _through_sink(rtc.step, cut, self.cfg, t)
            cut_ticks += more
        assert repr(cut) == repr(whole)
        assert _bits(cut_ticks) == _bits(ticks)
        return whole

    @rule(span=st.floats(1e-6, 0.03), fractions=FRACTIONS)
    def run_free(self, span, fractions):
        self.state = self._cut_step(self.state.wall_time + span, fractions)

    @rule(on=st.booleans(), amplitude=st.floats(0.0, 0.12), skew=st.floats(-0.5, 0.5),
          span=st.floats(1e-6, 0.01), fractions=FRACTIONS)
    def switch(self, on, amplitude, skew, span, fractions):
        state = self._cut_step(self.state.wall_time + span, fractions)
        signal = (Sinusoid(amplitude, F, wrap_phase(state.osc_phase + math.pi + skew))
                  if on else None)
        self.state = rtc.with_injection(state, self.cfg, signal)

    @precondition(lambda self: self.state.injection is None)
    @rule(lead=st.floats(0.0, 2e-3), duration=st.floats(1e-6, 6e-5),
          offset=st.floats(0.05, 3.0), fractions=FRACTIONS)
    def burst(self, lead, duration, offset, fractions):
        start = self.state.wall_time + lead
        burst = InjectionBurst(start, duration,
                               Sinusoid(0.005, F, wrap_phase(self.state.osc_phase + offset)))
        whole, ticks = _through_sink(rtc.apply_phase_advance, self.state, self.cfg, burst)
        cut, cut_ticks = self.state, []
        for t in _cut_times(self.state.wall_time, start, fractions):
            cut, more = _through_sink(rtc.step, cut, self.cfg, t)
            cut_ticks += more
        cut, more = _through_sink(rtc.apply_phase_advance, cut, self.cfg, burst)
        assert repr(cut) == repr(whole)
        assert _bits(cut_ticks + more) == _bits(ticks)
        self.state = whole

    @precondition(lambda self: self.state.injection is None)
    @rule(count=st.integers(1, 12), delta=st.floats(0.05, 1.5),
          duration=st.floats(1.5e-5, 6e-5), pause=st.floats(0.0, 2e-4),
          lead=st.floats(0.0, 1e-4))
    def train(self, count, delta, duration, pause, lead):
        state, cfg = self.state, self.cfg
        bursts = _train_bursts(state, count, duration + pause, duration, delta,
                               state.wall_time + lead)
        ticks = []
        whole = run_uniform_train(state, cfg, count=count, period=bursts.period,
                                  duration=duration, delta=delta, start=bursts.start,
                                  sink=rtc.tick_collector(ticks)).state
        cut, cut_ticks = state, []
        for burst in listed_bursts(bursts):
            cut, more = _through_sink(rtc.apply_phase_advance, cut, cfg, burst)
            cut_ticks += more
        assert (cut.wall_time, cut.counter, cut.rtc_time, cut.frozen) == (
            whole.wall_time, whole.counter, whole.rtc_time, whole.frozen)
        assert abs(cut.last_edge_time - whole.last_edge_time) <= 1e-12
        assert _phase_gap(cut.osc_phase, whole.osc_phase) <= 1e-12
        assert [t.rtc_time for t in cut_ticks] == [t.rtc_time for t in ticks]
        assert all(abs(a.time - b.time) <= 1e-12 for a, b in zip(cut_ticks, ticks))
        self.state = whole


EngineCuts.TestCase.settings = settings(max_examples=60, stateful_step_count=8,
                                        deadline=None)
TestEngineCuts = EngineCuts.TestCase
