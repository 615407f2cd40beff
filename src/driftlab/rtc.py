"""Event-driven emulation of the oscillator, divider and time counters.

The oscillator output is tracked analytically: within any stretch of constant
injection status the waveform is a single sinusoid, and the times at which it
crosses the edge-trigger threshold upward have a closed form.  The divider
decrements once per upward crossing and emits one tick (resetting itself)
each time it reaches zero, so time never needs to be sampled -- the engine
advances from event to event.  A stretch costs the same however many ticks it
holds: the RTC time advances by whole ticks in one multiply, and tick times
are computed only when the caller passes a sink for them.

Two injection mechanisms exist, matching the two drift directions:

* a sustained opposing injection pulls the superposed amplitude below the
  trigger threshold, so crossings (and therefore ticks) simply stop;
* a short burst whose phase leads the oscillation by less than pi drags the
  oscillation phase forward, so subsequent crossings arrive early and extra
  cycles accumulate.

Phase convergence during a burst follows first-order relaxation toward the
injected phase with a configurable time constant; a burst lasting at least
five time constants is treated as fully converged and closes its whole
offset; a shorter one leaves a share of it, so a train's offsets follow a
geometric series, summed in closed form (``_advance``).  Crossings are timed a float64 array at a time: in a free
stretch, and in a burst once the offset has settled, their times have the
closed form; only a crossing inside the relaxation stretch is bisected.

A train of stall bursts is counted in closed form as well.  A stall moves no
phase, so the waveform only switches between the free oscillation and one
superposed sinusoid, and the crossings, jump edges and watchdog checks of a
block of bursts follow from arrays of their start and end times
(``_stall_train``).

Ticks go to an optional sink, a callable that receives ``(wall_times,
rtc_times)`` float64 arrays in time order, at most ``TICK_CHUNK`` ticks a
call, so no call holds more than one chunk however long the stretch.  A list
is one sink (``tick_collector``), which the ``*_with_events`` functions use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .signals import TWO_PI, Sinusoid, superpose, wrap_phase

MODE_CALENDAR = "calendar"
MODE_32BIT = "thirtytwo_bit"

DIVIDER_MAX = 65535  # 16-bit divider counter

# Bursts at least this many time constants long count as fully converged.
FULL_CONVERGENCE_FACTOR = 5.0

# Most ticks handed to a sink in one call.
TICK_CHUNK = 4096

# A burst drags the phase when it leads by (LEAD_MARGIN, pi - LEAD_MARGIN).
LEAD_MARGIN = 1e-12

# Receives (wall_times, rtc_times) of consecutive ticks.
TickSink = Callable[[np.ndarray, np.ndarray], None]


class PlanError(ValueError):
    """Injection request violates the engine's preconditions."""


class TickEvent(NamedTuple):
    """One divider output pulse: when it fired and the RTC time after it."""

    time: float
    rtc_time: float


def tick_collector(events: list) -> TickSink:
    """A sink that appends every tick it receives to ``events``."""
    def collect(wall_times: np.ndarray, rtc_times: np.ndarray) -> None:
        events.extend(map(TickEvent, wall_times.tolist(), rtc_times.tolist()))
    return collect


@dataclass(frozen=True)
class InjectionBurst:
    """Timed injection of an induced electrical signal at the crystal.

    ``start`` is wall time at the crystal (propagation delay already spent);
    the signal carries the injected phase and amplitude on the electrical
    side of the chain.
    """

    start: float
    duration: float
    signal: Sinusoid

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError("burst duration must be > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RtcConfig:
    nominal_freq: float = 32768.0
    nominal_amplitude: float = 0.080
    trigger_threshold: Optional[float] = None   # defaults to half the amplitude
    divider_reload: Optional[int] = None        # defaults per mode
    mode: str = MODE_CALENDAR
    freeze_timeout: Optional[float] = None
    convergence_time_constant: float = 3e-6

    def __post_init__(self):
        if self.nominal_freq <= 0.0:
            raise ValueError("nominal_freq must be > 0")
        if self.nominal_amplitude <= 0.0:
            raise ValueError("nominal_amplitude must be > 0")
        if self.mode not in (MODE_CALENDAR, MODE_32BIT):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.trigger_threshold is None:
            object.__setattr__(self, "trigger_threshold", 0.5 * self.nominal_amplitude)
        if not 0.0 < self.trigger_threshold < self.nominal_amplitude:
            raise ValueError(
                "trigger_threshold must lie strictly between 0 and the "
                "nominal amplitude"
            )
        if self.divider_reload is None:
            reload = 32768 if self.mode == MODE_CALENDAR else 32
            object.__setattr__(self, "divider_reload", reload)
        if not 1 <= self.divider_reload <= DIVIDER_MAX:
            raise ValueError(f"divider_reload must lie in [1, {DIVIDER_MAX}]")
        # A stretch checks the watchdog at its first crossing only, which
        # misses no gap while one cycle is shorter than the timeout.
        if self.freeze_timeout is not None and self.freeze_timeout <= 1.0 / self.nominal_freq:
            raise ValueError("freeze_timeout must exceed one oscillator period "
                             "(1/nominal_freq) when set")
        if self.convergence_time_constant <= 0.0:
            raise ValueError("convergence_time_constant must be > 0")

    @property
    def tick_period(self) -> float:
        return self.divider_reload / self.nominal_freq


@dataclass(frozen=True)
class RtcState:
    """Value snapshot of the emulated circuit; advanced functionally."""

    osc_phase: float = 0.0
    osc_amplitude: float = 0.080
    counter: int = 32768
    rtc_time: float = 0.0
    wall_time: float = 0.0
    frozen: bool = False
    injection: Optional[Sinusoid] = None
    last_edge_time: float = 0.0


def initial_state(config: RtcConfig, osc_phase: float = 0.0) -> RtcState:
    return RtcState(
        osc_phase=wrap_phase(osc_phase),
        osc_amplitude=config.nominal_amplitude,
        counter=config.divider_reload,
        last_edge_time=0.0,
    )


def measure_drift(state: RtcState) -> float:
    """RTC time minus wall time; positive means the clock runs ahead."""
    return state.rtc_time - state.wall_time


def _active_waveform(
    state: RtcState, config: RtcConfig, injection: Optional[Sinusoid]
) -> Sinusoid:
    carrier = Sinusoid(state.osc_amplitude, config.nominal_freq, state.osc_phase)
    if injection is None:
        return carrier
    return superpose(carrier, injection)


def _crossing_index(t: float, freq: float, phase: float, theta_star: float) -> int:
    """Number of upward level crossings with crossing time <= t."""
    return math.floor(freq * t + (phase - theta_star) / TWO_PI)


def _crossing_time(n: int, freq: float, phase: float, theta_star: float) -> float:
    return (theta_star - phase + TWO_PI * n) / (TWO_PI * freq)


def _freeze_due(config: RtcConfig, t: float, last_edge: float) -> bool:
    """Whether the freeze watchdog latches at ``t`` after an edge at ``last_edge``."""
    return config.freeze_timeout is not None and t - last_edge >= config.freeze_timeout


def _leads(offset: float) -> bool:
    """Whether a burst ``offset`` ahead of the oscillation drags its phase."""
    return LEAD_MARGIN < offset < math.pi - LEAD_MARGIN


def _train_offsets(offset: float, delta: float, count: int, duration: float,
                   tau: float):
    """``(lag, kept)``: burst i of a train meets the offset
    ``offset - lag * kept(i)`` and starts when the phase has advanced
    ``i * delta + lag * kept(i)``, for a float64 array of i.

    A burst leaves g = exp(-duration / tau) of its offset, none from five
    time constants on, and each next signal is ``delta`` further on, so burst
    i meets L + (offset - L) g**i, L = delta / (1 - g): lag = offset - L and
    kept(i) = 1 - g**i.  The offsets are monotone, so a bisection finds the
    first burst that would not lead, which is refused with ``PlanError``.
    """
    converged, rate = duration >= FULL_CONVERGENCE_FACTOR * tau, duration / tau

    def kept(i):
        return np.minimum(i, 1.0) if converged else -np.expm1(-rate * i)

    drag = float(kept(np.float64(1.0)))
    limit = delta / drag if drag else math.inf
    if not math.isfinite(limit):
        raise PlanError(f"a burst of {duration!r} s drags too little phase at a "
                        f"convergence time constant of {tau!r} s")
    lag = offset - limit

    def at(i: int) -> float:
        return float(offset - lag * kept(np.float64(i)))

    lo, hi = 0, count - 1 if _leads(offset) else 0
    if _leads(at(hi)):
        return lag, kept
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _leads(at(mid)) else (lo, mid)
    raise PlanError(f"burst {hi} meets a phase offset of {at(hi)!r} rad, outside "
                    f"({LEAD_MARGIN!r}, pi - {LEAD_MARGIN!r}), so it cannot drag the "
                    f"phase forward: this train's offsets tend to L = {limit!r} rad")


def _burst_crossing_time(
    n: float, theta_star: float, freq: float, p0: float, delta: float,
    tau: float, t0: float, settle: float,
) -> float:
    """Time at which ``2 pi f t + offset(t)`` reaches crossing ``n`` in a burst.

    The offset relaxes from ``p0`` toward ``p0 + delta`` from ``t0`` on; the
    crossing lies in ``[t0, t0 + settle]``, which is bisected until the
    bracket stops shrinking.
    """
    converged = FULL_CONVERGENCE_FACTOR * tau
    target = theta_star + TWO_PI * n
    lo, hi = t0, t0 + settle
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        # The share of ``delta`` left after ``mid - t0`` of relaxation.
        elapsed = mid - t0
        gap = 0.0 if elapsed >= converged else delta * math.exp(-elapsed / tau)
        if TWO_PI * freq * mid + (p0 + (delta - gap)) < target:
            lo = mid
        else:
            hi = mid


def _check_frequency(what: str, signal: Sinusoid, config: RtcConfig) -> None:
    if signal.frequency != config.nominal_freq:
        raise PlanError(f"{what} at {signal.frequency} Hz does not match the "
                        f"oscillator ({config.nominal_freq} Hz)")


def _cross(
    state: RtcState,
    config: RtcConfig,
    n0: int,
    n1: int,
    time_of,
    sink: Optional[TickSink],
    **changes,
) -> RtcState:
    """``state`` with ``changes`` applied and crossings ``n0 + 1 .. n1`` counted.

    Every transition ends here.  ``time_of`` maps a float64 array of crossing
    numbers to their wall times; as float64, crossing numbers below 2**53 are
    exact.  The freeze watchdog latches on the first crossing or the
    crossings go through the divider: the RTC time advances by whole ticks in
    one multiply, the ticks go to ``sink`` a chunk at a time unless it is
    None, and the last crossing becomes the last edge.
    """
    count = n1 - n0
    if count <= 0:
        return replace(state, **changes)
    # A lone crossing is timed once: inside a burst it may cost a bisection.
    edges = time_of(np.array((n0 + 1, n1) if count > 1 else (n1,), np.float64)).tolist()
    first, last = edges[0], edges[-1]
    if _freeze_due(config, first, state.last_edge_time):
        return replace(state, frozen=True, **changes)
    counter, reload, rtc_time = state.counter, config.divider_reload, state.rtc_time
    ticks = 0 if count < counter else (count - counter) // reload + 1
    if sink is not None:
        # Tick i fires at crossing n + i * reload.
        n = float(n0 + counter)
        for lo in range(0, ticks, TICK_CHUNK):
            i = np.arange(lo, min(lo + TICK_CHUNK, ticks), dtype=np.float64)
            sink(time_of(n + reload * i), rtc_time + (i + 1.0) * config.tick_period)
    return replace(
        state,
        counter=counter - count + ticks * reload,
        rtc_time=rtc_time + ticks * config.tick_period,
        last_edge_time=last,
        **changes,
    )


def _step(
    state: RtcState, config: RtcConfig, until: float, sink: Optional[TickSink]
) -> RtcState:
    if until <= state.wall_time:
        raise ValueError(f"until ({until}) must exceed wall_time ({state.wall_time})")
    if state.frozen:
        return replace(state, wall_time=until)

    freq = config.nominal_freq
    wave = _active_waveform(state, config, state.injection)
    thr = config.trigger_threshold

    if wave.amplitude <= thr:
        # No crossings at all in this stretch; only the freeze watchdog runs.
        frozen = _freeze_due(config, until, state.last_edge_time)
        return replace(state, wall_time=until, frozen=frozen)

    theta_star = math.asin(thr / wave.amplitude)
    return _cross(
        state, config,
        _crossing_index(state.wall_time, freq, wave.phase, theta_star),
        _crossing_index(until, freq, wave.phase, theta_star),
        lambda n: _crossing_time(n, freq, wave.phase, theta_star),
        sink, wall_time=until,
    )


def step_with_events(
    state: RtcState, config: RtcConfig, until: float
) -> tuple[RtcState, list[TickEvent]]:
    """Advance to ``until`` under the current injection status.

    Returns the new state and the divider ticks emitted on the way.
    """
    events: list[TickEvent] = []
    return _step(state, config, until, tick_collector(events)), events


def step(state: RtcState, config: RtcConfig, until: float) -> RtcState:
    return _step(state, config, until, None)


def _with_injection(
    state: RtcState,
    config: RtcConfig,
    signal: Optional[Sinusoid],
    sink: Optional[TickSink],
) -> RtcState:
    if signal is not None:
        _check_frequency("injection", signal, config)
    if state.frozen:
        return replace(state, injection=signal)
    # The jump edge: the waveform steps from at or below the threshold to
    # above it at the switching time itself.
    t = state.wall_time
    before = _active_waveform(state, config, state.injection).value_at(t)
    after = _active_waveform(state, config, signal).value_at(t)
    jump = int(before <= config.trigger_threshold < after)
    return _cross(state, config, 0, jump, lambda n: np.full_like(n, t), sink,
                  injection=signal)


def with_injection(
    state: RtcState, config: RtcConfig, signal: Optional[Sinusoid]
) -> tuple[RtcState, list[TickEvent]]:
    """Switch the sustained injection on or off at the current wall time.

    The waveform jumps discontinuously when the injection status changes; if
    that jump itself rises through the trigger threshold the comparator sees
    an edge, which is counted here.
    """
    events: list[TickEvent] = []
    return _with_injection(state, config, signal, tick_collector(events)), events


@dataclass(frozen=True)
class TrainResult:
    state: RtcState
    crossings: int
    phase_advanced: float


def _advance(
    state: RtcState, config: RtcConfig, start: float, count: int, period: float,
    duration: float, offset: float, delta: float, sink: Optional[TickSink],
) -> TrainResult:
    """Run ``count`` bursts ``period`` apart from ``start``, each ``duration``
    long, the first ``offset`` ahead of the oscillation and each next signal
    ``delta`` further on.

    Burst i meets offset d_i and starts when the phase has advanced A_i, in
    closed form (``_train_offsets``).  The total phase is monotone, so the
    crossing count follows from its unwrapped endpoint values (an advance
    across 2 pi still adds its cycle), and the burst holding a crossing from
    the total phase at each burst start, 2 pi f i period + A_i on from the
    first: by division where the bursts converge, which makes that linear
    in i, else by a vectorised bisection.  A crossing inside burst i's
    relaxation stretch is bisected by ``_burst_crossing_time`` from A_i and
    d_i; any other has the settled closed form at A_{i+1}.
    """
    if state.injection is not None:
        raise PlanError("a phase-advance burst cannot run while a sustained "
                        "injection is on")
    if start < state.wall_time:
        raise PlanError(f"burst starts at {start} s before wall time {state.wall_time} s")
    freq, tau = config.nominal_freq, config.convergence_time_constant
    lag, kept = _train_offsets(offset, delta, count, duration, tau)
    advanced = count * delta + float(lag * kept(np.float64(count)))
    final_phase = wrap_phase(state.osc_phase + advanced)
    if start > state.wall_time:
        state = _step(state, config, start, sink)
    t_end = start + (count - 1) * period + duration
    thr = config.trigger_threshold
    if state.frozen or state.osc_amplitude <= thr:
        # No crossing to count, but the bursts still drag the phase: the
        # watchdog stops the counter, not the oscillator.
        frozen = state.frozen or _freeze_due(config, t_end, state.last_edge_time)
        state = replace(state, wall_time=t_end, osc_phase=final_phase, frozen=frozen)
        return TrainResult(state, 0, advanced)

    theta_star = math.asin(thr / state.osc_amplitude)
    beta2 = state.osc_phase
    n0 = _crossing_index(start, freq, beta2, theta_star)
    n1 = _crossing_index(t_end, freq, beta2 + advanced, theta_star)
    phase0 = TWO_PI * freq * start + beta2
    burst_gain = TWO_PI * freq * period + delta
    converged = duration >= FULL_CONVERGENCE_FACTOR * tau
    settle = FULL_CONVERGENCE_FACTOR * tau if converged else duration

    def burst_of(n: np.ndarray) -> np.ndarray:
        """The last burst that starts at or before each crossing ``n``."""
        target = theta_star + TWO_PI * n - phase0
        if converged:   # burst i >= 1 starts i * burst_gain + lag on
            return np.floor((target - lag) / burst_gain).clip(0, count - 1)
        lo, hi = np.zeros_like(n), np.full_like(n, count - 1.0)
        while (lo < hi).any():
            mid = np.ceil(0.5 * (lo + hi))
            started = mid * burst_gain + lag * kept(mid) <= target
            lo, hi = np.where(started, mid, lo), np.where(started, hi, mid - 1.0)
        return lo

    def time_of(n: np.ndarray) -> np.ndarray:
        i = burst_of(n)
        t = _crossing_time(n, freq, beta2 + i * delta + (delta + lag * kept(i + 1.0)),
                           theta_star)
        relaxing = (t < start + i * period + settle).nonzero()[0]
        for k, b, gained in zip(relaxing.tolist(), i[relaxing].tolist(),
                                (lag * kept(i[relaxing])).tolist()):
            t[k] = _burst_crossing_time(float(n[k]), theta_star, freq,
                                        beta2 + (b * delta + gained), offset - gained,
                                        tau, start + b * period, settle)
        return t

    state = _cross(state, config, n0, n1, time_of, sink,
                   wall_time=t_end, osc_phase=final_phase)
    return TrainResult(state, 0 if state.frozen else n1 - n0, advanced)


def _stall_train(
    state: RtcState, config: RtcConfig, start: float, count: int, period: float,
    duration: float, signal: Sinusoid, until: Optional[float],
    sink: Optional[TickSink],
) -> tuple[RtcState, float]:
    """Run ``count`` bursts of ``signal`` ``period`` apart from ``start``,
    each ``duration`` long, as sustained injections, then run free to
    ``until``; returns the new state and the largest gap the freeze watchdog
    checked.

    Burst by burst this is four transitions: the injection on, a step to the
    burst's end, the injection off and a step to the next start.  None moves
    the oscillation phase, so the waveform switches between two fixed
    sinusoids, and a block of bursts is counted as arrays of those four
    segments: a jump edge, a stretch, a jump edge, a stretch.  A stretch
    counts as ``_step`` does and an edge is decided as ``_with_injection``
    does, with ``value_at`` wherever ``np.sin`` lands too near the threshold
    to be trusted to its last bit.  The watchdog checks each segment's first
    edge, or a quiet stretch's end, against the last edge before it; the
    first check that fails latches it, and the rest only moves wall time.
    """
    if start > state.wall_time:
        state = _step(state, config, start, sink)
    _check_frequency("injection", signal, config)
    t_end = start + (count - 1) * period + duration
    stop = t_end if until is None or until <= t_end else until
    if state.frozen:
        return replace(state, wall_time=stop, injection=None), 0.0
    freq, thr, reload = config.nominal_freq, config.trigger_threshold, config.divider_reload
    free = _active_waveform(state, config, None)
    held = superpose(free, signal)
    # The first burst's edge starts from whatever injection was on before it.
    lead = _active_waveform(state, config, state.injection).value_at(start)
    counter, rtc_time, last_edge = state.counter, state.rtc_time, state.last_edge_time
    # A block of bursts is a sixteenth of a chunk, so its arrays stay small
    # beside the chunk a sink receives.
    largest, block = 0.0, TICK_CHUNK // 16

    def value(wave, t):
        v = wave.amplitude * np.sin(TWO_PI * wave.frequency * t + wave.phase)
        for k in (abs(v - thr) <= 1e-9 * wave.amplitude).nonzero()[0].tolist():
            v[k] = wave.value_at(float(t[k]))
        return v

    def stretch(wave, t0, t1):
        """Crossings, check time, last crossing, crossing number before the
        first and theta* - phase, over each ``(t0, t1]``."""
        if wave.amplitude <= thr:
            none = np.zeros_like(t0)
            return none, np.where(t1 > t0, t1, -np.inf), none, none, none
        theta = math.asin(thr / wave.amplitude)
        n0, n1 = (np.floor(freq * t + (wave.phase - theta) / TWO_PI) for t in (t0, t1))
        n = np.maximum(n1 - n0, 0.0)
        first = _crossing_time(n0 + 1.0, freq, wave.phase, theta)
        last = _crossing_time(n1, freq, wave.phase, theta)
        return (n, np.where(n > 0, first, -np.inf), last, n0,
                np.full_like(t0, theta - wave.phase))

    for lo in range(0, count, block):
        i = np.arange(lo, min(lo + block, count), dtype=np.float64)
        s = start + i * period
        e = s + duration
        nxt = start + (i + 1.0) * period
        if lo + block >= count:
            nxt[-1] = stop
        before = value(free, s)
        if lo == 0:
            before[0] = lead
        on = (before <= thr) & (thr < value(held, s))
        off = (value(held, e) <= thr) & (thr < value(free, e))
        n1, check1, last1, base1, a1 = stretch(held, s, e)
        n3, check3, last3, base3, a3 = stretch(free, e, nxt)
        # Segment j of the block is burst j // 4's segment j % 4.
        n = np.stack((on, n1, off, n3), 1).ravel()
        edge = np.stack((s, last1, e, last3), 1).ravel()
        check = np.stack((np.where(on, s, -np.inf), check1,
                          np.where(off, e, -np.inf), check3), 1).ravel()
        # ``edges[prior[j]]`` is the last edge before segment j.
        edges = np.concatenate(((last_edge,), edge))
        prior = np.maximum.accumulate(np.arange(len(edges))
                                      * np.concatenate(((True,), n > 0)))
        gaps = check - edges[prior[:-1]]
        late = (() if config.freeze_timeout is None
                else (gaps >= config.freeze_timeout).nonzero()[0])
        kept = late[0] if len(late) else len(n)
        largest = gaps[:kept + 1].max(initial=largest)
        total = np.cumsum(n[:kept])
        crossings = int(total[-1]) if kept else 0
        if crossings >= counter:
            # Tick g fires at the block's crossing counter + g * reload.
            # Segment j holds ticks ticks_to[j] - added[j] on, counted from
            # RTC time rtc_at[j], which sums segment by segment as ``_cross``.
            ticks_to = np.where(total >= counter, (total - counter) // reload + 1.0, 0.0)
            added = np.diff(ticks_to, prepend=0.0)
            rtc_at = np.cumsum(np.concatenate(((rtc_time,), added * config.tick_period)))
            ticks = int(ticks_to[-1])
            if sink is not None:
                # A tick in a stretch has the closed form, and one on an edge
                # the edge's time: -inf in the other drops it out of the max.
                ninf = np.full_like(s, -np.inf)
                origin = np.stack((ninf, base1, ninf, base3), 1).ravel()
                lag = np.stack((ninf, a1, ninf, a3), 1).ravel()
                at = np.stack((s, ninf, e, ninf), 1).ravel()

                def chunk(g):
                    """Wall and RTC times of ticks ``g``, as ``_cross`` gives them."""
                    m = counter + reload * g
                    j = np.searchsorted(total, m)
                    crossing = origin[j] + (m - total[j] + n[j])
                    times = np.maximum((lag[j] + TWO_PI * crossing) / (TWO_PI * freq), at[j])
                    i = g - ticks_to[j] + added[j]
                    return times, rtc_at[j] + (i + 1.0) * config.tick_period

                for g0 in range(0, ticks, TICK_CHUNK):
                    sink(*chunk(np.arange(g0, min(g0 + TICK_CHUNK, ticks), dtype=np.float64)))
            counter += ticks * reload
            rtc_time = float(rtc_at[-1])
        counter -= crossings
        last_edge = float(edges[prior[kept]])
        if len(late):
            break
    return replace(state, counter=counter, rtc_time=rtc_time, last_edge_time=last_edge,
                   frozen=len(late) > 0, wall_time=stop, injection=None), float(largest)


def _apply_phase_advance(
    state: RtcState, config: RtcConfig, burst: InjectionBurst,
    sink: Optional[TickSink],
) -> RtcState:
    _check_frequency("burst", burst.signal, config)
    if burst.start < state.wall_time:
        raise PlanError(
            f"burst starts at {burst.start} s before wall time {state.wall_time} s"
        )
    offset = wrap_phase(burst.signal.phase - state.osc_phase)
    if offset <= LEAD_MARGIN or TWO_PI - offset <= LEAD_MARGIN:
        # Already aligned: the burst only holds the phase where it is.
        if burst.start > state.wall_time:
            state = _step(state, config, burst.start, sink)
        return _step(state, config, burst.end, sink)
    return _advance(state, config, burst.start, 1, burst.duration, burst.duration,
                    offset, offset, sink).state


def apply_phase_advance_with_events(
    state: RtcState, config: RtcConfig, burst: InjectionBurst
) -> tuple[RtcState, list[TickEvent]]:
    """Run one phase-dragging burst, a train of one, counting crossings
    exactly; returns the new state and the divider ticks emitted."""
    events: list[TickEvent] = []
    return _apply_phase_advance(state, config, burst, tick_collector(events)), events


def apply_phase_advance(state: RtcState, config: RtcConfig, burst: InjectionBurst) -> RtcState:
    return _apply_phase_advance(state, config, burst, None)


def run_uniform_train(
    state: RtcState,
    config: RtcConfig,
    *,
    count: int,
    period: float,
    duration: float,
    delta: float,
    start: Optional[float] = None,
    sink: Optional[TickSink] = None,
) -> TrainResult:
    """Closed-form run of ``count`` identical bursts, the first ``delta``
    ahead of the oscillation and each next signal ``delta`` further on (see
    ``_advance``): bursts too short to converge meet growing offsets, and a
    train on which one would not lead is refused.  Ticks go to ``sink``."""
    if count < 1:
        raise PlanError(f"a train needs at least one burst, got {count}")
    if duration <= 0.0 or period < duration:
        raise PlanError("bursts must have positive duration and not overlap")
    if start is None:
        start = state.wall_time
    return _advance(state, config, start, count, period, duration, delta, delta, sink)
