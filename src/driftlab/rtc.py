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
geometric series, summed in closed form (``_advance``).  Crossings are timed
a float64 array at a time: in a free stretch, and in a burst once the offset
has settled, their times have the closed form; only a crossing inside the
relaxation stretch is bisected.

Both attacks reach the RTC only through the edges its divider counts, so
every transition ends in one ledger, ``_cross``: it counts a run of segments,
each the crossings of one sinusoid (``_stretch``), the jump edge of an
injection switch (``_jump``) or a quiet stretch at or below the threshold,
checks the freeze watchdog and emits the ticks.  A stall moves no phase, so a
block of stall bursts is one run of four segments a burst (``_stall_train``).

Ticks go to an optional sink, a callable that receives ``(wall_times,
rtc_times)`` float64 arrays in time order, at most ``TICK_CHUNK`` ticks a
call, so no call holds more than one chunk however long the stretch.  Every
transition (``step``, ``with_injection``, ``apply_phase_advance`` and
``run_uniform_train``) takes one as ``sink=`` and returns the same state with
or without it.  A list is one sink (``tick_collector``).
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

# A gap the freeze watchdog checks is the difference of two computed times,
# each a few ulps off, so a free cycle can measure a little over 1/f.  A gap
# within this share of the wall time of one cycle counts as one, which never
# latches the watchdog (a timeout exceeds a cycle), however a stretch is cut.
ROUNDING = 2.0 ** -48

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


def _whole(x: np.ndarray, freq: float) -> np.ndarray:
    """``floor(x)`` as int64 crossing numbers, which count exactly below 2**63;
    past that a ``ValueError`` refuses the stretch."""
    n = np.floor(x)
    if not (abs(n) < 2.0**63).all():
        raise ValueError(f"crossing numbers pass 2**63 about {2.0**63 / freq:.3g} s into a "
                         f"{freq!r} Hz clock's run, past which they are not counted exactly")
    return n.astype(np.int64)


def _crossing_time(n, freq: float, lag: float):
    """Wall time of upward crossing ``n`` of a sinusoid at ``freq`` whose
    trigger angle theta* lies ``lag`` = theta* - phase ahead of its phase."""
    return (lag + TWO_PI * n) / (TWO_PI * freq)


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
    n: np.ndarray,
    quiet: np.ndarray,
    time_of,
    sink: Optional[TickSink],
    **changes,
) -> tuple[RtcState, float]:
    """The ledger every transition ends in: ``state`` with ``changes`` applied
    and a run of segments counted, and the largest gap the freeze watchdog
    checked.

    Segment j holds ``n[j]`` upward crossings (an int64 array, so counts are
    exact), and ``time_of(j, m)`` maps arrays of segments and crossing
    numbers m = 1 .. n[j] to wall times; ``quiet[j]`` is the end of a segment
    that cannot cross, and -inf for one that can.  The watchdog checks each
    segment's first crossing, or a quiet segment's end, against the last
    edge before it; the first gap that reaches the timeout, and is not one
    cycle within rounding (``ROUNDING``), latches it, and the segments from
    there on are not counted.  The rest go through the divider: the RTC
    time advances by whole ticks, summed segment by segment, the ticks go to
    ``sink`` a chunk at a time unless it is None, and the last crossing
    becomes the last edge.  A frozen clock only takes ``changes``.
    """
    if state.frozen:
        return replace(state, **changes), 0.0
    # ``edges[prior[j]]`` is the last edge before segment j, ``edges[0]`` the
    # one before the run.
    check, edges, prior = quiet.copy(), np.empty(len(n) + 1), np.zeros(len(n) + 1, np.int64)
    edges[0] = state.last_edge_time
    live = (n > 0).nonzero()[0]
    if len(live):
        # A lone crossing is timed once: inside a burst it may cost a bisection.
        many = live[n[live] > 1]
        times = time_of(np.concatenate((live, many)),
                        np.concatenate((np.ones(len(live), np.int64), n[many])))
        check[live] = edges[live + 1] = times[:len(live)]
        edges[many + 1] = times[len(live):]
        prior[live + 1] = live + 1
        np.maximum.accumulate(prior, out=prior)
    gaps = check - edges[prior[:-1]]
    cycle = 1.0 / config.nominal_freq
    late = (() if config.freeze_timeout is None else
            ((gaps >= config.freeze_timeout)
             & (gaps - cycle > ROUNDING * abs(check))).nonzero()[0])
    kept = late[0] if len(late) else len(n)
    total = n[:kept].cumsum()
    crossings = int(total[-1]) if kept else 0
    counter, reload, rtc_time, ticks = state.counter, config.divider_reload, state.rtc_time, 0
    if crossings >= counter:
        # Tick g fires at the run's crossing counter + g * reload.  Segment j
        # holds ticks ticks_to[j] - added[j] on, counted from RTC time rtc_at[j].
        ticks_to = np.where(total >= counter, (total - counter) // reload + 1, 0)
        added = np.diff(ticks_to, prepend=0)
        rtc_at = np.cumsum(np.concatenate(((rtc_time,), added * config.tick_period)))
        ticks = int(ticks_to[-1])
        if sink is not None:
            for g0 in range(0, ticks, TICK_CHUNK):
                g = np.arange(g0, min(g0 + TICK_CHUNK, ticks))
                m = counter + reload * g
                j = np.searchsorted(total, m)
                sink(time_of(j, m - total[j] + n[j]),
                     rtc_at[j] + (g - ticks_to[j] + added[j] + 1) * config.tick_period)
        rtc_time = float(rtc_at[-1])
    state = replace(state, counter=counter - crossings + ticks * reload, rtc_time=rtc_time,
                    last_edge_time=float(edges[prior[kept]]), frozen=len(late) > 0,
                    **changes)
    return state, float(gaps[:kept + 1].max(initial=0.0))


def _stretch(wave: Sinusoid, config: RtcConfig, t0: np.ndarray, t1: np.ndarray):
    """The upward crossings of ``wave`` over each ``(t0, t1]``, as ``(n,
    quiet, base, lag)``: stretch k holds ``n[k]`` of them, crossing m at
    ``_crossing_time(base[k] + m, freq, lag)``.  At or below the threshold
    there are none, and a stretch is quiet to its end.
    """
    thr, freq = config.trigger_threshold, config.nominal_freq
    if wave.amplitude <= thr:
        none = np.zeros(len(t0), np.int64)
        return none, np.where(t1 > t0, t1, -np.inf), none, -np.inf
    lag = math.asin(thr / wave.amplitude) - wave.phase
    base, last = _whole(freq * np.array((t0, t1)) - lag / TWO_PI, freq)
    return np.maximum(last - base, 0), np.full(len(t0), -np.inf), base, lag


def _jump(config: RtcConfig, before: Sinusoid, after: Sinusoid, t: np.ndarray) -> np.ndarray:
    """Jump edges (1 or 0) where the waveform switches from ``before`` to
    ``after`` at each of the times ``t``: it steps from at or below the
    threshold to above it.  ``np.sin`` gives the values, and ``value_at``
    wherever one lands too near the threshold to be trusted to its last bit.
    """
    thr = config.trigger_threshold

    def value(wave: Sinusoid) -> np.ndarray:
        v = wave.amplitude * np.sin(TWO_PI * wave.frequency * t + wave.phase)
        for k in (abs(v - thr) <= 1e-9 * wave.amplitude).nonzero()[0].tolist():
            v[k] = wave.value_at(float(t[k]))
        return v

    return ((value(before) <= thr) & (thr < value(after))).astype(np.int64)


def step(state: RtcState, config: RtcConfig, until: float, *,
         sink: Optional[TickSink] = None) -> RtcState:
    """Advance to ``until`` under the current injection status; the divider
    ticks on the way go to ``sink``."""
    if until <= state.wall_time:
        raise ValueError(f"until ({until}) must exceed wall_time ({state.wall_time})")
    wave = _active_waveform(state, config, state.injection)
    n, quiet, base, lag = _stretch(wave, config, np.array([state.wall_time]),
                                   np.array([until]))
    return _cross(state, config, n, quiet,
                  lambda j, m: _crossing_time(base[j] + m, config.nominal_freq, lag),
                  sink, wall_time=until)[0]


def step_with_events(
    state: RtcState, config: RtcConfig, until: float
) -> tuple[RtcState, list[TickEvent]]:
    """``step``, with the ticks returned as a list."""
    events: list[TickEvent] = []
    return step(state, config, until, sink=tick_collector(events)), events


def with_injection(state: RtcState, config: RtcConfig, signal: Optional[Sinusoid], *,
                   sink: Optional[TickSink] = None) -> RtcState:
    """Switch the sustained injection on or off at the current wall time.

    The waveform jumps discontinuously when the injection status changes; if
    that jump itself rises through the trigger threshold the comparator sees
    an edge, which is counted here, its tick going to ``sink``.
    """
    if signal is not None:
        _check_frequency("injection", signal, config)
    t = np.array([state.wall_time])
    jump = _jump(config, _active_waveform(state, config, state.injection),
                 _active_waveform(state, config, signal), t)
    return _cross(state, config, jump, np.array([-np.inf]), lambda j, m: t[j], sink,
                  injection=signal)[0]


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
        state = step(state, config, start, sink=sink)
    t_end = start + (count - 1) * period + duration
    thr = config.trigger_threshold
    if state.osc_amplitude <= thr:
        # No crossing to count, but the bursts still drag the phase: the
        # watchdog stops the counter, not the oscillator.
        state = _cross(state, config, np.zeros(1, np.int64), np.array([t_end]), None, sink,
                       wall_time=t_end, osc_phase=final_phase)[0]
        return TrainResult(state, 0, advanced)

    theta_star = math.asin(thr / state.osc_amplitude)
    beta2 = state.osc_phase
    n0, n1 = _whole(np.array((freq * start + (beta2 - theta_star) / TWO_PI,
                              freq * t_end + (beta2 + advanced - theta_star) / TWO_PI)),
                    freq).tolist()
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

    def time_of(j: np.ndarray, m: np.ndarray) -> np.ndarray:
        n = (n0 + m).astype(np.float64)
        i = burst_of(n)
        t = _crossing_time(n, freq,
                           theta_star - (beta2 + i * delta + (delta + lag * kept(i + 1.0))))
        relaxing = (t < start + i * period + settle).nonzero()[0]
        for k, b, gained in zip(relaxing.tolist(), i[relaxing].tolist(),
                                (lag * kept(i[relaxing])).tolist()):
            t[k] = _burst_crossing_time(float(n[k]), theta_star, freq,
                                        beta2 + (b * delta + gained), offset - gained,
                                        tau, start + b * period, settle)
        return t

    state = _cross(state, config, np.array([n1 - n0]), np.array([-np.inf]), time_of, sink,
                   wall_time=t_end, osc_phase=final_phase)[0]
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
    sinusoids, and a block of bursts is one run of the ledger (``_cross``)
    over arrays of those four segments: a jump edge (``_jump``), a stretch
    (``_stretch``), a jump edge, a stretch.
    """
    if start > state.wall_time:
        state = step(state, config, start, sink=sink)
    _check_frequency("injection", signal, config)
    t_end = start + (count - 1) * period + duration
    stop = t_end if until is None or until <= t_end else until
    free = _active_waveform(state, config, None)
    held = superpose(free, signal)
    # The first burst's edge starts from whatever injection was on before it.
    lead = _active_waveform(state, config, state.injection)
    freq, largest = config.nominal_freq, 0.0
    # A block of bursts is a sixteenth of a chunk, so its arrays stay small
    # beside the chunk a sink receives.
    block = TICK_CHUNK // 16
    for lo in range(0, count, block):
        i = np.arange(lo, min(lo + block, count), dtype=np.float64)
        s = start + i * period
        e = s + duration
        nxt = start + (i + 1.0) * period
        if lo + block >= count:
            nxt[-1] = stop
        on = _jump(config, free, held, s)
        if lo == 0:
            on[0] = _jump(config, lead, held, s[:1])[0]
        n1, quiet1, base1, lag1 = _stretch(held, config, s, e)
        n3, quiet3, base3, lag3 = _stretch(free, config, e, nxt)
        # Segment j of the block is burst j // 4's segment j % 4.  A crossing
        # in a stretch has the closed form, and an edge its switching time:
        # -inf in the other drops it out of the max.
        ninf, zero = np.full_like(s, -np.inf), np.zeros_like(n1)
        n = np.stack((on, n1, _jump(config, held, free, e), n3), 1).ravel()
        quiet = np.stack((ninf, quiet1, ninf, quiet3), 1).ravel()
        base = np.stack((zero, base1, zero, base3), 1).ravel()
        lag = np.stack((ninf, np.full_like(s, lag1), ninf, np.full_like(s, lag3)), 1).ravel()
        at = np.stack((s, ninf, e, ninf), 1).ravel()
        state, gap = _cross(
            state, config, n, quiet,
            lambda j, m: np.maximum(_crossing_time(base[j] + m, freq, lag[j]), at[j]),
            sink, wall_time=stop, injection=None)
        largest = max(largest, gap)
        if state.frozen:
            break
    return state, largest


def apply_phase_advance(state: RtcState, config: RtcConfig, burst: InjectionBurst, *,
                        sink: Optional[TickSink] = None) -> RtcState:
    """Run one phase-dragging burst, a train of one, counting crossings
    exactly; the divider ticks go to ``sink``."""
    _check_frequency("burst", burst.signal, config)
    if burst.start < state.wall_time:
        raise PlanError(
            f"burst starts at {burst.start} s before wall time {state.wall_time} s"
        )
    offset = wrap_phase(burst.signal.phase - state.osc_phase)
    if offset <= LEAD_MARGIN or TWO_PI - offset <= LEAD_MARGIN:
        # Already aligned: the burst only holds the phase where it is.
        return step(state, config, burst.end, sink=sink)
    return _advance(state, config, burst.start, 1, burst.duration, burst.duration,
                    offset, offset, sink).state


def apply_phase_advance_with_events(
    state: RtcState, config: RtcConfig, burst: InjectionBurst
) -> tuple[RtcState, list[TickEvent]]:
    """``apply_phase_advance``, with the ticks returned as a list."""
    events: list[TickEvent] = []
    return apply_phase_advance(state, config, burst, sink=tick_collector(events)), events


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
