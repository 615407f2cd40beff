"""Event-driven emulation of the oscillator, divider and time counters.

The oscillator output is tracked analytically: within any stretch of constant
injection status the waveform is a single sinusoid, and the times at which it
crosses the edge-trigger threshold upward have a closed form.  The divider
decrements once per upward crossing and emits one tick (resetting itself)
each time it reaches zero, so time never needs to be sampled -- the engine
advances from event to event.  A stretch costs the same however many ticks it
holds: the RTC time advances by whole ticks in one multiply, and tick events
are built only when the caller asks for them.

Two injection mechanisms exist, matching the two drift directions:

* a sustained opposing injection pulls the superposed amplitude below the
  trigger threshold, so crossings (and therefore ticks) simply stop;
* a short burst whose phase leads the oscillation by less than pi drags the
  oscillation phase forward, so subsequent crossings arrive early and extra
  cycles accumulate.

Phase convergence during a burst follows first-order relaxation toward the
injected phase with a configurable time constant; a burst lasting at least
five time constants is treated as fully converged and the oscillator phase
snaps exactly onto the injected phase, which keeps long-run drift accounting
exact.  One inverter, ``_burst_crossing_time``, recovers crossing times
during a burst: once the offset has settled they have the closed form, and
only a crossing inside the relaxation stretch needs a bracketed solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

from .signals import TWO_PI, Sinusoid, superpose, wrap_phase

MODE_CALENDAR = "calendar"
MODE_32BIT = "thirtytwo_bit"

DIVIDER_MAX = 65535  # 16-bit divider counter

# Bursts at least this many time constants long count as fully converged.
FULL_CONVERGENCE_FACTOR = 5.0


class PlanError(ValueError):
    """Injection request violates the engine's preconditions."""


class TickEvent(NamedTuple):
    """One divider output pulse: when it fired and the RTC time after it."""

    time: float
    rtc_time: float


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
        if self.freeze_timeout is not None and self.freeze_timeout <= 0.0:
            raise ValueError("freeze_timeout must be > 0 when set")
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


def _burst_phase_path(delta: float, tau: float, duration: float) -> float:
    """Residual phase gap left after a burst of the given duration."""
    if duration >= FULL_CONVERGENCE_FACTOR * tau:
        return 0.0
    return delta * math.exp(-duration / tau)


def _burst_crossing_time(
    n: int,
    theta_star: float,
    freq: float,
    p0: float,
    delta: float,
    tau: float,
    t0: float,
    duration: float,
) -> float:
    """Time at which ``2 pi f t + offset(t)`` reaches crossing ``n`` in a burst.

    The offset relaxes from ``p0`` toward ``p0 + delta`` from ``t0`` on and
    sits at ``p0 + delta`` from five time constants on.  A crossing there has
    the closed form; one earlier, or anywhere in a burst too short to
    converge, is bisected inside ``[t0, t0 + min(duration, 5 tau)]`` until
    the bracket stops shrinking.
    """
    settled = t0 + min(duration, FULL_CONVERGENCE_FACTOR * tau)
    t = _crossing_time(n, freq, p0 + delta, theta_star)
    if t >= settled:
        return t
    target = theta_star + TWO_PI * n
    lo, hi = t0, settled
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        gap = _burst_phase_path(delta, tau, mid - t0)
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
    events: Optional[list],
    **changes,
) -> RtcState:
    """``state`` with ``changes`` applied and crossings ``n0 + 1 .. n1`` counted.

    Every transition ends here.  ``time_of(n)`` is the wall time of crossing
    ``n``.  The freeze watchdog latches on the first crossing or the
    crossings go through the divider: the RTC time advances by whole ticks
    in one multiply, tick events go to ``events`` unless it is None, and the
    last crossing becomes the last edge.
    """
    count = n1 - n0
    if count <= 0:
        return replace(state, **changes)
    first = time_of(n0 + 1)
    if _freeze_due(config, first, state.last_edge_time):
        return replace(state, frozen=True, **changes)
    counter, reload, rtc_time = state.counter, config.divider_reload, state.rtc_time
    ticks = 0 if count < counter else (count - counter) // reload + 1
    if events is not None:
        events.extend(
            TickEvent(time_of(n0 + counter + i * reload),
                      rtc_time + (i + 1) * config.tick_period)
            for i in range(ticks)
        )
    return replace(
        state,
        counter=counter - count + ticks * reload,
        rtc_time=rtc_time + ticks * config.tick_period,
        last_edge_time=first if count == 1 else time_of(n1),
        **changes,
    )


def _step(
    state: RtcState, config: RtcConfig, until: float, events: Optional[list]
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
        events, wall_time=until,
    )


def step_with_events(
    state: RtcState, config: RtcConfig, until: float
) -> tuple[RtcState, list[TickEvent]]:
    """Advance to ``until`` under the current injection status.

    Returns the new state and the divider ticks emitted on the way.
    """
    events: list[TickEvent] = []
    return _step(state, config, until, events), events


def step(state: RtcState, config: RtcConfig, until: float) -> RtcState:
    return _step(state, config, until, None)


def _with_injection(
    state: RtcState,
    config: RtcConfig,
    signal: Optional[Sinusoid],
    events: Optional[list],
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
    return _cross(state, config, 0, jump, lambda n: t, events, injection=signal)


def with_injection(
    state: RtcState, config: RtcConfig, signal: Optional[Sinusoid]
) -> tuple[RtcState, list[TickEvent]]:
    """Switch the sustained injection on or off at the current wall time.

    The waveform jumps discontinuously when the injection status changes; if
    that jump itself rises through the trigger threshold the comparator sees
    an edge, which is counted here.
    """
    events: list[TickEvent] = []
    return _with_injection(state, config, signal, events), events


def _apply_phase_advance(
    state: RtcState, config: RtcConfig, burst: InjectionBurst, events: Optional[list]
) -> RtcState:
    _check_frequency("burst", burst.signal, config)
    if burst.start < state.wall_time:
        raise PlanError(
            f"burst starts at {burst.start} s before wall time {state.wall_time} s"
        )
    if burst.start > state.wall_time:
        state = _step(state, config, burst.start, events)

    beta1 = burst.signal.phase
    beta2 = state.osc_phase
    delta = wrap_phase(beta1 - beta2)
    t0 = burst.start
    te = burst.start + burst.duration
    if delta <= 1e-12 or TWO_PI - delta <= 1e-12:
        # Already aligned: the burst only holds the phase where it is.
        return _step(state, config, te, events)

    if delta >= math.pi:
        raise PlanError(
            f"phase offset {delta:.6f} rad outside (0, pi); a leading burst "
            "cannot drag the phase backward"
        )

    tau = config.convergence_time_constant
    residual = _burst_phase_path(delta, tau, burst.duration)
    advanced = delta - residual
    # Counting works on the unwrapped phase so an advance across 2*pi still
    # contributes its full cycle; the stored phase snaps exactly onto the
    # injected one at full convergence.
    end_unwrapped = beta2 + advanced
    final_phase = beta1 if residual == 0.0 else wrap_phase(end_unwrapped)
    if state.frozen:
        # The watchdog stops the counter, not the oscillator: the burst
        # still drags its phase.
        return replace(state, wall_time=te, osc_phase=final_phase)
    freq = config.nominal_freq
    thr = config.trigger_threshold
    amp = state.osc_amplitude

    if amp <= thr:
        frozen = _freeze_due(config, te, state.last_edge_time)
        return replace(state, wall_time=te, osc_phase=final_phase, frozen=frozen)

    theta_star = math.asin(thr / amp)
    return _cross(
        state, config,
        _crossing_index(t0, freq, beta2, theta_star),
        _crossing_index(te, freq, end_unwrapped, theta_star),
        lambda n: _burst_crossing_time(
            n, theta_star, freq, beta2, delta, tau, t0, burst.duration
        ),
        events, wall_time=te, osc_phase=final_phase,
    )


def apply_phase_advance_with_events(
    state: RtcState, config: RtcConfig, burst: InjectionBurst
) -> tuple[RtcState, list[TickEvent]]:
    """Run one phase-dragging burst, counting crossings exactly.

    The total phase (carrier plus offset) increases monotonically through the
    burst, so the crossing count depends only on its endpoint value.  Crossing
    times inside the burst, needed only for the first crossing (the freeze
    watchdog), the last one (the last edge) and crossings that produce a
    tick, come from ``_burst_crossing_time``: closed form once the offset has
    settled, bracketed inside the relaxation stretch.
    """
    events: list[TickEvent] = []
    return _apply_phase_advance(state, config, burst, events), events


def apply_phase_advance(state: RtcState, config: RtcConfig, burst: InjectionBurst) -> RtcState:
    return _apply_phase_advance(state, config, burst, None)


@dataclass(frozen=True)
class TrainResult:
    state: RtcState
    crossings: int
    ticks: list[TickEvent]
    phase_advanced: float


def run_uniform_train(
    state: RtcState,
    config: RtcConfig,
    *,
    count: int,
    period: float,
    duration: float,
    delta: float,
    start: Optional[float] = None,
    collect_ticks: bool = False,
) -> TrainResult:
    """Closed-form run of ``count`` identical fully-converging bursts.

    Each burst steps the injected phase ``delta`` ahead of the oscillation,
    so the phase offset grows by exactly ``count * delta`` over the train.
    Because the total phase is monotone through the whole train, the crossing
    count follows from its endpoint values alone.  Per-tick times, when asked
    for, need no search over the train: the total phase at burst starts grows
    by exactly ``2 pi f period + delta`` per burst, so the burst holding a
    crossing follows by division, and ``_burst_crossing_time`` places the
    crossing within it.
    """
    if not 0.0 < delta < math.pi:
        raise PlanError(f"phase step must lie in (0, pi), got {delta}")
    if duration <= 0.0 or period < duration:
        raise PlanError("bursts must have positive duration and not overlap")
    if duration < FULL_CONVERGENCE_FACTOR * config.convergence_time_constant:
        raise PlanError(
            "uniform-train fast path requires full convergence "
            f"(duration >= {FULL_CONVERGENCE_FACTOR} time constants)"
        )
    if start is None:
        start = state.wall_time
    if start < state.wall_time:
        raise PlanError("train cannot start in the past")
    events: Optional[list[TickEvent]] = [] if collect_ticks else None
    if start > state.wall_time:
        state = _step(state, config, start, events)
    t_end = start + (count - 1) * period + duration
    beta2 = state.osc_phase
    advanced = count * delta
    if state.frozen:
        # As burst by burst: on a frozen clock the bursts drag the phase but
        # nothing is counted.
        return TrainResult(replace(state, wall_time=t_end,
                                   osc_phase=wrap_phase(beta2 + advanced)),
                           0, events or [], advanced)

    freq = config.nominal_freq
    thr = config.trigger_threshold
    amp = state.osc_amplitude
    if amp <= thr:
        raise PlanError("oscillation amplitude at or below threshold; no edges")
    theta_star = math.asin(thr / amp)
    tau = config.convergence_time_constant
    n0 = _crossing_index(start, freq, beta2, theta_star)
    n1 = _crossing_index(t_end, freq, beta2 + advanced, theta_star)
    phase0 = TWO_PI * freq * start + beta2
    burst_gain = TWO_PI * freq * period + delta

    def time_of(n: int) -> float:
        i = math.floor((theta_star + TWO_PI * n - phase0) / burst_gain)
        i = min(max(i, 0), count - 1)
        return _burst_crossing_time(
            n, theta_star, freq, beta2 + i * delta, delta, tau,
            start + i * period, duration,
        )

    new_state = _cross(
        state, config, n0, n1, time_of, events,
        wall_time=t_end, osc_phase=wrap_phase(beta2 + advanced),
    )
    crossings = 0 if new_state.frozen else n1 - n0
    return TrainResult(new_state, crossings, events or [], phase_advanced=advanced)
