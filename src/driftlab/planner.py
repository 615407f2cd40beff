"""Attack burst scheduling, phase-map calibration and plan simulation.

Backward plans spread stall bursts evenly over the attack window so the
divider never goes quiet long enough to freeze; forward plans emit a train
of short bursts, each dragging the oscillation phase up to one step ahead;
``simulate_plan`` runs either kind in closed form.  The phase map links the
attacker-side excitation phase to the phase of the signal actually induced
at the crystal, recovered experimentally by finding the excitation phase
that minimises the superposed amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .rtc import (
    TICK_CHUNK,
    PlanError,
    RtcConfig,
    RtcState,
    TickEvent,
    TickSink,
    _advance,
    _check_frequency,
    _leads,
    _stall_train,
    _train_offsets,
    initial_state,
    measure_drift,
    step,
    tick_collector,
)
from .signals import TWO_PI, Sinusoid, superpose, wrap_phase

DIRECTION_FORWARD = "forward"
DIRECTION_BACKWARD = "backward"
# Least spread (V) of the superposed amplitudes that a calibration sweep
# can locate a minimum in.
NOISE_FLOOR = 1e-12


class InfeasiblePlanError(ValueError):
    """Goal cannot be met; ``constraint`` names the binding limit."""

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


class FreezeRiskError(ValueError):
    """A stall plan would leave a gap between edges that freezes the target's
    counter (``stall_gap``)."""


class CalibrationError(RuntimeError):
    """Calibration sweep saw no usable amplitude variation."""


@dataclass(frozen=True)
class DriftGoal:
    """Desired drift: ``drift`` seconds (backward) or cycles (forward)
    accumulated within a ``window`` second attack."""

    window: float
    drift: float
    direction: str

    def __post_init__(self):
        if self.direction not in (DIRECTION_FORWARD, DIRECTION_BACKWARD):
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.window <= 0.0 or self.drift <= 0.0:
            raise ValueError("window and drift must be > 0")
        if self.direction == DIRECTION_BACKWARD and self.drift >= self.window:
            raise InfeasiblePlanError(
                f"cannot stall {self.drift} s inside a {self.window} s window",
                constraint="drift < window",
            )


class BurstTrain:
    """Uniformly spaced bursts in closed form.

    Burst i starts at ``start + i * period`` and carries ``signal`` with its
    phase advanced by ``i * phase_step``, so arbitrarily long trains cost
    nothing to hold.  A period within a few ulps of the duration is widened
    by those ulps, so that no burst starts before the previous one ends.
    """

    def __init__(self, *, start: float, period: float, duration: float,
                 count: int, amplitude: float, frequency: float,
                 phase0: float, phase_step: float = 0.0):
        for name, value in (("start", start), ("period", period), ("duration", duration),
                            ("amplitude", amplitude), ("frequency", frequency),
                            ("phase0", phase0), ("phase_step", phase_step)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if count < 1:
            raise ValueError("count must be >= 1")
        if duration <= 0.0:
            raise ValueError("duration must be > 0")
        if count > 1 and period < duration:
            raise ValueError("bursts overlap: period < duration")
        # Refuses a negative amplitude and a frequency <= 0.
        self.signal = Sinusoid(amplitude, frequency, phase0)
        self.start = float(start)
        # Burst i's start, start + i * period, lies within 1 ulp of the
        # largest time in the train and burst i - 1's end within 1.5 ulp;
        # widening may move that time up one binade, doubling its ulp.
        largest = abs(start) + (count - 1) * period + duration
        self.period = max(float(period), duration + 8.0 * math.ulp(largest))
        self.duration = float(duration)
        self.count = count
        self.phase_step = float(phase_step)
        end = self.start + (count - 1) * self.period + self.duration
        phase = self.signal.phase + (count - 1) * self.phase_step
        if not (math.isfinite(end) and math.isfinite(phase)):
            raise ValueError(f"the last of {count} bursts overflows: it ends at {end} s "
                             f"with its phase at {phase} rad")

    def __len__(self) -> int:
        return self.count


@dataclass(frozen=True)
class AttackPlan:
    """An attack's burst schedule: its count, duration and phase step are
    the train's."""

    bursts: BurstTrain

    @property
    def span(self) -> float:
        t = self.bursts
        return t.start + (t.count - 1) * t.period + t.duration - t.start


def plan_backward(
    goal: DriftGoal,
    t: float,
    *,
    amplitude: float,
    frequency: float = 32768.0,
    osc_phase: float = 0.0,
) -> AttackPlan:
    """Stall schedule: ceil(b/t) bursts of length ``t``, evenly spread.

    Every burst opposes the oscillation (injected phase = oscillation phase
    + pi), so counting halts for the burst's length.  The pause between
    bursts spreads the drift across the window; with the burst count rounded
    up, spreading the leftover window evenly keeps the plan span inside
    window + t.
    """
    if goal.direction != DIRECTION_BACKWARD:
        raise ValueError("plan_backward needs a backward goal")
    if t <= 0.0:
        raise ValueError("burst length must be > 0")
    a, b = goal.window, goal.drift
    k = math.ceil(b / t)
    pause = 0.0 if k == 1 else (a - k * t) / (k - 1)
    if pause < 0.0:
        raise InfeasiblePlanError(
            f"{k} bursts of {t} s do not fit the {a} s window",
            constraint="window >= ceil(drift/t) * t",
        )
    train = BurstTrain(
        start=0.0,
        period=t + pause,
        duration=t,
        count=k,
        amplitude=amplitude,
        frequency=frequency,
        phase0=wrap_phase(osc_phase + math.pi),
    )
    return AttackPlan(train)


def plan_forward(
    goal: DriftGoal,
    t1: float,
    delta: float,
    *,
    amplitude: float,
    frequency: float = 32768.0,
    osc_phase: float = 0.0,
) -> AttackPlan:
    """Phase-advance schedule for a forward drift of ``goal.drift`` cycles.

    Each burst gains delta/(2 pi) of a cycle, so ceil(2 pi b / delta) bursts
    meet the goal; the pause makes the train span exactly the window.
    """
    if goal.direction != DIRECTION_FORWARD:
        raise ValueError("plan_forward needs a forward goal")
    if not 0.0 < delta < math.pi:
        raise PlanError(f"phase step must lie in (0, pi), got {delta}")
    a, b = goal.window, goal.drift
    k = math.ceil(TWO_PI * b / delta)
    if a <= k * t1:
        raise InfeasiblePlanError(
            f"{k} bursts of {t1} s need more than the {a} s window",
            constraint="window > burst_count * t1",
        )
    t2 = 0.0 if k == 1 else (a - t1 * k) / (k - 1)
    train = BurstTrain(
        start=0.0,
        period=t1 + t2,
        duration=t1,
        count=k,
        amplitude=amplitude,
        frequency=frequency,
        phase0=wrap_phase(osc_phase + delta),
        phase_step=delta,
    )
    return AttackPlan(train)


def export_plan_jsonl(plan: AttackPlan, fh) -> None:
    """One burst per line, the bytes ``json.dumps(..., sort_keys=True)`` gives:
    it writes the train's finite floats with ``float.__repr__``.  One wrap of
    the phase is enough: ``fmod`` in a ``Sinusoid`` keeps [0, 2 pi) as it is."""
    t = plan.bursts
    head = (f'{{"amplitude_v": {t.signal.amplitude!r}, "duration_s": {t.duration!r}, '
            '"phase_rad": ')
    start, period, phase0, phase_step = t.start, t.period, t.signal.phase, t.phase_step
    for first in range(0, t.count, TICK_CHUNK):
        fh.write("".join(
            f'{head}{wrap_phase(phase0 + i * phase_step)!r}, '
            f'"start_s": {start + i * period!r}}}\n'
            for i in range(first, min(first + TICK_CHUNK, t.count))))


@dataclass(frozen=True)
class PhaseMap:
    """Calibrated (distance, excitation phase) -> injected phase table.

    Shifting the excitation phase shifts the injected phase by the same
    amount, so each distance needs just one measured anchor and the value at
    any grid point follows from it.
    """

    grid_resolution: float
    anchors: dict = field(default_factory=dict)   # z -> (phi_anchor, beta1_anchor)

    def __post_init__(self):
        for z, (phi, beta1) in self.anchors.items():
            if not 0.0 <= beta1 < TWO_PI:
                raise ValueError(f"beta1 {beta1} at ({z}, {phi}) not in [0, 2*pi)")

    def beta1_at(self, z: float, phi: float) -> float:
        if z not in self.anchors:
            raise KeyError(f"no calibration for z={z}")
        phi_a, beta1_a = self.anchors[z]
        return wrap_phase(beta1_a + (phi - phi_a))


def calibrate_phase_map(context, z: float, phase_grid: int = 64) -> PhaseMap:
    """Sweep the excitation phase and locate the amplitude minimum.

    ``context`` must provide ``induced_signal(phi, z)`` mapping an excitation
    phase to the electrical signal at the crystal, and ``oscillator()`` for
    the free-running oscillation.  At the amplitude minimum the injected
    signal opposes the oscillation, pinning the induced phase to the
    oscillation phase + pi; a quadratic fit through the three samples around
    the grid minimum refines the estimate below the grid spacing.
    """
    if phase_grid < 8:
        raise ValueError("phase grid must have at least 8 points")
    osc = context.oscillator()
    step = TWO_PI / phase_grid
    phis = np.arange(phase_grid) * step
    amps = np.empty(phase_grid)
    for i, phi in enumerate(phis):
        injected = context.induced_signal(float(phi), z)
        amps[i] = superpose(osc, injected).amplitude
    if amps.max() - amps.min() < NOISE_FLOOR:
        raise CalibrationError(
            f"amplitude variation {amps.max() - amps.min():.3e} below the "
            f"noise floor {NOISE_FLOOR:.3e}"
        )
    i_min = int(np.argmin(amps))
    y0 = amps[(i_min - 1) % phase_grid]
    y1 = amps[i_min]
    y2 = amps[(i_min + 1) % phase_grid]
    curvature = y0 - 2.0 * y1 + y2
    offset = 0.0 if curvature <= 0.0 else 0.5 * (y0 - y2) / curvature
    phi_star = wrap_phase(phis[i_min] + offset * step)
    beta1_star = wrap_phase(osc.phase + math.pi)
    return PhaseMap(grid_resolution=step, anchors={z: (phi_star, beta1_star)})


def _stall_train_runs(bursts, state: RtcState) -> bool:
    """Whether ``bursts`` is a train of stalls from ``state``: all meet one
    offset, at which none leads, and each ends after it starts."""
    return (
        bursts.phase_step == 0.0
        and bursts.start >= state.wall_time
        and not _leads(wrap_phase(bursts.signal.phase - state.osc_phase))
        and bursts.duration >= math.ulp(abs(bursts.start) + (bursts.count - 1) * bursts.period)
    )


def stall_gap(plan: AttackPlan, config: RtcConfig, until: Optional[float] = None) -> float:
    """The longest the freeze watchdog waits for an edge while
    ``simulate_plan`` runs the stall plan ``plan`` on a fresh clock to
    ``until``, by the stall kernel's own arithmetic."""
    config = replace(config, freeze_timeout=None)
    state, train = initial_state(config), plan.bursts
    if not _stall_train_runs(train, state):
        raise ValueError("stall_gap needs a train of stall bursts")
    return _stall_train(state, config, train.start, train.count, train.period,
                        train.duration, train.signal, until, None)[1]


def forward_offsets(plan: AttackPlan, config: RtcConfig,
                    state: Optional[RtcState] = None) -> tuple[float, float]:
    """The offsets the first and last bursts of ``plan`` meet when
    ``simulate_plan`` runs it from ``state`` (a fresh clock by default) as
    phase advances.  Bursts too short to converge drift the offsets toward
    ``phase_step / (1 - g)`` (``rtc._train_offsets``); a plan on which one
    would not lead is refused with ``PlanError`` naming the first such burst.
    """
    if state is None:
        state = initial_state(config)
    train = plan.bursts
    offset = wrap_phase(train.signal.phase - state.osc_phase)
    lag, kept = _train_offsets(offset, train.phase_step, train.count, train.duration,
                               config.convergence_time_constant)
    return offset, offset - lag * float(kept(train.count - 1.0))


@dataclass(frozen=True)
class PlanRun:
    """Outcome of simulating a plan against the clock emulator.

    ``phase_prediction_error`` is the largest gap (radians, on the circle)
    between the oscillation phase a burst was planned against and the phase
    actually found on arrival; planning assumes free-running evolution at
    the nominal frequency, so nonzero values flag drifting assumptions.
    """

    state: RtcState
    ticks: list[TickEvent]
    drift: float
    crossings_counted: int
    phase_prediction_error: float = 0.0


def simulate_plan(
    plan: AttackPlan,
    config: RtcConfig,
    state: Optional[RtcState] = None,
    *,
    until: Optional[float] = None,
    collect_ticks: bool = True,
    sink: Optional[TickSink] = None,
) -> PlanRun:
    """Run a plan's ``BurstTrain`` against the emulator and measure the
    resulting drift, in closed form whatever the train's length.

    A train whose bursts do not lead the oscillation only superposes, as a
    train of stalls (``rtc._stall_train``); every backward plan is one.  Any
    other train drags the phase (``rtc._advance``) from whatever offset its
    first burst meets, or is refused as ``forward_offsets`` refuses it.
    Ticks go to ``sink`` as they are counted when one is given, else to
    ``PlanRun.ticks`` with ``collect_ticks``.
    """
    train = plan.bursts
    if not isinstance(train, BurstTrain):
        raise TypeError(f"simulate_plan runs a BurstTrain, not a {type(train).__name__}")
    if state is None:
        state = initial_state(config)
    start_wall, start_rtc, start_counter = state.wall_time, state.rtc_time, state.counter
    events: list[TickEvent] = []
    if sink is None and collect_ticks:
        sink = tick_collector(events)

    if _stall_train_runs(train, state):
        # No stall moves the phase, so every burst arrives at one offset.
        first = last = wrap_phase(train.signal.phase - state.osc_phase)
        state = _stall_train(state, config, train.start, train.count, train.period,
                             train.duration, train.signal, until, sink)[0]
    else:
        _check_frequency("burst", train.signal, config)
        first, last = forward_offsets(plan, config, state)
        state = _advance(state, config, train.start, train.count, train.period,
                         train.duration, first, train.phase_step, sink).state
    if until is not None and until > state.wall_time:
        state = step(state, config, until, sink=sink)

    # Planned offset: the phase step for advance bursts, pi for stall
    # bursts; the gap to the offset found on arrival is the prediction error
    # of the free-running assumption.  The offsets are monotone.
    planned = train.phase_step or math.pi
    gaps = [wrap_phase(offset - planned) for offset in (first, last)]
    ticks_emitted = round((state.rtc_time - start_rtc) / config.tick_period)
    crossings = ticks_emitted * config.divider_reload + (start_counter - state.counter)
    return PlanRun(
        state=state,
        ticks=events,
        drift=measure_drift(state) - (start_rtc - start_wall),
        crossings_counted=crossings,
        phase_prediction_error=max(min(gap, TWO_PI - gap) for gap in gaps),
    )
