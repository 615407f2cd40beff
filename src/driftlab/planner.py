"""Attack burst scheduling, phase-map calibration and plan simulation.

Backward plans spread stall bursts evenly over the attack window so the
divider never goes quiet long enough to freeze; forward plans emit a train
of short bursts, each dragging the oscillation phase one step ahead.  The
phase map links the attacker-side excitation phase to the phase of the
signal actually induced at the crystal, recovered experimentally by finding
the excitation phase that minimises the superposed amplitude.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .rtc import (
    FULL_CONVERGENCE_FACTOR,
    InjectionBurst,
    PlanError,
    RtcConfig,
    RtcState,
    TickEvent,
    _apply_phase_advance,
    _step,
    _with_injection,
    initial_state,
    measure_drift,
    run_uniform_train,
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
    """Requested burst length would freeze the target's counter."""


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


class BurstTrain(Sequence):
    """Uniformly spaced bursts, generated lazily.

    Start times step by ``period`` and the signal phase by ``phase_step``
    per burst, so arbitrarily long trains cost nothing to hold.  A period
    within a few ulps of the duration is widened by those ulps, so that no
    burst starts before the previous one ends.
    """

    def __init__(self, *, start: float, period: float, duration: float,
                 count: int, amplitude: float, frequency: float,
                 phase0: float, phase_step: float = 0.0):
        if count < 1:
            raise ValueError("count must be >= 1")
        if duration <= 0.0:
            raise ValueError("duration must be > 0")
        if count > 1 and period < duration:
            raise ValueError("bursts overlap: period < duration")
        self.start = start
        # Burst i's start, start + i * period, lies within 1 ulp of the
        # largest time in the train and burst i - 1's end within 1.5 ulp;
        # widening may move that time up one binade, doubling its ulp.
        largest = abs(start) + (count - 1) * period + duration
        self.period = max(period, duration + 8.0 * math.ulp(largest))
        self.duration = duration
        self.count = count
        self.amplitude = amplitude
        self.frequency = frequency
        self.phase0 = wrap_phase(phase0)
        self.phase_step = phase_step

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.count))]
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError(i)
        return InjectionBurst(
            start=self.start + i * self.period,
            duration=self.duration,
            signal=Sinusoid(
                self.amplitude,
                self.frequency,
                wrap_phase(self.phase0 + i * self.phase_step),
            ),
        )


@dataclass(frozen=True)
class AttackPlan:
    """Ordered burst schedule plus the scalar parameters it was built from."""

    bursts: Sequence[InjectionBurst]
    burst_count_k: int
    single_duration_t1: float
    pause_t2: float
    phase_step_delta: Optional[float] = None   # forward plans only

    @property
    def span(self) -> float:
        last = self.bursts[-1]
        return last.start + last.duration - self.bursts[0].start


def plan_backward(
    goal: DriftGoal,
    t: float,
    freeze_timeout: Optional[float] = None,
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
    if freeze_timeout is not None and t >= freeze_timeout:
        raise FreezeRiskError(
            f"burst length {t} s reaches the freeze timeout ({freeze_timeout} s)"
        )
    a, b = goal.window, goal.drift
    if b >= a:
        raise InfeasiblePlanError(
            f"cannot stall {b} s inside a {a} s window", constraint="drift < window"
        )
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
    return AttackPlan(
        bursts=train, burst_count_k=k, single_duration_t1=t, pause_t2=pause
    )


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
    if t1 <= 0.0:
        raise ValueError("burst duration must be > 0")
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
    return AttackPlan(
        bursts=train,
        burst_count_k=k,
        single_duration_t1=t1,
        pause_t2=t2,
        phase_step_delta=delta,
    )


def export_plan_jsonl(plan: AttackPlan, fh) -> None:
    """One burst per line: start_s, duration_s, phase_rad, amplitude_v."""
    for burst in plan.bursts:
        fh.write(
            json.dumps(
                {
                    "start_s": burst.start,
                    "duration_s": burst.duration,
                    "phase_rad": burst.signal.phase,
                    "amplitude_v": burst.signal.amplitude,
                },
                sort_keys=True,
            )
        )
        fh.write("\n")


def load_plan_jsonl(fh, frequency: float = 32768.0) -> list[InjectionBurst]:
    bursts = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        bursts.append(
            InjectionBurst(
                start=rec["start_s"],
                duration=rec["duration_s"],
                signal=Sinusoid(rec["amplitude_v"], frequency, rec["phase_rad"]),
            )
        )
    return bursts


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
) -> PlanRun:
    """Run a plan against the emulator and measure the resulting drift.

    Bursts whose phase leads the oscillation by less than pi are dispatched
    to the phase-advance mechanism; all others act through plain waveform
    superposition (the stall mechanism).  A uniform forward train of fully
    converging bursts that starts phase-aligned, whatever its length, goes
    through the closed-form ``run_uniform_train``; every other plan runs
    burst by burst.  Tick events are built only with ``collect_ticks``.
    """
    if state is None:
        state = initial_state(config)
    start_wall = state.wall_time
    start_rtc = state.rtc_time
    start_counter = state.counter
    events: Optional[list[TickEvent]] = [] if collect_ticks else None
    prediction_error = 0.0

    train, step_delta = plan.bursts, plan.phase_step_delta
    if (
        isinstance(train, BurstTrain)
        and step_delta is not None
        and train.phase_step == step_delta
        and train.duration >= FULL_CONVERGENCE_FACTOR * config.convergence_time_constant
        and abs(wrap_phase(train.phase0 - state.osc_phase) - step_delta) < 1e-9
    ):
        result = run_uniform_train(
            state,
            config,
            count=train.count,
            period=train.period,
            duration=train.duration,
            delta=step_delta,
            start=train.start,
            collect_ticks=collect_ticks,
        )
        state = result.state
        if collect_ticks:
            events.extend(result.ticks)
    else:
        for burst in train:
            beta1 = burst.signal.phase
            delta = wrap_phase(beta1 - state.osc_phase)
            # Planned offset: the phase step for advance bursts, pi for
            # stall bursts; the gap to the offset found on arrival is the
            # prediction error of the free-running assumption.
            planned = step_delta if step_delta is not None else math.pi
            gap = wrap_phase(delta - planned)
            prediction_error = max(prediction_error, min(gap, TWO_PI - gap))
            if 1e-12 < delta < math.pi - 1e-12:
                state = _apply_phase_advance(state, config, burst, events)
            else:
                if burst.start > state.wall_time:
                    state = _step(state, config, burst.start, events)
                state = _with_injection(state, config, burst.signal, events)
                state = _step(state, config, burst.end, events)
                state = _with_injection(state, config, None, events)

    if until is not None and until > state.wall_time:
        state = _step(state, config, until, events)

    ticks_emitted = round((state.rtc_time - start_rtc) / config.tick_period)
    crossings = ticks_emitted * config.divider_reload + (start_counter - state.counter)
    return PlanRun(
        state=state,
        ticks=events or [],
        drift=measure_drift(state) - (start_rtc - start_wall),
        crossings_counted=crossings,
        phase_prediction_error=prediction_error,
    )
