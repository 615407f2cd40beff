"""Mechanical-to-electrical response of the mounted quartz crystal.

The crystal body, clamped at the electrode end and free at the other, is a
cantilever driven through its base by whatever acceleration the board picks
up from the plate.  Its steady-state stress response follows the forced
mass/spring/damper solution, and the piezoelectric coupling turns that stress
into an electric displacement, read out as a small voltage injected into the
oscillator loop.  Frequency is preserved along the whole chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .signals import Sinusoid, wrap_phase

NOMINAL_OSC_FREQ = 32768.0


def _default_stiffness(mass: float, freq: float = NOMINAL_OSC_FREQ) -> float:
    wn = 2.0 * math.pi * freq
    return mass * wn * wn


@dataclass(frozen=True)
class CrystalSpec:
    """Equivalent lumped parameters of the crystal cantilever.

    The defaults put the resonance at 32.768 kHz with a mechanical Q of 1e4
    on a tuning-fork-scale tip mass; they are placeholders, every scenario
    may override them.  ``volts_per_displacement`` converts the piezoelectric
    displacement (C/m^2) into the voltage the oscillator loop sees.
    """

    tip_mass: float = 1e-6              # kg
    damping: float = 2.0589e-5          # N*s/m, Q ~= 1e4 at 32.768 kHz
    stiffness: float = _default_stiffness(1e-6)   # N/m
    width: float = 6e-4                 # m
    thickness: float = 1.2e-4           # m
    piezo_constant: float = 2.3e-12     # C/N
    volts_per_displacement: float = 330.0   # V per C/m^2

    def __post_init__(self):
        for name in (
            "tip_mass", "damping", "stiffness", "width", "thickness",
            "piezo_constant", "volts_per_displacement",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")

    @property
    def natural_freq(self) -> float:
        """Undamped natural angular frequency sqrt(K/M), rad/s."""
        return math.sqrt(self.stiffness / self.tip_mass)


def steady_state_stress(spec: CrystalSpec, accel: Sinusoid) -> Sinusoid:
    """Steady-state stress sinusoid for a base acceleration of the mount.

    Amplitude and phase come from the forced-vibration particular solution;
    the transient homogeneous part is discarded.  The denominator is strictly
    positive for any positive damping, so no resonance singularity exists.
    """
    m, s, k = spec.tip_mass, spec.damping, spec.stiffness
    w = 2.0 * math.pi * accel.frequency
    detune = m * w * w - k
    denom = k * k - 2.0 * k * m * w * w + m * m * w ** 4 + s * s * w * w
    amplitude = (
        accel.amplitude * m * m * w * w * math.sqrt(detune * detune + s * s * w * w)
    ) / (spec.width * spec.thickness * denom)
    phase = accel.phase + math.atan2(s * w, detune)
    return Sinusoid(amplitude, accel.frequency, wrap_phase(phase))


def induced_signal(
    spec: CrystalSpec, stress: Sinusoid, circuit_phase_offset: float = 0.0
) -> Sinusoid:
    """Voltage sinusoid injected into the oscillator loop by the stress.

    The electric displacement is the piezoelectric constant times the stress
    (the external-field term is negligible for the resonant component), and
    the loop electronics contribute one constant, scenario-level phase offset
    that calibration recovers rather than predicts.
    """
    amplitude = spec.volts_per_displacement * spec.piezo_constant * stress.amplitude
    phase = wrap_phase(stress.phase + circuit_phase_offset)
    return Sinusoid(amplitude, stress.frequency, phase)
