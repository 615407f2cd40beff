"""End-to-end excitation chain: transducer drive to induced oscillator signal.

Ties the plate response and the crystal model together so the planner and
the CLI can ask one object what electrical signal a given excitation phase
produces at the crystal, without each caller re-deriving the intermediate
acceleration and stress stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .crystal import CrystalSpec, induced_signal, steady_state_stress
from .lamb import LambMode, MediumSpec, displacement_wave, solve_dispersion
from .rtc import RtcConfig
from .signals import Sinusoid, wrap_phase


class NonFiniteSignalError(ArithmeticError):
    """The chain's induced signal overflowed: its amplitude or phase is not
    finite."""


@dataclass(frozen=True)
class TransducerSpec:
    """Attacker-side emitter: where it sits and how hard it drives."""

    position: float                 # distance to the crystal, m
    drive_amplitude: float          # excitation voltage amplitude, V
    displacement_per_volt: float = 1e-12   # plate coupling, m of modal amplitude per V

    def __post_init__(self):
        if self.position < 0.0:
            raise ValueError("position must be >= 0")
        if self.drive_amplitude < 0.0:
            raise ValueError("drive_amplitude must be >= 0")
        if self.displacement_per_volt <= 0.0:
            raise ValueError("displacement_per_volt must be > 0")


@dataclass(frozen=True)
class ChainContext:
    """Frozen simulation context for one medium/crystal/oscillator setup."""

    medium: MediumSpec
    crystal: CrystalSpec
    rtc: RtcConfig
    transducer: TransducerSpec
    mode: LambMode
    circuit_phase_offset: float = 0.0
    osc_phase: float = 0.0

    def oscillator(self) -> Sinusoid:
        return Sinusoid(self.rtc.nominal_amplitude, self.rtc.nominal_freq, self.osc_phase)

    def induced_signal(self, phi: float, z: Optional[float] = None,
                       drive_amplitude: Optional[float] = None) -> Sinusoid:
        """Electrical signal at the crystal for excitation phase ``phi``."""
        if z is None:
            z = self.transducer.position
        if drive_amplitude is None:
            drive_amplitude = self.transducer.drive_amplitude
        drive = Sinusoid(drive_amplitude, self.rtc.nominal_freq, phi)
        wave, _ = displacement_wave(
            self.mode, self.medium, drive, z,
            coupling=self.transducer.displacement_per_volt,
        )
        accel = Sinusoid(
            wave.amplitude * self.mode.omega ** 2,
            wave.frequency,
            wrap_phase(wave.phase + math.pi),
        )
        stress = steady_state_stress(self.crystal, accel)
        signal = induced_signal(self.crystal, stress, self.circuit_phase_offset)
        if not (math.isfinite(signal.amplitude) and math.isfinite(signal.phase)):
            raise NonFiniteSignalError(
                f"$.crystal: the induced signal is not finite (amplitude "
                f"{signal.amplitude!r} V, phase {signal.phase!r} rad)"
            )
        return signal

    def propagation_delay(self, z: Optional[float] = None) -> float:
        if z is None:
            z = self.transducer.position
        return z / self.mode.c_s

    def injected_amplitude(self, z: Optional[float] = None,
                           drive_amplitude: Optional[float] = None) -> float:
        return self.induced_signal(0.0, z, drive_amplitude).amplitude


def build_context(
    medium: MediumSpec,
    crystal: CrystalSpec,
    rtc: RtcConfig,
    transducer: TransducerSpec,
    *,
    circuit_phase_offset: float = 0.0,
    osc_phase: float = 0.0,
    thickness_convention: str = "half",
) -> ChainContext:
    """Solve the plate mode once and freeze the full chain context."""
    mode = solve_dispersion(medium, rtc.nominal_freq,
                            thickness_convention=thickness_convention)
    return ChainContext(
        medium=medium,
        crystal=crystal,
        rtc=rtc,
        transducer=transducer,
        mode=mode,
        circuit_phase_offset=circuit_phase_offset,
        osc_phase=osc_phase,
    )
