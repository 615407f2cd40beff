"""Downstream consequences of a drifted clock, and countermeasure models.

Covers the oscillometric blood-pressure error induced by a shifted timing
frequency, the energy transfer of a shock-absorbing mount, and the frequency
synthesizer that replaces the attackable crystal altogether.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace


class DeflationStallError(RuntimeError):
    """Deflation rate driven to zero or below: the cuff stops deflating and
    the device aborts with a measurement error."""


class SubnormalShiftError(ValueError):
    """Nonzero timing shift smaller in magnitude than the smallest normal
    float.

    The pressure errors scale as ``(P0 - feature) * dP * df / V0``.  For a
    subnormal ``df`` their true values can lie below the smallest subnormal,
    where binary64 rounds them to +-0.0 and neither their sign nor their
    systolic-to-diastolic ratio survives."""


@dataclass(frozen=True)
class BpScenario:
    """Cuff-deflation measurement setting of an oscillometric BP monitor.

    ``freq_shift`` is either zero or at least ``sys.float_info.min`` in
    magnitude; a subnormal shift raises ``SubnormalShiftError``.
    """

    initial_pressure: float       # P0, mmHg
    systolic: float               # true systolic, mmHg
    diastolic: float              # true diastolic, mmHg
    deflation_rate: float         # nominal V0, mmHg/s
    pressure_per_cycle: float     # valve release per clock cycle, mmHg
    freq_shift: float = 0.0       # timing frequency change, Hz

    def __post_init__(self):
        if not self.initial_pressure > self.systolic > self.diastolic > 0.0:
            raise ValueError("need initial pressure > systolic > diastolic > 0")
        if self.deflation_rate <= 0.0:
            raise ValueError("deflation_rate must be > 0")
        if self.pressure_per_cycle <= 0.0:
            raise ValueError("pressure_per_cycle must be > 0")
        if self.freq_shift != 0.0 and abs(self.freq_shift) < sys.float_info.min:
            raise SubnormalShiftError(
                f"freq_shift {self.freq_shift!r} Hz is nonzero but below "
                f"{sys.float_info.min!r} in magnitude; the pressure errors "
                "would underflow"
            )


@dataclass(frozen=True)
class DampingSpec:
    """Mass-spring-damper mount between the vibrating surface and the board."""

    omega_n: float     # natural angular frequency, rad/s
    zeta: float        # damping ratio

    def __post_init__(self):
        if not (0.0 < self.omega_n < math.inf and 0.0 < self.zeta < math.inf):
            raise ValueError("omega_n and zeta must be finite and > 0")

    @classmethod
    def from_components(cls, damping_coeff: float, stiffness: float, mass: float):
        """Build from physical c, k, m: zeta = c / (2 sqrt(k m))."""
        if damping_coeff <= 0.0 or stiffness <= 0.0 or mass <= 0.0:
            raise ValueError("c, k, m must be > 0")
        return cls(
            omega_n=math.sqrt(stiffness / mass),
            zeta=damping_coeff / (2.0 * math.sqrt(stiffness * mass)),
        )


@dataclass(frozen=True)
class ClockSynthConfig:
    """PLL-plus-fractional-divider clock generator settings."""

    ref_freq: float = 25e6
    pll_mult: float = 36.0
    multisynth_div: float = 27465.82

    def __post_init__(self):
        if self.ref_freq <= 0 or self.pll_mult <= 0 or self.multisynth_div <= 0:
            raise ValueError("synthesizer parameters must be > 0")


def bp_error(s: BpScenario) -> tuple[float, float, float]:
    """(systolic error, diastolic error, actual deflation rate) in mmHg units.

    A faster clock deflates the cuff faster than the controller assumes, so
    both pressure features are detected at too-high readings, proportionally
    to their pressure drop from the starting cuff pressure.  A shift that
    takes an error, the rate or a reported pressure past the float range
    raises ``OverflowError``.
    """
    shift = s.pressure_per_cycle * s.freq_shift
    new_rate = s.deflation_rate + shift
    delta_s = (s.initial_pressure - s.systolic) * shift / s.deflation_rate
    delta_d = (s.initial_pressure - s.diastolic) * shift / s.deflation_rate
    if math.isfinite(s.freq_shift) and new_rate <= 0.0:
        raise DeflationStallError(
            f"deflation rate {new_rate:.4g} mmHg/s; cuff stops deflating"
        )
    values = (delta_s, delta_d, new_rate, s.systolic + delta_s, s.diastolic + delta_d)
    if not all(map(math.isfinite, values)):
        raise OverflowError(f"a timing shift of {s.freq_shift!r} Hz takes the pressure "
                            f"errors past the float range")
    return delta_s, delta_d, new_rate


def rtc_drift_to_bp(drift_rate: float, s: BpScenario, tick_freq: float = 1024.0) -> BpScenario:
    """Scenario with the timing shift implied by an RTC running at
    ``drift_rate`` RTC-seconds per wall second."""
    if drift_rate <= 0.0:
        raise ValueError("drift_rate must be > 0")
    return replace(s, freq_shift=tick_freq * (drift_rate - 1.0))


def damping_attenuation(spec: DampingSpec, omega: float) -> float:
    """Energy transfer ratio of the mount at excitation frequency ``omega``."""
    if omega < 0.0:
        raise ValueError("omega must be >= 0")
    r = omega / spec.omega_n
    # zeta * r first: 2 * zeta overflows for zeta near the float maximum, and
    # inf * 0 at omega = 0 would be nan.
    return 1.0 / math.sqrt((1.0 - r * r) ** 2 + (2.0 * (spec.zeta * r)) ** 2)


def synth_output_freq(cfg: ClockSynthConfig):
    """Output frequency of the synthesizer: pll_mult * ref / divider.

    Plain multiplication and division, so rational inputs (e.g. Fraction)
    stay exact.
    """
    return cfg.pll_mult * cfg.ref_freq / cfg.multisynth_div
