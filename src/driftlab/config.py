"""Scenario configuration: JSON schema, validation and assembly.

Configs are a versioned JSON tree in which every physical quantity carries
an explicit unit suffix in its key name (thickness_mm, drive_amplitude_v,
freeze_timeout_s, ...), so a value can never be silently interpreted in the
wrong unit.  Validation walks the whole tree first and reports every
offending field with its dotted path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .chain import ChainContext, TransducerSpec, build_context
from .crystal import CrystalSpec
from .effects import BpScenario, ClockSynthConfig, DampingSpec, SubnormalShiftError
from .fingerprint import CaptureConfig, load_profile_library
from .lamb import MediumSpec, load_media
from .planner import DIRECTION_BACKWARD, DIRECTION_FORWARD, DriftGoal
from .rtc import RtcConfig

SCHEMA_VERSION = 1
# Most samples one fingerprint capture may hold.  A cold `driftlab classify`
# peaks at about 40 MB plus 118 bytes per sample (6 MHz, 0.1 to 1.0 s
# captures), so the largest accepted capture stays below 2 GB.
CAPTURE_SAMPLES_MAX = 16_000_000


class ConfigError(ValueError):
    """Validation failure; ``diagnostics`` lists path-qualified messages."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def number(self, obj: dict, path: str, key: str, default=None,
               minimum=None, exclusive_minimum=None, maximum=None,
               allow_none=False):
        if key not in obj or obj[key] is None:
            if key in obj and obj[key] is None and allow_none:
                return None
            if default is not None or allow_none:
                return default
            self.fail(f"{path}.{key}", "required number missing")
            return None
        value = obj[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(f"{path}.{key}", f"expected a number, got {value!r}")
            return None
        # JSON admits NaN and +-Infinity, and every range test below is
        # false against NaN.
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            self.fail(f"{path}.{key}", f"must be a finite number, got {number}")
            return None
        if minimum is not None and value < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return None
        if exclusive_minimum is not None and value <= exclusive_minimum:
            self.fail(f"{path}.{key}", f"must be > {exclusive_minimum}, got {value}")
            return None
        if maximum is not None and value > maximum:
            self.fail(f"{path}.{key}", f"must be <= {maximum}, got {value}")
            return None
        return number

    def integer(self, obj: dict, path: str, key: str, default=None,
                minimum=None, maximum=None):
        value = obj.get(key, default)
        if value is None:
            return default
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {value!r}")
            return default
        if minimum is not None and value < minimum:
            self.fail(f"{path}.{key}", f"must be >= {minimum}, got {value}")
            return default
        if maximum is not None and value > maximum:
            self.fail(f"{path}.{key}", f"must be <= {maximum}, got {value}")
            return default
        return value

    def text(self, obj: dict, path: str, key: str, default=None, choices=None):
        value = obj.get(key, default)
        if value is None:
            self.fail(f"{path}.{key}", "required text missing")
            return default
        if not isinstance(value, str):
            self.fail(f"{path}.{key}", f"expected text, got {value!r}")
            return default
        if choices is not None and value not in choices:
            self.fail(f"{path}.{key}", f"must be one of {sorted(choices)}, got {value!r}")
            return default
        return value

    def section(self, obj: dict, path: str, key: str) -> dict:
        value = obj.get(key, {})
        if not isinstance(value, dict):
            self.fail(f"{path}.{key}", f"expected an object, got {value!r}")
            return {}
        return value


@dataclass(frozen=True)
class AttackSettings:
    """Burst shaping knobs shared by the plan and simulate subcommands."""

    burst_duration: float = 0.5      # backward stall burst length, s
    t1: float = 2e-5                 # forward single-burst duration, s
    phase_step: float = 11 * math.pi / 12


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs; fully deterministic given the seed."""

    medium: MediumSpec
    crystal: CrystalSpec
    rtc: RtcConfig
    transducer: TransducerSpec
    goal: Optional[DriftGoal]
    seed: int = 0
    circuit_phase_offset: float = 0.0
    attack: AttackSettings = field(default_factory=AttackSettings)
    phase_grid: int = 64
    capture: Optional[CaptureConfig] = None
    capture_source: Optional[dict] = None
    library: Optional[list] = None
    confidence_threshold: float = 0.6
    bp: Optional[BpScenario] = None
    bp_drift_rate: Optional[float] = None
    bp_tick_freq: float = 1024.0
    damping: Optional[DampingSpec] = None
    clock_synth: Optional[ClockSynthConfig] = None

    def context(self, osc_phase: float = 0.0) -> ChainContext:
        return build_context(
            self.medium,
            self.crystal,
            self.rtc,
            self.transducer,
            circuit_phase_offset=self.circuit_phase_offset,
            osc_phase=osc_phase,
        )


def _parse_medium(chk: _Checker, cfg: dict) -> Optional[MediumSpec]:
    sec = chk.section(cfg, "$", "medium")
    name = chk.text(sec, "$.medium", "name", default="acrylic glass")
    thickness_mm = chk.number(sec, "$.medium", "thickness_mm", default=5.0,
                              exclusive_minimum=0.0)
    attenuation = chk.number(sec, "$.medium", "attenuation_per_m", default=0.9,
                             exclusive_minimum=0.0, maximum=1.0)
    if chk.errors:
        return None
    media = load_media(thickness=thickness_mm * 1e-3, attenuation_ratio=attenuation)
    if name not in media:
        chk.fail("$.medium.name", f"unknown medium {name!r}; have {sorted(media)}")
        return None
    return media[name]


def _parse_crystal(chk: _Checker, cfg: dict) -> Optional[CrystalSpec]:
    sec = chk.section(cfg, "$", "crystal")
    base = CrystalSpec()
    kwargs = {}
    for key, attr in [
        ("tip_mass_kg", "tip_mass"),
        ("damping_n_s_per_m", "damping"),
        ("stiffness_n_per_m", "stiffness"),
        ("width_m", "width"),
        ("thickness_m", "thickness"),
        ("piezo_c_per_n", "piezo_constant"),
        ("dielectric_f_per_m", "dielectric_constant"),
        ("volts_per_displacement", "volts_per_displacement"),
    ]:
        value = chk.number(sec, "$.crystal", key, default=getattr(base, attr),
                           exclusive_minimum=0.0)
        kwargs[attr] = value
    if chk.errors:
        return None
    return CrystalSpec(**kwargs)


def _parse_rtc(chk: _Checker, cfg: dict) -> Optional[RtcConfig]:
    sec = chk.section(cfg, "$", "rtc")
    freq = chk.number(sec, "$.rtc", "nominal_freq_hz", default=32768.0,
                      exclusive_minimum=0.0)
    amplitude = chk.number(sec, "$.rtc", "nominal_amplitude_v", default=0.080,
                           exclusive_minimum=0.0)
    threshold = chk.number(sec, "$.rtc", "trigger_threshold_v", default=None,
                           exclusive_minimum=0.0, allow_none=True)
    mode = chk.text(sec, "$.rtc", "mode", default="calendar",
                    choices={"calendar", "thirtytwo_bit"})
    reload = chk.integer(sec, "$.rtc", "divider_reload", default=None,
                         minimum=1, maximum=65535)
    freeze = chk.number(sec, "$.rtc", "freeze_timeout_s", default=None,
                        exclusive_minimum=0.0, allow_none=True)
    tau = chk.number(sec, "$.rtc", "convergence_time_constant_s", default=3e-6,
                     exclusive_minimum=0.0)
    if chk.errors:
        return None
    if threshold is not None and amplitude is not None and threshold >= amplitude:
        chk.fail("$.rtc.trigger_threshold_v",
                 f"must be below the nominal amplitude ({amplitude})")
        return None
    return RtcConfig(
        nominal_freq=freq,
        nominal_amplitude=amplitude,
        trigger_threshold=threshold,
        divider_reload=reload,
        mode=mode,
        freeze_timeout=freeze,
        convergence_time_constant=tau,
    )


def _parse_transducer(chk: _Checker, cfg: dict) -> Optional[TransducerSpec]:
    sec = chk.section(cfg, "$", "transducer")
    z = chk.number(sec, "$.transducer", "position_z_m", default=0.055, minimum=0.0)
    drive = chk.number(sec, "$.transducer", "drive_amplitude_v", default=20.0,
                       minimum=0.0)
    coupling = chk.number(sec, "$.transducer", "displacement_per_volt_m",
                          default=1e-12, exclusive_minimum=0.0)
    if chk.errors:
        return None
    return TransducerSpec(position=z, drive_amplitude=drive,
                          displacement_per_volt=coupling)


def _parse_goal(chk: _Checker, cfg: dict, rtc: Optional[RtcConfig]):
    if "goal" not in cfg:
        return None
    sec = chk.section(cfg, "$", "goal")
    direction = chk.text(sec, "$.goal", "direction",
                         choices={DIRECTION_FORWARD, DIRECTION_BACKWARD})
    window = chk.number(sec, "$.goal", "window_a_s", exclusive_minimum=0.0)
    drift_s = chk.number(sec, "$.goal", "drift_b_s", default=None,
                         exclusive_minimum=0.0, allow_none=True)
    drift_cycles = chk.number(sec, "$.goal", "drift_b_cycles", default=None,
                              exclusive_minimum=0.0, allow_none=True)
    if chk.errors or direction is None or window is None:
        return None
    if direction == DIRECTION_BACKWARD:
        if drift_s is None:
            chk.fail("$.goal.drift_b_s", "backward goals need a drift in seconds")
            return None
        if drift_s >= window:
            chk.fail("$.goal.drift_b_s", "backward drift must be below the window")
            return None
        return DriftGoal(window=window, drift=drift_s, direction=direction)
    # Forward drift is accounted in oscillator cycles; seconds of extra RTC
    # time convert at the nominal frequency.
    if drift_cycles is None and drift_s is None:
        chk.fail("$.goal", "forward goals need drift_b_cycles or drift_b_s")
        return None
    if drift_cycles is None:
        drift_cycles = drift_s * rtc.nominal_freq
    return DriftGoal(window=window, drift=drift_cycles, direction=direction)


def _parse_attack(chk: _Checker, cfg: dict) -> AttackSettings:
    sec = chk.section(cfg, "$", "attack")
    base = AttackSettings()
    burst = chk.number(sec, "$.attack", "burst_duration_s",
                       default=base.burst_duration, exclusive_minimum=0.0)
    t1 = chk.number(sec, "$.attack", "single_duration_t1_s", default=base.t1,
                    exclusive_minimum=0.0)
    step = chk.number(sec, "$.attack", "phase_step_rad", default=base.phase_step,
                      exclusive_minimum=0.0)
    if step is not None and step >= math.pi:
        chk.fail("$.attack.phase_step_rad", f"must be below pi, got {step}")
    if chk.errors:
        return base
    return AttackSettings(burst_duration=burst, t1=t1, phase_step=step)


def _parse_fingerprint(chk: _Checker, cfg: dict):
    if "fingerprint" not in cfg:
        return None, None, None, 0.6
    sec = chk.section(cfg, "$", "fingerprint")
    rate = chk.number(sec, "$.fingerprint", "sample_rate_hz", default=6e6,
                      exclusive_minimum=0.0)
    duration = chk.number(sec, "$.fingerprint", "duration_s", default=0.1,
                          exclusive_minimum=0.0)
    snr = chk.number(sec, "$.fingerprint", "snr_db", default=None, allow_none=True)
    a = chk.number(sec, "$.fingerprint", "scale_a_mv", default=50.0,
                   exclusive_minimum=0.0)
    b = chk.number(sec, "$.fingerprint", "scale_b_mv", default=50.0,
                   exclusive_minimum=0.0)
    bw = chk.number(sec, "$.fingerprint", "bandwidth_hz", default=2e5,
                    exclusive_minimum=0.0)
    threshold = chk.number(sec, "$.fingerprint", "confidence_threshold",
                           default=0.6, minimum=0.0, maximum=1.0)
    library_path = sec.get("library")
    source = sec.get("trace")
    if source is not None and not isinstance(source, dict):
        chk.fail("$.fingerprint.trace", "expected an object")
        source = None
    if source is not None and not ("profile" in source or "file" in source):
        chk.fail("$.fingerprint.trace", "needs a 'profile' label or a 'file' path")
    if chk.errors:
        return None, None, None, 0.6
    samples = rate * duration
    if not (math.isfinite(samples) and round(samples) <= CAPTURE_SAMPLES_MAX):
        chk.fail("$.fingerprint.duration_s",
                 f"{duration} s at {rate} Hz is {samples:.6g} samples, above the "
                 f"{CAPTURE_SAMPLES_MAX} a capture may hold")
        return None, None, None, 0.6
    capture = CaptureConfig(
        sample_rate=rate,
        duration=duration,
        snr_db=math.inf if snr is None else snr,
        scale_a=a,
        scale_b=b,
        bandwidth=bw,
    )
    library = load_profile_library(library_path)
    return capture, source, library, threshold


def _parse_bp(chk: _Checker, cfg: dict):
    if "bp" not in cfg:
        return None, None, 1024.0
    sec = chk.section(cfg, "$", "bp")
    p0 = chk.number(sec, "$.bp", "initial_pressure_mmhg", default=180.0,
                    exclusive_minimum=0.0)
    s = chk.number(sec, "$.bp", "systolic_mmhg", default=120.0,
                   exclusive_minimum=0.0)
    d = chk.number(sec, "$.bp", "diastolic_mmhg", default=80.0,
                   exclusive_minimum=0.0)
    v0 = chk.number(sec, "$.bp", "deflation_rate_mmhg_per_s", default=3.0,
                    exclusive_minimum=0.0)
    dp = chk.number(sec, "$.bp", "pressure_per_cycle_mmhg", default=3.0 / 1024.0,
                    exclusive_minimum=0.0)
    df = chk.number(sec, "$.bp", "freq_shift_hz", default=0.0)
    rate = chk.number(sec, "$.bp", "drift_rate", default=None,
                      exclusive_minimum=0.0, allow_none=True)
    tick = chk.number(sec, "$.bp", "tick_freq_hz", default=1024.0,
                      exclusive_minimum=0.0)
    if chk.errors:
        return None, None, 1024.0
    if not p0 > s > d > 0:
        chk.fail("$.bp", "need initial pressure > systolic > diastolic > 0")
        return None, None, 1024.0
    try:
        scenario = BpScenario(
            initial_pressure=p0, systolic=s, diastolic=d,
            deflation_rate=v0, pressure_per_cycle=dp, freq_shift=df,
        )
    except SubnormalShiftError as exc:
        chk.fail("$.bp.freq_shift_hz", str(exc))
        return None, None, 1024.0
    return scenario, rate, tick


def _parse_damping(chk: _Checker, cfg: dict):
    if "damping" not in cfg:
        return None
    sec = chk.section(cfg, "$", "damping")
    if {"damping_n_s_per_m", "stiffness_n_per_m", "mass_kg"} <= sec.keys():
        c = chk.number(sec, "$.damping", "damping_n_s_per_m", exclusive_minimum=0.0)
        k = chk.number(sec, "$.damping", "stiffness_n_per_m", exclusive_minimum=0.0)
        m = chk.number(sec, "$.damping", "mass_kg", exclusive_minimum=0.0)
        if chk.errors:
            return None
        return DampingSpec.from_components(c, k, m)
    wn = chk.number(sec, "$.damping", "natural_freq_rad_s", default=2.0e5,
                    exclusive_minimum=0.0)
    zeta = chk.number(sec, "$.damping", "zeta", default=0.5, exclusive_minimum=0.0)
    if chk.errors:
        return None
    return DampingSpec(omega_n=wn, zeta=zeta)


def _parse_synth(chk: _Checker, cfg: dict):
    if "clock_synth" not in cfg:
        return None
    sec = chk.section(cfg, "$", "clock_synth")
    ref = chk.number(sec, "$.clock_synth", "ref_freq_hz", default=25e6,
                     exclusive_minimum=0.0)
    pll = chk.number(sec, "$.clock_synth", "pll_mult", default=36.0,
                     exclusive_minimum=0.0)
    div = chk.number(sec, "$.clock_synth", "multisynth_div", default=27465.82,
                     exclusive_minimum=0.0)
    if chk.errors:
        return None
    return ClockSynthConfig(ref_freq=ref, pll_mult=pll, multisynth_div=div)


def parse_scenario(cfg: Any) -> Scenario:
    """Validate a config tree and assemble the Scenario; raises ConfigError
    with one diagnostic per offending field."""
    chk = _Checker()
    if not isinstance(cfg, dict):
        raise ConfigError(["$: config must be a JSON object"])
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        chk.fail("$.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    seed = chk.integer(cfg, "$", "seed", default=0, minimum=0)
    offset = chk.number(cfg, "$", "circuit_phase_offset_rad", default=0.0)
    phase_grid = chk.integer(cfg, "$", "phase_grid", default=64, minimum=8)

    medium = _parse_medium(chk, cfg)
    crystal = _parse_crystal(chk, cfg)
    rtc = _parse_rtc(chk, cfg)
    transducer = _parse_transducer(chk, cfg)
    goal = _parse_goal(chk, cfg, rtc)
    attack = _parse_attack(chk, cfg)
    capture, source, library, threshold = _parse_fingerprint(chk, cfg)
    bp, bp_rate, bp_tick = _parse_bp(chk, cfg)
    damping = _parse_damping(chk, cfg)
    synth = _parse_synth(chk, cfg)

    if chk.errors:
        raise ConfigError(chk.errors)
    return Scenario(
        medium=medium,
        crystal=crystal,
        rtc=rtc,
        transducer=transducer,
        goal=goal,
        seed=seed,
        circuit_phase_offset=offset,
        attack=attack,
        phase_grid=phase_grid,
        capture=capture,
        capture_source=source,
        library=library,
        confidence_threshold=threshold,
        bp=bp,
        bp_drift_rate=bp_rate,
        bp_tick_freq=bp_tick,
        damping=damping,
        clock_synth=synth,
    )


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"$: invalid JSON ({exc})"]) from exc
    return parse_scenario(cfg)
