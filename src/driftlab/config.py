"""Scenario configuration: JSON schema, validation and assembly.

Configs are a versioned JSON tree in which every physical quantity carries
an explicit unit suffix in its key name (thickness_mm, drive_amplitude_v,
freeze_timeout_s, ...), so a value can never be silently interpreted in the
wrong unit.  ``SCHEMA`` lists every leaf with its kind, default and bounds,
and a key it does not know is refused, a misspelt one included.
Validation reads the whole tree through it first and reports every
offending field with its dotted path; the rules that relate several fields
run only while no earlier field has failed.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from .chain import ChainContext, TransducerSpec, build_context
from .crystal import CrystalSpec
from .effects import BpScenario, ClockSynthConfig, DampingSpec, SubnormalShiftError
from .fingerprint import (SNR_DB_MAX, UNKNOWN_THRESHOLD, CaptureConfig,
                          length_refusal, load_profile_library)
from .lamb import MediumSpec, load_media
from .planner import DIRECTION_BACKWARD, DIRECTION_FORWARD, DriftGoal
from .rtc import DIVIDER_MAX, MODE_32BIT, MODE_CALENDAR, RtcConfig

SCHEMA_VERSION = 1
# Most samples one fingerprint capture may hold.  A cold `driftlab classify`
# peaks at about 40 MB plus 118 bytes per sample (6 MHz, 0.1 to 1.0 s
# captures), so the largest accepted capture stays below 2 GB.
CAPTURE_SAMPLES_MAX = 16_000_000
# Most excitation phases one calibration may sample.  Each costs about
# 10 us, so the largest grid calibrates in about a second.
PHASE_GRID_MAX = 65_536


class ConfigError(ValueError):
    """Validation failure; ``diagnostics`` lists path-qualified messages."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


REQUIRED = object()  # the default of a field that must be given


@dataclass(frozen=True)
class Field:
    """One leaf of the schema: its JSON ``key``, and the keyword ``attr`` its
    value is passed as.

    ``kind`` is float (any finite JSON number), int or str.  A missing or
    null field takes ``default``, unless that is ``REQUIRED``; a null text
    field is always refused.  The bounds are tested in the order ``ge``,
    ``gt``, ``le``, then ``check``, which returns a diagnostic or None.
    """

    key: str
    attr: str
    default: Any = REQUIRED
    kind: type = float
    gt: Any = None
    ge: Any = None
    le: Any = None
    choices: tuple = ()
    check: Optional[Callable[[Any], Optional[str]]] = None


# kind -> (accepted JSON types, name)
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "text")}
_BOUNDS = (("ge", ">=", operator.ge), ("gt", ">", operator.gt), ("le", "<=", operator.le))


def _refusal(row: Field, value) -> Optional[str]:
    """Why ``value`` cannot fill ``row``, or None when it can."""
    if value is None:
        return f"required {'text' if row.kind is str else 'number'} missing"
    accepts, noun = _KINDS[row.kind]
    if isinstance(value, bool) or not isinstance(value, accepts):
        return f"expected {noun}, got {value!r}"
    number = value
    if row.kind is float:
        # JSON admits NaN and +-Infinity, and every bound is false against NaN.
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            return f"must be a finite number, got {number}"
    for name, symbol, holds in _BOUNDS:
        limit = getattr(row, name)
        if limit is not None and not holds(value, limit):
            return f"must be {symbol} {limit}, got {value}"
    if row.choices and value not in row.choices:
        return f"must be one of {sorted(row.choices)}, got {value!r}"
    return row.check(number) if row.check else None


class _Checker:
    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def read(self, obj, path: str, rows) -> dict:
        """attr -> value for each of ``rows`` in the object at ``path``; None
        where refused.  A key the object may not hold (``_KEYS``) is refused."""
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {obj!r}")
            obj = {}
        for key in obj:
            if key not in _KEYS[path]:
                self.fail(f"{path}.{key}", "unknown key")
        values = {}
        for row in rows:
            value = obj.get(row.key)
            null_text = row.kind is str and row.key in obj
            if value is None and row.default is not REQUIRED and not null_text:
                value = row.default
            elif message := _refusal(row, value):
                self.fail(f"{path}.{row.key}", message)
                value = None
            elif row.kind is float:
                value = float(value)
            values[row.attr] = value
        return values

    def assemble(self, factory, values: dict):
        """``factory(**values)``, or None once anything has failed: the rules
        that a factory applies across fields run only while nothing has."""
        if self.errors:
            return None
        try:
            return factory(**values)
        except ConfigError as exc:
            self.errors += exc.diagnostics
            return None

    def section(self, cfg: dict, name: str, factory, rows=None):
        """``factory`` assembled from the fields of section ``name``."""
        path = f"$.{name}"
        values = self.read(cfg.get(name, {}), path, rows or SCHEMA[path])
        return self.assemble(factory, values)


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
    confidence_threshold: float = UNKNOWN_THRESHOLD
    bp: Optional[BpScenario] = None
    bp_drift_rate: Optional[float] = None
    bp_tick_freq: float = 1024.0
    damping: Optional[DampingSpec] = None
    clock_synth: Optional[ClockSynthConfig] = None

    def context(self) -> ChainContext:
        return build_context(self.medium, self.crystal, self.rtc, self.transducer,
                             circuit_phase_offset=self.circuit_phase_offset)


def _positive(key: str, attr: str, default=REQUIRED) -> Field:
    return Field(key, attr, default, gt=0.0)


def _below_pi(step: float) -> Optional[str]:
    return f"must be below pi, got {step}" if step >= math.pi else None


# The damping mount: omega_n and zeta, or c, k and m when all three of
# their keys are present.
_MOUNT = (
    _positive("natural_freq_rad_s", "omega_n", 2.0e5),
    _positive("zeta", "zeta", 0.5),
)
_MOUNT_PARTS = (
    _positive("damping_n_s_per_m", "damping_coeff"),
    _positive("stiffness_n_per_m", "stiffness"),
    _positive("mass_kg", "mass"),
)
# JSON path of each object -> its fields.  A default that the built
# dataclass shares is read from it.
SCHEMA: dict[str, tuple[Field, ...]] = {
    "$": (
        Field("seed", "seed", Scenario.seed, int, ge=0),
        Field("circuit_phase_offset_rad", "circuit_phase_offset",
              Scenario.circuit_phase_offset),
        Field("phase_grid", "phase_grid", Scenario.phase_grid, int, ge=8,
              le=PHASE_GRID_MAX),
    ),
    "$.medium": (
        Field("name", "name", "acrylic glass", str),
        _positive("thickness_mm", "thickness_mm", 5.0),
        Field("attenuation_per_m", "attenuation_ratio", MediumSpec.attenuation_ratio,
              gt=0.0, le=1.0),
    ),
    "$.crystal": (
        _positive("tip_mass_kg", "tip_mass", CrystalSpec.tip_mass),
        _positive("damping_n_s_per_m", "damping", CrystalSpec.damping),
        _positive("stiffness_n_per_m", "stiffness", CrystalSpec.stiffness),
        _positive("width_m", "width", CrystalSpec.width),
        _positive("thickness_m", "thickness", CrystalSpec.thickness),
        _positive("piezo_c_per_n", "piezo_constant", CrystalSpec.piezo_constant),
        _positive("volts_per_displacement", "volts_per_displacement",
                  CrystalSpec.volts_per_displacement),
    ),
    "$.rtc": (
        _positive("nominal_freq_hz", "nominal_freq", RtcConfig.nominal_freq),
        _positive("nominal_amplitude_v", "nominal_amplitude",
                  RtcConfig.nominal_amplitude),
        _positive("trigger_threshold_v", "trigger_threshold",
                  RtcConfig.trigger_threshold),
        Field("mode", "mode", RtcConfig.mode, str, choices=(MODE_CALENDAR, MODE_32BIT)),
        Field("divider_reload", "divider_reload", RtcConfig.divider_reload, int,
              ge=1, le=DIVIDER_MAX),
        _positive("freeze_timeout_s", "freeze_timeout", RtcConfig.freeze_timeout),
        _positive("convergence_time_constant_s", "convergence_time_constant",
                  RtcConfig.convergence_time_constant),
    ),
    "$.transducer": (
        Field("position_z_m", "position", 0.055, ge=0.0),
        Field("drive_amplitude_v", "drive_amplitude", 20.0, ge=0.0),
        _positive("displacement_per_volt_m", "displacement_per_volt",
                  TransducerSpec.displacement_per_volt),
    ),
    "$.goal": (
        Field("direction", "direction", kind=str,
              choices=(DIRECTION_FORWARD, DIRECTION_BACKWARD)),
        _positive("window_a_s", "window"),
        _positive("drift_b_s", "seconds", None),
        _positive("drift_b_cycles", "cycles", None),
    ),
    "$.attack": (
        _positive("burst_duration_s", "burst_duration", AttackSettings.burst_duration),
        _positive("single_duration_t1_s", "t1", AttackSettings.t1),
        Field("phase_step_rad", "phase_step", AttackSettings.phase_step, gt=0.0,
              check=_below_pi),
    ),
    "$.fingerprint": (
        _positive("sample_rate_hz", "sample_rate", 6e6),
        _positive("duration_s", "duration", 0.1),
        Field("snr_db", "snr_db", CaptureConfig.snr_db, ge=-SNR_DB_MAX,
              le=SNR_DB_MAX),
        _positive("scale_a_mv", "scale_a", CaptureConfig.scale_a),
        _positive("scale_b_mv", "scale_b", CaptureConfig.scale_b),
        _positive("bandwidth_hz", "bandwidth", CaptureConfig.bandwidth),
        Field("confidence_threshold", "confidence_threshold",
              Scenario.confidence_threshold, ge=0.0, le=1.0),
        Field("library", "library", None, str),
    ),
    "$.fingerprint.trace": (
        Field("profile", "profile", None, str),
        Field("file", "file", None, str),
    ),
    "$.bp": (
        _positive("initial_pressure_mmhg", "initial_pressure", 180.0),
        _positive("systolic_mmhg", "systolic", 120.0),
        _positive("diastolic_mmhg", "diastolic", 80.0),
        _positive("deflation_rate_mmhg_per_s", "deflation_rate", 3.0),
        _positive("pressure_per_cycle_mmhg", "pressure_per_cycle", 3.0 / 1024.0),
        Field("freq_shift_hz", "freq_shift", BpScenario.freq_shift),
        _positive("drift_rate", "bp_drift_rate", Scenario.bp_drift_rate),
        _positive("tick_freq_hz", "bp_tick_freq", Scenario.bp_tick_freq),
    ),
    "$.damping": _MOUNT + _MOUNT_PARTS,
    "$.clock_synth": (
        _positive("ref_freq_hz", "ref_freq", ClockSynthConfig.ref_freq),
        _positive("pll_mult", "pll_mult", ClockSynthConfig.pll_mult),
        _positive("multisynth_div", "multisynth_div", ClockSynthConfig.multisynth_div),
    ),
}
# JSON path of each object -> the keys it may hold: its fields and the
# objects nested in it, and at the root the schema version.
_KEYS = {path: {row.key for row in rows}
        | {p.rpartition(".")[2] for p in SCHEMA if p.rpartition(".")[0] == path}
        for path, rows in SCHEMA.items()}
_KEYS["$"].add("schema_version")


def _medium(name: str, thickness_mm: float, attenuation_ratio: float) -> MediumSpec:
    thickness = thickness_mm * 1e-3
    if thickness == 0.0:
        raise ConfigError([f"$.medium.thickness_mm: {thickness_mm} mm is 0 m"])
    media = load_media(thickness=thickness, attenuation_ratio=attenuation_ratio)
    if name not in media:
        raise ConfigError([f"$.medium.name: unknown medium {name!r}; "
                           f"have {sorted(media)}"])
    return media[name]


def _rtc(**values) -> RtcConfig:
    threshold, amplitude = values["trigger_threshold"], values["nominal_amplitude"]
    if threshold is not None and threshold >= amplitude:
        raise ConfigError([f"$.rtc.trigger_threshold_v: must be below the nominal "
                           f"amplitude ({amplitude})"])
    timeout, cycle = values["freeze_timeout"], 1.0 / values["nominal_freq"]
    if timeout is not None and timeout <= cycle:
        raise ConfigError([f"$.rtc.freeze_timeout_s: must exceed one oscillator "
                           f"period (1/nominal_freq_hz = {cycle!r} s), got {timeout!r}"])
    return RtcConfig(**values)


def _goal(rtc: RtcConfig, direction: str, window: float, seconds, cycles) -> DriftGoal:
    if direction == DIRECTION_BACKWARD:
        if seconds is None:
            raise ConfigError(["$.goal.drift_b_s: backward goals need a drift in "
                               "seconds"])
        if seconds >= window:
            raise ConfigError(["$.goal.drift_b_s: backward drift must be below the "
                               "window"])
        return DriftGoal(window=window, drift=seconds, direction=direction)
    # Forward drift is accounted in oscillator cycles; seconds of extra RTC
    # time convert at the nominal frequency.
    if cycles is None and seconds is None:
        raise ConfigError(["$.goal: forward goals need drift_b_cycles or drift_b_s"])
    if cycles is None:
        cycles = seconds * rtc.nominal_freq
    return DriftGoal(window=window, drift=cycles, direction=direction)


def _fingerprint(trace, confidence_threshold: float, library, **capture) -> dict:
    rate, duration = capture["sample_rate"], capture["duration"]
    samples = rate * duration
    if not (math.isfinite(samples) and round(samples) <= CAPTURE_SAMPLES_MAX):
        raise ConfigError([f"$.fingerprint.duration_s: {duration} s at {rate} Hz is "
                           f"{samples:.6g} samples, above the {CAPTURE_SAMPLES_MAX} a "
                           "capture may hold"])
    refusal = length_refusal(round(samples), rate)
    if refusal:
        raise ConfigError([f"$.fingerprint.duration_s: {refusal}"])
    try:
        profiles = load_profile_library(library)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError([f"$.fingerprint.library: cannot read {library!r}: "
                           f"{exc!r}"]) from exc
    return dict(capture=CaptureConfig(**capture), capture_source=trace, library=profiles,
                confidence_threshold=confidence_threshold)


def _bp(bp_drift_rate, bp_tick_freq: float, **values) -> dict:
    if not values["initial_pressure"] > values["systolic"] > values["diastolic"] > 0:
        raise ConfigError(["$.bp: need initial pressure > systolic > diastolic > 0"])
    try:
        bp = BpScenario(**values)
    except SubnormalShiftError as exc:
        raise ConfigError([f"$.bp.freq_shift_hz: {exc}"]) from exc
    return dict(bp=bp, bp_drift_rate=bp_drift_rate, bp_tick_freq=bp_tick_freq)


def _mount(**components) -> DampingSpec:
    # omega_n = sqrt(k / m) and zeta = c / (2 sqrt(k m)) can leave the floats
    # where c, k and m do not.
    try:
        return DampingSpec.from_components(**components)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(["$.damping: damping_n_s_per_m, stiffness_n_per_m and mass_kg "
                           "give no finite omega_n and zeta > 0"]) from None


def _parse_fingerprint(chk: _Checker, cfg: dict) -> Optional[dict]:
    sec = cfg["fingerprint"]
    values = chk.read(sec, "$.fingerprint", SCHEMA["$.fingerprint"])
    # The trace is checked whatever failed before it.
    trace = sec.get("trace") if isinstance(sec, dict) else None
    if trace is not None and not isinstance(trace, dict):
        chk.fail("$.fingerprint.trace", "expected an object")
    elif trace is not None:
        chk.read(trace, "$.fingerprint.trace", SCHEMA["$.fingerprint.trace"])
        if not ("profile" in trace or "file" in trace):
            chk.fail("$.fingerprint.trace", "needs a 'profile' label or a 'file' path")
    return chk.assemble(partial(_fingerprint, trace), values)


def _parse_damping(chk: _Checker, cfg: dict) -> Optional[DampingSpec]:
    sec = cfg["damping"]
    if isinstance(sec, dict) and {row.key for row in _MOUNT_PARTS} <= sec.keys():
        return chk.section(cfg, "damping", _mount, _MOUNT_PARTS)
    return chk.section(cfg, "damping", DampingSpec, _MOUNT)


def parse_scenario(cfg: Any) -> Scenario:
    """Validate a config tree and assemble the Scenario; raises ConfigError
    with one diagnostic per offending field."""
    chk = _Checker()
    if not isinstance(cfg, dict):
        raise ConfigError(["$: config must be a JSON object"])
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        chk.fail("$.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    top = chk.read(cfg, "$", SCHEMA["$"])
    medium = chk.section(cfg, "medium", _medium)
    crystal = chk.section(cfg, "crystal", CrystalSpec)
    rtc = chk.section(cfg, "rtc", _rtc)
    transducer = chk.section(cfg, "transducer", TransducerSpec)
    goal = chk.section(cfg, "goal", partial(_goal, rtc)) if "goal" in cfg else None
    attack = chk.section(cfg, "attack", AttackSettings)
    fingerprint = _parse_fingerprint(chk, cfg) if "fingerprint" in cfg else {}
    bp = chk.section(cfg, "bp", _bp) if "bp" in cfg else {}
    damping = _parse_damping(chk, cfg) if "damping" in cfg else None
    synth = (chk.section(cfg, "clock_synth", ClockSynthConfig)
             if "clock_synth" in cfg else None)
    if chk.errors:
        raise ConfigError(chk.errors)
    return Scenario(medium=medium, crystal=crystal, rtc=rtc, transducer=transducer,
                    goal=goal, attack=attack, damping=damping, clock_synth=synth,
                    **top, **fingerprint, **bp)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"$: invalid JSON ({exc})"]) from exc
    return parse_scenario(cfg)
