"""Pinned diagnostics of the scenario validator.

Each case mutates ``BASE_CONFIG`` and records the exact
``ConfigError.diagnostics`` that ``parse_scenario`` gives, or ``[]`` when the
tree is accepted.  The expected lists are in ``data/config_diagnostics.json``;
they hold the wording, the paths and the order of every diagnostic, so a
change to the validator that alters any of them fails here.

The cases cover every leaf under missing, null, text, true, list and object
values, NaN, +-inf and 10**400, each bound and its neighbours one ulp either
side, each cross-field rule, unknown keys, non-object sections and a
non-object root.

    PYTHONPATH=src python tests/test_config.py --check

lists the cases whose diagnostics differ from the file and writes nothing.  A
change that alters one on purpose regenerates the file with

    PYTHONPATH=src python tests/test_config.py

and names each changed case and its cause in CHANGES.md.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from driftlab.config import ConfigError, parse_scenario
from test_cli import BASE_CONFIG

EXPECTED_PATH = Path(__file__).parent / "data" / "config_diagnostics.json"

# Marks a key to delete.
MISSING = object()

GT0 = ((">", 0.0),)
GE0 = ((">=", 0.0),)
# dotted path -> bounds; every leaf the validator reads a number from
NUMBERS = {
    "circuit_phase_offset_rad": (),
    "medium.thickness_mm": GT0,
    "medium.attenuation_per_m": GT0 + (("<=", 1.0),),
    **{f"crystal.{key}": GT0 for key in (
        "tip_mass_kg", "damping_n_s_per_m", "stiffness_n_per_m", "width_m",
        "thickness_m", "piezo_c_per_n", "volts_per_displacement")},
    **{f"rtc.{key}": GT0 for key in (
        "nominal_freq_hz", "nominal_amplitude_v", "trigger_threshold_v",
        "freeze_timeout_s", "convergence_time_constant_s")},
    "transducer.position_z_m": GE0,
    "transducer.drive_amplitude_v": GE0,
    "transducer.displacement_per_volt_m": GT0,
    **{f"goal.{key}": GT0 for key in ("window_a_s", "drift_b_s", "drift_b_cycles")},
    **{f"attack.{key}": GT0 for key in (
        "burst_duration_s", "single_duration_t1_s", "phase_step_rad")},
    **{f"fingerprint.{key}": GT0 for key in (
        "sample_rate_hz", "duration_s", "scale_a_mv", "scale_b_mv", "bandwidth_hz")},
    "fingerprint.snr_db": ((">=", -3080.0), ("<=", 3080.0)),
    "fingerprint.confidence_threshold": GE0 + (("<=", 1.0),),
    **{f"bp.{key}": GT0 for key in (
        "initial_pressure_mmhg", "systolic_mmhg", "diastolic_mmhg",
        "deflation_rate_mmhg_per_s", "pressure_per_cycle_mmhg", "drift_rate",
        "tick_freq_hz")},
    "bp.freq_shift_hz": (),
    "damping.natural_freq_rad_s": GT0,
    "damping.zeta": GT0,
    **{f"clock_synth.{key}": GT0 for key in ("ref_freq_hz", "pll_mult", "multisynth_div")},
}
INTEGERS = {
    "seed": ((">=", 0),),
    "phase_grid": ((">=", 8),),
    "rtc.divider_reload": ((">=", 1), ("<=", 65535)),
}
TEXTS = ["medium.name", "rtc.mode", "goal.direction"]
SECTIONS = ["medium", "crystal", "rtc", "transducer", "goal", "attack",
            "fingerprint", "bp", "damping", "clock_synth"]
# The damping mount given as c, k and m instead of omega_n and zeta.
COMPONENTS = {"damping_n_s_per_m": 0.2, "stiffness_n_per_m": 4.0e4, "mass_kg": 1e-3}

SWAPS = {"missing": MISSING, "null": None, "text": "text", "true": True,
         "list": [1.0], "object": {"x": 1.0}, "nan": math.nan, "inf": math.inf,
         "-inf": -math.inf, "1e400": 10 ** 400}

# Inputs left out of the pinned set: in the validator these cases were first
# recorded against, each raised an error other than ConfigError or was
# accepted with a value that is now refused.  test_cli.py tests each one.
NOT_PINNED = {
    "phase_grid=1e400": "above the phase_grid maximum",
    "medium.thickness_mm>0.0+1ulp": "5e-324 mm is 0 m",
    "damping.components.damping_n_s_per_m>0.0+1ulp": "zeta underflows to 0",
    "damping.components.stiffness_n_per_m>0.0+1ulp": "k * m underflows to 0",
    "damping.components.mass_kg>0.0+1ulp": "k / m overflows to inf",
}


def _bound_values(op, limit):
    if isinstance(limit, int):
        return {f"{op}{limit}-1": limit - 1, f"{op}{limit}": limit,
                f"{op}{limit}+1": limit + 1}
    return {f"{op}{limit}-1ulp": math.nextafter(limit, -math.inf),
            f"{op}{limit}": limit,
            f"{op}{limit}+1ulp": math.nextafter(limit, math.inf)}


def _cross_field_cases():
    pi = math.pi
    return {
        "medium.name=unknown": {"medium.name": "unobtainium"},
        "medium.name=unknown after an error": {
            "medium.name": "unobtainium", "medium.thickness_mm": 0.0},
        "medium.name=unknown before a later error": {
            "medium.name": "unobtainium", "crystal.width_m": 0.0},
        "rtc.threshold=amplitude": {"rtc.trigger_threshold_v": 0.08},
        "rtc.threshold>amplitude": {"rtc.trigger_threshold_v": 0.1},
        "rtc.threshold=amplitude-1ulp": {
            "rtc.trigger_threshold_v": math.nextafter(0.08, 0.0)},
        "rtc.threshold>default amplitude": {
            "rtc.nominal_amplitude_v": MISSING, "rtc.trigger_threshold_v": 0.09},
        "rtc.threshold=amplitude after an error": {
            "rtc.trigger_threshold_v": 0.08, "medium.thickness_mm": 0.0},
        "rtc.freeze_timeout=one cycle": {"rtc.freeze_timeout_s": 1.0 / 32768.0},
        "rtc.freeze_timeout=one cycle+1ulp": {
            "rtc.freeze_timeout_s": math.nextafter(1.0 / 32768.0, math.inf)},
        "rtc.freeze_timeout<one cycle at 1 kHz": {
            "rtc.nominal_freq_hz": 1000.0, "rtc.freeze_timeout_s": 9e-4},
        "rtc.freeze_timeout<one cycle after an error": {
            "rtc.freeze_timeout_s": 3e-5, "medium.thickness_mm": 0.0},
        "goal.backward without seconds": {"goal.drift_b_s": MISSING},
        "goal.backward with cycles only": {
            "goal.drift_b_s": MISSING, "goal.drift_b_cycles": 10.0},
        "goal.backward drift=window": {"goal.drift_b_s": 30.0},
        "goal.backward drift=window-1ulp": {
            "goal.drift_b_s": math.nextafter(30.0, 0.0)},
        "goal.backward drift>window": {"goal.drift_b_s": 31.0},
        "goal.backward drift=window after an error": {
            "goal.drift_b_s": 30.0, "rtc.mode": "text"},
        "goal.forward cycles": {"goal.direction": "forward",
                                "goal.drift_b_s": MISSING,
                                "goal.drift_b_cycles": 10.0},
        "goal.forward seconds": {"goal.direction": "forward"},
        "goal.forward neither": {"goal.direction": "forward",
                                 "goal.drift_b_s": MISSING},
        "goal.forward neither after an error": {
            "goal.direction": "forward", "goal.drift_b_s": MISSING,
            "rtc.nominal_freq_hz": 0.0},
        "goal.empty": {"goal": {}},
        "attack.phase_step=pi": {"attack.phase_step_rad": pi},
        "attack.phase_step=pi-1ulp": {"attack.phase_step_rad": math.nextafter(pi, 0.0)},
        "attack.phase_step=4 int": {"attack.phase_step_rad": 4},
        "attack.phase_step=pi after an error": {
            "attack.phase_step_rad": pi, "medium.thickness_mm": 0.0},
        "attack.phase_step=pi before a later error": {
            "attack.phase_step_rad": pi, "bp.systolic_mmhg": 0.0},
        "fingerprint.trace=empty": {"fingerprint.trace": {}},
        "fingerprint.trace=empty after an error": {
            "fingerprint.trace": {}, "fingerprint.duration_s": 0.0},
        "fingerprint.trace=file": {"fingerprint.trace": {"file": "capture.csv"}},
        "fingerprint.trace=other key": {"fingerprint.trace": {"path": "capture.csv"}},
        "fingerprint.trace=null": {"fingerprint.trace": None},
        "fingerprint.budget=max": {"fingerprint.sample_rate_hz": 1e6,
                                   "fingerprint.duration_s": 16.0},
        "fingerprint.budget=max+1": {"fingerprint.sample_rate_hz": 1e6,
                                     "fingerprint.duration_s": 16.000001},
        "fingerprint.budget=1e300x1e300": {"fingerprint.sample_rate_hz": 1e300,
                                           "fingerprint.duration_s": 1e300},
        # 16 samples short of the shortest accepted length, the shortest,
        # and one sample past the 60,000 of BASE_CONFIG's 0.01 s
        "fingerprint.length=256": {"fingerprint.duration_s": 256 / 6e6},
        "fingerprint.length=272": {"fingerprint.duration_s": 272 / 6e6},
        "fingerprint.length=60001": {"fingerprint.duration_s": 60001 / 6e6},
        "fingerprint.length=60001 after an error": {
            "fingerprint.duration_s": 60001 / 6e6, "attack.burst_duration_s": 0.0},
        "fingerprint.budget after an error": {
            "fingerprint.duration_s": 1e9, "attack.burst_duration_s": 0.0},
        "fingerprint.budget before a later error": {
            "fingerprint.duration_s": 1e9, "damping.zeta": 0.0},
        "bp.systolic=initial": {"bp.systolic_mmhg": 180.0},
        "bp.diastolic=systolic": {"bp.diastolic_mmhg": 120.0},
        "bp.diastolic>systolic": {"bp.diastolic_mmhg": 130.0},
        "bp.initial<diastolic": {"bp.initial_pressure_mmhg": 70.0},
        "bp.order after an error": {"bp.diastolic_mmhg": 130.0,
                                    "clock_synth.pll_mult": "text"},
        "bp.freq_shift=5e-324": {"bp.freq_shift_hz": 5e-324},
        "bp.freq_shift=-5e-324": {"bp.freq_shift_hz": -5e-324},
        "bp.freq_shift=min normal": {"bp.freq_shift_hz": sys.float_info.min},
        "bp.freq_shift=min normal-1ulp": {
            "bp.freq_shift_hz": math.nextafter(sys.float_info.min, 0.0)},
        "bp.freq_shift=5e-324 after an error": {
            "bp.freq_shift_hz": 5e-324, "bp.tick_freq_hz": 0.0},
        "bp.defaults": {"bp": {}},
        "damping.components": {"damping": dict(COMPONENTS)},
        "damping.components beside natural": {
            "damping": dict(COMPONENTS, zeta="text")},
        "damping.components two of three": {
            "damping": dict(COMPONENTS, mass_kg=MISSING, zeta=0.25)},
        "damping.components after an error": {
            "damping": dict(COMPONENTS), "clock_synth.ref_freq_hz": 0.0},
        "damping.defaults": {"damping": {}},
        "clock_synth.defaults": {"clock_synth": {}},
        "extra keys": {"extra": 1, "medium.extra": "x", "rtc.extra": None},
        "crystal.dielectric_f_per_m=removed": {"crystal.dielectric_f_per_m": 1e-10},
        "rtc.freeze_timeout=no unit": {"rtc.freeze_timeout": 0.1},
        "unknown key beside an error in its object": {
            "medium.thickness_mm": 0.0, "medium.extra": 1.0},
        "unknown key after an error": {
            "medium.thickness_mm": 0.0, "rtc.extra": 1.0},
        "unknown key before a later error": {
            "medium.extra": 1.0, "rtc.nominal_freq_hz": 0.0},
        "unknown key before a cross-field rule": {
            "rtc.trigger_threshold_v": 0.08, "rtc.extra": 1.0},
        "damping.components with an unknown key": {
            "damping": dict(COMPONENTS, extra=1.0)},
        "fingerprint.trace=profile and other key": {
            "fingerprint.trace": {"profile": "synthetic-04", "path": "capture.csv"}},
        "many errors": {"seed": -1, "medium.thickness_mm": 0.0,
                        "rtc.mode": "sundial", "goal.window_a_s": "long",
                        "bp.systolic_mmhg": [], "clock_synth.pll_mult": math.nan},
    }


def _cases():
    """id -> (base override, {dotted path: value}) or a whole root value."""
    cases = {}
    for path, bounds in NUMBERS.items():
        for label, value in SWAPS.items():
            cases[f"{path}={label}"] = {path: value}
        for op, limit in bounds:
            for label, value in _bound_values(op, limit).items():
                cases[f"{path}{label}"] = {path: value}
    for key in COMPONENTS:
        path = f"damping.{key}"
        for label, value in SWAPS.items():
            cases[f"damping.components.{key}={label}"] = {
                "damping": dict(COMPONENTS), path: value}
        for label, value in _bound_values(">", 0.0).items():
            cases[f"damping.components.{key}{label}"] = {
                "damping": dict(COMPONENTS), path: value}
    for path, bounds in INTEGERS.items():
        for label, value in dict(SWAPS, float=1.5).items():
            cases[f"{path}={label}"] = {path: value}
        for op, limit in bounds:
            for label, value in _bound_values(op, limit).items():
                cases[f"{path}{label}"] = {path: value}
    for path in TEXTS:
        for label, value in dict(SWAPS, number=1.0).items():
            cases[f"{path}={label}"] = {path: value}
    for section in SECTIONS:
        for label, value in [("missing", MISSING), ("null", None), ("number", 5),
                             ("text", "text"), ("list", []), ("true", True)]:
            cases[f"{section} section={label}"] = {section: value}
    for obj in SECTIONS + ["fingerprint.trace"]:
        cases[f"{obj}=unknown key"] = {f"{obj}.extra": 1.0}
    for label, value in [("number", 5), ("text", "text"), ("list", []),
                         ("true", True)]:
        cases[f"fingerprint.trace={label}"] = {"fingerprint.trace": value}
    for label, value in [("missing", MISSING), ("null", None), ("2", 2),
                         ("text", "1"), ("float", 1.0), ("true", True)]:
        cases[f"schema_version={label}"] = {"schema_version": value}
    for label, value in [("list", []), ("text", "text"), ("number", 5),
                         ("null", None), ("true", True)]:
        cases[f"root={label}"] = value
    cases.update(_cross_field_cases())
    return cases


CASES = _cases()


def _mutated(mutation):
    if not isinstance(mutation, dict):
        return mutation
    cfg = json.loads(json.dumps(BASE_CONFIG))
    for path, value in mutation.items():
        node = cfg
        *parents, key = path.split(".")
        for part in parents:
            node = node[part]
        if value is MISSING:
            node.pop(key, None)
        elif isinstance(value, dict):
            node[key] = {k: v for k, v in value.items() if v is not MISSING}
        else:
            node[key] = value
    return cfg


def diagnostics(case_id):
    try:
        parse_scenario(_mutated(CASES[case_id]))
    except ConfigError as exc:
        return exc.diagnostics
    return []


EXPECTED = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def test_every_case_is_pinned_or_named():
    assert set(EXPECTED) == set(CASES) - set(NOT_PINNED)
    assert set(NOT_PINNED) <= set(CASES)


@pytest.mark.parametrize("case_id", sorted(EXPECTED))
def test_diagnostics_pinned(case_id):
    assert diagnostics(case_id) == EXPECTED[case_id]


def main(argv) -> int:
    """Regenerate the expected file, or with ``--check`` list the cases whose
    diagnostics differ from it (or that it lacks or no longer has) and exit 1
    if there are any."""
    found = {case_id: diagnostics(case_id) for case_id in set(CASES) - set(NOT_PINNED)}
    if argv == ["--check"]:
        changed = sorted(case_id for case_id in found.keys() | EXPECTED.keys()
                         if found.get(case_id) != EXPECTED.get(case_id))
        for case_id in changed:
            print(case_id)
        return 1 if changed else 0
    if argv:
        print("usage: test_config.py [--check]", file=sys.stderr)
        return 2
    EXPECTED_PATH.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {len(found)} cases to {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
