"""Reference CLI runs and their recorded outputs.

``CASES`` names each run: a scenario (``BASE_CONFIG`` from ``test_cli``
with overrides, or the ``perfbench`` base scenario file), a subcommand and
its extra arguments.  ``record`` runs ``cli.main`` in-process with ``--out``
in a scratch directory and returns the exit code, the stderr text and the
output: its text, or for ``simulate`` (whose tables run to tens of thousands
of rows) its sha256, row count and ``end`` row.  ``tests/test_cli_pins.py``
compares every case with ``data/cli_pins.json``.

A refactor must leave these outputs unchanged.  A change that alters one
on purpose regenerates the file with

    PYTHONPATH=src python tests/cli_pins.py

and names each changed case and its cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

from driftlab import cli
from test_cli import BASE_CONFIG

HERE = Path(__file__).resolve().parent

PINS_PATH = HERE / "data" / "cli_pins.json"
PERFBENCH_BASE = HERE.parent / "perfbench" / "scenarios" / "base.json"

COMMANDS = ("dispersion", "calibrate", "plan", "simulate", "classify", "bp",
            "counter")

FORWARD_32BIT = {
    "goal": {"direction": "forward", "window_a_s": 2.0, "drift_b_s": 0.004},
    "attack": {"single_duration_t1_s": 1.6e-5, "phase_step_rad": math.pi / 2},
    "rtc.mode": "thirtytwo_bit",
    "rtc.divider_reload": 32,
}

# name -> (scenario overrides of BASE_CONFIG, or PERFBENCH_BASE; argv tail)
CASES: dict[str, tuple] = {
    **{f"base-{c}": ({}, [c]) for c in COMMANDS},
    **{f"perfbench-{c}": (PERFBENCH_BASE, [c]) for c in COMMANDS},
    "simulate-backward-32bit": ({"rtc.mode": "thirtytwo_bit"}, ["simulate"]),
    # The 0.5 s stalls leave at most 0.50003 to 0.500035 s between two
    # crossings: a freeze timeout below that latches, one above does not,
    # and would if the last edge were taken one crossing early.
    "simulate-backward-freeze-latches": ({"rtc.freeze_timeout_s": 0.50002},
                                         ["simulate"]),
    "simulate-backward-freeze-clear": ({"rtc.freeze_timeout_s": 0.50005},
                                       ["simulate"]),
    "simulate-forward-calendar": ({
        "goal": {"direction": "forward", "window_a_s": 10.0, "drift_b_s": 1.0},
        "attack": {"phase_step_rad": math.pi / 2},
    }, ["simulate"]),
    "simulate-forward-32bit": (FORWARD_32BIT, ["simulate"]),
    "simulate-forward-32bit-freeze": (
        {**FORWARD_32BIT, "rtc.freeze_timeout_s": 0.6}, ["simulate"]),
    # 1e-5 s is below five convergence time constants (15 us), so the
    # bursts run one by one instead of as a closed-form train.
    "simulate-forward-loop": ({
        "goal": {"direction": "forward", "window_a_s": 1.0,
                 "drift_b_cycles": 100.0},
        "attack": {"single_duration_t1_s": 1e-5, "phase_step_rad": math.pi / 2},
        "rtc.mode": "thirtytwo_bit",
    }, ["simulate"]),
    "dispersion-sweep-freq": ({}, ["dispersion", "--sweep",
                                   "freq_hz=20000:40000:5"]),
    "dispersion-sweep-thickness": ({}, ["dispersion", "--sweep",
                                        "thickness_mm=1:20:4"]),
    "bp-sweep-shift": ({}, ["bp", "--sweep", "freq_shift_hz=-400:400:5"]),
    "bp-sweep-drift-rate": ({}, ["bp", "--sweep", "drift_rate=0.5:8:4"]),
    "counter-sweep": ({}, ["counter", "--sweep", "omega_rad_s=0:400000:9"]),
    "calibrate-seed-3": ({}, ["calibrate", "--seed", "3"]),
    "refuse-config-exit-2": ({"rtc.trigger_threshold_v": 0.09}, ["simulate"]),
    "refuse-infeasible-exit-3": ({
        "goal": {"direction": "forward", "window_a_s": 1e-4,
                 "drift_b_cycles": 1000.0},
        "attack": {"single_duration_t1_s": 1e-5, "phase_step_rad": math.pi / 2},
    }, ["plan"]),
    "refuse-numeric-exit-4": ({"rtc.nominal_freq_hz": 1e9}, ["dispersion"]),
}


def _scenario(overrides: dict) -> dict:
    cfg = copy.deepcopy(BASE_CONFIG)
    for key, value in overrides.items():
        node = cfg
        *parents, leaf = key.split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
    return cfg


def record(name: str) -> dict:
    """Run case ``name`` and return what ``data/cli_pins.json`` holds for it."""
    scenario, tail = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(scenario, Path):
            config = str(scenario)
        else:
            config = str(Path(tmp) / "scenario.json")
            Path(config).write_text(json.dumps(_scenario(scenario)))
        out = Path(tmp) / "out"
        argv = [tail[0], "--config", config, "--out", str(out), *tail[1:]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        text = out.read_text(encoding="utf-8") if out.exists() else None
    result = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
    if text is not None and tail[0] == "simulate":
        lines = text.splitlines()
        result["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        result["rows"] = len(lines)
        result["end"] = lines[-1]
    else:
        result["out"] = text
    return result


def main() -> None:
    pins = {name: record(name) for name in CASES}
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(pins)} cases to {PINS_PATH}")


if __name__ == "__main__":
    main()
