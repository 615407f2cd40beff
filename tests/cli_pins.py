"""Reference CLI runs and their recorded outputs.

``CASES`` names each run: a scenario (``BASE_CONFIG`` from ``test_cli``
with overrides, or the ``perfbench`` base scenario file), a subcommand and
its extra arguments.  ``record`` runs ``cli.main`` in-process with ``--out``
in a scratch directory, or for the cases in ``TO_STDOUT`` with none, and
returns the exit code, the stderr text and the output: its text, or for
``simulate`` (whose tables run to tens of thousands of rows) its sha256,
row count and ``end`` row.  ``tests/test_cli_pins.py`` compares every case
with ``data/cli_pins.json``.

A refactor must leave these outputs unchanged.

    PYTHONPATH=src python tests/cli_pins.py --check

lists the cases whose output differs from the file and writes nothing.
Under each it prints the fields that differ; for a table, the rows that
differ and the largest absolute difference of their numeric fields.  A
change that alters one on purpose regenerates the file with

    PYTHONPATH=src python tests/cli_pins.py

and names each changed case and its cause in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import itertools
import json
import math
import sys
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

# 1e-5 s is below five convergence time constants (15 us), so each burst
# leaves part of its offset: the bursts meet offsets that grow from pi/2
# toward 1.63 rad.
FORWARD_LOOP = {
    "goal": {"direction": "forward", "window_a_s": 1.0, "drift_b_cycles": 100.0},
    "attack": {"single_duration_t1_s": 1e-5, "phase_step_rad": math.pi / 2},
    "rtc.mode": "thirtytwo_bit",
}

FORWARD_PAST_PI = {
    "goal": {"direction": "forward", "window_a_s": 1.0, "drift_b_cycles": 100.0},
    "attack.single_duration_t1_s": 2e-6,
    "rtc.mode": "thirtytwo_bit",
}

# name -> (scenario overrides of BASE_CONFIG, or PERFBENCH_BASE; argv tail)
CASES: dict[str, tuple] = {
    **{f"base-{c}": ({}, [c]) for c in COMMANDS},
    **{f"perfbench-{c}": (PERFBENCH_BASE, [c]) for c in COMMANDS},
    "simulate-backward-32bit": ({"rtc.mode": "thirtytwo_bit"}, ["simulate"]),
    # The 0.5 s stalls leave at most 0.50003 to 0.500035 s between two
    # crossings: a freeze timeout below that is refused with exit 3, one
    # above runs, and would latch if the last edge were taken one crossing
    # early.
    "simulate-backward-freeze-latches": ({"rtc.freeze_timeout_s": 0.50002},
                                         ["simulate"]),
    "simulate-backward-freeze-clear": ({"rtc.freeze_timeout_s": 0.50005},
                                       ["simulate"]),
    # A timeout below the 0.5 s burst itself is refused with exit 3 by the
    # same check, which names the largest gap between two edges.
    "plan-backward-burst-over-timeout": ({"rtc.freeze_timeout_s": 0.4}, ["plan"]),
    "simulate-backward-burst-over-timeout": ({"rtc.freeze_timeout_s": 0.4},
                                             ["simulate"]),
    "simulate-forward-calendar": ({
        "goal": {"direction": "forward", "window_a_s": 10.0, "drift_b_s": 1.0},
        "attack": {"phase_step_rad": math.pi / 2},
    }, ["simulate"]),
    "simulate-forward-32bit": (FORWARD_32BIT, ["simulate"]),
    "simulate-forward-32bit-freeze": (
        {**FORWARD_32BIT, "rtc.freeze_timeout_s": 0.6}, ["simulate"]),
    "simulate-forward-loop": (FORWARD_LOOP, ["simulate"]),
    # A 30 us timeout, just under one cycle, is refused with exit 2: a
    # stretch checks the watchdog at its first crossing only.
    "simulate-forward-loop-freeze": (
        {**FORWARD_LOOP, "rtc.freeze_timeout_s": 3e-5}, ["simulate"]),
    # 2 us bursts and the default step of 11 pi / 12: the offsets tend to
    # 5.9 rad, and the second burst would meet 4.36 rad, past pi, where it
    # no longer leads.  Refused with exit 3.
    "plan-forward-offset-past-pi": (FORWARD_PAST_PI, ["plan"]),
    "simulate-forward-offset-past-pi": (FORWARD_PAST_PI, ["simulate"]),
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
    # A sweep whose span stop - start overflows is refused with exit 2.
    "refuse-sweep-overflow-exit-2": ({}, ["bp", "--sweep",
                                          "freq_shift_hz=-1.7e308:1.7e308:3"]),
    # A drift rate of 1e306 is an infinite timing shift: refused with exit 4
    # before the table's header.
    "refuse-bp-overflow-exit-4": ({}, ["bp", "--sweep", "drift_rate=1e306:1e306:1"]),
    # 1 s of 1e-8 s stalls is 1e8 bursts in a window of 31 rows: refused by
    # the burst cap that ``plan`` has, before the stalls are walked.
    "refuse-simulate-burst-cap-exit-2": ({"attack.burst_duration_s": 1e-8,
                                          "goal.drift_b_s": 1.0}, ["simulate"]),
    "stdout-simulate-backward": ({}, ["simulate"]),
    "stdout-simulate-forward-32bit": (FORWARD_32BIT, ["simulate"]),
}
# Cases that write to standard output instead of ``--out``.
TO_STDOUT = {"stdout-simulate-backward", "stdout-simulate-forward-32bit"}


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
        to_stdout = name in TO_STDOUT
        argv = [tail[0], "--config", config,
                *([] if to_stdout else ["--out", str(out)]), *tail[1:]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if to_stdout:
            text = stdout.getvalue()
        else:
            text = out.read_text(encoding="utf-8") if out.exists() else None
    result = {"exit": code, "stderr": stderr.getvalue()}
    if not to_stdout:
        result["stdout"] = stdout.getvalue()
    if text and tail[0] == "simulate":
        lines = text.splitlines()
        result["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        result["rows"] = len(lines)
        result["end"] = lines[-1]
    else:
        result["out"] = text
    return result


def _numeric_gap(old_row: str, new_row: str) -> float:
    """Largest |a - b| over the fields of two CSV rows that both read as
    numbers (0.0 when none do)."""
    gap = 0.0
    for a, b in zip(old_row.split(","), new_row.split(",")):
        try:
            gap = max(gap, abs(float(a) - float(b)))
        except ValueError:
            pass
    return gap


def differences(pinned: dict | None, recorded: dict | None) -> list[str]:
    """Lines that show how a case's recorded output differs from its pin."""
    if pinned is None or recorded is None:
        return ["  not pinned" if pinned is None else "  no longer a case"]
    lines = []
    for key in sorted(pinned.keys() | recorded.keys()):
        old, new = pinned.get(key), recorded.get(key)
        if old == new:
            continue
        if key not in ("out", "end") or not (isinstance(old, str)
                                              and isinstance(new, str)):
            lines.append(f"  {key}: {old!r} -> {new!r}")
            continue
        gap = 0.0
        rows = itertools.zip_longest(old.splitlines(), new.splitlines())
        for i, (old_row, new_row) in enumerate(rows):
            if old_row == new_row:
                continue
            lines.append(f"  {key} row {i}: - {old_row}")
            lines.append(f"  {key} row {i}: + {new_row}")
            if old_row is not None and new_row is not None:
                gap = max(gap, _numeric_gap(old_row, new_row))
        lines.append(f"  {key}: largest absolute difference {gap!r}")
    return lines


def main(argv) -> int:
    """Regenerate the pin file, or with ``--check`` list the cases whose
    output differs from it (or that it lacks or no longer has) and exit 1 if
    there are any."""
    pins = {name: record(name) for name in CASES}
    if argv == ["--check"]:
        pinned = json.loads(PINS_PATH.read_text(encoding="utf-8"))
        changed = sorted(name for name in pins.keys() | pinned.keys()
                         if pins.get(name) != pinned.get(name))
        for name in changed:
            print(name)
            print("\n".join(differences(pinned.get(name), pins.get(name))))
        return 1 if changed else 0
    if argv:
        print("usage: cli_pins.py [--check]", file=sys.stderr)
        return 2
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {len(pins)} cases to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
