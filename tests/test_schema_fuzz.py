"""Property-based fuzz of the scenario schema (MacIver et al., "Hypothesis: A
new approach to property-based testing", JOSS 2019).

Each example mutates one to three leaves of a reference config.  The leaves
and their bounds come from ``config.SCHEMA``, so a field added to the table
is fuzzed too.  A mutation swaps the value's type, puts it one ulp (or one)
past a bound, gives it a huge or subnormal magnitude, deletes it, or adds an
unknown key beside it, which is refused.

``classify`` is left out: at about 0.2 s a call on the reference config it
would add most of a minute.  ``simulate`` refuses a window whose tick rows
would pass ``cli.SIMULATE_ROWS_MAX``, and ``plan`` and ``simulate`` a plan of
more bursts.
"""

import contextlib
import copy
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftlab.cli import COMMANDS as CLI_COMMANDS, main
from driftlab.config import SCHEMA, ConfigError, parse_scenario
from test_cli import BASE_CONFIG
from test_config import COMPONENTS

# The reference configs: BASE_CONFIG, and one with the mount as c, k and m
# and a forward goal, so both forms and both directions are reached.
BASES = [
    BASE_CONFIG,
    dict(BASE_CONFIG, damping=COMPONENTS,
         goal={"direction": "forward", "window_a_s": 30.0, "drift_b_cycles": 40.0}),
]
LEAVES = [(path, row) for path, rows in SCHEMA.items() for row in rows]
DELETE, EXTRA = object(), object()
SWAPS = [None, "text", True, False, [1.0], {"x": 1.0}, 1.5, 7, -1]
MAGNITUDES = [10 ** 400, -10 ** 400, 1e308, -1e308, 1e300, 5e-324, -5e-324,
              sys.float_info.min, 0, 0.0, -0.0, math.nan, math.inf, -math.inf]
# Values near a limit that a leaf meets against other leaves: the freeze
# timeout against one cycle of the reference 32,768 Hz clock, below which it
# is refused, and against the 0.5 s stall bursts, whose largest gap between
# edges is 0.50003 to 0.500035 s.
CYCLE = 1.0 / 32768.0
NEAR = {"freeze_timeout_s": [math.nextafter(CYCLE, 0.0), CYCLE,
                             math.nextafter(CYCLE, 1.0), 2.0 * CYCLE, 0.5, 0.50002,
                             0.5 + CYCLE, 0.50005, 0.5 + 2.0 * CYCLE]}
COMMANDS = ["dispersion", "calibrate", "plan", "simulate", "bp", "counter"]
# Sweep spans START:STOP:STEPS.  With one drawn, each command also runs each
# key it sweeps over the span.
ENDS = [-1.7e308, -1.0, 0.0, 5e-324, 1.0, 2e4, 1.7e308]
SPANS = st.one_of(st.none(), st.builds("{!r}:{!r}:{}".format, st.sampled_from(ENDS),
                                       st.sampled_from(ENDS), st.sampled_from([1, 3])))
BEFORE = b"earlier result\n"
NAN = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def _with(path, value, base=BASE_CONFIG):
    """``base`` with the leaf at dotted ``path`` set to ``value``."""
    cfg = copy.deepcopy(base)
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node[part]
    node[key] = value
    return cfg


def _edges(row):
    """The choices of ``row``, and each of its bounds with the neighbours one
    ulp (one, for integers) either side."""
    values = list(row.choices)
    for limit in (row.gt, row.ge, row.le):
        if isinstance(limit, int):
            values += [limit - 1, limit, limit + 1]
        elif limit is not None:
            values += [math.nextafter(limit, -math.inf), limit,
                       math.nextafter(limit, math.inf)]
    return values


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path, row = draw(st.sampled_from(LEAVES))
        node = cfg
        for part in path.split(".")[1:]:
            child = node.get(part)
            if not isinstance(child, dict):
                child = node[part] = {}
            node = child
        value = draw(st.sampled_from([DELETE, EXTRA] + SWAPS + MAGNITUDES
                                     + _edges(row) + NEAR.get(row.key, [])))
        if value is DELETE:
            node.pop(row.key, None)
        elif value is EXTRA:
            node[f"{row.key}_extra"] = draw(st.sampled_from(SWAPS + MAGNITUDES))
        else:
            node[row.key] = value
    return cfg


# Counterexamples: each raised something other than ConfigError.
@settings(max_examples=500, deadline=None)
@given(cfg=mutated_configs())
@example(cfg=_with("fingerprint.library", "text"))
@example(cfg=_with("fingerprint.library", []))
@example(cfg=_with("fingerprint.trace", {"file": None}))
@example(cfg=_with("medium.thickness_mm", 5e-324))
@example(cfg=_with("damping.damping_n_s_per_m", 5e-324, BASES[1]))
@example(cfg=_with("damping.stiffness_n_per_m", 5e-324, BASES[1]))
def test_parse_gives_scenario_or_config_error(cfg):
    try:
        parse_scenario(cfg)
    except ConfigError:
        pass


# Counterexamples: the first made simulate run without end, and the one of
# smallest-normal bursts made plan write without end; each other one before
# it raised out of main or exited 1 from the command line, or (the four
# before it) exited 0 with nan in its output or 2 on a numeric failure.  The
# two freeze timeouts exited 0: one below the stalls' largest gap latched the
# watchdog, and one below a cycle latched it or not by how a stretch was cut.
# A zeta of 1e308 made counter write nan at omega = 0, and 1e-8 s bursts
# made simulate walk 1e8 stalls, about 90 s, for a window of 31 rows.
# A sweep span that overflows made bp write nan and inf rows and exit 0.
# Forward bursts of 2 us at the default step passed, but only because the
# fuzz does not check the drift: simulate exited 0 with a third of the goal,
# its bursts meeting offsets past pi from the second on.  The span now
# exits 2 and the bursts 3.  A drift rate or a shift whose pressure errors
# pass the float range made bp write inf rows with status ok and exit 0, and
# a subnormal multisynth divider made counter write an inf synthesizer
# output; both now exit 4.
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=mutated_configs(), sweep=SPANS)
@example(cfg=_with("goal.window_a_s", 1e300), sweep=None)
@example(cfg=_with("rtc.nominal_freq_hz", 1e9), sweep=None)
@example(cfg=_with("medium.thickness_mm", 1e9), sweep=None)
@example(cfg=_with("damping.zeta", 1e300), sweep=None)
@example(cfg=_with("damping.zeta", 5e-324), sweep=None)
@example(cfg=_with("phase_grid", 10 ** 12), sweep=None)
@example(cfg=_with("damping.mass_kg", 5e-324, BASES[1]), sweep=None)
@example(cfg=_with("crystal.tip_mass_kg", 1e300), sweep=None)
@example(cfg=_with("crystal.thickness_m", 2.2250738585072014e-308), sweep=None)
@example(cfg=_with("damping.natural_freq_rad_s", 4.5e307), sweep=None)
@example(cfg=_with("medium.thickness_mm", 2.2250738585072014e-308), sweep=None)
@example(cfg=_with("attack.burst_duration_s", sys.float_info.min,
                   _with("goal.drift_b_s", 1.5)), sweep=None)
@example(cfg=_with("rtc.freeze_timeout_s", 0.50002), sweep=None)
@example(cfg=_with("rtc.freeze_timeout_s", 3e-5), sweep=None)
@example(cfg=_with("damping.zeta", 1e308), sweep=None)
@example(cfg=_with("attack.burst_duration_s", 1e-8, _with("goal.drift_b_s", 1.0)),
         sweep=None)
@example(cfg=_with("attack.single_duration_t1_s", 2e-6, _with(
    "rtc.mode", "thirtytwo_bit", _with("goal", {"direction": "forward", "window_a_s": 1.0,
                                               "drift_b_cycles": 100.0}))),
         sweep=None)
@example(cfg=BASE_CONFIG, sweep="-1.7e308:1.7e308:3")
@example(cfg=BASE_CONFIG, sweep="1e306:1e306:1")
@example(cfg=_with("bp.drift_rate", 1e306), sweep=None)
@example(cfg=_with("bp.freq_shift_hz", 1e300, _with("bp.pressure_per_cycle_mmhg", 1e10)),
         sweep=None)
@example(cfg=_with("clock_synth.multisynth_div", 5e-324), sweep=None)
def test_cli_exits_with_a_code_and_keeps_out_on_refusal(cfg, sweep):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.json"
        config.write_text(json.dumps(cfg))
        out = Path(tmp) / "out.csv"
        runs = [(command, []) for command in COMMANDS]
        if sweep is not None:
            runs += [(command, ["--sweep", f"{key}={sweep}"])
                     for command in COMMANDS for key in CLI_COMMANDS[command][2]]
        for command, extra in runs:
            out.write_bytes(BEFORE)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(config), "--out", str(out), *extra])
            assert rc in (0, 2, 3, 4), (command, rc)
            assert "Traceback" not in err.getvalue()
            if rc != 0:
                assert err.getvalue().strip(), command
                assert out.read_bytes() == BEFORE, command
            else:
                assert not NAN.search(out.read_text()), command
