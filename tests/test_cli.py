import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import driftlab
from driftlab import cli, rtc
from driftlab.cli import main
from driftlab.config import CAPTURE_SAMPLES_MAX, ConfigError, parse_scenario
from driftlab.lamb import dispersion_residual, load_media, solve_dispersion
from driftlab.fingerprint import save_trace_bin, save_trace_csv
from driftlab.signals import SampledTrace

BASE_CONFIG = {
    "schema_version": 1,
    "seed": 7,
    "medium": {"name": "acrylic glass", "thickness_mm": 5.0,
               "attenuation_per_m": 0.9},
    "crystal": {"volts_per_displacement": 1400.0},
    "rtc": {"nominal_freq_hz": 32768.0, "nominal_amplitude_v": 0.08,
            "trigger_threshold_v": 0.04, "mode": "calendar"},
    "transducer": {"position_z_m": 0.055, "drive_amplitude_v": 98.0,
                   "displacement_per_volt_m": 1e-12},
    "circuit_phase_offset_rad": 0.4,
    "goal": {"direction": "backward", "window_a_s": 30.0, "drift_b_s": 6.0},
    "attack": {"burst_duration_s": 0.5},
    "phase_grid": 16,
    "fingerprint": {"sample_rate_hz": 6e6, "duration_s": 0.01, "snr_db": 15.0,
                    "bandwidth_hz": 2e5,
                    "trace": {"profile": "synthetic-04"}},
    "bp": {"initial_pressure_mmhg": 180.0, "systolic_mmhg": 120.0,
           "diastolic_mmhg": 80.0, "deflation_rate_mmhg_per_s": 3.0,
           "pressure_per_cycle_mmhg": 0.0029296875, "freq_shift_hz": 102.4},
    "damping": {"natural_freq_rad_s": 205887.0, "zeta": 0.5},
    "clock_synth": {"ref_freq_hz": 25e6, "pll_mult": 36.0,
                    "multisynth_div": 27465.82},
}


def _numeric_paths(node, prefix=""):
    for key, value in node.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            yield from _numeric_paths(value, path + ".")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path


NUMERIC_PATHS = list(_numeric_paths(BASE_CONFIG))


@pytest.fixture
def config_path(tmp_path):
    def write(overrides=None, **top):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        if overrides:
            for key, value in overrides.items():
                node = cfg
                parts = key.split(".")
                for part in parts[:-1]:
                    node = node.setdefault(part, {})
                node[parts[-1]] = value
        cfg.update(top)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    return write


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# A 3-point range on BASE_CONFIG for each key a subcommand sweeps, and the
# fields of their rows that are not numbers.
SWEEP_RANGES = {"freq_hz": "20000:40000", "thickness_mm": "1:20",
                "freq_shift_hz": "-1200:200", "drift_rate": "0.5:8",
                "omega_rad_s": "0:400000"}
LITERALS = {BASE_CONFIG["medium"]["name"], "h_of_omega", "synth_output_hz",
            "stall", "ok", "true", "false", ""}


def _is_number(field):
    try:
        float(field)    # every int field parses as a float too
    except ValueError:
        return False
    return True


class TestDispersionCommand:
    def test_thickness_sweep(self, config_path, tmp_path):
        out = tmp_path / "disp.csv"
        rc = main(["dispersion", "--config", config_path(),
                   "--out", str(out), "--sweep", "thickness_mm=5:20:4"])
        assert rc == 0
        rows = _rows(out)
        assert rows[0] == ["medium", "thickness_mm", "freq_hz", "c_s_m_per_s",
                           "k_a_rad_per_m", "residual"]
        assert len(rows) == 5
        speeds = [float(r[3]) for r in rows[1:]]
        assert speeds == sorted(speeds)
        assert all(float(r[5]) < 1e-9 for r in rows[1:])

    def test_single_point_without_sweep(self, config_path, tmp_path):
        out = tmp_path / "disp.csv"
        assert main(["dispersion", "--config", config_path(),
                     "--out", str(out)]) == 0
        assert len(_rows(out)) == 2

    def test_unknown_sweep_key_rejected(self, config_path, tmp_path):
        rc = main(["dispersion", "--config", config_path(),
                   "--out", str(tmp_path / "x.csv"),
                   "--sweep", "bogus=1:2:2"])
        assert rc == 2


class TestSweepKeys:
    @pytest.mark.parametrize("command", ["calibrate", "plan", "simulate", "classify"])
    def test_command_without_sweep_keys_refuses_sweep(self, command, config_path,
                                                      tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        rc = main([command, "--config", config_path(), "--out", str(out),
                   "--sweep", "freq_hz=20000:40000:3"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: --sweep: {command} takes no sweep, "
            "got 'freq_hz=20000:40000:3'\n")
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("command, keys", [
        ("dispersion", "freq_hz or thickness_mm"),
        ("bp", "freq_shift_hz or drift_rate"),
        ("counter", "omega_rad_s"),
    ])
    def test_unknown_key_message(self, command, keys, config_path, capsys):
        rc = main([command, "--config", config_path(), "--sweep", "bogus=1:2:2"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert err == f"config error: --sweep: {command} sweeps {keys}, got 'bogus'\n"
        assert out == ""

    def test_counter_without_damping_refuses_unknown_key(self, tmp_path, capsys):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "damping"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert main(["counter", "--config", str(path)]) == 0
        capsys.readouterr()
        assert main(["counter", "--config", str(path), "--sweep", "bogus=1:2:2"]) == 2
        assert capsys.readouterr().err == (
            "config error: --sweep: counter sweeps omega_rad_s, got 'bogus'\n")

    @pytest.mark.parametrize("command, key", [
        (command, key) for command, (_, _, keys) in cli.COMMANDS.items()
        for key in keys])
    def test_every_field_is_a_number_or_a_literal(self, command, key,
                                                  config_path, tmp_path):
        out = tmp_path / "out.csv"
        rc = main([command, "--config", config_path(), "--out", str(out),
                   "--sweep", f"{key}={SWEEP_RANGES[key]}:3"])
        assert rc == 0
        text = out.read_text()
        assert "np." not in text
        header, *rows = _rows(out)
        assert rows
        for row in rows:
            assert len(row) == len(header)
            for field in row:
                assert field in LITERALS or _is_number(field), (row, field)

    @pytest.mark.parametrize("sweep", [None, "freq_hz=19500.5:60500.5:4",
                                       "thickness_mm=0.7:33.3:4"])
    @pytest.mark.parametrize("medium", ["aluminum", "polyethylene"])
    def test_rows_match_media_table_per_point(self, medium, sweep, config_path,
                                              tmp_path):
        # Each row's medium is the bundled table's record at the row's
        # thickness in millimetres.
        thickness_mm = 3.7
        path = config_path(overrides={"medium.name": medium,
                                      "medium.thickness_mm": thickness_mm,
                                      "medium.attenuation_per_m": 0.8})
        out = tmp_path / "disp.csv"
        argv = ["dispersion", "--config", path, "--out", str(out)]
        assert main(argv + (["--sweep", sweep] if sweep else [])) == 0
        d_mm, f = (thickness_mm * 1e-3) * 1e3, 32768.0
        points = [(d_mm, f)]
        if sweep:
            # Python floats, so every field below is a float's repr.
            key, spec = sweep.split("=")
            start, stop, steps = spec.split(":")
            values = np.linspace(float(start), float(stop), int(steps)).tolist()
            points = [(d_mm, v) if key == "freq_hz" else (v, f) for v in values]
        want = ["medium,thickness_mm,freq_hz,c_s_m_per_s,k_a_rad_per_m,residual"]
        for d, freq in points:
            rec = load_media(thickness=d * 1e-3, attenuation_ratio=0.8)[medium]
            mode = solve_dispersion(rec, freq)
            res = dispersion_residual(rec, mode.omega, mode.k_a)
            want.append(f"{medium},{float(d)!r},{float(freq)!r},{mode.c_s!r},"
                        f"{mode.k_a!r},{res!r}")
        assert out.read_text() == "\n".join(want) + "\n"


class TestCalibrateCommand:
    def test_emits_full_grid(self, config_path, tmp_path):
        out = tmp_path / "cal.csv"
        assert main(["calibrate", "--config", config_path(),
                     "--out", str(out)]) == 0
        rows = _rows(out)
        assert rows[0] == ["z_m", "phi_rad", "beta1_rad"]
        assert len(rows) == 1 + 16
        betas = [float(r[2]) for r in rows[1:]]
        assert all(0.0 <= b < 2 * math.pi for b in betas)

    def test_dead_chain_is_numeric_failure(self, config_path, tmp_path):
        path = config_path(overrides={"transducer.drive_amplitude_v": 0.0})
        rc = main(["calibrate", "--config", path,
                   "--out", str(tmp_path / "cal.csv")])
        assert rc == 4


class TestPlanCommand:
    def test_backward_plan_jsonl(self, config_path, tmp_path):
        out = tmp_path / "plan.jsonl"
        assert main(["plan", "--config", config_path(), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert set(first) == {"start_s", "duration_s", "phase_rad", "amplitude_v"}
        assert first["phase_rad"] == pytest.approx(math.pi)
        assert first["amplitude_v"] > 0.04  # strong enough to stall

    def test_infeasible_forward_goal_exit_3(self, config_path, tmp_path):
        path = config_path(overrides={
            "goal": {"direction": "forward", "window_a_s": 1e-4,
                     "drift_b_cycles": 1000.0},
            "attack": {"single_duration_t1_s": 1e-5,
                       "phase_step_rad": math.pi / 2},
        })
        rc = main(["plan", "--config", path, "--out", str(tmp_path / "p.jsonl")])
        assert rc == 3

    @pytest.mark.parametrize("command", ["plan", "simulate"])
    def test_backward_amplitude_that_cannot_stall_exit_3(
        self, command, config_path, tmp_path, capsys
    ):
        # On aluminum the injected amplitude is about 0.027 V, so the
        # superposed amplitude |0.08 - 0.027| stays above the 0.04 V trigger.
        path = config_path(overrides={"medium.name": "aluminum"})
        rc = main([command, "--config", path, "--out", str(tmp_path / "x.out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "amplitude" in err
        assert "Traceback" not in err

    def test_forward_plan_counts(self, config_path, tmp_path):
        path = config_path(overrides={
            "goal": {"direction": "forward", "window_a_s": 1.0,
                     "drift_b_cycles": 12.0},
            "attack": {"single_duration_t1_s": 1e-5,
                       "phase_step_rad": math.pi / 2},
        })
        out = tmp_path / "p.jsonl"
        assert main(["plan", "--config", path, "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 48

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_huge_plan_refused_before_the_first_line(self, config_path, tmp_path,
                                                     capsys, to_stdout):
        # 1.5 s of stalls in bursts of the smallest normal float is about
        # 6.7e307 bursts, one line each.
        path = config_path(overrides={"goal.drift_b_s": 1.5,
                                      "attack.burst_duration_s": 2.2250738585072014e-308})
        out = tmp_path / "plan.jsonl"
        out.write_bytes(b"earlier result\n")
        start = time.perf_counter()
        rc = main(["plan", "--config", path,
                   *([] if to_stdout else ["--out", str(out)])])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert out.read_bytes() == b"earlier result\n"
        assert captured.err == (
            "config error: $.goal: the plan has 6.74135e+307 bursts, above the "
            f"cap of {cli.SIMULATE_ROWS_MAX} bursts\n")

    @pytest.mark.parametrize("cap, rc", [(12, 0), (11, 2)])
    def test_burst_cap_edge(self, config_path, tmp_path, monkeypatch, cap, rc):
        # BASE_CONFIG's goal is 12 stalls of 0.5 s.
        monkeypatch.setattr(cli, "SIMULATE_ROWS_MAX", cap)
        out = tmp_path / "plan.jsonl"
        assert main(["plan", "--config", config_path(), "--out", str(out)]) == rc
        if rc == 0:
            assert len(out.read_text().splitlines()) == 12


class TestSimulateCommand:
    def test_backward_drift_visible(self, config_path, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", config_path(),
                     "--out", str(out)]) == 0
        rows = _rows(out)
        assert rows[0] == ["tick_index", "wall_time_s", "rtc_time_s", "drift_s"]
        assert rows[-1][0] == "end"
        final_drift = float(rows[-1][3])
        assert final_drift == pytest.approx(-6.0, abs=1.0)
        # rtc stays flat while bursts stall the divider: successive tick wall
        # times jump by more than a second around each burst
        gaps = [
            float(b[1]) - float(a[1])
            for a, b in zip(rows[1:-2], rows[2:-1])
        ]
        assert max(gaps) > 1.0

    def test_forward_simulation_gains_time(self, config_path, tmp_path,
                                           monkeypatch):
        path = config_path(overrides={
            "goal": {"direction": "forward", "window_a_s": 2.0,
                     "drift_b_s": 0.004},
            "attack": {"single_duration_t1_s": 1.6e-5,
                       "phase_step_rad": math.pi / 2},
            "rtc": {"mode": "thirtytwo_bit", "divider_reload": 32},
        })
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = _rows(out)
        assert float(rows[-1][3]) > 0.0
        # Ticks streamed a few at a time, with a short last chunk, give the
        # same bytes.
        monkeypatch.setattr(rtc, "TICK_CHUNK", 7)
        again = tmp_path / "again.csv"
        assert main(["simulate", "--config", path, "--out", str(again)]) == 0
        assert (len(rows) - 2) % 7 != 0
        assert again.read_bytes() == out.read_bytes()

    def test_forward_pause_below_an_ulp_simulates(self, config_path, tmp_path,
                                                  capsys):
        # The pause is below an ulp of t1, and t1 is below five time
        # constants; burst starts rounded before the previous burst's end
        # were refused with exit 3.
        path = config_path(overrides={
            "goal": {"direction": "forward", "window_a_s": 0.00022506807129523345,
                     "drift_b_cycles": 5.0},
            "attack": {"single_duration_t1_s": 1.1253403564761672e-05,
                       "phase_step_rad": math.pi / 2},
            "rtc": {"mode": "thirtytwo_bit"},
        })
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert _rows(out)[-1][0] == "end"

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_huge_window_refused_before_the_header(self, config_path, tmp_path,
                                                   capsys, to_stdout):
        path = config_path(overrides={"goal.window_a_s": 1e300})
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier result\n")
        start = time.perf_counter()
        rc = main(["simulate", "--config", path,
                   *([] if to_stdout else ["--out", str(out)])])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert out.read_bytes() == b"earlier result\n"
        assert captured.err == (
            "config error: $.goal.window_a_s: a 1e+300 s run at a 1.0 s tick "
            f"period is about 1e+300 rows, above the cap of "
            f"{cli.SIMULATE_ROWS_MAX} rows\n")

    @pytest.mark.parametrize("cap, rc", [(4, 0), (3, 2)])
    def test_row_cap_edge(self, config_path, tmp_path, monkeypatch, cap, rc):
        # Two 0.5 s stalls in a 3 s window span it exactly: 3 / 1 s + 1 rows.
        monkeypatch.setattr(cli, "SIMULATE_ROWS_MAX", cap)
        path = config_path(overrides={"goal.window_a_s": 3.0,
                                      "goal.drift_b_s": 1.0})
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == rc
        if rc == 0:
            assert _rows(out)[-1] == ["end", "3.0", "2.0", "-1.0"]

    @pytest.mark.parametrize("to_stdout", [False, True])
    def test_huge_plan_refused_before_the_header(self, config_path, tmp_path,
                                                 capsys, to_stdout):
        # 1 s of 1e-8 s stalls is 1e8 bursts in a window of 31 rows.
        path = config_path(overrides={"goal.drift_b_s": 1.0,
                                      "attack.burst_duration_s": 1e-8})
        out = tmp_path / "run.csv"
        out.write_bytes(b"earlier result\n")
        start = time.perf_counter()
        rc = main(["simulate", "--config", path,
                   *([] if to_stdout else ["--out", str(out)])])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert out.read_bytes() == b"earlier result\n"
        assert captured.err == (
            "config error: $.goal: the plan has 1e+08 bursts, above the cap of "
            f"{cli.SIMULATE_ROWS_MAX} bursts\n")

    @pytest.mark.parametrize("cap, rc", [(10, 0), (9, 2)])
    def test_burst_cap_edge(self, config_path, tmp_path, monkeypatch, cap, rc):
        # Ten 0.1 s stalls in a 3 s window: 4 rows, 10 bursts.
        monkeypatch.setattr(cli, "SIMULATE_ROWS_MAX", cap)
        path = config_path(overrides={"goal.window_a_s": 3.0,
                                      "goal.drift_b_s": 1.0,
                                      "attack.burst_duration_s": 0.1})
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == rc
        if rc == 0:
            assert _rows(out)[-1] == ["end", "3.0", "2.0", "-1.0"]

    def test_closed_pipe_exits_1_quietly(self, config_path):
        # 30 s of 32-bit ticks is about 2 MB of rows, far more than a pipe
        # holds, so the writer meets the closed pipe.
        path = config_path(overrides={"rtc.mode": "thirtytwo_bit"})
        src = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "driftlab.cli", "simulate", "--config", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline() == b"tick_index,wall_time_s,rtc_time_s,drift_s\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 1
        assert err == b""

    def test_thirty_days_fit_the_row_cap(self):
        assert 30 * 86400 + 1 <= cli.SIMULATE_ROWS_MAX

    @given(i=st.integers(0, 2**40), time=st.floats(), rtc_time=st.floats())
    def test_tick_row_is_the_csv_writer_row(self, i, time, rtc_time):
        buf = io.StringIO()
        csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerow(
            [i, cli._fmt(time), cli._fmt(rtc_time), cli._fmt(rtc_time - time)])
        with np.errstate(invalid="ignore"):     # inf - inf
            row = cli._tick_rows(i, np.array([time]), np.array([rtc_time]))
        assert row == buf.getvalue()


class TestClassifyCommand:
    def test_closed_loop(self, config_path, tmp_path):
        out = tmp_path / "cls.csv"
        assert main(["classify", "--config", config_path(),
                     "--out", str(out)]) == 0
        rows = _rows(out)
        assert rows[0] == ["label", "confidence", "selected"]
        assert rows[-1] == ["synthetic-04", "", "result"]
        selected = [r for r in rows[1:-1] if r[2] == "true"]
        assert len(selected) == 1 and selected[0][0] == "synthetic-04"

    @pytest.mark.parametrize("snr_db", [-3080.0, 3080.0])
    def test_snr_at_the_bounds_classifies(self, snr_db, config_path, tmp_path):
        # -3,080 dB is all noise: nothing is selected, but the run answers
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.snr_db": snr_db})
        assert main(["classify", "--config", path, "--out", str(out)]) == 0
        rows = _rows(out)
        assert rows[-1][2] == "result" and len(rows) == 17

    @pytest.mark.parametrize("snr_db", [3081.0, -3081.0, 4000.0, -4000.0,
                                        1e308, -1e308])
    def test_snr_outside_the_float_range_refused(self, snr_db, config_path,
                                                 tmp_path, capsys):
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.snr_db": snr_db})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        bound = "<= 3080.0" if snr_db > 0 else ">= -3080.0"
        assert capsys.readouterr().err == (
            f"config error: $.fingerprint.snr_db: must be {bound}, got {snr_db}\n")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_trace_refused(self, fmt, bad, config_path, tmp_path,
                                      capsys):
        samples = np.random.default_rng(0).normal(size=60000)
        samples[321] = bad
        trace = tmp_path / f"capture.{fmt}"
        save = save_trace_csv if fmt == "csv" else save_trace_bin
        save(SampledTrace(6e6, samples), trace)
        out = tmp_path / "cls.csv"
        out.write_bytes(b"earlier result\n")
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"capture.{fmt}: sample 321 " in err
        assert "Traceback" not in err
        assert out.read_bytes() == b"earlier result\n"

    # 2**40 samples raised MemoryError, 2**61 OverflowError: the header's
    # count must be checked against the file before it is read
    @pytest.mark.parametrize("count", [2**40, 2**61])
    def test_oversized_trace_header_refused(self, count, config_path, tmp_path,
                                            capsys):
        trace = tmp_path / "capture.bin"
        save_trace_bin(SampledTrace(6e6, np.zeros(60000)), trace)
        data = bytearray(trace.read_bytes())
        data[24:32] = count.to_bytes(8, "little")
        trace.write_bytes(bytes(data))
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"the header states {count} samples, the file holds 60000" in err
        assert "Traceback" not in err
        assert not out.exists()

    # x_max - x_min overflowed: exit 0 with nan for all 15 confidences and
    # synthetic-01 selected
    def test_trace_too_wide_to_scale_refused(self, config_path, tmp_path, capsys):
        trace = tmp_path / "capture.bin"
        samples = np.full(60000, 1.5e308)
        samples[1::2] = -1.5e308
        save_trace_bin(SampledTrace(6e6, samples), trace)
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("invalid input: trace: its range, -1.5e+308 to 1.5e+308, "
                       "is too wide to scale\n")
        assert not out.exists()

    def test_sample_rate_mismatch_named(self, config_path, tmp_path, capsys):
        trace = tmp_path / "capture.bin"
        samples = np.random.default_rng(0).normal(size=30000)
        save_trace_bin(SampledTrace(3e6, samples), trace)
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        rc = main(["classify", "--config", path, "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "$.fingerprint.sample_rate_hz" in err
        assert "3000000.0 Hz" in err and "6000000.0 Hz" in err
        assert "Traceback" not in err


    def test_capture_length_mismatch_named(self, config_path, tmp_path, capsys):
        # BASE_CONFIG captures 0.01 s at 6 MHz: 60,000 samples
        trace = tmp_path / "capture.csv"
        samples = np.random.default_rng(0).normal(size=30000)
        save_trace_csv(SampledTrace(6e6, samples), trace)
        out = tmp_path / "cls.csv"
        out.write_bytes(b"earlier result\n")
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: $.fingerprint.duration_s" in err
        assert "60000 samples" in err and "holds 30000" in err
        assert "Traceback" not in err
        assert out.read_bytes() == b"earlier result\n"

    # Both loaders read the whole file before its length was compared.
    @pytest.mark.parametrize("fmt, named", [
        ("csv", "holds more than the 60000 samples expected"),
        ("bin", "the header states 60001 samples, more than the 60000 expected"),
    ])
    def test_trace_longer_than_capture_refused(self, fmt, named, config_path,
                                               tmp_path, capsys):
        trace = tmp_path / f"capture.{fmt}"
        save = save_trace_csv if fmt == "csv" else save_trace_bin
        save(SampledTrace(6e6, np.random.default_rng(0).normal(size=60001)), trace)
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.trace": {"file": str(trace)}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid input: {trace}: {named}" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCaptureBudget:
    def test_huge_capture_refused_before_allocating(self, config_path, tmp_path,
                                                    capsys, monkeypatch):
        def no_arange(*args, **kwargs):
            raise AssertionError("arange called")

        monkeypatch.setattr(np, "arange", no_arange)
        path = config_path(overrides={"fingerprint.duration_s": 1e9})
        out = tmp_path / "cls.csv"
        out.write_bytes(b"earlier result\n")
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: $.fingerprint.duration_s: 1000000000.0 s" in err
        assert str(CAPTURE_SAMPLES_MAX) in err and "Traceback" not in err
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("rate, duration, accepted", [
        (1e6, CAPTURE_SAMPLES_MAX / 1e6, True),
        (1e6, (CAPTURE_SAMPLES_MAX + 1) / 1e6, False),
        (1e300, 1e300, False),  # the product overflows to inf
    ])
    def test_budget_edge(self, rate, duration, accepted):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["fingerprint"].update(sample_rate_hz=rate, duration_s=duration)
        if accepted:
            assert parse_scenario(cfg).capture.duration == duration
        else:
            with pytest.raises(ConfigError, match=r"\$\.fingerprint\.duration_s"):
                parse_scenario(cfg)


class TestSweepBounds:
    @pytest.mark.parametrize("sweep", [
        "freq_hz=nan:30000:3", "freq_hz=20000:inf:3", "thickness_mm=nan:1:2",
        "freq_hz=-inf:30000:3", "thickness_mm=1:-inf:2",
    ])
    def test_non_finite_bounds_refused(self, sweep, config_path, tmp_path,
                                       capsys):
        out = tmp_path / "d.csv"
        out.write_bytes(b"earlier result\n")
        rc = main(["dispersion", "--config", config_path(), "--out", str(out),
                   "--sweep", sweep])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: --sweep" in err and "finite" in err
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("steps", [0, 10**12])
    def test_steps_outside_limit_refused_before_allocating(
            self, steps, config_path, capsys, monkeypatch):
        def no_linspace(*args, **kwargs):
            raise AssertionError("linspace called")

        monkeypatch.setattr(np, "linspace", no_linspace)
        rc = main(["dispersion", "--config", config_path(),
                   "--sweep", f"freq_hz=20000:30000:{steps}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: --sweep: steps must be in [1, " in err
        assert str(steps) in err

    def test_steps_at_limit_accepted(self):
        from driftlab.cli import SWEEP_STEPS_MAX, _parse_sweep
        key, values = _parse_sweep(f"freq_hz=1:2:{SWEEP_STEPS_MAX}")
        assert key == "freq_hz" and len(values) == SWEEP_STEPS_MAX


class TestBpCommand:
    def test_table_with_stall_row(self, config_path, tmp_path):
        out = tmp_path / "bp.csv"
        rc = main(["bp", "--config", config_path(), "--out", str(out),
                   "--sweep", "freq_shift_hz=-1200:200:8"])
        assert rc == 0
        rows = _rows(out)
        statuses = {r[-1] for r in rows[1:]}
        assert "stall" in statuses and "ok" in statuses
        ok = [r for r in rows[1:] if r[-1] == "ok"]
        for r in ok:
            shift, ds = float(r[0]), float(r[1])
            if shift > 0:
                assert ds > 0
            if shift < 0:
                assert ds < 0

    def test_single_row_uses_config_shift(self, config_path, tmp_path):
        out = tmp_path / "bp.csv"
        assert main(["bp", "--config", config_path(), "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(6.0, rel=1e-9)

    @pytest.mark.parametrize("where", ["config", "sweep"])
    def test_subnormal_shift_rejected(self, where, config_path, tmp_path,
                                      capsys):
        if where == "config":
            path = config_path(overrides={"bp.freq_shift_hz": 5e-324})
            extra = []
        else:
            path = config_path()
            extra = ["--sweep", "freq_shift_hz=5e-324:5e-324:1"]
        rc = main(["bp", "--config", path,
                   "--out", str(tmp_path / "bp.csv"), *extra])
        assert rc == 2
        err = capsys.readouterr().err
        assert "freq_shift_hz" in err
        assert "Traceback" not in err


    def test_overflowing_shift_writes_no_partial_table(self, config_path, capsys):
        # The first point gives a row; the second an infinite timing shift.
        rc = main(["bp", "--config", config_path(), "--sweep", "drift_rate=1:1e306:2"])
        assert rc == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numeric failure: OverflowError: a timing shift of inf Hz "
                       "takes the pressure errors past the float range\n")


class TestCounterCommand:
    def test_sections_present(self, config_path, tmp_path):
        out = tmp_path / "counter.csv"
        assert main(["counter", "--config", config_path(),
                     "--out", str(out)]) == 0
        rows = _rows(out)
        sections = {r[0] for r in rows[1:]}
        assert sections == {"h_of_omega", "synth_output_hz"}
        synth = [r for r in rows[1:] if r[0] == "synth_output_hz"][0]
        assert abs(float(synth[2]) - 32768.0) < 1e-3
        at_resonance = [
            r for r in rows[1:]
            if r[0] == "h_of_omega" and float(r[1]) == pytest.approx(205887.0)
        ]
        assert at_resonance
        assert float(at_resonance[0][2]) == pytest.approx(1.0, rel=1e-9)


    def test_overflowing_synthesizer_refused_before_the_header(self, config_path, capsys):
        path = config_path(overrides={"clock_synth.multisynth_div": 5e-324})
        assert main(["counter", "--config", path]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numeric failure: OverflowError: $.clock_synth: the output "
                       "frequency 36.0 * 25000000.0 / 5e-324 Hz overflows\n")


class TestValidationAndDeterminism:
    def test_bad_config_exit_2_with_diagnostics(self, config_path, tmp_path,
                                                capsys):
        path = config_path(overrides={"rtc.nominal_freq_hz": -5.0,
                                      "medium.thickness_mm": 0.0})
        rc = main(["dispersion", "--config", path,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "$.rtc.nominal_freq_hz" in err
        assert "$.medium.thickness_mm" in err

    def test_unknown_medium_diagnosed(self, config_path, tmp_path, capsys):
        path = config_path(overrides={"medium.name": "unobtainium"})
        rc = main(["dispersion", "--config", path,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "$.medium.name" in capsys.readouterr().err

    # A misspelt key, a key without its unit, and a setting that was removed:
    # each would run silently on a default or with no watchdog.
    @pytest.mark.parametrize("key", ["medium.thicknes_mm", "rtc.freeze_timeout",
                                     "crystal.dielectric_f_per_m"])
    def test_unknown_key_refused(self, key, config_path, tmp_path, capsys):
        path = config_path(overrides={key: 0.1})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: $.{key}: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", NUMERIC_PATHS)
    def test_non_finite_number_rejected(self, field, value, config_path,
                                        tmp_path, capsys):
        # json.dumps writes NaN, Infinity and -Infinity, which json.load reads
        path = config_path(overrides={field: value})
        out = tmp_path / "x.csv"
        assert main(["bp", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"$.{field}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_integer_past_float_range_rejected(self, config_path, tmp_path,
                                               capsys):
        path = config_path(overrides={"medium.thickness_mm": 10 ** 400})
        assert main(["bp", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "$.medium.thickness_mm: must be a finite number" in (
            capsys.readouterr().err)

    def test_missing_schema_version_rejected(self, config_path, tmp_path):
        path = config_path(schema_version=99)
        assert main(["dispersion", "--config", path,
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command", [
        "dispersion", "calibrate", "plan", "simulate", "classify", "bp",
        "counter",
    ])
    def test_byte_identical_across_runs(self, command, config_path, tmp_path):
        path = config_path()
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        assert main([command, "--config", path, "--out", str(out1)]) == 0
        assert main([command, "--config", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
        code = ("import driftlab.cli; "
                "print(driftlab.cli.build_parser.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src),
                              check=True)
        assert proc.stdout.strip() == "0"

    def test_no_option_leaks_into_the_next_call(self, config_path, monkeypatch):
        seen = []

        def record(scenario, sweep, fh):
            seen.append((scenario.seed, sweep))
            return cli.EXIT_OK

        monkeypatch.setattr(cli, "COMMANDS", {
            name: (record, *rest) for name, (_, *rest) in cli.COMMANDS.items()})
        path = config_path()
        for argv in (["dispersion", "--seed", "3", "--sweep", "freq_hz=1:2:3"],
                     ["dispersion"], ["calibrate", "--seed", "3"], ["calibrate"],
                     ["bp", "--sweep", "drift_rate=1:2:2"], ["bp"]):
            assert main([argv[0], "--config", path, *argv[1:]]) == 0
        seed = BASE_CONFIG["seed"]
        assert seen == [(3, ("freq_hz", [1.0, 1.5, 2.0])), (seed, None),
                        (3, None), (seed, None),
                        (seed, ("drift_rate", [1.0, 2.0])), (seed, None)]

    @pytest.mark.parametrize("argv", [
        ["--help"], ["--version"], ["simulate", "--help"], ["dispersion", "--help"],
        [], ["bogus"], ["simulate"], ["plan", "--config"],
        ["bp", "--config", "x.json", "--seed", "three"],
    ])
    def test_exits_the_same_on_the_first_call_and_later(self, argv, capsys):
        def exit_of():
            with pytest.raises(SystemExit) as exc:
                main(list(argv))
            out, err = capsys.readouterr()
            return exc.value.code, out, err

        cli.build_parser.cache_clear()
        first = exit_of()
        assert first[0] in (0, 2) and (first[1] or first[2])
        assert exit_of() == first
        assert exit_of() == first


class TestOutputFile:
    def test_refusal_keeps_existing_out_file(self, config_path, tmp_path,
                                             capsys):
        path = config_path(overrides={"medium.name": "aluminum"})
        out = tmp_path / "sim.csv"
        out.write_bytes(b"previous,run\n1,2\n")
        before = sorted(os.listdir(tmp_path))
        assert main(["simulate", "--config", path, "--out", str(out)]) == 3
        assert "cannot stall" in capsys.readouterr().err
        assert out.read_bytes() == b"previous,run\n1,2\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_success_replaces_out_file(self, config_path, tmp_path):
        out = tmp_path / "bp.csv"
        out.write_text("stale\n")
        path = config_path()
        assert main(["bp", "--config", path, "--out", str(out)]) == 0
        assert _rows(out)[0][0] != "stale"
        assert sorted(os.listdir(tmp_path)) == ["bp.csv", "scenario.json"]


COMPONENTS = {"damping_n_s_per_m": 0.2, "stiffness_n_per_m": 4.0e4, "mass_kg": 1e-3}
GIVES_NO_MOUNT = ("$.damping: damping_n_s_per_m, stiffness_n_per_m and mass_kg give "
                  "no finite omega_n and zeta > 0")


class TestSchemaRefusals:
    @pytest.mark.parametrize("overrides, diagnostic", [
        ({"fingerprint.library": []}, "$.fingerprint.library: expected text, got []"),
        # Once read as a path, True opened and closed file descriptor 1.
        ({"fingerprint.library": True},
         "$.fingerprint.library: expected text, got True"),
        ({"fingerprint.trace": {"file": None}},
         "$.fingerprint.trace.file: required text missing"),
        ({"fingerprint.trace": {"profile": 4}},
         "$.fingerprint.trace.profile: expected text, got 4"),
        ({"phase_grid": 10 ** 12}, "$.phase_grid: must be <= 65536, got 1000000000000"),
        ({"phase_grid": 10 ** 400}, f"$.phase_grid: must be <= 65536, got {10 ** 400}"),
        ({"phase_grid": 2 ** 1100}, f"$.phase_grid: must be <= 65536, got {2 ** 1100}"),
        ({"medium.thickness_mm": 5e-324}, "$.medium.thickness_mm: 5e-324 mm is 0 m"),
        ({"damping": dict(COMPONENTS, damping_n_s_per_m=5e-324)}, GIVES_NO_MOUNT),
        ({"damping": dict(COMPONENTS, stiffness_n_per_m=5e-324)}, GIVES_NO_MOUNT),
        ({"damping": dict(COMPONENTS, mass_kg=5e-324)}, GIVES_NO_MOUNT),
    ], ids=["library-list", "library-true", "trace-file-null", "trace-profile-number",
            "phase-grid-1e12", "phase-grid-1e400", "phase-grid-2**1100", "thickness-subnormal",
            "mount-c-subnormal", "mount-k-subnormal", "mount-m-subnormal"])
    def test_refused_with_named_path(self, overrides, diagnostic, config_path,
                                     tmp_path, capsys):
        path = config_path(overrides=overrides)
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {diagnostic}\n"
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("grid, accepted", [(65536, True), (65537, False)])
    def test_phase_grid_limit(self, grid, accepted):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["phase_grid"] = grid
        if accepted:
            assert parse_scenario(cfg).phase_grid == grid
        else:
            with pytest.raises(ConfigError, match=r"\$\.phase_grid: must be <= 65536"):
                parse_scenario(cfg)

    def test_unreadable_library_named(self, config_path, tmp_path, capsys):
        missing = tmp_path / "no-such-library.csv"
        path = config_path(overrides={"fingerprint.library": str(missing)})
        assert main(["classify", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $.fingerprint.library: cannot read")
        assert "FileNotFoundError" in err

    # df = nan passed the df >= 0 check, and the capture it gave was refused
    # as a trace of NaN; a short row raised TypeError through the CLI
    @pytest.mark.parametrize("row, named", [
        ("a,500000,20000,nan", "line 3: profile 'a': f0, fm and df must be finite"),
        ("a,500000", "line 3: float() argument must be"),
        # the later row replaced the earlier one in the bank and the table
        ("b,1000000,20000,0.005", "line 3: label 'b' repeats line 2"),
    ])
    def test_bad_library_row_named(self, row, named, config_path, tmp_path,
                                   capsys):
        library = tmp_path / "lib.csv"
        library.write_text(f"label,f0_hz,fm_hz,df_frac\nb,400000,20000,0.005\n{row}\n")
        out = tmp_path / "cls.csv"
        path = config_path(overrides={"fingerprint.library": str(library),
                                      "fingerprint.trace": {"profile": "a"}})
        assert main(["classify", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: $.fingerprint.library: cannot read")
        assert named in err
        assert "not finite" not in err and "Traceback" not in err
        assert not out.exists()


class TestNumericFailures:
    @pytest.mark.parametrize("command", ["dispersion", "calibrate"])
    @pytest.mark.parametrize("overrides, named", [
        ({"rtc.nominal_freq_hz": 1e9}, "at 1000000000.0 Hz and thickness 0.005 m"),
        ({"medium.thickness_mm": 1e9}, "at 32768.0 Hz and thickness 1000000.0 m"),
    ])
    def test_overflow_names_the_plate(self, command, overrides, named, config_path,
                                      tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        path = config_path(overrides=overrides)
        assert main([command, "--config", path, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == ("numeric failure: no dispersion root for 'acrylic glass' "
                       f"{named}: the characteristic function overflows\n")
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("zeta, error", [
        (1e300, "OverflowError"),
        (5e-324, "ZeroDivisionError"),  # |H| at resonance is 1 / (2 zeta)
    ])
    def test_counter_arithmetic_error_exits_4(self, zeta, error, config_path,
                                              tmp_path, capsys):
        out = tmp_path / "out.csv"
        path = config_path(overrides={"damping.zeta": zeta})
        assert main(["counter", "--config", path, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(f"numeric failure: {error}: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["calibrate", "plan", "simulate"])
    @pytest.mark.parametrize("overrides", [
        {"crystal.tip_mass_kg": 1e300},
        {"crystal.thickness_m": 2.2250738585072014e-308},
    ])
    def test_non_finite_chain_names_the_crystal(self, command, overrides,
                                                config_path, tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        path = config_path(overrides=overrides)
        assert main([command, "--config", path, "--out", str(out)]) == 4
        assert capsys.readouterr().err.startswith(
            "numeric failure: NonFiniteSignalError: $.crystal: the induced "
            "signal is not finite (amplitude ")
        assert out.read_bytes() == b"earlier result\n"

    @pytest.mark.parametrize("omega_n", [4.5e307, 1e308])
    def test_counter_sweep_bound_overflow_refused_before_rows(
            self, omega_n, config_path, capsys):
        path = config_path(overrides={"damping.natural_freq_rad_s": omega_n})
        assert main(["counter", "--config", path]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numeric failure: OverflowError: $.damping: the omega_rad_s sweep "
            f"runs to 4 * omega_n = 4 * {omega_n!r} rad/s, which overflows\n")

    def test_counter_sweep_bound_at_the_float_limit_accepted(self, config_path,
                                                             tmp_path):
        omega_n = sys.float_info.max / 4.0
        path = config_path(overrides={"damping.natural_freq_rad_s": omega_n})
        out = tmp_path / "out.csv"
        assert main(["counter", "--config", path, "--out", str(out)]) == 0
        assert "nan" not in out.read_text()

    @pytest.mark.parametrize("command", ["dispersion", "calibrate"])
    def test_degenerate_plate_is_numeric_failure(self, command, config_path,
                                                 tmp_path, capsys):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier result\n")
        path = config_path(overrides={"medium.thickness_mm": 2.2250738585072014e-308})
        assert main([command, "--config", path, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "numeric failure: no dispersion root for 'acrylic glass' at 32768.0 Hz "
            "and thickness 2.225073858507e-311 m: degenerate boundary system\n")
        assert out.read_bytes() == b"earlier result\n"


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only; the package and its CLI use numpy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(driftlab.__file__)))
    code = ("import sys, driftlab, driftlab.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"
