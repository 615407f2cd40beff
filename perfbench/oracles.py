"""Independent references for the benchmark's output checks.

Nothing here imports driftlab.  Each function recomputes what a correct
output must satisfy by another route than the program: a dense scan of the
dispersion relation, a closed-form crossing count, or the accounting bound
of an attack plan.
"""

from __future__ import annotations

import cmath
import csv
import functools
import math

TWO_PI = 2.0 * math.pi


def _ratio_gap(c_s: float, freq: float, c_l: float, c_t: float, h: float) -> complex:
    """Ratio form of the antisymmetric Rayleigh-Lamb equation, zero at a root:
    tan(alpha h)/tan(beta h) + 4 alpha beta k^2 / (k^2 - beta^2)^2."""
    w = TWO_PI * freq
    k = w / c_s
    alpha = cmath.sqrt(complex((w / c_l) ** 2 - k * k))
    beta = cmath.sqrt(complex((w / c_t) ** 2 - k * k))
    return (cmath.tan(alpha * h) / cmath.tan(beta * h)
            + 4.0 * alpha * beta * k * k / (k * k - beta * beta) ** 2)


@functools.cache     # every round of a run checks the same sweep points
def scan_dispersion_root(freq: float, c_l: float, c_t: float, h: float,
                         lo: float = 10.0, step: float = 1.0) -> float:
    """First phase-velocity root above ``lo``: a 1 m/s scan for the sign
    change, then bisection to 1e-12 relative."""
    def g(c):
        val = _ratio_gap(c, freq, c_l, c_t, h)
        return val.real if abs(val.real) >= abs(val.imag) else val.imag

    a, va = lo, g(lo)
    c = lo
    while c + step < c_t:
        c += step
        vc = g(c)
        if va * vc <= 0.0 and math.isfinite(va) and math.isfinite(vc):
            break
        a, va = c, vc
    else:
        raise ValueError(f"no root below c_t = {c_t} m/s at {freq} Hz")
    b = c
    while (b - a) / b > 1e-12:
        mid = 0.5 * (a + b)
        vm = g(mid)
        if va * vm <= 0.0:
            b = mid
        else:
            a, va = mid, vm
    return 0.5 * (a + b)


def free_run_crossings(freq: float, duration: float, phase: float,
                       amplitude: float, threshold: float) -> int:
    """Upward crossings of ``threshold`` by A sin(2 pi f t + phase) for t in
    (0, duration]: n = floor(f T + (phase - theta)/2pi) - floor((phase -
    theta)/2pi) with theta = asin(threshold / A)."""
    offset = (phase - math.asin(threshold / amplitude)) / TWO_PI
    return math.floor(freq * duration + offset) - math.floor(offset)


def backward_slack(drift_goal: float, burst: float, tick_period: float,
                   freq: float) -> float:
    """Largest |drift + b| a backward plan may leave: one tick of RTC
    quantisation plus one crossing gained or lost at each of the two
    switches of every one of the k = ceil(b/t) stall bursts."""
    k = math.ceil(drift_goal / burst)
    return tick_period + 2.0 * k / freq


def forward_drift(drift_cycles: float, delta: float, freq: float) -> float:
    """Drift in seconds that k = ceil(2 pi b / delta) phase steps of
    ``delta`` gain: k delta / (2 pi f)."""
    k = math.ceil(TWO_PI * drift_cycles / delta)
    return k * delta / (TWO_PI * freq)


def circular_distance(a: float, b: float) -> float:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def check_tick_table(path: str, tick_period: float):
    """Read a ``driftlab simulate`` CSV and check its tick rows.

    Each row's ``rtc_time_s`` must step by exactly ``tick_period`` from 0,
    wall times must increase strictly, and the closing ``end`` row must
    carry the last tick's RTC time and drift = rtc - wall.  Returns
    ``(problem, end_drift)`` where ``problem`` is None when every row holds.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["tick_index", "wall_time_s", "rtc_time_s", "drift_s"]:
            return f"unexpected header {header}", None
        prev_wall = -math.inf
        rtc = 0.0
        index = 0
        for row in reader:
            if row[0] == "end":
                wall, end_rtc, drift = (float(x) for x in row[1:])
                if end_rtc != rtc:
                    return f"end rtc_time {end_rtc!r} != last tick {rtc!r}", drift
                if drift != end_rtc - wall:
                    return f"end drift {drift!r} != rtc - wall", drift
                if wall < prev_wall:
                    return "end wall time before the last tick", drift
                return None, drift
            wall, tick_rtc = float(row[1]), float(row[2])
            if int(row[0]) != index:
                return f"tick index {row[0]} at row {index}", None
            if tick_rtc - rtc != tick_period:
                return (f"tick {index}: rtc_time steps {tick_rtc - rtc!r}, "
                        f"expected {tick_period!r}"), None
            if not wall > prev_wall:
                return f"tick {index}: wall time {wall!r} not increasing", None
            if float(row[3]) != tick_rtc - wall:
                return f"tick {index}: drift != rtc - wall", None
            prev_wall, rtc = wall, tick_rtc
            index += 1
    return "no end row", None
