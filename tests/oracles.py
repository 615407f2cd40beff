"""Independent reference implementations used to check the package.

Everything here recomputes expected values by a different route than the
code under test: brute-force sampling, dense scans, numerical integration,
or direct transcription of closed forms.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np
from scipy.integrate import solve_ivp

TWO_PI = 2.0 * math.pi


# --- sinusoid helpers -------------------------------------------------------

def closed_form_sum_amplitude(a, beta1, b, beta2):
    """Closed-form amplitude of A sin(.+b1) + B sin(.+b2)."""
    return math.sqrt(a * a + b * b + 2.0 * a * b * math.cos(beta1 - beta2))


def sample_sum(a, beta1, b, beta2, freq, oversample=64, periods=2):
    """Pointwise sum of the two sinusoids, sampled."""
    rate = oversample * freq
    n = int(round(periods * oversample))
    t = np.arange(n) / rate
    return (
        a * np.sin(TWO_PI * freq * t + beta1)
        + b * np.sin(TWO_PI * freq * t + beta2),
        t,
    )


def peak_detect(samples) -> float:
    return float(np.max(np.abs(samples)))


# --- threshold-crossing counting on sampled waveforms -----------------------

def count_upward_crossings(samples, threshold) -> int:
    v = np.asarray(samples)
    return int(np.count_nonzero((v[:-1] <= threshold) & (v[1:] > threshold)))


def crossing_times(samples, times, threshold):
    v = np.asarray(samples)
    idx = np.nonzero((v[:-1] <= threshold) & (v[1:] > threshold))[0]
    return times[idx + 1]


# --- one crossing of a phase-advance burst, placed by scalar bisection ------

def burst_crossing_time(n, theta_star, freq, p0, delta, tau, t0, duration):
    """Time at which ``2 pi f t + offset(t)`` reaches crossing ``n`` (an int)
    in a burst whose offset relaxes from ``p0`` toward ``p0 + delta`` from
    ``t0`` on and sits at ``p0 + delta`` from five time constants on.

    A scalar transcription, one call per crossing: the settled closed form
    when the crossing lands after the offset settles, else a bisection of
    ``[t0, t0 + min(duration, 5 tau)]`` until the bracket stops shrinking.
    """
    converged = 5.0 * tau
    settled = t0 + min(duration, converged)
    t = (theta_star - (p0 + delta) + TWO_PI * n) / (TWO_PI * freq)
    if t >= settled:
        return t
    target = theta_star + TWO_PI * n
    lo, hi = t0, settled
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        elapsed = mid - t0
        gap = 0.0 if elapsed >= converged else delta * math.exp(-elapsed / tau)
        if TWO_PI * freq * mid + (p0 + (delta - gap)) < target:
            lo = mid
        else:
            hi = mid


# --- a train of stall bursts, counted stretch by stretch ----------------------

def stall_train_crossings(freq, amplitude, threshold, phase, starts, duration,
                          injected):
    """Crossings a clock counts over stall bursts of ``duration`` at
    ``starts``, each injecting ``injected`` volts against it, from time 0 to
    the last burst's end: the whole cycles whose threshold crossing falls in
    each free stretch between bursts, plus one jump edge at each burst end
    that finds the free oscillation above the threshold.  The bursts must
    hold the clock at or below the threshold, and the first must start at 0.
    """
    assert abs(amplitude - injected) <= threshold and starts[0] == 0.0
    ends = starts + duration
    # Crossing n of the free oscillation sits at cycle n + (theta* - phase) / 2 pi.
    lag = (math.asin(threshold / amplitude) - phase) / TWO_PI

    def crossings_by(t):
        return np.floor(freq * t - lag)

    free = crossings_by(starts[1:]) - crossings_by(ends[:-1])
    jumps = amplitude * np.sin(TWO_PI * freq * ends + phase) > threshold
    return int(free.sum()) + int(np.count_nonzero(jumps))


# --- the crossing ledger, walked crossing by crossing -------------------------

def ledger(state, config, n, quiet, time_of, **changes):
    """``rtc._cross`` one crossing at a time: ``(state, ticks, largest gap)``,
    with ``ticks`` a list of ``(wall time, RTC time)`` pairs.

    Segment j holds ``n[j]`` crossings, crossing m at ``time_of`` of the
    one-element arrays ``[j]`` and ``[m]``; ``quiet[j]`` ends a segment that
    cannot cross.  The watchdog compares each segment's first crossing, or a
    quiet segment's end, with the last edge; a gap that reaches the timeout
    latches it and ends the walk, unless it is one cycle within
    ``rtc.ROUNDING`` of the wall time.  Each crossing decrements the
    counter, and one that empties it is a tick and reloads it.  RTC time
    moves by whole ticks, summed at each segment's end.
    """
    from dataclasses import replace

    from driftlab.rtc import ROUNDING

    if state.frozen:
        return replace(state, **changes), [], 0.0
    counter, rtc_time, last = state.counter, state.rtc_time, state.last_edge_time
    timeout, ticks, largest, frozen = config.freeze_timeout, [], 0.0, False

    def at(j, m):
        return float(time_of(np.array([j]), np.array([m]))[0])

    for j, (count, end) in enumerate(zip(n.tolist(), quiet.tolist())):
        check = at(j, 1) if count else end
        gap = check - last
        largest = max(largest, gap)
        cycle_or_less = gap - 1.0 / config.nominal_freq <= ROUNDING * abs(check)
        if timeout is not None and gap >= timeout and not cycle_or_less:
            frozen = True
            break
        fired = 0
        for m in range(1, count + 1):
            counter -= 1
            if counter == 0:
                fired += 1
                ticks.append((at(j, m), rtc_time + fired * config.tick_period))
                counter = config.divider_reload
        rtc_time += fired * config.tick_period
        if count:
            last = at(j, count)
    state = replace(state, counter=counter, rtc_time=rtc_time, last_edge_time=last,
                    frozen=frozen, **changes)
    return state, ticks, largest


# --- a plan burst by burst ----------------------------------------------------

def bursts(train):
    """Every burst of a ``planner.BurstTrain``, as ``InjectionBurst``s: burst
    i starts at ``start + i * period`` with its phase at ``signal.phase + i *
    phase_step``, wrapped."""
    from driftlab.rtc import InjectionBurst
    from driftlab.signals import Sinusoid, wrap_phase

    signal = train.signal
    return [
        InjectionBurst(
            start=train.start + i * train.period,
            duration=train.duration,
            signal=Sinusoid(signal.amplitude, signal.frequency,
                            wrap_phase(signal.phase + i * train.phase_step)),
        )
        for i in range(train.count)
    ]


def per_burst_jsonl(plan, fh):
    """``planner.export_plan_jsonl`` burst by burst: one ``json.dumps`` of a
    dict, with sorted keys, for each of ``bursts(plan.bursts)``."""
    for burst in bursts(plan.bursts):
        fh.write(
            json.dumps(
                {
                    "start_s": burst.start,
                    "duration_s": burst.duration,
                    "phase_rad": burst.signal.phase,
                    "amplitude_v": burst.signal.amplitude,
                },
                sort_keys=True,
            )
        )
        fh.write("\n")


def plan_loop(plan, config, state=None, *, until=None, collect_ticks=True,
              sink=None):
    """``planner.simulate_plan`` burst by burst: the reference both of its
    closed-form kernels, the stall train and the phase-advance train, are
    held to.  Runs ``bursts(plan.bursts)`` and returns a ``PlanRun``.

    Each burst meets the offset between its signal's phase and the
    oscillation's.  A burst that leads (``rtc._leads``) runs as one
    phase-advance burst; any other as a stall, four transitions: a step to
    its start, the injection on, a step to its end and the injection off.  A
    plan whose phase step is nonzero, or whose first burst leads, is a
    forward plan: a burst of it that does not lead is refused with
    ``PlanError`` naming it, as the phase-advance train refuses it.
    """
    from driftlab.planner import PlanRun
    from driftlab.rtc import (PlanError, _leads, apply_phase_advance, initial_state,
                              measure_drift, step, tick_collector, with_injection)
    from driftlab.signals import wrap_phase

    if state is None:
        state = initial_state(config)
    start_wall, start_rtc, start_counter = state.wall_time, state.rtc_time, state.counter
    events = []
    if sink is None and collect_ticks:
        sink = tick_collector(events)
    phase_step = plan.bursts.phase_step
    planned, forward = phase_step or math.pi, phase_step != 0.0
    prediction_error = 0.0
    for i, burst in enumerate(bursts(plan.bursts)):
        delta = wrap_phase(burst.signal.phase - state.osc_phase)
        gap = wrap_phase(delta - planned)
        prediction_error = max(prediction_error, min(gap, TWO_PI - gap))
        forward = forward or (i == 0 and _leads(delta))
        if _leads(delta):
            state = apply_phase_advance(state, config, burst, sink=sink)
        elif forward:
            raise PlanError(f"burst {i} meets a phase offset of {delta!r} rad")
        else:
            if burst.start > state.wall_time:
                state = step(state, config, burst.start, sink=sink)
            state = with_injection(state, config, burst.signal, sink=sink)
            state = step(state, config, burst.end, sink=sink)
            state = with_injection(state, config, None, sink=sink)
    if until is not None and until > state.wall_time:
        state = step(state, config, until, sink=sink)
    ticks = round((state.rtc_time - start_rtc) / config.tick_period)
    return PlanRun(
        state=state,
        ticks=events,
        drift=measure_drift(state) - (start_rtc - start_wall),
        crossings_counted=ticks * config.divider_reload + (start_counter - state.counter),
        phase_prediction_error=prediction_error,
    )


def load_plan_jsonl(fh, frequency=32768.0):
    """The bursts of a plan that ``planner.export_plan_jsonl`` wrote."""
    from driftlab.rtc import InjectionBurst
    from driftlab.signals import Sinusoid

    bursts = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        bursts.append(
            InjectionBurst(
                start=rec["start_s"],
                duration=rec["duration_s"],
                signal=Sinusoid(rec["amplitude_v"], frequency, rec["phase_rad"]),
            )
        )
    return bursts


# --- dispersion oracle -------------------------------------------------------

def characteristic_ratio_gap(c_s, freq, c_l, c_t, h):
    """Direct transcription of the dispersion relation in ratio form:
    tan(alpha h)/tan(beta h) + 4 alpha beta k^2 / (k^2 - beta^2)^2, which is
    zero at a root.  Complex arithmetic covers the subsonic branch."""
    w = TWO_PI * freq
    k = w / c_s
    alpha = cmath.sqrt(complex((w / c_l) ** 2 - k * k))
    beta = cmath.sqrt(complex((w / c_t) ** 2 - k * k))
    lhs = cmath.tan(alpha * h) / cmath.tan(beta * h)
    rhs = -4.0 * alpha * beta * k * k / (k * k - beta * beta) ** 2
    return lhs - rhs


def scan_dispersion_root(freq, c_l, c_t, h, lo=10.0, step=1.0):
    """Dense scan over phase velocity plus bisection to 1e-12 relative."""
    def g(c):
        val = characteristic_ratio_gap(c, freq, c_l, c_t, h)
        return val.real if abs(val.real) >= abs(val.imag) else val.imag

    prev_c, prev_v = lo, g(lo)
    c = lo
    bracket = None
    while c + step < c_t:
        c += step
        v = g(c)
        if prev_v * v <= 0.0 and math.isfinite(v) and math.isfinite(prev_v):
            bracket = (prev_c, c)
            break
        prev_c, prev_v = c, v
    if bracket is None:
        raise RuntimeError(f"oracle found no root in ({lo}, {c_t})")
    a, b = bracket
    va = g(a)
    while (b - a) / b > 1e-12:
        mid = 0.5 * (a + b)
        vm = g(mid)
        if va * vm <= 0.0:
            b = mid
        else:
            a, va = mid, vm
    return 0.5 * (a + b)


def scalar_scan_bracket(medium, omega, h, scan_start, scan_step):
    """The phase-velocity scan as a scalar loop, one ``cmath`` evaluation
    per grid point: the bracket ``lamb._scan_bracket`` must return."""
    from driftlab.lamb import _characteristic_value

    lo = scan_start
    f_lo = _characteristic_value(medium, omega, lo, h)
    c = lo
    while c + scan_step < medium.c_t:
        c += scan_step
        f_c = _characteristic_value(medium, omega, c, h)
        if f_lo == 0.0:
            return lo, lo
        if f_lo * f_c <= 0.0:
            return lo, c
        lo, f_lo = c, f_c
    return None


# --- crystal forced-vibration oracle -----------------------------------------

def ode_steady_state_stress(mass, damping, stiffness, width, thick,
                            accel_amp, omega, accel_phase=0.0):
    """Integrate the cantilever equation until transients die, then fit the
    stress amplitude/phase over the last few cycles."""
    tau = 2.0 * mass / damping
    period = TWO_PI / omega
    t_settle = 20.0 * tau
    t_fit = 6.0 * period

    def rhs(t, y):
        force = mass * accel_amp * math.sin(omega * t + accel_phase)
        return [y[1], (force - damping * y[1] - stiffness * y[0]) / mass]

    t_end = t_settle + t_fit
    n_fit = 2048
    t_eval = np.linspace(t_settle, t_end, n_fit)
    sol = solve_ivp(
        rhs, (0.0, t_end), [0.0, 0.0], method="LSODA",
        t_eval=t_eval, rtol=1e-9, atol=1e-12,
    )
    y, ydot = sol.y
    t = sol.t
    force = mass * accel_amp * np.sin(omega * t + accel_phase)
    ydd = (force - damping * ydot - stiffness * y) / mass
    stress = mass * ydd / (width * thick)
    # Least-squares fit of R sin(omega t + psi) over the fitted stretch.
    basis = np.column_stack([np.sin(omega * t), np.cos(omega * t)])
    coeff, *_ = np.linalg.lstsq(basis, stress, rcond=None)
    amp = float(np.hypot(*coeff))
    phase = float(math.atan2(coeff[1], coeff[0]))
    return amp, phase


# --- oscillometric deflation oracle ------------------------------------------

SYSTOLIC_RATIO = 0.425
DIASTOLIC_RATIO = 0.675


def envelope_params(systolic, diastolic):
    """Gaussian oscillation envelope whose ratio crossings sit exactly at the
    true systolic (rising side) and diastolic (falling side) pressures."""
    ws = math.sqrt(-math.log(SYSTOLIC_RATIO))
    wd = math.sqrt(-math.log(DIASTOLIC_RATIO))
    width = (systolic - diastolic) / (ws + wd)
    center = systolic - width * ws
    return center, width


def simulate_deflation_readings(p0, systolic, diastolic, v0, dp, df):
    """Deflate at the drifted rate, detect the envelope ratio crossings, and
    report the pressures a controller assuming the nominal rate would log."""
    center, width = envelope_params(systolic, diastolic)
    rate = v0 + dp * df
    if rate <= 0.0:
        raise RuntimeError("deflation stalled")
    t = np.linspace(0.0, (p0 - diastolic * 0.25) / rate, 400000)
    pressure = p0 - rate * t
    env = np.exp(-(((pressure - center) / width) ** 2))
    peak = env.max()
    i_peak = env.argmax()
    rising = env[: i_peak + 1]
    i_sys = int(np.argmin(np.abs(rising - SYSTOLIC_RATIO * peak)))
    falling = env[i_peak:]
    i_dia = i_peak + int(np.argmin(np.abs(falling - DIASTOLIC_RATIO * peak)))
    reported_s = p0 - v0 * t[i_sys]
    reported_d = p0 - v0 * t[i_dia]
    return reported_s, reported_d


# --- the periodized DWT, in the time domain ---------------------------------

def _td_filters(lo):
    lo = np.asarray(lo, dtype=float)
    hi = lo[::-1].copy()
    hi[1::2] *= -1.0
    if len(lo) % 2:
        # a zero tap keeps the polyphase split even and the sums unchanged
        lo, hi = np.append(lo, 0.0), np.append(hi, 0.0)
    return lo, hi


def _td_analysis_step(x, lo, hi):
    # Periodized filter bank y[k] = sum_m f[m] x[(2k + 1 - m) mod n] in
    # polyphase form: y[k] = sum_r f[2r] x_odd[k - r] + f[2r + 1] x_even[k - r],
    # indices mod n/2.  Each phase gets a circular lead of width - 1 samples
    # (``np.pad`` in wrap mode repeats phases shorter than that), so a "valid"
    # convolution yields exactly n/2 outputs.
    lead = len(lo) // 2 - 1
    odd = np.pad(x[1::2], (lead, 0), mode="wrap")
    even = np.pad(x[0::2], (lead, 0), mode="wrap")
    a = (np.convolve(odd, lo[0::2], "valid")
         + np.convolve(even, lo[1::2], "valid"))
    d = (np.convolve(odd, hi[0::2], "valid")
         + np.convolve(even, hi[1::2], "valid"))
    return a, d


def _td_synthesis_step(a, d, lo, hi):
    # Adjoint of the analysis step: out[2i] = sum_r f[2r + 1] s[i + r] and
    # out[2i + 1] = sum_r f[2r] s[i + r], summed over the subbands s = a, d
    # with their filters f = lo, hi, indices mod n/2: a correlation, so the
    # phase taps run reversed over a circular trail of width - 1 samples.
    trail = len(lo) // 2 - 1
    out = np.zeros(2 * len(a))
    for s, f in ((a, lo), (d, hi)):
        s = np.pad(s, (0, trail), mode="wrap")
        out[0::2] += np.convolve(s, f[-1::-2], "valid")
        out[1::2] += np.convolve(s, f[-2::-2], "valid")
    return out


def td_dwt(x, levels, lo=None):
    """``_wavelet.dwt`` by the polyphase filter bank, level by level:
    (approximation, [d_fine..d_coarse])."""
    from driftlab._wavelet import DEFAULT_LO
    lo, hi = _td_filters(DEFAULT_LO if lo is None else lo)
    a = np.asarray(x, dtype=float)
    assert len(a) % (1 << levels) == 0
    details = []
    for _ in range(levels):
        a, d = _td_analysis_step(a, lo, hi)
        details.append(d)
    return a, details


def td_idwt(a, details, lo=None):
    """``_wavelet.idwt`` by the polyphase filter bank's adjoint."""
    from driftlab._wavelet import DEFAULT_LO
    lo, hi = _td_filters(DEFAULT_LO if lo is None else lo)
    for d in reversed(details):
        a = _td_synthesis_step(a, d, lo, hi)
    return a


def td_denoise(x, levels):
    """``_wavelet.denoise`` on the time-domain transform: the universal soft
    threshold on every detail band between ``td_dwt`` and ``td_idwt``."""
    from driftlab._wavelet import shrink_details
    a, details = td_dwt(x, levels)
    return td_idwt(a, shrink_details(details, len(x)))


# --- one fingerprint band, in the time domain -------------------------------

def band_bandpass(x, sample_rate, f0, bandwidth):
    """The centred len(x) samples of the linear convolution of ``x`` with the
    band's window-method taps, by scipy's FFT convolution."""
    from scipy.signal import fftconvolve

    from driftlab.fingerprint import BANDPASS_TAPS, _bandpass_taps
    taps = _bandpass_taps(BANDPASS_TAPS, f0 - 0.5 * bandwidth,
                          f0 + 0.5 * bandwidth, sample_rate)
    return fftconvolve(x, taps, mode="same")


def band_denoise(x, sample_rate, f0, bandwidth):
    """``fingerprint.denoise`` of the samples ``x``: the band-pass, then the
    time-domain wavelet shrinkage of the whole band-passed signal."""
    from driftlab.fingerprint import WAVELET_LEVELS
    return td_denoise(band_bandpass(x, sample_rate, f0, bandwidth),
                      WAVELET_LEVELS)


def band_bins(cleaned, sample_rate, f0, bandwidth):
    """|rfft| of the full-length signal ``cleaned`` at the bins whose
    frequency lies in f0 +/- bandwidth / 2."""
    freqs = np.fft.rfftfreq(len(cleaned), 1.0 / sample_rate)
    mask = (freqs >= f0 - 0.5 * bandwidth) & (freqs <= f0 + 0.5 * bandwidth)
    return np.abs(np.fft.rfft(cleaned))[mask]
