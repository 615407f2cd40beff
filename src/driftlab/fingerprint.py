"""Spread-spectrum-clock leakage synthesis, preprocessing and matching.

Device models are told apart by the frequency-modulated clock their MCU
radiates: a carrier at f0 whose instantaneous frequency wobbles by a
fraction df at rate fm, producing a sideband comb unique to the model.  The
pipeline scales a captured trace to a fixed span, band-passes around each
candidate carrier, wavelet-denoises, and correlates the resulting spectrum
against a library of synthetic templates.  A capture that matches nothing
above the confidence threshold stays unidentified and the attack chain does
not proceed.
"""

from __future__ import annotations

import csv
import functools
import math
import struct
from dataclasses import dataclass
from importlib import resources
from typing import Optional

import numpy as np

from . import _wavelet
from .signals import TWO_PI, SampledTrace

UNKNOWN_THRESHOLD = 0.6
BANDPASS_TAPS = 257
WAVELET_LEVELS = 4
# Held per-band tables (zero-phase band responses, and band bins with their
# wavelet synthesis responses): one entry per band and length, enough for the
# five carriers of the bundled library with room to spare.
_BAND_RESPONSES = 8


class DegenerateTraceError(ValueError):
    """Constant traces carry no shape to scale or classify."""


@dataclass(frozen=True)
class SscProfile:
    """Spread-spectrum clock parameters identifying one device model."""

    label: str
    f0: float           # centre clock frequency, Hz
    fm: float           # modulation frequency, Hz
    df: float           # fractional frequency offset

    def __post_init__(self):
        if not self.f0 > self.fm > 0.0:
            raise ValueError("profiles need f0 > fm > 0")
        if self.df < 0.0:
            # df = 0 is the unmodulated limit, useful as a fixture
            raise ValueError("df must be >= 0")


@dataclass(frozen=True)
class CaptureConfig:
    """Acquisition and preprocessing settings for one capture session."""

    sample_rate: float
    duration: float
    snr_db: float = math.inf
    scale_a: float = 50.0       # lower scaling bound, mV
    scale_b: float = 50.0       # upper scaling bound, mV
    bandwidth: float = 1e5      # band-pass width around each candidate f0, Hz

    def __post_init__(self):
        if self.sample_rate <= 0.0 or self.duration <= 0.0:
            raise ValueError("sample_rate and duration must be > 0")
        if self.scale_a <= 0.0 or self.scale_b <= 0.0:
            raise ValueError("scaling bounds must be > 0")
        if self.bandwidth <= 0.0:
            raise ValueError("bandwidth must be > 0")


def capture_length(cfg: CaptureConfig) -> int:
    """Samples in one capture under ``cfg``."""
    return int(round(cfg.sample_rate * cfg.duration))


def synthesize(profile: SscProfile, cfg: CaptureConfig, seed: int = 0) -> SampledTrace:
    """Deterministic SSC capture: the unit-amplitude modulated carrier plus
    white noise."""
    highest = profile.f0 * (1.0 + profile.df)
    if cfg.sample_rate <= 2.0 * highest:
        raise ValueError(
            f"sample_rate {cfg.sample_rate} Hz violates Nyquist for "
            f"f0 (1 + df) = {highest} Hz"
        )
    n = capture_length(cfg)
    t = np.arange(n) / cfg.sample_rate
    inst_phase = TWO_PI * profile.f0 * t + (
        profile.df * (profile.f0 / profile.fm) * np.sin(TWO_PI * profile.fm * t)
    )
    samples = np.sin(inst_phase)
    if math.isfinite(cfg.snr_db):
        signal_power = float(np.mean(samples ** 2))
        noise_power = signal_power / 10.0 ** (cfg.snr_db / 10.0)
        rng = np.random.default_rng(seed)
        samples = samples + rng.normal(scale=math.sqrt(noise_power), size=n)
    return SampledTrace(sample_rate=cfg.sample_rate, samples=samples)


def scale(trace: SampledTrace, a: float, b: float) -> SampledTrace:
    """Linear map of the trace onto [-a, +b]; endpoints land exactly."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("scaling bounds must be > 0")
    x = trace.samples
    _require_finite(x, "trace")
    x_min = float(x.min())
    x_max = float(x.max())
    if x_max == x_min:
        raise DegenerateTraceError("constant trace cannot be scaled")
    scaled = -a + (x - x_min) / (x_max - x_min) * (b + a)
    return SampledTrace(trace.sample_rate, scaled, trace.start_time)


def _require_finite(samples: np.ndarray, where: str) -> None:
    if not np.isfinite(samples).all():
        i = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise ValueError(f"{where}: sample {i} is {samples[i]}, not finite")


def _bandpass_taps(numtaps: int, lo: float, hi: float,
                   sample_rate: float) -> np.ndarray:
    """Hamming-windowed sinc band-pass on [lo, hi] Hz with unit gain at the
    band centre (the window method, as in Oppenheim & Schafer, sec. 7.5)."""
    nyquist = 0.5 * sample_rate
    left, right = lo / nyquist, hi / nyquist
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    taps = right * np.sinc(right * m) - left * np.sinc(left * m)
    taps *= np.hamming(numtaps)
    return taps / np.sum(taps * np.cos(np.pi * m * 0.5 * (left + right)))


def _smooth_length(target: int) -> int:
    """Smallest 2^i 3^j 5^k >= target: a fast FFT size."""
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-target // p35)
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=_BAND_RESPONSES)
def _band_response(numtaps: int, lo: float, hi: float, sample_rate: float,
                   size: int) -> np.ndarray:
    """Response on the rfft grid of ``size`` of the band-pass taps placed
    circularly centred on index 0.  An odd-length symmetric FIR so placed is
    zero-phase (type-I linear phase, Oppenheim & Schafer sec. 5.7): its DFT
    is real up to rounding, and only the real part is kept."""
    taps = _bandpass_taps(numtaps, lo, hi, sample_rate)
    c = (numtaps - 1) // 2
    h = np.zeros(size)
    h[:c + 1] = taps[c:]
    h[size - c:] = taps[:c]
    response = np.fft.rfft(h).real.copy()
    response.flags.writeable = False
    return response


def _bandpass(x: np.ndarray, sample_rate: float, f0: float, bandwidth: float,
              numtaps: int) -> np.ndarray:
    """The centred len(x) samples of the full linear convolution of ``x`` with
    the band-pass taps: linear phase, zero net delay."""
    size = _smooth_length(len(x) + numtaps - 1)
    spectrum = np.fft.rfft(x, size)
    return _bandpass_spectrum(spectrum, len(x), sample_rate, f0, bandwidth,
                              numtaps, np.empty_like(spectrum), np.empty(size))


def _bandpass_spectrum(spectrum: np.ndarray, n: int, sample_rate: float,
                       f0: float, bandwidth: float, numtaps: int,
                       product: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``_bandpass`` of the n samples whose rfft at the 2-3-5-smooth length
    >= n + numtaps - 1 is ``spectrum``, computed in the arrays ``product``
    (like ``spectrum``) and ``out`` (that length); returns a view of ``out``.
    ``numtaps`` is odd, which makes the band-pass zero-phase."""
    # the full convolution fits, so the circular product does not wrap
    size = _smooth_length(n + numtaps - 1)
    response = _band_response(numtaps, f0 - 0.5 * bandwidth,
                              f0 + 0.5 * bandwidth, sample_rate, size)
    np.multiply(spectrum, response, out=product)
    return np.fft.irfft(product, size, out=out)[:n]


def _check_band(sample_rate: float, f0: float, bandwidth: float) -> None:
    nyquist = 0.5 * sample_rate
    if f0 - 0.5 * bandwidth <= 0.0 or f0 + 0.5 * bandwidth >= nyquist:
        raise ValueError(
            f"band {f0} +/- {bandwidth / 2} Hz not inside (0, {nyquist}) Hz"
        )


def denoise(trace: SampledTrace, f0: float, bandwidth: float) -> SampledTrace:
    """Band-pass around ``f0`` then wavelet-denoise the surviving band."""
    _check_band(trace.sample_rate, f0, bandwidth)
    filtered = _bandpass(trace.samples, trace.sample_rate, f0, bandwidth,
                         BANDPASS_TAPS)
    cleaned = _wavelet.denoise(filtered, WAVELET_LEVELS)
    return SampledTrace(trace.sample_rate, cleaned, trace.start_time)


def _band_spectrum(x: np.ndarray, sample_rate: float, f0: float,
                   bandwidth: float) -> np.ndarray:
    spec = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(x), 1.0 / sample_rate)
    mask = (freqs >= f0 - 0.5 * bandwidth) & (freqs <= f0 + 0.5 * bandwidth)
    return spec[mask]


@functools.lru_cache(maxsize=_BAND_RESPONSES)
def _band_synthesis(n: int, sample_rate: float, f0: float, bandwidth: float):
    """(start, stop, responses) for the band on the rfft grid of n samples:
    the bins ``_band_spectrum`` keeps are start..stop-1, and ``responses``
    are their read-only wavelet synthesis responses at WAVELET_LEVELS.
    None when 2**WAVELET_LEVELS does not divide n: ``dwt`` then pads the
    trace and the subbands no longer give the bins of n samples."""
    if n % (1 << WAVELET_LEVELS):
        return None
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    inside = np.flatnonzero((freqs >= f0 - 0.5 * bandwidth)
                            & (freqs <= f0 + 0.5 * bandwidth))
    start, stop = (int(inside[0]), int(inside[-1]) + 1) if len(inside) else (0, 0)
    responses = _wavelet.synthesis_responses(n, WAVELET_LEVELS, start, stop)
    for response in responses:
        response.flags.writeable = False
    return start, stop, tuple(responses)


def _band_work(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays for the band-pass of an n-sample trace: its spectrum, that
    spectrum times a band response, and the band-passed samples.  One set
    per bank or ``classify`` call, reused by every band and profile, keeps
    these largest arrays from being allocated anew each time, which
    fragments the heap (about 10 MB more peak RSS on the `fingerprint`
    benchmark)."""
    size = _smooth_length(n + BANDPASS_TAPS - 1)
    return (np.empty(size // 2 + 1, dtype=complex),
            np.empty(size // 2 + 1, dtype=complex), np.empty(size))


def _capture_spectrum(samples: np.ndarray, work) -> None:
    """Fill the spectrum of ``work`` (``_band_work``) from ``samples``."""
    np.fft.rfft(samples, len(work[2]), out=work[0])


def _denoised_band(work, n: int, sample_rate: float, f0: float,
                   bandwidth: float) -> np.ndarray:
    """``_band_spectrum(denoise(trace, f0, bandwidth).samples, ...)`` of the
    n-sample trace whose spectrum ``_capture_spectrum`` put in ``work``.
    Where ``_band_synthesis`` holds the band's bins, they come straight
    from the thresholded subbands, with no inverse DWT and no full-length
    FFT; otherwise the time-domain path runs."""
    _check_band(sample_rate, f0, bandwidth)
    spectrum, product, out = work
    filtered = _bandpass_spectrum(spectrum, n, sample_rate, f0, bandwidth,
                                  BANDPASS_TAPS, product, out)
    synthesis = _band_synthesis(n, sample_rate, f0, bandwidth)
    if synthesis is None:
        return _band_spectrum(_wavelet.denoise(filtered, WAVELET_LEVELS),
                              sample_rate, f0, bandwidth)
    a, details, _ = _wavelet.shrink(filtered, WAVELET_LEVELS)
    return np.abs(_wavelet.reconstruction_dft(a, details, *synthesis))


def _correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = a - a.mean()
    b = b - b.mean()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return max(float(np.dot(a, b)) / denom, 0.0)


def build_template_bank(library, cfg: CaptureConfig) -> dict[str, np.ndarray]:
    """Noise-free band spectra for every library profile under ``cfg``."""
    clean_cfg = CaptureConfig(
        sample_rate=cfg.sample_rate,
        duration=cfg.duration,
        snr_db=math.inf,
        scale_a=cfg.scale_a,
        scale_b=cfg.scale_b,
        bandwidth=cfg.bandwidth,
    )
    n = capture_length(cfg)
    # Each carrier's held tables are built before the work arrays and the
    # first trace: built among them, they and their temporaries leave the
    # heap higher (peak RSS of the `fingerprint` benchmark, 2 vCPU: 111 MB
    # built first, 121 MB built among them).
    for f0 in dict.fromkeys(p.f0 for p in library):
        _band_response(BANDPASS_TAPS, f0 - 0.5 * cfg.bandwidth,
                       f0 + 0.5 * cfg.bandwidth, cfg.sample_rate,
                       _smooth_length(n + BANDPASS_TAPS - 1))
        _band_synthesis(n, cfg.sample_rate, f0, cfg.bandwidth)
    work = _band_work(n)
    bank = {}
    for profile in library:
        # Templates ride the same band-pass/denoise pipeline as captures so
        # the filter's band-edge shaping cancels out in the correlation; only
        # the spectrum of the scaled trace outlives this line.
        _capture_spectrum(
            scale(synthesize(profile, clean_cfg), cfg.scale_a, cfg.scale_b).samples,
            work,
        )
        bank[profile.label] = _denoised_band(work, n, cfg.sample_rate,
                                             profile.f0, cfg.bandwidth)
    return bank


def classify(
    trace: SampledTrace,
    library,
    cfg: CaptureConfig,
    *,
    threshold: float = UNKNOWN_THRESHOLD,
    bank: Optional[dict] = None,
) -> tuple[Optional[str], dict[str, float]]:
    """Best-matching library label, or None when nothing clears the threshold.

    Iterates over the candidate carrier frequencies present in the library,
    denoises the capture around each one once, and scores every profile in
    its own band by spectral correlation against the synthetic template.
    The scaled capture is transformed once and shared by every band.
    """
    if not library:
        raise ValueError("profile library is empty")
    if trace.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"trace sampled at {trace.sample_rate} Hz, capture settings "
            f"expect {cfg.sample_rate} Hz"
        )
    n = capture_length(cfg)
    if len(trace) != n:
        raise ValueError(
            f"trace holds {len(trace)} samples, capture settings expect {n} "
            f"({cfg.duration} s at {cfg.sample_rate} Hz)"
        )
    scaled = scale(trace, cfg.scale_a, cfg.scale_b)
    if bank is None:
        bank = build_template_bank(library, cfg)
    work = _band_work(n)
    _capture_spectrum(scaled.samples, work)
    del scaled      # the held band tables take its place
    confidences: dict[str, float] = {}
    by_f0: dict[float, list[SscProfile]] = {}
    for profile in library:
        by_f0.setdefault(profile.f0, []).append(profile)
    for f0, profiles in by_f0.items():
        band = _denoised_band(work, n, cfg.sample_rate, f0, cfg.bandwidth)
        for profile in profiles:
            confidences[profile.label] = _correlation(band, bank[profile.label])
    best = max(confidences, key=lambda k: confidences[k])
    if confidences[best] < threshold:
        return None, confidences
    return best, confidences


def load_profile_library(path=None) -> list[SscProfile]:
    """Read a delimited label/f0/fm/df profile table (bundled one by default)."""
    if path is None:
        source = resources.files("driftlab").joinpath("data/profiles.csv")
        text = source.read_text(encoding="utf-8")
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    library = []
    for row in csv.DictReader(text.splitlines()):
        library.append(
            SscProfile(
                label=row["label"].strip(),
                f0=float(row["f0_hz"]),
                fm=float(row["fm_hz"]),
                df=float(row["df_frac"]),
            )
        )
    return library


_BIN_MAGIC = b"DLTRACE1"


def save_trace_bin(trace: SampledTrace, path) -> None:
    """Headered little-endian binary trace export."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<ddQ", trace.sample_rate, trace.start_time, len(trace)))
        fh.write(trace.samples.astype("<f8").tobytes())


def load_trace_bin(path) -> SampledTrace:
    with open(path, "rb") as fh:
        magic = fh.read(len(_BIN_MAGIC))
        if magic != _BIN_MAGIC:
            raise ValueError(f"{path}: not a trace file")
        sample_rate, start_time, n = struct.unpack("<ddQ", fh.read(24))
        samples = np.frombuffer(fh.read(8 * n), dtype="<f8")
        if len(samples) != n:
            raise ValueError(f"{path}: truncated trace")
    _require_finite(samples, str(path))
    return SampledTrace(sample_rate, samples.copy(), start_time)


def save_trace_csv(trace: SampledTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_rate_hz", "start_time_s"])
        writer.writerow([repr(trace.sample_rate), repr(trace.start_time)])
        writer.writerow(["volts"])
        for v in trace.samples:
            writer.writerow([repr(float(v))])


def load_trace_csv(path) -> SampledTrace:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["sample_rate_hz", "start_time_s"]:
            raise ValueError(f"{path}: not a trace CSV")
        sample_rate, start_time = (float(x) for x in next(reader)[:2])
        next(reader)  # volts header
        samples = np.array([float(row[0]) for row in reader])
    _require_finite(samples, str(path))
    return SampledTrace(sample_rate, samples, start_time)
