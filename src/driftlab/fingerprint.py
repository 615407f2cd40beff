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


class DegenerateTraceError(ValueError):
    """Constant traces carry no shape to scale or classify."""


@dataclass(frozen=True)
class SscProfile:
    """Spread-spectrum clock parameters identifying one device model."""

    label: str
    f0: float           # centre clock frequency, Hz
    fm: float           # modulation frequency, Hz
    df: float           # fractional frequency offset
    amplitude: float = 1.0

    def __post_init__(self):
        if not self.f0 > self.fm > 0.0:
            raise ValueError("profiles need f0 > fm > 0")
        if self.df < 0.0:
            # df = 0 is the unmodulated limit, useful as a fixture
            raise ValueError("df must be >= 0")
        if self.amplitude <= 0.0:
            raise ValueError("amplitude must be > 0")


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


def synthesize(profile: SscProfile, cfg: CaptureConfig, seed: int = 0) -> SampledTrace:
    """Deterministic SSC capture: the modulated carrier plus white noise."""
    highest = profile.f0 * (1.0 + profile.df)
    if cfg.sample_rate <= 2.0 * highest:
        raise ValueError(
            f"sample_rate {cfg.sample_rate} Hz violates Nyquist for "
            f"f0 (1 + df) = {highest} Hz"
        )
    n = int(round(cfg.sample_rate * cfg.duration))
    t = np.arange(n) / cfg.sample_rate
    inst_phase = TWO_PI * profile.f0 * t + (
        profile.df * (profile.f0 / profile.fm) * np.sin(TWO_PI * profile.fm * t)
    )
    samples = profile.amplitude * np.sin(inst_phase)
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
    x_min = float(x.min())
    x_max = float(x.max())
    if x_max == x_min:
        raise DegenerateTraceError("constant trace cannot be scaled")
    scaled = -a + (x - x_min) / (x_max - x_min) * (b + a)
    return SampledTrace(trace.sample_rate, scaled, trace.start_time)


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


def _bandpass(x: np.ndarray, sample_rate: float, f0: float, bandwidth: float,
              numtaps: int) -> np.ndarray:
    taps = _bandpass_taps(numtaps, f0 - 0.5 * bandwidth, f0 + 0.5 * bandwidth,
                          sample_rate)
    # Full linear convolution by FFT, then its centred len(x) samples: the
    # symmetric FIR applied with linear phase and zero net delay.
    full = len(x) + numtaps - 1
    size = _smooth_length(full)
    conv = np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(taps, size), size)
    start = (full - len(x)) // 2
    return conv[start:start + len(x)]


def denoise(
    trace: SampledTrace,
    f0: float,
    bandwidth: float,
    *,
    numtaps: int = BANDPASS_TAPS,
    wavelet_levels: int = WAVELET_LEVELS,
) -> SampledTrace:
    """Band-pass around ``f0`` then wavelet-denoise the surviving band."""
    nyquist = 0.5 * trace.sample_rate
    if f0 - 0.5 * bandwidth <= 0.0 or f0 + 0.5 * bandwidth >= nyquist:
        raise ValueError(
            f"band {f0} +/- {bandwidth / 2} Hz not inside (0, {nyquist}) Hz"
        )
    filtered = _bandpass(trace.samples, trace.sample_rate, f0, bandwidth, numtaps)
    cleaned = _wavelet.denoise(filtered, wavelet_levels)
    return SampledTrace(trace.sample_rate, cleaned, trace.start_time)


def _band_spectrum(x: np.ndarray, sample_rate: float, f0: float,
                   bandwidth: float) -> np.ndarray:
    spec = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(len(x), 1.0 / sample_rate)
    mask = (freqs >= f0 - 0.5 * bandwidth) & (freqs <= f0 + 0.5 * bandwidth)
    return spec[mask]


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
    bank = {}
    for profile in library:
        trace = synthesize(profile, clean_cfg)
        trace = scale(trace, cfg.scale_a, cfg.scale_b)
        # Templates ride the same band-pass/denoise pipeline as captures so
        # the filter's band-edge shaping cancels out in the correlation.
        cleaned = denoise(trace, profile.f0, cfg.bandwidth)
        bank[profile.label] = _band_spectrum(
            cleaned.samples, cfg.sample_rate, profile.f0, cfg.bandwidth
        )
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
    """
    if not library:
        raise ValueError("profile library is empty")
    if bank is None:
        bank = build_template_bank(library, cfg)
    scaled = scale(trace, cfg.scale_a, cfg.scale_b)
    confidences: dict[str, float] = {}
    by_f0: dict[float, list[SscProfile]] = {}
    for profile in library:
        by_f0.setdefault(profile.f0, []).append(profile)
    for f0, profiles in by_f0.items():
        cleaned = denoise(scaled, f0, cfg.bandwidth)
        spectrum = _band_spectrum(cleaned.samples, cfg.sample_rate, f0, cfg.bandwidth)
        for profile in profiles:
            confidences[profile.label] = _correlation(spectrum, bank[profile.label])
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
    return SampledTrace(sample_rate, samples, start_time)
