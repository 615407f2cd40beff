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
import itertools
import math
import os
import stat
import struct
from dataclasses import dataclass, replace
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
# The longest buffer that corrects the circular band-pass of a band (a
# shorter capture is corrected at its own length).
# The correction's subbands reach 70 samples past sample 0 and 64 before it
# at the first level (of 512), 21 and 8 at the fourth (of 64): in every level
# each end stays in its own half.
_EDGE_BUFFER = 1024


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
        if not all(map(math.isfinite, (self.f0, self.fm, self.df))):
            raise ValueError(f"profile {self.label!r}: f0, fm and df must be "
                             f"finite, got {self.f0}, {self.fm}, {self.df}")
        if not self.f0 > self.fm > 0.0:
            raise ValueError(f"profile {self.label!r}: needs f0 > fm > 0")
        if self.df < 0.0:
            # df = 0 is the unmodulated limit, useful as a fixture
            raise ValueError(f"profile {self.label!r}: df must be >= 0")


@dataclass(frozen=True)
class CaptureConfig:
    """Acquisition and preprocessing settings for one capture session."""

    sample_rate: float
    duration: float
    snr_db: float = math.inf
    scale_a: float = 50.0       # lower scaling bound, mV
    scale_b: float = 50.0       # upper scaling bound, mV
    bandwidth: float = 2e5      # band-pass width around each candidate f0, Hz

    def __post_init__(self):
        for name in ("sample_rate", "duration", "scale_a", "scale_b", "bandwidth"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.snr_db > -math.inf:     # NaN or -inf; +inf means no noise
            raise ValueError(f"snr_db must be finite or inf, got {self.snr_db}")
        samples = self.sample_rate * self.duration
        if not math.isfinite(samples):
            raise ValueError(f"sample_rate * duration is {samples} samples")
        for name in ("scale_a", "scale_b", "bandwidth"):
            if getattr(self, name) == math.inf:
                raise ValueError(f"{name} must be finite, got inf")
        refusal = length_refusal(capture_length(self), self.sample_rate)
        if refusal:
            raise ValueError(refusal)


def capture_length(cfg: CaptureConfig) -> int:
    """Samples in one capture under ``cfg``."""
    return int(round(cfg.sample_rate * cfg.duration))


def length_refusal(n: int, sample_rate: float) -> Optional[str]:
    """Why an n-sample capture at ``sample_rate`` cannot be analysed, or None.

    Each band's subbands come from the capture's own rfft: the DWT needs
    2**WAVELET_LEVELS to divide n, and from BANDPASS_TAPS samples up the
    circular band-pass wraps each end of the capture onto the other end
    only."""
    block = 1 << WAVELET_LEVELS
    if n >= BANDPASS_TAPS and n % block == 0:
        return None
    shortest = -(-BANDPASS_TAPS // block) * block
    nearest = sorted({max(n - n % block, shortest), max(n + -n % block, shortest)})
    return (f"{n} samples at {sample_rate} Hz cannot be analysed: a capture "
            f"needs a multiple of {block} samples, at least {shortest}; the "
            "nearest accepted: "
            + " or ".join(f"{m / sample_rate!r} s ({m} samples)" for m in nearest))


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
    if not (a > 0.0 and b > 0.0 and math.isfinite(a + b)):
        raise ValueError(f"scaling bounds must be > 0 with a finite sum, got {a}, {b}")
    x = trace.samples
    _require_finite(x, "trace")
    x_min = float(x.min())
    x_max = float(x.max())
    if x_max == x_min:
        raise DegenerateTraceError("constant trace cannot be scaled")
    if not math.isfinite(x_max - x_min):
        raise ValueError(f"trace: its range, {x_min} to {x_max}, is too wide to scale")
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


def _check_band(sample_rate: float, f0: float, bandwidth: float) -> None:
    nyquist = 0.5 * sample_rate
    if f0 - 0.5 * bandwidth <= 0.0 or f0 + 0.5 * bandwidth >= nyquist:
        raise ValueError(
            f"band {f0} +/- {bandwidth / 2} Hz not inside (0, {nyquist}) Hz"
        )


def denoise(trace: SampledTrace, f0: float, bandwidth: float) -> SampledTrace:
    """Band-pass around ``f0`` then wavelet-denoise the surviving band: the
    inverse DWT of the band's thresholded subbands."""
    n = len(trace)
    refusal = length_refusal(n, trace.sample_rate)
    if refusal:
        raise ValueError(refusal)
    _check_band(trace.sample_rate, f0, bandwidth)
    a, details = _band_subbands(_capture_spectrum(trace.samples), n,
                                trace.sample_rate, f0, bandwidth)
    cleaned = _wavelet.idwt(a, _wavelet.shrink_details(details, n))
    return SampledTrace(trace.sample_rate, cleaned, trace.start_time)


@functools.lru_cache(maxsize=_BAND_RESPONSES)
def _band_synthesis(n: int, sample_rate: float, f0: float, bandwidth: float):
    """(start, stop, responses) for the band on the rfft grid of n samples,
    a multiple of 2**WAVELET_LEVELS: the bins at f0 +/- bandwidth / 2 are
    start..stop-1, and ``responses`` are their read-only wavelet synthesis
    responses at WAVELET_LEVELS."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    inside = np.flatnonzero((freqs >= f0 - 0.5 * bandwidth)
                            & (freqs <= f0 + 0.5 * bandwidth))
    start, stop = (int(inside[0]), int(inside[-1]) + 1) if len(inside) else (0, 0)
    responses = _wavelet.synthesis_responses(n, WAVELET_LEVELS, start, stop)
    for response in responses:
        response.flags.writeable = False
    return start, stop, tuple(responses)


@functools.lru_cache(maxsize=1)
def _analysis_responses(n: int) -> np.ndarray:
    """Read-only ``_wavelet.analysis_responses(n)``: one table (16 B a
    sample) serves every band and level of an n-sample capture."""
    responses = _wavelet.analysis_responses(n)
    responses.flags.writeable = False
    return responses


def _capture_spectrum(samples: np.ndarray):
    """What every band of a capture reads: its rfft, and its first and last
    (BANDPASS_TAPS - 1) / 2 samples, the ends that a circular band-pass
    wraps onto each other."""
    c = BANDPASS_TAPS // 2
    return (np.fft.rfft(samples), samples[:c].copy(),
            samples[len(samples) - c:].copy())


def _band_subbands(capture, n: int, sample_rate: float, f0: float,
                   bandwidth: float):
    """``_wavelet.dwt`` at WAVELET_LEVELS of the capture x that
    ``_capture_spectrum`` read, band-passed around ``f0`` by the centred
    len(x) samples of its linear convolution with the BANDPASS_TAPS taps, for
    an n that ``length_refusal`` accepts.  The band-pass is the product with
    the band's response on x's own rfft grid, and the subbands come from
    that spectrum by ``_wavelet.spectral_dwt``."""
    spectrum, head, tail = capture
    lo, hi = f0 - 0.5 * bandwidth, f0 + 0.5 * bandwidth
    response = _band_response(BANDPASS_TAPS, lo, hi, sample_rate, n)
    a, details = _wavelet.spectral_dwt(spectrum * response, n, WAVELET_LEVELS,
                                       _analysis_responses(n))
    # The product is a circular convolution: its first and last c samples
    # exceed the linear one's by the other end of x wrapped in.  The DWT is
    # linear, so the subbands of that excess are subtracted.  They lie near
    # sample 0, so a buffer of at most _EDGE_BUFFER samples with the same
    # wrap gives them: its first half of each level maps to the start of the
    # subband, the rest to the end (the whole subband at length n).
    taps = _bandpass_taps(BANDPASS_TAPS, lo, hi, sample_rate)
    c = len(head)
    wrapped = np.zeros(min(n, _EDGE_BUFFER))
    wrapped[:c] = np.convolve(tail, taps)[2 * c:]
    wrapped[-c:] = np.convolve(head, taps)[:c]
    excess_a, excess_details = _wavelet.dwt(wrapped, WAVELET_LEVELS)
    for s, excess in zip([a, *details], [excess_a, *excess_details]):
        half = len(excess) // 2
        s[:half] -= excess[:half]
        s[len(s) - (len(excess) - half):] -= excess[half:]
    return a, details


def _denoised_band(capture, n: int, sample_rate: float, f0: float,
                   bandwidth: float) -> np.ndarray:
    """|rfft| of ``denoise(trace, f0, bandwidth).samples`` at the band's bins,
    for the n-sample trace that ``_capture_spectrum`` read: straight from the
    thresholded subbands, with no inverse DWT and no full-length FFT."""
    _check_band(sample_rate, f0, bandwidth)
    a, details = _band_subbands(capture, n, sample_rate, f0, bandwidth)
    details = _wavelet.shrink_details(details, n)
    synthesis = _band_synthesis(n, sample_rate, f0, bandwidth)
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
    clean_cfg = replace(cfg, snr_db=math.inf)
    n = capture_length(cfg)
    # The held tables are built before the first trace: built among the
    # per-trace arrays, they and their temporaries leave the heap higher
    # (peak RSS of the `fingerprint` benchmark, 2 vCPU: 111 MB built first,
    # 121 MB built among them).
    for f0 in dict.fromkeys(p.f0 for p in library):
        _band_response(BANDPASS_TAPS, f0 - 0.5 * cfg.bandwidth,
                       f0 + 0.5 * cfg.bandwidth, cfg.sample_rate, n)
        _band_synthesis(n, cfg.sample_rate, f0, cfg.bandwidth)
    _analysis_responses(n)
    bank = {}
    for profile in library:
        if profile.label in bank:       # the bank is keyed by label
            raise ValueError(f"profile library repeats the label {profile.label!r}")
        # Templates ride the same band-pass/denoise pipeline as captures so
        # the filter's band-edge shaping cancels out in the correlation; no
        # array of one profile is alive while the next one's are built.
        capture = _capture_spectrum(
            scale(synthesize(profile, clean_cfg), cfg.scale_a, cfg.scale_b).samples)
        bank[profile.label] = _denoised_band(capture, n, cfg.sample_rate,
                                             profile.f0, cfg.bandwidth)
        del capture
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
    capture = _capture_spectrum(scaled.samples)
    del scaled      # the held band tables take its place
    confidences: dict[str, float] = {}
    by_f0: dict[float, list[SscProfile]] = {}
    for profile in library:
        by_f0.setdefault(profile.f0, []).append(profile)
    for f0, profiles in by_f0.items():
        band = _denoised_band(capture, n, cfg.sample_rate, f0, cfg.bandwidth)
        for profile in profiles:
            if profile.label in confidences:
                raise ValueError(f"profile library repeats the label {profile.label!r}")
            confidences[profile.label] = _correlation(band, bank[profile.label])
    best = max(confidences, key=lambda k: confidences[k])
    if not confidences[best] >= threshold:     # a NaN confidence selects nothing
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
    reader = csv.DictReader(text.splitlines())
    library = []
    lines = {}      # label -> its first line
    for row in reader:
        # a short row reads None for its missing fields: a TypeError
        try:
            library.append(SscProfile(label=row["label"].strip(),
                                      f0=float(row["f0_hz"]),
                                      fm=float(row["fm_hz"]),
                                      df=float(row["df_frac"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
        label = library[-1].label
        if lines.setdefault(label, reader.line_num) != reader.line_num:
            raise ValueError(f"line {reader.line_num}: label {label!r} repeats line "
                             f"{lines[label]}")
    return library


_BIN_MAGIC = b"DLTRACE1"


def save_trace_bin(trace: SampledTrace, path) -> None:
    """Headered little-endian binary trace export."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<ddQ", trace.sample_rate, trace.start_time, len(trace)))
        fh.write(trace.samples.astype("<f8").tobytes())


def load_trace_bin(path, max_samples: int) -> SampledTrace:
    """The trace ``save_trace_bin`` wrote to ``path``; one whose header
    states more than ``max_samples`` samples is refused before its body is
    read."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_BIN_MAGIC))
        if magic != _BIN_MAGIC:
            raise ValueError(f"{path}: not a trace file")
        header = fh.read(24)
        if len(header) != 24:
            raise ValueError(f"{path}: truncated header")
        sample_rate, start_time, n = struct.unpack("<ddQ", header)
        # The count comes from the file, so nothing is allocated for it
        # unchecked: a regular file's size bounds it, any other stream is
        # read in bounded chunks until it ends.
        status = os.fstat(fh.fileno())
        regular = stat.S_ISREG(status.st_mode)
        if regular:
            held = max(status.st_size - fh.tell(), 0) // 8
            if n > held:
                raise _truncated(path, n, held)
        if n > max_samples:
            raise ValueError(f"{path}: the header states {n} samples, more "
                             f"than the {max_samples} expected")
        data = fh.read(8 * n) if regular else _read_bounded(fh, 8 * n)
        if len(data) != 8 * n:
            raise _truncated(path, n, len(data) // 8)
        samples = np.frombuffer(data, dtype="<f8")
    _require_finite(samples, str(path))
    return SampledTrace(sample_rate, samples.copy(), start_time)


def _truncated(path, n: int, held: int) -> ValueError:
    return ValueError(f"{path}: truncated trace: the header states {n} "
                      f"samples, the file holds {held}")


def _read_bounded(fh, size: int, chunk: int = 1 << 24) -> bytes:
    """Up to ``size`` bytes of ``fh``, read ``chunk`` bytes at a time."""
    parts = []
    while size > 0:
        part = fh.read(min(size, chunk))
        if not part:
            break
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def save_trace_csv(trace: SampledTrace, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_rate_hz", "start_time_s"])
        writer.writerow([repr(trace.sample_rate), repr(trace.start_time)])
        writer.writerow(["volts"])
        for v in trace.samples:
            writer.writerow([repr(float(v))])


def load_trace_csv(path, max_samples: int) -> SampledTrace:
    """The trace ``save_trace_csv`` wrote to ``path``; reading stops at the
    sample past ``max_samples``, and such a trace is refused."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["sample_rate_hz", "start_time_s"]:
            raise ValueError(f"{path}: not a trace CSV")
        sample_rate, start_time = (float(x) for x in next(reader)[:2])
        next(reader)  # volts header
        samples = np.array([float(row[0])
                            for row in itertools.islice(reader, max_samples + 1)])
    if len(samples) > max_samples:
        raise ValueError(f"{path}: holds more than the {max_samples} samples "
                         "expected")
    _require_finite(samples, str(path))
    return SampledTrace(sample_rate, samples, start_time)
