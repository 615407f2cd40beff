import contextlib
import io
import math
import os
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import firwin

from driftlab.fingerprint import (
    BANDPASS_TAPS,
    CaptureConfig,
    DegenerateTraceError,
    SscProfile,
    WAVELET_LEVELS,
    _analysis_responses,
    _band_response,
    _band_subbands,
    _band_synthesis,
    _bandpass_taps,
    _capture_spectrum,
    _denoised_band,
    _read_bounded,
    build_template_bank,
    capture_length,
    classify,
    denoise,
    length_refusal,
    load_profile_library,
    load_trace_bin,
    load_trace_csv,
    save_trace_bin,
    save_trace_csv,
    scale,
    synthesize,
)
from driftlab.signals import SampledTrace, TWO_PI
from oracles import band_bandpass, band_bins, band_denoise, td_dwt

# classify() at the criterion-9 setting (6 MHz, 0.1 s, 15 dB, 200 kHz bands),
# recorded with the earlier FFT-based wavelet filter bank and scipy.signal
# band-pass: capture -> (label, confidences in library order).  The profile
# captures use seed 100 + library index, the noise capture
# default_rng(5).normal(size=600_000).
GOLDEN_CONFIDENCES = {
    "synthetic-01": ("synthetic-01", [
        0.999780474879471, 0.9948325178785499, 0.9947251203788261,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        0.0, 0.0007331563303059735, 0.0,
        0.011438299350289819, 0.01855976521462585, 0.030111455003911023,
    ]),
    "synthetic-08": ("synthetic-08", [
        0.0, 0.0, 0.0,
        0.0053925087511844895, 0.0036375087039227033, 0.004288657707834811,
        0.9678750128622353, 0.999603404014964, 0.9644501850204316,
        0.0, 0.0, 0.0,
        0.014218493851008823, 0.019933149809828188, 0.03435924391121413,
    ]),
    "synthetic-15": ("synthetic-15", [
        0.005506278299654836, 0.005596580155005874, 0.0053023675732921105,
        0.0, 0.0, 0.0,
        0.0, 0.0, 0.0,
        0.051446872463740426, 0.0, 0.0,
        0.9464695509748031, 0.9607430541846858, 0.9979455574032146,
    ]),
    "noise": (None, [
        0.005749269994402706, 0.0053842402793409525, 0.007445937470497772,
        0.007747239189426328, 0.008564774452076405, 0.007355020134499028,
        0.0, 0.0, 0.0,
        0.0060113598085158974, 0.002627473129279912, 0.001833188833443628,
        0.009157249002343826, 0.02056757551659246, 0.02905437854643496,
    ]),
}


FAST_CFG = CaptureConfig(sample_rate=6e6, duration=0.01, snr_db=15.0,
                         bandwidth=2e5)


def _clean(cfg):
    return CaptureConfig(sample_rate=cfg.sample_rate, duration=cfg.duration,
                         snr_db=math.inf, scale_a=cfg.scale_a,
                         scale_b=cfg.scale_b, bandwidth=cfg.bandwidth)


@pytest.fixture(scope="module")
def library():
    return load_profile_library()


class TestSynthesize:
    def test_unmodulated_limit_is_pure_tone(self):
        profile = SscProfile("tone", f0=5e5, fm=2e4, df=0.0)
        trace = synthesize(profile, _clean(FAST_CFG))
        spec = np.abs(np.fft.rfft(trace.samples))
        freqs = np.fft.rfftfreq(len(trace), 1.0 / trace.sample_rate)
        assert abs(freqs[int(np.argmax(spec))] - 5e5) <= freqs[1]

    def test_sideband_comb_spacing(self):
        profile = SscProfile("ssc", f0=8e6, fm=3e4, df=0.005)
        cfg = CaptureConfig(sample_rate=2e7, duration=0.005, snr_db=math.inf,
                            bandwidth=5e5)
        trace = synthesize(profile, cfg)
        spec = np.abs(np.fft.rfft(trace.samples))
        freqs = np.fft.rfftfreq(len(trace), 1.0 / trace.sample_rate)

        def power_at(f):
            return spec[int(round(f * cfg.duration))]

        # comb lines at f0 + n*fm dominate the gaps between them
        for n in (-3, -2, -1, 1, 2, 3):
            line = power_at(8e6 + n * 3e4)
            gap = power_at(8e6 + n * 3e4 + 1.5e4)
            assert line > 5.0 * gap

    def test_seeded_noise_deterministic(self):
        profile = SscProfile("p", f0=5e5, fm=2e4, df=0.005)
        a = synthesize(profile, FAST_CFG, seed=42)
        b = synthesize(profile, FAST_CFG, seed=42)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize(profile, FAST_CFG, seed=43)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_free_ignores_seed(self):
        profile = SscProfile("p", f0=5e5, fm=2e4, df=0.005)
        a = synthesize(profile, _clean(FAST_CFG), seed=1)
        b = synthesize(profile, _clean(FAST_CFG), seed=2)
        assert np.array_equal(a.samples, b.samples)

    def test_nyquist_guard(self):
        profile = SscProfile("p", f0=4e6, fm=2e4, df=0.01)
        with pytest.raises(ValueError):
            synthesize(profile, FAST_CFG)

    def test_snr_level_realised(self):
        profile = SscProfile("p", f0=5e5, fm=2e4, df=0.005)
        cfg = CaptureConfig(sample_rate=6e6, duration=0.02, snr_db=10.0)
        noisy = synthesize(profile, cfg, seed=7)
        clean = synthesize(profile, _clean(cfg))
        snr = np.mean(clean.samples ** 2) / np.mean(
            (noisy.samples - clean.samples) ** 2
        )
        assert 10 * math.log10(snr) == pytest.approx(10.0, abs=0.3)


class TestScale:
    def test_endpoints(self):
        trace = SampledTrace(10.0, np.array([0.0, 2.0, 10.0]))
        out = scale(trace, 50.0, 50.0)
        assert out.samples[0] == -50.0
        assert out.samples[-1] == 50.0

    def test_midpoint_symmetry(self):
        trace = SampledTrace(10.0, np.array([0.0, 5.0, 10.0]))
        out = scale(trace, 50.0, 50.0)
        assert out.samples[1] == pytest.approx(0.0)

    def test_three_point_example(self):
        trace = SampledTrace(10.0, np.array([-3.0, 1.0, 5.0]))
        out = scale(trace, 50.0, 50.0)
        assert np.allclose(out.samples, [-50.0, 0.0, 50.0])

    def test_constant_trace_rejected(self):
        with pytest.raises(DegenerateTraceError):
            scale(SampledTrace(10.0, np.ones(8)), 50.0, 50.0)

    def test_non_finite_trace_rejected(self):
        with pytest.raises(ValueError, match="sample 1 "):
            scale(SampledTrace(10.0, np.array([0.0, math.nan, 1.0])), 50.0, 50.0)

    # x_max - x_min overflowed, and every scaled sample was nan
    def test_range_that_overflows_rejected(self):
        trace = SampledTrace(10.0, np.array([1.5e308, -1.5e308, 1.5e308]))
        with pytest.raises(ValueError, match=r"^trace: its range, -1\.5e\+308 to "
                           r"1\.5e\+308, is too wide to scale$"):
            scale(trace, 50.0, 50.0)
        assert scale(SampledTrace(10.0, np.array([8e307, -8e307])), 1.0, 1.0
                     ).samples.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("a, b", [(math.inf, 50.0), (50.0, math.inf),
                                      (math.nan, 50.0), (50.0, -math.inf),
                                      (0.0, 50.0), (1e308, 1e308)])
    def test_bounds_not_positive_with_a_finite_sum_rejected(self, a, b):
        trace = SampledTrace(10.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match=re.escape(
                f"scaling bounds must be > 0 with a finite sum, got {a}, {b}")):
            scale(trace, a, b)

    @given(
        c=st.floats(min_value=0.1, max_value=10.0),
        d=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_invariance(self, c, d):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        base = scale(SampledTrace(10.0, x), 50.0, 50.0)
        moved = scale(SampledTrace(10.0, c * x + d), 50.0, 50.0)
        assert np.allclose(base.samples, moved.samples, atol=1e-9)


class TestCaptureConfig:
    FIELDS = ["sample_rate", "duration", "scale_a", "scale_b", "bandwidth"]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
    def test_setting_not_above_zero_refused(self, field, bad):
        settings_ = dict(sample_rate=6e6, duration=0.01)
        settings_[field] = bad
        with pytest.raises(ValueError, match=rf"^{field} must be > 0, got {bad}$"):
            CaptureConfig(**settings_)

    @pytest.mark.parametrize("field", ["scale_a", "scale_b", "bandwidth"])
    def test_infinite_setting_refused(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got inf$"):
            CaptureConfig(sample_rate=6e6, duration=0.01, **{field: math.inf})

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_snr_that_is_not_a_level_refused(self, bad):
        # synthesize reads both as +inf would be read: no noise at all
        with pytest.raises(ValueError, match=rf"^snr_db must be within "
                           rf"\+/-3080.0 dB or inf \(no noise\), got {bad}$"):
            CaptureConfig(sample_rate=6e6, duration=0.01, snr_db=bad)

    # past the bounds 10**(snr / 10) overflows (from 3,083 dB), or the
    # noise's scale does (from about -3,086 dB)
    @pytest.mark.parametrize("bad", [3081.0, -3081.0, 4000.0, -4000.0, 1e308,
                                     -1e308])
    def test_snr_outside_the_float_range_refused(self, bad):
        with pytest.raises(ValueError, match=rf"^snr_db must be within "
                           rf"\+/-3080.0 dB or inf \(no noise\), "
                           rf"got {re.escape(str(bad))}$"):
            CaptureConfig(sample_rate=6e6, duration=0.01, snr_db=bad)

    @pytest.mark.parametrize("snr_db", [-3080.0, -300.0, -0.0, 15.0, 3080.0,
                                        math.inf])
    def test_finite_or_noise_free_snr_accepted(self, snr_db):
        assert CaptureConfig(6e6, 0.01, snr_db=snr_db).snr_db == snr_db

    @pytest.mark.parametrize("snr_db", [-3080.0, 3080.0])
    def test_snr_at_the_bounds_gives_a_finite_capture(self, library, snr_db):
        trace = synthesize(library[0], CaptureConfig(6e6, 0.01, snr_db=snr_db))
        assert np.isfinite(trace.samples).all()

    def test_infinite_sample_count_refused(self):
        with pytest.raises(ValueError, match=r"sample_rate \* duration is inf "):
            CaptureConfig(sample_rate=math.inf, duration=0.01)


class TestDenoise:
    def test_passband_transparent(self):
        t = np.arange(60000) / 6e6
        tone = np.sin(TWO_PI * 5e5 * t)
        out = denoise(SampledTrace(6e6, tone), 5e5, 2e5)
        corr = np.corrcoef(tone, out.samples)[0, 1]
        assert corr >= 0.999

    def test_out_of_band_tone_crushed(self):
        t = np.arange(60000) / 6e6
        f_out = 5e5 + 2 * 2e5
        tone = np.sin(TWO_PI * f_out * t)
        out = denoise(SampledTrace(6e6, tone), 5e5, 2e5)
        bin_idx = int(round(f_out * len(t) / 6e6))
        before = np.abs(np.fft.rfft(tone))[bin_idx]
        after = np.abs(np.fft.rfft(out.samples))[bin_idx]
        assert 20 * math.log10(before / max(after, 1e-30)) >= 40.0

    def test_snr_improvement_on_ssc_fixture(self):
        profile = SscProfile("p", f0=5e5, fm=2e4, df=0.005)
        cfg = CaptureConfig(sample_rate=6e6, duration=0.02, snr_db=10.0,
                            bandwidth=2e5)
        noisy = synthesize(profile, cfg, seed=11)
        clean = synthesize(profile, _clean(cfg))
        cleaned = denoise(noisy, profile.f0, cfg.bandwidth)
        ref = denoise(clean, profile.f0, cfg.bandwidth)
        snr_in = np.mean(clean.samples ** 2) / np.mean(
            (noisy.samples - clean.samples) ** 2
        )
        snr_out = np.mean(ref.samples ** 2) / np.mean(
            (cleaned.samples - ref.samples) ** 2
        )
        gain_db = 10 * math.log10(snr_out / snr_in)
        assert gain_db >= 6.0

    def test_band_outside_nyquist_rejected(self):
        trace = SampledTrace(6e6, np.zeros(1024))
        with pytest.raises(ValueError):
            denoise(trace, 2.95e6, 2e5)

    @pytest.mark.parametrize("n", [272, 1008, 1040, 60000])
    def test_matches_time_domain_reference(self, library, n):
        x = np.random.default_rng(n).normal(size=n)
        trace = SampledTrace(6e6, x, start_time=0.25)
        for f0 in sorted({p.f0 for p in library}):
            want = band_denoise(x, 6e6, f0, 2e5)
            got = denoise(trace, f0, 2e5)
            assert got.start_time == 0.25
            assert got.samples.shape == want.shape
            assert np.max(np.abs(got.samples - want)) <= 1e-12 * np.max(np.abs(x))


class TestBandpass:
    """The numpy band-pass taps against scipy.signal's window-method design,
    which they replaced."""

    FS = 6e6

    @pytest.fixture(scope="class")
    def bands(self, library):
        return sorted({p.f0 for p in library})

    def test_taps_match_firwin_on_bundled_bands(self, bands):
        assert len(bands) == 5
        for f0 in bands:
            lo, hi = f0 - 1e5, f0 + 1e5
            taps = _bandpass_taps(BANDPASS_TAPS, lo, hi, self.FS)
            ref = firwin(BANDPASS_TAPS, [lo, hi], pass_zero=False, fs=self.FS)
            np.testing.assert_allclose(taps, ref, rtol=0, atol=1e-15)

    @given(
        numtaps=st.integers(min_value=0, max_value=512).map(lambda k: 2 * k + 1),
        lo_frac=st.floats(min_value=1e-3, max_value=0.98),
        share=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_taps_match_firwin_on_drawn_bands(self, numtaps, lo_frac, share):
        # band edges as fractions of Nyquist; the upper edge takes ``share``
        # of the room between the lower edge and 0.999
        nyquist = 0.5 * self.FS
        lo = lo_frac * nyquist
        hi = (lo_frac + (0.999 - lo_frac) * share) * nyquist
        taps = _bandpass_taps(numtaps, lo, hi, self.FS)
        ref = firwin(numtaps, [lo, hi], pass_zero=False, fs=self.FS)
        np.testing.assert_allclose(taps, ref, rtol=0, atol=1e-15)


class TestClassify:
    def test_closed_loop_label(self, library):
        bank = build_template_bank(library, FAST_CFG)
        for profile in library[::5]:
            trace = synthesize(profile, FAST_CFG, seed=5)
            label, confidences = classify(trace, library, FAST_CFG, bank=bank)
            assert label == profile.label
            assert confidences[label] >= 0.6

    def test_pure_noise_unknown(self, library):
        rng = np.random.default_rng(99)
        trace = SampledTrace(6e6, rng.normal(size=60000))
        label, confidences = classify(trace, library, FAST_CFG)
        assert label is None
        assert max(confidences.values()) < 0.6

    def test_fm_doubling_separated(self):
        a = SscProfile("a", f0=5e5, fm=2e4, df=0.008)
        b = SscProfile("b", f0=5e5, fm=4e4, df=0.008)
        pair = [a, b]
        bank = build_template_bank(pair, FAST_CFG)
        for src in pair:
            trace = synthesize(src, FAST_CFG, seed=21)
            label, _ = classify(trace, pair, FAST_CFG, bank=bank)
            assert label == src.label

    def test_golden_confidences(self, library):
        cfg = CaptureConfig(sample_rate=6e6, duration=0.1, snr_db=15.0,
                            bandwidth=2e5)
        bank = build_template_bank(library, cfg)
        index = {p.label: i for i, p in enumerate(library)}
        for capture, (want_label, want) in GOLDEN_CONFIDENCES.items():
            if capture == "noise":
                rng = np.random.default_rng(5)
                trace = SampledTrace(6e6, rng.normal(size=600_000))
            else:
                i = index[capture]
                trace = synthesize(library[i], cfg, seed=100 + i)
            label, confidences = classify(trace, library, cfg, bank=bank)
            assert label == want_label
            assert list(confidences) == [p.label for p in library]
            for got, expected in zip(confidences.values(), want, strict=True):
                assert abs(got - expected) <= 1e-12

    def test_empty_library_rejected(self):
        with pytest.raises(ValueError):
            classify(SampledTrace(6e6, np.ones(16)), [], FAST_CFG)

    def test_sample_rate_mismatch_named(self, library):
        trace = SampledTrace(3e6, np.random.default_rng(0).normal(size=30000))
        with pytest.raises(ValueError, match=r"3000000\.0 Hz.*6000000\.0 Hz"):
            classify(trace, library, FAST_CFG)

    def test_capture_length_mismatch_named(self, library):
        trace = SampledTrace(6e6, np.random.default_rng(0).normal(size=30000))
        with pytest.raises(ValueError, match=r"30000 samples.*expect 60000"):
            classify(trace, library, FAST_CFG)

    def test_nan_confidence_selects_nothing(self, library):
        # A NaN confidence compared false with the threshold and was selected.
        pair = library[:2]
        trace = synthesize(pair[0], FAST_CFG, seed=5)
        bank = {label: band * math.nan
                for label, band in build_template_bank(pair, FAST_CFG).items()}
        label, confidences = classify(trace, pair, FAST_CFG, bank=bank)
        assert label is None
        assert all(math.isnan(c) for c in confidences.values())

    def test_trace_too_wide_to_scale_rejected(self, library):
        samples = np.full(60000, 1.5e308)
        samples[1::2] = -1.5e308
        with pytest.raises(ValueError, match="too wide to scale"):
            classify(SampledTrace(6e6, samples), library, FAST_CFG)

    def test_repeated_label_refused(self, library):
        pair = [SscProfile("a", f0=5e5, fm=2e4, df=0.008),
                SscProfile("a", f0=1e6, fm=2e4, df=0.008)]
        trace = synthesize(pair[1], FAST_CFG, seed=5)
        named = "^profile library repeats the label 'a'$"
        with pytest.raises(ValueError, match=named):
            build_template_bank(pair, FAST_CFG)
        with pytest.raises(ValueError, match=named):
            classify(trace, pair, FAST_CFG)
        bank = build_template_bank(pair[1:], FAST_CFG)
        with pytest.raises(ValueError, match=named):
            classify(trace, pair, FAST_CFG, bank=bank)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_capture_rejected(self, library, bad):
        samples = np.random.default_rng(0).normal(size=60000)
        samples[1234] = bad
        with pytest.raises(ValueError, match="sample 1234 "):
            classify(SampledTrace(6e6, samples), library, FAST_CFG)


class TestDenoisedBand:
    """The band's bins, as ``classify`` takes them from the capture's
    spectrum, against the time-domain reference pipeline: the band-pass,
    ``oracles.td_denoise``, then the full-length rfft and its frequency
    mask."""

    FS = 6e6

    @given(
        n=st.integers(min_value=17, max_value=375).map(lambda k: 16 * k),
        f0_frac=st.floats(min_value=0.1, max_value=0.9),
        bandwidth=st.floats(min_value=2e4, max_value=5e5),
    )
    @example(n=272, f0_frac=0.3, bandwidth=2e5)     # the shortest length
    @example(n=288, f0_frac=0.3, bandwidth=2e5)
    @example(n=1008, f0_frac=0.3, bandwidth=2e5)    # around the longest
    @example(n=1024, f0_frac=0.3, bandwidth=2e5)    # edge buffer
    @example(n=1040, f0_frac=0.3, bandwidth=2e5)
    @settings(max_examples=60, deadline=None)
    def test_matches_time_domain_on_drawn_lengths(self, n, f0_frac, bandwidth):
        # Rounding in either path scales with the whole spectrum, so the
        # tolerance is relative to its peak: a band the filter leaves near
        # 1e-18 agrees only to the peak's rounding.
        f0 = f0_frac * 0.5 * self.FS
        x = np.random.default_rng(n).normal(size=n)
        cleaned = band_denoise(x, self.FS, f0, bandwidth)
        want = band_bins(cleaned, self.FS, f0, bandwidth)
        got = _denoised_band(_capture_spectrum(x), n, self.FS, f0, bandwidth)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= (
            1e-12 * np.max(np.abs(np.fft.rfft(cleaned))))

    @pytest.mark.parametrize("n", [60000, 120000])
    def test_bundled_bands_match_time_domain(self, library, n):
        x = np.random.default_rng(n).normal(size=n)
        capture = _capture_spectrum(x)
        for f0 in sorted({p.f0 for p in library}):
            want = band_bins(band_denoise(x, self.FS, f0, 2e5), self.FS, f0, 2e5)
            got = _denoised_band(capture, n, self.FS, f0, 2e5)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @given(
        n=st.integers(min_value=17, max_value=375).map(lambda k: 16 * k),
        lo_frac=st.floats(min_value=1e-6, max_value=0.95),
        share=st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    )
    @example(n=272, lo_frac=0.3, share=0.1)         # the shortest, corrected
    @example(n=1008, lo_frac=0.3, share=0.1)        # at its own length
    @example(n=1024, lo_frac=1e-6, share=0.01)     # at 0 Hz
    @example(n=1024, lo_frac=0.9, share=1 - 1e-9)  # at Nyquist
    @example(n=1040, lo_frac=1e-6, share=1 - 1e-9)  # all of (0, Nyquist)
    @example(n=6000, lo_frac=0.3, share=0.1)
    @settings(max_examples=60, deadline=None)
    def test_subbands_match_dwt_of_bandpass(self, n, lo_frac, share):
        # the band [lo, hi] takes ``share`` of the room between lo and Nyquist
        nyquist = 0.5 * self.FS
        lo = lo_frac * nyquist
        hi = lo + share * (nyquist - lo)
        f0, bandwidth = 0.5 * (lo + hi), hi - lo
        x = np.random.default_rng(n).normal(size=n)
        a, details = _band_subbands(_capture_spectrum(x), n, self.FS, f0,
                                    bandwidth)
        want_a, want_details = td_dwt(
            band_bandpass(x, self.FS, f0, bandwidth), WAVELET_LEVELS)
        for got, want in zip([a, *details], [want_a, *want_details],
                             strict=True):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("n,accepted", [
        (16, False), (240, False), (256, False), (257, False), (272, True),
        (1000, False), (1008, True), (1024, True), (1025, False),
        (1040, True), (60000, True), (60001, False), (600000, True),
        (600008, False),
    ])
    def test_length_rule(self, n, accepted):
        refusal = length_refusal(n, self.FS)
        assert (refusal is None) is accepted
        if accepted:
            assert capture_length(CaptureConfig(self.FS, n / self.FS)) == n
            return
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            CaptureConfig(self.FS, n / self.FS)
        with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
            denoise(SampledTrace(self.FS, np.zeros(n)), 5e5, 2e5)
        # the durations offered are those of the accepted lengths next to n
        lengths = range(272, max(n, 272) + 16, 16)
        below = [m for m in lengths if m <= n][-1:]
        above = [m for m in lengths if m >= n][:1]
        durations = re.findall(r"([^ ]+) s \((\d+) samples\)", refusal)
        assert [int(m) for _, m in durations] == sorted({*below, *above})
        for duration, m in durations:
            cfg = CaptureConfig(self.FS, float(duration))
            assert capture_length(cfg) == int(m)

    @staticmethod
    def _mask_bins(n, sample_rate, f0, bandwidth):
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        return np.flatnonzero((freqs >= f0 - 0.5 * bandwidth)
                              & (freqs <= f0 + 0.5 * bandwidth))

    @pytest.mark.parametrize("n,f0,bandwidth", [
        (60000, 5e5, 2e5),       # edges 4e5 and 6e5 Hz land on bins
        (600000, 1.3e6, 2e5),
        (48, 1.25e6, 2.5e5),     # edges on bins in exact arithmetic only
        (1008, 7e5, 2e3),        # between two bins: no bins at all
    ])
    def test_bins_match_rfftfreq_mask(self, n, f0, bandwidth):
        start, stop, _ = _band_synthesis(n, self.FS, f0, bandwidth)
        want = self._mask_bins(n, self.FS, f0, bandwidth)
        assert np.array_equal(np.arange(start, stop), want)


class TestBandResponseTable:
    """The held band tables (band responses, and band bins with their
    synthesis responses) are keyed by configuration: a band, its filter
    length and the FFT size or capture length, never by a capture."""

    CFG = CaptureConfig(sample_rate=6e6, duration=0.02, snr_db=15.0,
                        bandwidth=2e5)

    def test_second_capture_retains_nothing(self, library):
        bank = build_template_bank(library, self.CFG)
        first = synthesize(library[0], self.CFG, seed=1)
        classify(first, library, self.CFG, bank=bank)
        fresh = synthesize(library[7], self.CFG, seed=2)
        misses = (_band_response.cache_info().misses,
                  _band_synthesis.cache_info().misses,
                  _analysis_responses.cache_info().misses)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            label, _ = classify(fresh, library, self.CFG, bank=bank)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert label == library[7].label
        # a table built for this capture would show as a miss
        assert (_band_response.cache_info().misses,
                _band_synthesis.cache_info().misses,
                _analysis_responses.cache_info().misses) == misses
        assert retained < 1 << 20

    def test_more_carriers_than_slots(self):
        slots = _band_response.cache_info().maxsize
        library = [SscProfile(f"p{i}", f0=3e5 + 2e5 * i, fm=2e4, df=0.005)
                   for i in range(slots + 3)]
        cfg = CaptureConfig(sample_rate=6e6, duration=0.001, bandwidth=2e5)
        build_template_bank(library, cfg)
        assert _band_response.cache_info().currsize == slots
        synthesis = _band_synthesis.cache_info()
        assert synthesis.currsize <= synthesis.maxsize == slots

    def test_response_is_read_only(self):
        response = _band_response(BANDPASS_TAPS, 4e5, 6e5, 6e6, 1024)
        assert response.dtype == np.float64
        assert not response.flags.writeable

    def test_synthesis_responses_are_read_only(self):
        start, stop, responses = _band_synthesis(6000, 6e6, 5e5, 2e5)
        assert len(responses) == 5
        for response in responses:
            assert response.shape == (stop - start,)
            assert not response.flags.writeable

    def test_analysis_responses_are_read_only(self):
        responses = _analysis_responses(6000)
        assert responses.shape == (2, 3001)
        assert responses.dtype == np.complex128
        assert not responses.flags.writeable
        assert _analysis_responses.cache_info().maxsize == 1


class TestIo:
    # a bound on the trace length that no test trace reaches
    ANY = 2**64

    def test_library_file_shape(self, library):
        assert len(library) == 15
        assert all(p.f0 > p.fm > 0 and p.df > 0 for p in library)

    @pytest.mark.parametrize("row, bad", [
        ("a,500000,20000,nan", "500000.0, 20000.0, nan"),
        ("a,500000,20000,inf", "500000.0, 20000.0, inf"),
        ("a,inf,20000,0.005", "inf, 20000.0, 0.005"),
        ("a,500000,nan,0.005", "500000.0, nan, 0.005"),
    ])
    def test_non_finite_profile_refused(self, tmp_path, row, bad):
        path = tmp_path / "lib.csv"
        path.write_text(f"label,f0_hz,fm_hz,df_frac\nb,400000,20000,0.005\n{row}\n")
        with pytest.raises(ValueError, match=rf"^line 3: profile 'a': f0, fm "
                           rf"and df must be finite, got {bad}$"):
            load_profile_library(path)

    def test_repeated_label_names_both_lines(self, tmp_path):
        path = tmp_path / "lib.csv"
        path.write_text("label,f0_hz,fm_hz,df_frac\na,500000,20000,0.005\n"
                        "b,400000,20000,0.005\n a ,1000000,20000,0.005\n")
        with pytest.raises(ValueError, match=r"^line 4: label 'a' repeats line 2$"):
            load_profile_library(path)

    @pytest.mark.parametrize("row", ["a,500000", "a,500000,20000,x"])
    def test_malformed_profile_row_named(self, tmp_path, row):
        path = tmp_path / "lib.csv"
        path.write_text(f"label,f0_hz,fm_hz,df_frac\n{row}\n")
        with pytest.raises(ValueError, match=r"^line 2: "):
            load_profile_library(path)

    @staticmethod
    @contextlib.contextmanager
    def _bin(tmp_path, trace, source, count=None):
        """``t.bin`` holding ``trace`` as ``save_trace_bin`` writes it, its
        header's sample count replaced by ``count`` if given: a regular file,
        or a named pipe (which reports no size) fed by a thread."""
        save_trace_bin(trace, tmp_path / "saved.bin")
        data = bytearray((tmp_path / "saved.bin").read_bytes())
        if count is not None:
            data[24:32] = count.to_bytes(8, "little")
        path = tmp_path / "t.bin"
        if source == "file":
            path.write_bytes(data)
            yield path
            return
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes")
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(bytes(data),))
        writer.start()
        try:
            yield path
        finally:
            writer.join()

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_bin_round_trip(self, tmp_path, source):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 257), start_time=0.5)
        with self._bin(tmp_path, trace, source) as path:
            back = load_trace_bin(path, 257)
        assert back.sample_rate == trace.sample_rate
        assert back.start_time == 0.5
        assert np.array_equal(back.samples, trace.samples)

    def test_csv_round_trip(self, tmp_path):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 33))
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        back = load_trace_csv(path, 33)
        assert back.sample_rate == trace.sample_rate
        assert np.array_equal(back.samples, trace.samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError):
            load_trace_bin(path, self.ANY)

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("count", [2**40, 2**61, 2**64 - 1, 258])
    def test_header_count_beyond_the_file_refused(self, tmp_path, count,
                                                  source):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 257))
        with self._bin(tmp_path, trace, source, count) as path, \
                pytest.raises(ValueError, match=rf"t\.bin: truncated trace: "
                              rf"the header states {count} samples, the file "
                              rf"holds 257"):
            load_trace_bin(path, self.ANY)

    @pytest.mark.parametrize("source", ["file", "pipe"])
    def test_header_count_beyond_the_bound_refused(self, tmp_path, source):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 257))
        with self._bin(tmp_path, trace, source) as path, \
                pytest.raises(ValueError, match=r"t\.bin: the header states 257 "
                              r"samples, more than the 256 expected"):
            load_trace_bin(path, 256)

    def test_bound_checked_before_the_body_is_read(self, tmp_path):
        # the header claims 258 samples of a 10-sample body: refused for its
        # count, before the body would show it cut short
        trace = SampledTrace(6e6, np.linspace(-1, 1, 10))
        with self._bin(tmp_path, trace, "pipe", 258) as path, \
                pytest.raises(ValueError, match=r"states 258 samples, more than "
                              r"the 257 expected"):
            load_trace_bin(path, 257)

    def test_csv_read_stops_past_the_bound(self, tmp_path):
        path = tmp_path / "t.csv"
        save_trace_csv(SampledTrace(6e6, np.linspace(-1, 1, 34)), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not a number\n")
        with pytest.raises(ValueError, match=r"t\.csv: holds more than the 33 "
                           r"samples expected"):
            load_trace_csv(path, 33)

    @pytest.mark.parametrize("size", [0, 5, 8, 21, 22, 1000])
    def test_bounded_read_stops_at_size_or_end(self, size):
        data = bytes(range(22))
        assert _read_bounded(io.BytesIO(data), size, chunk=4) == data[:size]

    def test_truncated_header_refused(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(b"DLTRACE1" + bytes(23))
        with pytest.raises(ValueError, match=r"t\.bin: truncated header"):
            load_trace_bin(path, self.ANY)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_non_finite_sample_rejected(self, tmp_path, fmt, bad):
        samples = np.linspace(-1, 1, 33)
        samples[17] = bad
        path = tmp_path / f"t.{fmt}"
        save, load = ((save_trace_csv, load_trace_csv) if fmt == "csv"
                      else (save_trace_bin, load_trace_bin))
        save(SampledTrace(6e6, samples), path)
        with pytest.raises(ValueError, match=rf"t\.{fmt}: sample 17 "):
            load(path, 33)
