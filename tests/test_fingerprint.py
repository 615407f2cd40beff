import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve, firwin

from driftlab.fingerprint import (
    BANDPASS_TAPS,
    CaptureConfig,
    DegenerateTraceError,
    SscProfile,
    _bandpass,
    _bandpass_taps,
    build_template_bank,
    classify,
    denoise,
    load_profile_library,
    load_trace_bin,
    load_trace_csv,
    save_trace_bin,
    save_trace_csv,
    scale,
    synthesize,
)
from driftlab.signals import SampledTrace, TWO_PI

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


class TestBandpass:
    """The numpy band-pass against scipy.signal's window-method design and
    FFT convolution, which it replaced."""

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

    @pytest.mark.parametrize("n", [1, 100, 256, 257, 258, 1000, 60000])
    def test_filter_matches_fftconvolve_same(self, bands, n):
        x = np.random.default_rng(n).normal(size=n)
        for f0 in bands:
            taps = firwin(BANDPASS_TAPS, [f0 - 1e5, f0 + 1e5], pass_zero=False,
                          fs=self.FS)
            ref = fftconvolve(x, taps, mode="same")
            got = _bandpass(x, self.FS, f0, 2e5, BANDPASS_TAPS)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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


class TestIo:
    def test_library_file_shape(self, library):
        assert len(library) == 15
        assert all(p.f0 > p.fm > 0 and p.df > 0 for p in library)

    def test_bin_round_trip(self, tmp_path):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 257), start_time=0.5)
        path = tmp_path / "t.bin"
        save_trace_bin(trace, path)
        back = load_trace_bin(path)
        assert back.sample_rate == trace.sample_rate
        assert back.start_time == 0.5
        assert np.array_equal(back.samples, trace.samples)

    def test_csv_round_trip(self, tmp_path):
        trace = SampledTrace(6e6, np.linspace(-1, 1, 33))
        path = tmp_path / "t.csv"
        save_trace_csv(trace, path)
        back = load_trace_csv(path)
        assert back.sample_rate == trace.sample_rate
        assert np.array_equal(back.samples, trace.samples)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(ValueError):
            load_trace_bin(path)
