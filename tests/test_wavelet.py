import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from driftlab import fingerprint
from driftlab._wavelet import (
    DEFAULT_LO,
    analysis_responses,
    daubechies_lowpass,
    denoise,
    dwt,
    idwt,
    reconstruction_dft,
    soft_threshold,
    spectral_dwt,
    synthesis_responses,
    universal_threshold,
)


class TestFilters:
    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_orthonormal(self, order):
        h = daubechies_lowpass(order)
        assert len(h) == 2 * order
        assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-11)
        assert (h ** 2).sum() == pytest.approx(1.0, abs=1e-11)
        for k in range(1, order):
            shifted = np.roll(h, 2 * k)
            assert abs(np.dot(h, shifted)) < 1e-10

    def test_default_is_db8(self):
        assert len(DEFAULT_LO) == 16

    def test_vanishing_moments(self):
        # high-pass of db4 kills cubics: detail coefficients of a polynomial
        # signal vanish away from the wrap-around seam
        h = daubechies_lowpass(4)
        t = np.linspace(0.0, 1.0, 256)
        poly = 1.0 + 2.0 * t - 3.0 * t ** 2 + 0.5 * t ** 3
        _, details = dwt(poly, 1, h)
        interior = details[0][4:-4]
        assert np.max(np.abs(interior)) < 1e-10 * np.max(np.abs(poly))


class TestTransform:
    @pytest.mark.parametrize("n", [64, 4096])
    def test_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        a, d = dwt(x, 4)
        y = idwt(a, d)
        assert np.max(np.abs(x - y)) < 1e-9

    @pytest.mark.parametrize("n", [100, 1000])
    def test_length_not_a_multiple_of_the_block_refused(self, n):
        # 100 and 1000 leave 4 and 8 over a multiple of 16
        x = np.random.default_rng(n).normal(size=n)
        with pytest.raises(ValueError, match=rf"a 4-level DWT needs a multiple "
                           rf"of 16 samples, got {n}"):
            dwt(x, 4)
        with pytest.raises(ValueError, match=rf"got {n}"):
            denoise(x, 4)

    def test_energy_preserved_on_block_lengths(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=512)
        a, d = dwt(x, 4)
        energy = (a ** 2).sum() + sum((dd ** 2).sum() for dd in d)
        assert energy == pytest.approx((x ** 2).sum(), rel=1e-10)


# Ties come from a few drawn values repeated; the specials are the zeros, the
# smallest normal and subnormals, and values near 1e308 whose pairwise sum
# (np.median's mean of the two middle values) overflows.
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
             1e308, -1.5e308, 1.7976931348623157e308, math.inf]
_VALUES = st.one_of(st.sampled_from(_SPECIALS), st.floats(allow_nan=False),
                    st.floats(-1e-307, 1e-307),
                    st.floats(1e308, 1.7976931348623157e308))


@st.composite
def _detail_bands(draw):
    """Odd and even lengths from 1, with a NaN at one place or none."""
    pool = draw(st.lists(_VALUES, min_size=1, max_size=4) | st.just([]))
    values = st.sampled_from(pool) if pool else _VALUES
    x = draw(hnp.arrays(np.float64, st.integers(1, 600), elements=values))
    nan_at = draw(st.none() | st.integers(0, len(x) - 1))
    if nan_at is not None:
        x[nan_at] = math.nan
    return x


class TestThresholding:
    def test_soft_threshold_shrinks_toward_zero(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = soft_threshold(x, 1.0)
        assert np.allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_soft_threshold_matches_reference_expression(self):
        # the in-place form performs the same roundings as the expression
        x = np.random.default_rng(4).normal(size=4097)
        x[:3] = [0.0, -0.0, 1.0]
        before = x.copy()
        want = np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0)
        assert soft_threshold(x, 1.0).tobytes() == want.tobytes()
        assert np.array_equal(x, before)

    def test_universal_threshold_tracks_noise_scale(self):
        rng = np.random.default_rng(1)
        for sigma in (0.1, 1.0):
            noise = rng.normal(scale=sigma, size=4096)
            _, details = dwt(noise, 1)
            thr = universal_threshold(details[0], 4096)
            expected = sigma * math.sqrt(2.0 * math.log(4096))
            assert thr == pytest.approx(expected, rel=0.15)

    @settings(max_examples=300, deadline=None)
    @given(x=_detail_bands(), n=st.integers(0, 1 << 40))
    @example(x=np.array([1e308, 1.5e308]), n=4)
    @example(x=np.array([-0.0, 0.0, 5e-324, -5e-324]), n=8)
    @example(x=np.array([2.0, math.nan, 1.0]), n=6)
    def test_universal_threshold_is_np_median_bit_for_bit(self, x, n):
        before = x.tobytes()
        with np.errstate(over="ignore"):
            got = universal_threshold(x, n)
            want = (np.median(np.abs(x)) / 0.6745
                    * math.sqrt(2.0 * math.log(max(n, 2))))
        assert x.tobytes() == before
        if np.isnan(x).any():
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_universal_threshold_on_a_criterion_9_band(self):
        d = criterion9_detail()
        before = d.copy()
        got = universal_threshold(d, 2 * len(d))
        want = np.median(np.abs(d)) / 0.6745 * math.sqrt(2.0 * math.log(2 * len(d)))
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.array_equal(d, before)

    def test_denoise_reduces_noise_on_smooth_signal(self):
        rng = np.random.default_rng(2)
        t = np.arange(4096) / 4096.0
        clean = np.sin(2 * math.pi * 30 * t)
        noisy = clean + 0.3 * rng.normal(size=4096)
        out = denoise(noisy, 4)
        assert np.std(out - clean) < 0.5 * np.std(noisy - clean)


@functools.lru_cache(maxsize=1)
def criterion9_detail() -> np.ndarray:
    """The finest detail band (300,000 samples) of the first bundled
    profile's band in a criterion-9 capture: 6 MHz, 0.1 s, 15 dB SNR,
    seed 100, scaled as ``classify`` scales it."""
    cfg = fingerprint.CaptureConfig(sample_rate=6e6, duration=0.1, snr_db=15.0,
                                    bandwidth=2e5)
    profile = fingerprint.load_profile_library()[0]
    trace = fingerprint.scale(fingerprint.synthesize(profile, cfg, seed=100),
                              cfg.scale_a, cfg.scale_b)
    _, details = fingerprint._band_subbands(
        fingerprint._capture_spectrum(trace.samples),
        fingerprint.capture_length(cfg), cfg.sample_rate, profile.f0,
        cfg.bandwidth)
    return details[0]


def _periodized_matrix(taps, n):
    """Rows y[k] = sum_m taps[m] x[(2k + 1 - m) mod n], k < n/2: the odd rows
    of the explicit n x n circulant of ``taps``, built entry by entry."""
    rows = np.zeros((n // 2, n))
    k = np.arange(n // 2)
    for m, tap in enumerate(taps):
        rows[k, (2 * k + 1 - m) % n] += tap
    return rows


def _dense_pair(n, lo=DEFAULT_LO):
    hi = lo[::-1].copy()
    hi[1::2] *= -1.0
    return _periodized_matrix(lo, n), _periodized_matrix(hi, n)


class TestAgainstDenseReference:
    """The polyphase steps against dense periodized-convolution matrices:
    analysis applies (L, H) level by level, synthesis their transposes.
    Lengths 2, 8 and 16 give phases shorter than the 8-tap db8 phase
    filters, so the circular extension wraps more than once."""

    CASES = [(2, 1), (8, 3), (16, 4), (64, 4), (4096, 4)]

    @pytest.mark.parametrize("n,levels", CASES)
    def test_dwt_matches_dense(self, n, levels):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        ref = x
        details = []
        for _ in range(levels):
            low, high = _dense_pair(len(ref))
            ref, d = low @ ref, high @ ref
            details.append(d)
        a, got_details = dwt(x, levels)
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12)
        for got, want in zip(got_details, details, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,levels", CASES)
    def test_idwt_matches_dense_adjoint(self, n, levels):
        rng = np.random.default_rng(n + 1)
        details = [rng.normal(size=n >> (j + 1)) for j in range(levels)]
        a = rng.normal(size=n >> levels)
        ref = a
        for j in reversed(range(levels)):
            low, high = _dense_pair(n >> j)
            ref = low.T @ ref + high.T @ details[j]
        got = idwt(a, details)
        assert len(got) == n
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lo", [
        daubechies_lowpass(1), daubechies_lowpass(3), np.array([0.3, 0.5, 0.2]),
    ], ids=["db1", "db3", "odd-length"])
    def test_other_filter_lengths(self, lo):
        x = np.random.default_rng(len(lo)).normal(size=16)
        low, high = _dense_pair(16, lo)
        a, (d,) = dwt(x, 1, lo)
        np.testing.assert_allclose(a, low @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d, high @ x, rtol=0, atol=1e-12)
        y = np.random.default_rng(len(lo) + 1).normal(size=(2, 8))
        np.testing.assert_allclose(idwt(y[0], [y[1]], lo),
                                   low.T @ y[0] + high.T @ y[1],
                                   rtol=0, atol=1e-12)


class TestReconstructionDft:
    """Bins of the reconstruction's DFT from the subbands' own DFTs, against
    the DFT of ``idwt``'s time-domain output.  n = 112 = 7 * 16, so at every
    level the subband length is even and the full range of bins wraps past
    n_j / 2 of each subband."""

    N = 112
    FILTERS = [daubechies_lowpass(1), daubechies_lowpass(3), DEFAULT_LO,
               np.array([0.3, 0.5, 0.2])]
    IDS = ["db1", "db3", "db8", "odd-length"]

    @staticmethod
    def _subbands(n, levels, seed):
        rng = np.random.default_rng(seed)
        return (rng.normal(size=n >> levels),
                [rng.normal(size=n >> (j + 1)) for j in range(levels)])

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("lo", FILTERS, ids=IDS)
    @pytest.mark.parametrize("start,stop", [(0, N), (5, 61), (50, 57)])
    def test_matches_dft_of_idwt(self, lo, levels, start, stop):
        a, details = self._subbands(self.N, levels, levels)
        want = np.fft.fft(idwt(a, details, lo))[start:stop]
        responses = synthesis_responses(self.N, levels, start, stop, lo)
        got = reconstruction_dft(a, details, start, stop, responses)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lo", FILTERS, ids=IDS)
    def test_zero_subbands_skipped(self, lo):
        a, details = self._subbands(self.N, 4, 9)
        details[0][:] = 0.0
        details[3][:] = 0.0
        want = np.fft.fft(idwt(a, details, lo))
        responses = synthesis_responses(self.N, 4, 0, self.N, lo)
        got = reconstruction_dft(a, details, 0, self.N, responses)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestSpectralDwt:
    """Subbands taken from the signal's rfft against the time-domain DWT."""

    FILTERS = TestReconstructionDft.FILTERS
    IDS = TestReconstructionDft.IDS

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("lo", FILTERS, ids=IDS)
    # 112 / 16 and 48 / 16 are odd: the last level folds an odd half-length
    @pytest.mark.parametrize("n", [48, 112, 128, 1040])
    def test_matches_dwt(self, lo, levels, n):
        x = np.random.default_rng(n + levels).normal(size=n)
        a, details = spectral_dwt(np.fft.rfft(x), n, levels,
                                  analysis_responses(n, lo))
        want_a, want_details = dwt(x, levels, lo)
        for got, want in zip([a, *details], [want_a, *want_details],
                             strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
