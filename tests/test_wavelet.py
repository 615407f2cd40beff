import math

import numpy as np
import pytest

from driftlab._wavelet import (
    DEFAULT_LO,
    analysis_responses,
    daubechies_lowpass,
    denoise,
    dwt,
    idwt,
    reconstruction_dft,
    shrink,
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
        _, details, _ = dwt(poly, 1, h)
        interior = details[0][4:-4]
        assert np.max(np.abs(interior)) < 1e-10 * np.max(np.abs(poly))


class TestTransform:
    @pytest.mark.parametrize("n", [64, 100, 1000, 4096])
    def test_perfect_reconstruction(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        a, d, n0 = dwt(x, 4)
        y = idwt(a, d, n0)
        assert np.max(np.abs(x - y)) < 1e-9

    def test_energy_preserved_on_block_lengths(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=512)
        a, d, _ = dwt(x, 4)
        energy = (a ** 2).sum() + sum((dd ** 2).sum() for dd in d)
        assert energy == pytest.approx((x ** 2).sum(), rel=1e-10)


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
            _, details, _ = dwt(noise, 1)
            thr = universal_threshold(details[0], 4096)
            expected = sigma * math.sqrt(2.0 * math.log(4096))
            assert thr == pytest.approx(expected, rel=0.15)

    def test_denoise_reduces_noise_on_smooth_signal(self):
        rng = np.random.default_rng(2)
        t = np.arange(4096) / 4096.0
        clean = np.sin(2 * math.pi * 30 * t)
        noisy = clean + 0.3 * rng.normal(size=4096)
        out = denoise(noisy, 4)
        assert np.std(out - clean) < 0.5 * np.std(noisy - clean)


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
    filters, so the circular extension wraps more than once; 100 is padded
    to a multiple of 16."""

    CASES = [(2, 1), (8, 3), (16, 4), (64, 4), (4096, 4), (100, 4)]

    @pytest.mark.parametrize("n,levels", CASES)
    def test_dwt_matches_dense(self, n, levels):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        ref = np.concatenate([x, np.full(-n % (1 << levels), x[-1])])
        details = []
        for _ in range(levels):
            low, high = _dense_pair(len(ref))
            ref, d = low @ ref, high @ ref
            details.append(d)
        a, got_details, n_orig = dwt(x, levels)
        assert n_orig == n
        np.testing.assert_allclose(a, ref, rtol=0, atol=1e-12)
        for got, want in zip(got_details, details, strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n,levels", CASES)
    def test_idwt_matches_dense_adjoint(self, n, levels):
        rng = np.random.default_rng(n + 1)
        block = n + (-n % (1 << levels))
        details = [rng.normal(size=block >> (j + 1)) for j in range(levels)]
        a = rng.normal(size=block >> levels)
        ref = a
        for j in reversed(range(levels)):
            low, high = _dense_pair(block >> j)
            ref = low.T @ ref + high.T @ details[j]
        got = idwt(a, details, n)
        assert len(got) == n
        np.testing.assert_allclose(got, ref[:n], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lo", [
        daubechies_lowpass(1), daubechies_lowpass(3), np.array([0.3, 0.5, 0.2]),
    ], ids=["db1", "db3", "odd-length"])
    def test_other_filter_lengths(self, lo):
        x = np.random.default_rng(len(lo)).normal(size=16)
        low, high = _dense_pair(16, lo)
        a, (d,), _ = dwt(x, 1, lo)
        np.testing.assert_allclose(a, low @ x, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d, high @ x, rtol=0, atol=1e-12)
        y = np.random.default_rng(len(lo) + 1).normal(size=(2, 8))
        np.testing.assert_allclose(idwt(y[0], [y[1]], 16, lo),
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
        want = np.fft.fft(idwt(a, details, self.N, lo))[start:stop]
        responses = synthesis_responses(self.N, levels, start, stop, lo)
        got = reconstruction_dft(a, details, start, stop, responses)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lo", FILTERS, ids=IDS)
    def test_zero_subbands_skipped(self, lo):
        a, details = self._subbands(self.N, 4, 9)
        details[0][:] = 0.0
        details[3][:] = 0.0
        want = np.fft.fft(idwt(a, details, self.N, lo))
        responses = synthesis_responses(self.N, 4, 0, self.N, lo)
        got = reconstruction_dft(a, details, 0, self.N, responses)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shrink_is_denoise_before_synthesis(self):
        x = np.random.default_rng(6).normal(size=1000)
        a, details, n = shrink(x, 4)
        assert np.array_equal(idwt(a, details, n), denoise(x, 4))


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
        want_a, want_details, _ = dwt(x, levels, lo)
        for got, want in zip([a, *details], [want_a, *want_details],
                             strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
