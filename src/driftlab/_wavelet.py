"""Minimal orthogonal wavelet transform with universal soft thresholding.

Only what the denoising pipeline needs: a periodized multi-level DWT on a
compactly supported orthogonal (Daubechies) wavelet of a signal whose
length 2**levels divides, its exact inverse, the subbands straight from the
signal's DFT, the inverse's DFT straight from the subbands' DFTs, and soft
thresholding at sigma * sqrt(2 ln n), sigma from the finest detail band's
median magnitude: one selection, not np.median's slower multi-index one.

Filter taps are computed at import time by the classic spectral
factorization of the Daubechies binomial polynomial; the default order of 8
vanishing moments keeps subband leakage of narrowband signals far below any
realistic noise floor, so the threshold estimate reads noise rather than
signal.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np


def daubechies_lowpass(order: int) -> np.ndarray:
    """Analysis low-pass taps of the Daubechies wavelet with ``order``
    vanishing moments (2 * order taps), normalised to sum sqrt(2)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)
    # P(y) = sum_k C(order-1+k, k) y^k with y = (2 - z - 1/z)/4; multiplying
    # by z^(order-1) gives a polynomial in z whose inside-unit-circle roots
    # form the minimum-phase factor Q(z).
    y_poly = np.array([-0.25, 0.5, -0.25])  # ascending coeffs of y * z
    total = np.zeros(2 * order - 1)
    for k in range(order):
        term = np.array([1.0])
        for _ in range(k):
            term = np.convolve(term, y_poly)
        shifted = np.zeros_like(total)
        shifted[order - 1 - k : order - 1 - k + len(term)] = (
            comb(order - 1 + k, k) * term
        )
        total += shifted
    roots = np.roots(total[::-1])
    q = np.array([1.0 + 0j])
    for r in roots:
        if abs(r) < 1.0:
            q = np.convolve(q, [1.0, -r])
    h = np.real(q)
    for _ in range(order):
        h = np.convolve(h, [0.5, 0.5])
    return h * (math.sqrt(2.0) / h.sum())


DEFAULT_LO = daubechies_lowpass(8)


def _filters(lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hi = lo[::-1].copy()
    hi[1::2] *= -1.0
    if len(lo) % 2:
        # a zero tap keeps the polyphase split even and the sums unchanged
        lo, hi = np.append(lo, 0.0), np.append(hi, 0.0)
    return lo, hi


def _analysis_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Periodized filter bank y[k] = sum_m f[m] x[(2k + 1 - m) mod n] in
    # polyphase form: y[k] = sum_r f[2r] x_odd[k - r] + f[2r + 1] x_even[k - r],
    # indices mod n/2.  Each phase gets a circular lead of width - 1 samples
    # (``np.pad`` in wrap mode repeats phases shorter than that), so a "valid"
    # convolution yields exactly n/2 outputs.  One phase is extended at a
    # time to keep the peak footprint low.
    lead = len(lo) // 2 - 1
    phase = np.pad(x[1::2], (lead, 0), mode="wrap")
    a = np.convolve(phase, lo[0::2], "valid")
    d = np.convolve(phase, hi[0::2], "valid")
    del phase
    phase = np.pad(x[0::2], (lead, 0), mode="wrap")
    a += np.convolve(phase, lo[1::2], "valid")
    d += np.convolve(phase, hi[1::2], "valid")
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Adjoint of the analysis step: out[2i] = sum_r f[2r + 1] s[i + r] and
    # out[2i + 1] = sum_r f[2r] s[i + r], summed over the subbands s = a, d
    # with their filters f = lo, hi, indices mod n/2: a correlation, so the
    # phase taps run reversed over a circular trail of width - 1 samples.
    # One subband is extended at a time to keep the peak footprint low.
    trail = len(lo) // 2 - 1
    out = np.empty(2 * len(a))
    s = np.pad(a, (0, trail), mode="wrap")
    out[0::2] = np.convolve(s, lo[-1::-2], "valid")
    out[1::2] = np.convolve(s, lo[-2::-2], "valid")
    s = np.pad(d, (0, trail), mode="wrap")
    out[0::2] += np.convolve(s, hi[-1::-2], "valid")
    out[1::2] += np.convolve(s, hi[-2::-2], "valid")
    return out


def dwt(x: np.ndarray, levels: int, lo: np.ndarray = DEFAULT_LO):
    """Multi-level periodized DWT of a signal whose length 2**levels divides;
    returns (approximation, [d_fine..d_coarse])."""
    lo, hi = _filters(np.asarray(lo, dtype=float))
    x = np.asarray(x, dtype=float)
    if len(x) % (1 << levels):
        raise ValueError(f"a {levels}-level DWT needs a multiple of "
                         f"{1 << levels} samples, got {len(x)}")
    details = []
    a = x
    for _ in range(levels):
        a, d = _analysis_step(a, lo, hi)
        details.append(d)
    return a, details


def idwt(a: np.ndarray, details, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    lo, hi = _filters(np.asarray(lo, dtype=float))
    for d in reversed(details):
        a = _synthesis_step(a, d, lo, hi)
    return a


def universal_threshold(detail_fine: np.ndarray, n: int) -> float:
    """sigma * sqrt(2 ln n), sigma = median|d| / 0.6745 from the finest detail
    band d (left unchanged); NaN if d holds one.  One selection at the middle
    gives np.median's bits: np.median also selects the last index (its NaN
    check), and numpy's multi-index partition is several times slower."""
    mags = np.abs(detail_fine)
    h = len(mags) // 2
    mags.partition(h)   # mags[:h] <= mags[h] <= mags[h + 1:], NaN sorting last
    median = mags[h] if len(mags) % 2 else (mags[:h].max() + mags[h]) / 2.0
    if np.isnan(mags[h:].max()):
        median = np.nan
    return median / 0.6745 * math.sqrt(2.0 * math.log(max(n, 2)))


def soft_threshold(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    # sign(c) * max(|c| - threshold, 0), built in one new array
    out = np.abs(coeffs)
    out -= threshold
    np.maximum(out, 0.0, out=out)
    out *= np.sign(coeffs)
    return out


def shrink_details(details, n: int) -> list[np.ndarray]:
    """The detail bands [d_fine..d_coarse] of an n-sample signal
    soft-thresholded at its universal threshold."""
    thr = universal_threshold(details[0], n)
    return [soft_threshold(d, thr) for d in details]


def denoise(x: np.ndarray, levels: int = 4, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    """Soft universal-threshold denoising of a 1-D signal."""
    a, details = dwt(x, levels, lo)
    return idwt(a, shrink_details(details, len(x)), lo)


def _level_responses(lo: np.ndarray, hi: np.ndarray, k: np.ndarray, m: int):
    # sum_t f[t] w**(t - 1) for f = lo, hi and w = exp(2 pi i k / m), with k
    # reduced mod m in integers first so large k lose no phase precision
    w = np.exp(2j * math.pi / m * (k % m))
    power = w.conj()
    lo_sum = np.zeros(len(k), dtype=complex)
    hi_sum = np.zeros(len(k), dtype=complex)
    for f_lo, f_hi in zip(lo, hi):
        lo_sum += f_lo * power
        hi_sum += f_hi * power
        power *= w
    return lo_sum, hi_sum


def analysis_responses(n: int, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    """(2, n/2 + 1) array of 1/2 w**k F(k) for k = 0..n/2, w = exp(2 pi i / n)
    and F the length-n DFT of the analysis low-pass (row 0) and high-pass
    (row 1) filter: what ``spectral_dwt`` multiplies a spectrum by.  At
    m = n / 2**level samples a level reads every 2**level-th entry, since
    F_m(k) = F_n(2**level k)."""
    lo, hi = _filters(np.asarray(lo, dtype=float))
    # _level_responses gives conj(w**k F(k))
    responses = np.array(_level_responses(lo, hi, np.arange(n // 2 + 1), n))
    np.conjugate(responses, out=responses)
    responses *= 0.5
    return responses


def _fold(response: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    # Y(k) = Z(k) + conj(Z(h - k)) for k = 0..h/2, Z = response * spectrum on
    # 0..h, h = m/2; Z is formed a half at a time
    h = len(spectrum) - 1
    q = h // 2
    y = response[:q + 1] * spectrum[:q + 1]
    upper = response[h - q:] * spectrum[h - q:]
    y += np.conjugate(upper, out=upper)[::-1]
    return y


def spectral_dwt(spectrum: np.ndarray, n: int, levels: int,
                 responses: np.ndarray):
    """``dwt(x, levels)`` of the n samples x whose rfft is ``spectrum``,
    with 2**levels dividing n and ``responses`` from ``analysis_responses(n)``.

    A step on m samples keeps the odd samples of the circular convolution
    with f, so a subband's DFT is 1/2 w**k [F(k) S(k) - conj(F(m/2 - k)
    S(m/2 - k))] with w = exp(2 pi i / m), for k = 0..m/4 on the rfft grid
    (Vaidyanathan, Multirate Systems and Filter Banks, 1993, sec. 4.1).  The
    approximation's spectrum feeds the next level; only the subbands return
    to the time domain."""
    details = []
    for level in range(levels):
        m = n >> level
        lo, hi = responses[:, ::1 << level]
        details.append(np.fft.irfft(_fold(hi, spectrum), m // 2))
        spectrum = _fold(lo, spectrum)
    return np.fft.irfft(spectrum, n >> levels), details


def synthesis_responses(n: int, levels: int, start: int, stop: int,
                        lo: np.ndarray = DEFAULT_LO) -> list[np.ndarray]:
    """F_j(k) for bins k in [start, stop) of a length-n reconstruction, one
    array per subband in the order [a, d_fine, .., d_coarse].

    One synthesis step on m samples puts subband s (m/2 samples) on the odd
    samples and correlates with its filter f, so its DFT is
    S(k mod m/2) * exp(-2 pi i k / m) * conj(F_m(k)) (Vaidyanathan, Multirate
    Systems and Filter Banks, 1993, secs. 4.1 and 5.2).  F_j is the product
    of those factors along the path from subband j up to the full length.
    """
    lo, hi = _filters(np.asarray(lo, dtype=float))
    k = np.arange(start, stop)
    through = np.ones(len(k), dtype=complex)   # low-pass path to this level
    details = []
    for level in range(levels):
        lo_k, hi_k = _level_responses(lo, hi, k, n >> level)
        details.append(through * hi_k)
        through *= lo_k
    return [through, *details]


def reconstruction_dft(a: np.ndarray, details, start: int, stop: int,
                       responses) -> np.ndarray:
    """Bins start..stop-1 of the DFT of ``idwt(a, details)``, of length
    n = len(a) * 2**len(details): Y(k) = sum_j S_j(k mod n_j) F_j(k),
    with S_j the DFT of subband j (n_j samples) and F_j the ``responses``
    that ``synthesis_responses`` gives for n, the levels, the bins and the
    filter.  All-zero subbands contribute nothing and are skipped."""
    k = np.arange(start, stop)
    out = np.zeros(len(k), dtype=complex)
    for s, f in zip([a, *details], responses, strict=True):
        if not s.any():
            continue
        m = len(s)
        idx = k % m
        upper = idx > m // 2   # past the rfft half: conjugate symmetry
        idx[upper] = m - idx[upper]
        bins = np.fft.rfft(s)[idx]
        np.conjugate(bins, out=bins, where=upper)
        bins *= f
        out += bins
    return out
