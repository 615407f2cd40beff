"""Minimal orthogonal wavelet transform with universal soft thresholding.

Only what the denoising pipeline needs: a periodized multi-level DWT on a
compactly supported orthogonal (Daubechies) wavelet, its exact inverse, the
DFT of that inverse taken straight from the subbands' own DFTs, and soft
thresholding at sigma * sqrt(2 ln n) with the noise scale estimated from the
finest detail band's median absolute value.

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
    """Multi-level periodized DWT; returns (approximation, [d_fine..d_coarse], n)."""
    lo, hi = _filters(np.asarray(lo, dtype=float))
    x = np.asarray(x, dtype=float)
    n_orig = len(x)
    block = 1 << levels
    if n_orig % block:
        pad = block - n_orig % block
        x = np.concatenate([x, x[-1] * np.ones(pad)])
    details = []
    a = x
    for _ in range(levels):
        a, d = _analysis_step(a, lo, hi)
        details.append(d)
    return a, details, n_orig


def idwt(a: np.ndarray, details, n_orig: int, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    lo, hi = _filters(np.asarray(lo, dtype=float))
    for d in reversed(details):
        a = _synthesis_step(a, d, lo, hi)
    return a[:n_orig]


def universal_threshold(detail_fine: np.ndarray, n: int) -> float:
    """sigma * sqrt(2 ln n) with sigma from the finest detail band."""
    sigma = np.median(np.abs(detail_fine)) / 0.6745
    return sigma * math.sqrt(2.0 * math.log(max(n, 2)))


def soft_threshold(coeffs: np.ndarray, threshold: float) -> np.ndarray:
    # sign(c) * max(|c| - threshold, 0), built in one new array
    out = np.abs(coeffs)
    out -= threshold
    np.maximum(out, 0.0, out=out)
    out *= np.sign(coeffs)
    return out


def shrink(x: np.ndarray, levels: int = 4, lo: np.ndarray = DEFAULT_LO):
    """``dwt`` with every detail band soft-thresholded at the universal
    threshold; returns (approximation, [d_fine..d_coarse], n)."""
    a, details, n = dwt(x, levels, lo)
    thr = universal_threshold(details[0], len(x))
    return a, [soft_threshold(d, thr) for d in details], n


def denoise(x: np.ndarray, levels: int = 4, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    """Soft universal-threshold denoising of a 1-D signal."""
    a, details, n = shrink(x, levels, lo)
    return idwt(a, details, n, lo)


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
    """Bins start..stop-1 of the DFT of ``idwt(a, details, n)`` at its full
    length n = len(a) * 2**len(details): Y(k) = sum_j S_j(k mod n_j) F_j(k),
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
