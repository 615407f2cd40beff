"""Minimal orthogonal wavelet transform with universal soft thresholding.

Only what the denoising pipeline needs: a periodized multi-level DWT on a
compactly supported orthogonal (Daubechies) wavelet, its exact inverse, and
soft thresholding at sigma * sqrt(2 ln n) with the noise scale estimated
from the finest detail band's median absolute value.

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
from numpy.lib.stride_tricks import sliding_window_view


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


def _circular_windows(phase: np.ndarray, width: int, lead: int) -> np.ndarray:
    """Row k holds phase[(k - lead + i) mod len(phase)] for i < width.

    ``np.pad`` in wrap mode repeats the phase as often as needed, so phases
    shorter than the window still see the periodized signal.
    """
    extended = np.pad(phase, (lead, width - 1 - lead), mode="wrap")
    return sliding_window_view(extended, width)


def _analysis_step(x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Periodized filter bank y[k] = sum_m f[m] x[(2k + 1 - m) mod n] in
    # polyphase form: y[k] = sum_r f[2r] x_odd[k - r] + f[2r + 1] x_even[k - r],
    # indices mod n/2.  Rows of each (2, width) tap matrix are (lo, hi),
    # reversed to run along the windows.
    width = len(lo) // 2
    even_taps = np.array([lo[0::2], hi[0::2]])[:, ::-1]
    odd_taps = np.array([lo[1::2], hi[1::2]])[:, ::-1]
    a, d = (even_taps @ _circular_windows(x[1::2], width, width - 1).T
            + odd_taps @ _circular_windows(x[0::2], width, width - 1).T)
    return a, d


def _synthesis_step(a: np.ndarray, d: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Adjoint of the analysis step: out[2i] = sum_r f[2r + 1] s[i + r] and
    # out[2i + 1] = sum_r f[2r] s[i + r], summed over the subbands s = a, d
    # with their filters f = lo, hi, indices mod n/2.  Column 0 of the product
    # is the even output and column 1 the odd one, so the row-major reshape
    # interleaves them.
    width = len(lo) // 2
    lo_taps = np.array([lo[1::2], lo[0::2]])
    hi_taps = np.array([hi[1::2], hi[0::2]])
    out = (_circular_windows(a, width, 0) @ lo_taps.T
           + _circular_windows(d, width, 0) @ hi_taps.T)
    return out.reshape(-1)


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
    return np.sign(coeffs) * np.maximum(np.abs(coeffs) - threshold, 0.0)


def denoise(x: np.ndarray, levels: int = 4, lo: np.ndarray = DEFAULT_LO) -> np.ndarray:
    """Soft universal-threshold denoising of a 1-D signal."""
    a, details, n = dwt(x, levels, lo)
    thr = universal_threshold(details[0], len(x))
    details = [soft_threshold(d, thr) for d in details]
    return idwt(a, details, n, lo)
