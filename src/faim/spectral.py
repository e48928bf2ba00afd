"""Real discrete Fourier transforms, soft frequency-band masks, and a
time-domain circular-convolution oracle.

The transform runs along the token axis: the second-to-last axis for inputs
shaped [..., tokens, dim], or axis 0 for plain 1-D vectors.  Every length is
served by two real matmuls against cached [n//2+1, n] cosine and sine tables,
which act on the token axis in place; at the token counts seen here that is
cheaper than any fast transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InputError, ShapeError
from .tensor import COMPLEX, REAL, Tensor, as_tensor, mul, record, reshape, sigmoid, sub

# ---------------------------------------------------------------------------
# cached real DFT tables (plain ndarrays, token axis)
# ---------------------------------------------------------------------------


def _half_bins(n_time: int) -> int:
    return n_time // 2 + 1


def _token_axis(ndim: int) -> int:
    return 0 if ndim == 1 else ndim - 2


@cache
def _tables(n_time: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached ``cos`` and ``sin`` of 2*pi*k*t/n as [n//2+1, n] arrays, then
    both scaled by the inverse weights (1/n at DC and Nyquist, 2/n elsewhere).

    Angles come from ``(k*t) mod n`` and entries at multiples of pi/2 are
    exactly 0 or +-1, so the sine rows of the DC and (even n) Nyquist bins
    are exact zeros: their imaginary parts never reach the inverse.
    """
    k = _half_bins(n_time)
    phase = np.outer(np.arange(k), np.arange(n_time)) % n_time
    angle = 2.0 * np.pi * phase / n_time
    cos, sin = np.cos(angle), np.sin(angle)
    quarter = (4 * phase) % n_time == 0
    turns = 4 * phase[quarter] // n_time  # angle = turns * pi/2
    cos[quarter] = np.array([1.0, 0.0, -1.0, 0.0])[turns]
    sin[quarter] = np.array([0.0, 1.0, 0.0, -1.0])[turns]
    # DC and (even n) Nyquist are the bins with 2k = 0 mod n
    weights = np.where(2 * np.arange(k)[:, None] % n_time == 0, 1.0, 2.0) / n_time
    return cos, sin, weights * cos, weights * sin


def _analysis(cos: np.ndarray, sin: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``cos @ x - 1j * (sin @ x)``, written straight into one complex array."""
    shape = list(x.shape)
    shape[_token_axis(x.ndim)] = cos.shape[0]
    out = np.empty(shape, dtype=COMPLEX)
    np.matmul(cos, x, out=out.real)
    np.matmul(-sin, x, out=out.imag)
    return out


def _synthesis(cos: np.ndarray, sin: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`_analysis`: ``cos.T @ bins.real - sin.T @ bins.imag``."""
    out = cos.T @ bins.real
    out -= sin.T @ bins.imag
    return out


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class Spectrum:
    """Half-spectrum of a real signal plus the original token count."""

    bins: Tensor
    n_time: int

    def __post_init__(self):
        axis = _token_axis(self.bins.ndim)
        if self.bins.shape[axis] != _half_bins(self.n_time):
            raise ShapeError(
                f"{self.bins.shape[axis]} bins inconsistent with n_time={self.n_time}"
            )


# ---------------------------------------------------------------------------
# differentiable transforms
# ---------------------------------------------------------------------------


def rfft(x: Tensor) -> Spectrum:
    """Real-input DFT along the token axis, keeping the non-redundant half."""
    if x.is_complex:
        raise TypeError("rfft expects a real tensor")
    n_time = x.shape[_token_axis(x.ndim)]
    cos, sin, _, _ = _tables(n_time)
    out = Tensor(_analysis(cos, sin, x.data))
    record((x,), (out,), lambda gs: (_synthesis(cos, sin, gs[0]),))
    return Spectrum(out, n_time)


def irfft(s: Spectrum) -> Tensor:
    """Inverse of :func:`rfft`; recovers exactly ``n_time`` real tokens."""
    _, _, wcos, wsin = _tables(s.n_time)
    out = Tensor(_synthesis(wcos, wsin, s.bins.data))
    record((s.bins,), (out,), lambda gs: (_analysis(wcos, wsin, gs[0]),))
    return out


# ---------------------------------------------------------------------------
# band masks
# ---------------------------------------------------------------------------

KEEP_BELOW = "keep-below"
KEEP_ABOVE = "keep-above"


def band_mask(s: Spectrum, theta, direction: str, tau: float = 0.02) -> Tensor:
    """Soft per-bin keep weights: a sigmoid threshold at ``theta`` on the
    normalized frequencies f_k = k / n_time."""
    if tau <= 0:
        raise InputError(f"mask temperature must be positive, got {tau}")
    theta = as_tensor(theta)
    k = _half_bins(s.n_time)
    freqs = Tensor(np.arange(k, dtype=REAL) / s.n_time)
    if direction == KEEP_BELOW:
        logits = sub(theta, freqs)
    elif direction == KEEP_ABOVE:
        logits = sub(freqs, theta)
    else:
        raise InputError(f"unknown mask direction {direction!r}")
    return sigmoid(mul(logits, as_tensor(1.0 / tau)))


def apply_mask(s: Spectrum, weights: Tensor) -> Spectrum:
    """Scale each frequency bin by its keep weight from :func:`band_mask`."""
    bins = s.bins
    k = weights.shape[0]
    axis = _token_axis(bins.ndim)
    if bins.shape[axis] != k:
        raise ShapeError(f"mask has {k} bins but spectrum has {bins.shape[axis]}")
    weights = weights if bins.ndim == 1 else reshape(weights, (k, 1))
    return Spectrum(mul(bins, weights), s.n_time)


# ---------------------------------------------------------------------------
# time-domain oracle
# ---------------------------------------------------------------------------


def circular_convolve(x, h) -> np.ndarray:
    """Brute-force circular convolution: y[n] = sum_m x[m] h[(n-m) mod N]."""
    x = np.asarray(x, dtype=REAL)
    h = np.asarray(h, dtype=REAL)
    if x.ndim != 1 or h.ndim != 1 or x.shape != h.shape:
        raise ShapeError(f"circular_convolve needs equal-length vectors, got {x.shape} and {h.shape}")
    n = x.shape[0]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return (x[None, :] * h[idx]).sum(axis=-1)
