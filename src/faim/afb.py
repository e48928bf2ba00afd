"""Adaptive filtering block: DFT, soft band masks, learnable spectral
filters, integration, inverse DFT.

Three branches act on the token spectrum: a global filter over the full
spectrum, a local filter over the high band kept below theta_high, and a
local filter over the low band kept above theta_low.  Each filter is a
per-bin MLP over stacked real/imaginary parts whose complex output
multiplies the branch spectrum, so a frozen filter is exactly a circular
convolution in the time domain.  Branch outputs sum bin-wise before the
inverse transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rng import CounterRng
from .spectral import (
    KEEP_ABOVE,
    KEEP_BELOW,
    Spectrum,
    apply_mask,
    band_mask,
    irfft,
    rfft,
)
from .tensor import Tensor, add, complex_from_halves, concat_real_imag, mul, parameter, relu
from .nn import linear


@dataclass
class PsiFilter:
    """Per-bin MLP producing one complex filter value per (bin, dim)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class AfbParams:
    theta_high: Tensor
    theta_low: Tensor
    psi_global: PsiFilter
    psi_high: PsiFilter
    psi_low: PsiFilter
    tau: float = 0.02


@dataclass
class LayerActivations:
    """Intermediates of one afb_forward call, retained for inspection."""

    spectrum: Spectrum = None
    mask_high: Tensor = None
    mask_low: Tensor = None
    high: Spectrum = None
    low: Spectrum = None
    branch_global: Spectrum = None
    branch_high: Spectrum = None
    branch_low: Spectrum = None
    integrated: Spectrum = None


def init_psi_filter(dim: int, rng: CounterRng) -> PsiFilter:
    """Random filter with a hidden width of dim.  Each weight matrix is
    drawn at std 1/sqrt(fan_in) and the biases are zero, so the filter's
    values start of order one, not near zero."""
    width = 2 * dim
    return PsiFilter(
        w1=parameter(rng.normal((width, dim), std=1.0 / np.sqrt(width))),
        b1=parameter(np.zeros(dim)),
        w2=parameter(rng.normal((dim, width), std=1.0 / np.sqrt(dim))),
        b2=parameter(np.zeros(width)),
    )


def init_afb_params(
    dim: int,
    rng: CounterRng,
    theta_high: float = 0.4,
    theta_low: float = 0.05,
    tau: float = 0.02,
) -> AfbParams:
    return AfbParams(
        theta_high=parameter(theta_high),
        theta_low=parameter(theta_low),
        psi_global=init_psi_filter(dim, rng.spawn("psi_global")),
        psi_high=init_psi_filter(dim, rng.spawn("psi_high")),
        psi_low=init_psi_filter(dim, rng.spawn("psi_low")),
        tau=tau,
    )


def psi_filter_values(p: PsiFilter, s: Spectrum) -> Tensor:
    """Complex filter values g[..., k, d] computed from a spectrum."""
    bins = s.bins
    dim = bins.shape[-1]
    if p.w1.shape[0] != 2 * dim:
        raise ShapeError(f"filter expects width {p.w1.shape[0]}, spectrum has dim {dim}")
    hidden = relu(linear(concat_real_imag(bins), p.w1, p.b1))
    return complex_from_halves(linear(hidden, p.w2, p.b2))


def psi_apply(p: PsiFilter, s: Spectrum) -> Spectrum:
    """Multiply a spectrum by the complex filter computed from it."""
    return Spectrum(mul(psi_filter_values(p, s), s.bins), s.n_time)


def afb_forward(
    tokens: Tensor,
    params: AfbParams,
    use_high: bool = True,
    use_low: bool = True,
) -> tuple[Tensor, LayerActivations]:
    """Full adaptive filtering pass; output shape equals input shape.

    ``use_high`` / ``use_low`` drop the corresponding local branch entirely
    (the ablation variants); the global branch always participates.
    """
    acts = LayerActivations()
    acts.spectrum = rfft(tokens)
    acts.branch_global = psi_apply(params.psi_global, acts.spectrum)
    integrated_bins = acts.branch_global.bins

    if use_high or use_low:
        acts.mask_high = band_mask(acts.spectrum, params.theta_high, KEEP_BELOW, params.tau)
        acts.mask_low = band_mask(acts.spectrum, params.theta_low, KEEP_ABOVE, params.tau)
        acts.high = apply_mask(acts.spectrum, acts.mask_high)
        acts.low = apply_mask(acts.spectrum, acts.mask_low)
    if use_high:
        acts.branch_high = psi_apply(params.psi_high, acts.high)
        integrated_bins = add(integrated_bins, acts.branch_high.bins)
    if use_low:
        acts.branch_low = psi_apply(params.psi_low, acts.low)
        integrated_bins = add(integrated_bins, acts.branch_low.bins)

    acts.integrated = Spectrum(integrated_bins, acts.spectrum.n_time)
    return irfft(acts.integrated), acts
