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
from .tensor import Tensor, _matmul_grads, _unbroadcast, add, parameter, record


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


def psi_apply(p: PsiFilter, s: Spectrum) -> Spectrum:
    """Multiply a spectrum z by the complex filter computed from it, as one
    tape node.

    The filter is o = relu([Re z, Im z]·w1 + b1)·w2 + b2, whose two halves
    along the last axis are its real and imaginary parts.  The rule runs the
    rules of that chain (the product, the complex packing, linear, relu,
    linear, the real/imaginary split) in reverse order.  z reaches the
    output through the product and through the filter, so the node lists it
    twice and the tape sums the two as it did for the chain, after whatever
    z's later consumers sent.  The node keeps the hidden activations and
    the complex filter values; the rule rebuilds [Re z, Im z] from z.
    """
    bins = s.bins
    dim = bins.shape[-1]
    if p.w1.shape[0] != 2 * dim:
        raise ShapeError(f"filter expects width {p.w1.shape[0]}, spectrum has dim {dim}")
    if not bins.is_complex:
        raise TypeError("psi_apply expects a complex spectrum")
    if p.w1.is_complex or p.b1.is_complex or p.w2.is_complex or p.b2.is_complex:
        raise TypeError("psi_apply filter weights must be real")
    z = bins.data
    hidden = np.concatenate([z.real, z.imag], axis=-1) @ p.w1.data
    hidden += p.b1.data
    np.maximum(hidden, 0.0, out=hidden)
    halves = hidden @ p.w2.data
    halves += p.b2.data
    values = halves[..., :dim] + 1j * halves[..., dim:]
    out = Tensor(values * z)

    def rule(gs):
        g = gs[0]
        g_values = g * np.conj(z)
        g_halves = np.concatenate([g_values.real, g_values.imag], axis=-1)
        # The chain summed two narrows' scatters, each zero outside its half.
        g_halves += 0.0
        g_hidden, g_w2 = _matmul_grads(g_halves, hidden, p.w2.data)
        # relu passes the gradient where its input was positive, which is
        # where its output is.
        g_hidden *= hidden > 0.0
        parts = np.concatenate([z.real, z.imag], axis=-1)
        g_parts, g_w1 = _matmul_grads(g_hidden, parts, p.w1.data)
        g_z = 1j * g_parts[..., dim:]
        g_z += g_parts[..., :dim]
        return (
            g * np.conj(values),
            g_w2, _unbroadcast(g_halves, p.b2.shape),
            g_w1, _unbroadcast(g_hidden, p.b1.shape),
            g_z,
        )

    record((bins, p.w2, p.b2, p.w1, p.b1, bins), (out,), rule)
    return Spectrum(out, s.n_time)


def afb_forward(
    tokens: Tensor,
    params: AfbParams,
    use_high: bool = True,
    use_low: bool = True,
) -> tuple[Tensor, None]:
    """Full adaptive filtering pass; output shape equals input shape.

    ``use_high`` / ``use_low`` drop the corresponding local branch entirely
    (the ablation variants): its band mask is not built, so its threshold
    takes no part in the forward.  The global branch always participates.
    The forward keeps no intermediates beyond what a tape records; the
    second element is always None, so callers that unpack a pair keep
    working.
    """
    spectrum = rfft(tokens)
    integrated = psi_apply(params.psi_global, spectrum).bins
    if use_high:
        mask = band_mask(spectrum, params.theta_high, KEEP_BELOW, params.tau)
        integrated = add(integrated, psi_apply(params.psi_high, apply_mask(spectrum, mask)).bins)
    if use_low:
        mask = band_mask(spectrum, params.theta_low, KEEP_ABOVE, params.tau)
        integrated = add(integrated, psi_apply(params.psi_low, apply_mask(spectrum, mask)).bins)
    return irfft(Spectrum(integrated, spectrum.n_time)), None
