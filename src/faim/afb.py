"""Adaptive filtering block: DFT, soft band masks, learnable spectral
filters, integration, inverse DFT.

Three branches act on the token spectrum z: a global filter over the full
spectrum, a local filter over the high band kept below theta_high, and a
local filter over the low band kept above theta_low.  Each filter is a
per-bin MLP over stacked real/imaginary parts whose complex output
multiplies the branch spectrum, so a frozen filter is exactly a circular
convolution in the time domain.  Branch outputs sum bin-wise before the
inverse transform.

The block is one tape node.  Its rule runs the rules of the chain it stands
for (rfft, filters, band masks, mask products, sums, irfft) in reverse
order, op for op, so output and gradients are bitwise equal to the chain's.
It keeps z and each branch's mask, hidden activations and filter values,
and rebuilds a masked spectrum as z·mask, the forward's own op; the
filtered, summed and masked spectra, which no rule reads, are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError
from .rng import CounterRng
from .spectral import KEEP_ABOVE, KEEP_BELOW, _analysis, _synthesis, _tables

# Not called here: the benchmark's tracer wraps these two by name in this
# module, so they stay importable from it.
from .spectral import irfft, rfft  # noqa: F401
from .tensor import REAL, Tensor, _matmul_grads, _sigmoid, _unbroadcast, active_tape, parameter, record


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


def psi_values(p: PsiFilter, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The filter's hidden activations relu([Re z, Im z]·w1 + b1) on a
    complex spectrum z, and its complex values, whose real and imaginary
    parts are the two halves of hidden·w2 + b2 along the last axis."""
    dim = z.shape[-1]
    if p.w1.shape[0] != 2 * dim:
        raise ShapeError(f"filter expects width {p.w1.shape[0]}, spectrum has dim {dim}")
    if p.w1.is_complex or p.b1.is_complex or p.w2.is_complex or p.b2.is_complex:
        raise TypeError("filter weights must be real")
    hidden = np.concatenate([z.real, z.imag], axis=-1) @ p.w1.data
    hidden += p.b1.data
    np.maximum(hidden, 0.0, out=hidden)
    halves = hidden @ p.w2.data
    halves += p.b2.data
    return hidden, halves[..., :dim] + 1j * halves[..., dim:]


def psi_grads(p: PsiFilter, z: np.ndarray, hidden: np.ndarray, values: np.ndarray, g: np.ndarray):
    """Given the gradient g of values·z: z's terms through the product and
    through the filter, then the gradients of w2, b2, w1 and b1.  These are
    the rules of the chain (product, complex packing, linear, relu, linear,
    real/imaginary split) in reverse order; [Re z, Im z] is rebuilt."""
    dim = z.shape[-1]
    g_values = g * np.conj(z)
    g_halves = np.concatenate([g_values.real, g_values.imag], axis=-1)
    del g_values
    # The chain summed two narrows' scatters, each zero outside its half.
    g_halves += 0.0
    g_hidden, g_w2 = _matmul_grads(g_halves, hidden, p.w2.data)
    # relu passes the gradient where its output is positive.
    g_hidden *= hidden > 0.0
    g_parts, g_w1 = _matmul_grads(g_hidden, np.concatenate([z.real, z.imag], axis=-1), p.w1.data)
    g_filter = 1j * g_parts[..., dim:]
    g_filter += g_parts[..., :dim]
    g_b2, g_b1 = _unbroadcast(g_halves, p.b2.shape), _unbroadcast(g_hidden, p.b1.shape)
    return g * np.conj(values), g_filter, g_w2, g_b2, g_w1, g_b1


def _band(theta: Tensor, direction: str, n_time: int, tau: float) -> np.ndarray:
    """Soft keep weight of each bin, with spectral.band_mask's ops."""
    if tau <= 0:
        raise InputError(f"mask temperature must be positive, got {tau}")
    freqs = np.arange(n_time // 2 + 1, dtype=REAL) / n_time
    logits = theta.data - freqs if direction == KEEP_BELOW else freqs - theta.data
    return _sigmoid(logits * (1.0 / tau))


def _branch_grads(p, z, mask, hidden, values, g, theta, direction, tau):
    """The rules of one branch: its filter, then for a local branch the mask
    product, sigmoid, product with 1/tau and subtraction.  Returns z's terms
    in the chain's order and the gradients of theta (if local), w2, b2, w1, b1."""
    if mask is None:
        product, g_filter, *weight_grads = psi_grads(p, z, hidden, values, g)
        return (product, g_filter), weight_grads
    product, g_filter, *weight_grads = psi_grads(p, z * mask[:, None], hidden, values, g)
    g_zb = product + g_filter
    del product, g_filter
    g_mask = _unbroadcast(g_zb * np.conj(z), (len(mask), 1)).real[:, 0]
    g_logits = g_mask * mask * (1.0 - mask) * (1.0 / tau)
    g_theta = _unbroadcast(g_logits if direction == KEEP_BELOW else -g_logits, theta.shape)
    return (g_zb * mask[:, None],), [g_theta, *weight_grads]


def afb_forward(
    tokens: Tensor,
    params: AfbParams,
    use_high: bool = True,
    use_low: bool = True,
) -> tuple[Tensor, None]:
    """Full adaptive filtering pass over [..., tokens, dim]; output shape
    equals input shape.  The second element is always None.

    ``use_high`` / ``use_low`` drop the corresponding local branch (the
    ablation variants): the node builds no mask for it and neither lists
    nor reads its threshold or filter.  The node lists tokens, then, for
    each branch in the order its rule runs them (low, high, global), a
    local branch's threshold and the filter's w2, b2, w1 and b1.  The rule
    frees each branch's kept arrays before the next, so it runs once.
    """
    if tokens.is_complex:
        raise TypeError("afb_forward expects a real tensor")
    if tokens.ndim < 2:
        raise ShapeError(f"afb_forward expects [..., tokens, dim], got shape {tokens.shape}")
    n_time = tokens.shape[-2]
    cos, sin, wcos, wsin = _tables(n_time)
    z = _analysis(cos, sin, tokens.data)
    branches = [(params.psi_global, None, None)]
    if use_high:
        branches.append((params.psi_high, params.theta_high, KEEP_BELOW))
    if use_low:
        branches.append((params.psi_low, params.theta_low, KEEP_ABOVE))
    taped = active_tape() is not None
    kept, integrated = [], None
    for p, theta, direction in branches:
        mask = None if theta is None else _band(theta, direction, n_time, params.tau)
        zb = z if mask is None else z * mask[:, None]
        hidden, values = psi_values(p, zb)
        term = values * zb
        integrated = term if integrated is None else np.add(integrated, term, out=integrated)
        if taped:
            kept.append((mask, hidden, values))
        del zb, hidden, values, term
    out = Tensor(_synthesis(wcos, wsin, integrated))
    if not taped:
        return out, None

    def rule(gs):
        g = _analysis(wcos, wsin, gs[0])
        g_z, grads = None, []
        for p, theta, direction in reversed(branches):
            terms, branch_grads = _branch_grads(p, z, *kept.pop(), g, theta, direction, params.tau)
            grads += branch_grads
            for term in terms:
                g_z = term if g_z is None else np.add(g_z, term, out=g_z)
            del terms, term
        return (_synthesis(cos, sin, g_z), *grads)

    inputs = [tokens]
    for p, theta, _ in reversed(branches):
        inputs += ([] if theta is None else [theta]) + [p.w2, p.b2, p.w1, p.b1]
    record(inputs, (out,), rule)
    return out, None
