"""Small differentiable building blocks, each one tape primitive.

Every block records a single node whose backward rule repeats, op for op
and in the same order, the rules of the primitive chain it stands for
(``matmul`` then ``add`` for ``linear``, and so on), so its output and
gradients are bitwise equal to that chain's.  Where the chain sent an
input several contributions (``layer_norm``'s x, through the centring and
the mean), the node lists that input once per contribution, in the order
the chain's rules ran, and returns the contributions apart: the tape then
adds them to whatever the input's other consumers sent, as it did for the
chain.  A node keeps its inputs, its output, and only those intermediates
that cost a transcendental or a matmul to rebuild; its rule rebuilds the
rest with the forward's own ops, in the forward's order, so the bits stay
the same.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, _check_matmul_operands, _matmul_grads, _unbroadcast, record


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias).  weight is [in, out]; bias broadcasts over rows."""
    _check_matmul_operands("linear", x, weight)
    out_data = x.data @ weight.data
    if bias is not None:
        if bias.is_complex:
            raise TypeError("linear is defined for real tensors only")
        out_data += bias.data
    out = Tensor(out_data)

    def rule(gs):
        grads = _matmul_grads(gs[0], x.data, weight.data)
        return grads if bias is None else grads + (_unbroadcast(gs[0], bias.shape),)

    record((x, weight) if bias is None else (x, weight, bias), (out,), rule)
    return out


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Depthwise causal convolution along the token axis.

    ``x`` is [..., tokens, dim]; ``kernel`` is [k, dim] with the LAST kernel
    row multiplying the current token, so position t sees tokens
    t−k+1 .. t and never the future.  Positions before the start read zeros.
    The node keeps nothing beyond its inputs and output: the rule rebuilds
    the zero-padded input from x.
    """
    if x.is_complex or kernel.is_complex or (bias is not None and bias.is_complex):
        raise TypeError("causal_conv1d is defined for real tensors only")
    k, dim = kernel.shape
    if x.shape[-1] != dim:
        raise ShapeError(f"kernel dim {dim} does not match input dim {x.shape[-1]}")
    n_tokens = x.shape[-2]

    def pad():
        padded = np.zeros(x.shape[:-2] + (n_tokens + k - 1, dim))
        padded[..., k - 1 :, :] = x.data
        return padded

    padded = pad()
    kd = kernel.data
    # Window i is padded[..., i : i + n_tokens, :]; it multiplies kernel row i.
    out_data = padded[..., :n_tokens, :] * kd[0:1]
    term = np.empty_like(out_data) if k > 1 else None
    for i in range(1, k):
        out_data += np.multiply(padded[..., i : i + n_tokens, :], kd[i : i + 1], out=term)
    if bias is not None:
        out_data += bias.data
    out = Tensor(out_data)

    def rule(gs):
        g = gs[0]
        # Token t reaches output t + s through kernel row k − 1 − s; the
        # shifts are summed from s = 0 up, as the windows' rules ran.
        gx = g * kd[k - 1 : k]
        part = np.empty_like(g) if k > 1 else None
        for s in range(1, min(k, n_tokens)):
            i = k - 1 - s
            gx[..., : n_tokens - s, :] += np.multiply(g[..., s:, :], kd[i : i + 1], out=part[..., s:, :])
        gk = np.empty((k, dim))
        padded = pad()
        for i in range(k):
            gk[i : i + 1] = _unbroadcast(g * padded[..., i : i + n_tokens, :], (1, dim))
        if k > 1:
            # The chain also summed the zeros each narrow scattered outside
            # its slice; they only turn a -0.0 sum into +0.0.  They reach
            # every kernel row and the last k − 1 tokens.
            gx[..., max(n_tokens - k + 1, 0) :, :] += 0.0
            gk += 0.0
        return (gx, gk) if bias is None else (gx, gk, _unbroadcast(g, bias.shape))

    record((x, kernel) if bias is None else (x, kernel, bias), (out,), rule)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine.

    x is listed twice, for its contributions through the centring and
    through the mean.  The node keeps the mean and the standard deviation,
    one value per row; the rule rebuilds the centred and scaled x from them.
    """
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    if x.is_complex or gamma.is_complex or beta.is_complex:
        raise TypeError("layer_norm is defined for real tensors only")
    xd = x.data
    mean = xd.mean(axis=-1, keepdims=True)
    centered = xd - mean
    sd = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + eps)
    out_data = centered / sd
    out_data *= gamma.data
    out_data += beta.data
    out = Tensor(out_data)
    # The gradient of a mean over the last axis spreads this share to each entry.
    share = mean.size / max(xd.size, 1)

    def rule(gs):
        g = gs[0]
        centered = xd - mean
        scale = centered / sd
        g_beta = _unbroadcast(g, beta.shape)
        g_gamma = _unbroadcast(g * scale, gamma.shape)
        g_scale = g * gamma.data
        g_centered = g_scale / sd
        g_sd = _unbroadcast(-g_scale * centered / (sd * sd), sd.shape)
        g_square = np.broadcast_to(g_sd * 0.5 / sd, xd.shape) * share
        # centered·centered: one contribution per factor.
        g_centered = g_centered + g_square * centered
        g_centered = g_centered + g_square * centered
        g_mean = _unbroadcast(-g_centered, mean.shape)
        return (g_centered, np.broadcast_to(g_mean, xd.shape) * share, g_gamma, g_beta)

    record((x, x, gamma, beta), (out,), rule)
    return out
