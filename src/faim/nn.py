"""Small differentiable building blocks composed from tensor primitives."""

from __future__ import annotations

from .errors import ShapeError
from .tensor import Tensor, add, div, matmul, mul, narrow, pad_axis, sub, tmean, tsqrt


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ weight (+ bias).  weight is [in, out]; bias broadcasts over rows."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


def causal_conv1d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Depthwise causal convolution along the token axis.

    ``x`` is [..., tokens, dim]; ``kernel`` is [k, dim] with the LAST kernel
    row multiplying the current token, so position t sees tokens
    t−k+1 .. t and never the future.  Positions before the start read zeros.
    """
    k, dim = kernel.shape
    if x.shape[-1] != dim:
        raise ShapeError(f"kernel dim {dim} does not match input dim {x.shape[-1]}")
    n_tokens = x.shape[-2]
    padded = pad_axis(x, axis=-2, before=k - 1, after=0)
    out = None
    for i in range(k):
        window = narrow(padded, axis=-2, start=i, length=n_tokens)
        term = mul(window, narrow(kernel, 0, i, 1))
        out = term if out is None else add(out, term)
    if bias is not None:
        out = add(out, bias)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    if eps <= 0:
        raise ShapeError("layer_norm eps must be positive")
    mean = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mean)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    scale = div(centered, tsqrt(add(var, Tensor(eps))))
    return add(mul(scale, gamma), beta)
