"""Selective state-space recurrence and the interactive dual-branch block.

Each branch runs linear -> causal depthwise conv -> SiLU -> selective scan
-> layer norm.  The two branch outputs cross-gate each other under a shared
input gate, and a final short conv plus projection fuses them.

The scan itself is one fused tape primitive with two paths, chosen by
whether a tape is active.  Without one (evaluation, prediction) the
recurrence runs token by token and keeps only the current state h_t, so
memory grows with batch·dim·state, not with the token count.  It uses
phi·Δ·B·x = expm1(ΔA)·x·B/A and exp(ΔA) = expm1(ΔA) + 1, so each token
costs one transcendental per element:

    g = expm1(Δ_t A),  h_t = h_{t-1} + g ⊙ (h_{t-1} + x_t·B_t/A).

A = -exp(a_log) is never zero, and the form needs no small-|ΔA| series.
Two [batch, dim, state] buffers are reused across tokens.  Under a tape
the forward keeps the decay factors exp(ΔA), the discretisation factors
(exp(ΔA) - 1)/(ΔA) and every state h_t, and the backward rule runs only the
state-gradient recurrence token by token, forming the parameter gradients
as whole-tensor products over tokens.  This avoids recording ~10 tape nodes
per token while keeping the gradient exact (verified against finite
differences and the unrolled recurrence).

The taped forward and its rule run over row blocks of the batch, each
holding about ROW_BLOCK_BYTES of one stored [rows, Z, dim, state] array, so
that every op of a block works in cache.  The blocks run on one thread per
CPU this process may use, the calling thread among them (numpy releases
the interpreter lock inside its loops); each thread takes the next block
not yet taken, in its own slice of scratch.  The stored arrays and the
scratch are allocated once per call.  Every element goes through the same
operations in the same order whatever the block size or thread count, so
outputs and gradients are bitwise equal to one whole-batch pass on one
thread.  The one reduction over (batch, token), the gradient of A, runs
once over a full-size buffer after the blocks: summing per-block partial
results would change it in the last digits.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .nn import causal_conv1d, layer_norm, linear
from .rng import CounterRng
from .tensor import Tensor, active_tape, add, matmul, mul, neg, parameter, record, reshape, silu, softplus, texp


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def _phi(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(exp(u) - 1)/u, with the limit 1 + u/2 on the |u| < 1e-8 subset.

    ``out``, shaped like ``u``, receives the result.  The subset is looked
    for only when the extremes of u do not already rule it out.
    """
    phi = np.expm1(u, out=np.empty_like(u) if out is None else out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(phi, u, out=phi)
    if not (u.max() <= -1e-8 or u.min() >= 1e-8):
        small = np.abs(u) < 1e-8
        phi[small] = 1.0 + 0.5 * u[small]
    return phi


def discretize(A, B_t, delta_t):
    """Zero-order-hold discretization of a diagonal continuous system.

    A_bar = exp(delta*A); B_bar = (delta*A)^{-1} (exp(delta*A) - 1) * delta*B,
    evaluated elementwise with the series limit delta*B as delta*A -> 0.
    Operands must broadcast against each other.
    """
    A = np.asarray(A, dtype=np.float64)
    B_t = np.asarray(B_t, dtype=np.float64)
    delta_t = np.asarray(delta_t, dtype=np.float64)
    u = np.asarray(delta_t * A)
    return np.exp(u), _phi(u) * delta_t * B_t


# ---------------------------------------------------------------------------
# fused selective scan
# ---------------------------------------------------------------------------

# Byte budget of one row block, sized to stay in a typical L2 cache.  The
# taped scan fills its stored [rows, Z, dim, state] arrays this many bytes
# at a time, one block per thread at once, and training.row_block sizes
# tape-free forwards from it.  Larger blocks stream every op through main
# memory; blocks of one or two rows pay per-op overhead instead.
ROW_BLOCK_BYTES = 2**20

# One scan thread per CPU this process may use: the calling thread and a
# pool of helpers, which starts its threads on first use.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="faim-scan")


_start_pool()
if hasattr(os, "register_at_fork"):
    # A forked child has none of its parent's threads, and the inherited
    # pool's locks may have been held at the fork.
    os.register_at_fork(after_in_child=_start_pool)


def _each(fn, blocks: list[slice]) -> None:
    """Call fn(worker, blk) for every block, inline when there is one block
    or one CPU.  Otherwise the calling thread is worker 0 and pool helpers
    1, 2, ... join it; each takes the next block not yet taken, so a thread
    that starts late or runs slow takes fewer, and a helper that has not
    started when the blocks run out is cancelled, not waited for.  Helpers
    run under the caller's np.errstate."""
    workers = min(_WORKERS, len(blocks))
    if workers <= 1:
        for blk in blocks:
            fn(0, blk)
        return

    todo = iter(blocks)
    lock = threading.Lock()
    errors = np.geterr()

    def share(w):
        with np.errstate(**errors):
            while True:
                with lock:
                    blk = next(todo, None)
                if blk is None:
                    return
                fn(w, blk)

    helpers = [_POOL.submit(share, w) for w in range(1, workers)]
    try:
        share(0)
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()


def _scan_primitive(x: Tensor, delta: Tensor, b_proj: Tensor, c_proj: Tensor, a: Tensor) -> Tensor:
    """Recurrence y_t = C_t · h_t, h_t = exp(Δ_t A) ⊙ h_{t-1} + B̄_t ⊙ x_t.

    Shapes: x, delta [batch, Z, dim]; b_proj, c_proj [batch, Z, state];
    a [dim, state].  State is diagonal per (dim, state) pair.  Without an
    active tape the states are built one token at a time and dropped.
    """
    xd, dd, bd, cd, ad = x.data, delta.data, b_proj.data, c_proj.data, a.data
    n_batch, n_tok, dim = xd.shape
    if active_tape() is None:
        # h_t = h_{t-1} + g·(h_{t-1} + x·B/A) with g = expm1(ΔA).
        y = np.empty_like(xd)
        inv_a = 1.0 / ad
        h = np.zeros((n_batch, dim, ad.shape[-1]))
        g = np.empty_like(h)
        drive = np.empty_like(h)
        for t in range(n_tok):
            np.multiply(dd[:, t, :, None], ad, out=g)
            np.expm1(g, out=g)
            np.multiply(xd[:, t, :, None], inv_a, out=drive)
            drive *= bd[:, t, None, :]
            drive += h
            drive *= g
            h += drive
            y[:, t] = np.matmul(h, cd[:, t, :, None])[..., 0]
        return Tensor(y)

    n_state = ad.shape[-1]
    rows = min(n_batch, max(1, ROW_BLOCK_BYTES // (n_tok * dim * n_state * 8)))
    blocks = [slice(r0, min(r0 + rows, n_batch)) for r0 in range(0, n_batch, rows)]
    dx = dd * xd
    # The three stored arrays share one allocation.  At training sizes it is
    # mapped and unmapped whole, which left about 9.5k minor page faults per
    # default finetune step against 23k for three separate heap arrays.
    abar, phi, states = np.empty((3, n_batch, n_tok, dim, n_state))
    y = np.empty_like(xd)
    # One block of scratch per thread, allocated once per call: u = Δ·A in
    # the forward, then the state gradient in the rule.
    scratch = np.empty((min(_WORKERS, len(blocks)), rows, n_tok, dim, n_state))

    def forward_block(w, blk):
        u = scratch[w, : blk.stop - blk.start]
        np.multiply(dd[blk, ..., None], ad, out=u)
        np.exp(u, out=abar[blk])
        _phi(u, out=phi[blk])
        # The drive phi·Δ·B·x of every token, then the recurrence adds the
        # decayed previous state.
        h = np.multiply(phi[blk], dx[blk, ..., None], out=states[blk])
        h *= bd[blk, :, None, :]
        a_blk = abar[blk]
        for t in range(1, n_tok):
            h[:, t] += a_blk[:, t] * h[:, t - 1]
        np.matmul(h, cd[blk, ..., None], out=y[blk, ..., None])

    _each(forward_block, blocks)
    out = Tensor(y)

    def rule(gs):
        gy = gs[0]
        d_x = np.empty_like(xd)
        d_delta = np.empty_like(xd)
        d_b = np.empty_like(bd)
        d_c = np.empty_like(cd)
        du = np.empty_like(abar)

        def rule_block(w, blk):
            dh = scratch[w, : blk.stop - blk.start]
            a_blk, phi_blk, du_blk = abar[blk], phi[blk], du[blk]
            np.matmul(gy[blk, :, None, :], states[blk], out=d_c[blk, :, None, :])
            np.multiply(gy[blk, ..., None], cd[blk, :, None, :], out=dh)
            for t in range(n_tok - 2, -1, -1):
                dh[:, t] += a_blk[:, t + 1] * dh[:, t + 1]
            # ∂h_t/∂u_t = abar·h_{t-1} + phi'·Δ·B·x with phi' = (abar - phi)/u.
            # As u·phi = abar - 1 and abar·h_{t-1} = h_t - phi·Δ·B·x, this
            # equals h_t + (1 - phi)/A·B·x (u = Δ·A).  Where |u| < 1e-4,
            # 1 - phi takes its series -u·(1/2 + u/6 + u²/24).  As |u| is at
            # least min|Δ|·min|A|, that subset is looked for only when this
            # bound does not rule it out.
            np.subtract(1.0, phi_blk, out=du_blk)
            if not np.abs(dd[blk]).min() * np.abs(ad).min() >= 1e-4:
                u = dd[blk, ..., None] * ad
                small = np.abs(u) < 1e-4
                u_small = u[small]
                du_blk[small] = -u_small * (0.5 + u_small * (1.0 / 6.0 + u_small / 24.0))
            du_blk /= ad
            du_blk *= xd[blk, ..., None]
            du_blk *= bd[blk, :, None, :]
            du_blk += states[blk]
            du_blk *= dh
            np.einsum("btds,ds->btd", du_blk, ad, out=d_delta[blk])
            # dh·phi is the gradient of the drive phi·Δ·B·x.
            dh *= phi_blk
            s = np.matmul(dh, bd[blk, ..., None])[..., 0]
            d_delta[blk] += s * xd[blk]
            np.matmul(dx[blk, :, None, :], dh, out=d_b[blk, :, None, :])
            np.multiply(s, dd[blk], out=d_x[blk])

        _each(rule_block, blocks)
        # One reduction over every (batch, token): per-block partial sums
        # would change d_a in its last digits.
        d_a = np.einsum("btds,btd->ds", du, dd)
        return (d_x, d_delta, d_b, d_c, d_a)

    record((x, delta, b_proj, c_proj, a), (out,), rule)
    return out


@dataclass
class SsmParams:
    """Diagonal selective-SSM parameters for one branch."""

    a_log: Tensor
    w_b: Tensor
    w_c: Tensor
    w_delta: Tensor
    delta_bias: Tensor


def init_ssm_params(dim: int, state: int, rng: CounterRng) -> SsmParams:
    # A = -exp(a_log) with a_log = log(1..state) keeps every mode decaying,
    # at rates spread across the token horizon.
    a_log = np.tile(np.log(np.arange(1, state + 1, dtype=np.float64)), (dim, 1))
    dt = np.exp(rng.uniform((dim,), np.log(1e-3), np.log(1e-1)))
    scale = 1.0 / np.sqrt(dim)
    return SsmParams(
        a_log=parameter(a_log),
        w_b=parameter(rng.normal((dim, state), std=scale)),
        w_c=parameter(rng.normal((dim, state), std=scale)),
        w_delta=parameter(rng.normal((dim, dim), std=scale)),
        delta_bias=parameter(np.log(np.expm1(dt))),
    )


def ssm_scan(params: SsmParams, x: Tensor) -> Tensor:
    """Selective scan over tokens; x is [..., Z, dim], output matches."""
    squeeze = x.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    if x.ndim != 3:
        raise ShapeError(f"ssm_scan expects [batch, tokens, dim] or [tokens, dim], got {x.shape}")
    b_proj = matmul(x, params.w_b)
    c_proj = matmul(x, params.w_c)
    delta = softplus(add(matmul(x, params.w_delta), params.delta_bias))
    a = neg(texp(params.a_log))
    y = _scan_primitive(x, delta, b_proj, c_proj, a)
    if squeeze:
        y = reshape(y, y.shape[1:])
    return y


# ---------------------------------------------------------------------------
# interactive block
# ---------------------------------------------------------------------------


@dataclass
class ImbParams:
    in_w_1: Tensor
    in_b_1: Tensor
    in_w_2: Tensor
    in_b_2: Tensor
    gate_w: Tensor
    gate_b: Tensor
    conv_1: Tensor
    conv_1_bias: Tensor
    conv_2: Tensor
    conv_2_bias: Tensor
    ssm_1: SsmParams
    ssm_2: SsmParams
    ln_1_gamma: Tensor
    ln_1_beta: Tensor
    ln_2_gamma: Tensor
    ln_2_beta: Tensor
    conv_3: Tensor
    conv_3_bias: Tensor
    out_w: Tensor
    out_b: Tensor


def init_imb_params(
    dim: int,
    state: int,
    rng: CounterRng,
    k1: int = 2,
    k2: int = 4,
    k3: int = 1,
) -> ImbParams:
    scale = 1.0 / np.sqrt(dim)
    return ImbParams(
        in_w_1=parameter(rng.normal((dim, dim), std=scale)),
        in_b_1=parameter(np.zeros(dim)),
        in_w_2=parameter(rng.normal((dim, dim), std=scale)),
        in_b_2=parameter(np.zeros(dim)),
        gate_w=parameter(rng.normal((dim, dim), std=scale)),
        gate_b=parameter(np.zeros(dim)),
        conv_1=parameter(rng.normal((k1, dim), std=1.0 / np.sqrt(k1))),
        conv_1_bias=parameter(np.zeros(dim)),
        conv_2=parameter(rng.normal((k2, dim), std=1.0 / np.sqrt(k2))),
        conv_2_bias=parameter(np.zeros(dim)),
        ssm_1=init_ssm_params(dim, state, rng.spawn("ssm1")),
        ssm_2=init_ssm_params(dim, state, rng.spawn("ssm2")),
        ln_1_gamma=parameter(np.ones(dim)),
        ln_1_beta=parameter(np.zeros(dim)),
        ln_2_gamma=parameter(np.ones(dim)),
        ln_2_beta=parameter(np.zeros(dim)),
        conv_3=parameter(rng.normal((k3, dim), std=1.0 / np.sqrt(k3))),
        conv_3_bias=parameter(np.zeros(dim)),
        out_w=parameter(rng.normal((dim, dim), std=1.0 / np.sqrt(dim))),
        out_b=parameter(np.zeros(dim)),
    )


def imb_branch(tokens: Tensor, branch_index: int, params: ImbParams) -> Tensor:
    """linear -> causal conv -> SiLU -> selective scan -> layer norm."""
    if branch_index == 1:
        w, b = params.in_w_1, params.in_b_1
        kernel, kbias = params.conv_1, params.conv_1_bias
        ssm, gamma, beta = params.ssm_1, params.ln_1_gamma, params.ln_1_beta
    elif branch_index == 2:
        w, b = params.in_w_2, params.in_b_2
        kernel, kbias = params.conv_2, params.conv_2_bias
        ssm, gamma, beta = params.ssm_2, params.ln_2_gamma, params.ln_2_beta
    else:
        raise ShapeError(f"branch_index must be 1 or 2, got {branch_index}")
    x = linear(tokens, w, b)
    x = causal_conv1d(x, kernel, kbias)
    x = silu(x)
    x = ssm_scan(ssm, x)
    return layer_norm(x, gamma, beta)


def imb_forward(tokens: Tensor, params: ImbParams) -> Tensor:
    """Cross-gated fusion of the two branches, then conv + projection."""
    gate = linear(tokens, params.gate_w, params.gate_b)
    h1 = imb_branch(tokens, 1, params)
    h2 = imb_branch(tokens, 2, params)
    fused_1 = mul(mul(silu(h1), h2), gate)
    fused_2 = mul(mul(silu(h2), h1), gate)
    y = causal_conv1d(add(fused_1, fused_2), params.conv_3, params.conv_3_bias)
    return linear(y, params.out_w, params.out_b)
