"""Selective state-space recurrence and the interactive dual-branch block.

Each branch runs linear -> causal depthwise conv -> SiLU -> selective scan
-> layer norm.  The two branch outputs cross-gate each other under a shared
input gate, and a final short conv plus projection fuses them.

The scan, with the projections of B, C and Δ and the map A = -exp(a_log)
that feed it, is one fused tape primitive with two paths, chosen by
whether a tape is active.  Without one (evaluation, prediction) the
batch is cut into one contiguous block of rows per scan thread, and each
block runs the recurrence token by token, keeping only its current state
h_t, so memory grows with batch·dim·state, not with the token count.  It
uses phi·Δ·B·x = expm1(ΔA)·x·B/A and exp(ΔA) = expm1(ΔA) + 1, so each
token costs one transcendental per element:

    g = expm1(Δ_t A),  h_t = h_{t-1} + g ⊙ (h_{t-1} + x_t·B_t/A).

A = -exp(a_log) is never zero, and the form needs no small-|ΔA| series.
Each block reuses two [rows, dim, state] buffers across tokens.  Rows never
interact, so the output is bitwise equal for any thread count.  Under a tape
the backward rule runs only the state-gradient recurrence token by token,
forming the parameter gradients as whole-tensor products over tokens.  This
avoids recording ~10 tape nodes per token while keeping the gradient exact
(verified against finite differences and the unrolled recurrence).

The taped forward and its rule run over row blocks of the batch, each
[rows, Z, dim, state] array of a block holding about tensor.ROW_BLOCK_BYTES,
so that every op of a block works in cache.  _fill_block computes a block's
u = ΔA, decay factors exp(ΔA), discretisation factors (exp(ΔA) - 1)/(ΔA)
and states h_t from Δ·x, which each block forms for itself.  The forward
keeps none of them past its block: as in Mamba's hardware-aware scan, the
rule recomputes them, block by block, with the same operations, and only a
call of one block keeps its block for the rule.  The blocks run on one
thread per CPU this process may use, the caller and helpers of the call
(numpy releases the interpreter lock inside its loops); each takes the next
block not yet taken, in its own slice of scratch, allocated once per pass.
Every element goes through the same operations in the same order whatever
the block size or thread count, so outputs and gradients are bitwise equal
to one whole-batch pass on one thread.  The one reduction over (batch,
token), the gradient of A, sums the products du·Δ: each block forms its du
in its thread's scratch, and the blocks add their products to one running
total in block order (tensor._add_running), which gives the bits of one
einsum over a full-size du.  No array of the rule is full-size
[batch, Z, dim, state].
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from . import tensor
from .errors import ShapeError
from .nn import causal_conv1d, layer_norm, linear
from .rng import CounterRng
from .tensor import (
    Tensor,
    _add_running,
    _matmul_grads,
    _sigmoid,
    _silu_grad,
    _softplus,
    _unbroadcast,
    active_tape,
    parameter,
    record,
    reshape,
    silu,
)


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

# One scan thread per CPU this process may use, the caller among them, but
# at most 2, the only count measured (the thread-count FOUND, ROADMAP item
# 4): uncapped, a 60-row tape-free scan on 64 CPUs would start 59 threads.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def _each(fn, blocks: list[slice], then=None) -> None:
    """Call fn(worker, blk) for every block: the taped scan's row blocks
    and their rule, or the tape-free scan's one block of rows per worker.
    It runs inline when there is one block or one CPU.  Otherwise the
    caller is worker 0 and helper threads 1, 2, ..., started for this call,
    run beside it under its np.errstate; each takes the next block not yet
    taken, so a thread that starts late or runs slow takes fewer.  Every
    helper is joined before the call returns.

    ``then(worker, blk)``, if given, runs after fn(worker, blk) and after
    ``then`` has run for every earlier block, so it may carry a running
    total in block order; a thread waits for its turn holding its block.
    Once a block raises, no thread starts a block or waits for a turn, and
    the first error is raised in the caller once every helper has ended.
    """
    workers = min(_WORKERS, len(blocks))
    if workers <= 1:
        for blk in blocks:
            fn(0, blk)
            if then is not None:
                then(0, blk)
        return

    todo = enumerate(blocks)
    turns = threading.Condition()
    done = 0  # blocks whose then has run
    failures = []
    errstate = np.geterr()

    def share(w):
        nonlocal done
        with np.errstate(**errstate):
            try:
                while True:
                    with turns:
                        i, blk = next(todo, (None, None))
                        if blk is None or failures:
                            return
                    fn(w, blk)
                    if then is None:
                        continue
                    with turns:
                        turns.wait_for(lambda: done == i or failures)
                        if failures:
                            return
                    then(w, blk)
                    with turns:
                        done += 1
                        turns.notify_all()
            except BaseException as exc:
                with turns:
                    failures.append(exc)
                    turns.notify_all()

    helpers = [threading.Thread(target=share, args=(w,)) for w in range(1, workers)]
    try:
        for helper in helpers:
            helper.start()
        share(0)
    finally:
        for helper in helpers:
            if helper.is_alive():
                helper.join()
    if failures:
        raise failures[0]


def _fill_block(out: np.ndarray, delta: np.ndarray, a: np.ndarray, dx: np.ndarray, b: np.ndarray) -> None:
    """Fill out = [u, abar, phi, h], each [rows, Z, dim, state], for one row
    block: u = Δ·A, abar = exp(u), phi = (exp(u) - 1)/u and the states
    h_t = abar_t ⊙ h_{t-1} + phi_t·Δ_t·x_t·B_t.  ``delta`` and ``dx`` (Δ·x)
    are [rows, Z, dim], ``b`` is [rows, Z, state] and ``a`` [dim, state].
    The taped forward and, for a call of several blocks, its rule both call
    this, so the rule sees the bits the forward saw."""
    u, abar, phi, h = out
    np.multiply(delta[..., None], a, out=u)
    np.exp(u, out=abar)
    _phi(u, out=phi)
    # The drive phi·Δ·B·x of every token, then the recurrence adds the
    # decayed previous state.
    np.multiply(phi, dx[..., None], out=h)
    h *= b[:, :, None, :]
    for t in range(1, h.shape[1]):
        h[:, t] += abar[:, t] * h[:, t - 1]


def _scan(xd: np.ndarray, dd: np.ndarray, bd: np.ndarray, cd: np.ndarray, ad: np.ndarray):
    """Recurrence y_t = C_t · h_t, h_t = exp(Δ_t A) ⊙ h_{t-1} + B̄_t ⊙ x_t.

    Shapes: x, delta [batch, Z, dim]; b, c [batch, Z, state]; a [dim, state].
    State is diagonal per (dim, state) pair.  Returns y and, under an active
    tape, a function from y's gradient to the gradients of x, delta, b, c
    and a; without one, the function is None, and each scan thread builds
    the states of its block of rows one token at a time and drops them.
    """
    n_batch, n_tok, dim = xd.shape
    n_state = ad.shape[-1]
    if active_tape() is None:
        y = np.empty_like(xd)
        inv_a = 1.0 / ad

        def free_block(w, blk):
            # h_t = h_{t-1} + g·(h_{t-1} + x·B/A) with g = expm1(ΔA).  A copy
            # then a contiguous multiply runs faster than a broadcast multiply.
            h = np.zeros((blk.stop - blk.start, dim, n_state))
            g = np.empty_like(h)
            drive = np.empty_like(h)
            for t in range(n_tok):
                np.copyto(g, dd[blk, t, :, None])
                g *= ad
                np.expm1(g, out=g)
                np.copyto(drive, xd[blk, t, :, None])
                drive *= inv_a
                drive *= bd[blk, t, None, :]
                drive += h
                drive *= g
                h += drive
                y[blk, t] = np.matmul(h, cd[blk, t, :, None])[..., 0]

        # One contiguous block of rows per worker.
        workers = max(1, min(_WORKERS, n_batch))
        bounds = [n_batch * k // workers for k in range(workers + 1)]
        _each(free_block, [slice(r0, r1) for r0, r1 in zip(bounds, bounds[1:])])
        return y, None

    rows = min(n_batch, max(1, tensor.ROW_BLOCK_BYTES // (n_tok * dim * n_state * 8)))
    blocks = [slice(r0, min(r0 + rows, n_batch)) for r0 in range(0, n_batch, rows)]
    y = np.empty_like(xd)

    def new_scratch():
        # Per thread, one block each of u, abar, phi, the states and, for
        # the rule, du.
        return np.empty((min(_WORKERS, len(blocks)), 5, rows, n_tok, dim, n_state))

    def fill(scratch, w, blk, dx):
        block = scratch[w, :, : blk.stop - blk.start]
        _fill_block(block[:4], dd[blk], ad, dx, bd[blk])
        return block

    scratch = new_scratch()

    def forward_block(w, blk):
        h = fill(scratch, w, blk, dd[blk] * xd[blk])[3]
        np.matmul(h, cd[blk, ..., None], out=y[blk, ..., None])

    _each(forward_block, blocks)
    # One block is kept for the rule; a call of several refills each there.
    kept = scratch if len(blocks) == 1 else None

    def grads(gy):
        d_x = np.empty_like(xd)
        d_delta = np.empty_like(xd)
        d_b = np.empty_like(bd)
        d_c = np.empty_like(cd)
        d_a = np.zeros_like(ad)
        scratch = new_scratch() if kept is None else kept

        def rule_block(w, blk):
            # dh, the state gradient, takes the slot of u, which the rule
            # does not read.
            dx = dd[blk] * xd[blk]
            if kept is None:
                dh, a_blk, phi_blk, states, du = fill(scratch, w, blk, dx)
            else:
                dh, a_blk, phi_blk, states, du = scratch[w, :, : blk.stop - blk.start]
            np.matmul(gy[blk, :, None, :], states, out=d_c[blk, :, None, :])
            np.multiply(gy[blk, ..., None], cd[blk, :, None, :], out=dh)
            for t in range(n_tok - 2, -1, -1):
                dh[:, t] += a_blk[:, t + 1] * dh[:, t + 1]
            # ∂h_t/∂u_t = abar·h_{t-1} + phi'·Δ·B·x with phi' = (abar - phi)/u.
            # As u·phi = abar - 1 and abar·h_{t-1} = h_t - phi·Δ·B·x, this
            # equals h_t + (1 - phi)/A·B·x (u = Δ·A).  Where |u| < 1e-4,
            # 1 - phi takes its series -u·(1/2 + u/6 + u²/24).  As |u| is at
            # least min|Δ|·min|A|, that subset is looked for only when this
            # bound does not rule it out.
            np.subtract(1.0, phi_blk, out=du)
            if not np.abs(dd[blk]).min() * np.abs(ad).min() >= 1e-4:
                u = dd[blk, ..., None] * ad
                small = np.abs(u) < 1e-4
                u_small = u[small]
                du[small] = -u_small * (0.5 + u_small * (1.0 / 6.0 + u_small / 24.0))
            du /= ad
            du *= xd[blk, ..., None]
            du *= bd[blk, :, None, :]
            du += states
            du *= dh
            np.einsum("btds,ds->btd", du, ad, out=d_delta[blk])
            # du·Δ: the products d_a sums over (batch, token).
            du *= dd[blk, ..., None]
            # dh·phi is the gradient of the drive phi·Δ·B·x.
            dh *= phi_blk
            s = np.matmul(dh, bd[blk, ..., None])[..., 0]
            d_delta[blk] += s * xd[blk]
            np.matmul(dx[:, :, None, :], dh, out=d_b[blk, :, None, :])
            np.multiply(s, dd[blk], out=d_x[blk])

        def add_du(w, blk):
            _add_running(d_a, scratch[w, 4, : blk.stop - blk.start], (0, 1))

        # d_a sums du·Δ over every (batch, token); the blocks add theirs in
        # block order, with the bits of one einsum over a full-size du.
        _each(rule_block, blocks, then=add_du)
        return d_x, d_delta, d_b, d_c, d_a

    return y, grads


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
    """Selective scan over tokens; x is [..., Z, dim], output matches.

    One tape node, plus a reshape each way for a [Z, dim] input.  Inside it
    run the projections B = x·W_B and C = x·W_C, the step sizes
    Δ = softplus(x·W_Δ + b_Δ), A = -exp(a_log) and the recurrence.  The rule
    runs the rules of that chain in reverse order: the recurrence, then A,
    Δ, C and B.  x reaches the output four ways, so the node lists it four
    times, each contribution where the chain's rules produced it, and the
    tape sums them as it did for the chain.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    if x.ndim != 3:
        raise ShapeError(f"ssm_scan expects [batch, tokens, dim] or [tokens, dim], got {x.shape}")
    if x.is_complex:
        raise TypeError("ssm_scan is defined for real tensors only")
    xd = x.data
    w_b, w_c, w_delta = params.w_b.data, params.w_c.data, params.w_delta.data
    pre = xd @ w_delta
    pre += params.delta_bias.data
    # Only the rule reads softplus' gradient; pre itself is not kept.
    sig = None if active_tape() is None else _sigmoid(pre)
    delta = _softplus(pre)
    del pre
    exp_a = np.exp(params.a_log.data)
    y, scan_grads = _scan(xd, delta, xd @ w_b, xd @ w_c, -exp_a)
    out = Tensor(y)
    if scan_grads is not None:

        def rule(gs):
            d_x, g_pre, d_b, d_c, d_a = scan_grads(gs[0])
            g_pre *= sig
            gx_delta, g_w_delta = _matmul_grads(g_pre, xd, w_delta)
            gx_c, g_w_c = _matmul_grads(d_c, xd, w_c)
            gx_b, g_w_b = _matmul_grads(d_b, xd, w_b)
            return (
                d_x, -d_a * exp_a,
                gx_delta, g_w_delta, _unbroadcast(g_pre, params.delta_bias.shape),
                gx_c, g_w_c,
                gx_b, g_w_b,
            )

        record(
            (x, params.a_log, x, params.w_delta, params.delta_bias, x, params.w_c, x, params.w_b),
            (out,),
            rule,
        )
    if squeeze:
        out = reshape(out, out.shape[1:])
    return out


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


def cross_gate(h1: Tensor, h2: Tensor, gate: Tensor) -> Tensor:
    """silu(h1)·h2·gate + silu(h2)·h1·gate, elementwise, as one tape node.

    The rule repeats the rules of that chain of silu, mul and add nodes in
    the order the chain ran them.  Each input reaches the output twice, so
    the node lists it twice, each contribution where the chain's rules
    produced it, and the tape sums them as it did for the chain.  The node
    keeps the two sigmoids; the rule rebuilds both products silu(h1)·h2 and
    silu(h2)·h1 from them.
    """
    if not h1.shape == h2.shape == gate.shape:
        raise ShapeError(f"cross_gate shapes disagree: {h1.shape}, {h2.shape}, {gate.shape}")
    if h1.is_complex or h2.is_complex or gate.is_complex:
        raise TypeError("cross_gate is defined for real tensors only")
    a, b, gd = h1.data, h2.data, gate.data
    sig_1 = _sigmoid(a)
    out_data = a * sig_1 * b
    out_data *= gd
    sig_2 = _sigmoid(b)
    gated_2 = b * sig_2 * a
    gated_2 *= gd
    out_data += gated_2
    out = Tensor(out_data)

    def rule(gs):
        gated_1 = a * sig_1 * b
        gated_2 = b * sig_2 * a
        g_gated = gs[0] * gd
        return (
            gs[0] * gated_2,
            g_gated * (b * sig_2),
            _silu_grad(g_gated * a, b, sig_2),
            gs[0] * gated_1,
            g_gated * (a * sig_1),
            _silu_grad(g_gated * b, a, sig_1),
        )

    record((gate, h1, h2, gate, h2, h1), (out,), rule)
    return out


def imb_forward(tokens: Tensor, params: ImbParams) -> Tensor:
    """Cross-gated fusion of the two branches, then conv + projection."""
    gate = linear(tokens, params.gate_w, params.gate_b)
    h1 = imb_branch(tokens, 1, params)
    h2 = imb_branch(tokens, 2, params)
    y = causal_conv1d(cross_gate(h1, h2, gate), params.conv_3, params.conv_3_bias)
    return linear(y, params.out_w, params.out_b)
