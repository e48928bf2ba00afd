"""Fused tape primitives: each is one node, and its output and every input
gradient equal, bit for bit, those of the primitive chain it replaced.

The chains are built here from the primitives that remain in faim.tensor,
exactly as the blocks used to compose them.
"""

import tracemalloc

import numpy as np
import pytest

from faim.afb import AfbParams, PsiFilter, afb_forward
from faim.gradcheck import finite_diff_check
from faim.imb import cross_gate
from faim.nn import causal_conv1d, layer_norm, linear
from faim.spectral import KEEP_ABOVE, KEEP_BELOW, Spectrum, apply_mask, band_mask, irfft, rfft
from faim.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    concat,
    div,
    imag,
    make_complex,
    matmul,
    mul,
    narrow,
    neg,
    pad_axis,
    parameter,
    real,
    relu,
    silu,
    sub,
    texp,
    tlog,
    tmean,
    tsqrt,
    tsum,
)
from faim.training import batch_label_smoothed_ce, masked_mse, smooth_targets

# ---------------------------------------------------------------------------
# the chains
# ---------------------------------------------------------------------------


def linear_chain(x, weight, bias=None):
    out = matmul(x, weight)
    return out if bias is None else add(out, bias)


def conv_chain(x, kernel, bias=None):
    k = kernel.shape[0]
    n_tokens = x.shape[-2]
    padded = pad_axis(x, axis=-2, before=k - 1, after=0)
    out = None
    for i in range(k):
        window = narrow(padded, axis=-2, start=i, length=n_tokens)
        term = mul(window, narrow(kernel, 0, i, 1))
        out = term if out is None else add(out, term)
    return out if bias is None else add(out, bias)


def layer_norm_chain(x, gamma, beta, eps=1e-5):
    mean = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mean)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    scale = div(centered, tsqrt(add(var, Tensor(eps))))
    return add(mul(scale, gamma), beta)


def cross_gate_chain(h1, h2, gate):
    fused_1 = mul(mul(silu(h1), h2), gate)
    fused_2 = mul(mul(silu(h2), h1), gate)
    return add(fused_1, fused_2)


def ce_chain(logits, labels, eps):
    n_batch, n_classes = logits.shape
    targets = np.stack([smooth_targets(int(y), n_classes, eps) for y in labels])
    shift = sub(logits, Tensor(logits.data.max(axis=-1, keepdims=True)))
    log_probs = sub(shift, tlog(tsum(texp(shift), axis=-1, keepdims=True)))
    per_sample_sum = tsum(mul(log_probs, Tensor(targets)))
    return mul(neg(per_sample_sum), Tensor(1.0 / n_batch))


def mse_chain(x_true, x_hat, lam):
    diff = sub(x_hat, Tensor(x_true))
    per_patch = tmean(mul(diff, diff), axis=-1)
    return mul(tsum(mul(per_patch, Tensor(lam))), Tensor(1.0 / lam.sum()))


def psi_apply_chain(bins, w1, b1, w2, b2):
    d = bins.shape[-1]
    hidden = relu(linear(concat([real(bins), imag(bins)], axis=-1), w1, b1))
    halves = linear(hidden, w2, b2)
    values = make_complex(narrow(halves, halves.ndim - 1, 0, d), narrow(halves, halves.ndim - 1, d, d))
    return mul(values, bins)


def afb_chain(tokens, params, use_high=True, use_low=True):
    """The filtering block as the chain of spectral primitives it stands for."""
    s = rfft(tokens)

    def filtered(psi, bins):
        return psi_apply_chain(bins, psi.w1, psi.b1, psi.w2, psi.b2)

    integrated = filtered(params.psi_global, s.bins)
    if use_high:
        mask = band_mask(s, params.theta_high, KEEP_BELOW, params.tau)
        integrated = add(integrated, filtered(params.psi_high, apply_mask(s, mask).bins))
    if use_low:
        mask = band_mask(s, params.theta_low, KEEP_ABOVE, params.tau)
        integrated = add(integrated, filtered(params.psi_low, apply_mask(s, mask).bins))
    return irfft(Spectrum(integrated, s.n_time))


def afb_ops(use_high, use_low, tau=0.1):
    """The filtering block's node and its chain, as functions of tokens, the
    global filter's w1, b1, w2, b2, then the threshold and filter of each
    local branch that runs (high, then low).  A dropped branch has no
    inputs: neither side may read it.  The default tau is soft enough that
    every bin reaches each local filter with a weight a finite difference
    resolves."""

    def params(leaves):
        it = iter(leaves)

        def psi():
            return PsiFilter(*(next(it) for _ in range(4)))

        psi_global = psi()
        theta_high, psi_high = (next(it), psi()) if use_high else (None, None)
        theta_low, psi_low = (next(it), psi()) if use_low else (None, None)
        return AfbParams(theta_high, theta_low, psi_global, psi_high, psi_low, tau)

    def fused(tokens, *leaves):
        return afb_forward(tokens, params(leaves), use_high, use_low)[0]

    def chain(tokens, *leaves):
        return afb_chain(tokens, params(leaves), use_high, use_low)

    return fused, chain


_psi_fused, psi_chain = afb_ops(False, False)


def apply_psi(tokens, w1, b1, w2, b2):
    """The filter alone: the block with both local branches dropped."""
    return _psi_fused(tokens, w1, b1, w2, b2)


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def _readout(out):
    """A scalar of ``out`` whose gradient reaches every element with a
    different weight, or ``out`` itself when it is a scalar."""
    if out.size == 1:
        return out
    rng = np.random.default_rng(99)
    weights = rng.normal(size=out.shape)
    # Zero weights of both signs make zero gradients, whose signs the chain
    # fixes too: a +0.0 among the terms of a sum turns a -0.0 sum into +0.0.
    weights[..., 0] = -0.0
    weights.flat[1::5] = 0.0
    if out.is_complex:
        # The weight is a zero of that sign in both parts where it is zero.
        complex_weights = np.empty(out.shape, dtype=np.complex128)
        complex_weights.real = weights
        complex_weights.imag = np.where(weights == 0.0, weights, rng.normal(size=out.shape))
        return tsum(real(mul(out, Tensor(complex_weights))))
    return tsum(mul(out, Tensor(weights)))


def _run(op, arrays):
    """Output, input gradients and node count of ``op`` on fresh leaves."""
    leaves = [parameter(a) for a in arrays]
    with Tape() as tape:
        out = op(*leaves)
        n_nodes = len(tape.nodes)
        loss = _readout(out)
    grads = backward(tape, loss)
    return out.data, [grads[leaf] for leaf in leaves], n_nodes


def _bias(bias, shape, rng):
    return [] if not bias else [rng.normal(size=shape)]


def _filter(rng, dim, first_bias):
    """w1, b1, w2, b2 of a filter over dim; first_bias shifts b1."""
    return [rng.normal(size=(2 * dim, dim)), rng.normal(size=dim) + first_bias,
            rng.normal(size=(dim, 2 * dim)), rng.normal(size=2 * dim)]


def _cases():
    rng = np.random.default_rng(0)
    cases = []
    for x_shape in ((5, 3), (2, 5, 3)):
        for bias in (False, True):
            cases.append((
                f"linear-{len(x_shape)}d-bias{bias}", linear, linear_chain,
                [rng.normal(size=x_shape), rng.normal(size=(3, 4))] + _bias(bias, 4, rng),
            ))
        for k in (1, 2, 4, 7):
            for bias in (False, True):
                cases.append((
                    f"conv-{len(x_shape)}d-k{k}-bias{bias}", causal_conv1d, conv_chain,
                    [rng.normal(size=x_shape), rng.normal(size=(k, 3))] + _bias(bias, 3, rng),
                ))
            # Positive inputs and a negative kernel: zero gradients are -0.0.
            cases.append((
                f"conv-{len(x_shape)}d-k{k}-signs", causal_conv1d, conv_chain,
                [np.abs(rng.normal(size=x_shape)), -np.abs(rng.normal(size=(k, 3)))],
            ))
        if len(x_shape) == 2:
            # One token: the kernel gradient sums nothing, so its zeros keep their sign.
            cases.append((
                "conv-2d-one-token-signs", causal_conv1d, conv_chain,
                [np.abs(rng.normal(size=(1, 3))), rng.normal(size=(3, 3))],
            ))
        cases.append((
            f"layer_norm-{len(x_shape)}d", layer_norm, layer_norm_chain,
            [rng.normal(size=x_shape), rng.normal(size=3), rng.normal(size=3)],
        ))
        cases.append((
            f"cross_gate-{len(x_shape)}d", cross_gate, cross_gate_chain,
            [rng.normal(size=x_shape) for _ in range(3)],
        ))
        n_time = 8 if len(x_shape) == 2 else 9
        tokens_shape = x_shape[:-2] + (n_time, 3)
        for dead in (False, True):
            # A positive first bias keeps most hidden units alive; a negative
            # one leaves many at zero, whose gradients are zeros of either sign.
            cases.append((
                f"psi_apply-{len(x_shape)}d" + ("-dead" if dead else ""), apply_psi, psi_chain,
                [rng.normal(size=tokens_shape)] + _filter(rng, 3, -2.0 if dead else 1.0),
            ))
        for use_high, use_low in ((True, True), (True, False), (False, True)):
            fused, chain = afb_ops(use_high, use_low)
            cases.append((
                f"afb-{len(x_shape)}d-high{use_high}-low{use_low}", fused, chain,
                [rng.normal(size=tokens_shape)] + _filter(rng, 3, 1.0)
                + ([np.array(0.3)] + _filter(rng, 3, 1.0) if use_high else [])
                + ([np.array(0.1)] + _filter(rng, 3, 1.0) if use_low else []),
            ))
    labels = np.array([0, 2, 1, 2])
    cases.append((
        "batch_label_smoothed_ce", lambda z: batch_label_smoothed_ce(z, labels, 0.1),
        lambda z: ce_chain(z, labels, 0.1), [3.0 * rng.normal(size=(4, 3))],
    ))
    x_true = rng.normal(size=(2, 3, 4, 5))
    lam = (rng.uniform(size=(2, 3, 4)) < 0.4).astype(np.float64)
    cases.append((
        "masked_mse", lambda x: masked_mse(x_true, x, lam), lambda x: mse_chain(x_true, x, lam),
        [rng.normal(size=(2, 3, 4, 5))],
    ))
    return cases


CASES = _cases()


@pytest.mark.parametrize("name, fused, chain, arrays", CASES, ids=[c[0] for c in CASES])
def test_fused_op_is_one_node_and_bitwise_equal_to_its_chain(name, fused, chain, arrays):
    out, grads, n_nodes = _run(fused, arrays)
    out_ref, grads_ref, _ = _run(chain, arrays)
    assert n_nodes == 1
    assert out.tobytes() == out_ref.tobytes()
    for i, (g, g_ref) in enumerate(zip(grads, grads_ref)):
        assert g.shape == g_ref.shape and g.dtype == g_ref.dtype, f"input {i}"
        # Bytes, not values: -0.0 and +0.0 must agree too.
        assert g.tobytes() == g_ref.tobytes(), f"gradient of input {i} differs"


@pytest.mark.parametrize("name, fused, chain, arrays", CASES, ids=[c[0] for c in CASES])
def test_fused_op_gradcheck(name, fused, chain, arrays):
    for i in range(len(arrays)):
        def f(leaf):
            args = [Tensor(a) for a in arrays]
            args[i] = leaf
            return _readout(fused(*args))

        assert finite_diff_check(f, Tensor(arrays[i])) < 1e-5, f"input {i}"


def tied_afb(block):
    """A filtering block whose three branches share one filter and whose two
    local branches share one threshold, with its input added to its output."""

    def op(tokens, w1, b1, w2, b2, theta):
        psi = PsiFilter(w1, b1, w2, b2)
        return add(block(tokens, AfbParams(theta, theta, psi, psi, psi)), tokens)

    return op


def _shared_cases():
    """Fused ops whose inputs also feed other ops, and ops fed the same
    tensor several times."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 3))
    return [
        (
            "layer_norm-x-also-added", lambda x, g, b: add(layer_norm(x, g, b), x),
            lambda x, g, b: add(layer_norm_chain(x, g, b), x), [x, rng.normal(size=3), rng.normal(size=3)],
        ),
        (
            "cross_gate-inputs-also-used",
            lambda h1, h2, g: add(add(mul(h2, g), cross_gate(h1, h2, g)), h1),
            lambda h1, h2, g: add(add(mul(h2, g), cross_gate_chain(h1, h2, g)), h1),
            [rng.normal(size=(2, 5, 3)) for _ in range(3)],
        ),
        ("cross_gate-one-input", lambda h: cross_gate(h, h, h), lambda h: cross_gate_chain(h, h, h), [x]),
        (
            "afb-tied-filters-and-residual", tied_afb(lambda t, p: afb_forward(t, p)[0]), tied_afb(afb_chain),
            [rng.normal(size=(2, 8, 3))] + _filter(rng, 3, 1.0) + [np.array(0.2)],
        ),
    ]


SHARED_CASES = _shared_cases()


@pytest.mark.parametrize("name, fused, chain, arrays", SHARED_CASES, ids=[c[0] for c in SHARED_CASES])
def test_fused_op_is_bitwise_equal_to_its_chain_when_inputs_are_shared(name, fused, chain, arrays):
    # Each input's contributions reach the tape apart, so the tape adds them
    # to the other consumers' in the chain's order.
    out, grads, _ = _run(fused, arrays)
    out_ref, grads_ref, _ = _run(chain, arrays)
    assert out.tobytes() == out_ref.tobytes()
    for i, (g, g_ref) in enumerate(zip(grads, grads_ref)):
        assert g.tobytes() == g_ref.tobytes(), f"gradient of input {i} differs"


@pytest.mark.parametrize(
    "op, args",
    [
        (apply_psi, [np.ones((2, 3), dtype=np.complex128), np.ones((6, 3)), np.zeros(3), np.ones((3, 6)),
                     np.zeros(6)]),
        (apply_psi, [np.ones((2, 3)), np.ones((6, 3), dtype=np.complex128), np.zeros(3), np.ones((3, 6)),
                     np.zeros(6)]),
        (linear, [np.ones((2, 3), dtype=np.complex128), np.ones((3, 2))]),
        (causal_conv1d, [np.ones((4, 3), dtype=np.complex128), np.ones((2, 3))]),
        (layer_norm, [np.ones((2, 3), dtype=np.complex128), np.ones(3), np.zeros(3)]),
        (cross_gate, [np.ones((2, 3), dtype=np.complex128), np.ones((2, 3)), np.ones((2, 3))]),
    ],
)
def test_wrong_dtype_rejected(op, args):
    with pytest.raises(TypeError):
        op(*[Tensor(a) for a in args])


# ---------------------------------------------------------------------------
# what a taped forward keeps for its rule
# ---------------------------------------------------------------------------

# Default geometry: 32 samples of 6 channels, 16 tokens, dim 64.
ROWS, TOKENS, DIM = 192, 16, 64
# Room for the node, the rule's closure and the output's Tensor.
SLACK = 64 * 1024


def _kept_case(name):
    """The op, its inputs, and the bytes its docstring says it keeps."""
    rng = np.random.default_rng(5)
    x, h2, gate = (rng.normal(size=(ROWS, TOKENS, DIM)) for _ in range(3))
    per_row_token = ROWS * TOKENS * 8
    if name == "layer_norm":  # mean and sd
        return layer_norm, [x, np.ones(DIM), np.zeros(DIM)], 2 * per_row_token
    if name == "causal_conv1d":  # nothing
        return causal_conv1d, [x, rng.normal(size=(4, DIM)), np.zeros(DIM)], 0
    if name == "cross_gate":  # the two sigmoids
        return cross_gate, [x, h2, gate], 2 * x.nbytes
    # afb_forward: the spectrum, then per branch its mask (a few bytes), the
    # filter's hidden activations and its complex values
    bins = np.fft.rfft(x, axis=-2)
    fused, _ = afb_ops(True, True)
    leaves = [x] + _filter(rng, DIM, 0.0) + [np.array(0.4)] + _filter(rng, DIM, 0.0) \
        + [np.array(0.05)] + _filter(rng, DIM, 0.0)
    return fused, leaves, bins.nbytes + 3 * (bins.size * 8 + bins.nbytes)


@pytest.mark.parametrize("name", ["layer_norm", "causal_conv1d", "afb_forward", "cross_gate"])
def test_taped_forward_holds_its_output_and_what_it_keeps(name):
    op, arrays, kept = _kept_case(name)
    leaves = [parameter(a) for a in arrays]
    tracemalloc.start()
    try:
        with Tape():
            out = op(*leaves)
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= out.data.nbytes + kept + SLACK, (held - out.data.nbytes - kept) / 2**20
