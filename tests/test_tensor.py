"""Reverse-mode engine: primitive gradients, complex convention, tape rules."""

import numpy as np
import pytest

from faim import tensor
from faim.errors import ShapeError
from faim.gradcheck import finite_diff_check
from faim.nn import causal_conv1d, layer_norm
from faim.tensor import (
    Tape,
    Tensor,
    _matmul_grads,
    _unbroadcast,
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
    reshape,
    sigmoid,
    silu,
    softplus,
    stack,
    sub,
    texp,
    tlog,
    tmean,
    tsin,
    tsqrt,
    tsum,
    unbind,
)


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0, 3.0]))
            loss = tsum(x)
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [1.0, 1.0, 1.0])

    def test_square_gradient(self):
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0]))
            loss = tsum(mul(x, x))
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0]))
            y = mul(x, x)
        with pytest.raises(ShapeError):
            backward(tape, y)

    def test_non_trainable_leaves_receive_nothing(self):
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0]))
            c = Tensor(np.array([3.0, 4.0]))
            loss = tsum(mul(x, c))
        grads = backward(tape, loss)
        assert x in grads and c not in grads

    def test_result_holds_exactly_the_trainable_leaves_reached(self):
        # Not the loss, nor an intermediate flagged by hand, nor a parameter
        # whose node the loss does not read.
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0]))
            w = parameter(np.array([3.0, 4.0]))
            unused = parameter(np.array([5.0]))
            h = mul(x, w)
            h.requires_grad = True
            mul(unused, unused)
            loss = tsum(mul(h, Tensor(np.array([0.5, 0.5]))))
            loss.requires_grad = True
        grads = backward(tape, loss)
        assert set(grads) == {x, w}
        np.testing.assert_array_equal(grads[x], [1.5, 2.0])
        np.testing.assert_array_equal(grads[w], [0.5, 1.0])

    def test_gradient_accumulates_across_uses(self):
        with Tape() as tape:
            x = parameter(np.array(2.0))
            loss = add(mul(x, x), mul(x, Tensor(3.0)))
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x], 2.0 * 2.0 + 3.0)

    def test_tape_linearity(self):
        # gradient of a sum of outputs == sum of per-output gradients
        base = np.array([0.3, -1.2, 0.7])

        def grad_of(readout):
            with Tape() as tape:
                x = parameter(base.copy())
                y = mul(x, x)
                loss = readout(y)
            return backward(tape, loss)[x]

        g_sum = grad_of(lambda y: tsum(y))
        g_parts = [
            grad_of(lambda y, i=i: tsum(narrow(y, 0, i, 1))) for i in range(3)
        ]
        np.testing.assert_allclose(g_sum, np.sum(g_parts, axis=0), rtol=0, atol=1e-15)

    def test_no_tape_means_no_recording(self):
        x = parameter(np.array([1.0]))
        y = mul(x, x)
        assert isinstance(y, Tensor)

    def test_composite_conv_silu_layernorm_mean(self):
        rng = np.random.default_rng(0)
        kernel = Tensor(rng.normal(size=(3, 4)))
        gamma = Tensor(np.ones(4))
        beta = Tensor(np.zeros(4))

        def f(x):
            h = causal_conv1d(x, kernel)
            h = silu(h)
            h = layer_norm(h, gamma, beta)
            return tmean(mul(h, h))

        err = finite_diff_check(f, Tensor(rng.normal(size=(6, 4))))
        assert err < 1e-4


class TestPrimitiveGradients:
    CASES = [
        ("add", lambda x: tsum(add(mul(x, x), x))),
        ("sub", lambda x: tsum(sub(mul(x, x), x))),
        ("mul", lambda x: tsum(mul(x, mul(x, x)))),
        ("neg", lambda x: tsum(neg(mul(x, x)))),
        ("exp", lambda x: tsum(texp(x))),
        ("sin", lambda x: tsum(mul(tsin(x), tsin(x)))),
        ("sigmoid", lambda x: tsum(mul(sigmoid(x), x))),
        ("silu", lambda x: tsum(mul(silu(x), x))),
        ("softplus", lambda x: tsum(mul(softplus(x), x))),
        ("relu", lambda x: tsum(mul(relu(x), x))),
        ("mean", lambda x: tmean(mul(x, x))),
        ("sum_axis", lambda x: tsum(mul(tsum(x, axis=0), tsum(x, axis=0)))),
        ("mean_keepdims", lambda x: tsum(mul(x, tmean(x, axis=-1, keepdims=True)))),
        ("reshape", lambda x: tsum(mul(reshape(x, (6,)), reshape(x, (6,))))),
        ("narrow", lambda x: tsum(mul(narrow(x, 1, 1, 2), narrow(x, 1, 0, 2)))),
        ("pad", lambda x: tsum(mul(pad_axis(x, 0, 1, 2), pad_axis(x, 0, 1, 2)))),
        ("concat", lambda x: tsum(mul(concat([x, mul(x, x)], axis=1), concat([mul(x, x), x], axis=1)))),
    ]

    @pytest.mark.parametrize("name,f", CASES, ids=[c[0] for c in CASES])
    def test_gradcheck_five_seeds(self, name, f):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(2, 3)))
            assert finite_diff_check(f, x) < 1e-4, f"{name} failed at seed {seed}"

    @pytest.mark.parametrize("seed", range(5))
    def test_log_sqrt_div_on_positive_inputs(self, seed):
        rng = np.random.default_rng(seed)
        base = np.abs(rng.normal(size=(2, 3))) + 0.5
        assert finite_diff_check(lambda x: tsum(mul(tlog(x), x)), Tensor(base)) < 1e-4
        assert finite_diff_check(lambda x: tsum(mul(tsqrt(x), x)), Tensor(base)) < 1e-4
        other = Tensor(np.abs(rng.normal(size=(2, 3))) + 0.5)
        assert finite_diff_check(lambda x: tsum(div(x, other)), Tensor(base)) < 1e-4
        assert finite_diff_check(lambda x: tsum(div(other, x)), Tensor(base)) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_both_operands(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 4))
        assert finite_diff_check(lambda x: tsum(mul(matmul(x, Tensor(b)), matmul(x, Tensor(b)))), Tensor(a)) < 1e-4
        assert finite_diff_check(lambda x: tsum(mul(matmul(Tensor(a), x), matmul(Tensor(a), x))), Tensor(b)) < 1e-4

    def test_matmul_batched_broadcast(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 4, 3))
        w = rng.normal(size=(3, 5))
        err = finite_diff_check(lambda x: tsum(mul(matmul(Tensor(a), x), matmul(Tensor(a), x))), Tensor(w))
        assert err < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_stack_and_unbind(self, seed):
        rng = np.random.default_rng(seed)

        def f_stack(x):
            s = stack([x, mul(x, x)], axis=0)
            return tsum(mul(s, s))

        def f_unbind(x):
            parts = unbind(x, 1)
            return tsum(mul(parts[0], parts[2]))

        assert finite_diff_check(f_stack, Tensor(rng.normal(size=(2, 3)))) < 1e-4
        assert finite_diff_check(f_unbind, Tensor(rng.normal(size=(2, 3)))) < 1e-4

    def test_unbind_with_unused_outputs(self):
        # untouched slices must contribute zero, not fail
        with Tape() as tape:
            x = parameter(np.arange(6.0).reshape(2, 3))
            parts = unbind(x, 1)
            loss = tsum(parts[1])
        grads = backward(tape, loss)
        expected = np.zeros((2, 3))
        expected[:, 1] = 1.0
        np.testing.assert_array_equal(grads[x], expected)

    def test_broadcasting_unbroadcast(self):
        with Tape() as tape:
            x = parameter(np.array([1.0, 2.0]))
            y = parameter(np.ones((3, 2)))
            loss = tsum(mul(x, y))
        grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [3.0, 3.0])
        np.testing.assert_array_equal(grads[y], [[1.0, 2.0]] * 3)


class TestSigmoidValues:
    def test_bitwise_equal_to_the_two_branch_formula(self):
        x = np.concatenate(
            [[0.0, -0.0, 800.0, -800.0, np.inf, -np.inf], np.random.default_rng(3).normal(scale=20.0, size=2000)]
        )
        z = np.exp(-np.abs(x))
        reference = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
        np.testing.assert_array_equal(sigmoid(Tensor(x)).data.view(np.int64), reference.view(np.int64))


class TestComplexConvention:
    """Gradients of complex tensors are packed dL/dRe + 1j * dL/dIm."""

    @pytest.mark.parametrize("seed", range(5))
    def test_complex_mul_against_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        other = Tensor(rng.normal(size=(3,)) + 1j * rng.normal(size=(3,)))

        def f(z):
            w = mul(z, other)
            return tsum(add(mul(real(w), real(w)), mul(imag(w), imag(w))))

        z0 = Tensor(rng.normal(size=(3,)) + 1j * rng.normal(size=(3,)))
        assert finite_diff_check(f, z0) < 1e-4

    def test_real_times_complex_projects_gradient(self):
        rng = np.random.default_rng(0)
        weight = Tensor(rng.normal(size=(3,)) + 1j * rng.normal(size=(3,)))

        def f(x):
            w = mul(x, weight)
            return tsum(add(mul(real(w), real(w)), mul(imag(w), imag(w))))

        x0 = Tensor(rng.normal(size=(3,)))
        assert not x0.is_complex
        assert finite_diff_check(f, x0) < 1e-4

    def test_make_complex_then_split_roundtrip_gradient(self):
        rng = np.random.default_rng(1)

        def f(x):
            z = make_complex(x, mul(x, x))
            return tsum(add(mul(real(z), imag(z)), real(z)))

        assert finite_diff_check(f, Tensor(rng.normal(size=(4,)))) < 1e-4

    def test_imag_of_real_tensor_is_zero(self):
        x = Tensor(np.array([1.0, -2.0]))
        np.testing.assert_array_equal(imag(x).data, [0.0, 0.0])

    def test_mul_values_match_numpy_complex_product(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4,)) + 1j * rng.normal(size=(4,))
        b = rng.normal(size=(4,)) + 1j * rng.normal(size=(4,))
        out = mul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a * b, atol=1e-15)


class TestFiniteDiffContract:
    def test_linear_function_is_exact(self):
        rng = np.random.default_rng(4)
        assert finite_diff_check(lambda x: tsum(x), Tensor(rng.normal(size=(5,)))) < 1e-10

    def test_sum_of_sin_truncation_bound(self):
        rng = np.random.default_rng(5)
        err = finite_diff_check(lambda x: tsum(tsin(x)), Tensor(rng.normal(size=(6,))), eps=1e-5)
        assert err < 1e-6


class TestMatmulGradChunks:
    """A 3-D a against a 2-D weight: the weight's gradient sums one product
    per row of a, in chunks of at most tensor.ROW_BLOCK_BYTES, with the bits
    of one sum over every row's product."""

    IN, OUT, TOKENS = 3, 4, 5

    def _arrays(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, self.TOKENS, self.IN))
        g = np.abs(rng.normal(size=(rows, self.TOKENS, self.OUT))) + 0.1
        # every product a·g that feeds this row of b's gradient is -0.0
        a[..., 1] = -0.0
        b = rng.normal(size=(self.IN, self.OUT))
        return g, a, b

    @pytest.mark.parametrize("rows", [3, 9, 11])  # one chunk, three, and three plus a remainder
    def test_chunked_sum_is_bitwise_equal_to_one_sum(self, monkeypatch, rows):
        monkeypatch.setattr(tensor, "ROW_BLOCK_BYTES", 3 * self.IN * self.OUT * 8)
        g, a, b = self._arrays(rows)
        chunks = []
        add_running = tensor._add_running

        def counted(total, parts, axes):
            chunks.append(len(parts))
            add_running(total, parts, axes)

        monkeypatch.setattr(tensor, "_add_running", counted)
        ga, gb = _matmul_grads(g, a, b)
        assert chunks == ([] if rows == 3 else [3] * (rows // 3) + [rows % 3] * (rows % 3 > 0))
        assert ga.tobytes() == _unbroadcast(g @ b.T, a.shape).tobytes()
        assert gb.tobytes() == _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape).tobytes()
        assert gb.shape == b.shape
