"""Selective scan and the interactive dual-branch block."""

import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from faim import imb
from faim.errors import ShapeError
from faim.gradcheck import finite_diff_check
from faim.imb import (
    _scan_primitive,
    discretize,
    imb_branch,
    imb_forward,
    init_imb_params,
    init_ssm_params,
    ssm_scan,
)
from faim.nn import causal_conv1d, layer_norm, linear
from faim.rng import CounterRng
from faim.tensor import Tape, Tensor, backward, mul, parameter, silu, tsum


def np_softplus(v):
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def np_silu(v):
    return v / (1.0 + np.exp(-v))


def scan_np(params, x):
    """Unrolled per-token recurrence in plain numpy, the scan oracle."""
    bt = x @ params.w_b.data
    ct = x @ params.w_c.data
    delta = np_softplus(x @ params.w_delta.data + params.delta_bias.data)
    a = -np.exp(params.a_log.data)
    dim, state = a.shape
    h = np.zeros((dim, state))
    ys = np.empty_like(x)
    for t in range(x.shape[0]):
        u = delta[t][:, None] * a
        a_bar = np.exp(u)
        phi = np.where(np.abs(u) < 1e-12, 1.0, np.expm1(u) / np.where(u == 0, 1.0, u))
        b_bar = phi * delta[t][:, None] * bt[t][None, :]
        h = a_bar * h + b_bar * x[t][:, None]
        ys[t] = h @ ct[t]
    return ys


class TestDiscretize:
    def test_zero_state_matrix_limit(self):
        a_bar, b_bar = discretize(0.0, 3.0, 0.7)
        np.testing.assert_allclose(a_bar, 1.0, atol=1e-15)
        np.testing.assert_allclose(b_bar, 0.7 * 3.0, atol=1e-12)

    def test_vanishing_step(self):
        a_bar, b_bar = discretize(-2.0, 1.5, 1e-12)
        np.testing.assert_allclose(a_bar, 1.0, atol=1e-10)
        np.testing.assert_allclose(b_bar, 0.0, atol=1e-10)

    def test_scalar_formula(self):
        # DERIVED: A=-1, delta=0.5, B=2 evaluated from the closed form
        a_bar, b_bar = discretize(-1.0, 2.0, 0.5)
        np.testing.assert_allclose(a_bar, np.exp(-0.5), rtol=1e-15)
        expected_b = (np.exp(-0.5) - 1.0) / (-0.5) * 0.5 * 2.0
        np.testing.assert_allclose(b_bar, expected_b, rtol=1e-12)

    def test_continuity_at_the_singularity(self):
        _, b_tiny = discretize(1e-10, 2.0, 0.5)
        np.testing.assert_allclose(b_tiny, 0.5 * 2.0, atol=1e-8)

    def test_broadcasts_elementwise(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(1, 4))
        d = np.abs(rng.normal(size=(3, 1))) + 0.1
        a_bar, b_bar = discretize(a, b, d)
        assert a_bar.shape == (3, 4) and b_bar.shape == (3, 4)
        np.testing.assert_allclose(a_bar, np.exp(d * a), rtol=1e-12)


class TestSsmScan:
    def _params(self, dim=3, state=4, seed=0):
        return init_ssm_params(dim, state, CounterRng(seed))

    def test_zero_input_gives_zero_output(self):
        params = self._params()
        with Tape():
            y = ssm_scan(params, Tensor(np.zeros((6, 3))))
        np.testing.assert_array_equal(y.data, np.zeros((6, 3)))

    def test_single_token_closed_form(self):
        params = self._params(seed=1)
        x = np.random.default_rng(1).normal(size=(1, 3))
        with Tape():
            y = ssm_scan(params, Tensor(x))
        b1 = x @ params.w_b.data
        c1 = x @ params.w_c.data
        d1 = np_softplus(x @ params.w_delta.data + params.delta_bias.data)
        a = -np.exp(params.a_log.data)
        _, b_bar = discretize(a, b1[0][None, :], d1[0][:, None])
        h1 = b_bar * x[0][:, None]
        np.testing.assert_allclose(y.data[0], h1 @ c1[0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_unrolled_recurrence(self, seed):
        params = self._params(dim=3, state=5, seed=seed)
        x = np.random.default_rng(seed).normal(size=(6, 3))
        with Tape():
            y = ssm_scan(params, Tensor(x))
        np.testing.assert_allclose(y.data, scan_np(params, x), atol=1e-12)

    def test_batched_matches_per_sample(self):
        params = self._params(seed=3)
        batch = np.random.default_rng(3).normal(size=(4, 6, 3))
        with Tape():
            y_b = ssm_scan(params, Tensor(batch))
        for i in range(4):
            np.testing.assert_allclose(y_b.data[i], scan_np(params, batch[i]), atol=1e-12)

    def test_causality(self):
        params = self._params(seed=4)
        x = np.random.default_rng(4).normal(size=(8, 3))
        bumped = x.copy()
        bumped[5] += 1.0
        with Tape():
            y0 = ssm_scan(params, Tensor(x))
            y1 = ssm_scan(params, Tensor(bumped))
        np.testing.assert_array_equal(y0.data[:5], y1.data[:5])
        assert np.max(np.abs(y0.data[5:] - y1.data[5:])) > 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_decay_factors_stay_in_unit_interval(self, seed):
        params = self._params(dim=4, state=6, seed=seed)
        x = np.random.default_rng(seed).normal(size=(10, 4))
        delta = np_softplus(x @ params.w_delta.data + params.delta_bias.data)
        a = -np.exp(params.a_log.data)
        a_bar = np.exp(delta[..., None] * a)
        assert np.all(a_bar > 0.0) and np.all(a_bar < 1.0)

    def test_rank_mismatch_rejected(self):
        params = self._params()
        with pytest.raises(ShapeError):
            with Tape():
                ssm_scan(params, Tensor(np.zeros((2, 2, 6, 3))))

    def _assert_gradients(self, params, x0, scale):
        """x and all five SsmParams fields against central differences;
        ``scale`` multiplies the output to keep the loss off the rounding floor."""

        def loss_with(p, x):
            y = mul(ssm_scan(p, x), Tensor(np.full(x0.shape, scale)))
            return tsum(mul(y, y))

        assert finite_diff_check(lambda x: loss_with(params, x), Tensor(x0.copy())) < 1e-4
        for field in ("a_log", "w_b", "w_c", "w_delta", "delta_bias"):
            def f(t, field=field):
                p = dataclasses.replace(params, **{field: t})
                return loss_with(p, Tensor(x0.copy()))

            t0 = Tensor(getattr(params, field).data.copy())
            assert finite_diff_check(f, t0) < 1e-4, field

    def test_gradients_pass_finite_differences(self):
        params = self._params(dim=2, state=3, seed=6)
        # larger step sizes keep the per-mode gradients off the rounding floor
        params.delta_bias.data[:] = 0.5
        self._assert_gradients(params, np.random.default_rng(6).normal(size=(5, 2)), 1.0)

    def test_gradients_across_the_small_step_series(self):
        params = self._params(dim=2, state=3, seed=6)
        # tiny steps put u = Δ·A on both sides of the backward series
        # threshold |u| = 1e-4
        params.delta_bias.data[:] = -10.5
        x0 = np.random.default_rng(6).normal(size=(5, 2))
        delta = np_softplus(x0 @ params.w_delta.data + params.delta_bias.data)
        u = np.abs(delta[..., None] * np.exp(params.a_log.data))
        assert np.any(u < 1e-4) and np.any(u >= 1e-4)
        self._assert_gradients(params, x0, 1e4)

    def test_tape_free_matches_taped(self):
        params = self._params(seed=7)
        x = np.random.default_rng(7).normal(size=(4, 8, 3))
        free = ssm_scan(params, Tensor(x))
        with Tape():
            taped = ssm_scan(params, Tensor(x))
        np.testing.assert_allclose(free.data, taped.data, rtol=0.0, atol=1e-12)

    def test_tape_free_matches_taped_at_small_steps(self):
        # |u| = |Δ·A| between about 2e-5 and 7e-4, where the taped forward's
        # phi = expm1(u)/u and the tape-free expm1(u)·x·B/A drive part most
        params = self._params(dim=2, state=3, seed=6)
        params.delta_bias.data[:] = -10.5
        x = np.random.default_rng(6).normal(size=(5, 2))
        delta = np_softplus(x @ params.w_delta.data + params.delta_bias.data)
        u = delta[..., None] * np.exp(params.a_log.data)
        assert 2e-5 < u.min() and u.max() < 1e-3
        free = ssm_scan(params, Tensor(x))
        with Tape():
            taped = ssm_scan(params, Tensor(x))
        np.testing.assert_allclose(free.data, taped.data, rtol=0.0, atol=1e-12)

    def test_tape_free_keeps_no_full_state_array(self):
        # a [B, Z, D, N] float64 array here is 384*16*64*16*8 bytes, about 50 MB
        params = init_ssm_params(64, 16, CounterRng(8))
        x = Tensor(np.random.default_rng(8).normal(size=(384, 16, 64)))
        tracemalloc.start()
        try:
            ssm_scan(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 384 * 16 * 64 * 16 * 8, peak


class TestBlockedScan:
    """The taped scan runs over row blocks sized from imb.ROW_BLOCK_BYTES,
    on imb._WORKERS threads: the caller and imb._POOL's helpers.  Every
    block size and thread count must give the bits of one whole-batch pass
    on one thread."""

    ROWS, TOKENS, DIM, STATE = 7, 6, 5, 3

    def _inputs(self):
        params = init_ssm_params(self.DIM, self.STATE, CounterRng(9))
        rng = np.random.default_rng(9)
        x = rng.normal(size=(self.ROWS, self.TOKENS, self.DIM))
        # tiny steps put u = Δ·A on both sides of the series thresholds
        delta = np_softplus(x @ params.w_delta.data - 10.5)
        a = -np.exp(params.a_log.data)
        u = np.abs(delta[..., None] * a)
        assert np.any(u < 1e-4) and np.any(u >= 1e-4)
        weights = rng.normal(size=x.shape)
        return (x, delta, x @ params.w_b.data, x @ params.w_c.data, a), weights

    def _run(self, monkeypatch, rows):
        monkeypatch.setattr(imb, "ROW_BLOCK_BYTES", rows * self.TOKENS * self.DIM * self.STATE * 8)
        arrays, weights = self._inputs()
        leaves = [parameter(v) for v in arrays]
        with Tape() as tape:
            y = _scan_primitive(*leaves)
            loss = tsum(mul(y, Tensor(weights)))
        grads = backward(tape, loss)
        return [y.data] + [grads[leaf] for leaf in leaves]

    @pytest.fixture
    def use_workers(self, monkeypatch):
        """Gives the scan n threads, the caller and n - 1 helpers on a pool
        of its own, whatever the CPU count.  Threads switch every
        microsecond meanwhile, so that they interleave even on these small
        blocks."""
        pools = []

        def use(n):
            pools.append(ThreadPoolExecutor(max(1, n - 1)))
            monkeypatch.setattr(imb, "_WORKERS", n)
            monkeypatch.setattr(imb, "_POOL", pools[-1])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield use
        finally:
            sys.setswitchinterval(interval)
            for pool in pools:
                pool.shutdown(wait=True)

    def test_outputs_and_gradients_are_bitwise_equal_across_block_sizes(self, monkeypatch, use_workers):
        # every block size, on 1, 2 and 3 workers, against one block on one
        use_workers(1)
        whole = self._run(monkeypatch, self.ROWS)
        for workers in (1, 2, 3):
            use_workers(workers)
            for rows in (1, 3) * 5:
                blocked = self._run(monkeypatch, rows)
                for name, a, b in zip(("y", "x", "delta", "b", "c", "a"), whole, blocked):
                    assert np.array_equal(a, b), (workers, rows, name)

    def test_tape_free_output_is_bitwise_equal_across_worker_counts(self, use_workers):
        arrays, _ = self._inputs()
        outputs = []
        for workers in (1, 2, 3):
            use_workers(workers)
            outputs.append(_scan_primitive(*map(Tensor, arrays)).data)
        assert all(np.array_equal(outputs[0], y) for y in outputs[1:])

    def test_one_block_never_touches_the_pool(self, monkeypatch):
        class RefusingPool:
            def submit(self, *args):
                raise AssertionError("a one-block scan submitted work to the pool")

        monkeypatch.setattr(imb, "_WORKERS", 2)
        monkeypatch.setattr(imb, "_POOL", RefusingPool())
        # pretrain-tiny geometry: 8 rows of 16 tokens, dim 16, state 4
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 16, 16))
        leaves = [parameter(v) for v in (x, np_softplus(x), x[..., :4], x[..., 4:8], -np.ones((16, 4)))]
        with Tape() as tape:
            loss = tsum(_scan_primitive(*leaves))
        backward(tape, loss)

    def test_helpers_that_never_start_are_not_waited_for(self, monkeypatch):
        class NeverStarts(Future):
            def result(self, timeout=None):
                raise AssertionError("waited for a helper that never started")

        class StalledPool:
            def submit(self, *args):
                return NeverStarts()

        monkeypatch.setattr(imb, "_WORKERS", 3)
        monkeypatch.setattr(imb, "_POOL", StalledPool())
        taken = []
        imb._each(lambda w, blk: taken.append((w, blk.start)), [slice(r, r + 1) for r in range(4)])
        assert taken == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_helpers_run_under_the_callers_error_state(self, use_workers):
        use_workers(2)
        # each thread holds its first block until the other has taken one
        both_in = threading.Barrier(2, timeout=10)
        seen = {}

        def fn(w, blk):
            if w not in seen:
                seen[w] = np.geterr()["over"]
                both_in.wait()

        with np.errstate(over="raise"):
            imb._each(fn, [slice(r, r + 1) for r in range(3)])
        assert seen == {0: "raise", 1: "raise"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_scans_on_a_pool_of_its_own(self, use_workers):
        use_workers(2)
        arrays, _ = self._inputs()
        y = _scan_primitive(*map(Tensor, arrays)).data
        imb._POOL.submit(int).result(timeout=10)  # the pool's thread now runs
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.write(write_end, _scan_primitive(*map(Tensor, arrays)).data.tobytes())
                # times out on the inherited pool, which has no threads
                imb._POOL.submit(int).result(timeout=10)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        deadline = time.monotonic() + 30
        while (status := os.waitpid(pid, os.WNOHANG)) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's scan did not finish")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0
        with os.fdopen(read_end, "rb") as fh:
            assert fh.read() == y.tobytes()


class TestImbBranch:
    def _params(self, dim=3, state=4, seed=0, **kw):
        return init_imb_params(dim, state, CounterRng(seed), **kw)

    def test_zero_input_yields_shift_row(self):
        params = self._params(seed=1)
        params.ln_1_beta.data[:] = np.array([0.5, -1.0, 2.0])
        with Tape():
            out = imb_branch(Tensor(np.zeros((6, 3))), 1, params)
        # zero tokens stay zero through the whole chain; the normalizer then
        # emits its shift at every position
        np.testing.assert_allclose(out.data, np.tile([0.5, -1.0, 2.0], (6, 1)), atol=1e-12)

    def test_invalid_branch_index(self):
        params = self._params()
        with pytest.raises(ShapeError):
            with Tape():
                imb_branch(Tensor(np.zeros((4, 3))), 3, params)

    @pytest.mark.parametrize("branch", [1, 2])
    def test_matches_manual_stage_composition(self, branch):
        params = self._params(seed=2)
        x = np.random.default_rng(2).normal(size=(6, 3))
        with Tape():
            got = imb_branch(Tensor(x), branch, params)
            if branch == 1:
                w, b = params.in_w_1, params.in_b_1
                kernel, kbias = params.conv_1, params.conv_1_bias
                ssm, gamma, beta = params.ssm_1, params.ln_1_gamma, params.ln_1_beta
            else:
                w, b = params.in_w_2, params.in_b_2
                kernel, kbias = params.conv_2, params.conv_2_bias
                ssm, gamma, beta = params.ssm_2, params.ln_2_gamma, params.ln_2_beta
            h = linear(Tensor(x), w, b)
            h = causal_conv1d(h, kernel, kbias)
            h = silu(h)
            h = ssm_scan(ssm, h)
            expected = layer_norm(h, gamma, beta)
        np.testing.assert_allclose(got.data, expected.data, atol=1e-13)

    def test_branch_one_numpy_replica(self):
        # the five stages rebuilt in plain numpy, end to end
        params = self._params(seed=3)
        x = np.random.default_rng(3).normal(size=(5, 3))
        with Tape():
            got = imb_branch(Tensor(x), 1, params)

        h = x @ params.in_w_1.data + params.in_b_1.data
        k = params.conv_1.data
        padded = np.vstack([np.zeros((k.shape[0] - 1, 3)), h])
        conv = sum(
            padded[i : i + 5] * k[i] for i in range(k.shape[0])
        ) + params.conv_1_bias.data
        act = np_silu(conv)
        y = scan_np(params.ssm_1, act)
        mu = y.mean(axis=-1, keepdims=True)
        var = ((y - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (y - mu) / np.sqrt(var + 1e-5) * params.ln_1_gamma.data + params.ln_1_beta.data
        np.testing.assert_allclose(got.data, expected, atol=1e-10)


class TestImbForward:
    def _params(self, dim=3, state=4, seed=0, **kw):
        return init_imb_params(dim, state, CounterRng(seed), **kw)

    def test_output_shape(self):
        params = self._params()
        with Tape():
            out = imb_forward(Tensor(np.random.default_rng(0).normal(size=(6, 3))), params)
        assert out.shape == (6, 3)

    def test_matches_cross_gating_formula(self):
        params = self._params(seed=1)
        x = np.random.default_rng(1).normal(size=(6, 3))
        with Tape():
            out = imb_forward(Tensor(x), params)
            g = linear(Tensor(x), params.gate_w, params.gate_b)
            h1 = imb_branch(Tensor(x), 1, params)
            h2 = imb_branch(Tensor(x), 2, params)
        fused = np_silu(h1.data) * h2.data * g.data + np_silu(h2.data) * h1.data * g.data
        k = params.conv_3.data  # length-1 kernel: per-token scaling
        y = fused * k[0] + params.conv_3_bias.data
        expected = y @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-11)

    def test_zeroed_branch_annihilates_both_products(self):
        params = self._params(seed=2)
        params.ln_2_gamma.data[:] = 0.0
        params.ln_2_beta.data[:] = 0.0
        params.out_b.data[:] = np.array([1.0, 2.0, 3.0])
        x = np.random.default_rng(2).normal(size=(6, 3))
        with Tape():
            out = imb_forward(Tensor(x), params)
        # h2 == 0 kills silu(h1)*h2 directly and silu(h2)*h1 via silu(0)=0,
        # so only the bias path survives
        expected = np.tile(params.conv_3_bias.data @ params.out_w.data + params.out_b.data, (6, 1))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_branch_swap_leaves_output_unchanged(self):
        params = self._params(seed=3)
        swapped = dataclasses.replace(
            params,
            in_w_1=params.in_w_2,
            in_b_1=params.in_b_2,
            in_w_2=params.in_w_1,
            in_b_2=params.in_b_1,
            conv_1=params.conv_2,
            conv_1_bias=params.conv_2_bias,
            conv_2=params.conv_1,
            conv_2_bias=params.conv_1_bias,
            ssm_1=params.ssm_2,
            ssm_2=params.ssm_1,
            ln_1_gamma=params.ln_2_gamma,
            ln_1_beta=params.ln_2_beta,
            ln_2_gamma=params.ln_1_gamma,
            ln_2_beta=params.ln_1_beta,
        )
        x = np.random.default_rng(3).normal(size=(6, 3))
        with Tape():
            out_a = imb_forward(Tensor(x), params)
        with Tape():
            out_b = imb_forward(Tensor(x), swapped)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    def test_causality(self):
        params = self._params(seed=4)
        x = np.random.default_rng(4).normal(size=(8, 3))
        bumped = x.copy()
        bumped[4] += 0.7
        with Tape():
            y0 = imb_forward(Tensor(x), params)
            y1 = imb_forward(Tensor(bumped), params)
        np.testing.assert_array_equal(y0.data[:4], y1.data[:4])
        assert np.max(np.abs(y0.data[4:] - y1.data[4:])) > 1e-8

    def test_gradient_passes_finite_differences(self):
        params = self._params(dim=2, state=3, seed=7)
        params.ssm_1.delta_bias.data[:] = 0.5
        params.ssm_2.delta_bias.data[:] = 0.5

        def f(x):
            out = imb_forward(x, params)
            return tsum(mul(out, out))

        x0 = Tensor(np.random.default_rng(7).normal(size=(5, 2)))
        assert finite_diff_check(f, x0) < 1e-4

    def test_gate_weight_gradient(self):
        params = self._params(dim=2, state=3, seed=8)
        params.ssm_1.delta_bias.data[:] = 0.5
        params.ssm_2.delta_bias.data[:] = 0.5
        x = Tensor(np.random.default_rng(8).normal(size=(5, 2)))

        def f(w):
            p = dataclasses.replace(params, gate_w=w)
            out = imb_forward(x, p)
            return tsum(mul(out, out))

        assert finite_diff_check(f, Tensor(params.gate_w.data.copy())) < 1e-4
