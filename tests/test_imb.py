"""Selective scan and the interactive dual-branch block."""

import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from faim import imb, tensor
from faim.errors import ShapeError
from faim.gradcheck import finite_diff_check
from faim.imb import (
    SsmParams,
    discretize,
    imb_branch,
    imb_forward,
    init_imb_params,
    init_ssm_params,
    ssm_scan,
)
from faim.nn import causal_conv1d, layer_norm, linear
from faim.rng import CounterRng
from faim.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    matmul,
    mul,
    neg,
    parameter,
    record,
    silu,
    softplus,
    texp,
    tsum,
)


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


def scan_full_du(xd, dd, bd, cd, ad):
    """The taped scan as one whole-batch pass whose rule holds a full-size
    du and sums the gradient of A with one einsum over (batch, token): the
    reference for the blocked rule, which sums du·Δ block by block."""
    states = np.empty((4,) + dd.shape + ad.shape[-1:])
    dx = dd * xd
    imb._fill_block(states, dd, ad, dx, bd)
    _, abar, phi, h = states
    y = np.matmul(h, cd[..., None])[..., 0]

    def grads(gy):
        d_c = np.matmul(gy[:, :, None, :], h)[:, :, 0, :]
        dh = gy[..., None] * cd[:, :, None, :]
        for t in range(dh.shape[1] - 2, -1, -1):
            dh[:, t] += abar[:, t + 1] * dh[:, t + 1]
        du = 1.0 - phi
        u = dd[..., None] * ad
        small = np.abs(u) < 1e-4
        du[small] = -u[small] * (0.5 + u[small] * (1.0 / 6.0 + u[small] / 24.0))
        du /= ad
        du *= xd[..., None]
        du *= bd[:, :, None, :]
        du += h
        du *= dh
        d_delta = np.einsum("btds,ds->btd", du, ad)
        dh *= phi
        s = np.matmul(dh, bd[..., None])[..., 0]
        d_delta += s * xd
        d_b = np.matmul(dx[:, :, None, :], dh)[:, :, 0, :]
        return s * dd, d_delta, d_b, d_c, np.einsum("btds,btd->ds", du, dd)

    return y, grads


def scan_chain(params, x, core=imb._scan):
    """The chain ssm_scan stands for: B, C, Δ and A as nodes of their own,
    then one node for the recurrence alone, run by ``core``."""
    b_proj = matmul(x, params.w_b)
    c_proj = matmul(x, params.w_c)
    delta = softplus(linear(x, params.w_delta, params.delta_bias))
    a = neg(texp(params.a_log))
    y, grads = core(x.data, delta.data, b_proj.data, c_proj.data, a.data)
    out = Tensor(y)
    record((x, delta, b_proj, c_proj, a), (out,), lambda gs: grads(gs[0]))
    return out


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

    def test_records_one_node(self):
        params = self._params()
        x = np.random.default_rng(2).normal(size=(2, 6, 3))
        with Tape() as tape:
            ssm_scan(params, Tensor(x))
        assert len(tape.nodes) == 1
        with Tape() as tape:
            ssm_scan(params, Tensor(x[0]))
        # a [Z, dim] input is reshaped to one row and back
        assert len(tape.nodes) == 3

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


    def test_taped_forward_keeps_no_full_state_array(self, monkeypatch):
        # The rule refills each block's states instead of keeping them and
        # streams du block by block, so after the forward less than one
        # [B, Z, D, N] array (about 50 MB here) is held, and the backward's
        # peak, gradients and per-thread scratch included, stays below one.
        full = 384 * 16 * 64 * 16 * 8
        monkeypatch.setattr(imb, "_WORKERS", 2)
        params = init_ssm_params(64, 16, CounterRng(8))
        x = parameter(np.random.default_rng(8).normal(size=(384, 16, 64)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = tsum(ssm_scan(params, x))
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            backward(tape, loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < full, held
        assert peak - held < full, peak - held


class TestBlockedScan:
    """The taped scan runs over row blocks sized from tensor.ROW_BLOCK_BYTES,
    on imb._WORKERS threads: the caller and helpers started for the call.
    Every block size and thread count must give the bits of one whole-batch
    pass on one thread."""

    ROWS, TOKENS, DIM, STATE = 7, 6, 5, 3
    NAMES = ("y", "x", "a_log", "w_b", "w_c", "w_delta", "delta_bias")

    def _inputs(self):
        params = init_ssm_params(self.DIM, self.STATE, CounterRng(9))
        # tiny steps put u = Δ·A on both sides of the series thresholds
        params.delta_bias.data[:] = -10.5
        rng = np.random.default_rng(9)
        x = rng.normal(size=(self.ROWS, self.TOKENS, self.DIM))
        delta = np_softplus(x @ params.w_delta.data + params.delta_bias.data)
        u = np.abs(delta[..., None] * np.exp(params.a_log.data))
        assert np.any(u < 1e-4) and np.any(u >= 1e-4)
        weights = rng.normal(size=x.shape)
        # zero weights of both signs make zero gradients, whose signs count too
        weights[..., 0] = -0.0
        weights.flat[1::5] = 0.0
        return params, x, weights

    def _run(self, monkeypatch, rows, scan=ssm_scan):
        """y and the gradients of x and every SsmParams field, for y plus x
        read out: x also feeds the sum after the scan."""
        monkeypatch.setattr(tensor, "ROW_BLOCK_BYTES", rows * self.TOKENS * self.DIM * self.STATE * 8)
        params, x, weights = self._inputs()
        leaves = [parameter(x)] + [parameter(v.data) for v in dataclasses.astuple(params)]
        with Tape() as tape:
            y = scan(SsmParams(*leaves[1:]), leaves[0])
            loss = tsum(mul(add(y, leaves[0]), Tensor(weights)))
        grads = backward(tape, loss)
        return [y.data] + [grads[leaf] for leaf in leaves]

    @pytest.fixture
    def use_workers(self, monkeypatch):
        """Gives the scan n threads, the caller and n - 1 helpers, whatever
        the CPU count.  Threads switch every microsecond meanwhile, so that
        they interleave even on these small blocks."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield lambda n: monkeypatch.setattr(imb, "_WORKERS", n)
        finally:
            sys.setswitchinterval(interval)

    def _hold_first_blocks(self, monkeypatch):
        """Make the first two threads to start a block of any _each call
        each hold it until the other has one, so that a helper surely runs
        a block; returns the set of threads that ran one."""
        both_in = threading.Barrier(2, timeout=10)
        ran = set()
        each = imb._each

        def held(fn, blocks, then=None):
            def fn_held(w, blk):
                thread = threading.current_thread()
                if thread not in ran:
                    ran.add(thread)
                    if len(ran) <= 2:
                        both_in.wait()
                fn(w, blk)

            each(fn_held, blocks, then)

        monkeypatch.setattr(imb, "_each", held)
        return ran

    def test_outputs_and_gradients_are_bitwise_equal_across_block_sizes(self, monkeypatch, use_workers):
        # every block size, on 1, 2 and 3 workers, against one block on one
        use_workers(1)
        whole = self._run(monkeypatch, self.ROWS)
        for workers in (1, 2, 3):
            use_workers(workers)
            for rows in (1, 3) * 5:
                blocked = self._run(monkeypatch, rows)
                for name, a, b in zip(self.NAMES, whole, blocked):
                    assert a.tobytes() == b.tobytes(), (workers, rows, name)

    def test_one_node_is_bitwise_equal_to_its_chain(self, monkeypatch, use_workers):
        # one block and several, on 1, 2 and 3 workers
        for workers in (1, 2, 3):
            use_workers(workers)
            for rows in (self.ROWS, 1, 3):
                fused = self._run(monkeypatch, rows)
                chain = self._run(monkeypatch, rows, scan_chain)
                for name, a, b in zip(self.NAMES, fused, chain):
                    assert a.tobytes() == b.tobytes(), (workers, rows, name)

    def test_gradients_are_bitwise_equal_to_a_full_du_reference(self, monkeypatch, use_workers):
        # one block and several, on 1, 2 and 3 workers
        reference = self._run(monkeypatch, self.ROWS, lambda p, x: scan_chain(p, x, scan_full_du))
        for workers in (1, 2, 3):
            use_workers(workers)
            for rows in (self.ROWS, 1, 3):
                blocked = self._run(monkeypatch, rows)
                for name, a, b in zip(self.NAMES, reference, blocked):
                    assert a.tobytes() == b.tobytes(), (workers, rows, name)

    def test_a_block_that_raises_releases_a_thread_waiting_its_turn(self, use_workers):
        use_workers(2)
        before = threading.active_count()
        waiting = threading.Event()
        added, raised = [], []

        def fn(w, blk):
            if blk.start == 1:
                waiting.set()  # this thread now waits for block 0's turn
            elif blk.start == 0:
                assert waiting.wait(timeout=10)
                time.sleep(0.05)
                raise ValueError("block 0 failed")

        def call():
            try:
                imb._each(fn, [slice(r, r + 1) for r in range(4)], then=lambda w, blk: added.append(blk))
            except ValueError as err:
                raised.append(err)

        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "a thread still waits for the failed block's turn"
        assert [str(e) for e in raised] == ["block 0 failed"] and added == []
        assert threading.active_count() == before  # the helper has ended too

    def test_a_rule_block_that_raises_propagates_its_error(self, monkeypatch, use_workers):
        use_workers(2)
        fills = []
        fill_block = imb._fill_block

        def failing(*args):
            fills.append(args[0].shape[1])
            if len(fills) == 4:  # the rule's first refill, after 3 forward blocks
                time.sleep(0.05)
                raise ValueError("refill failed")
            fill_block(*args)

        monkeypatch.setattr(imb, "_fill_block", failing)
        before = threading.active_count()
        start = time.monotonic()
        with pytest.raises(ValueError, match="refill failed"):
            self._run(monkeypatch, 3)
        assert time.monotonic() - start < 10
        assert threading.active_count() == before  # the helper has ended too

    def test_no_thread_outlives_a_taped_scan_and_its_backward(self, monkeypatch, use_workers):
        use_workers(2)
        before = threading.active_count()
        ran = self._hold_first_blocks(monkeypatch)
        self._run(monkeypatch, 3)
        helpers = ran - {threading.current_thread()}
        assert helpers and not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before

    def test_rule_refills_only_a_call_of_several_blocks(self, monkeypatch):
        fills = []
        fill_block = imb._fill_block

        def counted(*args):
            fills.append(args[0].shape[1])
            fill_block(*args)

        monkeypatch.setattr(imb, "_fill_block", counted)
        self._run(monkeypatch, self.ROWS)
        assert fills == [7]
        fills.clear()
        self._run(monkeypatch, 3)
        assert sorted(fills) == [1, 1, 3, 3, 3, 3]

    def test_tape_free_output_is_bitwise_equal_across_worker_counts(self, use_workers):
        params, x, _ = self._inputs()
        outputs = []
        for workers in (1, 2, 3):
            use_workers(workers)
            outputs.append(ssm_scan(params, Tensor(x)).data)
        assert all(np.array_equal(outputs[0], y) for y in outputs[1:])

    def test_one_block_scan_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block or one-row scan started a thread")

        monkeypatch.setattr(imb, "_WORKERS", 2)
        monkeypatch.setattr(imb.threading, "Thread", refuse)
        # pretrain-tiny geometry: 8 rows of 16 tokens, dim 16, state 4
        params = init_ssm_params(16, 4, CounterRng(4))
        x = parameter(np.random.default_rng(4).normal(size=(8, 16, 16)))
        with Tape() as tape:
            loss = tsum(ssm_scan(params, x))
        backward(tape, loss)
        # nor does a one-row tape-free scan, nor one of 8 rows on one worker
        ssm_scan(params, Tensor(x.data[:1]))
        monkeypatch.setattr(imb, "_WORKERS", 1)
        ssm_scan(params, Tensor(x.data))

    def test_tape_free_scan_runs_its_rows_on_a_helper(self, monkeypatch, use_workers):
        use_workers(1)
        params, x, _ = self._inputs()
        serial = ssm_scan(params, Tensor(x)).data
        use_workers(2)
        before = threading.active_count()
        ran = self._hold_first_blocks(monkeypatch)
        assert ssm_scan(params, Tensor(x)).data.tobytes() == serial.tobytes()
        helpers = ran - {threading.current_thread()}
        assert helpers and not any(t.is_alive() for t in helpers)
        assert threading.active_count() == before

    def test_a_tape_free_block_that_raises_propagates_its_error(self, monkeypatch, use_workers):
        # x·B/A overflows in every row; each of the two threads runs a block
        use_workers(2)
        before = threading.active_count()
        ran = self._hold_first_blocks(monkeypatch)
        shape = (self.ROWS, self.TOKENS, self.DIM)
        big = np.full(shape[:2] + (self.STATE,), 1e200)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            imb._scan(np.full(shape, 1e200), np.full(shape, 0.1), big, big, -np.ones((self.DIM, self.STATE)))
        assert len(ran) == 2 and not any(t.is_alive() for t in ran - {threading.current_thread()})
        assert threading.active_count() == before

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
    def test_forked_child_scans_on_threads_of_its_own(self, monkeypatch, use_workers):
        # a taped scan of three blocks on 2 workers, before the fork and in
        # the child
        use_workers(2)
        expected = b"".join(a.tobytes() for a in self._run(monkeypatch, 3))
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.write(write_end, b"".join(a.tobytes() for a in self._run(monkeypatch, 3)))
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
            assert fh.read() == expected


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
