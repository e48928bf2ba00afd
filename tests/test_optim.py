"""AdamW: decoupled decay, bias correction, exact first step, replay determinism."""

import numpy as np
import pytest

from faim.errors import ShapeError
from faim.optim import AdamWState, adamw_step


def _vector(*segments):
    return np.concatenate([np.ravel(np.asarray(s, dtype=np.float64)) for s in segments])


def _step(values, grad, state, touched=None):
    grad = np.asarray(grad, dtype=np.float64).reshape(values.shape)
    if touched is None:
        touched = np.ones(values.shape, dtype=bool)
    return adamw_step(values, grad, touched, state)


class TestAdamWStep:
    def test_zero_gradient_zero_decay_is_identity(self):
        values = _vector([1.0, -2.0], [0.5, 0.25])
        before = values.copy()
        state = AdamWState(lr=1e-3, weight_decay=0.0)
        _step(values, np.zeros(4), state)
        np.testing.assert_array_equal(values, before)

    def test_none_gradient_skips_param_decay_included(self):
        # two parameters of two values; only the first received a gradient
        values = _vector([1.0, 2.0], [3.0, 4.0])
        touched = np.array([True, True, False, False])
        state = AdamWState(lr=0.1, weight_decay=0.5)
        _step(values, [1.0, 1.0, 0.0, 0.0], state, touched)
        assert values[2:].tobytes() == _vector([3.0, 4.0]).tobytes()
        assert not np.array_equal(values[:2], [1.0, 2.0])

    def test_untouched_values_keep_their_bits_after_earlier_steps(self):
        values = _vector([1.0, 2.0], [3.0, 4.0])
        state = AdamWState(lr=0.1, weight_decay=0.5)
        _step(values, [1.0, -1.0, 0.5, -0.5], state)
        kept, moments = values[2:].copy(), (state.m[2:].copy(), state.v[2:].copy())
        _step(values, [1.0, 1.0, 0.0, 0.0], state, np.array([True, True, False, False]))
        assert values[2:].tobytes() == kept.tobytes()
        assert state.m[2:].tobytes() == moments[0].tobytes()
        assert state.v[2:].tobytes() == moments[1].tobytes()

    def test_decay_only_scales_by_one_minus_lr_wd(self):
        values = _vector([2.0, -4.0])
        state = AdamWState(lr=0.1, weight_decay=0.5)
        _step(values, np.zeros(2), state)
        # zero grad: update term vanishes, decay p *= (1 - 0.1 * 0.5)
        np.testing.assert_allclose(values, np.array([2.0, -4.0]) * 0.95, rtol=0, atol=1e-15)

    def test_first_step_matches_hand_computation(self):
        # DERIVED: single scalar p=1.0, g=0.5, lr=0.01, betas (0.9, 0.999),
        # eps=1e-8, wd=0.1 worked by direct evaluation of the update rule:
        #   p <- p * (1 - lr*wd) = 1.0 * 0.999 = 0.999
        #   m = 0.1 * 0.5 = 0.05        m_hat = 0.05 / (1 - 0.9) = 0.5
        #   v = 0.001 * 0.25 = 0.00025  v_hat = 0.00025 / (1 - 0.999) = 0.25
        #   p <- 0.999 - 0.01 * 0.5 / (sqrt(0.25) + 1e-8)
        values = _vector([1.0])
        state = AdamWState(lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1)
        _step(values, [0.5], state)
        expected = 0.999 - 0.01 * 0.5 / (np.sqrt(0.25) + 1e-8)
        np.testing.assert_allclose(values, [expected], rtol=0, atol=1e-15)
        assert state.step_count == 1

    def test_two_steps_track_reference_loop(self):
        # independent reference: plain numpy re-implementation of the same rule
        rng = np.random.default_rng(7)
        p0 = rng.normal(size=(3,))
        g1, g2 = rng.normal(size=(3,)), rng.normal(size=(3,))
        lr, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01

        ref = p0.copy()
        m = np.zeros(3)
        v = np.zeros(3)
        for t, g in enumerate((g1, g2), start=1):
            ref *= 1.0 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref -= lr * m_hat / (np.sqrt(v_hat) + eps)

        values = p0.copy()
        state = AdamWState(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
        _step(values, g1, state)
        _step(values, g2, state)
        np.testing.assert_allclose(values, ref, rtol=0, atol=1e-15)

    def test_replay_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(11)
            values = _vector(rng.normal(size=(4, 2)))
            state = AdamWState(lr=1e-3, weight_decay=1e-4)
            for _ in range(5):
                _step(values, rng.normal(size=8), state)
            return values

        a, b = run(), run()
        assert a.tobytes() == b.tobytes()

    def test_state_reused_across_parameters_of_different_shapes(self):
        # a (2, 2) and a (3,) parameter share one vector and one pair of moments
        values = _vector(np.ones((2, 2)), np.ones(3))
        grad = _vector(np.full((2, 2), 0.1), np.full(3, -0.2))
        state = AdamWState(lr=0.01)
        _step(values, grad, state)
        assert state.m.shape == state.v.shape == (7,)
        assert np.all(values[:4] < 1.0) and np.all(values[4:] > 1.0)

    def test_lr_zero_is_identity_even_with_decay(self):
        values = _vector([5.0])
        state = AdamWState(lr=0.0, weight_decay=0.7)
        _step(values, [1.0], state)
        np.testing.assert_array_equal(values, [5.0])

    def test_misaligned_shapes_rejected(self):
        values = _vector([1.0, 2.0])
        with pytest.raises(ShapeError):
            adamw_step(values, np.zeros(3), np.ones(2, dtype=bool), AdamWState())
        state = AdamWState()
        _step(values, [0.1, 0.2], state)
        with pytest.raises(ShapeError):
            _step(_vector([1.0, 2.0, 3.0]), np.zeros(3), state)
