"""Adam with decoupled weight decay."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class AdamWState:
    """Optimizer moments and hyperparameters for one parameter vector."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # Two vectors of scratch for the step's temporaries, reused every step.
    scratch: np.ndarray | None = field(default=None, init=False, repr=False)


def adamw_step(values: np.ndarray, grad: np.ndarray, touched: np.ndarray, state: AdamWState):
    """One decoupled-weight-decay Adam step, updating ``values`` in place.

    ``grad`` is laid out like ``values``; ``touched`` marks the values whose
    parameter received a gradient.  Decay multiplies each touched value by
    (1 − lr·weight_decay) before the gradient step, so a zero gradient still
    shrinks it by exactly that factor.  Values outside ``touched`` keep their
    exact bits, and so do their moments.
    """
    if state.m is None:
        state.m, state.v = np.zeros_like(values), np.zeros_like(values)
    if state.scratch is None:
        state.scratch = np.empty((2,) + values.shape)
    if not values.shape == grad.shape == touched.shape == state.m.shape:
        raise ShapeError(
            f"values {values.shape}, gradient {grad.shape}, mask {touched.shape} "
            f"and moments {state.m.shape} must align"
        )
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    m, v = state.m, state.v
    a, b = state.scratch
    np.multiply(values, 1.0 - state.lr * state.weight_decay, out=values, where=touched)
    np.multiply(m, state.beta1, out=m, where=touched)
    np.add(m, np.multiply(1.0 - state.beta1, grad, out=a), out=m, where=touched)
    np.multiply(v, state.beta2, out=v, where=touched)
    np.multiply(grad, grad, out=a)
    np.add(v, np.multiply(1.0 - state.beta2, a, out=a), out=v, where=touched)
    # step = lr·(m/bc1) / (sqrt(v/bc2) + eps)
    np.multiply(state.lr, np.divide(m, bc1, out=a), out=a)
    np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), state.eps, out=b)
    np.subtract(values, np.divide(a, b, out=a), out=values, where=touched)
