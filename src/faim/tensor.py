"""Dense-tensor numerical core with reverse-mode differentiation.

Values are numpy arrays in float64 or complex128, wrapped in :class:`Tensor`.
Differentiation uses an explicit Wengert list (:class:`Tape`): while a tape
is active, every primitive appends one :class:`Node` recording its operands,
outputs, and a backward rule.  :func:`backward` replays the list in reverse
recording order exactly once, accumulating gradients into the leaves.

Gradients of complex tensors use the split representation packed into a
complex array: ``grad = dL/d(Re x) + 1j * dL/d(Im x)``.  Complex tensors are
never coerced to real implicitly; use :func:`real` / :func:`imag` /
:func:`make_complex` to cross the boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

REAL = np.float64
COMPLEX = np.complex128
_REAL_DTYPE = np.dtype(REAL)
_COMPLEX_DTYPE = np.dtype(COMPLEX)

# Byte budget of one row block, sized to stay in a typical L2 cache.  The
# taped scan (imb._scan) fills and differentiates its [rows, Z, dim, state]
# arrays this many bytes at a time, one block per thread at once;
# training.row_block sizes tape-free forwards from it; and _matmul_grads
# forms a batched weight gradient's per-row products in chunks of it.
# Larger blocks stream every op through main memory; blocks of one or two
# rows pay per-op overhead instead.
ROW_BLOCK_BYTES = 2**20

# ---------------------------------------------------------------------------
# Tape
# ---------------------------------------------------------------------------

_TAPE_STACK: list["Tape"] = []


class Node:
    """One recorded primitive: operand tensors, output tensors, backward rule.

    ``rule`` receives a tuple of output gradients (``None`` where an output
    did not participate in the loss) and returns one gradient array or
    ``None`` per input, in order.
    """

    __slots__ = ("inputs", "outputs", "rule")

    def __init__(self, inputs, outputs, rule):
        self.inputs = inputs
        self.outputs = outputs
        self.rule = rule


class Tape:
    """Ordered record of primitive applications, used as a context manager."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        _TAPE_STACK.pop()
        return False


def active_tape() -> Tape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def record(inputs, outputs, rule) -> None:
    """Append one node to the active tape, if any."""
    tape = active_tape()
    if tape is not None:
        tape.nodes.append(Node(tuple(inputs), tuple(outputs), rule))


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """N-dimensional real or complex array, optionally tracked on a tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.requires_grad = requires_grad
        if type(data) is np.ndarray and (data.dtype is _REAL_DTYPE or data.dtype is _COMPLEX_DTYPE):
            self.data = data
            return
        arr = np.asarray(data)
        if np.iscomplexobj(arr):
            arr = arr.astype(COMPLEX, copy=False)
        else:
            arr = arr.astype(REAL, copy=False)
        self.data = arr

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def is_complex(self):
        return self.data.dtype.kind == "c"

    def item(self) -> float:
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def parameter(data) -> Tensor:
    """Trainable leaf."""
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# gradient plumbing
# ---------------------------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting introduced."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _to_operand_dtype(g: np.ndarray, operand: Tensor) -> np.ndarray:
    """Project a packed complex gradient onto a real operand, if needed."""
    if g.dtype.kind == "c" and not operand.is_complex:
        return g.real
    return g


def _elemwise_grad(g, other_data, operand):
    """Gradient of a product factor: g * conj(other), projected to dtype."""
    contrib = g * np.conj(other_data)
    return _to_operand_dtype(_unbroadcast(contrib, operand.shape), operand)


# ---------------------------------------------------------------------------
# primitives: arithmetic
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data)

    def rule(gs):
        g = gs[0]
        return (
            _to_operand_dtype(_unbroadcast(g, a.shape), a),
            _to_operand_dtype(_unbroadcast(g, b.shape), b),
        )

    record((a, b), (out,), rule)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data)

    def rule(gs):
        g = gs[0]
        return (
            _to_operand_dtype(_unbroadcast(g, a.shape), a),
            _to_operand_dtype(_unbroadcast(-g, b.shape), b),
        )

    record((a, b), (out,), rule)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data)

    def rule(gs):
        g = gs[0]
        return (_elemwise_grad(g, b.data, a), _elemwise_grad(g, a.data, b))

    record((a, b), (out,), rule)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    if a.is_complex or b.is_complex:
        raise TypeError("div is defined for real tensors only; split complex values first")
    out = Tensor(a.data / b.data)

    def rule(gs):
        g = gs[0]
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return (ga, gb)

    record((a, b), (out,), rule)
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    record((a,), (out,), lambda gs: (-gs[0],))
    return out


def _check_matmul_operands(name: str, a: Tensor, b: Tensor):
    if a.is_complex or b.is_complex:
        raise TypeError(f"{name} is defined for real tensors only")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{name} operands must have at least 2 dimensions")


def _add_running(total: np.ndarray, parts: np.ndarray, axes) -> None:
    """total += the sum of parts over its leading ``axes``, in place.

    numpy sums over leading axes one slab at a time, in memory order,
    starting from +0.0, as einsum does.  Adding total to the first slab
    first therefore continues that sum: a running total that starts as
    +0.0 has, after several calls, the bits of one sum over all their
    slabs.  Such a total is never -0.0 (x + y is -0.0 only when both are),
    so adding it gives the first slab no sign it would not have had.  parts
    is overwritten.
    """
    parts[(0,) * len(axes)] += total
    np.add.reduce(parts, axis=axes, out=total)


def _matmul_grads(g: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a @ b with respect to the arrays a and b.

    For a 3-D a against a 2-D b, b's gradient sums one [in, out] product per
    row of a.  Those products are formed at most ROW_BLOCK_BYTES at a time
    and summed into a running total, with the bits of one sum over every
    row's product; a batch that fits one chunk takes the one sum directly.
    """
    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)
    rows = max(1, ROW_BLOCK_BYTES // (b.size * 8))
    if a.ndim != 3 or b.ndim != 2 or len(a) <= rows:
        return ga, _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    gb = np.zeros(b.shape)
    chunk = np.empty((rows,) + b.shape)
    for r0 in range(0, len(a), rows):
        part = chunk[: min(rows, len(a) - r0)]
        np.matmul(np.swapaxes(a[r0 : r0 + rows], -1, -2), g[r0 : r0 + rows], out=part)
        _add_running(gb, part, (0,))
    return ga, gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check_matmul_operands("matmul", a, b)
    out = Tensor(a.data @ b.data)
    record((a, b), (out,), lambda gs: _matmul_grads(gs[0], a.data, b.data))
    return out


# ---------------------------------------------------------------------------
# primitives: reductions
# ---------------------------------------------------------------------------


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, shape)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))
    record((a,), (out,), lambda gs: (_expand_reduced(gs[0], a.shape, axis, keepdims).copy(),))
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    scale = out_data.size / max(a.data.size, 1)
    out = Tensor(out_data)
    record(
        (a,),
        (out,),
        lambda gs: (_expand_reduced(gs[0], a.shape, axis, keepdims) * scale,),
    )
    return out


# ---------------------------------------------------------------------------
# primitives: elementwise nonlinearities (real only)
# ---------------------------------------------------------------------------


def _require_real(a: Tensor, name: str):
    if a.is_complex:
        raise TypeError(f"{name} is defined for real tensors only")


def texp(a: Tensor) -> Tensor:
    _require_real(a, "exp")
    out = Tensor(np.exp(a.data))
    record((a,), (out,), lambda gs: (gs[0] * out.data,))
    return out


def tlog(a: Tensor) -> Tensor:
    _require_real(a, "log")
    out = Tensor(np.log(a.data))
    record((a,), (out,), lambda gs: (gs[0] / a.data,))
    return out


def tsqrt(a: Tensor) -> Tensor:
    _require_real(a, "sqrt")
    out = Tensor(np.sqrt(a.data))
    record((a,), (out,), lambda gs: (gs[0] * 0.5 / out.data,))
    return out


def tsin(a: Tensor) -> Tensor:
    _require_real(a, "sin")
    out = Tensor(np.sin(a.data))
    record((a,), (out,), lambda gs: (gs[0] * np.cos(a.data),))
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1/(1 + z) for x >= 0 and z/(1 + z) below, z = exp(-|x|): the
    numerator is selected first, so there is one division."""
    z = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(z, out=z)
    np.exp(z, out=z)
    s = np.where(x >= 0, 1.0, z)
    z += 1.0
    s /= z
    return s


def sigmoid(a: Tensor) -> Tensor:
    _require_real(a, "sigmoid")
    s = _sigmoid(a.data)
    out = Tensor(s)
    record((a,), (out,), lambda gs: (gs[0] * s * (1.0 - s),))
    return out


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g times the derivative of x·sigmoid(x), where s = sigmoid(x)."""
    return g * s * (1.0 + x * (1.0 - s))


def silu(a: Tensor) -> Tensor:
    """x * sigmoid(x), elementwise."""
    _require_real(a, "silu")
    s = _sigmoid(a.data)
    out = Tensor(a.data * s)
    record((a,), (out,), lambda gs: (_silu_grad(gs[0], a.data, s),))
    return out


def relu(a: Tensor) -> Tensor:
    _require_real(a, "relu")
    out = Tensor(np.maximum(a.data, 0.0))
    record((a,), (out,), lambda gs: (gs[0] * (a.data > 0.0),))
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), without overflow for large x."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a: Tensor) -> Tensor:
    _require_real(a, "softplus")
    x = a.data
    out = Tensor(_softplus(x))
    s = _sigmoid(x)
    record((a,), (out,), lambda gs: (gs[0] * s,))
    return out


# ---------------------------------------------------------------------------
# primitives: shape manipulation
# ---------------------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    record((a,), (out,), lambda gs: (gs[0].reshape(a.shape),))
    return out


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = Tensor(a.data[index])

    def rule(gs):
        g_full = np.zeros(a.shape, dtype=a.data.dtype if a.is_complex else REAL)
        g_full[index] = gs[0]
        return (g_full,)

    record((a,), (out,), rule)
    return out


def pad_axis(a: Tensor, axis: int, before: int, after: int) -> Tensor:
    """Zero-pad along one axis."""
    widths = [(0, 0)] * a.ndim
    widths[axis] = (before, after)
    out = Tensor(np.pad(a.data, widths))
    index = [slice(None)] * a.ndim
    index[axis] = slice(before, before + a.shape[axis])
    index = tuple(index)
    record((a,), (out,), lambda gs: (gs[0][index],))
    return out


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = tuple(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def rule(gs):
        g = gs[0]
        grads = []
        for i, t in enumerate(tensors):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(_to_operand_dtype(g[tuple(index)], t))
        return tuple(grads)

    record(tensors, (out,), rule)
    return out


def stack(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=axis))

    def rule(gs):
        g = gs[0]
        return tuple(_to_operand_dtype(np.take(g, i, axis=axis), t) for i, t in enumerate(tensors))

    record(tensors, (out,), rule)
    return out


def unbind(a: Tensor, axis: int) -> tuple[Tensor, ...]:
    """Split into per-index tensors along ``axis`` (one multi-output node)."""
    n = a.shape[axis]
    outs = tuple(Tensor(np.take(a.data, i, axis=axis)) for i in range(n))

    def rule(gs):
        slice_shape = outs[0].shape
        dtype = a.data.dtype if a.is_complex else REAL
        parts = [g if g is not None else np.zeros(slice_shape, dtype=dtype) for g in gs]
        return (np.stack(parts, axis=axis),)

    record((a,), outs, rule)
    return outs


# ---------------------------------------------------------------------------
# primitives: real/complex boundary
# ---------------------------------------------------------------------------


def real(a: Tensor) -> Tensor:
    """Real part, as a real tensor."""
    out = Tensor(np.ascontiguousarray(a.data.real))
    if a.is_complex:
        record((a,), (out,), lambda gs: (gs[0].astype(COMPLEX),))
    else:
        record((a,), (out,), lambda gs: (gs[0],))
    return out


def imag(a: Tensor) -> Tensor:
    """Imaginary part, as a real tensor (zero for real input)."""
    if not a.is_complex:
        return Tensor(np.zeros(a.shape))
    out = Tensor(np.ascontiguousarray(a.data.imag))
    record((a,), (out,), lambda gs: (1j * gs[0],))
    return out


def make_complex(re: Tensor, im: Tensor) -> Tensor:
    if re.is_complex or im.is_complex:
        raise TypeError("make_complex expects two real tensors")
    out = Tensor(re.data + 1j * im.data)

    def rule(gs):
        g = gs[0]
        return (
            _unbroadcast(np.ascontiguousarray(g.real), re.shape),
            _unbroadcast(np.ascontiguousarray(g.imag), im.shape),
        )

    record((re, im), (out,), rule)
    return out


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def backward(tape: Tape, loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse sweep over the tape from a scalar loss.

    Returns ``{leaf: gradient}`` for every trainable leaf reached.
    Non-trainable leaves receive nothing.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.is_complex:
        raise TypeError("backward requires a real scalar loss")

    # Tensors hash by identity.  An output's gradient is popped when its
    # node runs, so the sweep leaves only tensors no node produced.
    grads: dict[Tensor, np.ndarray] = {loss: np.ones(loss.shape, dtype=REAL)}
    for node in reversed(tape.nodes):
        gouts = tuple(grads.pop(o, None) for o in node.outputs)
        if all(g is None for g in gouts):
            continue
        for inp, gi in zip(node.inputs, node.rule(gouts)):
            if gi is None:
                continue
            g = grads.get(inp)
            grads[inp] = gi if g is None else g + gi

    return {
        leaf: g if g.shape == leaf.shape else g.reshape(leaf.shape)
        for leaf, g in grads.items()
        if leaf.requires_grad
    }
