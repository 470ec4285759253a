"""Reverse-mode automatic differentiation on numpy arrays.

This module is the computational substrate of the reproduction: the paper
trained ODNET with TensorFlow on Alibaba PAI, which is unavailable here, so
we implement the minimum viable deep-learning framework from scratch.  The
design follows the classic tape-based approach: every differentiable
operation returns a new :class:`Tensor` holding a closure that knows how to
push its output gradient back to its inputs; :meth:`Tensor.backward` walks
the graph in reverse topological order.

All operations are fully vectorised over numpy and support broadcasting.
Gradient correctness is verified against central finite differences in
``tests/tensor/test_gradcheck.py``.
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "as_array",
    "concat",
    "split",
    "stack",
    "where",
    "maximum",
    "multi_head_attention",
]

# Grad mode is per-thread: concurrent serving threads each run under
# their own no_grad() without clobbering a trainer thread's graph
# construction (a process-global flag races — the last thread to exit
# could leave gradients disabled for everyone).
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after broadcasting.

    numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the chain rule requires summing the incoming
    gradient over those expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum out the extra leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size one in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# The array formulas of the ops a frozen module runs without a tape: the
# Tensor method and the array path of :mod:`repro.tensor.functional`
# both call these, so the two cannot drift apart.
def sigmoid_array(x) -> np.ndarray:
    # Numerically stable logistic function: exp of a non-positive
    # argument never overflows, and computing it once covers both
    # branches (x >= 0: 1/(1+e^-x); x < 0: e^x/(1+e^x)).
    exp_neg = np.exp(-np.abs(np.clip(x, -500, 500)))
    return np.where(x >= 0, 1.0 / (1.0 + exp_neg), exp_neg / (1.0 + exp_neg))


def _max_keepdims(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.max(axis, keepdims=True)``, bit for bit.  numpy reduces a
    short innermost axis one row at a time, so with at least 16 rows per
    column a running ``np.maximum`` over the columns is several times
    faster; a maximum does not round, so the order it is taken in cannot
    change a bit."""
    width = x.shape[axis] if x.ndim else 0
    innermost = x.ndim and axis % x.ndim == x.ndim - 1
    if innermost and 1 < width <= 16 and x.size >= 16 * width * width:
        out = x[..., 0].copy()
        for column in range(1, width):
            np.maximum(out, x[..., column], out=out)
        return out[..., None]
    return x.max(axis=axis, keepdims=True)


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    exp = np.exp(x - _max_keepdims(x, axis))
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_fill_array(x, mask: np.ndarray, value: float) -> np.ndarray:
    return np.where(mask, value, x)


def masked_softmax_array(x, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over ``axis`` at the positions ``mask`` keeps; a row it
    keeps none of is all zeros.  ``mask`` is boolean."""
    weights, kept = _masked_softmax_parts(x, mask, axis)
    return weights * kept


def _masked_softmax_parts(x, mask: np.ndarray, axis: int):
    """The softmax of ``x`` with the blocked positions at -1e30, and per
    row 1.0 if ``mask`` keeps any position of it, else 0.0."""
    weights = softmax_array(masked_fill_array(x, ~mask, -1e30), axis)
    return weights, np.asarray(mask.any(axis=axis, keepdims=True),
                               dtype=np.float64)


def _attention_plan(mask, batch: int, length: int):
    """Where each row's valid positions sit in the packed ``(N, D)``
    block of :func:`multi_head_attention_array`: ``(rows, groups)``.

    ``rows`` gathers the packed block from ``x.reshape(B * L, D)`` —
    ``None`` when every position is valid (the block is ``x`` itself),
    the flattened boolean mask when every row has one length (row-major
    order already groups them), else flat positions of the rows in a
    stable order by length.  ``groups`` lists ``(start, rows, length)``
    per length of at least one, each one contiguous run of
    ``rows * length`` packed positions."""
    if mask is None:
        return None, [(0, batch, length)] if length else []
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    if not counts.size or (counts == counts[0]).all():
        size = int(counts[0]) if counts.size else 0
        if size == length:
            return None, [(0, batch, length)] if length else []
        return mask.reshape(-1), [(0, batch, size)] if size else []
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    flat = np.flatnonzero(mask[order])
    rows = order[flat // length] * length + flat % length
    sizes, firsts, members = np.unique(sorted_counts, return_index=True,
                                       return_counts=True)
    starts = np.cumsum(sorted_counts)[firsts] - sizes
    return rows, [(int(start), int(n), int(size))
                  for start, n, size in zip(starts, members, sizes) if size]


def _heads(block: np.ndarray, rows: int, heads: int) -> np.ndarray:
    """``(n·l, D)`` rows of ``n`` sequences as an ``(n, H, l, d_k)``
    view: head ``i`` is columns ``i·d_k … (i+1)·d_k``."""
    return block.reshape(rows, -1, heads, block.shape[1] // heads
                         ).transpose(0, 2, 1, 3)


def _qkv_heads(block: np.ndarray, rows: int, heads: int):
    """``(n·l, 3D)`` rows as the ``(n, H, l, d_k)`` views of their Q, K
    and V column blocks."""
    return block.reshape(rows, -1, 3, heads, block.shape[1] // (3 * heads)
                         ).transpose(2, 0, 3, 1, 4)


def _transposed(x: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of ``x`` with its last two axes swapped: numpy's
    batched matmul runs several times slower on a transposed right
    operand than on such a copy."""
    return np.ascontiguousarray(x.swapaxes(-1, -2))


def _keys_first(block: np.ndarray) -> np.ndarray:
    """An ``(l_k, n, H, l_q)`` array as its ``(n, H, l_k, l_q)`` view."""
    return block.transpose(1, 2, 0, 3)


def _attention_parts(x, mask, w_qkv, w_o, heads: int):
    """:func:`multi_head_attention_array` with what its backward reads:
    ``(out, rows, groups, packed, qkv, weights, context)``."""
    batch, length, dim = x.shape
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(head_dim)
    rows, groups = _attention_plan(mask, batch, length)
    flat = x.reshape(batch * length, dim)
    packed = flat if rows is None else flat[rows]
    qkv = packed @ w_qkv
    context = np.empty_like(packed)
    weights = []
    for start, n, size in groups:
        stop = start + n * size
        q, k, v = _qkv_heads(qkv[start:stop], n, heads)
        # The weights are kept keys first, (l_k, n, H, l_q), so that the
        # softmax reduces over the outermost axis, which numpy runs as
        # whole-row vector operations instead of one short row at a time;
        # ``_keys_first`` is their (n, H, l_k, l_q) view, Wᵀ per head.
        weight = np.empty((size, n, heads, size))
        np.matmul(k, _transposed(q), out=_keys_first(weight))
        weight *= scale
        weight -= weight.max(axis=0)
        np.exp(weight, out=weight)
        weight /= weight.sum(axis=0)
        weights.append(weight)
        np.matmul(_keys_first(weight).swapaxes(-1, -2), v,
                  out=_heads(context[start:stop], n, heads))
    projected = context @ w_o
    if rows is None:
        out = projected.reshape(batch, length, dim)
    else:
        out = np.zeros((batch * length, dim))
        out[rows] = projected
        out = out.reshape(batch, length, dim)
    return out, rows, groups, packed, qkv, weights, context


def multi_head_attention_array(x, mask, w_qkv, w_o, heads: int) -> np.ndarray:
    """Multi-head self-attention (Eq. 3) over each row's valid positions.

    ``x`` is ``(B, L, D)``, ``mask`` ``(B, L)`` boolean with True at valid
    positions (``None``: all valid), ``w_qkv`` the column stack
    ``[W_q | W_k | W_v]`` ``(D, 3D)`` and ``w_o`` ``(D, D)``; head ``i``
    reads columns ``i·d_k … (i+1)·d_k`` of each block, ``d_k = D / heads``.
    The valid positions are packed into one ``(N, D)`` block, projected
    with one GEMM, attended per length group with no padded key or query,
    projected out with one GEMM and scattered back: a padded position,
    and so every position of an all-padding row, reads 0."""
    return _attention_parts(x, mask, w_qkv, w_o, heads)[0]


def _scatter_rows(rows: np.ndarray, grad: np.ndarray, shape) -> np.ndarray:
    """``np.add.at(zeros(shape), rows, grad)`` as one ``np.bincount`` over
    ``row * width + column``: every sum starts from 0.0 and adds in
    index order, as ``np.add.at`` does, so the bits are the same."""
    count = shape[0]
    width = math.prod(shape[1:])
    flat = rows.reshape(-1).astype(np.intp, copy=False)
    if flat.size and flat.min() < 0:
        flat = np.where(flat < 0, flat + count, flat)
    if width != 1:
        flat = (flat[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(
        flat, weights=grad.reshape(-1), minlength=count * width
    ).reshape(shape)


class Tensor:
    """A numpy array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  Floating point data is stored as ``float64``
        for numerically stable gradient checks; integer payloads (e.g.
        embedding indices) are kept as integers and cannot require grad.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # Make numpy defer to the reflected Tensor operators instead of trying
    # to broadcast element-wise over the Tensor object.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data)
        if array.dtype.kind in "fc":
            array = array.astype(np.float64, copy=False)
        if requires_grad and array.dtype.kind not in "fc":
            raise TypeError("only floating point tensors can require grad")
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy); detached from the graph."""
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(
            p.requires_grad for p in parents
        )
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Reverse topological order via iterative DFS (avoids recursion
        # limits on deep recurrent graphs).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        # Keys whose array this pass allocated.  A first deposit is kept
        # as it comes — it may be a forward array, a read-only broadcast
        # view or another node's gradient — so it is never written; the
        # second makes a new sum, which later deposits add into in place.
        owned: set[int] = set()

        def deposit(parent: "Tensor", parent_grad: np.ndarray) -> None:
            if not parent.requires_grad:
                return
            parent_grad = _unbroadcast(
                np.asarray(parent_grad, dtype=np.float64), parent.data.shape
            )
            key = id(parent)
            held = grads.get(key)
            if held is None:
                grads[key] = parent_grad
            elif key in owned:
                held += parent_grad
            else:
                grads[key] = held = held + parent_grad
                if isinstance(held, np.ndarray):  # a 0-d sum is a scalar
                    owned.add(key)

        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            owned.discard(id(node))
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf (parameter / input) — record the gradient.
                node._accumulate(node_grad)
            else:
                node._backward(node_grad, deposit)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, deposit):
            deposit(self, grad)
            deposit(other, grad)

        return Tensor._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, deposit):
            deposit(self, -grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, deposit):
            deposit(self, grad)
            if other.requires_grad:
                deposit(other, -grad)

        return Tensor._make(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    # A binary op's backward computes an operand's gradient only when
    # that operand takes one (a constant side would be computed and
    # thrown away).
    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, deposit):
            if self.requires_grad:
                deposit(self, grad * other.data)
            if other.requires_grad:
                deposit(other, grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, deposit):
            if self.requires_grad:
                deposit(self, grad / other.data)
            if other.requires_grad:
                deposit(other, -grad * self.data / (other.data ** 2))

        return Tensor._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def backward(grad, deposit):
            deposit(self, grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data ** exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")

        def backward(grad, deposit):
            if self.requires_grad:
                deposit(self, grad @ np.swapaxes(b, -1, -2))
            if other.requires_grad:
                deposit(other, np.swapaxes(a, -1, -2) @ grad)

        return Tensor._make(a @ b, (self, other), backward)

    def __rmatmul__(self, other) -> "Tensor":
        return as_tensor(other) @ self

    # Comparison operators return plain numpy boolean arrays.
    def __gt__(self, other):
        return self.data > as_array(other)

    def __lt__(self, other):
        return self.data < as_array(other)

    def __ge__(self, other):
        return self.data >= as_array(other)

    def __le__(self, other):
        return self.data <= as_array(other)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad, deposit):
            deposit(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad, deposit):
            deposit(self, grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad, deposit):
            deposit(self, grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad, deposit):
            deposit(self, grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid_array(self.data)

        def backward(grad, deposit):
            deposit(self, grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad, deposit):
            deposit(self, grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad, deposit):
            deposit(self, grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad, deposit):
            deposit(self, grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, deposit):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            deposit(self, np.broadcast_to(g, self.data.shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad, deposit):
            g = np.asarray(grad)
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out_data, axis=axis)
            mask = self.data == out
            # Split gradient equally among ties for determinism.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            deposit(self, g * mask / counts)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(grad, deposit):
            deposit(self, np.asarray(grad).reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(grad, deposit):
            deposit(self, np.transpose(np.asarray(grad), inverse))

        return Tensor._make(np.transpose(self.data, axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(grad, deposit):
            deposit(self, np.swapaxes(np.asarray(grad), a, b))

        return Tensor._make(np.swapaxes(self.data, a, b), (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        def backward(grad, deposit):
            deposit(self, np.squeeze(np.asarray(grad), axis=axis))

        return Tensor._make(np.expand_dims(self.data, axis), (self,), backward)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        original = self.data.shape

        def backward(grad, deposit):
            deposit(self, np.asarray(grad).reshape(original))

        return Tensor._make(np.squeeze(self.data, axis=axis), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        index = _normalize_index(index)

        def backward(grad, deposit):
            # An integer array gathers rows: one bincount scatters them
            # back.  A basic index (slices / ints / None / Ellipsis)
            # selects every position at most once, so its gradient is a
            # plain assignment; any other fancy index scatter-adds.
            if isinstance(index, np.ndarray) and index.dtype.kind in "iu":
                deposit(self, _scatter_rows(index, np.asarray(grad),
                                            self.data.shape))
                return
            full = np.zeros_like(self.data, dtype=np.float64)
            if all(
                i is None or i is Ellipsis
                or isinstance(i, (slice, int, np.integer))
                for i in (index if isinstance(index, tuple) else (index,))
            ):
                full[index] = grad
            else:
                np.add.at(full, index, np.asarray(grad))
            deposit(self, full)

        return Tensor._make(self.data[index], (self,), backward)

    def take(self, indices: np.ndarray, axis: int = 0) -> "Tensor":
        """Gather along ``axis``; gradient scatter-adds back (embedding lookup)."""
        indices = np.asarray(indices)

        def backward(grad, deposit):
            if axis == 0:
                deposit(self, _scatter_rows(indices, np.asarray(grad),
                                            self.data.shape))
                return
            full = np.zeros_like(self.data, dtype=np.float64)
            moved = np.moveaxis(full, axis, 0)
            np.add.at(moved, indices, np.moveaxis(np.asarray(grad), axis, 0))
            deposit(self, full)

        return Tensor._make(np.take(self.data, indices, axis=axis), (self,), backward)

    # ------------------------------------------------------------------
    # Softmax family (fused for stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        out_data = softmax_array(self.data, axis)

        def backward(grad, deposit):
            g = np.asarray(grad)
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            deposit(self, out_data * (g - dot))

        return Tensor._make(out_data, (self,), backward)

    def masked_softmax(self, mask: np.ndarray, axis: int = -1) -> "Tensor":
        """:func:`masked_softmax_array` as one node: its backward does the
        arithmetic of the fill → softmax → row-zeroing chain's."""
        mask = np.asarray(mask, dtype=bool)
        blocked = ~mask
        weights, kept = _masked_softmax_parts(self.data, mask, axis)

        def backward(grad, deposit):
            # The row zeroing's factor is left out of ``grad``: a kept row
            # is multiplied by exactly 1.0, and every position of a
            # dropped row is blocked, so zeroed below whatever it holds.
            g = np.asarray(grad)
            part = g * weights
            dot = part.sum(axis=axis, keepdims=True)
            np.subtract(g, dot, out=part)
            part *= weights
            deposit(self, np.where(blocked, 0.0, part))

        return Tensor._make(weights * kept, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_norm
        softmax = np.exp(out_data)

        def backward(grad, deposit):
            g = np.asarray(grad)
            deposit(self, g - softmax * g.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor with ``value`` where ``mask`` is True (no grad there)."""
        mask = np.asarray(mask, dtype=bool)

        def backward(grad, deposit):
            deposit(self, np.where(mask, 0.0, np.asarray(grad)))

        return Tensor._make(
            masked_fill_array(self.data, mask, value), (self,), backward
        )


def as_array(value) -> np.ndarray:
    """The array behind a Tensor; anything else as an array.  (An
    ndarray has a ``.data`` too — a memoryview — so test the type.)"""
    return value.data if isinstance(value, Tensor) else np.asarray(value)


def _normalize_index(index):
    if isinstance(index, Tensor):
        return index.data
    if isinstance(index, tuple):
        return tuple(i.data if isinstance(i, Tensor) else i for i in index)
    return index


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _all_arrays(values: list) -> bool:
    return not any(isinstance(v, Tensor) for v in values)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing (plain
    ``np.concatenate`` when no input is a Tensor)."""
    tensors = list(tensors)
    if _all_arrays(tensors):
        return np.concatenate(tensors, axis=axis)
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(grad, deposit):
        pieces = np.split(np.asarray(grad), splits, axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                deposit(tensor, piece)

    return Tensor._make(
        np.concatenate([t.data for t in tensors], axis=axis), tensors, backward
    )


_NOTHING = np.empty(0)  # the data of a split's hub node


def split(tensor: Tensor, sizes: Sequence[int]) -> list:
    """The pieces of ``tensor`` along its first axis, ``sizes`` rows
    each, as one node: their gradients meet in one concatenation (zeros
    for a piece that got none) instead of each piece scattering into a
    zero array of the whole.  One size gives ``[tensor]``; an array
    gives its views."""
    if len(sizes) == 1:
        return [tensor]
    data = as_array(tensor)
    pieces, stop = [], 0
    for size in sizes:
        pieces.append(data[stop:stop + size])
        stop += size
    if not isinstance(tensor, Tensor):
        return pieces
    if not (is_grad_enabled() and tensor.requires_grad):
        return [Tensor(piece) for piece in pieces]
    grads: list = [None] * len(pieces)

    def join(_, deposit):
        parts = [np.zeros_like(piece) if grad is None else grad
                 for piece, grad in zip(pieces, grads)]
        grads[:] = [None] * len(pieces)
        deposit(tensor, np.concatenate(parts))

    # The pieces hand their gradients to ``join`` through ``grads``; what
    # they deposit into the hub is only the signal that it was reached.
    hub = Tensor._make(_NOTHING, (tensor,), join)

    def handing(at: int):
        def backward(grad, deposit):
            grads[at] = grad
            deposit(hub, _NOTHING)
        return backward

    return [Tensor._make(piece, (hub,), handing(at))
            for at, piece in enumerate(pieces)]


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing (plain
    ``np.stack`` when no input is a Tensor)."""
    tensors = list(tensors)
    if _all_arrays(tensors):
        return np.stack(tensors, axis=axis)
    tensors = [as_tensor(t) for t in tensors]

    def backward(grad, deposit):
        pieces = np.split(np.asarray(grad), len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            deposit(tensor, np.squeeze(piece, axis=axis))

    return Tensor._make(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise select: ``a`` where condition else ``b``."""
    condition = np.asarray(as_array(condition), dtype=bool)
    a, b = as_tensor(a), as_tensor(b)

    def backward(grad, deposit):
        g = np.asarray(grad)
        if a.requires_grad:
            deposit(a, np.where(condition, g, 0.0))
        if b.requires_grad:
            deposit(b, np.where(condition, 0.0, g))

    return Tensor._make(np.where(condition, a.data, b.data), (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Differentiable elementwise maximum (gradient split on ties)."""
    a, b = as_tensor(a), as_tensor(b)
    a_wins = a.data > b.data
    ties = a.data == b.data

    def backward(grad, deposit):
        g = np.asarray(grad)
        if a.requires_grad:
            deposit(a, g * (a_wins + 0.5 * ties))
        if b.requires_grad:
            deposit(b, g * (~a_wins & ~ties) + g * 0.5 * ties)

    return Tensor._make(np.maximum(a.data, b.data), (a, b), backward)


def multi_head_attention(x, mask, w_qkv, w_o, heads: int) -> Tensor:
    """:func:`multi_head_attention_array` as one node.  Its backward
    differentiates each of the forward's length groups on the weights the
    forward kept; the weight gradients are one ``packedᵀ · dQKV`` and one
    ``contextᵀ · dout`` GEMM, the input gradient one
    ``dQKV · [W_q | W_k | W_v]ᵀ`` GEMM scattered back (a padded position
    gets 0)."""
    x, w_qkv, w_o = as_tensor(x), as_tensor(w_qkv), as_tensor(w_o)
    out, rows, groups, packed, qkv, weights, context = _attention_parts(
        x.data, mask, w_qkv.data, w_o.data, heads)
    batch, length, dim = x.data.shape
    head_dim = dim // heads
    scale = 1.0 / np.sqrt(head_dim)

    def backward(grad, deposit):
        flat = np.asarray(grad).reshape(batch * length, dim)
        grad_out = flat if rows is None else flat[rows]
        if w_o.requires_grad:
            deposit(w_o, context.T @ grad_out)
        if not (x.requires_grad or w_qkv.requires_grad):
            return
        grad_context = grad_out @ w_o.data.T
        grad_qkv = np.empty_like(qkv)
        for (start, n, size), weight in zip(groups, weights):
            stop = start + n * size
            q, k, v = _qkv_heads(qkv[start:stop], n, heads)
            g = _heads(grad_context[start:stop], n, heads)
            # Written through (n, H, l, d_k) views of ``grad_qkv``'s rows.
            grad_q, grad_k, grad_v = _qkv_heads(grad_qkv[start:stop], n, heads)
            np.matmul(_keys_first(weight), g, out=grad_v)
            # dWᵀ keys first, as the weights are; then the softmax's
            # backward and the 1/√d_k factor's.
            grad_weight = np.empty_like(weight)
            np.matmul(v, _transposed(g), out=_keys_first(grad_weight))
            part = grad_weight * weight
            dot = part.sum(axis=0)
            np.subtract(grad_weight, dot, out=part)
            part *= weight
            part *= scale
            np.matmul(_keys_first(part).swapaxes(-1, -2), k, out=grad_q)
            np.matmul(_keys_first(part), q, out=grad_k)
        if w_qkv.requires_grad:
            deposit(w_qkv, packed.T @ grad_qkv)
        if x.requires_grad:
            grad_packed = grad_qkv @ w_qkv.data.T
            if rows is None:
                deposit(x, grad_packed.reshape(batch, length, dim))
            else:
                grad_x = np.zeros((batch * length, dim))
                grad_x[rows] = grad_packed
                deposit(x, grad_x.reshape(batch, length, dim))

    return Tensor._make(out, (x, w_qkv, w_o), backward)
