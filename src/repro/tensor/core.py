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
