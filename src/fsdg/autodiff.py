"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps an immutable numpy array plus links to the tensors it was
computed from.  Each link carries a vector-Jacobian closure expressed in
terms of these same primitives, so when ``backward`` runs with
``create_graph=True`` the returned gradients are themselves graph-attached
and can be differentiated again.  That one property carries the whole
second-order meta-gradient in the training loop.

Conventions:
  * scalars have shape ``()``,
  * elementwise ops broadcast with trailing-dimension alignment,
  * every result is checked exactly: an operation whose result holds a NaN
    or an infinity raises NumericError naming it instead of propagating it.
    Outside ``trap_non_finite()`` each result is scanned.  Inside it the
    IEEE overflow, invalid and divide-by-zero flags catch the value as the
    ufunc makes it: every Tensor is finite, and arithmetic on finite
    operands only gives a NaN or an infinity by raising one of those flags.
    ``matmul`` scans in both modes, because BLAS worker threads may set
    flags that never reach NumPy,
  * results may share memory with their inputs; every array is write-locked,
    so updates always build new leaves.

Six fused primitives stand for composites of the others, because on
arrays this small each node's Python overhead, not its arithmetic, is the
cost: ``linear`` (``x @ w + b``), ``affine`` (``x * s + b``),
``standardize`` (batch normalization's column standardization),
``softmax_rows``, ``softmax_cross_entropy`` and ``neg_sq_distances``
(prototype logits).  Each forward runs the NumPy operations of its
composite in the same order, so its values match the composite's bit for
bit; each VJP is written in primitives, so it can be differentiated again.
``linear`` and ``affine`` make the VJP calls of their composites and link
their inputs in the composite's depth-first order, so their gradients,
first and second order, equal the composite's bit for bit as well.

Leading batch axes: the matrix primitives (``linear``, ``matmul``,
``transpose``, ``standardize``, ``softmax_rows``, ``neg_sq_distances``)
also take a stack of operands, shape ``(..., rows, cols)``, and act on each
slice as on a 2-d operand; every slice of the result equals the 2-d
result bit for bit.  Their VJPs are written for 2-d operands, so recording
one of them on a stack raises ContractError: stacks are for no-grad passes
such as scoring a block of evaluation episodes at once.  The other
primitives take any rank, and their VJPs do too.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import math
import sys
import weakref
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ContractError,
    DetachedTensorError,
    DomainError,
    NumericError,
    ShapeError,
)

__all__ = [
    "Tensor",
    "ParamStore",
    "no_grad",
    "backward",
    "finite_difference_grad",
    "add", "sub", "mul", "div", "matmul", "relu", "tanh", "exp", "log",
    "softplus", "square", "sqrt", "tensor_sum", "tensor_mean",
    "tensor_max", "concat", "narrow", "take_rows", "broadcast_to", "reshape",
    "transpose", "scale", "neg", "detach", "leaf", "adopt", "adopt_leaf", "constant",
    "linear", "affine", "standardize", "softmax_rows", "softmax_cross_entropy", "neg_sq_distances",
]

# glibc mallopt parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_mapped() -> None:
    """Start glibc malloc's mmap and trim thresholds at the ceilings that
    its own dynamic adjustment can reach on 64-bit Linux (32 and 64 MiB).

    Every primitive allocates a fresh result, tens to hundreds of KB here,
    and a step frees most of them again.  At the default thresholds glibc
    may give the top of the heap back to the kernel at the end of a step
    and fault the same pages in again during the next one.  Whether it
    does depends on the heap's layout, which even the length of the
    command line shifts: on a 2-core Intel Xeon (glibc 2.36) a perfbench
    train-ft step took 6 or 96 minor page faults, and its speed moved by
    about 10%, from that alone.  Nothing is done elsewhere than on Linux.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_mapped()

_grad_enabled = True


@contextlib.contextmanager
def _grad_mode(flag: bool) -> Iterator[None]:
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = flag
    try:
        yield
    finally:
        _grad_enabled = saved


def no_grad() -> contextlib.AbstractContextManager[None]:
    """Disable graph recording inside the block (evaluation fast path)."""
    return _grad_mode(False)


# NumPy's error state belongs to one thread (a thread started inside an
# errstate block sees the defaults), and so does a context variable, so a
# thread that gets no trap keeps scanning its results.
_trapping: contextvars.ContextVar[bool] = contextvars.ContextVar("fsdg_trapping", default=False)


@contextlib.contextmanager
def trap_non_finite() -> Iterator[None]:
    """Catch non-finite results by IEEE flags instead of a scan of each one.

    Inside the block, overflow, invalid operations and division by zero
    raise FloatingPointError, which each primitive re-raises as the
    NumericError that the scan would have raised.  A nested entry does
    nothing.  Plain NumPy arithmetic of the caller inside the block raises
    FloatingPointError as well.
    """
    if _trapping.get():
        yield
        return
    token = _trapping.set(True)
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    finally:
        _trapping.reset(token)


class Tensor:
    """Immutable float64 array with optional links into the gradient graph."""

    __slots__ = ("data", "parents", "requires_grad", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError("tensor: non-finite values in input data")
        arr.setflags(write=False)
        self.data = arr
        self.parents: tuple = ()
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item: tensor has {self.data.size} values")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = ", attached" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{tag}, data={self.data!r})"


def _bare(data: np.ndarray) -> Tensor:
    """Wrap an array as a constant tensor without copying."""
    t = Tensor.__new__(Tensor)
    if not data.flags.writeable:
        t.data = data
    else:
        data.setflags(write=False)
        t.data = data
    t.parents = ()
    t.requires_grad = False
    return t


def constant(data) -> Tensor:
    return Tensor(data)


def leaf(data) -> Tensor:
    """A graph leaf: gradients may be requested with respect to it."""
    return Tensor(data, requires_grad=True)


def adopt(data: np.ndarray) -> Tensor:
    """A constant over ``data`` itself, write-locked in place and not
    scanned (copied only where ``_kept`` copies).  Only for float64 values
    that the caller owns and knows are finite, such as rows of a validated
    domain; ``constant`` is the entry point for other data."""
    return _bare(_kept(data))


def adopt_leaf(data: np.ndarray) -> Tensor:
    """``adopt`` as a graph leaf, for values such as an update computed
    inside ``trap_non_finite()``; ``leaf`` is the entry point for other data."""
    t = adopt(data)
    t.requires_grad = True
    return t


def detach(a: Tensor) -> Tensor:
    """A constant holding ``a``'s values, severed from the graph."""
    return _bare(a.data)


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _all_finite(data: np.ndarray) -> bool:
    # The ufunc reduction itself: np.all adds a Python-level wrapper per call.
    return bool(np.logical_and.reduce(np.isfinite(data), None))


def _non_finite(op: str) -> NumericError:
    return NumericError(f"{op}: non-finite values in result")


def _kept(data) -> np.ndarray:
    """``data`` in the layout that a Tensor holds.

    Contiguous views are kept.  Transposes, stride-0 broadcasts and the
    NumPy scalars that 0-d ufunc results come back as are copied (a copy
    keeps a view's order, so a transpose comes back F-ordered), so BLAS and
    reductions downstream see the memory layouts they always saw.
    """
    if type(data) is not np.ndarray or not data.flags.c_contiguous:
        data = np.array(data)
    return data


def _fresh(op: str, data: np.ndarray, scan: bool = False) -> Tensor:
    """Wrap an op's result, scanned for NaN and inf outside the trap or if ``scan``."""
    if (scan or not _trapping.get()) and not _all_finite(data):
        raise _non_finite(op)
    data = _kept(data)
    data.setflags(write=False)
    t = Tensor.__new__(Tensor)
    t.data = data
    t.parents = ()
    t.requires_grad = False
    return t


def _records(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` joins the graph (grad mode is on and one is
    attached); only then does it build its links and VJPs and what they keep."""
    if _grad_enabled:
        for t in inputs:
            if t.requires_grad:
                return True
    return False


def _stacked(op: str, *inputs: Tensor) -> ContractError:
    """The error of recording a VJP written for 2-d operands on a stack."""
    shapes = " and ".join(str(t.shape) for t in inputs)
    return ContractError(f"{op}: cannot record on a stacked operand ({shapes}); "
                         "stacks are for no-grad passes")


def _link(out: Tensor, parents: Sequence[tuple[Tensor, Callable]]) -> Tensor:
    """Attach vjp links for the attached inputs; ``_records`` holds for them."""
    out.parents = tuple([link for link in parents if link[0].requires_grad])
    out.requires_grad = True
    return out


def _elementwise(op: str, ufunc: np.ufunc, a: Tensor, b: Tensor) -> Tensor:
    """Result of a broadcasting binary ufunc; NumPy itself rejects bad shapes."""
    try:
        data = ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
    except FloatingPointError:
        raise _non_finite(op) from None
    return _fresh(op, data)


def _unbroadcast(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Reduce a broadcast gradient back to the original operand shape."""
    if g.data.shape == shape:
        return g
    while g.ndim > len(shape):
        g = tensor_sum(g, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = tensor_sum(g, axis=axis, keepdims=True)
    if g.shape != shape:
        g = reshape(g, shape)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _elementwise("add", np.add, a, b)
    if not _records(a, b):
        return out
    return _link(out, (
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ))


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _elementwise("sub", np.subtract, a, b)
    if not _records(a, b):
        return out
    return _link(out, (
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(neg(g), b.shape)),
    ))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = _elementwise("mul", np.multiply, a, b)
    if not _records(a, b):
        return out
    return _link(out, (
        (a, lambda g: _unbroadcast(mul(g, b), a.shape)),
        (b, lambda g: _unbroadcast(mul(g, a), b.shape)),
    ))


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if _trapping.get():
        out = _elementwise("div", np.divide, a, b)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = _elementwise("div", np.divide, a, b)
    if not _records(a, b):
        return out
    return _link(out, (
        (a, lambda g: _unbroadcast(div(g, b), a.shape)),
        (b, lambda g: _unbroadcast(neg(div(mul(g, a), mul(b, b))), b.shape)),
    ))


def scale(a, c: float) -> Tensor:
    """Multiply by a python constant; the constant is not a graph node."""
    a = _wrap(a)
    c = float(c)
    try:
        data = a.data * c
    except FloatingPointError:
        raise _non_finite("scale") from None
    out = _fresh("scale", data)
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: scale(g, c)),))


def neg(a) -> Tensor:
    return scale(a, -1.0)


# ---------------------------------------------------------------------------
# nonlinearities
#
# A VJP that needs its op's output holds it by weak reference.  The output
# holds the VJP, so a strong reference would be a cycle that keeps the whole
# upstream graph alive until the cyclic garbage collector happens to run.
# Backward only calls a VJP while it holds the output itself.


def relu(a) -> Tensor:
    a = _wrap(a)
    out = _fresh("relu", np.maximum(a.data, 0.0))
    if not _records(a):
        return out
    mask = _bare((a.data > 0.0).astype(np.float64))
    # Subgradient at 0 is taken as 0; the mask is piecewise constant in a.
    return _link(out, ((a, lambda g: mul(g, mask)),))


def tanh(a) -> Tensor:
    a = _wrap(a)
    out = _fresh("tanh", np.tanh(a.data))
    if not _records(a):
        return out
    ref = weakref.ref(out)
    return _link(out, ((a, lambda g: mul(g, sub(1.0, square(ref())))),))


def exp(a) -> Tensor:
    a = _wrap(a)
    try:
        if _trapping.get():
            data = np.exp(a.data)
        else:
            with np.errstate(over="raise"):
                data = np.exp(a.data)
    except FloatingPointError:
        raise NumericError("exp: overflow") from None
    out = _fresh("exp", data)
    if not _records(a):
        return out
    ref = weakref.ref(out)
    return _link(out, ((a, lambda g: mul(g, ref())),))


def log(a) -> Tensor:
    a = _wrap(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: argument must be strictly positive")
    out = _fresh("log", np.log(a.data))
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: div(g, a)),))


def softplus(a) -> Tensor:
    """ln(1 + e^x), computed as logaddexp(0, x) so large x never overflows."""
    a = _wrap(a)
    out = _fresh("softplus", np.logaddexp(0.0, a.data))
    if not _records(a):
        return out
    # d softplus / dx = sigmoid(x) = exp(x - softplus(x)), stable at both tails.
    ref = weakref.ref(out)
    return _link(out, ((a, lambda g: mul(g, exp(sub(a, ref())))),))


def square(a) -> Tensor:
    a = _wrap(a)
    try:
        data = np.square(a.data)
    except FloatingPointError:
        raise _non_finite("square") from None
    out = _fresh("square", data)
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: mul(g, scale(a, 2.0))),))


def sqrt(a) -> Tensor:
    a = _wrap(a)
    if np.any(a.data < 0.0):
        raise DomainError("sqrt: argument must be non-negative")
    out = _fresh("sqrt", np.sqrt(a.data))
    if not _records(a):
        return out
    ref = weakref.ref(out)
    return _link(out, ((a, lambda g: div(g, scale(ref(), 2.0))),))


# ---------------------------------------------------------------------------
# reductions


def _axis_restore_shape(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    lst = list(shape)
    lst[axis] = 1
    return tuple(lst)


def tensor_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeError(f"sum: axis {axis} out of range for shape {a.shape}")
        axis = axis % a.ndim
    try:
        data = np.add.reduce(a.data, axis=axis, keepdims=keepdims)
    except FloatingPointError:
        raise _non_finite("sum") from None
    out = _fresh("sum", data)
    if not _records(a):
        return out
    mid = (1,) * a.ndim if axis is None else _axis_restore_shape(a.shape, axis)

    def vjp(g: Tensor) -> Tensor:
        # A g that lines up with mid from the right broadcasts as it is.
        if (1,) * (a.ndim - g.ndim) + g.shape != mid:
            g = reshape(g, mid)
        return broadcast_to(g, a.shape)

    return _link(out, ((a, vjp),))


def tensor_mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    count = a.size if axis is None else a.shape[axis % a.ndim]
    if count == 0:
        raise ShapeError("mean: reduction over zero elements")
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def tensor_max(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient flows to the first maximal element only."""
    a = _wrap(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeError(f"max: axis {axis} out of range for shape {a.shape}")
        axis = axis % a.ndim
    out = _fresh("max", np.max(a.data, axis=axis, keepdims=keepdims))
    if not _records(a):
        return out
    mask = np.zeros(a.shape)
    if axis is None:
        mask.reshape(-1)[int(np.argmax(a.data))] = 1.0
        mid = (1,) * a.ndim
    else:
        np.put_along_axis(mask, np.expand_dims(np.argmax(a.data, axis=axis), axis), 1.0, axis=axis)
        mid = _axis_restore_shape(a.shape, axis)
    mask_t = _bare(mask)
    return _link(out, ((a, lambda g: mul(broadcast_to(reshape(g, mid), a.shape), mask_t)),))


# ---------------------------------------------------------------------------
# structure


def matmul(a, b) -> Tensor:
    """Matrix product of the last two axes; leading axes broadcast."""
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} vs {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(
            f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast") from None
    except FloatingPointError:
        raise _non_finite("matmul") from None
    out = _fresh("matmul", data, scan=True)
    if not _records(a, b):
        return out
    if a.data.ndim > 2 or b.data.ndim > 2:
        raise _stacked("matmul", a, b)
    return _link(out, (
        (a, lambda g: matmul(g, transpose(b))),
        (b, lambda g: matmul(transpose(a), g)),
    ))


def transpose(a) -> Tensor:
    """Swap the last two axes."""
    a = _wrap(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose: expected 2-d operand, got {a.shape}")
    out = _fresh("transpose", a.data.swapaxes(-1, -2))
    if not _records(a):
        return out
    if a.data.ndim > 2:
        raise _stacked("transpose", a)
    return _link(out, ((a, lambda g: transpose(g)),))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(d) for d in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = _fresh("reshape", a.data.reshape(shape))
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: reshape(g, a.shape)),))


def broadcast_to(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(int(d) for d in shape)
    try:
        if a.ndim > len(shape):
            raise ValueError  # assignment would drop leading 1s; broadcasting may not
        # Filled in place: one copy, and no Python-level np.broadcast_to.
        data = np.empty(shape)
        data[...] = a.data
    except ValueError:
        raise ShapeError(f"broadcast: cannot expand {a.shape} to {shape}") from None
    out = _fresh("broadcast", data)
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: _unbroadcast(g, a.shape)),))


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_wrap(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one input")
    ndim = parts[0].ndim
    if any(p.ndim != ndim for p in parts):
        raise ShapeError(f"concat: rank mismatch among {[p.shape for p in parts]}")
    if not -ndim <= axis < ndim:
        raise ShapeError(f"concat: axis {axis} out of range")
    axis = axis % ndim
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[p.shape for p in parts]}") from None
    out = _fresh("concat", data)
    if not _records(*parts):
        return out
    links = []
    offset = 0
    for p in parts:
        extent = p.shape[axis]
        links.append((p, lambda g, o=offset, e=extent: narrow(g, axis, o, o + e)))
        offset += extent
    return _link(out, links)


def narrow(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    a = _wrap(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"slice: axis {axis} out of range for shape {a.shape}")
    axis = axis % a.ndim
    if not 0 <= start <= stop <= a.shape[axis]:
        raise ShapeError(f"slice: range [{start}, {stop}) invalid for extent {a.shape[axis]}")
    index = tuple(slice(None) if d != axis else slice(start, stop) for d in range(a.ndim))
    out = _fresh("slice", a.data[index])
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: _embed(g, axis, start, a.shape)),))


def _embed(g: Tensor, axis: int, start: int, full_shape: tuple[int, ...]) -> Tensor:
    """Adjoint of narrow: place g into zeros of the original shape."""
    g = _wrap(g)
    data = np.zeros(full_shape)
    stop = start + g.shape[axis]
    index = tuple(slice(None) if d != axis else slice(start, stop) for d in range(len(full_shape)))
    data[index] = g.data
    out = _fresh("embed", data)
    if not _records(g):
        return out
    return _link(out, ((g, lambda h: narrow(h, axis, start, stop)),))


def take_rows(a, indices: Sequence[int]) -> Tensor:
    """Gather rows by index (duplicates allowed); adjoint scatters with add."""
    a = _wrap(a)
    if a.ndim < 1:
        raise ShapeError("take_rows: operand must have at least one axis")
    idx = tuple(int(i) for i in indices)
    if any(i < 0 or i >= a.shape[0] for i in idx):
        raise ShapeError(f"take_rows: index out of range for {a.shape[0]} rows")
    out = _fresh("take_rows", np.take(a.data, idx, axis=0))
    if not _records(a):
        return out
    return _link(out, ((a, lambda g: _scatter_rows(g, idx, a.shape[0])),))


def _scatter_rows(g: Tensor, indices: tuple[int, ...], n_rows: int) -> Tensor:
    g = _wrap(g)
    data = np.zeros((n_rows,) + g.shape[1:])
    try:
        np.add.at(data, list(indices), g.data)
    except FloatingPointError:
        raise _non_finite("scatter_rows") from None
    out = _fresh("scatter_rows", data)
    if not _records(g):
        return out
    return _link(out, ((g, lambda h: take_rows(h, indices)),))


# ---------------------------------------------------------------------------
# fused composites
#
# Outside the trap, their arithmetic raises on overflow, invalid operations
# and division by zero all the same, so an intermediate value that the scans
# of the composite would have caught raises here too, in both modes.


def _raising(op: str, fn: Callable, *args):
    """fn(*args) with the trap's IEEE flags raising; a flag raises a
    NumericError that names ``op``."""
    try:
        if _trapping.get():
            return fn(*args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(*args)
    except FloatingPointError:
        raise _non_finite(op) from None


def _add_into(op: str, data: np.ndarray, b: Tensor) -> np.ndarray:
    """``data + b`` written into ``data``, a fresh result of ``op``; a ``b``
    that would grow ``data``'s shape raises ShapeError."""
    try:
        np.add(data, b.data, out=data)
    except ValueError:
        raise ShapeError(f"{op}: bias {b.shape} does not fit result {data.shape}") from None
    except FloatingPointError:
        raise _non_finite(op) from None
    return data


def linear(x, w, b) -> Tensor:
    """``add(matmul(x, w), b)`` as one node: b is added into the product."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear: expected 2-d operands, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x.shape} vs {w.shape}")
    try:
        data = x.data @ w.data
    except FloatingPointError:
        raise _non_finite("linear") from None
    # Scanned in both modes, as matmul is; a non-finite product stays
    # non-finite once a finite b is added, so one scan of the sum covers both.
    out = _fresh("linear", _add_into("linear", data, b), scan=True)
    if not _records(x, w, b):
        return out
    if x.data.ndim > 2:
        raise _stacked("linear", x)
    return _link(out, (
        (x, lambda g: matmul(g, transpose(w))),
        (w, lambda g: matmul(transpose(x), g)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ))


def affine(x, s, b) -> Tensor:
    """``add(mul(x, s), b)`` as one node: b is added into the product."""
    x, s, b = _wrap(x), _wrap(s), _wrap(b)
    try:
        data = np.multiply(x.data, s.data)
    except ValueError:
        raise ShapeError(f"affine: shapes {x.shape} and {s.shape} do not broadcast") from None
    except FloatingPointError:
        raise _non_finite("affine") from None
    # _kept turns the NumPy scalar of a 0-d product into an array to add into.
    out = _fresh("affine", _add_into("affine", _kept(data), b))
    if not _records(x, s, b):
        return out
    return _link(out, (
        (x, lambda g: _unbroadcast(mul(g, s), x.shape)),
        (s, lambda g: _unbroadcast(mul(g, x), s.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ))


def _standardize_data(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[-2]
    centered = x - np.add.reduce(x, axis=-2, keepdims=True) * (1.0 / n)
    var = np.add.reduce(np.square(centered), axis=-2, keepdims=True) * (1.0 / n)
    # 1/sqrt(var + eps) as exp(-0.5 * log(var + eps)); var + eps > 0 always.
    inv_std = np.exp(np.log(var + eps) * -0.5)
    return centered * inv_std, inv_std


def standardize(a, eps: float) -> Tensor:
    """Each column centered on its mean over the rows and divided by
    sqrt(biased variance + eps): batch normalization without its affine."""
    a = _wrap(a)
    if a.ndim < 2:
        raise ShapeError(f"standardize: expected 2-d operand, got {a.shape}")
    data, inv_std = _raising("standardize", _standardize_data, a.data, float(eps))
    out = _fresh("standardize", data)
    if not _records(a):
        return out
    if a.data.ndim > 2:
        raise _stacked("standardize", a)
    n = a.shape[0]
    ref = weakref.ref(out)

    def vjp(g: Tensor) -> Tensor:
        xhat = ref()
        # inv_std as a node of a, so that a second backward sees it move:
        # d inv_std / d a = -inv_std^2 * xhat / n, column by column.
        s = _bare(inv_std)
        if _records(a):
            s = _link(s, ((a, lambda h: mul(
                xhat, mul(h, _bare(np.square(inv_std) * (-1.0 / n))))),))
        centered_g = sub(sub(g, tensor_mean(g, axis=0, keepdims=True)),
                         mul(xhat, tensor_mean(mul(g, xhat), axis=0, keepdims=True)))
        return mul(s, centered_g)

    return _link(out, ((a, vjp),))


def _softmax_data(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax, each row shifted by its maximum for stability."""
    a = _wrap(a)
    if a.ndim < 2:
        raise ShapeError(f"softmax_rows: expected 2-d operand, got {a.shape}")
    out = _fresh("softmax_rows", _raising("softmax_rows", _softmax_data, a.data))
    if not _records(a):
        return out
    if a.data.ndim > 2:
        raise _stacked("softmax_rows", a)
    ref = weakref.ref(out)

    def vjp(g: Tensor) -> Tensor:
        s = ref()
        return mul(s, sub(g, tensor_sum(mul(g, s), axis=1, keepdims=True)))

    return _link(out, ((a, vjp),))


def _cross_entropy_data(x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    shift = np.max(x, axis=1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(x - shift), axis=1, keepdims=True)) + shift
    picked = np.add.reduce(x * onehot, axis=1, keepdims=True)
    return np.add.reduce(lse - picked, axis=None) * (1.0 / x.shape[0])


def softmax_cross_entropy(logits, onehot) -> Tensor:
    """Mean over rows of -log softmax(logits) at the row's target; ``onehot``
    holds the targets and is a constant."""
    logits, onehot = _wrap(logits), _wrap(onehot)
    if logits.ndim != 2 or onehot.shape != logits.shape:
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} and targets {onehot.shape}")
    n = logits.shape[0]
    out = _fresh("softmax_cross_entropy",
                 _raising("softmax_cross_entropy", _cross_entropy_data, logits.data, onehot.data))
    if not _records(logits):
        return out
    return _link(out, ((logits, lambda g: scale(mul(sub(softmax_rows(logits), onehot), g),
                                                1.0 / n)),))


def _sq_distance_data(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # ||q - p||^2 = ||q||^2 + ||p||^2 - 2 q.p, batched with one matmul.
    q_sq = np.add.reduce(np.square(q), axis=-1, keepdims=True)
    p_sq = np.add.reduce(np.square(p), axis=-1).reshape(p.shape[:-2] + (1, p.shape[-2]))
    return (q_sq + p_sq - (q @ _kept(p.swapaxes(-1, -2))) * 2.0) * -1.0


def neg_sq_distances(q, p) -> Tensor:
    """Negative squared euclidean distance from each row of q to each row of p."""
    q, p = _wrap(q), _wrap(p)
    if q.ndim < 2 or p.ndim != q.ndim or q.shape[-1] != p.shape[-1]:
        raise ShapeError(f"neg_sq_distances: rows of {q.shape} and {p.shape} differ in width")
    if q.shape[:-2] != p.shape[:-2]:
        raise ShapeError(f"neg_sq_distances: stacks {q.shape} and {p.shape} differ")
    data = _raising("neg_sq_distances", _sq_distance_data, q.data, p.data)
    out = _fresh("neg_sq_distances", data, scan=True)
    if not _records(q, p):
        return out
    if q.data.ndim > 2:
        raise _stacked("neg_sq_distances", q, p)

    def p_vjp(g: Tensor) -> Tensor:
        gt = transpose(g)
        return scale(sub(matmul(gt, q), mul(tensor_sum(gt, axis=1, keepdims=True), p)), 2.0)

    return _link(out, (
        (q, lambda g: scale(sub(matmul(g, p), mul(tensor_sum(g, axis=1, keepdims=True), q)), 2.0)),
        (p, p_vjp),
    ))


# ---------------------------------------------------------------------------
# backward pass


def _reaching_order(loss: Tensor, wanted: set[int]) -> tuple[list[Tensor], set[int]]:
    """The nodes under ``loss`` that have a path to a wanted node (or are
    one), parents before children, and the set of their ids."""
    order: list[Tensor] = []
    reach: set[int] = set()
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if expanded:
            if key in wanted:
                reach.add(key)
                order.append(node)
            else:
                for parent, _ in node.parents:
                    if id(parent) in reach:
                        reach.add(key)
                        order.append(node)
                        break
            continue
        if key in visited:
            continue
        visited.add(key)
        stack.append((node, True))
        for parent, _ in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order, reach


def backward(loss: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar loss with respect to each tensor in wrt.

    With ``create_graph=True`` the adjoint computation is recorded, so each
    returned gradient is attached and supports another backward pass.
    Tensors in wrt that do not influence the loss get zero gradients;
    tensors that are not on any graph raise DetachedTensorError.

    Only the nodes with a path to some tensor in wrt get adjoints: every
    contribution to such a node comes from another such node, so each sum
    and its order are those of the full pass.  A non-finite value on a
    path that reaches no tensor in wrt is therefore never computed, and
    does not raise.  Every vector-Jacobian product runs inside
    ``trap_non_finite()``.
    """
    if not isinstance(loss, Tensor) or loss.shape != ():
        raise ContractError("backward: loss must be a scalar tensor")
    if not loss.requires_grad:
        raise ContractError("backward: loss is not attached to a graph")
    wrt = list(wrt)
    for i, w in enumerate(wrt):
        if not isinstance(w, Tensor) or not w.requires_grad:
            raise DetachedTensorError(f"backward: wrt[{i}] is not attached to a graph")

    wanted = {id(w) for w in wrt}
    order, reach = _reaching_order(loss, wanted)
    adjoints: dict[int, Tensor] = {id(loss): _bare(np.ones(()))}
    with _grad_mode(create_graph), trap_non_finite():
        for node in reversed(order):
            key = id(node)
            g = adjoints.get(key) if key in wanted else adjoints.pop(key, None)
            if g is None:
                continue
            for parent, vjp in node.parents:
                pid = id(parent)
                if pid not in reach:
                    continue
                contribution = vjp(g)
                if contribution.data.shape != parent.data.shape:
                    raise ShapeError(
                        f"backward: vjp produced {contribution.shape}, expected {parent.shape}"
                    )
                held = adjoints.get(pid)
                adjoints[pid] = contribution if held is None else add(held, contribution)
    return [adjoints.get(id(w), _bare(np.zeros(w.shape))) for w in wrt]


# ---------------------------------------------------------------------------
# parameter collections and the finite-difference oracle


class ParamStore:
    """Named parameter tensors with deterministic lexicographic iteration."""

    def __init__(self, items: Iterable[tuple[str, Tensor]] = ()):
        self._items: dict[str, Tensor] = {}
        for name, t in items:
            self.add(name, t)

    def add(self, name: str, t: Tensor) -> None:
        if name in self._items:
            raise ContractError(f"ParamStore: duplicate name {name!r}")
        self._items[name] = t

    def __getitem__(self, name: str) -> Tensor:
        if name not in self._items:
            raise KeyError(name)
        return self._items[name]

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def names(self) -> list[str]:
        return sorted(self._items)

    def items(self) -> list[tuple[str, Tensor]]:
        return [(k, self._items[k]) for k in sorted(self._items)]

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.items()]

    def with_value(self, name: str, data: np.ndarray) -> "ParamStore":
        """Copy of the store with one entry replaced by a fresh leaf."""
        if name not in self._items:
            raise KeyError(name)
        store = ParamStore()
        for k, t in self.items():
            store.add(k, leaf(data) if k == name else t)
        return store


def _scalar_value(x) -> float:
    if isinstance(x, Tensor):
        return x.item()
    value = float(x)
    if not np.isfinite(value):
        raise NumericError("finite_difference_grad: function returned non-finite value")
    return value


def finite_difference_grad(f: Callable[[ParamStore], object], params: ParamStore, eps: float) -> ParamStore:
    """Central-difference gradients of a scalar function of a ParamStore.

    This is the reference oracle that gradient tests compare against; it
    shares no code with backward.  f must be deterministic: any sampling
    it performs has to be pinned by the caller.
    """
    if eps <= 0.0:
        raise ContractError("finite_difference_grad: eps must be positive")
    grads = ParamStore()
    for name, t in params.items():
        flat = t.data.reshape(-1)
        out = np.empty(flat.size)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            f_plus = _scalar_value(f(params.with_value(name, bumped.reshape(t.shape))))
            bumped[i] = flat[i] - eps
            f_minus = _scalar_value(f(params.with_value(name, bumped.reshape(t.shape))))
            out[i] = (f_plus - f_minus) / (2.0 * eps)
        grads.add(name, Tensor(out.reshape(t.shape)))
    return grads
