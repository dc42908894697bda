"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps an immutable numpy array plus links to the tensors it was
computed from.  Each link carries a vector-Jacobian closure that records
what it computes, so when ``backward`` runs with ``create_graph=True`` the
returned gradients are themselves graph-attached and can be differentiated
again.  That one property carries the whole second-order meta-gradient in
the training loop.

Conventions:
  * scalars have shape ``()``,
  * elementwise ops broadcast with trailing-dimension alignment,
  * every result is checked exactly: an operation whose result holds a NaN
    or an infinity raises NumericError naming it instead of propagating it.
    Every Tensor is finite, and arithmetic on finite operands only gives a
    NaN or an infinity by raising the IEEE overflow, invalid or
    divide-by-zero flag, so each primitive whose arithmetic can do that
    runs it with those flags raising (``_raising``), inside
    ``trap_non_finite()`` or not.  The others (``relu``, ``softplus``,
    ``log`` and ``sqrt`` past their domain checks, and the structural
    primitives) cannot make such a value and check nothing.  ``matmul``,
    ``linear`` and ``neg_sq_distances`` also scan their results, because
    BLAS worker threads may set flags that never reach NumPy,
  * results may share memory with their inputs; every array is write-locked,
    so updates always build new leaves.

Seven fused primitives stand for composites of the others, because on
arrays this small each node's Python overhead, not its arithmetic, is the
cost: ``linear`` (``x @ w + b``), ``affine`` (``x * s + b``),
``sub_scaled`` (``t - alpha * g``, an SGD step), ``standardize`` (batch
normalization's column standardization), ``softmax_rows``,
``softmax_cross_entropy`` and ``neg_sq_distances`` (prototype logits).
Each forward runs the NumPy operations of its composite in the same
order, so its values match the composite's bit for bit.  ``sub_scaled``'s
VJPs compute its composite's values with one node fewer.  The VJP of each
of the other six is NumPy arithmetic that records one adjoint node per
input link (``_adjoint``), where the same VJP written in primitives would
record one to eleven nodes (``linear``'s VJP for x also records the
transpose of w that its composite records).  The adjoint node's own VJP
is the reverse sweep of that primitive form in NumPy, adding the same
terms in the same order, so gradients of first and second order are those
of the primitive form bit for bit: for ``linear`` and ``affine``, their
two-node composites'.  Second order is the highest these six support: a
third backward through an adjoint node raises ContractError.  The lft
meta-gradient needs only the second.

``backward`` keys its walk and its adjoints by the tensors themselves,
which hash by identity (``Tensor`` defines no ``__eq__`` or ``__hash__``),
and publishes the walk to the adjoint nodes, whose sweeps compute only
the terms of the links it calls.  A first-order pass sums two
contributions to one adjoint in NumPy, with the bits and the NumericError
of ``add``; a recording pass sums with ``add``.

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
    "no_grad",
    "backward",
    "add", "sub", "mul", "div", "matmul", "relu", "exp", "log",
    "softplus", "square", "sqrt", "tensor_sum", "tensor_mean",
    "concat", "narrow", "broadcast_to", "reshape",
    "transpose", "scale", "neg", "leaf", "adopt", "adopt_leaf", "constant",
    "linear", "affine", "sub_scaled", "standardize", "softmax_rows", "softmax_cross_entropy",
    "neg_sq_distances",
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
# thread that gets no trap enters the error state at each primitive.
_trapping: contextvars.ContextVar[bool] = contextvars.ContextVar("fsdg_trapping", default=False)


@contextlib.contextmanager
def trap_non_finite() -> Iterator[None]:
    """One ``np.errstate`` entry over a whole pass.

    Primitives raise NumericError on a non-finite result inside the block
    or not; outside it, each one enters the raising error state for its own
    call, and inside it none does.  The block also makes overflow, invalid
    operations and division by zero in the caller's own NumPy arithmetic
    (an optimizer's update) raise FloatingPointError.  A nested entry does
    nothing.
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
    if data.flags.writeable:
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


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _all_finite(data: np.ndarray) -> bool:
    # The ufunc reduction itself: np.all adds a Python-level wrapper per call.
    return bool(np.logical_and.reduce(np.isfinite(data), None))


def _non_finite(op: str) -> NumericError:
    # exp makes a non-finite value from a finite argument only by overflowing.
    return NumericError("exp: overflow" if op == "exp" else f"{op}: non-finite values in result")


def _kept(data) -> np.ndarray:
    """``data`` in the layout that a Tensor holds.

    C- and F-contiguous arrays are kept, views among them, so a 2-d
    transpose stays a view of its input.  Other strided views (a stride-0
    broadcast, a column slice, a transposed stack) and the NumPy scalars
    that 0-d ufunc results come back as are copied.  A copy keeps a view's
    order, so BLAS and reductions downstream see the layout the view had.
    """
    if type(data) is not np.ndarray or not data.flags.forc:
        data = np.array(data)
    return data


def _raising(op: str, fn: Callable, *args):
    """fn(*args) with the IEEE overflow, invalid and divide-by-zero flags
    raising, by the trap's error state or else by an entry of its own; a
    flag raises a NumericError that names ``op``."""
    try:
        if _trapping.get():
            return fn(*args)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return fn(*args)
    except FloatingPointError:
        raise _non_finite(op) from None


def _fresh(op: str, data: np.ndarray, scan: bool = False) -> Tensor:
    """Wrap an op's result, scanned for NaN and inf if ``scan``: the result
    of BLAS, whose worker threads may set flags that NumPy never sees."""
    if scan and not _all_finite(data):
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
        data = _raising(op, ufunc, a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None
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
    out = _fresh("scale", _raising("scale", np.multiply, a.data, c))
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


def exp(a) -> Tensor:
    a = _wrap(a)
    out = _fresh("exp", _raising("exp", np.exp, a.data))
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
    out = _fresh("square", _raising("square", np.square, a.data))
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


def tensor_sum(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is not None:
        if not -a.ndim <= axis < a.ndim:
            raise ShapeError(f"sum: axis {axis} out of range for shape {a.shape}")
        axis = axis % a.ndim
    # np.add.reduce(array, axis, dtype, out, keepdims)
    out = _fresh("sum", _raising("sum", np.add.reduce, a.data, axis, None, None, keepdims))
    if not _records(a):
        return out
    mid = (1,) * a.ndim if axis is None else a.shape[:axis] + (1,) + a.shape[axis + 1:]

    def vjp(g: Tensor) -> Tensor:
        # A g that lines up with mid from the right broadcasts as it is.
        if (1,) * (a.ndim - g.ndim) + g.shape != mid:
            g = reshape(g, mid)
        return broadcast_to(g, a.shape)

    return _link(out, ((a, vjp),))


def tensor_mean(a, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    if axis is not None and not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"mean: axis {axis} out of range for shape {a.shape}")
    count = a.size if axis is None else a.shape[axis]
    if count == 0:
        raise ShapeError("mean: reduction over zero elements")
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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
        data = _raising("matmul", np.matmul, a.data, b.data)
    except ValueError:
        raise ShapeError(
            f"matmul: leading axes of {a.shape} and {b.shape} do not broadcast") from None
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


# ---------------------------------------------------------------------------
# fused composites
#
# Each runs the NumPy arithmetic of its composite through ``_raising``, so a
# non-finite intermediate value raises here wherever a primitive of the
# composite would have raised on it.


def _add_into(op: str, data: np.ndarray, b: Tensor) -> np.ndarray:
    """``data + b`` written into ``data``, a fresh result of ``op``; a ``b``
    that would grow ``data``'s shape raises ShapeError."""
    try:
        return _raising(op, np.add, data, b.data, data)
    except ValueError:
        raise ShapeError(f"{op}: bias {b.shape} does not fit result {data.shape}") from None


def linear(x, w, b) -> Tensor:
    """``add(matmul(x, w), b)`` as one node: b is added into the product."""
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 2 or w.ndim != 2:
        raise ShapeError(f"linear: expected 2-d operands, got {x.shape} and {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: inner dimensions differ, {x.shape} vs {w.shape}")
    data = _raising("linear", np.matmul, x.data, w.data)
    # Scanned as matmul is; a non-finite product stays non-finite once a
    # finite b is added, so one scan of the sum covers both.
    out = _fresh("linear", _add_into("linear", data, b), scan=True)
    if not _records(x, w, b):
        return out
    if x.data.ndim > 2:
        raise _stacked("linear", x)
    return _link(out, (
        (x, lambda g: _linear_x_vjp(g, w)),
        (w, lambda g: _linear_w_vjp(x, g)),
        (b, lambda g: _bias_vjp("linear", g, b.shape)),
    ))


def affine(x, s, b) -> Tensor:
    """``add(mul(x, s), b)`` as one node: b is added into the product."""
    x, s, b = _wrap(x), _wrap(s), _wrap(b)
    try:
        data = _raising("affine", np.multiply, x.data, s.data)
    except ValueError:
        raise ShapeError(f"affine: shapes {x.shape} and {s.shape} do not broadcast") from None
    # _kept turns the NumPy scalar of a 0-d product into an array to add into.
    out = _fresh("affine", _add_into("affine", _kept(data), b))
    if not _records(x, s, b):
        return out
    return _link(out, (
        (x, lambda g: _affine_vjp(g, s, x.shape)),
        (s, lambda g: _affine_vjp(g, x, s.shape)),
        (b, lambda g: _bias_vjp("affine", g, b.shape)),
    ))


def _sub_scaled_data(t: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    return np.subtract(t, np.multiply(g, alpha))


def sub_scaled(t, g, alpha: float) -> Tensor:
    """``sub(t, scale(g, alpha))`` as one node, for operands of one shape:
    an SGD step.  g's VJP is ``scale(h, -alpha)``, which equals the
    composite's ``scale(neg(h), alpha)`` bit for bit with one node fewer."""
    t, g = _wrap(t), _wrap(g)
    if t.shape != g.shape:
        raise ShapeError(f"sub_scaled: shapes {t.shape} and {g.shape} differ")
    alpha = float(alpha)
    out = _fresh("sub_scaled", _raising("sub_scaled", _sub_scaled_data, t.data, g.data, alpha))
    if not _records(t, g):
        return out
    return _link(out, ((t, lambda h: h), (g, lambda h: scale(h, -alpha))))


# The nodes that the running backward walks (its ``reach``): an adjoint
# node's sweep computes only the terms of the links that the walk calls.
_walk: contextvars.ContextVar[set | None] = contextvars.ContextVar("fsdg_walk", default=None)


def _adjoint(op: str, data: np.ndarray, links: Sequence[Tensor],
             sweep: Callable[[np.ndarray, list[bool]], Sequence[np.ndarray | None]],
             scan: bool = False) -> Tensor:
    """One input's adjoint under a VJP of ``op``, computed in NumPy, as one node
    (``data``, scanned for NaN and inf if ``scan``, as ``_fresh`` scans).

    Recording, the node links each tensor of ``links`` in turn, and a tensor
    may appear more than once: there is one link per term that the VJP
    written in primitives would add to that tensor's adjoint, in the order
    in which a walk of that form adds them, so a second backward adds the
    same terms in the same order.  ``sweep(h, need)`` is the reverse sweep
    of that form in NumPy for an incoming adjoint ``h``: one term per link,
    computed where ``need`` (one flag per link) holds and None elsewhere.
    A link is needed when the running backward walks its tensor, so a sweep
    computes nothing, and raises on nothing, that no walk adds.  The sweep
    runs once per incoming adjoint and its links share the result; a flag
    it raises is a NumericError naming ``op``.  Second order is the highest
    supported: a backward that records through the node raises
    ContractError.
    """
    out = _fresh(op, data, scan)
    if not _records(*links):
        return out
    # A weak reference to the last incoming adjoint, and the terms of its
    # sweep that no link has returned yet: a backward calls each link at
    # most once, so a term is dropped as soon as its link returns it.
    memo: list = [lambda: None, []]

    def part(i: int) -> Callable[[Tensor], Tensor]:
        def vjp(h: Tensor) -> Tensor:
            if _grad_enabled:
                raise ContractError(f"{op}: cannot record the gradient of a gradient "
                                    "(second order is the highest supported)")
            if memo[0]() is not h:
                walk = _walk.get()
                need = [walk is None or t in walk for t in links]
                memo[0], memo[1] = weakref.ref(h), list(_raising(op, sweep, h.data, need))
            contribution, memo[1][i] = memo[1][i], None
            return _fresh(op, contribution, scan)
        return vjp

    return _link(out, [(t, part(i)) for i, t in enumerate(links)])


def _sum_to(data: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``data`` summed down to ``shape`` by ``_unbroadcast``'s sums, in NumPy."""
    if data.shape == shape:
        return data
    while data.ndim > len(shape):
        data = np.add.reduce(data, 0)
    for axis, dim in enumerate(shape):
        if dim == 1 and data.shape[axis] != 1:
            data = np.add.reduce(data, axis, None, None, True)
    return data if data.shape == shape else data.reshape(shape)


def _bias_vjp(op: str, g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``_unbroadcast(g, shape)``, the VJP of ``op``'s bias: g itself, or its
    chain of sums as one adjoint node, whose sweep is the chain's broadcast."""
    gd = g.data
    if gd.shape == shape:
        return g
    data = _raising(op, _sum_to, gd, shape)
    if not _records(g):
        return _fresh(op, data)
    return _adjoint(op, data, (g,), lambda h, need: (_spread(h, gd.shape),))


def _affine_vjp(g: Tensor, other: Tensor, shape: tuple[int, ...]) -> Tensor:
    """``_unbroadcast(mul(g, other), shape)``, the VJP of one factor of
    affine's product, as one adjoint node linked as that ``mul`` links."""
    gd, od = g.data, other.data  # g has the product's shape, and other fits into it
    data = _raising("affine", np.multiply, gd, od)
    if data.shape != shape:
        data = _raising("affine", _sum_to, data, shape)
    if not _records(g, other):
        return _fresh("affine", data)

    def sweep(h, need):
        if h.shape != gd.shape:  # back through the sums
            h = _spread(h, gd.shape)
        return h * od if need[0] else None, _sum_to(h * gd, od.shape) if need[1] else None

    return _adjoint("affine", data, (g, other), sweep)


def _linear_x_vjp(g: Tensor, w: Tensor) -> Tensor:
    """``matmul(g, transpose(w))``, linear's VJP for x, with the product as
    one adjoint node.  Recording, it links w through a ``transpose`` node,
    as the composite does: a walk reaches that node only after the graph
    under g, so w's term is added where the composite adds it."""
    gd, wd = g.data, w.data
    data = _raising("linear", np.matmul, gd, wd.T)
    if not _records(g, w):
        return _fresh("linear", data, scan=True)

    def sweep(h, need):
        return h @ wd if need[0] else None, gd.T @ h if need[1] else None

    return _adjoint("linear", data, (g, transpose(w)), sweep, scan=True)


def _linear_w_vjp(x: Tensor, g: Tensor) -> Tensor:
    """``matmul(transpose(x), g)``, linear's VJP for w, as one adjoint node
    linked to x and g.  x is linked directly: a walk reaches the composite's
    transpose of x right after its product, so x's term, the transpose of
    ``h @ g.T``, is added where the composite adds it."""
    xd, gd = x.data, g.data
    data = _raising("linear", np.matmul, xd.T, gd)
    if not _records(x, g):
        return _fresh("linear", data, scan=True)

    def sweep(h, need):
        return (h @ gd.T).T if need[0] else None, xd @ h if need[1] else None

    return _adjoint("linear", data, (x, g), sweep, scan=True)


def _spread(row: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``row`` repeated to ``shape`` in C order, as ``broadcast_to`` fills it:
    the adjoint of a sum that kept its axis.  (A copy of NumPy's broadcast
    view of a row comes back F-ordered, and later reductions over it would
    round differently.)"""
    out = np.empty(shape)
    out[...] = row
    return out


def _standardize_data(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[-2]
    centered = x - np.add.reduce(x, axis=-2, keepdims=True) * (1.0 / n)
    var = np.add.reduce(np.square(centered), axis=-2, keepdims=True) * (1.0 / n)
    # 1/sqrt(var + eps) as exp(-0.5 * log(var + eps)); var + eps > 0 always.
    inv_std = np.exp(np.log(var + eps) * -0.5)
    return centered * inv_std, inv_std


def _standardize_vjp(a: Tensor, xhat: Tensor, inv_std: np.ndarray, g: Tensor) -> Tensor:
    """inv_std * (g - mean0(g) - xhat * mean0(g * xhat)), whose inv_std moves
    with a as well: d inv_std / d a = -inv_std^2 * xhat / n, column by column."""
    n, x, gd = a.shape[0], xhat.data, g.data

    def first():
        centered = gd - np.add.reduce(gd, axis=0, keepdims=True) * (1.0 / n)
        m2 = np.add.reduce(gd * x, axis=0, keepdims=True) * (1.0 / n)
        centered_g = centered - x * m2
        return inv_std * centered_g, centered_g, m2

    data, centered_g, m2 = _raising("standardize", first)

    def sweep(h, need):
        terms = [None] * 6
        if need[0]:
            d_inv_std = np.add.reduce(h * centered_g, axis=0, keepdims=True)
            terms[0] = x * (d_inv_std * (np.square(inv_std) * (-1.0 / n)))
        if need[1] or need[3]:
            d_centered = h * inv_std
            d_t2 = d_centered * -1.0
            d_m2 = np.add.reduce(d_t2 * x, axis=0, keepdims=True) * (1.0 / n)
            if need[1]:
                d_m1 = np.add.reduce(d_t2, axis=0, keepdims=True) * (1.0 / n)
                terms[1], terms[2], terms[4] = d_centered, _spread(d_m1, gd.shape), d_m2 * x
            if need[3]:
                terms[3], terms[5] = d_t2 * m2, d_m2 * gd
        return terms

    # a through inv_std; g through the centering, mean0(g) and g * xhat;
    # xhat through xhat * mean0(g * xhat) and g * xhat
    return _adjoint("standardize", data, (a, g, g, xhat, g, xhat), sweep)


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
    ref = weakref.ref(out)
    return _link(out, ((a, lambda g: _standardize_vjp(a, ref(), inv_std, g)),))


def _softmax_data(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _softmax_vjp(s: Tensor, g: Tensor) -> Tensor:
    """s * (g - rowsum(g * s))."""
    sd, gd = s.data, g.data

    def first():
        centered = gd - np.add.reduce(gd * sd, axis=1, keepdims=True)
        return sd * centered, centered

    data, centered = _raising("softmax_rows", first)

    def sweep(h, need):
        d_centered = h * sd
        d_rowsum = np.add.reduce(d_centered * -1.0, axis=1, keepdims=True)
        want_s, want_g = need[0], need[1]
        return (h * centered if want_s else None, d_centered if want_g else None,
                d_rowsum * sd if want_g else None, d_rowsum * gd if want_s else None)

    # s through s * centered and g * s; g through the centering and g * s
    return _adjoint("softmax_rows", data, (s, g, g, s), sweep)


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
    return _link(out, ((a, lambda g: _softmax_vjp(ref(), g)),))


def _cross_entropy_data(x: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    shift = np.max(x, axis=1, keepdims=True)
    lse = np.log(np.add.reduce(np.exp(x - shift), axis=1, keepdims=True)) + shift
    picked = np.add.reduce(x * onehot, axis=1, keepdims=True)
    return np.add.reduce(lse - picked, axis=None) * (1.0 / x.shape[0])


def _cross_entropy_vjp(logits: Tensor, onehot: Tensor, g: Tensor) -> Tensor:
    """(softmax_rows(logits) - onehot) * g / n."""
    n, gd = logits.shape[0], g.data

    def first():
        s = _softmax_data(logits.data)
        diff = s - onehot.data
        return (diff * gd) * (1.0 / n), s, diff

    data, s, diff = _raising("softmax_cross_entropy", first)

    def sweep(h, need):
        d_scaled = h * (1.0 / n)
        d_logits = d_g = None
        if need[0]:
            d_s = d_scaled * gd
            d_logits = s * (d_s - np.add.reduce(d_s * s, axis=1, keepdims=True))
        if need[1]:
            d_g = np.add.reduce(np.add.reduce(d_scaled * diff, axis=0), axis=0)
        return d_logits, d_g

    return _adjoint("softmax_cross_entropy", data, (logits, g), sweep)


def softmax_cross_entropy(logits, onehot) -> Tensor:
    """Mean over rows of -log softmax(logits) at the row's target; ``onehot``
    holds the targets and is a constant."""
    logits, onehot = _wrap(logits), _wrap(onehot)
    if logits.ndim != 2 or onehot.shape != logits.shape:
        raise ShapeError(
            f"softmax_cross_entropy: logits {logits.shape} and targets {onehot.shape}")
    out = _fresh("softmax_cross_entropy",
                 _raising("softmax_cross_entropy", _cross_entropy_data, logits.data, onehot.data))
    if not _records(logits):
        return out
    return _link(out, ((logits, lambda g: _cross_entropy_vjp(logits, onehot, g)),))


def _sq_distance_data(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    # ||q - p||^2 = ||q||^2 + ||p||^2 - 2 q.p, batched with one matmul.
    q_sq = np.add.reduce(np.square(q), axis=-1, keepdims=True)
    p_sq = np.add.reduce(np.square(p), axis=-1).reshape(p.shape[:-2] + (1, p.shape[-2]))
    return (q_sq + p_sq - (q @ _kept(p.swapaxes(-1, -2))) * 2.0) * -1.0


def _sq_distance_vjp(own: Tensor, other: Tensor, g: Tensor, by_row: bool) -> Tensor:
    """2 * (g @ other - rowsum(g) * own) for the queries (``by_row``), and
    the same with g transposed for the prototypes."""
    own_d, other_d = own.data, other.data
    gd = g.data if by_row else g.data.T

    def first():
        rowsum = np.add.reduce(gd, axis=1, keepdims=True)
        return ((gd @ other_d) - rowsum * own_d) * 2.0, rowsum

    data, rowsum = _raising("neg_sq_distances", first)

    def sweep(h, need):
        d_diff = h * 2.0
        d_sub = d_diff * -1.0
        d_other = gd.T @ d_diff if need[0] else None
        d_own = d_sub * rowsum if need[-1] else None
        if not need[1]:
            return (d_other, None, None, d_own) if by_row else (d_other, None, d_own)
        d_g = d_diff @ other_d.T
        d_rowsum = np.add.reduce(d_sub * own_d, axis=1, keepdims=True)
        if by_row:
            return d_other, d_g, _spread(d_rowsum, gd.shape), d_own
        return d_other, (d_g + d_rowsum).T, d_own

    # other through the product; g through the product and rowsum(g), which
    # for the prototypes meet in g's transpose first; own through
    # rowsum(g) * own
    links = (other, g, g, own) if by_row else (other, g, own)
    return _adjoint("neg_sq_distances", data, links, sweep, scan=True)


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
    return _link(out, (
        (q, lambda g: _sq_distance_vjp(q, p, g, by_row=True)),
        (p, lambda g: _sq_distance_vjp(p, q, g, by_row=False)),
    ))


# ---------------------------------------------------------------------------
# backward pass


def _reaching_order(loss: Tensor, wanted: set[Tensor]) -> tuple[list[Tensor], set[Tensor]]:
    """The nodes under ``loss`` that have a path to a wanted node (or are
    one), parents before children, and the set of them.  Tensors hash by
    identity, so the sets hold the nodes themselves."""
    order: list[Tensor] = []
    reach: set[Tensor] = set()
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            if node in wanted:
                reach.add(node)
                order.append(node)
            else:
                for parent, _ in node.parents:
                    if parent in reach:
                        reach.add(node)
                        order.append(node)
                        break
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for parent, _ in node.parents:
            if parent not in visited:
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
    does not raise.  That holds inside an adjoint node too: the set of
    walked nodes is published (``_walk``) while the pass runs, and the
    node's sweep computes only the terms of the links into it.  Every
    vector-Jacobian product runs inside
    ``trap_non_finite()``.  Without ``create_graph`` two contributions to
    one adjoint are summed in NumPy, as ``add`` sums them, and a
    non-finite sum raises NumericError naming ``add``.
    """
    if not isinstance(loss, Tensor) or loss.shape != ():
        raise ContractError("backward: loss must be a scalar tensor")
    if not loss.requires_grad:
        raise ContractError("backward: loss is not attached to a graph")
    wrt = list(wrt)
    for i, w in enumerate(wrt):
        if not isinstance(w, Tensor) or not w.requires_grad:
            raise DetachedTensorError(f"backward: wrt[{i}] is not attached to a graph")

    wanted = set(wrt)
    order, reach = _reaching_order(loss, wanted)
    adjoints: dict[Tensor, Tensor] = {loss: _bare(np.ones(()))}
    token = _walk.set(reach)
    try:
        with _grad_mode(create_graph), trap_non_finite():
            for node in reversed(order):
                g = adjoints.get(node) if node in wanted else adjoints.pop(node, None)
                if g is None:
                    continue
                for parent, vjp in node.parents:
                    if parent not in reach:
                        continue
                    contribution = vjp(g)
                    if contribution.data.shape != parent.data.shape:
                        raise ShapeError(
                            f"backward: vjp produced {contribution.shape}, expected {parent.shape}"
                        )
                    held = adjoints.get(parent)
                    if held is None:
                        adjoints[parent] = contribution
                    elif create_graph:
                        adjoints[parent] = add(held, contribution)
                    else:
                        adjoints[parent] = _fresh("add", _raising("add", np.add, held.data,
                                                                  contribution.data))
    finally:
        _walk.reset(token)
    return [adjoints.get(w, _bare(np.zeros(w.shape))) for w in wrt]
