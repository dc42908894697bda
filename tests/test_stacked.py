"""Primitives on a stack of operands, shape (T, ...), as evaluation uses them.

On a stack each primitive must give, slice by slice, exactly the values it
gives on that slice alone.  The matrix primitives, whose VJPs are written
for 2-d operands, must refuse to record on a stack and name themselves.
"""

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg.encoder import BN_EPS
from fsdg.errors import ContractError, ShapeError
from fsdg.rng import RngStream

T = 3


def _normal(stream: RngStream, *shape) -> np.ndarray:
    return stream.normals(int(np.prod(shape))).reshape(shape)


def _cases(stream: RngStream):
    """name -> (primitive over per-slice arrays, stacked arrays, shared arrays)."""
    n = lambda *shape: _normal(stream, *shape)  # noqa: E731
    return {
        "linear": (ad.linear, [n(T, 7, 4)], [n(4, 5), n(5)]),
        "standardize": (lambda x: ad.standardize(x, BN_EPS), [n(T, 6, 4)], []),
        "affine": (ad.affine, [n(T, 6, 4)], [n(4), n(4)]),
        "relu": (ad.relu, [n(T, 5, 4)], []),
        "matmul": (ad.matmul, [n(T, 5, 4), n(T, 4, 3)], []),
        "matmul_shared": (ad.matmul, [n(T, 5, 4)], [n(4, 3)]),
        "matmul_outer": (ad.matmul, [n(T, 5, 1), n(T, 1, 6)], []),
        "transpose": (ad.transpose, [n(T, 5, 4)], []),
        "narrow": (lambda x: ad.narrow(x, -2, 1, 4), [n(T, 5, 4)], []),
        "reshape": (lambda x: ad.reshape(x, x.shape[:-2] + (2, 3, 4)), [n(T, 6, 4)], []),
        "tensor_sum": (lambda x: ad.tensor_sum(x, axis=-1, keepdims=True), [n(T, 5, 4)], []),
        "tensor_mean": (lambda x: ad.tensor_mean(x, axis=-2), [n(T, 2, 5, 4)], []),
        "broadcast_to": (lambda x: ad.broadcast_to(x, x.shape[:-3] + (3, 4, 2)),
                         [n(T, 1, 4, 2)], []),
        "concat": (lambda a, b: ad.concat([a, b], axis=-1), [n(T, 5, 4), n(T, 5, 2)], []),
        "softmax_rows": (ad.softmax_rows, [n(T, 5, 4)], []),
        "neg_sq_distances": (ad.neg_sq_distances, [n(T, 7, 4), n(T, 3, 4)], []),
    }


CASES = sorted(_cases(RngStream(0)))
# The primitives whose VJPs take only 2-d operands, with a call of each.
MATRIX_OPS = {
    "linear": lambda s: ad.linear(s, ad.constant(np.ones((4, 2))), ad.constant(np.ones(2))),
    "matmul": lambda s: ad.matmul(s, ad.constant(np.ones((4, 2)))),
    "transpose": ad.transpose,
    "standardize": lambda s: ad.standardize(s, BN_EPS),
    "softmax_rows": ad.softmax_rows,
    "neg_sq_distances": lambda s: ad.neg_sq_distances(s, ad.constant(np.ones((3, 2, 4)))),
}


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_stack_equals_its_slices_bit_for_bit(name, seed):
    fn, stacked, shared = _cases(RngStream(seed))[name]
    whole = fn(*[ad.constant(a) for a in stacked + shared])
    assert whole.shape[0] == T
    for t in range(T):
        alone = fn(*[ad.constant(a[t]) for a in stacked], *[ad.constant(a) for a in shared])
        assert np.array_equal(whole.data[t], alone.data), f"slice {t}"


@pytest.mark.parametrize("name", sorted(MATRIX_OPS))
def test_matrix_op_refuses_to_record_on_a_stack(name):
    stack = ad.leaf(_normal(RngStream(3), 3, 5, 4))
    with pytest.raises(ContractError, match=rf"^{name}: cannot record on a stacked operand"):
        MATRIX_OPS[name](stack)
    with ad.no_grad():
        assert MATRIX_OPS[name](stack).shape[0] == 3
    assert MATRIX_OPS[name](ad.constant(stack.data)).shape[0] == 3


def test_stacks_whose_leading_axes_differ_are_rejected():
    with pytest.raises(ShapeError, match="^matmul: leading axes"):
        ad.matmul(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 4, 5))))
    with pytest.raises(ShapeError, match="^neg_sq_distances: stacks"):
        ad.neg_sq_distances(ad.constant(np.ones((2, 3, 4))), ad.constant(np.ones((3, 3, 4))))
