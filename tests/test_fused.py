"""Fused autodiff primitives against the composites they replace.

Each fused op must give its composite's forward values bit for bit, and
first- and second-order gradients equal to the composite's up to rounding.
The gradient tolerances are about ten times the largest error measured
over 200 random unit-scale cases of each op (2.3e-15 first order, 1.0e-14
second order, both for ``standardize``).
"""

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg.encoder import BN_EPS
from fsdg.errors import ShapeError
from fsdg.rng import RngStream
from helpers import (
    assert_grads_match,
    max_rel_err,
    ref_neg_sq_distances,
    ref_softmax_cross_entropy,
    ref_softmax_rows,
    ref_standardize,
)

FIRST_ORDER_RTOL = 1e-14
SECOND_ORDER_RTOL = 1e-13
FUSED = ("standardize", "softmax_rows", "softmax_cross_entropy", "neg_sq_distances")


def _case(name: str, seed: int):
    """(fused op, reference composite, input tensors) of one random case."""
    stream = RngStream(seed)

    def normal(*shape):
        return ad.leaf(stream.normals(int(np.prod(shape))).reshape(shape))

    if name == "standardize":
        return (lambda x: ad.standardize(x, BN_EPS)), (lambda x: ref_standardize(x, BN_EPS)), [normal(6, 4)]
    if name == "softmax_rows":
        return ad.softmax_rows, ref_softmax_rows, [normal(5, 4)]
    if name == "softmax_cross_entropy":
        onehot = np.eye(3)[[int(y) for y in stream.integers(6, 3)]]
        return ((lambda a: ad.softmax_cross_entropy(a, onehot)),
                (lambda a: ref_softmax_cross_entropy(a, onehot)), [normal(6, 3)])
    return ad.neg_sq_distances, ref_neg_sq_distances, [normal(5, 3), normal(4, 3)]


def _weights(seed: int, shapes):
    stream = RngStream(seed + 1000)
    return [ad.constant(stream.normals(int(np.prod(s))).reshape(s)) for s in shapes]


def _contract(out: ad.Tensor, w: ad.Tensor) -> ad.Tensor:
    """sum(w * out), a scalar that weighs every output."""
    return ad.tensor_sum(ad.mul(out, w))


def _first_and_second(fn, xs, w, vs):
    """Gradient of sum(w * fn(xs)), and the gradient of sum(v * that
    gradient): a Hessian-vector product through create_graph."""
    grads = ad.backward(_contract(fn(*xs), w), xs, create_graph=True)
    total = None
    for g, v in zip(grads, vs):
        term = ad.tensor_sum(ad.mul(g, v))
        total = term if total is None else ad.add(total, term)
    return grads, ad.backward(total, xs)


def test_fused_ops_are_exported():
    # perfbench counts nodes only from the primitives in __all__.
    assert set(FUSED) <= set(ad.__all__)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", FUSED)
def test_forward_is_bit_identical_to_composite(name, seed):
    fused, ref, xs = _case(name, seed)
    assert np.array_equal(fused(*xs).data, ref(*xs).data)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", FUSED)
def test_gradients_match_composite_to_first_and_second_order(name, seed):
    fused, ref, xs = _case(name, seed)
    (w,) = _weights(seed, [ref(*xs).shape])
    vs = _weights(seed + 1, [x.shape for x in xs])
    got_first, got_second = _first_and_second(fused, xs, w, vs)
    want_first, want_second = _first_and_second(ref, xs, w, vs)
    for got, want in zip(got_first, want_first):
        assert max_rel_err(got.data, want.data, atol=0.0) < FIRST_ORDER_RTOL
    for got, want in zip(got_second, want_second):
        assert max_rel_err(got.data, want.data, atol=0.0) < SECOND_ORDER_RTOL


@pytest.mark.parametrize("name", FUSED)
def test_gradients_match_finite_differences(name):
    fused, ref, xs = _case(name, 11)
    (w,) = _weights(11, [ref(*xs).shape])
    vs = _weights(12, [x.shape for x in xs])
    params = ad.ParamStore((f"x{i}", x) for i, x in enumerate(xs))

    def loss(store):
        return _contract(fused(*store.tensors()), w)

    def directional(store):
        # sum(v * gradient), whose own gradient is the second-order term
        grads = ad.backward(loss(store), store.tensors())
        return sum(float(np.sum(g.data * v.data)) for g, v in zip(grads, vs))

    first, second = _first_and_second(fused, params.tensors(), w, vs)
    assert_grads_match(first, ad.finite_difference_grad(loss, params, 1e-6), rtol=1e-6)
    assert_grads_match(second, ad.finite_difference_grad(directional, params, 1e-5), rtol=1e-6)


def test_standardize_rejects_non_2d():
    with pytest.raises(ShapeError):
        ad.standardize(ad.constant([1.0, 2.0]), BN_EPS)


def test_cross_entropy_rejects_targets_of_another_shape():
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), np.eye(2))


def test_sq_distances_reject_widths_that_differ():
    with pytest.raises(ShapeError):
        ad.neg_sq_distances(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))
