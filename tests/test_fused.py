"""Fused autodiff primitives against the composites they replace.

Each fused op must give its composite's forward values bit for bit.
``sub_scaled``'s VJPs compute its composite's values with one node fewer,
and the VJPs of ``linear`` and ``affine`` are NumPy adjoint nodes that
replay their composite's VJP calls, so the gradients of all three must
equal the composite's bit for bit.  The VJPs of
``standardize``, ``softmax_rows``, ``softmax_cross_entropy`` and
``neg_sq_distances`` are NumPy adjoint nodes too; their first- and
second-order gradients must equal, bit for bit, those of the same
primitives with the VJPs written in primitives (``helpers.PRIMITIVE_VJPS``),
and match the op-by-op composites up to rounding.  Those tolerances are
about ten times the largest error measured over 200 random unit-scale
cases of each op (2.3e-15 first order, 1.0e-14 second order, both for
``standardize``).
"""

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg import training
from fsdg.encoder import BN_EPS
from fsdg.errors import ContractError, NumericError, ShapeError
from fsdg.rng import RngStream
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain
from fsdg.training import TrainConfig, train_loop
from helpers import (
    PRIMITIVE_VJPS,
    assert_grads_match,
    finite_difference_grad,
    max_rel_err,
    ref_affine,
    ref_linear,
    ref_neg_sq_distances,
    ref_softmax_cross_entropy,
    ref_softmax_rows,
    ref_standardize,
)

FIRST_ORDER_RTOL = 1e-14
SECOND_ORDER_RTOL = 1e-13
ROUNDED = ("standardize", "softmax_rows", "softmax_cross_entropy", "neg_sq_distances")
# Cases of linear and affine, in the forms the encoder and FT layers use.
EXACT = ("linear", "affine", "affine_scalar_bias", "sub_scaled")
FUSED = ROUNDED + EXACT
# The cases whose VJPs record adjoint nodes, and the op each one names.
ADJOINT = {name: name for name in ROUNDED} | {"linear": "linear", "affine": "affine",
                                              "affine_scalar_bias": "affine"}


def _case(name: str, seed: int, primitive_vjps: bool = False):
    """(fused op, reference, input tensors) of one random case.  The
    reference is the op-by-op composite, or with ``primitive_vjps`` the op
    with the VJPs written in primitives."""
    stream = RngStream(seed)

    def normal(*shape):
        return ad.leaf(stream.normals(int(np.prod(shape))).reshape(shape))

    if name == "linear":
        return ad.linear, ref_linear, [normal(5, 3), normal(3, 4), normal(4)]
    if name == "affine":  # batch norm's rescale and the FT layer's modulation
        return ad.affine, ref_affine, [normal(6, 4), normal(4), normal(4)]
    if name == "affine_scalar_bias":  # an FT gamma, once written 1 + softplus(theta) * eps
        eps = ad.constant(stream.normals(4))
        return ((lambda a: ad.affine(ad.softplus(a), eps, 1.0)),
                (lambda a: ad.add(1.0, ad.mul(ad.softplus(a), eps))), [normal(4)])
    if name == "sub_scaled":
        # the inner SGD step, squared so that its VJPs record on an attached adjoint
        return ((lambda t, g: ad.square(ad.sub_scaled(t, g, 0.05))),
                (lambda t, g: ad.square(ad.sub(t, ad.scale(g, 0.05)))), [normal(4, 3), normal(4, 3)])
    ref = PRIMITIVE_VJPS[name] if primitive_vjps else {
        "standardize": ref_standardize, "softmax_rows": ref_softmax_rows,
        "softmax_cross_entropy": ref_softmax_cross_entropy,
        "neg_sq_distances": ref_neg_sq_distances}[name]
    if name == "standardize":
        return (lambda x: ad.standardize(x, BN_EPS)), (lambda x: ref(x, BN_EPS)), [normal(6, 4)]
    if name == "softmax_rows":
        return ad.softmax_rows, ref, [normal(5, 4)]
    if name == "softmax_cross_entropy":
        onehot = np.eye(3)[[int(y) for y in stream.integers(6, 3)]]
        return ((lambda a: ad.softmax_cross_entropy(a, onehot)),
                (lambda a: ref(a, onehot)), [normal(6, 3)])
    return ad.neg_sq_distances, ref, [normal(5, 3), normal(4, 3)]


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
    assert set(FUSED) - {"affine_scalar_bias"} <= set(ad.__all__)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", FUSED)
def test_forward_is_bit_identical_to_composite(name, seed):
    fused, ref, xs = _case(name, seed)
    assert np.array_equal(fused(*xs).data, ref(*xs).data)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ROUNDED)
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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", EXACT)
def test_gradients_equal_composite_bit_for_bit(name, seed):
    fused, ref, xs = _case(name, seed)
    (w,) = _weights(seed, [ref(*xs).shape])
    vs = _weights(seed + 1, [x.shape for x in xs])
    got_first, got_second = _first_and_second(fused, xs, w, vs)
    want_first, want_second = _first_and_second(ref, xs, w, vs)
    for got, want in zip(got_first + got_second, want_first + want_second):
        assert np.array_equal(got.data, want.data)


def _tanh(a: ad.Tensor) -> ad.Tensor:
    """tanh written in primitives: 1 - 2 / (exp(2a) + 1)."""
    return ad.sub(1.0, ad.div(2.0, ad.add(ad.exp(ad.scale(a, 2.0)), 1.0)))


def _tanh_first_and_second(fn, xs, w, vs, reverse: bool):
    """Gradients of sum(w * tanh(fn(xs))) with respect to xs and the leaf w,
    and the gradient of the sum over them of sum(v * tanh(gradient)), added
    in order or in reverse.  The tanh nodes give the op's output and its
    gradients a consumer of their own, the leaf w makes the op's incoming
    adjoint attached, and the order decides which adjoint node a second
    backward walks first."""
    wrt = list(xs) + [w]
    grads = ad.backward(_contract(_tanh(fn(*xs)), w), wrt, create_graph=True)
    terms = [ad.tensor_sum(ad.mul(_tanh(g), v)) for g, v in zip(grads, vs)]
    if reverse:
        terms.reverse()
    total = terms[0]
    for term in terms[1:]:
        total = ad.add(total, term)
    return grads, ad.backward(total, wrt)


@pytest.mark.parametrize("form", ["plain", "tanh", "tanh-reversed"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ROUNDED)
def test_gradients_equal_primitive_vjps_bit_for_bit(name, seed, form):
    fused, ref, xs = _case(name, seed, primitive_vjps=True)
    shape = ref(*xs).shape
    if form == "plain":
        (w,) = _weights(seed, [shape])
        vs = _weights(seed + 1, [x.shape for x in xs])
        got, want = (_first_and_second(fn, xs, w, vs) for fn in (fused, ref))
    else:
        w = ad.leaf(_weights(seed, [shape])[0].data)
        vs = _weights(seed + 1, [x.shape for x in xs] + [shape])
        got, want = (_tanh_first_and_second(fn, xs, w, vs, form == "tanh-reversed")
                     for fn in (fused, ref))
    for g, r in zip(got[0] + got[1], want[0] + want[1]):
        assert np.array_equal(g.data, r.data)


@pytest.mark.parametrize("name", ROUNDED)
def test_create_graph_backward_records_one_node_per_input_link(name, monkeypatch):
    fused, ref, xs = _case(name, 3)
    out = fused(*xs)
    (w,) = _weights(3, [out.shape])
    loss = _contract(out, w)  # w is a constant, so only the op's VJPs record
    linked = []
    real_link = ad._link

    def counting_link(node, parents):
        linked.append(node)
        return real_link(node, parents)

    monkeypatch.setattr(ad, "_link", counting_link)
    grads = ad.backward(loss, xs, create_graph=True)
    assert len(linked) == len(out.parents) == len(xs)
    inputs = {id(x) for x in xs} | {id(out)}
    for g in grads:
        # each gradient is the adjoint node itself, linked straight to the
        # op's inputs and output, not to intermediate nodes
        assert any(g is node for node in linked)
        assert {id(t) for t, _ in g.parents} <= inputs


@pytest.mark.parametrize("name", sorted(ADJOINT))
def test_third_order_through_an_adjoint_node_is_refused(name):
    fused, ref, xs = _case(name, 4)
    out = fused(*xs)
    (w,) = _weights(4, [out.shape])
    (v,) = _weights(5, [xs[0].shape])
    # tanh makes the op's incoming adjoint attached, so that a second
    # backward walks every adjoint node the first one recorded
    grads = ad.backward(_contract(_tanh(out), w), xs, create_graph=True)
    total = _contract(grads[0], v)
    ad.backward(total, xs)  # second order is supported
    with pytest.raises(ContractError,
                       match=rf"^{ADJOINT[name]}: cannot record the gradient of a gradient"):
        ad.backward(total, xs, create_graph=True)


def _reused(name, seed):
    """A second-order gradient through the op applied twice, with the same
    factor and bias: its inputs get three or more terms from both uses, so
    the order in which a walk adds them shows."""
    stream = RngStream(seed)

    def normal(*shape):
        return ad.leaf(stream.normals(int(np.prod(shape))).reshape(shape))

    xs = [normal(6, 4), normal(4, 4) if name == "linear" else normal(4), normal(4)]
    w = ad.constant(stream.normals(24).reshape(6, 4))
    vs = [ad.constant(stream.normals(x.size).reshape(x.shape)) for x in xs]
    op = {"linear": (ad.linear, ref_linear), "affine": (ad.affine, ref_affine)}[name]

    def run(fn):
        x, factor, b = xs
        out = fn(ad.standardize(fn(x, factor, b), BN_EPS), factor, b)
        grads = ad.backward(_contract(ad.square(out), w), xs, create_graph=True)
        total = _contract(ad.square(grads[0]), vs[0])
        for g, v in zip(grads[1:], vs[1:]):
            total = ad.add(total, _contract(ad.square(g), v))
        return grads + ad.backward(total, xs)

    return [run(fn) for fn in op]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["linear", "affine"])
def test_gradients_through_a_reused_op_equal_composite_bit_for_bit(name, seed):
    got, want = _reused(name, seed)
    for g, r in zip(got, want):
        assert np.array_equal(g.data, r.data)


def test_an_adjoint_node_computes_no_term_for_a_link_the_walk_skips():
    # standardize's adjoint node links a, g and xhat.  A second backward
    # with respect to w alone walks only its g links; its a term, which
    # overflows here, is not computed.
    x = ad.leaf(1e-10 * RngStream(6).normals(24).reshape(6, 4))
    w = ad.leaf(RngStream(7).normals(24).reshape(6, 4))
    v = ad.constant(1e290 * RngStream(8).normals(24).reshape(6, 4))
    out = ad.standardize(x, 1e-30)
    gx, _ = ad.backward(_contract(out, w), [x, w], create_graph=True)
    total = _contract(gx, v)
    (gw,) = ad.backward(total, [w])
    assert np.isfinite(gw.data).all()
    with pytest.raises(NumericError, match=r"^standardize: non-finite values in result$"):
        ad.backward(total, [x, w])  # x's walk adds the a term


_U = np.ones((5, 3))  # queries and prototypes all at one point: distances are exactly 0
# Inputs whose VJP arithmetic overflows although the forward and the
# weighted sum of the op's output stay finite: (inputs, eps or targets, w).
# The cross-entropy's VJP is (softmax - onehot) * g / n, bounded by |g|, so
# it cannot overflow at first order.
FIRST_ORDER_OVERFLOW = {
    # inv_std near 1e10 from a tiny spread, times a gradient near 1e300
    "standardize": ([1e-10 * RngStream(6).normals(24).reshape(6, 4)], 1e-30,
                    1e300 * RngStream(7).normals(24).reshape(6, 4)),
    # g - rowsum(g * s) = 1e308 + 1e308 in the column the row's softmax skips
    "softmax_rows": ([[[-800.0, 0.0]]], None, [[1e308, -1e308]]),
    # g @ p adds 4 x 1e308 before rowsum(g) * q takes it away again
    "neg_sq_distances": ([_U, _U[:4]], None, np.full((5, 4), 1e308)),
    # x's term g @ w.T and g * s are 1e200 * 1e200 where the forward is 1
    "linear": ([np.full((2, 2), 5e-201), np.full((2, 2), 1e200), np.zeros(2)], None,
               np.full((2, 2), 1e200)),
    "affine": ([np.full((2, 2), 1e-200), np.full(2, 1e200), np.zeros(2)], None,
               np.full((2, 2), 1e200)),
}
# (inputs, eps or targets, w, v): the second backward's incoming adjoint v
# is large where the first-order gradient is tiny or zero.
SECOND_ORDER_OVERFLOW = {
    "standardize": ([0.1 * RngStream(8).normals(24).reshape(6, 4)], BN_EPS, np.ones((6, 4)),
                    np.full((6, 4), 1e308)),
    "softmax_rows": ([RngStream(9).normals(20).reshape(5, 4)], None, np.full((5, 4), 1e160),
                     np.full((5, 4), 1e160)),
    # softmax - onehot is about 1e-100 at a margin of 230
    "softmax_cross_entropy": ([[[230.0, 0.0, 0.0], [0.0, 230.0, 0.0]]], np.eye(3)[:2], 1e200,
                              np.full((2, 3), 1e200)),
    "neg_sq_distances": ([_U, _U[:4]], None, np.ones((5, 4)), np.full((5, 3), 1e308)),
    # x's gradient is 0 at w = 0 or s = 0, and the terms of w, g.T @ h,
    # and of s, sum(h * g), add 2 x 10 x 1e308
    "linear": ([np.ones((2, 2)), np.zeros((2, 2)), np.zeros(2)], None, np.full((2, 2), 10.0),
               np.full((2, 2), 1e308)),
    "affine": ([np.ones((2, 2)), np.zeros(2), np.zeros(2)], None, np.full((2, 2), 10.0),
               np.full((2, 2), 1e308)),
}


def _overflow_op(name, inputs, extra):
    xs = [ad.leaf(np.asarray(x, dtype=np.float64)) for x in inputs]
    if name == "standardize":
        return (lambda x: ad.standardize(x, extra)), xs
    if name == "softmax_cross_entropy":
        return (lambda a: ad.softmax_cross_entropy(a, extra)), xs
    return getattr(ad, name), xs


@pytest.mark.parametrize("create_graph", [False, True])
@pytest.mark.parametrize("name", sorted(FIRST_ORDER_OVERFLOW))
def test_overflow_in_a_first_order_adjoint_raises_numeric_error_naming_op(name, create_graph):
    inputs, extra, w = FIRST_ORDER_OVERFLOW[name]
    fn, xs = _overflow_op(name, inputs, extra)
    loss = _contract(fn(*xs), ad.constant(w))
    assert np.isfinite(loss.item())
    with pytest.raises(NumericError, match=rf"^{name}: non-finite values in result$"):
        ad.backward(loss, xs, create_graph=create_graph)


@pytest.mark.parametrize("name", sorted(SECOND_ORDER_OVERFLOW))
def test_overflow_in_a_second_order_adjoint_raises_numeric_error_naming_op(name):
    inputs, extra, w, v = SECOND_ORDER_OVERFLOW[name]
    fn, xs = _overflow_op(name, inputs, extra)
    grads = ad.backward(_contract(fn(*xs), ad.constant(w)), xs, create_graph=True)
    total = ad.tensor_sum(ad.mul(grads[0], ad.constant(v)))
    assert np.isfinite(total.item())
    with pytest.raises(NumericError, match=rf"^{name}: non-finite values in result$"):
        ad.backward(total, xs)


def _lft_runs_are_bit_identical(head, extra, swap) -> None:
    """Four lft iterations on a tiny testbed, as they are and after
    ``swap()`` has swapped reference forms in, give equal logs and
    parameters bit for bit."""
    specs = [SyntheticDomainSpec(master_seed=13, domain_seed=d, n_classes=6, dim=6,
                                 samples_per_class=12, latent_dim=3) for d in range(2)]
    domains = [generate_synthetic_domain(s) for s in specs]
    config = TrainConfig(mode="lft", head=head, alpha=0.05, iterations=4, way=3, shot=2,
                         query=3, seed=5, encoder_widths=(8, 4), **extra)
    runs = []
    for swapped in (False, True):
        if swapped:
            swap()
        model, rows = train_loop(config, domains)
        runs.append(([(n, t.data) for n, t in model.param_store().items()], rows))
    (params, rows), (ref_params, ref_rows) = runs
    assert rows == ref_rows
    for (name, got), (ref_name, want) in zip(params, ref_params):
        assert name == ref_name and np.array_equal(got, want), name


@pytest.mark.parametrize("head,extra", [
    ("proto", {}), ("matching", {"optimizer": "sgd"}), ("relation", {}), ("proto", {"inner_steps": 2}),
    ("proto", {"inner_steps": 2, "optimizer": "adam"}),
])
def test_lft_training_equals_primitive_vjps_bit_for_bit(head, extra, monkeypatch):
    # The whole lft graph, where adjoint nodes meet the forward's other
    # consumers and each other, against the same run with the VJPs
    # written in primitives swapped in where the encoder, FT layers and
    # heads look the six ops up: linear and affine as their two-node
    # composites.
    def swap():
        for name, ref in PRIMITIVE_VJPS.items():
            monkeypatch.setattr(ad, name, ref)
        monkeypatch.setattr(ad, "linear", ref_linear)
        monkeypatch.setattr(ad, "affine", ref_affine)

    _lft_runs_are_bit_identical(head, extra, swap)


@pytest.mark.parametrize("inner_steps", [1, 2])
def test_lft_training_equals_the_unfused_inner_step_bit_for_bit(inner_steps, monkeypatch):
    # The meta-backward walks the inner steps in another order once each
    # is one node; its sums must not change.
    def swap():
        monkeypatch.setattr(ad, "sub_scaled", lambda t, g, alpha: ad.sub(t, ad.scale(g, alpha)))

    _lft_runs_are_bit_identical("proto", {"inner_steps": inner_steps}, swap)


def _two_adam_calls(model, pseudo_seen, pseudo_unseen, config, rng, optimizer):
    """lft_train_step with Adam stepping the encoder and head parameters
    and the modulation hyper-parameters in two calls, two state groups."""
    total, loss_ps, loss_pu, _, inner_grads = training.lft_outer_loss(
        model, pseudo_seen, pseudo_unseen, config, rng)
    ft_items = model.ft_named()
    meta_grads = ad.backward(total, [t for _, t in ft_items])
    new_values = optimizer.step(inner_grads)
    new_values.update(optimizer.step({n: (t, g) for (n, t), g in zip(ft_items, meta_grads)}))
    return model.with_values(new_values), loss_ps, loss_pu


@pytest.mark.parametrize("inner_steps", [1, 2])
def test_lft_adam_steps_one_group_equal_to_two_calls_bit_for_bit(inner_steps, monkeypatch):
    made = []

    class Recorded(training.Adam):
        def __init__(self, alpha):
            super().__init__(alpha)
            made.append(self)

    def swap():
        monkeypatch.setattr(training, "lft_train_step", _two_adam_calls)

    monkeypatch.setattr(training, "Adam", Recorded)
    _lft_runs_are_bit_identical("proto", {"inner_steps": inner_steps, "optimizer": "adam"}, swap)
    assert [len(opt.state) for opt in made] == [1, 2]


@pytest.mark.parametrize("name", FUSED)
def test_gradients_match_finite_differences(name):
    fused, ref, xs = _case(name, 11)
    (w,) = _weights(11, [ref(*xs).shape])
    vs = _weights(12, [x.shape for x in xs])
    params = {f"x{i}": x for i, x in enumerate(xs)}

    def loss(store):
        return _contract(fused(*store.values()), w)

    def directional(store):
        # sum(v * gradient), whose own gradient is the second-order term
        grads = ad.backward(loss(store), list(store.values()))
        return sum(float(np.sum(g.data * v.data)) for g, v in zip(grads, vs))

    first, second = _first_and_second(fused, list(params.values()), w, vs)
    assert_grads_match(first, finite_difference_grad(loss, params, 1e-6), rtol=1e-6)
    assert_grads_match(second, finite_difference_grad(directional, params, 1e-5), rtol=1e-6)


def test_standardize_rejects_non_2d():
    with pytest.raises(ShapeError):
        ad.standardize(ad.constant([1.0, 2.0]), BN_EPS)


def test_cross_entropy_rejects_targets_of_another_shape():
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))), np.eye(2))


def test_sq_distances_reject_widths_that_differ():
    with pytest.raises(ShapeError):
        ad.neg_sq_distances(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))


@pytest.mark.parametrize("op", [ad.linear, ad.affine])
@pytest.mark.parametrize("bias", [np.zeros((2, 2, 4)), np.zeros((3, 4)), np.zeros(5)])
def test_bias_that_does_not_fit_the_product_is_rejected(op, bias):
    # (2, 2, 4) would grow the (2, 4) product; the others do not broadcast.
    x = ad.constant(np.ones((2, 3)) if op is ad.linear else np.ones((2, 4)))
    s = ad.constant(np.ones((3, 4)) if op is ad.linear else np.ones(4))
    with pytest.raises(ShapeError, match=rf"^{op.__name__}: "):
        op(x, s, ad.constant(bias))


def test_linear_rejects_inner_dimensions_that_differ():
    with pytest.raises(ShapeError, match=r"^linear: inner dimensions differ"):
        ad.linear(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 4))), ad.constant(np.zeros(4)))
    with pytest.raises(ShapeError, match=r"^linear: expected 2-d"):
        ad.linear(ad.constant(np.zeros(3)), ad.constant(np.zeros((3, 4))), ad.constant(np.zeros(4)))


def test_affine_rejects_a_scale_that_does_not_broadcast():
    with pytest.raises(ShapeError, match=r"^affine: shapes"):
        ad.affine(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros(4)), ad.constant(np.zeros(3)))
