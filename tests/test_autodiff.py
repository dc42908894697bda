import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg.errors import (
    ContractError,
    DetachedTensorError,
    DomainError,
    NumericError,
    ShapeError,
)
from fsdg.rng import RngStream
from helpers import max_rel_err, random_tensor

p = pytest.mark.parametrize


# ---------------------------------------------------------------------------
# forward semantics


def test_matmul_identity():
    eye = ad.constant(np.eye(2))
    m = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_softplus_at_zero_is_ln2():
    assert ad.softplus(ad.constant(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_softplus_large_argument_stays_finite_and_tight():
    x = ad.constant([50.0, 800.0])
    y = ad.softplus(x).data
    # for large x, softplus(x) = x + ln(1 + e^-x) which rounds to x
    assert np.all(np.isfinite(y))
    assert y[1] == 800.0
    assert y[0] == pytest.approx(50.0 + np.log1p(np.exp(-50.0)), abs=0.0)


def test_broadcast_add_shapes():
    a = ad.constant(np.ones((3, 1)))
    b = ad.constant(np.ones((1, 4)))
    out = ad.add(a, b)
    assert out.shape == (3, 4)
    assert np.all(out.data == 2.0)


def test_scalar_shape_is_empty_tuple():
    assert ad.constant(3.0).shape == ()
    assert ad.tensor_sum(ad.constant([1.0, 2.0])).shape == ()


def test_concat_narrow_round_trip():
    a = ad.constant(np.arange(6.0).reshape(2, 3))
    b = ad.constant(np.arange(9.0).reshape(3, 3))
    joined = ad.concat([a, b], axis=0)
    assert np.array_equal(ad.narrow(joined, 0, 0, 2).data, a.data)
    assert np.array_equal(ad.narrow(joined, 0, 2, 5).data, b.data)


def test_take_rows_gathers_with_duplicates():
    m = ad.constant(np.arange(12.0).reshape(4, 3))
    picked = ad.take_rows(m, [2, 0, 2])
    assert np.array_equal(picked.data, m.data[[2, 0, 2]])


def test_primitive_forward_dispatch_covers_the_op_set():
    two = ad.constant(2.0)
    mat = ad.constant([[1.0, 2.0], [3.0, 4.0]])
    cases = {
        "add": (([two, two], {}), 4.0),
        "sub": (([two, two], {}), 0.0),
        "mul": (([two, two], {}), 4.0),
        "matmul": (([mat, mat], {}), None),
        "relu": (([ad.constant(-1.0)], {}), 0.0),
        "tanh": (([ad.constant(0.0)], {}), 0.0),
        "exp": (([ad.constant(0.0)], {}), 1.0),
        "log": (([ad.constant(1.0)], {}), 0.0),
        "softplus": (([ad.constant(0.0)], {}), np.log(2.0)),
        "square": (([ad.constant(3.0)], {}), 9.0),
        "sum": (([mat], {}), 10.0),
        "mean": (([mat], {}), 2.5),
        "max": (([mat], {}), 4.0),
        "concat": (([mat, mat], {"axis": 1}), None),
        "slice": (([mat], {"axis": 0, "start": 0, "stop": 1}), None),
        "broadcast": (([two], {"shape": (2, 2)}), None),
        "scale-by-constant": (([two], {"c": 3.0}), 6.0),
    }
    for op, ((inputs, kwargs), expected) in cases.items():
        out = ad.primitive_forward(op, inputs, **kwargs)
        assert isinstance(out, ad.Tensor), op
        if expected is not None:
            assert out.item() == pytest.approx(expected, abs=1e-12), op


def test_primitive_forward_unknown_op():
    with pytest.raises(ContractError):
        ad.primitive_forward("convolve", [ad.constant(1.0)])


# ---------------------------------------------------------------------------
# backward: worked examples


def test_square_gradient_at_three():
    x = ad.leaf(3.0)
    (g,) = ad.backward(ad.square(x), [x])
    assert g.item() == pytest.approx(6.0, abs=1e-12)


def test_gradient_of_unreachable_parameter_is_zero():
    x = ad.leaf(3.0)
    unused = ad.leaf(np.ones(4))
    g_unused = ad.backward(ad.square(x), [x, unused])[1]
    assert np.array_equal(g_unused.data, np.zeros(4))


def test_gradient_accumulates_over_shared_input():
    x = ad.leaf(2.0)
    y = ad.add(ad.square(x), ad.mul(x, x))  # 2x^2, derivative 4x
    (g,) = ad.backward(y, [x])
    assert g.item() == pytest.approx(8.0, abs=1e-12)


def test_backward_linearity_is_exact():
    stream = RngStream(31)
    x = random_tensor(stream, (4, 3))
    w = random_tensor(stream, (3, 2))

    def f():
        return ad.tensor_sum(ad.tanh(ad.matmul(x, w)))

    def g():
        return ad.tensor_sum(ad.square(ad.matmul(x, w)))

    (gf,) = ad.backward(f(), [w])
    (gg,) = ad.backward(g(), [w])
    combined = ad.add(ad.scale(f(), 2.5), ad.scale(g(), -0.5))
    (gc,) = ad.backward(combined, [w])
    assert np.max(np.abs(gc.data - (2.5 * gf.data - 0.5 * gg.data))) < 1e-12


def test_backward_is_deterministic_bitwise():
    stream = RngStream(8)
    x = random_tensor(stream, (5, 4))
    w = random_tensor(stream, (4, 3))

    def run():
        loss = ad.tensor_mean(ad.square(ad.relu(ad.matmul(x, w))))
        (g,) = ad.backward(loss, [w])
        return g.data

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# backward vs the finite-difference oracle


def _fd_check(build, params, rtol, eps=1e-5, atol=1e-8):
    """build(store) -> scalar Tensor; compares backward against central FD."""
    loss = build(params)
    grads = ad.backward(loss, params.tensors())
    fd = ad.finite_difference_grad(build, params, eps)
    for (name, _), got in zip(params.items(), grads):
        err = max_rel_err(got.data, fd[name].data, atol=atol)
        assert err < rtol, f"{name}: rel err {err:.2e}"


UNARY_SMOOTH = ["tanh", "exp", "softplus", "square"]


@p("op", UNARY_SMOOTH)
def test_unary_primitive_gradients_match_fd(op):
    for seed in range(4):
        x = random_tensor(RngStream(100 + seed), (3, 4), -2.0, 2.0)
        params = ad.ParamStore([("x", x)])
        _fd_check(lambda s, op=op: ad.tensor_sum(ad.primitive_forward(op, [s["x"]])),
                  params, rtol=1e-6)


@p("op", ["log", "sqrt"])
def test_positive_domain_primitive_gradients_match_fd(op):
    for seed in range(4):
        x = random_tensor(RngStream(200 + seed), (3, 4), 0.5, 2.5)
        params = ad.ParamStore([("x", x)])
        _fd_check(lambda s, op=op: ad.tensor_sum(ad.primitive_forward(op, [s["x"]])),
                  params, rtol=1e-6)


def test_relu_gradient_matches_fd_away_from_kink():
    x_data = RngStream(3).uniforms(12).reshape(3, 4) * 4.0 - 2.0
    x_data = np.where(np.abs(x_data) < 0.1, x_data + 0.25, x_data)
    params = ad.ParamStore([("x", ad.leaf(x_data))])
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.relu(s["x"]))), params, rtol=1e-6)


@p("op", ["add", "sub", "mul", "div"])
def test_binary_primitive_gradients_match_fd_with_broadcast(op):
    stream = RngStream(17)
    a = random_tensor(stream, (3, 4), 0.5, 2.0)
    b = random_tensor(stream, (4,), 0.5, 2.0)
    params = ad.ParamStore([("a", a), ("b", b)])
    _fd_check(lambda s, op=op: ad.tensor_sum(ad.square(
        ad.primitive_forward(op, [s["a"], s["b"]]))), params, rtol=1e-6)


def test_matmul_gradients_match_fd():
    stream = RngStream(23)
    a = random_tensor(stream, (3, 4))
    b = random_tensor(stream, (4, 2))
    params = ad.ParamStore([("a", a), ("b", b)])
    _fd_check(lambda s: ad.tensor_sum(ad.tanh(ad.matmul(s["a"], s["b"]))), params, rtol=1e-6)


@p("axis,keepdims", [(None, False), (0, False), (1, True)])
def test_reduction_gradients_match_fd(axis, keepdims):
    x = random_tensor(RngStream(29), (4, 5))
    params = ad.ParamStore([("x", x)])
    for op in ("sum", "mean"):
        _fd_check(lambda s, op=op: ad.tensor_sum(ad.square(
            ad.primitive_forward(op, [s["x"]], axis=axis, keepdims=keepdims))),
            params, rtol=1e-6)


def test_max_gradient_matches_fd():
    # entries well separated so the argmax is stable under the FD bump
    x = ad.leaf(np.array([[0.1, 1.4, -0.9], [2.2, -1.3, 0.4]]))
    params = ad.ParamStore([("x", x)])
    _fd_check(lambda s: ad.square(ad.tensor_max(s["x"])), params, rtol=1e-6)
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.tensor_max(s["x"], axis=1))),
              params, rtol=1e-6)


def test_structural_op_gradients_match_fd():
    x = random_tensor(RngStream(37), (4, 3))
    params = ad.ParamStore([("x", x)])
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.narrow(s["x"], 0, 1, 3))), params, rtol=1e-6)
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.take_rows(s["x"], [0, 2, 2]))), params, rtol=1e-6)
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.broadcast_to(
        ad.reshape(s["x"], (4, 3, 1)), (4, 3, 2)))), params, rtol=1e-6)
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.transpose(s["x"]))), params, rtol=1e-6)
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.concat([s["x"], s["x"]], axis=1))),
              params, rtol=1e-6)


def test_three_layer_random_composition_matches_fd():
    # ten seeds, mixed op chain through all major primitive families
    for seed in range(10):
        stream = RngStream(1000 + seed)
        w1 = random_tensor(stream, (5, 6))
        w2 = random_tensor(stream, (6, 4))
        w3 = random_tensor(stream, (4, 2))
        x = random_tensor(stream, (7, 5), requires_grad=False)
        params = ad.ParamStore([("w1", w1), ("w2", w2), ("w3", w3)])

        def build(s):
            h1 = ad.tanh(ad.matmul(x, s["w1"]))
            h2 = ad.softplus(ad.matmul(h1, s["w2"]))
            h3 = ad.square(ad.matmul(h2, s["w3"]))
            return ad.tensor_mean(ad.log(ad.add(h3, 1.0)))

        _fd_check(build, params, rtol=1e-6)


# ---------------------------------------------------------------------------
# gradients of gradients


def test_double_backward_cubic():
    x = ad.leaf(2.0)
    y = ad.mul(ad.square(x), x)
    (g1,) = ad.backward(y, [x], create_graph=True)
    assert g1.item() == pytest.approx(12.0, abs=1e-12)
    assert g1.requires_grad
    (g2,) = ad.backward(g1, [x])
    assert g2.item() == pytest.approx(12.0, abs=1e-12)


def test_triple_backward_quartic():
    x = ad.leaf(1.5)
    y = ad.square(ad.square(x))  # x^4
    (g1,) = ad.backward(y, [x], create_graph=True)
    (g2,) = ad.backward(g1, [x], create_graph=True)
    (g3,) = ad.backward(g2, [x])
    assert g1.item() == pytest.approx(4 * 1.5**3, rel=1e-12)
    assert g2.item() == pytest.approx(12 * 1.5**2, rel=1e-12)
    assert g3.item() == pytest.approx(24 * 1.5, rel=1e-12)


def test_gradient_without_create_graph_is_detached():
    x = ad.leaf(2.0)
    (g,) = ad.backward(ad.square(x), [x])
    assert not g.requires_grad
    with pytest.raises(ContractError):
        ad.backward(g, [x])


def test_second_order_matches_fd_of_first_order():
    # d/dw of sum(grad_w f * v) compared against central differences of
    # the directional first derivative; exercises vjp-of-vjp paths.
    for seed in range(6):
        stream = RngStream(500 + seed)
        w = random_tensor(stream, (4, 3))
        x = random_tensor(stream, (5, 4), requires_grad=False)
        v = random_tensor(stream, (4, 3), requires_grad=False)

        def first_directional(w_t):
            h = ad.tanh(ad.matmul(x, w_t))
            loss = ad.tensor_mean(ad.square(h))
            (g,) = ad.backward(loss, [w_t], create_graph=True)
            return ad.tensor_sum(ad.mul(g, v))

        hvp_loss = first_directional(w)
        (hv,) = ad.backward(hvp_loss, [w])

        def fd_fn(store):
            w_t = store["w"]
            h = ad.tanh(ad.matmul(x, w_t))
            loss = ad.tensor_mean(ad.square(h))
            (g,) = ad.backward(loss, [w_t], create_graph=True)
            return ad.tensor_sum(ad.mul(g, v))

        fd = ad.finite_difference_grad(fd_fn, ad.ParamStore([("w", w)]), 1e-4)
        err = max_rel_err(hv.data, fd["w"].data)
        assert err < 1e-5, f"seed {seed}: rel err {err:.2e}"


# ---------------------------------------------------------------------------
# error contracts


def test_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,))))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
def test_elementwise_shape_error_names_op_and_both_shapes(op):
    a, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones((4,)))
    with pytest.raises(ShapeError, match=rf"^{op.__name__}: shapes \(2, 3\) and \(4,\) do not broadcast$"):
        op(a, b)


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        ad.log(ad.constant([-1.0]))
    with pytest.raises(DomainError):
        ad.log(ad.constant([0.0]))


def test_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        ad.sqrt(ad.constant([-0.5]))


def test_exp_overflow_raises_numeric_error():
    with pytest.raises(NumericError):
        ad.exp(ad.constant(1000.0))


def test_tensor_rejects_non_finite_input():
    with pytest.raises(NumericError):
        ad.Tensor([np.inf, 1.0])


BIG = [[1e200, 1e200]]


@pytest.mark.parametrize("op,a,b", [
    ("mul", BIG, BIG),                                  # +inf
    ("mul", BIG, [[-1e200, 1.0]]),                      # -inf
    ("div", [[1.0, 2.0]], [[0.0, 1.0]]),                # +inf
    ("div", [[-1.0, 2.0]], [[0.0, 1.0]]),               # -inf
    ("div", [[0.0, 2.0]], [[0.0, 1.0]]),                # nan
    ("matmul", BIG, [[1e200], [1e200]]),                # +inf
    ("matmul", BIG, [[1e200], [-1e200]]),               # inf - inf = nan
])
def test_non_finite_result_raises_numeric_error_naming_op(op, a, b):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match=rf"^{op}: non-finite values in result$"):
            getattr(ad, op)(ad.constant(a), ad.constant(b))


def test_large_finite_values_pass_without_warning():
    # A check by "the sum is finite" would overflow and warn on these.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = ad.constant([1e308, 1e308])
        half = ad.constant([5e307, 5e307])
        out = ad.add(half, half)
    assert np.array_equal(big.data, out.data)


def test_backward_requires_scalar_attached_loss():
    x = ad.leaf(np.ones(3))
    with pytest.raises(ContractError):
        ad.backward(ad.square(x), [x])  # vector loss
    with pytest.raises(ContractError):
        ad.backward(ad.constant(1.0), [x])  # constant loss


def test_backward_rejects_detached_wrt():
    x = ad.leaf(2.0)
    c = ad.constant(3.0)
    with pytest.raises(DetachedTensorError):
        ad.backward(ad.square(x), [c])


def test_attached_graph_is_freed_without_the_cycle_collector():
    # Ops whose VJP needs their own output (exp, tanh, softplus, sqrt) must
    # not make reference cycles, or every graph waits for gc to run.
    gc.disable()
    try:
        x = ad.leaf(np.array([0.1, 0.7]))
        y = ad.tensor_sum(ad.sqrt(ad.softplus(ad.tanh(ad.exp(x)))))
        (g,) = ad.backward(y, [x], create_graph=True)
        (gg,) = ad.backward(ad.tensor_sum(g), [x])
        probes = [weakref.ref(y), weakref.ref(g)]
        del y, g
        assert [p() for p in probes] == [None, None]
    finally:
        gc.enable()
    assert np.all(np.isfinite(gg.data))


def test_no_grad_suppresses_graph_building():
    x = ad.leaf(2.0)
    with ad.no_grad():
        y = ad.square(x)
    assert not y.requires_grad and y.parents == ()


def test_tensor_data_is_write_locked():
    t = ad.leaf(np.ones(3))
    with pytest.raises(ValueError):
        t.data[0] = 5.0
    out = ad.add(t, t)
    with pytest.raises(ValueError):
        out.data[0] = 5.0


@pytest.mark.parametrize("make", [
    lambda x: ad.reshape(x, (3, 2)),
    lambda x: ad.narrow(x, 0, 0, 1),
    lambda x: ad.narrow(x, 1, 1, 3),
    lambda x: ad.broadcast_to(x, (4, 2, 3)),
    lambda x: ad.transpose(x),
])
def test_view_op_results_are_write_locked(make):
    x = ad.leaf(np.arange(6.0).reshape(2, 3))
    out = make(x)
    assert out.data.flags.writeable is False
    with pytest.raises(ValueError):
        out.data[(0,) * out.ndim] = 5.0
    assert np.array_equal(x.data, np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# the finite-difference oracle itself


def test_fd_gradient_of_quadratic_is_exact():
    x = ad.leaf(np.array([3.0, -1.0, 0.5]))
    params = ad.ParamStore([("x", x)])
    fd = ad.finite_difference_grad(lambda s: ad.tensor_sum(ad.square(s["x"])), params, 1e-5)
    assert np.max(np.abs(fd["x"].data - 2.0 * x.data)) < 1e-8


def test_fd_gradient_of_constant_is_zero():
    x = ad.leaf(np.ones((2, 2)))
    params = ad.ParamStore([("x", x)])
    fd = ad.finite_difference_grad(lambda s: ad.constant(4.2), params, 1e-5)
    assert np.array_equal(fd["x"].data, np.zeros((2, 2)))


def test_fd_rejects_bad_eps():
    params = ad.ParamStore([("x", ad.leaf(1.0))])
    with pytest.raises(ContractError):
        ad.finite_difference_grad(lambda s: s["x"], params, 0.0)


# ---------------------------------------------------------------------------
# ParamStore


def test_param_store_iterates_lexicographically():
    store = ad.ParamStore([("b", ad.leaf(1.0)), ("a", ad.leaf(2.0)), ("a.b", ad.leaf(3.0))])
    assert store.names() == ["a", "a.b", "b"]


def test_param_store_rejects_duplicates():
    store = ad.ParamStore([("x", ad.leaf(1.0))])
    with pytest.raises(ContractError):
        store.add("x", ad.leaf(2.0))


def test_param_store_with_value_replaces_single_leaf():
    store = ad.ParamStore([("x", ad.leaf(1.0)), ("y", ad.leaf(2.0))])
    bumped = store.with_value("x", np.asarray(5.0))
    assert bumped["x"].item() == 5.0
    assert bumped["y"] is store["y"]
    assert store["x"].item() == 1.0


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_elementwise_gradient_shape_matches_input(seed):
    stream = RngStream(seed)
    rows = 1 + seed % 4
    cols = 1 + (seed // 4) % 5
    x = random_tensor(stream, (rows, cols))
    loss = ad.tensor_sum(ad.mul(ad.tanh(x), x))
    (g,) = ad.backward(loss, [x])
    assert g.shape == x.shape


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sum_forward_agrees_with_numpy(seed):
    stream = RngStream(seed)
    x = random_tensor(stream, (3, 4), requires_grad=False)
    assert ad.tensor_sum(x).item() == pytest.approx(float(np.sum(x.data)), rel=1e-12)
    assert np.allclose(ad.tensor_mean(x, axis=0).data, np.mean(x.data, axis=0))
