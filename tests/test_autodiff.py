import contextlib
import gc
import os
import platform
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

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


_TWO = ad.constant(2.0)
_MAT = ad.constant([[1.0, 2.0], [3.0, 4.0]])
WORKED = [
    (ad.add, (_TWO, _TWO), {}, 4.0),
    (ad.sub, (_TWO, _TWO), {}, 0.0),
    (ad.mul, (_TWO, _TWO), {}, 4.0),
    (ad.matmul, (_MAT, _MAT), {}, [[7.0, 10.0], [15.0, 22.0]]),
    (ad.relu, (ad.constant(-1.0),), {}, 0.0),
    (ad.tanh, (ad.constant(0.0),), {}, 0.0),
    (ad.exp, (ad.constant(0.0),), {}, 1.0),
    (ad.log, (ad.constant(1.0),), {}, 0.0),
    (ad.softplus, (ad.constant(0.0),), {}, np.log(2.0)),
    (ad.square, (ad.constant(3.0),), {}, 9.0),
    (ad.tensor_sum, (_MAT,), {}, 10.0),
    (ad.tensor_mean, (_MAT,), {}, 2.5),
    (ad.tensor_max, (_MAT,), {}, 4.0),
    (ad.concat, ((_MAT, _MAT),), {"axis": 1}, [[1.0, 2.0, 1.0, 2.0], [3.0, 4.0, 3.0, 4.0]]),
    (ad.narrow, (_MAT,), {"axis": 0, "start": 0, "stop": 1}, [[1.0, 2.0]]),
    (ad.broadcast_to, (_TWO,), {"shape": (2, 2)}, [[2.0, 2.0], [2.0, 2.0]]),
    (ad.scale, (_TWO,), {"c": 3.0}, 6.0),
]


@p("fn,args,kwargs,expected", WORKED, ids=[case[0].__name__ for case in WORKED])
def test_primitive_worked_values(fn, args, kwargs, expected):
    out = fn(*args, **kwargs)
    assert isinstance(out, ad.Tensor)
    assert out.shape == np.shape(expected)
    np.testing.assert_allclose(out.data, expected, rtol=0.0, atol=1e-12)


def test_every_exported_name_exists():
    # perfbench wraps getattr(ad, name) for each name in __all__, so a stale
    # entry would crash its traced run.  Classes and the no_grad
    # context-manager factory are callable too.
    assert len(set(ad.__all__)) == len(ad.__all__)
    for name in ad.__all__:
        assert callable(getattr(ad, name, None)), name


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


def _by_name(*fns):
    """Parametrize over functions, each test id being the function's name."""
    return p("fn", fns, ids=[fn.__name__ for fn in fns])


@_by_name(ad.tanh, ad.exp, ad.softplus, ad.square)
def test_unary_primitive_gradients_match_fd(fn):
    for seed in range(4):
        x = random_tensor(RngStream(100 + seed), (3, 4), -2.0, 2.0)
        params = ad.ParamStore([("x", x)])
        _fd_check(lambda s: ad.tensor_sum(fn(s["x"])), params, rtol=1e-6)


@_by_name(ad.log, ad.sqrt)
def test_positive_domain_primitive_gradients_match_fd(fn):
    for seed in range(4):
        x = random_tensor(RngStream(200 + seed), (3, 4), 0.5, 2.5)
        params = ad.ParamStore([("x", x)])
        _fd_check(lambda s: ad.tensor_sum(fn(s["x"])), params, rtol=1e-6)


def test_relu_gradient_matches_fd_away_from_kink():
    x_data = RngStream(3).uniforms(12).reshape(3, 4) * 4.0 - 2.0
    x_data = np.where(np.abs(x_data) < 0.1, x_data + 0.25, x_data)
    params = ad.ParamStore([("x", ad.leaf(x_data))])
    _fd_check(lambda s: ad.tensor_sum(ad.square(ad.relu(s["x"]))), params, rtol=1e-6)


@_by_name(ad.add, ad.sub, ad.mul, ad.div)
def test_binary_primitive_gradients_match_fd_with_broadcast(fn):
    stream = RngStream(17)
    a = random_tensor(stream, (3, 4), 0.5, 2.0)
    b = random_tensor(stream, (4,), 0.5, 2.0)
    params = ad.ParamStore([("a", a), ("b", b)])
    _fd_check(lambda s: ad.tensor_sum(ad.square(fn(s["a"], s["b"]))), params, rtol=1e-6)


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
    for fn in (ad.tensor_sum, ad.tensor_mean):
        _fd_check(lambda s, fn=fn: ad.tensor_sum(ad.square(
            fn(s["x"], axis=axis, keepdims=keepdims))), params, rtol=1e-6)


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


@pytest.mark.parametrize("shape,target", [
    ((2,), (3,)),
    ((2, 3), (3, 3)),
    ((1, 3), (3,)),  # a leading 1 may be added, never dropped
    ((3,), (3, 2)),
    ((3,), (-1, 3)),
])
def test_broadcast_to_rejects_shapes_that_do_not_broadcast(shape, target):
    with pytest.raises(ShapeError, match=r"^broadcast: cannot expand "):
        ad.broadcast_to(ad.constant(np.ones(shape)), target)


def test_log_rejects_non_positive():
    with pytest.raises(DomainError):
        ad.log(ad.constant([-1.0]))
    with pytest.raises(DomainError):
        ad.log(ad.constant([0.0]))


def test_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        ad.sqrt(ad.constant([-0.5]))


def _scopes():
    """The scan path (warnings silenced) and the IEEE-trap path."""
    return (np.errstate(over="ignore", invalid="ignore"), ad.trap_non_finite())


def test_exp_overflow_raises_numeric_error():
    for scope in _scopes():
        with scope, pytest.raises(NumericError, match=r"^exp: overflow$"):
            ad.exp(ad.constant(1000.0))


def test_tensor_rejects_non_finite_input():
    with pytest.raises(NumericError):
        ad.Tensor([np.inf, 1.0])


BIG = [[1e200, 1e200]]
HUGE = [[1e308], [1e308]]
# Ops whose name is not their function's name, called as fn(constant(a), b).
_NAMED = {"sum": ad.tensor_sum, "scatter_rows": lambda g, rows: ad._scatter_rows(g, rows, 1),
          "linear": lambda x, wb: ad.linear(x, *map(ad.constant, wb)),
          "affine": lambda x, sb: ad.affine(x, *map(ad.constant, sb))}


@pytest.mark.parametrize("op,a,b", [
    ("mul", BIG, BIG),                                  # +inf
    ("mul", BIG, [[-1e200, 1.0]]),                      # -inf
    ("div", [[1.0, 2.0]], [[0.0, 1.0]]),                # +inf
    ("div", [[-1.0, 2.0]], [[0.0, 1.0]]),               # -inf
    ("div", [[0.0, 2.0]], [[0.0, 1.0]]),                # nan
    ("matmul", BIG, [[1e200], [1e200]]),                # +inf
    ("matmul", BIG, [[1e200], [-1e200]]),               # inf - inf = nan
    pytest.param("add", HUGE, HUGE, id="add"),
    pytest.param("sub", HUGE, [[-1e308], [0.0]], id="sub"),
    pytest.param("scale", BIG, 1e200, id="scale"),
    pytest.param("square", BIG, None, id="square"),
    pytest.param("sum", HUGE, None, id="sum-all"),
    pytest.param("sum", HUGE, 0, id="sum-axis"),
    pytest.param("scatter_rows", HUGE, (0, 0), id="scatter_rows"),
    # The fused ops raise on an intermediate overflow, as their composites did.
    pytest.param("standardize", HUGE, 1e-5, id="standardize"),
    pytest.param("softmax_rows", [[1e308, -1e308]], None, id="softmax_rows"),
    pytest.param("softmax_cross_entropy", [[1e308, -1e308]], [[1.0, 0.0]],
                 id="softmax_cross_entropy"),
    pytest.param("neg_sq_distances", BIG, [[1e200, 1e200]], id="neg_sq_distances"),
    pytest.param("linear", BIG, ([[1e200], [1e200]], [0.0]), id="linear-product"),
    pytest.param("linear", HUGE, ([[1.0]], [1e308]), id="linear-bias"),
    pytest.param("affine", BIG, (BIG, [0.0, 0.0]), id="affine-product"),
    pytest.param("affine", HUGE, ([1.0], [1e308]), id="affine-bias"),
])
def test_non_finite_result_raises_numeric_error_naming_op(op, a, b):
    # The same error with every result scanned and inside the IEEE trap.
    fn = _NAMED.get(op) or getattr(ad, op)
    args = (ad.constant(a),) if b is None else (ad.constant(a), b)
    for scope in _scopes():
        with scope, pytest.raises(NumericError, match=rf"^{op}: non-finite values in result$"):
            fn(*args)


def test_large_finite_values_pass_without_warning():
    # A check by "the sum is finite" would overflow and warn on these, and
    # so would a trap that caught more than overflow, invalid and 1/0.
    for scope in (contextlib.nullcontext(), ad.trap_non_finite()):
        with warnings.catch_warnings(), scope:
            warnings.simplefilter("error")
            big = ad.constant([1e308, 1e308])
            half = ad.constant([5e307, 5e307])
            out = ad.add(half, half)
            tiny = ad.mul(ad.constant([1e-300]), ad.constant([1e-300]))  # underflows to 0
        assert np.array_equal(big.data, out.data)
        assert np.array_equal(tiny.data, [0.0])


def test_trap_is_per_thread():
    # A thread started inside the trap gets NumPy's default error state, so
    # it must keep scanning its results rather than trust flags it cannot see.
    errors = []

    def work():
        with np.errstate(over="ignore"):
            try:
                ad.mul(ad.constant(BIG), ad.constant(BIG))
            except NumericError as err:
                errors.append(str(err))

    with ad.trap_non_finite():
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert errors == ["mul: non-finite values in result"]


def test_nested_trap_leaves_the_outer_one_on():
    with ad.trap_non_finite():
        with ad.trap_non_finite():
            pass
        with pytest.raises(NumericError, match="^mul: "):
            ad.mul(ad.constant(BIG), ad.constant(BIG))
        assert np.geterr()["over"] == "raise"
    assert np.geterr()["over"] != "raise"


def test_backward_runs_no_vjp_on_a_branch_that_reaches_no_wrt():
    x, z = ad.leaf(np.array([1.0, 2.0])), ad.leaf(3.0)
    loss = ad.add(ad.tensor_sum(ad.square(x)), ad.square(z))
    calls = []

    def counted(vjp):
        return lambda g: calls.append(g) or vjp(g)

    (x_side, x_vjp), (branch, to_branch) = loss.parents
    ((_, from_branch),) = branch.parents
    loss.parents = ((x_side, x_vjp), (branch, counted(to_branch)))
    branch.parents = ((z, counted(from_branch)),)
    (gx,) = ad.backward(loss, [x])
    assert calls == [] and np.array_equal(gx.data, [2.0, 4.0])
    _, gz = ad.backward(loss, [x, z])
    assert len(calls) == 2 and gz.item() == 6.0


def test_backward_skips_a_non_finite_value_on_an_unreached_branch():
    # d(c / z)/dz = -c / z^2 overflows; only a gradient that needs it raises.
    x, z = ad.leaf(2.0), ad.leaf(1e-200)
    loss = ad.add(ad.square(x), ad.div(ad.constant(1e-200), z))
    (gx,) = ad.backward(loss, [x])
    assert gx.item() == 4.0
    with pytest.raises(NumericError, match="^div: "):
        ad.backward(loss, [x, z])


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


# One call of each primitive on attached inputs; ``x`` and ``y`` are 3x4,
# ``pos`` is positive, ``w`` is 4x2.  The names of __all__ that are no
# primitive are listed apart, so a new export must join one or the other.
_NOT_PRIMITIVES = {"Tensor", "ParamStore", "no_grad", "backward", "finite_difference_grad"}
_CALLS = {
    "add": lambda v: ad.add(v["x"], v["y"]),
    "sub": lambda v: ad.sub(v["x"], v["y"]),
    "mul": lambda v: ad.mul(v["x"], v["y"]),
    "div": lambda v: ad.div(v["x"], v["pos"]),
    "matmul": lambda v: ad.matmul(v["x"], v["w"]),
    "relu": lambda v: ad.relu(v["x"]),
    "tanh": lambda v: ad.tanh(v["x"]),
    "exp": lambda v: ad.exp(v["x"]),
    "log": lambda v: ad.log(v["pos"]),
    "softplus": lambda v: ad.softplus(v["x"]),
    "square": lambda v: ad.square(v["x"]),
    "sqrt": lambda v: ad.sqrt(v["pos"]),
    "tensor_sum": lambda v: ad.tensor_sum(v["x"], axis=0),
    "tensor_mean": lambda v: ad.tensor_mean(v["x"], axis=1, keepdims=True),
    "tensor_max": lambda v: ad.tensor_max(ad.tensor_max(v["x"], axis=1)),
    "concat": lambda v: ad.concat([v["x"], ad.constant(np.ones((3, 2))), v["y"]], axis=1),
    "narrow": lambda v: ad.narrow(v["x"], 1, 1, 3),
    "take_rows": lambda v: ad.take_rows(v["x"], [2, 0, 2]),
    "broadcast_to": lambda v: ad.broadcast_to(ad.narrow(v["x"], 0, 0, 1), (2, 3, 4)),
    "reshape": lambda v: ad.reshape(v["x"], (4, 3)),
    "transpose": lambda v: ad.transpose(v["x"]),
    "scale": lambda v: ad.scale(v["x"], 1.5),
    "neg": lambda v: ad.neg(v["x"]),
    "detach": lambda v: ad.detach(v["x"]),
    "leaf": lambda v: ad.leaf(v["x"].data),
    "adopt": lambda v: ad.adopt(v["x"].data.copy()),
    "adopt_leaf": lambda v: ad.adopt_leaf(v["x"].data.copy()),
    "constant": lambda v: ad.constant(v["x"].data),
    "linear": lambda v: ad.linear(v["y"], v["w"], ad.narrow(v["w"], 0, 0, 1)),
    "affine": lambda v: ad.affine(v["x"], v["y"], v["pos"]),
    "standardize": lambda v: ad.standardize(v["x"], 1e-5),
    "softmax_rows": lambda v: ad.softmax_rows(v["x"]),
    "softmax_cross_entropy": lambda v: ad.softmax_cross_entropy(v["x"], ad.constant(np.eye(3, 4))),
    "neg_sq_distances": lambda v: ad.neg_sq_distances(v["x"], v["y"]),
}
# Those whose result is a graph node when an input is attached.
_RECORDING = set(_CALLS) - {"detach", "leaf", "adopt", "adopt_leaf", "constant"}


def test_every_export_is_a_primitive_call_or_listed_apart():
    assert set(_CALLS) | _NOT_PRIMITIVES == set(ad.__all__)
    assert not set(_CALLS) & _NOT_PRIMITIVES


@p("name", sorted(_CALLS))
def test_no_grad_result_is_the_recorded_value_without_links(name):
    rng = RngStream(31)
    inputs = {"x": rng.normals(12).reshape(3, 4), "y": rng.normals(12).reshape(3, 4),
              "pos": rng.uniforms(12).reshape(3, 4) + 0.5, "w": rng.normals(8).reshape(4, 2)}
    v = {key: ad.leaf(arr) for key, arr in inputs.items()}
    recorded = _CALLS[name](v)
    with ad.no_grad():
        bare = _CALLS[name](v)
    assert bare.shape == recorded.shape
    assert np.array_equal(bare.data, recorded.data)
    assert bare.parents == ()
    assert (recorded.parents != ()) == (name in _RECORDING)
    if name in _RECORDING:
        assert not bare.requires_grad


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


_HEAP_PROBE = """
import resource, sys
import numpy as np
if sys.argv[1] == "fsdg":
    import fsdg.autodiff
def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
held = [np.ones(12_500) for _ in range(50)]
del held
before = faults()
for _ in range(20):  # 50 results of 100 KB each, freed and made again
    held = [np.ones(12_500) for _ in range(50)]
    del held
print(faults() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_import_keeps_freed_heap_memory_mapped():
    # At glibc's default thresholds every round hands the 5 MB heap top back
    # to the kernel and faults it in again, about 1200 pages a round.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    faults = {}
    for mode in ("numpy", "fsdg"):
        out = subprocess.run([sys.executable, "-c", _HEAP_PROBE, mode], env=env,
                             capture_output=True, text=True, check=True, timeout=60).stdout
        faults[mode] = int(out)
    assert faults["numpy"] > 10_000
    assert faults["fsdg"] < 1_000
