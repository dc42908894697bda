import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg import ft
from fsdg.encoder import EncoderConfig
from fsdg.errors import ContractError
from fsdg.rng import RngStream
from helpers import finite_difference_grad, max_rel_err


def softplus(x):
    return np.logaddexp(0.0, x)


# ---------------------------------------------------------------------------
# initialization and parameter counting


def test_default_init_values():
    params = ft.init_ft_params(EncoderConfig(3, (4, 8)))
    for block, width in enumerate((4, 8)):
        assert params[f"ft.block{block}.gamma"].shape == (width,)
        assert np.all(params[f"ft.block{block}.gamma"].data == 0.3)
        assert np.all(params[f"ft.block{block}.beta"].data == 0.5)


def test_init_spread_magnitudes():
    # softplus of the default raw values, the effective noise scales at start
    assert softplus(0.3) == pytest.approx(0.85436, abs=1e-5)
    assert softplus(0.5) == pytest.approx(0.97408, abs=1e-5)


def test_tensors_interleave_gamma_beta_per_block():
    params = ft.init_ft_params(EncoderConfig(3, (2, 5, 3), (True, False, True)))
    assert list(params) == ["ft.block0.gamma", "ft.block0.beta",
                            "ft.block2.gamma", "ft.block2.beta"]
    assert [t.shape for t in params.values()] == [(2,), (2,), (3,), (3,)]


def test_mismatched_block_lists_rejected():
    g = ad.leaf(np.zeros(3))
    with pytest.raises(ContractError, match="missing modulation tensor 'ft.block0.beta'"):
        ft.sample_modulations({"ft.block0.gamma": g}, [0], RngStream(0))
    with pytest.raises(ContractError, match="missing modulation tensor 'ft.block1.gamma'"):
        ft.sample_modulations({"ft.block0.gamma": g, "ft.block0.beta": g}, [1], RngStream(0))
    with pytest.raises(ContractError):
        ft.sample_modulations({"ft.block0.gamma": ad.leaf(np.zeros((3, 1))),
                               "ft.block0.beta": g}, [0], RngStream(0))


# ---------------------------------------------------------------------------
# sampled modulation statistics


def test_modulation_moments_match_reparameterization():
    # gamma ~ N(1, softplus(tg)^2), beta ~ N(0, softplus(tb)^2)
    n = 200_000
    tg, tb = 0.3, 0.5
    theta_g = ad.leaf(np.full(n, tg))
    theta_b = ad.leaf(np.full(n, tb))
    mod = ft.sample_modulation(theta_g, theta_b, RngStream(99))
    g, b = mod.gamma.data, mod.beta.data
    assert np.mean(g) == pytest.approx(1.0, abs=0.01)
    assert np.std(g) == pytest.approx(softplus(tg), rel=0.01)
    assert np.mean(b) == pytest.approx(0.0, abs=0.01)
    assert np.std(b) == pytest.approx(softplus(tb), rel=0.01)


def test_sample_draws_gamma_noise_before_beta_noise():
    theta_g = ad.leaf(np.zeros(5))
    theta_b = ad.leaf(np.zeros(5))
    mod = ft.sample_modulation(theta_g, theta_b, RngStream(7))
    fresh = RngStream(7)
    spread = ad.softplus(theta_g).data  # softplus(0), theta_b's as well
    eps_gamma, eps_beta = fresh.normals(5), fresh.normals(5)
    assert mod.gamma.data.tobytes() == (spread * eps_gamma + 1.0).tobytes()
    assert mod.beta.data.tobytes() == (spread * eps_beta).tobytes()


@pytest.mark.parametrize("widths", [[5], [4, 3], [8, 1, 6], []])
def test_sample_modulations_equal_per_layer_sample_modulation_calls(widths):
    params = {f"ft.block{i}.{part}": ad.leaf(np.full(w, value)) for i, w in enumerate(widths)
              for part, value in (("gamma", 0.3), ("beta", 0.5))}
    blocks = range(len(widths))
    bulk, single = RngStream(19), RngStream(19)
    mods = ft.sample_modulations(params, blocks, bulk)
    want = [ft.sample_modulation(params[f"ft.block{i}.gamma"], params[f"ft.block{i}.beta"], single)
            for i in blocks]
    # The draw follows the blocks, gamma first, however the names are ordered.
    resorted = ft.sample_modulations(dict(sorted(params.items())), blocks, RngStream(19))
    assert len(mods) == len(want) == len(resorted) == len(widths)
    for got, ref, other in zip(mods, want, resorted):
        for a, b, c in ((got.gamma, ref.gamma, other.gamma), (got.beta, ref.beta, other.beta)):
            assert a.data.tobytes() == b.data.tobytes() == c.data.tobytes()
        assert got.gamma.requires_grad and got.beta.requires_grad
    # Equal stream positions; no layer at all draws nothing.
    assert bulk.uniforms(2).tolist() == single.uniforms(2).tolist()
    if not widths:
        assert bulk._pos == 2


def test_degenerate_theta_gives_near_identity_modulation():
    theta = ad.leaf(np.full(6, -50.0))
    mod = ft.sample_modulation(theta, theta, RngStream(1))
    assert np.max(np.abs(mod.gamma.data - 1.0)) < 1e-20
    assert np.max(np.abs(mod.beta.data)) < 1e-20


def test_noise_shape_mismatch_rejected():
    theta = ad.leaf(np.zeros(4))
    with pytest.raises(ContractError):
        ft.modulation_from_noise(theta, theta, np.zeros(5), np.zeros(4))
    with pytest.raises(ContractError):
        ft.modulation_from_noise(theta, theta, np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# gradients through the reparameterization


def test_pinned_noise_gradient_is_sigmoid_times_noise():
    # d gamma_i / d theta_gamma_i = sigmoid(theta) * eps_i, and the same for
    # beta; checked against both the closed form and finite differences.
    stream = RngStream(42)
    theta_g = ad.leaf(stream.uniforms(6) * 2.0 - 1.0)
    theta_b = ad.leaf(stream.uniforms(6) * 2.0 - 1.0)
    eps_g = stream.normals(6)
    eps_b = stream.normals(6)

    def build(store):
        mod = ft.modulation_from_noise(store["tg"], store["tb"], eps_g, eps_b)
        return ad.add(ad.tensor_sum(mod.gamma), ad.tensor_sum(mod.beta))

    params = {"tg": theta_g, "tb": theta_b}
    loss = build(params)
    g_tg, g_tb = ad.backward(loss, [theta_g, theta_b])

    def sigmoid(x):
        return np.exp(x - softplus(x))

    assert max_rel_err(g_tg.data, sigmoid(theta_g.data) * eps_g) < 1e-12
    assert max_rel_err(g_tb.data, sigmoid(theta_b.data) * eps_b) < 1e-12

    fd = finite_difference_grad(build, params, 1e-5)
    assert max_rel_err(g_tg.data, fd["tg"].data) < 1e-6
    assert max_rel_err(g_tb.data, fd["tb"].data) < 1e-6


def test_modulated_activation_gradients_match_fd():
    stream = RngStream(11)
    z = ad.constant(stream.normals(12).reshape(3, 4))
    eps_g = stream.normals(4)
    eps_b = stream.normals(4)
    params = {
        "tg": ad.leaf(np.full(4, 0.3)),
        "tb": ad.leaf(np.full(4, 0.5)),
    }

    def build(store):
        mod = ft.modulation_from_noise(store["tg"], store["tb"], eps_g, eps_b)
        return ad.tensor_mean(ad.square(ft.modulate(z, mod)))

    grads = ad.backward(build(params), list(params.values()))
    fd = finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data) < 1e-6, name


# ---------------------------------------------------------------------------
# applying the modulation


def test_modulate_worked_example():
    mod = ft.Modulation(
        gamma=ad.constant([2.0, 0.5]),
        beta=ad.constant([1.0, -1.0]),
    )
    z = ad.constant([[1.0, 4.0], [0.0, -2.0]])
    out = ft.modulate(z, mod)
    assert np.array_equal(out.data, [[3.0, 1.0], [1.0, -2.0]])


def test_modulate_shares_one_draw_across_the_batch():
    theta = ad.leaf(np.zeros(3))
    mod = ft.sample_modulation(theta, theta, RngStream(5))
    z = ad.constant(np.ones((4, 3)))
    out = ft.modulate(z, mod).data
    assert np.array_equal(out[0], out[3])


def test_modulate_rejects_bad_shapes():
    mod = ft.Modulation(ad.constant(np.ones(3)), ad.constant(np.zeros(3)))
    with pytest.raises(ContractError):
        ft.modulate(ad.constant(np.ones(3)), mod)  # 1-d activations
    with pytest.raises(ContractError):
        ft.modulate(ad.constant(np.ones((2, 4))), mod)  # width mismatch


# ---------------------------------------------------------------------------
# quartile summaries


def test_quartile_stats_against_hand_sorted_values():
    raw_g = np.array([0.0, 1.0, 2.0, 3.0])
    raw_b = np.array([-1.0, 0.0, 1.0, 2.0])
    params = {"ft.block1.gamma": ad.leaf(raw_g), "ft.block1.beta": ad.leaf(raw_b)}
    (row,) = ft.quartile_stats(params, [1])
    gv = np.sort(softplus(raw_g))
    bv = np.sort(softplus(raw_b))

    def lerp_quartile(v, q):
        pos = q * (len(v) - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (pos - lo) * (v[hi] - v[lo])

    assert row.layer == 0
    assert row.gamma_q1 == pytest.approx(lerp_quartile(gv, 0.25), abs=1e-12)
    assert row.gamma_med == pytest.approx(lerp_quartile(gv, 0.50), abs=1e-12)
    assert row.gamma_q3 == pytest.approx(lerp_quartile(gv, 0.75), abs=1e-12)
    assert row.beta_q1 == pytest.approx(lerp_quartile(bv, 0.25), abs=1e-12)
    assert row.beta_med == pytest.approx(lerp_quartile(bv, 0.50), abs=1e-12)
    assert row.beta_q3 == pytest.approx(lerp_quartile(bv, 0.75), abs=1e-12)


def test_quartile_stats_constant_params_collapse():
    params = ft.init_ft_params(EncoderConfig(3, (8, 16)))
    rows = ft.quartile_stats(params, [0, 1])
    assert [r.layer for r in rows] == [0, 1]
    for row in rows:
        assert row.gamma_q1 == row.gamma_med == row.gamma_q3 == pytest.approx(softplus(0.3))
        assert row.beta_q1 == row.beta_med == row.beta_q3 == pytest.approx(softplus(0.5))


def test_quartile_values_are_positive_even_for_very_negative_theta():
    params = {"ft.block0.gamma": ad.leaf(np.full(4, -50.0)),
              "ft.block0.beta": ad.leaf(np.full(4, -50.0))}
    (row,) = ft.quartile_stats(params, [0])
    assert 0.0 < row.gamma_med < 1e-20
    assert 0.0 < row.beta_med < 1e-20


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 16))
def test_zero_noise_means_identity_modulation(seed, width):
    stream = RngStream(seed)
    theta_g = ad.leaf(stream.normals(width))
    theta_b = ad.leaf(stream.normals(width))
    mod = ft.modulation_from_noise(theta_g, theta_b, np.zeros(width), np.zeros(width))
    z = ad.constant(stream.normals(3 * width).reshape(3, width))
    assert np.array_equal(ft.modulate(z, mod).data, z.data)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_sampling_is_deterministic_in_the_stream_seed(seed):
    theta = ad.leaf(np.full(5, 0.25))
    a = ft.sample_modulation(theta, theta, RngStream(seed))
    b = ft.sample_modulation(theta, theta, RngStream(seed))
    assert np.array_equal(a.gamma.data, b.gamma.data)
    assert np.array_equal(a.beta.data, b.beta.data)
