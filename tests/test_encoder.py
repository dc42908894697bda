import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg import encoder as enc
from fsdg.errors import ConfigError, ContractError
from fsdg.ft import init_ft_params, sample_modulation
from fsdg.rng import RngStream
from helpers import max_rel_err


def small_encoder(seed=0, input_dim=5, widths=(6, 4), ft_blocks=()):
    cfg = enc.EncoderConfig(input_dim, tuple(widths), tuple(ft_blocks))
    return enc.build_encoder(cfg, RngStream(seed))


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_modulate_every_block():
    cfg = enc.EncoderConfig(4, (8, 8))
    assert cfg.ft_blocks == (True, True)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        enc.EncoderConfig(0, (4,))
    with pytest.raises(ConfigError):
        enc.EncoderConfig(4, ())
    with pytest.raises(ConfigError):
        enc.EncoderConfig(4, (4, 0))
    with pytest.raises(ConfigError, match="^encoder: ft_blocks length must match block_widths$"):
        enc.EncoderConfig(4, (4, 4), (True,))


def test_build_encoder_shapes_and_init():
    state = small_encoder(input_dim=5, widths=(6, 4))
    assert state.output_dim == 4
    assert state.blocks[0].weight.shape == (5, 6)
    assert state.blocks[1].weight.shape == (6, 4)
    for blk in state.blocks:
        assert np.all(blk.bias.data == 0.0)
        assert np.all(blk.bn_scale.data == 1.0)
        assert np.all(blk.bn_shift.data == 0.0)


def test_glorot_bound_and_coverage():
    w = enc.glorot_uniform(RngStream(3), 40, 60)
    bound = np.sqrt(6.0 / 100.0)
    assert np.max(np.abs(w)) < bound
    assert np.max(np.abs(w)) > 0.9 * bound  # actually fills the range


def test_parameter_names_are_per_block():
    state = small_encoder(widths=(6, 4))
    names = [name for name, _ in state.parameters()]
    assert names == [
        "enc.block0.weight", "enc.block0.bias", "enc.block0.bn_scale", "enc.block0.bn_shift",
        "enc.block1.weight", "enc.block1.bias", "enc.block1.bn_scale", "enc.block1.bn_shift",
    ]


# ---------------------------------------------------------------------------
# batch normalization


def test_batch_norm_two_point_example():
    # values {-1, +1} have mean 0 and biased variance 1, so the output is
    # +-1/sqrt(1 + eps)
    x = ad.constant([[-1.0], [1.0]])
    out = enc.batch_norm(x, ad.constant(np.ones(1)), ad.constant(np.zeros(1)))
    expected = 1.0 / np.sqrt(1.0 + enc.BN_EPS)
    assert out.data[0, 0] == pytest.approx(-expected, abs=1e-12)
    assert out.data[1, 0] == pytest.approx(expected, abs=1e-12)


def test_batch_norm_standardizes_each_column():
    x = ad.constant(RngStream(10).normals(60).reshape(20, 3) * 4.0 + 7.0)
    out = enc.batch_norm(x, ad.constant(np.ones(3)), ad.constant(np.zeros(3))).data
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    biased_var = out.var(axis=0)
    assert np.max(np.abs(biased_var - 1.0)) < 1e-3  # eps shrinks it slightly
    assert np.all(biased_var < 1.0)


def test_batch_norm_scale_shift():
    x = ad.constant([[-1.0, -2.0], [1.0, 2.0]])
    out = enc.batch_norm(x, ad.constant([3.0, 1.0]), ad.constant([10.0, -10.0])).data
    # column variances are 1 and 4 (biased), so the standardized entries are
    # +-1/sqrt(1+eps) and +-2/sqrt(4+eps)
    assert out[1, 0] == pytest.approx(10.0 + 3.0 / np.sqrt(1.0 + enc.BN_EPS), abs=1e-12)
    assert out[0, 1] == pytest.approx(-10.0 - 2.0 / np.sqrt(4.0 + enc.BN_EPS), abs=1e-12)


def test_batch_norm_rejects_single_row_and_1d():
    ones = ad.constant(np.ones(3))
    with pytest.raises(ContractError):
        enc.batch_norm(ad.constant(np.ones((1, 3))), ones, ones)
    with pytest.raises(ContractError):
        enc.batch_norm(ones, ones, ones)


def test_batch_norm_constant_column_stays_finite():
    x = ad.constant(np.full((4, 2), 3.0))
    out = enc.batch_norm(x, ad.constant(np.ones(2)), ad.constant(np.zeros(2))).data
    assert np.all(out == 0.0)


def test_batch_norm_gradients_match_fd():
    stream = RngStream(21)
    params = ad.ParamStore([
        ("x", ad.leaf(stream.normals(12).reshape(4, 3))),
        ("scale", ad.leaf(stream.uniforms(3) + 0.5)),
        ("shift", ad.leaf(stream.normals(3))),
    ])

    def build(s):
        return ad.tensor_mean(ad.square(enc.batch_norm(s["x"], s["scale"], s["shift"])))

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data) < 1e-6, name


# ---------------------------------------------------------------------------
# full encoder forward


def test_eval_mode_ignores_rng_and_ft_params():
    state = small_encoder(seed=4)
    ft = init_ft_params(list(state.config.block_widths))
    batch = ad.constant(RngStream(5).normals(20).reshape(4, 5))
    a = enc.encode(state, ft, batch, "eval", rng=RngStream(1)).data
    b = enc.encode(state, ft, batch, "eval", rng=RngStream(999)).data
    c = enc.encode(state, None, batch, "eval").data
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_train_without_ft_equals_eval_bitwise():
    state = small_encoder(seed=6)
    batch = ad.constant(RngStream(7).normals(20).reshape(4, 5))
    train = enc.encode(state, None, batch, "train").data
    ev = enc.encode(state, None, batch, "eval").data
    assert np.array_equal(train, ev)


def test_train_with_ft_is_deterministic_per_stream_and_varies_across():
    state = small_encoder(seed=8)
    ft = init_ft_params(list(state.config.block_widths))
    batch = ad.constant(RngStream(9).normals(20).reshape(4, 5))
    a = enc.encode(state, ft, batch, "train", rng=RngStream(3)).data
    b = enc.encode(state, ft, batch, "train", rng=RngStream(3)).data
    c = enc.encode(state, ft, batch, "train", rng=RngStream(4)).data
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pinned_modulations_reproduce_sampled_pass():
    state = small_encoder(seed=12)
    ft = init_ft_params(list(state.config.block_widths))
    batch = ad.constant(RngStream(13).normals(20).reshape(4, 5))
    rng = RngStream(77)
    mods = [sample_modulation(g, b, rng) for g, b in zip(ft.gammas, ft.betas)]
    sampled = enc.encode(state, ft, batch, "train", rng=RngStream(77)).data
    pinned = enc.encode(state, ft, batch, "train", modulations=mods).data
    assert np.array_equal(sampled, pinned)


def test_ft_applies_only_on_flagged_blocks():
    # modulation off everywhere via flags behaves exactly like no modulation
    cfg = enc.EncoderConfig(5, (6, 4), (False, False))
    state = enc.build_encoder(cfg, RngStream(1))
    ft = init_ft_params([])
    batch = ad.constant(RngStream(2).normals(20).reshape(4, 5))
    with_ft = enc.encode(state, ft, batch, "train", rng=RngStream(5)).data
    without = enc.encode(state, None, batch, "eval").data
    assert np.array_equal(with_ft, without)


def test_layout_that_flags_no_block_draws_no_noise():
    cfg = enc.EncoderConfig(5, (6, 4), (False, False))
    state = enc.build_encoder(cfg, RngStream(1))
    rng = RngStream(5)
    enc.encode(state, init_ft_params([]), ad.constant(np.ones((4, 5))), "train", rng=rng)
    assert rng._pos == 0


def test_ft_layer_count_must_match_flagged_blocks():
    cfg = enc.EncoderConfig(5, (6, 4), (True, False))
    state = enc.build_encoder(cfg, RngStream(1))
    ft = init_ft_params([6, 4])  # two layers, one flagged block
    batch = ad.constant(np.ones((4, 5)))
    with pytest.raises(ContractError):
        enc.encode(state, ft, batch, "train", rng=RngStream(0))


def test_encode_error_contracts():
    state = small_encoder()
    batch = ad.constant(np.ones((4, 5)))
    with pytest.raises(ContractError):
        enc.encode(state, None, batch, "predict")
    with pytest.raises(ContractError):
        enc.encode(state, None, ad.constant(np.ones((4, 3))), "eval")
    ft = init_ft_params(list(state.config.block_widths))
    with pytest.raises(ContractError):
        enc.encode(state, ft, batch, "train")  # no rng, no pinned draws
    with pytest.raises(ContractError):
        enc.encode(state, ft, batch, "train", modulations=[None])  # wrong length


def test_single_row_batch_fails_inside_batch_norm():
    state = small_encoder()
    with pytest.raises(ContractError):
        enc.encode(state, None, ad.constant(np.ones((1, 5))), "eval")


def test_output_is_nonnegative_from_final_relu():
    state = small_encoder(seed=20)
    batch = ad.constant(RngStream(21).normals(40).reshape(8, 5))
    out = enc.encode(state, None, batch, "eval").data
    assert np.all(out >= 0.0)
    assert np.any(out > 0.0)


# ---------------------------------------------------------------------------
# gradients through the whole stack


def test_encoder_parameter_gradients_match_fd():
    state = small_encoder(seed=30, input_dim=4, widths=(5, 3))
    batch = ad.constant(RngStream(31).normals(24).reshape(6, 4))
    params = ad.ParamStore(state.parameters())

    def rebuild(store):
        blocks = []
        for i in range(2):
            blocks.append(enc.BlockParams(
                store[f"enc.block{i}.weight"], store[f"enc.block{i}.bias"],
                store[f"enc.block{i}.bn_scale"], store[f"enc.block{i}.bn_shift"]))
        return enc.EncoderState(state.config, blocks)

    def build(store):
        out = enc.encode(rebuild(store), None, batch, "eval")
        return ad.tensor_mean(ad.square(out))

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data, atol=1e-10) < 1e-5, name


def test_ft_gradients_through_encoder_match_fd():
    state = small_encoder(seed=40, input_dim=4, widths=(5, 3))
    batch = ad.constant(RngStream(41).normals(24).reshape(6, 4))
    noise_rng = RngStream(42)
    base = init_ft_params([5, 3])
    mods_noise = []
    for g, b in zip(base.gammas, base.betas):
        m = sample_modulation(g, b, noise_rng)
        mods_noise.append((m.eps_gamma, m.eps_beta))

    names = ["ft0.g", "ft0.b", "ft1.g", "ft1.b"]
    params = ad.ParamStore(list(zip(names, base.tensors())))

    def build(store):
        from fsdg.ft import FTParams, modulation_from_noise
        ftp = FTParams([store["ft0.g"], store["ft1.g"]], [store["ft0.b"], store["ft1.b"]])
        mods = [modulation_from_noise(g, b, eg, eb)
                for g, b, (eg, eb) in zip(ftp.gammas, ftp.betas, mods_noise)]
        out = enc.encode(state, ftp, batch, "train", modulations=mods)
        return ad.tensor_mean(ad.square(out))

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data, atol=1e-10) < 1e-5, name


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
def test_batch_norm_output_columns_standardized(seed, rows):
    x = ad.constant(RngStream(seed).normals(rows * 3).reshape(rows, 3))
    out = enc.batch_norm(x, ad.constant(np.ones(3)), ad.constant(np.zeros(3))).data
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    assert np.all(out.var(axis=0) <= 1.0 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_encode_deterministic_for_fixed_seed(seed):
    state = small_encoder(seed=seed % 1000)
    batch = ad.constant(RngStream(seed).normals(15).reshape(3, 5))
    a = enc.encode(state, None, batch, "eval").data
    b = enc.encode(state, None, batch, "eval").data
    assert np.array_equal(a, b)
