import io
import logging

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg import training as tr
from fsdg.encoder import encode
from fsdg.errors import ConfigError, ContractError, NumericError
from fsdg.evaluation import evaluate
from fsdg.heads import episode_loss
from fsdg.rng import RngStream
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain, sample_episode
from helpers import max_rel_err, noise_domain, overflow_nth_episode


def toy_config(**kw):
    base = dict(mode="baseline", head="proto", alpha=0.05, iterations=5,
                way=2, shot=2, query=3, seed=3, encoder_widths=(8, 4))
    base.update(kw)
    return tr.TrainConfig(**base)


def toy_domains(master=21, n=3, sigma=0.5, warp=1.5):
    specs = [SyntheticDomainSpec(master_seed=master, domain_seed=d, n_classes=8,
                                 dim=6, samples_per_class=16, latent_dim=3,
                                 noise_sigma=sigma, warp_strength=warp)
             for d in range(n)]
    return [generate_synthetic_domain(s) for s in specs]


def toy_episode(domain, cfg, seed=5):
    return sample_episode(domain, cfg.way, cfg.shot, cfg.query, RngStream(seed))


# ---------------------------------------------------------------------------
# configuration and model assembly


def test_config_validation():
    with pytest.raises(ConfigError):
        toy_config(mode="finetune")
    with pytest.raises(ConfigError):
        toy_config(head="cosine")
    with pytest.raises(ConfigError):
        toy_config(alpha=-0.1)
    with pytest.raises(ConfigError):
        toy_config(inner_steps=0)
    with pytest.raises(ConfigError):
        toy_config(way=0)
    with pytest.raises(ConfigError):
        toy_config(encoder_widths=())
    with pytest.raises(ConfigError, match="^config: ft_blocks length must match encoder_widths$"):
        toy_config(ft_blocks=(True,))
    with pytest.raises(ConfigError):
        toy_config(optimizer="rmsprop")


def test_build_model_per_mode():
    rng = RngStream(1)
    base = tr.build_model(toy_config(mode="baseline"), 6, rng)
    assert base.ft is None and base.head is None
    ft = tr.build_model(toy_config(mode="ft"), 6, rng)
    assert ft.ft is not None and ft.ft.n_layers == 2
    lft = tr.build_model(toy_config(mode="lft"), 6, rng)
    assert lft.ft is not None
    rel = tr.build_model(toy_config(head="relation"), 6, rng)
    assert rel.head is not None
    assert rel.head.w1.shape == (2 * 4, 4)  # hidden width = embedding width


def test_ft_layers_follow_block_flags():
    cfg = toy_config(mode="lft", encoder_widths=(8, 4), ft_blocks=(False, True))
    model = tr.build_model(cfg, 6, RngStream(2))
    assert model.ft.n_layers == 1
    assert model.ft.gammas[0].shape == (4,)
    assert [n for n, _ in model.ft_named()] == ["ft.block1.gamma", "ft.block1.beta"]


def test_param_store_contains_all_named_parameters():
    model = tr.build_model(toy_config(mode="lft", head="relation"), 6, RngStream(3))
    names = model.param_store().names()
    assert "enc.block0.weight" in names
    assert "head.rel.w1" in names
    assert "ft.block0.gamma" in names
    assert names == sorted(names)


def test_with_values_replaces_only_named_entries():
    model = tr.build_model(toy_config(mode="lft"), 6, RngStream(4))
    new_w = ad.leaf(np.zeros_like(model.encoder.blocks[0].weight.data))
    out = model.with_values({"enc.block0.weight": new_w})
    assert out.encoder.blocks[0].weight is new_w
    assert out.encoder.blocks[1].weight is model.encoder.blocks[1].weight
    assert out.ft.gammas[0] is model.ft.gammas[0]
    assert model.encoder.blocks[0].weight is not new_w  # original untouched


# ---------------------------------------------------------------------------
# inner episodic update


def test_inner_update_zero_alpha_is_identity():
    cfg = toy_config()
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(5))
    ep = toy_episode(domain, cfg)
    loss, grads = tr.episode_gradients(model, ep, ft_enabled=False)
    stepped = model.with_values(tr.SGD(0.0).step(grads))
    for (_, a), (_, b) in zip(model.trainable(), stepped.trainable()):
        assert np.array_equal(a.data, b.data)
    assert np.isfinite(loss)


def test_inner_update_is_one_sgd_step():
    cfg = toy_config(alpha=0.07)
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(6))
    ep = toy_episode(domain, cfg)

    logits = tr.episode_forward(model, ep, "train", use_ft=False)
    loss = episode_loss(logits, ep.query_y)
    tensors = [t for _, t in model.trainable()]
    grads = ad.backward(loss, tensors)

    _, named = tr.episode_gradients(model, ep, ft_enabled=False)
    stepped = model.with_values(tr.SGD(0.07).step(named))
    for (_, old), g, (_, new) in zip(model.trainable(), grads, stepped.trainable()):
        assert np.allclose(new.data, old.data - 0.07 * g.data, atol=1e-15)


def test_inner_update_with_create_graph_stays_attached():
    cfg = toy_config(mode="lft", alpha=0.05)
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(7))
    ep = toy_episode(domain, cfg)
    stepped, _, _ = tr.inner_update(model, ep, ft_enabled=True, alpha=cfg.alpha,
                                    rng=RngStream(8))
    w = stepped.encoder.blocks[0].weight
    assert w.requires_grad and w.parents
    # a scalar of the stepped model differentiates back to the modulation
    # hyper-parameters through the kept step
    probe = ad.tensor_sum(ad.square(w))
    g = ad.backward(probe, [model.ft.gammas[0]])[0]
    assert g.shape == model.ft.gammas[0].shape
    assert np.any(g.data != 0.0)


def test_inner_update_without_graph_returns_leaves():
    cfg = toy_config()
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(9))
    ep = toy_episode(domain, cfg)
    _, grads = tr.episode_gradients(model, ep, ft_enabled=False)
    stepped = model.with_values(tr.SGD(cfg.alpha).step(grads))
    for _, t in stepped.trainable():
        assert t.requires_grad and t.parents == ()


def test_ft_disabled_step_is_independent_of_ft_values():
    cfg = toy_config(mode="lft")
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(10))
    ep = toy_episode(domain, cfg)
    _, grads = tr.episode_gradients(model, ep, ft_enabled=False)
    a = model.with_values(tr.SGD(cfg.alpha).step(grads))
    shifted = model.with_values({
        "ft.block0.gamma": ad.leaf(model.ft.gammas[0].data + 3.0)})
    _, grads = tr.episode_gradients(shifted, ep, ft_enabled=False)
    b = shifted.with_values(tr.SGD(cfg.alpha).step(grads))
    for (_, ta), (_, tb) in zip(a.trainable(), b.trainable()):
        assert np.array_equal(ta.data, tb.data)


# ---------------------------------------------------------------------------
# the learning-to-learn objective


def pinned_outer_total(model, ps, pu, cfg, noise_seed):
    total, _, _, _, _ = tr.lft_outer_loss(model, ps, pu, cfg, RngStream(noise_seed))
    return total


def test_outer_loss_requires_modulation_params():
    cfg = toy_config(mode="baseline")
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(11))
    ep = toy_episode(domain, cfg)
    with pytest.raises(ContractError):
        tr.lft_outer_loss(model, ep, ep, cfg, RngStream(0))


def test_outer_loss_is_deterministic_per_noise_stream():
    cfg = toy_config(mode="lft")
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg, d0.dim, RngStream(12))
    ps, pu = toy_episode(d0, cfg, 1), toy_episode(d1, cfg, 2)
    a = pinned_outer_total(model, ps, pu, cfg, 9).item()
    b = pinned_outer_total(model, ps, pu, cfg, 9).item()
    c = pinned_outer_total(model, ps, pu, cfg, 10).item()
    assert a == b
    assert a != c


def test_regularizer_contributes_exactly():
    cfg0 = toy_config(mode="lft", ft_reg_weight=0.0)
    cfg1 = toy_config(mode="lft", ft_reg_weight=0.25)
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg0, d0.dim, RngStream(13))
    ps, pu = toy_episode(d0, cfg0, 3), toy_episode(d1, cfg0, 4)
    t0 = pinned_outer_total(model, ps, pu, cfg0, 5).item()
    t1 = pinned_outer_total(model, ps, pu, cfg1, 5).item()
    sq = sum(float(np.sum(t.data**2)) for t in model.ft.tensors())
    assert t1 - t0 == pytest.approx(0.25 * sq, rel=1e-9)


def test_ft_regularizer_values():
    cfg = toy_config(mode="lft")
    model = tr.build_model(cfg, 6, RngStream(14))
    sq = sum(float(np.sum(t.data**2)) for t in model.ft.tensors())
    assert tr.ft_regularizer(model, 2.0).item() == pytest.approx(2.0 * sq, rel=1e-12)
    base = tr.build_model(toy_config(mode="baseline"), 6, RngStream(14))
    assert tr.ft_regularizer(base, 2.0).item() == 0.0


def test_ft_regularizer_gradient_is_weight_times_twice_theta_bit_for_bit():
    cfg = toy_config(mode="lft")
    model = tr.build_model(cfg, 6, RngStream(14))
    stream = RngStream(15)
    model = model.with_values({n: ad.leaf(stream.normals(t.size).reshape(t.shape))
                               for n, t in model.ft_named()})
    thetas = model.ft.tensors()
    grads = ad.backward(tr.ft_regularizer(model, 0.37), thetas)
    for theta, g in zip(thetas, grads):
        assert np.array_equal(g.data, 0.37 * (theta.data * 2.0))


def test_meta_gradient_matches_fd_on_toy_model():
    # the whole second-order path: inner step with modulation, kept
    # parameters, outer loss with modulation off, gradient wrt the
    # modulation hyper-parameters
    for seed in range(3):
        cfg = tr.TrainConfig(mode="lft", head="proto", alpha=0.05, iterations=1,
                             way=2, shot=2, query=4, seed=seed,
                             encoder_widths=(8, 4), ft_reg_weight=1e-3)
        d0, d1 = toy_domains(master=40 + seed, n=2)
        model = tr.build_model(cfg, d0.dim, RngStream(seed))
        ps, pu = toy_episode(d0, cfg, 50 + seed), toy_episode(d1, cfg, 60 + seed)

        ft_items = model.ft_named()
        total = pinned_outer_total(model, ps, pu, cfg, 70 + seed)
        grads = ad.backward(total, [t for _, t in ft_items])

        params = ad.ParamStore(ft_items)

        def build(store, model=model, ps=ps, pu=pu, cfg=cfg, seed=seed):
            shifted = model.with_values({n: store[n] for n in store.names()})
            return pinned_outer_total(shifted, ps, pu, cfg, 70 + seed)

        fd = ad.finite_difference_grad(build, params, 1e-4)
        for (name, _), got in zip(ft_items, grads):
            err = max_rel_err(got.data, fd[name].data, atol=1e-10)
            assert err < 1e-4, f"seed {seed} {name}: rel err {err:.2e}"


def test_meta_gradient_is_nonzero_in_general():
    cfg = toy_config(mode="lft")
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg, d0.dim, RngStream(15))
    ps, pu = toy_episode(d0, cfg, 6), toy_episode(d1, cfg, 7)
    total = pinned_outer_total(model, ps, pu, cfg, 8)
    grads = ad.backward(total, [t for _, t in model.ft_named()])
    assert any(np.any(g.data != 0.0) for g in grads)


def test_unflagged_blocks_carry_no_modulation_gradient():
    cfg = toy_config(mode="lft", ft_blocks=(True, False))
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg, d0.dim, RngStream(16))
    assert [n for n, _ in model.ft_named()] == ["ft.block0.gamma", "ft.block0.beta"]
    ps, pu = toy_episode(d0, cfg, 8), toy_episode(d1, cfg, 9)
    new_model, _, _ = tr.lft_train_step(model, ps, pu, cfg, RngStream(10), tr.SGD(cfg.alpha))
    # only block-0 hyper-parameters exist and they moved
    assert not np.array_equal(new_model.ft.gammas[0].data, model.ft.gammas[0].data)


def test_lft_train_step_keeps_inner_parameters_and_steps_ft():
    cfg = toy_config(mode="lft", ft_reg_weight=1e-3)
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg, d0.dim, RngStream(17))
    ps, pu = toy_episode(d0, cfg, 11), toy_episode(d1, cfg, 12)

    total, loss_ps, loss_pu, stepped, _ = tr.lft_outer_loss(model, ps, pu, cfg, RngStream(13))
    meta = ad.backward(total, [t for _, t in model.ft_named()])

    new_model, got_ps, got_pu = tr.lft_train_step(model, ps, pu, cfg, RngStream(13),
                                                  tr.SGD(cfg.alpha))
    assert got_ps == loss_ps
    assert got_pu == loss_pu
    # encoder/head parameters persist exactly as the inner step left them
    for (_, kept), (_, inner) in zip(new_model.trainable(), stepped.trainable()):
        assert np.array_equal(kept.data, inner.data)
    # modulation hyper-parameters took one step at the shared step size
    for (_, old), g, (_, new) in zip(model.ft_named(), meta, new_model.ft_named()):
        assert np.allclose(new.data, old.data - cfg.alpha * g.data, atol=1e-15)
    # and the new state is made of write-locked leaves
    for _, t in new_model.trainable() + new_model.ft_named():
        assert t.parents == () and t.requires_grad
        assert not t.data.flags.writeable


def test_lft_adam_step_uses_first_inner_gradients():
    # Adam steps encoder and head from the gradients of the first inner
    # step: the same values as replaying the pseudo-seen episode with that
    # step's noise and differentiating it without a graph
    cfg = toy_config(mode="lft", head="relation", ft_reg_weight=1e-3)
    d0, d1 = toy_domains(n=2)
    model = tr.build_model(cfg, d0.dim, RngStream(20))
    ps, pu = toy_episode(d0, cfg, 21), toy_episode(d1, cfg, 22)
    new_model, _, _ = tr.lft_train_step(model, ps, pu, cfg, RngStream(23), tr.Adam(cfg.alpha))

    replay = RngStream(23).substream("inner-noise", 0)
    logits = tr.episode_forward(model, ps, "train", True, replay)
    loss = episode_loss(logits, ps.query_y)
    trainable = model.trainable()
    grads = ad.backward(loss, [t for _, t in trainable])
    expected = tr.Adam(cfg.alpha).step({n: (t, g) for (n, t), g in zip(trainable, grads)})
    assert new_model.head is not None
    for name, t in new_model.trainable():
        assert np.array_equal(t.data, expected[name].data)


# ---------------------------------------------------------------------------
# pseudo-unseen pass


def test_pseudo_unseen_loss_ignores_modulation():
    cfg = toy_config(mode="lft")
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(18))
    ep = toy_episode(domain, cfg, 14)
    a = tr.pseudo_unseen_loss(model, ep).item()
    shifted = model.with_values({
        "ft.block0.gamma": ad.leaf(model.ft.gammas[0].data + 5.0)})
    b = tr.pseudo_unseen_loss(shifted, ep).item()
    assert a == b


def test_pseudo_unseen_loss_composition():
    cfg = toy_config(mode="lft")
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(19))
    ep = toy_episode(domain, cfg, 15)
    direct = tr.pseudo_unseen_loss(model, ep).item()
    logits = tr.episode_forward(model, ep, "eval", use_ft=False)
    assert direct == episode_loss(logits, ep.query_y).item()


def test_episode_forward_encodes_the_episode_batch_itself(monkeypatch):
    cfg = toy_config()
    domain = toy_domains(n=1)[0]
    model = tr.build_model(cfg, domain.dim, RngStream(21))
    ep = toy_episode(domain, cfg)
    batches = []

    def recorder(encoder, ft, batch, *args):
        batches.append(batch)
        return encode(encoder, ft, batch, *args)

    monkeypatch.setattr(tr, "encode", recorder)
    tr.episode_forward(model, ep, "train", use_ft=False)
    assert len(batches) == 1 and batches[0] is ep.x


# ---------------------------------------------------------------------------
# the loop


def test_train_loop_rejects_bad_inputs():
    cfg = toy_config()
    with pytest.raises(ConfigError):
        tr.train_loop(cfg, [])
    d_a = noise_domain(seed=1, n_classes=4, dim=3, per_class=8)
    d_b = noise_domain(seed=2, n_classes=4, dim=4, per_class=8)
    with pytest.raises(ConfigError):
        tr.train_loop(cfg, [d_a, d_b])


def test_train_loop_mode_and_init_must_agree():
    domain = toy_domains(n=1)[0]
    ft_model = tr.build_model(toy_config(mode="ft"), domain.dim, RngStream(20))
    with pytest.raises(ConfigError):
        tr.train_loop(toy_config(mode="baseline", iterations=1), [domain], init=ft_model)
    base_model = tr.build_model(toy_config(mode="baseline"), domain.dim, RngStream(21))
    with pytest.raises(ConfigError):
        tr.train_loop(toy_config(mode="lft", iterations=1), [domain], init=base_model)


def test_train_loop_zero_iterations_returns_init():
    domain = toy_domains(n=1)[0]
    cfg = toy_config(iterations=0)
    model, rows = tr.train_loop(cfg, [domain])
    assert rows == []
    fresh = tr.build_model(cfg, domain.dim, RngStream(cfg.seed))
    for (_, a), (_, b) in zip(model.trainable(), fresh.trainable()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("mode", tr.MODES)
def test_train_loop_is_deterministic(mode):
    domains = toy_domains(n=2)
    cfg = toy_config(mode=mode, iterations=15)
    m1, r1 = tr.train_loop(cfg, domains)
    m2, r2 = tr.train_loop(cfg, domains)
    for (_, a), (_, b) in zip(m1.param_store().items(), m2.param_store().items()):
        assert np.array_equal(a.data, b.data)
    assert [(r.loss_ps, r.loss_pu) for r in r1] == [(r.loss_ps, r.loss_pu) for r in r2]


def test_train_loop_seed_changes_trajectory():
    domains = toy_domains(n=2)
    m1, _ = tr.train_loop(toy_config(iterations=8, seed=1), domains)
    m2, _ = tr.train_loop(toy_config(iterations=8, seed=2), domains)
    w1 = m1.encoder.blocks[0].weight.data
    w2 = m2.encoder.blocks[0].weight.data
    assert not np.array_equal(w1, w2)


def test_ft_mode_keeps_hyper_parameters_fixed():
    domains = toy_domains(n=2)
    cfg = toy_config(mode="ft", iterations=12)
    model, _ = tr.train_loop(cfg, domains)
    for g in model.ft.gammas:
        assert np.all(g.data == cfg.ft_init_gamma)
    for b in model.ft.betas:
        assert np.all(b.data == cfg.ft_init_beta)


def test_lft_mode_moves_hyper_parameters():
    domains = toy_domains(n=2)
    cfg = toy_config(mode="lft", iterations=12)
    model, rows = tr.train_loop(cfg, domains)
    moved = any(np.any(g.data != cfg.ft_init_gamma) for g in model.ft.gammas)
    assert moved
    assert all(r.loss_pu is not None for r in rows)


def test_lft_draws_pseudo_pair_from_distinct_domains(monkeypatch):
    domains = toy_domains(n=3)
    seen_names = []
    real = tr.sample_episode

    def recorder(domain, *args, **kwargs):
        seen_names.append(domain.name)
        return real(domain, *args, **kwargs)

    monkeypatch.setattr(tr, "sample_episode", recorder)
    tr.train_loop(toy_config(mode="lft", iterations=6), domains)
    pairs = [(seen_names[i], seen_names[i + 1]) for i in range(0, len(seen_names), 2)]
    assert len(pairs) == 6
    assert all(a != b for a, b in pairs)
    # different iterations eventually draw different pairs
    assert len(set(pairs)) > 1


@pytest.mark.parametrize("mode,episodes_per_iter", [("baseline", 1), ("lft", 2)])
def test_numeric_error_names_mode_and_iteration(monkeypatch, mode, episodes_per_iter):
    overflow_nth_episode(monkeypatch, tr, 2 * episodes_per_iter)
    with pytest.raises(NumericError, match=rf"^{mode} iteration 2: \w+: non-finite") as info:
        tr.train_loop(toy_config(mode=mode, iterations=4), toy_domains())
    cause = info.value.__cause__
    assert isinstance(cause, NumericError)
    assert str(info.value) == f"{mode} iteration 2: {cause}"


def test_single_domain_lft_warns_once(caplog):
    domain = toy_domains(n=1)[0]
    with caplog.at_level(logging.WARNING, logger="fsdg.training"):
        tr.train_loop(toy_config(mode="lft", iterations=2), [domain])
    hits = [r for r in caplog.records if "single seen domain" in r.getMessage()]
    assert len(hits) == 1


def test_multi_domain_lft_does_not_warn(caplog):
    domains = toy_domains(n=2)
    with caplog.at_level(logging.WARNING, logger="fsdg.training"):
        tr.train_loop(toy_config(mode="lft", iterations=2), domains)
    assert not [r for r in caplog.records if "single seen domain" in r.getMessage()]


def test_training_log_format_and_flush():
    domains = toy_domains(n=2)
    buf = io.StringIO()
    _, rows = tr.train_loop(toy_config(mode="lft", iterations=7), domains, log_file=buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "iter,mode,loss_ps,loss_pu"
    assert len(lines) == 8
    for it, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(it)
        assert fields[1] == "lft"
        assert float(fields[2]) == pytest.approx(rows[it].loss_ps, abs=1e-6)
        assert float(fields[3]) == pytest.approx(rows[it].loss_pu, abs=1e-6)


def test_baseline_log_leaves_pu_column_empty():
    domains = toy_domains(n=2)
    buf = io.StringIO()
    tr.train_loop(toy_config(mode="baseline", iterations=3), domains, log_file=buf)
    for line in buf.getvalue().splitlines()[1:]:
        assert line.endswith(",")
        assert line.split(",")[1] == "baseline"


def test_baseline_training_reduces_episode_loss():
    domains = toy_domains(n=2, sigma=0.5, warp=1.5)
    cfg = toy_config(mode="baseline", iterations=200, way=3, shot=3, query=5,
                     alpha=0.05, encoder_widths=(16, 8))
    _, rows = tr.train_loop(cfg, domains)
    first = float(np.mean([r.loss_ps for r in rows[:20]]))
    last = float(np.mean([r.loss_ps for r in rows[-20:]]))
    assert last < first


def test_adam_optimizer_runs_and_differs_from_sgd():
    domains = toy_domains(n=2)
    sgd_model, _ = tr.train_loop(toy_config(iterations=10), domains)
    adam_model, _ = tr.train_loop(toy_config(iterations=10, optimizer="adam"), domains)
    w_sgd = sgd_model.encoder.blocks[0].weight.data
    w_adam = adam_model.encoder.blocks[0].weight.data
    assert not np.array_equal(w_sgd, w_adam)


def test_adam_lft_mode_moves_both_groups():
    domains = toy_domains(n=2)
    cfg = toy_config(mode="lft", iterations=6, optimizer="adam")
    model, _ = tr.train_loop(cfg, domains)
    fresh = tr.build_model(cfg, domains[0].dim, RngStream(cfg.seed))
    assert not np.array_equal(model.encoder.blocks[0].weight.data,
                              fresh.encoder.blocks[0].weight.data)
    assert not np.array_equal(model.ft.gammas[0].data, fresh.ft.gammas[0].data)


def test_adam_update_rule_single_step():
    opt = tr.Adam(alpha=0.1)
    theta = ad.leaf(np.array([1.0, -2.0]))
    grad = ad.leaf(np.array([0.5, -0.25]))
    out = opt.step({"w": (theta, grad)})["w"].data
    # first step: m_hat = g, v_hat = g^2; update is alpha * sign-ish step
    expected = theta.data - 0.1 * grad.data / (np.abs(grad.data) + 1e-8)
    assert np.allclose(out, expected, atol=1e-9)


def test_flat_adam_equals_the_per_parameter_rule():
    b1, b2, eps, alpha = tr.Adam.BETA1, tr.Adam.BETA2, tr.Adam.EPS, 0.05
    shapes = {"a": (3, 4), "b": (5,), "c": (), "d": (2, 1)}
    stream = RngStream(17)
    want = {n: stream.normals(int(np.prod(s))).reshape(s) for n, s in shapes.items()}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    params = {n: ad.leaf(x) for n, x in want.items()}
    opt = tr.Adam(alpha)
    for t in (1, 2, 3):
        grads = {n: stream.normals(int(np.prod(s))).reshape(s) for n, s in shapes.items()}
        params = opt.step({n: (params[n], ad.constant(grads[n])) for n in shapes})
        for n, g in grads.items():
            m[n] = b1 * m[n] + (1.0 - b1) * g
            v[n] = b2 * v[n] + (1.0 - b2) * g * g
            m_hat = m[n] / (1.0 - b1**t)
            v_hat = v[n] / (1.0 - b2**t)
            want[n] = want[n] - alpha * m_hat / (np.sqrt(v_hat) + eps)
            assert params[n].shape == shapes[n]
            assert np.array_equal(params[n].data, want[n]), (n, t)


@pytest.mark.parametrize("optimizer", [tr.SGD(0.1), tr.Adam(0.1)], ids=["sgd", "adam"])
def test_optimizer_results_are_write_locked_leaves(optimizer):
    named = {"a": (ad.leaf(np.ones((2, 3))), ad.constant(np.full((2, 3), 0.5))),
             "b": (ad.leaf([1.0, -1.0]), ad.constant([0.25, 0.5]))}
    for _ in range(2):
        out = optimizer.step(named)
        for name, t in out.items():
            assert t.requires_grad and t.parents == ()
            assert t.shape == named[name][0].shape
            arr = t.data
            while arr is not None:  # Adam's are views of one flat vector
                assert not arr.flags.writeable, name
                arr = arr.base
            with pytest.raises(ValueError):
                t.data[0] = 0.0
        named = {n: (out[n], g) for n, (_, g) in named.items()}


def test_adam_names_the_first_parameter_whose_update_overflows():
    with pytest.raises(NumericError, match=r"^adam: non-finite update of w2$"):
        tr.Adam(0.1).step({"w1": (ad.leaf([1.0, 2.0]), ad.constant([0.5, 0.25])),
                           "w2": (ad.leaf([1.0]), ad.constant([1e200]))})


def test_adam_step_of_no_parameters_is_empty():
    assert tr.Adam(0.1).step({}) == {}


def test_adam_overflow_outside_the_trap_is_a_numeric_error():
    # Unchecked, g * g overflows to v = inf and w never moves again.
    with pytest.raises(NumericError, match=r"^adam: non-finite update of w$"):
        tr.Adam(0.1).step({"w": (ad.leaf([1.0]), ad.constant([1e200]))})


def test_sgd_overflow_outside_the_trap_is_a_numeric_error():
    with pytest.raises(NumericError, match=r"^sgd: non-finite update of w$"):
        tr.SGD(1.0).step({"w": (ad.leaf([-1e308]), ad.constant([1e308]))})


# ---------------------------------------------------------------------------
# supervised warm start


@pytest.mark.parametrize("optimizer,name", [(tr.SGD(1.0), "sgd"), (tr.Adam(1.0), "adam")])
def test_optimizer_overflow_in_the_trap_is_a_numeric_error(optimizer, name):
    w = ad.leaf([-1e308, 0.0])
    message = rf"^{name}: non-finite update of w$"
    with ad.trap_non_finite(), pytest.raises(NumericError, match=message):
        optimizer.step({"w": (w, ad.constant([1e308, 1e200]))})


def test_pretrain_reduces_loss_and_returns_epoch_means():
    domain = toy_domains(n=1, sigma=0.3, warp=1.0)[0]
    cfg = toy_config()
    model = tr.build_model(cfg, domain.dim, RngStream(30))
    new_enc, losses = tr.pretrain_encoder(model.encoder, domain, epochs=4,
                                          batch_size=16, alpha=0.1, rng=RngStream(31))
    assert len(losses) == 4
    assert losses[-1] < losses[0]
    assert new_enc.config is model.encoder.config


def test_pretrained_encoder_beats_chance_on_episodes():
    domain = toy_domains(n=1, sigma=0.3, warp=1.0)[0]
    cfg = toy_config()
    model = tr.build_model(cfg, domain.dim, RngStream(32))
    new_enc, _ = tr.pretrain_encoder(model.encoder, domain, epochs=6,
                                     batch_size=16, alpha=0.1, rng=RngStream(33))
    probe = tr.ModelState("proto", new_enc)
    report = evaluate(probe, domain, n_way=4, n_shot=3, trials=100, seed=34, n_query=8)
    assert report.mean > 0.25 + 0.2


def test_pretrain_error_contracts():
    domain = toy_domains(n=1)[0]
    model = tr.build_model(toy_config(), domain.dim, RngStream(35))
    with pytest.raises(ContractError):
        tr.pretrain_encoder(model.encoder, domain, epochs=0, batch_size=8,
                            alpha=0.1, rng=RngStream(0))
    with pytest.raises(ContractError):
        tr.pretrain_encoder(model.encoder, domain, epochs=1, batch_size=1,
                            alpha=0.1, rng=RngStream(0))
    single = noise_domain(seed=36, n_classes=1, dim=domain.dim, per_class=8)
    with pytest.raises(ContractError):
        tr.pretrain_encoder(model.encoder, single, epochs=1, batch_size=4,
                            alpha=0.1, rng=RngStream(0))


def test_pretrain_is_deterministic():
    domain = toy_domains(n=1)[0]
    model = tr.build_model(toy_config(), domain.dim, RngStream(37))
    a, la = tr.pretrain_encoder(model.encoder, domain, epochs=2, batch_size=8,
                                alpha=0.05, rng=RngStream(38))
    b, lb = tr.pretrain_encoder(model.encoder, domain, epochs=2, batch_size=8,
                                alpha=0.05, rng=RngStream(38))
    assert la == lb
    for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
        assert np.array_equal(ta.data, tb.data)
