"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Each test prints ``criterion N: PASS/FAIL`` with the measured quantities so
the run log doubles as the acceptance report.  Budgets are asserted with
``time.perf_counter`` around the measured section only.
"""

import time

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg.checkpoint import load_checkpoint, save_checkpoint
from fsdg.config import format_config
from fsdg.evaluation import evaluate
from fsdg.ft import ft_param_count, init_ft_params, modulation_from_noise, sample_modulation
from fsdg.heads import episode_loss
from fsdg.rng import RngStream
from fsdg.tasks import SyntheticDomainSpec, generate_synthetic_domain, sample_episode
from fsdg.training import TrainConfig, build_model, episode_forward, lft_outer_loss, lft_train_step, train_loop
from helpers import max_rel_err, noise_domain

# Constants for the directional cross-domain claim (criteria 6 and 9).
# Fixed by calibration; see notes on the synthetic testbed in the repo docs.
TESTBED = dict(
    n_domains=5,
    latent_dim=4,
    noise_sigma=0.3,
    warp_strength=4.5,
    alpha=0.005,
    optimizer="adam",
    iterations=2000,
    widths=(64, 32),
    masters=(11, 12, 13, 14, 15),
)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def _testbed_domains(master: int):
    specs = [
        SyntheticDomainSpec(master_seed=master, domain_seed=d,
                            latent_dim=TESTBED["latent_dim"],
                            noise_sigma=TESTBED["noise_sigma"],
                            warp_strength=TESTBED["warp_strength"])
        for d in range(TESTBED["n_domains"])
    ]
    return [generate_synthetic_domain(s) for s in specs]


# ---------------------------------------------------------------------------
# criterion 1: hyper-parameter dimensionality


def test_criterion_1_modulation_parameter_count():
    t0 = time.perf_counter()
    count = ft_param_count([64, 128, 256, 512])
    elapsed = time.perf_counter() - t0
    ok = count == 1920 and elapsed < 1e-3
    _report(1, ok, f"ft_param_count([64,128,256,512])={count} in {elapsed * 1e6:.0f}us")
    assert count == 1920
    assert elapsed < 1e-3


# ---------------------------------------------------------------------------
# criterion 2: first-order gradient suite


def test_criterion_2_episode_loss_gradients_match_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        spec = SyntheticDomainSpec(master_seed=200 + seed, domain_seed=0, n_classes=6,
                                   dim=6, samples_per_class=12, latent_dim=3,
                                   noise_sigma=0.5, warp_strength=1.5)
        domain = generate_synthetic_domain(spec)
        for head in ("proto", "matching", "relation"):
            cfg = TrainConfig(mode="ft", head=head, way=2, shot=2, query=3,
                              seed=seed, encoder_widths=(8, 4))
            model = build_model(cfg, domain.dim, RngStream(seed))
            episode = sample_episode(domain, cfg.way, cfg.shot, cfg.query,
                                     RngStream(300 + seed))
            # pinned per-block noise draws, re-applied to whatever theta the
            # finite-difference probe installs
            noise = RngStream(400 + seed)
            eps = [(noise.normals(g.shape[0]), noise.normals(g.shape[0]))
                   for g in model.ft.gammas]

            items = model.trainable() + model.ft_named()
            store = ad.ParamStore(items)

            def run(m):
                mods = [modulation_from_noise(tg, tb, e_g, e_b)
                        for (tg, tb), (e_g, e_b) in zip(zip(m.ft.gammas, m.ft.betas), eps)]
                logits = episode_forward(m, episode, mode="train", use_ft=True,
                                         modulations=mods)
                return episode_loss(logits, episode.query_y)

            loss = run(model)
            grads = ad.backward(loss, [t for _, t in items])

            def build(s):
                return run(model.with_values({n: s[n] for n in s.names()}))

            fd = ad.finite_difference_grad(build, store, 1e-5)
            for (name, _), got in zip(items, grads):
                err = max_rel_err(got.data, fd[name].data, atol=1e-8)
                worst = max(worst, err)
                assert err < 1e-5, f"seed {seed} head {head} {name}: rel err {err:.2e}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 30.0
    _report(2, ok, f"10 seeds x 3 heads, worst rel err {worst:.2e} in {elapsed:.1f}s")
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: meta-gradient oracle on the pinned toy model


def test_criterion_3_meta_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        cfg = TrainConfig(mode="lft", head="proto", alpha=0.05, iterations=1,
                          way=2, shot=2, query=4, seed=seed,
                          encoder_widths=(16, 8), ft_reg_weight=1e-3)
        specs = [SyntheticDomainSpec(master_seed=600 + seed, domain_seed=d, n_classes=8,
                                     dim=16, samples_per_class=16, latent_dim=3,
                                     noise_sigma=0.5, warp_strength=1.5)
                 for d in range(2)]
        d0, d1 = (generate_synthetic_domain(s) for s in specs)
        model = build_model(cfg, d0.dim, RngStream(seed))
        ps = sample_episode(d0, cfg.way, cfg.shot, cfg.query, RngStream(700 + seed))
        pu = sample_episode(d1, cfg.way, cfg.shot, cfg.query, RngStream(800 + seed))
        assert model.ft.n_layers == 2

        stepped, _, _ = lft_train_step(model, ps, pu, cfg, RngStream(900 + seed))
        got = {
            name: (old.data - new.data) / cfg.alpha
            for (name, old), (_, new) in zip(model.ft_named(), stepped.ft_named())
        }

        store = ad.ParamStore(model.ft_named())

        def build(s):
            shifted = model.with_values({n: s[n] for n in s.names()})
            total, _, _, _, _ = lft_outer_loss(shifted, ps, pu, cfg, RngStream(900 + seed))
            return total

        fd = ad.finite_difference_grad(build, store, 1e-4)
        for name in store.names():
            err = max_rel_err(got[name], fd[name].data, atol=1e-10)
            worst = max(worst, err)
            assert err < 1e-4, f"seed {seed} {name}: rel err {err:.2e}"
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    _report(3, ok, f"10 seeds, all modulation scalars, worst rel err {worst:.2e} in {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: modulation noise distribution


def test_criterion_4_modulation_distribution_moments():
    t0 = time.perf_counter()
    m = 200_000
    params = init_ft_params([m], init_gamma=0.3, init_beta=0.5)
    mod = sample_modulation(params.gammas[0], params.betas[0], RngStream(4))
    gamma, beta = mod.gamma.data, mod.beta.data

    sp_g = float(np.logaddexp(0.0, 0.3))  # 0.85435524...
    sp_b = float(np.logaddexp(0.0, 0.5))  # 0.97407698...
    std_g, std_b = float(np.std(gamma)), float(np.std(beta))
    mean_g, mean_b = float(np.mean(gamma)), float(np.mean(beta))
    elapsed = time.perf_counter() - t0

    std_ok = abs(std_g - sp_g) < 0.01 * sp_g and abs(std_b - sp_b) < 0.01 * sp_b
    mean_ok = (abs(mean_g - 1.0) < 4.0 * sp_g / np.sqrt(m)
               and abs(mean_b - 0.0) < 4.0 * sp_b / np.sqrt(m))
    ok = std_ok and mean_ok and elapsed < 5.0
    _report(4, ok, f"std gamma {std_g:.5f} (want {sp_g:.5f}), std beta {std_b:.5f} "
                   f"(want {sp_b:.5f}), means {mean_g:.5f}/{mean_b:.5f} in {elapsed:.2f}s")
    assert std_ok and mean_ok
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# criterion 5: chance-level sanity on a signal-free domain


def test_criterion_5_untrained_models_sit_at_chance():
    # A randomly initialised encoder preserves class geometry on structured
    # data, so chance level is only a meaningful floor on a domain with no
    # class signal: every class iid standard normal.
    t0 = time.perf_counter()
    domain = noise_domain(99, n_classes=20, dim=16, per_class=50)
    accs = {}
    for head in ("proto", "matching", "relation"):
        cfg = TrainConfig(mode="baseline", head=head, way=5, shot=5)
        model = build_model(cfg, domain.dim, RngStream(42))
        rep = evaluate(model, domain, 5, 5, trials=1000, seed=7)
        accs[head] = rep.mean
        assert 0.15 <= rep.mean <= 0.25, f"{head}: untrained accuracy {rep.mean:.3f}"

    # The uniform-prediction loss band applies to the bounded-logit heads;
    # squared-distance logits are scale-dependent and sit above it untrained.
    losses = {}
    band = (np.log(5.0) - 0.3, np.log(5.0) + 0.3)
    for head in ("matching", "relation"):
        cfg = TrainConfig(mode="baseline", head=head, way=5, shot=5)
        model = build_model(cfg, domain.dim, RngStream(42))
        vals = []
        for t in range(100):
            ep = sample_episode(domain, 5, 5, 16, RngStream(1000 + t))
            logits = episode_forward(model, ep, mode="eval", use_ft=False)
            vals.append(episode_loss(logits, ep.query_y).item())
        losses[head] = float(np.mean(vals))
        assert band[0] <= losses[head] <= band[1], f"{head}: loss {losses[head]:.3f}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    acc_s = ", ".join(f"{h}={a:.3f}" for h, a in accs.items())
    loss_s = ", ".join(f"{h}={v:.3f}" for h, v in losses.items())
    _report(5, ok, f"acc [{acc_s}] in [0.15,0.25]; loss [{loss_s}] in "
                   f"[{band[0]:.3f},{band[1]:.3f}] in {elapsed:.1f}s")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 6: directional cross-domain claim


@pytest.mark.slow
def test_criterion_6_learned_modulation_beats_fixed_beats_baseline():
    per_mode = {"baseline": [], "ft": [], "lft": []}
    slowest = 0.0
    for i, master in enumerate(TESTBED["masters"]):
        domains = _testbed_domains(master)
        held_idx = i % TESTBED["n_domains"]
        held = domains[held_idx]
        seen = [d for j, d in enumerate(domains) if j != held_idx]
        for mode in ("baseline", "ft", "lft"):
            cfg = TrainConfig(mode=mode, head="proto", alpha=TESTBED["alpha"],
                              optimizer=TESTBED["optimizer"],
                              iterations=TESTBED["iterations"], way=5, shot=5,
                              encoder_widths=TESTBED["widths"], seed=master)
            t0 = time.perf_counter()
            model, _ = train_loop(cfg, seen)
            rep = evaluate(model, held, 5, 5, trials=1000, seed=master)
            slowest = max(slowest, time.perf_counter() - t0)
            per_mode[mode].append(rep.mean)

    means = {m: float(np.mean(v)) for m, v in per_mode.items()}
    gap = means["lft"] - means["baseline"]
    ordered = means["lft"] >= means["ft"] >= means["baseline"]
    ok = ordered and gap >= 0.02 and slowest < 900.0
    _report(6, ok, f"means baseline={means['baseline']:.4f} ft={means['ft']:.4f} "
                   f"lft={means['lft']:.4f}, gap={gap * 100:+.2f} pts, "
                   f"slowest mode x seed {slowest:.0f}s")
    assert slowest < 900.0, f"training+eval took {slowest:.0f}s for one mode x seed"
    assert ordered, f"ordering violated: {means}"
    assert gap >= 0.02, f"lft-baseline gap {gap * 100:+.2f} pts < 2 pts"


# ---------------------------------------------------------------------------
# criterion 7: determinism and persistence


def test_criterion_7_determinism_and_persistence(tmp_path):
    t0 = time.perf_counter()
    specs = [SyntheticDomainSpec(master_seed=77, domain_seed=d, n_classes=8, dim=6,
                                 samples_per_class=24, latent_dim=3,
                                 noise_sigma=0.5, warp_strength=1.5) for d in range(2)]
    domains = [generate_synthetic_domain(s) for s in specs]
    cfg = TrainConfig(mode="lft", head="proto", alpha=0.05, iterations=100,
                      way=2, shot=2, query=3, seed=13, encoder_widths=(8, 4))

    paths = []
    for run in range(2):
        model, _ = train_loop(cfg, domains)
        p = tmp_path / f"run{run}.ckpt"
        save_checkpoint(model, format_config(cfg), str(p))
        paths.append(p)
    b0, b1 = paths[0].read_bytes(), paths[1].read_bytes()
    bit_identical = b0 == b1

    model, _ = train_loop(cfg, domains)
    rt = tmp_path / "roundtrip.ckpt"
    save_checkpoint(model, format_config(cfg), str(rt))
    loaded, text = load_checkpoint(str(rt))
    round_trip = text == format_config(cfg) and all(
        np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(model.trainable() + model.ft_named(),
                                  loaded.trainable() + loaded.ft_named())
    )

    rep_mem = evaluate(model, domains[0], 2, 2, trials=50, seed=5)
    rep_disk = evaluate(loaded, domains[0], 2, 2, trials=50, seed=5)
    eval_equal = rep_mem.accuracies == rep_disk.accuracies

    elapsed = time.perf_counter() - t0
    ok = bit_identical and round_trip and eval_equal and elapsed < 60.0
    _report(7, ok, f"bit-identical={bit_identical}, round-trip={round_trip}, "
                   f"reload-eval-equal={eval_equal} in {elapsed:.1f}s")
    assert bit_identical
    assert round_trip
    assert eval_equal
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 8: evaluation bypasses modulation entirely


def test_criterion_8_evaluation_invariant_to_modulation_and_rng(tmp_path):
    t0 = time.perf_counter()
    spec = SyntheticDomainSpec(master_seed=88, domain_seed=0, n_classes=8, dim=6,
                               samples_per_class=24, latent_dim=3,
                               noise_sigma=0.5, warp_strength=1.5)
    domain = generate_synthetic_domain(spec)
    cfg = TrainConfig(mode="ft", head="proto", way=2, shot=2, query=3, seed=3,
                      encoder_widths=(8, 4))
    model = build_model(cfg, domain.dim, RngStream(3))

    base = evaluate(model, domain, 2, 2, trials=100, seed=5)
    wild = {name: ad.Tensor(np.full(t.shape, 37.5), requires_grad=True)
            for name, t in model.ft_named()}
    perturbed = model.with_values(wild)
    after = evaluate(perturbed, domain, 2, 2, trials=100, seed=5)
    theta_invariant = base.accuracies == after.accuracies

    ep = sample_episode(domain, 2, 2, 3, RngStream(9))
    l0 = episode_forward(model, ep, mode="eval", use_ft=False)
    l1 = episode_forward(model, ep, mode="eval", use_ft=False, rng=RngStream(1))
    l2 = episode_forward(perturbed, ep, mode="eval", use_ft=False, rng=RngStream(2))
    rng_invariant = (np.array_equal(l0.data, l1.data)
                     and np.array_equal(l0.data, l2.data))

    elapsed = time.perf_counter() - t0
    ok = theta_invariant and rng_invariant and elapsed < 10.0
    _report(8, ok, f"theta-invariant={theta_invariant}, rng-invariant={rng_invariant} "
                   f"in {elapsed:.1f}s")
    assert theta_invariant
    assert rng_invariant
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 9: variable test-time ways


def test_criterion_9_way_count_difficulty_ordering():
    t0 = time.perf_counter()
    per_way = {2: [], 5: [], 10: []}
    for master in TESTBED["masters"][:3]:
        domains = _testbed_domains(master)
        seen = domains[1:]
        cfg = TrainConfig(mode="baseline", head="proto", alpha=TESTBED["alpha"],
                          optimizer=TESTBED["optimizer"],
                          iterations=1200, way=5, shot=5,
                          encoder_widths=TESTBED["widths"], seed=master)
        model, _ = train_loop(cfg, seen)
        for way in (2, 5, 10):
            rep = evaluate(model, seen[0], way, 5, trials=250, seed=master)
            per_way[way].append(rep.mean)
    means = {w: float(np.mean(v)) for w, v in per_way.items()}
    elapsed = time.perf_counter() - t0
    ordered = means[2] > means[5] > means[10]
    ok = ordered and elapsed < 300.0
    _report(9, ok, f"2-way={means[2]:.4f} > 5-way={means[5]:.4f} > "
                   f"10-way={means[10]:.4f}: {ordered} in {elapsed:.1f}s")
    assert ordered, f"way ordering violated: {means}"
    assert elapsed < 300.0
