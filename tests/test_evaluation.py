import types
import weakref

import numpy as np
import pytest

from fsdg import autodiff as ad
from fsdg import evaluation as ev
from fsdg import training as tr
from fsdg.errors import ContractError, NumericError
from fsdg.rng import RngStream, derive_seed
from fsdg.tasks import Domain, SyntheticDomainSpec, generate_synthetic_domain, sample_episode
from helpers import noise_domain, overflow_nth_episode


def toy_model(head="proto", mode="baseline", dim=6, seed=1, widths=(8, 4)):
    cfg = tr.TrainConfig(mode=mode, head=head, encoder_widths=widths, iterations=0)
    return tr.build_model(cfg, dim, RngStream(seed))


def toy_domain(master=50, domain_seed=0, **kw):
    base = dict(n_classes=8, dim=6, samples_per_class=24, latent_dim=3,
                noise_sigma=0.4, warp_strength=1.2)
    base.update(kw)
    return generate_synthetic_domain(
        SyntheticDomainSpec(master_seed=master, domain_seed=domain_seed, **base))


# ---------------------------------------------------------------------------
# summary statistics


def test_summarize_against_direct_formula():
    accs = [0.5, 0.75, 0.25, 1.0, 0.0, 0.625]
    mean, ci = ev.summarize(accs)
    assert mean == pytest.approx(np.mean(accs), abs=1e-15)
    # independent computation of the sample standard deviation
    n = len(accs)
    s2 = sum((a - np.mean(accs)) ** 2 for a in accs) / (n - 1)
    assert ci == pytest.approx(1.96 * np.sqrt(s2) / np.sqrt(n), rel=1e-12)


def test_summarize_single_trial_has_zero_width():
    mean, ci = ev.summarize([0.8])
    assert (mean, ci) == (0.8, 0.0)


def test_summarize_constant_accuracies():
    mean, ci = ev.summarize([0.6] * 10)
    assert mean == pytest.approx(0.6)
    assert ci == pytest.approx(0.0, abs=1e-12)  # float residue of mean subtraction


# ---------------------------------------------------------------------------
# per-trial evaluation


def test_trial_accuracy_is_reproducible_and_order_free():
    model = toy_model()
    domain = toy_domain()
    a = [ev.trial_accuracy(model, domain, 3, 2, 4, seed=7, trial=t) for t in range(6)]
    b = [ev.trial_accuracy(model, domain, 3, 2, 4, seed=7, trial=t)
         for t in reversed(range(6))]
    assert a == list(reversed(b))


def test_trial_accuracy_depends_on_trial_and_seed():
    model = toy_model()
    domain = toy_domain()
    accs = {ev.trial_accuracy(model, domain, 4, 2, 6, seed=7, trial=t) for t in range(12)}
    assert len(accs) > 1  # different trials draw different episodes
    a = [ev.trial_accuracy(model, domain, 4, 2, 6, seed=1, trial=t) for t in range(12)]
    b = [ev.trial_accuracy(model, domain, 4, 2, 6, seed=2, trial=t) for t in range(12)]
    assert a != b


def test_evaluate_matches_manual_trials():
    model = toy_model()
    domain = toy_domain()
    report = ev.evaluate(model, domain, 3, 2, trials=20, seed=9, n_query=5)
    manual = [ev.trial_accuracy(model, domain, 3, 2, 5, 9, t) for t in range(20)]
    assert report.accuracies == manual
    assert report.mean == pytest.approx(np.mean(manual))
    assert report.trials == 20
    assert report.domain == domain.name


def test_evaluate_requires_positive_trials():
    with pytest.raises(ContractError):
        ev.evaluate(toy_model(), toy_domain(), 3, 2, trials=0)


def test_numeric_error_names_the_trial(monkeypatch):
    overflow_nth_episode(monkeypatch, ev, 1)
    with pytest.raises(NumericError, match=r"^evaluation trial 1: \w+: non-finite") as info:
        ev.evaluate(toy_model(), toy_domain(), 3, 2, trials=3, seed=3, n_query=4)
    assert isinstance(info.value.__cause__, NumericError)
    assert str(info.value) == f"evaluation trial 1: {info.value.__cause__}"


def test_evaluate_reports_its_wall_time_and_throughput():
    model, domain = toy_model(), toy_domain()
    report = ev.evaluate(model, domain, 3, 2, trials=5, seed=9, n_query=5)
    assert report.seconds > 0.0
    assert report.trials_per_s == pytest.approx(5 / report.seconds, rel=1e-12)
    # The timing is a measurement, not part of the result.
    assert report == ev.evaluate(model, domain, 3, 2, trials=5, seed=9, n_query=5)


# ---------------------------------------------------------------------------
# block scoring


@pytest.mark.parametrize("seed", [3, 17, 40])
@pytest.mark.parametrize("head", ["proto", "matching", "relation"])
def test_block_logits_equal_single_episode_logits(head, seed):
    domain = generate_synthetic_domain(SyntheticDomainSpec(master_seed=seed, domain_seed=1))
    model = toy_model(head=head, dim=domain.dim, seed=seed, widths=(64, 32))
    trials = ev.TRIALS_PER_BLOCK + 3
    episodes = [sample_episode(domain, 5, 5, 16, RngStream(derive_seed(seed, "eval-trial", t)))
                for t in range(trials)]
    block = sample_episode(domain, 5, 5, 16, [RngStream(derive_seed(seed, "eval-trial", t))
                                              for t in range(ev.TRIALS_PER_BLOCK)])
    with ad.no_grad(), ad.trap_non_finite():
        single = [tr.episode_forward(model, e, "eval").data for e in episodes]
        stacked = tr.episode_forward(model, block, "eval").data
    assert stacked.shape == (ev.TRIALS_PER_BLOCK, 5 * 16, 5)
    for t in range(ev.TRIALS_PER_BLOCK):
        assert np.array_equal(stacked[t], single[t]), f"trial {t}"
    # evaluate's blocks (8 trials, then 3) drop, reorder and re-seed no trial.
    report = ev.evaluate(model, domain, 5, 5, trials=trials, seed=seed, n_query=16)
    by_trial = [ev.trial_accuracy(model, domain, 5, 5, 16, seed, t) for t in range(trials)]
    by_logits = [float(np.mean(np.argmax(logits, axis=1) == np.asarray(e.query_y)))
                 for logits, e in zip(single, episodes)]
    assert report.accuracies == by_trial == by_logits


def test_accuracies_do_not_depend_on_the_block_size(monkeypatch):
    model, domain = toy_model(), toy_domain()
    trials = 2 * ev.TRIALS_PER_BLOCK + 3
    want = ev.evaluate(model, domain, 3, 2, trials=trials, seed=21, n_query=4).accuracies
    for size in (1, 3, ev.TRIALS_PER_BLOCK + 5, trials):
        monkeypatch.setattr(ev, "TRIALS_PER_BLOCK", size)
        assert ev.evaluate(model, domain, 3, 2, trials=trials, seed=21, n_query=4).accuracies == want


def test_numeric_error_in_a_later_block_names_its_trial_and_redraws_nothing(monkeypatch):
    model, domain = toy_model(), toy_domain()
    trial = ev.TRIALS_PER_BLOCK + 1
    with monkeypatch.context() as patch:
        overflow_nth_episode(patch, ev, 0)
        with pytest.raises(NumericError) as alone:
            ev.trial_accuracy(model, domain, 3, 2, 4, seed=3, trial=trial)
    overflow_nth_episode(monkeypatch, ev, trial)
    drawn = []
    sampler = ev.sample_episode
    monkeypatch.setattr(ev, "sample_episode", lambda *a: drawn.append(a) or sampler(*a))
    trials = ev.TRIALS_PER_BLOCK + 3
    with pytest.raises(NumericError, match=rf"^evaluation trial {trial}: \w+: non-finite") as info:
        ev.evaluate(model, domain, 3, 2, trials=trials, seed=3, n_query=4)
    assert str(info.value) == str(alone.value)
    assert str(info.value) == f"evaluation trial {trial}: {info.value.__cause__}"
    # One draw per block, each over its trials' streams; the fallback
    # re-scores the drawn tasks without drawing again.
    assert [len(args[4]) for args in drawn] == [ev.TRIALS_PER_BLOCK, 3]


@pytest.mark.parametrize("head", ["proto", "matching", "relation"])
def test_trial_builds_no_tape(monkeypatch, head):
    # A pass that records nothing makes no relu mask (a _bare constant)
    # and no weak reference to an output.  The _bare constants of a pass
    # are its block's stacked batch, which sample_episode adopts, and for
    # the matching head the one-hot class map, which matching_logits adopts.
    per_pass = 2 if head == "matching" else 1
    calls = {"bare": 0, "ref": 0}

    def count(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(ad, "_bare", count("bare", ad._bare))
    monkeypatch.setattr(ad, "weakref", types.SimpleNamespace(ref=count("ref", weakref.ref)))
    model, domain = toy_model(head=head, mode="ft"), toy_domain()
    accs = [ev.trial_accuracy(model, domain, 3, 2, 4, seed=5, trial=t) for t in range(2)]
    assert all(0.0 <= acc <= 1.0 for acc in accs)
    assert calls == {"bare": 2 * per_pass, "ref": 0}  # two one-trial blocks
    trials = ev.TRIALS_PER_BLOCK + 1
    ev.evaluate(model, domain, 3, 2, trials=trials, seed=5, n_query=4)
    assert calls == {"bare": (2 + 2) * per_pass, "ref": 0}  # two more blocks


def test_evaluation_ignores_modulation_state():
    domain = toy_domain()
    model = toy_model(mode="ft")
    shifted = model.with_values({
        "ft.block0.gamma": ad.leaf(model.params["ft.block0.gamma"].data + 4.0),
        "ft.block1.beta": ad.leaf(model.params["ft.block1.beta"].data - 2.0),
    })
    a = ev.evaluate(model, domain, 3, 2, trials=10, seed=3, n_query=4)
    b = ev.evaluate(shifted, domain, 3, 2, trials=10, seed=3, n_query=4)
    assert a.accuracies == b.accuracies


def test_trained_model_beats_untrained_on_easy_domain():
    domain = toy_domain(noise_sigma=0.2, warp_strength=0.8)
    cfg = tr.TrainConfig(mode="baseline", head="proto", alpha=0.05, iterations=150,
                         way=3, shot=3, query=5, seed=11, encoder_widths=(16, 8))
    trained, _ = tr.train_loop(cfg, [domain])
    fresh = tr.build_model(cfg, domain.dim, RngStream(99))
    acc_trained = ev.evaluate(trained, domain, 3, 3, trials=60, seed=5, n_query=5).mean
    acc_fresh = ev.evaluate(fresh, domain, 3, 3, trials=60, seed=5, n_query=5).mean
    assert acc_trained > acc_fresh


# ---------------------------------------------------------------------------
# cross-domain sweeps


def test_cross_domain_rows_are_position_independent():
    model = toy_model()
    d0, d1, d2 = (toy_domain(domain_seed=i) for i in range(3))
    full = ev.cross_domain_matrix(model, [d0, d1, d2], 3, 2, trials=8, seed=4, n_query=4)
    solo = ev.cross_domain_matrix(model, [d1], 3, 2, trials=8, seed=4, n_query=4)
    assert full[1].accuracies == solo[0].accuracies
    reordered = ev.cross_domain_matrix(model, [d2, d0, d1], 3, 2, trials=8, seed=4, n_query=4)
    assert reordered[2].accuracies == full[1].accuracies


def test_cross_domain_duplicate_domains_get_identical_rows():
    model = toy_model()
    d = toy_domain()
    rows = ev.cross_domain_matrix(model, [d, d], 3, 2, trials=6, seed=8, n_query=4)
    assert rows[0].accuracies == rows[1].accuracies


def test_cross_domain_keyed_by_name_not_content():
    model = toy_model()
    d = toy_domain()
    import dataclasses

    renamed = dataclasses.replace(d, name="other-name")
    a = ev.cross_domain_matrix(model, [d], 3, 2, trials=6, seed=8, n_query=4)
    b = ev.cross_domain_matrix(model, [renamed], 3, 2, trials=6, seed=8, n_query=4)
    assert a[0].accuracies != b[0].accuracies


# ---------------------------------------------------------------------------
# principal-component plane


def test_pca_plane_recovers_dominant_directions():
    rng = RngStream(13)
    n = 400
    spread = np.array([5.0, 2.0, 0.1, 0.05])
    basis = np.eye(4)
    pts = rng.normals(n * 4).reshape(n, 4) * spread
    mean, axes, variances = ev.pca_plane(pts + 3.0)
    assert np.allclose(mean, 3.0 + pts.mean(axis=0), atol=1e-12)
    # first axis aligns with the largest-spread coordinate
    assert np.abs(axes[0] @ basis[0]) > 0.99
    assert np.abs(axes[1] @ basis[1]) > 0.99
    assert variances[0] > variances[1]


def test_pca_plane_axis_signs_are_canonical():
    pts = RngStream(14).normals(60).reshape(30, 2) * np.array([3.0, 0.5])
    _, axes, _ = ev.pca_plane(pts)
    for axis in axes:
        assert axis[np.argmax(np.abs(axis))] > 0


def test_pca_plane_2d_input_keeps_all_variance():
    pts = RngStream(15).normals(80).reshape(40, 2)
    mean, axes, variances = ev.pca_plane(pts)
    coords = (pts - mean) @ axes.T
    total_in = np.var(pts, axis=0, ddof=1).sum()
    total_out = np.var(coords, axis=0, ddof=1).sum()
    assert total_out == pytest.approx(total_in, rel=1e-10)


def test_pca_plane_needs_three_points():
    with pytest.raises(ContractError):
        ev.pca_plane(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# projection emission


def test_projection_rows_shape_and_grouping():
    model = toy_model()
    d0, d1 = toy_domain(domain_seed=0), toy_domain(domain_seed=1)
    rows = ev.emit_feature_projection(model, [d0, d1], samples_per_domain=12, seed=2)
    assert len(rows) == 24
    assert [r.domain for r in rows[:12]] == [d0.name] * 12
    assert [r.domain for r in rows[12:]] == [d1.name] * 12
    for r in rows:
        assert np.isfinite(r.pc1) and np.isfinite(r.pc2)
        assert r.class_id in d0.classes


def test_projection_is_deterministic_and_domain_keyed():
    model = toy_model()
    d0, d1 = toy_domain(domain_seed=0), toy_domain(domain_seed=1)
    a = ev.emit_feature_projection(model, [d0, d1], 8, seed=3)
    b = ev.emit_feature_projection(model, [d0, d1], 8, seed=3)
    assert [(r.domain, r.class_id, r.pc1, r.pc2) for r in a] == \
           [(r.domain, r.class_id, r.pc1, r.pc2) for r in b]
    # the same domain draws the same sample rows regardless of companions
    solo = ev.emit_feature_projection(model, [d0], 8, seed=3)
    assert [(r.domain, r.class_id) for r in solo] == [(r.domain, r.class_id) for r in a[:8]]


def test_projection_duplicate_domain_coordinates_match():
    model = toy_model()
    d = toy_domain()
    rows = ev.emit_feature_projection(model, [d, d], 10, seed=5)
    first = [(r.pc1, r.pc2) for r in rows[:10]]
    second = [(r.pc1, r.pc2) for r in rows[10:]]
    assert first == second


def test_projection_error_names_the_domain():
    model, good = toy_model(), toy_domain()
    huge = Domain.from_classes("huge", good.dim, {cid: arr * 1e200 for cid, arr in good.classes.items()})
    with pytest.raises(NumericError,
                       match=r"^feature projection of domain 'huge': \w+: non-finite") as info:
        ev.emit_feature_projection(model, [good, huge], 8, seed=1)
    assert isinstance(info.value.__cause__, NumericError)


def test_projection_capacity_checks():
    model = toy_model()
    d = toy_domain()
    with pytest.raises(ContractError):
        ev.emit_feature_projection(model, [d], samples_per_domain=1)
    tiny = noise_domain(seed=16, n_classes=1, dim=6, per_class=3)
    with pytest.raises(ContractError):
        ev.emit_feature_projection(model, [tiny], samples_per_domain=50)


# ---------------------------------------------------------------------------
# csv emission


def test_write_eval_csv_layout(tmp_path):
    report = ev.EvalReport("dom", 5, 1, 16, 3, [0.5, 0.25, 1.0], 7 / 12, 0.123456789)
    path = str(tmp_path / "eval.csv")
    ev.write_eval_csv(report, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "trial,accuracy"
    assert lines[1] == "0,0.500000"
    assert lines[2] == "1,0.250000"
    assert lines[3] == "2,1.000000"
    assert lines[4] == f"# mean={7 / 12:.6f} ci95=0.123457"


def test_write_matrix_csv_layout(tmp_path):
    reports = [
        ev.EvalReport("a", 5, 5, 16, 10, [], 0.5, 0.01),
        ev.EvalReport("b", 2, 1, 16, 10, [], 0.987654321, 0.0),
    ]
    path = str(tmp_path / "matrix.csv")
    ev.write_matrix_csv(reports, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "domain,way,shot,trials,mean,ci95"
    assert lines[1] == "a,5,5,10,0.500000,0.010000"
    assert lines[2] == "b,2,1,10,0.987654,0.000000"


def test_write_quartile_csv_layout(tmp_path):
    model = toy_model(mode="ft", widths=(4, 8))
    path = str(tmp_path / "quartiles.csv")
    ev.write_quartile_csv(model, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "layer,gamma_q1,gamma_med,gamma_q3,beta_q1,beta_med,beta_q3"
    assert len(lines) == 3
    sp3 = f"{np.logaddexp(0.0, 0.3):.6f}"
    sp5 = f"{np.logaddexp(0.0, 0.5):.6f}"
    assert lines[1] == f"0,{sp3},{sp3},{sp3},{sp5},{sp5},{sp5}"
    assert lines[1].split(",")[0] == "0"
    assert lines[2].split(",")[0] == "1"


def test_write_projection_csv_layout(tmp_path):
    rows = [ev.ProjectionRow("dom-a", 3, 1.5, -2.25), ev.ProjectionRow("dom-b", 0, 0.0, 0.1)]
    path = str(tmp_path / "proj.csv")
    ev.write_projection_csv(rows, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "domain,class_id,pc1,pc2"
    assert lines[1] == "dom-a,3,1.500000,-2.250000"
    assert lines[2] == "dom-b,0,0.000000,0.100000"
