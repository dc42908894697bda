import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg import heads
from fsdg.encoder import glorot_uniform
from fsdg.errors import ConfigError, ContractError
from fsdg.rng import RngStream
from helpers import finite_difference_grad, max_rel_err, ref_relation_logits


def embeddings(seed, rows, dim, lo=-1.0, hi=1.0):
    u = RngStream(seed).uniforms(rows * dim).reshape(rows, dim)
    return ad.constant(u * (hi - lo) + lo)


# ---------------------------------------------------------------------------
# prototypes


def test_class_prototypes_are_per_class_means():
    sup = ad.constant([[1.0, 0.0], [3.0, 0.0], [0.0, 5.0], [0.0, 7.0]])
    protos = heads.class_prototypes(sup, [0, 0, 1, 1], 2)
    assert np.array_equal(protos.data, [[2.0, 0.0], [0.0, 6.0]])


def test_class_prototypes_with_one_shot_are_the_rows():
    sup = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    protos = heads.class_prototypes(sup, [0, 1, 2], 3)
    assert np.array_equal(protos.data, sup.data)


def _per_class_prototypes(support, labels, n_way):
    """The reference: one slice and one mean per class, then a concat."""
    shot = len(labels) // n_way
    return ad.concat([ad.tensor_mean(ad.narrow(support, 0, k * shot, (k + 1) * shot),
                                     axis=0, keepdims=True)
                      for k in range(n_way)], axis=0)


@pytest.mark.parametrize("seed", range(12))
def test_reshape_prototypes_are_bit_identical_to_the_per_class_path(seed):
    rng = np.random.default_rng(seed)
    way, shot, dim = (int(v) for v in rng.integers(1, [7, 12, 20], endpoint=True))
    labels = [k for k in range(way) for _ in range(shot)]
    values = rng.standard_normal((way * shot, dim)) * 3.0
    weights = ad.constant(rng.standard_normal((way, dim)))
    probe = ad.constant(rng.standard_normal((way * shot, dim)))
    results = []
    for prototypes in (heads.class_prototypes, _per_class_prototypes):
        support = ad.leaf(values)
        protos = prototypes(support, labels, way)
        loss = ad.tensor_sum(ad.mul(ad.square(protos), weights))
        (grad,) = ad.backward(loss, [support], create_graph=True)
        (second,) = ad.backward(ad.tensor_sum(ad.mul(grad, probe)), [support])
        results.append((protos.data, grad.data, second.data))
    for ours, ref in zip(*results):
        assert ours.shape == ref.shape and np.array_equal(ours, ref)


def test_sorted_equal_shot_prototypes_gather_nothing():
    support = ad.leaf(np.arange(12.0).reshape(6, 2))
    protos = heads.class_prototypes(support, [0, 0, 1, 1, 2, 2], 3)
    assert np.array_equal(protos.data, [[1.0, 2.0], [5.0, 6.0], [9.0, 10.0]])
    ops, node = [], protos
    while node.parents:
        ops.append(node)
        node = node.parents[0][0]
    assert node is support and len(ops) == 3  # reshape, sum, scale


def test_stacked_support_must_be_class_sorted_with_equal_shots():
    stack = ad.constant(np.ones((2, 4, 3)))
    with pytest.raises(ContractError, match="^head: support row 1 breaks the class-major layout"):
        heads.class_prototypes(stack, [0, 1, 0, 1], 2)
    assert heads.class_prototypes(stack, [0, 0, 1, 1], 2).shape == (2, 2, 3)


def test_missing_class_rejected():
    sup = ad.constant(np.ones((3, 2)))
    for labels in ([0, 0, 2], [0, 0, 5]):
        with pytest.raises(ContractError, match="row 1 breaks .* 1 rows for each of 3 classes$"):
            heads.class_prototypes(sup, labels, 3)
    with pytest.raises(ContractError, match="row 1 breaks .* 1 rows for each of 2 classes$"):
        heads.class_prototypes(sup, [0, 0], 2)


@pytest.mark.parametrize("kind", heads.HEAD_KINDS)
@pytest.mark.parametrize("rows,labels,bad,shot", [
    (4, [0, 1, 0, 1], 1, 2),
    (5, [0, 0, 0, 1, 1], 2, 2),
    (4, [0, 0, 1], 3, 2),
    (1, [0], 0, 0),
], ids=["shuffled", "unequal-shots", "label-short", "class-short"])
def test_each_head_rejects_a_support_that_is_not_class_major(kind, rows, labels, bad, shot):
    head = heads.build_relation_head(3, 4, RngStream(27))
    message = f"^head: support row {bad} breaks the class-major layout, {shot} rows for each of 2 classes$"
    with pytest.raises(ContractError, match=message):
        heads.episode_logits(kind, embeddings(28, rows, 3), labels, embeddings(29, 2, 3), 2, head)


# ---------------------------------------------------------------------------
# prototype head


def test_proto_logits_worked_example():
    # prototypes (0,0) and (2,2); query (1,0): distances 1 and 1+4=5,
    # logits [-1, -5]; second query at a prototype scores 0 there.
    sup = ad.constant([[0.0, 0.0], [2.0, 2.0]])
    q = ad.constant([[1.0, 0.0], [2.0, 2.0]])
    logits = heads.proto_logits(sup, [0, 1], q, 2)
    assert np.allclose(logits.data, [[-1.0, -5.0], [-8.0, 0.0]], atol=1e-12)


def test_proto_softmax_two_way_example():
    # logit gap of 8 gives softmax approx [1/(1+e^-8), e^-8/(1+e^-8)]
    sup = ad.constant([[0.0], [4.0]])
    q = ad.constant([[0.82]])  # dists: 0.6724 vs 10.1124, gap 9.44... pick cleaner
    logits = heads.proto_logits(sup, [0, 1], q, 2)
    probs = ad.softmax_rows(logits).data[0]
    gap = logits.data[0, 0] - logits.data[0, 1]
    expected0 = 1.0 / (1.0 + np.exp(-gap))
    assert probs[0] == pytest.approx(expected0, rel=1e-12)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_proto_logits_match_direct_distance_computation():
    sup = embeddings(1, 10, 6)
    q = embeddings(2, 7, 6)
    labels = [k for k in range(5) for _ in range(2)]
    logits = heads.proto_logits(sup, labels, q, 5).data
    protos = heads.class_prototypes(sup, labels, 5).data
    direct = -((q.data[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    assert max_rel_err(logits, direct, atol=1e-12) < 1e-10


def test_proto_gradients_match_fd():
    stream = RngStream(5)
    params = {
        "sup": ad.leaf(stream.normals(8).reshape(4, 2)),
        "q": ad.leaf(stream.normals(6).reshape(3, 2)),
    }

    def build(s):
        logits = heads.proto_logits(s["sup"], [0, 0, 1, 1], s["q"], 2)
        return heads.episode_loss(logits, [0, 1, 0])

    grads = ad.backward(build(params), list(params.values()))
    fd = finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data) < 1e-6, name


# ---------------------------------------------------------------------------
# matching head


def test_matching_logits_orthogonal_example():
    # q aligned with the class-0 support row and orthogonal to class 1:
    # cosines (1, 0), attention (e, 1)/(e+1), logits log of each share.
    sup = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    q = ad.constant([[2.0, 0.0]])
    logits = heads.matching_logits(sup, [0, 1], q, 2).data[0]
    e = np.e
    # norms carry the 1e-8 floor so cosines are a hair under 1
    assert logits[0] == pytest.approx(np.log(e / (e + 1.0)), abs=1e-6)
    assert logits[1] == pytest.approx(np.log(1.0 / (e + 1.0)), abs=1e-6)


def test_matching_attention_mass_sums_to_one():
    sup = embeddings(6, 8, 4)
    q = embeddings(7, 5, 4)
    logits = heads.matching_logits(sup, [0, 0, 1, 1, 2, 2, 3, 3], q, 4).data
    mass = np.exp(logits) - heads.MATCH_LOGIT_FLOOR
    assert np.allclose(mass.sum(axis=1), 1.0, atol=1e-9)


def test_matching_is_scale_invariant_in_the_inputs():
    sup = embeddings(8, 6, 3, 0.1, 1.0)
    q = embeddings(9, 4, 3, 0.1, 1.0)
    labels = [0, 0, 1, 1, 2, 2]
    base = heads.matching_logits(sup, labels, q, 3).data
    scaled = heads.matching_logits(
        ad.constant(sup.data * 40.0), labels, ad.constant(q.data * 7.0), 3).data
    # the norm floor breaks exact invariance; with O(1) inputs it is ~1e-8
    assert max_rel_err(base, scaled) < 1e-5


def test_matching_zero_query_row_is_safe():
    sup = ad.constant([[1.0, 0.0], [0.0, 1.0]])
    q = ad.constant([[0.0, 0.0]])
    logits = heads.matching_logits(sup, [0, 1], q, 2).data
    assert np.all(np.isfinite(logits))
    assert logits[0, 0] == pytest.approx(logits[0, 1], abs=1e-12)


def test_matching_gradients_match_fd():
    stream = RngStream(10)
    params = {
        "sup": ad.leaf(stream.normals(12).reshape(4, 3)),
        "q": ad.leaf(stream.normals(9).reshape(3, 3)),
    }

    def build(s):
        logits = heads.matching_logits(s["sup"], [0, 0, 1, 1], s["q"], 2)
        return heads.episode_loss(logits, [1, 0, 1])

    grads = ad.backward(build(params), list(params.values()))
    fd = finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data) < 1e-6, name


# ---------------------------------------------------------------------------
# relation head


def test_relation_head_shapes_and_param_names():
    head = heads.build_relation_head(6, 8, RngStream(2))
    assert {n: t.shape for n, t in head.items()} == {
        "head.rel.w1q": (6, 8), "head.rel.w1p": (6, 8), "head.rel.b1": (8,), "head.rel.w2": (8, 1)}
    assert list(head) == ["head.rel.w1q", "head.rel.w1p", "head.rel.b1", "head.rel.w2"]


def test_relation_first_layer_halves_are_the_rows_of_one_pair_width_draw():
    head = heads.build_relation_head(6, 8, RngStream(2))
    w1 = glorot_uniform(RngStream(2).substream("rel-w1"), 12, 8)
    assert np.array_equal(head["head.rel.w1q"].data, w1[:6])
    assert np.array_equal(head["head.rel.w1p"].data, w1[6:])


def test_relation_head_rejects_nonpositive_hidden():
    with pytest.raises(ConfigError):
        heads.build_relation_head(4, 0, RngStream(0))


def test_relation_logits_shape_and_determinism():
    head = heads.build_relation_head(3, 5, RngStream(11))
    sup = embeddings(12, 6, 3)
    q = embeddings(13, 4, 3)
    a = heads.relation_logits(sup, [0, 0, 1, 1, 2, 2], q, 3, head)
    b = heads.relation_logits(sup, [0, 0, 1, 1, 2, 2], q, 3, head)
    assert a.shape == (4, 3)
    assert np.array_equal(a.data, b.data)


def test_relation_zero_output_layer_gives_uniform_logits():
    head = heads.build_relation_head(3, 5, RngStream(14))
    head = {**head, "head.rel.w2": ad.leaf(np.zeros((5, 1)))}
    sup = embeddings(15, 4, 3)
    q = embeddings(16, 3, 3)
    logits = heads.relation_logits(sup, [0, 0, 1, 1], q, 2, head).data
    assert np.all(logits == 0.0)
    loss = heads.episode_loss(ad.constant(logits), [0, 1, 1])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_relation_scores_each_pair_independently():
    # scoring queries one at a time must agree with the batched pass
    head = heads.build_relation_head(3, 4, RngStream(17))
    sup = embeddings(18, 4, 3)
    q = embeddings(19, 3, 3)
    batched = heads.relation_logits(sup, [0, 0, 1, 1], q, 2, head).data
    for i in range(3):
        single = heads.relation_logits(
            sup, [0, 0, 1, 1], ad.constant(q.data[i : i + 1]), 2, head).data
        assert np.allclose(batched[i], single[0], atol=1e-12)


# Ten times the largest error of 200 random cases (5.6e-16 forward, 3.3e-16
# first order, 1.5e-15 second order).
RELATION_RTOL = 1e-14


def _relation_case(seed: int):
    """Support and query embeddings and relation-head tensors, every one a
    leaf, for a 3-way 2-shot episode with 4 queries."""
    stream = RngStream(seed)
    head = heads.build_relation_head(5, 6, stream.substream("head"))
    head["head.rel.b1"] = ad.leaf(stream.normals(6) * 0.5)
    return {"support": ad.leaf(stream.normals(30).reshape(6, 5)),
            "query": ad.leaf(stream.normals(20).reshape(4, 5)), **head}


def _relation_scores(relation, xs):
    return relation(xs["support"], [0, 0, 1, 1, 2, 2], xs["query"], 3, xs)


@pytest.mark.parametrize("seed", range(6))
def test_relation_logits_match_the_pair_row_form(seed):
    # Scoring each half once and adding is the pair-row perceptron up to
    # rounding: forward, gradient, and gradient of a gradient.
    xs = _relation_case(seed)
    values = list(xs.values())
    got, want = (_relation_scores(relation, xs).data
                 for relation in (heads.relation_logits, ref_relation_logits))
    assert max_rel_err(got, want, atol=0.0) < RELATION_RTOL
    vs = [ad.constant(RngStream(seed + 100).normals(t.size).reshape(t.shape)) for t in values]
    sides = []
    for relation in (heads.relation_logits, ref_relation_logits):
        loss = heads.episode_loss(_relation_scores(relation, xs), [2, 0, 1, 1])
        first = ad.backward(loss, values, create_graph=True)
        hvp = None
        for g, v in zip(first, vs):
            term = ad.tensor_sum(ad.mul(g, v))
            hvp = term if hvp is None else ad.add(hvp, term)
        sides.append(first + ad.backward(hvp, values))
    orders = [f"{name}, first order" for name in xs] + [f"{name}, second order" for name in xs]
    for where, got_g, want_g in zip(orders, *sides):
        assert max_rel_err(got_g.data, want_g.data, atol=0.0) < RELATION_RTOL, where


@pytest.mark.parametrize("seed", range(3))
def test_relation_stack_equals_its_episodes_bit_for_bit(seed):
    # A hidden width other than the embedding width, which build_model never
    # picks, and a stack of 4 episodes scored in one no-grad pass.
    stream = RngStream(seed)
    head = heads.build_relation_head(5, 7, stream.substream("head"))
    sup = stream.normals(4 * 6 * 5).reshape(4, 6, 5)
    q = stream.normals(4 * 9 * 5).reshape(4, 9, 5)
    labels = [0, 0, 1, 1, 2, 2]
    with ad.no_grad():
        stacked = heads.relation_logits(ad.constant(sup), labels, ad.constant(q), 3, head).data
        assert stacked.shape == (4, 9, 3)
        for t in range(4):
            single = heads.relation_logits(ad.constant(sup[t]), labels, ad.constant(q[t]), 3, head)
            assert np.array_equal(stacked[t], single.data), f"episode {t}"


def test_relation_embedding_width_mismatch_rejected():
    head = heads.build_relation_head(4, 4, RngStream(20))
    sup = embeddings(21, 4, 3)
    q = embeddings(22, 2, 3)
    with pytest.raises(ContractError):
        heads.relation_logits(sup, [0, 0, 1, 1], q, 2, head)


def test_relation_gradients_match_fd():
    stream = RngStream(23)
    params = heads.build_relation_head(2, 4, stream.substream("head"))
    sup = ad.constant(stream.normals(8).reshape(4, 2))
    q = ad.constant(stream.normals(6).reshape(3, 2))

    def build(s):
        logits = heads.relation_logits(sup, [0, 0, 1, 1], q, 2, s)
        return heads.episode_loss(logits, [0, 1, 0])

    grads = ad.backward(build(params), list(params.values()))
    fd = finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data, atol=1e-10) < 1e-6, name


# ---------------------------------------------------------------------------
# dispatch and prediction


def test_episode_logits_dispatch():
    sup = embeddings(24, 4, 3)
    q = embeddings(25, 2, 3)
    head = heads.build_relation_head(3, 4, RngStream(26))
    for kind in heads.HEAD_KINDS:
        out = heads.episode_logits(kind, sup, [0, 0, 1, 1], q, 2, head)
        assert out.shape == (2, 2)
    with pytest.raises(ConfigError):
        heads.episode_logits("nearest", sup, [0, 0, 1, 1], q, 2)
    with pytest.raises(ContractError):
        heads.episode_logits("relation", sup, [0, 0, 1, 1], q, 2, None)
    with pytest.raises(ContractError, match="relation head parameters missing"):
        heads.episode_logits("relation", sup, [0, 0, 1, 1], q, 2, {})


def test_predict_episode_picks_argmax():
    sup = ad.constant([[0.0, 0.0], [4.0, 4.0]])
    q = ad.constant([[0.1, 0.0], [3.9, 4.0]])
    pred = heads.predict_episode(heads.episode_logits("proto", sup, [0, 1], q, 2))
    assert np.array_equal(pred, [0, 1])


def test_predict_episode_tie_resolves_to_lowest_index():
    sup = ad.constant([[-1.0, 0.0], [1.0, 0.0]])
    q = ad.constant([[0.0, 0.0]])  # equidistant
    pred = heads.predict_episode(heads.episode_logits("proto", sup, [0, 1], q, 2))
    assert pred[0] == 0


# ---------------------------------------------------------------------------
# episode loss


def test_uniform_logits_loss_is_log_n_way():
    for n_way in (2, 5, 10):
        logits = ad.constant(np.zeros((6, n_way)))
        loss = heads.episode_loss(logits, [i % n_way for i in range(6)])
        assert loss.item() == pytest.approx(np.log(n_way), abs=1e-12)


def test_two_way_unit_gap_loss():
    # single query, logits (1, 0), true class 0: loss = ln(1 + e^-1)
    logits = ad.constant([[1.0, 0.0]])
    loss = heads.episode_loss(logits, [0])
    assert loss.item() == pytest.approx(np.log1p(np.exp(-1.0)), abs=1e-12)
    assert loss.item() == pytest.approx(0.31326, abs=1e-5)


def test_saturating_logits_drive_loss_to_zero_without_overflow():
    logits = ad.constant([[500.0, -500.0]])
    loss = heads.episode_loss(logits, [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-200)
    wrong = heads.episode_loss(logits, [1])
    assert wrong.item() == pytest.approx(1000.0, rel=1e-12)


def test_loss_is_mean_over_queries():
    l1 = heads.episode_loss(ad.constant([[2.0, 0.0]]), [0]).item()
    l2 = heads.episode_loss(ad.constant([[0.0, 3.0]]), [0]).item()
    both = heads.episode_loss(ad.constant([[2.0, 0.0], [0.0, 3.0]]), [0, 0]).item()
    assert both == pytest.approx((l1 + l2) / 2.0, rel=1e-12)


def test_loss_shift_invariance():
    base = ad.constant([[1.0, -0.5, 0.2], [0.0, 0.3, -1.0]])
    shifted = ad.constant(base.data + 123.0)
    la = heads.episode_loss(base, [0, 2]).item()
    lb = heads.episode_loss(shifted, [0, 2]).item()
    assert la == pytest.approx(lb, rel=1e-12)


def test_loss_label_validation():
    logits = ad.constant(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        heads.episode_loss(logits, [0, 3])
    with pytest.raises(ContractError):
        heads.episode_loss(logits, [0, -1])
    with pytest.raises(ContractError):
        heads.episode_loss(logits, [0])
    with pytest.raises(ContractError):
        heads.episode_loss(ad.constant(np.zeros(3)), [0])


def test_loss_gradient_is_softmax_minus_onehot():
    logits = ad.leaf([[1.0, -1.0, 0.5], [0.2, 0.2, -0.4]])
    labels = [2, 0]
    loss = heads.episode_loss(logits, labels)
    (g,) = ad.backward(loss, [logits])
    probs = ad.softmax_rows(ad.constant(logits.data)).data
    onehot = np.zeros_like(probs)
    onehot[np.arange(2), labels] = 1.0
    assert max_rel_err(g.data, (probs - onehot) / 2.0) < 1e-12


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 3), st.integers(1, 5))
def test_logit_shapes_across_ways(seed, n_way, shot, n_query):
    stream = RngStream(seed)
    dim = 4
    sup = ad.constant(stream.normals(n_way * shot * dim).reshape(n_way * shot, dim))
    q = ad.constant(stream.normals(n_query * dim).reshape(n_query, dim))
    labels = [k for k in range(n_way) for _ in range(shot)]
    head = heads.build_relation_head(dim, 4, stream.substream("head"))
    for kind in heads.HEAD_KINDS:
        logits = heads.episode_logits(kind, sup, labels, q, n_way, head)
        assert logits.shape == (n_query, n_way)
        assert np.all(np.isfinite(logits.data))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_loss_positive_and_finite(seed):
    stream = RngStream(seed)
    logits = ad.constant(stream.normals(12).reshape(4, 3) * 3.0)
    loss = heads.episode_loss(logits, [0, 1, 2, 0]).item()
    assert np.isfinite(loss)
    assert loss > 0.0
