import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsdg import autodiff as ad
from fsdg import heads
from fsdg.errors import ConfigError, ContractError
from fsdg.rng import RngStream
from helpers import max_rel_err


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
    protos = heads.class_prototypes(sup, [2, 0, 1], 3)
    assert np.array_equal(protos.data, [[3.0, 4.0], [5.0, 6.0], [1.0, 2.0]])


def _per_class_prototypes(support, labels, n_way):
    """The reference: one gather and one mean per class, then a concat."""
    groups = [[i for i, y in enumerate(labels) if y == k] for k in range(n_way)]
    return ad.concat([ad.tensor_mean(ad.take_rows(support, g), axis=0, keepdims=True)
                      for g in groups], axis=0)


@pytest.mark.parametrize("seed", range(12))
def test_reshape_prototypes_are_bit_identical_to_the_per_class_path(seed):
    rng = np.random.default_rng(seed)
    way, shot, dim = (int(v) for v in rng.integers(1, [7, 12, 20], endpoint=True))
    labels = [k for k in range(way) for _ in range(shot)]
    if seed % 3:
        labels = [int(y) for y in rng.permutation(labels)]
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
    with pytest.raises(ContractError, match="^class_prototypes: a stacked support"):
        heads.class_prototypes(stack, [0, 1, 0, 1], 2)
    assert heads.class_prototypes(stack, [0, 0, 1, 1], 2).shape == (2, 2, 3)


def test_missing_class_rejected():
    sup = ad.constant(np.ones((3, 2)))
    with pytest.raises(ContractError, match="class 1"):
        heads.class_prototypes(sup, [0, 0, 2], 3)
    with pytest.raises(ContractError):
        heads.class_prototypes(sup, [0, 0, 5], 3)
    with pytest.raises(ContractError):
        heads.class_prototypes(sup, [0, 0], 2)


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
    logits = heads.proto_logits(sup, [0, 1, 2, 3, 4] * 2, q, 5).data
    protos = heads.class_prototypes(sup, [0, 1, 2, 3, 4] * 2, 5).data
    direct = -((q.data[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)
    assert max_rel_err(logits, direct, atol=1e-12) < 1e-10


def test_proto_head_invariant_to_support_row_order():
    sup_rows = RngStream(3).normals(12).reshape(6, 2)
    q = embeddings(4, 3, 2)
    labels = [0, 0, 1, 1, 2, 2]
    base = heads.proto_logits(ad.constant(sup_rows), labels, q, 3).data
    perm = [4, 1, 5, 0, 3, 2]
    shuffled = heads.proto_logits(ad.constant(sup_rows[perm]),
                                  [labels[i] for i in perm], q, 3).data
    assert np.allclose(base, shuffled, atol=1e-12)


def test_proto_gradients_match_fd():
    stream = RngStream(5)
    params = ad.ParamStore([
        ("sup", ad.leaf(stream.normals(8).reshape(4, 2))),
        ("q", ad.leaf(stream.normals(6).reshape(3, 2))),
    ])

    def build(s):
        logits = heads.proto_logits(s["sup"], [0, 1, 0, 1], s["q"], 2)
        return heads.episode_loss(logits, [0, 1, 0])

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
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
    logits = heads.matching_logits(sup, [0, 1, 2, 3, 0, 1, 2, 3], q, 4).data
    mass = np.exp(logits) - heads.MATCH_LOGIT_FLOOR
    assert np.allclose(mass.sum(axis=1), 1.0, atol=1e-9)


def test_matching_is_scale_invariant_in_the_inputs():
    sup = embeddings(8, 6, 3, 0.1, 1.0)
    q = embeddings(9, 4, 3, 0.1, 1.0)
    labels = [0, 1, 2, 0, 1, 2]
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
    params = ad.ParamStore([
        ("sup", ad.leaf(stream.normals(12).reshape(4, 3))),
        ("q", ad.leaf(stream.normals(9).reshape(3, 3))),
    ])

    def build(s):
        logits = heads.matching_logits(s["sup"], [0, 1, 1, 0], s["q"], 2)
        return heads.episode_loss(logits, [1, 0, 1])

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data) < 1e-6, name


# ---------------------------------------------------------------------------
# relation head


def test_relation_head_shapes_and_param_names():
    head = heads.build_relation_head(6, 8, RngStream(2))
    assert head.w1.shape == (12, 8)
    assert head.b1.shape == (8,)
    assert head.w2.shape == (8, 1)
    assert head.b2.shape == (1,)
    assert head.hidden == 8
    assert [n for n, _ in head.parameters()] == [
        "head.rel.w1", "head.rel.b1", "head.rel.w2", "head.rel.b2"]


def test_relation_head_rejects_nonpositive_hidden():
    with pytest.raises(ConfigError):
        heads.build_relation_head(4, 0, RngStream(0))


def test_relation_logits_shape_and_determinism():
    head = heads.build_relation_head(3, 5, RngStream(11))
    sup = embeddings(12, 6, 3)
    q = embeddings(13, 4, 3)
    a = heads.relation_logits(sup, [0, 1, 2, 0, 1, 2], q, 3, head)
    b = heads.relation_logits(sup, [0, 1, 2, 0, 1, 2], q, 3, head)
    assert a.shape == (4, 3)
    assert np.array_equal(a.data, b.data)


def test_relation_zero_output_layer_gives_uniform_logits():
    head = heads.build_relation_head(3, 5, RngStream(14))
    head = heads.RelationHeadState(head.w1, head.b1,
                                   ad.leaf(np.zeros((5, 1))), ad.leaf(np.zeros(1)))
    sup = embeddings(15, 4, 3)
    q = embeddings(16, 3, 3)
    logits = heads.relation_logits(sup, [0, 1, 0, 1], q, 2, head).data
    assert np.all(logits == 0.0)
    loss = heads.episode_loss(ad.constant(logits), [0, 1, 1])
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_relation_scores_each_pair_independently():
    # scoring queries one at a time must agree with the batched pass
    head = heads.build_relation_head(3, 4, RngStream(17))
    sup = embeddings(18, 4, 3)
    q = embeddings(19, 3, 3)
    batched = heads.relation_logits(sup, [0, 1, 0, 1], q, 2, head).data
    for i in range(3):
        single = heads.relation_logits(
            sup, [0, 1, 0, 1], ad.constant(q.data[i : i + 1]), 2, head).data
        assert np.allclose(batched[i], single[0], atol=1e-12)


def test_relation_pair_width_mismatch_rejected():
    head = heads.build_relation_head(4, 4, RngStream(20))
    sup = embeddings(21, 4, 3)
    q = embeddings(22, 2, 3)
    with pytest.raises(ContractError):
        heads.relation_logits(sup, [0, 1, 0, 1], q, 2, head)


def test_relation_gradients_match_fd():
    stream = RngStream(23)
    head = heads.build_relation_head(2, 4, stream.substream("head"))
    sup = ad.constant(stream.normals(8).reshape(4, 2))
    q = ad.constant(stream.normals(6).reshape(3, 2))
    params = ad.ParamStore(head.parameters())

    def build(s):
        h = heads.RelationHeadState(s["head.rel.w1"], s["head.rel.b1"],
                                    s["head.rel.w2"], s["head.rel.b2"])
        logits = heads.relation_logits(sup, [0, 1, 0, 1], q, 2, h)
        return heads.episode_loss(logits, [0, 1, 0])

    grads = ad.backward(build(params), params.tensors())
    fd = ad.finite_difference_grad(build, params, 1e-5)
    for (name, _), got in zip(params.items(), grads):
        assert max_rel_err(got.data, fd[name].data, atol=1e-10) < 1e-6, name


# ---------------------------------------------------------------------------
# dispatch and prediction


def test_episode_logits_dispatch():
    sup = embeddings(24, 4, 3)
    q = embeddings(25, 2, 3)
    head = heads.build_relation_head(3, 4, RngStream(26))
    for kind in heads.HEAD_KINDS:
        out = heads.episode_logits(kind, sup, [0, 1, 0, 1], q, 2, head)
        assert out.shape == (2, 2)
    with pytest.raises(ConfigError):
        heads.episode_logits("nearest", sup, [0, 1, 0, 1], q, 2)
    with pytest.raises(ContractError):
        heads.episode_logits("relation", sup, [0, 1, 0, 1], q, 2, None)


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
