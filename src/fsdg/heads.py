"""Metric heads: how query embeddings are scored against the support set.

Three interchangeable comparison rules over a shared embedding space:

  * prototype: logit = negative squared distance to the class mean,
  * matching: cosine attention over individual support embeddings,
    summed per class, log of the summed weight as logit,
  * relation: a two-layer ReLU perceptron scores (query, class mean)
    pairs; trained with the same softmax cross-entropy as the others.
    Its output layer has no bias: softmax ignores a constant added to
    every logit.

All heads take an N-way K-shot support as ``tasks.sample_episode`` lays it
out: class-major rows with equal shots, labels ``[0]*K + [1]*K + ...``;
any other layout raises ContractError.  They return one row of n_way
logits per query.  Embeddings may carry leading batch axes, a stack of
episodes that share their labels, scored without recording; the logits
then carry the same leading axes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .rng import RngStream

MATCH_LOGIT_FLOOR = 1e-12
NORM_FLOOR = 1e-8  # norms are computed as sqrt(sum of squares + NORM_FLOOR^2)

HEAD_KINDS = ("proto", "matching", "relation")


def _check_support(support_emb: Tensor, support_labels: Sequence[int], n_way: int) -> int:
    """The shots per class of a class-major support, whose labels must read
    ``[0]*shot + [1]*shot + ... + [n_way-1]*shot`` with ``shot = rows // n_way``."""
    if support_emb.ndim < 2:
        raise ContractError(f"head: support embeddings must be 2-d, got {support_emb.shape}")
    rows = support_emb.shape[-2]
    shot = rows // n_way
    labels = list(support_labels)
    want = [k for k in range(n_way) for _ in range(shot)]
    if labels != want or rows != len(want) or not shot:
        bad = next((r for r, (y, w) in enumerate(zip(labels, want)) if y != w),
                   min(len(labels), len(want)))
        raise ContractError(f"head: support row {bad} breaks the class-major layout, "
                            f"{shot} rows for each of {n_way} classes")
    return shot


def class_prototypes(support_emb: Tensor, support_labels: Sequence[int], n_way: int) -> Tensor:
    """Per-class mean embedding, rows ordered by class index: the support is
    viewed as (n_way, shot, dim) and averaged over the shot axis."""
    shot = _check_support(support_emb, support_labels, n_way)
    lead, dim = support_emb.shape[:-2], support_emb.shape[-1]
    by_class = ad.reshape(support_emb, lead + (n_way, shot, dim))
    return ad.tensor_mean(by_class, axis=-2)


def proto_logits(support_emb: Tensor, support_labels: Sequence[int],
                 query_emb: Tensor, n_way: int) -> Tensor:
    """Negative squared euclidean distance from each query to each prototype."""
    protos = class_prototypes(support_emb, support_labels, n_way)
    if (query_emb.ndim != protos.ndim or query_emb.shape[:-2] != protos.shape[:-2]
            or query_emb.shape[-1] != protos.shape[-1]):
        raise ContractError(
            f"proto_logits: query shape {query_emb.shape} vs prototypes {protos.shape}"
        )
    return ad.neg_sq_distances(query_emb, protos)


def _row_norms(x: Tensor) -> Tensor:
    """Row euclidean norms floored at NORM_FLOOR so zero rows stay safe."""
    return ad.sqrt(ad.add(ad.tensor_sum(ad.square(x), axis=-1, keepdims=True), NORM_FLOOR**2))


def matching_logits(support_emb: Tensor, support_labels: Sequence[int],
                    query_emb: Tensor, n_way: int) -> Tensor:
    """Log of per-class attention mass under cosine-softmax attention."""
    shot = _check_support(support_emb, support_labels, n_way)
    if (query_emb.ndim != support_emb.ndim or query_emb.shape[:-2] != support_emb.shape[:-2]
            or query_emb.shape[-1] != support_emb.shape[-1]):
        raise ContractError(
            f"matching_logits: query shape {query_emb.shape} vs support {support_emb.shape}"
        )
    cos = ad.div(
        ad.matmul(query_emb, ad.transpose(support_emb)),
        ad.matmul(_row_norms(query_emb), ad.transpose(_row_norms(support_emb))),
    )
    attention = ad.softmax_rows(cos)
    class_mass = ad.matmul(attention, ad.adopt(np.eye(n_way).repeat(shot, axis=0)))
    return ad.log(ad.add(class_mass, MATCH_LOGIT_FLOOR))


def build_relation_head(emb_dim: int, hidden: int, rng: RngStream) -> dict[str, Tensor]:
    """Fresh parameters of the two-layer scoring perceptron: ``head.rel.w1q``
    and ``.w1p``, the query and prototype rows of one Glorot draw over the
    pair width, then ``.b1`` and ``.w2``."""
    if hidden < 1:
        raise ConfigError("relation head: hidden width must be positive")
    from .encoder import glorot_uniform

    w1 = glorot_uniform(rng.substream("rel-w1"), 2 * emb_dim, hidden)
    return {
        "head.rel.w1q": ad.leaf(w1[:emb_dim]),
        "head.rel.w1p": ad.leaf(w1[emb_dim:]),
        "head.rel.b1": ad.leaf(np.zeros(hidden)),
        "head.rel.w2": ad.leaf(glorot_uniform(rng.substream("rel-w2"), hidden, 1)),
    }


def relation_logits(support_emb: Tensor, support_labels: Sequence[int],
                    query_emb: Tensor, n_way: int, params: Mapping[str, Tensor]) -> Tensor:
    """Perceptron scores for all (query, prototype) pairs, shaped (Q, n_way),
    from the ``head.rel.*`` tensors of ``params``.  The first layer of a
    pair is its query's term plus its prototype's, each computed once."""
    protos = class_prototypes(support_emb, support_labels, n_way)
    lead, (n_query, emb_dim) = query_emb.shape[:-2], query_emb.shape[-2:]
    w1q = params["head.rel.w1q"]
    if w1q.shape[0] != emb_dim:
        raise ContractError(f"relation_logits: head expects embedding width {w1q.shape[0]}, "
                            f"embeddings give {emb_dim}")
    hidden = w1q.shape[1]
    by_query = ad.reshape(ad.matmul(query_emb, w1q), lead + (n_query, 1, hidden))
    by_proto = ad.reshape(ad.linear(protos, params["head.rel.w1p"], params["head.rel.b1"]),
                          lead + (1, n_way, hidden))
    h = ad.reshape(ad.relu(ad.add(by_query, by_proto)), lead + (n_query * n_way, hidden))
    return ad.reshape(ad.matmul(h, params["head.rel.w2"]), lead + (n_query, n_way))


def episode_logits(head_kind: str, support_emb: Tensor, support_labels: Sequence[int],
                   query_emb: Tensor, n_way: int,
                   params: Mapping[str, Tensor] | None = None) -> Tensor:
    """Logits of the given head kind; the relation head reads its tensors
    from ``params``."""
    if head_kind == "proto":
        return proto_logits(support_emb, support_labels, query_emb, n_way)
    if head_kind == "matching":
        return matching_logits(support_emb, support_labels, query_emb, n_way)
    if head_kind == "relation":
        if params is None or "head.rel.w1q" not in params:
            raise ContractError("episode_logits: relation head parameters missing")
        return relation_logits(support_emb, support_labels, query_emb, n_way, params)
    raise ConfigError(f"episode_logits: unknown head {head_kind!r}")


def predict_episode(logits: Tensor) -> np.ndarray:
    """Hard class decisions per query; ties resolve to the lowest index."""
    return np.argmax(logits.data, axis=-1)


def episode_loss(logits: Tensor, labels: Sequence[int]) -> Tensor:
    """Mean softmax cross-entropy over queries, max-shifted for stability."""
    if logits.ndim != 2:
        raise ContractError(f"episode_loss: logits must be 2-d, got {logits.shape}")
    n_query, n_way = logits.shape
    ys = [int(y) for y in labels]
    if len(ys) != n_query:
        raise ContractError("episode_loss: one label per query row required")
    if any(not 0 <= y < n_way for y in ys):
        raise ContractError(f"episode_loss: labels must lie in 0..{n_way - 1}")
    onehot = np.zeros((n_query, n_way))
    onehot[np.arange(n_query), ys] = 1.0
    return ad.softmax_cross_entropy(logits, onehot)
