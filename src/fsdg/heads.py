"""Metric heads: how query embeddings are scored against the support set.

Three interchangeable comparison rules over a shared embedding space:

  * prototype: logit = negative squared distance to the class mean,
  * matching: cosine attention over individual support embeddings,
    summed per class, log of the summed weight as logit,
  * relation: a two-layer ReLU perceptron scores (query, class mean)
    pairs; trained with the same softmax cross-entropy as the others.

All heads take support embeddings with integer labels 0..n_way-1 and
return one row of n_way logits per query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
from .rng import RngStream

MATCH_LOGIT_FLOOR = 1e-12
NORM_FLOOR = 1e-8  # norms are computed as sqrt(sum of squares + NORM_FLOOR^2)

HEAD_KINDS = ("proto", "matching", "relation")


def _check_support(support_emb: Tensor, support_labels: Sequence[int], n_way: int) -> list[list[int]]:
    """Group support row indices by class; every class must be present."""
    if support_emb.ndim != 2:
        raise ContractError(f"head: support embeddings must be 2-d, got {support_emb.shape}")
    labels = [int(y) for y in support_labels]
    if len(labels) != support_emb.shape[0]:
        raise ContractError("head: one label per support row required")
    groups: list[list[int]] = [[] for _ in range(n_way)]
    for row, y in enumerate(labels):
        if not 0 <= y < n_way:
            raise ContractError(f"head: support label {y} outside 0..{n_way - 1}")
        groups[y].append(row)
    for k, rows in enumerate(groups):
        if not rows:
            raise ContractError(f"head: class {k} has no support rows")
    return groups


def class_prototypes(support_emb: Tensor, support_labels: Sequence[int], n_way: int) -> Tensor:
    """Per-class mean embedding, rows ordered by class index.

    With equal shots the support is viewed as (n_way, shot, dim) and
    averaged over the shot axis, after one gather if it is not already
    class-sorted; each class still sums its rows in support order.
    """
    groups = _check_support(support_emb, support_labels, n_way)
    shot = len(groups[0])
    if any(len(rows) != shot for rows in groups):
        means = [ad.tensor_mean(ad.take_rows(support_emb, g), axis=0, keepdims=True)
                 for g in groups]
        return ad.concat(means, axis=0)
    order = [row for rows in groups for row in rows]
    if order != list(range(len(order))):
        support_emb = ad.take_rows(support_emb, order)
    by_class = ad.reshape(support_emb, (n_way, shot, support_emb.shape[1]))
    return ad.tensor_mean(by_class, axis=1)


def proto_logits(support_emb: Tensor, support_labels: Sequence[int],
                 query_emb: Tensor, n_way: int) -> Tensor:
    """Negative squared euclidean distance from each query to each prototype."""
    protos = class_prototypes(support_emb, support_labels, n_way)
    if query_emb.ndim != 2 or query_emb.shape[1] != protos.shape[1]:
        raise ContractError(
            f"proto_logits: query shape {query_emb.shape} vs embedding dim {protos.shape[1]}"
        )
    return ad.neg_sq_distances(query_emb, protos)


def _row_norms(x: Tensor) -> Tensor:
    """Row euclidean norms floored at NORM_FLOOR so zero rows stay safe."""
    return ad.sqrt(ad.add(ad.tensor_sum(ad.square(x), axis=1, keepdims=True), NORM_FLOOR**2))


def matching_logits(support_emb: Tensor, support_labels: Sequence[int],
                    query_emb: Tensor, n_way: int) -> Tensor:
    """Log of per-class attention mass under cosine-softmax attention."""
    groups = _check_support(support_emb, support_labels, n_way)
    if query_emb.ndim != 2 or query_emb.shape[1] != support_emb.shape[1]:
        raise ContractError(
            f"matching_logits: query shape {query_emb.shape} vs support dim {support_emb.shape[1]}"
        )
    cos = ad.div(
        ad.matmul(query_emb, ad.transpose(support_emb)),
        ad.matmul(_row_norms(query_emb), ad.transpose(_row_norms(support_emb))),
    )
    attention = ad.softmax_rows(cos)
    onehot = np.zeros((support_emb.shape[0], n_way))
    for k, rows in enumerate(groups):
        onehot[rows, k] = 1.0
    class_mass = ad.matmul(attention, ad.constant(onehot))
    return ad.log(ad.add(class_mass, MATCH_LOGIT_FLOOR))


@dataclass
class RelationHeadState:
    """Two-layer scoring perceptron over concatenated (query, prototype)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("head.rel.w1", self.w1),
            ("head.rel.b1", self.b1),
            ("head.rel.w2", self.w2),
            ("head.rel.b2", self.b2),
        ]


def build_relation_head(emb_dim: int, hidden: int, rng: RngStream) -> RelationHeadState:
    if hidden < 1:
        raise ConfigError("relation head: hidden width must be positive")
    from .encoder import glorot_uniform

    w1 = ad.leaf(glorot_uniform(rng.substream("rel-w1"), 2 * emb_dim, hidden))
    b1 = ad.leaf(np.zeros(hidden))
    w2 = ad.leaf(glorot_uniform(rng.substream("rel-w2"), hidden, 1))
    b2 = ad.leaf(np.zeros(1))
    return RelationHeadState(w1, b1, w2, b2)


def relation_logits(support_emb: Tensor, support_labels: Sequence[int],
                    query_emb: Tensor, n_way: int, head: RelationHeadState) -> Tensor:
    """Perceptron scores for all (query, prototype) pairs, shaped (Q, n_way)."""
    protos = class_prototypes(support_emb, support_labels, n_way)
    n_query = query_emb.shape[0]
    emb_dim = query_emb.shape[1]
    if head.w1.shape[0] != 2 * emb_dim:
        raise ContractError(
            f"relation_logits: head expects pair width {head.w1.shape[0]}, embeddings give {2 * emb_dim}"
        )
    q_rep = ad.reshape(
        ad.broadcast_to(ad.reshape(query_emb, (n_query, 1, emb_dim)), (n_query, n_way, emb_dim)),
        (n_query * n_way, emb_dim),
    )
    p_rep = ad.reshape(
        ad.broadcast_to(ad.reshape(protos, (1, n_way, emb_dim)), (n_query, n_way, emb_dim)),
        (n_query * n_way, emb_dim),
    )
    pairs = ad.concat([q_rep, p_rep], axis=1)
    h = ad.relu(ad.add(ad.matmul(pairs, head.w1), head.b1))
    scores = ad.add(ad.matmul(h, head.w2), head.b2)
    return ad.reshape(scores, (n_query, n_way))


def episode_logits(head_kind: str, support_emb: Tensor, support_labels: Sequence[int],
                   query_emb: Tensor, n_way: int,
                   head: RelationHeadState | None = None) -> Tensor:
    if head_kind == "proto":
        return proto_logits(support_emb, support_labels, query_emb, n_way)
    if head_kind == "matching":
        return matching_logits(support_emb, support_labels, query_emb, n_way)
    if head_kind == "relation":
        if head is None:
            raise ContractError("episode_logits: relation head state missing")
        return relation_logits(support_emb, support_labels, query_emb, n_way, head)
    raise ConfigError(f"episode_logits: unknown head {head_kind!r}")


def predict_episode(logits: Tensor) -> np.ndarray:
    """Hard class decisions per query; ties resolve to the lowest index."""
    return np.argmax(logits.data, axis=1)


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
