"""Episodic training: plain updates, fixed modulation, and the
learning-to-learn loop that tunes modulation hyper-parameters.

Three modes share one update core:

  * baseline: episodic SGD on encoder (and relation head) parameters,
  * ft: the same, with stochastic feature modulation active at fixed
    hyper-parameters,
  * lft: each iteration samples a pseudo-seen and a pseudo-unseen episode
    from two different training domains.  The model takes one gradient
    step on the pseudo-seen episode with modulation active.  The
    pseudo-unseen episode is then scored with modulation off, and the
    gradient of that loss with respect to the modulation hyper-parameters
    flows through the step (a second order derivative), mimicking "train
    here, generalize there" inside every iteration.  With SGD the stepped
    encoder and head parameters are kept; Adam instead steps them from the
    same inner gradients.

All sampling is driven by substreams keyed on the config seed and the
iteration index, so a run is a pure function of its config and inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tensor
from .encoder import (
    BlockParams,
    EncoderConfig,
    EncoderState,
    build_encoder,
    encode,
    resolve_ft_blocks,
)
from .errors import ConfigError, ContractError, NumericError
from .ft import FTParams, init_ft_params
from .heads import (
    HEAD_KINDS,
    RelationHeadState,
    build_relation_head,
    episode_logits,
    episode_loss,
)
from .rng import RngStream
from .tasks import Domain, Episode, sample_episode

log = logging.getLogger(__name__)

MODES = ("baseline", "ft", "lft")
OPTIMIZERS = ("sgd", "adam")


@dataclass
class TrainConfig:
    mode: str = "baseline"
    head: str = "proto"
    alpha: float = 0.001
    iterations: int = 40_000
    inner_steps: int = 1
    ft_reg_weight: float = 1e-8
    ft_init_gamma: float = 0.3
    ft_init_beta: float = 0.5
    way: int = 5
    shot: int = 5
    query: int = 16
    seed: int = 0
    optimizer: str = "sgd"
    encoder_widths: tuple[int, ...] = (32, 16)
    ft_blocks: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"config: unknown mode {self.mode!r}")
        if self.head not in HEAD_KINDS:
            raise ConfigError(f"config: unknown head {self.head!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"config: unknown optimizer {self.optimizer!r}")
        if self.alpha < 0.0 or self.ft_reg_weight < 0.0:
            raise ConfigError("config: alpha and ft_reg_weight must be non-negative")
        if self.iterations < 0 or self.inner_steps < 1:
            raise ConfigError("config: iterations must be >= 0 and inner_steps >= 1")
        if min(self.way, self.shot, self.query) < 1:
            raise ConfigError("config: way, shot, and query must be positive")
        self.encoder_widths = tuple(int(w) for w in self.encoder_widths)
        if not self.encoder_widths or any(w < 1 for w in self.encoder_widths):
            raise ConfigError("config: encoder_widths must be positive and non-empty")
        self.ft_blocks = resolve_ft_blocks(self.ft_blocks, len(self.encoder_widths),
                                           "config: ft_blocks length must match encoder_widths")


@dataclass
class ModelState:
    """Everything the episodic model owns; modulation only in ft/lft mode."""

    head_kind: str
    encoder: EncoderState
    head: RelationHeadState | None = None
    ft: FTParams | None = None

    def trainable(self) -> list[tuple[str, Tensor]]:
        """The parameters the inner episodic update touches (not ft)."""
        items = list(self.encoder.parameters())
        if self.head is not None:
            items.extend(self.head.parameters())
        return items

    def ft_named(self) -> list[tuple[str, Tensor]]:
        if self.ft is None:
            return []
        flagged = [i for i, on in enumerate(self.encoder.config.ft_blocks) if on]
        items = []
        for layer, block in enumerate(flagged):
            items.append((f"ft.block{block}.gamma", self.ft.gammas[layer]))
            items.append((f"ft.block{block}.beta", self.ft.betas[layer]))
        return items

    def param_store(self) -> ParamStore:
        return ParamStore(self.trainable() + self.ft_named())

    def with_values(self, values: dict[str, Tensor]) -> "ModelState":
        """Rebuild the state with some parameters replaced (by name)."""
        current = dict(self.trainable() + self.ft_named())
        return assemble_model(self.encoder.config, self.head_kind, {**current, **values},
                              with_ft=self.ft is not None)


def assemble_model(config: EncoderConfig, head_kind: str, values: Mapping[str, Tensor],
                   with_ft: bool) -> ModelState:
    """Place named tensors into a model with the given encoder layout.

    The relation head exists if its names do; the modulation part exists
    if ``with_ft``, one gamma and beta per flagged block (a layout that
    flags no block owns no modulation tensor, so names alone cannot tell).
    Names of no part are ignored; a missing name raises KeyError.
    """
    blocks = [
        BlockParams(
            values[f"enc.block{i}.weight"],
            values[f"enc.block{i}.bias"],
            values[f"enc.block{i}.bn_scale"],
            values[f"enc.block{i}.bn_shift"],
        )
        for i in range(len(config.block_widths))
    ]
    head = None
    if "head.rel.w1" in values:
        head = RelationHeadState(values["head.rel.w1"], values["head.rel.b1"],
                                 values["head.rel.w2"], values["head.rel.b2"])
    ft = None
    if with_ft:
        flagged = [i for i, on in enumerate(config.ft_blocks) if on]
        ft = FTParams([values[f"ft.block{b}.gamma"] for b in flagged],
                      [values[f"ft.block{b}.beta"] for b in flagged])
    return ModelState(head_kind, EncoderState(config, blocks), head, ft)


def build_model(config: TrainConfig, input_dim: int, rng: RngStream,
                encoder: EncoderState | None = None) -> ModelState:
    """Assemble a model for the configured mode, head, and widths."""
    if encoder is None:
        enc_config = EncoderConfig(input_dim, config.encoder_widths, config.ft_blocks)
        encoder = build_encoder(enc_config, rng.substream("build-encoder"))
    head = None
    if config.head == "relation":
        emb = encoder.output_dim
        head = build_relation_head(emb, emb, rng.substream("build-head"))
    ft = None
    if config.mode in ("ft", "lft"):
        channels = [w for w, on in zip(encoder.config.block_widths, encoder.config.ft_blocks) if on]
        ft = init_ft_params(channels, config.ft_init_gamma, config.ft_init_beta)
    return ModelState(config.head, encoder, head, ft)


def episode_forward(model: ModelState, episode: Episode, mode: str, use_ft: bool,
                    rng: RngStream | None = None, modulations=None) -> Tensor:
    """Encode the episode's batch, then score its queries with the head.

    ``episode.x`` may be a no-grad stack of batches of episodes that share
    the episode's labels; the logits then stack the same way."""
    ft = model.ft if use_ft else None
    emb = encode(model.encoder, ft, episode.x, mode, rng, modulations)
    n_support = episode.n_way * episode.n_shot
    support = ad.narrow(emb, -2, 0, n_support)
    query = ad.narrow(emb, -2, n_support, emb.shape[-2])
    return episode_logits(model.head_kind, support, episode.support_y, query,
                          episode.n_way, model.head)


def episode_gradients(model: ModelState, episode: Episode, ft_enabled: bool,
                      rng: RngStream | None = None, create_graph: bool = False,
                      ) -> tuple[float, dict[str, tuple[Tensor, Tensor]]]:
    """Training-mode loss of one episode and, by name, each trainable
    parameter with its gradient (the input of an optimizer step)."""
    logits = episode_forward(model, episode, "train", ft_enabled, rng)
    loss = episode_loss(logits, episode.query_y)
    trainable = model.trainable()
    grads = ad.backward(loss, [t for _, t in trainable], create_graph=create_graph)
    return loss.item(), {n: (t, g) for (n, t), g in zip(trainable, grads)}


def inner_update(model: ModelState, episode: Episode, ft_enabled: bool, alpha: float,
                 rng: RngStream | None = None,
                 ) -> tuple[ModelState, float, dict[str, tuple[Tensor, Tensor]]]:
    """One graph-attached episodic SGD step on encoder and head parameters.

    The stepped parameters stay attached to the graph (in particular to
    the modulation hyper-parameters through the sampled perturbation), so
    a later loss of the stepped model can be differentiated with respect
    to those hyper-parameters.  Returns the stepped model, the episode
    loss, and the named parameters with the gradients the step used.
    """
    loss, grads = episode_gradients(model, episode, ft_enabled, rng, create_graph=True)
    stepped = {n: ad.sub(t, ad.scale(g, alpha)) for n, (t, g) in grads.items()}
    return model.with_values(stepped), loss, grads


def pseudo_unseen_loss(model: ModelState, episode: Episode) -> Tensor:
    """Episode loss with modulation off (evaluation-style forward pass)."""
    logits = episode_forward(model, episode, "eval", use_ft=False)
    return episode_loss(logits, episode.query_y)


def ft_regularizer(model: ModelState, weight: float) -> Tensor:
    """weight * sum of squared modulation hyper-parameters."""
    if model.ft is None or not model.ft.tensors():
        return ad.constant(0.0)
    # One sum over the joined vectors: each gradient is weight * (theta * 2.0),
    # the same bits as a sum per tensor gives, from fewer nodes.
    return ad.scale(ad.tensor_sum(ad.square(ad.concat(model.ft.tensors()))), weight)


def lft_outer_loss(model: ModelState, pseudo_seen: Episode, pseudo_unseen: Episode,
                   config: TrainConfig, rng: RngStream,
                   ) -> tuple[Tensor, float, float, ModelState, dict[str, tuple[Tensor, Tensor]]]:
    """Pseudo-unseen loss of the stepped model plus the hyper-parameter
    penalty, as one graph-attached scalar.

    Returns (total, pseudo-seen loss, pseudo-unseen loss, stepped model,
    first inner step's named parameters and gradients).  The total is
    differentiable with respect to the modulation hyper-parameters of
    ``model``; gradients flow through the kept inner step(s), which is
    where the second-order term comes from.
    """
    if model.ft is None:
        raise ContractError("lft_outer_loss: model has no modulation hyper-parameters")
    stepped = model
    loss_ps = 0.0
    for step in range(config.inner_steps):
        stepped, loss_ps, grads = inner_update(
            stepped, pseudo_seen, ft_enabled=True, alpha=config.alpha,
            rng=rng.substream("inner-noise", step),
        )
        if step == 0:
            first_grads = grads
    loss_pu_t = pseudo_unseen_loss(stepped, pseudo_unseen)
    total = ad.add(loss_pu_t, ft_regularizer(model, config.ft_reg_weight))
    return total, loss_ps, loss_pu_t.item(), stepped, first_grads


def lft_train_step(model: ModelState, pseudo_seen: Episode, pseudo_unseen: Episode,
                   config: TrainConfig, rng: RngStream,
                   optimizer: "SGD | Adam") -> tuple[ModelState, float, float]:
    """One full learning-to-learn iteration.

    The optimizer applies the meta-gradient to the modulation
    hyper-parameters.  Encoder and head parameters depend on the
    optimizer: SGD keeps the inner-stepped values, while Adam instead
    takes one adaptive step from the first inner step's gradients.  The differentiation graph dies with this
    call's locals.
    """
    total, loss_ps, loss_pu, stepped, inner_grads = lft_outer_loss(
        model, pseudo_seen, pseudo_unseen, config, rng)
    ft_items = model.ft_named()
    meta_grads = ad.backward(total, [t for _, t in ft_items]) if ft_items else []

    if isinstance(optimizer, SGD):
        new_values = {n: ad.adopt_leaf(t.data) for n, t in stepped.trainable()}
    else:
        new_values = optimizer.step(inner_grads)
    new_values.update(optimizer.step({n: (t, g) for (n, t), g in zip(ft_items, meta_grads)}))
    return model.with_values(new_values), loss_ps, loss_pu


class SGD:
    """Plain gradient descent over named parameters.

    Like Adam's, a step runs inside ``trap_non_finite()``, so a non-finite
    update raises NumericError naming the parameter wherever it is called.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha

    def step(self, named: dict[str, tuple[Tensor, Tensor]]) -> dict[str, Tensor]:
        out = {}
        with ad.trap_non_finite():
            for name, (theta, grad) in named.items():
                try:
                    out[name] = ad.adopt_leaf(theta.data - self.alpha * grad.data)
                except FloatingPointError:
                    raise NumericError(f"sgd: non-finite update of {name}") from None
        return out


class Adam:
    """Adaptive moment estimation over named parameters (numpy state).

    A call updates all its parameters as one flat vector.  Each group of
    names (the keys of a call, in order) keeps its own moments and step
    count, so a group stepped once per iteration is stepped exactly as
    each of its parameters would be on its own.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.state: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray, int]] = {}

    def _update(self, theta: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = self.BETA1 * m + (1.0 - self.BETA1) * g
        v = self.BETA2 * v + (1.0 - self.BETA2) * g * g
        m_hat = m / (1.0 - self.BETA1**t)
        v_hat = v / (1.0 - self.BETA2**t)
        return theta - self.alpha * m_hat / (np.sqrt(v_hat) + self.EPS), m, v

    def step(self, named: dict[str, tuple[Tensor, Tensor]]) -> dict[str, Tensor]:
        if not named:
            return {}
        names = tuple(named)
        thetas = [theta for theta, _ in named.values()]
        theta = np.concatenate([p.data.ravel() for p in thetas])
        g = np.concatenate([grad.data.ravel() for _, grad in named.values()])
        m, v, t = self.state.get(names) or (np.zeros_like(g), np.zeros_like(g), 0)
        t += 1
        spans, start = [], 0
        for p in thetas:
            spans.append(slice(start, start + p.size))
            start += p.size
        with ad.trap_non_finite():
            try:
                flat, m, v = self._update(theta, g, m, v, t)
            except FloatingPointError:
                # Name the first parameter whose own update raises.
                for name, s in zip(names, spans):
                    try:
                        self._update(theta[s], g[s], m[s], v[s], t)
                    except FloatingPointError:
                        raise NumericError(f"adam: non-finite update of {name}") from None
                raise
        self.state[names] = (m, v, t)
        flat.setflags(write=False)  # so that every parameter's view is read-only
        return {name: ad.adopt_leaf(flat[s].reshape(p.shape))
                for name, p, s in zip(names, thetas, spans)}


@dataclass
class LogRow:
    iteration: int
    mode: str
    loss_ps: float
    loss_pu: float | None = None


def _format_log_row(row: LogRow) -> str:
    pu = "" if row.loss_pu is None else f"{row.loss_pu:.6f}"
    return f"{row.iteration},{row.mode},{row.loss_ps:.6f},{pu}\n"


def _train_iteration(model: ModelState, config: TrainConfig, domains: Sequence[Domain],
                     root: RngStream, optimizer: "SGD | Adam",
                     it: int) -> tuple[ModelState, LogRow]:
    """Iteration ``it`` of train_loop: draw its episodes and take its step."""
    if config.mode in ("baseline", "ft"):
        pick = root.substream("loop-domain", it).integers(1, len(domains))[0]
        episode = sample_episode(domains[int(pick)], config.way, config.shot,
                                 config.query, root.substream("ps-episode", it))
        noise = root.substream("ft-noise", it)
        loss_ps, grads = episode_gradients(model, episode, config.mode == "ft", noise)
        return model.with_values(optimizer.step(grads)), LogRow(it, config.mode, loss_ps)
    if len(domains) >= 2:
        pair = root.substream("loop-domain", it).sample_without_replacement(len(domains), 2)
        ps_dom, pu_dom = domains[pair[0]], domains[pair[1]]
    else:
        ps_dom = pu_dom = domains[0]
    ps = sample_episode(ps_dom, config.way, config.shot, config.query,
                        root.substream("ps-episode", it))
    pu = sample_episode(pu_dom, config.way, config.shot, config.query,
                        root.substream("pu-episode", it))
    model, loss_ps, loss_pu = lft_train_step(model, ps, pu, config,
                                             root.substream("ft-noise", it), optimizer)
    return model, LogRow(it, config.mode, loss_ps, loss_pu)


def train_loop(config: TrainConfig, domains: Sequence[Domain],
               init: ModelState | None = None,
               log_file: IO[str] | None = None) -> tuple[ModelState, list[LogRow]]:
    """Run the configured number of episodic iterations over seen domains.

    Every iteration draws its domains, episodes, and modulation noise from
    substreams keyed by (config seed, iteration), so runs with equal
    inputs produce bit-identical models.  The learning-to-learn mode needs
    two domains; with a single seen domain it degrades to two independent
    episodes of that domain and says so once on the log.
    """
    if not domains:
        raise ConfigError("train_loop: at least one seen domain required")
    dims = {d.dim for d in domains}
    if len(dims) != 1:
        raise ConfigError(f"train_loop: domains disagree on feature dim: {sorted(dims)}")

    root = RngStream(config.seed)
    model = init if init is not None else build_model(config, domains[0].dim, root)
    if config.mode in ("ft", "lft") and model.ft is None:
        raise ConfigError(f"train_loop: mode {config.mode!r} needs modulation parameters")
    if config.mode == "baseline" and model.ft is not None:
        raise ConfigError("train_loop: baseline mode must not carry modulation parameters")
    if config.mode == "lft" and len(domains) < 2:
        log.warning(
            "learning-to-learn with a single seen domain: pseudo-seen and "
            "pseudo-unseen episodes will come from the same domain"
        )

    optimizer = Adam(config.alpha) if config.optimizer == "adam" else SGD(config.alpha)
    if log_file is not None:
        log_file.write("iter,mode,loss_ps,loss_pu\n")

    rows: list[LogRow] = []
    with ad.trap_non_finite():
        for it in range(config.iterations):
            try:
                model, row = _train_iteration(model, config, domains, root, optimizer, it)
            except NumericError as err:
                raise NumericError(f"{config.mode} iteration {it}: {err}") from err
            rows.append(row)
            if log_file is not None:
                log_file.write(_format_log_row(row))
                if (it + 1) % 100 == 0:
                    log_file.flush()
    if log_file is not None:
        log_file.flush()
    return model, rows


def pretrain_encoder(encoder: EncoderState, domain: Domain, epochs: int,
                     batch_size: int, alpha: float,
                     rng: RngStream) -> tuple[EncoderState, list[float]]:
    """Supervised warm start: classify all base classes with a throwaway
    linear layer, mini-batch SGD, modulation inactive throughout.

    Returns the updated encoder and the mean loss per epoch; the linear
    classifier is dropped on return.
    """
    if epochs < 1:
        raise ContractError("pretrain_encoder: epochs must be positive")
    if batch_size < 2:
        raise ContractError("pretrain_encoder: batch size must be at least 2 for batch norm")
    ids = domain.class_ids()
    if len(ids) < 2:
        raise ContractError("pretrain_encoder: need at least two base classes")
    xs = np.concatenate([domain.classes[cid] for cid in ids])
    ys = np.concatenate([np.full(domain.classes[cid].shape[0], k) for k, cid in enumerate(ids)])
    n, k_classes = xs.shape[0], len(ids)

    head_rng = rng.substream("pretrain-head")
    from .encoder import glorot_uniform

    weight = ad.leaf(glorot_uniform(head_rng, encoder.output_dim, k_classes))
    bias = ad.leaf(np.zeros(k_classes))

    sgd = SGD(alpha)
    epoch_losses = []
    with ad.trap_non_finite():
        for epoch in range(epochs):
            order = rng.substream("pretrain-epoch", epoch).permutation(n)
            batch_losses = []
            for start in range(0, n, batch_size):
                chunk = order[start:start + batch_size]
                if len(chunk) < 2:
                    continue  # batch norm cannot use a single row
                batch = ad.constant(xs[chunk])
                labels = [int(ys[i]) for i in chunk]
                emb = encode(encoder, None, batch, "train")
                logits = ad.linear(emb, weight, bias)
                loss = episode_loss(logits, labels)
                named = encoder.parameters() + [("pretrain.weight", weight),
                                                ("pretrain.bias", bias)]
                grads = ad.backward(loss, [t for _, t in named])
                stepped = sgd.step({n: (t, g) for (n, t), g in zip(named, grads)})
                encoder = assemble_model(encoder.config, "proto", stepped, with_ft=False).encoder
                weight, bias = stepped["pretrain.weight"], stepped["pretrain.bias"]
                batch_losses.append(loss.item())
            epoch_losses.append(float(np.mean(batch_losses)))
    return encoder, epoch_losses
