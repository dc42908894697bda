"""Dense episodic encoder with transductive batch normalization.

Each block runs affine -> batch_norm -> optional feature modulation
(training only) -> ReLU.  Batch normalization always uses the statistics
of the current batch, in training and evaluation alike; an episode is
therefore encoded as one batch (support and query rows together) so both
halves share the same normalization.  A stack of batches, shape
``(..., rows, input_dim)``, is encoded batch by batch in one pass (no-grad
evaluation only; see ``fsdg.autodiff``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, ContractError
# sample_modulation is not called here, but perfbench's traced run wraps it
# under this module's name.
from .ft import FTParams, Modulation, modulate, sample_modulation, sample_modulations  # noqa: F401
from .rng import RngStream

BN_EPS = 1e-5


@dataclass
class EncoderConfig:
    input_dim: int
    block_widths: tuple[int, ...]
    ft_blocks: tuple[bool, ...] = ()  # empty means: modulate every block

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError("encoder: input_dim must be positive")
        if not self.block_widths or any(w < 1 for w in self.block_widths):
            raise ConfigError("encoder: block widths must be positive and non-empty")
        self.ft_blocks = resolve_ft_blocks(self.ft_blocks, len(self.block_widths),
                                           "encoder: ft_blocks length must match block_widths")


def resolve_ft_blocks(ft_blocks, n_blocks: int, length_error: str) -> tuple[bool, ...]:
    """Per-block modulation flags, where empty means every block; flags of
    another length raise ConfigError with ``length_error``."""
    if not ft_blocks:
        return (True,) * n_blocks
    flags = tuple(bool(b) for b in ft_blocks)
    if len(flags) != n_blocks:
        raise ConfigError(length_error)
    return flags


@dataclass
class BlockParams:
    weight: Tensor
    bias: Tensor
    bn_scale: Tensor
    bn_shift: Tensor


@dataclass
class EncoderState:
    config: EncoderConfig
    blocks: list[BlockParams] = field(default_factory=list)

    @property
    def output_dim(self) -> int:
        return self.config.block_widths[-1]

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, blk in enumerate(self.blocks):
            out.append((f"enc.block{i}.weight", blk.weight))
            out.append((f"enc.block{i}.bias", blk.bias))
            out.append((f"enc.block{i}.bn_scale", blk.bn_scale))
            out.append((f"enc.block{i}.bn_shift", blk.bn_shift))
        return out


def glorot_uniform(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    """Weights uniform on (-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    u = rng.uniforms(fan_in * fan_out)
    return (u * 2.0 - 1.0).reshape(fan_in, fan_out) * bound


def build_encoder(config: EncoderConfig, rng: RngStream) -> EncoderState:
    """Fresh encoder: random affine weights, neutral normalization params."""
    blocks = []
    fan_in = config.input_dim
    for i, width in enumerate(config.block_widths):
        weight = ad.leaf(glorot_uniform(rng.substream("enc-weight", i), fan_in, width))
        bias = ad.leaf(np.zeros(width))
        bn_scale = ad.leaf(np.ones(width))
        bn_shift = ad.leaf(np.zeros(width))
        blocks.append(BlockParams(weight, bias, bn_scale, bn_shift))
        fan_in = width
    return EncoderState(config, blocks)


def batch_norm(x: Tensor, bn_scale: Tensor, bn_shift: Tensor) -> Tensor:
    """Standardize each feature over the current batch, then rescale.

    Uses the biased variance (mean squared deviation) plus a 1e-5
    stabilizer.  Requires at least two rows; with one row the statistics
    degenerate to zeros and the output would carry no signal.
    """
    if x.ndim < 2:
        raise ContractError(f"batch_norm: expected 2-d activations, got {x.shape}")
    if x.shape[-2] < 2:
        raise ContractError("batch_norm: batch size must be at least 2")
    return ad.affine(ad.standardize(x, BN_EPS), bn_scale, bn_shift)


def encode(state: EncoderState, ft: FTParams | None, batch: Tensor, mode: str,
           rng: RngStream | None = None,
           modulations: list[Modulation] | None = None) -> Tensor:
    """Run the block stack over one batch.

    mode "train" applies feature modulation on the flagged blocks (fresh
    noise from rng, or pinned draws via ``modulations``); mode "eval"
    bypasses modulation so the pass is a deterministic function of the
    parameters and the batch.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"encode: unknown mode {mode!r}")
    if batch.ndim < 2 or batch.shape[-1] != state.config.input_dim:
        raise ContractError(
            f"encode: batch shape {batch.shape} does not match input_dim {state.config.input_dim}"
        )
    use_ft = mode == "train" and ft is not None
    if use_ft:
        flagged = [i for i, on in enumerate(state.config.ft_blocks) if on]
        if ft.n_layers != len(flagged):
            raise ContractError(
                f"encode: {ft.n_layers} modulation layers for {len(flagged)} flagged blocks"
            )
        if modulations is not None and len(modulations) != ft.n_layers:
            raise ContractError("encode: pinned modulation list has wrong length")
        if modulations is None:
            if rng is None:
                raise ContractError("encode: training with modulation needs an rng stream")
            modulations = sample_modulations(ft, rng)

    h = batch
    ft_index = 0
    for i, blk in enumerate(state.blocks):
        h = ad.linear(h, blk.weight, blk.bias)
        h = batch_norm(h, blk.bn_scale, blk.bn_shift)
        if use_ft and state.config.ft_blocks[i]:
            h = modulate(h, modulations[ft_index])
            ft_index += 1
        h = ad.relu(h)
    return h
