"""Stochastic feature-wise modulation layers.

Each modulated block i owns two per-channel hyper-parameter vectors,
``ft.block<i>.gamma`` and ``ft.block<i>.beta``.  During a training forward
pass the layer draws one multiplicative and one additive perturbation per
channel,

    gamma = 1 + softplus(theta_gamma) * eps_gamma
    beta  =     softplus(theta_beta)  * eps_beta

with eps drawn from a standard Gaussian, and transforms activations as
``gamma * z + beta`` (one draw per forward pass, shared by the whole
batch).  The softplus keeps both spread parameters positive while leaving
theta free-ranging, and the explicit noise variables make the sample a
differentiable function of theta, which the meta-gradient needs.
Evaluation bypasses the layer entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .rng import RngStream

if TYPE_CHECKING:
    from .encoder import EncoderConfig


@dataclass
class Modulation:
    """One sampled perturbation: per-channel scale and shift."""

    gamma: Tensor
    beta: Tensor


def init_ft_params(config: EncoderConfig, init_gamma: float = 0.3,
                   init_beta: float = 0.5) -> dict[str, Tensor]:
    """Constant-initialized hyper-parameters ``ft.block<i>.gamma`` and
    ``ft.block<i>.beta`` for each flagged block i of the encoder layout."""
    params = {}
    for i in config.flagged_blocks:
        width = config.block_widths[i]
        params[f"ft.block{i}.gamma"] = ad.leaf(np.full(width, float(init_gamma)))
        params[f"ft.block{i}.beta"] = ad.leaf(np.full(width, float(init_beta)))
    return params


def modulation_from_noise(theta_gamma: Tensor, theta_beta: Tensor,
                          eps_gamma: np.ndarray, eps_beta: np.ndarray) -> Modulation:
    """Build the modulation for fixed noise; gradients flow into theta.

    The noise arrays are adopted, write-locked in place and not scanned:
    they must be finite float64 arrays that nothing else writes to, as
    ``RngStream.normals_each`` makes them."""
    if eps_gamma.shape != theta_gamma.shape or eps_beta.shape != theta_beta.shape:
        raise ContractError("modulation_from_noise: noise shape must match theta shape")
    gamma = ad.affine(ad.softplus(theta_gamma), ad.adopt(eps_gamma), 1.0)
    beta = ad.mul(ad.softplus(theta_beta), ad.adopt(eps_beta))
    return Modulation(gamma, beta)


def sample_modulations(params: Mapping[str, Tensor], blocks: Sequence[int],
                       rng: RngStream) -> list[Modulation]:
    """Fresh per-channel noise for the given blocks' hyper-parameters, read
    by name, from one draw: block by block, gamma noise first, then beta
    noise, as successive ``sample_modulation`` calls would draw it."""
    try:
        thetas = [params[f"ft.block{b}.{part}"] for b in blocks for part in ("gamma", "beta")]
    except KeyError as err:
        raise ContractError(f"sample_modulations: missing modulation tensor {err}") from None
    noise = rng.normals_each([t.shape[0] for t in thetas])
    return [modulation_from_noise(g, b, eg, eb)
            for g, b, eg, eb in zip(thetas[0::2], thetas[1::2], noise[0::2], noise[1::2])]


def sample_modulation(theta_gamma: Tensor, theta_beta: Tensor, rng: RngStream) -> Modulation:
    """Draw fresh per-channel noise (gamma noise first, then beta noise)."""
    return sample_modulations({"ft.block0.gamma": theta_gamma, "ft.block0.beta": theta_beta},
                              [0], rng)[0]


def modulate(z: Tensor, modulation: Modulation) -> Tensor:
    """Apply ``gamma * z + beta`` across the channel (last) axis."""
    if z.ndim != 2:
        raise ContractError(f"modulate: activations must be 2-d, got {z.shape}")
    if z.shape[1] != modulation.gamma.shape[0]:
        raise ContractError(
            f"modulate: {z.shape[1]} channels vs modulation width {modulation.gamma.shape[0]}"
        )
    return ad.affine(z, modulation.gamma, modulation.beta)


@dataclass
class QuartileRow:
    """Per-layer quartiles of the positive spread values softplus(theta)."""

    layer: int
    gamma_q1: float
    gamma_med: float
    gamma_q3: float
    beta_q1: float
    beta_med: float
    beta_q3: float


def quartile_stats(params: Mapping[str, Tensor], blocks: Sequence[int]) -> list[QuartileRow]:
    """Quartiles (linear interpolation between order statistics) of each
    given block's hyper-parameters, as layers 0, 1, ... in that order."""
    rows = []
    for layer, block in enumerate(blocks):
        gv = np.logaddexp(0.0, params[f"ft.block{block}.gamma"].data)
        bv = np.logaddexp(0.0, params[f"ft.block{block}.beta"].data)
        gq = np.percentile(gv, [25.0, 50.0, 75.0], method="linear")
        bq = np.percentile(bv, [25.0, 50.0, 75.0], method="linear")
        rows.append(QuartileRow(layer, gq[0], gq[1], gq[2], bq[0], bq[1], bq[2]))
    return rows
