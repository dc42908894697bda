"""Stochastic feature-wise modulation layers.

Each modulated block owns two per-channel hyper-parameter vectors.  During
a training forward pass the layer draws one multiplicative and one additive
perturbation per channel,

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

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError
from .rng import RngStream


@dataclass
class FTParams:
    """Hyper-parameter tensors for every modulated block, in block order."""

    gammas: list[Tensor]
    betas: list[Tensor]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ContractError("FTParams: gamma and beta lists differ in length")
        for g, b in zip(self.gammas, self.betas):
            if g.ndim != 1 or b.ndim != 1 or g.shape != b.shape:
                raise ContractError("FTParams: per-block vectors must be 1-d and equal length")

    @property
    def n_layers(self) -> int:
        return len(self.gammas)

    def tensors(self) -> list[Tensor]:
        out = []
        for g, b in zip(self.gammas, self.betas):
            out.extend((g, b))
        return out


@dataclass
class Modulation:
    """One sampled perturbation: scale and shift plus the raw noise."""

    gamma: Tensor
    beta: Tensor
    eps_gamma: np.ndarray
    eps_beta: np.ndarray


def init_ft_params(channels: list[int], init_gamma: float = 0.3, init_beta: float = 0.5) -> FTParams:
    """Constant-initialized hyper-parameters for the given channel widths."""
    gammas = [ad.leaf(np.full(c, float(init_gamma))) for c in channels]
    betas = [ad.leaf(np.full(c, float(init_beta))) for c in channels]
    return FTParams(gammas, betas)


def ft_param_count(channels: list[int]) -> int:
    """Total scalar hyper-parameters: one gamma and one beta per channel."""
    return 2 * sum(int(c) for c in channels)


def modulation_from_noise(theta_gamma: Tensor, theta_beta: Tensor,
                          eps_gamma: np.ndarray, eps_beta: np.ndarray) -> Modulation:
    """Build the modulation for fixed noise; gradients flow into theta."""
    if eps_gamma.shape != theta_gamma.shape or eps_beta.shape != theta_beta.shape:
        raise ContractError("modulation_from_noise: noise shape must match theta shape")
    gamma = ad.affine(ad.softplus(theta_gamma), ad.constant(eps_gamma), 1.0)
    beta = ad.mul(ad.softplus(theta_beta), ad.constant(eps_beta))
    return Modulation(gamma, beta, eps_gamma, eps_beta)


def sample_modulations(params: FTParams, rng: RngStream) -> list[Modulation]:
    """Fresh per-channel noise for every layer from one draw: layer by
    layer, gamma noise first, then beta noise, as successive
    ``sample_modulation`` calls would draw it."""
    noise = rng.normals_each([t.shape[0] for t in params.tensors()])
    return [modulation_from_noise(g, b, eg, eb)
            for g, b, eg, eb in zip(params.gammas, params.betas, noise[0::2], noise[1::2])]


def sample_modulation(theta_gamma: Tensor, theta_beta: Tensor, rng: RngStream) -> Modulation:
    """Draw fresh per-channel noise (gamma noise first, then beta noise)."""
    return sample_modulations(FTParams([theta_gamma], [theta_beta]), rng)[0]


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


def quartile_stats(params: FTParams) -> list[QuartileRow]:
    """Quartiles (linear interpolation between order statistics) per layer."""
    rows = []
    for i, (g, b) in enumerate(zip(params.gammas, params.betas)):
        gv = np.logaddexp(0.0, g.data)
        bv = np.logaddexp(0.0, b.data)
        gq = np.percentile(gv, [25.0, 50.0, 75.0], method="linear")
        bq = np.percentile(bv, [25.0, 50.0, 75.0], method="linear")
        rows.append(QuartileRow(i, gq[0], gq[1], gq[2], bq[0], bq[1], bq[2]))
    return rows
