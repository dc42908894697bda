"""Shared test utilities: gradient comparison and tiny fixtures."""

import dataclasses

import numpy as np

from fsdg import autodiff as ad
from fsdg.rng import RngStream
from fsdg.tasks import Domain, Episode, sample_episode


def max_rel_err(got: np.ndarray, want: np.ndarray, atol: float = 1e-8) -> float:
    """Largest elementwise |got - want| / max(|got|, |want|, atol/rtol floor).

    Entries where both sides are below atol count as matching; this keeps
    genuinely zero gradients (dead units, cancelled means) from blowing up
    the relative measure through rounding noise.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, f"shape mismatch {got.shape} vs {want.shape}"
    diff = np.abs(got - want)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1.0)
    rel = diff / denom
    rel[diff <= atol] = 0.0
    return float(np.max(rel)) if rel.size else 0.0


def assert_grads_match(got_tensors, want_store, rtol, atol: float = 1e-8):
    """Compare backward results against a finite-difference ParamStore."""
    names = want_store.names()
    assert len(got_tensors) == len(names)
    for t, name in zip(got_tensors, names):
        err = max_rel_err(t.data, want_store[name].data, atol=atol)
        assert err < rtol, f"{name}: relative error {err:.3e} >= {rtol:.0e}"


def noise_domain(seed: int, n_classes: int = 10, dim: int = 16,
                 per_class: int = 40, name: str = "noise") -> Domain:
    """A domain with no class signal: every class is iid standard normal."""
    stream = RngStream(seed)
    classes = {
        cid: stream.substream("class", cid).normals(per_class * dim).reshape(per_class, dim)
        for cid in range(n_classes)
    }
    return Domain(name, dim, classes)


def toy_episode(seed: int, dim: int = 6, n_way: int = 2, n_shot: int = 2,
                n_query: int = 4) -> Episode:
    dom = noise_domain(seed, n_classes=max(4, n_way), dim=dim, per_class=n_shot + n_query + 4)
    return sample_episode(dom, n_way, n_shot, n_query, RngStream(seed + 1))


def random_tensor(stream: RngStream, shape, lo: float = -2.0, hi: float = 2.0,
                  requires_grad: bool = True) -> ad.Tensor:
    n = int(np.prod(shape)) if shape else 1
    data = (stream.uniforms(n) * (hi - lo) + lo).reshape(shape)
    return ad.Tensor(data, requires_grad=requires_grad)


def overflow_nth_episode(monkeypatch, module, index: int) -> None:
    """Scale the inputs of the ``index``-th episode that ``module`` samples
    (counting from 0) by 1e200, so that encoding it overflows."""
    real = module.sample_episode
    count = [0]

    def sampler(*args, **kwargs):
        episode = real(*args, **kwargs)
        count[0] += 1
        if count[0] - 1 != index:
            return episode
        return dataclasses.replace(episode, x=ad.constant(episode.x.data * 1e200))

    monkeypatch.setattr(module, "sample_episode", sampler)


# ---------------------------------------------------------------------------
# reference composites: the op-by-op forms that the fused primitives of
# ``fsdg.autodiff`` replace, kept to check their values and gradients


def ref_standardize(x: ad.Tensor, eps: float) -> ad.Tensor:
    mu = ad.tensor_mean(x, axis=0, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.tensor_mean(ad.square(centered), axis=0, keepdims=True)
    inv_std = ad.exp(ad.scale(ad.log(ad.add(var, eps)), -0.5))
    return ad.mul(centered, inv_std)


def ref_softmax_rows(a: ad.Tensor) -> ad.Tensor:
    shift = ad.detach(ad.tensor_max(a, axis=1, keepdims=True))
    e = ad.exp(ad.sub(a, shift))
    return ad.div(e, ad.tensor_sum(e, axis=1, keepdims=True))


def ref_softmax_cross_entropy(logits: ad.Tensor, onehot: np.ndarray) -> ad.Tensor:
    shift = ad.detach(ad.tensor_max(logits, axis=1, keepdims=True))
    shifted = ad.sub(logits, shift)
    lse = ad.add(ad.log(ad.tensor_sum(ad.exp(shifted), axis=1, keepdims=True)), shift)
    picked = ad.tensor_sum(ad.mul(logits, ad.constant(onehot)), axis=1, keepdims=True)
    return ad.tensor_mean(ad.sub(lse, picked))


def ref_neg_sq_distances(q: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
    q_sq = ad.tensor_sum(ad.square(q), axis=1, keepdims=True)
    p_sq = ad.reshape(ad.tensor_sum(ad.square(p), axis=1), (1, p.shape[0]))
    cross = ad.matmul(q, ad.transpose(p))
    return ad.neg(ad.sub(ad.add(q_sq, p_sq), ad.scale(cross, 2.0)))


def ref_linear(x: ad.Tensor, w: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    return ad.add(ad.matmul(x, w), b)


def ref_affine(x: ad.Tensor, s: ad.Tensor, b) -> ad.Tensor:
    return ad.add(ad.mul(x, s), b)
