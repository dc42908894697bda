"""Shared test utilities: the finite-difference oracle, gradient
comparison and tiny fixtures."""

import dataclasses
import weakref

import numpy as np

from fsdg import autodiff as ad
from fsdg import heads
from fsdg.errors import ContractError, NumericError
from fsdg.rng import RngStream
from fsdg.tasks import Domain, Episode, sample_episode


def with_value(store: dict[str, ad.Tensor], name: str, data: np.ndarray) -> dict[str, ad.Tensor]:
    """Copy of the name-to-tensor dict with one entry replaced by a fresh leaf."""
    if name not in store:
        raise KeyError(name)
    return {k: ad.leaf(data) if k == name else t for k, t in store.items()}


def _scalar_value(x) -> float:
    if isinstance(x, ad.Tensor):
        return x.item()
    value = float(x)
    if not np.isfinite(value):
        raise NumericError("finite_difference_grad: function returned non-finite value")
    return value


def finite_difference_grad(f, params: dict[str, ad.Tensor], eps: float) -> dict[str, ad.Tensor]:
    """Central-difference gradients of a scalar function of a name-to-tensor
    dict, in the dict's order.

    This is the reference oracle that gradient tests compare against; it
    shares no code with backward.  f must be deterministic: any sampling
    it performs has to be pinned by the caller, for instance by passing a
    fresh ``RngStream`` of a fixed seed on every call.
    """
    if eps <= 0.0:
        raise ContractError("finite_difference_grad: eps must be positive")
    grads = {}
    for name, t in params.items():
        flat = t.data.reshape(-1)
        out = np.empty(flat.size)
        for i in range(flat.size):
            bumped = flat.copy()
            bumped[i] = flat[i] + eps
            f_plus = _scalar_value(f(with_value(params, name, bumped.reshape(t.shape))))
            bumped[i] = flat[i] - eps
            f_minus = _scalar_value(f(with_value(params, name, bumped.reshape(t.shape))))
            out[i] = (f_plus - f_minus) / (2.0 * eps)
        grads[name] = ad.Tensor(out.reshape(t.shape))
    return grads


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
    """Compare backward results, in the dict's order, against a
    finite-difference dict."""
    assert len(got_tensors) == len(want_store)
    for t, name in zip(got_tensors, want_store):
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
    return Domain.from_classes(name, dim, classes)


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
    (counting from 0, each task of a block one episode) by 1e200, so that
    encoding it overflows."""
    real = module.sample_episode
    count = [0]

    def sampler(*args, **kwargs):
        episode = real(*args, **kwargs)
        data = episode.x.data
        first = count[0]
        count[0] += data.shape[0] if data.ndim == 3 else 1
        if not first <= index < count[0]:
            return episode
        data = data.copy()
        if data.ndim == 3:
            data[index - first] *= 1e200
        else:
            data *= 1e200
        return dataclasses.replace(episode, x=ad.constant(data))

    monkeypatch.setattr(module, "sample_episode", sampler)


def reference_permutations(rng: RngStream, ns) -> list[list[int]]:
    """The Fisher-Yates rule on one stream's own draws: for i = n-1 .. 1,
    swap i with draw % (i + 1); a shuffle of n items takes n - 1 draws."""
    draws = iter(rng._raw(sum(max(n - 1, 0) for n in ns)).tolist())
    out = []
    for n in ns:
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = next(draws) % (i + 1)
            items[i], items[j] = items[j], items[i]
        out.append(items)
    return out


def reference_episode(domain: Domain, n_way: int, n_shot: int, n_query: int,
                      rng: RngStream) -> Episode:
    """One episode drawn class by class, as the sampler drew it before it
    drew blocks: the classes from one shuffle of the sorted class ids, then
    one shuffle of each picked class's rows, gathered class by class."""
    ids = domain.class_ids()
    picked = [ids[i] for i in reference_permutations(rng, [len(ids)])[0][:n_way]]
    arrays = [domain.classes[cid] for cid in picked]
    need = n_shot + n_query
    perms = reference_permutations(rng, [arr.shape[0] for arr in arrays])
    drawn = [arr[rows[:need]] for arr, rows in zip(arrays, perms)]
    x = np.concatenate([rows[:n_shot] for rows in drawn] + [rows[n_shot:] for rows in drawn],
                       dtype=np.float64)
    return Episode(n_way, n_shot, n_query, ad.constant(x),
                   [label for label in range(n_way) for _ in range(n_shot)],
                   [label for label in range(n_way) for _ in range(n_query)],
                   domain.name, picked)


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
    shift = ad.constant(np.max(a.data, axis=1, keepdims=True))
    e = ad.exp(ad.sub(a, shift))
    return ad.div(e, ad.tensor_sum(e, axis=1, keepdims=True))


def ref_softmax_cross_entropy(logits: ad.Tensor, onehot: np.ndarray) -> ad.Tensor:
    shift = ad.constant(np.max(logits.data, axis=1, keepdims=True))
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


def ref_relation_logits(support_emb: ad.Tensor, support_labels, query_emb: ad.Tensor,
                        n_way: int, params) -> ad.Tensor:
    """The relation head's scores from explicit pair rows: every (query,
    prototype) pair concatenated into one row of width 2·emb, times the
    first layer's halves stacked back into one weight."""
    protos = heads.class_prototypes(support_emb, support_labels, n_way)
    n_query, emb_dim = query_emb.shape
    grid, rows = (n_query, n_way, emb_dim), (n_query * n_way, emb_dim)
    pairs = ad.concat([
        ad.reshape(ad.broadcast_to(ad.reshape(query_emb, (n_query, 1, emb_dim)), grid), rows),
        ad.reshape(ad.broadcast_to(ad.reshape(protos, (1, n_way, emb_dim)), grid), rows),
    ], axis=-1)
    w1 = ad.concat([params["head.rel.w1q"], params["head.rel.w1p"]], axis=0)
    h = ad.relu(ad.linear(pairs, w1, params["head.rel.b1"]))
    return ad.reshape(ad.matmul(h, params["head.rel.w2"]), (n_query, n_way))


# ---------------------------------------------------------------------------
# primitive-written VJPs: the four fused primitives whose VJPs are NumPy
# adjoint nodes, with the VJPs they had when those were written in
# primitives (each recorded 4 to 11 nodes), kept to check that first- and
# second-order gradients did not move by a bit.  The forwards are the
# fused ones, held here so that a test may swap these in for them.

_FUSED_FORWARDS = {name: getattr(ad, name) for name in
                   ("standardize", "softmax_rows", "softmax_cross_entropy", "neg_sq_distances")}


def _with_vjps(out: ad.Tensor, links) -> ad.Tensor:
    return ad._link(out, links) if ad._records(*(t for t, _ in links)) else out


def primitive_vjp_standardize(a: ad.Tensor, eps: float) -> ad.Tensor:
    with ad.no_grad():
        out = _FUSED_FORWARDS["standardize"](a, eps)
    _, inv_std = ad._standardize_data(a.data, eps)
    n = a.shape[0]
    ref = weakref.ref(out)

    def vjp(g):
        xhat = ref()
        s = ad.adopt(inv_std)
        if ad._records(a):
            s = ad._link(s, ((a, lambda h: ad.mul(
                xhat, ad.mul(h, ad.adopt(np.square(inv_std) * (-1.0 / n))))),))
        centered_g = ad.sub(ad.sub(g, ad.tensor_mean(g, axis=0, keepdims=True)),
                            ad.mul(xhat, ad.tensor_mean(ad.mul(g, xhat), axis=0, keepdims=True)))
        return ad.mul(s, centered_g)

    return _with_vjps(out, ((a, vjp),))


def primitive_vjp_softmax_rows(a: ad.Tensor) -> ad.Tensor:
    with ad.no_grad():
        out = _FUSED_FORWARDS["softmax_rows"](a)
    ref = weakref.ref(out)

    def vjp(g):
        s = ref()
        return ad.mul(s, ad.sub(g, ad.tensor_sum(ad.mul(g, s), axis=1, keepdims=True)))

    return _with_vjps(out, ((a, vjp),))


def primitive_vjp_softmax_cross_entropy(logits: ad.Tensor, onehot) -> ad.Tensor:
    onehot = onehot if isinstance(onehot, ad.Tensor) else ad.constant(onehot)
    with ad.no_grad():
        out = _FUSED_FORWARDS["softmax_cross_entropy"](logits, onehot)
    n = logits.shape[0]
    return _with_vjps(out, ((logits, lambda g: ad.scale(
        ad.mul(ad.sub(primitive_vjp_softmax_rows(logits), onehot), g), 1.0 / n)),))


def primitive_vjp_neg_sq_distances(q: ad.Tensor, p: ad.Tensor) -> ad.Tensor:
    with ad.no_grad():
        out = _FUSED_FORWARDS["neg_sq_distances"](q, p)

    def q_vjp(g):
        return ad.scale(ad.sub(ad.matmul(g, p),
                               ad.mul(ad.tensor_sum(g, axis=1, keepdims=True), q)), 2.0)

    def p_vjp(g):
        gt = ad.transpose(g)
        return ad.scale(ad.sub(ad.matmul(gt, q),
                               ad.mul(ad.tensor_sum(gt, axis=1, keepdims=True), p)), 2.0)

    return _with_vjps(out, ((q, q_vjp), (p, p_vjp)))


PRIMITIVE_VJPS = {
    "standardize": primitive_vjp_standardize,
    "softmax_rows": primitive_vjp_softmax_rows,
    "softmax_cross_entropy": primitive_vjp_softmax_cross_entropy,
    "neg_sq_distances": primitive_vjp_neg_sq_distances,
}
