"""Episodic evaluation, cross-domain sweeps, and diagnostic outputs.

Evaluation is deterministic: trial t of a run draws its episode from a
substream keyed by (seed, t), so trials can be recomputed independently
and in any order.  Modulation layers are never consulted; an evaluated
model behaves identically whatever its hyper-parameter values or the
state of any random stream.

Trials are scored in blocks of up to ``TRIALS_PER_BLOCK``: the batches of
a block's episodes are stacked and encoded and scored in one no-grad
pass.  Every slice of that pass computes what a pass over its episode
alone computes, bit for bit, so a trial's logits and accuracy do not
depend on its block.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .errors import ContractError, NumericError
from .ft import FTParams, quartile_stats
from .heads import predict_episode
from .rng import RngStream, derive_seed, label_hash
from .tasks import Domain, Episode, sample_episode
from .training import ModelState, episode_forward

# Trials scored in one pass.  For eight 5-way 5-shot 16-query episodes and
# a 64-32 encoder, an encoder activation is about 0.4 MB and the relation
# head's pair rows 1.6 MB; larger blocks raise the peak memory of a pass.
TRIALS_PER_BLOCK = 8


@dataclass
class EvalReport:
    domain: str
    n_way: int
    n_shot: int
    n_query: int
    trials: int
    accuracies: list[float]
    mean: float
    ci95: float
    # The evaluate call's wall time: a measurement, not part of the result.
    seconds: float = field(default=0.0, compare=False)

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds if self.seconds > 0.0 else math.inf


def summarize(accuracies: Sequence[float]) -> tuple[float, float]:
    """Mean and 1.96 * sample std / sqrt(n) half-width."""
    accs = np.asarray(accuracies, dtype=np.float64)
    mean = float(np.mean(accs))
    if accs.size < 2:
        return mean, 0.0
    return mean, float(1.96 * np.std(accs, ddof=1) / np.sqrt(accs.size))


def _score(model: ModelState, episodes: list[Episode]) -> list[float]:
    """Accuracy of each episode, from one pass over their stacked batches."""
    # Every episode of a call has the same shape and labels.
    block = dataclasses.replace(episodes[0], x=ad.adopt(np.stack([e.x.data for e in episodes])))
    with ad.no_grad(), ad.trap_non_finite():
        preds = predict_episode(episode_forward(model, block, "eval", use_ft=False))
    return np.mean(preds == np.asarray(block.query_y), axis=-1).tolist()


def _block_accuracies(model: ModelState, domain: Domain, n_way: int, n_shot: int,
                      n_query: int, seed: int, trials: range) -> list[float]:
    """Accuracies of consecutive trials, scored as one block.

    A NumericError is re-raised naming the first trial that raises it on
    its own; the drawn episodes are scored again one by one to find it.
    """
    episodes = [sample_episode(domain, n_way, n_shot, n_query,
                               RngStream(derive_seed(seed, "eval-trial", t)))
                for t in trials]
    try:
        return _score(model, episodes)
    except NumericError:
        for trial, episode in zip(trials, episodes):
            try:
                _score(model, [episode])
            except NumericError as err:
                raise NumericError(f"evaluation trial {trial}: {err}") from err
        raise  # a slice computes what its episode alone does, so this is not reached


def trial_accuracy(model: ModelState, domain: Domain, n_way: int, n_shot: int,
                   n_query: int, seed: int, trial: int) -> float:
    """Accuracy of one evaluation episode, identified by its trial index.

    A NumericError of the trial is re-raised with the trial index.
    """
    return _block_accuracies(model, domain, n_way, n_shot, n_query, seed,
                             range(trial, trial + 1))[0]


def evaluate(model: ModelState, domain: Domain, n_way: int, n_shot: int,
             trials: int = 1000, seed: int = 0, n_query: int = 16) -> EvalReport:
    """Mean episode accuracy over independent trials with a 95% interval.

    Trial t's accuracy is ``trial_accuracy(..., seed, t)``, whichever block
    scores it.
    """
    if trials < 1:
        raise ContractError("evaluate: trials must be positive")
    start = time.perf_counter()
    accs: list[float] = []
    for first in range(0, trials, TRIALS_PER_BLOCK):
        block_trials = range(first, min(first + TRIALS_PER_BLOCK, trials))
        accs.extend(_block_accuracies(model, domain, n_way, n_shot, n_query, seed, block_trials))
    seconds = time.perf_counter() - start
    mean, ci95 = summarize(accs)
    return EvalReport(domain.name, n_way, n_shot, n_query, trials, accs, mean, ci95, seconds)


def cross_domain_matrix(model: ModelState, domains: Sequence[Domain], n_way: int,
                        n_shot: int, trials: int = 1000, seed: int = 0,
                        n_query: int = 16) -> list[EvalReport]:
    """Evaluate one model on several domains.

    Each domain gets a seed derived from its name, not its list position,
    so a domain's row does not depend on what else is in the list.
    """
    return [
        evaluate(model, d, n_way, n_shot, trials,
                 seed=derive_seed(seed, "cross-domain", label_hash(d.name)),
                 n_query=n_query)
        for d in domains
    ]


def pca_plane(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-2 principal axes via eigendecomposition of the covariance.

    Returns (mean, axes (2, dim), explained variances (2,)).  Axis signs
    are fixed by making each axis's largest-magnitude entry positive.
    """
    if points.shape[0] < 3:
        raise ContractError("pca_plane: need at least 3 points")
    mean = points.mean(axis=0)
    centered = points - mean
    cov = centered.T @ centered / (points.shape[0] - 1)
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1][:2]
    axes = vectors[:, order].T.copy()
    for axis in axes:
        anchor = np.argmax(np.abs(axis))
        if axis[anchor] < 0:
            axis *= -1.0
    return mean, axes, values[order]


@dataclass
class ProjectionRow:
    domain: str
    class_id: int
    pc1: float
    pc2: float


def emit_feature_projection(model: ModelState, domains: Sequence[Domain],
                            samples_per_domain: int, seed: int = 0,
                            ) -> list[ProjectionRow]:
    """Project evaluation-mode embeddings of domain samples to 2 dimensions.

    Samples are drawn per domain from a name-keyed substream; each
    domain's batch is embedded on its own (shared normalization inside the
    batch), then all embeddings share a single principal-component plane.
    """
    if samples_per_domain < 2:
        raise ContractError("emit_feature_projection: need at least 2 samples per domain")
    from .encoder import encode

    embeddings = []
    keys: list[tuple[str, int]] = []
    for domain in domains:
        rng = RngStream(derive_seed(seed, "projection", label_hash(domain.name)))
        pool = [(cid, i) for cid in sorted(domain.classes)
                for i in range(domain.classes[cid].shape[0])]
        if len(pool) < samples_per_domain:
            raise ContractError(
                f"emit_feature_projection: domain {domain.name!r} has {len(pool)} samples, "
                f"requested {samples_per_domain}"
            )
        chosen = [pool[i] for i in rng.sample_without_replacement(len(pool), samples_per_domain)]
        batch = np.stack([domain.classes[cid][i] for cid, i in chosen])
        with ad.no_grad(), ad.trap_non_finite():
            try:
                emb = encode(model.encoder, None, ad.constant(batch), "eval")
            except NumericError as err:
                raise NumericError(f"feature projection of domain {domain.name!r}: {err}") from err
        embeddings.append(emb.data)
        keys.extend((domain.name, cid) for cid, _ in chosen)
    stacked = np.concatenate(embeddings)
    if stacked.shape[0] < 3:
        raise ContractError("emit_feature_projection: need at least 3 embeddings overall")
    mean, axes, _ = pca_plane(stacked)
    coords = (stacked - mean) @ axes.T
    return [
        ProjectionRow(name, cid, float(x), float(y))
        for (name, cid), (x, y) in zip(keys, coords)
    ]


# ---------------------------------------------------------------------------
# csv emission


def write_eval_csv(report: EvalReport, path: str) -> None:
    """Per-trial accuracies plus a trailing summary comment line."""
    with open(path, "w") as fh:
        fh.write("trial,accuracy\n")
        for t, acc in enumerate(report.accuracies):
            fh.write(f"{t},{acc:.6f}\n")
        fh.write(f"# mean={report.mean:.6f} ci95={report.ci95:.6f}\n")


def write_matrix_csv(reports: Sequence[EvalReport], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("domain,way,shot,trials,mean,ci95\n")
        for r in reports:
            fh.write(f"{r.domain},{r.n_way},{r.n_shot},{r.trials},{r.mean:.6f},{r.ci95:.6f}\n")


def write_quartile_csv(params: FTParams, path: str) -> None:
    rows = quartile_stats(params)
    with open(path, "w") as fh:
        fh.write("layer,gamma_q1,gamma_med,gamma_q3,beta_q1,beta_med,beta_q3\n")
        for r in rows:
            fh.write(
                f"{r.layer},{r.gamma_q1:.6f},{r.gamma_med:.6f},{r.gamma_q3:.6f},"
                f"{r.beta_q1:.6f},{r.beta_med:.6f},{r.beta_q3:.6f}\n"
            )


def write_projection_csv(rows: Sequence[ProjectionRow], path: str) -> None:
    with open(path, "w") as fh:
        fh.write("domain,class_id,pc1,pc2\n")
        for r in rows:
            fh.write(f"{r.domain},{r.class_id},{r.pc1:.6f},{r.pc2:.6f}\n")
