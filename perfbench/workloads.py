"""The benchmark's workloads, on the criterion-6 testbed.

Every workload builds five synthetic domains from the run's seed (warp
4.5, noise sigma 0.3, latent dimension 4), holds out domain ``seed % 5``
and works on 5-way 5-shot episodes with 16 queries, a 64-32 encoder and
step size 0.005.  A workload is driven in three phases:

  * ``set_up``: everything before timing, warm-up included; repeated,
    and timed, by run.py;
  * ``chunk``: one bounded piece of timed work, returning its per-step
    times; a step is one training iteration or one evaluation trial;
  * ``verify``: the correctness gate after timing.

Only the public API of fsdg is called, and always through its module
(``training.train_loop``, not a copy of the name), so the traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from fsdg import checkpoint, config, evaluation, tasks, training
from fsdg.rng import derive_seed

N_DOMAINS = 5
WAY, SHOT, QUERY = 5, 5, 16
ALPHA = 0.005
WIDTHS = (64, 32)
HEADS = ("proto", "matching", "relation")
# Held-out accuracy must be at least twice 5-way chance.
ACCURACY_FLOOR = 2.0 / WAY


@dataclass(frozen=True)
class Sizes:
    setups: int        # set-ups per run; setup_s is their median
    warmup_iters: int  # train-*: iterations trained in each set-up
    chunk_iters: int   # train-*: iterations per timed train_loop call
    head_iters: int    # eval-heads: training iterations per head in set-up
    chunk_rounds: int  # eval-heads: timed rounds per chunk, one evaluate call per head
    chunk_trials: int  # eval-heads: trials per timed evaluate call
    gate_trials: int   # trials behind each accuracy gate


FULL = Sizes(setups=3, warmup_iters=20, chunk_iters=24, head_iters=100,
             chunk_rounds=12, chunk_trials=4, gate_trials=100)
# For the benchmark's own tests.  The head models keep their full training
# so that the relation head clears the accuracy floor.
TINY = Sizes(setups=1, warmup_iters=2, chunk_iters=2, head_iters=100,
             chunk_rounds=1, chunk_trials=2, gate_trials=20)


class CheckFailed(Exception):
    """An output of the program failed the benchmark's correctness gate."""


@dataclass
class Chunk:
    steps: int
    busy_s: float        # time spent inside the timed fsdg calls
    step_s: list[float]  # per-step times (per iteration, or per trial of a round)
    output: object       # compared between an untraced and a traced replay


def testbed(seed: int) -> tuple[tasks.Domain, list[tasks.Domain]]:
    """(held-out domain, seen domains) for this seed."""
    domains = [
        tasks.generate_synthetic_domain(tasks.SyntheticDomainSpec(
            master_seed=seed, domain_seed=d, latent_dim=4, noise_sigma=0.3,
            warp_strength=4.5))
        for d in range(N_DOMAINS)
    ]
    held = seed % N_DOMAINS
    return domains[held], [d for i, d in enumerate(domains) if i != held]


def fingerprint(model: training.ModelState) -> str:
    """SHA-256 over parameter names and their float64 bytes."""
    h = hashlib.sha256()
    for name, t in model.param_store().items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    return h.hexdigest()


def round_trip(model: training.ModelState, cfg: training.TrainConfig,
               path: Path) -> tuple[training.ModelState, str]:
    """Save and reload a model; the reload must carry identical parameters.

    Returns the reloaded model and the checkpoint file's SHA-256.
    """
    text = config.format_config(cfg)
    checkpoint.save_checkpoint(model, text, str(path))
    loaded, loaded_text = checkpoint.load_checkpoint(str(path))
    if loaded_text != text or loaded.head_kind != model.head_kind:
        raise CheckFailed(f"checkpoint round trip changed the config of {path.name}")
    if fingerprint(loaded) != fingerprint(model):
        raise CheckFailed(f"checkpoint round trip changed the parameters of {path.name}")
    return loaded, hashlib.sha256(path.read_bytes()).hexdigest()


def gate_accuracy(model: training.ModelState, held: tasks.Domain, seed: int,
                  trials: int, what: str) -> float:
    report = evaluation.evaluate(model, held, WAY, SHOT, trials=trials,
                                 seed=derive_seed(seed, "bench-gate"), n_query=QUERY)
    if not report.mean >= ACCURACY_FLOOR:
        raise CheckFailed(f"{what}: held-out accuracy {report.mean:.3f} "
                          f"below {ACCURACY_FLOOR:.2f}")
    return report.mean


class StampSink:
    """A ``log_file`` for train_loop that keeps the time of every write.

    train_loop writes a header and then one row per finished iteration,
    so consecutive stamps bound one iteration each.
    """

    def __init__(self):
        self.stamps: list[float] = []

    def write(self, text: str) -> None:
        self.stamps.append(perf_counter())

    def flush(self) -> None:
        pass


class TrainWorkload:
    """train_loop in one mode with Adam and the proto head on the seen domains."""

    def __init__(self, mode: str, seed: int, sizes: Sizes):
        self.seed, self.sizes = seed, sizes
        self.cfg = training.TrainConfig(
            mode=mode, head="proto", alpha=ALPHA, optimizer="adam",
            iterations=sizes.warmup_iters, way=WAY, shot=SHOT, query=QUERY,
            seed=seed, encoder_widths=WIDTHS)
        self.model = self.oracle = None
        self.losses_finite = True

    def set_up(self) -> None:
        self.held, self.seen = testbed(self.seed)
        model, rows = training.train_loop(self.cfg, self.seen)
        self._check_rows(rows)
        self.model = self.oracle = model

    @property
    def chunk_steps(self) -> int:
        return self.sizes.chunk_iters

    def state(self):
        return self.model

    def restore(self, state) -> None:
        self.model = state

    def chunk(self, index: int) -> Chunk:
        cfg = replace(self.cfg, iterations=self.sizes.chunk_iters,
                      seed=derive_seed(self.seed, "bench-chunk", index))
        sink = StampSink()
        self.model, rows = training.train_loop(cfg, self.seen, init=self.model, log_file=sink)
        self._check_rows(rows)
        return Chunk(len(rows), sink.stamps[-1] - sink.stamps[0],
                     list(np.diff(sink.stamps)), fingerprint(self.model))

    def _check_rows(self, rows) -> None:
        for row in rows:
            for loss in (row.loss_ps, row.loss_pu):
                if loss is not None and not math.isfinite(loss):
                    self.losses_finite = False

    def verify(self, workdir: Path) -> dict:
        if not self.losses_finite:
            raise CheckFailed(f"{self.cfg.mode}: a training loss was not finite")
        _, digest = round_trip(self.oracle, self.cfg, workdir / "oracle.ckpt")
        trials = self.sizes.gate_trials
        return {
            # The warm-up model is a pure function of the seed: a refactor
            # that keeps behaviour keeps this digest.
            "oracle_sha256": digest,
            "oracle_accuracy": gate_accuracy(self.oracle, self.held, self.seed, trials,
                                             "warm-up model"),
            "final_accuracy": gate_accuracy(self.model, self.held, self.seed, trials,
                                            "final model"),
        }


class EvalWorkload:
    """evaluate on the held-out domain, one model per head, each trained
    briefly in set-up and reloaded from its checkpoint."""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        self.accuracies: dict[str, list[float]] = {h: [] for h in HEADS}

    def set_up(self) -> None:
        self.held, seen = testbed(self.seed)
        self.models, self.digests = {}, {}
        for head in HEADS:
            cfg = training.TrainConfig(
                mode="baseline", head=head, alpha=ALPHA, optimizer="adam",
                iterations=self.sizes.head_iters, way=WAY, shot=SHOT, query=QUERY,
                seed=self.seed, encoder_widths=WIDTHS)
            model, _ = training.train_loop(cfg, seen)
            loaded, digest = round_trip(model, cfg, self.workdir / f"{head}.ckpt")
            self.models[head], self.digests[head] = loaded, digest
        for head in HEADS:  # warm-up
            evaluation.evaluate(self.models[head], self.held, WAY, SHOT, trials=2,
                                seed=derive_seed(self.seed, "bench-warm-up"), n_query=QUERY)

    @property
    def chunk_steps(self) -> int:
        return self.sizes.chunk_rounds * self.sizes.chunk_trials * len(HEADS)

    def state(self):
        return None

    def restore(self, state) -> None:
        pass

    def chunk(self, index: int) -> Chunk:
        """``chunk_rounds`` rounds, each one evaluate call per head.  A
        round's time over its trials is one step-time sample, so every
        head weighs the same in every sample."""
        round_s, accs = [], []
        trials = self.sizes.chunk_trials
        for rnd in range(self.sizes.chunk_rounds):
            seed = derive_seed(self.seed, "bench-eval", index, rnd)
            t0 = perf_counter()
            for head in HEADS:
                report = evaluation.evaluate(self.models[head], self.held, WAY, SHOT,
                                             trials=trials, n_query=QUERY, seed=seed)
                accs.append((head, report.accuracies))
            round_s.append(perf_counter() - t0)
        for head, accuracies in accs:
            self.accuracies[head].extend(accuracies)
        per_round = trials * len(HEADS)
        return Chunk(self.chunk_steps, sum(round_s), [t / per_round for t in round_s],
                     tuple(accs))

    def verify(self, workdir: Path) -> dict:
        info = {}
        for head in HEADS:
            mean = float(np.mean(self.accuracies[head]))
            if not mean >= ACCURACY_FLOOR:
                raise CheckFailed(f"{head}: timed trials averaged {mean:.3f} "
                                  f"below {ACCURACY_FLOOR:.2f}")
            info[head] = {
                "sha256": self.digests[head],
                "accuracy": gate_accuracy(self.models[head], self.held, self.seed,
                                          self.sizes.gate_trials, f"{head} model"),
            }
        return info


def make(name: str, seed: int, sizes: Sizes, workdir: Path):
    if name == "train-lft":
        return TrainWorkload("lft", seed, sizes)
    if name == "train-ft":
        return TrainWorkload("ft", seed, sizes)
    if name == "eval-heads":
        return EvalWorkload(seed, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")
