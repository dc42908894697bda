"""Which fsdg functions the traced run wraps, and how spans become
per-layer metrics.

Every function is wrapped where its callers look it up: ``training``
imports ``sample_episode`` and ``encode`` by name, so those are wrapped
in ``fsdg.training`` as well as in their home modules.  The lft stage of
a span is decided by its chain of parents; see ``Profile.fold``.
"""

from __future__ import annotations

from collections import Counter

from tracer import Tracer, self_times

# Metric name of each autodiff primitive whose cost is reported per op.
OPS = {
    "matmul": "matmul", "add": "add", "sub": "sub", "mul": "mul",
    "sum": "tensor_sum", "slice": "narrow", "broadcast": "broadcast_to",
    "reshape": "reshape", "take_rows": "take_rows", "concat": "concat",
    "exp": "exp", "log": "log",
}
STAGES = ("sample", "inner_fwd", "inner_bwd", "outer_fwd", "meta_bwd", "replay", "opt")


def targets(fsdg) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped function."""
    ad, training = fsdg.autodiff, fsdg.training
    out = []
    for name in ad.__all__:
        fn = getattr(ad, name)
        if isinstance(fn, type) or name == "no_grad":
            continue  # classes and the context manager are not primitives
        out.append((ad, name, f"autodiff.{name}"))
    for name in ("train_loop", "lft_train_step", "lft_outer_loss", "inner_update",
                 "pseudo_unseen_loss", "ft_regularizer", "episode_forward",
                 "episode_logits", "episode_loss", "sample_episode", "encode"):
        out.append((training, name, _home(getattr(training, name), name)))
    out += [
        (training.Adam, "step", "training.Adam.step"),
        (training.ModelState, "with_values", "training.with_values"),
        (fsdg.encoder, "encode", "encoder.encode"),
        (fsdg.encoder, "batch_norm", "encoder.batch_norm"),
        (fsdg.encoder, "sample_modulation", "ft.sample_modulation"),
        (fsdg.encoder, "modulate", "ft.modulate"),
        (fsdg.heads, "episode_logits", "heads.episode_logits"),
        (fsdg.evaluation, "evaluate", "evaluation.evaluate"),
        (fsdg.evaluation, "trial_accuracy", "evaluation.trial_accuracy"),
        (fsdg.evaluation, "sample_episode", "tasks.sample_episode"),
        (fsdg.evaluation, "predict_episode", "heads.predict_episode"),
        (fsdg.tasks, "generate_synthetic_domain", "tasks.generate_synthetic_domain"),
        (fsdg.checkpoint, "save_checkpoint", "checkpoint.save"),
        (fsdg.checkpoint, "load_checkpoint", "checkpoint.load"),
    ]
    for name in ("substream", "permutation", "sample_without_replacement",
                 "integers", "uniforms", "normals"):
        out.append((fsdg.rng.RngStream, name, f"rng.{name}"))
    return out


def _home(fn, name: str) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"


def make_tracer(fsdg) -> Tracer:
    """A tracer over ``targets`` that also counts the tensors autodiff
    primitives return and the graph nodes among them."""
    def create_graph(args, kwargs):
        return bool(kwargs.get("create_graph", args[2] if len(args) > 2 else False))

    def is_node(out) -> bool | None:
        """None for a non-tensor, else whether the tensor is a graph node."""
        return bool(out.parents) if isinstance(out, fsdg.autodiff.Tensor) else None

    wanted = targets(fsdg)
    node_spans = [name for _, _, name in wanted
                  if name.startswith("autodiff.") and name != "autodiff.backward"]
    return Tracer(wanted, tags={"autodiff.backward": create_graph},
                  node_test=is_node, node_spans=node_spans)


class Profile:
    """Per-name call counts and times, and the lft stage split, summed
    over folded batches of spans."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()   # inclusive seconds
        self.own: Counter = Counter()     # self seconds
        self.stage: Counter = Counter()
        self.backward: Counter = Counter()  # inclusive seconds by create_graph
        self.tensors = 0
        self.nodes = 0
        self.steps = 0

    def fold(self, spans: list[list], tensors: int, nodes: int, steps: int = 0,
             scale: float = 1.0) -> None:
        """Add a batch of spans; their times are multiplied by ``scale``."""
        own = self_times(spans)
        ctx: list[str | None] = [None] * len(spans)
        stage: list[str | None] = [None] * len(spans)
        meta_done: set[int] = set()  # lft_train_step spans past their meta-backward
        for i, (name, start, end, parent, tag) in enumerate(spans):
            dur = (end - start) * scale
            self.calls[name] += 1
            self.total[name] += dur
            self.own[name] += own[i] * scale
            if name == "autodiff.backward":
                self.backward["create_graph" if tag else "first_order"] += dur
            if parent >= 0 and stage[parent] is not None:
                stage[i] = stage[parent]
                continue
            ctx[i], stage[i] = _classify(name, ctx[parent] if parent >= 0 else None,
                                         parent in meta_done)
            if stage[i] == "meta_bwd":
                meta_done.add(parent)
            if stage[i] is not None:
                self.stage[stage[i]] += dur
        self.tensors += tensors
        self.nodes += nodes
        self.steps += steps


# Stage of each span, by context and name, in the iteration steps below.
_STEP = {  # one episodic step: inner_update's, or train_loop's own
    "training.episode_forward": "inner_fwd",
    "training.episode_loss": "inner_fwd",
    "autodiff.backward": "inner_bwd",
}
_INNER = {**_STEP, "autodiff.sub": "opt", "autodiff.scale": "opt"}
_LOOP = {**_STEP, "tasks.sample_episode": "sample", "training.Adam.step": "opt"}
_OUTER = {
    "rng.substream": "inner_fwd",  # the inner step's modulation noise
    "training.pseudo_unseen_loss": "outer_fwd",
    "training.ft_regularizer": "outer_fwd",
    "autodiff.add": "outer_fwd",
}
_LFT_STEP = {"autodiff.backward": "meta_bwd", "training.Adam.step": "opt"}
_REPLAY = {
    "rng.substream": "replay",
    "training.episode_forward": "replay",
    "training.episode_loss": "replay",
    "autodiff.backward": "replay",
    "training.Adam.step": "opt",
}
_CONTEXTS = {
    (None, "training.train_loop"): "loop",
    ("loop", "training.lft_train_step"): "lft_step",
    ("loop", "training.inner_update"): "inner",
    ("lft_step", "training.lft_outer_loss"): "outer",
    ("outer", "training.inner_update"): "inner",
}


def _classify(name: str, parent_ctx: str | None, meta_done: bool) -> tuple[str | None, str | None]:
    """(context, stage) of a span whose parent carries no stage.

    Contexts follow the call tree of one iteration: train_loop ("loop")
    -> lft_train_step ("lft_step") -> lft_outer_loss ("outer") ->
    inner_update ("inner").  Under lft_train_step, the first backward is
    the meta-gradient; the noise substream, forward and backward that
    follow it replay the pseudo-seen episode for Adam.  "opt" holds
    Adam's steps and the graph-attached inner SGD step.  A span that no
    rule names gets no stage, so coverage falls when the split goes stale.
    """
    context = _CONTEXTS.get((parent_ctx, name))
    if context is not None:
        return context, None
    if parent_ctx is None:
        return None, None
    if name == "training.with_values":
        return None, "with_values"
    if parent_ctx == "loop" and name.startswith("rng."):
        return None, "sample"
    table = {"loop": _LOOP, "inner": _INNER, "outer": _OUTER,
             "lft_step": _REPLAY if meta_done else _LFT_STEP}[parent_ctx]
    return None, table.get(name)


def per_layer(steps: Profile, calls: Profile, overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per step (one iteration or one trial) from the
    timed rounds, per call from set-up and verification."""
    n = max(steps.steps, 1)

    def per_step_ms(value: float) -> float:
        return 1e3 * value / n

    def per_call_ms(name: str) -> float:
        return 1e3 * calls.total[name] / calls.calls[name] if calls.calls[name] else 0.0

    m: dict[str, tuple[float, str]] = {
        "autodiff.nodes_per_iter": (steps.tensors / n, "count"),
        "autodiff.attached_nodes_per_iter": (steps.nodes / n, "count"),
    }
    for op, fn in OPS.items():
        m[f"autodiff.op.{op}.calls"] = (steps.calls[f"autodiff.{fn}"] / n, "count")
        m[f"autodiff.op.{op}.self_ms"] = (per_step_ms(steps.own[f"autodiff.{fn}"]), "ms")
    m["autodiff.backward.create_graph_ms"] = (per_step_ms(steps.backward["create_graph"]), "ms")
    m["autodiff.backward.first_order_ms"] = (per_step_ms(steps.backward["first_order"]), "ms")
    for stage in STAGES:
        m[f"training.stage.{stage}_ms"] = (per_step_ms(steps.stage[stage]), "ms")
    m["training.with_values_ms"] = (per_step_ms(steps.stage["with_values"]), "ms")
    loop = steps.total["training.train_loop"]
    covered = sum(steps.stage.values())
    m["training.stage.coverage_frac"] = (covered / loop if loop else 0.0, "fraction")
    m["rng.permutation.calls"] = (steps.calls["rng.permutation"] / n, "count")
    m["rng.permutation.self_ms"] = (per_step_ms(steps.own["rng.permutation"]), "ms")
    m["rng.substream.calls"] = (steps.calls["rng.substream"] / n, "count")
    for name in ("tasks.sample_episode", "ft.sample_modulation", "ft.modulate"):
        m[f"{name}.self_ms"] = (per_step_ms(steps.own[name]), "ms")
    for name in ("encoder.encode", "encoder.batch_norm", "heads.episode_logits",
                 "heads.episode_loss", "heads.predict_episode", "evaluation.trial_accuracy"):
        m[f"{name}_ms"] = (per_step_ms(steps.total[name]), "ms")
    for name in ("checkpoint.save", "checkpoint.load", "tasks.generate_synthetic_domain"):
        m[f"{name}_ms"] = (per_call_ms(name), "ms")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
