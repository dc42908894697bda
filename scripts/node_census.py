"""Graph-node census of training iterations on the benchmark's testbed.

For each mode, trains on the seen domains of perfbench's testbed (the
train-lft and train-ft workloads: Adam, the proto head, 5-way 5-shot with
16 queries) and prints, per iteration:

  * the number of tensors that autodiff ops made (``_fresh`` calls),
    including the private adjoint nodes of the fused primitives, which
    perfbench's node counters cannot see because they count only the
    results of the functions in ``autodiff.__all__``;
  * for each ``backward`` call, the length of its walk (the nodes that get
    an adjoint) broken down by the op that made each node.  An adjoint
    node is named after its primitive with a prime (``standardize'``);
    leaves and constants are ``leaf``.

Counts depend only on the shape of the graph, so they repeat from
iteration to iteration and from run to run; the walks printed are those
of the first counted iteration.  The script wraps autodiff's ``backward``
and its private ``_fresh``, ``_adjoint`` and ``_reaching_order`` while it
counts.

Example:
    python3 scripts/node_census.py --seed 67 --iterations 3
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

from fsdg.threads import pin_blas_threads  # noqa: E402

pin_blas_threads()  # one BLAS thread, as perfbench pins it, before NumPy loads

from fsdg import autodiff as ad  # noqa: E402
from fsdg import training  # noqa: E402
from fsdg.rng import derive_seed  # noqa: E402

import workloads  # noqa: E402  (perfbench's testbed)


class Census:
    """Counts made tensors and walks while ``installed``, split into
    iterations by the writes of train_loop's log (a header, then one row
    after each iteration)."""

    def __init__(self):
        self.labels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.fresh = 0
        self.walks: list[tuple[bool, Counter]] = []
        self.iterations: list[tuple[int, list[tuple[bool, Counter]]]] = []
        self._create_graph = [False]

    @contextlib.contextmanager
    def installed(self):
        real = {name: getattr(ad, name)
                for name in ("_fresh", "_adjoint", "_reaching_order", "backward")}

        def fresh(op, data, scan=False):
            self.fresh += 1
            t = real["_fresh"](op, data, scan)
            self.labels[t] = op
            return t

        def adjoint(op, data, links, sweep, scan=False):
            t = real["_adjoint"](op, data, links, sweep, scan)
            self.labels[t] = op + "'"
            return t

        def reaching_order(loss, wanted):
            order, reach = real["_reaching_order"](loss, wanted)
            by_op = Counter(self.labels.get(node, "leaf") for node in order)
            self.walks.append((self._create_graph[-1], by_op))
            return order, reach

        def backward(loss, wrt, create_graph=False):
            self._create_graph.append(create_graph)
            try:
                return real["backward"](loss, wrt, create_graph)
            finally:
                self._create_graph.pop()

        wrappers = {"_fresh": fresh, "_adjoint": adjoint,
                    "_reaching_order": reaching_order, "backward": backward}
        for name, fn in wrappers.items():
            setattr(ad, name, fn)
        try:
            yield self
        finally:
            for name, fn in real.items():
                setattr(ad, name, fn)

    def write(self, text: str) -> None:
        if not text.startswith("iter,"):
            self.iterations.append((self.fresh, self.walks))
        self.fresh, self.walks = 0, []

    def flush(self) -> None:
        pass


def census(mode: str, seed: int, iterations: int, widths: tuple[int, ...]) -> Census:
    """Train ``iterations`` counted iterations in ``mode`` after the
    workload's warm-up, under a fresh census."""
    _, seen = workloads.testbed(seed)
    config = training.TrainConfig(
        mode=mode, head="proto", alpha=workloads.ALPHA, optimizer="adam",
        iterations=workloads.FULL.warmup_iters, way=workloads.WAY, shot=workloads.SHOT,
        query=workloads.QUERY, seed=seed, encoder_widths=widths)
    model, _ = training.train_loop(config, seen)
    counted = replace(config, iterations=iterations, seed=derive_seed(seed, "bench-chunk", 0))
    with Census().installed() as result:
        training.train_loop(counted, seen, init=model, log_file=result)
    return result


def report(name: str, result: Census) -> list[str]:
    counts = [fresh for fresh, _ in result.iterations]
    lines = [f"{name}: _fresh per iteration {' '.join(map(str, counts))}"]
    for k, (create_graph, by_op) in enumerate(result.iterations[0][1] if result.iterations else []):
        kind = "create_graph" if create_graph else "first order"
        ops = ", ".join(f"{op} {n}" for op, n in sorted(by_op.items(), key=lambda kv: (-kv[1], kv[0])))
        lines.append(f"  backward {k + 1} ({kind}): walk {sum(by_op.values())}: {ops}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=67)
    ap.add_argument("--iterations", type=int, default=3)
    ap.add_argument("--widths", type=int, nargs="+", default=list(workloads.WIDTHS))
    args = ap.parse_args(argv)
    for mode in ("lft", "ft"):
        result = census(mode, args.seed, args.iterations, tuple(args.widths))
        print("\n".join(report(f"train-{mode} seed={args.seed}", result)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
