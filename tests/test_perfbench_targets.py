"""perfbench's traced run wraps fsdg functions by name (``perfbench/layers.py``),
so a function deleted or renamed in fsdg breaks that run; this catches it."""

import sys
from pathlib import Path

import fsdg
import fsdg.checkpoint
import fsdg.encoder
import fsdg.evaluation
import fsdg.heads
import fsdg.rng
import fsdg.tasks
import fsdg.training

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402  (perfbench's list of traced functions)


def test_every_traced_function_is_defined_where_perfbench_wraps_it():
    targets = layers.targets(fsdg)
    assert targets
    for owner, attr, span in targets:
        assert attr in vars(owner), f"{span}: {getattr(owner, '__name__', owner)} has no {attr!r}"
